"""The conv3_bars generator: IDX round trip and a learnable task."""

import contextlib
import dataclasses
import io
import os

import numpy as np

from gdnsq.checkpoint import array_to_json, load_arrays
from gdnsq.cli import main
from gdnsq.data import read_idx
from workloads import BARS_CLASSES, WORKLOADS, make_bars, prepare_inputs


def test_bars_round_trip_through_read_idx(tmp_path):
    w = dataclasses.replace(WORKLOADS["conv3_bars"], n_train=40, n_val=24)
    data_id = prepare_inputs(w, 3, str(tmp_path))
    kind, tr_img, tr_lbl, va_img, va_lbl = data_id.split(":")
    assert kind == "idx"
    for split, n, img_path, lbl_path in (("train", 40, tr_img, tr_lbl),
                                         ("val", 24, va_img, va_lbl)):
        images, labels = make_bars(n, 3, split)
        assert images.shape == (n, 16, 16) and images.dtype == np.uint8
        np.testing.assert_array_equal(read_idx(img_path, scale=False), images)
        np.testing.assert_array_equal(read_idx(lbl_path, scale=False), labels)
        assert np.bincount(labels).tolist() == [n // BARS_CLASSES] * 4


def test_bars_are_reproducible_and_splits_differ():
    a, la = make_bars(64, 5, "train")
    b, lb = make_bars(64, 5, "train")
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(la, lb)
    assert not np.array_equal(make_bars(64, 5, "val")[0], a)
    assert not np.array_equal(make_bars(64, 6, "train")[0], a)


def test_conv3_teacher_beats_chance(tmp_path):
    w = WORKLOADS["conv3_bars"]
    data_id = prepare_inputs(w, 0, str(tmp_path))
    out = os.path.join(str(tmp_path), "teacher.ckpt")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train-fp", "--model", "conv3", "--data", data_id,
                   "--seed", "0", "--epochs", str(w.fp_epochs),
                   "--lr", str(w.fp_lr), "--batch-size", str(w.batch_size),
                   "--out", out])
    assert rc == 0
    meta = array_to_json(load_arrays(out)["config/json"])
    assert meta["val_acc"] >= 0.6  # chance is 1/4
