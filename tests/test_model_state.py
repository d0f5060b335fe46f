"""What a model's state is: the checkpoint sections each stage writes, the
optimizer's parameter names, and exact restores and copies.

The golden digests in test_golden.py catch any change to these bytes but
name no culprit; these tests say which section, dtype or name moved.
"""

import struct

import numpy as np
import pytest

from gdnsq import tensor as T
from gdnsq.checkpoint import load_arrays, save_arrays
from gdnsq.cli import main
from gdnsq.data import Dataset
from gdnsq.models import Model, make_model_spec
from gdnsq.pipeline import (QatRun, RunConfig, build_student_arrays,
                            ptq_minmax, read_model, save_teacher)

F8, I8, U1 = "float64", "int64", "uint8"

HEADER = {"config/json": U1, "spec/json": U1}

WEIGHT_SITE = ("log_s", "l", "log_range")
ACT_SITE = ("log_s", "raw_u")


def layers(indices, names):
    return {f"model/{i}/{n}": F8 for i in indices for n in names}


def quant_sites(indices):
    out = {}
    for i in indices:
        for site, names in (("weight", WEIGHT_SITE), ("act", ACT_SITE)):
            out.update({f"quant/layer{i}/{site}/{n}": F8 for n in names})
            out[f"quant/layer{i}/{site}/initialized"] = I8
    return out


MLP4_TEACHER = {**HEADER, **layers(range(4), ("W", "b"))}
MLP4_PTQ = {**MLP4_TEACHER, **quant_sites((1, 2))}
CONV3_PTQ = {**HEADER,
             **layers(range(3), ("W", "b", "bn_gamma", "bn_beta", "bn_rmean",
                                 "bn_rvar")),
             **layers((3,), ("W", "b")), **quant_sites((1, 2))}

# the optimizer's names, in the order of its flat buffers
MLP4_PARAMS = [
    "model/0/W", "model/0/b", "model/1/W", "model/1/b", "model/2/W",
    "model/2/b", "model/3/W", "model/3/b",
    "layer1/weight/log_s", "layer1/weight/l", "layer1/weight/log_range",
    "layer1/act/log_s", "layer1/act/raw_u",
    "layer2/weight/log_s", "layer2/weight/l", "layer2/weight/log_range",
    "layer2/act/log_s", "layer2/act/raw_u",
]
CONV3_PARAMS = [
    *(f"model/{i}/{n}" for i in range(3)
      for n in ("W", "b", "bn_gamma", "bn_beta")),
    "model/3/W", "model/3/b",
    *MLP4_PARAMS[8:],
]

MLP4_QAT = {
    **MLP4_PTQ, "opt/t": I8,
    **{f"opt/{mv}/{name}": F8 for mv in "mv" for name in MLP4_PARAMS},
    "meta/epoch": I8, "sched/c_r_sum": F8, "lr/phase": I8, "lr/lam": F8,
    "best/val_acc": F8, "best/epoch": I8, "meta/reached_epoch": I8,
    "rng/state": U1,
}


def sections(path):
    return {name: str(a.dtype) for name, a in load_arrays(path).items()}


def write_idx(path, arr):
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(bytes([0, 0, 0x08, arr.ndim])
                + struct.pack(f">{arr.ndim}I", *arr.shape) + arr.tobytes())


@pytest.fixture(scope="module")
def mlp4_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mlp4")
    data = ["--n-train", "128", "--n-val", "100"]
    assert main(["train-fp", "--model", "mlp4", "--epochs", "1", *data,
                 "--out", str(root / "teacher.ckpt")]) == 0
    assert main(["ptq", "--ckpt", str(root / "teacher.ckpt"), *data,
                 "--out", str(root / "ptq.ckpt")]) == 0
    assert main(["qat", "--ckpt", str(root / "ptq.ckpt"), "--teacher",
                 str(root / "teacher.ckpt"), "--epochs", "1", *data,
                 "--out", str(root / "run")]) == 0
    return root


def test_teacher_sections(mlp4_run):
    assert sections(mlp4_run / "teacher.ckpt") == MLP4_TEACHER


def test_ptq_student_sections(mlp4_run):
    assert sections(mlp4_run / "ptq.ckpt") == MLP4_PTQ


def test_qat_last_sections(mlp4_run):
    assert sections(mlp4_run / "run" / "last.ckpt") == MLP4_QAT


class Reads(dict):
    """A checkpoint's arrays that note the name of each section read."""

    def __init__(self, arrays):
        super().__init__(arrays)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def read_back(path, out):
    """Read the checkpoint at path as the stage after the one that wrote it
    does, write what was read to out, and return the sections never read."""
    arrays = Reads(load_arrays(path))
    quantized = "quant/layer1/act/log_s" in arrays
    config, model = read_model(arrays, path, quantized)
    if not quantized:
        save_teacher(out, model, config)
        return set(arrays) - arrays.read
    config, run = RunConfig(**config), None
    if "opt/t" in arrays:
        run = QatRun(config, model)
        run.load_state_arrays(arrays, path)
    save_arrays(out, build_student_arrays(config, model, run))
    return set(arrays) - arrays.read


@pytest.mark.parametrize("name", ["teacher.ckpt", "ptq.ckpt",
                                  "run/last.ckpt"])
def test_every_written_section_is_read_back(mlp4_run, tmp_path, name):
    path = mlp4_run / name
    assert read_back(path, tmp_path / "again.ckpt") == set()
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_run_sections_of_an_integer_lr0():
    # a checkpoint's config/json may hold lr0 as an integer; lr/lam was
    # then written as int64 until the annealing phase, and as float64
    # after a resume
    run = QatRun(RunConfig(lr0=1),
                 Model(make_model_spec("mlp4", 2, 2), quantized=True))
    arrays = run.state_arrays()
    assert {k: str(a.dtype) for k, a in arrays.items()} == \
        {k: MLP4_QAT[k] for k in arrays}


def test_conv3_student_sections(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for split, n in (("tr", 16), ("va", 8)):
        for kind, arr in (("img", rng.integers(0, 256, size=(n, 8, 8))),
                          ("lbl", np.arange(n) % 2)):
            paths.append(str(tmp_path / f"{split}-{kind}.idx"))
            write_idx(paths[-1], arr)
    data = "idx:" + ":".join(paths)
    assert main(["train-fp", "--model", "conv3", "--data", data,
                 "--epochs", "1", "--out", str(tmp_path / "teacher.ckpt")]) == 0
    assert main(["ptq", "--ckpt", str(tmp_path / "teacher.ckpt"),
                 "--out", str(tmp_path / "ptq.ckpt")]) == 0
    assert sections(tmp_path / "ptq.ckpt") == CONV3_PTQ


@pytest.mark.parametrize("spec_id,names", [("mlp4", MLP4_PARAMS),
                                           ("conv3", CONV3_PARAMS)])
def test_optimizer_names_and_order(spec_id, names):
    model = Model(make_model_spec(spec_id, 2, 2), quantized=True)
    assert [name for name, _ in model.named_parameters()] == names


def conv3_pair():
    """An FP conv3 teacher whose running statistics have moved, and a
    quantized conv3 student calibrated on the same images."""
    rng = np.random.default_rng(3)
    images = Dataset(rng.uniform(0.0, 1.0, size=(16, 1, 8, 8)),
                     np.arange(16) % 2, num_classes=2)
    spec = make_model_spec("conv3", 1, 2)
    teacher = Model(spec, init_seed=1)
    student = Model(spec, quantized=True, init_seed=2,
                    quant_rng=np.random.default_rng(0))
    for model in (teacher, student):
        for _ in range(3):
            T.reset_tape()
            model.forward(images.inputs, train=True)
    T.reset_tape()
    ptq_minmax(student, images)
    return teacher, student, images.inputs


def test_state_round_trip_restores_a_conv3_student_exactly():
    _, student, x = conv3_pair()
    saved = {k: np.array(v) for k, v in student.state_arrays().items()}
    assert np.any(saved["model/1/bn_rmean"] != 0.0)
    assert np.any(saved["model/1/bn_rvar"] != 1.0)
    restored = Model(student.spec, quantized=True, init_seed=9)
    restored.load_state_arrays(saved)
    again = restored.state_arrays()
    assert sorted(again) == sorted(saved)
    for name, arr in saved.items():
        np.testing.assert_array_equal(again[name], arr, err_msg=name)
        assert np.asarray(again[name]).dtype == arr.dtype, name
    assert all(fq.initialized for fq in restored.all_quantizers())
    np.testing.assert_array_equal(restored.predict_logits(x),
                                  student.predict_logits(x))


def test_copied_weights_do_not_follow_the_teacher():
    teacher, student, _ = conv3_pair()
    student.copy_weights_from(teacher)
    copied = {k: np.array(v) for k, v in student.state_arrays().items()}
    for layer in teacher.layers:
        layer.W.data += 1.0
        layer.b.data += 1.0
        if layer.bn is not None:
            for arr in (layer.bn.gamma.data, layer.bn.beta.data,
                        layer.bn.running_mean, layer.bn.running_var):
                arr += 1.0
    for name, arr in student.state_arrays().items():
        np.testing.assert_array_equal(arr, copied[name], err_msg=name)
