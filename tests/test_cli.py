import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gdnsq.checkpoint import (array_to_json, json_to_array, load_arrays,
                              save_arrays)
from gdnsq.cli import build_parser, main
from gdnsq.data import Dataset
from gdnsq.losses import DISTILL_KINDS
from gdnsq.models import Model, make_model_spec
from gdnsq.pipeline import RunConfig, build_student_arrays, ptq_minmax
from gdnsq.quantizer import NOISE_MODES
from test_model_state import write_idx


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """train-fp -> ptq once for the whole module; individual tests branch."""
    root = tmp_path_factory.mktemp("cli")
    (root / "fp").mkdir()
    (root / "ptq").mkdir()
    teacher = root / "fp" / "teacher.ckpt"
    rc = main(["train-fp", "--model", "mlp3", "--data", "two_gaussians",
               "--seed", "0", "--epochs", "15", "--lr", "0.01",
               "--n-train", "256", "--n-val", "128",
               "--out", str(teacher)])
    assert rc == 0
    student = root / "ptq" / "student.ckpt"
    rc = main(["ptq", "--ckpt", str(teacher), "--n-train", "256",
               "--n-val", "128", "--out", str(student)])
    assert rc == 0
    return root, teacher, student


def test_train_fp_writes_checkpoint_and_run_json(workspace):
    root, teacher, _ = workspace
    assert teacher.exists()
    run = json.loads((root / "fp" / "run.json").read_text())
    assert run["epochs"] == 15 and run["seed"] == 0


def test_ptq_checkpoint_loads(workspace):
    _, _, student = workspace
    arrays = load_arrays(student)
    assert "quant/layer1/weight/log_s" in arrays


def test_audit_prints_report(workspace, capsys):
    _, _, student = workspace
    rc = main(["audit", "--ckpt", str(student), "--n-train", "256",
               "--n-val", "128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "layer1/weight" in out and "max actual" in out


def test_qat_roundtrip_and_flag_mapping(workspace):
    root, teacher, student = workspace
    out = root / "qat4"
    rc = main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
               "--wbits", "4", "--abits", "4", "--lr0", "0.01",
               "--epochs", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    run = json.loads((out / "run.json").read_text())
    assert run["wbits"] == 4.0 and run["abits"] == 4.0
    assert (out / "metrics.csv").exists() and (out / "last.ckpt").exists()


def test_resume_under_changed_flags_refused(workspace, capsys):
    root, teacher, student = workspace
    out = root / "qat_resume"

    def qat(wbits, epochs, *extra):
        return main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
                     "--wbits", wbits, "--abits", "4", "--seed", "3",
                     "--epochs", epochs, "--out", str(out), *extra])

    assert qat("4", "1") == 0
    run_json = (out / "run.json").read_text()
    resume = ("--resume", str(out / "last.ckpt"))
    assert qat("3", "2", *resume) == 1
    assert "wbits: 4.0 -> 3.0" in capsys.readouterr().err
    assert (out / "run.json").read_text() == run_json
    assert qat("4", "2", *resume) == 0  # a longer run resumes
    assert json.loads((out / "run.json").read_text())["epochs"] == 2


def _qat4(workspace):
    """A one-epoch QAT run directory, shared by the export tests."""
    root, teacher, student = workspace
    out = root / "qat4"
    if not (out / "metrics.csv").exists():
        main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
              "--wbits", "4", "--abits", "4", "--epochs", "1",
              "--out", str(out)])
    return out


def test_export_metrics_stdout(workspace, capsys):
    run = _qat4(workspace)
    capsys.readouterr()  # the summary of a qat run made just now
    rc = main(["export-metrics", "--run-dir", str(run)])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("step,phase,lambda,t_q,c_r,loss")


def test_export_metrics_creates_out_parent_directory(workspace, tmp_path):
    run = _qat4(workspace)
    out = tmp_path / "newdir" / "sub" / "m.csv"
    assert main(["export-metrics", "--run-dir", str(run),
                 "--out", str(out)]) == 0
    assert out.read_text() == (run / "metrics.csv").read_text()


def _export_damaged(workspace, tmp_path, damage):
    out = _qat4(workspace)
    lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
    run = tmp_path / "damaged"
    run.mkdir()
    (run / "metrics.csv").write_text("".join(damage(lines)))
    return main(["export-metrics", "--run-dir", str(run)])


def test_export_metrics_rejects_truncated_last_row(workspace, tmp_path,
                                                   capsys):
    kept = []

    def truncate(lines):
        kept.extend(lines)
        return lines[:-1] + [lines[-1][:30]]

    rc = _export_damaged(workspace, tmp_path, truncate)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"line {len(kept)} has " in err and "fields, expected 15" in err


def test_export_metrics_rejects_garbled_cell(workspace, tmp_path, capsys):
    def garble(lines):
        cells = lines[3].split(",")
        cells[5] = cells[5][:4] + "x" + cells[5][5:]
        return lines[:3] + [",".join(cells)] + lines[4:]

    rc = _export_damaged(workspace, tmp_path, garble)
    assert rc == 1
    assert "line 4: loss" in capsys.readouterr().err


def test_export_metrics_rejects_step_going_back(workspace, tmp_path, capsys):
    rc = _export_damaged(workspace, tmp_path,
                         lambda lines: lines[:2] + lines[3:5] + lines[2:3])
    assert rc == 1
    assert "line 5: step 1 follows step 3" in capsys.readouterr().err


def test_fuse_emits_integer_weights(workspace):
    root, _, student = workspace
    fused = root / "fused.ckpt"
    rc = main(["fuse", "--ckpt", str(student), "--out", str(fused)])
    assert rc == 0
    arrays = load_arrays(fused)
    assert arrays["fuse/layer1/int_weights"].dtype == np.int64
    assert arrays["fuse/layer1/scales"].shape == (2,)


@pytest.mark.parametrize("command", ["train-fp", "ptq", "fuse"])
def test_out_parent_directory_is_created(workspace, tmp_path, command):
    _, teacher, student = workspace
    argv = {"train-fp": ["train-fp", "--model", "mlp3", "--epochs", "1",
                         "--n-train", "128", "--n-val", "128"],
            "ptq": ["ptq", "--ckpt", str(teacher), "--n-train", "256",
                    "--n-val", "128"],
            "fuse": ["fuse", "--ckpt", str(student)]}[command]
    out = tmp_path / "new" / "dir" / "out.ckpt"
    assert main(argv + ["--out", str(out)]) == 0
    load_arrays(out)


def test_fuse_refuses_conv_student(tmp_path, capsys):
    spec = make_model_spec("conv3", 1, 2)
    student = Model(spec, quantized=True, init_seed=0,
                    quant_rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    images = Dataset(rng.uniform(0.0, 1.0, size=(8, 1, 8, 8)),
                     np.arange(8) % 2, num_classes=2)
    ptq_minmax(student, images)
    ckpt = tmp_path / "conv3.ckpt"
    save_arrays(ckpt, build_student_arrays(RunConfig(model="conv3"), student))
    out = tmp_path / "fused.ckpt"
    rc = main(["fuse", "--ckpt", str(ckpt), "--out", str(out)])
    assert rc == 1
    assert "integer fusion" in capsys.readouterr().err
    assert not out.exists()


def test_verify_filtered_exits_zero(capsys):
    rc = main(["verify", "--filter", "bsc_reduction"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_filter_matching_nothing_refused(capsys):
    assert main(["verify", "--filter", "nosuchoracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no oracle check matches 'nosuchoracle'\n"
    assert "oracle checks passed" not in captured.out


def test_verify_runs_from_the_package_alone(tmp_path):
    # the oracles that check gradients run with only src/ importable, so
    # the package cannot lean on the test-side primitive ops
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    procs = [subprocess.Popen([sys.executable, "-m", "gdnsq.cli", "verify",
                               "--filter", name], cwd=tmp_path, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for name in ("ste", "gradcheck")]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, out + err
        assert "PASS" in out and "FAIL" not in out


def test_cli_import_leaves_the_oracles_out():
    # only verify runs the oracle suite; the other commands do not load it
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gdnsq.cli; print('gdnsq.oracles' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# conv3 through main in one process, counting the minor page faults of the
# third of three identical qats: the second still carries a one-time heap
# growth whose size depends on the heap's layout. The paths are relative, so
# the run allocates the same in any test directory.
HEAP_SCRIPT = """
import resource
from gdnsq.cli import main

data = ["--data", "idx:tr-img.idx:tr-lbl.idx:va-img.idx:va-lbl.idx"]
assert main(["train-fp", "--model", "conv3", "--epochs", "2", *data,
             "--out", "teacher.ckpt"]) == 0
assert main(["ptq", "--ckpt", "teacher.ckpt", "--out", "ptq.ckpt"]) == 0
for run in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["qat", "--ckpt", "ptq.ckpt", "--teacher", "teacher.ckpt",
                 "--epochs", "3", "--out", f"q{run}"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_conv3_qat_keeps_its_arrays_in_the_heap(tmp_path):
    # without set_heap, glibc hands the audit's and the steps' large arrays
    # back to the system and faults them in again: about 500-2900 faults here
    rng = np.random.default_rng(0)
    for split, n in (("tr", 128), ("va", 96)):
        write_idx(tmp_path / f"{split}-img.idx",
                  rng.integers(0, 256, size=(n, 16, 16)))
        write_idx(tmp_path / f"{split}-lbl.idx", np.arange(n) % 2)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 100


@pytest.mark.parametrize("lookup", ["no_library", "no_mallopt"])
def test_main_runs_without_mallopt(monkeypatch, lookup, capsys):
    calls = []

    def cdll(name):
        calls.append(name)
        if lookup == "no_library":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["verify", "--filter", "lemma"]) == 0
    assert calls == [None]
    assert "FAIL" not in capsys.readouterr().out


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["qat", "--nonsense", "1"])
    assert e.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


@pytest.mark.parametrize("both", [True, False],
                         ids=["ckpt_and_no_ptq", "neither"])
def test_qat_takes_its_student_from_exactly_one_source(workspace, tmp_path,
                                                       capsys, both):
    _, teacher, student = workspace
    argv = ["--ckpt", str(student), "--no-ptq"] if both else []
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as e:
        main(["qat", *argv, "--teacher", str(teacher), "--epochs", "1",
              "--out", str(out)])
    assert e.value.code == 2
    assert "--ckpt" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_precedence(workspace, tmp_path):
    # the student's recorded config/json, as a ptq --noise-mode of an
    # earlier version wrote it
    _, teacher, student = workspace
    arrays = load_arrays(student)
    config = array_to_json(arrays["config/json"])
    default = RunConfig()
    assert (config["epochs"], config["wbits"], config["noise_mode"]) == (
        default.epochs, default.wbits, default.noise_mode)
    config.update(epochs=3, wbits=2.0, noise_mode="rounding_residual")
    arrays["config/json"] = json_to_array(config)
    recorded = tmp_path / "student.ckpt"
    save_arrays(recorded, arrays)
    out = tmp_path / "run"
    rc = main(["qat", "--ckpt", str(recorded), "--teacher", str(teacher),
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
    run = json.loads((out / "run.json").read_text())
    assert run["epochs"] == 1  # flag beats the student's record
    # the student's record beats the default
    assert run["wbits"] == 2.0 and run["noise_mode"] == "rounding_residual"


def test_seed_defaults_to_zero_whatever_the_environment(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("GDNSQ_SEED", "77")
    out = tmp_path / "teacher.ckpt"
    rc = main(["train-fp", "--model", "mlp2", "--data", "two_gaussians",
               "--epochs", "1", "--n-train", "128", "--n-val", "128",
               "--out", str(out)])
    assert rc == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["seed"] == 0


def test_no_ptq_records_the_teacher_model(tmp_path):
    data = ["--n-train", "128", "--n-val", "128"]
    teacher = tmp_path / "teacher.ckpt"
    assert main(["train-fp", "--model", "mlp4", "--epochs", "1", *data,
                 "--out", str(teacher)]) == 0
    out = tmp_path / "run"
    assert main(["qat", "--no-ptq", "--teacher", str(teacher), "--epochs",
                 "1", *data, "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["model"] == "mlp4"
    arrays = load_arrays(out / "last.ckpt")
    assert array_to_json(arrays["config/json"])["model"] == "mlp4"


def test_train_fp_lr_flag_reaches_config(tmp_path):
    out = tmp_path / "teacher.ckpt"
    rc = main(["train-fp", "--model", "mlp2", "--data", "two_gaussians",
               "--epochs", "1", "--lr", "0.02", "--n-train", "128",
               "--n-val", "128", "--out", str(out)])
    assert rc == 0
    assert json.loads((tmp_path / "run.json").read_text())["lr"] == 0.02


def _subparser(name):
    for action in build_parser()._subparsers._group_actions:
        return action.choices[name]


def _choices(subparser, dest):
    return next(a.choices for a in subparser._actions if a.dest == dest)


def test_choice_lists_come_from_the_code():
    assert _choices(_subparser("qat"), "noise_mode") == NOISE_MODES
    assert _choices(_subparser("qat"), "distill") == DISTILL_KINDS


def test_help_documents_symbols():
    text = _subparser("qat").format_help()
    assert "omega_w*" in text and "omega_a*" in text
    assert "t_q" in text and "lambda_0" in text


def test_runtime_failure_exits_one(tmp_path):
    rc = main(["audit", "--ckpt", str(tmp_path / "missing.ckpt")])
    assert rc == 1


@pytest.mark.parametrize("command", ["audit", "fuse", "qat"])
def test_teacher_checkpoint_refused_where_a_student_is_read(workspace, tmp_path,
                                                           capsys, command):
    _, teacher, _ = workspace
    argv = {"audit": ["audit", "--ckpt", str(teacher)],
            "fuse": ["fuse", "--ckpt", str(teacher),
                     "--out", str(tmp_path / "fused.ckpt")],
            "qat": ["qat", "--ckpt", str(teacher), "--teacher", str(teacher),
                    "--out", str(tmp_path / "run")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(teacher) in err
    assert "not a student checkpoint" in err


def test_run_config_without_quantizer_state_is_not_a_student(workspace,
                                                             tmp_path, capsys):
    # a teacher's arrays under a student's run config: audit reported on
    # sites that were never initialized before
    _, teacher, student = workspace
    arrays = load_arrays(teacher)
    arrays["config/json"] = load_arrays(student)["config/json"]
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    assert main(["audit", "--ckpt", str(bad)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {bad} is not a student checkpoint\n"


@pytest.mark.parametrize("command", ["qat", "audit"])
def test_student_with_a_removed_setting_refused_by_key(workspace, tmp_path,
                                                       capsys, command):
    # every student written while batchnorm freezing existed records it
    _, teacher, student = workspace
    arrays = load_arrays(student)
    config = array_to_json(arrays["config/json"])
    config["batchnorm_frozen"] = False
    arrays["config/json"] = json_to_array(config)
    old = tmp_path / "ptq.ckpt"
    save_arrays(old, arrays)
    argv = {"qat": ["qat", "--ckpt", str(old), "--teacher", str(teacher),
                    "--epochs", "1", "--out", str(tmp_path / "run")],
            "audit": ["audit", "--ckpt", str(old)]}[command]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == (
        f"error: {old}: config keys differ from RunConfig's (only in the "
        f"checkpoint: batchnorm_frozen; only in RunConfig: none)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["ptq", "qat"])
def test_student_checkpoint_refused_where_a_teacher_is_read(workspace,
                                                           tmp_path, capsys,
                                                           command):
    _, teacher, student = workspace
    argv = {"ptq": ["ptq", "--ckpt", str(student),
                    "--out", str(tmp_path / "ptq2.ckpt")],
            "qat": ["qat", "--ckpt", str(student), "--teacher", str(student),
                    "--epochs", "1", "--out", str(tmp_path / "run")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(student) in err
    assert "not a teacher" in err
    assert not (tmp_path / "ptq2.ckpt").exists()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["ptq", "qat"])
def test_fused_container_refused_where_a_teacher_is_read(workspace, tmp_path,
                                                         capsys, command):
    _, _, student = workspace
    fused = tmp_path / "fused.ckpt"
    assert main(["fuse", "--ckpt", str(student), "--out", str(fused)]) == 0
    capsys.readouterr()
    argv = {"ptq": ["ptq", "--ckpt", str(fused),
                    "--out", str(tmp_path / "ptq2.ckpt")],
            "qat": ["qat", "--ckpt", str(student), "--teacher", str(fused),
                    "--epochs", "1", "--out", str(tmp_path / "run")]}[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(fused) in err
    assert "not a teacher checkpoint" in err
    assert not (tmp_path / "ptq2.ckpt").exists()
    assert not (tmp_path / "run").exists()


def test_qat_without_epochs_names_no_checkpoint(workspace, tmp_path, capsys):
    _, teacher, student = workspace
    out = tmp_path / "q0"
    assert main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
                 "--epochs", "0", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["last_ckpt"] is None and summary["best_ckpt"] is None
    assert not (out / "last.ckpt").exists()


def _qat10(student, teacher, out, *extra):
    """A 2-epoch qat at 10/10 bits, which meets its targets at epoch 0."""
    return main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
                 "--wbits", "10", "--abits", "10", "--seed", "3",
                 "--epochs", "2", "--out", str(out), *extra])


def test_qat_names_only_checkpoints_in_its_out(workspace, tmp_path, capsys):
    # a finished run resumed into another directory is refused and
    # creates nothing; resumed in place with no epoch left to run, it
    # names the checkpoints it wrote the first time
    _, teacher, student = workspace
    assert _qat10(student, teacher, tmp_path / "a") == 0
    first = json.loads(capsys.readouterr().out)
    assert first["best_ckpt"] == str(tmp_path / "a" / "best.ckpt")
    resume = ("--resume", str(tmp_path / "a" / "last.ckpt"))
    assert _qat10(student, teacher, tmp_path / "b", *resume) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot resume")
    assert not (tmp_path / "b").exists()
    assert _qat10(student, teacher, tmp_path / "a", *resume) == 0
    assert json.loads(capsys.readouterr().out) == first


def test_resume_without_metrics_refused(workspace, tmp_path, capsys):
    _, teacher, student = workspace
    run = tmp_path / "r"
    assert _qat10(student, teacher, run) == 0
    (run / "metrics.csv").unlink()
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert _qat10(student, teacher, run, "--epochs", "3",
                  "--resume", str(run / "last.ckpt")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "metrics.csv is missing" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("case,bad", [
    ("zero_dims", "tr-img"), ("one_d_images", "tr-img"),
    ("empty_train", "tr-img"), ("empty_val", "va-img")])
def test_malformed_idx_refused_before_training(tmp_path, capsys, case, bad):
    rng = np.random.default_rng(0)
    arrays = {"tr-img": rng.integers(0, 256, size=(16, 8, 8)),
              "tr-lbl": np.arange(16) % 2,
              "va-img": rng.integers(0, 256, size=(8, 8, 8)),
              "va-lbl": np.arange(8) % 2}
    if case == "one_d_images":
        arrays["tr-img"] = arrays["tr-img"][:, 0, 0]
    elif case.startswith("empty"):
        split = "tr" if case == "empty_train" else "va"
        arrays[f"{split}-img"] = np.zeros((0, 8, 8))
        arrays[f"{split}-lbl"] = np.zeros(0)
    paths = {name: str(tmp_path / f"{name}.idx") for name in arrays}
    for name, arr in arrays.items():
        write_idx(paths[name], arr)
    if case == "zero_dims":  # a header that declares no dimensions
        with open(paths["tr-img"], "wb") as f:
            f.write(bytes([0, 0, 0x08, 0]))
    data = "idx:" + ":".join(paths[n] for n in ("tr-img", "tr-lbl",
                                                "va-img", "va-lbl"))
    teacher = tmp_path / "teacher.ckpt"
    assert main(["train-fp", "--model", "conv3", "--data", data,
                 "--epochs", "1", "--out", str(teacher)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and paths[bad] in err
    assert not teacher.exists()

def _from_teacher(command, teacher, out, *extra):
    """Build a student from teacher with ptq, or with a one-epoch
    qat --no-ptq, into the directory out; returns (run.json, checkpoint)."""
    if command == "ptq":
        ckpt = out / "student.ckpt"
        argv = ["ptq", "--ckpt", str(teacher), "--out", str(ckpt)]
    else:
        ckpt = out / "last.ckpt"
        argv = ["qat", "--no-ptq", "--teacher", str(teacher), "--epochs", "1",
                "--out", str(out)]
    assert main([*argv, *extra]) == 0
    return json.loads((out / "run.json").read_text()), ckpt


@pytest.mark.parametrize("command", ["ptq", "qat_no_ptq"])
def test_ptq_calibrates_on_the_teachers_splits(workspace, tmp_path, command):
    # the workspace teacher trained on 256/128 samples; a student built
    # from it without split flags reads the sizes from its meta
    _, teacher, _ = workspace
    run, ckpt = _from_teacher(command, teacher, tmp_path / "meta")
    assert (run["n_train"], run["n_val"]) == (256, 128)
    _, with_flags = _from_teacher(command, teacher, tmp_path / "flags",
                                  "--n-train", "256", "--n-val", "128")
    assert ckpt.read_bytes() == with_flags.read_bytes()


@pytest.mark.parametrize("command", ["ptq", "qat_no_ptq"])
def test_data_flags_and_config_beat_the_teachers_splits(workspace, tmp_path,
                                                        command):
    _, teacher, _ = workspace
    run, _ = _from_teacher(command, teacher, tmp_path / "run", "--n-val",
                           "112")
    assert (run["dataset"], run["n_train"], run["n_val"]) == (
        "two_gaussians", 256, 112)


@pytest.mark.parametrize("command", ["ptq", "qat_no_ptq"])
@pytest.mark.parametrize("key,value,want", [
    ("n_train", None, "config has no n_train"),
    ("dataset", 5, "config dataset must be of type str, got 5"),
    ("n_train", "512", "config n_train must be of type int, got '512'")],
    ids=["no_n_train", "dataset_a_number", "n_train_a_string"])
def test_teacher_split_settings_are_checked(workspace, tmp_path, capsys,
                                            command, key, value, want):
    # a missing value took TRAIN_FP_DEFAULTS' and a mistyped one gave a
    # traceback before; value None deletes the key
    _, teacher, _ = workspace
    arrays = load_arrays(teacher)
    meta = array_to_json(arrays["config/json"])
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    arrays["config/json"] = json_to_array(meta)
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    out = tmp_path / "out"
    argv = (["ptq", "--ckpt", str(bad), "--out", str(out / "student.ckpt")]
            if command == "ptq" else
            ["qat", "--no-ptq", "--teacher", str(bad), "--epochs", "1",
             "--out", str(out)])
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {bad}: {want}\n"
    assert not out.exists()


def test_student_records_the_teacher_spec_model(workspace, tmp_path):
    # the id is the spec's, not the teacher's meta: a teacher without the
    # model key gave a student that recorded "custom"
    _, teacher, _ = workspace
    arrays = load_arrays(teacher)
    meta = array_to_json(arrays["config/json"])
    del meta["model"]
    arrays["config/json"] = json_to_array(meta)
    bare = tmp_path / "bare.ckpt"
    save_arrays(bare, arrays)
    run, ckpt = _from_teacher("ptq", bare, tmp_path)
    assert run["model"] == "mlp3"
    assert array_to_json(load_arrays(ckpt)["config/json"])["model"] == "mlp3"


def test_resume_from_a_ptq_checkpoint_refused(workspace, tmp_path, capsys):
    _, teacher, student = workspace
    last = tmp_path / "run" / "last.ckpt"
    save_arrays(last, load_arrays(student))
    rc = main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
               "--epochs", "1", "--resume", str(last),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(last) in err
    assert "no optimizer or schedule state" in err
    assert os.listdir(tmp_path / "run") == ["last.ckpt"]


@pytest.mark.parametrize("case", [
    "config_not_json", "teacher_config_not_utf8", "teacher_config_a_list",
    "no_spec", "spec_a_list", "wbits_a_string", "noise_mode_bogus"])
def test_malformed_checkpoint_json_refused(workspace, tmp_path, capsys, case):
    _, teacher, student = workspace
    source = teacher if case.startswith("teacher") else student
    arrays = load_arrays(source)
    spec = array_to_json(arrays["spec/json"])
    config = array_to_json(arrays["config/json"])
    if case == "config_not_json":
        arrays["config/json"] = np.frombuffer(b"{epochs: 3", dtype=np.uint8)
    elif case == "teacher_config_not_utf8":
        arrays["config/json"] = np.frombuffer(b"{\xff}", dtype=np.uint8)
    elif case == "teacher_config_a_list":
        arrays["config/json"] = json_to_array([config])
    elif case == "no_spec":
        del arrays["spec/json"]
    elif case == "spec_a_list":
        arrays["spec/json"] = json_to_array([spec])
    elif case == "wbits_a_string":
        config["wbits"] = "4"
    else:
        config["noise_mode"] = "bogus"
    if case in ("wbits_a_string", "noise_mode_bogus"):
        arrays["config/json"] = json_to_array(config)
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    out = tmp_path / "ptq" / "student.ckpt"
    argv = (["ptq", "--ckpt", str(bad), "--out", str(out)]
            if source is teacher else ["audit", "--ckpt", str(bad)])
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ")
    assert not out.parent.exists()


SPEC_EDITS = {
    "no_model": ("model", None, "spec has no key 'model'"),
    "no_in": ("in", None, "spec has no key 'in'"),
    "no_classes": ("classes", None, "spec has no key 'classes'"),
    "unknown_id": ("model", "resnet99", "unknown model spec id 'resnet99'"),
    **{f"{key}_{name}": (key, value,
                         f"spec '{key}' is {value!r}, not an integer >= 1")
       for key in ("in", "classes")
       for name, value in (("a_string", "2"), ("a_float", 2.0),
                           ("a_bool", True), ("zero", 0))},
}


@pytest.mark.parametrize("key,value,want", SPEC_EDITS.values(),
                         ids=SPEC_EDITS.keys())
def test_malformed_spec_refused(workspace, tmp_path, capsys, key, value,
                                want):
    # value None deletes the key
    _, _, student = workspace
    arrays = load_arrays(student)
    spec = array_to_json(arrays["spec/json"])
    if value is None:
        del spec[key]
    else:
        spec[key] = value
    arrays["spec/json"] = json_to_array(spec)
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    assert main(["audit", "--ckpt", str(bad)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {want}\n"


# The workspace's mlp3 as checkpoints stored it before a spec named its
# model by id: a list of layers, each with a batchnorm flag.
LAYER_LIST_SPEC = {"layers": [
    {"kind": "linear", "in": 2, "out": 48, "act": "relu", "bn": False},
    {"kind": "linear", "in": 48, "out": 48, "act": "relu", "bn": False},
    {"kind": "linear", "in": 48, "out": 2, "act": "identity", "bn": False}],
    "num_classes": 2}


@pytest.mark.parametrize("command", ["ptq", "qat", "audit", "fuse"])
def test_layer_list_checkpoint_refused(workspace, tmp_path, capsys, command):
    _, teacher, student = workspace
    old_teacher, old_student = tmp_path / "teacher.ckpt", tmp_path / "s.ckpt"
    for path, old in ((teacher, old_teacher), (student, old_student)):
        arrays = load_arrays(path)
        arrays["spec/json"] = json_to_array(LAYER_LIST_SPEC)
        save_arrays(old, arrays)
    out = tmp_path / "out"
    argv = {"ptq": ["ptq", "--ckpt", str(old_teacher),
                    "--out", str(out / "student.ckpt")],
            "qat": ["qat", "--ckpt", str(old_student), "--teacher",
                    str(old_teacher), "--epochs", "1", "--out", str(out)],
            "audit": ["audit", "--ckpt", str(old_student)],
            "fuse": ["fuse", "--ckpt", str(old_student),
                     "--out", str(out / "fused.npz")]}[command]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == "error: spec has no key 'model'\n"
    assert not out.exists()


def test_fuse_refuses_a_linear_layer_with_batchnorm(workspace, tmp_path,
                                                   capsys):
    # a layer list could give a linear layer batchnorm, which the integer
    # forward skips: fuse wrote it with exit 0, 5 logits off the
    # fake-quant forward
    _, _, student = workspace
    arrays = load_arrays(student)
    spec = json.loads(json.dumps(LAYER_LIST_SPEC))
    spec["layers"][1]["bn"] = True
    arrays["spec/json"] = json_to_array(spec)
    rng = np.random.default_rng(0)
    for name in ("bn_gamma", "bn_beta", "bn_rmean"):
        arrays[f"model/1/{name}"] = rng.normal(size=48)
    arrays["model/1/bn_rvar"] = rng.uniform(0.5, 2.0, size=48)
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    out = tmp_path / "fused.npz"
    assert main(["fuse", "--ckpt", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spec has no key 'model'\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value,named", [
    ("lr/lam", None, "'lr/lam'"),
    ("opt/m/model/0/W", None, "'opt/m/model/0/W'"),
    ("config/json", json_to_array([1]), "holds no run config"),
    ("sched/c_r_sum", np.array([1.0, 2.0]),
     "section 'sched/c_r_sum' has shape (2,), expected ()"),
    ("opt/m/layer1/act/log_s", np.zeros(3),
     "section 'opt/m/layer1/act/log_s' has shape (3,), expected ()")],
    ids=["no_lr_lam", "no_opt_moment", "config_a_list",
         "c_r_sum_of_two_values", "moment_of_three_values"])
def test_resume_refuses_a_damaged_run_state(workspace, tmp_path, capsys, key,
                                            value, named):
    # value None deletes the section
    def damage(arrays):
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value

    assert named in _resume_damaged(workspace, tmp_path, capsys, damage)


def test_resume_refuses_the_packed_rng_state_of_earlier_runs(
        workspace, tmp_path, capsys):
    # a last.ckpt written before rng/state was JSON holds the PCG64 state
    # packed into 40 bytes: state and inc (16 each), then has_uint32 and
    # uinteger (4 each), all little-endian
    def pack(arrays):
        st = array_to_json(arrays["rng/state"])
        raw = (st["state"]["state"].to_bytes(16, "little")
               + st["state"]["inc"].to_bytes(16, "little")
               + st["has_uint32"].to_bytes(4, "little")
               + st["uinteger"].to_bytes(4, "little"))
        arrays["rng/state"] = np.frombuffer(raw, dtype=np.uint8)

    assert "'rng/state'" in _resume_damaged(workspace, tmp_path, capsys, pack)


def _resume_damaged(workspace, tmp_path, capsys, damage):
    """Run a qat, let damage edit the arrays of its last.ckpt, the only
    checkpoint a run resumes from, and resume it; the resume must exit 1
    and leave the run directory as it was. Returns its stderr."""
    _, teacher, student = workspace
    run = tmp_path / "r"
    assert _qat10(student, teacher, run) == 0
    arrays = load_arrays(run / "last.ckpt")
    damage(arrays)
    save_arrays(run / "last.ckpt", arrays)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert _qat10(student, teacher, run, "--epochs", "3",
                  "--resume", str(run / "last.ckpt")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    return err


@pytest.mark.parametrize("command", ["audit", "ptq"])
def test_spec_that_does_not_fit_the_arrays_refused(workspace, tmp_path, capsys,
                                                   command):
    # the input size of the spec edited 2 -> 3, the arrays left as they
    # are: a traceback from the reshape of the first layer before
    _, teacher, student = workspace
    arrays = load_arrays(student if command == "audit" else teacher)
    spec = array_to_json(arrays["spec/json"])
    spec["in"] = 3
    arrays["spec/json"] = json_to_array(spec)
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    out = tmp_path / "ptq" / "student.ckpt"
    argv = {"audit": ["audit", "--ckpt", str(bad)],
            "ptq": ["ptq", "--ckpt", str(bad), "--out", str(out)]}[command]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == ("error: checkpoint section 'model/0/W' "
                                    "has shape (2, 48), expected (3, 48)\n")
    assert not out.parent.exists()


def test_missing_model_section_is_named(workspace, tmp_path, capsys):
    _, _, student = workspace
    arrays = load_arrays(student)
    del arrays["model/1/W"]
    cut = tmp_path / "cut.ckpt"
    save_arrays(cut, arrays)
    assert main(["audit", "--ckpt", str(cut)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'model/1/W'" in err


@pytest.mark.parametrize("case", ["zero_batch", "negative_batch", "negative_epochs",
                                  "negative_lr0", "nan_wbits", "nan_abits",
                                  "negative_tq_init", "negative_seed",
                                  "negative_data_seed", "inf_lr0",
                                  "inf_tq_init"])
def test_bad_qat_settings_refused_before_any_output(workspace, tmp_path,
                                                    capsys, case):
    _, teacher, student = workspace
    extra = {"zero_batch": ["--batch-size", "0"],
             "negative_batch": ["--batch-size", "-4"],
             "negative_epochs": ["--epochs", "-2"],
             "negative_lr0": ["--lr0", "-0.5"],
             "nan_wbits": ["--wbits", "nan"],
             "nan_abits": ["--abits", "nan"],
             "negative_tq_init": ["--tq-init", "-5"],
             "negative_seed": ["--seed", "-2"],
             "negative_data_seed": ["--data-seed", "-1"],
             "inf_lr0": ["--lr0", "inf"],
             "inf_tq_init": ["--tq-init", "inf"]}[case]
    out = tmp_path / "run"
    assert main(["qat", "--ckpt", str(student), "--teacher", str(teacher),
                 "--epochs", "1", *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("extra,named", [
    (["--epochs", "-1"], "epochs"), (["--lr", "0"], "learning rate"),
    (["--seed", "-3"], "seed"), (["--data-seed", "-1"], "data seed"),
    (["--lr", "inf"], "learning rate")],
    ids=["negative_epochs", "zero_lr", "negative_seed", "negative_data_seed",
         "inf_lr"])
def test_bad_train_fp_settings_refused_before_any_output(tmp_path, capsys,
                                                         extra, named):
    out = tmp_path / "fp" / "teacher.ckpt"
    assert main(["train-fp", "--model", "mlp2", "--epochs", "1",
                 "--n-train", "128", "--n-val", "128", *extra,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named} must be")
    assert not out.parent.exists()


@pytest.mark.parametrize("case", ["negative_data_seed"])
def test_bad_ptq_settings_refused_before_any_output(workspace, tmp_path,
                                                    capsys, case):
    _, teacher, _ = workspace
    extra = {"negative_data_seed": ["--data-seed", "-1"]}[case]
    out = tmp_path / "ptq" / "student.ckpt"
    assert main(["ptq", "--ckpt", str(teacher), *extra,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def test_verify_negative_seed_refused(capsys):
    assert main(["verify", "--filter", "lemma", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed")


def test_train_fp_zero_batch_size_refused(tmp_path, capsys):
    assert main(["train-fp", "--model", "mlp2", "--epochs", "1",
                 "--batch-size", "0", "--n-train", "128", "--n-val", "128",
                 "--out", str(tmp_path / "teacher.ckpt")]) == 1
    assert capsys.readouterr().err.startswith("error: batch size")
    assert not (tmp_path / "teacher.ckpt").exists()


def test_train_fp_zero_epochs_reports_no_accuracy(tmp_path, capsys):
    assert main(["train-fp", "--model", "mlp2", "--epochs", "0",
                 "--n-train", "128", "--n-val", "128",
                 "--out", str(tmp_path / "teacher.ckpt")]) == 0
    assert "(val acc n/a)" in capsys.readouterr().out
    assert json.loads((tmp_path / "run.json").read_text())["epochs"] == 0
