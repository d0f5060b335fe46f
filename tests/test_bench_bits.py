"""What benchmarks/bench_bits.py records as the measured tree.

In a repository the sweep records ``git rev-parse HEAD``; outside one, as
in a checkout unpacked with ``git archive``, it records a sha256 over the
tree's ``src/**/*.py``, so that two sweeps of the same bytes name the
same tree and a changed byte names another.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

BENCH_BITS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_bits.py"


@pytest.fixture(scope="module")
def bench_bits():
    """The script as a module; its one-thread settings and path entries
    stay out of the rest of the session."""
    spec = importlib.util.spec_from_file_location("bench_bits", BENCH_BITS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "environ", dict(os.environ))
        mp.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(module)
    return module


def make_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


FILES = {"src/pkg/__init__.py": b"", "src/pkg/core.py": b"x = 1\n",
         "README.md": b"not hashed\n"}


def test_a_tree_outside_a_repository_is_named_by_its_src_digest(
        bench_bits, tmp_path, monkeypatch):
    # git looks for no repository above the trees
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {**FILES, "README.md": b"other\n"})
    changed = make_tree(tmp_path / "c", {**FILES,
                                         "src/pkg/core.py": b"x = 2\n"})
    assert bench_bits.commit(a).startswith("sha256:")
    assert bench_bits.commit(a) == bench_bits.src_digest(a)
    assert bench_bits.commit(a) == bench_bits.commit(b)
    assert bench_bits.commit(changed) != bench_bits.commit(a)


def test_the_digest_reads_paths_as_well_as_bytes(bench_bits, tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    moved = make_tree(tmp_path / "b", {
        "src/pkg/__init__.py": b"", "src/pkg/base.py": b"x = 1\n"})
    assert bench_bits.src_digest(a) != bench_bits.src_digest(moved)
