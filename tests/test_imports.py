"""No module of the package, the tests, tools/ or benchmarks/ imports a
name it never uses.

The project installs no linter, so this is the unused-import rule of
pyflakes in the standard library: parse each module with ``ast``, collect
the names its imports bind and fail on any that no expression reads and
``__all__`` does not export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# pipebench/ is left out: setup_probe.py imports gdnsq.cli to time the import
MODULES = [p for d in ("src/gdnsq", "tests", "tools", "benchmarks")
           for p in sorted((ROOT / d).glob("*.py"))]


def unused_imports(source: str):
    """Names bound by the imports of source that nothing reads."""
    tree = ast.parse(source)
    bound = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    # an attribute chain such as np.asarray starts at the Name np
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nfrom a import b, c as d\n"
              "__all__ = ['b']\nnp.zeros(d)\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
