"""Import hygiene for the package, checked with `ast` since no linter is
installed: every name a module imports must be read somewhere in it.

`from __future__` imports are exempt, and so is `_kernels.py`, which exists
to re-export the kernel functions under one module name."""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).parent.parent / "src" / "krein_clifford"
EXEMPT = {"_kernels.py"}


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(imported) - read)


@pytest.mark.parametrize("path", sorted(p for p in PKG.glob("*.py") if p.name not in EXEMPT),
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_unread_import_is_caught():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nprint(b)\n"
    assert _unread_imports(src) == ["d", "os"]
