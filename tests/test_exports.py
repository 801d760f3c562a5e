"""The package's public names: `__all__` lists exactly what `__init__` imports."""

import ast
import pathlib

import equilag

INIT = pathlib.Path(__file__).resolve().parents[1] / "src" / "equilag" / "__init__.py"


def _imported_public_names() -> set[str]:
    names = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return {n for n in names if not n.startswith("_")}


def test_every_exported_name_resolves():
    missing = [name for name in equilag.__all__ if not hasattr(equilag, name)]
    assert missing == []


def test_all_equals_the_imported_public_names():
    assert len(equilag.__all__) == len(set(equilag.__all__))
    assert set(equilag.__all__) - {"__version__"} == _imported_public_names()
