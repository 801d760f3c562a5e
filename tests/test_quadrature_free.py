"""The production path stays free of numerical quadrature, and imports run one way.

Lifts, grids, frames, beta integrals and period phases are closed forms,
and suite `elliptic` checks K against Carlson's R_F, so no package module
imports `equilag.quadrature` (the tests' oracles do).  Every import sits at
module level, and `iwasawa` builds on `immersion`, never the reverse.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "equilag"


def _imports(tree: ast.AST, name: str) -> bool:
    """Does tree import the package module `name` in any form?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == f"equilag.{name}" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # from .name import x / from equilag.name import x
            module = node.module or ""
            if module in (name, f"equilag.{name}"):
                return True
            # from . import name / from equilag import name
            if module in ("", "equilag") and any(a.name == name for a in node.names):
                return True
    return False


def test_scan_sees_every_import_form():
    for src in (
        "from .quadrature import adaptive_simpson",
        "from . import quadrature",
        "import equilag.quadrature",
        "from equilag.quadrature import QuadratureError",
        "from equilag import quadrature",
    ):
        assert _imports(ast.parse(src), "quadrature"), src
    assert not _imports(ast.parse("from .elliptic import jacobi"), "quadrature")


def test_no_package_module_imports_quadrature():
    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if _imports(ast.parse(path.read_text()), "quadrature")
    )
    assert importers == []


def test_imports_at_module_level_and_immersion_below_iwasawa():
    deferred = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn)
            ):
                deferred.append(f"{path.stem}.{fn.name}")
    assert deferred == []
    assert not _imports(ast.parse((PACKAGE / "immersion.py").read_text()), "iwasawa")
    assert _imports(ast.parse("def f():\n    from . import iwasawa\n"), "iwasawa")
