"""The production path stays free of numerical quadrature.

Lifts, grids, frames, beta integrals and period phases are closed forms;
`equilag.quadrature` is imported only by `verification`, whose suite
`elliptic` checks K against it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "equilag"


def _imports_quadrature(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "equilag.quadrature" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # from .quadrature import x / from equilag.quadrature import x
            module = node.module or ""
            if module in ("quadrature", "equilag.quadrature"):
                return True
            # from . import quadrature / from equilag import quadrature
            if module in ("", "equilag") and any(a.name == "quadrature" for a in node.names):
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
        assert _imports_quadrature(ast.parse(src)), src
    assert not _imports_quadrature(ast.parse("from .elliptic import jacobi"))


def test_only_verification_imports_quadrature():
    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if _imports_quadrature(ast.parse(path.read_text()))
    )
    assert importers == ["verification"]
