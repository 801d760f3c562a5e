"""One spectral object per (surface, lambda).

`eigensystem(c, lam)` is the only place that solves the cubic of D(lambda);
point evaluators take its EigenSystem and the job-level operations build
one each.  The cubic solver is counted, so a route that quietly builds a
second eigensystem behind its caller's fails here.
"""

import ast
import cmath
import dataclasses
import math
import pathlib

import pytest

from equilag import immersion, iwasawa, linalg3, periodicity
from equilag.immersion import lift_at
from equilag.iwasawa import extended_frame, iwasawa_frame
from equilag.potential import SurfaceParams, derive_constants, eigensystem

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "equilag"
MEMOS = (immersion._g_segment, immersion._g_full_period, iwasawa._beta_full_period)


@pytest.fixture
def cubic_solves(monkeypatch):
    """The list of calls of linalg3.solve_depressed_cubic, from cold memos."""
    for memo in MEMOS:
        memo.cache_clear()
    calls = []
    solve = linalg3.solve_depressed_cubic

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(linalg3, "solve_depressed_cubic", counted)
    return calls


def test_lift_builds_one_eigensystem(cubic_solves):
    c = derive_constants(SurfaceParams(2.7, complex(0.4, 0.9)))
    es = eigensystem(c, cmath.exp(0.45j))
    lift_at(c, es, 0.3, 0.6 * c.T)
    lift_at(c, es, -0.2, 3.3 * c.T)  # y > T: adds whole periods G_j(2T)
    assert len(cubic_solves) == 1


def test_classify_torus_builds_one_eigensystem(cubic_solves, bench_real):
    assert periodicity.classify_torus(bench_real, 1.0).tag == "Torus"
    assert len(cubic_solves) == 1


def test_classify_cylinder_builds_one_eigensystem(cubic_solves, bench_nonreal):
    # Im omega = 2T reaches monodromy_phases and the full-period G_j(2T)
    c = bench_nonreal
    verdict = periodicity.classify_cylinder(c, cmath.exp(0.3j), 0.5 + 2.0j * c.T)
    assert verdict.tag == "NoPeriodFound"
    assert len(cubic_solves) == 1


def test_frames_reuse_the_callers_eigensystem(cubic_solves, bench_nonreal):
    c = bench_nonreal
    es = eigensystem(c, cmath.exp(0.3j))
    del cubic_solves[:]
    for k in range(5):
        z = complex(0.1 * k, 0.4 * k - 0.7)
        extended_frame(c, es, z)
        iwasawa_frame(c, es, z)
    assert cubic_solves == []


def test_spectral_object_is_frozen_and_compared_by_identity(bench_nonreal):
    lam = cmath.exp(0.3j)
    es, again = eigensystem(bench_nonreal, lam), eigensystem(bench_nonreal, lam)
    assert es != again and hash(es) != hash(again)
    assert es.cubic == bench_nonreal.psi / lam**3 and es.regime == "nonreal"
    with pytest.raises(dataclasses.FrozenInstanceError):
        es.lam = 1.0


def _callers_of_eigensystem(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "eigensystem" for n in ast.walk(fn))
    }


def test_only_job_level_operations_build_eigensystems():
    callers = {m: _callers_of_eigensystem(m) for m in ("immersion", "iwasawa", "periodicity")}
    assert callers == {
        "immersion": {"sample_grid", "verify_geometry"},
        "iwasawa": set(),
        "periodicity": {"classify_cylinder", "classify_torus"},
    }


def test_memos_are_keyed_on_the_spectral_object(bench_nonreal):
    # a second object at the same lambda is a miss, not a hit on the float key
    lam = cmath.exp(math.pi / 7 * 1j)
    immersion._g_full_period.cache_clear()
    for es in (eigensystem(bench_nonreal, lam), eigensystem(bench_nonreal, lam)):
        immersion._g_full_period(bench_nonreal, es)
        immersion._g_full_period(bench_nonreal, es)
    info = immersion._g_full_period.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_memos_are_keyed_on_the_constants_object(bench_nonreal):
    # equal constants from a second derive_constants call are a second key:
    # the key (c, es) holds two identities, not the 13 floats of c
    twin = derive_constants(SurfaceParams(bench_nonreal.a1, bench_nonreal.psi))
    assert dataclasses.astuple(twin) == dataclasses.astuple(bench_nonreal)
    assert twin != bench_nonreal and hash(twin) == object.__hash__(twin)
    es = eigensystem(bench_nonreal, cmath.exp(math.pi / 7 * 1j))
    for memo in MEMOS:
        memo.cache_clear()
        for c in (bench_nonreal, twin):
            memo(c, es)
            memo(c, es)
        info = memo.cache_info()
        assert (info.hits, info.misses) == (2, 2)


# the private names of immersion and iwasawa that other package modules
# may still reach; every per-lambda fact is read off the EigenSystem
SHARED_PRIVATES = {"_g_segment", "_g_full_period", "_phase_terms",
                   "_coefficients_and_derivatives", "_cdet", "_branch_ratio"}


def _private_references() -> set[tuple[str, str, str]]:
    """(module, target, name) of every immersion._x / iwasawa._x reached from another module."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("immersion", "iwasawa") and node.attr.startswith("_")):
                refs.add((path.stem, node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in ("immersion", "iwasawa"):
                refs |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    return {ref for ref in refs if ref[0] != ref[1]}


def test_private_references_between_modules():
    refs = _private_references()
    assert {name for _, _, name in refs} <= SHARED_PRIVATES, refs
    assert {name for module, _, name in refs if module == "periodicity"} == {"_g_full_period"}
