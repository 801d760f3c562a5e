"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is evaluated at its stated tolerance through the shared
verification suites (which pin the thresholds) plus direct checks for the
command-line contract.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math

from equilag import verification
from equilag.cli import (EXIT_CONFIG, EXIT_DEGENERATE, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY, main,
                         parse_config)
from test_cli import render_config


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    detail = ", ".join(f"{k}={v:.2e}" for k, v in result.residuals.items())
    print(f"[suite:{result.name}] {status}  {detail}")
    assert result.passed, f"criterion suite {result.name} failed: {detail}"


def test_criterion_1_elliptic():
    _report(verification.suite_elliptic())


def test_criterion_2_potential():
    _report(verification.suite_potential())


def test_criterion_3_metric():
    _report(verification.suite_metric())


def test_criterion_4_iwasawa():
    _report(verification.suite_iwasawa())


def test_criterion_5_frame():
    _report(verification.suite_frame())


def test_criterion_6_lift():
    _report(verification.suite_lift())


def test_criterion_7_identities():
    _report(verification.suite_identities())


def test_criterion_8_periodicity():
    _report(verification.suite_periodicity())


# residual names and thresholds of every suite, in run order; a change here
# loosens or tightens the library contract and needs its own review
PINNED_THRESHOLDS = {
    "elliptic": {"sn2_cn2": 1e-12, "k2sn2_dn2": 1e-12, "K_vs_carlson": 1e-12},
    "potential": {"viete": 1e-10, "twisting": 1e-12},
    "metric": {"first_integral": 1e-09, "periodicity": 1e-10, "gauss_fd": 1e-05},
    "iwasawa": {"conjugation": 1e-10, "det_qtilde": 1e-10, "initial_value": 1e-12,
                "beta_lemma": 1e-09, "y_flow": 1e-06},
    "frame": {"frame_at_zero": 1e-09, "su3": 1e-09, "equivariance": 1e-09,
              "maurer_cartan": 1e-06, "twisting": 1e-09},
    "lift": {"unit_norm": 1e-10, "fd_geometry": 1e-06, "cross_route": 1e-08},
    "identities": {"g_sum": 1e-08, "monodromy_g_cancel": 1e-08, "factor_identity": 1e-09},
    "periodicity": {"torus_p_f": 1e-09, "lift_periodic": 1e-07, "real_4T": 1e-09,
                    "no_period": 0.5, "flat_rejected": 0.5},
}


def test_thresholds_pinned():
    suites = verification.run_suites()
    assert [s.name for s in suites] == list(PINNED_THRESHOLDS)
    for s in suites:
        assert list(s.residuals) == list(PINNED_THRESHOLDS[s.name]), s.name
        assert list(s.thresholds.items()) == list(PINNED_THRESHOLDS[s.name].items()), s.name


class TestCriterion9Cli:
    """Determinism, config round-trip, and the exit-code contract."""

    CONFIG = """
[surface]
a1 = 2.0
psi_re = 0.70710678118654746
psi_im = 0.70710678118654757

[grid]
x_min = 0.0
x_max = 2.0
y_min = 0.0
y_max = 1.75
nx = 5
ny = 4

[output]
format = csv
path = unused.csv
"""

    def test_deterministic_reruns(self, tmp_path):
        job = tmp_path / "job.ini"
        job.write_text(self.CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--config", str(job), "--out", str(a)]) == EXIT_OK
        assert main(["sample", "--config", str(job), "--out", str(b)]) == EXIT_OK
        ok = a.read_bytes() == b.read_bytes()
        print(f"[suite:cli] {'PASS' if ok else 'FAIL'}  byte-identical reruns")
        assert ok

    def test_config_round_trip(self):
        cfg = parse_config(self.CONFIG)
        ok = parse_config(render_config(cfg)) == cfg
        print(f"[suite:cli] {'PASS' if ok else 'FAIL'}  config round-trip")
        assert ok

    def test_exit_code_contract(self, capsys, tmp_path):
        lam = (math.cos(math.pi / 6), math.sin(math.pi / 6))
        codes = {
            "config_error": main(["derive"]),
            "totally_geodesic": main(["derive", "--a1", "2", "--psi", "0,0"]),
            "flat_clifford": main(["derive", "--a1", "1", "--psi", "1,0"]),
            "hyperplane_lambda": main(
                ["derive", "--a1", "2", "--psi", "1,0", "--lambda", f"{lam[0]},{lam[1]}"]
            ),
            "k_near_one": main(["derive", "--a1", "1e6", "--psi", "1,0"]),
            "internal_fault": main(["classify", "--a1", "2", "--psi", "1,0", "--lambda", "0.8,0.6",
                                    "--max-den", "100000"]),
            "verify_failure": main(
                ["verify", "--a1", "2", "--psi", "0.70710678118654746,0.70710678118654757",
                 "--suites", "iwasawa", "--debug-corrupt-kappa"]
            ),
            "ok": main(["derive", "--a1", "2", "--psi", "1,0"]),
        }
        capsys.readouterr()
        expected = {
            "config_error": EXIT_CONFIG,
            "totally_geodesic": EXIT_DEGENERATE,
            "flat_clifford": EXIT_DEGENERATE,
            "hyperplane_lambda": EXIT_DEGENERATE,
            "k_near_one": EXIT_DEGENERATE,
            "internal_fault": EXIT_INTERNAL,
            "verify_failure": EXIT_VERIFY,
            "ok": EXIT_OK,
        }
        ok = codes == expected
        print(f"[suite:cli] {'PASS' if ok else 'FAIL'}  exit codes {codes}")
        assert ok

    def test_json_output_parses(self, capsys):
        rc = main(["derive", "--a1", "2", "--psi", "1,0", "--json"])
        payload = json.loads(capsys.readouterr().out)
        ok = rc == EXIT_OK and payload["constants"]["beta"] == 4.25
        print(f"[suite:cli] {'PASS' if ok else 'FAIL'}  machine-readable derive")
        assert ok
