"""End-to-end tests of the command-line interface and report envelope."""

import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import conecert
from conecert import claims, cones, tilt
from conecert.cli import main
from conecert.exact import QuadraticSurd
from conecert.report import (
    EXIT_CERTIFIED,
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_OPERATIONAL_ERROR,
    CertificationReport,
    ReportEnvelope,
    RunConfig,
    worst_verdict,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# Envelope invariants
# ---------------------------------------------------------------------------


def test_report_rejects_certified_sampling():
    with pytest.raises(ValueError):
        CertificationReport(claim="x", method="sampled", verdict="certified")
    # The legitimate combinations construct fine.
    CertificationReport(claim="x", method="sampled", verdict="falsified")
    CertificationReport(claim="x", method="exact", verdict="certified")


def test_envelope_verdict_aggregation(monkeypatch):
    env = ReportEnvelope(config=RunConfig(command="t"))
    assert worst_verdict([]) == env.verdict == "certified"
    env.add(CertificationReport(claim="a", method="exact", verdict="certified"))
    assert env.verdict == "certified" and env.exit_code() == EXIT_CERTIFIED
    env.add(CertificationReport(claim="b", method="interval", verdict="inconclusive"))
    assert env.verdict == "inconclusive" and env.exit_code() == EXIT_INCONCLUSIVE
    env.add(CertificationReport(claim="c", method="sampled", verdict="falsified"))
    assert env.verdict == "falsified" and env.exit_code() == EXIT_FALSIFIED
    # The margin report folds the verdicts of its six (n, k) pairs by the same rule.
    for verdicts, expected in (
        (("certified",) * 4 + ("inconclusive", "falsified"), "falsified"),
        (("certified",) * 5 + ("inconclusive",), "inconclusive"),
    ):
        given = iter(verdicts)
        monkeypatch.setattr(
            tilt, "certify_margin_positive",
            lambda *args: CertificationReport(claim="margin", method="exact", verdict=next(given)),
        )
        (margin,) = claims._claim_reports((claims._MARGIN,), 100, 42, None)
        assert margin.claim.startswith("stability margin") and margin.verdict == expected
        assert [entry["verdict"] for entry in margin.payload.values()] == list(verdicts)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_csv_contract(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == EXIT_CERTIFIED
    lines = out.strip().splitlines()
    assert lines[0] == "theta_lo_deg,theta_hi_deg,n_theta"
    assert lines[1] == "90.000,94.580,7"
    assert lines[2] == "94.580,106.664,6"
    assert lines[3] == "106.664,128.346,5"
    assert lines[4] == "128.346,180.000,4"


def test_table_json_has_schema_keys(capsys):
    code, doc, _ = run_json(capsys, "table")
    assert code == EXIT_CERTIFIED
    assert set(doc) == {"version", "config", "reports", "verdict", "elapsed_ms"}
    assert doc["verdict"] == "certified"
    assert doc["config"]["command"] == "table"
    assert doc["config"]["tol_deg"] == {"num": "1", "den": "1000"}


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table")
    assert code == EXIT_CERTIFIED
    assert "theta_lo_deg" in out
    assert "[CERTIFIED" in out
    assert out.rstrip().splitlines()[-1].startswith("elapsed_ms:")


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--format", "csv", "--out", str(target))
    assert code == EXIT_CERTIFIED
    assert out == ""
    assert target.read_text().startswith("theta_lo_deg,theta_hi_deg,n_theta")


def test_table_out_to_a_missing_directory_is_an_operational_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.txt"
    code, out, err = run(capsys, "table", "--out", str(target))
    assert code == EXIT_OPERATIONAL_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [(4, ("18928", "18605")), (5, ("264924", "2713295")), (6, ("12002306544", "1858195670875"))],
)
def test_certify_default_parameters(capsys, n, expected):
    code, doc, _ = run_json(capsys, "certify", "--n", str(n))
    assert code == EXIT_CERTIFIED
    payload = doc["reports"][0]["payload"]
    assert payload["threshold"] == {"num": expected[0], "den": expected[1]}


def test_certify_n3_is_exact_and_parameterfree(capsys):
    code, doc, _ = run_json(capsys, "certify", "--n", "3")
    assert code == EXIT_CERTIFIED
    rep = doc["reports"][0]
    assert rep["method"] == "exact"
    assert rep["payload"]["theta_range"] == "(0°, 180°)"


def test_certify_n3_rejects_overrides(capsys):
    code, out, err = run(capsys, "certify", "--n", "3", "--alpha", "1/2")
    assert code == EXIT_OPERATIONAL_ERROR
    assert "overrides" in err


def test_certify_rejects_unsupported_dimension(capsys):
    code, _, err = run(capsys, "certify", "--n", "7")
    assert code == EXIT_OPERATIONAL_ERROR
    assert "supports n in" in err


def test_certify_bad_parameters_are_falsified_not_crash(capsys):
    code, doc, _ = run_json(
        capsys, "certify", "--n", "4", "--alpha", "1/1", "--delta", "1/2", "--q", "1/1"
    )
    assert code == EXIT_FALSIFIED
    rep = doc["reports"][0]
    assert rep["verdict"] == "falsified"
    assert "reason" in rep["payload"]


def test_certify_zero_p2_is_falsified_not_crash(capsys):
    # ConeParams refuses p^2 = 0, which m_functional would divide by.
    code, doc, err = run_json(capsys, "certify", "--n", "4", "--p2", "0")
    assert code == EXIT_FALSIFIED
    assert err == ""
    rep = doc["reports"][0]
    assert rep["verdict"] == "falsified"
    assert rep["payload"]["reason"].startswith("p_squared must be positive")


def test_certify_rejects_malformed_rational(capsys):
    code, _, err = run(capsys, "certify", "--n", "4", "--alpha", "0.42")
    assert code == EXIT_OPERATIONAL_ERROR
    assert "not an exact rational" in err


_WINDOW_COMMANDS = [
    ("table",), ("certify", "--n", "4"), ("optimize", "--n", "5"), ("selftest", "--samples", "2000"),
]


@pytest.mark.parametrize("argv", _WINDOW_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("tol", ["0", "-1/1000", "0/7"])
def test_tol_deg_must_be_a_positive_rational(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol-deg", tol)
    assert code == EXIT_OPERATIONAL_ERROR
    assert out == ""
    assert err.startswith("error:") and "--tol-deg" in err and "positive" in err


@pytest.mark.parametrize("argv", _WINDOW_COMMANDS, ids=lambda argv: argv[0])
def test_a_grid_too_fine_to_decide_is_an_operational_error(capsys, argv):
    # Enclosures on the 2^-256 grid cannot tell grid points 10^-80 degrees
    # apart from the window edge: refused with a message, never a guessed tie.
    code, out, err = run(capsys, *argv, "--tol-deg", f"1/{10 ** 80}")
    assert code == EXIT_OPERATIONAL_ERROR
    assert out == ""
    assert err.startswith("error: cannot separate")


def test_certify_huge_threshold_keeps_the_edge_in_the_first_cell(capsys):
    code, doc, _ = run_json(capsys, "certify", "--n", "4", "--p2", f"1/{10 ** 400}")
    assert code == EXIT_FALSIFIED
    payload = doc["reports"][0]["payload"]
    assert payload["theta_min_deg"]["lo"] == {"num": "0", "den": "1"}
    assert payload["theta_min_deg"]["hi"] == {"num": "1", "den": "1000"}


# ---------------------------------------------------------------------------
# pnbound
# ---------------------------------------------------------------------------


def test_pnbound_reports_exact_sup_and_oracle(capsys):
    code, doc, _ = run_json(capsys, "pnbound", "--m", "3", "--q", "6/11", "--samples", "10000")
    assert code == EXIT_CERTIFIED
    payload = doc["reports"][0]["payload"]
    assert payload["sup"]["coeff"] == {"num": "65", "den": "726"}
    assert payload["sup"]["radicand"] == "66"
    assert payload["oracle_within_tolerance"] is True
    assert payload["exhaustive"] is True


def test_pnbound_falsifies_a_sup_that_its_witness_does_not_reach(capsys, monkeypatch):
    # The oracle only finds values below the sup, so it cannot see an exact
    # sup that is too large; |f| at the printed witness can.  Here the
    # diagonal candidate's f^2 is computed as if it had a = 2: the sup reads
    # 8.72, while |f| at the diagonal witness is the true sup, 8.3716.
    exact_f_squared = cones._f_squared_exact

    def inflated(a, b, q, x):
        return exact_f_squared(a + 1 if x == QuadraticSurd(1) else a, b, q, x)

    code, doc, _ = run_json(capsys, "pnbound", "--m", "3", "--q", "10", "--samples", "10000")
    assert code == EXIT_CERTIFIED
    honest = doc["reports"][0]["payload"]
    assert honest["witness_source"] == "diagonal"
    assert honest["witness_abs_f"] == pytest.approx(honest["sup_float"], rel=1e-12)
    monkeypatch.setattr(cones, "_f_squared_exact", inflated)
    code, doc, _ = run_json(capsys, "pnbound", "--m", "3", "--q", "10", "--samples", "10000")
    assert code == EXIT_FALSIFIED and doc["verdict"] == "falsified"
    payload = doc["reports"][0]["payload"]
    assert payload["oracle_value"] < payload["sup_float"]
    assert payload["witness_abs_f"] == pytest.approx(honest["sup_float"], rel=1e-12)
    assert payload["sup_float"] > 1.04 * payload["witness_abs_f"]


def test_pnbound_p2_comparison_verdicts(capsys):
    # Equality at the calibrated pair (m = n-2) certifies.
    code, doc, _ = run_json(
        capsys, "pnbound", "--m", "4", "--q", "43/391",
        "--p2", "646328929/717317652", "--samples", "10000",
    )
    assert code == EXIT_CERTIFIED
    assert doc["reports"][1]["payload"]["comparison"] == "sup^2 = p^2"
    # One more variable exceeds the same p^2: decided, falsified, exit 2.
    code, doc, _ = run_json(
        capsys, "pnbound", "--m", "5", "--q", "43/391",
        "--p2", "646328929/717317652", "--samples", "10000",
    )
    assert code == EXIT_FALSIFIED
    assert doc["reports"][1]["payload"]["comparison"] == "sup^2 > p^2"


def test_pnbound_irrational_sup_is_enclosed_on_the_grid(capsys):
    # f^2 = a + b sqrt(d) is irrational here, so sup = sqrt(f^2) is rounded to
    # the 2^-256 grid (its enclosure was about 1e-40 wide on a coarser scale).
    code, doc, _ = run_json(capsys, "pnbound", "--m", "5", "--q", "43/391")
    assert code == EXIT_CERTIFIED
    payload = doc["reports"][0]["payload"]
    a, b, d = re.fullmatch(r"(\S+) \+ (\S+)\*sqrt\((\d+)\)", payload["sup_squared"]).groups()
    with mp.workdps(60):
        to_mpf = lambda x: mp.mpf(x.numerator) / x.denominator
        value = mp.sqrt(to_mpf(Fraction(a)) + to_mpf(Fraction(b)) * mp.sqrt(int(d)))
        lo, hi = (mp.mpf(int(payload["sup"][end]["num"])) / int(payload["sup"][end]["den"]) for end in ("lo", "hi"))
        assert lo <= value <= hi
        assert hi - lo < mp.mpf(10) ** -70


def test_pnbound_clamps_low_sample_oracle(capsys):
    code, doc, _ = run_json(capsys, "pnbound", "--m", "2", "--q", "1", "--samples", "300")
    assert code == EXIT_CERTIFIED
    assert doc["config"]["low_sample"] is True
    prov = doc["reports"][0]["provenance"]
    assert prov["samples_requested"] == 300
    assert prov["samples_used"] == 10000


def test_pnbound_reports_the_ascent_steps_taken(capsys):
    code, doc, _ = run_json(capsys, "pnbound", "--m", "5", "--q", "43/391", "--samples", "10000", "--seed", "42")
    assert code == EXIT_CERTIFIED
    steps = doc["reports"][0]["provenance"]["ascent_steps"]
    assert steps == cones.brute_force_sup([(5, Fraction(43, 391))], samples=10_000, seed=42)[0].steps
    assert 1 <= steps < cones.ORACLE_ASCENT_STEPS


def test_pnbound_input_validation(capsys):
    code, _, err = run(capsys, "pnbound", "--m", "1", "--q", "1")
    assert code == EXIT_OPERATIONAL_ERROR
    code, _, err = run(capsys, "pnbound", "--m", "3", "--q", "-1/2")
    assert code == EXIT_OPERATIONAL_ERROR


@pytest.mark.parametrize(
    "q,message",
    [(str(10 ** 400), "error: --q: q is too large"),
     (str(10 ** 160), "error: --q: q is too large"),
     (f"1/{10 ** 400}", "error: --q: q is too small")],
    ids=["1e400", "1e160", "1e-400"],
)
def test_pnbound_refuses_a_q_outside_the_doubles(q, message):
    # 10^400 and 10^160 (a double, but f^2 ~ q^2 is not) ended in an
    # OverflowError traceback, 1/10^400 (0.0 as a double) in over a minute
    # of factoring; each is refused before any work.
    proc = subprocess.run(
        [sys.executable, "-m", "conecert", "pnbound", "--m", "3", "--q", q],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OPERATIONAL_ERROR
    assert proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_pnbound_rejects_m_beyond_the_oracle_limit(capsys):
    # 10^4 samples in R^25000 exceed the cap on the oracle's work; refused
    # up front, not after a long enumeration.
    code, out, err = run(capsys, "pnbound", "--m", "25000", "--q", "1", "--samples", "10000")
    assert code == EXIT_OPERATIONAL_ERROR
    assert out == ""
    assert err.startswith("error:") and str(cones.ORACLE_MAX_DOUBLES) in err


def _sympy_f_squared(q: Fraction, a: int, b: int, y_float: float):
    """f^2 at the two-value point (1 a times, y b times), y the real critical
    point of f^2 nearest y_float: an evaluation by sympy alone."""
    import sympy

    y = sympy.Symbol("y")
    qs = sympy.Rational(q.numerator, q.denominator)
    P1, P2, P3 = (a + b * y ** k for k in (1, 2, 3))
    N = P3 + (1 - qs) * P1 * P2 - qs * P1 ** 3
    f2 = N ** 2 / (P2 + P1 ** 2) ** 3
    critical = sympy.Poly(sympy.numer(sympy.together(sympy.diff(f2, y))), y)
    root = min((r for r in sympy.roots(critical) if r.is_real), key=lambda r: abs(float(r) - y_float))
    return sympy.radsimp(f2.subs(y, root))


@pytest.mark.parametrize(
    "m,q",
    [(3, Fraction(1, 10 ** 80)), (3, Fraction(1, 10 ** 200)), (2, Fraction((5 * 7 ** 33 - 1) // 2, 7 ** 33))],
    ids=["1e-80", "1e-200", "7^33"],
)
def test_pnbound_certifies_where_the_radicand_is_not_factored(capsys, m, q):
    # Radicands are not factored, so one that keeps a 532- or 1329-bit
    # cofactor (1/10^80, 1/10^200) or has the 82-bit prime factor
    # 3799169689032693160639057 (N/7^33, in the discriminant) is decided like
    # any other.
    import sympy

    code, doc, _ = run_json(capsys, "pnbound", "--m", str(m), "--q", str(q))
    assert code == EXIT_CERTIFIED
    payload = doc["reports"][0]["payload"]
    assert payload["oracle_within_tolerance"] is True
    w = payload["witness"]
    y = w["y"] if isinstance(w["y"], float) else int(w["y"]["num"]) / int(w["y"]["den"])
    got = payload["sup_squared"]
    got = sympy.Rational(int(got["num"]), int(got["den"])) if isinstance(got, dict) else sympy.sympify(got)
    assert sympy.expand(_sympy_f_squared(q, w["a"], w["b"], y) - got) == 0


def test_pnbound_refuses_a_q_of_thousands_of_digits_promptly():
    # No time goes to the radicands of a q with thousands of digits: it is
    # refused in well under a second (factoring them took about 43 s).
    q = f"{10 ** 4000 + 1}/{10 ** 4000}"
    proc = subprocess.run(
        [sys.executable, "-m", "conecert", "pnbound", "--m", "3", "--q", q],
        capture_output=True, text=True, env=_fresh_env(), timeout=60,
    )
    assert proc.returncode == EXIT_OPERATIONAL_ERROR
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_pnbound_refuses_a_report_too_long_to_print():
    # A q of 2500 digits is decided, but its report holds a number past the
    # interpreter's limit on printed digits: one error line naming the
    # cause, not a traceback from rendering.
    q = f"{10 ** 2500 + 1}/{10 ** 2500}"
    proc = subprocess.run(
        [sys.executable, "-m", "conecert", "pnbound", "--m", "3", "--q", q],
        capture_output=True, text=True, env=_fresh_env(), timeout=60,
    )
    assert proc.returncode == EXIT_OPERATIONAL_ERROR
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "too long to print" in proc.stderr and "--q" in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


def test_oracle_draw_beyond_the_work_cap_is_refused_up_front(capsys, monkeypatch):
    # At --m 21201 the default 10^5 samples would draw 10^5 x 21201
    # coordinates, past the cap on the oracle's work: refused before the
    # enumeration or any sampling.
    def must_not_run(*args, **kwargs):
        raise AssertionError("started work on an oversized oracle draw")

    monkeypatch.setattr(cones, "sup_abs_f_two_value", must_not_run)
    monkeypatch.setattr(cones, "brute_force_sup", must_not_run)
    monkeypatch.setattr(cones, "m_functional", must_not_run)
    for argv in (
        ("pnbound", "--m", "21201", "--q", "1"),
        ("pnbound", "--m", "2", "--q", "1", "--samples", "100000000"),
        ("selftest", "--samples", "100000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OPERATIONAL_ERROR
        assert out == ""
        assert err.startswith("error:") and str(cones.ORACLE_MAX_DOUBLES) in err


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def test_identities_certified_with_small_campaigns(capsys):
    code, doc, _ = run_json(capsys, "identities", "--samples", "2000")
    assert code == EXIT_CERTIFIED
    assert doc["verdict"] == "certified"
    claims = [r["claim"] for r in doc["reports"]]
    assert len(claims) == 5
    # Every certified verdict rests on an exact or interval method.
    for rep in doc["reports"]:
        if rep["verdict"] == "certified":
            assert rep["method"] in ("exact", "interval")
    # The campaigns' sampled residuals ride along as corroborating payload.
    grad = doc["reports"][0]["payload"]
    assert grad["symbolic_certificate"] is True
    assert grad["max_sampled_residual"] <= 1e-12


def test_frame_report_requires_the_projection_gram_certificate(capsys, monkeypatch):
    certs = tilt.symbolic_identity_certificates
    monkeypatch.setattr(
        tilt, "symbolic_identity_certificates", lambda: {**certs(), "projection_gram_identity": False}
    )
    code, doc, _ = run_json(capsys, "identities", "--samples", "2000")
    assert code == EXIT_FALSIFIED
    frame = doc["reports"][1]
    assert frame["verdict"] == "falsified"
    assert frame["payload"]["symbolic_certificates"]["projection_gram"] is False
    assert [r["verdict"] for r in doc["reports"]].count("falsified") == 1


@pytest.mark.parametrize(
    "field,report",
    [("max_gradient_residual", 0), ("max_j_minus_g2", 0), ("max_frame_sum_residual", 1),
     ("max_wedge_sum_residual", 1)],
)
def test_identities_nan_residual_is_not_certified(capsys, monkeypatch, field, report):
    # max(0.0, nan) is 0.0: a NaN residual must not vanish in the suite's fold.
    campaigns = tilt.identity_campaigns

    def nan_residual(params_seq, samples, seed):
        results = campaigns(params_seq, samples=samples, seed=seed)
        return [
            type(res)(**{**{name: getattr(res, name) for name in res.__slots__}, field: math.nan})
            for res in results
        ]

    monkeypatch.setattr(tilt, "identity_campaigns", nan_residual)
    code, out, _ = run(capsys, "identities", "--samples", "2000", "--format", "json")
    doc = json.loads(out)
    assert code != EXIT_CERTIFIED
    assert doc["reports"][report]["verdict"] != "certified"


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_zero_budget_echoes_defaults(capsys):
    code, doc, _ = run_json(capsys, "optimize", "--n", "5")
    assert code == EXIT_CERTIFIED
    payload = doc["reports"][0]["payload"]
    assert payload["note"].startswith("no search")
    assert payload["best"]["q"] == {"num": "6", "den": "11"}
    assert payload["best_threshold"] == {"num": "264924", "den": "2713295"}
    assert payload["matches_or_improves_default"] is True


def test_optimize_with_budget_never_regresses(capsys):
    code, doc, _ = run_json(capsys, "optimize", "--n", "4", "--budget", "27")
    assert code == EXIT_CERTIFIED
    payload = doc["reports"][0]["payload"]
    assert payload["matches_or_improves_default"] is True
    assert payload["evaluated"] <= 28


def test_optimize_rejects_unsupported_dimension(capsys):
    code, _, err = run(capsys, "optimize", "--n", "3")
    assert code == EXIT_OPERATIONAL_ERROR


def test_optimize_rejects_a_non_positive_p2(capsys):
    # optimize_params' ValueError ended in a traceback.
    for n in ("4", "5"):
        code, out, err = run(capsys, "optimize", "--n", n, "--p2", "0")
        assert code == EXIT_OPERATIONAL_ERROR
        assert out == "" and err == "error: p_squared must be positive\n"


@pytest.mark.parametrize("budget", ["100000000", str(10 ** 400)], ids=["1e8", "1e400"])
def test_optimize_refuses_a_budget_beyond_its_cap(budget):
    # 10^8 ran for hours (the search is linear in the budget) and 10^400
    # ended in an OverflowError traceback at budget ** (1/3).
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "conecert", "optimize", "--n", "5", "--budget", budget],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert time.perf_counter() - started < 30
    assert proc.returncode == EXIT_OPERATIONAL_ERROR
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: budget above the limit") and proc.stderr.count("\n") == 1
    assert str(cones.OPTIMIZE_MAX_BUDGET) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_optimize_params_refuses_a_budget_beyond_its_cap_before_any_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("evaluated a parameter set under a refused budget")

    monkeypatch.setattr(cones, "m_functional", must_not_run)
    with pytest.raises(ValueError, match=str(cones.OPTIMIZE_MAX_BUDGET)):
        cones.optimize_params(5, budget=cones.OPTIMIZE_MAX_BUDGET + 1)


# ---------------------------------------------------------------------------
# selftest and determinism
# ---------------------------------------------------------------------------


def test_selftest_runs_certified_quick(capsys, selftest_digests):
    code, doc, _ = run_json(capsys, "selftest", "--samples", "2000", "--seed", "42")
    assert code == EXIT_CERTIFIED
    assert doc["verdict"] == "certified"
    assert len(doc["reports"]) == 13
    assert doc["reports"][-1]["payload"]["content_digest_sha256"] == selftest_digests[2000, 42]


def test_selftest_reports_the_identity_claims_of_one_campaign_per_run(capsys, monkeypatch):
    # selftest's reports 7-11 are the identities reports, and each run draws
    # its own campaigns, all 16 configurations in one call, none shared with
    # an earlier run.
    campaigns, calls = tilt.identity_campaigns, []

    def counted(params_seq, samples, seed):
        calls.append(sorted({params.n for params in params_seq}))
        return campaigns(params_seq, samples=samples, seed=seed)

    monkeypatch.setattr(tilt, "identity_campaigns", counted)
    options = ("--samples", "2000", "--seed", "7")
    _, identities, _ = run_json(capsys, "identities", *options)
    assert calls == [list(claims._IDENTITY_DIMS)]
    _, selftest, _ = run_json(capsys, "selftest", *options)
    assert calls == 2 * [list(claims._IDENTITY_DIMS)]
    assert identities["reports"] == selftest["reports"][6:11]


@pytest.mark.parametrize("flipped,sign", [(0, -1), (1, 0)], ids=["n5-less", "n6-equal"])
def test_selftest_falsifies_an_ambiguity_comparison_that_changes(capsys, monkeypatch, flipped, sign):
    exact_compare = claims.compare
    calls = []

    def compare(a, b):
        calls.append(exact_compare(a, b))
        return sign if len(calls) == flipped + 1 else calls[-1]

    monkeypatch.setattr(claims, "compare", compare)
    code, doc, _ = run_json(capsys, "selftest", "--samples", "2000", "--seed", "42")
    assert code == EXIT_FALSIFIED and doc["verdict"] == "falsified"
    (ambiguity,) = [r for r in doc["reports"] if r["claim"].startswith("variable-count ambiguity")]
    assert ambiguity["verdict"] == "falsified"
    symbol = {-1: "<", 0: "="}[sign]
    assert [c["comparison"] for c in ambiguity["payload"].values()][flipped] == f"sup^2 {symbol} p^2"
    assert calls == [1, 1]


def test_selftest_reports_are_a_pure_function_of_config(capsys):
    code1, out1, _ = run(capsys, "selftest", "--samples", "2000", "--seed", "7", "--format", "json")
    code2, out2, _ = run(capsys, "selftest", "--samples", "2000", "--seed", "7", "--format", "json")
    assert code1 == code2 == EXIT_CERTIFIED
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("elapsed_ms"), doc2.pop("elapsed_ms")
    assert doc1 == doc2
    # A different seed changes sampled payloads but not the verdicts.
    _, out3, _ = run(capsys, "selftest", "--samples", "2000", "--seed", "8", "--format", "json")
    doc3 = json.loads(out3)
    assert doc3["verdict"] == "certified"
    assert doc3["reports"][-1]["payload"] != doc1["reports"][-1]["payload"]


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "selftest" in out


def test_unknown_command_is_operational_error(capsys):
    assert main(["frobnicate"]) == EXIT_OPERATIONAL_ERROR


@pytest.mark.parametrize(
    "argv,mentions",
    [
        (("certify", "--n", "4", "--bogus", "1"), "--bogus"),
        (("pnbound", "--m", "3", "--q", "1", "--sam", "10"), "--sam"),  # prefixes are not accepted
        (("certify",), "--n"),
        (("table", "--format", "xml"), "xml"),
        (("selftest", "--samples", "0"), "--samples"),
        (("optimize", "--n", "5", "--budget", "-1"), "--budget"),
        (("pnbound", "--m", "3", "--q", "-1/2"), "q must be positive"),
        (("certify", "--n", "4", "--alpha", "0.42"), "'0.42' is not an exact rational (write it as num/den)"),
        (("frobnicate",), "frobnicate"),
        ((), "COMMAND"),
        (("pnbound", "--m", "3", "--q", "1", "--seed", "-1"), "--seed"),
        (("selftest", "--seed", "-1"), "--seed"),
        (("identities", "--seed", "-1"), "--seed"),
        (("optimize", "--n", "5", "--seed", "-1"), "--seed"),
    ],
    ids=["unknown-option", "abbreviated-option", "missing-n", "format-xml", "samples-0", "budget-negative",
         "q-negative", "alpha-decimal", "unknown-command", "no-command", "pnbound-seed-negative",
         "selftest-seed-negative", "identities-seed-negative", "optimize-seed-negative"],
)
def test_a_bad_command_line_ends_with_one_error_line(capsys, argv, mentions):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OPERATIONAL_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert mentions in err
    assert "usage" not in err.lower() and "Traceback" not in err


_COMMAND_OPTIONS = {
    "table": ("--tol-deg", "--format", "--out"),
    "certify": ("--n", "--alpha", "--delta", "--q", "--p2", "--tol-deg", "--format", "--out"),
    "pnbound": ("--m", "--q", "--p2", "--samples", "--seed", "--format", "--out"),
    "identities": ("--samples", "--seed", "--format", "--out"),
    "optimize": ("--n", "--p2", "--budget", "--seed", "--tol-deg", "--format", "--out"),
    "selftest": ("--samples", "--seed", "--tol-deg", "--format", "--out"),
}


@pytest.mark.parametrize("command", _COMMAND_OPTIONS)
def test_command_help_names_each_option(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert code == EXIT_CERTIFIED and err == ""
    named = set(re.findall(r"--[a-z0-9-]+", out))
    assert named == {"--help", *_COMMAND_OPTIONS[command]}
    # The budget's limit is read from cones only when the optimize parser is built.
    if command == "optimize":
        assert f"at most {cones.OPTIMIZE_MAX_BUDGET};" in " ".join(out.split())


# What every command echoes of an option it does not take.
_ECHO_DEFAULTS = {
    "n": None, "m": None, "q": None, "alpha": None, "delta": None, "p_squared": None,
    "tol_deg": {"num": "1", "den": "1000"}, "samples": 100000, "seed": 42, "budget": 0,
    "format": "json", "out": None, "low_sample": False,
}


@pytest.mark.parametrize(
    "argv,echoed",
    [
        (("table", "--tol-deg", "1/100"), {"tol_deg": {"num": "1", "den": "100"}}),
        (("certify", "--n", "4", "--p2", "0"), {"n": 4, "p_squared": {"num": "0", "den": "1"}}),
        (("pnbound", "--m", "2", "--q", "1", "--p2", "1/2", "--samples", "300", "--seed", "7"),
         {"m": 2, "q": {"num": "1", "den": "1"}, "p_squared": {"num": "1", "den": "2"}, "samples": 300,
          "seed": 7, "low_sample": True}),
        (("identities", "--samples", "2000", "--seed", "7"), {"samples": 2000, "seed": 7, "low_sample": True}),
        (("optimize", "--n", "5", "--budget", "27", "--seed", "3"), {"n": 5, "budget": 27, "seed": 3}),
        (("selftest", "--samples", "2000", "--tol-deg", "1/100"),
         {"samples": 2000, "tol_deg": {"num": "1", "den": "100"}, "low_sample": True}),
    ],
    ids=["table", "certify", "pnbound", "identities", "optimize", "selftest"],
)
def test_config_echoes_every_field(capsys, argv, echoed):
    # An option a command does not take is echoed at its RunConfig default;
    # pnbound echoes the samples requested, not the oracle's 10^4 floor.
    _, doc, err = run_json(capsys, *argv)
    assert err == ""
    expected = {"command": argv[0], **_ECHO_DEFAULTS}
    expected.update(echoed)
    assert doc["config"] == expected
    assert list(doc["config"]) == list(expected)


def test_version_prints_name_and_version(capsys):
    assert run(capsys, "--version") == (EXIT_CERTIFIED, "conecert, version 0.1.0\n", "")


# ---------------------------------------------------------------------------
# Startup: no command loads scipy or sympy
# ---------------------------------------------------------------------------


_SRC = str(Path(conecert.__file__).resolve().parents[1])
# Runs the CLI in a fresh interpreter, then writes its exit code and the
# heavy modules it loaded as the last line of stderr.
_PROBE = """
import json, sys
from conecert.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
heavy = sorted({name.split(".")[0] for name in sys.modules} & {"mpmath", "numpy", "scipy", "sympy"})
sys.stderr.write("\\n" + json.dumps([code, heavy]) + "\\n")
"""


def _fresh_env(**extra):
    path = [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def fresh_run(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=_fresh_env(), timeout=300
    )
    code, heavy = json.loads(proc.stderr.splitlines()[-1])
    return code, heavy


@pytest.mark.parametrize(
    "argv,expected_code,loads_numpy",
    [
        ((), EXIT_CERTIFIED, False),
        (("--version",), EXIT_CERTIFIED, False),
        (("certify", "--n", "3"), EXIT_CERTIFIED, False),
        (("certify", "--n", "4"), EXIT_CERTIFIED, False),
        (("certify", "--n", "5"), EXIT_CERTIFIED, False),
        (("certify", "--n", "6"), EXIT_CERTIFIED, False),
        (("table",), EXIT_CERTIFIED, False),
        (("optimize", "--n", "5", "--budget", "200"), EXIT_CERTIFIED, False),
        (("pnbound", "--m", "5", "--q", "43/391", "--p2", "646328929/717317652", "--samples", "10000"),
         EXIT_FALSIFIED, True),
        (("identities", "--samples", "2000"), EXIT_CERTIFIED, True),
        (("selftest", "--samples", "2000"), EXIT_CERTIFIED, True),
    ],
    ids=["import", "version", "certify-n3", "certify-n4", "certify-n5", "certify-n6", "table", "optimize",
         "pnbound", "identities", "selftest"],
)
def test_commands_load_neither_mpmath_scipy_nor_sympy(argv, expected_code, loads_numpy):
    # conecert.exact computes pi, cos and sin itself, the exact fallback of
    # the identity campaign runs on Fractions, and the sampling oracle
    # (pnbound, selftest) draws from numpy alone.  numpy is imported inside
    # the float functions, so the exact commands never load it.
    code, heavy = fresh_run(*argv)
    assert code == expected_code
    assert heavy == (["numpy"] if loads_numpy else [])


# Runs the CLI in a fresh interpreter, then writes its exit code, the
# top-level modules the import and the run added, whether hashlib is
# loaded, and which lazily registered layer modules have executed, as the
# last line of stderr.  A module that has executed has __builtins__ in its
# namespace; object.__getattribute__ reads the namespace without loading it.
_LOADED_PROBE = """
import json, sys
before = set(sys.modules)
from conecert.cli import main
code = main(sys.argv[1:])
added = sorted({name.split(".")[0] for name in set(sys.modules) - before})
executed = [
    name for name in ("claims", "cones", "linearization", "tilt")
    if "__builtins__" in object.__getattribute__(sys.modules["conecert." + name], "__dict__")
]
sys.stderr.write("\\n" + json.dumps([code, added, "hashlib" in sys.modules, executed]) + "\\n")
"""
_STARTUP_HEAVY = {"dataclasses", "inspect", "hashlib", "csv"}


def _loaded_by(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv], capture_output=True, text=True, env=_fresh_env(),
        timeout=300,
    )
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [("--version",), ("certify", "--n", "3"), ("certify", "--n", "4"), ("certify", "--n", "5"),
     ("certify", "--n", "6"), ("table",), ("optimize", "--n", "5", "--budget", "200")],
    ids=["version", "certify-n3", "certify-n4", "certify-n5", "certify-n6", "table", "optimize"],
)
def test_exact_commands_load_only_the_lean_standard_library(argv):
    # Records are slotted classes (no dataclass code generation, which pulls
    # in inspect), the parser is argparse, and hashlib and csv are imported
    # where the selftest digest and --format csv need them.
    code, added, _, _ = _loaded_by(*argv)
    assert code == EXIT_CERTIFIED
    assert [name for name in added if name not in sys.stdlib_module_names and name != "conecert"] == []
    assert sorted(_STARTUP_HEAVY.intersection(added)) == []


def test_selftest_still_loads_hashlib_for_its_digest():
    code, _, hashlib_loaded, _ = _loaded_by("selftest", "--samples", "2000")
    assert code == EXIT_CERTIFIED
    assert hashlib_loaded


@pytest.mark.parametrize(
    "argv,executed",
    [(("--version",), []),
     (("certify", "--n", "4"), ["cones"]),
     (("table",), ["cones"]),
     (("optimize", "--n", "5", "--budget", "200"), ["cones"]),
     (("pnbound", "--m", "3", "--q", "6/11"), ["cones"]),
     (("identities", "--samples", "2000"), ["claims", "linearization", "tilt"]),
     (("selftest", "--samples", "2000"), ["claims", "cones", "linearization", "tilt"])],
    ids=["version", "certify-n4", "table", "optimize", "pnbound", "identities", "selftest"],
)
def test_each_command_executes_only_the_layer_modules_it_uses(argv, executed):
    # The cli registers every layer module lazily: each is compiled and
    # executed on its first attribute access, by the command that reads it.
    code, _, _, ran = _loaded_by(*argv)
    assert code == EXIT_CERTIFIED
    assert ran == executed


def test_importing_the_cli_loads_every_layer_module():
    # The traced benchmark imports conecert.cli alone, then finds the float
    # layers it times in sys.modules.
    probe = "import json, sys, conecert.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_fresh_env(), timeout=300
    )
    assert {"conecert.cones", "conecert.linearization", "conecert.tilt"} <= set(json.loads(proc.stdout))


_INPROC = Path(__file__).resolve().parents[1] / "perfbench" / "inproc.py"


@pytest.mark.parametrize(
    "argv,layers",
    [(("certify", "--n", "4"), ("cones",)), (("selftest", "--samples", "2000"), ("cones", "tilt", "linearization"))],
    ids=["certify-n4", "selftest"],
)
def test_the_benchmark_tracer_times_the_lazily_loaded_layers(argv, layers):
    # The benchmark's in-process runner imports conecert.cli, wraps the
    # public functions of every layer module it finds in sys.modules, and
    # runs the command; reading a lazy module's namespace loads it.
    proc = subprocess.run(
        [sys.executable, str(_INPROC), "--trace", "--", *argv, "--format", "json"],
        capture_output=True, text=True, env=_fresh_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == EXIT_CERTIFIED
    assert json.loads(result["stdout"])["verdict"] == "certified"
    for layer in layers:
        times = {label: s for label, s in result["layers"].items() if label.startswith(layer + ".")}
        assert times and all(s > 0 for s in times.values()), (layer, result["layers"])


@pytest.mark.parametrize(
    "argv",
    [("certify", "--n", "4"), ("certify", "--n", "5"), ("certify", "--n", "6"),
     ("identities", "--samples", "2000"), ("selftest", "--samples", "2000")],
    ids=["certify-n4", "certify-n5", "certify-n6", "identities", "selftest"],
)
def test_exact_proofs_and_factoring_never_load_sympy(argv):
    # Identity proofs, the margin factorisation and the surds are computed by
    # conecert.exact alone; sympy is a test-only cross-check.
    code, heavy = fresh_run(*argv)
    assert code == EXIT_CERTIFIED
    assert "sympy" not in heavy


# ---------------------------------------------------------------------------
# Host portability: one selftest digest whatever kernels the CPU selects
# ---------------------------------------------------------------------------


_BASELINE_NUMPY = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"


@pytest.mark.parametrize(
    "host",
    [{"OPENBLAS_CORETYPE": "Prescott"},
     {"NPY_DISABLE_CPU_FEATURES": _BASELINE_NUMPY},
     {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": _BASELINE_NUMPY}],
    ids=["openblas-prescott", "numpy-baseline", "both"],
)
def test_selftest_digest_does_not_depend_on_the_cpu_kernels(host, selftest_digests):
    # OpenBLAS and numpy pick BLAS and SIMD kernels per CPU; these settings
    # make this host pick an older CPU's kernels.  Every float in the reports
    # comes from correctly rounded operations, so the digest is criterion 11's.
    proc = subprocess.run(
        [sys.executable, "-m", "conecert", "selftest", "--seed", "42", "--format", "json"],
        capture_output=True, text=True, env=_fresh_env(**host), timeout=600,
    )
    assert proc.returncode == EXIT_CERTIFIED, proc.stderr
    digest = json.loads(proc.stdout)["reports"][-1]["payload"]["content_digest_sha256"]
    assert digest == selftest_digests[100_000, 42]


# The sha256 of pnbound's JSON stdout, elapsed_ms set to 0, as it was before the
# oracle took several (m, q) pairs on one draw: a single pair draws as before.
_PNBOUND_STDOUT_SHA256 = {
    ("--m", "5", "--q", "43/391", "--p2", "646328929/717317652", "--samples", "10000", "--seed", "42"):
        "79a4d2b4c2ec98c5284627a3c7d8a85f3c58762c0834bdd07ef888671ef9fd5b",
    ("--m", "9", "--q", "1/3"): "20797d01ef59acf5564dda192d04b7a38ab39cdaf5c5af6a228864a62ff8e04a",
    ("--m", "3", "--q", "6/11"): "10bbc8fd46af65d7456fcd6b7fbd7bdc6780c930991934109c2f06b0d00dc916",
    ("--m", "5", "--q", "43/391"): "33711b8080aa2a54458444b1c3cdc95dc325142cc58adf2c14ddc1a53e11a752",
}


@pytest.mark.parametrize("options", list(_PNBOUND_STDOUT_SHA256), ids=lambda o: " ".join(o))
def test_pnbound_output_is_pinned(capsys, options):
    import hashlib

    code, out, _ = run(capsys, "pnbound", *options, "--format", "json")
    assert code == (EXIT_FALSIFIED if "--p2" in options else EXIT_CERTIFIED)
    masked = re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(masked.encode()).hexdigest() == _PNBOUND_STDOUT_SHA256[options]


def test_pnbound_output_does_not_depend_on_the_cpu_kernels():
    # The oracle's sums and norms are column adds and square roots, which
    # IEEE 754 rounds the same on every kernel numpy may pick.
    argv = [sys.executable, "-m", "conecert", "pnbound", "--m", "5", "--q", "43/391",
            "--samples", "10000", "--seed", "42", "--format", "json"]
    stdouts = []
    for host in ({}, {"NPY_DISABLE_CPU_FEATURES": _BASELINE_NUMPY}):
        proc = subprocess.run(argv, capture_output=True, text=True, env=_fresh_env(**host), timeout=300)
        assert proc.returncode == EXIT_CERTIFIED, proc.stderr
        stdouts.append(re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', proc.stdout))
    assert stdouts[0] == stdouts[1]
