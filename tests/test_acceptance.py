"""Acceptance gate: the eleven headline checks, one test (and one
pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion; each test also prints an ``ACCEPTANCE CRITERION n: PASS`` line
(visible with ``-s``) once its assertions have all held.
"""

import json
import time
from fractions import Fraction

from conecert import cones, linearization, tilt
from conecert.cli import main
from conecert.exact import AngleDeg, QuadraticSurd, angle_range_from_threshold

EXPECTED_M = {
    4: Fraction(18928, 18605),
    5: Fraction(264924, 2713295),
    6: Fraction(12002306544, 1858195670875),
}
PUBLISHED_WINDOWS = {
    4: (Fraction("51.654"), Fraction("128.346")),
    5: (Fraction("73.336"), Fraction("106.664")),
    6: (Fraction("85.420"), Fraction("94.580")),
}


def _announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: PASS — {label}")


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_exact_threshold_reproduction(capsys):
    for n, expected in EXPECTED_M.items():
        start = time.perf_counter()
        code, doc = run_json(capsys, "certify", "--n", str(n))
        elapsed = time.perf_counter() - start
        assert code == 0
        got = doc["reports"][0]["payload"]["threshold"]
        assert got == {"num": str(expected.numerator), "den": str(expected.denominator)}
        # And the library value is the same rational, exactly.
        assert cones.m_functional(cones.calibrated_defaults(n)) == expected
        assert elapsed < 1.0, f"certify --n {n} took {elapsed:.2f}s"
    _announce(1, "thresholds are exactly 18928/18605, 264924/2713295, 12002306544/1858195670875")


def test_criterion_02_certified_angle_ranges():
    start = time.perf_counter()
    tol = Fraction(1, 1000)
    for n, (lo_pub, hi_pub) in PUBLISHED_WINDOWS.items():
        tmin, tmax = angle_range_from_threshold(EXPECTED_M[n], tol)
        assert tmin.value.width <= tol and tmax.value.width <= tol
        assert tmin.value.contains(lo_pub), f"n={n}: {tmin.value} misses {lo_pub}"
        assert tmax.value.contains(hi_pub), f"n={n}: {tmax.value} misses {hi_pub}"
        # The full open interval between the enclosures is certified:
        # windows are symmetric and nested inside (0, 180).
        assert 0 < tmin.value.lo and tmax.value.hi < 180
        assert tmin.value.hi < tmax.value.lo
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"angle ranges took {elapsed:.2f}s"
    _announce(2, "angle windows enclose the published breakpoints to 0.001°")


def test_criterion_03_critical_dimension_table(capsys):
    code, doc = run_json(capsys, "table")
    assert code == 0
    rows = doc["reports"][0]["payload"]["rows"]
    expected = [
        ("90.000", "94.580", 7),
        ("94.580", "106.664", 6),
        ("106.664", "128.346", 5),
        ("128.346", "180.000", 4),
    ]
    assert [(r["theta_lo_deg"], r["theta_hi_deg"], r["n_theta"]) for r in rows] == expected
    # Breakpoints agree with the certified enclosures to within 0.001°.
    tbl = cones.n_theta_table(Fraction(1, 1000))
    for row, (published, _, _) in zip(tbl.rows[1:], expected[1:]):
        assert abs(row.lo - Fraction(published)) <= Fraction(1, 1000)
    _announce(3, "all four table rows with breakpoints within 0.001°")


def test_criterion_04_constraint_checks_strict_and_tight():
    gaps = {}
    for n in (4, 5, 6):
        rep = cones.constraint_holds(cones.calibrated_defaults(n))
        assert rep.strict, f"constraint not strict for n={n}"
        gaps[n] = rep.gap
    assert gaps[4] > 0
    assert gaps[4] < Fraction(1, 300)
    # lhs ≈ 1.3317 against 4/3: the n=4 margin is genuinely tight.
    lhs = cones.constraint_holds(cones.calibrated_defaults(4)).lhs
    assert abs(float(lhs) - 1.3317) < 5e-4
    _announce(4, "constraints strict; n=4 gap positive and below 1/300")


def test_criterion_05_two_value_enumeration_with_oracle():
    start = time.perf_counter()
    expected = {
        (2, Fraction(1)): QuadraticSurd(0, Fraction(1, 6), 6),          # 1/sqrt(6)
        (3, Fraction(6, 11)): QuadraticSurd(0, Fraction(65, 726), 66),  # 65/(11 sqrt(66))
        (4, Fraction(43, 391)): QuadraticSurd(0, Fraction(25423, 917286), 1173),  # 25423/(782 sqrt(1173))
    }
    for (m, q), surd in expected.items():
        enum = cones.sup_abs_f_two_value(m, q)
        assert enum.value == surd
        assert isinstance(enum.f_squared, Fraction)
        assert enum.value.square() == enum.f_squared
        (oracle,) = cones.brute_force_sup([(m, q)], samples=100_000, seed=42)
        assert abs(oracle.value - float(enum)) <= 1e-8
        assert oracle.value <= float(enum) + 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"enumeration + oracle took {elapsed:.2f}s"
    _announce(5, "sups equal 1/√6, 65/(11√66), 25423/(782√1173); oracle agrees to 1e-8")


def test_criterion_06_indexing_ambiguity_decided(capsys):
    for n in (5, 6):
        p = cones.calibrated_defaults(n)
        q = f"{p.q.numerator}/{p.q.denominator}"
        p2 = f"{p.p_squared.numerator}/{p.p_squared.denominator}"
        outcomes = []
        for _ in range(2):
            code, doc = run_json(
                capsys, "pnbound", "--m", str(n - 1), "--q", q, "--p2", p2,
                "--samples", "10000",
            )
            assert code in (0, 2)  # decided either way, never inconclusive
            comparison = doc["reports"][1]["payload"]["comparison"]
            assert comparison in ("sup^2 < p^2", "sup^2 = p^2", "sup^2 > p^2")
            assert doc["reports"][1]["method"] == "exact"
            outcomes.append((code, comparison))
        assert outcomes[0] == outcomes[1], "verdict must be reproducible"
    _announce(6, "m = n-1 comparisons terminate with exact, reproducible verdicts")


def test_criterion_07_identity_suites_at_full_sample_size():
    start = time.perf_counter()
    # The frame residuals are the defects cleared of g^2, as the certificate proves them.
    grads, js, frames = [], [], []
    for theta, k in [(100, Fraction(1)), (120, Fraction(1, 2)),
                     (135, Fraction(1, 3)), (150, Fraction(1, 4))]:
        for n in (2, 3, 4, 6):
            params = tilt.TiltParams(theta=AngleDeg.from_degrees(theta), k=k, n=n)
            res = tilt.identity_campaigns([params], samples=100_000, seed=42)[0]
            grads.append(res.max_gradient_residual)
            js.append(res.max_j_minus_g2)
            frames += [res.max_frame_sum_residual, res.max_wedge_sum_residual]
    # all(<=), not max(): max() can drop a NaN, which all() counts as a failure.
    assert all(v <= 1e-12 for v in grads), f"gradient residuals {grads}"
    assert all(v <= 1e-12 for v in js), f"jfrak - g^2 maxima {js}"
    assert all(v <= 1e-10 for v in frames), f"frame residuals {frames}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"identity campaigns took {elapsed:.2f}s"
    _announce(7, f"16 campaigns × 10^5 samples: grad ≤ 1e-12, jfrak - g² ≤ 1e-12, frame ≤ 1e-10 ({elapsed:.1f}s)")


def test_criterion_08_margin_certification():
    for n, k in [(2, Fraction(1)), (3, Fraction(1)), (4, Fraction(1, 2)),
                 (5, Fraction(1, 3)), (6, Fraction(1, 4)), (7, Fraction(1, 5))]:
        rep = tilt.certify_margin_positive(n, k)
        assert rep.verdict == "certified", f"(n,k)=({n},{k}): {rep.verdict}"
    _announce(8, "margin certified positive on (0°,180°) for all six (n,k) pairs")


def test_criterion_09_linearization_order_and_norm_slacks():
    for theta in (91, 120, 150, 179):
        rep = linearization.remainder_ratio_certified(theta, directions=1000, seed=42)
        assert rep.all_in_band and rep.bound_certified, (
            f"theta={theta}: ratios [{rep.ratio_enclosure_lo:.4f}, {rep.ratio_enclosure_hi:.4f}]"
        )
        # Both norm-equivalence slacks are this factor times a sum of squares,
        # so a certified positive factor makes them nonnegative for every vector.
        factor, ok = linearization.norm_equivalence_certified(theta)
        assert ok and factor.lo > 0, f"theta={theta}: slack factor {factor}"
    _announce(9, "certified halving ratios in [3.6,4.4] at all four angles; norm slacks ≥ 0")


def test_criterion_10_n3_coefficients_exact():
    rep = cones.n3_coefficients(0)
    assert rep.c_outer == Fraction(-1, 2)
    assert rep.c_inner == 0
    assert rep.contradiction_closes is True
    _announce(10, "n=3 coefficients at eps=0 are exactly (-1/2, 0, true)")


def test_criterion_11_selftest_determinism(capsys, selftest_digests):
    def run_once() -> str:
        code = main(["selftest", "--seed", "42", "--format", "json"])
        assert code == 0
        return capsys.readouterr().out

    def without_wall_time(out: str) -> list[str]:
        return [line for line in out.splitlines() if '"elapsed_ms"' not in line]

    first = run_once()
    second = run_once()
    assert without_wall_time(first) == without_wall_time(second), (
        "selftest output must be byte-identical except wall-time"
    )
    assert json.loads(first)["reports"][-1]["payload"]["content_digest_sha256"] == selftest_digests[100_000, 42]
    _announce(11, "two selftest --seed 42 runs byte-identical except wall-time, digest pinned")
