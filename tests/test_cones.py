"""Tests for the two-value sup enumeration, thresholds, and the table."""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conecert import cones
from conecert.exact import QuadraticSurd, compare

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)
positive_q = st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=512)


# ---------------------------------------------------------------------------
# Power sums and the objective
# ---------------------------------------------------------------------------


def _f_value(x, q):
    """f at one vector, on the oracle's float kernel."""
    return float(cones._f_value(np.array([[float(c) for c in x]]), float(q))[0])


def _signed_f_squared(x, q):
    """(sign of f, exact f^2) at a rational vector, from its power sums."""
    p1 = sum(x, Fraction(0))
    p2 = sum((c * c for c in x), Fraction(0))
    p3 = sum((c * c * c for c in x), Fraction(0))
    numerator = p3 + (1 - q) * p1 * p2 - q * p1 ** 3
    sign = (numerator > 0) - (numerator < 0)
    return sign, numerator ** 2 / (p2 + p1 ** 2) ** 3


@given(
    st.lists(small_rationals, min_size=2, max_size=5),
    positive_q,
    st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=64),
)
@settings(max_examples=80, deadline=None)
def test_f_is_homogeneous_of_degree_zero(xs, q, scale):
    if all(v == 0 for v in xs):
        xs = [Fraction(1)] + xs[1:]
    assert abs(_f_value([scale * c for c in xs], q) - _f_value(xs, q)) <= 1e-12


@given(st.lists(small_rationals, min_size=2, max_size=5), positive_q)
@settings(max_examples=80, deadline=None)
def test_f_squared_sign_matches_float_value(xs, q):
    if all(v == 0 for v in xs):
        xs = [Fraction(1)] + xs[1:]
    sign, f2 = _signed_f_squared(xs, q)
    val = _f_value(xs, q)
    assert f2 >= 0
    if abs(val) > 1e-9:
        assert sign == (1 if val > 0 else -1)
        assert math.isclose(val * val, float(f2), rel_tol=1e-9)
    else:
        assert float(f2) <= 1e-15 or sign in (-1, 0, 1)


# ---------------------------------------------------------------------------
# Exact scalars in a quadratic field
# ---------------------------------------------------------------------------


def test_quadratic_surd_folds_perfect_squares():
    v = QuadraticSurd(Fraction(1), Fraction(1, 3), 9)  # 1 + (1/3)*3
    assert v.coeff == 0 and v.rational == 2


@given(small_rationals, small_rationals, st.sampled_from([2, 3, 5, 6, 7, 10, 11]))
@settings(max_examples=80, deadline=None)
def test_quadratic_surd_sign_matches_float(r, c, d):
    v = QuadraticSurd(r, c, d)
    approx = float(r) + float(c) * math.sqrt(d)
    if abs(approx) > 1e-12:
        assert v.sign() == (1 if approx > 0 else -1)
    iv = v.to_interval()
    assert iv.lo <= Fraction(approx).limit_denominator(10**14) + Fraction(1, 10**9)


@given(small_rationals, small_rationals, small_rationals, small_rationals)
@settings(max_examples=60, deadline=None)
def test_quadratic_surd_field_arithmetic(r1, c1, r2, c2):
    d = 7
    a = QuadraticSurd(r1, c1, d)
    b = QuadraticSurd(r2, c2, d)
    fa, fb = float(a), float(b)
    assert math.isclose(float(a + b), fa + fb, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(float(a * b), fa * fb, rel_tol=1e-12, abs_tol=1e-12)
    if abs(fb) > 1e-9:
        assert math.isclose(float(a / b), fa / fb, rel_tol=1e-9, abs_tol=1e-9)


def test_compare_exact_across_fields():
    sqrt2 = QuadraticSurd(Fraction(0), Fraction(1), 2)
    sqrt3 = QuadraticSurd(Fraction(0), Fraction(1), 3)
    assert compare(sqrt2, sqrt3) == -1
    assert compare(sqrt3, Fraction(2)) == -1
    assert compare(sqrt2 * sqrt2, Fraction(2)) == 0


# ---------------------------------------------------------------------------
# Critical points of the one-variable restriction
# ---------------------------------------------------------------------------


@given(st.integers(1, 4), st.integers(1, 4), positive_q)
@settings(max_examples=60, deadline=None)
def test_critical_quadratic_matches_numeric_derivative(a, b, q):
    A, B, C = cones.critical_quadratic_coeffs(a, b, q)
    # The quadratic's roots must be critical points of t -> f(t,..,t,1,..,1):
    # check that the exact polynomial divides the numerically evaluated
    # derivative's sign changes.  Evaluate the derivative of f^2 at a root
    # enclosure midpoint and demand it is tiny relative to the scale.
    roots = cones.two_value_critical_x(a, b, q)
    for x in roots:
        xv = float(x)
        if abs(xv) > 1e6:
            continue
        h = 1e-6 * max(1.0, abs(xv))
        vec = lambda t: tuple([t] * a + [1.0] * b)
        fp = _f_value(vec(xv + h), q)
        fm = _f_value(vec(xv - h), q)
        f0 = _f_value(vec(xv), q)
        deriv = (fp - fm) / (2 * h)
        curvature = (fp - 2 * f0 + fm) / (h * h)
        assert abs(deriv) <= 1e-4 * (1 + abs(curvature) * h + abs(f0) / h * 0)


def test_known_rational_critical_point():
    # (a, b) = (1, 2) at q = 6/11: the quadratic has the rational root -7/2.
    roots = cones.two_value_critical_x(1, 2, Fraction(6, 11))
    assert any(isinstance(r, Fraction) and r == Fraction(-7, 2) for r in roots) or any(
        not isinstance(r, Fraction) and abs(float(r) + 3.5) < 1e-12 for r in roots
    )


# ---------------------------------------------------------------------------
# Two-value sup: frozen grid, oracle agreement, witness conventions
# ---------------------------------------------------------------------------

GRID_QS = [Fraction(1), Fraction(6, 11), Fraction(43, 391)]
EXPECTED_SUPS = {
    (2, Fraction(1)): QuadraticSurd(0, Fraction(1, 6), 6),
    (3, Fraction(6, 11)): QuadraticSurd(0, Fraction(65, 726), 66),
    (4, Fraction(43, 391)): QuadraticSurd(0, Fraction(25423, 917286), 1173),
}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("q", GRID_QS)
def test_sup_enumeration_grid(m, q):
    res = cones.sup_abs_f_two_value(m, q)
    assert res.exhaustive
    # The witness reproduces the claimed value through the objective itself:
    # exactly when its coordinates are rational, in floats otherwise.
    w = res.witness
    coords = [w.x] * w.a + [w.y] * w.b
    if all(isinstance(c, Fraction) for c in coords):
        _, f2 = _signed_f_squared(coords, q)
        assert isinstance(res.f_squared, Fraction) and f2 == res.f_squared
    else:
        val = _f_value(coords, q)
        assert abs(abs(val) - float(res)) <= 1e-12
    if (m, q) in EXPECTED_SUPS:
        assert res.value == EXPECTED_SUPS[(m, q)]
    # Witness normalisation: largest-magnitude coordinate is exactly 1.
    assert max(abs(float(c)) for c in coords) == pytest.approx(1.0, abs=1e-15)
    assert any(c == 1 for c in coords)


@pytest.mark.parametrize("m,q", [(2, Fraction(1)), (3, Fraction(6, 11)), (4, Fraction(43, 391))])
def test_sup_oracle_agreement(m, q):
    res = cones.sup_abs_f_two_value(m, q)
    (oracle,) = cones.brute_force_sup([(m, q)], samples=20_000, seed=42)
    assert oracle.value <= float(res) + 1e-8
    assert abs(oracle.value - float(res)) <= 1e-6


def test_sup_abs_f_two_value_refuses_a_nonpositive_q():
    # The CLI refuses q <= 0 before the library sees it, so only this test reaches the library's check.
    for q in (0, Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="q must be positive"):
            cones.sup_abs_f_two_value(3, q)


def test_brute_force_requires_enough_samples():
    with pytest.raises(ValueError):
        cones.brute_force_sup([(2, Fraction(1))], samples=100)


def test_brute_force_refuses_draws_beyond_the_work_cap():
    # 10^5 samples in R^335 are 33 500 000 <= 2^25 doubles; R^336 needs 33 600 000.
    cones.check_oracle_size(335, 100_000)
    cones.check_oracle_size(2, 2 ** 24)
    for m, samples in ((336, 100_000), (21201, 100_000), (2, 2 ** 24 + 1)):
        with pytest.raises(ValueError, match=str(cones.ORACLE_MAX_DOUBLES)):
            cones.check_oracle_size(m, samples)
    with pytest.raises(ValueError, match="limit"):
        cones.brute_force_sup([(21201, Fraction(1))])


def test_brute_force_refuses_a_q_outside_the_doubles():
    # At m = 3, |f|^2 <= (1 + 4q + 9q)^2 fits in a double up to q ~ 1.1e153.
    assert cones.check_oracle_q(3, 10 ** 152) == 1e152
    assert cones.check_oracle_q(3, Fraction(1, 2 ** 1074)) == 5e-324
    for q, match in ((10 ** 154, "too large"), (10 ** 400, "too large"),
                     (Fraction(1, 2 ** 1076), "too small"), (Fraction(1, 10 ** 400), "too small")):
        with pytest.raises(ValueError, match=match):
            cones.brute_force_sup([(3, q)], samples=10_000)


def test_brute_force_deterministic():
    (a,) = cones.brute_force_sup([(3, Fraction(6, 11))], samples=10_000, seed=5)
    (b,) = cones.brute_force_sup([(3, Fraction(6, 11))], samples=10_000, seed=5)
    assert a.value == b.value
    assert a.witness == b.witness


@given(positive_q)
@settings(max_examples=12, deadline=None)
def test_sup_value_positive_and_bounded(q):
    res = cones.sup_abs_f_two_value(3, q)
    val = float(res)
    # |f| <= sqrt(P2^3)/P2^{3/2} * (1 + |1-q| + q) crude bound: just sanity.
    assert 0 < val < 10


def test_sup_at_large_m_matches_sympy_expansion_at_the_witness():
    # The witness is a float, so its exact coordinate y is recovered from a
    # sympy root of the critical quadratic: a witness (a ones, b copies of y)
    # comes from the root y of split (b, a) when |y| <= 1, else from the root
    # 1/y of split (a, b).
    q = Fraction(43, 391)
    res = cones.sup_abs_f_two_value(200, q)
    w = res.witness
    x = sympy.Symbol("x")

    def exact_roots(a, b):
        A, B, C = (sympy.Rational(c) for c in cones.critical_quadratic_coeffs(a, b, q))
        return sympy.solve(A * x ** 2 + B * x + C, x)

    ys = [r for r in exact_roots(w.b, w.a) if abs(r) <= 1] + [1 / r for r in exact_roots(w.a, w.b) if abs(r) > 1]
    y = min(ys, key=lambda r: abs(float(r) - w.y))
    assert w.y == float(sympy.N(y, 40))

    qs = sympy.Rational(q)
    P1, P2, P3 = w.a + w.b * y, w.a + w.b * y ** 2, w.a + w.b * y ** 3
    N = P3 + (1 - qs) * P1 * P2 - qs * P1 ** 3
    f2 = sympy.radsimp(N ** 2 / (P2 + P1 ** 2) ** 3)
    assert isinstance(res.f_squared, QuadraticSurd)
    assert sympy.expand(f2 - sympy.sympify(str(res.f_squared))) == 0


def test_sup_monotone_in_m_at_fixed_q():
    # Adding variables can only widen the feasible set of two-value shapes.
    vals = [float(cones.sup_abs_f_two_value(m, Fraction(6, 11))) for m in (2, 3, 4, 5)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_sup_at_a_q_beyond_the_doubles_is_exact():
    # The enumeration is exact: at a q whose f^2 (about 7.5e319) exceeds the
    # largest double it returns f^2 as sympy evaluates it at the witness,
    # neither an OverflowError nor a refusal.
    q = 10 ** 160
    res = cones.sup_abs_f_two_value(3, q)
    w = res.witness
    y = sympy.Rational(w.y)
    P1, P2, P3 = (w.a + w.b * y ** k for k in (1, 2, 3))
    N = P3 + (1 - q) * P1 * P2 - q * P1 ** 3
    assert sympy.Rational(res.f_squared) == N ** 2 / (P2 + P1 ** 2) ** 3
    assert float(res) == 8.660254037844387e+159


# ---------------------------------------------------------------------------
# Parameter sets, thresholds, constraint
# ---------------------------------------------------------------------------

EXPECTED_M = {
    4: Fraction(18928, 18605),
    5: Fraction(264924, 2713295),
    6: Fraction(12002306544, 1858195670875),
}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_threshold_exact_values(n):
    p = cones.calibrated_defaults(n)
    assert cones.m_functional(p) == EXPECTED_M[n]


def test_m_functional_rejects_zero_p_squared():
    # p^2 <= 0 is refused when the parameters are built, before m_functional divides by it.
    for p_squared in (Fraction(0), Fraction(-1)):
        with pytest.raises(cones.ConeParamsError, match="p_squared must be positive"):
            cones.ConeParams(n=4, alpha=Fraction(14, 33), delta=Fraction(1, 15), q=Fraction(1), p_squared=p_squared)


def test_cone_params_invariant_enforced():
    # alpha = 1 makes 2a - 1 + 2/(n-1) - a^2 (q+1) nonpositive for q = 1.
    with pytest.raises(cones.ConeParamsError):
        cones.ConeParams(n=4, alpha=Fraction(1), delta=Fraction(1, 2), q=Fraction(1), p_squared=Fraction(1, 6))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_constraint_strict_with_exact_gap(n):
    rep = cones.constraint_holds(cones.calibrated_defaults(n))
    assert rep.strict
    assert rep.gap > 0
    if n == 4:
        assert rep.gap == Fraction(2272, 1350723)
        assert rep.gap < Fraction(1, 300)
    if n == 5:
        assert rep.gap == Fraction(385, 97344)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_certify_dimension_default_parameters(n):
    rep = cones.certify_dimension(cones.calibrated_defaults(n))
    assert rep.verdict == "certified"
    assert rep.method == "interval"
    payload = rep.payload
    assert payload["threshold"] == EXPECTED_M[n]
    # The sup at m = n-2 matches p^2 exactly (calibrated equality).
    assert payload["sup_comparisons"][f"m={n-2}"]["equals_p_squared"] is True
    assert payload["sup_comparisons"][f"m={n-2}"]["exceeds_p_squared"] is False


def test_certify_dimension_reports_m_ambiguity():
    rep = cones.certify_dimension(cones.calibrated_defaults(5))
    comp = rep.payload["sup_comparisons"]["m=4"]
    assert comp["exceeds_p_squared"] is True  # informational: one more variable exceeds
    assert rep.verdict == "certified"


@pytest.mark.parametrize("n,m,expected", [(5, 4, 0.6307095887206784), (6, 5, 0.957936517485363)])
def test_certify_dimension_sup_float_is_f_squared_when_irrational(n, m, expected):
    entry = cones.certify_dimension(cones.calibrated_defaults(n)).payload["sup_comparisons"][f"m={m}"]
    assert isinstance(entry["sup_f_squared"], str)  # irrational: printed as "r + c*sqrt(d)"
    assert entry["sup_f_squared_float"] == expected
    # Correctly rounded: the nearest double to the exact surd.
    assert expected == float(sympy.N(sympy.sympify(entry["sup_f_squared"]), 30))


# ---------------------------------------------------------------------------
# Critical-dimension table
# ---------------------------------------------------------------------------


def test_table_rows_and_classification():
    tbl = cones.n_theta_table(Fraction(1, 1000))
    rows = tbl.formatted_rows()
    assert [r["n_theta"] for r in rows] == [7, 6, 5, 4]
    assert rows[0]["theta_lo_deg"] == "90.000"
    assert rows[0]["theta_hi_deg"] == "94.580"
    assert rows[1]["theta_hi_deg"] == "106.664"
    assert rows[2]["theta_hi_deg"] == "128.346"
    assert rows[3]["theta_hi_deg"] == "180.000"
    assert tbl.classify(90) == 7
    assert tbl.classify(100) == 6
    assert tbl.classify(120) == 5
    assert tbl.classify(160) == 4
    # Angles below 90 classify through the supplement.
    assert tbl.classify(60) == tbl.classify(120)
    assert tbl.classify(Fraction(859, 10)) == 7


def test_table_boundaries_are_certified_enclosure_grid_points():
    tbl = cones.n_theta_table(Fraction(1, 1000))
    for row in tbl.rows[:-1]:
        # Each interior boundary is the grid-rounded lower endpoint of a
        # certified enclosure of width <= tol.
        assert row.hi_enclosure.width <= Fraction(1, 1000)
        assert row.hi_enclosure.lo <= row.hi <= row.hi_enclosure.hi


def test_table_respects_tolerance_parameter():
    coarse = cones.n_theta_table(Fraction(1, 10))
    fine = cones.n_theta_table(Fraction(1, 100000))
    assert [r.n_theta for r in coarse.rows] == [r.n_theta for r in fine.rows]
    for c, f in zip(coarse.rows[:-1], fine.rows[:-1]):
        assert f.hi_enclosure.width <= c.hi_enclosure.width


def _mp(x):
    return mp.mpf(x.numerator) / x.denominator


def _reference_n_theta(theta):
    """n_theta at a rational angle from 60-digit mpmath: n + 1 for the first n = 6, 5, 4
    with cos^2 < T_n sin^4, else 4; None within 1e-50 of a breakpoint."""
    with mp.workdps(60):
        x = mp.radians(_mp(theta))
        cos2, sin2 = mp.cos(x) ** 2, mp.sin(x) ** 2
        for n in (6, 5, 4):
            gap = cos2 - _mp(EXPECTED_M[n]) * sin2 ** 2
            if abs(gap) < mp.mpf(10) ** -50:
                return None
            if gap < 0:
                return n + 1
        return 4


def _breakpoint(n):
    """The n breakpoint 180 - acos(sqrt(u)) degrees, T (1 - u)^2 = u, rounded to a multiple of 1e-90."""
    with mp.workdps(120):
        t = _mp(EXPECTED_M[n])
        u = (2 * t + 1 - mp.sqrt(4 * t + 1)) / (2 * t)
        return Fraction(int(mp.nint((180 - mp.degrees(mp.acos(mp.sqrt(u)))) * 10**90)), 10**90)


@given(
    st.fractions(min_value=0, max_value=180, max_denominator=10**6).filter(lambda x: 0 < x < 180),
    st.sampled_from([Fraction(7), Fraction(100), Fraction(1, 10), Fraction(1, 1000)]),
)
@settings(max_examples=100, deadline=None)
@example(theta=Fraction(104), tol=Fraction(7))  # n = 6: the n = 5 breakpoint is near 106.665
# Inside the boundary cells of the 1/1000 table, one angle on each side of the breakpoint.
@example(theta=Fraction("94.5802"), tol=Fraction(1, 1000))
@example(theta=Fraction("94.5804"), tol=Fraction(1, 1000))
@example(theta=Fraction("106.6649"), tol=Fraction(1, 1000))
@example(theta=Fraction("106.6650"), tol=Fraction(1, 1000))
@example(theta=Fraction("128.3460"), tol=Fraction(1, 1000))
@example(theta=Fraction("128.3461"), tol=Fraction(1, 1000))
@example(theta=Fraction("85.4196"), tol=Fraction(1, 10))  # the supplement of 94.5804
def test_classify_matches_a_60_digit_reference_at_every_tolerance(theta, tol):
    expected = _reference_n_theta(theta)
    assume(expected is not None)
    assert cones.n_theta_table(tol).classify(theta) == expected


def test_classify_refuses_an_angle_it_cannot_separate_from_a_breakpoint():
    # Within 1e-80 degrees of the n = 5 breakpoint the angle meets the breakpoint's enclosure.
    with pytest.raises(ValueError, match="cannot separate"):
        cones.n_theta_table(Fraction(1, 1000)).classify(_breakpoint(5))


def test_a_grid_too_fine_to_decide_names_the_angle_it_cannot_separate():
    # On a 1e-80 degree grid the enclosure of the n = 4 window edge holds grid
    # points, and the refusal names the first of them.
    with pytest.raises(ValueError, match="cannot separate") as refusal:
        cones.n_theta_table(Fraction(1, 10**80))
    angle = float(re.search(r" at (\S+) degrees ", str(refusal.value)).group(1))
    assert abs(angle - float(180 - _breakpoint(4))) < 1e-9


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_optimize_budget_zero_echoes_defaults():
    res = cones.optimize_params(4, budget=0)
    assert res.no_search
    assert res.best == cones.calibrated_defaults(4)
    assert res.best_m == EXPECTED_M[4]
    assert res.matches_or_improves_default is True


def test_optimize_deterministic_and_never_worse_than_defaults():
    a = cones.optimize_params(4, budget=200)
    b = cones.optimize_params(4, budget=200)
    assert a.best == b.best and a.best_m == b.best_m
    assert a.evaluated <= 200 + 1  # defaults triple rides along for free
    assert a.best_m >= EXPECTED_M[4]


def test_optimize_respects_budget():
    res = cones.optimize_params(5, budget=27)
    assert res.evaluated <= 28
    assert res.feasible_count <= res.evaluated


@given(
    st.sampled_from([4, 5, 6]),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**9).filter(lambda r: r > 0),
    st.sampled_from([0, 27]),
)
@settings(max_examples=60, deadline=None)
def test_optimize_starts_from_the_calibrated_triple_at_every_positive_p2(n, p2, budget):
    # Neither the invariant nor the constraint involves p^2, so the calibrated
    # triple passes the search's feasibility tests at every p^2 > 0, and the
    # search always has an incumbent.
    c = cones.calibrated_defaults(n)
    assert cones._try_params(n, c.alpha, c.delta, c.q, p2) is not None
    res = cones.optimize_params(n, p_squared=p2, budget=budget)
    assert res.default_m == cones.m_functional(cones.ConeParams(n, c.alpha, c.delta, c.q, p2))
    assert res.best_m >= res.default_m


# ---------------------------------------------------------------------------
# n = 3
# ---------------------------------------------------------------------------


def test_n3_coefficients_exact():
    rep = cones.n3_coefficients(0)
    assert rep.c_outer == Fraction(-1, 2)
    assert rep.c_inner == 0
    assert rep.contradiction_closes is True


@given(st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=1000))
@settings(max_examples=40, deadline=None)
def test_n3_contradiction_closes_for_small_eps(eps):
    rep = cones.n3_coefficients(eps)
    # 2 beta^2 - 2 beta at beta = 1/2 - eps and 1 + eps.
    assert rep.c_outer == 2 * (Fraction(1, 2) - eps) ** 2 - 2 * (Fraction(1, 2) - eps)
    assert rep.c_inner == 2 * (1 + eps) ** 2 - 2 * (1 + eps)
    assert rep.contradiction_closes
