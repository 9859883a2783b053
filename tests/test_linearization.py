"""Tests for the slanted-graph Gauss map, its linearization, and the metric."""

import itertools
import math
import operator
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath import iv
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import _sampling
from conecert import linearization as lin
import conecert
from conecert.exact import _DYADIC_BITS, AngleDeg, Interval, _Dyadic

ANGLES = [Fraction(91), Fraction(120), Fraction(150), Fraction(179)]

unit_dirs = st.lists(
    st.floats(-1, 1, allow_nan=False, width=32), min_size=2, max_size=4
).filter(lambda v: sum(abs(x) for x in v) > 1e-3)


# ---------------------------------------------------------------------------
# Remainder order, certified
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", ANGLES)
def test_remainder_ratio_certified_in_band(theta):
    rep = lin.remainder_ratio_certified(theta, directions=16, seed=42)
    assert rep.all_in_band
    assert rep.bound_certified
    assert 3.6 <= rep.ratio_enclosure_lo <= rep.ratio_enclosure_hi <= 4.4


def test_remainder_ratio_exactly_cubic_at_ninety_degrees():
    # At 90 degrees the quadratic term of the remainder vanishes
    # (cos = 0 kills it), so the leading order is cubic: ratio -> 8.
    rep = lin.remainder_ratio_certified(90, directions=100, seed=42)
    assert abs(rep.ratio_enclosure_lo - 8.0) < 0.01
    assert abs(rep.ratio_enclosure_hi - 8.0) < 0.01


def test_remainder_ratio_certified_deterministic():
    a = lin.remainder_ratio_certified(120, directions=16, seed=3)
    b = lin.remainder_ratio_certified(120, directions=16, seed=3)
    assert a == b


def test_remainder_ratio_certified_rejects_zero_directions():
    # An empty direction set must not certify anything vacuously.
    with pytest.raises(ValueError, match="at least one direction"):
        lin.remainder_ratio_certified(120, directions=0)


def test_remainder_ratio_certified_checks_the_bound_on_every_direction(monkeypatch):
    # At scale 1e-60 every remainder is below the 2^-256 grid, so no ratio is
    # certified and neither may the bound be: it must not hold vacuously.
    monkeypatch.setattr(lin, "_SCALE", Fraction(1, 10**60))
    rep = lin.remainder_ratio_certified(120, directions=4)
    assert rep.all_in_band is False
    assert rep.bound_certified is False


def test_remainder_bound_is_decided_at_the_largest_remainder_ratio(monkeypatch):
    # The bound |r| <= C |q|^2 holds on every direction exactly when C is at
    # least the largest |r| / |q|^2, computed here to 120 digits.
    theta, directions = Fraction(120), 4
    ratios = []
    for d in _sampling.unit_gaussian_chunks(np.random.default_rng(42), directions, (lin._NDIM,)):
        for row in d:
            qs = [Fraction(float(c)) * lin._SCALE for c in row]
            with mp.workdps(120):
                ratios.append(_mp_remainder_norm(qs, theta, "up") / mp.fsum((mp.mpf(c.numerator) / c.denominator) ** 2 for c in qs))
    largest = float(max(ratios))
    assert 0 < largest < lin._BOUND_CONSTANT
    for factor, holds in ((1 - 1e-9, False), (1 + 1e-9, True)):
        monkeypatch.setattr(lin, "_BOUND_CONSTANT", Fraction(largest * factor))
        assert lin.remainder_ratio_certified(theta, directions, seed=42).bound_certified is holds, factor


def _rational_ratio_report(theta, directions, seed):
    """``remainder_ratio_certified`` as it decided in exact rationals before its integer
    comparisons: Fraction gradients, and ratios, hull and checks on Fraction ends.  Kept as the reference."""
    trig = _kernel_trig(theta, "up")
    band_lo, band_hi = lin._BAND

    def remainder(qs):
        return lin._remainder_norm_interval(_kernel_q(qs), *trig).to_interval()

    hull_lo = hull_hi = None
    all_in = True
    bound_ok = True
    for d in itertools.chain.from_iterable(
        _sampling.unit_gaussian_chunks(np.random.default_rng(seed), directions, (lin._NDIM,))
    ):
        qs = [Fraction(float(c)) * lin._SCALE for c in d]
        q_norm_sq = sum((c * c for c in qs), Fraction(0))
        r_full = remainder(qs)
        r_half = remainder([c / 2 for c in qs])
        if not (r_full.hi * r_full.hi <= lin._BOUND_CONSTANT ** 2 * q_norm_sq ** 2):
            bound_ok = False
        if not r_half.lo > 0:
            all_in = False
            continue
        # Both ends are >= 0, so the ratio's extremes pair each end of r_full with the other end of r_half.
        ratio_lo, ratio_hi = r_full.lo / r_half.hi, r_full.hi / r_half.lo
        hull_lo = ratio_lo if hull_lo is None else min(hull_lo, ratio_lo)
        hull_hi = ratio_hi if hull_hi is None else max(hull_hi, ratio_hi)
        if not (band_lo <= ratio_lo and ratio_hi <= band_hi):
            all_in = False
    if hull_lo is None:
        hull_lo = hull_hi = Fraction(0)
    return lin.CertifiedRatioReport(float(hull_lo), float(hull_hi), all_in, bound_ok)


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("theta", ANGLES + [Fraction(90)])
def test_integer_decisions_give_the_reports_of_the_rational_ones(theta, seed):
    # selftest's four angles and its 64 directions; at 90 degrees the ratios sit near 8, out of the band.
    assert lin.remainder_ratio_certified(theta, 64, seed=seed) == _rational_ratio_report(theta, 64, seed)


@pytest.mark.parametrize(
    "full,half,in_band",
    [((18, 18), (5, 5), True), ((22, 22), (5, 5), True), ((18, 22), (5, 5), True),
     ((17, 18), (5, 5), False), ((22, 23), (5, 5), False), ((36, 44), (9, 11), False), ((18, 18), (0, 5), False)],
)
def test_a_ratio_on_an_end_of_the_band_is_in_the_band(monkeypatch, full, half, in_band):
    # The kernel returns F at each gradient and H at its half: F/H lies in [F.lo/H.hi, F.hi/H.lo].
    def kernel():
        values = itertools.cycle([_Dyadic(*full), _Dyadic(*half)])
        return lambda q, *trig: next(values)

    monkeypatch.setattr(lin, "_remainder_norm_interval", kernel())
    rep = lin.remainder_ratio_certified(120, directions=4, seed=42)
    assert rep.all_in_band is in_band
    if half[0] > 0:
        assert (rep.ratio_enclosure_lo, rep.ratio_enclosure_hi) == (full[0] / half[1], full[1] / half[0])
    monkeypatch.setattr(lin, "_remainder_norm_interval", kernel())
    assert rep == _rational_ratio_report(Fraction(120), 4, 42)


def test_remainder_bound_holds_at_equality_and_fails_just_below(monkeypatch):
    # With |r| = C |q|^2 exactly, the bound holds at C and fails at C (1 - 10^-30).
    (d,) = next(_sampling.unit_gaussian_chunks(np.random.default_rng(42), 1, (lin._NDIM,)))
    q_norm_sq = sum((Fraction(float(c)) * lin._SCALE) ** 2 for c in d)
    full = _Dyadic(3 << 200, 3 << 200)
    values = itertools.cycle([full, _Dyadic(1, 1)])
    monkeypatch.setattr(lin, "_remainder_norm_interval", lambda q, *trig: next(values))
    exact = Fraction(full.hi, 1 << _DYADIC_BITS) / q_norm_sq
    for constant, holds in ((exact, True), (exact * (1 - Fraction(1, 10**30)), False)):
        monkeypatch.setattr(lin, "_BOUND_CONSTANT", constant)
        assert lin.remainder_ratio_certified(120, directions=1, seed=42).bound_certified is holds, holds


@pytest.fixture
def trig_calls(monkeypatch):
    calls = {"sin": 0, "cos": 0}
    for name in calls:
        original = getattr(AngleDeg, name)

        def counted(self, _original=original, _name=name):
            calls[_name] += 1
            return _original(self)

        monkeypatch.setattr(AngleDeg, name, counted)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: lin.remainder_ratio_certified(91, directions=4),
        lambda: lin.norm_equivalence_certified(91),
    ],
    ids=["remainder_ratio_certified", "norm_equivalence_certified"],
)
def test_trig_evaluated_once_per_call(trig_calls, run):
    # Per-direction or per-point trig would multiply these counts.
    run()
    assert trig_calls["sin"] <= 1
    assert trig_calls["cos"] <= 1


# ---------------------------------------------------------------------------
# Fixed-point remainder kernel
# ---------------------------------------------------------------------------

ULP = Fraction(1, 1 << _DYADIC_BITS)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10**9)


@st.composite
def fraction_intervals(draw):
    a = draw(fractions)
    b = draw(st.one_of(st.just(a), fractions))
    return Interval(min(a, b), max(a, b))


def _grid(x):
    """The grid units around a Fraction interval: each end rounded outward by ``enclose_ratio``."""
    return _Dyadic(_Dyadic.enclose_ratio(*x.lo.as_integer_ratio()).lo, _Dyadic.enclose_ratio(*x.hi.as_integer_ratio()).hi)


def _corners(op, x, y):
    """The exact result of op over two Fraction intervals: the hull of op at their ends (y's ends nonzero for /)."""
    values = [op(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return Interval(min(values), max(values))


def _assert_tight_enclosure(got, exact, ulps=2):
    assert got.lo <= exact.lo and exact.hi <= got.hi
    assert exact.lo - got.lo <= ulps * ULP and got.hi - exact.hi <= ulps * ULP


@given(fraction_intervals())
@settings(max_examples=150, deadline=None)
def test_dyadic_encloses_its_fraction_interval_within_one_unit(x):
    _assert_tight_enclosure(_grid(x).to_interval(), x, ulps=1)


@given(fraction_intervals(), fraction_intervals())
@settings(max_examples=200, deadline=None)
def test_dyadic_operations_enclose_the_exact_results(x, y):
    # The operands are rounded to the grid first; each operation then rounds
    # outward by less than one unit of 2^-256 beyond the exact result.
    dx, dy = _grid(x), _grid(y)
    ex, ey = dx.to_interval(), dy.to_interval()
    _assert_tight_enclosure((dx + dy).to_interval(), _corners(operator.add, ex, ey))
    _assert_tight_enclosure((dx - dy).to_interval(), _corners(operator.sub, ex, ey))
    _assert_tight_enclosure((-dx).to_interval(), Interval(-ex.hi, -ex.lo))
    _assert_tight_enclosure((dx * dy).to_interval(), _corners(operator.mul, ex, ey))
    low = 0 if ex.lo <= 0 <= ex.hi else min(ex.lo ** 2, ex.hi ** 2)
    _assert_tight_enclosure(dx.square().to_interval(), Interval(low, max(ex.lo ** 2, ex.hi ** 2)))
    if ey.lo <= 0 <= ey.hi:
        with pytest.raises(ZeroDivisionError):
            dx / dy
    else:
        _assert_tight_enclosure((dx / dy).to_interval(), _corners(operator.truediv, ex, ey))
    if ex.lo < 0:
        with pytest.raises(ValueError):
            dx.sqrt()
    else:
        root = dx.sqrt().to_interval()
        # lo <= sqrt(x.lo) < lo + ulp and hi - ulp < sqrt(x.hi) <= hi.
        assert root.lo ** 2 <= ex.lo < (root.lo + ULP) ** 2
        assert ex.hi <= root.hi ** 2
        assert root.hi == 0 or (root.hi - ULP) ** 2 < ex.hi


def test_dyadic_division_by_a_negative_interval():
    x = _grid(Interval(Fraction(-3), Fraction(5)))
    y = _grid(Interval(Fraction(-4), Fraction(-2)))
    assert (x / y).to_interval() == Interval(Fraction(-5, 2), Fraction(3, 2))


grid_ints = st.integers(-(1 << 300), 1 << 300)


@given(grid_ints, grid_ints, grid_ints, grid_ints)
@settings(max_examples=300, deadline=None)
def test_dyadic_division_picks_the_corners_the_four_corner_rule_picks(a, b, c, d):
    x, y = _Dyadic(min(a, b), max(a, b)), _Dyadic(min(c, d), max(c, d))
    if y.lo <= 0 <= y.hi:
        return
    corners = [(n << _DYADIC_BITS, m) for n in (x.lo, x.hi) for m in (y.lo, y.hi)]
    got = x / y
    assert (got.lo, got.hi) == (min(n // m for n, m in corners), max(-(-n // m) for n, m in corners))


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
@settings(max_examples=200, deadline=None)
def test_dyadic_enclose_ratio_is_enclose_of_the_point(num, den):
    # The floor and ceiling of the point on the grid, from exact Fraction arithmetic.
    point = Fraction(num, den) * (1 << _DYADIC_BITS)
    got = _Dyadic.enclose_ratio(num, den)
    assert (got.lo, got.hi) == (math.floor(point), math.ceil(point))


def _kernel_q(qs):
    """Rational gradient components enclosed on the 2^-256 grid, as the kernel takes them."""
    return [_Dyadic.enclose_ratio(*c.as_integer_ratio()) for c in qs]


def _kernel_trig(theta, orientation):
    """slant, lead, sin and sin^3 for the kernel, "up" as remainder_ratio_certified hands them."""
    angle = AngleDeg.from_degrees(theta)
    cos, sin = angle.cos(), angle.sin()
    if orientation == "down":
        cos = -cos
    return cos / sin, -cos, sin, sin * sin * sin


def _mp_remainder_norm(qs, theta, orientation):
    """|G(q) - L(q)| to 120 digits."""
    sign = 1 if orientation == "up" else -1
    with mp.workdps(120):
        rad = mp.mpf(theta.numerator) / theta.denominator * mp.pi / 180
        c, s = mp.cos(rad), mp.sin(rad)
        q = [mp.mpf(v.numerator) / v.denominator for v in qs]
        p = [q[0] - sign * c / s] + q[1:]
        w = mp.sqrt(1 + mp.fsum(v * v for v in p))
        lin_map = [-sign * c + s ** 3 * q[0]] + [s * v for v in q[1:]]
        return mp.sqrt(mp.fsum((a / w - b) ** 2 for a, b in zip(p, lin_map)))


KERNEL_ANGLES = [
    Fraction(1, 1000), Fraction(1), Fraction(91),
    Fraction(120), Fraction(179), Fraction(179999, 1000),
]
small_q = st.lists(
    st.fractions(min_value=Fraction(-1, 200), max_value=Fraction(1, 200), max_denominator=10**12),
    min_size=3,
    max_size=3,
)


@given(small_q, st.sampled_from(KERNEL_ANGLES), st.sampled_from(["up", "down"]))
@settings(max_examples=60, deadline=None)
def test_dyadic_remainder_encloses_the_mpmath_value(qs, theta, orientation):
    enclosure = lin._remainder_norm_interval(_kernel_q(qs), *_kernel_trig(theta, orientation)).to_interval()
    value = _mp_remainder_norm(qs, theta, orientation)
    with mp.workdps(120):
        lo = mp.mpf(enclosure.lo.numerator) / enclosure.lo.denominator
        hi = mp.mpf(enclosure.hi.numerator) / enclosure.hi.denominator
        assert lo <= value <= hi


@given(st.sampled_from(ANGLES), st.sampled_from(["up", "down"]))
@settings(max_examples=20, deadline=None)
def test_dyadic_remainder_encloses_zero_at_zero_gradient(theta, orientation):
    # At q = 0 the slanted graph is the reference plane, where G(0) = L(0).
    # |G - L|^2 is a few units of 2^-256 wide there, so its root is about 2^-128.
    r = lin._remainder_norm_interval(_kernel_q([Fraction(0)] * 3), *_kernel_trig(theta, orientation)).to_interval()
    assert r.lo == 0
    assert r.hi < Fraction(1, 10**35)


@given(
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=3, max_size=3),
    st.sampled_from(ANGLES),
)
@settings(max_examples=120, deadline=None)
def test_linearization_error_is_quadratically_small(vals, theta):
    # |G(q) - L(q)| <= 10 |q|^2 in the ball of radius 0.3 sqrt(3) (the certified
    # constant), up to the root of the grid's noise near q = 0 (see above).
    qs = [Fraction(v) * Fraction(3, 10) for v in vals]
    r = lin._remainder_norm_interval(_kernel_q(qs), *_kernel_trig(theta, "up")).to_interval()
    assert r.hi <= 10 * sum(c * c for c in qs) + Fraction(1, 10**35)


@pytest.mark.parametrize("orientation", ["up", "down"])
@pytest.mark.parametrize("theta", [Fraction(91), Fraction(179999, 1000)])
def test_dyadic_remainder_endpoints_stay_on_the_grid(theta, orientation):
    qs = [Fraction(3, 1000), Fraction(-1, 700), Fraction(1, 3000)]
    for r in (
        lin._remainder_norm_interval(_kernel_q(qs), *_kernel_trig(theta, orientation)).to_interval(),
        lin._remainder_norm_interval(_kernel_q([c / 2 for c in qs]), *_kernel_trig(theta, orientation)).to_interval(),
    ):
        assert (1 << 256) % r.lo.denominator == 0
        assert (1 << 256) % r.hi.denominator == 0
        # The trig and the grid, both at 2^-256, set the width (a 2^-128 grid gives ~1e-38).
        assert r.width < Fraction(1, 10**50)
    assert not hasattr(conecert, "_Dyadic")


_REFERENCE_BITS = 640


def _reference_remainder_norm(q, slant, lead, sin_d, sin_cubed):
    """|G(q) - L(q)| from the kernel's grid inputs on mpmath intervals at 640 bits, rounded out to the grid once.

    The reference for the fixed-point kernel, which rounds out at every step; it
    takes the place of the exact-rational kernel the fixed-point one replaced.
    """
    def grid_end(end, up):
        with mp.workprec(_REFERENCE_BITS):
            man, exp = mp.mpf(end).man_exp
        shift = exp + _DYADIC_BITS
        return man << shift if shift >= 0 else -(-man >> -shift) if up else man >> -shift

    prec, iv.prec = iv.prec, _REFERENCE_BITS
    try:
        q, (slant, lead, sin_d, sin_cubed) = (
            [iv.mpf([d.lo, d.hi]) / (1 << _DYADIC_BITS) for d in group] for group in (q, (slant, lead, sin_d, sin_cubed))
        )
        p = [q[0] - slant, *q[1:]]
        w = iv.sqrt(1 + sum(c ** 2 for c in p))
        lin_map = [lead + sin_cubed * q[0], *(sin_d * c for c in q[1:])]
        norm = iv.sqrt(sum((c / w - l) ** 2 for c, l in zip(p, lin_map)))
        return _Dyadic(grid_end(norm.a, False), grid_end(norm.b, True))
    finally:
        iv.prec = prec


@pytest.mark.parametrize("theta", ANGLES)
def test_dyadic_kernel_gives_the_reports_of_the_fraction_kernel(monkeypatch, theta):
    # The reference kernel was exact Fraction arithmetic; it is now mpmath's intervals at 640 bits.
    def reports():
        return [lin.remainder_ratio_certified(theta, directions=16, seed=seed) for seed in (7, 42)]

    dyadic = reports()
    monkeypatch.setattr(lin, "_remainder_norm_interval", _reference_remainder_norm)
    assert dyadic == reports()


@pytest.mark.parametrize("theta", ANGLES)
def test_reference_kernel_lies_inside_the_dyadic_one(theta):
    # Both enclose the same |G - L|; the reference rounds once, so it is the narrower one.
    qs = _kernel_q([Fraction(3, 1000), Fraction(-1, 700), Fraction(1, 3000)])
    trig = _kernel_trig(theta, "up")
    ref, got = _reference_remainder_norm(qs, *trig), lin._remainder_norm_interval(qs, *trig)
    assert got.lo <= ref.lo < ref.hi <= got.hi


# ---------------------------------------------------------------------------
# Weighted norm
# ---------------------------------------------------------------------------


@given(unit_dirs, st.sampled_from(ANGLES))
@settings(max_examples=120, deadline=None)
def test_norm_equivalence_sandwich(x, theta):
    # The certified factor is the one both slacks carry: sin |x|^2 - |x|_theta^2
    # is it times x_1^2, and |x|_theta^2 - sin^3 |x|^2 it times |x'|^2.
    factor, ok = lin.norm_equivalence_certified(theta)
    assert ok
    s = math.sin(math.radians(float(theta)))
    head_sq, tail_sq = x[0] ** 2, math.fsum(v * v for v in x[1:])
    theta_norm_sq = s**3 * head_sq + s * tail_sq
    assert s * (head_sq + tail_sq) - theta_norm_sq == pytest.approx(float(factor.mid) * head_sq, abs=1e-12)
    assert theta_norm_sq - s**3 * (head_sq + tail_sq) == pytest.approx(float(factor.mid) * tail_sq, abs=1e-12)


# Grid units of width the factor had as the exact product s (1 - s)(1 + s) of sin's enclosure s, rounded up.
_PRODUCT_FACTOR_WIDTH = {91: 68, 120: Fraction(199, 100), 150: 0, 179: Fraction(12416, 100), 90: 0}


@pytest.mark.parametrize("theta", ANGLES + [Fraction(90)])
def test_norm_equivalence_certified_factor(theta):
    factor, ok = lin.norm_equivalence_certified(theta)
    assert ok
    assert factor.lo >= 0
    if theta == 90:
        assert factor.lo == factor.hi == 0  # sin = 1: sandwich is equality
    if theta == 150:
        assert factor.lo == factor.hi == Fraction(3, 8)  # sin = 1/2
    # sin (1 - sin^2) = sin cos^2, enclosed (the enclosure is about 10^-75 wide, so the
    # reference takes 120 digits), and no wider than the exact product was.
    with mp.workdps(120):
        rad = mp.mpf(theta.numerator) / theta.denominator * mp.pi / 180
        value = mp.sin(rad) * mp.cos(rad) ** 2
        slack = mp.mpf(10) ** -110
        assert mp.mpf(factor.lo.numerator) / factor.lo.denominator - slack <= value
        assert value <= mp.mpf(factor.hi.numerator) / factor.hi.denominator + slack
    assert factor.width * (1 << _DYADIC_BITS) <= _PRODUCT_FACTOR_WIDTH[theta]
