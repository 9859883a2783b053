"""Tests for the slanted-graph Gauss map, its linearization, and the metric."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
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
    for d in _sampling.unit_gaussian_chunks(np.random.default_rng(42), directions, lin._NDIM):
        for row in d:
            qs = [Fraction(float(c)) * lin._SCALE for c in row]
            with mp.workdps(120):
                ratios.append(_mp_remainder_norm(qs, theta, "up") / mp.fsum((mp.mpf(c.numerator) / c.denominator) ** 2 for c in qs))
    largest = float(max(ratios))
    assert 0 < largest < lin._BOUND_CONSTANT
    for factor, holds in ((1 - 1e-9, False), (1 + 1e-9, True)):
        monkeypatch.setattr(lin, "_BOUND_CONSTANT", Fraction(largest * factor))
        assert lin.remainder_ratio_certified(theta, directions, seed=42).bound_certified is holds, factor


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


def _assert_tight_enclosure(got, exact, ulps=2):
    assert got.lo <= exact.lo and exact.hi <= got.hi
    assert exact.lo - got.lo <= ulps * ULP and got.hi - exact.hi <= ulps * ULP


@given(fraction_intervals())
@settings(max_examples=150, deadline=None)
def test_dyadic_encloses_its_fraction_interval_within_one_unit(x):
    _assert_tight_enclosure(_Dyadic.enclose(x).to_interval(), x, ulps=1)


@given(fraction_intervals(), fraction_intervals())
@settings(max_examples=200, deadline=None)
def test_dyadic_operations_enclose_the_exact_results(x, y):
    # The operands are rounded to the grid first; each operation then rounds
    # outward by less than one unit of 2^-256 beyond the exact result.
    dx, dy = _Dyadic.enclose(x), _Dyadic.enclose(y)
    ex, ey = dx.to_interval(), dy.to_interval()
    _assert_tight_enclosure((dx + dy).to_interval(), ex + ey)
    _assert_tight_enclosure((dx - dy).to_interval(), ex - ey)
    _assert_tight_enclosure((-dx).to_interval(), -ex)
    _assert_tight_enclosure((dx * dy).to_interval(), ex * ey)
    _assert_tight_enclosure(dx.square().to_interval(), ex.square())
    if ey.lo <= 0 <= ey.hi:
        with pytest.raises(ZeroDivisionError):
            dx / dy
    else:
        _assert_tight_enclosure((dx / dy).to_interval(), ex / ey)
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
    x = _Dyadic.enclose(Interval(Fraction(-3), Fraction(5)))
    y = _Dyadic.enclose(Interval(Fraction(-4), Fraction(-2)))
    assert (x / y).to_interval() == Interval(Fraction(-5, 2), Fraction(3, 2))


def _exact_trig(theta):
    """cot, cos, sin and sin^3 enclosures from the AngleDeg trig on the 2^-256 grid."""
    angle = AngleDeg.from_degrees(theta)
    cos_iv, sin_iv = angle.cos(), angle.sin()
    return cos_iv / sin_iv, cos_iv, sin_iv, sin_iv * sin_iv * sin_iv


def _kernel_trig(theta, orientation):
    """slant, lead, sin and sin^3 for the kernel, "up" as remainder_ratio_certified hands them."""
    sign = 1 if orientation == "up" else -1
    cot_iv, cos_iv, sin_iv, sin_cubed = _exact_trig(theta)
    return tuple(_Dyadic.enclose(iv) for iv in (cot_iv * sign, cos_iv * (-sign), sin_iv, sin_cubed))


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
    enclosure = lin._remainder_norm_interval(qs, *_kernel_trig(theta, orientation))
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
    r = lin._remainder_norm_interval([Fraction(0)] * 3, *_kernel_trig(theta, orientation))
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
    r = lin._remainder_norm_interval(qs, *_kernel_trig(theta, "up"))
    assert r.hi <= 10 * sum(c * c for c in qs) + Fraction(1, 10**35)


@pytest.mark.parametrize("orientation", ["up", "down"])
@pytest.mark.parametrize("theta", [Fraction(91), Fraction(179999, 1000)])
def test_dyadic_remainder_endpoints_stay_on_the_grid(theta, orientation):
    qs = [Fraction(3, 1000), Fraction(-1, 700), Fraction(1, 3000)]
    for r in (
        lin._remainder_norm_interval(qs, *_kernel_trig(theta, orientation)),
        lin._remainder_norm_interval([c / 2 for c in qs], *_kernel_trig(theta, orientation)),
    ):
        assert (1 << 256) % r.lo.denominator == 0
        assert (1 << 256) % r.hi.denominator == 0
        # The trig and the grid, both at 2^-256, set the width (a 2^-128 grid gives ~1e-38).
        assert r.width < Fraction(1, 10**50)
    assert not hasattr(conecert, "_Dyadic")


def _fraction_remainder_norm(qs, sign, cot_iv, cos_iv, sin_iv, sin_cubed):
    """The exact-rational kernel the fixed-point one replaced, kept as a reference."""
    p = [Interval.point(c) for c in qs]
    p[0] = p[0] - cot_iv * sign
    w_sq = Interval.point(Fraction(1))
    for comp in p:
        w_sq = w_sq + comp.square()
    w = w_sq.sqrt()
    lin_map = [cos_iv * (-sign) + sin_cubed * Interval.point(qs[0])]
    lin_map.extend(sin_iv * Interval.point(c) for c in qs[1:])
    diff_sq = Interval.point(Fraction(0))
    for comp, l in zip(p, lin_map):
        diff_sq = diff_sq + (comp / w - l).square()
    return diff_sq.sqrt()


@pytest.mark.parametrize("theta", ANGLES)
def test_dyadic_kernel_gives_the_reports_of_the_fraction_kernel(monkeypatch, theta):
    def reports():
        return [lin.remainder_ratio_certified(theta, directions=16, seed=seed) for seed in (7, 42)]

    dyadic = reports()
    trig = _exact_trig(theta)
    monkeypatch.setattr(
        lin, "_remainder_norm_interval", lambda qs, *_dyadic_trig: _fraction_remainder_norm(qs, 1, *trig)
    )
    assert dyadic == reports()


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


@pytest.mark.parametrize("theta", ANGLES + [Fraction(90)])
def test_norm_equivalence_certified_factor(theta):
    factor, ok = lin.norm_equivalence_certified(theta)
    assert ok
    assert factor.lo >= 0
    if theta == 90:
        assert factor.lo == factor.hi == 0  # sin = 1: sandwich is equality
