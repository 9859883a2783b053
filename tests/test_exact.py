"""Tests for the exact rational/interval arithmetic layer."""

import math
import operator
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conecert import exact
from conecert.exact import (
    AngleDeg,
    DegenerateQuadraticError,
    Interval,
    Polynomial,
    QuadraticSurd,
    _window_gap,
    angle_range_from_threshold,
    compare,
    pi_interval,
    quadratic_real_roots,
    to_fraction,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=1000, max_denominator=10**6)
nonneg_rationals = st.fractions(min_value=0, max_value=1000, max_denominator=10**6)


# ---------------------------------------------------------------------------
# to_fraction
# ---------------------------------------------------------------------------


def test_to_fraction_accepts_int_fraction_string():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction(Fraction(6, 11)) == Fraction(6, 11)
    assert to_fraction("43/391") == Fraction(43, 391)
    assert to_fraction(" 1/1000 ") == Fraction(1, 1000)


def test_to_fraction_rejects_floats():
    with pytest.raises(TypeError):
        to_fraction(0.1)
    with pytest.raises(TypeError):
        to_fraction(None)


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


def test_interval_rejects_inverted_endpoints():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_interval_division_by_zero_containing_interval():
    num = Interval.point(Fraction(1))
    with pytest.raises(ZeroDivisionError):
        num / Interval(Fraction(-1), Fraction(1))


@given(rationals, rationals, rationals, rationals)
def test_interval_arithmetic_contains_pointwise_results(a, b, c, d):
    ia = Interval(min(a, b), max(a, b))
    ic = Interval(min(c, d), max(c, d))
    # Any representatives of the operand intervals must land inside the
    # result interval; the endpoints themselves are the extreme choices.
    for x in (ia.lo, ia.hi):
        for y in (ic.lo, ic.hi):
            assert (ia + ic).contains(x + y)
            assert (ia - ic).contains(x - y)
            assert (ia * ic).contains(x * y)
            assert ia.square().contains(x * x)


@given(rationals, rationals)
def test_interval_square_is_nonnegative(a, b):
    iv = Interval(min(a, b), max(a, b)).square()
    assert iv.lo >= 0


@given(nonneg_rationals)
@example(Fraction(2))
def test_interval_sqrt_of_a_point_is_sound(x):
    root = Interval.point(x).sqrt()
    assert 0 <= root.lo and root.lo * root.lo <= x <= root.hi * root.hi


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
@example(Fraction(1, 3))  # 1/9: 3 divides no power of 2, so no grid point is 1/3
@example(Fraction(3, 2))
@example(Fraction(0))
def test_interval_sqrt_is_exact_at_squares_of_rationals(r):
    root = Interval.point(r * r).sqrt()
    assert root.lo == root.hi == r


@given(
    st.one_of(
        st.fractions(min_value=0, max_value=10**90, max_denominator=10**30),
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**6).map(lambda r: r * r + Fraction(1, 10**40)),
    ),
)
@example(Fraction(2))
@example(Fraction(1, 3))
@example(Fraction(3, 4))
@settings(max_examples=300)
def test_interval_sqrt_ends_are_adjacent_grid_points_elsewhere(x):
    # In integers, with x = n/d and g = 2^_DYADIC_BITS: lo = L/g and hi = H/g, where
    # L^2 d < n g^2 < (L+1)^2 d (the root is irrational) and H = L + 1.
    # x is in lowest terms, so it is the square of a rational iff both parts are squares.
    assume(not all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator)))
    grid = 1 << exact._DYADIC_BITS
    root = Interval.point(x).sqrt()
    assert (root.lo * grid).denominator == 1 and (root.hi * grid).denominator == 1
    low, high = int(root.lo * grid), int(root.hi * grid)
    n2, d = x.numerator * grid * grid, x.denominator
    assert low * low * d < n2 < (low + 1) ** 2 * d
    assert high == low + 1


@given(nonneg_rationals, nonneg_rationals)
def test_interval_sqrt_soundness(a, b):
    iv = Interval(min(a, b), max(a, b))
    root = iv.sqrt()
    assert root.lo * root.lo <= iv.lo
    assert root.hi * root.hi >= iv.hi


def test_interval_hull_intersect_clamp():
    a = Interval(Fraction(0), Fraction(2))
    b = Interval(Fraction(1), Fraction(3))
    assert Interval.hull([a, b]) == Interval(Fraction(0), Fraction(3))
    assert a.clamp(Fraction(1), Fraction(10)) == Interval(Fraction(1), Fraction(2))
    assert a.overlaps(b)
    assert not a.overlaps(Interval(Fraction(5), Fraction(6)))


def test_pi_enclosure_is_tight_and_correct():
    pi = pi_interval()
    assert pi.lo > 0
    assert float(pi.lo) <= math.pi <= float(pi.hi)
    # Machin's formula on the 2^-256 grid leaves an enclosure far finer than
    # any tolerance used downstream.
    assert pi.width <= TRIG_WIDTH
    assert Fraction(355, 113) > pi.hi > pi.lo > Fraction(22, 7) - Fraction(1, 100)
    with mp.workdps(300):
        _assert_encloses(pi, +mp.pi)


# ---------------------------------------------------------------------------
# QuadraticSurd
# ---------------------------------------------------------------------------


@given(nonneg_rationals)
@settings(max_examples=50, deadline=None)
def test_surd_from_square_roundtrip(x):
    v = QuadraticSurd.from_square(x)
    assert v.square() == x
    assert isinstance(v.radicand, int)  # stays a plain int even with gmpy2 installed
    # The certified enclosure must bracket the true root exactly:
    # lo^2 <= x <= hi^2 (both endpoints are non-negative here).
    iv = v.to_interval()
    assert 0 <= iv.lo and iv.lo * iv.lo <= x <= iv.hi * iv.hi


def test_surd_known_forms():
    assert QuadraticSurd.from_square(Fraction(1, 6)) == QuadraticSurd(0, Fraction(1, 6), 6)
    assert QuadraticSurd.from_square(Fraction(4225, 7986)) == QuadraticSurd(0, Fraction(65, 726), 66)
    assert QuadraticSurd.from_square(Fraction(646328929, 717317652)) == QuadraticSurd(
        0, Fraction(25423, 917286), 1173
    )
    assert QuadraticSurd.from_square(Fraction(0)) == QuadraticSurd(0, Fraction(0), 0)
    assert QuadraticSurd.from_square(Fraction(49, 25)) == QuadraticSurd(Fraction(7, 5))


def test_surd_rejects_negative_square():
    with pytest.raises(ValueError):
        QuadraticSurd.from_square(Fraction(-1, 2))


def test_surd_normal_form_makes_equal_numbers_equal():
    # 2 sqrt(2) and sqrt(8) are one number, so one value and one hash.
    assert QuadraticSurd(0, 2, 2) == QuadraticSurd(0, 1, 8)
    assert hash(QuadraticSurd(0, 2, 2)) == hash(QuadraticSurd(0, 1, 8))
    assert QuadraticSurd(0, 1, 8).radicand == 2
    # 43 is past the trial primes, so sqrt(43^2 * 47) keeps its radicand, and
    # is still equal to 43 sqrt(47), with the same hash.
    wide, narrow = QuadraticSurd(0, 1, 43 * 43 * 47), QuadraticSurd(0, 43, 47)
    assert wide.radicand == 43 * 43 * 47 and wide == narrow and hash(wide) == hash(narrow)
    assert wide + QuadraticSurd(0, 1, 47) == QuadraticSurd(0, 44, 47)
    with pytest.raises(ValueError, match="mixed radicands"):  # 47 * 53 is not a square
        wide + QuadraticSurd(0, 1, 53)
    # The hash never converts to a double, which overflows past 1.8e308.
    assert hash(QuadraticSurd(10 ** 400, 1, 2)) == hash(Fraction(10 ** 400))
    # Perfect squares, radicand 1 and a zero coefficient fold into the rational part.
    assert QuadraticSurd(1, 3, 4) == QuadraticSurd(7)
    assert QuadraticSurd(1, 3, 1) == QuadraticSurd(4)
    assert QuadraticSurd(1, 0, 5) == QuadraticSurd(1)


def test_surd_order_across_fields_is_exact():
    sqrt2, sqrt3 = QuadraticSurd(0, 1, 2), QuadraticSurd(0, 1, 3)
    assert sqrt2 < sqrt3 and sqrt2 <= sqrt3 and sqrt3 > sqrt2 and sqrt3 >= sqrt2
    assert not sqrt2 > sqrt3
    assert Fraction(1) < sqrt2 < 2
    # c = sqrt(2/3) - 10^-100 to 110 digits: sqrt(2) - c sqrt(3) is about
    # 1.7e-100, far inside any 10^-80 enclosure of the two sides.
    scale = 10 ** 110
    c = Fraction(math.isqrt(2 * scale * scale // 3) - 10 ** 10, scale)
    c_sqrt3 = QuadraticSurd(0, c, 3)
    assert compare(sqrt2, c_sqrt3) == 1
    assert compare(c_sqrt3, sqrt2) == -1
    assert compare(c_sqrt3, c_sqrt3) == 0


small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)
surds = st.tuples(
    small_rationals, small_rationals, st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 12, 18, 20, 27, 50])
)


@given(surds, surds, st.booleans())
@example((Fraction(0), Fraction(-1), 2), (Fraction(0), Fraction(-1), 3), False)
@example((Fraction(-3), Fraction(1), 2), (Fraction(-1), Fraction(1), 3), False)
@example((Fraction(1), Fraction(1), 2), (Fraction(3), Fraction(-1), 3), False)
@example((Fraction(-1), Fraction(3, 2), 8), (Fraction(0), Fraction(0), 0), True)
@settings(max_examples=300, deadline=None)
def test_compare_matches_sympy_sign(u, v, equal):
    import sympy

    if equal:
        # The same number as u twice more: over 9 d, which construction
        # reduces to u's radicand, and over 43^2 d, which it keeps.
        r, c, d = u
        v = (r, c / 3, 9 * d)
        w = (r, c / 43, 43 * 43 * d)

    def symbolic(r, c, d):
        return sympy.Rational(r.numerator, r.denominator) + sympy.Rational(
            c.numerator, c.denominator
        ) * sympy.sqrt(d)

    expected = int(sympy.sign(symbolic(*u) - symbolic(*v)))
    assert compare(QuadraticSurd(*u), QuadraticSurd(*v)) == expected
    if equal:
        x, y = QuadraticSurd(*u), QuadraticSurd(*w)
        assert x == QuadraticSurd(*v) == y and hash(x) == hash(y)
        # Field arithmetic moves y onto x's radicand, which differs from y's
        # unless both are rational.
        for op in [operator.add, operator.mul] + [operator.truediv] * (y.sign() != 0):
            z = op(x, y)
            exact_z = symbolic(z.rational, z.coeff, z.radicand)
            assert sympy.expand(sympy.radsimp(exact_z - op(symbolic(*u), symbolic(*w)))) == 0


def test_surd_float_is_correctly_rounded():
    # The m = 4, q = 6/11 critical root -0.2146638974973679428...: the
    # float(r) + float(c) sqrt(d) formula gives ...797, one ulp off.
    root = quadratic_real_roots(Fraction(336, 11), Fraction(333, 11), Fraction(56, 11))[1]
    assert root == QuadraticSurd(Fraction(-111, 224), Fraction(25, 672), 57)
    assert float(root) == -0.21466389749736794
    assert float(QuadraticSurd(0, 1, 2)) == math.sqrt(2)
    assert float(QuadraticSurd(Fraction(7, 3))) == 7 / 3


@given(surds)
@settings(max_examples=200, deadline=None)
def test_surd_float_matches_a_400_bit_evaluation(u):
    import mpmath

    r, c, d = u
    with mpmath.workprec(400):
        expected = float(
            mpmath.mpf(r.numerator) / r.denominator
            + mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
        )
    assert float(QuadraticSurd(*u)) == expected


def _split_samples():
    import random

    rng = random.Random(20170101)
    # Random integers, prime squares, and semiprimes whose factors are all above 41.
    return [rng.randrange(1, 10 ** 18) for _ in range(300)] + [
        1, 43 * 43, 1000003 ** 2 * 6, 999999937 * 999999929, 2 ** 61 - 1, (2 ** 31 - 1) ** 2
    ]


def test_square_split_takes_out_small_prime_squares_and_whole_squares():
    # Besides the samples: the prime 2^89 - 1, 2^89 + 1 = 3 * 179 * 62020897 *
    # 18584774046020617 and a 124-bit semiprime. None is factored, so each
    # splits at once (all three are too slow for factorint).
    unfactored = [2 ** 89 - 1, 2 ** 89 + 1, (2 ** 61 - 1) * (2 ** 63 - 25)]
    for n in _split_samples() + unfactored:
        s, f = exact._square_split(n)
        assert n == s * s * f, n
        assert (f == 1) == (math.isqrt(n) ** 2 == n), n
        assert all(f % (p * p) for p in exact._TRIAL_PRIMES), n


def test_square_split_agrees_with_factorint():
    # Where every repeated prime is a trial prime, f is the squarefree part
    # and s the product of the halved powers.
    sympy = pytest.importorskip("sympy")
    checked = 0
    for n in _split_samples():
        factors = {int(p): mult for p, mult in sympy.factorint(n).items()}
        if all(p <= 41 for p, mult in factors.items() if mult > 1):
            s = math.prod(p ** (mult // 2) for p, mult in factors.items())
            f = math.prod(p for p, mult in factors.items() if mult % 2)
            assert exact._square_split(n) == (s, f), n
            checked += 1
    assert checked > 200


def test_square_split_refuses_an_unproven_prime():
    # 2^89 - 1 is prime, past 3.3e24, where Miller-Rabin on the bases up to 41
    # stops being a proof. The split tests no primality, so neither it nor a
    # surd over it refuses: the radicand is kept whole and the value is exact.
    p = 2 ** 89 - 1
    assert exact._square_split(p) == (1, p)
    root = QuadraticSurd(0, 1, p)
    assert root.radicand == p and root * root == QuadraticSurd(p)
    assert QuadraticSurd(0, 3, 4 * p) == QuadraticSurd(0, 6, p)
    # 2^89 + 1 = 3 * 179 * 62020897 * 18584774046020617 is squarefree.
    assert exact._square_split(2 ** 89 + 1) == (1, 2 ** 89 + 1)


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


def test_polynomial_arithmetic_and_evaluation():
    x, y = Polynomial.variables(2)
    p = (x + y) ** 2 - x * x - 2 * x * y
    assert p == y ** 2 and p != x
    assert x - x == 0 and not (x - x).terms
    assert (3 - x)(Fraction(1, 2), 7) == Fraction(5, 2)
    assert (Fraction(1, 3) * x * y ** 2)(3, 2) == 4
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(ValueError):
        x + Polynomial.variables(3)[0]


def test_polynomial_reduce_square():
    c, s = Polynomial.variables(2)
    # (c + s)^2 = c^2 + 2cs + s^2 becomes 1 + 2cs once s^2 = 1 - c^2.
    assert ((c + s) ** 2).reduce_square(1, 1 - c ** 2) == 1 + 2 * c * s
    assert (s ** 3).reduce_square(1, 1 - c ** 2) == s - c ** 2 * s


# ---------------------------------------------------------------------------
# AngleDeg
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "deg,cos_exact",
    [
        (0, Fraction(1)),
        (60, Fraction(1, 2)),
        (90, Fraction(0)),
        (120, Fraction(-1, 2)),
        (180, Fraction(-1)),
    ],
)
def test_special_angles_are_exact(deg, cos_exact):
    theta = AngleDeg.from_degrees(deg)
    c = theta.cos()
    assert c.lo == c.hi == cos_exact
    s2 = theta.sin_squared()
    assert s2.lo == s2.hi == 1 - cos_exact * cos_exact


def test_generic_angle_enclosures_are_sound():
    theta = AngleDeg.from_degrees(Fraction(100))
    c, s = theta.cos(), theta.sin()
    # The enclosures are far tighter than a float ulp, so compare midpoints
    # to the float library within float accuracy.
    assert abs(float(c) - math.cos(math.radians(100))) < 1e-15
    assert abs(float(s) - math.sin(math.radians(100))) < 1e-15
    assert c.width < Fraction(1, 10**40)
    assert s.width < Fraction(1, 10**40)


@given(st.fractions(min_value=Fraction(1), max_value=Fraction(179), max_denominator=720))
@settings(max_examples=40, deadline=None)
def test_supplement_mirrors_cosine(deg):
    theta = AngleDeg.from_degrees(deg)
    supp = theta.supplement()
    assert supp.value.lo == 180 - deg
    # cos(180 - x) = -cos(x): the enclosures must mirror within rounding.
    mirrored = theta.cos() * Interval.point(Fraction(-1))
    assert supp.cos().overlaps(mirrored)
    assert supp.sin().overlaps(theta.sin())


# The fixed-point trig kernel, against mpmath at 300 digits.  Its enclosures
# sum dozens of series terms, each rounded outward by a unit of 2^-256; the
# widths measured stay below 128 units (pi: 76).
TRIG_WIDTH = Fraction(256, 1 << exact._DYADIC_BITS)


def _mpf(x):
    return mp.mpf(x.numerator) / x.denominator


def _assert_encloses(iv, value):
    # The reference is good to about 10^-300 (cos 90 degrees comes out as 6e-302).
    slack = mp.mpf(10) ** -290
    assert _mpf(iv.lo) - slack <= value <= _mpf(iv.hi) + slack


@given(st.fractions(min_value=0, max_value=180, max_denominator=10**6))
@example(Fraction(1, 10**6))
@example(Fraction(91))
@example(Fraction(179))
@example(Fraction(17999999, 10**5))
@settings(max_examples=150, deadline=None)
def test_point_angle_trig_contains_the_300_digit_values(deg):
    theta = AngleDeg.from_degrees(deg)
    c, s = theta.cos(), theta.sin()
    with mp.workdps(300):
        rad = _mpf(deg) * mp.pi / 180
        _assert_encloses(c, mp.cos(rad))
        _assert_encloses(s, mp.sin(rad))
    assert c.width <= TRIG_WIDTH and s.width <= TRIG_WIDTH


# The nine angles in [0, 180] degrees with rational cos^2 (Niven's theorem),
# and where cos and sin are rational there.
SPECIAL_ANGLES = (0, 30, 45, 60, 90, 120, 135, 150, 180)
RATIONAL_COS = {0, 60, 90, 120, 180}
RATIONAL_SIN = {0, 30, 90, 150, 180}


def _check_special_angle(deg):
    theta = AngleDeg.from_degrees(deg)
    unit = Fraction(1, 1 << exact._DYADIC_BITS)
    with mp.workdps(60):
        rad = mp.mpf(deg) * mp.pi / 180
        values = [
            (theta.cos(), mp.cos(rad), deg in RATIONAL_COS),
            (theta.sin(), mp.sin(rad), deg in RATIONAL_SIN),
            (theta.sin_squared(), mp.sin(rad) ** 2, True),
        ]
        slack = mp.mpf(10) ** -55
        for iv, value, rational in values:
            assert _mpf(iv.lo) - slack <= value <= _mpf(iv.hi) + slack
            assert iv.width == 0 if rational else 0 < iv.width <= unit


@pytest.mark.parametrize("deg", SPECIAL_ANGLES)
def test_special_angle_trig_is_exact_where_rational_and_one_grid_unit_elsewhere(deg):
    _check_special_angle(deg)


def test_special_angle_check_catches_a_wrong_table_entry(monkeypatch):
    monkeypatch.setitem(exact._SPECIAL_COS_SQUARED, 45, Fraction(1, 4))
    with pytest.raises(AssertionError):
        _check_special_angle(45)


@pytest.mark.parametrize(
    "lo,hi",
    [(1, 179), (0, 90), (89, 91), (Fraction(1, 3), Fraction(270001, 3000)), (45, Fraction(1351, 10)), (0, 180)],
    ids=["1-179", "0-90", "89-91", "third-90.0003", "45-135.1", "0-180"],
)
def test_box_trig_is_the_hull_of_its_end_values(lo, hi):
    # cos falls on [0, 180] degrees and sin peaks at 90: the true ranges,
    # which the enclosures must contain and exceed by at most TRIG_WIDTH.
    box = AngleDeg(Interval(Fraction(lo), Fraction(hi)))
    with mp.workdps(300):
        ends = [_mpf(Fraction(d)) * mp.pi / 180 for d in (lo, hi)]
        sin_ends = [mp.sin(x) for x in ends]
        ranges = [
            (box.cos(), mp.cos(ends[1]), mp.cos(ends[0])),
            (box.sin(), min(sin_ends), 1 if lo <= 90 <= hi else max(sin_ends)),
        ]
        for iv, low, high in ranges:
            assert _mpf(iv.lo) <= low and high <= _mpf(iv.hi)
            assert low - _mpf(iv.lo) <= _mpf(TRIG_WIDTH) and _mpf(iv.hi) - high <= _mpf(TRIG_WIDTH)


@pytest.mark.parametrize(
    "radians",
    [
        Interval(Fraction(-1, 10**80), Fraction(1)),
        Interval(Fraction(3), pi_interval().hi + Fraction(1, 1 << 300)),
        Interval(Fraction(4), Fraction(5)),
    ],
    ids=["below-zero", "past-pi", "outside"],
)
def test_trig_refuses_radians_outside_zero_to_pi(radians):
    with pytest.raises(ValueError, match="outside"):
        exact.cos_interval(radians)
    with pytest.raises(ValueError, match="outside"):
        exact.sin_interval(radians)


def test_trig_accepts_the_whole_range_angles_produce():
    everything = AngleDeg(Interval(Fraction(0), Fraction(180))).radians()
    assert everything == Interval(Fraction(0), pi_interval().hi)
    assert exact.cos_interval(everything) == Interval(Fraction(-1), Fraction(1))
    assert exact.sin_interval(everything).hi == 1


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**12),
    st.fractions(min_value=0, max_value=1000, max_denominator=10**12),
    st.integers(min_value=1, max_value=10**9),
)
@settings(max_examples=150, deadline=None)
def test_dyadic_division_by_a_positive_integer_rounds_outward_within_a_unit(lo, width, d):
    x = exact._Dyadic.enclose(Interval(lo, lo + width))
    got, want = (x / d).to_interval(), x.to_interval() / d
    unit = Fraction(1, 1 << exact._DYADIC_BITS)
    assert want.lo - unit < got.lo <= want.lo and want.hi <= got.hi < want.hi + unit


# ---------------------------------------------------------------------------
# Quadratic roots
# ---------------------------------------------------------------------------


@given(rationals, rationals, st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000))
@settings(max_examples=60, deadline=None)
# The discriminant's radicand is the square of the prime 2875948899419.
@example(r1=Fraction(-5751541, 27944), r2=Fraction(6590, 499999), lead=Fraction(1, 100))
def test_quadratic_roots_from_constructed_factors(r1, r2, lead):
    # a (x - r1)(x - r2) has exactly the roots {r1, r2}.
    a = lead
    b = -lead * (r1 + r2)
    c = lead * r1 * r2
    roots = quadratic_real_roots(a, b, c)
    expected = sorted({r1, r2})
    assert len(roots) == len(expected)
    for root, want in zip(roots, expected):
        assert root.is_rational
        assert root.to_interval().lo == root.to_interval().hi == want


def test_quadratic_irrational_roots_enclosed():
    roots = quadratic_real_roots(1, 0, -2)  # x^2 = 2
    assert len(roots) == 2
    lo, hi = roots
    assert not lo.is_rational and not hi.is_rational
    hi_iv, lo_iv = hi.to_interval(), lo.to_interval()
    assert float(hi_iv.lo) <= math.sqrt(2) <= float(hi_iv.hi)
    assert float(lo_iv.lo) <= -math.sqrt(2) <= float(lo_iv.hi)
    assert hi.to_interval().width <= Fraction(1, 10**12)
    assert lo.to_interval().hi < hi.to_interval().lo  # returned in ascending order


def test_quadratic_roots_ascending_for_negative_leading_coefficient():
    lo, hi = quadratic_real_roots(-1, 0, 2)  # -x^2 + 2 = 0
    assert lo == QuadraticSurd(0, -1, 2) and hi == QuadraticSurd(0, 1, 2)
    assert lo < hi


def test_quadratic_no_real_roots_and_degenerate():
    assert quadratic_real_roots(1, 0, 1) == []
    double = quadratic_real_roots(1, -2, 1)
    assert len(double) == 1 and double[0].is_rational and double[0].to_interval().lo == 1
    with pytest.raises(DegenerateQuadraticError):
        quadratic_real_roots(0, 1, 1)


# ---------------------------------------------------------------------------
# Threshold inversion
# ---------------------------------------------------------------------------


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**6),
    st.sampled_from([Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6)]),
)
@settings(max_examples=40, deadline=None)
@example(t=Fraction(2), tol=Fraction(1, 10))  # a tie at the grid point 45
@example(t=Fraction(2), tol=Fraction(7, 10))  # 45 is no grid point: strict signs around it
def test_window_edge_is_a_grid_cell_around_the_root(t, tol):
    theta_min, _ = angle_range_from_threshold(t, tol)
    lo, hi = theta_min.value.lo, theta_min.value.hi
    assert (lo / tol).denominator == (hi / tol).denominator == 1
    gap_lo = _window_gap(AngleDeg.from_degrees(lo), t)
    gap_hi = _window_gap(AngleDeg.from_degrees(hi), t)
    if theta_min.is_point:  # cos^2 = t sin^4 exactly at a grid point
        assert gap_lo.lo == gap_lo.hi == 0
    else:
        # cos^2/sin^4 falls strictly on (0, 90), so the root lies strictly inside.
        assert hi - lo == tol
        assert gap_lo.lo > 0 and gap_hi.hi < 0


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**4),
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**4),
)
@settings(max_examples=25, deadline=None)
def test_window_edge_is_monotone_in_t(t1, t2):
    # A larger threshold gives a window edge that is not larger.
    small, large = sorted((t1, t2))
    edge_small = angle_range_from_threshold(small)[0].value
    edge_large = angle_range_from_threshold(large)[0].value
    assert edge_large.lo <= edge_small.lo and edge_large.hi <= edge_small.hi
    half, one, two = (angle_range_from_threshold(t)[0].value for t in (Fraction(1, 2), 1, 2))
    assert two.hi <= one.lo and one.hi <= half.lo


@pytest.mark.parametrize("tol", [Fraction(1, 1000), Fraction(1, 7), Fraction(15)])
@pytest.mark.parametrize("t,deg", [(Fraction(4, 9), 60), (Fraction(2), 45), (Fraction(12), 30)])
def test_exact_ties_give_point_windows(t, deg, tol):
    # cos^2/sin^4 is 4/9, 2 and 12 at 60, 45 and 30 degrees, all grid points here.
    theta_min, theta_max = angle_range_from_threshold(t, tol)
    assert theta_min.value == Interval.point(deg)
    assert theta_max.value == Interval.point(180 - deg)


@pytest.mark.parametrize("t", [Fraction(18928, 18605), Fraction(264924, 2713295),
                               Fraction(12002306544, 1858195670875)])
def test_fine_window_contains_the_80_digit_root(t):
    # On a 10^-12 degree grid the cell must still hold the true edge,
    # acos(sqrt(u)) for the root u of t (1 - u)^2 = u, here to 80 digits.
    tol = Fraction(1, 10**12)
    theta_min, theta_max = angle_range_from_threshold(t, tol)
    assert theta_min.value.width == tol
    with mp.workdps(80):
        T = mp.mpf(t.numerator) / t.denominator
        u = (2 * T + 1 - mp.sqrt(4 * T + 1)) / (2 * T)
        root = mp.degrees(mp.acos(mp.sqrt(u)))
        lo, hi = (mp.mpf(x.numerator) / x.denominator for x in (theta_min.value.lo, theta_min.value.hi))
        assert lo < root < hi
        lo, hi = (mp.mpf(x.numerator) / x.denominator for x in (theta_max.value.lo, theta_max.value.hi))
        assert lo < 180 - root < hi


@given(st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**4))
@settings(max_examples=25, deadline=None)
def test_angle_window_properties(t):
    tol = Fraction(1, 1000)
    theta_min, theta_max = angle_range_from_threshold(t, tol)
    # Mirror symmetry about 90 degrees, by construction.
    assert theta_min.value.lo + theta_max.value.hi == 180
    assert theta_min.value.hi + theta_max.value.lo == 180
    assert theta_min.value.width <= tol
    assert 0 < theta_min.value.lo and theta_min.value.hi < 90
    # The window edge satisfies the defining equation: the enclosure of
    # cos^2 - t sin^4 over the edge interval must contain 0.
    edge = AngleDeg(theta_min.value)
    assert _window_gap(edge, t).contains(0)


def test_window_gap_special_values():
    # Exact at every rational angle with rational cos^2 (Niven's theorem):
    # cos^2/sin^4 is 0, 4/9, 12 and 2 there, so the gap vanishes at that threshold.
    for deg, cos2, value in (
        (90, 0, 0), (60, Fraction(1, 4), Fraction(4, 9)), (30, Fraction(3, 4), 12), (45, Fraction(1, 2), 2),
        (120, Fraction(1, 4), Fraction(4, 9)), (135, Fraction(1, 2), 2), (150, Fraction(3, 4), 12),
    ):
        angle = AngleDeg.from_degrees(deg)
        assert _window_gap(angle, value) == Interval.point(0)
        for t in (Fraction(1, 3), Fraction(7)):
            assert _window_gap(angle, t) == Interval.point(cos2 - t * (1 - cos2) ** 2)
    # No pole: at 0 and 180 degrees sin^2 = 0, so the gap is cos^2 = 1 at any threshold.
    for deg in (0, 180):
        for t in (Fraction(1, 3), Fraction(7)):
            assert _window_gap(AngleDeg.from_degrees(deg), t) == Interval.point(1)


@given(st.fractions(min_value=1, max_value=89, max_denominator=360))
@settings(max_examples=30, deadline=None)
def test_window_gap_supplement_symmetry(deg):
    a = _window_gap(AngleDeg.from_degrees(deg), Fraction(2))
    b = _window_gap(AngleDeg.from_degrees(180 - deg), Fraction(2))
    assert a.overlaps(b)
