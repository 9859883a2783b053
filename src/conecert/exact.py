"""Exact rational arithmetic, quadratic surds and rigorous interval enclosures.

This module is the numerical foundation of the package.  There is one
exact type per kind of number: a rational is a :class:`fractions.Fraction`,
a number in a quadratic field an exact :class:`QuadraticSurd` ``a +
b*sqrt(d)``, and any other real an enclosure on ``_Dyadic``, the
fixed-point interval type whose integer ends are on one grid, 2^-256, and
are rounded outward at every step: floor for lower ends, ceiling for upper
ones.  pi and arctan come from one alternating series on it, cos and sin
from Taylor series widened by the Lagrange remainder bound, and a square
root is the floor or ceiling of the root on the grid.  :class:`Interval`
has no arithmetic: it is the record of two rational ends that an enclosure
becomes (``_Dyadic.to_interval``, :meth:`QuadraticSurd.to_interval`) to be
compared with rationals or printed in a report.  No step of the pipeline
silently rounds toward the wrong side.

:class:`QuadraticSurd` is the one exact type for numbers in a quadratic
field Q(sqrt d).  Its radicand is not made squarefree, which would take
factoring: only the squares of the primes up to 41 leave it, and all of it
when it is a perfect square, so a surd is rational exactly when its value
is, and ``==`` compares values.  :func:`compare` orders any two surds (and
rationals) exactly, also when their fields differ, by isolating the radicals
and squaring; no comparison falls back to intervals.  Roots of rational
quadratics (:func:`quadratic_real_roots`) are returned as such surds, and
enclosures come from :meth:`QuadraticSurd.to_interval`, whose ends stay
exact rationals; ``float`` of a surd is correctly rounded.

:class:`Polynomial` is the one exact polynomial type: a sparse map from
exponent tuples to rational coefficients.  Identities are proved by
expanding both sides to the same polynomial.

Angles are carried in degrees through :class:`AngleDeg`, whose cos, sin and
sin^2 are ``_Dyadic`` enclosures.  At the nine special angles, those with
rational cos^2 (0, 30, 45, 60, 90, 120, 135, 150 and 180 degrees), cos and
sin are square roots taken from one table of cos^2, whose entries are all
on the grid, and sin^2 is exact; other angles get a Taylor enclosure.  The
window edge where cos^2/sin^4 meets a threshold T
(:func:`angle_range_from_threshold`) is a grid cell read off one arctan
enclosure of the edge in closed form, exact only at T = 4/9, 2 and 12,
where the edge is a rational angle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from ._record import Record, _set

__all__ = [
    "Rational",
    "RationalLike",
    "Interval",
    "QuadraticSurd",
    "AngleDeg",
    "DegenerateQuadraticError",
    "to_fraction",
    "compare",
    "quadratic_real_roots",
    "Polynomial",
    "angle_range_from_threshold",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]

# The one grid of rounded results: a _Dyadic end k stands for k / 2^_DYADIC_BITS.
_DYADIC_BITS = 256
_DYADIC_ONE = 1 << _DYADIC_BITS

# The angles (in degrees) in [0, 180] whose squared cosine is rational, and
# that square: cos(2x) = 2 cos^2(x) - 1, and by Niven's theorem cos(2x) is
# rational at a rational angle only where it is 0, +-1/2 or +-1.
_SPECIAL_COS_SQUARED = {
    0: Fraction(1), 30: Fraction(3, 4), 45: Fraction(1, 2), 60: Fraction(1, 4), 90: Fraction(0),
    120: Fraction(1, 4), 135: Fraction(1, 2), 150: Fraction(3, 4), 180: Fraction(1),
}


class DegenerateQuadraticError(ValueError):
    """Raised when a quadratic solver receives a zero leading coefficient."""


def to_fraction(value: RationalLike) -> Fraction:
    """Convert an int, Fraction, or ``"num/den"`` string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _isqrt_rounded(num: int, den: int, up: bool) -> int:
    """floor(sqrt(y)), or its ceiling if ``up``, for y = num / den >= 0 with den > 0:
    isqrt(floor(y)), or the least m with m^2 >= ceil(y), since m^2 is an integer."""
    y = -(-num // den) if up else num // den
    root = math.isqrt(y)
    return root + 1 if up and root * root < y else root


class Interval(Record):
    """Closed interval [lo, hi] with exact rational ends, as reports print an enclosure.

    It has no arithmetic: enclosures are computed on ``_Dyadic`` (or are
    exact, as a :class:`QuadraticSurd` is) and converted to an Interval once,
    to be compared with rationals or printed.  The represented real number
    is guaranteed to lie inside ``[lo, hi]``.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
            lo, hi = to_fraction(lo), to_fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @classmethod
    def point(cls, x: RationalLike) -> "Interval":
        x = to_fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.mid)

    def __str__(self) -> str:
        return f"[{float(self.lo):.12g}, {float(self.hi):.12g}]"


# ---------------------------------------------------------------------------
# Exact numbers in quadratic fields, and their order.
# ---------------------------------------------------------------------------


# Squares of these primes are divided out of a radicand; finding its
# squarefree part would need its factorisation, which no comparison needs.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _square_split(n: int) -> tuple[int, int]:
    """(s, f) with n == s * s * f for an integer n >= 1, and f == 1 exactly when n is a square.

    No p^2 with p <= 41 divides f, and f moves into s when it is a perfect
    square; f need not be squarefree (a square of a larger prime may stay).
    """
    s = 1
    for p in _TRIAL_PRIMES:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
    root = math.isqrt(n)
    return (s * root, 1) if root * root == n else (s, n)


class QuadraticSurd(Record):
    """Exact real number ``rational + coeff * sqrt(radicand)``.

    Either ``coeff != 0`` and ``radicand`` is an integer > 1 that is not a
    perfect square, or the number is rational and ``coeff == radicand == 0``.
    Construction moves the squares of the primes up to 41, and a radicand
    that is a perfect square, into ``coeff`` (``QuadraticSurd(0, 1, 8)`` is
    ``2*sqrt(2)``).  The radicand is not made squarefree, which would take
    factoring, so one number may have two representations (``sqrt(43^2 *
    47)`` and ``43*sqrt(47)``): ``==`` compares values with :func:`compare`,
    and ``hash`` hashes the rational part, which equal numbers share
    because 1 and an irrational sqrt(d) are linearly independent over Q.

    Field arithmetic (+, -, *, /, **) takes operands over one quadratic
    field: rationals, and radicands whose product is a perfect square; the
    order (<, <=, >, >=, :func:`compare`) is exact across fields.
    """

    __slots__ = ("rational", "coeff", "radicand")

    def __init__(
        self, rational: RationalLike, coeff: RationalLike = Fraction(0), radicand: int = 0
    ) -> None:
        rational, coeff = to_fraction(rational), to_fraction(coeff)
        if not isinstance(radicand, int) or radicand < 0:
            raise ValueError(f"radicand must be a non-negative integer, got {radicand!r}")
        if coeff != 0 and radicand > 1:
            square, radicand = _square_split(radicand)
            coeff *= square
        if coeff == 0 or radicand <= 1:  # sqrt(0) = 0, sqrt(1) = 1
            rational, coeff, radicand = rational + coeff * radicand, Fraction(0), 0
        _set(self, "rational", rational)
        _set(self, "coeff", coeff)
        _set(self, "radicand", radicand)

    @classmethod
    def _in_field(cls, rational: Fraction, coeff: Fraction, radicand: int) -> "QuadraticSurd":
        """Field arithmetic result or a rational; ``radicand`` is an operand's, so skip the square split."""
        if coeff == 0:
            coeff, radicand = Fraction(0), 0
        value = object.__new__(cls)
        _set(value, "rational", rational)
        _set(value, "coeff", coeff)
        _set(value, "radicand", radicand)
        return value

    @classmethod
    def from_square(cls, square: RationalLike) -> "QuadraticSurd":
        """The non-negative v with v^2 == square."""
        square = to_fraction(square)
        if square < 0:
            raise ValueError("cannot take a real square root of a negative rational")
        if square == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p q) / q, with p and q split apart so that a square
        # p or q leaves the radicand whatever its prime factors.
        (s_num, f_num), (s_den, f_den) = _square_split(square.numerator), _square_split(square.denominator)
        return cls(0, Fraction(s_num, s_den * f_den), f_num * f_den)

    @staticmethod
    def _coerce(value) -> "QuadraticSurd":
        if isinstance(value, QuadraticSurd):
            return value
        return QuadraticSurd._in_field(to_fraction(value), Fraction(0), 0)

    @property
    def is_rational(self) -> bool:
        return self.coeff == 0

    def _common_radicand(self, other: "QuadraticSurd") -> tuple["QuadraticSurd", int]:
        """``other`` written over the radicand d of their common field, and d.

        When d1 d2 == s^2, c sqrt(d2) == (c s / d1) sqrt(d1) moves ``other``
        onto this number's radicand d1.
        """
        d1, d2 = self.radicand, other.radicand
        if self.is_rational or other.is_rational or d1 == d2:
            return other, max(d1, d2)  # a rational has radicand 0
        s = math.isqrt(d1 * d2)
        if s * s == d1 * d2:
            return self._in_field(other.rational, other.coeff * s / d1, d1), d1
        raise ValueError(f"mixed radicands {d1} and {d2}: field arithmetic needs one quadratic field")

    # -- field operations ------------------------------------------------

    def __add__(self, other) -> "QuadraticSurd":
        o, d = self._common_radicand(self._coerce(other))
        return self._in_field(self.rational + o.rational, self.coeff + o.coeff, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        return self._in_field(-self.rational, -self.coeff, self.radicand)

    def __sub__(self, other) -> "QuadraticSurd":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QuadraticSurd":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "QuadraticSurd":
        o, d = self._common_radicand(self._coerce(other))
        rational = self.rational * o.rational + self.coeff * o.coeff * d
        coeff = self.rational * o.coeff + self.coeff * o.rational
        return self._in_field(rational, coeff, d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadraticSurd":
        o, d = self._common_radicand(self._coerce(other))
        norm = o.rational * o.rational - o.coeff * o.coeff * d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        product = self * self._in_field(o.rational, -o.coeff, d)
        return self._in_field(product.rational / norm, product.coeff / norm, d)

    def __rtruediv__(self, other) -> "QuadraticSurd":
        return self._coerce(other) / self

    def square(self) -> Union[Fraction, "QuadraticSurd"]:
        """self^2; a Fraction whenever it is rational (always for coeff*sqrt(d))."""
        sq = self * self
        return sq.rational if sq.is_rational else sq

    # -- exact sign and order ---------------------------------------------

    def sign(self) -> int:
        a, b, d = self.rational, self.coeff, self.radicand
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 against b^2 d exactly.
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __eq__(self, other):
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return compare(self, other) == 0

    def __hash__(self) -> int:
        return hash(self.rational)

    def __lt__(self, other) -> bool:
        return compare(self, other) < 0

    def __le__(self, other) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other) -> bool:
        return compare(self, other) >= 0

    # -- enclosures and rendering ---------------------------------------------

    def to_interval(self) -> Interval:
        """Certified enclosure rational + coeff * [r, r + 1] / 2^256, with r = floor(sqrt(radicand) 2^256).

        Its ends are exact rationals, not rounded to the grid: only the
        square root is.
        """
        root = math.isqrt(self.radicand << 2 * _DYADIC_BITS)
        return Interval(*sorted(self.rational + self.coeff * Fraction(r, _DYADIC_ONE) for r in (root, root + 1)))

    def __float__(self) -> float:
        """The nearest double, correctly rounded.

        Both ends of a rational enclosure round to the same double once it
        is thin enough; that double is the rounded value, since rounding is
        monotone and an irrational number is never a double or a tie.  The
        enclosure of sqrt(radicand) has width 2^-bits, doubled until then;
        its ends are integer ratios, which ``/`` rounds correctly.
        """
        if self.is_rational:
            return float(self.rational)
        a, b = self.rational, self.coeff
        step = b.numerator * a.denominator
        bits = 128
        while True:
            root = math.isqrt(self.radicand << (2 * bits))  # floor(sqrt(d) 2^bits)
            den = (a.denominator * b.denominator) << bits
            num = ((a.numerator * b.denominator) << bits) + step * root
            lo, hi = sorted((num / den, (num + step) / den))
            if lo == hi:
                return lo
            bits *= 2

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.rational)
        return f"{self.rational} + {self.coeff}*sqrt({self.radicand})"


def compare(u: Union[RationalLike, QuadraticSurd], v: Union[RationalLike, QuadraticSurd]) -> int:
    """Exact sign of u - v (-1, 0 or +1) for rationals and quadratic surds.

    Within one field this is the field sign.  Across fields, u - v =
    A - t sqrt(f) with A = r + s sqrt(d) in Q(sqrt d) and t != 0: if A and
    t differ in sign, that decides it; otherwise the sign is sign(A) times
    the sign of A^2 - t^2 f, an element of Q(sqrt d).  Nothing is rounded
    and no case is declared a tie.
    """
    u, v = QuadraticSurd._coerce(u), QuadraticSurd._coerce(v)
    if u.is_rational or v.is_rational or u.radicand == v.radicand:
        return (u - v).sign()
    a = u - v.rational
    a_sign, t_sign = a.sign(), (1 if v.coeff > 0 else -1)
    if a_sign != t_sign:
        return 1 if a_sign > t_sign else -1
    return a_sign * (a * a - v.coeff * v.coeff * v.radicand).sign()


def quadratic_real_roots(a: RationalLike, b: RationalLike, c: RationalLike) -> list[QuadraticSurd]:
    """Real roots of a x^2 + b x + c with exact rational coefficients.

    Returns 0, 1, or 2 exact roots in ascending order; they are rational
    exactly when the discriminant is the square of a rational.  A zero
    leading coefficient raises :class:`DegenerateQuadraticError`.
    """
    a, b, c = to_fraction(a), to_fraction(b), to_fraction(c)
    if a == 0:
        raise DegenerateQuadraticError("leading coefficient is zero")
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [QuadraticSurd(-b / (2 * a))]
    root = QuadraticSurd.from_square(disc)
    roots = [(-b - root) / (2 * a), (-b + root) / (2 * a)]
    return roots if a > 0 else roots[::-1]


# ---------------------------------------------------------------------------
# Exact polynomials with rational coefficients.
# ---------------------------------------------------------------------------


class Polynomial:
    """Exact polynomial over Q in a fixed number of variables.

    ``terms`` maps exponent tuples to non-zero coefficients (ints or
    Fractions), so the zero polynomial has no terms and ``==`` compares
    term dicts.  The operators + - * and non-negative integer powers mix
    polynomials with ints and Fractions, so code written with arithmetic
    operators only expands on it unchanged; ``p(x1, ..., xk)`` evaluates at
    rationals.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict) -> None:
        self.nvars = nvars
        self.terms = {exps: c for exps, c in terms.items() if c != 0}

    @classmethod
    def variables(cls, nvars: int) -> tuple["Polynomial", ...]:
        """The generators x1, ..., x_nvars."""
        return tuple(
            cls(nvars, {tuple(int(i == j) for j in range(nvars)): 1}) for i in range(nvars)
        )

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError(f"polynomials in {self.nvars} and {other.nvars} variables")
            return other
        if not isinstance(other, (int, Fraction)):
            raise TypeError(f"polynomial coefficients are exact rationals, got {other!r}")
        return Polynomial(self.nvars, {(0,) * self.nvars: other})

    def __add__(self, other) -> "Polynomial":
        terms = dict(self.terms)
        for exps, c in self._coerce(other).terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {exps: -c for exps, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        terms: dict = {}
        other = self._coerce(other)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial powers need a non-negative integer, got {exponent!r}")
        result, base = self._coerce(1), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        return self.terms == self._coerce(other).terms

    __hash__ = None

    def __call__(self, *values: RationalLike) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        values = [to_fraction(v) for v in values]
        total = Fraction(0)
        for exps, c in self.terms.items():
            for v, e in zip(values, exps):
                c *= v ** e
            total += c
        return total

    def reduce_square(self, index: int, square: "Polynomial") -> "Polynomial":
        """This polynomial with every x_index^2 replaced by ``square``."""
        result = self._coerce(0)
        for exps, c in self.terms.items():
            half, odd = divmod(exps[index], 2)
            reduced = exps[:index] + (odd,) + exps[index + 1:]
            result = result + Polynomial(self.nvars, {reduced: c}) * square ** half
        return result

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.terms!r})"


# ---------------------------------------------------------------------------
# Fixed-point intervals, and the transcendental kernel: pi, cos, sin.
# ---------------------------------------------------------------------------

class _Dyadic:
    """Interval [lo, hi] / 2^_DYADIC_BITS with int ends, rounded outward.

    Lower ends round with floor and upper ends with ceiling, so every
    result encloses the exact result of the same operation.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi

    @classmethod
    def enclose_ratio(cls, num: int, den: int) -> "_Dyadic":
        """The grid units around num / den, for den > 0: the floor and ceiling of num / den * 2^_DYADIC_BITS."""
        return cls((num << _DYADIC_BITS) // den, -((-num << _DYADIC_BITS) // den))

    def to_interval(self) -> Interval:
        """The ends as exact rationals, for comparisons with rationals and for reports."""
        return Interval(Fraction(self.lo, _DYADIC_ONE), Fraction(self.hi, _DYADIC_ONE))

    def __float__(self) -> float:
        """The double nearest the midpoint: an int-by-int true division, which rounds correctly."""
        return (self.lo + self.hi) / (_DYADIC_ONE << 1)

    def __add__(self, other: "_Dyadic") -> "_Dyadic":
        return _Dyadic(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "_Dyadic") -> "_Dyadic":
        return _Dyadic(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "_Dyadic":
        return _Dyadic(-self.hi, -self.lo)

    def __mul__(self, other: "_Dyadic") -> "_Dyadic":
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Dyadic(min(products) >> _DYADIC_BITS, -(-max(products) >> _DYADIC_BITS))

    def square(self) -> "_Dyadic":
        lo, hi = abs(self.lo), abs(self.hi)
        low = 0 if self.lo <= 0 <= self.hi else min(lo, hi)
        return _Dyadic(low * low >> _DYADIC_BITS, -(-max(lo, hi) ** 2 >> _DYADIC_BITS))

    def __truediv__(self, other: Union["_Dyadic", int]) -> "_Dyadic":
        if isinstance(other, int):  # a positive integer divides both ends
            return _Dyadic(self.lo // other, -(-self.hi // other))
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by a _Dyadic interval containing zero")
        if other.hi < 0:
            return -self / -other
        # By a positive divisor, each end is extreme at the divisor end its own sign picks.
        return _Dyadic(
            (self.lo << _DYADIC_BITS) // (other.hi if self.lo >= 0 else other.lo),
            -((-self.hi << _DYADIC_BITS) // (other.lo if self.hi >= 0 else other.hi)),
        )

    def sqrt(self) -> "_Dyadic":
        if self.lo < 0:
            raise ValueError("sqrt of a _Dyadic interval with negative part")
        lo, hi = self.lo << _DYADIC_BITS, self.hi << _DYADIC_BITS
        return _Dyadic(_isqrt_rounded(lo, 1, False), _isqrt_rounded(hi, 1, True))


def _arctan_series(power: _Dyadic, step) -> _Dyadic:
    """c arctan(y) = sum_j (-1)^j p_j / (2j+1) with p_0 = ``power`` and p_(j+1) = step(p_j) enclosing c y^(2j+1),
    c > 0, for each y of an interval in [0, 1): the terms alternate and fall, so the first omitted bounds the tail."""
    total, j = _Dyadic(0, 0), 0
    while power.hi > 1:
        term = power / (2 * j + 1)
        total = total - term if j % 2 else total + term
        power, j = step(power), j + 1
    tail = (power / (2 * j + 1)).hi
    return total + _Dyadic(-tail, tail)


def _arctan_of_inverse(m: int, factor: int) -> _Dyadic:
    """factor * arctan(1/m) for an integer m > 1."""
    return _arctan_series(_Dyadic(factor << _DYADIC_BITS, factor << _DYADIC_BITS) / m, lambda p: p / (m * m))


_PI = _arctan_of_inverse(5, 16) - _arctan_of_inverse(239, 4)  # Machin's formula
_RAD_TO_DEG = _Dyadic(180 << _DYADIC_BITS, 180 << _DYADIC_BITS) / _PI


def _taylor(x: _Dyadic, odd: bool) -> _Dyadic:
    """sin (odd) or cos of the fixed-point x >= 0: Taylor terms x^n / n! until one falls
    to a unit of the grid, which, as the Lagrange bound |x|^N / N! on the rest, widens the sum."""
    x_sq = x.square()
    term = x if odd else _Dyadic(_DYADIC_ONE, _DYADIC_ONE)
    total, n = _Dyadic(0, 0), int(odd)
    while term.hi > 1:
        total = total - term if n % 4 >= 2 else total + term
        term = term * x_sq / ((n + 1) * (n + 2))
        n += 2
    return total + _Dyadic(-term.hi, term.hi)


def _trig_hull(radians: _Dyadic, odd: bool) -> _Dyadic:
    """Enclosure of sin (odd) or cos over radians in [0, pi_hi].

    There each is monotone on either side of one turn, sin's maximum 1 at
    pi/2 and cos's minimum -1 at pi; so the values at the ends of the
    interval bound it, with the turn's value joined when the interval may
    reach the turn: when k lo <= pi_hi and pi_lo <= k hi, with k = 2 for pi/2.
    """
    ends = [_taylor(_Dyadic(x, x), odd) for x in (radians.lo, radians.hi)]
    lo, hi = min(e.lo for e in ends), max(e.hi for e in ends)
    k, turn = (2, _DYADIC_ONE) if odd else (1, -_DYADIC_ONE)
    if k * radians.lo <= _PI.hi and _PI.lo <= k * radians.hi:
        lo, hi = min(lo, turn), max(hi, turn)
    return _Dyadic(*(min(max(end, -_DYADIC_ONE), _DYADIC_ONE) for end in (lo, hi)))


class AngleDeg(Record):
    """An angle in degrees, carried as a certified enclosure.

    ``value`` is an :class:`Interval` of degrees inside [0, 180].  Exact
    rational angles are point intervals.  ``cos``, ``sin`` and
    ``sin_squared`` return certified enclosures on the 2^-256 grid
    (``_Dyadic``).  At the special angles, whose cos^2 is rational and
    dyadic, ``sin_squared`` is exact and ``cos`` and ``sin`` are exact
    where they are rational (``cos`` at 0, 60, 90, 120 and 180, ``sin`` at
    0, 30, 90, 150 and 180) and one grid unit wide elsewhere.
    """

    __slots__ = ("value",)

    def __init__(self, value: Union[Interval, RationalLike]) -> None:
        if not isinstance(value, Interval):
            value = Interval.point(to_fraction(value))
        if value.lo < 0 or value.hi > 180:
            raise ValueError(f"angle out of [0, 180] degrees: {value}")
        _set(self, "value", value)

    @classmethod
    def from_degrees(cls, degrees: RationalLike) -> "AngleDeg":
        return cls(Interval.point(to_fraction(degrees)))

    @property
    def is_point(self) -> bool:
        return self.value.lo == self.value.hi

    def radians(self) -> _Dyadic:
        """The grid units around value * pi / 180: floor(lo pi_lo / 180) and ceil(hi pi_hi / 180), as value >= 0."""
        (lo_num, lo_den), (hi_num, hi_den) = self.value.lo.as_integer_ratio(), self.value.hi.as_integer_ratio()
        return _Dyadic(lo_num * _PI.lo // (180 * lo_den), -(-hi_num * _PI.hi // (180 * hi_den)))

    def _special_cos_squared(self) -> Fraction | None:
        return _SPECIAL_COS_SQUARED.get(self.value.lo) if self.is_point else None

    def cos(self) -> _Dyadic:
        if (cos_sq := self._special_cos_squared()) is None:
            return _trig_hull(self.radians(), False)
        root = _Dyadic.enclose_ratio(*cos_sq.as_integer_ratio()).sqrt()
        return root if self.value.lo <= 90 else -root

    def sin_squared(self) -> _Dyadic:
        """Enclosure of sin^2 via 1 - cos^2, exact at the special angles."""
        if (cos_sq := self._special_cos_squared()) is None:
            # cos is clamped to [-1, 1], so cos^2 and this lie in [0, 1].
            return _Dyadic(_DYADIC_ONE, _DYADIC_ONE) - self.cos().square()
        return _Dyadic.enclose_ratio(*(1 - cos_sq).as_integer_ratio())

    def sin(self) -> _Dyadic:
        if (cos_sq := self._special_cos_squared()) is None:
            return _trig_hull(self.radians(), True)
        return _Dyadic.enclose_ratio(*(1 - cos_sq).as_integer_ratio()).sqrt()

    def supplement(self) -> "AngleDeg":
        return AngleDeg(Interval(180 - self.value.hi, 180 - self.value.lo))

    def __float__(self) -> float:
        return float(self.value.mid)

    def __str__(self) -> str:
        if self.is_point:
            return f"{float(self)}°"
        return f"[{float(self.value.lo):.6f}°, {float(self.value.hi):.6f}°]"


def _interior_angle(theta: Union[AngleDeg, RationalLike]) -> AngleDeg:
    """The contact angle as an AngleDeg, refused unless inside (0, 180) degrees.

    A rational angle is checked before it becomes an AngleDeg, so one
    outside [0, 180] meets this message too.
    """
    value = theta.value if isinstance(theta, AngleDeg) else Interval.point(to_fraction(theta))
    if value.lo <= 0 or value.hi >= 180:
        raise ValueError("theta must lie strictly between 0 and 180 degrees")
    return AngleDeg(value)


# ---------------------------------------------------------------------------
# Threshold -> angle window.
# ---------------------------------------------------------------------------


# cos^2/sin^4 at 30, 45 and 60 degrees (12, 2 and 4/9): the thresholds whose window edge is a rational angle.
_RATIONAL_EDGES = {c / (1 - c) ** 2: deg for deg, c in _SPECIAL_COS_SQUARED.items() if 0 < deg < 90}


def _window_edge(threshold: Fraction) -> _Dyadic:
    """Enclosure in degrees of the theta* in (0, 90) where cos^2/sin^4 = T > 0.

    cot^2 theta* = c solves c (1 + c) = T, so c = 2T/(sqrt(4T + 1) + 1).  For T > 2, theta* =
    arctan x with x = tan theta* < 1, else 90 - arctan x with x = cot theta* <= 1; x is a rounded
    square root of T's integers with no cancellation.  Three steps arctan x = 2 arctan(x / (1 +
    sqrt(1 + x^2))) bring x below tan(pi/32) < 1/10 for the series.

    The enclosure is exact at T = 4/9, 2 and 12 (theta* = 60, 45 and 30); at any other T, theta* is
    no rational angle, so no grid point and no rational input equals it.  Proof: if 2 theta* = 360
    k/N degrees in lowest terms, w = cos 2 theta* = (c - 1)/(c + 1) in Q(sqrt(4T + 1)) has degree
    phi(N)/2 (1 for N <= 2), so phi(N) <= 4.  A rational w is 1/2, 0 or -1/2 by Niven's theorem:
    theta* = 30, 45 or 60.  Otherwise N is 5, 8, 10 or 12 and w^2 = p w + q, p and q rational;
    T = 2 (1 + w)/(1 - w)^2 = 2 (1 + w)/((1 + q) + (p - 2) w) is rational only if p - 2 = 1 + q,
    which none of w^2 = -w/2 + 1/4, 1/2, w/2 + 1/4 and 3/4 (N = 5, 8, 10, 12) meets.
    """
    if threshold in _RATIONAL_EDGES:
        return _Dyadic(_RATIONAL_EDGES[threshold] << _DYADIC_BITS, _RATIONAL_EDGES[threshold] << _DYADIC_BITS)
    p, q = threshold.numerator, threshold.denominator
    # sqrt(4T + 1) + 1, then x, in grid units, each rounded down and up.
    s_lo, s_hi = (_isqrt_rounded((4 * p + q) << 2 * _DYADIC_BITS, q, up) + _DYADIC_ONE for up in (False, True))
    if threshold > 2:
        x = _Dyadic(*(_isqrt_rounded(s * q << _DYADIC_BITS, 2 * p, up) for s, up in ((s_lo, False), (s_hi, True))))
    else:
        x = _Dyadic(*(_isqrt_rounded(2 * p << 3 * _DYADIC_BITS, q * s, up) for s, up in ((s_hi, False), (s_lo, True))))
    one = _Dyadic(_DYADIC_ONE, _DYADIC_ONE)
    for _ in range(3):
        x = x / (one + (one + x.square()).sqrt())
    x_sq = x.square()
    arctan = _arctan_series(x, lambda power: power * x_sq)
    degrees = _Dyadic(arctan.lo << 3, arctan.hi << 3) * _RAD_TO_DEG
    return degrees if threshold > 2 else _Dyadic(90 << _DYADIC_BITS, 90 << _DYADIC_BITS) - degrees


def angle_range_from_threshold(
    threshold: RationalLike, tol_deg: RationalLike = Fraction(1, 1000)
) -> tuple[AngleDeg, AngleDeg]:
    """Certified enclosures of the ends of the window (theta_min, 180 - theta_min) where cos^2/sin^4 < T.

    theta_min is the grid cell [i tol_deg, (i + 1) tol_deg], clipped at 90, that holds both ends of
    the enclosure of theta* (:func:`_window_edge`) clipped to [0, 90], or theta* itself at a tie on
    the grid; an enclosure end on a grid point still decides the cell, since apart from the ties
    theta* is no grid point.  So the window contains (theta_min.hi, 180 - theta_min.hi).  An
    enclosure with a grid point strictly inside raises ValueError naming the first such point.
    """
    T, tol = to_fraction(threshold), to_fraction(tol_deg)
    if T <= 0:
        raise ValueError("threshold must be positive")
    if tol <= 0:
        raise ValueError("tol_deg must be positive")

    edge = _window_edge(T)
    # Grid point i is i * step / (tol.denominator * 2^_DYADIC_BITS) degrees.
    step = tol.numerator << _DYADIC_BITS
    first = max(edge.lo, 0) * tol.denominator // step
    last = -(-min(edge.hi, 90 << _DYADIC_BITS) * tol.denominator // step)
    if last - first > 1:
        raise ValueError(
            f"cannot separate cos^2/sin^4 from the threshold {T} at {float((first + 1) * tol)} degrees "
            f"with enclosures on the 2^-{_DYADIC_BITS} grid; the angle grid step {tol} is too fine"
        )
    theta_min = AngleDeg(Interval(first * tol, min(last * tol, Fraction(90))))
    return theta_min, theta_min.supplement()
