"""Slanted-graph linearization: the exact Gauss map of a graph tilted to
meet a wall at contact angle theta, its linearization around the reference
plane, the certified second-order remainder, and the slack of the weighted
(capillary) norm.

Conventions.  A graph over the half-space carries the slanted height
w(x) = u(x) - cot(theta) x_1, so the reference configuration u = 0 meets
the wall {x_1 = 0} at angle theta.  With q = grad u, the horizontal part of the unit normal is

    G(q) = (q - cot(theta) e_1) / sqrt(1 + |q - cot(theta) e_1|^2),

whose derivative at q = 0 is diag(sin^3(theta), sin(theta), ...).  The
remainder G - L after subtracting the affine linearization L is second
order.  ``remainder_ratio_certified`` proves that the halving ratios
r(t)/r(t/2) sit near 4 on seeded directions of length 1/1000 frozen as
exact rationals.
It evaluates |G - L| on outward-rounded fixed-point intervals with integer
ends at the scale 2^-256 (``exact._Dyadic``), on which ``AngleDeg`` gives
sin and cos, and encloses each gradient on that grid from its doubles'
integer ratios.  The ratio band and the bound are decided by
cross-multiplying integers, so only the two ends of the ratio hull become
rationals.

The induced quadratic form sin^3(theta) x_1 y_1 + sin(theta) <x', y'> is
sandwiched between sin^3(theta) |x|^2 and sin(theta) |x|^2; both slacks are
one factor times a sum of squares, and ``norm_equivalence_certified``
encloses that factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence, Union

from ._record import Record, _fill
from ._sampling import unit_gaussian_chunks
from .exact import (
    _DYADIC_BITS,
    _DYADIC_ONE,
    AngleDeg,
    Interval,
    RationalLike,
    _Dyadic,
    _interior_angle,
)

__all__ = [
    "CertifiedRatioReport",
    "remainder_ratio_certified",
    "norm_equivalence_certified",
]

AngleLike = Union[AngleDeg, RationalLike]

# The gradient dimension, the length of the probed gradients, the band every
# halving ratio must lie in, and the constant C of the bound
# |G(q) - L(q)| <= C |q|^2.
_NDIM = 3
_SCALE = Fraction(1, 1000)
_BAND = (Fraction(18, 5), Fraction(22, 5))
_BOUND_CONSTANT = Fraction(10)


# ---------------------------------------------------------------------------
# Remainder order, certified.
# ---------------------------------------------------------------------------


class CertifiedRatioReport(Record):
    """Interval-certified halving ratios on seeded rational directions.

    Each |G - L| is enclosed on outward-rounded fixed-point intervals at
    the scale 2^-256, from the trig enclosures of ``AngleDeg`` on it; the
    band and bound checks compare their integer ends exactly, and the ratio
    enclosure's ends are the floats of the hull's two rational ends.
    """

    __slots__ = ("ratio_enclosure_lo", "ratio_enclosure_hi", "all_in_band", "bound_certified")

    def __init__(
        self, ratio_enclosure_lo: float, ratio_enclosure_hi: float, all_in_band: bool,
        bound_certified: bool,
    ) -> None:
        _fill(self, locals())


def remainder_ratio_certified(theta: AngleLike, directions: int, seed: int = 42) -> CertifiedRatioReport:
    """Certify, with interval arithmetic, that every seeded halving ratio
    lies in [18/5, 22/5] and every remainder obeys |r| <= 10 |q|^2.

    The directions are drawn once in floating point and scaled by 1/1000 as
    exact rationals, so the certified statement quantifies over an explicit
    finite set of exact gradients; each is enclosed straight from its
    doubles' integer ratios on the 2^-256 grid of ``exact._Dyadic``, and
    its half by halving the integer ends.  The cot and sin^3 enclosures
    are computed on that grid from the cos and sin of ``AngleDeg``, and on
    it every |G(q) - L(q)| is evaluated.  With F and H the enclosures
    at q and q/2, and H.lo > 0, the ratio F/H lies in [F.lo/H.hi,
    F.hi/H.lo]; the band, the bound F.hi^2 <= C^2 |q|^4 and the hull of
    the ratios are decided by cross-multiplying integers, and only the
    hull's two ends become rationals.
    """
    import numpy as np

    theta = _interior_angle(theta)
    if directions < 1:
        raise ValueError("need at least one direction")
    (lo_num, lo_den), (hi_num, hi_den) = (band.as_integer_ratio() for band in _BAND)
    bound_num, bound_den = (part * part for part in _BOUND_CONSTANT.as_integer_ratio())
    scale_num, scale_den = _SCALE.as_integer_ratio()

    cos, sin = theta.cos(), theta.sin()
    trig = (cos / sin, -cos, sin, sin * sin * sin)

    # The ends of the hull of the ratio enclosures, each as (numerator, denominator).
    hull_lo = hull_hi = None
    all_in = True
    bound_ok = True
    for d in chain.from_iterable(unit_gaussian_chunks(np.random.default_rng(seed), directions, (_NDIM,))):
        # as_integer_ratio is exact: the sampled direction is frozen bit-for-bit.
        ratios = [float(c).as_integer_ratio() for c in d]
        q = [_Dyadic.enclose_ratio(num * scale_num, den * scale_den) for num, den in ratios]
        full = _remainder_norm_interval(q, *trig)
        half = _remainder_norm_interval([c / 2 for c in q], *trig)
        # |q|^2 = norm_num / norm_den exactly, over the common denominator of the doubles.
        common = math.lcm(*(den for _, den in ratios))
        norm_num = sum((num * (common // den)) ** 2 for num, den in ratios) * scale_num * scale_num
        norm_den = (common * scale_den) ** 2
        # (F.hi / 2^256)^2 <= C^2 (|q|^2)^2, cleared of every denominator.
        if full.hi * full.hi * bound_den * norm_den * norm_den > bound_num * norm_num * norm_num << 2 * _DYADIC_BITS:
            bound_ok = False
        if half.lo <= 0:
            all_in = False
            continue
        if not (lo_den * full.lo >= lo_num * half.hi and hi_den * full.hi <= hi_num * half.lo):
            all_in = False
        if hull_lo is None or full.lo * hull_lo[1] < hull_lo[0] * half.hi:
            hull_lo = full.lo, half.hi
        if hull_hi is None or full.hi * hull_hi[1] > hull_hi[0] * half.lo:
            hull_hi = full.hi, half.lo

    ends = (0.0, 0.0) if hull_lo is None else (float(Fraction(*hull_lo)), float(Fraction(*hull_hi)))
    return CertifiedRatioReport(
        ratio_enclosure_lo=ends[0],
        ratio_enclosure_hi=ends[1],
        all_in_band=all_in,
        bound_certified=bound_ok,
    )


def _remainder_norm_interval(
    q: Sequence[_Dyadic],
    slant: _Dyadic,
    lead: _Dyadic,
    sin_d: _Dyadic,
    sin_cubed: _Dyadic,
) -> _Dyadic:
    """Certified enclosure of |G(q) - L(q)| for a gradient enclosed on the 2^-256 grid.

    ``slant`` encloses cot(theta) and ``lead`` -cos(theta).
    """
    p = [q[0] - slant, *q[1:]]
    w_sq = _Dyadic(_DYADIC_ONE, _DYADIC_ONE)
    for comp in p:
        w_sq = w_sq + comp.square()
    w = w_sq.sqrt()
    lin = [lead + sin_cubed * q[0]]
    lin.extend(sin_d * c for c in q[1:])
    diff_sq = _Dyadic(0, 0)
    for comp, l in zip(p, lin):
        diff_sq = diff_sq + (comp / w - l).square()
    return diff_sq.sqrt()


# ---------------------------------------------------------------------------
# Weighted norm.
# ---------------------------------------------------------------------------


def norm_equivalence_certified(theta: AngleLike) -> tuple[Interval, bool]:
    """Certified enclosure of the slack factor sin (1 - sin^2) >= 0, and whether it is >= 0.

    Nonnegativity of this factor implies the norm sandwich for every
    vector, since both slacks are this factor times a sum of squares:

    upper slack = sin(theta) |x|^2 - |x|_theta^2 = (sin - sin^3) x_1^2,
    lower slack = |x|_theta^2 - sin^3(theta) |x|^2 = (sin - sin^3) |x'|^2.

    The factor is computed on the 2^-256 grid from ``AngleDeg.sin`` and
    ``sin_squared``, whose 1 - cos^2 makes 1 - sin^2 as narrow as cos^2
    (1 - s^2 over sin's interval s is far wider near 90 degrees), and
    returned as its two rational ends; it is exactly 0 at 90 degrees and
    3/8 at 30 and 150, where sin is 1 and 1/2.
    """
    theta = _interior_angle(theta)
    factor = theta.sin() * (_Dyadic(_DYADIC_ONE, _DYADIC_ONE) - theta.sin_squared())
    return factor.to_interval(), factor.lo >= 0
