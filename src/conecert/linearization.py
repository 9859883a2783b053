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
ends at the scale 2^-256 (``exact._Dyadic``), converted once per call from
the sin and cos enclosures of ``AngleDeg``; the ratios and bounds are then
decided in exact rationals.

The induced quadratic form sin^3(theta) x_1 y_1 + sin(theta) <x', y'> is
sandwiched between sin^3(theta) |x|^2 and sin(theta) |x|^2; both slacks are
one factor times a sum of squares, and ``norm_equivalence_certified``
encloses that factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence, Union

from ._record import Record, _fill
from ._sampling import unit_gaussian_chunks
from .exact import (
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
    the scale 2^-256, converted from the trig enclosures of ``AngleDeg``; the
    ratio enclosures and the bound check are exact rational arithmetic.
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

    The directions are drawn once in floating point, scaled by 1/1000 and
    then frozen as exact rationals, so the certified statement quantifies
    over an explicit finite set of exact gradients.  The cos, sin, cot and
    sin^3 enclosures of ``AngleDeg`` are rounded outward once to the 2^-256
    grid of ``exact._Dyadic``, on which every |G(q) - L(q)| is evaluated.
    """
    import numpy as np

    theta = _interior_angle(theta)
    if directions < 1:
        raise ValueError("need at least one direction")
    band_lo, band_hi = _BAND

    cos_iv = theta.cos()
    sin_iv = theta.sin()
    slant = _Dyadic.enclose(cos_iv / sin_iv)
    lead = _Dyadic.enclose(-cos_iv)
    sin_d = _Dyadic.enclose(sin_iv)
    sin_cubed = _Dyadic.enclose(sin_iv * sin_iv * sin_iv)

    hull = None
    all_in = True
    bound_ok = True
    for d in chain.from_iterable(unit_gaussian_chunks(np.random.default_rng(seed), directions, _NDIM)):
        # Fraction(float) is exact: the sampled direction is frozen bit-for-bit.
        qs = [Fraction(float(c)) * _SCALE for c in d]
        q_norm_sq = sum((c * c for c in qs), Fraction(0))
        r_full = _remainder_norm_interval(qs, slant, lead, sin_d, sin_cubed)
        r_half = _remainder_norm_interval([c / 2 for c in qs], slant, lead, sin_d, sin_cubed)
        # r <= bound * |q|^2, squared to stay in rational arithmetic.
        if not (r_full.hi * r_full.hi <= _BOUND_CONSTANT ** 2 * q_norm_sq ** 2):
            bound_ok = False
        if not r_half.strictly_positive():
            all_in = False
            continue
        ratio = r_full / r_half
        hull = ratio if hull is None else Interval.hull([hull, ratio])
        if not (band_lo <= ratio.lo and ratio.hi <= band_hi):
            all_in = False

    if hull is None:
        hull = Interval.point(Fraction(0))
    return CertifiedRatioReport(
        ratio_enclosure_lo=float(hull.lo),
        ratio_enclosure_hi=float(hull.hi),
        all_in_band=all_in,
        bound_certified=bound_ok,
    )


def _remainder_norm_interval(
    qs: Sequence[Fraction],
    slant: _Dyadic,
    lead: _Dyadic,
    sin_d: _Dyadic,
    sin_cubed: _Dyadic,
) -> Interval:
    """Certified enclosure of |G(q) - L(q)| for an exact rational gradient.

    ``slant`` encloses cot(theta) and ``lead`` -cos(theta); the result has
    endpoints k / 2^256.
    """
    q = [_Dyadic.enclose(Interval.point(c)) for c in qs]
    p = [q[0] - slant] + q[1:]
    w_sq = _Dyadic(_DYADIC_ONE, _DYADIC_ONE)
    for comp in p:
        w_sq = w_sq + comp.square()
    w = w_sq.sqrt()
    lin = [lead + sin_cubed * q[0]]
    lin.extend(sin_d * c for c in q[1:])
    diff_sq = _Dyadic(0, 0)
    for comp, l in zip(p, lin):
        diff_sq = diff_sq + (comp / w - l).square()
    return diff_sq.sqrt().to_interval()


# ---------------------------------------------------------------------------
# Weighted norm.
# ---------------------------------------------------------------------------


def norm_equivalence_certified(theta: AngleLike) -> tuple[Interval, bool]:
    """Certified enclosure of the slack factor sin(1-sin)(1+sin) >= 0.

    Nonnegativity of this factor implies the norm sandwich for every
    vector, since both slacks are this factor times a sum of squares:

    upper slack = sin(theta) |x|^2 - |x|_theta^2 = (sin - sin^3) x_1^2,
    lower slack = |x|_theta^2 - sin^3(theta) |x|^2 = (sin - sin^3) |x'|^2.
    """
    theta = _interior_angle(theta)
    s = theta.sin()
    one = Interval.point(Fraction(1))
    factor = s * (one - s) * (one + s)
    return factor, factor.lo >= 0
