"""Slanted-graph linearization: the exact Gauss map of a graph tilted to
meet a wall at contact angle theta, its linearization around the reference
plane, the second-order remainder checks, and the slack of the weighted
(capillary) norm.

Conventions.  A graph over the half-space carries the slanted height
w(x) = u(x) - cot(theta) x_1 ("up" orientation; "down" flips the sign),
so the reference configuration u = 0 meets the wall {x_1 = 0} at angle
theta.  With q = grad u, the horizontal part of the unit normal is

    G(q) = (q - cot(theta) e_1) / sqrt(1 + |q - cot(theta) e_1|^2),

whose derivative at q = 0 is diag(sin^3(theta), sin(theta), ...).  The
remainder G - L after subtracting the affine linearization L is second
order.  ``remainder_order_check`` is sampled corroboration: float halving
ratios r(t)/r(t/2) on seeded directions sit near 4.
``remainder_ratio_certified`` is the interval proof of the same fact on
seeded directions frozen as exact rationals.  It evaluates |G - L| on
outward-rounded fixed-point intervals with integer ends at the scale
2^-256 (``exact._Dyadic``), converted once per call from the sin and
cos enclosures of ``AngleDeg``; the ratios and bounds are then decided in
exact rationals.

Float evaluation.  The float formulas live in private kernels that take
sin(theta) and cos(theta) as floats.  These are the midpoints of the
2^-256-grid sin/cos enclosures of ``AngleDeg``, computed once per public call,
so a campaign over many directions pays for the trig only once.

The induced quadratic form sin^3(theta) x_1 y_1 + sin(theta) <x', y'> is
sandwiched between sin^3(theta) |x|^2 and sin(theta) |x|^2; both slacks are
one factor times a sum of squares, and ``norm_equivalence_certified``
encloses that factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from ._record import Record, _fill
from .exact import _DYADIC_ONE, AngleDeg, Interval, RationalLike, _Dyadic, to_fraction

__all__ = [
    "RemainderOrderReport",
    "CertifiedRatioReport",
    "remainder_order_check",
    "remainder_ratio_certified",
    "norm_equivalence_certified",
]

AngleLike = Union[AngleDeg, RationalLike]


def _interior_angle(theta: AngleLike) -> AngleDeg:
    if not isinstance(theta, AngleDeg):
        theta = AngleDeg.from_degrees(theta)
    if theta.value.lo <= 0 or theta.value.hi >= 180:
        raise ValueError("theta must lie strictly between 0 and 180 degrees")
    return theta


def _check_orientation(orientation: str) -> int:
    if orientation == "up":
        return 1
    if orientation == "down":
        return -1
    raise ValueError("orientation must be 'up' or 'down'")


def _sin_cos(theta: AngleDeg) -> tuple[float, float]:
    """Float midpoints of the AngleDeg sin/cos enclosures; call once per public call."""
    return float(theta.sin().mid), float(theta.cos().mid)


# ---------------------------------------------------------------------------
# Exact and linearized Gauss maps.
# ---------------------------------------------------------------------------


def _gauss_exact(p: list[float], s: float, c: float, sign: int) -> tuple[list[float], float]:
    """G(q) for the float gradient p, and w^2 = 1 + |p - sign cot(theta) e_1|^2."""
    slanted = [p[0] - sign * (c / s)] + p[1:]
    w_sq = 1.0 + math.fsum(v * v for v in slanted)
    w = math.sqrt(w_sq)
    return [v / w for v in slanted], w_sq


def _gauss_linear(p: list[float], s: float, c: float, sign: int) -> list[float]:
    """L(q) = (-sign cos + sin^3 q_1, sin q_2, ...) for the float gradient p."""
    out = [-sign * c + s ** 3 * p[0]]
    out.extend(s * v for v in p[1:])
    return out


# ---------------------------------------------------------------------------
# Remainder order: sampled and certified.
# ---------------------------------------------------------------------------


class RemainderOrderReport(Record):
    """Sampled evidence that the Gauss-map remainder is second order."""

    __slots__ = (
        "theta_deg", "scale", "directions", "seed", "orientation", "ratio_min", "ratio_max",
        "ratio_mean", "max_remainder", "remainder_bound_constant", "bound_satisfied",
    )

    def __init__(
        self, theta_deg: float, scale: float, directions: int, seed: int, orientation: str,
        ratio_min: float, ratio_max: float, ratio_mean: float, max_remainder: float,
        remainder_bound_constant: float, bound_satisfied: bool,
    ) -> None:
        _fill(self, locals())

    def ratios_within(self, lo: float = 3.6, hi: float = 4.4) -> bool:
        return lo <= self.ratio_min and self.ratio_max <= hi


def remainder_order_check(
    theta: AngleLike,
    scale: float = 1e-3,
    directions: int = 1000,
    seed: int = 42,
    orientation: str = "up",
    ndim: int = 3,
    bound_constant: float = 10.0,
) -> RemainderOrderReport:
    """Halving-ratio test for the remainder r(q) = G(q) - L(q).

    For seeded random unit directions d, the ratios
    |r(scale d)| / |r(scale d / 2)| must approach 4 (second order), and
    each remainder must obey |r| <= bound_constant |q|^2.
    """
    import numpy as np

    theta = _interior_angle(theta)
    # The float kernels square |q|; this also refuses NaN and infinity.
    if not (scale > 0 and math.isfinite(4 * scale * scale)):
        raise ValueError(f"scale must be positive with a finite float square, got {scale!r}")
    if directions < 1:
        raise ValueError("need at least one direction")
    sign = _check_orientation(orientation)
    s, c = _sin_cos(theta)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions, ndim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    ratios = []
    max_rem = 0.0
    bound_ok = True
    for d in dirs:
        r_full = _remainder_norm((d * scale).tolist(), s, c, sign)
        r_half = _remainder_norm((d * (scale / 2.0)).tolist(), s, c, sign)
        if r_half == 0.0:
            continue
        ratios.append(r_full / r_half)
        max_rem = max(max_rem, r_full)
        if r_full > bound_constant * scale * scale:
            bound_ok = False
        if r_half > bound_constant * (scale / 2.0) ** 2:
            bound_ok = False
    if not ratios:
        raise ValueError("no direction gave a nonzero remainder at scale/2; scale is too small")
    arr = np.asarray(ratios)
    return RemainderOrderReport(
        theta_deg=float(theta.value.mid),
        scale=scale,
        directions=directions,
        seed=seed,
        orientation=orientation,
        ratio_min=float(arr.min()),
        ratio_max=float(arr.max()),
        ratio_mean=float(arr.mean()),
        max_remainder=max_rem,
        remainder_bound_constant=bound_constant,
        bound_satisfied=bound_ok,
    )


def _remainder_norm(p: list[float], s: float, c: float, sign: int) -> float:
    """|G(q) - L(q)| for the float gradient p."""
    exact = _gauss_exact(p, s, c, sign)[0]
    lin = _gauss_linear(p, s, c, sign)
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(exact, lin)))


class CertifiedRatioReport(Record):
    """Interval-certified halving ratios on seeded rational directions.

    Each |G - L| is enclosed on outward-rounded fixed-point intervals at
    the scale 2^-256, converted from the trig enclosures of ``AngleDeg``; the
    ratio enclosures and the bound check are exact rational arithmetic.
    """

    __slots__ = (
        "theta_deg", "scale", "directions", "seed", "orientation", "band_lo", "band_hi",
        "ratio_enclosure_lo", "ratio_enclosure_hi", "all_in_band", "bound_constant",
        "bound_certified",
    )

    def __init__(
        self, theta_deg: float, scale: Fraction, directions: int, seed: int, orientation: str,
        band_lo: Fraction, band_hi: Fraction, ratio_enclosure_lo: float, ratio_enclosure_hi: float,
        all_in_band: bool, bound_constant: Fraction, bound_certified: bool,
    ) -> None:
        _fill(self, locals())


def remainder_ratio_certified(
    theta: AngleLike,
    scale: RationalLike = Fraction(1, 1000),
    directions: int = 64,
    seed: int = 42,
    orientation: str = "up",
    ndim: int = 3,
    band: tuple[RationalLike, RationalLike] = (Fraction(18, 5), Fraction(22, 5)),
    bound_constant: RationalLike = 10,
) -> CertifiedRatioReport:
    """Certify, with interval arithmetic, that every seeded halving ratio
    lies in ``band`` and every remainder obeys |r| <= bound |q|^2.

    The directions are drawn once in floating point and then frozen as
    exact rationals, so the certified statement quantifies over an explicit
    finite set of exact gradients.  The cos, sin, cot and sin^3 enclosures
    of ``AngleDeg`` are rounded outward once to the 2^-256 grid of
    ``exact._Dyadic``, on which every |G(q) - L(q)| is evaluated.
    """
    import numpy as np

    theta = _interior_angle(theta)
    sign = _check_orientation(orientation)
    scale = to_fraction(scale)
    bound_constant = to_fraction(bound_constant)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if directions < 1:
        raise ValueError("need at least one direction")
    band_lo, band_hi = to_fraction(band[0]), to_fraction(band[1])

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions, ndim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    cos_iv = theta.cos()
    sin_iv = theta.sin()
    # The sign rides on the exact enclosures, so the kernel needs none.
    slant = _Dyadic.enclose(cos_iv / sin_iv * sign)
    lead = _Dyadic.enclose(cos_iv * (-sign))
    sin_d = _Dyadic.enclose(sin_iv)
    sin_cubed = _Dyadic.enclose(sin_iv * sin_iv * sin_iv)

    hull = None
    all_in = True
    bound_ok = True
    for d in dirs:
        # Fraction(float) is exact: the sampled direction is frozen bit-for-bit.
        qs = [Fraction(float(c)) * scale for c in d]
        q_norm_sq = sum((c * c for c in qs), Fraction(0))
        r_full = _remainder_norm_interval(qs, slant, lead, sin_d, sin_cubed)
        r_half = _remainder_norm_interval([c / 2 for c in qs], slant, lead, sin_d, sin_cubed)
        # r <= bound * |q|^2, squared to stay in rational arithmetic.
        if not (r_full.hi * r_full.hi <= bound_constant ** 2 * q_norm_sq ** 2):
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
        theta_deg=float(theta.value.mid),
        scale=scale,
        directions=directions,
        seed=seed,
        orientation=orientation,
        band_lo=band_lo,
        band_hi=band_hi,
        ratio_enclosure_lo=float(hull.lo),
        ratio_enclosure_hi=float(hull.hi),
        all_in_band=all_in,
        bound_constant=bound_constant,
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

    ``slant`` encloses sign cot(theta) and ``lead`` -sign cos(theta); the
    result has endpoints k / 2^256.
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
