"""Slanted-graph linearization: the exact Gauss map of a graph tilted to
meet a wall at contact angle theta, its linearization around the reference
plane, the second-order remainder checks, and the weighted (capillary)
inner product together with the flattening change of variables.

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
sandwiched between sin^3(theta) |x|^2 and sin(theta) |x|^2 with explicitly
nonnegative slacks, and the rescaling z_1 = x_1 / sin^(3/2)(theta),
z_i = x_i / sin^(1/2)(theta) turns the weighted Laplacian
sin^3(theta) d11 + sin(theta) (d22 + ...) into the flat one.
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
    "NormEquivalenceReport",
    "LaplaceReport",
    "gauss_map_exact",
    "gauss_map_linearized",
    "gauss_unit_deficiency",
    "remainder_order_check",
    "remainder_ratio_certified",
    "theta_inner",
    "theta_norm_squared",
    "norm_equivalence_check",
    "norm_equivalence_certified",
    "z_coordinates",
    "x_from_z",
    "laplace_equivalence_check",
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


def _gauss_inputs(
    q: Sequence[float], theta: AngleLike, orientation: str
) -> tuple[list[float], float, float, int]:
    """Validated float gradient, sin, cos and orientation sign for the Gauss-map kernels."""
    theta = _interior_angle(theta)
    sign = _check_orientation(orientation)
    p = [float(v) for v in q]
    if not p:
        raise ValueError("gradient must have at least one component")
    s, c = _sin_cos(theta)
    return p, s, c, sign


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


def gauss_map_exact(q: Sequence[float], theta: AngleLike, orientation: str = "up") -> tuple[float, ...]:
    """Horizontal part of the unit normal of the slanted graph with gradient q."""
    return tuple(_gauss_exact(*_gauss_inputs(q, theta, orientation))[0])


def gauss_map_linearized(q: Sequence[float], theta: AngleLike, orientation: str = "up") -> tuple[float, ...]:
    """Affine linearization of the Gauss map at q = 0.

    First component -sign*cos(theta) + sin^3(theta) q_1, remaining
    components sin(theta) q_i.
    """
    return tuple(_gauss_linear(*_gauss_inputs(q, theta, orientation)))


def gauss_unit_deficiency(q: Sequence[float], theta: AngleLike, orientation: str = "up") -> float:
    """|G(q)|^2 + 1/(1 + |p|^2) - 1; identically zero for a unit normal."""
    g, w_sq = _gauss_exact(*_gauss_inputs(q, theta, orientation))
    return math.fsum(v * v for v in g) + 1.0 / w_sq - 1.0


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
# Weighted inner product and flattening coordinates.
# ---------------------------------------------------------------------------


def _theta_inner(x: Sequence[float], y: Sequence[float], s: float) -> float:
    head = s ** 3 * float(x[0]) * float(y[0])
    tail = s * math.fsum(float(a) * float(b) for a, b in zip(x[1:], y[1:]))
    return head + tail


def theta_inner(x: Sequence[float], y: Sequence[float], theta: AngleLike) -> float:
    """Weighted inner product sin^3(theta) x_1 y_1 + sin(theta) <x', y'>."""
    theta = _interior_angle(theta)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("x and y must be non-empty and of equal length")
    s, _ = _sin_cos(theta)
    return _theta_inner(x, y, s)


def theta_norm_squared(x: Sequence[float], theta: AngleLike) -> float:
    return theta_inner(x, x, theta)


class NormEquivalenceReport(Record):
    """Sandwich sin^3 |x|^2 <= |x|_theta^2 <= sin |x|^2 with stable slacks.

    Both slacks are evaluated as (sin - sin^3) times a sum of squares — a
    product of nonnegative factors — so they can never go negative from
    rounding.
    """

    __slots__ = ("theta_deg", "norm_sq", "theta_norm_sq", "slack_vs_upper", "slack_vs_lower")

    def __init__(
        self, theta_deg: float, norm_sq: float, theta_norm_sq: float, slack_vs_upper: float,
        slack_vs_lower: float,
    ) -> None:
        _fill(self, locals())

    @property
    def sandwiched(self) -> bool:
        return self.slack_vs_upper >= 0.0 and self.slack_vs_lower >= 0.0


def norm_equivalence_check(x: Sequence[float], theta: AngleLike) -> NormEquivalenceReport:
    """Slack of the weighted norm against its equivalence bounds.

    upper slack = sin(theta) |x|^2 - |x|_theta^2 = (sin - sin^3) x_1^2,
    lower slack = |x|_theta^2 - sin^3(theta) |x|^2 = (sin - sin^3) |x'|^2.
    """
    theta = _interior_angle(theta)
    if len(x) == 0:
        raise ValueError("x must be non-empty")
    s, _ = _sin_cos(theta)
    factor = s * (1.0 - s) * (1.0 + s)
    xf = [float(v) for v in x]
    head_sq = xf[0] * xf[0]
    tail_sq = math.fsum(v * v for v in xf[1:])
    return NormEquivalenceReport(
        theta_deg=float(theta.value.mid),
        norm_sq=head_sq + tail_sq,
        theta_norm_sq=_theta_inner(xf, xf, s),
        slack_vs_upper=factor * head_sq,
        slack_vs_lower=factor * tail_sq,
    )


def norm_equivalence_certified(theta: AngleLike) -> tuple[Interval, bool]:
    """Certified enclosure of the slack factor sin(1-sin)(1+sin) >= 0.

    Nonnegativity of this factor implies the norm sandwich for every
    vector, since both slacks are this factor times a sum of squares.
    """
    theta = _interior_angle(theta)
    s = theta.sin()
    one = Interval.point(Fraction(1))
    factor = s * (one - s) * (one + s)
    return factor, factor.lo >= 0


def z_coordinates(x: Sequence[float], theta: AngleLike) -> tuple[float, ...]:
    """Flattening coordinates z_1 = x_1 / sin^(3/2), z_i = x_i / sin^(1/2).

    In these coordinates the weighted Laplacian
    sin^3 d_11 + sin (d_22 + ...) becomes the Euclidean one: the direction
    of the rescaling is pinned by v = x_1^2, where both Laplacians must
    equal 2 sin^3(theta).
    """
    theta = _interior_angle(theta)
    if len(x) == 0:
        raise ValueError("x must be non-empty")
    s, _ = _sin_cos(theta)
    return _z_of_x(x, s)


def x_from_z(z: Sequence[float], theta: AngleLike) -> tuple[float, ...]:
    """Inverse of :func:`z_coordinates`."""
    theta = _interior_angle(theta)
    if len(z) == 0:
        raise ValueError("z must be non-empty")
    s, _ = _sin_cos(theta)
    return _x_of_z(z, s)


def _z_of_x(x: Sequence[float], s: float) -> tuple[float, ...]:
    root = math.sqrt(s)
    out = [float(x[0]) / (s * root)]
    out.extend(float(v) / root for v in x[1:])
    return tuple(out)


def _x_of_z(z: Sequence[float], s: float) -> tuple[float, ...]:
    root = math.sqrt(s)
    out = [float(z[0]) * s * root]
    out.extend(float(v) * root for v in z[1:])
    return tuple(out)


# ---------------------------------------------------------------------------
# Laplacian equivalence under the flattening map.
# ---------------------------------------------------------------------------


class LaplaceReport(Record):
    """Agreement of the weighted Laplacian with the flat one in z."""

    __slots__ = (
        "theta_deg", "polynomials", "points_per_polynomial", "degree", "step", "max_residual",
        "tolerance",
    )

    def __init__(
        self, theta_deg: float, polynomials: int, points_per_polynomial: int, degree: int,
        step: float, max_residual: float, tolerance: float,
    ) -> None:
        _fill(self, locals())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _monomials(ndim: int, degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining - 1, budget - e)

    rec(tuple(), ndim, degree)
    return out


def _poly_eval(coeffs: dict[tuple[int, ...], float], x: Sequence[float]) -> float:
    total = 0.0
    for expo, c in coeffs.items():
        term = c
        for xi, e in zip(x, expo):
            if e:
                term *= xi ** e
        total += term
    return total


def _weighted_laplacian(
    coeffs: dict[tuple[int, ...], float], x: Sequence[float], s: float
) -> float:
    """sin^3 d11 p + sin (d22 + ...) p, with exact polynomial derivatives."""
    total = 0.0
    for expo, c in coeffs.items():
        for i, e in enumerate(expo):
            if e < 2:
                continue
            term = c * e * (e - 1)
            for j, ej in enumerate(expo):
                power = ej - 2 if j == i else ej
                if power:
                    term *= x[j] ** power
            total += (s ** 3 if i == 0 else s) * term
    return total


def laplace_equivalence_check(
    theta: AngleLike,
    degree: int = 4,
    n_polys: int = 20,
    points_per_poly: int = 5,
    step: float = 1e-4,
    seed: int = 42,
    ndim: int = 3,
) -> LaplaceReport:
    """Check Delta_z (p o x(z)) = sin^3 d11 p + sin (d22+...) p numerically.

    Random polynomials of total degree <= ``degree`` are pushed through the
    flattening map; the flat Laplacian is formed by central second
    differences in z (step ``step``) and compared with the exactly
    differentiated weighted Laplacian in x.  The tolerance scales with the
    coefficient mass of each polynomial.
    """
    import numpy as np

    theta = _interior_angle(theta)
    if degree < 0 or degree > 4:
        raise ValueError("degree must lie in [0, 4]")
    s, _ = _sin_cos(theta)
    rng = np.random.default_rng(seed)
    monos = _monomials(ndim, degree)

    max_residual = 0.0
    max_tol = 0.0
    for _ in range(n_polys):
        coeffs = {expo: float(c) for expo, c in zip(monos, rng.standard_normal(len(monos)))}
        coeff_mass = max(1.0, math.fsum(abs(c) for c in coeffs.values()))
        tol = 1e-6 * coeff_mass
        max_tol = max(max_tol, tol)
        for _ in range(points_per_poly):
            x0 = rng.uniform(-1.0, 1.0, ndim)
            z0 = np.asarray(_z_of_x(x0, s))

            def v_of_z(z: np.ndarray) -> float:
                return _poly_eval(coeffs, _x_of_z(z, s))

            flat = 0.0
            for i in range(ndim):
                e = np.zeros(ndim)
                e[i] = step
                flat += (v_of_z(z0 + e) - 2.0 * v_of_z(z0) + v_of_z(z0 - e)) / step ** 2
            weighted = _weighted_laplacian(coeffs, x0, s)
            max_residual = max(max_residual, abs(flat - weighted))

    return LaplaceReport(
        theta_deg=float(theta.value.mid),
        polynomials=n_polys,
        points_per_polynomial=points_per_poly,
        degree=degree,
        step=step,
        max_residual=max_residual,
        tolerance=max_tol,
    )
