"""Tilt-function identities and the stability-margin certifier.

For a hypersurface with unit normal nu meeting a horizontal plane at contact
angle theta, the tilt function is

    g_{theta,k}(nu)^2 = cfrak + k * afrak^2,

where, writing nu1 and nu_last for the first and last components of nu,

    afrak = cos(theta) - nu1            (horizontal tilt defect)
    bfrak = nu1 + k * afrak
    cfrak = 1 - nu1^2 - nu_last^2       (squared norm of the middle block).

This module checks, numerically at scale and exactly where it matters:

* the pointwise algebraic identity that bounds |grad g|^2 by |A|^2 and
  the frame-sum identities for the tangential projections a1, a2, a3
  (``identity_campaigns``, proved by ``symbolic_identity_certificates``),
* positivity of the spectral stability margin
  1 + k cos^2(theta) - k |cos(theta)| - s(k, n, theta)
  on all of (0, 180) degrees, decided in one step from the closed-form factor
  4kn (v-1)^2 (k v^2 - k(n-1) v + 1) of an exact quartic in v = |cos(theta)|:
  it holds exactly when k(n-2) <= 1 (``certify_margin_positive``),
* the closed-ball comparison bounds between |Du|, the normal gap
  |nu - nu_theta|, and g, together with their applicability threshold
  (``appendix_campaigns``).

Each formula is written once, as a private kernel made only of arithmetic
operators and integer literals, so one body runs on floats, numpy arrays,
exact rationals and exact polynomials (:class:`conecert.exact.Polynomial`).
The ``*_campaigns`` functions evaluate the kernels on seeded random samples,
several configurations on one shared draw, and report worst-case residuals;
``symbolic_identity_certificates`` expands the same kernels as polynomials
and checks that each defect is the zero polynomial, as the margin certifier
does for its factorisation.  The campaigns sample the defects in the same
cleared form, with no division by g^2, so rounding stays rounding near the
zero locus of g.  The one frame-sum kernel takes the Gram entries of the
tangential projections: the proof gives it their unit-normal closed forms,
and proves those equal to the projections' Gram entries, while the
campaign reduces the entries from the projection vectors, so the sampled
check shares the kernel with the proof but not its inputs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # numpy loads inside the float functions, so exact commands never import it
    import numpy as np

from ._record import Record, _fill
from ._sampling import unit_gaussian_chunks
from .exact import (
    AngleDeg,
    Polynomial,
    RationalLike,
    _interior_angle,
    quadratic_real_roots,
    to_fraction,
)
from .report import CertificationReport

__all__ = [
    "TiltParams",
    "IdentityCampaignResult",
    "AppendixCampaignResult",
    "certify_margin_positive",
    "default_k",
    "identity_campaigns",
    "appendix_campaigns",
    "symbolic_identity_certificates",
    "BALL_RADIUS",
]

class TiltParams(Record):
    """Parameters (theta, k, n) of the tilt function.

    theta is a contact angle strictly between 0 and 180 degrees, n >= 2 the
    graph dimension, and 0 < k <= 1 the tilt weight.  The algebraic
    identities checked here hold for every such k, so campaigns may sweep k
    past the exact condition k(n-2) <= 1 under which the stability margin is
    positive on all of (0, 180) degrees (``certify_margin_positive``).
    """

    __slots__ = ("theta", "k", "n")

    def __init__(self, theta: AngleDeg | RationalLike, k: RationalLike, n: int) -> None:
        if not isinstance(k, Fraction):
            k = to_fraction(k)
        theta = _interior_angle(theta)
        if n < 2:
            raise ValueError("n must be at least 2")
        if not 0 < k <= 1:
            raise ValueError(f"k must lie in (0, 1], got {k}")
        _fill(self, locals())

    @property
    def cos_theta(self) -> float:
        return float(self.theta.cos())

    @property
    def sin_squared(self) -> float:
        return float(self.theta.sin_squared())

    @property
    def k_float(self) -> float:
        return float(self.k)


# ---------------------------------------------------------------------------
# Pointwise quantities.
# ---------------------------------------------------------------------------


class _TiltTerms(NamedTuple):
    """The tilt terms; floats, numpy arrays, Fractions or exact polynomials."""

    afrak: object
    bfrak: object
    cfrak: object
    g2: object


def _tilt_terms(nu1, nu_last, cos_t, k) -> _TiltTerms:
    """afrak, bfrak, cfrak and g^2 at normals with first/last components nu1, nu_last."""
    afrak = cos_t - nu1
    bfrak = nu1 + k * afrak
    cfrak = 1 - nu1 ** 2 - nu_last ** 2
    g2 = cfrak + k * afrak ** 2
    return _TiltTerms(afrak, bfrak, cfrak, g2)


def _gradient_defect(nu1, nu_last, k, t: _TiltTerms):
    """jfrak and the defect of the gradient-bound identity (zero when it holds).

    jfrak = bfrak^2 + nu_last^2 - (bfrak nu1 + nu_last^2)^2, and the defect is
    g^2 - jfrak - [(cfrak - k nu1 afrak)^2 + k (1 - k) afrak^2].
    """
    jfrak = t.bfrak ** 2 + nu_last ** 2 - (t.bfrak * nu1 + nu_last ** 2) ** 2
    sum_of_squares = (t.cfrak - k * nu1 * t.afrak) ** 2 + k * (1 - k) * t.afrak ** 2
    return jfrak, t.g2 - jfrak - sum_of_squares


def _frame_defects(gram: tuple, nu_last, k, sin_sq, t: _TiltTerms):
    """g^2 times the defects of the two frame-sum identities, from Gram entries.

    ``gram`` holds (g11, g12, g22) = (|e1^T|^2, <e1^T, e_{n+1}^T>, |e_{n+1}^T|^2),
    the Gram entries of the tangential projections v^T = v - <v, nu> nu, and
    ``t`` the ``_tilt_terms`` of the same normals.  The projections
    a1 = sqrt(1-k) e1^T, a2 = e_{n+1}^T and a3 = (bfrak e1^T + nu_last e_{n+1}^T)/g
    are combinations of e1^T and e_{n+1}^T, so by bilinearity every product in

        sum |a_i|^2      = 1 + (1 - k sin^2 theta) w,
        sum |a_i ^ a_j|^2 = (1 - k sin^2 theta) w,

    with w = cfrak / g^2 in [0, 1], is a combination of the Gram entries.
    sqrt(1-k) enters only squared, and the identities are cleared of g^2,
    so the defects are polynomials that expand exactly and stay accurate
    near the zero locus of g.
    """
    g11, g12, g22 = gram
    b = t.bfrak
    a1sq = (1 - k) * g11
    # g^2 |a3|^2, g <a1, a3> / sqrt(1-k) and g <a2, a3>.
    a3sq_g2 = b * b * g11 + 2 * b * nu_last * g12 + nu_last * nu_last * g22
    a1a3_g = b * g11 + nu_last * g12
    a2a3_g = b * g12 + nu_last * g22
    wedge_12 = a1sq * g22 - (1 - k) * g12 * g12
    wedges_3_g2 = a1sq * a3sq_g2 - (1 - k) * a1a3_g * a1a3_g + g22 * a3sq_g2 - a2a3_g * a2a3_g
    factor_w_g2 = (1 - k * sin_sq) * t.cfrak
    sum_defect = (a1sq + g22 - 1) * t.g2 + a3sq_g2 - factor_w_g2
    return sum_defect, wedge_12 * t.g2 + wedges_3_g2 - factor_w_g2


def _unit_normal_gram(nu1, nu_last) -> tuple:
    """The Gram entries of ``_frame_defects`` in closed form for a unit normal."""
    return 1 - nu1 ** 2, -nu1 * nu_last, 1 - nu_last ** 2


def _signed_gap(inner_product, g2):
    """2 (1 - <nu, nu_ref>) - g^2; with |<nu, nu_ref>| it is the tilt-vs-gap slack."""
    return 2 * (1 - inner_product) - g2


def _tangent_projections(nu: np.ndarray) -> tuple:
    """Gram entries |e1^T|^2, <e1^T, e_{n+1}^T> and |e_{n+1}^T|^2 at an (N, n+1) array of unit normals.

    For a fixed vector v, the tangential projection is v^T = v - <v, nu> nu.
    The entries are reduced from the two projection vectors themselves, not
    read off their unit-normal closed forms (``_unit_normal_gram``), which
    the symbolic certificate feeds to ``_frame_defects``; so the float
    check shares that kernel with the proof but not its Gram entries.  They
    depend on the normals alone, so configurations that share a draw share
    them.
    """
    import numpy as np

    e1_t = -nu[:, :1] * nu
    e1_t[:, 0] += 1.0
    ep_t = -nu[:, -1:] * nu
    ep_t[:, -1] += 1.0
    return tuple(np.einsum("ij,ij->i", u, v) for u, v in ((e1_t, e1_t), (e1_t, ep_t), (ep_t, ep_t)))


# ---------------------------------------------------------------------------
# The stability margin.
# ---------------------------------------------------------------------------


def _margin_terms(v, k, n):
    """L and D with margin = (L - sqrt(D)) / (2n) at v = |cos theta|.

    With t = 1 - k sin^2 theta = 1 - k (1 - v^2), s = f_n(t) is
    [(n-1)(1+t) + sqrt(D)] / (2n) and L = 2n (1 + k v^2 - k v) - (n-1)(1+t).
    As a quadratic in v, L has the negative discriminant 4k(k - 2n - 2), so
    L > 0 and the margin has the sign of L^2 - D.
    """
    t = 1 - k * (1 - v ** 2)
    return 2 * n * (1 + k * v ** 2 - k * v) - (n - 1) * (1 + t), 4 * t + (n - 1) ** 2 * (1 - t) ** 2


def _margin_factor_coeffs(k, n):
    """(a, b, c) of R(v) = a v^2 + b v + c = k v^2 - k(n-1) v + 1; L^2 - D = 4kn (v-1)^2 R(v)."""
    return k, -k * (n - 1), 1


@functools.cache
def _margin_factorisation_holds() -> bool:
    """Whether L^2 - D expands to 4kn (v-1)^2 R(v) in (v, k, n); expanded once per process."""
    v, k, n = Polynomial.variables(3)
    lead, radicand = _margin_terms(v, k, n)
    a, b, c = _margin_factor_coeffs(k, n)
    return lead ** 2 - radicand == 4 * k * n * (v - 1) ** 2 * (a * v ** 2 + b * v + c)


def default_k(n: int) -> Fraction:
    """The canonical k for dimension n: 1 for n = 2, else 1/(n-2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return Fraction(1) if n == 2 else Fraction(1, n - 2)


def certify_margin_positive(n: int, k: RationalLike) -> CertificationReport:
    """Decide margin > 0 at every theta in (0, 180) degrees.

    The margin has the sign of L^2 - D = 4kn (v-1)^2 R(v) at v = |cos theta|
    (``_margin_terms`` and ``_margin_factor_coeffs``; a factorisation that
    does not expand raises RuntimeError), and v < 1 inside the range.
    R(0) = 1 and R(1) = 1 - k(n-2); R falls on [0, 1] for n >= 3 (its vertex
    is at (n-1)/2) and R >= 1 - k/4 for n = 2.  So k(n-2) <= 1 certifies the
    claim in one rational comparison; otherwise the smaller root v* of R
    lies in (0, 1), and the margin is negative wherever v* < |cos theta| < 1.
    """
    k = to_fraction(k)
    if n < 2 or not 0 < k <= 1:
        raise ValueError("need n >= 2 and k in (0, 1]")
    if not _margin_factorisation_holds():
        raise RuntimeError("L^2 - D does not expand to 4kn (v-1)^2 R(v); the margin is left undecided")
    factor = _margin_factor_coeffs(k, n)
    payload = {"margin_factor_coeffs": factor}
    if k * (n - 2) <= 1:
        verdict, decided_by = "certified", f"k(n-2) = {k * (n - 2)} <= 1"
    else:
        payload["v_star"] = v_star = quadratic_real_roots(*factor)[0]
        verdict, decided_by = "falsified", f"k(n-2) = {k * (n - 2)} > 1; margin < 0 where v* = {v_star} < |cos theta|"
    return CertificationReport(
        claim=f"stability margin 1 + k cos^2 - k|cos| - s(k,n,theta) > 0 "
        f"for n={n}, k={k}, theta in (0, 180) degrees",
        method="exact", verdict=verdict, payload=payload, provenance={"decided_by": decided_by},
    )


# ---------------------------------------------------------------------------
# Closed-ball comparison bounds ("appendix bounds").
# ---------------------------------------------------------------------------


def _appendix_inputs(n: int, theta: AngleDeg, orientation: str):
    """Validate the comparison-bound inputs; return k = ``default_k(n)``, cos(theta) and sin(theta).

    Kept apart from ``_appendix_slacks`` because a campaign needs the
    validated angle to centre its ball before it has a sample to pass there.
    """
    if orientation not in ("up", "down"):
        raise ValueError(f"orientation must be 'up' or 'down', got {orientation!r}")
    if n < 2:
        raise ValueError("graph dimension must be at least 2")
    theta = _interior_angle(theta)
    return default_k(n), float(theta.cos()), float(theta.sin())


def _appendix_slacks(first: np.ndarray, rho: np.ndarray, k: Fraction, c: float, s: float, orientation: str) -> dict:
    """The comparison-bound slacks at N graph gradients Du, given as the
    first components Du_1 and rho = |Du'|^2, the squared norm of the rest.

    The four conditional bounds hold under the applicability threshold
    g^2 <= c_small = min(k s^2/64, sqrt(k/(k + 1 + 16/s^2))), s = sin theta, which is k s^2/64
    here: squared, the first term is the smaller iff k s^4 (k + 1 + 16/s^2) < 4096, and for
    k = ``default_k(n)`` in (0, 1] and s^2 in (0, 1] the left side is at most 2 + 16 = 18.
    Slacks are (bound rhs) - (bound lhs), so a valid bound has slack >= 0:

    * ``gradient_shift``: C(theta) |nu - nu_ref|^2 - |Du -/+ cot(theta) e1|^2
      with C(theta) = (4/sin^2)(3 + 2 cot^2),
    * ``normal_gap``: (1/k + 1 + 16/(k sin^2)) g^2 - |nu - nu_ref|^2,
    * ``gradient_size``: (4/sin^2 - 1) - |Du|^2,
    * ``tilt_vs_gap``: 2 (1 - |<nu, nu_ref>|) - g^2.

    ``signed_gap`` = 2 (1 - <nu, nu_ref>) - g^2 holds unconditionally (for
    the admissible k), which makes it a smoke check far from the reference
    normal.

    The graph normal is nu = sigma (-Du, 1) / W with W = sqrt(1 + |Du|^2)
    and sigma = +-1 by orientation, and nu_ref = (cos, 0, ..., sigma sin).
    Only nu1, nu_last and the middle block's squared norm rho / W^2 enter,
    so each slack is O(N) scalar work on Du_1 and rho.

    Returns per-row arrays (``applicable``, the ``slacks`` and the
    ``violated`` masks, both keyed by bound name, conditional bounds first)
    and the scalar ``c_small``.
    """
    import numpy as np

    kf = float(k)
    s2 = s * s
    cot = c / s
    sign = 1.0 if orientation == "up" else -1.0
    du_sq = first ** 2 + rho
    W = np.sqrt(1.0 + du_sq)
    nu1 = -sign * first / W
    nu_last = sign / W
    ip = nu1 * c + nu_last * (sign * s)
    gap_sq = (nu1 - c) ** 2 + rho / W ** 2 + (nu_last - sign * s) ** 2
    g_sq = _tilt_terms(nu1, nu_last, c, kf).g2

    c_small = kf * s2 / 64.0
    big_c_theta = (4.0 / s2) * (3.0 + 2.0 * (cot * cot))
    gap_coeff = 1.0 / kf + 1.0 + 16.0 / (kf * s2)
    # The reference gradient is -cot(theta) e1 for "up", +cot(theta) e1 for
    # "down"; the first bound controls the distance of Du to it.
    shift = cot if orientation == "up" else -cot
    du_shift_sq = (first + shift) ** 2 + rho

    slacks = {
        "gradient_shift": big_c_theta * gap_sq - du_shift_sq,
        "normal_gap": gap_coeff * g_sq - gap_sq,
        "gradient_size": (4.0 / s2 - 1.0) - du_sq,
        "tilt_vs_gap": _signed_gap(np.abs(ip), g_sq),
        "signed_gap": _signed_gap(ip, g_sq),
    }
    applicable = g_sq <= c_small
    conditional = ("gradient_shift", "normal_gap", "gradient_size", "tilt_vs_gap")
    # Written as "not >=" so that a NaN slack counts as a violation.
    violated = {name: applicable & ~(slacks[name] >= -1e-12) for name in conditional}
    violated["signed_gap"] = ~(slacks["signed_gap"] >= -1e-12)
    return {"applicable": applicable, "slacks": slacks, "violated": violated, "c_small": c_small}


# ---------------------------------------------------------------------------
# Symbolic certificates.
# ---------------------------------------------------------------------------


def symbolic_identity_certificates() -> dict[str, bool]:
    """Prove the module's algebraic identities by symbolic expansion.

    The campaigns sample these identities numerically; this function
    certifies each one exactly by evaluating the very kernels the campaigns
    run on polynomial variables (nu1, nu_last, cos theta, k) and checking
    that the resulting defect is the zero polynomial.  Only |nu|^2 = 1 and
    cos^2 + sin^2 = 1 are used:

    * ``gradient_bound_identity``: g^2 - jfrak equals an explicit sum of
      squares, hence jfrak <= g^2;
    * ``projection_gram_identity``: the Gram entries of e1^T and e_{n+1}^T,
      expanded by bilinearity from v^T = v - <v, nu> nu with |nu|^2 kept as
      a variable, equal the closed forms ``_unit_normal_gram`` once
      |nu|^2 = 1, for every n >= 2;
    * ``frame_sum_identity`` and ``wedge_sum_identity``: the two frame-sum
      formulas on those closed forms, cleared of the g^2 denominator;
    * ``signed_gap_identity``: 2(1 - <nu, nu_ref>) - g^2 equals
      (1-k)(nu1 - cos)^2 + (nu_last -/+ sin)^2, hence is non-negative for
      k <= 1, for either orientation of the reference normal.

    The expansion runs once per process; each call returns a fresh dict.
    """
    return dict(_symbolic_certificates())


@functools.cache
def _symbolic_certificates() -> dict[str, bool]:
    k, c, S, n1, npp, norm = Polynomial.variables(6)
    t = _tilt_terms(n1, npp, c, k)
    _, gradient_defect = _gradient_defect(n1, npp, k, t)
    gram = _unit_normal_gram(n1, npp)
    sum_defect, wedge_defect = _frame_defects(gram, npp, k, 1 - c ** 2, t)
    # e1^T and e_{n+1}^T as coordinates on (e1, e_{n+1}, nu), whose Gram matrix has
    # <e_i, nu> = nu_i and |nu|^2 = norm^2; e1 and e_{n+1} are orthonormal for n >= 2.
    basis = ((1, 0, n1), (0, 1, npp), (n1, npp, norm ** 2))
    e1_t, ep_t = (1, 0, -n1), (0, 1, -npp)
    projected = [
        sum(u[i] * basis[i][j] * v[j] for i in range(3) for j in range(3))
        for u, v in ((e1_t, e1_t), (e1_t, ep_t), (ep_t, ep_t))
    ]
    # S stands for +sin (up) or -sin (down); only S^2 = 1 - c^2 is used.
    signed = _signed_gap(n1 * c + npp * S, t.g2) - ((1 - k) * (n1 - c) ** 2 + (npp - S) ** 2)
    return {
        "gradient_bound_identity": gradient_defect == 0,
        "projection_gram_identity": all((p - q).reduce_square(5, 1) == 0 for p, q in zip(projected, gram)),
        "frame_sum_identity": sum_defect == 0,
        "wedge_sum_identity": wedge_defect == 0,
        "signed_gap_identity": signed.reduce_square(2, 1 - c ** 2) == 0,
    }


# ---------------------------------------------------------------------------
# Campaigns: seeded random sweeps of the cleared defects.
# ---------------------------------------------------------------------------


class IdentityCampaignResult(Record):
    """Worst-case cleared defects over a random sweep of unit normals."""

    __slots__ = (
        "samples", "max_gradient_residual", "max_frame_sum_residual", "max_wedge_sum_residual",
        "max_j_minus_g2",
    )

    def __init__(
        self, samples: int, max_gradient_residual: float, max_frame_sum_residual: float,
        max_wedge_sum_residual: float, max_j_minus_g2: float,
    ) -> None:
        _fill(self, locals())


class _IdentityFold:
    """One configuration's constants and running extrema in ``identity_campaigns``."""

    def __init__(self, params: TiltParams):
        # Each constant is a Taylor series on the fixed-point grid: read it once, not per chunk.
        self.k = params.k_float
        self.cos_t = params.cos_theta
        self.sin_sq = params.sin_squared
        # Running maxima of |gradient defect|, |g^2 frame-sum defect|, |g^2 wedge-sum defect|
        # and jfrak - g^2.
        self.worst = [-math.inf] * 4

    def add(self, nu: np.ndarray, gram: tuple) -> None:
        import numpy as np

        nu1, nup = nu[:, 0], nu[:, -1]
        t = _tilt_terms(nu1, nup, self.cos_t, self.k)
        jfrak, defect = _gradient_defect(nu1, nup, self.k, t)
        sum_defect, wedge_defect = _frame_defects(gram, nup, self.k, self.sin_sq, t)
        self.worst = np.maximum(
            self.worst, [*(np.max(np.abs(d)) for d in (defect, sum_defect, wedge_defect)), np.max(jfrak - t.g2)]
        )

    def result(self, samples: int) -> IdentityCampaignResult:
        return IdentityCampaignResult(samples, *(float(w) for w in self.worst))


def identity_campaigns(
    params_seq: Sequence[TiltParams], samples: int = 100_000, seed: int = 42
) -> list[IdentityCampaignResult]:
    """Check the gradient and frame identities at many random unit normals.

    Normals are drawn uniformly on the sphere (normalised Gaussians) with a
    fixed seed, in chunks of ``_sampling.CHUNK_ROWS`` rows.  Each chunk is
    one draw in the widest normal dimension n + 1 of ``params_seq``; a
    configuration of graph dimension n reads the normalised prefix of its
    first n + 1 columns, which is uniform on its sphere, and each prefix is
    reduced to its Gram entries once and evaluated for every configuration
    of that dimension.  So the results, in the order of ``params_seq``, are
    those of one draw per configuration on the prefix of the widest draw.
    The defects are sampled in the cleared form the certificate proves,
    with no division by g^2, so near the zero locus of g they are rounding
    as anywhere else; jfrak - g^2 is minus a sum of squares, so it is <= 0
    up to rounding.  The maxima fold with ``np.maximum``, so a NaN residual
    reaches the result.
    """
    import numpy as np

    if not params_seq:
        raise ValueError("need at least one configuration")
    if samples < 1:
        raise ValueError("samples must be positive")
    folds = [_IdentityFold(params) for params in params_seq]
    by_width: dict[int, list[_IdentityFold]] = {}
    for params, fold in zip(params_seq, folds):
        by_width.setdefault(params.n + 1, []).append(fold)
    for nu in unit_gaussian_chunks(np.random.default_rng(seed), samples, tuple(sorted(by_width))):
        gram = _tangent_projections(nu)
        for fold in by_width[nu.shape[1]]:
            fold.add(nu, gram)
        del nu, gram  # before the sampler makes the next prefix, so one is alive at a time
    return [fold.result(samples) for fold in folds]


# The radius of the balls of gradients that ``appendix_campaigns`` samples.
BALL_RADIUS = 0.05


class AppendixCampaignResult(Record):
    """Worst-case comparison-bound slacks over a ball of graph gradients."""

    __slots__ = (
        "samples", "c_small", "all_applicable", "min_slack_gradient_shift", "min_slack_normal_gap",
        "min_slack_gradient_size", "min_slack_tilt_vs_gap", "min_signed_gap_slack", "violation_count",
    )

    def __init__(
        self, samples: int, c_small: float, all_applicable: bool, min_slack_gradient_shift: float,
        min_slack_normal_gap: float, min_slack_gradient_size: float, min_slack_tilt_vs_gap: float,
        min_signed_gap_slack: float, violation_count: int,
    ) -> None:
        _fill(self, locals())


class _AppendixFold:
    """One configuration's ball centre and running extrema in ``appendix_campaigns``."""

    def __init__(self, n: int, theta: AngleDeg, orientation: str):
        self.k, self.c, self.s = _appendix_inputs(n, theta, orientation)
        self.orientation = orientation
        cot = self.c / self.s
        # The centre's first coordinate; the others are 0.
        self.center = -cot if orientation == "up" else cot
        self.c_small = None
        self.all_applicable = True
        self.min_slacks = {}
        self.violations = 0

    def add(self, first_offset: np.ndarray, rho: np.ndarray) -> None:
        import numpy as np

        out = _appendix_slacks(self.center + first_offset, rho, self.k, self.c, self.s, self.orientation)
        self.c_small = out["c_small"]
        self.all_applicable = self.all_applicable and bool(np.all(out["applicable"]))
        for name, values in out["slacks"].items():
            self.min_slacks[name] = np.minimum(self.min_slacks.get(name, np.inf), np.min(values))
        self.violations += sum(int(np.count_nonzero(hit)) for hit in out["violated"].values())

    def result(self, samples: int) -> AppendixCampaignResult:
        return AppendixCampaignResult(
            samples=samples,
            c_small=self.c_small,
            all_applicable=self.all_applicable,
            min_slack_gradient_shift=float(self.min_slacks["gradient_shift"]),
            min_slack_normal_gap=float(self.min_slacks["normal_gap"]),
            min_slack_gradient_size=float(self.min_slacks["gradient_size"]),
            min_slack_tilt_vs_gap=float(self.min_slacks["tilt_vs_gap"]),
            min_signed_gap_slack=float(self.min_slacks["signed_gap"]),
            violation_count=self.violations,
        )


def appendix_campaigns(
    n: int,
    configurations: Sequence[tuple[AngleDeg, str]],
    samples: int = 10_000,
    seed: int = 42,
) -> list[AppendixCampaignResult]:
    """Sweep the comparison bounds over balls of gradients, one per (theta, orientation).

    Each ball has radius ``BALL_RADIUS`` and is centred at the reference
    gradient (the one whose graph normal equals the reference normal), so
    every sample lies in the applicable regime and all slacks must be
    non-negative.  The tilt weight is ``default_k(n)``.

    The seed spawns two independent streams, one for the directions and
    one for the radii, so the sweep draws both chunk by chunk side by side.
    The balls differ only in their centres' first coordinates, so each
    chunk of offsets (radius times direction) is drawn and reduced once, to
    its first column and the squared norm of the rest, and each
    configuration adds its centre to that column; the results, in the order
    of ``configurations``, are those of one draw per configuration.
    """
    import numpy as np

    if not configurations:
        raise ValueError("need at least one configuration")
    folds = [_AppendixFold(n, theta, orientation) for theta, orientation in configurations]
    if samples < 1:
        raise ValueError("samples must be positive")

    streams = np.random.SeedSequence(seed).spawn(2)
    dirs_rng, radii_rng = (np.random.default_rng(stream) for stream in streams)
    for dirs in unit_gaussian_chunks(dirs_rng, samples, (n,)):
        radii = BALL_RADIUS * radii_rng.random(dirs.shape[0]) ** (1.0 / n)
        offsets = radii[:, None] * dirs
        rest = offsets[:, 1:]
        rho = np.einsum("ij,ij->i", rest, rest)
        for fold in folds:
            fold.add(offsets[:, 0], rho)
    return [fold.result(samples) for fold in folds]
