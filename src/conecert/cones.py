"""Cone-stability constants: the symmetric-function sup p_n, the threshold
functional, and per-dimension certification.

The central object is the 0-homogeneous symmetric function

    f_{m,q}(x) = (P3 + (1-q) P1 P2 - q P1^3) / (P2 + P1^2)^(3/2),

with P_k the k-th power sum of x in R^m.  Its supremum over the unit sphere
(the constant p whose square enters the threshold functional) is computed
two ways:

* exactly, by enumerating critical points — every critical point takes at
  most two distinct coordinate values, so candidates are the diagonal plus
  the real roots of an explicit quadratic for each split a + b = m
  (``sup_abs_f_two_value``).  Roots and f^2 values are exact
  :class:`~conecert.exact.QuadraticSurd` numbers of Q(sqrt(disc)), and the
  champion is chosen by the exact order :func:`~conecert.exact.compare`,
  which also decides sup^2 against p^2 across fields;
* approximately from below, by sampling pseudo-random Gaussian directions
  on the sphere plus projected gradient ascent (``brute_force_sup``), an
  independent oracle that must agree with the enumeration to 1e-8.

On top sit the exact threshold functional ``m_functional``, the parameter
constraint ``constraint_holds``, per-dimension certification combining both
with certified angle windows (``certify_dimension``), the contact-angle /
critical-dimension table (``n_theta_table``), a deterministic parameter
optimizer, and the angle-free n=3 exponent computation.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # numpy loads inside the float functions, so exact commands never import it
    import numpy as np

from ._record import Record, _fill
from ._sampling import row_sums, unit_gaussian_chunks
from .exact import (
    Interval,
    QuadraticSurd,
    RationalLike,
    _interior_angle,
    _window_gap,
    angle_range_from_threshold,
    compare,
    quadratic_real_roots,
    to_fraction,
)
from .report import CertificationReport

__all__ = [
    "TwoValuePoint",
    "ConeParams",
    "ConeParamsError",
    "SupResult",
    "BruteForceResult",
    "ConstraintReport",
    "NThetaRow",
    "NThetaTable",
    "OptimizeResult",
    "N3Report",
    "CALIBRATED_PARAMS",
    "calibrated_defaults",
    "critical_quadratic_coeffs",
    "two_value_critical_x",
    "sup_abs_f_two_value",
    "brute_force_sup",
    "check_oracle_q",
    "check_oracle_size",
    "MIN_ORACLE_SAMPLES",
    "ORACLE_AGREEMENT",
    "ORACLE_ASCENT_STEPS",
    "OPTIMIZE_MAX_BUDGET",
    "SUP_VS_P2",
    "m_functional",
    "constraint_holds",
    "certify_dimension",
    "n_theta_table",
    "optimize_params",
    "n3_coefficients",
]

ExactScalar = Union[Fraction, QuadraticSurd]


# ---------------------------------------------------------------------------
# Two-value enumeration.
# ---------------------------------------------------------------------------


class TwoValuePoint(Record):
    """The vector with ``a`` copies of ``x`` followed by ``b`` copies of ``y``."""

    __slots__ = ("a", "b", "x", "y")

    def __init__(self, a: int, b: int, x: Union[Fraction, float], y: Union[Fraction, float]) -> None:
        if a < 1 or b < 1:
            raise ValueError("multiplicities must be positive")
        if x == 0 and y == 0:
            raise ValueError("(x, y) must not be (0, 0)")
        _fill(self, locals())


def critical_quadratic_coeffs(a: int, b: int, q: RationalLike) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients of the off-diagonal critical-point quadratic in x (y = 1).

    Critical points of f with a copies of x and b copies of y satisfy
    (away from the diagonal x = y)

        (2+q) a (a+1) x^2 + [3 (1 + a + b) + 2 (2+q) a b] x y
                          + (2+q) b (b+1) y^2 = 0.

    The middle coefficient groups the linear-in-multiplicity part as
    3(1 + a + b): this is forced by the cross-check that for
    (a, b, q) = (1, 2, 6/11) the quadratic must have the rational root
    x = -7/2 (giving the known maximizer direction (1, -2/7, -2/7)),
    which fails under the superficially similar grouping 3 + a + b.
    """
    if a < 1 or b < 1:
        raise ValueError("multiplicities must be positive")
    q = to_fraction(q)
    A = (2 + q) * a * (a + 1)
    B = 3 * (1 + a + b) + 2 * (2 + q) * a * b
    C = (2 + q) * b * (b + 1)
    return A, B, C


def two_value_critical_x(a: int, b: int, q: RationalLike) -> list[QuadraticSurd]:
    """Exact real critical values x (with y = 1) for the split (a, b); 0-2 roots, ascending."""
    return quadratic_real_roots(*critical_quadratic_coeffs(a, b, q))


def _f_terms(p1, p2, p3, q):
    """The numerator N and base = P2 + P1^2 of f = N / base^1.5 from the power sums P1, P2, P3.

    Only + - * and integer literals, so one body runs on exact surds and on numpy rows.
    """
    return p3 + (1 - q) * p1 * p2 - q * (p1 * p1 * p1), p2 + p1 * p1


def _f_squared_exact(a: int, b: int, q: Fraction, x: QuadraticSurd) -> QuadraticSurd:
    """Exact f^2 at the point with a copies of x and b copies of 1."""
    x2 = x * x
    N, base = _f_terms(x * a + b, x2 * a + b, x2 * x * a + b, q)
    return (N * N) / (base * base * base)


class SupResult(Record):
    """Result of the exhaustive two-value sup computation.

    ``f_squared`` is the exact maximal f^2: a Fraction when it is rational,
    otherwise an irrational :class:`QuadraticSurd`.  ``value``
    is the sup of |f|: the exact :class:`QuadraticSurd` ``coeff*sqrt(d)``
    when f^2 is rational, otherwise the square root of the enclosure
    ``f_squared.to_interval()``.  ``witness`` is normalised: scaled so the
    largest-magnitude coordinate is 1 and sorted descending.
    """

    __slots__ = ("value", "f_squared", "witness", "witness_source", "exhaustive", "candidates")

    def __init__(
        self, value: Union[QuadraticSurd, Interval], f_squared: ExactScalar, witness: TwoValuePoint,
        witness_source: str, exhaustive: bool, candidates: tuple[dict, ...] = (),
    ) -> None:
        _fill(self, locals())

    def __float__(self) -> float:
        return float(self.value)


def _normalize_witness(a: int, b: int, x: QuadraticSurd) -> TwoValuePoint:
    """Canonical form of (x,...,x, 1,...,1): largest coordinate 1, sorted."""
    if x.is_rational:
        r = x.rational
        if abs(r) > 1:
            return TwoValuePoint(a=a, b=b, x=Fraction(1), y=1 / r)
        return TwoValuePoint(a=b, b=a, x=Fraction(1), y=r)
    if abs(float(x)) > 1:
        return TwoValuePoint(a=a, b=b, x=1.0, y=float(1 / x))
    return TwoValuePoint(a=b, b=a, x=1.0, y=float(x))


def sup_abs_f_two_value(m: int, q: RationalLike) -> SupResult:
    """Exact sup of |f_{m,q}| over all critical configurations.

    Enumerates, for every split a + b = m, the real roots of the critical
    quadratic (the two-value critical points), then the diagonal point
    (1,...,1) — the single-value case the quadratic excludes.  The champion
    is selected by exact comparison of f^2 values; ties keep the earliest
    candidate, so a root witness is preferred over an equal diagonal value.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    q = to_fraction(q)
    if q <= 0:
        raise ValueError("q must be positive")

    best_f2: Optional[ExactScalar] = None
    best_witness: Optional[TwoValuePoint] = None
    best_source = ""
    candidates: list[dict] = []

    for a in range(1, m):
        b = m - a
        for root in two_value_critical_x(a, b, q):
            f2 = _f_squared_exact(a, b, q, root)
            f2_simple: ExactScalar = f2.rational if f2.is_rational else f2
            candidates.append({"kind": "critical_root", "a": a, "b": b})
            if best_f2 is None or compare(f2_simple, best_f2) > 0:
                best_f2 = f2_simple
                best_witness = _normalize_witness(a, b, root)
                best_source = "critical_root"

    # Diagonal (single-value) candidate: x = (1, ..., 1).
    diag_f2 = _f_squared_exact(1, m - 1, q, QuadraticSurd(1)).rational
    candidates.append({"kind": "diagonal", "a": 1, "b": m - 1})
    if best_f2 is None or compare(diag_f2, best_f2) > 0:
        best_f2 = diag_f2
        best_witness = TwoValuePoint(a=1, b=m - 1, x=Fraction(1), y=Fraction(1))
        best_source = "diagonal"

    assert best_f2 is not None and best_witness is not None
    if isinstance(best_f2, Fraction):
        value: Union[QuadraticSurd, Interval] = QuadraticSurd.from_square(best_f2)
    else:
        enclosure = best_f2.to_interval()
        value = enclosure.clamp(Fraction(0), enclosure.hi).sqrt()
    return SupResult(
        value=value,
        f_squared=best_f2,
        witness=best_witness,
        witness_source=best_source,
        exhaustive=True,
        candidates=tuple(candidates),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


class BruteForceResult(Record):
    """Best |f| found by random sphere sampling plus gradient ascent."""

    __slots__ = ("value", "witness", "samples", "steps")

    def __init__(self, value: float, witness: tuple[float, ...], samples: int, steps: int) -> None:
        _fill(self, locals())


def _f_parts(x: np.ndarray, q: float) -> tuple:
    """x^2, P1, P2, the numerator N, base = P2 + P1^2, base^1.5 and f for rows of x."""
    import numpy as np

    # Only + - * / and sqrt, which IEEE 754 rounds correctly: numpy sends
    # float powers to SIMD kernels picked per CPU, which round differently.
    x2 = x * x
    p1 = row_sums(x)
    p2 = row_sums(x2)
    p3 = row_sums(x2 * x)
    N, base = _f_terms(p1, p2, p3, q)
    b15 = base * np.sqrt(base)
    return x2, p1, p2, N, base, b15, N / b15


def _f_value(x: np.ndarray, q: float) -> np.ndarray:
    """Vectorised f values for rows of x, bitwise equal to ``_f_and_gradient``'s."""
    return _f_parts(x, q)[-1]


def _f_and_gradient(x: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised f values and Euclidean gradients for rows of x."""
    x2, p1, p2, N, base, b15, f = _f_parts(x, q)
    b25 = base * b15
    dN = 3.0 * x2 + (1.0 - q) * (p2[:, None] + 2.0 * p1[:, None] * x) - 3.0 * q * (p1 * p1)[:, None]
    dbase = 2.0 * x + 2.0 * p1[:, None]
    grad = dN / b15[:, None] - 1.5 * N[:, None] * dbase / b25[:, None]
    return f, grad


# The oracle streams its draw in chunks, so memory does not grow with the
# draw; this caps its work, the samples x m coordinates it draws and scores.
ORACLE_MAX_DOUBLES = 2 ** 25

# The fewest samples the oracle draws, the ascent starts it keeps from the
# draw (the rows of largest |f|), and the most gradient-ascent steps it takes.
MIN_ORACLE_SAMPLES = 10_000
_ORACLE_STARTS = 512
ORACLE_ASCENT_STEPS = 200
# The oracle agrees with an exact sup that it does not exceed by more than this.
ORACLE_AGREEMENT = 1e-8


def check_oracle_size(m: int, samples: int) -> None:
    """Raise ValueError if an oracle draw of ``samples`` points in R^m would exceed ORACLE_MAX_DOUBLES."""
    if samples * m > ORACLE_MAX_DOUBLES:
        raise ValueError(
            f"the oracle would draw {samples} points in R^{m}, {samples * m} coordinates in all; "
            f"the limit is {ORACLE_MAX_DOUBLES} coordinates, which bounds its work, "
            "so lower the samples or m"
        )


def check_oracle_q(m: int, q: RationalLike) -> float:
    """q as the oracle's double; ValueError unless f_{m,q} and f^2 fit in doubles.

    The oracle computes f in doubles and the report gives f^2 as one.  On
    the unit sphere |x_i| <= 1 and |P1| <= m, so |f| <= 1 + (1 + q) m + q m^2;
    a q whose bound squared exceeds the largest double, or whose double is
    0.0, is refused.
    """
    q = to_fraction(q)
    if q <= 0:
        raise ValueError("q must be positive")
    if (1 + (1 + q) * m + q * m * m) ** 2 > sys.float_info.max:
        raise ValueError(
            f"q is too large for m = {m}: |f|^2 may exceed the largest double, "
            f"about {sys.float_info.max:.3g}, and the oracle and the report compute in doubles"
        )
    q_float = float(q)
    if q_float == 0.0:
        raise ValueError("q is too small: it rounds to 0.0 as a double, and the oracle computes in doubles")
    return q_float


def brute_force_sup(
    pairs: Sequence[tuple[int, RationalLike]], samples: int = 100_000, seed: int = 42
) -> list[BruteForceResult]:
    """Lower-bound oracles for sup |f_{m,q}| on the unit sphere, one per (m, q) pair.

    Standard Gaussian vectors from ``numpy.random.default_rng(seed)`` are
    drawn once, in the largest m of ``pairs``; each pair reads the
    normalised prefix of its first m coordinates, which is uniform on its
    sphere (Muller 1959).  Each pair scores its prefix chunk by chunk,
    keeping a running top 512 by |f|; those starts are refined by at most
    ORACLE_ASCENT_STEPS steps of projected gradient ascent on |f| with
    per-sample adaptive step sizes.  The results, in the order of
    ``pairs``, are those of one draw per pair on the prefix of the widest
    draw.  Fully deterministic for a fixed seed.  Draws above
    ORACLE_MAX_DOUBLES (samples times the largest m), and a q that
    ``check_oracle_q`` refuses, are refused before any work.

    The ascent stops after a step in which no start improved and every
    unnormalised proposal ``top + step * tangential`` rounded to ``top``
    itself; ``steps`` counts the steps taken.  The stop changes no result.
    After such a step ``top``, ``vals`` and so the tangential directions are
    unchanged, and each later step only halves every step size.  Rounding
    is monotone, so a product and a sum that rounded to no move at a step
    size round to no move at any smaller one: every later proposal is this
    step's again, its normalised row and f value repeat, and no start can
    improve.  The final ``top`` and ``vals`` are those of all
    ORACLE_ASCENT_STEPS steps.
    """
    import numpy as np

    if not pairs:
        raise ValueError("need at least one (m, q) pair")
    if min(m for m, _ in pairs) < 2:
        raise ValueError("m must be at least 2")
    if samples < MIN_ORACLE_SAMPLES:
        raise ValueError("need at least 10^4 samples for a meaningful oracle")
    widths = tuple(sorted({m for m, _ in pairs}))
    check_oracle_size(widths[-1], samples)
    qs = [check_oracle_q(m, q) for m, q in pairs]

    tops = [np.empty((0, m)) for m, _ in pairs]
    vals = [np.empty(0) for _ in pairs]
    for x in unit_gaussian_chunks(np.random.default_rng(seed), samples, widths):
        for i, (m, _) in enumerate(pairs):
            if m != x.shape[1]:
                continue
            top = np.concatenate((tops[i], x))
            val = np.concatenate((vals[i], _f_value(x, qs[i])))
            if val.size > _ORACLE_STARTS:
                keep = np.argpartition(-np.abs(val), _ORACLE_STARTS - 1)[:_ORACLE_STARTS]
                top, val = top[keep], val[keep]
            tops[i], vals[i] = top, val
    return [_ascend(top, val, q, samples) for top, val, q in zip(tops, vals, qs)]


def _ascend(top: np.ndarray, vals: np.ndarray, q: float, samples: int) -> BruteForceResult:
    """Refine the oracle's starts by projected gradient ascent on |f| (see ``brute_force_sup``)."""
    import numpy as np

    order = np.argsort(-np.abs(vals))
    top, vals = top[order], vals[order]

    step = np.full(top.shape[0], 0.1)
    for steps in range(1, ORACLE_ASCENT_STEPS + 1):
        _, grads = _f_and_gradient(top, q)
        direction = np.sign(vals)[:, None] * grads
        tangential = direction - row_sums(direction * top)[:, None] * top
        proposal = top + step[:, None] * tangential
        frozen = np.array_equal(proposal, top)
        proposal /= np.sqrt(row_sums(proposal * proposal))[:, None]
        new_vals = _f_value(proposal, q)
        better = np.abs(new_vals) > np.abs(vals)
        top[better] = proposal[better]
        vals[better] = new_vals[better]
        step[better] *= 1.3
        step[~better] *= 0.5
        if frozen and not better.any():
            break

    best_idx = int(np.argmax(np.abs(vals)))
    witness = np.sort(top[best_idx])[::-1]
    return BruteForceResult(
        value=float(np.abs(vals[best_idx])),
        witness=tuple(float(c) for c in witness),
        samples=samples,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Parameters, threshold functional, constraint.
# ---------------------------------------------------------------------------


class ConeParamsError(ValueError):
    """Raised when a parameter set violates its admissibility invariants."""

    def __init__(self, message: str, payload: Optional[dict] = None):
        super().__init__(message)
        self.payload = payload or {}


class ConeParams(Record):
    """Certification parameters (n, alpha, delta, q, p^2).

    The invariant 2 alpha - 1 + 2/(n-1) - alpha^2 (q+1) > 0 (positivity of
    the threshold functional's numerator factor) is enforced at
    construction: an infeasible triple is rejected with the exact invariant
    value attached.  p^2 must be positive, so the functional's quotient is
    defined (the three-dimensional case is ``n3_coefficients``).
    """

    __slots__ = ("n", "alpha", "delta", "q", "p_squared")

    def __init__(
        self, n: int, alpha: RationalLike, delta: RationalLike, q: RationalLike, p_squared: RationalLike
    ) -> None:
        alpha, delta, q, p_squared = map(to_fraction, (alpha, delta, q, p_squared))
        _fill(self, locals())
        if self.n < 3:
            raise ConeParamsError(f"n must be at least 3, got {self.n}")
        if not 0 < self.alpha <= 1:
            raise ConeParamsError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.delta < 1:
            raise ConeParamsError(f"delta must lie in (0, 1), got {self.delta}")
        if self.q <= 0:
            raise ConeParamsError(f"q must be positive, got {self.q}")
        if self.p_squared <= 0:
            raise ConeParamsError(f"p_squared must be positive, got {self.p_squared}")
        inv = self.invariant_value
        if inv <= 0:
            raise ConeParamsError(
                f"infeasible parameters: 2a - 1 + 2/(n-1) - a^2 (q+1) = {inv} <= 0",
                payload={"invariant_value": inv},
            )

    @property
    def invariant_value(self) -> Fraction:
        return 2 * self.alpha - 1 + Fraction(2, self.n - 1) - self.alpha ** 2 * (self.q + 1)


CALIBRATED_PARAMS: dict[int, ConeParams] = {
    4: ConeParams(4, Fraction(14, 33), Fraction(1, 15), Fraction(1), Fraction(1, 6)),
    5: ConeParams(5, Fraction(7, 12), Fraction(4, 19), Fraction(6, 11), Fraction(4225, 7986)),
    6: ConeParams(6, Fraction(6, 11), Fraction(16, 25), Fraction(43, 391), Fraction(646328929, 717317652)),
}


def calibrated_defaults(n: int) -> ConeParams:
    """The calibrated parameter set for n in {4, 5, 6}."""
    if n not in CALIBRATED_PARAMS:
        raise ValueError(f"no default parameters for n = {n}; supply them explicitly")
    return CALIBRATED_PARAMS[n]


def m_functional(p: ConeParams) -> Fraction:
    """Exact threshold functional 4(1-d) q (2a - 1 + 2/(n-1) - a^2(q+1)) / ((2a+1)^2 p^2)."""
    return (
        4 * (1 - p.delta) * p.q * p.invariant_value / ((2 * p.alpha + 1) ** 2 * p.p_squared)
    )


class ConstraintReport(Record):
    """Exact evaluation of the admissibility constraint lhs < rhs."""

    __slots__ = ("lhs", "rhs", "strict")

    def __init__(self, lhs: Fraction, rhs: Fraction, strict: bool) -> None:
        _fill(self, locals())

    @property
    def gap(self) -> Fraction:
        return self.rhs - self.lhs


def constraint_holds(p: ConeParams) -> ConstraintReport:
    """Exact check of the parameter constraint.

    lhs = [1 + q + 4(1-d)/((2a+1)^2 d) * (2a - 1 + 2/(n-1) - a^2(q+1))]
          * (1 + a - n/2)^2 - 2 (a(q+1) - 1)(1 + a - n/2)
    rhs = (2n - 4)/(n - 1), and the constraint is strict inequality.
    """
    shift = 1 + p.alpha - Fraction(p.n, 2)
    bracket = 1 + p.q + 4 * (1 - p.delta) / ((2 * p.alpha + 1) ** 2 * p.delta) * p.invariant_value
    lhs = bracket * shift ** 2 - 2 * (p.alpha * (p.q + 1) - 1) * shift
    rhs = Fraction(2 * p.n - 4, p.n - 1)
    return ConstraintReport(lhs=lhs, rhs=rhs, strict=lhs < rhs)


def certify_dimension(p: ConeParams, tol_deg: RationalLike = Fraction(1, 1000)) -> CertificationReport:
    """Certify a parameter set for its dimension n = p.n in {4, 5, 6}.

    Checks, all exactly: the parameter invariant (already enforced by
    ConeParams), strictness of the constraint, the threshold functional
    value, and the comparison of p_squared against the exhaustive two-value
    sup for both variable counts m = n-2 and m = n-1 (the boundary estimate
    is ambiguous between them, so both verdicts are surfaced; m = n-2 is
    the one the parameter sets are calibrated to).  The certified angle
    window for the threshold is attached as enclosures.
    """
    n = p.n
    if n not in (4, 5, 6):
        raise ValueError("certify_dimension handles n in {4, 5, 6}")
    tol_deg = to_fraction(tol_deg)

    claim = f"dimension n={n}: parameter set admissible with certified angle window"
    constraint = constraint_holds(p)
    if not constraint.strict:
        return CertificationReport(
            claim=claim,
            method="exact",
            verdict="falsified",
            payload={
                "reason": "constraint violated",
                "constraint_lhs": constraint.lhs,
                "constraint_rhs": constraint.rhs,
                "constraint_gap": constraint.gap,
            },
            provenance={"params": _params_payload(p)},
        )

    threshold = m_functional(p)
    theta_min, theta_max = angle_range_from_threshold(threshold, tol_deg)

    sup_entries = {}
    sup_ok = True
    for m in (n - 2, n - 1):
        sup = sup_abs_f_two_value(m, p.q)
        sign = compare(sup.f_squared, p.p_squared)
        exceeds, matches = sign > 0, sign == 0
        if m == n - 2 and exceeds:
            sup_ok = False
        sup_entries[f"m={m}"] = {
            "sup_f_squared": _f_squared_payload(sup.f_squared),
            "sup_f_squared_float": float(sup.f_squared),
            "equals_p_squared": matches,
            "exceeds_p_squared": exceeds,
            "witness": _witness_payload(sup.witness),
        }

    verdict = "certified" if sup_ok else "falsified"
    return CertificationReport(
        claim=claim,
        method="interval",
        verdict=verdict,
        payload={
            "threshold": threshold,
            "invariant_value": p.invariant_value,
            "constraint_lhs": constraint.lhs,
            "constraint_rhs": constraint.rhs,
            "constraint_gap": constraint.gap,
            "theta_min_deg": theta_min.value,
            "theta_max_deg": theta_max.value,
            "p_squared": p.p_squared,
            "sup_comparisons": sup_entries,
        },
        provenance={"params": _params_payload(p), "tol_deg": tol_deg},
    )


def _params_payload(p: ConeParams) -> dict:
    return {
        "n": p.n,
        "alpha": p.alpha,
        "delta": p.delta,
        "q": p.q,
        "p_squared": p.p_squared,
    }


def _witness_payload(w: TwoValuePoint) -> dict:
    return {"a": w.a, "b": w.b, "x": w.x, "y": w.y}


# The sign of compare(sup^2, p^2) as a report's text.
SUP_VS_P2 = {-1: "sup^2 < p^2", 0: "sup^2 = p^2", 1: "sup^2 > p^2"}


def _f_squared_payload(f2: ExactScalar) -> Union[Fraction, str]:
    """f^2 as a report value: a Fraction as itself, a surd as its text."""
    return f2 if isinstance(f2, Fraction) else str(f2)


# ---------------------------------------------------------------------------
# Contact-angle table.
# ---------------------------------------------------------------------------


class NThetaRow(Record):
    """One half-open row [lo, hi) of the critical-dimension table."""

    __slots__ = ("lo", "hi", "n_theta", "hi_enclosure")

    def __init__(self, lo: Fraction, hi: Fraction, n_theta: int, hi_enclosure: Interval) -> None:
        _fill(self, locals())


class NThetaTable(Record):
    __slots__ = ("rows", "tol_deg")

    def __init__(self, rows: tuple[NThetaRow, ...], tol_deg: Fraction) -> None:
        _fill(self, locals())

    @staticmethod
    def classify(theta_deg: RationalLike) -> int:
        """Critical dimension for a contact angle in (0, 180) degrees.

        The angle is inside the window of n = 6, 5 or 4 exactly when
        cos^2 - T sin^4 < 0 for that n's threshold T, so n_theta is n + 1
        for the first window that holds it, else 4; a breakpoint belongs to
        the row it starts.  The sign is decided on enclosures, not on the
        grid-rounded rows, so the answer does not depend on tol_deg, and it
        is symmetric about 90 degrees.  An angle whose enclosure cannot be
        separated from a breakpoint raises ValueError.
        """
        theta = _interior_angle(theta_deg)
        for n in (6, 5, 4):
            gap = _window_gap(theta, m_functional(CALIBRATED_PARAMS[n]))
            if gap.hi < 0:
                return n + 1
            if gap.lo < 0:
                raise ValueError(f"cannot separate {theta} from the n = {n} breakpoint")
        return 4

    def decimals(self) -> int:
        d = 0
        t = self.tol_deg
        while t < 1 and d < 12:
            t *= 10
            d += 1
        return d if self.tol_deg == Fraction(1, 10 ** d) else 6

    def formatted_rows(self) -> list[dict]:
        dec = self.decimals()
        out = []
        for row in self.rows:
            out.append(
                {
                    "theta_lo_deg": f"{float(row.lo):.{dec}f}",
                    "theta_hi_deg": f"{float(row.hi):.{dec}f}",
                    "n_theta": row.n_theta,
                }
            )
        return out


def n_theta_table(tol_deg: RationalLike = Fraction(1, 1000)) -> NThetaTable:
    """The critical-dimension table on [90, 180) degrees.

    The three certified thresholds T give breakpoints near 94.58, 106.664
    and 128.346 degrees, where cos^2 - T sin^4 changes sign; each row
    boundary is the lower end of the grid cell that holds that sign change
    (the true breakpoint lies inside the attached enclosure of width at
    most tol_deg).  n_theta = 7 on [90, b6), 6 on [b6, b5), 5 on [b5, b4),
    4 on [b4, 180).
    """
    tol_deg = to_fraction(tol_deg)
    enc = {
        n: angle_range_from_threshold(m_functional(CALIBRATED_PARAMS[n]), tol_deg)[1].value
        for n in (4, 5, 6)
    }
    rows = (
        NThetaRow(Fraction(90), enc[6].lo, 7, enc[6]),
        NThetaRow(enc[6].lo, enc[5].lo, 6, enc[5]),
        NThetaRow(enc[5].lo, enc[4].lo, 5, enc[4]),
        NThetaRow(enc[4].lo, Fraction(180), 4, Interval.point(Fraction(180))),
    )
    return NThetaTable(rows=rows, tol_deg=tol_deg)


# ---------------------------------------------------------------------------
# Parameter optimization.
# ---------------------------------------------------------------------------


class OptimizeResult(Record):
    """Outcome of the deterministic grid + refinement search."""

    __slots__ = (
        "best", "best_m", "default_m", "matches_or_improves_default", "evaluated", "feasible_count",
        "no_search",
    )

    def __init__(
        self, best: ConeParams, best_m: Fraction, default_m: Fraction,
        matches_or_improves_default: bool, evaluated: int, feasible_count: int, no_search: bool,
    ) -> None:
        _fill(self, locals())


# Feasibility margin keeping the optimizer away from the blow-up boundary
# of the threshold functional.
_FEASIBILITY_MARGIN = Fraction(1, 10 ** 6)

# Cap on optimize_params' budget: the search makes up to one exact
# evaluation (about 0.1 ms) per unit, so the cap bounds a run to seconds.
OPTIMIZE_MAX_BUDGET = 10 ** 5


def _try_params(n: int, alpha: Fraction, delta: Fraction, q: Fraction, p_squared: Fraction):
    try:
        p = ConeParams(n, alpha, delta, q, p_squared)
    except ConeParamsError:
        return None
    if p.invariant_value <= _FEASIBILITY_MARGIN:
        return None
    if not constraint_holds(p).strict:
        return None
    return p


def optimize_params(
    n: int,
    p_squared: Optional[RationalLike] = None,
    budget: int = 0,
) -> OptimizeResult:
    """Search (alpha, delta, q) maximising the threshold functional, for n in {4, 5, 6}.

    Deterministic coarse rational grid followed by local refinement around
    the incumbent; every candidate is screened by the exact feasibility
    tests (parameter invariant with a 1e-6 margin, strict constraint) and
    scored by the exact functional.  The search starts from the calibrated
    triple at p^2 (the calibrated one unless given), which passes both
    tests at every p^2 > 0, since neither involves p^2; so the result never
    falls below it.  ``budget`` caps the number of exact evaluations; zero
    budget performs no search and simply echoes the defaults.  A budget
    above OPTIMIZE_MAX_BUDGET is refused before any work.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if budget > OPTIMIZE_MAX_BUDGET:
        raise ValueError(
            f"budget above the limit of {OPTIMIZE_MAX_BUDGET} exact evaluations, "
            "which bounds the search's work"
        )
    calibrated = calibrated_defaults(n)
    p2 = calibrated.p_squared if p_squared is None else to_fraction(p_squared)
    if p2 <= 0:
        raise ValueError("p_squared must be positive")

    start = ConeParams(n, calibrated.alpha, calibrated.delta, calibrated.q, p2)
    default_m = m_functional(start)
    best, best_m = start, default_m
    evaluated = 0
    feasible = 1

    def consider(alpha: Fraction, delta: Fraction, q: Fraction) -> None:
        nonlocal best, best_m, evaluated, feasible
        if evaluated >= budget:
            return
        evaluated += 1
        p = _try_params(n, alpha, delta, q, p2)
        if p is None:
            return
        feasible += 1
        value = m_functional(p)
        if value > best_m:
            best, best_m = p, value

    steps = max(2, round(budget ** (1.0 / 3.0)))
    alphas = [Fraction(i, steps + 1) for i in range(1, steps + 1)]
    deltas = [Fraction(i, steps + 1) for i in range(1, steps + 1)]
    qs = [Fraction(i, steps) for i in range(1, steps + 1)]
    for alpha in alphas:
        for delta in deltas:
            for q in qs:
                consider(alpha, delta, q)

    # Local refinement: shrink the grid around the incumbent.
    spacing = Fraction(1, steps + 1)
    rounds = 0
    while evaluated < budget and rounds < 8:
        spacing /= 2
        base = (best.alpha, best.delta, best.q)
        for da in (-spacing, Fraction(0), spacing):
            for dd in (-spacing, Fraction(0), spacing):
                for dq in (-spacing, Fraction(0), spacing):
                    if da == dd == dq == 0:
                        continue
                    consider(base[0] + da, base[1] + dd, base[2] + dq)
        rounds += 1

    return OptimizeResult(
        best=best,
        best_m=best_m,
        default_m=default_m,
        matches_or_improves_default=best_m >= default_m,
        evaluated=evaluated,
        feasible_count=feasible,
        no_search=budget == 0,
    )


# ---------------------------------------------------------------------------
# The angle-free n = 3 case.
# ---------------------------------------------------------------------------


class N3Report(Record):
    """Exponent coefficients of the n = 3 contradiction argument.

    The comparison function r^(1+eps) * max(1, r)^(-1/2 - 2 eps) has
    exponent beta = 1/2 - eps outside the unit ball and beta = 1 + eps
    inside; each contributes the coefficient c(beta) = 2 beta^2 - 2 beta.
    The curvature must vanish identically when both coefficients stay
    below 1.
    """

    __slots__ = ("c_outer", "c_inner", "contradiction_closes")

    def __init__(self, c_outer: Fraction, c_inner: Fraction, contradiction_closes: bool) -> None:
        _fill(self, locals())


def n3_coefficients(eps: RationalLike) -> N3Report:
    """Exact exponent coefficients for the n = 3 argument; valid for eps >= 0."""
    eps = to_fraction(eps)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    beta_outer = Fraction(1, 2) - eps
    beta_inner = 1 + eps
    c_outer = 2 * beta_outer ** 2 - 2 * beta_outer
    c_inner = 2 * beta_inner ** 2 - 2 * beta_inner
    return N3Report(
        c_outer=c_outer,
        c_inner=c_inner,
        contradiction_closes=(c_outer < 1 and c_inner < 1),
    )
