"""Command-line front end.

Subcommands: ``table`` (critical-dimension table), ``certify``
(per-dimension parameter certification), ``pnbound`` (two-value sup plus
sampling oracle), ``identities`` (all residual campaigns anchored by exact
certificates), ``optimize`` (parameter search), ``selftest`` (the full
deterministic check suite).

Each command only adds its reports to the envelope it is given.  ``main``
owns the rest of a run: it echoes the parsed options as the run's
configuration, makes the envelope, times the run and renders the report to
stdout or ``--out``.  It ends a refused run with one ``error:`` line and
exit code 1: a bad command line, input a command refuses, a ValueError of
a command (input the exact layer cannot decide, such as an angle grid too
fine for the enclosures), or a report that cannot be written.

Exit codes: 0 every claim certified, 2 at least one falsified,
3 inconclusive present but nothing falsified, 1 operational error.
Rational-valued flags are parsed exactly from "num/den" strings and
re-emitted as {"num": ..., "den": ...} objects in JSON — never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import cones, linearization, tilt
from .exact import AngleDeg, QuadraticSurd, angle_range_from_threshold, compare
from .report import (
    EXIT_OPERATIONAL_ERROR,
    VERSION,
    CertificationReport,
    ReportEnvelope,
    RunConfig,
    jsonable,
    worst_verdict,
)

__all__ = ["main"]


class UsageError(Exception):
    """Input the run refuses; ``main`` prints it as one ``error:`` line and returns 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`UsageError`, without the usage text."""

    def error(self, message: str):
        raise UsageError(message)


def _rational(text: str, positive: bool = False) -> Fraction:
    """Exact rational parameter: "num/den" or an integer literal, optionally > 0."""
    # Decimal or scientific notation is refused on purpose: the flag
    # contract is exact integers or num/den quotients, nothing that
    # looks like it might have been rounded.
    try:
        if any(ch in text for ch in ".eE"):
            raise ValueError
        result = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational (write it as num/den)"
        ) from None
    if positive and result <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive rational")
    return result


def _positive_rational(text: str) -> Fraction:
    return _rational(text, positive=True)


def _count_from(minimum: int):
    """An integer option of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={minimum}")
        return value

    return parse


# Options shared by several commands; every option takes one value.
_SHARED = {
    "--tol-deg": dict(
        type=_positive_rational,
        default=Fraction(1, 1000),
        help="Grid step (degrees) of the certified angle enclosures; a positive rational "
        "(default 1/1000).",
    ),
    "--format": dict(
        choices=("json", "csv", "text"), default="text", help="Report rendering (default text).",
    ),
    "--out": dict(metavar="PATH", help="Write the rendered report to PATH instead of stdout."),
    "--samples": dict(
        type=_count_from(1), default=100_000,
        help="Sample count for randomized campaigns (default 100000).",
    ),
    "--seed": dict(type=_count_from(0), default=42, help="RNG seed (default 42)."),
}
# --p2 of certify, pnbound and optimize; each adds its own help.
_P2 = dict(type=_rational, dest="p_squared", metavar="P2")


# Command name -> (function, options); filled by @_command.
_COMMANDS: dict = {}


def _command(*options):
    """Register a command; its help is the docstring's first line.

    Each option is the name of a ``_SHARED`` option or a ``(name, settings)``
    pair; every option takes one value, and its dest is a ``RunConfig``
    field.  Every command also takes ``--format`` and ``--out``, which
    ``main`` handles; the command is called with the envelope and its other
    options.
    """

    def register(func):
        _COMMANDS[func.__name__.lstrip("_")] = (
            func,
            [(opt, _SHARED[opt]) if isinstance(opt, str) else opt for opt in (*options, "--format", "--out")],
        )
        return func

    return register


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


@_command("--tol-deg")
def _table(envelope: ReportEnvelope, tol_deg: Fraction) -> None:
    """Print the critical-dimension table with certified breakpoints."""
    tbl = cones.n_theta_table(tol_deg)
    envelope.table_rows = tbl.formatted_rows()
    envelope.add(
        CertificationReport(
            claim="critical dimension by contact angle on [90°, 180°)",
            method="interval",
            verdict="certified",
            payload={
                "rows": envelope.table_rows,
                "breakpoint_enclosures_deg": {
                    f"rows {i},{i+1}": row.hi_enclosure
                    for i, row in enumerate(tbl.rows[:-1])
                },
            },
            provenance={"tol_deg": tol_deg},
        )
    )


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


_N3_EPS_GRID = (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 4))


@_command(
    ("--n", dict(type=int, required=True, help="Dimension (3, 4, 5 or 6).")),
    ("--alpha", dict(type=_rational, help="Override alpha.")),
    ("--delta", dict(type=_rational, help="Override delta.")),
    ("--q", dict(type=_rational, help="Override q.")),
    ("--p2", dict(_P2, help="Override p^2.")),
    "--tol-deg",
)
def _certify(
    envelope: ReportEnvelope,
    n: int,
    alpha: Optional[Fraction],
    delta: Optional[Fraction],
    q: Optional[Fraction],
    p_squared: Optional[Fraction],
    tol_deg: Fraction,
) -> None:
    """Certify the stability parameters for one dimension."""
    overrides = {"alpha": alpha, "delta": delta, "q": q, "p_squared": p_squared}
    if n == 3:
        if any(v is not None for v in overrides.values()):
            raise UsageError("parameter overrides apply to n in {4, 5, 6} only")
        results = {str(eps): cones.n3_coefficients(eps) for eps in _N3_EPS_GRID}
        ok = all(r.contradiction_closes for r in results.values())
        envelope.add(
            CertificationReport(
                claim="dimension n=3: exponent coefficients stay below 1 for θ ∈ (0°, 180°)",
                method="exact",
                verdict="certified" if ok else "falsified",
                payload={
                    "theta_range": "(0°, 180°)",
                    "coefficients_by_eps": {
                        eps: {
                            "c_outer": r.c_outer,
                            "c_inner": r.c_inner,
                            "contradiction_closes": r.contradiction_closes,
                        }
                        for eps, r in results.items()
                    },
                },
                provenance={"eps_grid": list(_N3_EPS_GRID)},
            )
        )
        return

    if n not in (4, 5, 6):
        raise UsageError("certify supports n in {3, 4, 5, 6}")

    defaults = cones.calibrated_defaults(n)
    try:
        params = cones.ConeParams(
            n=n, **{key: getattr(defaults, key) if v is None else v for key, v in overrides.items()}
        )
    except cones.ConeParamsError as exc:
        envelope.add(
            CertificationReport(
                claim=f"dimension n={n}: parameter set admissible with certified angle window",
                method="exact",
                verdict="falsified",
                payload={"reason": str(exc), **exc.payload},
                provenance={"overrides": overrides},
            )
        )
        return
    envelope.add(cones.certify_dimension(params, tol_deg))


# ---------------------------------------------------------------------------
# pnbound
# ---------------------------------------------------------------------------


_ORACLE_AGREEMENT = 1e-8


def _check_oracle_size(m: int, samples: int) -> None:
    """Refuse, before any work, an oracle draw of more coordinates than its work cap allows."""
    try:
        cones.check_oracle_size(m, samples)
    except ValueError as exc:
        raise UsageError(f"--samples {samples} with m = {m}: {exc}") from None


@_command(
    ("--m", dict(type=int, required=True, help="Number of variables (>= 2).")),
    ("--q", dict(type=_rational, required=True, help="The parameter q > 0.")),
    ("--p2", dict(_P2, help="Compare sup^2 against this exact p^2.")),
    "--samples",
    "--seed",
)
def _pnbound(
    envelope: ReportEnvelope, m: int, q: Fraction, p_squared: Optional[Fraction], samples: int, seed: int
) -> None:
    """Exact two-value sup of |f_{m,q}| with an independent sampling oracle."""
    if m < 2:
        raise UsageError("--m must be at least 2")
    try:
        cones.check_oracle_q(m, q)
    except ValueError as exc:
        raise UsageError(f"--q: {exc}") from None
    samples_used = max(samples, cones.MIN_ORACLE_SAMPLES)
    _check_oracle_size(m, samples_used)
    enum = cones.sup_abs_f_two_value(m, q)
    oracle = cones.brute_force_sup(m, q, samples=samples_used, seed=seed)
    enum_float = float(enum)
    gap = enum_float - oracle.value
    oracle_exceeds = oracle.value > enum_float + _ORACLE_AGREEMENT

    envelope.add(
        CertificationReport(
            claim=f"sup of |f| over two-value configurations, m={m}, q={q}",
            method="exact",
            verdict="falsified" if oracle_exceeds else "certified",
            payload={
                "sup": enum.value,
                "sup_float": enum_float,
                "sup_squared": cones._f_squared_payload(enum.f_squared),
                "witness": cones._witness_payload(enum.witness),
                "witness_source": enum.witness_source,
                "exhaustive": enum.exhaustive,
                "candidates_examined": len(enum.candidates),
                "oracle_value": oracle.value,
                "agreement_gap": gap,
                "oracle_within_tolerance": abs(gap) <= _ORACLE_AGREEMENT,
            },
            provenance={
                "samples_requested": samples,
                "samples_used": samples_used,
                "ascent_steps": oracle.steps,
                "seed": seed,
            },
        )
    )

    if p_squared is not None:
        comparison = compare(enum.f_squared, p_squared)
        symbol = {-1: "<", 0: "=", 1: ">"}[comparison]
        envelope.add(
            CertificationReport(
                claim=f"sup^2 <= p^2 for m={m}, q={q}",
                method="exact",
                verdict="certified" if comparison <= 0 else "falsified",
                payload={
                    "sup_squared": cones._f_squared_payload(enum.f_squared),
                    "sup_squared_float": float(enum.f_squared),
                    "p_squared": p_squared,
                    "comparison": f"sup^2 {symbol} p^2",
                },
                provenance={"comparison_sign": comparison},
            )
        )


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


# The sweep grid for the identity campaigns: contact angles paired with
# tilt weights, crossed with ambient graph dimensions.
_IDENTITY_ANGLES_K = (
    (Fraction(100), Fraction(1)),
    (Fraction(120), Fraction(1, 2)),
    (Fraction(135), Fraction(1, 3)),
    (Fraction(150), Fraction(1, 4)),
)
_IDENTITY_DIMS = (2, 3, 4, 6)
_MARGIN_PAIRS = (
    (2, Fraction(1)),
    (3, Fraction(1)),
    (4, Fraction(1, 2)),
    (5, Fraction(1, 3)),
    (6, Fraction(1, 4)),
    (7, Fraction(1, 5)),
)
_LINEARIZATION_ANGLES = (Fraction(91), Fraction(120), Fraction(150), Fraction(179))
_CERTIFIED_DIRECTIONS = 64
_GRAD_TOL = 1e-12
_FRAME_TOL = 1e-10


def _campaign_suite(samples: int, seed: int) -> tuple[dict, dict]:
    """Run the identity campaigns over the full sweep grid; return maxima."""
    import numpy as np

    worst = dict.fromkeys(("gradient", "frame", "wedge", "j_minus_g2"), -np.inf)
    # One draw per dimension serves all (theta, k) pairs; the payload stays theta-major.
    results = {}
    for n in _IDENTITY_DIMS:
        grid = [
            tilt.TiltParams(theta=AngleDeg.from_degrees(theta_deg), k=k, n=n)
            for theta_deg, k in _IDENTITY_ANGLES_K
        ]
        for (theta_deg, k), res in zip(
            _IDENTITY_ANGLES_K, tilt.identity_campaigns(grid, samples=samples, seed=seed)
        ):
            results[theta_deg, k, n] = res
    per_config = {}
    for theta_deg, k in _IDENTITY_ANGLES_K:
        for n in _IDENTITY_DIMS:
            res = results[theta_deg, k, n]
            # np.maximum keeps a NaN residual, which max() would drop.
            for key, value in (
                ("gradient", res.max_gradient_residual),
                ("frame", res.max_frame_sum_residual),
                ("wedge", res.max_wedge_sum_residual),
                ("j_minus_g2", res.max_j_minus_g2),
            ):
                worst[key] = float(np.maximum(worst[key], value))
            per_config[f"theta={theta_deg} k={k} n={n}"] = {
                "max_gradient_residual": res.max_gradient_residual,
                "max_frame_sum_residual": res.max_frame_sum_residual,
                "max_wedge_sum_residual": res.max_wedge_sum_residual,
            }
    return worst, per_config


def _identity_reports(samples: int, seed: int) -> list[CertificationReport]:
    """The five identity-suite reports shared by `identities` and `selftest`."""
    reports: list[CertificationReport] = []
    certs = tilt.symbolic_identity_certificates()
    worst, per_config = _campaign_suite(samples, seed)

    def residual_verdict(cert_ok: bool, residual_ok: bool) -> str:
        if not cert_ok:
            return "falsified"
        return "certified" if residual_ok else "inconclusive"

    grad_ok = worst["gradient"] <= _GRAD_TOL and worst["j_minus_g2"] <= _GRAD_TOL
    reports.append(
        CertificationReport(
            claim="gradient-bound identity g^2 - jfrak = sum of squares (hence jfrak <= g^2)",
            method="exact",
            verdict=residual_verdict(certs["gradient_bound_identity"], grad_ok),
            payload={
                "symbolic_certificate": certs["gradient_bound_identity"],
                "max_sampled_residual": worst["gradient"],
                "max_j_minus_g_squared": worst["j_minus_g2"],
                "residual_tolerance": _GRAD_TOL,
            },
            provenance={"samples_per_config": samples, "seed": seed, "configs": len(per_config)},
        )
    )

    frame_ok = worst["frame"] <= _FRAME_TOL and worst["wedge"] <= _FRAME_TOL
    reports.append(
        CertificationReport(
            claim="frame-sum identities: sum |a_i|^2 and sum |a_i ^ a_j|^2 closed forms",
            method="exact",
            verdict=residual_verdict(
                certs["projection_gram_identity"] and certs["frame_sum_identity"] and certs["wedge_sum_identity"],
                frame_ok,
            ),
            payload={
                "symbolic_certificates": {
                    "projection_gram": certs["projection_gram_identity"],
                    "frame_sum": certs["frame_sum_identity"],
                    "wedge_sum": certs["wedge_sum_identity"],
                },
                "max_frame_residual": worst["frame"],
                "max_wedge_residual": worst["wedge"],
                "residual_tolerance": _FRAME_TOL,
                "per_configuration": per_config,
            },
            provenance={"samples_per_config": samples, "seed": seed},
        )
    )

    appendix_payload = {}
    appendix_violations = 0
    appendix_grid = [
        (theta_deg, orientation)
        for theta_deg in (Fraction(91), Fraction(120), Fraction(150))
        for orientation in ("up", "down")
    ]
    appendix_results = tilt.appendix_campaigns(
        4,
        [(AngleDeg.from_degrees(theta_deg), orientation) for theta_deg, orientation in appendix_grid],
        samples=samples,
        seed=seed,
    )
    for (theta_deg, orientation), res in zip(appendix_grid, appendix_results):
        appendix_violations += res.violation_count
        appendix_payload[f"theta={theta_deg} {orientation}"] = {
            "all_applicable": res.all_applicable,
            "min_signed_gap_slack": res.min_signed_gap_slack,
            "min_conditional_slacks": [
                res.min_slack_gradient_shift,
                res.min_slack_normal_gap,
                res.min_slack_gradient_size,
                res.min_slack_tilt_vs_gap,
            ],
            "violations": res.violation_count,
        }
    reports.append(
        CertificationReport(
            claim="comparison bounds: signed-gap identity exact; conditional bounds on sampled balls",
            method="exact",
            verdict=residual_verdict(certs["signed_gap_identity"], appendix_violations == 0),
            payload={
                "symbolic_certificate": certs["signed_gap_identity"],
                "total_violations": appendix_violations,
                "campaigns": appendix_payload,
            },
            provenance={"samples_per_campaign": samples, "seed": seed, "radius": tilt.BALL_RADIUS},
        )
    )

    margin_payload = {}
    for n, k in _MARGIN_PAIRS:
        rep = tilt.certify_margin_positive(n, k)
        margin_payload[f"n={n} k={k}"] = {
            "verdict": rep.verdict,
            "decided_by": rep.provenance.get("decided_by"),
        }
    reports.append(
        CertificationReport(
            claim="stability margin positive on (0°, 180°) for the six (n, k) pairs, each with k(n-2) <= 1",
            method="exact",
            verdict=worst_verdict(entry["verdict"] for entry in margin_payload.values()),
            payload=margin_payload,
        )
    )

    lin_payload = {}
    lin_ok = True
    for theta_deg in _LINEARIZATION_ANGLES:
        cert = linearization.remainder_ratio_certified(theta_deg, _CERTIFIED_DIRECTIONS, seed=seed)
        factor, factor_ok = linearization.norm_equivalence_certified(theta_deg)
        lin_ok = lin_ok and cert.all_in_band and cert.bound_certified and factor_ok
        lin_payload[f"theta={theta_deg}"] = {
            "certified_ratio_enclosure": [cert.ratio_enclosure_lo, cert.ratio_enclosure_hi],
            "certified_in_band": cert.all_in_band,
            "remainder_bound_certified": cert.bound_certified,
            "norm_slack_factor_nonnegative": factor_ok,
            "norm_slack_factor_enclosure": factor,
        }
    reports.append(
        CertificationReport(
            claim="Gauss-map remainder is second order; weighted norm sandwiched by sin^3 and sin",
            method="interval",
            verdict="certified" if lin_ok else "inconclusive",
            payload=lin_payload,
            provenance={"certified_directions": _CERTIFIED_DIRECTIONS, "seed": seed},
        )
    )
    return reports


@_command("--samples", "--seed")
def _identities(envelope: ReportEnvelope, samples: int, seed: int) -> None:
    """Run every identity campaign, anchored by exact certificates."""
    envelope.reports.extend(_identity_reports(samples, seed))


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


@_command(
    ("--n", dict(type=int, required=True, help="Dimension (4, 5 or 6).")),
    ("--p2", dict(_P2, help="p^2 to use (defaults to the calibrated one).")),
    (
        "--budget",
        dict(
            type=_count_from(0),
            default=0,
            help=f"Maximal number of exact evaluations, at most {cones.OPTIMIZE_MAX_BUDGET}; "
            "0 echoes the defaults (default 0).",
        ),
    ),
    "--seed",
    "--tol-deg",
)
def _optimize(
    envelope: ReportEnvelope, n: int, p_squared: Optional[Fraction], budget: int, seed: int, tol_deg: Fraction
) -> None:
    """Search (alpha, delta, q) for a larger certified threshold."""
    if n not in (4, 5, 6):
        raise UsageError("optimize supports n in {4, 5, 6}")
    result = cones.optimize_params(n, p_squared=p_squared, budget=budget)
    theta_min, theta_max = angle_range_from_threshold(result.best_m, tol_deg)
    payload = {
        "note": "no search performed; defaults echoed" if result.no_search else "search completed",
        "best": {
            "alpha": result.best.alpha,
            "delta": result.best.delta,
            "q": result.best.q,
            "p_squared": result.best.p_squared,
        },
        "best_threshold": result.best_m,
        "theta_min_deg": theta_min.value,
        "theta_max_deg": theta_max.value,
        "default_threshold": result.default_m,
        "threshold_delta_vs_default": result.best_m - result.default_m,
        "matches_or_improves_default": result.matches_or_improves_default,
        "evaluated": result.evaluated,
        "feasible_count": result.feasible_count,
    }
    envelope.add(
        CertificationReport(
            claim=f"parameter search for dimension n={n} (budget {budget})",
            method="exact",
            verdict="certified",
            payload=payload,
            provenance={"budget": budget, "seed": seed, "tol_deg": tol_deg},
        )
    )


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


_EXPECTED_THRESHOLDS = {
    4: Fraction(18928, 18605),
    5: Fraction(264924, 2713295),
    6: Fraction(12002306544, 1858195670875),
}
_PUBLISHED_BREAKPOINTS = {
    4: (Fraction("51.654"), Fraction("128.346")),
    5: (Fraction("73.336"), Fraction("106.664")),
    6: (Fraction("85.420"), Fraction("94.580")),
}
_EXPECTED_SURDS = {
    # m: (q, coefficient, radicand) with sup = coefficient * sqrt(radicand)
    2: (Fraction(1), Fraction(1, 6), 6),
    3: (Fraction(6, 11), Fraction(65, 726), 66),
    4: (Fraction(43, 391), Fraction(25423, 917286), 1173),
}


def _content_digest(reports: list[CertificationReport]) -> str:
    """SHA-256 of the reports' canonical JSON."""
    import hashlib

    return hashlib.sha256(
        json.dumps(jsonable([r.to_dict() for r in reports]), sort_keys=True).encode()
    ).hexdigest()


def _selftest_reports(samples: int, seed: int, tol_deg: Fraction) -> list[CertificationReport]:
    reports: list[CertificationReport] = []

    # 1. Exact threshold values.
    thresholds = {n: cones.m_functional(cones.calibrated_defaults(n)) for n in (4, 5, 6)}
    ok = all(thresholds[n] == _EXPECTED_THRESHOLDS[n] for n in (4, 5, 6))
    reports.append(
        CertificationReport(
            claim="threshold functional equals the published exact rationals for n=4,5,6",
            method="exact",
            verdict="certified" if ok else "falsified",
            payload={f"n={n}": thresholds[n] for n in (4, 5, 6)},
        )
    )

    # 2. Certified angle windows contain the published breakpoints.
    windows_payload = {}
    ok = True
    for n in (4, 5, 6):
        tmin, tmax = angle_range_from_threshold(thresholds[n], tol_deg)
        lo_pub, hi_pub = _PUBLISHED_BREAKPOINTS[n]
        contains = tmin.value.contains(lo_pub) and tmax.value.contains(hi_pub)
        narrow = tmin.value.width <= tol_deg and tmax.value.width <= tol_deg
        ok = ok and contains and narrow
        windows_payload[f"n={n}"] = {
            "theta_min": tmin.value,
            "theta_max": tmax.value,
            "contains_published": contains,
            "width_within_tol": narrow,
        }
    reports.append(
        CertificationReport(
            claim="certified angle windows contain the published 3-decimal breakpoints",
            method="interval",
            verdict="certified" if ok else "falsified",
            payload=windows_payload,
            provenance={"tol_deg": tol_deg},
        )
    )

    # 3. Critical-dimension table.
    tbl = cones.n_theta_table(tol_deg)
    expected = [
        (Fraction(90), 7),
        (None, 6),
        (None, 5),
        (None, 4),
    ]
    rows_ok = (
        len(tbl.rows) == 4
        and tbl.rows[0].lo == 90
        and tbl.rows[-1].hi == 180
        and [r.n_theta for r in tbl.rows] == [e[1] for e in expected]
        and tbl.classify(Fraction(90)) == 7
        and tbl.classify(Fraction(120)) == 5
        and tbl.classify(Fraction(130)) == 4
    )
    reports.append(
        CertificationReport(
            claim="critical-dimension table has the four published rows",
            method="interval",
            verdict="certified" if rows_ok else "falsified",
            payload={"rows": tbl.formatted_rows()},
        )
    )

    # 4. Constraints strict, with the tight n=4 gap.
    constraint_payload = {}
    ok = True
    for n in (4, 5, 6):
        rep = cones.constraint_holds(cones.calibrated_defaults(n))
        constraint_payload[f"n={n}"] = {"lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap}
        ok = ok and rep.strict
    gap4 = cones.constraint_holds(cones.calibrated_defaults(4)).gap
    ok = ok and 0 < gap4 < Fraction(1, 300)
    reports.append(
        CertificationReport(
            claim="parameter constraints hold strictly; n=4 margin is tight but positive",
            method="exact",
            verdict="certified" if ok else "falsified",
            payload=constraint_payload,
        )
    )

    # 5. Two-value enumeration matches the published surds and the oracle.
    oracle_samples = max(samples, cones.MIN_ORACLE_SAMPLES)
    sup_payload = {}
    ok = True
    for m, (q, coeff, radicand) in _EXPECTED_SURDS.items():
        enum = cones.sup_abs_f_two_value(m, q)
        value = enum.value
        exact_match = (
            isinstance(enum.f_squared, Fraction)
            and value == QuadraticSurd(0, coeff, radicand)
            and value.square() == enum.f_squared
        )
        oracle = cones.brute_force_sup(m, q, samples=oracle_samples, seed=seed)
        gap = float(enum) - oracle.value
        agrees = abs(gap) <= _ORACLE_AGREEMENT and oracle.value <= float(enum) + _ORACLE_AGREEMENT
        ok = ok and exact_match and agrees
        sup_payload[f"m={m} q={q}"] = {
            "sup": value,
            "exact_match": exact_match,
            "oracle_gap": gap,
        }
    reports.append(
        CertificationReport(
            claim="two-value sup equals the published surds; sampling oracle agrees to 1e-8",
            method="exact",
            verdict="certified" if ok else "falsified",
            payload=sup_payload,
            provenance={"samples": oracle_samples, "seed": seed},
        )
    )

    # 6. The m = n-1 comparisons, each decided exactly: sup^2 > p^2 at n = 5 and n = 6.
    ambiguity_payload = {}
    ok = True
    for n in (5, 6):
        p = cones.calibrated_defaults(n)
        sup = cones.sup_abs_f_two_value(n - 1, p.q)
        cmp_sign = compare(sup.f_squared, p.p_squared)
        symbol = {-1: "<", 0: "=", 1: ">"}[cmp_sign]
        ambiguity_payload[f"n={n} m={n-1}"] = {
            "comparison": f"sup^2 {symbol} p^2",
            "sup_squared_float": float(sup.f_squared),
            "p_squared": p.p_squared,
        }
        ok = ok and cmp_sign == 1
    reports.append(
        CertificationReport(
            claim="variable-count ambiguity at m = n-1: sup^2 > p^2 exactly for n=5,6",
            method="exact",
            verdict="certified" if ok else "falsified",
            payload=ambiguity_payload,
        )
    )

    # 7-9 + margin: reuse the identity suite (symbolically anchored).
    reports.extend(_identity_reports(samples, seed))

    # 10. n=3 coefficients at eps = 0.
    n3 = cones.n3_coefficients(0)
    n3_ok = n3.c_outer == Fraction(-1, 2) and n3.c_inner == 0 and n3.contradiction_closes
    reports.append(
        CertificationReport(
            claim="n=3 exponent coefficients at eps=0 are exactly (-1/2, 0, closes)",
            method="exact",
            verdict="certified" if n3_ok else "falsified",
            payload={
                "c_outer": n3.c_outer,
                "c_inner": n3.c_inner,
                "contradiction_closes": n3.contradiction_closes,
            },
        )
    )

    # 11. Determinism digest over everything above.
    reports.append(
        CertificationReport(
            claim="report content is a pure function of the configuration",
            method="exact",
            verdict="certified",
            payload={"content_digest_sha256": _content_digest(reports)},
            provenance={"note": "identical config must reproduce this digest"},
        )
    )
    return reports


@_command("--samples", "--seed", "--tol-deg")
def _selftest(envelope: ReportEnvelope, samples: int, seed: int, tol_deg: Fraction) -> None:
    """Run the full deterministic check suite."""
    _check_oracle_size(max(_EXPECTED_SURDS), max(samples, cones.MIN_ORACLE_SAMPLES))
    envelope.reports.extend(_selftest_reports(samples, seed, tol_deg))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The command-line parser, with the options of ``command`` only.

    argparse reads the command from the first word, so no other command's
    options can apply; adding them all would take about 1 ms more per run.
    """
    parser = _Parser(
        prog="conecert",
        description="Certified computations for capillary-cone stability thresholds.",
        allow_abbrev=False,
        add_help=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument(
        "--version", action="version", version=f"conecert, version {VERSION}",
        help="Show the version and exit.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True, prog="conecert")
    for name, (func, options) in _COMMANDS.items():
        summary = func.__doc__.splitlines()[0]
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False, add_help=False)
        if name == command:
            sub.add_argument("--help", action="help", help="Show this message and exit.")
            for option, settings in options:
                sub.add_argument(option, **settings)
    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Write ``--opt VALUE`` as ``--opt=VALUE`` where VALUE starts with "-".

    argparse would read a value such as ``-1/2`` as an option; attached, it
    reaches the option's own check.
    """
    takes_value = {option for _, options in _COMMANDS.values() for option, _ in options}
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in takes_value and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    args = sys.argv[1:] if argv is None else argv
    try:
        try:
            parser = _parser(args[0] if args else None)
            options = vars(parser.parse_args(_attach_values(args)))
        except SystemExit as exc:  # --help and --version
            return int(exc.code or 0)
        started = time.perf_counter()
        config = RunConfig(command=options.pop("command"), **options)
        envelope = ReportEnvelope(config)
        del options["format"], options["out"]
        try:
            _COMMANDS[config.command][0](envelope, **options)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        envelope.elapsed_ms = int((time.perf_counter() - started) * 1000)
        try:
            rendered = envelope.render()
        except ValueError:
            # Rendering only formats finished values; its one ValueError is an
            # integer past the interpreter's limit on printed decimal digits.
            raise UsageError(
                f"a number in the report has more than {sys.get_int_max_str_digits()} digits and is too long "
                "to print; give the rational options (such as --q) fewer digits"
            ) from None
        if config.out:
            try:
                with open(config.out, "w") as handle:
                    handle.write(rendered)
            except OSError as exc:
                raise UsageError(f"cannot write {config.out}: {exc}") from None
        else:
            sys.stdout.write(rendered)
            sys.stdout.flush()
        return envelope.exit_code()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
