"""The claim table behind ``selftest`` and ``identities``.

Each claim is one ``(claim, method, decide)`` entry: its text, the layer
that decides it, and a function that returns its ``(verdict, payload,
provenance)``.  ``identity_reports`` and ``selftest_reports`` decide their
entries in order, in one run whose options and memoised shared work every
entry reads.  The command line reaches this module through its ``identities``
and ``selftest`` commands only, so no other command compiles it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import cones, tilt
from .exact import AngleDeg, QuadraticSurd, _window_edge, angle_range_from_threshold, compare
# Imported by name, so that importing this module executes linearization and
# tilt before any claim runs: compiled after the oracle's draw, they would
# raise selftest's peak memory.
from .linearization import norm_equivalence_certified, remainder_ratio_certified
from .report import CertificationReport, jsonable, worst_verdict
from .tilt import BALL_RADIUS, TiltParams

__all__ = ["identity_reports", "selftest_reports", "SELFTEST_ORACLE_M"]


class _Run:
    """One run of claim entries: its options, its reports so far, and shared work.

    Work that several claims read is memoised on the run, so it runs once
    per run and never carries over into another run in the same process.
    """

    def __init__(self, samples: int, seed: int, tol_deg: Optional[Fraction]) -> None:
        from functools import cache

        self.samples, self.seed, self.tol_deg = samples, seed, tol_deg
        self.reports: list[CertificationReport] = []
        self.campaigns = cache(lambda: _campaign_suite(samples, seed))
        self.thresholds = cache(lambda: {n: cones.m_functional(cones.calibrated_defaults(n)) for n in (4, 5, 6)})


def _claim_reports(claims: tuple, samples: int, seed: int, tol_deg: Optional[Fraction]) -> list[CertificationReport]:
    """Decide each ``(claim, method, decide)`` entry in order, in one run.

    ``decide(run)`` returns the claim's ``(verdict, payload, provenance)``.
    """
    run = _Run(samples, seed, tol_deg)
    for claim, method, decide in claims:
        verdict, payload, provenance = decide(run)
        run.reports.append(CertificationReport(claim, method, verdict, payload, provenance))
    return run.reports


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
    """Run the identity campaigns over the full sweep grid, on one shared draw; return maxima."""
    import numpy as np

    worst = dict.fromkeys(("gradient", "frame", "wedge", "j_minus_g2"), -np.inf)
    grid = [(theta_deg, k, n) for theta_deg, k in _IDENTITY_ANGLES_K for n in _IDENTITY_DIMS]
    results = tilt.identity_campaigns(
        [TiltParams(theta=AngleDeg.from_degrees(theta_deg), k=k, n=n) for theta_deg, k, n in grid],
        samples=samples,
        seed=seed,
    )
    per_config = {}
    for (theta_deg, k, n), res in zip(grid, results):
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


def _residual_verdict(cert_ok: bool, residual_ok: bool) -> str:
    """Falsified without the exact certificate; else certified if the sampled residuals agree."""
    if not cert_ok:
        return "falsified"
    return "certified" if residual_ok else "inconclusive"


def _decide_gradient(run: _Run) -> tuple:
    cert = tilt.symbolic_identity_certificates()["gradient_bound_identity"]
    worst, per_config = run.campaigns()
    grad_ok = worst["gradient"] <= _GRAD_TOL and worst["j_minus_g2"] <= _GRAD_TOL
    payload = {
        "symbolic_certificate": cert,
        "max_sampled_residual": worst["gradient"],
        "max_j_minus_g_squared": worst["j_minus_g2"],
        "residual_tolerance": _GRAD_TOL,
    }
    return (
        _residual_verdict(cert, grad_ok),
        payload,
        {"samples_per_config": run.samples, "seed": run.seed, "configs": len(per_config)},
    )


def _decide_frame(run: _Run) -> tuple:
    certs = tilt.symbolic_identity_certificates()
    worst, per_config = run.campaigns()
    frame_ok = worst["frame"] <= _FRAME_TOL and worst["wedge"] <= _FRAME_TOL
    payload = {
        "symbolic_certificates": {
            "projection_gram": certs["projection_gram_identity"],
            "frame_sum": certs["frame_sum_identity"],
            "wedge_sum": certs["wedge_sum_identity"],
        },
        "max_frame_residual": worst["frame"],
        "max_wedge_residual": worst["wedge"],
        "residual_tolerance": _FRAME_TOL,
        "per_configuration": per_config,
    }
    return (
        _residual_verdict(all(payload["symbolic_certificates"].values()), frame_ok),
        payload,
        {"samples_per_config": run.samples, "seed": run.seed},
    )


def _decide_comparison(run: _Run) -> tuple:
    cert = tilt.symbolic_identity_certificates()["signed_gap_identity"]
    appendix_grid = [
        (theta_deg, orientation)
        for theta_deg in (Fraction(91), Fraction(120), Fraction(150))
        for orientation in ("up", "down")
    ]
    appendix_results = tilt.appendix_campaigns(
        4,
        [(AngleDeg.from_degrees(theta_deg), orientation) for theta_deg, orientation in appendix_grid],
        samples=run.samples,
        seed=run.seed,
    )
    campaigns = {
        f"theta={theta_deg} {orientation}": {
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
        for (theta_deg, orientation), res in zip(appendix_grid, appendix_results)
    }
    violations = sum(res.violation_count for res in appendix_results)
    return (
        _residual_verdict(cert, violations == 0),
        {"symbolic_certificate": cert, "total_violations": violations, "campaigns": campaigns},
        {"samples_per_campaign": run.samples, "seed": run.seed, "radius": BALL_RADIUS},
    )


def _decide_margin(run: _Run) -> tuple:
    payload = {}
    for n, k in _MARGIN_PAIRS:
        rep = tilt.certify_margin_positive(n, k)
        payload[f"n={n} k={k}"] = {
            "verdict": rep.verdict,
            "decided_by": rep.provenance.get("decided_by"),
        }
    return worst_verdict(entry["verdict"] for entry in payload.values()), payload, {}


def _decide_linearization(run: _Run) -> tuple:
    payload = {}
    ok = True
    for theta_deg in _LINEARIZATION_ANGLES:
        cert = remainder_ratio_certified(theta_deg, _CERTIFIED_DIRECTIONS, seed=run.seed)
        factor, factor_ok = norm_equivalence_certified(theta_deg)
        ok = ok and cert.all_in_band and cert.bound_certified and factor_ok
        payload[f"theta={theta_deg}"] = {
            "certified_ratio_enclosure": [cert.ratio_enclosure_lo, cert.ratio_enclosure_hi],
            "certified_in_band": cert.all_in_band,
            "remainder_bound_certified": cert.bound_certified,
            "norm_slack_factor_nonnegative": factor_ok,
            "norm_slack_factor_enclosure": factor,
        }
    return (
        "certified" if ok else "inconclusive",
        payload,
        {"certified_directions": _CERTIFIED_DIRECTIONS, "seed": run.seed},
    )


_GRADIENT = ("gradient-bound identity g^2 - jfrak = sum of squares (hence jfrak <= g^2)", "exact", _decide_gradient)
_FRAME = ("frame-sum identities: sum |a_i|^2 and sum |a_i ^ a_j|^2 closed forms", "exact", _decide_frame)
_COMPARISON = (
    "comparison bounds: signed-gap identity exact; conditional bounds on sampled balls", "exact", _decide_comparison
)
_MARGIN = (
    "stability margin positive on (0°, 180°) for the six (n, k) pairs, each with k(n-2) <= 1", "exact", _decide_margin
)
_LINEARIZATION = (
    "Gauss-map remainder is second order; weighted norm sandwiched by sin^3 and sin", "interval", _decide_linearization
)
_IDENTITY_CLAIMS = (_GRADIENT, _FRAME, _COMPARISON, _MARGIN, _LINEARIZATION)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


_EXPECTED_THRESHOLDS = {
    4: Fraction(18928, 18605),
    5: Fraction(264924, 2713295),
    6: Fraction(12002306544, 1858195670875),
}
# theta_min and theta_max = 180 - theta_min, rounded inward (up and down) to a unit of _PUBLISHED_UNIT.
_PUBLISHED_BREAKPOINTS = {
    4: (Fraction("51.654"), Fraction("128.346")),
    5: (Fraction("73.336"), Fraction("106.664")),
    6: (Fraction("85.420"), Fraction("94.580")),
}
_PUBLISHED_UNIT = Fraction(1, 1000)
_EXPECTED_SURDS = {
    # m: (q, coefficient, radicand) with sup = coefficient * sqrt(radicand)
    2: (Fraction(1), Fraction(1, 6), 6),
    3: (Fraction(6, 11), Fraction(65, 726), 66),
    4: (Fraction(43, 391), Fraction(25423, 917286), 1173),
}


def _decide_thresholds(run: _Run) -> tuple:
    thresholds = run.thresholds()
    ok = all(thresholds[n] == _EXPECTED_THRESHOLDS[n] for n in (4, 5, 6))
    return "certified" if ok else "falsified", {f"n={n}": thresholds[n] for n in (4, 5, 6)}, {}


def _decide_windows(run: _Run) -> tuple:
    """The enclosure of theta_min lies in (pub - unit, pub] and that of theta_max in [pub, pub + unit).

    The published values round inward, so this is decided on the enclosure of
    theta* itself, not on the --tol-deg cell, and the verdict does not depend
    on --tol-deg; the payload still shows the cells.
    """
    payload = {}
    ok = True
    for n, threshold in run.thresholds().items():
        tmin, tmax = angle_range_from_threshold(threshold, run.tol_deg)
        edge = _window_edge(threshold).to_interval()
        lo_pub, hi_pub = _PUBLISHED_BREAKPOINTS[n]
        rounds = (
            lo_pub - _PUBLISHED_UNIT < edge.lo and edge.hi <= lo_pub
            and hi_pub <= 180 - edge.hi and 180 - edge.lo < hi_pub + _PUBLISHED_UNIT
        )
        narrow = tmin.value.width <= run.tol_deg and tmax.value.width <= run.tol_deg
        ok = ok and rounds and narrow
        payload[f"n={n}"] = {
            "theta_min": tmin.value,
            "theta_max": tmax.value,
            "rounds_inward_to_published": rounds,
            "width_within_tol": narrow,
        }
    return "certified" if ok else "falsified", payload, {"tol_deg": run.tol_deg}


def _decide_table(run: _Run) -> tuple:
    tbl = cones.n_theta_table(run.tol_deg)
    ok = (
        [r.n_theta for r in tbl.rows] == [7, 6, 5, 4]
        and tbl.rows[0].lo == 90
        and tbl.rows[-1].hi == 180
        and tbl.classify(Fraction(90)) == 7
        and tbl.classify(Fraction(120)) == 5
        and tbl.classify(Fraction(130)) == 4
    )
    return "certified" if ok else "falsified", {"rows": tbl.formatted_rows()}, {}


def _decide_constraints(run: _Run) -> tuple:
    reps = {n: cones.constraint_holds(cones.calibrated_defaults(n)) for n in (4, 5, 6)}
    ok = all(rep.strict for rep in reps.values()) and 0 < reps[4].gap < Fraction(1, 300)
    payload = {f"n={n}": {"lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap} for n, rep in reps.items()}
    return "certified" if ok else "falsified", payload, {}


def _decide_sups(run: _Run) -> tuple:
    oracle_samples = max(run.samples, cones.MIN_ORACLE_SAMPLES)
    oracles = cones.brute_force_sup(
        [(m, q) for m, (q, _, _) in _EXPECTED_SURDS.items()], samples=oracle_samples, seed=run.seed
    )
    payload = {}
    ok = True
    for (m, (q, coeff, radicand)), oracle in zip(_EXPECTED_SURDS.items(), oracles):
        enum = cones.sup_abs_f_two_value(m, q)
        value = enum.value
        exact_match = (
            isinstance(enum.f_squared, Fraction)
            and value == QuadraticSurd(0, coeff, radicand)
            and value.square() == enum.f_squared
        )
        gap = float(enum) - oracle.value
        agrees = abs(gap) <= cones.ORACLE_AGREEMENT and oracle.value <= float(enum) + cones.ORACLE_AGREEMENT
        ok = ok and exact_match and agrees
        payload[f"m={m} q={q}"] = {
            "sup": value,
            "exact_match": exact_match,
            "oracle_gap": gap,
        }
    return "certified" if ok else "falsified", payload, {"samples": oracle_samples, "seed": run.seed}


def _decide_ambiguity(run: _Run) -> tuple:
    payload = {}
    ok = True
    for n in (5, 6):
        p = cones.calibrated_defaults(n)
        sup = cones.sup_abs_f_two_value(n - 1, p.q)
        cmp_sign = compare(sup.f_squared, p.p_squared)
        payload[f"n={n} m={n-1}"] = {
            "comparison": cones.SUP_VS_P2[cmp_sign],
            "sup_squared_float": float(sup.f_squared),
            "p_squared": p.p_squared,
        }
        ok = ok and cmp_sign == 1
    return "certified" if ok else "falsified", payload, {}


def _decide_n3(run: _Run) -> tuple:
    n3 = cones.n3_coefficients(0)
    ok = n3.c_outer == Fraction(-1, 2) and n3.c_inner == 0 and n3.contradiction_closes
    payload = {
        "c_outer": n3.c_outer,
        "c_inner": n3.c_inner,
        "contradiction_closes": n3.contradiction_closes,
    }
    return "certified" if ok else "falsified", payload, {}


def _content_digest(reports: list[CertificationReport]) -> str:
    """SHA-256 of the reports' canonical JSON."""
    import hashlib

    return hashlib.sha256(
        json.dumps(jsonable([r.to_dict() for r in reports]), sort_keys=True).encode()
    ).hexdigest()


def _decide_digest(run: _Run) -> tuple:
    return (
        "certified",
        {"content_digest_sha256": _content_digest(run.reports)},
        {"note": "identical config must reproduce this digest"},
    )


_THRESHOLDS = ("threshold functional equals the published exact rationals for n=4,5,6", "exact", _decide_thresholds)
_WINDOWS = (
    "certified angle windows: theta* rounds inward to the published 3-decimal breakpoints", "interval", _decide_windows
)
_TABLE = ("critical-dimension table has the four published rows", "interval", _decide_table)
_CONSTRAINTS = ("parameter constraints hold strictly; n=4 margin is tight but positive", "exact", _decide_constraints)
_SUPS = ("two-value sup equals the published surds; sampling oracle agrees to 1e-8", "exact", _decide_sups)
_AMBIGUITY = ("variable-count ambiguity at m = n-1: sup^2 > p^2 exactly for n=5,6", "exact", _decide_ambiguity)
_N3 = ("n=3 exponent coefficients at eps=0 are exactly (-1/2, 0, closes)", "exact", _decide_n3)
# The last report is the digest of all the reports before it.
_DIGEST = ("report content is a pure function of the configuration", "exact", _decide_digest)


def identity_reports(samples: int, seed: int) -> list[CertificationReport]:
    """The reports of the ``identities`` command: every identity campaign, anchored by exact certificates."""
    return _claim_reports(_IDENTITY_CLAIMS, samples, seed, None)


# The largest m the selftest oracle draws in; the cli refuses an oversized draw by it before any work.
SELFTEST_ORACLE_M = max(_EXPECTED_SURDS)


def selftest_reports(samples: int, seed: int, tol_deg: Fraction) -> list[CertificationReport]:
    """The reports of the ``selftest`` command, the last one the digest of all before it."""
    claims = (_THRESHOLDS, _WINDOWS, _TABLE, _CONSTRAINTS, _SUPS, _AMBIGUITY, *_IDENTITY_CLAIMS, _N3, _DIGEST)
    return _claim_reports(claims, samples, seed, tol_deg)
