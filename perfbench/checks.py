"""Correctness checks for conecert CLI reports.

Every invocation of a workload is judged on its exit code, its overall
verdict and the answers listed in ``expected.json`` (written by hand from the
paper's published values).  Angle windows are checked by containment, not by
bytes, so a change of enclosure method still passes.  Where possible an
answer is also recomputed independently of the program, in floating point:
the angle windows from the threshold, |f| at the reported witness, and the
two-value sup by a dense scan over each split a + b = m.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

# Slack for float recomputations against exact enclosures (degrees).
ANGLE_SLACK = 1e-9
# |f(witness)| must reproduce sup_float to this relative error.
WITNESS_REL = 1e-12
# The benchmark's own two-value scan must agree with sup_float to this.
SCAN_ABS = 1e-9
# That scan: grid points over t in [0, pi], then golden-section rounds per peak.
SCAN_GRID = 4096
GOLDEN_ROUNDS = 90
# The program's own oracle agreement bound (cli._ORACLE_AGREEMENT).
ORACLE_SLACK = 1e-8


def frac(value) -> Fraction:
    """Exact rational from a {"num", "den"} object, "num/den" string or int."""
    if isinstance(value, dict):
        return Fraction(int(value["num"]), int(value["den"]))
    if isinstance(value, (str, int)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def number(value) -> float:
    """Float from a JSON number or an exact {"num", "den"} object."""
    if isinstance(value, dict):
        return float(frac(value))
    return float(value)


def flag(argv: list[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# Independent float recomputations.
# ---------------------------------------------------------------------------


def abs_f_two_value(a, b, x, y, q: float):
    """|f_{m,q}| at a copies of x and b copies of y, with numpy broadcasting."""
    p1 = a * x + b * y
    p2 = a * x * x + b * y * y
    p3 = a * x ** 3 + b * y ** 3
    return np.abs(p3 + (1.0 - q) * p1 * p2 - q * p1 ** 3) / (p2 + p1 * p1) ** 1.5


def two_value_sup(m: int, q: float) -> float:
    """max |f_{m,q}| over two-value points, by a grid scan plus golden section.

    A two-value point is (cos t, ..., cos t, sin t, ..., sin t) with a and
    m - a copies; |f| has period pi in t.  Every local maximum of the grid
    is refined on its bracket.
    """
    a = np.arange(1, m, dtype=float)[:, None]
    b = m - a
    t = np.linspace(0.0, math.pi, SCAN_GRID + 1)
    vals = abs_f_two_value(a, b, np.cos(t), np.sin(t), q)
    left, right = np.roll(vals, 1, axis=1), np.roll(vals, -1, axis=1)
    rows, cols = np.nonzero((vals >= left) & (vals >= right))
    step = math.pi / SCAN_GRID
    lo, hi = t[cols] - step, t[cols] + step
    aa, bb = a[rows, 0], b[rows, 0]

    def g(s):
        return abs_f_two_value(aa, bb, np.cos(s), np.sin(s), q)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(GOLDEN_ROUNDS):
        c = hi - ratio * (hi - lo)
        d = lo + ratio * (hi - lo)
        go_right = g(c) < g(d)
        lo = np.where(go_right, c, lo)
        hi = np.where(go_right, hi, d)
    return float(max(g((lo + hi) / 2.0).max(), vals.max()))


def window_deg(threshold: float) -> tuple[float, float]:
    """The window (theta_min, 180 - theta_min) with cos^2/sin^4 = threshold.

    With u = cos^2 theta the equation is T u^2 - (2T + 1) u + T = 0; the
    root in (0, 1) gives theta_min in (0, 90) degrees.
    """
    t = threshold
    u = ((2.0 * t + 1.0) - math.sqrt(4.0 * t + 1.0)) / (2.0 * t)
    theta = math.degrees(math.acos(math.sqrt(u)))
    return theta, 180.0 - theta


# ---------------------------------------------------------------------------
# Checks per report kind.  Each appends human-readable problems to ``errors``.
# ---------------------------------------------------------------------------


def check_enclosure(
    errors: list[str],
    what: str,
    enc: dict,
    truth: float,
    tol: Fraction,
    published: Optional[str],
    decimals: int,
    side: str,
) -> None:
    """Check an angle enclosure in degrees.

    Published windows are rounded inward to ``decimals``: theta_min
    (``side="min"``) upward and theta_max (``side="max"``) downward, so the
    enclosure must lie in the grid cell that ends (or starts) at the
    published value, and contain it when ``tol`` is no finer than the grid.
    """
    lo, hi = frac(enc["lo"]), frac(enc["hi"])
    if not lo <= hi:
        errors.append(f"{what}: empty enclosure")
    if hi - lo > tol:
        errors.append(f"{what}: width {float(hi - lo):.3g} exceeds tol {tol}")
    if not float(lo) - ANGLE_SLACK <= truth <= float(hi) + ANGLE_SLACK:
        errors.append(f"{what}: [{float(lo)}, {float(hi)}] misses recomputed {truth!r}")
    if published is None:
        return
    pub, unit = Fraction(published), Fraction(1, 10 ** decimals)
    cell = (pub - unit, pub) if side == "min" else (pub, pub + unit)
    if not (cell[0] <= lo and hi <= cell[1]):
        errors.append(f"{what}: outside the grid cell of the published {published}")
    if tol >= unit and not lo <= pub <= hi:
        errors.append(f"{what}: does not contain the published {published}")


def find_report(doc: dict, claim_start: str) -> dict:
    for rep in doc["reports"]:
        if rep["claim"].startswith(claim_start):
            return rep
    raise KeyError(f"no report whose claim starts with {claim_start!r}")


def _check_certify_n3(doc, argv, spec, pub, errors) -> None:
    by_eps = doc["reports"][0]["payload"]["coefficients_by_eps"]
    zero = by_eps["0"]
    for key in ("c_outer", "c_inner"):
        if frac(zero[key]) != frac(pub["n3_at_eps0"][key]):
            errors.append(f"n=3 {key} at eps=0 is {frac(zero[key])}")
    if not all(r["contradiction_closes"] for r in by_eps.values()):
        errors.append("n=3 contradiction does not close for every eps")


def _check_window_pair(errors, what, t_min, t_max, threshold, tol, pub_pair, decimals):
    truth = window_deg(float(threshold))
    pub_pair = pub_pair or (None, None)
    check_enclosure(errors, f"{what} theta_min", t_min, truth[0], tol, pub_pair[0], decimals, "min")
    check_enclosure(errors, f"{what} theta_max", t_max, truth[1], tol, pub_pair[1], decimals, "max")


def _check_certify(doc, argv, spec, pub, errors) -> None:
    n = flag(argv, "--n")
    tol = frac(flag(argv, "--tol-deg", "1/1000"))
    payload = doc["reports"][0]["payload"]
    threshold = frac(payload["threshold"])
    if threshold != frac(pub["thresholds"][n]):
        errors.append(f"n={n} threshold {threshold} != {pub['thresholds'][n]}")
    if not frac(payload["constraint_gap"]) > 0:
        errors.append(f"n={n} constraint gap not positive")
    _check_window_pair(
        errors, f"n={n}", payload["theta_min_deg"], payload["theta_max_deg"],
        threshold, tol, pub["windows_deg"][n], pub["window_decimals"],
    )


def _check_table(doc, argv, spec, pub, errors) -> None:
    tol = frac(flag(argv, "--tol-deg", "1/1000"))
    payload = doc["reports"][0]["payload"]
    n_theta = [row["n_theta"] for row in payload["rows"]]
    if n_theta != pub["table_n_theta"]:
        errors.append(f"table rows n_theta {n_theta} != {pub['table_n_theta']}")
    encs = payload["breakpoint_enclosures_deg"]
    for i, published in enumerate(pub["table_breakpoints_deg"]):
        n = str(pub["table_n_theta"][i + 1])
        truth = window_deg(float(frac(pub["thresholds"][n])))[1]
        check_enclosure(
            errors, f"breakpoint rows {i},{i + 1}", encs[f"rows {i},{i + 1}"],
            truth, tol, published, pub["window_decimals"], "max",
        )


def _check_optimize(doc, argv, spec, pub, errors) -> None:
    n = flag(argv, "--n")
    tol = frac(flag(argv, "--tol-deg", "1/1000"))
    budget = int(flag(argv, "--budget", "0"))
    payload = doc["reports"][0]["payload"]
    default = frac(payload["default_threshold"])
    best = frac(payload["best_threshold"])
    if default != frac(pub["thresholds"][n]):
        errors.append(f"optimize n={n} default threshold {default}")
    if not best >= default or not payload["matches_or_improves_default"]:
        errors.append(f"optimize n={n} best {best} below the default {default}")
    if payload["evaluated"] > budget:
        errors.append(f"optimize evaluated {payload['evaluated']} > budget {budget}")
    pub_pair = pub["windows_deg"][n] if best == default else None
    _check_window_pair(
        errors, f"optimize n={n}", payload["theta_min_deg"], payload["theta_max_deg"],
        best, tol, pub_pair, pub["window_decimals"],
    )


def _check_sup(errors: list[str], what: str, m: int, q: Fraction, sup: float) -> None:
    scan = two_value_sup(m, float(q))
    if abs(scan - sup) > SCAN_ABS:
        errors.append(f"{what}: own two-value scan {scan!r} != sup {sup!r}")


def _check_pnbound(doc, argv, spec, pub, errors) -> None:
    m, q = int(flag(argv, "--m")), frac(flag(argv, "--q"))
    payload = doc["reports"][0]["payload"]
    sup = float(payload["sup_float"])
    w = payload["witness"]
    if w["a"] + w["b"] != m:
        errors.append(f"witness has {w['a']} + {w['b']} coordinates, not m={m}")
    at_witness = float(abs_f_two_value(w["a"], w["b"], number(w["x"]), number(w["y"]), float(q)))
    if abs(at_witness - sup) > WITNESS_REL * sup:
        errors.append(f"|f(witness)| = {at_witness!r} != sup_float {sup!r}")
    _check_sup(errors, f"m={m} q={q}", m, q, sup)
    if payload["oracle_value"] > sup + ORACLE_SLACK:
        errors.append(f"oracle {payload['oracle_value']!r} exceeds sup {sup!r}")
    p2 = flag(argv, "--p2")
    if p2 is None:
        return
    cmp = doc["reports"][1]["payload"]["comparison"]
    if cmp != spec["comparison"]:
        errors.append(f"comparison {cmp!r} != {spec['comparison']!r}")
    sup2, p2f = sup * sup, float(frac(p2))
    by_floats = "sup^2 > p^2" if sup2 > p2f + 1e-9 else "sup^2 < p^2" if sup2 < p2f - 1e-9 else None
    if by_floats != spec["comparison"]:
        errors.append(f"float comparison {sup2!r} vs p^2 {p2f!r} gives {by_floats!r}")


def _check_selftest(doc, argv, spec, pub, errors) -> None:
    tol = frac(flag(argv, "--tol-deg", "1/1000"))
    for rep in doc["reports"]:
        if rep["verdict"] != "certified":
            errors.append(f"{rep['claim']!r} is {rep['verdict']}")
    thresholds = find_report(doc, "threshold functional")["payload"]
    for n, expected in pub["thresholds"].items():
        if frac(thresholds[f"n={n}"]) != frac(expected):
            errors.append(f"selftest n={n} threshold {frac(thresholds[f'n={n}'])}")
    windows = find_report(doc, "certified angle windows")["payload"]
    for n, pair in pub["windows_deg"].items():
        w = windows[f"n={n}"]
        _check_window_pair(
            errors, f"selftest n={n}", w["theta_min"], w["theta_max"],
            frac(pub["thresholds"][n]), tol, pair, pub["window_decimals"],
        )
    rows = find_report(doc, "critical-dimension table")["payload"]["rows"]
    if [r["n_theta"] for r in rows] != pub["table_n_theta"]:
        errors.append("selftest table rows differ")
    sups = find_report(doc, "two-value sup")["payload"]
    for s in pub["surds"]:
        q = Fraction(s["q"])
        got = sups[f"m={s['m']} q={q}"]["sup"]
        if frac(got["coeff"]) != frac(s["coeff"]) or int(got["radicand"]) != s["radicand"]:
            errors.append(f"selftest m={s['m']} surd {got['coeff']} sqrt({got['radicand']})")
        value = float(frac(s["coeff"])) * math.sqrt(s["radicand"])
        if abs(got["float"] - value) > WITNESS_REL * value:
            errors.append(f"selftest m={s['m']} sup float {got['float']!r} != {value!r}")
        _check_sup(errors, f"selftest m={s['m']}", s["m"], q, value)
    for key, c in find_report(doc, "variable-count ambiguity")["payload"].items():
        greater = c["sup_squared_float"] > float(frac(c["p_squared"]))
        if (c["comparison"] == "sup^2 > p^2") != greater:
            errors.append(f"selftest {key}: {c['comparison']} contradicts the floats")
    n3 = find_report(doc, "n=3 exponent")["payload"]
    for key in ("c_outer", "c_inner"):
        if frac(n3[key]) != frac(pub["n3_at_eps0"][key]):
            errors.append(f"selftest n=3 {key} is {frac(n3[key])}")


CHECKS: dict[str, Callable] = {
    "certify_n3": _check_certify_n3,
    "certify": _check_certify,
    "table": _check_table,
    "optimize": _check_optimize,
    "pnbound": _check_pnbound,
    "selftest": _check_selftest,
}


def check_invocation(spec: dict, argv: list[str], exit_code: int, stdout: str, pub: dict) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    errors = []
    if exit_code != spec["exit"]:
        errors.append(f"exit code {exit_code}, expected {spec['exit']}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not a JSON report"]
    try:
        if doc.get("verdict") != spec["verdict"]:
            errors.append(f"verdict {doc.get('verdict')!r}, expected {spec['verdict']!r}")
        CHECKS[spec["check"]](doc, argv, spec, pub, errors)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        errors.append(f"malformed report: {exc!r}")
    return errors


def selftest_digest(stdout: str) -> Optional[str]:
    """The selftest content digest, recorded as information only."""
    try:
        rep = find_report(json.loads(stdout), "report content is a pure function")
        return rep["payload"]["content_digest_sha256"]
    except (ValueError, KeyError):
        return None
