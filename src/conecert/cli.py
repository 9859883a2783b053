"""Command-line front end.

Subcommands: ``table`` (critical-dimension table), ``certify``
(per-dimension parameter certification), ``pnbound`` (two-value sup plus
sampling oracle), ``identities`` (all residual campaigns anchored by exact
certificates), ``optimize`` (parameter search), ``selftest`` (the full
deterministic check suite).  The claim entries behind ``identities`` and
``selftest`` are in :mod:`conecert.claims`.

The layer modules ``cones``, ``linearization``, ``tilt`` and ``claims`` are
attributes of this module and entries of ``sys.modules`` from its import on,
but each is compiled and executed only on the first attribute access to it
(importlib's ``LazyLoader``).  So ``--version`` executes none of them;
``table``, ``certify``, ``optimize`` and ``pnbound`` execute ``cones``
alone; ``identities`` executes the other three, and ``selftest`` all four.

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
import importlib.util
import sys
import time
from fractions import Fraction
from types import ModuleType
from typing import TYPE_CHECKING, Optional, Sequence

from .exact import angle_range_from_threshold, compare
from .report import (
    EXIT_OPERATIONAL_ERROR,
    VERSION,
    CertificationReport,
    ReportEnvelope,
    RunConfig,
)

__all__ = ["main"]

if TYPE_CHECKING:
    from . import claims, cones, linearization, tilt


def _lazy(name: str) -> ModuleType:
    """The module ``conecert.<name>``, compiled and executed on its first attribute access.

    The importlib recipe for lazy imports: the module is in ``sys.modules``
    and bound on the package, as an import leaves it, so ``from conecert
    import tilt`` and later imports share it.  Reading any attribute of it,
    ``vars()`` included, loads it.  A module imported already is returned
    as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Each command loads the layers it reads; --version loads none of them.
# linearization and tilt are read only through claims, and are bound here
# so that importing the cli registers every layer module.
cones = _lazy("cones")
linearization = _lazy("linearization")
tilt = _lazy("tilt")
claims = _lazy("claims")


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
    pair, where settings may be a function that makes them when the parser
    for this command is built; every option takes one value, and its dest
    is a ``RunConfig`` field.  Every command also takes ``--format`` and
    ``--out``, which ``main`` handles; the command is called with the
    envelope and its other options.
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


# |f| at the printed witness must reproduce the sup's double to this relative error.
_WITNESS_REL = 1e-9


def _abs_f_at(witness: cones.TwoValuePoint, q: float) -> float:
    """|f| at a two-value point, in doubles, by the oracle's own kernel."""
    import numpy as np

    row = np.array([[float(witness.x)] * witness.a + [float(witness.y)] * witness.b])
    return abs(float(cones._f_value(row, q)[0]))


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
        q_float = cones.check_oracle_q(m, q)
    except ValueError as exc:
        raise UsageError(f"--q: {exc}") from None
    samples_used = max(samples, cones.MIN_ORACLE_SAMPLES)
    _check_oracle_size(m, samples_used)
    enum = cones.sup_abs_f_two_value(m, q)
    (oracle,) = cones.brute_force_sup([(m, q)], samples=samples_used, seed=seed)
    enum_float = float(enum)
    gap = enum_float - oracle.value
    # The oracle finds an underestimate of the sup, the witness an overestimate.
    oracle_exceeds = oracle.value > enum_float + cones.ORACLE_AGREEMENT
    at_witness = _abs_f_at(enum.witness, q_float)
    witness_agrees = abs(at_witness - enum_float) <= _WITNESS_REL * enum_float

    envelope.add(
        CertificationReport(
            claim=f"sup of |f| over two-value configurations, m={m}, q={q}",
            method="exact",
            verdict="certified" if witness_agrees and not oracle_exceeds else "falsified",
            payload={
                "sup": enum.value,
                "sup_float": enum_float,
                "sup_squared": cones._f_squared_payload(enum.f_squared),
                "witness": cones._witness_payload(enum.witness),
                "witness_source": enum.witness_source,
                "witness_abs_f": at_witness,
                "exhaustive": enum.exhaustive,
                "candidates_examined": len(enum.candidates),
                "oracle_value": oracle.value,
                "agreement_gap": gap,
                "oracle_within_tolerance": abs(gap) <= cones.ORACLE_AGREEMENT,
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
        envelope.add(
            CertificationReport(
                claim=f"sup^2 <= p^2 for m={m}, q={q}",
                method="exact",
                verdict="certified" if comparison <= 0 else "falsified",
                payload={
                    "sup_squared": cones._f_squared_payload(enum.f_squared),
                    "sup_squared_float": float(enum.f_squared),
                    "p_squared": p_squared,
                    "comparison": cones.SUP_VS_P2[comparison],
                },
                provenance={"comparison_sign": comparison},
            )
        )


# ---------------------------------------------------------------------------
# identities (its claim entries are in claims)
# ---------------------------------------------------------------------------


@_command("--samples", "--seed")
def _identities(envelope: ReportEnvelope, samples: int, seed: int) -> None:
    """Run every identity campaign, anchored by exact certificates."""
    envelope.reports.extend(claims.identity_reports(samples, seed))


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


@_command(
    ("--n", dict(type=int, required=True, help="Dimension (4, 5 or 6).")),
    ("--p2", dict(_P2, help="p^2 to use (defaults to the calibrated one).")),
    (
        "--budget",
        # Made when the parser is built for optimize, so no other run reads cones.
        lambda: dict(
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
# selftest (its claim entries are in claims)
# ---------------------------------------------------------------------------


@_command("--samples", "--seed", "--tol-deg")
def _selftest(envelope: ReportEnvelope, samples: int, seed: int, tol_deg: Fraction) -> None:
    """Run the full deterministic check suite."""
    _check_oracle_size(claims.SELFTEST_ORACLE_M, max(samples, cones.MIN_ORACLE_SAMPLES))
    envelope.reports.extend(claims.selftest_reports(samples, seed, tol_deg))


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
                sub.add_argument(option, **(settings() if callable(settings) else settings))
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
