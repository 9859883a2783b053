"""Report types and serialization for certification runs.

A :class:`CertificationReport` records one claim, how it was checked, and
the verdict.  A :class:`ReportEnvelope` bundles the reports of one CLI run
together with the echoed configuration, and serializes to JSON, CSV, or
plain text.  JSON output is deterministic for a fixed configuration and
seed, except for the wall-time field.

Verdict semantics: ``certified`` is only ever attached to claims checked by
exact rational arithmetic or certified interval arithmetic.  Sampling-based
checks can at best report ``falsified`` (a concrete counterexample) or
``inconclusive``.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import Any, Iterable, Optional

from ._record import _fill
from .exact import AngleDeg, Interval, QuadraticSurd

__all__ = [
    "VERSION",
    "METHODS",
    "VERDICTS",
    "CertificationReport",
    "RunConfig",
    "ReportEnvelope",
    "EXIT_CERTIFIED",
    "EXIT_OPERATIONAL_ERROR",
    "EXIT_FALSIFIED",
    "EXIT_INCONCLUSIVE",
    "jsonable",
    "worst_verdict",
]

VERSION = "0.1.0"

METHODS = ("exact", "interval", "sampled")
VERDICTS = ("certified", "falsified", "inconclusive")

EXIT_CERTIFIED = 0
EXIT_OPERATIONAL_ERROR = 1
EXIT_FALSIFIED = 2
EXIT_INCONCLUSIVE = 3


def worst_verdict(verdicts: Iterable[str]) -> str:
    """``falsified`` if any verdict is, else ``inconclusive`` if any is, else ``certified``."""
    return max(verdicts, key=("certified", "inconclusive", "falsified").index, default="certified")


def jsonable(value: Any) -> Any:
    """Convert report payload values to deterministic JSON-friendly data.

    Exact rationals become ``{"num": ..., "den": ...}`` with string digits
    so arbitrary precision survives the round trip; intervals and surds
    carry their exact parts (a surd ``coeff*sqrt(radicand)`` omits its zero
    ``rational`` part); floats are emitted via repr round-tripping (i.e. as
    JSON numbers with full precision).
    """
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, Interval):
        return {"lo": jsonable(value.lo), "hi": jsonable(value.hi), "float": float(value)}
    if isinstance(value, QuadraticSurd):
        surd = {
            "coeff": jsonable(value.coeff),
            "radicand": str(value.radicand),
            "float": float(value),
        }
        return surd if value.rational == 0 else {"rational": jsonable(value.rational), **surd}
    if isinstance(value, AngleDeg):
        return {"degrees": jsonable(value.value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    return str(value)


class CertificationReport:
    """Outcome of one checked claim."""

    __slots__ = ("claim", "method", "verdict", "payload", "provenance")

    def __init__(
        self,
        claim: str,
        method: str,
        verdict: str,
        payload: Optional[dict] = None,
        provenance: Optional[dict] = None,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}; expected one of {VERDICTS}")
        if verdict == "certified" and method == "sampled":
            raise ValueError("sampling can falsify or be inconclusive, never certify")
        self.claim = claim
        self.method = method
        self.verdict = verdict
        self.payload = {} if payload is None else payload
        self.provenance = {} if provenance is None else provenance

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "method": self.method,
            "verdict": self.verdict,
            "payload": jsonable(self.payload),
            "provenance": jsonable(self.provenance),
        }


def _format_rational(x: Optional[Fraction]) -> Optional[str]:
    if x is None:
        return None
    return f"{x.numerator}/{x.denominator}"


class RunConfig:
    """Echo of the effective configuration of one CLI run."""

    __slots__ = (
        "command", "n", "m", "q", "alpha", "delta", "p_squared", "tol_deg", "samples", "seed",
        "budget", "format", "out",
    )

    def __init__(
        self,
        command: str,
        n: Optional[int] = None,
        m: Optional[int] = None,
        q: Optional[Fraction] = None,
        alpha: Optional[Fraction] = None,
        delta: Optional[Fraction] = None,
        p_squared: Optional[Fraction] = None,
        tol_deg: Fraction = Fraction(1, 1000),
        samples: int = 100_000,
        seed: int = 42,
        budget: int = 0,
        format: str = "text",
        out: Optional[str] = None,
    ) -> None:
        _fill(self, locals())

    def to_dict(self) -> dict:
        """JSON form: every rational is a {"num", "den"} object."""
        doc = {name: jsonable(getattr(self, name)) for name in self.__slots__}
        doc["low_sample"] = self.samples < 10_000
        return doc

    def display_dict(self) -> dict:
        """Text form: rationals as compact num/den strings."""
        doc = self.to_dict()
        for key in ("q", "alpha", "delta", "p_squared", "tol_deg"):
            doc[key] = _format_rational(getattr(self, key))
        return doc


class ReportEnvelope:
    """All reports of one run plus configuration echo and overall verdict.

    ``table_rows`` is set by table-shaped commands; the keys of its first
    row are the table's columns.
    """

    __slots__ = ("config", "reports", "elapsed_ms", "version", "table_rows")

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.reports: list[CertificationReport] = []
        self.elapsed_ms = 0
        self.version = VERSION
        self.table_rows: Optional[list[dict]] = None

    def add(self, report: CertificationReport) -> None:
        self.reports.append(report)

    @property
    def verdict(self) -> str:
        return worst_verdict(r.verdict for r in self.reports)

    def exit_code(self) -> int:
        return {
            "certified": EXIT_CERTIFIED,
            "falsified": EXIT_FALSIFIED,
            "inconclusive": EXIT_INCONCLUSIVE,
        }[self.verdict]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "config": self.config.to_dict(),
            "reports": [r.to_dict() for r in self.reports],
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if self.table_rows:
            writer.writerow(self.table_rows[0])
            for row in self.table_rows:
                writer.writerow(row.values())
        else:
            writer.writerow(["claim", "method", "verdict", "detail"])
            for r in self.reports:
                detail = json.dumps(jsonable(r.payload), sort_keys=True)
                writer.writerow([r.claim, r.method, r.verdict, detail])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"conecert {self.version} — {self.config.command}"]
        cfg = self.config.display_dict()
        shown = {k: v for k, v in cfg.items() if v is not None and k != "command"}
        lines.append("config: " + ", ".join(f"{k}={v}" for k, v in shown.items()))
        if cfg["low_sample"]:
            lines.append("warning: sample count below 10000; sampled checks are weak")
        lines.append("")
        if self.table_rows:
            columns = list(self.table_rows[0])
            widths = [max(len(h), *(len(str(row[h])) for row in self.table_rows)) for h in columns]
            header = "  ".join(h.ljust(w) for h, w in zip(columns, widths))
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.table_rows:
                lines.append("  ".join(str(row[h]).ljust(w) for h, w in zip(columns, widths)))
            lines.append("")
        for r in self.reports:
            lines.append(f"[{r.verdict.upper():12s}] ({r.method}) {r.claim}")
            for key, val in jsonable(r.payload).items():
                lines.append(f"    {key}: {_compact(val)}")
        lines.append("")
        lines.append(f"overall verdict: {self.verdict}")
        lines.append(f"elapsed_ms: {self.elapsed_ms}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        fmt = self.config.format
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


# The widest payload value a text report prints before it cuts the value short.
_TEXT_VALUE_WIDTH = 200


def _compact(value: Any) -> str:
    text = json.dumps(value) if not isinstance(value, str) else value
    if len(text) > _TEXT_VALUE_WIDTH:
        text = text[: _TEXT_VALUE_WIDTH - 3] + "..."
    return text
