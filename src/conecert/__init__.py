"""Certified computations for capillary-cone stability thresholds.

The package separates every claim into an exact layer (rational and
interval arithmetic, symbolic certificates) and independent floating-point
oracles (seeded sampling campaigns).  Certified verdicts are only ever
produced by the exact layer; sampling can corroborate or falsify, never
certify.
"""

from .exact import (
    AngleDeg,
    Interval,
    QuadraticSurd,
    angle_range_from_threshold,
    to_fraction,
)
from .report import (
    EXIT_CERTIFIED,
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_OPERATIONAL_ERROR,
    VERSION,
    CertificationReport,
    ReportEnvelope,
    RunConfig,
)

__version__ = VERSION

__all__ = [
    "AngleDeg",
    "Interval",
    "QuadraticSurd",
    "angle_range_from_threshold",
    "to_fraction",
    "CertificationReport",
    "ReportEnvelope",
    "RunConfig",
    "EXIT_CERTIFIED",
    "EXIT_FALSIFIED",
    "EXIT_INCONCLUSIVE",
    "EXIT_OPERATIONAL_ERROR",
    "VERSION",
    "__version__",
]
