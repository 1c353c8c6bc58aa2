"""Periodic railway timetable generation.

Model a cyclic timetabling problem as periodic interval constraints on
event-time differences, encode candidate timetables as bounded integer
vectors, and search for violation-free schedules with a genetic
algorithm. Includes an exhaustive oracle for small instances, bundled
benchmark networks and a CLI experiment harness.
"""

from .codec import Genotype, decode, gene_bounds, random_genotype
from .engine import GaConfig, RunResult, Termination, run
from .errors import (
    BoundInversion,
    ConfigInvalid,
    EvaluatorMismatch,
    GenerationInfeasible,
    IoError,
    MalformedInstance,
    MissingEvent,
    OutOfBoundsGene,
    ParseError,
    SpaceTooLarge,
    TimetablingError,
    ValidationError,
)
from .instances import build_cs1, generate_cs2_like, load, save
from .model import (
    ConnectionSpec,
    ConstraintKind,
    EvaluationReport,
    Event,
    EventKind,
    Instance,
    InstanceMeta,
    PeriodicConstraint,
    Segment,
    Timetable,
    Train,
    Trip,
    Violation,
    WeightConfig,
    derive_bounds,
    evaluate,
    expand_periods,
    shift_timetable,
)
from .oracle import check_independent, exhaustive_min

__version__ = "0.1.0"

__all__ = [
    "BoundInversion",
    "ConfigInvalid",
    "ConnectionSpec",
    "ConstraintKind",
    "EvaluationReport",
    "EvaluatorMismatch",
    "Event",
    "EventKind",
    "GaConfig",
    "GenerationInfeasible",
    "Genotype",
    "Instance",
    "InstanceMeta",
    "IoError",
    "MalformedInstance",
    "MissingEvent",
    "OutOfBoundsGene",
    "ParseError",
    "PeriodicConstraint",
    "RunResult",
    "Segment",
    "SpaceTooLarge",
    "Termination",
    "Timetable",
    "TimetablingError",
    "Train",
    "Trip",
    "ValidationError",
    "Violation",
    "WeightConfig",
    "build_cs1",
    "check_independent",
    "decode",
    "derive_bounds",
    "evaluate",
    "exhaustive_min",
    "expand_periods",
    "gene_bounds",
    "generate_cs2_like",
    "load",
    "random_genotype",
    "run",
    "save",
    "shift_timetable",
]
