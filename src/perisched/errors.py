"""Exception types raised across the package."""


class TimetablingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TimetablingError):
    """An instance violates one of its structural invariants."""


class MalformedInstance(ValidationError):
    """A train, trip or station referenced somewhere does not exist."""


class BoundInversion(TimetablingError):
    """A derived constraint ended up with lower bound above upper bound."""


class MissingEvent(TimetablingError):
    """A timetable lacks an event required to evaluate a constraint."""


class OutOfBoundsGene(TimetablingError):
    """A genotype gene lies outside its allowed range."""


class EvaluatorMismatch(TimetablingError):
    """`model.evaluate` and the independent wrap-trial check
    `oracle.check_independent` count different violations in a timetable."""


class ConfigInvalid(TimetablingError):
    """A GA configuration violates its invariants."""


class SpaceTooLarge(TimetablingError):
    """Exhaustive enumeration was asked for a search space above the cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"search space has {size} points, above the cap of {cap}")
        self.size = size
        self.cap = cap


class ParseError(TimetablingError):
    """An instance or timetable file is not syntactically valid."""


class IoError(TimetablingError):
    """A file could not be read or written."""


class GenerationInfeasible(TimetablingError):
    """The synthetic instance generator could not meet its target counts."""
