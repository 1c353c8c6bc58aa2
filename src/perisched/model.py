"""Domain model for periodic railway timetabling.

Everything here works on integer minutes inside a repeating cycle of
``period`` minutes. A timetable assigns each arrival/departure event a
canonical time in ``[0, period)``; the published schedule is that pattern
repeated every period. Constraints are periodic interval constraints on
pairwise event differences: a constraint with window ``[lo, hi]`` between
an earlier event x and a later event y is satisfied when some integer q
makes ``lo <= time(y) - time(x) + q*period <= hi``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import BoundInversion, MalformedInstance, MissingEvent, ValidationError


class EventKind(str, Enum):
    ARRIVAL = "arrival"
    DEPARTURE = "departure"


class ConstraintKind(str, Enum):
    RUNNING = "running"
    DWELL = "dwell"
    HEADWAY = "headway"
    SINGLE_TRACK = "single_track"
    CONNECTION = "connection"


#: Constraint kinds whose violation makes a timetable infeasible.
HARD_KINDS = (
    ConstraintKind.RUNNING,
    ConstraintKind.DWELL,
    ConstraintKind.HEADWAY,
    ConstraintKind.SINGLE_TRACK,
)


class Event(NamedTuple):
    """A single arrival or departure of a train at a station.

    A plain tuple, so it hashes and compares in C. Its natural order is
    the sort order of saved and expanded timetables: by train, then
    station, then arrival before departure.
    """

    train: str
    station: str
    kind: EventKind

    @classmethod
    def arrival(cls, train: str, station: str) -> "Event":
        return cls(train, station, EventKind.ARRIVAL)

    @classmethod
    def departure(cls, train: str, station: str) -> "Event":
        return cls(train, station, EventKind.DEPARTURE)


@dataclass(frozen=True)
class Trip:
    """One leg of a train route, with its running window and the dwell
    window at the arrival station (absent on the final leg)."""

    from_station: str
    to_station: str
    running_lo: int
    running_hi: int
    dwell_after_lo: int | None = None
    dwell_after_hi: int | None = None

    @property
    def has_dwell(self) -> bool:
        return self.dwell_after_lo is not None


@dataclass(frozen=True)
class Train:
    id: str
    basic_headway: int
    route: tuple[Trip, ...]


@dataclass(frozen=True)
class Segment:
    """A piece of track between two stations. ``single_track`` means
    opposite-direction trains must share the one track."""

    from_station: str
    to_station: str
    single_track: bool = False

    def pair(self) -> tuple[str, str]:
        a, b = self.from_station, self.to_station
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ConnectionSpec:
    """A passenger transfer: the onward train should depart ``station``
    between ``conn_lo`` and ``conn_hi`` minutes after the feeder arrives."""

    feeder_train: str
    onward_train: str
    station: str
    conn_lo: int
    conn_hi: int


@dataclass(frozen=True)
class WeightConfig:
    """Violation weights per constraint family. Hard families (headway,
    single-track) must outweigh the soft connection family."""

    running: int | float = 1000
    dwell: int | float = 1000
    headway: int | float = 100
    single_track: int | float = 100
    connection: int | float = 1

    def weight_for(self, kind: ConstraintKind) -> int | float:
        return getattr(self, kind.value)


@dataclass(frozen=True)
class InstanceMeta:
    name: str = ""
    synthetic: bool = False
    notes: str = ""


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=np.int64)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EventIndex:
    """The genotype layout of an instance: its events interned to integer
    columns, each with the window of its gene.

    Column i of a genotype, and of a decoded event-time row, belongs to
    ``events[i]``: trains in instance order, each train's events in journey
    order (departure, then arrival and departure per stopover, then the
    final arrival). The columns of one train form its section;
    ``section_offsets`` holds the first column of each section. Gene i lies
    in ``[gene_lo[i], gene_hi[i]]``: ``[0, period - 1]`` for a train's
    first departure, the trip's running window for an arrival, the previous
    trip's dwell window for any later departure. `of` makes the arrays
    read-only; like `derive_bounds`, it assumes a validated instance.
    """

    events: tuple[Event, ...]
    column: dict[Event, int]
    section_offsets: np.ndarray
    gene_lo: np.ndarray
    gene_hi: np.ndarray

    @classmethod
    def of(cls, instance: Instance) -> "EventIndex":
        events, offsets, windows = [], [], []
        departs, arrives = EventKind.DEPARTURE, EventKind.ARRIVAL  # read once: enum lookups are slow
        for train in instance.trains:
            offsets.append(len(events))
            departure = (0, instance.period - 1)  # the window of the next departure's gene
            for trip in train.route:
                events += (
                    Event(train.id, trip.from_station, departs),
                    Event(train.id, trip.to_station, arrives),
                )
                windows += (departure, (trip.running_lo, trip.running_hi))
                departure = (trip.dwell_after_lo, trip.dwell_after_hi)
        arrays = [_read_only(a) for a in (offsets, *zip(*windows))]
        return cls(tuple(events), {e: col for col, e in enumerate(events)}, *arrays)


@dataclass(frozen=True)
class Instance:
    """A full timetabling problem: network, trains and their bounds."""

    period: int
    stations: tuple[str, ...]
    segments: tuple[Segment, ...]
    trains: tuple[Train, ...]
    connections: tuple[ConnectionSpec, ...]
    weights: WeightConfig = WeightConfig()
    meta: InstanceMeta = InstanceMeta()

    @cached_property
    def event_index(self) -> EventIndex:
        """This instance's event index, built on first use and then kept
        with the instance (but not pickled with it)."""
        return EventIndex.of(self)

    def __hash__(self) -> int:
        # equal instances share these; the generated __eq__ settles collisions
        return hash((self.period, self.stations))

    def __getstate__(self) -> dict:
        # an unpickled instance rebuilds its own read-only index on first
        # use: a pickled index would come back writable, at twice the size
        state = self.__dict__.copy()
        state.pop("event_index", None)
        return state


@dataclass(frozen=True)
class PeriodicConstraint:
    """Periodic window constraint between two events.

    Satisfied iff some integer q puts ``time(later) - time(earlier) +
    q*period`` inside ``[lo, hi]``. Windows are narrower than the period,
    so at most one q can work.
    """

    kind: ConstraintKind
    earlier: Event
    later: Event
    lo: int
    hi: int

    def describe(self) -> str:
        return (
            f"{self.kind.value}: {self.earlier.kind.value} {self.earlier.train}"
            f"@{self.earlier.station} -> {self.later.kind.value}"
            f" {self.later.train}@{self.later.station} in [{self.lo}, {self.hi}]"
        )


@dataclass(frozen=True)
class Timetable:
    """Canonical event times, each in ``[0, period)``."""

    period: int
    times: dict[Event, int]

    def __post_init__(self):
        for event, t in self.times.items():
            if not 0 <= t < self.period:
                raise ValidationError(
                    f"time {t} for {event.kind.value} of {event.train} at "
                    f"{event.station} is outside [0, {self.period})"
                )

    def of(self, event: Event) -> int:
        try:
            return self.times[event]
        except KeyError:
            raise MissingEvent(
                f"timetable has no {event.kind.value} of train {event.train} "
                f"at station {event.station}"
            ) from None


class Violation(NamedTuple):
    constraint: PeriodicConstraint
    diff: int  # (time(later) - time(earlier)) mod period


@dataclass(frozen=True)
class EvaluationReport:
    """Violation tally of one timetable against one constraint set."""

    violations_by_type: dict[ConstraintKind, int]
    weighted_fitness: int | float
    violated: tuple[Violation, ...] = ()

    @property
    def hard_violations(self) -> int:
        return sum(self.violations_by_type[k] for k in HARD_KINDS)

    @property
    def soft_violations(self) -> int:
        return self.violations_by_type[ConstraintKind.CONNECTION]

    @property
    def feasible(self) -> bool:
        return self.hard_violations == 0

    @property
    def feasible_with_connections(self) -> bool:
        return self.hard_violations == 0 and self.soft_violations == 0


#: Exclusive upper bound on the period and on integer weights.
INT_CAP = 2**31


def validate_instance(instance: Instance) -> None:
    """Check every structural invariant, raising ValidationError (or the
    MalformedInstance subclass for dangling references) with a message
    naming the offending element.

    The period and integer weights must lie below `INT_CAP` (2**31), so every
    gene and weight does. Then the batched int64 arithmetic stays exact: a
    prefix sum over n genes, or a weighted count over n constraints, stays
    below n * 2**31 < 2**63 for any n under 2**32, far more than fits in memory.
    """
    if not 2 <= instance.period < INT_CAP:
        raise ValidationError(f"period must be in [2, 2**31), got {instance.period}")

    stations = instance.stations
    if len(set(stations)) != len(stations):
        raise ValidationError("duplicate station ids")
    known = set(stations)

    seen_pairs: set[tuple[str, str]] = set()
    for seg in instance.segments:
        if seg.from_station == seg.to_station:
            raise ValidationError(
                f"segment {seg.from_station}-{seg.to_station} joins a station to itself"
            )
        for s in (seg.from_station, seg.to_station):
            if s not in known:
                raise MalformedInstance(f"segment references unknown station {s!r}")
        if seg.pair() in seen_pairs:
            raise ValidationError(
                f"more than one segment for station pair {seg.pair()}"
            )
        seen_pairs.add(seg.pair())

    if not instance.trains:
        raise ValidationError("instance has no trains")
    ids = [t.id for t in instance.trains]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate train ids")

    for train in instance.trains:
        if not train.route:
            raise ValidationError(f"train {train.id} has an empty route")
        if not 1 <= train.basic_headway < instance.period:
            raise ValidationError(
                f"train {train.id}: basic_headway {train.basic_headway} "
                f"not in [1, {instance.period})"
            )
        last = len(train.route) - 1
        for k, trip in enumerate(train.route):
            where = f"train {train.id} trip {k} ({trip.from_station}->{trip.to_station})"
            if trip.from_station == trip.to_station:
                raise ValidationError(f"{where}: departs and arrives at the same station")
            for s in (trip.from_station, trip.to_station):
                if s not in known:
                    raise MalformedInstance(f"{where}: unknown station {s!r}")
            if k < last and trip.to_station != train.route[k + 1].from_station:
                raise ValidationError(
                    f"{where}: route breaks at {trip.to_station}, next trip "
                    f"starts at {train.route[k + 1].from_station}"
                )
            if not 1 <= trip.running_lo <= trip.running_hi < instance.period:
                raise ValidationError(
                    f"{where}: running window [{trip.running_lo}, {trip.running_hi}] "
                    f"invalid for period {instance.period}"
                )
            has_lo = trip.dwell_after_lo is not None
            has_hi = trip.dwell_after_hi is not None
            if has_lo != has_hi:
                raise ValidationError(f"{where}: dwell window only half specified")
            if k < last and not has_lo:
                raise ValidationError(f"{where}: intermediate stop lacks a dwell window")
            if k == last and has_lo:
                raise ValidationError(f"{where}: final trip must not carry a dwell window")
            if has_lo and not (
                0 <= trip.dwell_after_lo <= trip.dwell_after_hi < instance.period
            ):
                raise ValidationError(
                    f"{where}: dwell window [{trip.dwell_after_lo}, "
                    f"{trip.dwell_after_hi}] invalid for period {instance.period}"
                )
        # one canonical time per (kind, station): no station may repeat per kind
        departures = [t.from_station for t in train.route]
        arrivals = [t.to_station for t in train.route]
        if len(set(departures)) != len(departures) or len(set(arrivals)) != len(arrivals):
            raise ValidationError(
                f"train {train.id} visits a station twice in the same role; "
                f"event times would be ambiguous"
            )

    by_id = {t.id: t for t in instance.trains}
    for conn in instance.connections:
        label = (
            f"connection {conn.feeder_train}->{conn.onward_train} at {conn.station}"
        )
        if conn.station not in known:
            raise MalformedInstance(f"{label}: unknown station {conn.station!r}")
        feeder = by_id.get(conn.feeder_train)
        onward = by_id.get(conn.onward_train)
        if feeder is None:
            raise MalformedInstance(f"{label}: unknown train {conn.feeder_train!r}")
        if onward is None:
            raise MalformedInstance(f"{label}: unknown train {conn.onward_train!r}")
        if conn.station not in (t.to_station for t in feeder.route):
            raise MalformedInstance(
                f"{label}: feeder never arrives at {conn.station}"
            )
        if conn.station not in (t.from_station for t in onward.route):
            raise MalformedInstance(
                f"{label}: onward train never departs from {conn.station}"
            )
        if not 0 <= conn.conn_lo <= conn.conn_hi:
            raise ValidationError(f"{label}: window [{conn.conn_lo}, {conn.conn_hi}] inverted")
        if conn.conn_hi - conn.conn_lo >= instance.period:
            raise ValidationError(
                f"{label}: window wider than the period is always satisfied"
            )

    w = instance.weights
    for kind in ConstraintKind:
        value = w.weight_for(kind)
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            raise ValidationError(
                f"weight for {kind.value} must be a finite non-negative number, "
                f"got {value!r}"
            )
        if isinstance(value, int) and value >= INT_CAP:
            raise ValidationError(f"weight for {kind.value} must be below 2**31, got {value}")
    if not (w.headway > w.connection and w.single_track > w.connection):
        raise ValidationError(
            "hard-constraint weights (headway, single_track) must exceed the "
            "connection weight"
        )


def _normalized_window(lo: int, hi: int, period: int) -> tuple[int, int]:
    # Shift the window by whole periods until hi < period. Keeps the
    # satisfied set identical and guarantees -period < lo <= hi < period,
    # which the brute-force q in {-1, 0, 1} trial relies on.
    shift = (hi // period) * period if hi >= period else 0
    return lo - shift, hi - shift


def derive_bounds(instance: Instance) -> list[PeriodicConstraint]:
    """Build the full constraint set of a validated instance.

    The instance must have passed `validate_instance` (`instances.load`,
    `loads`, `build_cs1` and `generate_cs2_like` all validate): dangling
    references and missing dwell windows are not checked again here.

    Families, in output order:

    * running: one per trip, window = the trip's running bounds, between
      the departure and the arrival of that leg.
    * dwell: one per intermediate stop, window = the dwell bounds,
      between arrival and departure at the stop.
    * headway: one per ordered pair of distinct trains that share a
      directed trip s->t, between their departures at s. Lower bound =
      |running_lo(i) - running_lo(j)| + basic_headway(i); upper bound =
      period - basic_headway(j).
    * single_track: one per ordered pair of trains crossing a single-track
      segment in opposite directions, between the opposing train's arrival
      and this train's departure at the entry station. Lower bound =
      2 * min of the two running_lo values + basic_headway(i); upper bound
      = period - basic_headway(j).
    * connection: one per connection spec, between feeder arrival and
      onward departure.

    Ordering within a family is by key: running and dwell by (train id,
    route position); headway and single_track by (id of i, id of j, route
    position of i's event); connection by (feeder, onward, station). The
    output thus depends only on the instance content. Windows
    at least a full period wide are dropped with a warning; an inverted
    window raises BoundInversion.

    Cost: linear in the instance's legs plus the constraints emitted (up
    to sorting each train's pairs by partner). Pairs are found through an
    index from each directed leg to the trains that run it, never by
    trying every ordered pair of trains, and every event is the one
    object `instance.event_index` holds for it.
    """
    T = instance.period
    index = instance.event_index
    events = index.events
    trains = sorted(instance.trains, key=lambda t: t.id)
    # trip k of trains[i] departs with events[starts[i] + 2k], arrives with the next
    offsets = dict(zip([t.id for t in instance.trains], index.section_offsets.tolist()))
    starts = [offsets[t.id] for t in trains]
    # a validated train departs each station once, so it runs each
    # directed leg at most once: (train position, route position) per runner
    runners: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for i, train in enumerate(trains):
        for k, trip in enumerate(train.route):
            runners.setdefault((trip.from_station, trip.to_station), []).append((i, k))
    single = {
        leg
        for seg in instance.segments
        if seg.single_track
        for leg in (seg.pair(), seg.pair()[::-1])
    }

    def pairs(partner_legs):
        """(i, k, j, m) for each trip k of each train i and each runner
        (j, m) in ``partner_legs`` of that trip's leg, j other than i;
        ordered by (i, j, k)."""
        for i, train in enumerate(trains):
            found = []
            for k, trip in enumerate(train.route):
                for j, m in partner_legs.get((trip.from_station, trip.to_station), ()):
                    if j != i:
                        found.append((j, k, m))
            found.sort()
            for j, k, m in found:
                yield i, k, j, m

    out: list[PeriodicConstraint] = []

    def emit(kind, earlier, later, lo, hi):
        c = PeriodicConstraint(kind, earlier, later, *_normalized_window(lo, hi, T))
        if c.lo > c.hi:
            raise BoundInversion(f"inverted window, lo > hi: {c.describe()}")
        if c.hi - c.lo >= T:
            warnings.warn(
                f"dropping vacuous constraint, window spans a full period: "
                f"{c.describe()}",
                stacklevel=3,
            )
            return
        out.append(c)

    for train, start in zip(trains, starts):
        for k, trip in enumerate(train.route):
            emit(
                ConstraintKind.RUNNING,
                events[start + 2 * k],
                events[start + 2 * k + 1],
                trip.running_lo,
                trip.running_hi,
            )

    for train, start in zip(trains, starts):
        for k, trip in enumerate(train.route[:-1]):
            emit(
                ConstraintKind.DWELL,
                events[start + 2 * k + 1],
                events[start + 2 * k + 2],
                trip.dwell_after_lo,
                trip.dwell_after_hi,
            )

    for i, k, j, m in pairs(runners):
        ti, tj = trains[i], trains[j]
        emit(
            ConstraintKind.HEADWAY,
            events[starts[j] + 2 * m],
            events[starts[i] + 2 * k],
            abs(ti.route[k].running_lo - tj.route[m].running_lo) + ti.basic_headway,
            T - tj.basic_headway,
        )

    opposing = {leg: runners[leg[::-1]] for leg in single if leg[::-1] in runners}
    for i, k, j, m in pairs(opposing):
        ti, tj = trains[i], trains[j]
        emit(
            ConstraintKind.SINGLE_TRACK,
            events[starts[j] + 2 * m + 1],
            events[starts[i] + 2 * k],
            2 * min(ti.route[k].running_lo, tj.route[m].running_lo) + ti.basic_headway,
            T - tj.basic_headway,
        )

    for conn in sorted(
        instance.connections,
        key=lambda c: (c.feeder_train, c.onward_train, c.station),
    ):
        emit(
            ConstraintKind.CONNECTION,
            Event.arrival(conn.feeder_train, conn.station),
            Event.departure(conn.onward_train, conn.station),
            conn.conn_lo,
            conn.conn_hi,
        )

    return out


def window_test(raw, lo, width, period):
    """The periodic window rule, on ints or elementwise on numpy arrays.

    True where the difference ``raw = time(later) - time(earlier)`` misses
    the window ``[lo, lo + width]`` for every wrap offset. The window taken
    mod period covers ``width + 1`` residues, so it is hit iff ``(raw - lo)
    mod period <= width``.

    Both the scalar `evaluate` and the batch `engine.CompiledProblem` call
    this. The residue is taken as ``d - d // period * period``, which equals
    ``d % period`` for Python ints and numpy int64 alike (both floor).
    numpy has a fast path for int64 ``//`` by a scalar and none for ``%``,
    so on a dense population's 310 x 299 pair matrix this form takes 0.3
    to 0.5 ms against 0.7 to 1.6 ms (2-core x86, numpy 2.4).
    """
    d = raw - lo
    return d - d // period * period > width


def weighted_fitness(
    counts: Mapping[ConstraintKind, int | np.ndarray], weights: WeightConfig
) -> int | float | np.ndarray:
    """Fitness from violation counts per family: the sum of each count
    times its family's weight, added one family at a time in
    `ConstraintKind` order.

    This is the only place counts become a fitness. Counts may be ints or
    numpy arrays (one entry per individual); because the order of the
    additions is fixed, both give bit-identical results, fractional
    weights included. Integer weights give exact integers.
    """
    total = 0
    for kind in ConstraintKind:  # a plain loop: sum() may compensate float rounding
        total = total + counts[kind] * weights.weight_for(kind)
    return total


def evaluate(
    tt: Timetable,
    constraints: Sequence[PeriodicConstraint],
    weights: WeightConfig,
) -> EvaluationReport:
    """Tally violations of each family and the weighted fitness.

    Each violated constraint counts once toward its family regardless of
    how far outside the window the difference lies; the fitness is
    `weighted_fitness` of those counts.
    """
    period = tt.period
    times = tt.times
    counts = {kind: 0 for kind in ConstraintKind}
    violated: list[Violation] = []
    for c in constraints:
        try:
            raw = times[c.later] - times[c.earlier]
        except KeyError:
            raw = tt.of(c.later) - tt.of(c.earlier)  # raises MissingEvent naming the event
        if window_test(raw, c.lo, c.hi - c.lo, period):
            counts[c.kind] += 1
            violated.append(Violation(c, raw % period))
    return EvaluationReport(counts, weighted_fitness(counts, weights), tuple(violated))


def shift_timetable(tt: Timetable, delta: int) -> Timetable:
    """Rotate every event time by ``delta`` within the timetable's period."""
    period = tt.period
    return Timetable(period, {e: (t + delta) % period for e, t in tt.times.items()})


def expand_periods(tt: Timetable, k: int) -> list[tuple[int, Event]]:
    """Unroll the canonical pattern over ``k`` consecutive periods.

    Each event appears once per period at ``canonical + p*period``; the
    result is sorted by absolute time (ties by train, station, kind).
    """
    if k < 1:
        raise ValueError(f"need at least one period, got k={k}")
    return sorted(
        (t + p * tt.period, event) for event, t in tt.times.items() for p in range(k)
    )


def random_timetable(
    instance: Instance, rng: np.random.Generator
) -> Timetable:
    """Uniform random canonical time for every event; a test utility."""
    events = instance.event_index.events
    times = rng.integers(0, instance.period, size=len(events))
    return Timetable(
        instance.period, {e: int(t) for e, t in zip(events, times)}
    )
