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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

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
    read-only.
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
    """A full timetabling problem: network, trains and their bounds.

    Building one runs `validate_instance`, so an instance that exists is
    valid, whether it came from the constructor or `dataclasses.replace`.
    """

    period: int
    stations: tuple[str, ...]
    segments: tuple[Segment, ...]
    trains: tuple[Train, ...]
    connections: tuple[ConnectionSpec, ...]
    weights: WeightConfig = WeightConfig()
    meta: InstanceMeta = InstanceMeta()

    def __post_init__(self):
        validate_instance(self)

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


class PeriodicConstraint(NamedTuple):
    """Periodic window constraint between two events.

    Satisfied iff some integer q puts ``time(later) - time(earlier) +
    q*period`` inside ``[lo, hi]``. Windows are narrower than the period,
    so at most one q can work. A plain tuple, like `Event`: it is built
    in C, and ``_replace`` makes a changed copy.
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


class _IndexedTimes(Mapping):
    """Event times over an `EventIndex`: the time of ``index.events[i]`` is
    ``row[i]``, read from an int64 row that this makes read-only. Pickled
    as a plain dict, since an index comes back from a pickle writable."""

    __slots__ = ("index", "row")

    def __init__(self, index: EventIndex, row: np.ndarray):
        row.flags.writeable = False
        self.index, self.row = index, row

    def __getitem__(self, event: Event) -> int:
        return self.row.item(self.index.column[event])

    def __iter__(self):
        return iter(self.index.events)

    def __len__(self) -> int:
        return len(self.index.events)

    def __reduce__(self):
        return dict, (dict(zip(self.index.events, self.row.tolist())),)


@dataclass(frozen=True)
class Timetable:
    """Canonical event times: each an int (not a float, a bool or a numpy
    integer) in ``[0, period)``.

    ``times`` is a dict, or, from `codec.decode`, `instances.load_timetable`
    and `shift_timetable`, a read-only mapping over an `EventIndex` and an
    int64 row (range-checked in numpy), equal to a dict of the same times.
    """

    period: int
    times: Mapping[Event, int]

    def __post_init__(self):
        period, times = self.period, self.times
        if type(times) is _IndexedTimes:
            row = times.row
            outside = np.flatnonzero((row < 0) | (row >= period)).tolist()
            bad = ((times.index.events[i], row.item(i)) for i in outside)
        else:
            bad = ((e, t) for e, t in times.items() if type(t) is not int or not 0 <= t < period)
        for e, t in bad:
            raise ValidationError(
                f"time {t!r} for {e.kind.value} of {e.train} at {e.station} "
                f"must be an integer in [0, {period})"
            )

    def of(self, event: Event) -> int:
        try:
            return self.times[event]
        except KeyError:
            raise MissingEvent(
                f"timetable has no {event.kind.value} of train {event.train} "
                f"at station {event.station}"
            ) from None


def _row(tt: Timetable, events: tuple[Event, ...]) -> np.ndarray:
    """The times of ``events`` in ``tt`` as an int64 row: the timetable's
    own row when it is over those very events, else gathered in one pass,
    raising KeyError for an event ``tt`` lacks."""
    times = tt.times
    if type(times) is _IndexedTimes and times.index.events is events:
        return times.row
    return np.fromiter(map(times.__getitem__, events), np.int64, len(events))


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


#: Exclusive upper bound on the period and on integer weights.
INT_CAP = 2**31


def validate_instance(instance: Instance) -> None:
    """Check every structural invariant, raising ValidationError (or the
    MalformedInstance subclass for dangling references) with a message
    naming the offending element. `Instance` runs this when built.

    Every time (the period, headways and running, dwell and connection
    bounds) must be an int, not a float or a bool. The period and integer
    weights must lie below `INT_CAP` (2**31), so every gene and weight
    does. Then a gene fits an int32 exactly, and the fitness kernel's
    arithmetic stays exact in the integer type that
    `engine.CompiledProblem.dtype` picks for it.
    """
    period = instance.period
    if type(period) is not int:
        raise ValidationError(f"period must be an integer, got {period!r}")
    if not 2 <= period < INT_CAP:
        raise ValidationError(f"period must be in [2, 2**31), got {period}")

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
        if type(train.basic_headway) is not int:
            raise ValidationError(
                f"train {train.id}: basic_headway must be an integer, got {train.basic_headway!r}"
            )
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
            if not type(trip.running_lo) is type(trip.running_hi) is int:
                raise ValidationError(
                    f"{where}: running window [{trip.running_lo!r}, {trip.running_hi!r}] "
                    f"must be integers"
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
            if has_lo and not type(trip.dwell_after_lo) is type(trip.dwell_after_hi) is int:
                raise ValidationError(
                    f"{where}: dwell window [{trip.dwell_after_lo!r}, "
                    f"{trip.dwell_after_hi!r}] must be integers"
                )
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
        if not type(conn.conn_lo) is type(conn.conn_hi) is int:
            raise ValidationError(
                f"{label}: window [{conn.conn_lo!r}, {conn.conn_hi!r}] must be integers"
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
        if type(value) is bool or not (
            isinstance(value, (int, float)) and math.isfinite(value) and value >= 0
        ):
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


def derive_bounds(instance: Instance) -> Sequence[PeriodicConstraint]:
    """Build the full constraint set of an instance, as a tuple that also
    carries the constraints' table over ``instance.event_index``: each
    one's window, family and event columns as arrays, which `evaluate` and
    `engine.CompiledProblem` read instead of the constraint objects.

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
    output thus depends only on the instance content. An inverted window
    raises BoundInversion.

    Cost: linear in the instance's legs plus the constraints emitted (up
    to sorting each train's pairs by partner). Pairs are found through an
    index from each directed leg to the trains that run it, never by
    trying every ordered pair of trains. Every event is the one object
    `instance.event_index` holds for it, and its column is known where the
    constraint is made, so the table costs no event lookups.
    """
    T = instance.period
    index = instance.event_index
    events = index.events
    trains = sorted(instance.trains, key=lambda t: t.id)
    # trip k of trains[i] departs with events[starts[i] + 2k], arrives with the next
    offsets = dict(zip([t.id for t in instance.trains], index.section_offsets.tolist()))
    starts = [offsets[t.id] for t in trains]
    # a train departs each station once (`validate_instance`), so it runs each
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
    new_constraint = partial(tuple.__new__, PeriodicConstraint)  # in C, unlike the class's __new__
    columns: list[tuple[int, int]] = []  # each constraint's later and earlier column

    def emit(kind, x, y, lo, hi):
        c = new_constraint((kind, events[x], events[y], lo, hi))
        if lo > hi:
            raise BoundInversion(f"inverted window, lo > hi: {c.describe()}")
        out.append(c)
        columns.append((y, x))

    # a column after a section's first holds the gene whose window is the
    # running (arrival) or dwell (later departure) window from the column before
    gene_lo, gene_hi = index.gene_lo.tolist(), index.gene_hi.tolist()
    for kind, first in ((ConstraintKind.RUNNING, 1), (ConstraintKind.DWELL, 2)):
        for train, start in zip(trains, starts):
            for y in range(start + first, start + 2 * len(train.route), 2):
                emit(kind, y - 1, y, gene_lo[y], gene_hi[y])

    for i, k, j, m in pairs(runners):
        ti, tj = trains[i], trains[j]
        lo = abs(ti.route[k].running_lo - tj.route[m].running_lo) + ti.basic_headway
        emit(ConstraintKind.HEADWAY, starts[j] + 2 * m, starts[i] + 2 * k, lo, T - tj.basic_headway)

    opposing = {leg: runners[leg[::-1]] for leg in single if leg[::-1] in runners}
    for i, k, j, m in pairs(opposing):
        ti, tj = trains[i], trains[j]
        lo = 2 * min(ti.route[k].running_lo, tj.route[m].running_lo) + ti.basic_headway
        x, y = starts[j] + 2 * m + 1, starts[i] + 2 * k  # j's arrival, i's departure
        emit(ConstraintKind.SINGLE_TRACK, x, y, lo, T - tj.basic_headway)

    for conn in sorted(
        instance.connections,
        key=lambda c: (c.feeder_train, c.onward_train, c.station),
    ):
        x = index.column[Event.arrival(conn.feeder_train, conn.station)]
        y = index.column[Event.departure(conn.onward_train, conn.station)]
        # the only window that can reach the period: `validate_instance`
        # keeps the others' upper bounds below it
        emit(ConstraintKind.CONNECTION, x, y, *_normalized_window(conn.conn_lo, conn.conn_hi, T))

    return _ConstraintTable(out, events, *zip(*columns))  # every train runs a trip


#: The code of each constraint family: its position in `ConstraintKind`.
_CODE = {kind: code for code, kind in enumerate(ConstraintKind)}


class _ConstraintTable(tuple):
    """A tuple of constraints that carries their table over an event order
    ``events``: per constraint, its window as ``lo`` and ``width = hi -
    lo``, its family ``code`` (see `_CODE`) and the ``later`` and
    ``earlier`` columns of its events in ``events``, as read-only int64
    arrays. `derive_bounds` returns one over ``instance.event_index.events``.
    Pickled as a plain tuple.
    """

    def __new__(cls, constraints, events, later, earlier):
        table = super().__new__(cls, constraints)
        n = len(table)
        kinds, _, _, lo, hi = zip(*table) if n else [()] * 5
        table.events = events
        table.lo, table.width, table.code, table.later, table.earlier = arrays = [
            np.fromiter(values, np.int64, n)
            for values in (lo, hi, map(_CODE.__getitem__, kinds), later, earlier)
        ]
        table.width -= table.lo
        for array in arrays:
            array.flags.writeable = False
        return table

    @classmethod
    def over(cls, constraints, events, column) -> "_ConstraintTable":
        """``constraints`` as a table over ``events``, which ``column`` maps
        to their positions; KeyError for an event outside it."""
        later = map(column.__getitem__, map(attrgetter("later"), constraints))
        earlier = map(column.__getitem__, map(attrgetter("earlier"), constraints))
        return cls(constraints, events, later, earlier)

    def __reduce__(self):
        return tuple, (tuple(self),)


def window_test(raw, lo, width, period, scratch=None, out=None):
    """The periodic window rule, on ints or elementwise on numpy arrays.

    True where the difference ``raw = time(later) - time(earlier)`` misses
    the window ``[lo, lo + width]`` for every wrap offset. The window taken
    mod period covers ``width + 1`` residues, so it is hit iff ``(raw - lo)
    mod period <= width``.

    Both the scalar `evaluate` and the batch `engine.CompiledProblem` call
    this. The residue is taken as ``d - d // period * period``, which equals
    ``d % period`` for Python ints and numpy integers alike (both floor).
    numpy has a fast path for integer ``//`` by a scalar and none for
    ``%``, so on a dense population's 310 x 300 pair matrix this form is
    1.5 to 4 times faster (2-core x86, numpy 2.4).

    Given ``scratch``, the array form works in place: ``raw`` and
    ``scratch`` must be arrays of the broadcast shape and of one integer
    dtype, which ``lo`` and ``width`` share and which must hold ``raw -
    lo`` and the quotient times ``period`` (`engine.CompiledProblem` picks
    int32 or int64 so that it does). ``raw`` is overwritten by the residue
    and ``scratch`` by the quotient. The verdict goes into ``out``, a bool
    array of that shape, when one is given; with both, the rule allocates
    nothing.
    """
    if scratch is None:
        d = raw - lo
        return d - d // period * period > width
    d = np.subtract(raw, lo, out=raw)
    q = np.floor_divide(d, period, out=scratch)
    q *= period
    d -= q
    return np.greater(d, width, out=out)


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
    `weighted_fitness` of those counts. ``violated`` lists the violated
    constraints in the order of ``constraints``.

    The constraints are scored in one `window_test` pass over the arrays
    of their table: `derive_bounds`' own, or, for any other sequence, one
    built for this call over its own events. The times are the
    timetable's row when it is over the table's events (`codec.decode`'s,
    against its instance's `derive_bounds`), else gathered in one pass. A
    missing event raises MissingEvent, each constraint's later event
    checked before its earlier one, in constraint order.
    """
    table = constraints
    if type(table) is not _ConstraintTable:
        own = dict.fromkeys(e for c in constraints for e in (c.later, c.earlier))
        table = _ConstraintTable.over(constraints, tuple(own), dict(zip(own, range(len(own)))))
    try:
        row = _row(tt, table.events)
    except KeyError:
        for c in table:  # tt.of raises MissingEvent, later event first
            tt.of(c.later)
            tt.of(c.earlier)
        raise
    period = tt.period
    raw = row[table.later] - row[table.earlier]
    hit = np.flatnonzero(window_test(raw, table.lo, table.width, period))
    tally = np.bincount(table.code[hit], minlength=len(ConstraintKind)).tolist()
    counts = dict(zip(ConstraintKind, tally))  # Python ints: fitness as a scalar sum
    hit_constraints = map(table.__getitem__, hit.tolist())
    diffs = (raw[hit] % period).tolist()
    violated = tuple(map(tuple.__new__, repeat(Violation), zip(hit_constraints, diffs)))
    return EvaluationReport(counts, weighted_fitness(counts, weights), violated)


def shift_timetable(tt: Timetable, delta: int) -> Timetable:
    """Rotate every event time by ``delta`` within the timetable's period.
    A timetable over an event index stays over it."""
    period, times = tt.period, tt.times
    if type(times) is _IndexedTimes and type(delta) is int:
        return Timetable(period, _IndexedTimes(times.index, (times.row + delta % period) % period))
    return Timetable(period, {e: (t + delta) % period for e, t in times.items()})


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
