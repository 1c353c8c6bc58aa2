"""Instance files, bundled networks, and the synthetic large network.

The interchange format is a single JSON document::

    {
      "period": 60,
      "stations": ["A", "B", ...],
      "segments": [{"from": "A", "to": "B", "single_track": false}, ...],
      "trains": [
        {"id": "L1a", "basic_headway": 3, "route": [
          {"from": "A", "to": "B", "running": [9, 12], "dwell_after": [2, 4]},
          {"from": "B", "to": "C", "running": [7, 9]}
        ]},
        ...
      ],
      "connections": [
        {"feeder": "L1a", "onward": "L3a", "station": "C", "window": [2, 8]}
      ],
      "weights": {"running": 1000, "dwell": 1000, "headway": 100,
                  "single_track": 100, "connection": 1},
      "metadata": {"name": "...", "synthetic": false, "notes": "..."}
    }

All times are integer minutes. The tables `_INSTANCE`, `_TRIP` and their
siblings below are the schema for both reading and writing: every allowed
key in the order it is written, the kind of its value and its default.
The final trip of a route omits "dwell_after"; a null there is rejected
like any other value that is not a pair of integers. Default metadata is
not written. Unknown keys anywhere are rejected by name. Files are saved
with stations first and trains ordered by id, so diffs stay stable.

Timetables use a sibling format::

    {"period": 60, "events": [
        {"train": "L1a", "station": "A", "kind": "departure", "time": 10},
        ...]}
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np

from . import codec, model
from .errors import (
    GenerationInfeasible,
    IoError,
    MissingEvent,
    ParseError,
    ValidationError,
)
from .model import (
    ConnectionSpec,
    ConstraintKind,
    Event,
    EventKind,
    Instance,
    InstanceMeta,
    Segment,
    Timetable,
    Train,
    Trip,
    WeightConfig,
)

__all__ = [
    "load",
    "save",
    "loads",
    "dumps",
    "load_timetable",
    "save_timetable",
    "build_cs1",
    "generate_cs2_like",
    "bundled_path",
    "BUILTIN_NAMES",
]

_BUNDLED = {"cs1": "cs1.json", "cs2": "cs2_synthetic.json"}
BUILTIN_NAMES = tuple(_BUNDLED)


# ---------------------------------------------------------------------------
# reading and writing documents
#
# Each kind of JSON object has one table, read by `_fields` and written by
# `_document`: it maps every allowed key, in the order it is written, to the
# kind of its value and to its default, `...` where the key is required. A
# kind is the exact JSON types its value may take (a boolean is no integer)
# and how a message names them. A location in the document, such as
# ("trip", 3, "of train", "L1a"), is a tuple of its words; `_label` joins
# them only when a message needs them, so a valid document formats no
# location at all.

_STRING = ((str,), "a string, got {!r}")
_INT = ((int,), "an integer, got {!r}")
_BOOL = ((bool,), "a boolean, got {!r}")
_NUMBER = ((int, float), "a number, got {!r}")
_PAIR = ((list,), "a pair of integers, got {!r}")
_LIST = ((list,), "a list")
_OBJECT = ((dict,), "an object")

_INSTANCE = {
    "period": (_INT, ...),
    "stations": (_LIST, ...),
    "segments": (_LIST, ()),
    "trains": (_LIST, ...),
    "connections": (_LIST, ()),
    "weights": (_OBJECT, {}),
    "metadata": (_OBJECT, {}),
}
_SEGMENT = {"from": (_STRING, ...), "to": (_STRING, ...), "single_track": (_BOOL, False)}
_TRAIN = {"id": (_STRING, ...), "basic_headway": (_INT, ...), "route": (_LIST, ...)}
_TRIP = {
    "from": (_STRING, ...),
    "to": (_STRING, ...),
    "running": (_PAIR, ...),
    "dwell_after": (_PAIR, (None, None)),  # absent on a route's final trip
}
_CONNECTION = {
    "feeder": (_STRING, ...),
    "onward": (_STRING, ...),
    "station": (_STRING, ...),
    "window": (_PAIR, ...),
}
_WEIGHTS = {f.name: (_NUMBER, f.default) for f in dataclasses.fields(WeightConfig)}
_METADATA = {"name": (_STRING, ""), "synthetic": (_BOOL, False), "notes": (_STRING, "")}
_TIMETABLE = {"period": (_INT, ...), "events": (_LIST, ...)}
_EVENT = {
    "train": (_STRING, ...),
    "station": (_STRING, ...),
    "kind": (_STRING, ...),
    "time": (_INT, ...),
}


def _label(where: tuple, field: str | None = None) -> str:
    words = where if field is None else (*where, field)
    return " ".join(map(str, words))


def _fields(obj, where: tuple, spec: dict) -> list:
    """The values of the JSON object `obj`, one per key of `spec` in its
    order, a missing key giving its default. A non-object is a
    ValidationError naming `where`; an unknown or missing key, or a value
    of the wrong kind, is one naming `where` and the key."""
    if type(obj) is not dict:
        raise ValidationError(f"{_label(where)} must be an object")
    for key in obj:
        if key not in spec:
            raise ValidationError(f"unknown key {key!r} in {_label(where)}")
    values = []
    for key, (kind, default) in spec.items():
        if key not in obj:
            if default is ...:
                raise ValidationError(f"missing key {key!r} in {_label(where)}")
            values.append(default)
            continue
        value = obj[key]
        types, noun = kind
        if type(value) not in types or (
            kind is _PAIR
            and (len(value) != 2 or type(value[0]) is not int or type(value[1]) is not int)
        ):
            raise ValidationError(f"{_label(where, key)} must be {noun.format(value)}")
        values.append(value)
    return values


def _instance_from_document(doc) -> Instance:
    period, stations, segment_docs, train_docs, connection_docs, weights, meta = _fields(
        doc, ("instance",), _INSTANCE
    )
    for station in stations:
        if type(station) is not str:
            raise ValidationError(f"station id must be a string, got {station!r}")
    segments = tuple(
        Segment(*_fields(obj, ("segment", k), _SEGMENT)) for k, obj in enumerate(segment_docs)
    )
    trains = []
    for k, obj in enumerate(train_docs):
        train_id, headway, route = _fields(obj, ("train", k), _TRAIN)
        trips = []
        for i, trip in enumerate(route):
            src, dst, running, dwell = _fields(trip, ("trip", i, "of train", train_id), _TRIP)
            trips.append(Trip(src, dst, *running, *dwell))
        trains.append(Train(train_id, headway, tuple(trips)))
    connections = []
    for k, obj in enumerate(connection_docs):
        feeder, onward, station, (lo, hi) = _fields(obj, ("connection", k), _CONNECTION)
        connections.append(ConnectionSpec(feeder, onward, station, lo, hi))

    return Instance(
        period=period,
        stations=tuple(stations),
        segments=segments,
        trains=tuple(trains),
        connections=tuple(connections),
        weights=WeightConfig(*_fields(weights, ("weights",), _WEIGHTS)),
        meta=InstanceMeta(*_fields(meta, ("metadata",), _METADATA)),
    )


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise ParseError("document nested too deeply to parse") from None


def _read_json(path: str | Path):
    """The JSON document in a UTF-8 file; every way reading or parsing can
    fail becomes an IoError or a ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e
    return _parse_json(text)


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8; failure becomes an IoError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def loads(text: str) -> Instance:
    """Parse and fully validate an instance from a JSON string."""
    return _instance_from_document(_parse_json(text))


def load(path: str | Path) -> Instance:
    """Load and fully validate an instance file."""
    return _instance_from_document(_read_json(path))


def _document(spec: dict, *values) -> dict:
    """The JSON object with `values` under the keys of `spec`, in its
    order: the inverse of `_fields`."""
    return dict(zip(spec, values))


def _trip_document(trip: Trip) -> dict:
    doc = _document(
        _TRIP,
        trip.from_station,
        trip.to_station,
        [trip.running_lo, trip.running_hi],
        [trip.dwell_after_lo, trip.dwell_after_hi],
    )
    if not trip.has_dwell:
        del doc["dwell_after"]  # a route's final trip
    return doc


def _instance_document(instance: Instance) -> dict:
    doc = _document(
        _INSTANCE,
        instance.period,
        list(instance.stations),
        [
            _document(_SEGMENT, *dataclasses.astuple(s))
            for s in sorted(instance.segments, key=Segment.pair)
        ],
        [
            _document(_TRAIN, t.id, t.basic_headway, [_trip_document(trip) for trip in t.route])
            for t in sorted(instance.trains, key=lambda t: t.id)
        ],
        [
            _document(
                _CONNECTION, c.feeder_train, c.onward_train, c.station, [c.conn_lo, c.conn_hi]
            )
            for c in instance.connections
        ],
        _document(_WEIGHTS, *dataclasses.astuple(instance.weights)),
        _document(_METADATA, *dataclasses.astuple(instance.meta)),
    )
    if instance.meta == InstanceMeta():
        del doc["metadata"]  # default metadata is left out
    return doc


def dumps(instance: Instance) -> str:
    return json.dumps(_instance_document(instance), indent=2) + "\n"


def save(instance: Instance, path: str | Path) -> None:
    """Write an instance in canonical form (trains ordered by id)."""
    write_text(path, dumps(instance))


# ---------------------------------------------------------------------------
# timetable files

def save_timetable(tt: Timetable, path: str | Path) -> None:
    """Write a timetable with its events in their natural order."""
    events = [
        _document(_EVENT, train, station, kind.value, time)
        for (train, station, kind), time in sorted(tt.times.items())
    ]
    write_text(path, json.dumps(_document(_TIMETABLE, tt.period, events), indent=2) + "\n")


def load_timetable(path: str | Path, instance: Instance) -> Timetable:
    """Load a timetable file and check it covers the instance's events;
    its times are a row over the instance's event index, as `codec.decode`
    gives."""
    period, events = _fields(_read_json(path), ("timetable",), _TIMETABLE)
    if period != instance.period:
        raise ValidationError(
            f"timetable period {period} does not match instance period {instance.period}"
        )
    times: dict[Event, int] = {}
    for k, entry in enumerate(events):
        where = ("timetable event", k)
        train, station, kind_name, time = _fields(entry, where, _EVENT)
        try:
            kind = EventKind(kind_name)
        except ValueError:
            raise ValidationError(f"{_label(where)}: kind must be arrival or departure") from None
        event = Event(train, station, kind)
        if event in times:
            raise ValidationError(f"{_label(where)}: duplicate event")
        times[event] = time

    index = instance.event_index
    for event in times:
        if event not in index.column:
            raise ValidationError(
                f"timetable lists {event.kind.value} of {event.train} at "
                f"{event.station}, which the instance never schedules"
            )
    for event in index.events:
        if event not in times:
            raise MissingEvent(
                f"timetable lacks {event.kind.value} of train {event.train} "
                f"at station {event.station}"
            )
    checked = Timetable(period, times)  # names the first time outside [0, period) in file order
    return Timetable(period, model._IndexedTimes(index, model._row(checked, index.events)))


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled instance ('cs1' or 'cs2')."""
    if name not in _BUNDLED:
        raise KeyError(f"no bundled instance named {name!r}")
    return Path(str(resources.files("perisched") / "data" / _BUNDLED[name]))


# ---------------------------------------------------------------------------
# shared construction helpers

def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _line_trains(
    line_id: str,
    stations: list[str],
    run_windows: dict[tuple[str, str], tuple[int, int]],
    dwell_windows: dict[str, tuple[int, int]],
    headway: int,
) -> tuple[Train, Train]:
    """Forward and reverse train of one line; same windows both ways."""

    def build(train_id: str, path: list[str]) -> Train:
        trips = []
        for k in range(len(path) - 1):
            a, b = path[k], path[k + 1]
            dwell = dwell_windows[b] if k < len(path) - 2 else ()  # none after the last trip
            trips.append(Trip(a, b, *run_windows[_edge(a, b)], *dwell))
        return Train(train_id, headway, tuple(trips))

    return (
        build(f"{line_id}a", stations),
        build(f"{line_id}b", list(reversed(stations))),
    )


def _nominal_genotype(instance: Instance, phases: dict[str, int]) -> codec.Genotype:
    """Each train departs at its phase, every running and dwell gene sits
    at the middle of its window."""
    index = instance.event_index
    genes = index.gene_lo + (index.gene_hi - index.gene_lo) // 2
    genes[index.section_offsets] = [phases[train.id] for train in instance.trains]
    return codec.Genotype(tuple(genes.tolist()))


def _centred_connection(
    reference: Timetable, feeder: str, onward: str, station: str, below: int, above: int
) -> ConnectionSpec:
    """The transfer from `feeder` to `onward` at `station`, its window
    reaching `below` minutes under and `above` over the gap the reference
    timetable leaves there (but never under 0)."""
    gap = (
        reference.of(Event.departure(onward, station))
        - reference.of(Event.arrival(feeder, station))
    ) % reference.period
    return ConnectionSpec(feeder, onward, station, max(0, gap - below), gap + above)


# ---------------------------------------------------------------------------
# case study 1: small interconnected network, four lines over ten stations

_CS1_PERIOD = 60

_CS1_LINE_STATIONS = {
    "L1": ["A", "B", "C", "D", "E"],
    "L2": ["F", "B", "G", "D", "H"],
    "L3": ["I", "C", "G", "J", "F"],
    "L4": ["J", "A", "H", "E", "I"],
}

_CS1_HEADWAY = {"L1": 3, "L2": 4, "L3": 3, "L4": 4}

# running windows per segment (keys sorted), minutes
_CS1_RUN = {
    ("A", "B"): (9, 12),
    ("B", "C"): (7, 9),
    ("C", "D"): (10, 13),
    ("D", "E"): (8, 10),
    ("B", "F"): (11, 14),
    ("B", "G"): (6, 8),
    ("D", "G"): (9, 11),
    ("D", "H"): (12, 15),
    ("C", "I"): (8, 10),
    ("C", "G"): (7, 9),
    ("G", "J"): (10, 12),
    ("F", "J"): (9, 12),
    ("A", "J"): (10, 13),
    ("A", "H"): (8, 11),
    ("E", "H"): (9, 11),
    ("E", "I"): (7, 9),
}

_CS1_SINGLE_TRACK = {("E", "I")}

# reference first departures; L4b is placed so the single-track window
# over E-I holds for the reference pattern
_CS1_PHASE = {
    "L1a": 0,
    "L1b": 30,
    "L2a": 7,
    "L2b": 37,
    "L3a": 14,
    "L3b": 44,
    "L4a": 21,
    "L4b": 30,
}

# feeder, onward, station; windows are set +/-1 around the reference gap
_CS1_TRANSFERS = [
    ("L1a", "L3a", "C"),
    ("L1a", "L2a", "D"),
    ("L1b", "L2b", "D"),
    ("L2a", "L3a", "G"),
    ("L2b", "L3b", "G"),
    ("L3a", "L2a", "F"),
    ("L4a", "L3a", "I"),
]

_CS1_CONN_SLACK = 1


def build_cs1() -> Instance:
    """Small benchmark network: 4 lines (8 trains), 10 stations, period 60,
    one single-track branch and 7 timed transfers.

    The connection windows are centered on a reference timetable that
    satisfies every constraint, so a perfect schedule always exists. The
    layout is a reconstruction built to the published summary counts of
    the original network, not its (unpublished) running times.
    """
    dwell = {s: (2, 4) for s in "ABCDEFGHIJ"}
    trains: list[Train] = []
    for line_id, stations in _CS1_LINE_STATIONS.items():
        trains.extend(
            _line_trains(line_id, stations, _CS1_RUN, dwell, _CS1_HEADWAY[line_id])
        )
    trains.sort(key=lambda t: t.id)
    segments = tuple(
        Segment(a, b, (a, b) in _CS1_SINGLE_TRACK)
        for a, b in sorted(_CS1_RUN)
    )
    skeleton = Instance(
        period=_CS1_PERIOD,
        stations=tuple("ABCDEFGHIJ"),
        segments=segments,
        trains=tuple(trains),
        connections=(),
        weights=WeightConfig(),
        meta=InstanceMeta(
            name="cs1",
            synthetic=False,
            notes="ten-station four-line network with one single-track branch",
        ),
    )

    reference = codec.decode(_nominal_genotype(skeleton, _CS1_PHASE), skeleton)
    connections = tuple(
        _centred_connection(reference, *transfer, _CS1_CONN_SLACK, _CS1_CONN_SLACK)
        for transfer in _CS1_TRANSFERS
    )
    return dataclasses.replace(skeleton, connections=connections)


def cs1_reference_genotype() -> codec.Genotype:
    """The reference solution of `build_cs1` as a genotype (fitness 0)."""
    return _nominal_genotype(build_cs1(), _CS1_PHASE)


# ---------------------------------------------------------------------------
# synthetic large network in the shape of case study 2

_CS2_TARGET = {
    ConstraintKind.RUNNING: 236,
    ConstraintKind.DWELL: 188,
    ConstraintKind.HEADWAY: 8,
    ConstraintKind.SINGLE_TRACK: 6,
    ConstraintKind.CONNECTION: 14,
}

_CS2_STATIONS = tuple(f"S{k:02d}" for k in range(1, 27))
_CS2_PERIOD = 60
_CS2_LINES = 24
_CS2_CONNECTION_COUNT = 14


def _walk(rng, length: int, used: set, path: list[str] | None = None) -> list[str] | None:
    """Random simple path with `length` edges, none previously used, that
    extends `path` (by default one random station)."""
    stations = _CS2_STATIONS
    path = path or [stations[rng.integers(len(stations))]]
    for _ in range(length):
        options = [
            s
            for s in stations
            if s not in path and _edge(path[-1], s) not in used
        ]
        if not options:
            return None
        path.append(options[rng.integers(len(options))])
    return path


def _walk_through(rng, length: int, used: set, shared: tuple[str, str]):
    """Random simple path with `length` edges containing the shared edge
    (in either orientation); only the shared edge may be reused."""
    u, v = shared
    if rng.integers(2):
        u, v = v, u
    prefix_len = int(rng.integers(0, length))  # edges before the shared one
    suffix_len = length - 1 - prefix_len
    head = _walk(rng, prefix_len, used | {_edge(u, v)}, [u])
    if head is None or v in head:
        return None
    head.reverse()  # walked outward from u; route runs toward u
    return _walk(rng, suffix_len, used, head + [v])


def generate_cs2_like(seed: int) -> Instance:
    """Deterministic synthetic network with the published shape of the
    large case study: 26 stations, 24 lines (48 trains), 14 connections
    and 452 constraints in total, period 60.

    The line data of the real network is not public, so this generates a
    random network matching those summary counts: 22 five-trip and 2
    four-trip lines, two corridor segments shared by a pair of lines
    (headway constraints) and three single-track branch segments. Bounds
    are sampled, then a reference timetable is fixed and the connection
    windows are centered on it, so every generated instance is solvable
    to zero violations.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        instance = _try_generate_cs2(rng, seed)
        if instance is not None:
            return instance
    raise GenerationInfeasible(
        f"could not assemble a conforming network for seed {seed}"
    )


def _try_generate_cs2(rng, seed: int) -> Instance | None:
    T = _CS2_PERIOD
    lengths = [5] * 22 + [4] * 2
    # lines 0+1 and 2+3 share a corridor segment; lines 4..6 own a
    # single-track segment; membership is disjoint so the reference
    # pattern can be phase-fixed one group at a time
    used: set[tuple[str, str]] = set()
    paths: list[list[str]] = []
    shared_edges: list[tuple[str, str]] = []
    single_edges: set[tuple[str, str]] = set()

    for line in range(_CS2_LINES):
        if line in (1, 3):
            shared = shared_edges[line // 2]
            path = _walk_through(rng, lengths[line], used, shared)
        else:
            path = _walk(rng, lengths[line], used)
        if path is None:
            return None
        paths.append(path)
        edges = [_edge(a, b) for a, b in zip(path, path[1:])]
        used.update(edges)
        if line in (0, 2):
            shared_edges.append(edges[len(edges) // 2])
        if line in (4, 5, 6):
            single_edges.add(edges[len(edges) // 2])

    if set().union(*[set(p) for p in paths]) != set(_CS2_STATIONS):
        return None  # leave no station unserved

    run_windows: dict[tuple[str, str], tuple[int, int]] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            key = _edge(a, b)
            if key not in run_windows:
                lo = int(rng.integers(7, 15))
                run_windows[key] = (lo, lo + int(rng.integers(2, 5)))
    dwell_windows = {}
    for s in _CS2_STATIONS:
        lo = int(rng.integers(1, 4))
        dwell_windows[s] = (lo, lo + int(rng.integers(1, 4)))

    trains: list[Train] = []
    for line, path in enumerate(paths):
        line_id = f"L{line + 1:02d}"
        headway = int(rng.integers(3, 6))
        trains.extend(
            _line_trains(line_id, path, run_windows, dwell_windows, headway)
        )
    trains.sort(key=lambda t: t.id)

    segments = tuple(Segment(a, b, (a, b) in single_edges) for a, b in sorted(used))

    skeleton = Instance(
        period=T,
        stations=_CS2_STATIONS,
        segments=segments,
        trains=tuple(trains),
        connections=(),
        weights=WeightConfig(),
    )

    phases = {t.id: int(rng.integers(T)) for t in trains}
    # decoded, the skeleton (no connections yet) can break only its headway
    # and single-track constraints
    bounds = model.derive_bounds(skeleton)
    # phase-fix one independent group at a time: the second corridor line
    # of each sharing pair and the reverse train of each single-track line
    groups = [
        ("L02a", "L02b"),
        ("L04a", "L04b"),
        ("L05b",),
        ("L06b",),
        ("L07b",),
    ]
    for movable in groups:
        base = dict(phases)
        for delta in range(T):
            for train_id in movable:
                phases[train_id] = (base[train_id] + delta) % T
            tt = codec.decode(_nominal_genotype(skeleton, phases), skeleton)
            violated = model.evaluate(tt, bounds, skeleton.weights).violated
            if not any(c.earlier.train in movable or c.later.train in movable for c, _ in violated):
                break
        else:
            return None

    reference = codec.decode(_nominal_genotype(skeleton, phases), skeleton)
    if model.evaluate(reference, bounds, skeleton.weights).violated:
        return None

    # pick transfer points between distinct lines
    line_of = lambda train_id: train_id[:3]
    candidates = []
    for feeder in trains:
        arrive_at = {trip.to_station for trip in feeder.route}
        for onward in trains:
            if line_of(onward.id) == line_of(feeder.id):
                continue
            for station in sorted(arrive_at):
                if station in (trip.from_station for trip in onward.route):
                    candidates.append((feeder.id, onward.id, station))
    if len(candidates) < _CS2_CONNECTION_COUNT:
        return None
    picked = rng.choice(len(candidates), size=_CS2_CONNECTION_COUNT, replace=False)
    # two slack draws per window, below the gap and then above it: this
    # order is part of every seed's network
    connections = tuple(
        _centred_connection(
            reference, *candidates[i], int(rng.integers(1, 3)), int(rng.integers(1, 3))
        )
        for i in sorted(picked.tolist())
    )
    instance = dataclasses.replace(
        skeleton,
        connections=connections,
        meta=InstanceMeta(
            name=f"cs2-synthetic-{seed}",
            synthetic=True,
            notes=(
                "randomly generated network matching the published summary "
                "shape of the large case study (station, train, connection "
                "and constraint counts); not the real line data"
            ),
        ),
    )
    constraints = model.derive_bounds(instance)
    if Counter(c.kind for c in constraints) != _CS2_TARGET:
        return None

    # the reference pattern must satisfy everything, including connections
    report = model.evaluate(reference, constraints, instance.weights)
    if report.weighted_fitness != 0:
        return None
    return instance
