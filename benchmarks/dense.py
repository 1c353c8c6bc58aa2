"""Seeded dense network for the ``dense-feasible`` benchmark workload.

The bundled networks are solved within a few thousand evaluations, so
they cannot show how soon the GA reaches a conflict-free timetable. This
generator packs many lines onto a few trunk corridors: every directed
trip that several lines share yields a headway constraint per ordered
train pair, so the pairwise test takes about half of fitness time, far
more than on the bundled networks. Each line also ends on a private
single-track spur, and transfers link lines at corridor stations.

The network is solvable by construction. Train phases are placed greedily
so that a reference timetable (every running and dwell gene at the middle
of its window) meets every headway and single-track constraint, and each
connection window is centred on that reference. `generate` checks the
reference against both evaluators before returning. (The benchmark checks
for every network that all connections together weigh less than one hard
violation, so that hard feasibility can be read off the fitness.)
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from perisched import codec, model, oracle

PERIOD = 60
CORRIDORS = 3
CORRIDOR_STATIONS = 9
LINES = 15
CORRIDOR_TRIPS = 4  # plus one spur trip per line
CONNECTIONS = 40
HEADWAYS = (3, 4, 5)  # minutes, dealt out evenly over the lines
ATTEMPTS = 64

_PAIR_KINDS = (model.ConstraintKind.HEADWAY, model.ConstraintKind.SINGLE_TRACK)


@dataclass(frozen=True)
class DenseNetwork:
    instance: model.Instance
    census: dict[str, int]


def _mid(lo: int, hi: int) -> int:
    return lo + (hi - lo) // 2


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _train(train_id, path, headway, run_windows, dwell_windows) -> model.Train:
    trips = []
    for k, (a, b) in enumerate(zip(path, path[1:])):
        lo, hi = run_windows[_edge(a, b)]
        if k < len(path) - 2:
            trips.append(model.Trip(a, b, lo, hi, *dwell_windows[b]))
        else:
            trips.append(model.Trip(a, b, lo, hi))
    return model.Train(train_id, headway, tuple(trips))


def _nominal_times(train: model.Train, phase: int) -> dict[model.Event, int]:
    """Event times with the first departure at `phase` and every other
    gene at the middle of its window."""
    times = {}
    clock = phase
    times[model.Event.departure(train.id, train.route[0].from_station)] = clock % PERIOD
    for trip in train.route:
        clock += _mid(trip.running_lo, trip.running_hi)
        times[model.Event.arrival(train.id, trip.to_station)] = clock % PERIOD
        if trip.has_dwell:
            clock += _mid(trip.dwell_after_lo, trip.dwell_after_hi)
            times[model.Event.departure(train.id, trip.to_station)] = clock % PERIOD
    return times


def _reference_genotype(instance: model.Instance, phases: dict[str, int]) -> codec.Genotype:
    genes = []
    for train in instance.trains:
        genes.append(phases[train.id])
        for trip in train.route:
            genes.append(_mid(trip.running_lo, trip.running_hi))
            if trip.has_dwell:
                genes.append(_mid(trip.dwell_after_lo, trip.dwell_after_hi))
    return codec.Genotype(tuple(genes))


def _satisfied(c: model.PeriodicConstraint, times: dict[model.Event, int]) -> bool:
    d = (times[c.later] - times[c.earlier]) % PERIOD
    return (d - c.lo) % PERIOD <= c.hi - c.lo


def _try_generate(rng: np.random.Generator, name: str):
    corridors = [
        [f"C{c}{k:02d}" for k in range(CORRIDOR_STATIONS)] for c in range(CORRIDORS)
    ]
    # a fixed layout: the lines of a corridor start one station apart and
    # alternate direction, so every seed gives the same census
    paths = []
    for line in range(LINES):
        lane = line // CORRIDORS
        start = lane % (CORRIDOR_STATIONS - CORRIDOR_TRIPS)
        window = corridors[line % CORRIDORS][start : start + CORRIDOR_TRIPS + 1]
        if lane % 2:
            window = window[::-1]
        paths.append(window + [f"X{line:02d}"])

    edges = sorted({_edge(a, b) for p in paths for a, b in zip(p, p[1:])})
    run_windows = {}
    for e in edges:
        lo = int(rng.integers(6, 12))
        run_windows[e] = (lo, lo + int(rng.integers(2, 5)))
    stations = sorted({s for p in paths for s in p})
    dwell_windows = {}
    for s in stations:
        lo = int(rng.integers(1, 3))
        dwell_windows[s] = (lo, lo + int(rng.integers(1, 4)))

    # headways drive difficulty most, so every network gets the same mix
    headways = rng.permutation(np.resize(HEADWAYS, LINES))
    trains = []
    for line, path in enumerate(paths):
        headway = int(headways[line])
        trains.append(_train(f"D{line:02d}a", path, headway, run_windows, dwell_windows))
        trains.append(_train(f"D{line:02d}b", path[::-1], headway, run_windows, dwell_windows))
    trains.sort(key=lambda t: t.id)
    spurs = {_edge(p[-2], p[-1]) for p in paths}
    segments = tuple(model.Segment(a, b, (a, b) in spurs) for a, b in edges)
    skeleton = model.Instance(
        period=PERIOD,
        stations=tuple(stations),
        segments=segments,
        trains=tuple(trains),
        connections=(),
    )

    # greedy phases: each train takes the first phase, from a random
    # offset, that keeps every constraint with the trains placed before it
    by_pair = collections.defaultdict(list)
    for c in model.derive_bounds(skeleton):
        if c.kind in _PAIR_KINDS:
            by_pair[frozenset((c.earlier.train, c.later.train))].append(c)
    phases: dict[str, int] = {}
    times: dict[model.Event, int] = {}
    for index in rng.permutation(len(trains)):
        train = trains[int(index)]
        relevant = [
            c for other in phases for c in by_pair.get(frozenset((train.id, other)), ())
        ]
        offset = int(rng.integers(PERIOD))
        for delta in range(PERIOD):
            phase = (offset + delta) % PERIOD
            trial = {**times, **_nominal_times(train, phase)}
            if all(_satisfied(c, trial) for c in relevant):
                phases[train.id] = phase
                times = trial
                break
        else:
            return None

    line_of = {t.id: t.id[:3] for t in trains}
    candidates = []
    for feeder in trains:
        for onward in trains:
            if line_of[feeder.id] == line_of[onward.id]:
                continue
            departs = {trip.from_station for trip in onward.route}
            for trip in feeder.route:
                if trip.to_station in departs:
                    candidates.append((feeder.id, onward.id, trip.to_station))
    if len(candidates) < CONNECTIONS:
        return None
    connections = []
    for index in sorted(rng.choice(len(candidates), size=CONNECTIONS, replace=False)):
        feeder, onward, station = candidates[int(index)]
        gap = (
            times[model.Event.departure(onward, station)]
            - times[model.Event.arrival(feeder, station)]
        ) % PERIOD
        slack = int(rng.integers(1, 3))
        connections.append(
            model.ConnectionSpec(feeder, onward, station, max(0, gap - slack), gap + slack)
        )

    instance = model.Instance(
        period=PERIOD,
        stations=tuple(stations),
        segments=segments,
        trains=tuple(trains),
        connections=tuple(connections),
        meta=model.InstanceMeta(
            name=name,
            synthetic=True,
            notes="benchmark network: lines packed onto shared trunk corridors",
        ),
    )
    return instance, _reference_genotype(instance, phases)


def generate(seed: int, index: int = 0) -> DenseNetwork:
    """Dense network number `index` of workload seed `seed`; the same seed
    and index give the same network."""
    name = f"dense-{seed}.{index}"
    rng = np.random.default_rng([seed, index, 0xDE45E])
    for _ in range(ATTEMPTS):
        built = _try_generate(rng, name)
        if built is not None:
            break
    else:
        raise RuntimeError(f"no dense network found for {name}")
    instance, reference = built
    model.validate_instance(instance)

    constraints = model.derive_bounds(instance)
    timetable = codec.decode(reference, instance)
    scalar = model.evaluate(timetable, constraints, instance.weights).weighted_fitness
    independent = oracle.check_independent(timetable, instance).weighted_fitness
    if scalar != 0 or independent != 0:
        raise RuntimeError(
            f"reference timetable of {name} scores {scalar} / {independent}, not 0"
        )

    census = collections.Counter(c.kind.value for c in constraints)
    census["genes"] = len(reference)
    return DenseNetwork(instance, dict(census))
