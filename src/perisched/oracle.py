"""Ground truth for small instances and a second opinion on evaluation.

`exhaustive_min` enumerates every in-bounds genotype on a stride lattice
and returns the true minimum fitness, for checking that the search engine
cannot do better and rarely does worse. `check_independent` re-derives
every constraint straight from the instance and verdicts it by trying the
wrap offsets explicitly, sharing no arithmetic or ordering with the
modulo-based evaluator it cross-checks.

Why trying q in {-1, 0, 1} is enough: canonical event times lie in
[0, period), so the raw difference later - earlier lies in
(-period, period). Derived windows are normalized to -period < lo <= hi <
period. If lo <= diff + q*period <= hi then q*period lies in
(-2*period, 2*period), hence q is -1, 0 or 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from . import codec, model
from .errors import MalformedInstance, SpaceTooLarge

__all__ = ["exhaustive_min", "check_independent", "lattice", "lattice_size"]


def lattice(lo: int, hi: int, stride: int) -> tuple[int, ...]:
    """Values lo, lo+stride, ... plus hi itself, so both window edges are
    always exercised."""
    vals = list(range(lo, hi + 1, stride))
    if vals[-1] != hi:
        vals.append(hi)
    return tuple(vals)


def lattice_size(instance: model.Instance, stride: int = 1) -> int:
    bounds = codec.gene_bounds(instance)
    return prod(len(lattice(lo, hi, stride)) for lo, hi in zip(bounds.lo, bounds.hi))


def exhaustive_min(
    instance: model.Instance,
    stride: int = 1,
    space_cap: int = 10**8,
) -> tuple[int | float, codec.Genotype]:
    """Exact lattice minimum of the full weighted fitness.

    Every lattice genotype is decoded and evaluated; the witness returned
    is the lexicographically smallest minimizer (enumeration is in
    lexicographic order and only strict improvements replace the
    incumbent).
    """
    bounds = codec.gene_bounds(instance)
    axes = [lattice(lo, hi, stride) for lo, hi in zip(bounds.lo, bounds.hi)]
    size = prod(len(a) for a in axes)
    if size > space_cap:
        raise SpaceTooLarge(size, space_cap)

    constraints = model.derive_bounds(instance)
    T = instance.period

    best_fitness: int | float | None = None
    best_genes: tuple[int, ...] | None = None
    for combo in itertools.product(*axes):
        tt = codec.decode(codec.Genotype(combo), instance)
        counts = {kind: 0 for kind in model.ConstraintKind}
        for c in constraints:
            satisfied, _, _ = model.eval_constraint(c, tt, T)
            if not satisfied:
                counts[c.kind] += 1
        fitness = model.weighted_fitness(counts, instance.weights)
        if best_fitness is None or fitness < best_fitness:
            best_fitness = fitness
            best_genes = combo
    assert best_fitness is not None and best_genes is not None
    return best_fitness, codec.Genotype(best_genes)


def _normalize(lo: int, hi: int, period: int) -> tuple[int, int]:
    # same window convention as derivation: shift whole periods down until
    # hi < period (only connection windows can need it)
    while hi >= period:
        lo -= period
        hi -= period
    return lo, hi


@lru_cache(maxsize=8)
def _checklist(instance: model.Instance) -> tuple[model.PeriodicConstraint, ...]:
    """Re-derive all constraints from the raw instance data, in this
    module's own iteration order (trains as listed, trips interleaved)."""
    T = instance.period
    by_id = {t.id: t for t in instance.trains}
    items: list[model.PeriodicConstraint] = []

    for train in instance.trains:
        last = len(train.route) - 1
        for k, trip in enumerate(train.route):
            items.append(
                model.PeriodicConstraint(
                    model.ConstraintKind.RUNNING,
                    model.Event.departure(train.id, trip.from_station),
                    model.Event.arrival(train.id, trip.to_station),
                    trip.running_lo,
                    trip.running_hi,
                )
            )
            if k < last:
                if trip.dwell_after_lo is None:
                    raise MalformedInstance(
                        f"train {train.id}: stop at {trip.to_station} has no dwell window"
                    )
                items.append(
                    model.PeriodicConstraint(
                        model.ConstraintKind.DWELL,
                        model.Event.arrival(train.id, trip.to_station),
                        model.Event.departure(train.id, trip.to_station),
                        trip.dwell_after_lo,
                        trip.dwell_after_hi,
                    )
                )

    # headway: group trains by directed trip
    users: dict[tuple[str, str], list[tuple[model.Train, model.Trip]]] = {}
    for train in instance.trains:
        for trip in train.route:
            users.setdefault((trip.from_station, trip.to_station), []).append(
                (train, trip)
            )
    for (origin, _), sharing in users.items():
        for train_i, trip_i in sharing:
            for train_j, trip_j in sharing:
                if train_i.id == train_j.id:
                    continue
                lo = abs(trip_i.running_lo - trip_j.running_lo) + train_i.basic_headway
                hi = T - train_j.basic_headway
                items.append(
                    model.PeriodicConstraint(
                        model.ConstraintKind.HEADWAY,
                        model.Event.departure(train_j.id, origin),
                        model.Event.departure(train_i.id, origin),
                        *_normalize(lo, hi, T),
                    )
                )

    for segment in instance.segments:
        if not segment.single_track:
            continue
        forward = (segment.from_station, segment.to_station)
        backward = (segment.to_station, segment.from_station)
        for direction, opposite in ((forward, backward), (backward, forward)):
            for train_i, trip_i in users.get(direction, ()):
                for train_j, trip_j in users.get(opposite, ()):
                    if train_i.id == train_j.id:
                        continue
                    lo = (
                        2 * min(trip_i.running_lo, trip_j.running_lo)
                        + train_i.basic_headway
                    )
                    hi = T - train_j.basic_headway
                    items.append(
                        model.PeriodicConstraint(
                            model.ConstraintKind.SINGLE_TRACK,
                            model.Event.arrival(train_j.id, direction[0]),
                            model.Event.departure(train_i.id, direction[0]),
                            *_normalize(lo, hi, T),
                        )
                    )

    for conn in instance.connections:
        if conn.feeder_train not in by_id or conn.onward_train not in by_id:
            raise MalformedInstance(
                f"connection at {conn.station} references an unknown train"
            )
        items.append(
            model.PeriodicConstraint(
                model.ConstraintKind.CONNECTION,
                model.Event.arrival(conn.feeder_train, conn.station),
                model.Event.departure(conn.onward_train, conn.station),
                *_normalize(conn.conn_lo, conn.conn_hi, T),
            )
        )

    # windows spanning a whole period hold trivially; drop them like the
    # derivation does so the two verdicts stay comparable
    return tuple(c for c in items if c.hi - c.lo < T)


def check_independent(
    tt: model.Timetable, instance: model.Instance
) -> model.EvaluationReport:
    """Evaluate a timetable by explicit wrap-offset trial.

    Each constraint is satisfied iff the raw event difference lands in the
    window after adding -period, 0 or +period (sufficient by the range
    argument in the module docstring). No modulo reduction is involved, so
    this is an independent cross-check of the main evaluator.
    """
    T = instance.period
    counts = {kind: 0 for kind in model.ConstraintKind}
    violated: list[model.Violation] = []
    for c in _checklist(instance):
        tx = tt.of(c.earlier)
        ty = tt.of(c.later)
        raw = ty - tx
        satisfied = (
            c.lo <= raw <= c.hi
            or c.lo <= raw - T <= c.hi
            or c.lo <= raw + T <= c.hi
        )
        if not satisfied:
            counts[c.kind] += 1
            violated.append(model.Violation(c, raw % T, 0))
    fitness = sum(
        counts[k] * instance.weights.weight_for(k) for k in model.ConstraintKind
    )
    return model.EvaluationReport(counts, fitness, tuple(violated))
