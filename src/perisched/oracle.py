"""Ground truth for small instances and a second opinion on evaluation.

Nothing here uses the main evaluator: `_checklist` re-derives every
constraint from the instance, and `_wrap_trial` tries the wrap offsets
explicitly instead of reducing modulo the period. `exhaustive_min` scores
every genotype within the gene windows that way, to check that the search
engine cannot do better; `check_independent` scores one timetable, and
`engine.run` re-checks its best against it.

Why trying q in {-1, 0, 1} is enough: canonical event times lie in
[0, period), so the raw difference later - earlier lies in
(-period, period). Derived windows are normalized to -period < lo <= hi <
period. If lo <= diff + q*period <= hi then q*period lies in
(-2*period, 2*period), hence q is -1, 0 or 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import codec, model
from .errors import SpaceTooLarge

__all__ = ["exhaustive_min", "check_independent", "lattice_size"]


def lattice_size(instance: model.Instance) -> int:
    """The number of genotypes within the gene windows: the product of
    their widths."""
    layout = instance.event_index
    return math.prod((layout.gene_hi - layout.gene_lo + 1).tolist())


def _wrap_trial(raw, lo, hi, period):
    """Whether some q in {-1, 0, 1} puts raw + q*period in [lo, hi]; elementwise."""
    return (
        ((lo <= raw) & (raw <= hi))
        | ((lo <= raw - period) & (raw - period <= hi))
        | ((lo <= raw + period) & (raw + period <= hi))
    )


def exhaustive_min(
    instance: model.Instance, *, space_cap: int = 10**8
) -> tuple[int | float, codec.Genotype]:
    """Exact minimum of the full weighted fitness over every genotype
    within the gene windows.

    Genotypes are decoded a block at a time and scored by wrap trial over
    `_checklist`; `model.weighted_fitness` turns the counts into fitness,
    so the minimum compares exactly with GA fitness. The witness is the
    lexicographically smallest minimizer: enumeration is lexicographic and
    only strict improvements replace the best.
    """
    layout = instance.event_index
    shape = tuple((layout.gene_hi - layout.gene_lo + 1).tolist())
    size = math.prod(shape)
    if size > space_cap:
        raise SpaceTooLarge(size, space_cap)

    checklist, x, y, lo, hi = _checks(instance)
    family = {
        k: [i for i, c in enumerate(checklist) if c.kind is k] for k in model.ConstraintKind
    }
    rows = max(1, (1 << 20) // max(len(shape), len(checklist)))  # ~2**20 entries per array

    best_fitness, best_genes = math.inf, None
    for start in range(0, size, rows):
        index = np.unravel_index(np.arange(start, min(start + rows, size)), shape)
        genes = layout.gene_lo + np.stack(index, axis=1)
        events = codec.decode_array(genes, instance)
        bad = ~_wrap_trial(events[:, y] - events[:, x], lo, hi, instance.period)
        counts = {k: np.count_nonzero(bad[:, cols], axis=1) for k, cols in family.items()}
        fitness = model.weighted_fitness(counts, instance.weights)
        i = int(np.argmin(fitness))
        if fitness[i] < best_fitness:
            best_fitness = fitness[i].item()
            best_genes = genes[i]
    return best_fitness, codec.Genotype(tuple(int(g) for g in best_genes))


def _normalize(lo: int, hi: int, period: int) -> tuple[int, int]:
    # same window convention as derivation: shift whole periods down until
    # hi < period (only connection windows, unbounded above, can need it)
    shift = hi - hi % period if hi >= period else 0
    return lo - shift, hi - shift


def _checklist(instance: model.Instance) -> tuple[model.PeriodicConstraint, ...]:
    """Re-derive all constraints from the raw instance data, in this
    module's own iteration order (trains as listed, trips interleaved)."""
    T = instance.period
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
        items.append(
            model.PeriodicConstraint(
                model.ConstraintKind.CONNECTION,
                model.Event.arrival(conn.feeder_train, conn.station),
                model.Event.departure(conn.onward_train, conn.station),
                *_normalize(conn.conn_lo, conn.conn_hi, T),
            )
        )
    return tuple(items)


@lru_cache(maxsize=8)
def _checks(instance: model.Instance):
    """`_checklist` plus the event columns and windows of its constraints as
    arrays, built once per instance."""
    checklist = _checklist(instance)
    column = instance.event_index.column
    x = np.asarray([column[c.earlier] for c in checklist], dtype=np.int64)
    y = np.asarray([column[c.later] for c in checklist], dtype=np.int64)
    lo = np.asarray([c.lo for c in checklist], dtype=np.int64)
    hi = np.asarray([c.hi for c in checklist], dtype=np.int64)
    return checklist, x, y, lo, hi


def check_independent(
    tt: model.Timetable, instance: model.Instance
) -> model.EvaluationReport:
    """Evaluate a timetable by explicit wrap-offset trial (`_wrap_trial`)
    over `_checklist`: no modulo reduction is involved, so this is an
    independent cross-check of the main evaluator."""
    T = instance.period
    checklist, x, y, lo, hi = _checks(instance)
    times = np.asarray([tt.of(e) for e in instance.event_index.events], dtype=np.int64)
    raw = times[y] - times[x]
    counts = {kind: 0 for kind in model.ConstraintKind}
    violated: list[model.Violation] = []
    for i in np.flatnonzero(~_wrap_trial(raw, lo, hi, T)).tolist():
        c = checklist[i]
        counts[c.kind] += 1
        violated.append(model.Violation(c, int(raw[i]) % T))
    fitness = model.weighted_fitness(counts, instance.weights)
    return model.EvaluationReport(counts, fitness, tuple(violated))
