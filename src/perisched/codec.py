"""Integer-vector encoding of candidate timetables.

A genotype concatenates one section per train. A section for a train
with n trips holds 2n genes::

    [first_departure, running_1, dwell_1, running_2, dwell_2, ..., running_n]

The first gene may take any value in ``[0, period - 1]``; every running
and dwell gene is confined to its own window from the instance. Decoding
accumulates the section left to right and reduces each event time mod the
period, so a decoded timetable can never violate a running or dwell
constraint. Gene column i decodes to the time of event i of the
instance's `EventIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBoundsGene
from .model import Instance, Timetable

__all__ = [
    "GeneBounds",
    "Genotype",
    "gene_bounds",
    "decode",
    "decode_array",
    "accumulate_sections",
    "random_genotype",
]


@dataclass(frozen=True)
class Genotype:
    genes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.genes)


@dataclass(frozen=True)
class GeneBounds:
    """Inclusive per-gene ranges, parallel to the genotype layout."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.lo)

    def check(self, genotype: Genotype) -> None:
        if len(genotype) != len(self.lo):
            raise OutOfBoundsGene(
                f"genotype has {len(genotype)} genes, layout needs {len(self.lo)}"
            )
        for pos, (g, lo, hi) in enumerate(zip(genotype.genes, self.lo, self.hi)):
            if not lo <= g <= hi:
                raise OutOfBoundsGene(f"gene {pos} = {g} outside [{lo}, {hi}]")


def gene_bounds(instance: Instance) -> GeneBounds:
    """Per-gene ranges for an instance, in instance train order."""
    lo: list[int] = []
    hi: list[int] = []
    for train in instance.trains:
        lo.append(0)
        hi.append(instance.period - 1)
        last = len(train.route) - 1
        for k, trip in enumerate(train.route):
            lo.append(trip.running_lo)
            hi.append(trip.running_hi)
            if k < last:
                lo.append(trip.dwell_after_lo)
                hi.append(trip.dwell_after_hi)
    return GeneBounds(tuple(lo), tuple(hi))


def decode_array(genes: np.ndarray, instance: Instance) -> np.ndarray:
    """Event times encoded by a genotype (1-D) or by each row of a matrix
    of genotypes (2-D); the last axis runs over gene/event columns.

    Within each train section the genes are accumulated in order
    (`accumulate_sections`) and every prefix sum, reduced mod the period,
    becomes the next event time.
    """
    times = np.array(genes, dtype=np.int64)
    accumulate_sections(times, instance.event_index.section_offsets)
    times %= instance.period
    return times


def accumulate_sections(times: np.ndarray, starts: np.ndarray) -> None:
    """Replace `times` in place by its prefix sums along the last axis,
    restarting at every column in `starts` (ascending, the first 0).

    One cumulative sum runs over the whole row; subtracting each section's
    sum from the first column of the next section makes it restart there.
    """
    times[..., starts[1:]] -= np.add.reduceat(times, starts, axis=-1)[..., :-1]
    np.cumsum(times, axis=-1, out=times)


def decode(genotype: Genotype, instance: Instance) -> Timetable:
    """Turn a genotype into the timetable it encodes (`decode_array` on
    one row). In-bounds genotypes satisfy all running and dwell windows
    by construction; out-of-bounds ones are rejected."""
    gene_bounds(instance).check(genotype)
    times = decode_array(np.asarray(genotype.genes, dtype=np.int64), instance)
    return Timetable(instance.period, dict(zip(instance.event_index.events, times.tolist())))


def random_genotype(bounds: GeneBounds, rng: np.random.Generator) -> Genotype:
    """Uniform in-bounds genotype; same generator state, same genes."""
    lo = np.asarray(bounds.lo)
    hi = np.asarray(bounds.hi)
    genes = rng.integers(lo, hi + 1)
    return Genotype(tuple(int(g) for g in genes))
