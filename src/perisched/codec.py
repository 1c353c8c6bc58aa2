"""Integer-vector encoding of candidate timetables.

A genotype holds one gene per column of the instance's `model.EventIndex`,
which owns the layout and each gene's window: per train, a free first
departure, then the running and dwell durations of its journey. Decoding
accumulates each train's section left to right and reduces every event
time mod the period, so a decoded timetable can never violate a running or
dwell constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBoundsGene
from .model import Instance, Timetable, _IndexedTimes

__all__ = ["Genotype", "gene_bounds", "decode", "decode_array", "random_genotype"]


@dataclass(frozen=True)
class Genotype:
    genes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.genes)


def gene_bounds(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene inclusive ranges of an instance: its event index's own
    read-only `gene_lo` and `gene_hi` arrays."""
    index = instance.event_index
    return index.gene_lo, index.gene_hi


def decode_array(genes: np.ndarray, instance: Instance) -> np.ndarray:
    """Event times encoded by a genotype (1-D) or by each row of a matrix
    of genotypes (2-D); the last axis runs over gene/event columns.

    Within each train section the genes are accumulated in order and every
    prefix sum, reduced mod the period, becomes the next event time. One
    cumulative sum runs over the whole row; subtracting each section's sum
    from the first column of the next section makes it restart there.

    This row-major running sum suits one row: on one cs2 genotype it takes
    about 12 us, against 15 us for the level-by-level scan of
    `engine.CompiledProblem` (2-core x86 machine, numpy 2.4). Over a whole
    population it is the slower layout, since numpy's int64 ``cumsum`` and
    ``add.reduceat`` are not vectorised, so batch fitness does not use it.
    """
    times = np.array(genes, dtype=np.int64)
    starts = instance.event_index.section_offsets
    times[..., starts[1:]] -= np.add.reduceat(times, starts, axis=-1)[..., :-1]
    np.cumsum(times, axis=-1, out=times)
    times %= instance.period
    return times


def decode(genotype: Genotype, instance: Instance) -> Timetable:
    """Turn a genotype into the timetable it encodes: `decode_array`'s
    row, over the instance's event index. In-bounds genotypes satisfy all
    running and dwell windows by construction; out-of-bounds ones are
    rejected.

    A gene must be an integer: a float (even a whole one) or a str is
    refused, never truncated or parsed. A bool or a numpy integer holds an
    exact integer and is read as that integer.
    """
    index = instance.event_index
    if len(genotype) != len(index.events):
        raise OutOfBoundsGene(
            f"genotype has {len(genotype)} genes, layout needs {len(index.events)}"
        )
    genes = np.asarray(genotype.genes)
    if genes.dtype.kind not in "biu":
        # numpy reads a float, a str or an int beyond int64 (which lies
        # outside every window) as some other kind: name a non-integer gene
        for pos, gene in enumerate(genotype.genes):
            if not isinstance(gene, (int, np.integer)):
                raise OutOfBoundsGene(f"gene {pos} = {gene!r} is not an integer")
        genes = np.asarray(genotype.genes, dtype=object)
    outside = np.flatnonzero((genes < index.gene_lo) | (genes > index.gene_hi))
    if len(outside):
        pos = outside[0]
        lo, hi = index.gene_lo[pos], index.gene_hi[pos]
        raise OutOfBoundsGene(f"gene {pos} = {genotype.genes[pos]} outside [{lo}, {hi}]")
    return Timetable(instance.period, _IndexedTimes(index, decode_array(genes, instance)))


def random_genotype(
    bounds: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> Genotype:
    """Uniform genotype within `bounds`, a (lo, hi) pair of per-gene
    inclusive ranges as `gene_bounds` returns; same generator state, same
    genes."""
    lo, hi = (np.asarray(b) for b in bounds)
    return Genotype(tuple(rng.integers(lo, hi + 1).tolist()))
