"""Genetic algorithm over timetable genotypes.

One run keeps a fixed-size population of integer genotypes, evaluates
every new individual (counting evaluations), and replaces the population
generationally: the best individual survives, the rest are offspring of
binary-tournament parents recombined by one-point crossover and per-gene
mutation (`GaConfig` fixes the operators). Running and dwell windows hold
by construction of the encoding, so an individual's fitness is the
weighted violation count of the pairwise families only (headway,
single-track, connection); zero fitness is a timetable satisfying
everything.

The generation step operates on the whole population as numpy arrays.
A run owns two population buffers: each step gathers the tournament
winners straight into the spare one, crosses and mutates them there, adds
the elite, and then swaps the two, so the population a step reads is
never written during that step. Genes are drawn as int64 and stored in
`CompiledProblem.gene_dtype` (int8 at period 60), which is exact since a
`model.Instance` cannot be built with a period of `model.INT_CAP` or more.
Mutation draws one binomial flip count for the whole generation and then
that many distinct gene positions, which is distributed exactly as an
independent flip per gene. Crossover swaps each pair's tails by a masked
XOR, its masks read off one read-only sliding window (`GaState.tails`).
Fitness gathers the genes that pairwise constraints read, widens them in
one copy and sums them event-major, one section position at a time, in
int32 unless the instance's sums could outgrow it (`CompiledProblem`).
`codec.decode_array` stays the row-major decoder for full timetables.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import codec, model, oracle
from .errors import ConfigInvalid, EvaluatorMismatch, MissingEvent


_PAIR_KINDS = (
    model.ConstraintKind.HEADWAY,
    model.ConstraintKind.SINGLE_TRACK,
    model.ConstraintKind.CONNECTION,
)


class Termination(Enum):
    OPTIMUM_FOUND = "optimum_found"
    EVAL_LIMIT = "eval_limit"


@dataclass(frozen=True)
class GaConfig:
    """One GA run: its population size, evaluation budget and seed.

    The operators are the same for every run: the best individual
    survives (`elite_count`), parents win binary tournaments, a pair
    crosses at one point with probability `crossover_rate`, and each gene
    mutates with probability `mutations_per_genotype` / length. Building
    one checks it: an invalid config raises ConfigInvalid, whether it came
    from the constructor or `dataclasses.replace`."""

    elite_count: ClassVar[int] = 1
    crossover_rate: ClassVar[float] = 0.9
    mutations_per_genotype: ClassVar[int] = 1

    population_size: int = 300
    max_evaluations: int = 200_000
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_evaluations", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
        if self.population_size < 2:
            raise ConfigInvalid(f"population_size must be >= 2, got {self.population_size}")
        if self.max_evaluations < self.population_size:
            raise ConfigInvalid(
                f"max_evaluations ({self.max_evaluations}) must cover at least "
                f"one full population ({self.population_size})"
            )
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunResult:
    best_genotype: codec.Genotype
    best_fitness: int | float
    hard_violations: int
    soft_violations: int
    evaluations_used: int
    wall_time: float
    terminated_by: Termination
    generations: int
    report: model.EvaluationReport


class CompiledProblem:
    """Array form of an instance plus constraint set, for evaluating whole
    populations at once.

    Genotype rows decode to event-time rows with `codec.decode_array`.
    Pairwise constraints become index/bound arrays over those event
    columns (`pair_x`, `pair_y`), grouped by family so that violations are
    counted per family.

    An event time is a prefix sum of its train's section, so fitness needs
    only the genes up to each section's last column that a pair reads: the
    gather plan keeps those (`kept`) and locates each pair's columns among
    them (`kept_x`, `kept_y`).

    Fitness runs event-major, one row per kept column and one column per
    individual, because numpy's int64 ``cumsum`` and ``add.reduceat`` are
    not vectorised: a section-restarting prefix sum along the genes of a
    cs2 population costs about 8 ns per element (2-core x86, numpy 2.4).
    `kept` is therefore ordered level by level, level j holding
    the j-th kept column of every section longer than j, longest sections
    first; each pair in `levels` (row slices of a level and of the matching
    rows of the level before) is one vectorised add of the scan. The scan
    has as many steps as the longest kept section, not as kept columns.
    The single-row decoder `codec.decode_array` keeps the row-major
    running sum, which is cheaper on one row.

    The kernel works in one integer type, `dtype`: int32 when every
    unreduced prefix sum, pair difference and quotient product is sure to
    fit, that is when ``2 * length * max(-min(gene_lo), max(gene_hi)) + 2 *
    period < model.INT_CAP``, and int64 otherwise (a period or gene windows
    near 2**31). The test assumes that the genes lie in their windows and
    that each window lies in ``(-period, period)``, as `model.derive_bounds`
    makes it. Every bundled and generated network runs in int32, whose
    floor division costs a third of int64's on a dense 310 x 300 pair
    matrix (2-core x86, numpy 2.4). The GA stores genes in `gene_dtype`,
    the narrowest of int8, int16 and int32 that holds every window; the
    kernel widens the kept columns it gathers in one copy. Per-family
    counts add up in int32 and are returned as int64.

    The pair stage (each pair's two row takes, their difference, the
    window rule and the violation mask) writes into arrays kept between
    calls and reallocated only when the row count changes. Allocating
    them afresh each call let glibc hand the freed heap top back to the
    system and fault it in again on the next call: 860 to 920 minor page
    faults and 2.5 to 3 ms per call on a dense 310-pair network at
    population 300, against no faults and 0.9 ms with kept arrays (2-core
    x86, numpy 2.4). Because of those arrays a `CompiledProblem` must not be
    shared between threads.
    """

    def __init__(self, instance: model.Instance, constraints: Sequence[model.PeriodicConstraint]):
        index = instance.event_index
        lo, hi = int(index.gene_lo.min(initial=0)), int(index.gene_hi.max(initial=0))
        self.instance = instance
        self.period = instance.period
        self.gene_lo = index.gene_lo
        self.gene_hi = index.gene_hi
        self.length = len(index.events)
        # a prefix sum stays within length * max(-lo, hi), a pair difference
        # within twice that, and the window rule's quotient product within
        # that plus 2 * period (windows lie in (-period, period))
        wide = 2 * self.length * max(-lo, hi) + 2 * self.period >= model.INT_CAP
        self.dtype = np.int64 if wide else np.int32
        # the narrowest signed type holding both lo and hi (its max is -min - 1)
        self.gene_dtype = np.min_scalar_type(min(lo, -hi - 1))

        # running and dwell hold by construction: their slices stay empty
        pairs: list[model.PeriodicConstraint] = []
        self.family_slice = {kind: slice(0, 0) for kind in model.ConstraintKind}
        for kind in _PAIR_KINDS:
            group = [c for c in constraints if c.kind is kind]
            self.family_slice[kind] = slice(len(pairs), len(pairs) + len(group))
            pairs += group

        column = index.column
        try:
            self.pair_x = np.asarray([column[c.earlier] for c in pairs], dtype=np.int64)
            self.pair_y = np.asarray([column[c.later] for c in pairs], dtype=np.int64)
        except KeyError as e:
            event = e.args[0]
            raise MissingEvent(
                f"constraint references {event.kind.value} of {event.train} at "
                f"{event.station}, which this instance never schedules"
            ) from None
        self.pair_lo = np.asarray([c.lo for c in pairs], dtype=self.dtype)
        self.pair_width = np.asarray([c.hi - c.lo for c in pairs], dtype=self.dtype)

        # each section's columns up to the last one a pair reads
        offsets = index.section_offsets
        read_column = np.full(self.length, -1, dtype=np.int64)
        read_column[self.pair_x] = self.pair_x
        read_column[self.pair_y] = self.pair_y
        last = np.maximum.reduceat(read_column, offsets)  # each section's last read column, or -1
        read = last >= offsets
        lengths = last[read] + 1 - offsets[read]
        order = np.argsort(-lengths, kind="stable")  # longest sections first
        starts, lengths = offsets[read][order], lengths[order]

        # lay them out level by level: level j holds the j-th kept column of
        # every section longer than j, so the sections that reach level j
        # are also the first rows of level j - 1
        reach = np.arange(lengths.max(initial=0))[:, None] < lengths
        level, section = np.nonzero(reach)
        self.kept = starts[section] + level
        sizes = reach.sum(axis=1).tolist()
        firsts = [0, *itertools.accumulate(sizes)]
        self.levels = [
            (slice(first, first + size), slice(previous, previous + size))
            for previous, first, size in zip(firsts, firsts[1:], sizes[1:])
        ]
        row = np.empty(self.length, dtype=np.int64)  # each kept column's row in that layout
        row[self.kept] = np.arange(len(self.kept))
        self.kept_x = row[self.pair_x]
        self.kept_y = row[self.pair_y]
        self._pair_buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def decode_batch(self, genes: np.ndarray) -> np.ndarray:
        """Event-time matrix (rows = individuals, columns = events)."""
        return codec.decode_array(genes, self.instance)

    def violation_counts(self, genes: np.ndarray) -> dict[model.ConstraintKind, np.ndarray]:
        """Violated constraints of each family, per row of a genotype matrix.

        Every gene must lie in its window (`gene_lo`, `gene_hi`), since the
        kernel may work in int32 (`dtype`). Works event-major: row i of the
        working matrix is kept column ``kept[i]`` for the whole population.
        Adding each level to the rows of the level before it, one slice per
        level, turns the genes into the event times' unreduced prefix sums;
        they need no mod-period step, since `model.window_test` reduces each
        difference itself.
        """
        times = genes.T[self.kept].astype(self.dtype, copy=False)
        for rows, previous in self.levels:
            times[rows] += times[previous]
        if self._pair_buffers is None or self._pair_buffers[0].shape[1] != len(genes):
            shape = (len(self.pair_x), len(genes))
            self._pair_buffers = (
                np.empty(shape, dtype=self.dtype),
                np.empty(shape, dtype=self.dtype),
                np.empty(shape, dtype=bool),
            )
        later, earlier, violated = self._pair_buffers
        # kept_x and kept_y are valid rows, so "clip" never clips; unlike
        # "raise", it writes into `out` without an intermediate buffer
        np.take(times, self.kept_y, axis=0, out=later, mode="clip")
        np.take(times, self.kept_x, axis=0, out=earlier, mode="clip")
        later -= earlier
        model.window_test(
            later, self.pair_lo[:, None], self.pair_width[:, None], self.period,
            scratch=earlier, out=violated,
        )
        # int32 adds faster; int64 keeps a count times a weight from wrapping
        return {
            kind: violated[rows].sum(axis=0, dtype=np.int32).astype(np.int64)
            for kind, rows in self.family_slice.items()
        }

    def fitness_batch(self, genes: np.ndarray) -> np.ndarray:
        """Weighted violation count per individual (`model.weighted_fitness`)."""
        return model.weighted_fitness(self.violation_counts(genes), self.instance.weights)

    def random_population(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(
            self.gene_lo, self.gene_hi + 1, size=(size, self.length), dtype=np.int64
        )


@dataclass
class GaState:
    """Mutable state of a run between generation steps.

    ``population`` and ``fitness`` are prefix views of ``buffers[0]`` and
    ``fitness_buffers[0]``; a step writes the next generation into the
    spares, ``buffers[1]`` and ``fitness_buffers[1]``, and then swaps each
    pair. Every buffer has room for the elite plus both children of every
    offspring pair (`step_generation`), one row more than the population
    when the offspring count is odd. ``scratch`` holds one row per
    offspring pair, for crossover to swap tails through. The gene buffers,
    ``scratch``, ``best_genes`` and ``tails`` are of `gene_dtype` (see the
    module docstring). ``tails`` is a read-only window of ``length + 1``
    rows over ``length`` zeros and ``length`` -1s (all bits set): row
    ``length - c`` is the tail mask of a cut at column ``c`` and row 0 is
    all 0, so crossover gathers its masks in one row take.
    """

    config: GaConfig
    problem: CompiledProblem
    rng: np.random.Generator
    population: np.ndarray
    fitness: np.ndarray
    evaluations_used: int
    generation: int
    best_genes: np.ndarray
    best_fitness: int | float
    buffers: tuple[np.ndarray, np.ndarray]
    fitness_buffers: tuple[np.ndarray, np.ndarray]
    scratch: np.ndarray
    tails: np.ndarray

    def _note_best(self) -> None:
        idx = int(np.argmin(self.fitness))
        if self.fitness[idx] < self.best_fitness:
            self.best_fitness = self.fitness[idx].item()
            self.best_genes = self.population[idx].copy()


def init_state(
    instance: model.Instance,
    constraints: Sequence[model.PeriodicConstraint],
    config: GaConfig,
) -> GaState:
    """Random initial population, fully evaluated."""
    problem = CompiledProblem(instance, constraints)
    rng = np.random.default_rng(config.seed)
    size = config.population_size
    n_pairs = size // 2  # pairs of offspring for all but the elite, rounded up
    rows = 1 + 2 * n_pairs
    L = problem.length
    buffers = tuple(np.empty((rows, L), dtype=problem.gene_dtype) for _ in range(2))
    population = buffers[0][:size]
    population[...] = problem.random_population(size, rng)
    first = problem.fitness_batch(population)
    fitness_buffers = tuple(np.empty(rows, dtype=first.dtype) for _ in range(2))
    fitness = fitness_buffers[0][:size]
    fitness[...] = first
    state = GaState(
        config=config,
        problem=problem,
        rng=rng,
        population=population,
        fitness=fitness,
        evaluations_used=size,
        generation=0,
        best_genes=population[0].copy(),
        best_fitness=fitness[0].item(),
        buffers=buffers,
        fitness_buffers=fitness_buffers,
        scratch=np.empty((n_pairs, L), dtype=problem.gene_dtype),
        tails=sliding_window_view(np.repeat(np.array([0, -1], dtype=problem.gene_dtype), L), L),
    )
    state._note_best()
    return state


def _tournament_winners(fitness: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of `count` binary tournament winners, the two contestants
    drawn with replacement; lower fitness wins, equal fitness resolved
    toward the lower population index."""
    a, b = rng.integers(0, len(fitness), size=(count, 2)).T
    b_wins = (fitness[b] < fitness[a]) | ((fitness[b] == fitness[a]) & (b < a))
    return np.where(b_wins, b, a)


def _swap_tails(a: np.ndarray, b: np.ndarray, tail: np.ndarray, scratch: np.ndarray) -> None:
    """Swap `a` and `b` in place where `tail` is -1, by XOR through `scratch`."""
    swap = np.bitwise_xor(a, b, out=scratch)
    swap &= tail
    a ^= swap
    b ^= swap


def step_generation(state: GaState) -> GaState:
    """Advance one generation: keep the best individual, refill with
    offspring.

    The next generation is written into the spare buffers, the elite in
    row 0, and the buffers are then swapped, so the population read by
    the step is never written during it. Offspring evaluation stops at the
    evaluation budget; a truncated final generation keeps only its
    evaluated offspring (a shorter prefix view of the buffer), so the
    counter never passes ``max_evaluations``. A state whose budget is
    already spent raises ConfigInvalid.
    """
    cfg = state.config
    if state.evaluations_used >= cfg.max_evaluations:
        raise ConfigInvalid(
            f"evaluation budget spent: {state.evaluations_used} of "
            f"{cfg.max_evaluations} evaluations used"
        )
    problem = state.problem
    rng = state.rng
    L = problem.length
    n_off = cfg.population_size - 1
    n_pairs = len(state.scratch)
    genes, fitness = state.buffers[1], state.fitness_buffers[1]

    elite = int(np.argmin(state.fitness))
    winners = _tournament_winners(state.fitness, 2 * n_pairs, rng)
    children = genes[1:]
    # winners are valid rows, so "clip" never clips; unlike "raise", it
    # writes into `out` without an intermediate buffer
    np.take(state.population, winners, axis=0, out=children, mode="clip")
    child_a, child_b = children[:n_pairs], children[n_pairs:]

    crossed = rng.random(n_pairs) < cfg.crossover_rate
    cuts = rng.integers(1, L, size=n_pairs)
    _swap_tails(child_a, child_b, state.tails[np.where(crossed, L - cuts, 0)], state.scratch)
    offspring = children[:n_off]

    flips = rng.binomial(offspring.size, cfg.mutations_per_genotype / L)
    rows, cols = np.divmod(rng.choice(offspring.size, flips, replace=False), L)
    if len(rows):
        offspring[rows, cols] = rng.integers(problem.gene_lo[cols], problem.gene_hi[cols] + 1)

    n_kept = min(n_off, cfg.max_evaluations - state.evaluations_used)
    genes[0], fitness[0] = state.population[elite], state.fitness[elite]
    fitness[1 : 1 + n_kept] = problem.fitness_batch(offspring[:n_kept])

    state.buffers = state.buffers[::-1]
    state.fitness_buffers = state.fitness_buffers[::-1]
    state.population = genes[: 1 + n_kept]
    state.fitness = fitness[: 1 + n_kept]
    state.evaluations_used += n_kept
    state.generation += 1
    state._note_best()
    return state


def run(
    instance: model.Instance,
    constraints: Sequence[model.PeriodicConstraint],
    config: GaConfig,
) -> RunResult:
    """One full GA run, deterministic for a given seed.

    ``constraints`` must be ``model.derive_bounds(instance)``. Stops as
    soon as some evaluated individual violates nothing (``OPTIMUM_FOUND``)
    or the evaluation counter reaches the budget (``EVAL_LIMIT``). The
    best's `model.evaluate` report is re-checked against
    `oracle.check_independent`; if their per-family counts differ,
    `EvaluatorMismatch` is raised.
    """
    return run_anytime(instance, constraints, config, (config.max_evaluations,))[0]


def run_anytime(
    instance: model.Instance,
    constraints: Sequence[model.PeriodicConstraint],
    config: GaConfig,
    limits: Sequence[int],
) -> list[RunResult]:
    """The results of `run` at several evaluation budgets, read off one
    run: result i equals `run` with ``max_evaluations=limits[i]`` and the
    same seed, but for its ``wall_time``, which is the time elapsed when
    that budget's answer was settled (re-check included).

    A shorter run is a prefix of a longer one: a generation's random draws
    do not depend on the budget, and a budget that ends inside a generation
    keeps a prefix of its offspring. The run stops at the largest limit,
    or earlier at an optimum; every limit must be a valid budget no larger
    than ``config.max_evaluations``.
    """
    for limit in limits:
        dataclasses.replace(config, max_evaluations=limit)  # checks the budget
        if limit > config.max_evaluations:
            raise ConfigInvalid(
                f"limit {limit} exceeds the run's budget ({config.max_evaluations})"
            )
    start = time.perf_counter()
    state = init_state(instance, constraints, config)
    pending = sorted(set(limits), reverse=True)  # the next limit to settle is last
    answers: dict[int, RunResult] = {}

    def settle(genes: np.ndarray, fitness: int | float, evaluations: int) -> None:
        answers[pending.pop()] = _checked_result(
            instance, constraints, genes, fitness, evaluations, state.generation, start
        )

    offspring = config.elite_count  # first offspring row after a step
    while pending:
        if state.best_fitness == 0 or state.evaluations_used >= pending[-1]:
            settle(state.best_genes, state.best_fitness, state.evaluations_used)
            continue
        evaluations, best_genes, best_fitness = (
            state.evaluations_used, state.best_genes, state.best_fitness
        )
        step_generation(state)
        # a limit inside this generation sees only a prefix of its offspring:
        # their first minimum counts if it beats the best before the step
        while pending and pending[-1] < state.evaluations_used:
            kept = state.fitness[offspring : offspring + pending[-1] - evaluations]
            i = int(np.argmin(kept))
            if kept[i] < best_fitness:
                settle(state.population[offspring + i], kept[i].item(), pending[-1])
            else:
                settle(best_genes, best_fitness, pending[-1])
    return [answers[limit] for limit in limits]


def _checked_result(
    instance: model.Instance,
    constraints: Sequence[model.PeriodicConstraint],
    genes: np.ndarray,
    fitness: int | float,
    evaluations: int,
    generations: int,
    start: float,
) -> RunResult:
    """A run's answer: the best genotype's report, re-checked against
    `oracle.check_independent`."""
    best_genotype = codec.Genotype(tuple(int(g) for g in genes))
    timetable = codec.decode(best_genotype, instance)
    report = model.evaluate(timetable, constraints, instance.weights)
    independent = oracle.check_independent(timetable, instance).violations_by_type
    if independent != report.violations_by_type:
        raise EvaluatorMismatch(
            f"violation counts {_by_name(report.violations_by_type)} disagree with "
            f"the independent check {_by_name(independent)}"
        )
    return RunResult(
        best_genotype=best_genotype,
        best_fitness=fitness,
        hard_violations=report.hard_violations,
        soft_violations=report.soft_violations,
        evaluations_used=evaluations,
        wall_time=time.perf_counter() - start,
        terminated_by=Termination.OPTIMUM_FOUND if fitness == 0 else Termination.EVAL_LIMIT,
        generations=generations,
        report=report,
    )


def _by_name(counts: dict[model.ConstraintKind, int]) -> dict[str, int]:
    return {kind.value: n for kind, n in counts.items()}
