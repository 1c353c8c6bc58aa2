"""Genetic algorithm over timetable genotypes.

One run keeps a fixed-size population of integer genotypes, evaluates
every new individual (counting evaluations), and replaces the population
generationally: the best few individuals survive as elites, the rest are
offspring of tournament-selected parents recombined by one-point
crossover and per-gene mutation. Running and dwell windows hold by
construction of the encoding, so an individual's fitness is the weighted
violation count of the pairwise families only (headway, single-track,
connection); zero fitness is a timetable satisfying everything.

The generation step operates on the whole population as numpy arrays.
A run owns two population buffers: each step gathers the tournament
winners straight into the spare one, crosses and mutates them there, adds
the elites, and then swaps the two, so the population a step reads is
never written during that step. Mutation draws one binomial flip count
for the whole generation and then that many distinct gene positions,
which is distributed exactly as an independent flip per gene. Fitness
accumulates only the genes that the event times read by pairwise
constraints depend on, event-major: one row per kept gene column, one
column per individual, scanned one section position at a time
(`CompiledProblem`). `codec.decode_array` stays the row-major decoder for
full timetables.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

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
    """Knobs of one GA run. ``mutation_rate_per_gene=None`` resolves to
    one expected mutation per genotype (rate 1/length)."""

    population_size: int = 300
    max_evaluations: int = 200_000
    crossover_rate: float = 0.9
    mutation_rate_per_gene: float | None = None
    tournament_size: int = 2
    elite_count: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigInvalid(f"population_size must be >= 2, got {self.population_size}")
        if self.max_evaluations < self.population_size:
            raise ConfigInvalid(
                f"max_evaluations ({self.max_evaluations}) must cover at least "
                f"one full population ({self.population_size})"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigInvalid(f"crossover_rate {self.crossover_rate} not in [0, 1]")
        if self.mutation_rate_per_gene is not None and not (
            0.0 <= self.mutation_rate_per_gene <= 1.0
        ):
            raise ConfigInvalid(
                f"mutation_rate_per_gene {self.mutation_rate_per_gene} not in [0, 1]"
            )
        if self.tournament_size < 1:
            raise ConfigInvalid(f"tournament_size must be >= 1, got {self.tournament_size}")
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigInvalid(
                f"elite_count {self.elite_count} must lie in [0, population_size)"
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
    """

    def __init__(self, instance: model.Instance, constraints: Sequence[model.PeriodicConstraint]):
        index = instance.event_index
        self.instance = instance
        self.period = instance.period
        self.gene_lo = index.gene_lo
        self.gene_hi = index.gene_hi
        self.length = len(index.events)

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
        self.pair_lo = np.asarray([c.lo for c in pairs], dtype=np.int64)
        self.pair_width = np.asarray([c.hi - c.lo for c in pairs], dtype=np.int64)

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

    def decode_batch(self, genes: np.ndarray) -> np.ndarray:
        """Event-time matrix (rows = individuals, columns = events)."""
        return codec.decode_array(genes, self.instance)

    def violation_counts(self, genes: np.ndarray) -> dict[model.ConstraintKind, np.ndarray]:
        """Violated constraints of each family, per row of a genotype matrix.

        Works event-major: row i of the working matrix is kept column
        ``kept[i]`` for the whole population. Adding each level to the rows
        of the level before it, one slice per level, turns the genes into
        the event times' unreduced prefix sums; they need no mod-period
        step, since `model.window_test` reduces each difference itself.
        """
        times = genes.T[self.kept].astype(np.int64, copy=False)
        for rows, previous in self.levels:
            times[rows] += times[previous]
        raw = times[self.kept_y] - times[self.kept_x]
        violated = model.window_test(
            raw, self.pair_lo[:, None], self.pair_width[:, None], self.period
        )
        return {
            kind: np.count_nonzero(violated[rows], axis=0)
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
    pair. Every buffer has room for the elites plus both children of every
    offspring pair (`step_generation`), one row more than the population
    when the offspring count is odd. ``scratch`` holds one row per
    offspring pair, for crossover to swap tails through.
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
    config.validate()
    problem = CompiledProblem(instance, constraints)
    rng = np.random.default_rng(config.seed)
    size = config.population_size
    n_pairs = _pair_count(config)
    rows = config.elite_count + 2 * n_pairs
    buffers = tuple(np.empty((rows, problem.length), dtype=np.int64) for _ in range(2))
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
        scratch=np.empty((n_pairs, problem.length), dtype=np.int64),
    )
    state._note_best()
    return state


def _tournament_winners(
    fitness: np.ndarray, count: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of `count` tournament winners; lower fitness wins, equal
    fitness resolved toward the lower population index."""
    contestants = rng.integers(0, len(fitness), size=(count, size))
    winner = contestants[:, 0]
    winner_fit = fitness[winner]
    for k in range(1, size):
        rival = contestants[:, k]
        rival_fit = fitness[rival]
        better = (rival_fit < winner_fit) | (
            (rival_fit == winner_fit) & (rival < winner)
        )
        winner = np.where(better, rival, winner)
        winner_fit = np.where(better, rival_fit, winner_fit)
    return winner


def _pair_count(config: GaConfig) -> int:
    """Offspring pairs per generation; an odd offspring count drops the
    second child of the last pair."""
    return (config.population_size - config.elite_count + 1) // 2


def step_generation(state: GaState) -> GaState:
    """Advance one generation: keep the elites, refill with offspring.

    The next generation is written into the spare buffers, elites first,
    and the buffers are then swapped, so the population read by the step
    is never written during it. Offspring evaluation stops at the
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
    elites = cfg.elite_count
    n_off = cfg.population_size - elites
    n_pairs = _pair_count(cfg)
    genes, fitness = state.buffers[1], state.fitness_buffers[1]

    elite_idx = np.argsort(state.fitness, kind="stable")[:elites]
    winners = _tournament_winners(state.fitness, 2 * n_pairs, cfg.tournament_size, rng)
    children = genes[elites:]
    # winners are valid rows, so "clip" never clips; unlike "raise", it
    # writes into `out` without an intermediate buffer
    np.take(state.population, winners, axis=0, out=children, mode="clip")
    child_a, child_b = children[:n_pairs], children[n_pairs:]

    crossed = rng.random(n_pairs) < cfg.crossover_rate
    cuts = rng.integers(1, L, size=n_pairs)
    tail = (np.arange(L)[None, :] >= cuts[:, None]) & crossed[:, None]
    np.copyto(state.scratch, child_a, where=tail)
    np.copyto(child_a, child_b, where=tail)
    np.copyto(child_b, state.scratch, where=tail)
    offspring = children[:n_off]

    rate = (
        cfg.mutation_rate_per_gene
        if cfg.mutation_rate_per_gene is not None
        else 1.0 / L
    )
    flips = rng.binomial(offspring.size, rate)
    rows, cols = np.divmod(rng.choice(offspring.size, flips, replace=False), L)
    if len(rows):
        offspring[rows, cols] = rng.integers(problem.gene_lo[cols], problem.gene_hi[cols] + 1)

    n_kept = min(n_off, cfg.max_evaluations - state.evaluations_used)
    genes[:elites] = state.population[elite_idx]
    fitness[:elites] = state.fitness[elite_idx]
    fitness[elites : elites + n_kept] = problem.fitness_batch(offspring[:n_kept])

    state.buffers = state.buffers[::-1]
    state.fitness_buffers = state.fitness_buffers[::-1]
    state.population = genes[: elites + n_kept]
    state.fitness = fitness[: elites + n_kept]
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
        dataclasses.replace(config, max_evaluations=limit).validate()
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
