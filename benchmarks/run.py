"""perisched benchmark: one workload per call, one JSON result line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload cs2-steady --seed 1 --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each exists):

* ``cs2-steady``: bundled cs2 at population 600, fixed GA seeds stepped
  for a fixed number of generations with no early stop.
* ``dense-feasible``: four dense networks generated from ``--seed`` at
  population 300, fixed GA seeds on each stepped to a fixed budget,
  recording when each first reaches zero hard violations.
* ``cs1-sweep``: ``cli.run_experiment`` on bundled cs1 with two worker
  processes.

Every workload also cross-checks the scalar evaluator, the batch
evaluator and the independent oracle on seeded random timetables of its
network. With ``--trace 0`` the last line carries the end-to-end metrics;
with ``--trace 1`` it carries per-layer metrics from spans recorded around
calls into perisched's public functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pickle
import platform
import resource
import statistics
import sys
import time
from concurrent import futures
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "perisched" / "__init__.py").is_file():
    raise SystemExit(f"perisched sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import perisched  # noqa: E402
from perisched import cli, codec, engine, instances, model, oracle  # noqa: E402

import dense  # noqa: E402
import spans  # noqa: E402
from spans import fast  # noqa: E402

if Path(perisched.__file__).resolve().parent != SRC / "perisched":
    raise SystemExit(f"imported perisched from {perisched.__file__}, not {SRC}")

#: Weights under which batch and scalar fitness are compared for the
#: fractional-weight report; running and dwell keep their defaults.
FRACTIONAL_WEIGHTS = dict(headway=10.1, single_track=10.3, connection=0.7)

STEADY_POPULATION = 600
DENSE_POPULATION = 300
SWEEP_POPULATION = 300
SWEEP_WORKERS = 2
#: Generations a one-worker `run_experiment` must reproduce of a stepped run.
CONSISTENCY_GENERATIONS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "generation_ms": "ms",
    "time_to_feasible_s": "s",
    "evals_to_feasible": "count",
    "pct_feasible": "%",
    "mean_soft_violations": "count",
    "sweep_s": "s",
    "timetables_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "instances.load_ms": "ms",
    "model.derive_bounds_ms": "ms",
    "engine.compile_ms": "ms",
    "engine.decode_batch_ms": "ms",
    "engine.fitness_batch.self_ms": "ms",
    "engine.step_generation.self_ms": "ms",
    "engine.run.recheck_ms": "ms",
    "codec.decode_us": "us",
    "model.evaluate_us": "us",
    "oracle.check_independent_us": "us",
    "cli.task_pickle_bytes": "bytes",
    "cli.dispatch_overhead_s": "s",
    "cli.worker_busy_frac": "frac",
    "engine.distinct_offspring_frac": "frac",
    "engine.pair_columns_frac": "frac",
    "engine.fractional_mismatch_frac": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass(frozen=True)
class Sizes:
    """Amount of work per run. The defaults are the benchmark; the smoke
    test shrinks them."""

    setup_repeats: int = 3  # set-ups before the first unit; one more follows each unit
    check_per_unit: int = 4  # random timetables cross-checked after each unit
    sample_rows: int = 8
    steady_seeds: tuple[int, ...] = tuple(range(1, 9))
    steady_generations: int = 30
    dense_networks: int = 4
    dense_seeds: tuple[int, ...] = tuple(range(1, 9))  # on each network
    dense_budget: int = 20_000
    sweep_limits: tuple[int, ...] = (3_000, 30_000)
    sweep_runs: int = 50
    sweep_replays: int = 4


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    tracer: spans.Tracer | None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # filled in by the workload for the per-layer metrics
    mismatch_frac: float = 0.0
    overhead: float = 0.0
    dispatch: list = field(default_factory=list)  # (wall s, DetailRows, workers) per sweep

    def expect(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, what: str, fn) -> None:
        """Run a check that returns a verdict; raising counts as failing."""
        try:
            ok = fn()
        except Exception as e:  # a crash inside perisched is a failed operation
            self.expect(False, f"{what}: {type(e).__name__}: {e}")
        else:
            self.expect(ok, what)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name


# ---------------------------------------------------------------------------
# shared steps
#
# The CPUs of the two-CPU machine this benchmark was built on switch every
# second or two between a fast state and one about 1.5x slower, and the
# share of time spent fast changes from run to run. A run's median lands in
# either state depending on how much of the run was slow, so timings report
# the fastest hundredth of their samples (`fast`), and set-up and the
# scalar cross-check are spread over the run: one set-up and a few
# cross-checked timetables follow every unit of the main work (one GA seed,
# or one sweep).


def spread_note(name: str, samples, scale: float, unit: str) -> str:
    ordered = sorted(samples)
    return (
        f"{name}: p1 {scale * fast(ordered):.6g}, median {scale * statistics.median(ordered):.6g}, "
        f"p99 {scale * ordered[int(0.99 * (len(ordered) - 1))]:.6g} {unit} over {len(ordered)} samples"
    )


class Network:
    """A workload's network, set up (load, derive_bounds, CompiledProblem)
    once per call of `set_up`; the first set-up's objects are kept."""

    def __init__(self, ctx: Context, load) -> None:
        self.load = load
        self.setup_s: list[float] = []
        for _ in range(ctx.sizes.setup_repeats):
            self.set_up(ctx)

    def set_up(self, ctx: Context) -> None:
        ctx.phase("setup")
        start = time.perf_counter()
        instance = self.load()
        constraints = model.derive_bounds(instance)
        problem = engine.CompiledProblem(instance, constraints)
        self.setup_s.append(time.perf_counter() - start)
        if len(self.setup_s) == 1:
            self.instance, self.constraints, self.problem = instance, constraints, problem
        ctx.phase("main")


class CrossCheck:
    """Scalar, batch and independent evaluation of seeded random
    timetables of one network; times the scalar decode+evaluate.

    The same timetables are scored again under fractional weights. Batch
    and scalar fitness are known to disagree there, so those mismatches
    are reported as a share rather than counted as failed operations.
    """

    def __init__(self, ctx: Context, net: Network, index: int = 0) -> None:
        self.ctx, self.net = ctx, net
        self.bounds = codec.gene_bounds(net.instance)
        self.rng = np.random.default_rng([ctx.seed, index])
        self.fractional = dataclasses.replace(
            net.instance.weights, **FRACTIONAL_WEIGHTS
        )
        fractional_instance = dataclasses.replace(net.instance, weights=self.fractional)
        self.fractional_problem = engine.CompiledProblem(fractional_instance, net.constraints)
        self.seconds: list[float] = []  # decode+evaluate per timetable
        self.mismatches = 0

    def __call__(self, count: int) -> None:
        ctx, net = self.ctx, self.net
        ctx.phase("check")
        genotypes = [codec.random_genotype(self.bounds, self.rng) for _ in range(count)]
        genes = np.array([g.genes for g in genotypes], dtype=np.int64)
        batch = net.problem.fitness_batch(genes)
        fractional_batch = self.fractional_problem.fitness_batch(genes)
        for g, fitness, fractional_fitness in zip(genotypes, batch, fractional_batch):
            start = time.perf_counter()
            timetable = codec.decode(g, net.instance)
            report = model.evaluate(timetable, net.constraints, net.instance.weights)
            self.seconds.append(time.perf_counter() - start)
            ctx.check(
                "random timetable: scalar, batch and oracle agree",
                lambda: report.weighted_fitness == fitness
                and same_report(report, oracle.check_independent(timetable, net.instance)),
            )
            scalar = model.evaluate(timetable, net.constraints, self.fractional).weighted_fitness
            self.mismatches += int(scalar != fractional_fitness)
        ctx.phase("main")


def after_unit(ctx: Context, net: Network, cross: CrossCheck) -> None:
    net.set_up(ctx)
    cross(ctx.sizes.check_per_unit)


def hard_threshold(instance: model.Instance) -> float:
    """Fitness below which the timetable has no hard violation: all soft
    connections together must weigh less than one hard violation."""
    w = instance.weights
    hard_min = min(w.weight_for(k) for k in model.HARD_KINDS)
    if len(instance.connections) * w.connection >= hard_min:
        raise SystemExit("connections could outweigh a hard violation; cannot read feasibility off fitness")
    return hard_min


def genotype(genes) -> codec.Genotype:
    return codec.Genotype(tuple(int(g) for g in genes))


def same_report(a: model.EvaluationReport, b: model.EvaluationReport) -> bool:
    return a.weighted_fitness == b.weighted_fitness and a.violations_by_type == b.violations_by_type


def common_metrics(ctx: Context, nets: list[Network], crosses: list[CrossCheck]) -> dict:
    """Set-up and scalar cross-check figures, pooled over the networks."""
    setups = [t for net in nets for t in net.setup_s]
    checks = [t for cross in crosses for t in cross.seconds]
    mismatches = sum(cross.mismatches for cross in crosses)
    ctx.mismatch_frac = mismatches / len(checks)
    ctx.notes.append(
        f"fractional weights {FRACTIONAL_WEIGHTS}: batch fitness differs from scalar "
        f"fitness on {mismatches} of {len(checks)} random timetables"
    )
    ctx.notes.append(spread_note("set-up", setups, 1e3, "ms"))
    ctx.notes.append(spread_note("scalar decode+evaluate", checks, 1e6, "us"))
    return {
        "setup_s": fast(setups),
        "timetables_per_s": 1.0 / fast(checks),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# stepped GA runs: cs2-steady and dense-feasible


@dataclass
class GaRun:
    seed: int
    evaluations: int
    best_fitness: float
    best_genes: np.ndarray
    first_feasible_evals: float  # inf when never hard-feasible
    first_feasible_s: float
    wall_s: float
    generation_s: list[float]  # full generations only
    best_after: list[float]  # best fitness after each generation
    sample_genes: np.ndarray  # a few rows of the final population
    sample_fitness: np.ndarray

    def key(self) -> tuple:
        return (self.evaluations, self.best_fitness, self.first_feasible_evals, tuple(self.best_after))

    def repeats(self, first: GaRun) -> bool:
        """This run reproduces `first`, or, if it stopped at its first
        hard-feasible generation, `first` up to that generation."""
        if self.evaluations == self.first_feasible_evals < first.evaluations:
            return (self.evaluations, tuple(self.best_after)) == (
                first.first_feasible_evals,
                tuple(first.best_after[: len(self.best_after)]),
            )
        return self.key() == first.key()

    def feasible_or_budget(self) -> tuple[float, float]:
        """Evaluations and time to the first hard-feasible best; a seed that
        never gets there counts its whole budget and run time instead."""
        if math.isinf(self.first_feasible_evals):
            return self.evaluations, self.wall_s
        return self.first_feasible_evals, self.first_feasible_s


def ga_run(
    net: Network, population: int, seed: int, budget: int, threshold: float, samples: int, stop_at_feasible: bool
) -> GaRun:
    """Step one seeded GA to `budget` evaluations with no early stop, or,
    with `stop_at_feasible`, to its first hard-feasible generation."""
    config = engine.GaConfig(population_size=population, max_evaluations=budget, seed=seed)
    start = time.perf_counter()
    state = engine.init_state(net.instance, net.constraints, config)
    first_evals = first_s = math.inf
    if state.best_fitness < threshold:
        first_evals, first_s = state.evaluations_used, time.perf_counter() - start
    generation_s, best_after = [], []
    offspring = population - state.config.elite_count
    while state.evaluations_used < budget and not (stop_at_feasible and math.isfinite(first_evals)):
        step_start, evaluations = time.perf_counter(), state.evaluations_used
        engine.step_generation(state)
        now = time.perf_counter()
        # a budget can cut the last generation short; its time is left out
        if state.evaluations_used - evaluations == offspring:
            generation_s.append(now - step_start)
        best_after.append(state.best_fitness)
        if math.isinf(first_evals) and state.best_fitness < threshold:
            first_evals, first_s = state.evaluations_used, now - start
    wall_s = time.perf_counter() - start
    rows = np.random.default_rng(seed).choice(len(state.population), min(samples, len(state.population)), replace=False)
    return GaRun(
        seed=seed,
        evaluations=state.evaluations_used,
        best_fitness=state.best_fitness,
        best_genes=state.best_genes,
        first_feasible_evals=first_evals,
        first_feasible_s=first_s,
        wall_s=wall_s,
        generation_s=generation_s,
        best_after=best_after,
        sample_genes=state.population[rows],
        sample_fitness=state.fitness[rows],
    )


def repeat_passes(seconds: float, one_pass) -> list:
    """Whole passes for about `seconds`: at least three, so that every
    seed's fastest run is taken from as many repeats on every run, and
    after that a pass starts only if at least half of it fits in the time
    left. `one_pass(first)` is told whether it makes the first pass."""
    start = time.perf_counter()
    passes = [one_pass(k == 0) for k in range(3)]
    while (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        passes.append(one_pass(False))
    return passes


def stepped_workload(
    ctx: Context, nets: list[Network], population: int, seeds, budget: int, repeat_to_feasible: bool
) -> dict:
    """Step every GA seed on every network. The first pass runs each seed
    to `budget`; with `repeat_to_feasible`, later passes stop each seed at
    its first hard-feasible generation, which is all they time."""
    crosses = [CrossCheck(ctx, net, index) for index, net in enumerate(nets)]
    units = [(net, cross, seed) for net, cross in zip(nets, crosses) for seed in seeds]
    thresholds = {id(net): hard_threshold(net.instance) for net in nets}

    def one_pass(first: bool):
        runs = []
        stop = repeat_to_feasible and not first
        for net, cross, seed in units:
            runs.append(ga_run(net, population, seed, budget, thresholds[id(net)], ctx.sizes.sample_rows, stop))
            after_unit(ctx, net, cross)
        return runs

    passes, ctx.overhead = measure(ctx, one_pass, lambda runs: [g for r in runs for g in r.generation_s])
    first = passes[0]

    ctx.phase("check")
    for runs in passes[1:]:
        for (net, _, _), a, b in zip(units, first, runs):
            ctx.expect(b.repeats(a), f"{net.instance.meta.name} seed {a.seed}: repeat gives the same run")
    reports = []
    for (net, _, _), run in zip(units, first):
        label = f"{net.instance.meta.name} seed {run.seed}"
        timetable = codec.decode(genotype(run.best_genes), net.instance)
        report = model.evaluate(timetable, net.constraints, net.instance.weights)
        reports.append(report)
        ctx.expect(report.weighted_fitness == run.best_fitness, f"{label}: scalar fitness of best")
        ctx.check(
            f"{label}: oracle agrees on best",
            lambda: same_report(report, oracle.check_independent(timetable, net.instance)),
        )
        for genes, fitness in zip(run.sample_genes, run.sample_fitness):
            tt = codec.decode(genotype(genes), net.instance)
            scalar = model.evaluate(tt, net.constraints, net.instance.weights).weighted_fitness
            ctx.expect(scalar == fitness, f"{label}: batch fitness of a final row")
    consistency_check(ctx, nets[0], population, first[0])

    # each unit at its fastest repeat: a pass spans many speed changes
    to_feasible_s = [min(runs[k].feasible_or_budget()[1] for runs in passes) for k in range(len(units))]
    if repeat_to_feasible:
        unit_s = to_feasible_s  # later passes time each seed only that far
    else:
        unit_s = [min(runs[k].wall_s for runs in passes) for k in range(len(units))]
    generations = [g for runs in passes for r in runs for g in r.generation_s]
    metrics = common_metrics(ctx, nets, crosses) | {
        "evals_per_s": 1.0 / fast(r.wall_s / r.evaluations for runs in passes for r in runs),
        "generation_ms": 1e3 * fast(generations),
        "time_to_feasible_s": statistics.median(to_feasible_s),
        "evals_to_feasible": statistics.median(r.feasible_or_budget()[0] for r in first),
        "pct_feasible": 100.0 * sum(r.feasible for r in reports) / len(reports),
        "mean_soft_violations": statistics.mean(r.soft_violations for r in reports),
        "sweep_s": sum(unit_s),
    }
    ctx.notes.append(f"{len(passes)} passes of {len(seeds)} seeds on {len(nets)} network(s)")
    ctx.notes.append(spread_note("generation", generations, 1e3, "ms"))
    ctx.notes.append(
        "first hard-feasible evaluations per unit: "
        + ", ".join("-" if math.isinf(r.first_feasible_evals) else str(r.first_feasible_evals) for r in first)
    )
    return metrics


def consistency_check(ctx: Context, net: Network, population: int, run: GaRun) -> None:
    """The experiment harness, in-process, must reproduce the first
    generations of a stepped run with the same seed."""
    gens = CONSISTENCY_GENERATIONS
    limit = population + gens * (population - 1)  # GaConfig keeps one elite
    spec = cli.ExperimentSpec(
        population_sizes=(population,), eval_limits=(limit,), runs=1, base_seed=run.seed, workers=1
    )
    start = time.perf_counter()
    rows = cli.run_experiment(net.instance, spec)
    ctx.dispatch = [(time.perf_counter() - start, rows, 1)]
    ctx.expect(
        rows[0].evaluations_used == limit and rows[0].best_fitness == run.best_after[gens - 1],
        f"seed {run.seed}: run_experiment matches the stepped run after {gens} generations",
    )


# ---------------------------------------------------------------------------
# workloads


def cs2_steady(ctx: Context) -> dict:
    s = ctx.sizes
    net = Network(ctx, lambda: instances.load(instances.bundled_path("cs2")))
    budget = STEADY_POPULATION + s.steady_generations * (STEADY_POPULATION - 1)
    metrics = stepped_workload(ctx, [net], STEADY_POPULATION, s.steady_seeds, budget, repeat_to_feasible=False)
    return finish(ctx, net, metrics)


def dense_feasible(ctx: Context) -> dict:
    s = ctx.sizes
    # input generation, not set-up
    networks = [dense.generate(ctx.seed, index) for index in range(s.dense_networks)]
    nets = [Network(ctx, partial(instances.loads, instances.dumps(n.instance))) for n in networks]
    ctx.notes.append(f"{len(networks)} networks, census of each: {networks[0].census}")
    metrics = stepped_workload(ctx, nets, DENSE_POPULATION, s.dense_seeds, s.dense_budget, repeat_to_feasible=True)
    return finish(ctx, nets[0], metrics)


def cs1_sweep(ctx: Context) -> dict:
    s = ctx.sizes
    net = Network(ctx, lambda: instances.load(instances.bundled_path("cs1")))
    threshold = hard_threshold(net.instance)
    cross = CrossCheck(ctx, net)
    spec = cli.ExperimentSpec(
        population_sizes=(SWEEP_POPULATION,),
        eval_limits=s.sweep_limits,
        runs=s.sweep_runs,
        base_seed=1,
        workers=SWEEP_WORKERS,
    )

    def one_sweep(first: bool):
        start = time.perf_counter()
        rows = cli.run_experiment(net.instance, spec)
        wall = time.perf_counter() - start
        after_unit(ctx, net, cross)
        return wall, rows

    sweeps, ctx.overhead = measure(ctx, one_sweep, lambda sweep: [sweep[0]])
    first = sweeps[0][1]

    ctx.phase("check")
    for _, rows in sweeps[1:]:
        for a, b in zip(first, rows):
            ctx.expect(
                dataclasses.replace(a, time_s=0.0) == dataclasses.replace(b, time_s=0.0),
                f"sweep run seed {a.seed}: repeat gives the same run",
            )
    # workers return no genotypes: replay runs spread over the cells here
    for row in first[:: max(1, len(first) // s.sweep_replays)][: s.sweep_replays]:
        ctx.phase("main")
        config = engine.GaConfig(population_size=row.pop, max_evaluations=row.max_evals, seed=row.seed)
        result = engine.run(net.instance, net.constraints, config)
        ctx.phase("check")
        ctx.expect(
            (result.best_fitness, result.hard_violations, result.soft_violations,
             result.evaluations_used, result.terminated_by.value)
            == (row.best_fitness, row.hard_violations, row.soft_violations,
                row.evaluations_used, row.terminated_by),
            f"sweep run seed {row.seed}: in-process replay matches the worker",
        )
        timetable = codec.decode(result.best_genotype, net.instance)
        ctx.check(
            f"sweep run seed {row.seed}: oracle agrees on best",
            lambda: same_report(result.report, oracle.check_independent(timetable, net.instance)),
        )

    optimum = engine.Termination.OPTIMUM_FOUND.value
    by_seed = [[rs[k] for _, rs in sweeps] for k in range(len(first))]  # each run over the sweeps
    ctx.dispatch = [(wall, rs, SWEEP_WORKERS) for wall, rs in sweeps]
    metrics = common_metrics(ctx, [net], [cross]) | {
        "evals_per_s": sum(r.evaluations_used for r in first) / fast(w for w, _ in sweeps),
        # workers report whole runs only, so a generation's time here
        # includes its share of the run's compile and re-check
        "generation_ms": 1e3 * statistics.median(
            min(r.time_s for r in runs) / generations(runs[0]) for runs in by_seed
        ),
        # runs stop at the optimum, so these measure the first conflict-free
        # timetable: an upper bound on the first hard-feasible one
        "time_to_feasible_s": statistics.median(
            min(r.time_s for r in runs) for runs in by_seed if runs[0].terminated_by == optimum
        ),
        "evals_to_feasible": statistics.median(r.evaluations_used for r in first if r.terminated_by == optimum),
        "pct_feasible": 100.0 * sum(r.best_fitness < threshold for r in first) / len(first),
        "mean_soft_violations": statistics.mean(r.soft_violations for r in first),
        "sweep_s": fast(w for w, _ in sweeps),
    }
    ctx.notes.append(f"{len(sweeps)} sweeps of {len(first)} runs with {SWEEP_WORKERS} workers")
    return finish(ctx, net, metrics)


def generations(row: cli.DetailRow) -> int:
    """Generations of a sweep run: each one evaluates all but the one elite."""
    return max(1, math.ceil((row.evaluations_used - row.pop) / (row.pop - 1)))


WORKLOADS = {"cs2-steady": cs2_steady, "dense-feasible": dense_feasible, "cs1-sweep": cs1_sweep}


# ---------------------------------------------------------------------------
# tracing


def measure(ctx: Context, one_pass, unit_times):
    """Run passes for the run's seconds. Traced runs spend the first half
    with the wrappers removed and the second half traced, and return the
    slowdown of the fast unit time as the tracing overhead."""
    ctx.phase("main")
    if ctx.tracer is None:
        return repeat_passes(ctx.seconds, one_pass), 0.0
    ctx.tracer.restore()
    plain = repeat_passes(ctx.seconds / 2, one_pass)
    install(ctx.tracer)
    traced = repeat_passes(ctx.seconds / 2, one_pass)
    untraced_unit = fast(t for p in plain for t in unit_times(p))
    traced_unit = fast(t for p in traced for t in unit_times(p))
    return plain + traced, traced_unit / untraced_unit - 1.0


def install(tracer: spans.Tracer) -> None:
    """Wrap the public functions whose cost the per-layer metrics report."""
    tracer.wrap(instances, "load", "instances.load")
    tracer.wrap(instances, "loads", "instances.load")
    tracer.wrap(model, "derive_bounds", "model.derive_bounds")
    tracer.wrap(engine.CompiledProblem, "__init__", "engine.compile")
    tracer.wrap(engine.CompiledProblem, "decode_batch", "engine.decode_batch")
    tracer.wrap(engine.CompiledProblem, "fitness_batch", "engine.fitness_batch")
    tracer.wrap(engine, "init_state", "engine.init_state")
    tracer.wrap(engine, "step_generation", "engine.step_generation", after=partial(count_offspring, tracer))
    tracer.wrap(engine, "run", "engine.run")
    tracer.wrap(codec, "decode", "codec.decode")
    tracer.wrap(model, "evaluate", "model.evaluate")
    tracer.wrap(oracle, "check_independent", "oracle.check_independent")
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap(futures.ProcessPoolExecutor, "map", "cli.pool_map", after=partial(count_pickled, tracer))


_PROJECTION = np.random.default_rng(0).random(1 << 16)


def count_offspring(tracer: spans.Tracer, args, state) -> None:
    """Distinct offspring of a main-phase generation, told apart by a random
    projection of each row."""
    if tracer.phase == "main":
        offspring = state.population[state.config.elite_count :]
        keys = offspring @ _PROJECTION[: offspring.shape[1]]
        tracer.counts["offspring.distinct"] += len(np.unique(keys))
        tracer.counts["offspring"] += len(keys)


def count_pickled(tracer: spans.Tracer, args, result) -> None:
    """Pickled size of every task handed to a worker pool."""
    for tasks in args[2:]:
        if isinstance(tasks, (list, tuple)):
            tracer.counts["pickled.bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
            tracer.counts["pickled.tasks"] += len(tasks)


def per_layer(ctx: Context, net: Network) -> dict:
    tr = ctx.tracer
    recheck = [
        sum(c.duration for name in ("codec.decode", "model.evaluate") for c in tr.children(index, name))
        for index, span in enumerate(tr.spans)
        if span.name == "engine.run"
    ]
    busy = [(wall, sum(r.time_s for r in rows), workers) for wall, rows, workers in ctx.dispatch]
    columns = np.union1d(net.problem.pair_x, net.problem.pair_y)
    counts = tr.counts
    return {
        "instances.load_ms": 1e3 * tr.fast("instances.load", "setup"),
        "model.derive_bounds_ms": 1e3 * tr.fast("model.derive_bounds", "setup"),
        "engine.compile_ms": 1e3 * tr.fast("engine.compile", "setup"),
        "engine.decode_batch_ms": 1e3 * tr.fast("engine.decode_batch", "main"),
        "engine.fitness_batch.self_ms": 1e3 * tr.fast("engine.fitness_batch", "main", own=True),
        "engine.step_generation.self_ms": 1e3 * tr.fast("engine.step_generation", "main", own=True),
        "engine.run.recheck_ms": 1e3 * fast(recheck) if recheck else 0.0,
        "codec.decode_us": 1e6 * tr.fast("codec.decode", "check"),
        "model.evaluate_us": 1e6 * tr.fast("model.evaluate", "check"),
        "oracle.check_independent_us": 1e6 * tr.fast("oracle.check_independent", "check"),
        "cli.task_pickle_bytes": counts["pickled.bytes"] / max(1, counts["pickled.tasks"]),
        "cli.dispatch_overhead_s": statistics.median(w - b / n for w, b, n in busy),
        "cli.worker_busy_frac": statistics.median(b / (w * n) for w, b, n in busy),
        "engine.distinct_offspring_frac": counts["offspring.distinct"] / counts["offspring"],
        "engine.pair_columns_frac": len(columns) / net.problem.length,
        "engine.fractional_mismatch_frac": ctx.mismatch_frac,
        "trace.overhead_frac": ctx.overhead,
    }


# ---------------------------------------------------------------------------
# output


def finish(ctx: Context, net: Network, metrics: dict) -> dict:
    if ctx.tracer is None:
        metrics["peak_rss_mb"] = peak_rss_mb()
        return {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}
    layers = per_layer(ctx, net)
    ctx.tracer.restore()
    return {k: (layers[k], u) for k, u in PER_LAYER_UNITS.items()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> str:
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "perisched").glob("*.py"))
    return (
        f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
        f"commit {git_commit()}, src/perisched/*.py {src_lines} lines"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Sizes())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> int:
    ctx = Context(seed=seed, seconds=seconds, sizes=sizes, tracer=spans.Tracer() if trace else None)
    if ctx.tracer is not None:
        install(ctx.tracer)
    try:
        metrics = WORKLOADS[workload](ctx)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(environment())
    for note in ctx.notes:
        print(note)
    for failure in ctx.failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not ctx.failures,
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
