import dataclasses
import hashlib
import re

import numpy as np
import pytest

from perisched import codec, engine, instances, model, oracle
from perisched.engine import GaConfig, Termination
from perisched.errors import ConfigInvalid, EvaluatorMismatch, ValidationError
from perisched.model import ConnectionSpec, Segment, Train, Trip

from conftest import (
    MICRO_BUILDERS,
    make_instance,
    micro_three_trains,
    micro_unsat_connection,
    run_answer,
)


def tiny_config(**kw):
    base = dict(population_size=20, max_evaluations=2000, seed=7)
    base.update(kw)
    return GaConfig(**base)


class TestConfig:
    def test_defaults_are_valid(self):
        GaConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("population_size", 1),
            ("population_size", 50.0),
            ("max_evaluations", 10),
            ("max_evaluations", 500.0),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigInvalid):
            GaConfig(**{field: value})
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(GaConfig(), **{field: value})


class TestSelectParent:
    """Parent selection: the binary tournament `_tournament_winners`."""

    def test_selection_frequency_matches_analytic_probability(self):
        # fitness [0, 10, 10], two draws with replacement: the best
        # individual wins unless both draws avoid index 0: 1 - (2/3)^2 = 5/9
        fitness = np.array([0, 10, 10])
        n = 20000
        winners = engine._tournament_winners(fitness, n, np.random.default_rng(2))
        assert abs(np.mean(winners == 0) - 5 / 9) < 0.02

    def test_ties_break_to_lower_contestant_index(self):
        # all fitnesses equal: the winner is the lowest drawn index, so
        # index 0 wins exactly when either of the two draws hits it (3/4)
        n = 20000
        winners = engine._tournament_winners(np.array([4, 4]), n, np.random.default_rng(3))
        assert abs(np.mean(winners == 0) - 3 / 4) < 0.02


def set_operators(monkeypatch, crossover_rate, mutations_per_genotype):
    """Replace the GA's fixed operator constants for one test."""
    monkeypatch.setattr(GaConfig, "crossover_rate", crossover_rate)
    monkeypatch.setattr(GaConfig, "mutations_per_genotype", mutations_per_genotype)


def step_offspring(instance, population, seed=0):
    """Offspring of one `step_generation` from `population`. The step runs
    on one more row, a copy of the first, and its elite row is dropped, so
    row i and row n/2 + i are siblings: children of the same two parents."""
    size = len(population) + 1
    config = GaConfig(population_size=size, max_evaluations=10 * size, seed=seed)
    state = engine.init_state(instance, model.derive_bounds(instance), config)
    state.population = np.concatenate([population[:1], population])
    state.fitness = state.problem.fitness_batch(state.population)
    engine.step_generation(state)
    return state.population[1:]


def lo_hi_population(problem, size):
    """Alternating rows at every gene's lower and upper bound."""
    return np.stack([problem.gene_lo, problem.gene_hi] * (size // 2))


class TestCrossover:
    """One-point crossover inside `step_generation`, mutation off."""

    def test_identical_parents_clone(self, cs1, monkeypatch):
        set_operators(monkeypatch, 1.0, 0)
        problem = engine.CompiledProblem(cs1, model.derive_bounds(cs1))
        row = problem.random_population(1, np.random.default_rng(0))
        offspring = step_offspring(cs1, np.repeat(row, 20, axis=0))
        assert np.array_equal(offspring, np.repeat(row, 20, axis=0))

    def test_cut_mixes_prefix_and_suffix(self, cs1, monkeypatch):
        set_operators(monkeypatch, 1.0, 0)
        problem = engine.CompiledProblem(cs1, model.derive_bounds(cs1))
        lo, hi = problem.gene_lo, problem.gene_hi
        assert np.all(lo < hi)  # every column tells the two parents apart
        L, pairs, crossed = problem.length, 20, 0
        for seed in range(5):
            offspring = step_offspring(cs1, lo_hi_population(problem, 2 * pairs), seed)
            for a, b in zip(offspring[:pairs], offspring[pairs:]):
                if np.array_equal(a, b):
                    assert np.array_equal(a, lo) or np.array_equal(a, hi)
                    continue  # both parents were the same row
                crossed += 1
                assert np.array_equal(a + b, lo + hi)  # complementary children
                from_lo = a == lo
                cut = int(np.argmax(from_lo != from_lo[0]))
                # a real cut in [1, L-1]: one switch, never a clone
                assert 1 <= cut <= L - 1
                assert np.all(from_lo[:cut] == from_lo[0])
                assert np.all(from_lo[cut:] != from_lo[0])
        assert crossed > 0

    def test_rate_zero_never_crosses(self, cs1, monkeypatch):
        set_operators(monkeypatch, 0.0, 0)
        problem = engine.CompiledProblem(cs1, model.derive_bounds(cs1))
        offspring = step_offspring(cs1, lo_hi_population(problem, 40))
        for row in offspring:
            assert np.array_equal(row, problem.gene_lo) or np.array_equal(row, problem.gene_hi)

    def test_offspring_never_alias_the_parents(self, cs1, monkeypatch):
        # children are crossed and mutated in place in the spare buffer: the
        # previous population, elite included, must come out of a step
        # untouched, also once each of the two buffers has been reused
        set_operators(monkeypatch, 1.0, len(cs1.event_index.events))  # every gene flips
        config = GaConfig(population_size=21, max_evaluations=10_000, seed=4)
        state = engine.init_state(cs1, model.derive_bounds(cs1), config)
        for _ in range(6):
            parents = state.population
            before = parents.copy()
            engine.step_generation(state)
            assert np.array_equal(parents, before)
            assert not np.shares_memory(state.population, parents)

    @pytest.mark.parametrize("network", ["one-trip", "single_track", "cs1", "cs2"])
    def test_tail_masks(self, network, request):
        # lengths 2, 4, 64 and 472; every train has an even number of
        # events, so no instance has an odd length
        if network == "one-trip":
            instance = make_instance(60, [Train("t", 3, (Trip("A", "B", 1, 2),))])
        elif network in MICRO_BUILDERS:
            instance = MICRO_BUILDERS[network]()
        else:
            instance = request.getfixturevalue(network)
        state = engine.init_state(instance, model.derive_bounds(instance), tiny_config())
        L = state.problem.length
        assert state.tails.shape == (L + 1, L)
        assert state.tails.dtype == state.problem.gene_dtype
        assert not state.tails.flags.writeable
        assert np.array_equal(state.tails[0], np.zeros(L))  # an uncrossed pair swaps nothing
        for c in range(1, L):
            # -1 has every bit set: the XOR swap exchanges whole genes there
            assert np.array_equal(state.tails[L - c], np.where(np.arange(L) >= c, -1, 0))

    def test_offspring_stay_in_bounds(self, cs1, monkeypatch):
        monkeypatch.setattr(GaConfig, "crossover_rate", 1.0)
        constraints = model.derive_bounds(cs1)
        config = GaConfig(population_size=100, max_evaluations=10_000, seed=3)
        state = engine.init_state(cs1, constraints, config)
        for _ in range(20):
            engine.step_generation(state)
            assert np.all(state.population >= state.problem.gene_lo)
            assert np.all(state.population <= state.problem.gene_hi)


class TestMutate:
    """Per-gene mutation inside `step_generation`, crossover off."""

    def test_rate_zero_is_identity(self, cs1, monkeypatch):
        set_operators(monkeypatch, 0.0, 0)
        problem = engine.CompiledProblem(cs1, model.derive_bounds(cs1))
        population = problem.random_population(30, np.random.default_rng(0))
        offspring = step_offspring(cs1, population)
        parents = {tuple(row) for row in population.tolist()}
        assert all(tuple(row) in parents for row in offspring.tolist())

    def test_degenerate_bounds_identity_at_full_rate(self, monkeypatch):
        inst = micro_unsat_connection()  # both running windows are [3, 3]
        problem = engine.CompiledProblem(inst, model.derive_bounds(inst))
        set_operators(monkeypatch, 0.0, problem.length)
        fixed = problem.gene_lo == problem.gene_hi
        assert fixed.any() and not fixed.all()
        population = problem.random_population(20, np.random.default_rng(1))
        offspring = step_offspring(inst, population)
        assert np.all(offspring[:, fixed] == problem.gene_lo[fixed])

    def test_full_rate_resamples_uniformly(self, cs1, monkeypatch):
        problem = engine.CompiledProblem(cs1, model.derive_bounds(cs1))
        set_operators(monkeypatch, 0.0, problem.length)
        population = np.repeat(problem.gene_lo[None, :], 4000, axis=0)
        offspring = step_offspring(cs1, population, seed=2)
        first = offspring[:, problem.gene_hi == cs1.period - 1]  # first departures
        counts = np.bincount(first.ravel(), minlength=cs1.period)
        expected = first.size / cs1.period
        assert counts.min() > expected * 0.8
        assert counts.max() < expected * 1.2

    @pytest.mark.parametrize("rate", [0.05, 0.3])
    def test_intermediate_rate_flips_each_gene_independently(self, cs1, rate, monkeypatch):
        problem = engine.CompiledProblem(cs1, model.derive_bounds(cs1))
        set_operators(monkeypatch, 0.0, rate * problem.length)
        population = np.repeat(problem.gene_lo[None, :], 4000, axis=0)
        offspring = step_offspring(cs1, population, seed=5)
        changed = offspring != problem.gene_lo
        # a flip of a first departure resamples all `period` values, so it
        # shows unless it draws gene_lo again
        first = changed[:, problem.gene_hi == cs1.period - 1]
        expected = rate * (1 - 1 / cs1.period)
        stderr = np.sqrt(expected * (1 - expected) / first.size)
        assert abs(first.mean() - expected) < 4 * stderr
        assert changed.any(axis=0).all()  # every column is hit

    def test_stays_in_bounds(self, cs1, monkeypatch):
        monkeypatch.setattr(GaConfig, "mutations_per_genotype", 0.3 * len(cs1.event_index.events))
        constraints = model.derive_bounds(cs1)
        config = GaConfig(population_size=60, max_evaluations=10_000, seed=3)
        state = engine.init_state(cs1, constraints, config)
        for _ in range(20):
            engine.step_generation(state)
            assert np.all(state.population >= state.problem.gene_lo)
            assert np.all(state.population <= state.problem.gene_hi)


class TestCompiledProblem:
    def test_foreign_constraint_rejected(self, micro_instance):
        from perisched.errors import MissingEvent
        from perisched.model import ConstraintKind, Event, PeriodicConstraint

        alien = PeriodicConstraint(
            ConstraintKind.CONNECTION,
            Event.arrival("ghost", "A"),
            Event.departure("ghost", "B"),
            0,
            5,
        )
        with pytest.raises(MissingEvent):
            engine.CompiledProblem(micro_instance, [alien])

    @pytest.mark.parametrize("name", sorted(MICRO_BUILDERS) + ["cs1", "cs2"])
    def test_batch_decode_inverts_genes(self, name, request):
        # read the genes back off the decoded times, modulo the period:
        # this holds whether or not a section wraps past the period
        inst = request.getfixturevalue(name) if name in ("cs1", "cs2") else MICRO_BUILDERS[name]()
        problem = engine.CompiledProblem(inst, model.derive_bounds(inst))
        T = inst.period
        genes = problem.random_population(200, np.random.default_rng(5))
        events = problem.decode_batch(genes)
        assert events.shape == genes.shape
        assert np.all((events >= 0) & (events < T))
        first = np.zeros(problem.length, dtype=bool)
        first[inst.event_index.section_offsets] = True
        assert np.array_equal(events[:, first], genes[:, first] % T)
        steps = (events[:, 1:] - events[:, :-1]) % T
        assert np.array_equal(steps[:, ~first[1:]], genes[:, 1:][:, ~first[1:]] % T)
        wrapped = (events[:, 1:] < events[:, :-1])[:, ~first[1:]]
        assert wrapped.any()

    def test_batch_fitness_matches_scalar_evaluate(self, micro_instance):
        constraints = model.derive_bounds(micro_instance)
        problem = engine.CompiledProblem(micro_instance, constraints)
        rng = np.random.default_rng(6)
        genes = problem.random_population(60, rng)
        fitness = problem.fitness_batch(genes)
        for row in range(60):
            tt = codec.decode(codec.Genotype(tuple(int(v) for v in genes[row])), micro_instance)
            report = model.evaluate(tt, constraints, micro_instance.weights)
            assert report.weighted_fitness == fitness[row]

    def test_batch_fitness_matches_on_cs2(self, cs2):
        constraints = model.derive_bounds(cs2)
        problem = engine.CompiledProblem(cs2, constraints)
        rng = np.random.default_rng(7)
        genes = problem.random_population(20, rng)
        fitness = problem.fitness_batch(genes)
        for row in range(20):
            tt = codec.decode(codec.Genotype(tuple(int(v) for v in genes[row])), cs2)
            report = model.evaluate(tt, constraints, cs2.weights)
            assert report.weighted_fitness == fitness[row]


def assert_batch_is_scalar(problem, genes):
    """Each row's batch counts and fitness equal those of `model.evaluate`
    and `oracle.check_independent` on the decoded row."""
    instance = problem.instance
    constraints = model.derive_bounds(instance)
    counts = problem.violation_counts(genes)
    fitness = problem.fitness_batch(genes)
    assert all(n.shape == (len(genes),) for n in counts.values())
    for row, values in enumerate(genes):
        tt = codec.decode(codec.Genotype(tuple(int(v) for v in values)), instance)
        report = model.evaluate(tt, constraints, instance.weights)
        assert {kind: int(n[row]) for kind, n in counts.items()} == report.violations_by_type
        assert oracle.check_independent(tt, instance).violations_by_type == report.violations_by_type
        assert fitness[row] == report.weighted_fitness


def huge_period_instance():
    """All five families at a period just below `model.INT_CAP`, with
    running and dwell windows reaching just below the period, so that genes
    and their prefix sums reach the sizes the loader admits."""
    T = model.INT_CAP - 1
    return make_instance(
        T,
        trains=[
            Train("X", 2**20, (Trip("A", "B", 1, T - 1, 0, T - 1), Trip("B", "C", T // 2, T - 1))),
            Train("Y", 2**30, (Trip("C", "B", 1, T - 1, T - 2, T - 1), Trip("B", "A", 1, 2))),
            Train("Z", 2**29, (Trip("A", "B", 2**30, T - 1),)),
        ],
        segments=[Segment("B", "C", single_track=True)],
        connections=[ConnectionSpec("X", "Y", "B", 5, T - 3)],
    )


class TestKernelEdges:
    """`CompiledProblem.violation_counts` at the edges of its layout."""

    def test_no_pairwise_constraint_gives_an_empty_plan(self):
        inst = make_instance(60, [Train("t", 3, (Trip("A", "B", 10, 12, 1, 2), Trip("B", "C", 5, 6)))])
        problem = engine.CompiledProblem(inst, model.derive_bounds(inst))
        assert (len(problem.kept), problem.levels) == (0, [])
        genes = problem.random_population(5, np.random.default_rng(0))
        assert all(np.array_equal(n, np.zeros(5)) for n in problem.violation_counts(genes).values())
        assert_batch_is_scalar(problem, genes)

    def test_one_row_batch(self, cs2):
        problem = engine.CompiledProblem(cs2, model.derive_bounds(cs2))
        assert_batch_is_scalar(problem, problem.random_population(1, np.random.default_rng(1)))

    def test_non_contiguous_rows(self, cs2):
        problem = engine.CompiledProblem(cs2, model.derive_bounds(cs2))
        population = problem.random_population(16, np.random.default_rng(2))
        view = population[::2]
        assert not view.flags.c_contiguous
        contiguous = problem.violation_counts(np.ascontiguousarray(view))
        counts = problem.violation_counts(view)
        assert all(np.array_equal(counts[kind], contiguous[kind]) for kind in model.ConstraintKind)
        assert_batch_is_scalar(problem, view)

    def test_period_near_the_cap(self):
        inst = huge_period_instance()
        constraints = model.derive_bounds(inst)
        assert {c.kind for c in constraints} == set(model.ConstraintKind)
        problem = engine.CompiledProblem(inst, constraints)
        genes = np.vstack([
            problem.random_population(20, np.random.default_rng(3)),
            problem.gene_lo,
            problem.gene_hi,
        ])
        assert_batch_is_scalar(problem, genes)


def edge_instance(period):
    """Two trains with every window reaching period - 1, and a headway and
    a connection between them: 8 genes whose largest is period - 1."""
    hi = period - 1
    return make_instance(
        period,
        trains=[
            Train("X", period // 4, (
                Trip("A", "B", 1, hi, 0, hi), Trip("B", "C", 1, hi, 0, hi), Trip("C", "D", 1, hi)
            )),
            Train("Y", period // 4, (Trip("C", "D", 1, hi),)),
        ],
        connections=[ConnectionSpec("X", "Y", "C", 2, period // 2)],
    )


def window_edge_rows(problem, constraints):
    """Rows at `gene_hi` but for one train's phase gene, set so that one
    pairwise constraint between two trains sits on an end of its window:
    a wrapped prefix sum moves the residue off that end."""
    index = problem.instance.event_index
    offsets = index.section_offsets
    rows = []
    for c in constraints:
        x, y = index.column[c.earlier], index.column[c.later]
        first_x, first_y = (offsets[np.searchsorted(offsets, col, side="right") - 1] for col in (x, y))
        if first_x == first_y:  # running and dwell: one train
            continue
        for end in (c.lo, c.hi):
            row = problem.gene_hi.copy()
            raw = int(row[first_y : y + 1].sum()) - int(row[first_x : x + 1].sum())
            row[first_y] = (row[first_y] + end - raw) % problem.period
            rows.append(row)
    return np.array(rows)


def width_bound(problem):
    lo, hi = int(problem.gene_lo.min()), int(problem.gene_hi.max())
    return 2 * problem.length * max(-lo, hi) + 2 * problem.period


class TestKernelWidth:
    """The kernel works in int32 unless an instance's sums could outgrow it."""

    @pytest.mark.parametrize(
        "make,dtype",
        [
            pytest.param(instances.build_cs1, np.int32, id="cs1"),
            pytest.param(lambda: instances.load(instances.bundled_path("cs2")), np.int32, id="cs2"),
            *(
                pytest.param(
                    lambda seed=seed: instances.generate_cs2_like(seed), np.int32, id=f"cs2-like-{seed}"
                )
                for seed in range(12)
            ),
            pytest.param(huge_period_instance, np.int64, id="huge-period"),
        ],
    )
    def test_kernel_width(self, make, dtype):
        instance = make()
        assert engine.CompiledProblem(instance, model.derive_bounds(instance)).dtype == dtype

    # 9 * 119304648 - 8 == 2**30: the bound reaches the cap at the larger
    # period and stays 18 below it at the smaller
    @pytest.mark.parametrize("period,dtype", [(119304647, np.int32), (119304648, np.int64)])
    def test_counts_are_exact_on_either_side_of_the_switch(self, period, dtype):
        instance = edge_instance(period)
        constraints = model.derive_bounds(instance)
        problem = engine.CompiledProblem(instance, constraints)
        assert (width_bound(problem) < model.INT_CAP) == (dtype == np.int32)
        assert abs(width_bound(problem) - model.INT_CAP) <= 2 * (problem.length + 1)
        assert problem.dtype == dtype
        genes = np.vstack([
            problem.gene_lo,
            problem.gene_hi,
            window_edge_rows(problem, constraints),
            problem.random_population(60, np.random.default_rng(11)),
        ])
        for rows in (genes, genes.astype(np.int32)):
            counts = problem.violation_counts(rows)
            assert 0 < counts[model.ConstraintKind.HEADWAY].sum() < 2 * len(rows)
            assert_batch_is_scalar(problem, rows)

    def test_the_largest_period_needs_int64(self):
        # the edge rows' prefix sums pass 2**31: int32 would misjudge them
        instance = huge_period_instance()
        constraints = model.derive_bounds(instance)
        problem = engine.CompiledProblem(instance, constraints)
        rows = window_edge_rows(problem, constraints)
        assert len(rows) == 10  # both ends of 5 pairwise constraints
        assert_batch_is_scalar(problem, rows)

    @pytest.mark.parametrize("make", [instances.build_cs1, huge_period_instance])
    def test_pair_arrays_carry_the_kernel_dtype(self, make):
        instance = make()
        problem = engine.CompiledProblem(instance, model.derive_bounds(instance))
        problem.violation_counts(problem.random_population(7, np.random.default_rng(0)))
        later, earlier, violated = problem._pair_buffers
        for array in (problem.pair_lo, problem.pair_width, later, earlier):
            assert array.dtype == problem.dtype
        assert violated.dtype == bool

    def test_counts_stay_exact_under_the_largest_weights(self, cs2):
        # int32 counts times a weight near 2**31 would wrap silently
        big = model.INT_CAP - 1
        instance = dataclasses.replace(
            cs2, weights=model.WeightConfig(headway=big, single_track=big, connection=1)
        )
        constraints = model.derive_bounds(instance)
        problem = engine.CompiledProblem(instance, constraints)
        genes = problem.random_population(40, np.random.default_rng(12)).astype(np.int32)
        counts = problem.violation_counts(genes)
        assert all(n.dtype == np.int64 for n in counts.values())
        assert problem.fitness_batch(genes).max() > 4 * model.INT_CAP
        assert_batch_is_scalar(problem, genes)


def same_counts(a, b) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[kind], b[kind]) for kind in a)


class TestPairStage:
    """The pair stage of `violation_counts` writes into arrays its
    `CompiledProblem` keeps between calls."""

    @pytest.fixture
    def problem(self, cs2):
        return engine.CompiledProblem(cs2, model.derive_bounds(cs2))

    def test_same_row_count_reuses_the_buffers(self, problem):
        rng = np.random.default_rng(8)
        problem.violation_counts(problem.random_population(5, rng))
        kept = problem._pair_buffers
        problem.violation_counts(problem.random_population(5, rng))
        assert len(problem._pair_buffers) == len(kept)
        assert all(now is then for now, then in zip(problem._pair_buffers, kept))

    def test_a_changed_row_count_gives_fresh_counts(self, problem, cs2):
        rng = np.random.default_rng(9)
        for size in (5, 3, 5):
            genes = problem.random_population(size, rng)
            fresh = engine.CompiledProblem(cs2, model.derive_bounds(cs2))
            assert same_counts(problem.violation_counts(genes), fresh.violation_counts(genes))
            assert all(b.shape == (len(problem.pair_x), size) for b in problem._pair_buffers)

    def test_returned_counts_survive_the_next_call(self, problem):
        rng = np.random.default_rng(10)
        first = problem.violation_counts(problem.random_population(5, rng))
        before = {kind: n.copy() for kind, n in first.items()}
        second = problem.violation_counts(problem.random_population(5, rng))
        assert not same_counts(second, before)
        assert same_counts(first, before)


def wide_window_instance(T):
    """All five families at period T, with running and dwell windows
    reaching T - 1, so that genes span [0, T - 1]."""
    return make_instance(
        T,
        trains=[
            Train("X", 2, (Trip("A", "B", 1, T - 1, 0, T - 1), Trip("B", "C", T // 2, T - 1))),
            Train("Y", 3, (Trip("C", "B", 1, T - 1, T - 2, T - 1), Trip("B", "A", 1, 2))),
            Train("Z", 5, (Trip("A", "B", T // 3, T - 1),)),
        ],
        segments=[Segment("B", "C", single_track=True)],
        connections=[ConnectionSpec("X", "Y", "B", 5, T - 3)],
    )


class TestGeneStorage:
    """The GA stores genes in `CompiledProblem.gene_dtype`, the narrowest
    of int8, int16 and int32 that holds every gene window; `model.INT_CAP`
    makes int32 enough."""

    def test_buffers_take_the_gene_dtype(self, cs1, cs2):
        bundled_cs2 = instances.load(instances.bundled_path("cs2"))
        for instance in (cs1, cs2, bundled_cs2):
            config = tiny_config(population_size=21)
            state = engine.init_state(instance, model.derive_bounds(instance), config)
            dtype = state.problem.gene_dtype
            assert dtype == np.int8  # period 60
            for _ in range(2):
                assert [b.dtype for b in state.buffers] == [dtype, dtype]
                assert state.population.dtype == dtype and state.scratch.dtype == dtype
                assert state.best_genes.dtype == dtype
                engine.step_generation(state)

    @pytest.mark.parametrize(
        "period,dtype,narrower",
        [
            (128, np.int8, None),
            (129, np.int16, np.int8),
            (2**15, np.int16, np.int8),
            (2**15 + 1, np.int32, np.int16),
        ],
    )
    def test_genes_at_the_width_boundaries(self, period, dtype, narrower):
        # genes up to period - 1 in the narrowest type that holds them: the
        # final population scores the same as its int64 copy, and `run`'s
        # re-check passes
        inst = wide_window_instance(period)
        constraints = model.derive_bounds(inst)
        config = tiny_config(max_evaluations=200)
        state = engine.init_state(inst, constraints, config)
        problem = state.problem
        assert problem.gene_dtype == dtype
        bounds = np.stack([problem.gene_lo, problem.gene_hi])
        assert bounds.min() == 0 and bounds.max() == period - 1
        assert np.array_equal(bounds.astype(dtype), bounds)
        if narrower is not None:
            assert not np.array_equal(bounds.astype(narrower), bounds)
        while state.evaluations_used < config.max_evaluations:
            engine.step_generation(state)
        wide = state.population.astype(np.int64)
        assert np.all((wide >= problem.gene_lo) & (wide <= problem.gene_hi))
        assert np.array_equal(problem.fitness_batch(wide), state.fitness)
        result = engine.run(inst, constraints, config)
        assert result.best_fitness == state.best_fitness
        assert list(result.best_genotype.genes) == state.best_genes.tolist()

    @pytest.mark.parametrize("period", [model.INT_CAP, 2**32])
    def test_a_period_at_the_cap_is_refused(self, period):
        # int32 genes would wrap: no such instance can be built
        message = re.escape(f"period must be in [2, 2**31), got {period}")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_instance(
                period,
                [Train("X", 3, (Trip("A", "B", 1, 2),)), Train("Y", 3, (Trip("A", "B", 1, 2),))],
            )

    def test_a_gene_window_beyond_int32_is_refused(self):
        with pytest.raises(ValidationError, match=re.escape("[1, 2147483648] invalid for period 60")):
            make_instance(60, [Train("X", 3, (Trip("A", "B", 1, 2**31),))])

    def test_run_at_the_largest_period(self):
        # genes up to 2**31 - 2, stored as int32: the final population scores
        # the same as its int64 copy, and `run`'s re-check passes
        inst = huge_period_instance()
        constraints = model.derive_bounds(inst)
        config = tiny_config(max_evaluations=200)
        state = engine.init_state(inst, constraints, config)
        assert state.problem.gene_dtype == np.int32
        while state.evaluations_used < config.max_evaluations:
            engine.step_generation(state)
        problem = state.problem
        wide = state.population.astype(np.int64)
        assert np.all((wide >= problem.gene_lo) & (wide <= problem.gene_hi))
        assert wide.max() >= 2**30
        assert np.array_equal(problem.fitness_batch(wide), state.fitness)
        result = engine.run(inst, constraints, config)
        assert result.best_fitness == state.best_fitness
        assert list(result.best_genotype.genes) == state.best_genes.tolist()


def fitness_digest(instance, weights) -> str:
    """Digest of `fitness_batch` over seeded random populations of 1, 13
    and 200 rows, each followed by the rows at `gene_lo` and `gene_hi`."""
    instance = dataclasses.replace(instance, weights=weights)
    problem = engine.CompiledProblem(instance, model.derive_bounds(instance))
    digest = hashlib.sha256()
    for seed, size in enumerate((1, 13, 200)):
        genes = np.vstack([
            problem.random_population(size, np.random.default_rng(seed)),
            problem.gene_lo,
            problem.gene_hi,
        ])
        fitness = problem.fitness_batch(genes)
        digest.update(fitness.dtype.str.encode() + fitness.tobytes())
    return digest.hexdigest()[:16]


PIN_NETWORKS = {
    "cs1": instances.build_cs1,
    "cs2": lambda: instances.load(instances.bundled_path("cs2")),
    "cs2-like-3": lambda: instances.generate_cs2_like(3),
}
PIN_WEIGHTS = {
    "default": model.WeightConfig(),
    "fractional": model.WeightConfig(headway=10.1, single_track=10.3, connection=0.7),
}
# (network, weights) -> `fitness_digest`, computed with the row-major kernel
# that accumulated each section by a restart-and-cumsum and tested windows
# with int64 `%`
FITNESS_PINS = {
    ("cs1", "default"): "0cdf9da082b9cc0f",
    ("cs1", "fractional"): "5d0cfb685d3103e0",
    ("cs2", "default"): "d95ef675da29ccc4",
    ("cs2", "fractional"): "60e204ad4bb10a63",
    ("cs2-like-3", "default"): "9833d5bae62efcf6",
    ("cs2-like-3", "fractional"): "cff4a2199ac12a3d",
}


@pytest.mark.parametrize("network,weights", FITNESS_PINS)
def test_fitness_is_pinned(network, weights):
    """Batch fitness, bytes and dtype included, is pinned."""
    digest = fitness_digest(PIN_NETWORKS[network](), PIN_WEIGHTS[weights])
    assert digest == FITNESS_PINS[network, weights]


class TestRun:
    def test_evaluator_disagreement_raises_named_error(self):
        # a constraint set whose running window the genes cannot meet makes
        # the scalar evaluation count a violation that the independent
        # check, which re-derives the constraints from the instance, does not
        inst = micro_three_trains()
        constraints = model.derive_bounds(inst)
        running = next(c for c in constraints if c.kind is model.ConstraintKind.RUNNING)
        unreachable = running._replace(lo=running.hi + 2, hi=running.hi + 3)
        constraints = [unreachable if c is running else c for c in constraints]
        with pytest.raises(EvaluatorMismatch, match="running"):
            engine.run(inst, constraints, tiny_config())

    def test_step_on_a_spent_budget_is_refused(self, cs1):
        config = GaConfig(population_size=20, max_evaluations=20)
        state = engine.init_state(cs1, model.derive_bounds(cs1), config)
        with pytest.raises(ConfigInvalid, match="budget spent: 20 of 20 evaluations"):
            engine.step_generation(state)
        assert (state.evaluations_used, state.generation, len(state.population)) == (20, 0, 20)

    def test_unconstrained_instance_terminates_immediately(self):
        inst = make_instance(60, [Train("t", 3, (Trip("A", "B", 10, 12),))])
        result = engine.run(inst, model.derive_bounds(inst), tiny_config())
        assert result.terminated_by is Termination.OPTIMUM_FOUND
        assert result.best_fitness == 0
        assert result.evaluations_used == 20
        assert result.generations == 0

    def test_same_seed_reproduces_run(self, micro_instance):
        constraints = model.derive_bounds(micro_instance)
        config = tiny_config(max_evaluations=1500)
        a = engine.run(micro_instance, constraints, config)
        b = engine.run(micro_instance, constraints, config)
        assert a.best_genotype == b.best_genotype
        assert a.best_fitness == b.best_fitness
        assert a.evaluations_used == b.evaluations_used
        assert a.terminated_by == b.terminated_by
        assert a.generations == b.generations

    # Seeded runs at population 100: (instance, budget, seed) -> best
    # fitness, evaluations used, generations and a digest of the best
    # genotype. The operators' random draws are part of every seeded
    # result, so a change that shifts them fails here by name. These pins
    # date from the change of the mutation draws to one binomial flip
    # count and its positions, in place of one uniform per gene.
    @pytest.mark.parametrize(
        "name,budget,seed,fitness,evaluations,generations,digest",
        [
            ("cs1", 3_000, 0, 0, 1882, 18, "a46161b8beea1a05"),
            ("cs1", 3_000, 1, 2, 3000, 30, "30125cf67b6ffb5a"),
            ("cs1", 3_000, 2, 0, 2971, 29, "962bfbf353f45f70"),
            ("cs2", 5_000, 0, 2, 5000, 50, "1906fc9ae97317dd"),
            ("cs2", 5_000, 1, 3, 5000, 50, "312b799ed6d931d0"),
        ],
        ids=["cs1-seed0", "cs1-seed1", "cs1-seed2", "cs2-seed0", "cs2-seed1"],
    )
    def test_seeded_run_is_pinned(
        self, name, budget, seed, fitness, evaluations, generations, digest, request
    ):
        inst = request.getfixturevalue(name)
        config = GaConfig(population_size=100, max_evaluations=budget, seed=seed)
        result = engine.run(inst, model.derive_bounds(inst), config)
        genes = np.asarray(result.best_genotype.genes, dtype="<i8").tobytes()
        assert (
            result.best_fitness, result.evaluations_used, result.generations,
            hashlib.sha256(genes).hexdigest()[:16],
        ) == (fitness, evaluations, generations, digest)

    def test_budget_respected_exactly(self):
        inst = micro_unsat_connection()  # optimum 1, so the budget binds
        constraints = model.derive_bounds(inst)
        result = engine.run(inst, constraints, tiny_config(max_evaluations=333))
        assert result.terminated_by is Termination.EVAL_LIMIT
        assert result.evaluations_used == 333

    def test_elitist_best_never_worsens(self):
        inst = micro_three_trains()
        constraints = model.derive_bounds(inst)
        state = engine.init_state(inst, constraints, tiny_config())
        history = [state.best_fitness]
        for _ in range(30):
            engine.step_generation(state)
            history.append(state.best_fitness)
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_fixed_point_without_variation(self, monkeypatch):
        set_operators(monkeypatch, 0.0, 0)
        inst = micro_three_trains()
        constraints = model.derive_bounds(inst)
        config = tiny_config(population_size=8)
        state = engine.init_state(inst, constraints, config)
        state.population = np.repeat(state.population[:1], 8, axis=0)
        state.fitness = state.problem.fitness_batch(state.population)
        before = state.population.copy()
        engine.step_generation(state)
        assert np.array_equal(state.population, before)

    def test_best_fitness_consistent_with_full_evaluation(self, micro_instance):
        constraints = model.derive_bounds(micro_instance)
        result = engine.run(micro_instance, constraints, tiny_config())
        tt = codec.decode(result.best_genotype, micro_instance)
        report = model.evaluate(tt, constraints, micro_instance.weights)
        assert report.weighted_fitness == result.best_fitness
        assert report.hard_violations == result.hard_violations
        assert report.soft_violations == result.soft_violations

    def test_matches_oracle_on_micro_instance(self):
        inst = micro_three_trains()
        constraints = model.derive_bounds(inst)
        best, _ = oracle.exhaustive_min(inst)
        hits = 0
        for seed in range(20):
            result = engine.run(
                inst, constraints, GaConfig(population_size=60, max_evaluations=50_000, seed=seed)
            )
            assert result.best_fitness >= best
            hits += result.best_fitness == best
        assert hits >= 18


class TestRunAnytime:
    """Each answer of `run_anytime` is a separate `run` to its limit."""

    def answers(self, instance, limits, **knobs):
        constraints = model.derive_bounds(instance)
        config = tiny_config(max_evaluations=max(limits), **knobs)
        together = engine.run_anytime(instance, constraints, config, limits)
        for limit, result in zip(limits, together):
            alone = engine.run(
                instance, constraints, dataclasses.replace(config, max_evaluations=limit)
            )
            assert run_answer(result) == run_answer(alone)
        return together

    def test_limit_equal_to_the_population_size(self):
        first, _ = self.answers(micro_unsat_connection(), (20, 500))
        assert (first.evaluations_used, first.generations) == (20, 0)

    @pytest.mark.parametrize("population,seed", [(30, 3), (40, 8)])
    def test_every_limit_of_the_first_generations(self, cs1, population, seed):
        # every prefix of six generations' offspring. At population 30, seed
        # 3 improves its best twice inside its fifth generation (5, 4, 3), so
        # a prefix's answer is not the generation's; at 40, seed 8 finds a
        # better offspring in its second generation and then one as good,
        # so only the first minimum of a prefix is its answer
        offspring = population - 1
        limits = tuple(range(population, population + 6 * offspring + 1))
        answers = self.answers(cs1, limits, population_size=population, seed=seed)
        inside = answers[2 * offspring + 5]
        assert (inside.evaluations_used, inside.generations) == (limits[2 * offspring + 5], 3)
        assert inside.terminated_by is Termination.EVAL_LIMIT

    def test_optimum_inside_a_truncated_generation(self, cs1):
        # step a run to the generation that holds its first optimum
        config = GaConfig(population_size=100, max_evaluations=5_000, seed=0)
        state = engine.init_state(cs1, model.derive_bounds(cs1), config)
        while state.best_fitness > 0:
            before = state.evaluations_used
            engine.step_generation(state)
        first_zero = int(np.flatnonzero(state.fitness[config.elite_count :] == 0)[0])
        found = before + first_zero + 1
        assert found < state.evaluations_used  # the optimum is not the last offspring

        missed, hit, end = self.answers(
            cs1, (found - 1, found, 5_000), population_size=100, seed=0
        )
        assert missed.terminated_by is Termination.EVAL_LIMIT
        assert (hit.terminated_by, hit.evaluations_used) == (Termination.OPTIMUM_FOUND, found)
        assert (end.terminated_by, end.evaluations_used) == (
            Termination.OPTIMUM_FOUND, state.evaluations_used
        )

    def test_limits_beyond_the_budget_rejected(self):
        inst = micro_unsat_connection()
        with pytest.raises(ConfigInvalid, match="exceeds"):
            engine.run_anytime(inst, model.derive_bounds(inst), tiny_config(), (500, 3000))
        with pytest.raises(ConfigInvalid, match="full population"):
            engine.run_anytime(inst, model.derive_bounds(inst), tiny_config(), (10, 500))
