"""Acceptance gate: every release criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The multi-run sweeps are seeded and the engine is
deterministic, so these results are stable across repetitions.
"""

import time

import numpy as np
import pytest

from perisched import cli, codec, engine, instances, model, oracle
from perisched.cli import ExperimentSpec, aggregate, detail_csv, run_experiment
from perisched.model import ConstraintKind, Timetable

from conftest import MICRO_BUILDERS, random_timetable


def report(criterion: str, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def bundled():
    return {
        "cs1": instances.load(instances.bundled_path("cs1")),
        "cs2": instances.load(instances.bundled_path("cs2")),
    }


def test_criterion_1_census_reproduction():
    cs1 = instances.build_cs1()
    cs1_constraints = model.derive_bounds(cs1)
    assert len(cs1_constraints) == 65
    assert sum(c.kind is ConstraintKind.CONNECTION for c in cs1_constraints) == 7

    cs2 = instances.generate_cs2_like(0)
    cs2_constraints = model.derive_bounds(cs2)
    assert len(cs2_constraints) == 452
    assert sum(c.kind is ConstraintKind.CONNECTION for c in cs2_constraints) == 14
    assert len(cs2.stations) == 26
    assert len(cs2.trains) == 48
    report(
        "1",
        "census: cs1 65 constraints / 7 connections; "
        "cs2-like 452 constraints / 14 connections / 26 stations / 48 trains",
    )


def test_criterion_2_feasibility_sweep(bundled):
    start = time.perf_counter()
    spec = ExperimentSpec(
        population_sizes=(300,),
        eval_limits=(30_000, 1_000_000, 5_000_000),
        runs=50,
        base_seed=1,
        workers=2,
    )
    rows = run_experiment(bundled["cs1"], spec)
    summary = {r.max_evals: r for r in aggregate(rows)}
    elapsed = time.perf_counter() - start

    assert summary[30_000].pct_feasible >= 95.0
    assert summary[1_000_000].pct_feasible_conn >= 85.0
    assert summary[5_000_000].pct_feasible_conn >= 95.0
    assert elapsed < 1800.0
    report(
        "2",
        f"cs1 sweep (50 runs/limit in {elapsed:.0f}s): "
        f"30K {summary[30_000].pct_feasible:.0f}% feasible, "
        f"1M {summary[1_000_000].pct_feasible_conn:.0f}% fully feasible, "
        f"5M {summary[5_000_000].pct_feasible_conn:.0f}% fully feasible",
    )


def test_criterion_3_oracle_optimality():
    lines = []
    for name in sorted(MICRO_BUILDERS):
        inst = MICRO_BUILDERS[name]()
        assert oracle.lattice_size(inst) <= 10**6
        best, _ = oracle.exhaustive_min(inst)
        constraints = model.derive_bounds(inst)
        matches = 0
        for seed in range(20):
            result = engine.run(
                inst,
                constraints,
                engine.GaConfig(max_evaluations=50_000, seed=seed),
            )
            assert result.best_fitness >= best, (name, seed)
            matches += result.best_fitness == best
        assert matches >= 18, (name, matches)
        lines.append(f"{name} {matches}/20 at optimum {best}")
    report("3", "; ".join(lines))


def test_criterion_4_checker_equivalence(bundled):
    for name, inst in bundled.items():
        constraints = model.derive_bounds(inst)
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            tt = random_timetable(inst, rng)
            ours = model.evaluate(tt, constraints, inst.weights)
            theirs = oracle.check_independent(tt, inst)
            assert ours.violations_by_type == theirs.violations_by_type, name
            assert ours.weighted_fitness == theirs.weighted_fitness, name

    micro = MICRO_BUILDERS["unsat_connection"]()
    events = micro.event_index.events
    assert micro.period == 12 and len(events) == 4
    constraints = model.derive_bounds(micro)
    grid = np.stack(
        np.meshgrid(*[np.arange(12)] * 4, indexing="ij"), axis=-1
    ).reshape(-1, 4)
    for combo in grid:
        tt = Timetable(12, dict(zip(events, (int(v) for v in combo))))
        ours = model.evaluate(tt, constraints, micro.weights)
        theirs = oracle.check_independent(tt, micro)
        assert ours.violations_by_type == theirs.violations_by_type
    report(
        "4",
        "evaluator and wrap-trial checker agree on 10000 random timetables "
        "per bundled instance and on all 20736 timetables of a T=12 micro",
    )


def test_criterion_5_structural_satisfaction(bundled):
    for name, inst in bundled.items():
        bounds = codec.gene_bounds(inst)
        constraints = model.derive_bounds(inst)
        rng = np.random.default_rng(202)
        for _ in range(10_000):
            g = codec.random_genotype(bounds, rng)
            rep = model.evaluate(codec.decode(g, inst), constraints, inst.weights)
            assert rep.violations_by_type[ConstraintKind.RUNNING] == 0, name
            assert rep.violations_by_type[ConstraintKind.DWELL] == 0, name
    report(
        "5",
        "10000 random in-bounds genotypes per bundled instance decode with "
        "zero running and dwell violations",
    )


def test_criterion_6_shift_invariance(bundled):
    for name, inst in bundled.items():
        constraints = model.derive_bounds(inst)
        rng = np.random.default_rng(303)
        for _ in range(1_000):
            tt = random_timetable(inst, rng)
            delta = int(rng.integers(-3 * inst.period, 3 * inst.period))
            before = model.evaluate(tt, constraints, inst.weights)
            shifted = model.shift_timetable(tt, delta)
            after = model.evaluate(shifted, constraints, inst.weights)
            assert before.violations_by_type == after.violations_by_type, name
    report("6", "violation vectors unchanged under 1000 random shifts per instance")


def test_criterion_7_determinism(bundled):
    def detail_without_timing(instance, spec):
        rows = run_experiment(instance, spec)
        return [
            ",".join(line.split(",")[:-1])
            for line in detail_csv(rows).splitlines()
        ]

    spec = ExperimentSpec(
        population_sizes=(50,),
        eval_limits=(5_000,),
        runs=6,
        base_seed=11,
    )
    outputs = [detail_without_timing(bundled["cs1"], spec) for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]
    report("7", "3 repetitions produced byte-identical detail CSVs (timing aside)")


def test_criterion_8_eval_rule_equivalence():
    checked = 0
    for period in (6, 12, 24):
        x = np.arange(period).repeat(period)
        y = np.tile(np.arange(period), period)
        raw = y - x
        d = raw % period
        for lo in range(-(period - 1), period):
            for hi in range(lo, min(lo + period - 1, period - 1) + 1):
                by_mod = (d - lo) % period <= hi - lo
                by_trial = (
                    ((lo <= raw) & (raw <= hi))
                    | ((lo <= raw - period) & (raw - period <= hi))
                    | ((lo <= raw + period) & (raw + period <= hi))
                )
                assert np.array_equal(by_mod, by_trial), (period, lo, hi)
                checked += by_mod.size
    report(
        "8",
        f"modulo rule equals wrap enumeration on all {checked} "
        "(window, time pair) combinations for T in {6, 12, 24}",
    )


def test_cs2_trend_average_violations_non_increasing(bundled):
    spec = ExperimentSpec(
        population_sizes=(600,),
        eval_limits=(50_000, 250_000, 1_000_000),
        runs=15,
        base_seed=1,
        workers=2,
    )
    rows = run_experiment(bundled["cs2"], spec)
    summary = aggregate(rows)
    hard = [r.avg_hard for r in summary]
    soft = [r.avg_soft for r in summary]
    assert hard == sorted(hard, reverse=True)
    assert soft == sorted(soft, reverse=True)
    report(
        "cs2-trend",
        "average violations non-increasing over 50K/250K/1M: "
        + "; ".join(f"{r.max_evals}: hard {r.avg_hard:.3f} soft {r.avg_soft:.3f}" for r in summary),
    )
