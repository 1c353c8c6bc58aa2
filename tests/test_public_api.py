"""The public surface: exported names resolve, removed names stay gone, and
the members `benchmarks/run.py` looks up or wraps still exist."""

import numpy as np
import pytest

import perisched
from perisched import cli, codec, engine, instances, model, oracle


@pytest.mark.parametrize("module", [perisched, codec, oracle, instances], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name, None) is not None, name


REMOVED = [
    (codec, "GeneBounds"),
    (codec, "accumulate_sections"),
    (model.EvaluationReport, "feasible_with_connections"),
    (model, "random_timetable"),
    (model, "check_period"),
    (engine.GaConfig, "validate"),
    (cli.ExperimentSpec, "validate"),
    (oracle, "lattice"),
]


@pytest.mark.parametrize("owner,name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(perisched, name) and name not in perisched.__all__
    assert name not in getattr(owner, "__all__", ())


@pytest.mark.parametrize(
    "name", ["crossover_rate", "mutation_rate_per_gene", "tournament_size", "elite_count"]
)
def test_removed_ga_config_arguments_are_refused(name):
    with pytest.raises(TypeError):
        engine.GaConfig(**{name: 1})


def test_removed_exhaustive_min_stride_is_refused(cs1):
    with pytest.raises(TypeError):
        oracle.exhaustive_min(cs1, stride=1)
    with pytest.raises(TypeError):  # the old second positional, now keyword-only space_cap
        oracle.exhaustive_min(cs1, 1)


# (owner, attribute) pairs that the benchmark wraps through `owner.__dict__`
BENCHMARK_WRAPS = [
    (instances, "load"),
    (instances, "loads"),
    (model, "derive_bounds"),
    (engine.CompiledProblem, "__init__"),
    (engine.CompiledProblem, "decode_batch"),
    (engine.CompiledProblem, "fitness_batch"),
    (engine, "init_state"),
    (engine, "step_generation"),
    (engine, "run"),
    (codec, "decode"),
    (model, "evaluate"),
    (oracle, "check_independent"),
    (cli, "run_experiment"),
]


@pytest.mark.parametrize(
    "owner,name", BENCHMARK_WRAPS, ids=[f"{o.__name__}.{n}" for o, n in BENCHMARK_WRAPS]
)
def test_benchmark_wraps_resolve(owner, name):
    assert callable(owner.__dict__[name])


def test_benchmark_genotype_stream_resolves(cs1):
    lo, hi = codec.gene_bounds(cs1)
    assert lo is cs1.event_index.gene_lo and hi is cs1.event_index.gene_hi
    genotype = codec.random_genotype((lo, hi), np.random.default_rng(0))
    assert isinstance(genotype, codec.Genotype) and len(genotype) == 64
    assert all(type(g) is int for g in genotype.genes)


def test_benchmark_reads_full_rows_off_a_step(cs1):
    # the benchmark counts offspring past `config.elite_count` and decodes
    # the best and sampled population rows as whole genotypes
    config = engine.GaConfig(population_size=20, max_evaluations=100, seed=0)
    state = engine.init_state(cs1, model.derive_bounds(cs1), config)
    engine.step_generation(state)
    assert state.config.elite_count == 1
    length = state.problem.length
    assert state.population.shape == (20, length) and state.best_genes.shape == (length,)
    codec.decode(codec.Genotype(tuple(int(g) for g in state.best_genes)), cs1)
