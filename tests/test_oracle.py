import dataclasses
import itertools

import numpy as np
import pytest

from perisched import codec, model, oracle
from perisched.errors import SpaceTooLarge
from perisched.model import Event, Timetable, Train, Trip

from conftest import (
    MICRO_BUILDERS,
    make_instance,
    micro_unsat_connection,
    random_timetable,
)


class TestLattice:
    def test_space_size_is_product_of_ranges(self):
        inst = make_instance(60, [Train("t", 3, (Trip("A", "B", 10, 12),))])
        assert oracle.lattice_size(inst) == 60 * 3


class TestExhaustiveMin:
    def test_space_cap_enforced(self, cs1):
        with pytest.raises(SpaceTooLarge) as info:
            oracle.exhaustive_min(cs1, space_cap=10**6)
        assert info.value.size > 10**6

    def test_no_pairwise_constraints_min_zero_lex_witness(self):
        inst = make_instance(
            12, [Train("t", 2, (Trip("A", "B", 3, 5, 1, 2), Trip("B", "C", 4, 5),))]
        )
        best, witness = oracle.exhaustive_min(inst)
        assert best == 0
        assert witness.genes == (0, 3, 1, 4)  # low end of every gene

    def test_unsatisfiable_connection_costs_one_connection_weight(self):
        inst = micro_unsat_connection()
        best, witness = oracle.exhaustive_min(inst)
        assert best == inst.weights.connection
        report = model.evaluate(
            codec.decode(witness, inst), model.derive_bounds(inst), inst.weights
        )
        assert report.weighted_fitness == best
        assert report.feasible
        assert report.soft_violations == 1

    def test_witness_is_lexicographically_smallest(self):
        inst = micro_unsat_connection()
        best, witness = oracle.exhaustive_min(inst)
        index = inst.event_index
        constraints = model.derive_bounds(inst)
        windows = zip(index.gene_lo.tolist(), index.gene_hi.tolist())
        axes = [range(lo, hi + 1) for lo, hi in windows]
        minimizers = [
            combo
            for combo in itertools.product(*axes)
            if model.evaluate(
                codec.decode(codec.Genotype(combo), inst), constraints, inst.weights
            ).weighted_fitness
            == best
        ]
        assert witness.genes == min(minimizers)


class TestIndependence:
    # (best, lexicographically smallest witness)
    PINNED = {
        "headway_connection": (0, (0, 3, 1, 3, 8, 5)),
        "mutual_transfers": (0, (0, 3, 1, 3, 0, 3, 1, 3)),
        "single_track": (0, (0, 3, 0, 3)),
        "three_trains": (0, (0, 3, 1, 3, 2, 3, 1, 3, 1, 3)),
        "unsat_connection": (1, (0, 3, 0, 3)),
    }

    def test_oracle_never_calls_the_evaluator(self, monkeypatch):
        reference = {}
        for name, build in MICRO_BUILDERS.items():
            inst = build()
            tt = random_timetable(inst, np.random.default_rng(31))
            ours = model.evaluate(tt, model.derive_bounds(inst), inst.weights)
            reference[name] = (inst, tt, ours.violations_by_type)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the main evaluator")

        for name in ("derive_bounds", "evaluate", "window_test"):
            monkeypatch.setattr(model, name, forbidden)
        oracle._checks.cache_clear()
        for name, (inst, tt, counts) in reference.items():
            best, witness = oracle.exhaustive_min(inst)
            assert (best, witness.genes) == self.PINNED[name]
            assert oracle.check_independent(tt, inst).violations_by_type == counts


class TestCheckIndependent:
    def test_agrees_on_random_timetables(self, micro_instance):
        constraints = model.derive_bounds(micro_instance)
        rng = np.random.default_rng(17)
        for _ in range(400):
            tt = random_timetable(micro_instance, rng)
            ours = model.evaluate(tt, constraints, micro_instance.weights)
            theirs = oracle.check_independent(tt, micro_instance)
            assert ours.violations_by_type == theirs.violations_by_type
            assert ours.weighted_fitness == theirs.weighted_fitness

    def test_agrees_on_all_zero_timetable(self, micro_instance):
        tt = Timetable(
            micro_instance.period,
            {e: 0 for e in micro_instance.event_index.events},
        )
        ours = model.evaluate(
            tt, model.derive_bounds(micro_instance), micro_instance.weights
        )
        theirs = oracle.check_independent(tt, micro_instance)
        assert ours.violations_by_type == theirs.violations_by_type
        assert ours.weighted_fitness == theirs.weighted_fitness
        assert {v.constraint for v in ours.violated} == {
            v.constraint for v in theirs.violated
        }

    def test_single_minute_perturbations_flip_identically(self, micro_instance):
        constraints = model.derive_bounds(micro_instance)
        rng = np.random.default_rng(23)
        events = micro_instance.event_index.events
        for _ in range(60):
            tt = random_timetable(micro_instance, rng)
            event = events[rng.integers(len(events))]
            bumped = dict(tt.times)
            bumped[event] = (bumped[event] + 1) % micro_instance.period
            tt2 = Timetable(micro_instance.period, bumped)
            for a, b in ((tt, tt2), (tt2, tt)):
                ours = model.evaluate(a, constraints, micro_instance.weights)
                theirs = oracle.check_independent(a, micro_instance)
                assert ours.violations_by_type == theirs.violations_by_type

    def test_connection_window_past_period_handled_alike(self):
        feeder = Train("f", 2, (Trip("A", "B", 10, 12),))
        onward = Train("g", 2, (Trip("B", "C", 10, 12),))
        inst = make_instance(
            60,
            [feeder, onward],
            connections=[model.ConnectionSpec("f", "g", "B", 55, 70)],
        )
        constraints = model.derive_bounds(inst)
        rng = np.random.default_rng(29)
        for _ in range(300):
            tt = random_timetable(inst, rng)
            ours = model.evaluate(tt, constraints, inst.weights)
            theirs = oracle.check_independent(tt, inst)
            assert ours.violations_by_type == theirs.violations_by_type

    def test_outsized_connection_window_handled_alike(self):
        feeder = Train("f", 2, (Trip("A", "B", 10, 12),))
        onward = Train("g", 2, (Trip("B", "C", 10, 12),))
        inst = make_instance(
            60,
            [feeder, onward],
            connections=[model.ConnectionSpec("f", "g", "B", 10**30 + 55, 10**30 + 70)],
        )
        constraints = model.derive_bounds(inst)
        rng = np.random.default_rng(29)
        for _ in range(100):
            tt = random_timetable(inst, rng)
            ours = model.evaluate(tt, constraints, inst.weights)
            theirs = oracle.check_independent(tt, inst)
            assert ours.violations_by_type == theirs.violations_by_type

    def test_instances_with_one_hash_keep_their_own_checks(self, cs1):
        # same period and stations, so the same hash, but other connections
        variant = dataclasses.replace(cs1, connections=cs1.connections[1:])
        assert hash(variant) == hash(cs1) and variant != cs1
        rng = np.random.default_rng(43)
        timetables = [random_timetable(cs1, rng) for _ in range(20)]
        expected = {}
        for inst in (cs1, variant):
            oracle._checks.cache_clear()
            expected[inst.connections] = [
                oracle.check_independent(tt, inst).violations_by_type for tt in timetables
            ]
        assert expected[cs1.connections] != expected[variant.connections]
        oracle._checks.cache_clear()
        for k, tt in enumerate(timetables):
            for inst in (cs1, variant):
                counts = oracle.check_independent(tt, inst).violations_by_type
                assert counts == expected[inst.connections][k]
