import hashlib
import pickle

import numpy as np
import pytest

from perisched import codec, instances, model
from perisched.errors import OutOfBoundsGene
from perisched.model import ConstraintKind, Event, EventKind, Train, Trip

from conftest import make_instance


def single_trip_instance():
    return make_instance(60, [Train("t", 3, (Trip("s0", "s1", 10, 12),))])


def two_trip_instance():
    return make_instance(
        60, [Train("t", 3, (Trip("s0", "s1", 8, 12, 2, 4), Trip("s1", "s2", 6, 9),))]
    )


class TestGeneBounds:
    def test_single_trip_layout(self):
        index = single_trip_instance().event_index
        assert list(zip(index.gene_lo.tolist(), index.gene_hi.tolist())) == [(0, 59), (10, 12)]

    def test_two_trips_give_four_genes(self):
        index = two_trip_instance().event_index
        assert list(zip(index.gene_lo.tolist(), index.gene_hi.tolist())) == [
            (0, 59),
            (8, 12),
            (2, 4),
            (6, 9),
        ]

    def test_length_is_twice_total_trips(self, cs1, cs2):
        for inst in (cs1, cs2):
            expected = sum(2 * len(t.route) for t in inst.trains)
            assert len(inst.event_index.gene_lo) == expected
        assert len(cs1.event_index.gene_lo) == 64

    def test_section_offsets(self, cs1):
        # every cs1 train has four trips: eight columns per section
        index = cs1.event_index
        assert index.section_offsets.tolist() == list(range(0, 64, 8))
        assert len(index.events) == len(index.gene_lo) == 64
        for col, event in enumerate(index.events):
            assert index.column[event] == col
            train = cs1.trains[col // 8]
            assert event.train == train.id
            if col % 8 == 0:
                assert event == Event.departure(train.id, train.route[0].from_station)

    def test_events_follow_each_journey(self, cs1, cs2, micro_instance):
        for inst in (cs1, cs2, micro_instance):
            expected = [
                event
                for train in inst.trains
                for trip in train.route
                for event in (
                    Event.departure(train.id, trip.from_station),
                    Event.arrival(train.id, trip.to_station),
                )
            ]
            events = inst.event_index.events
            assert list(events) == expected
            assert all(type(e) is Event and type(e.kind) is EventKind for e in events)

    def test_index_arrays_are_read_only(self, cs1):
        cs1.event_index  # built before pickling, as in a sweep's parent process
        for instance in (cs1, pickle.loads(pickle.dumps(cs1))):
            index = instance.event_index
            for array in (index.section_offsets, index.gene_lo, index.gene_hi):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1


class TestDecode:
    def test_simple_accumulation(self):
        tt = codec.decode(codec.Genotype((10, 11)), single_trip_instance())
        assert tt.of(Event.departure("t", "s0")) == 10
        assert tt.of(Event.arrival("t", "s1")) == 21

    def test_wraps_into_period(self):
        inst = make_instance(
            60,
            [Train("t", 3, (Trip("s0", "s1", 10, 10, 2, 2), Trip("s1", "s2", 8, 8),))],
        )
        tt = codec.decode(codec.Genotype((55, 10, 2, 8)), inst)
        assert tt.of(Event.departure("t", "s0")) == 55
        assert tt.of(Event.arrival("t", "s1")) == 5
        assert tt.of(Event.departure("t", "s1")) == 7
        assert tt.of(Event.arrival("t", "s2")) == 15

    def test_out_of_bounds_gene_rejected(self):
        with pytest.raises(OutOfBoundsGene, match=r"^gene 1 = 13 outside \[10, 12\]$"):
            codec.decode(codec.Genotype((10, 13)), single_trip_instance())
        with pytest.raises(OutOfBoundsGene, match=r"^gene 0 = -1 outside \[0, 59\]$"):
            codec.decode(codec.Genotype((-1, 11)), single_trip_instance())

    def test_wrong_length_rejected(self):
        for genes in ((10,), (10, 11, 3)):
            with pytest.raises(OutOfBoundsGene) as info:
                codec.decode(codec.Genotype(genes), single_trip_instance())
            assert str(info.value) == f"genotype has {len(genes)} genes, layout needs 2"

    @pytest.mark.parametrize("gene", [10**30, -(10**30), 2**63, -(2**63) - 1])
    def test_gene_beyond_int64_rejected(self, gene):
        with pytest.raises(OutOfBoundsGene) as info:
            codec.decode(codec.Genotype((10, gene)), single_trip_instance())
        assert str(info.value) == f"gene 1 = {gene} outside [10, 12]"

    @pytest.mark.parametrize("gene", [9.7, 10.0, "10", None, np.float64(10)])
    def test_non_integer_gene_rejected(self, cs1, gene):
        # never truncated (9.7 read as 9) or parsed ("10" read as 10)
        genes = list(cs1.event_index.gene_lo.tolist())
        genes[1] = gene
        with pytest.raises(OutOfBoundsGene) as info:
            codec.decode(codec.Genotype(tuple(genes)), cs1)
        assert str(info.value) == f"gene 1 = {gene!r} is not an integer"

    def test_first_non_integer_gene_is_named_beside_an_outsized_one(self):
        for genes, named in (((10, 2**70), None), ((9.7, 2**70), 0), ((10**30, "11"), 1)):
            with pytest.raises(OutOfBoundsGene) as info:
                codec.decode(codec.Genotype(genes), single_trip_instance())
            if named is None:
                assert str(info.value) == f"gene 1 = {2**70} outside [10, 12]"
            else:
                assert str(info.value) == f"gene {named} = {genes[named]!r} is not an integer"

    def test_bools_and_numpy_integers_read_as_integers(self):
        inst = single_trip_instance()
        expected = codec.decode(codec.Genotype((1, 11)), inst)
        for genes in ((True, 11), (np.int8(1), np.int64(11)), (np.uint64(1), 11)):
            assert codec.decode(codec.Genotype(genes), inst) == expected

    def test_structural_satisfaction_random_genotypes(self, micro_instance):
        bounds = codec.gene_bounds(micro_instance)
        constraints = model.derive_bounds(micro_instance)
        rng = np.random.default_rng(11)
        for _ in range(300):
            g = codec.random_genotype(bounds, rng)
            report = model.evaluate(
                codec.decode(g, micro_instance), constraints, micro_instance.weights
            )
            assert report.violations_by_type[ConstraintKind.RUNNING] == 0
            assert report.violations_by_type[ConstraintKind.DWELL] == 0

    def test_reencode_recovers_wrap_free_genotype(self, cs1):
        # when no event of a train wraps past the period boundary, the
        # genes can be read back off the decoded timetable
        bounds = codec.gene_bounds(cs1)
        rng = np.random.default_rng(3)
        recovered_any = False
        index = cs1.event_index
        starts = index.section_offsets.tolist()
        sections = list(zip(starts, [*starts[1:], len(index.events)]))
        for _ in range(200):
            g = codec.random_genotype(bounds, rng)
            tt = codec.decode(g, cs1)
            for start, end in sections:
                times = [tt.of(e) for e in index.events[start:end]]
                genes = g.genes[start:end]
                if any(b < a for a, b in zip(times, times[1:])):
                    continue  # wrapped somewhere; re-encoding is ambiguous
                recovered = [times[0]] + [
                    b - a for a, b in zip(times, times[1:])
                ]
                assert tuple(recovered) == genes
                recovered_any = True
        assert recovered_any


class TestRandomGenotype:
    def test_degenerate_bounds_give_unique_genotype(self):
        bounds = ((4, 7), (4, 7))
        g = codec.random_genotype(bounds, np.random.default_rng(0))
        assert g.genes == (4, 7)

    def test_same_seed_same_genotype(self, cs1):
        bounds = codec.gene_bounds(cs1)
        a = codec.random_genotype(bounds, np.random.default_rng(42))
        b = codec.random_genotype(bounds, np.random.default_rng(42))
        assert a == b

    @pytest.mark.parametrize("name,pin", [("cs1", "0c8fd6be1c504730"), ("cs2", "7e8692e14ab08be3")])
    def test_draws_are_pinned(self, name, pin):
        # the benchmark draws its cross-check timetables from this stream
        inst = instances.load(instances.bundled_path(name))
        bounds = codec.gene_bounds(inst)
        rng = np.random.default_rng(7)
        genes = np.array([codec.random_genotype(bounds, rng).genes for _ in range(64)])
        assert hashlib.sha256(genes.astype(np.int64).tobytes()).hexdigest()[:16] == pin

    def test_roughly_uniform_over_range(self):
        bounds = ((0,), (59,))
        rng = np.random.default_rng(1)
        counts = np.zeros(60, dtype=int)
        n = 12000
        for _ in range(n):
            counts[codec.random_genotype(bounds, rng).genes[0]] += 1
        expected = n / 60
        assert counts.min() > expected * 0.6
        assert counts.max() < expected * 1.4
