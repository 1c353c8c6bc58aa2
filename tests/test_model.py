import dataclasses
import hashlib
import json
import pickle
import re

import numpy as np
import pytest

from perisched import codec, instances, model, oracle
from perisched.errors import (
    BoundInversion,
    MalformedInstance,
    MissingEvent,
    ValidationError,
)
from perisched.model import (
    ConnectionSpec,
    ConstraintKind,
    Event,
    Instance,
    PeriodicConstraint,
    Segment,
    Timetable,
    Train,
    Trip,
    WeightConfig,
)

from conftest import make_instance, random_timetable


def constraint(lo, hi, kind=ConstraintKind.CONNECTION):
    return PeriodicConstraint(
        kind, Event.arrival("i", "s"), Event.departure("j", "s"), lo, hi
    )


def timetable(period, tx, ty):
    return Timetable(
        period,
        {Event.arrival("i", "s"): tx, Event.departure("j", "s"): ty},
    )


def verdict(c, tt):
    """``(violated, diff)`` of one constraint, through `model.evaluate`."""
    report = model.evaluate(tt, [c], WeightConfig())
    if report.violated:
        return True, report.violated[0].diff
    return False, None


class TestEvalConstraint:
    def test_difference_at_lower_bound(self):
        assert verdict(constraint(3, 57), timetable(60, 0, 3)) == (False, None)

    def test_wrap_across_period_boundary(self):
        assert verdict(constraint(5, 15), timetable(60, 55, 5)) == (False, None)

    def test_outside_window(self):
        assert verdict(constraint(5, 15), timetable(60, 0, 20)) == (True, 20)
        assert verdict(constraint(5, 15), timetable(60, 30, 20)) == (True, 50)

    def test_missing_event(self):
        tt = Timetable(60, {Event.arrival("i", "s"): 0})
        with pytest.raises(MissingEvent):
            model.evaluate(tt, [constraint(0, 5)], WeightConfig())

    def test_missing_events_are_named(self):
        # the constraint runs from i's arrival (earlier) to j's departure (later)
        c = constraint(0, 5)
        cases = [
            ({c.earlier: 0}, "departure of train j"),
            ({c.later: 0}, "arrival of train i"),
            ({}, "departure of train j"),  # the later event is looked up first
        ]
        for times, named in cases:
            with pytest.raises(MissingEvent, match=f"^timetable has no {named} at station s$"):
                model.evaluate(Timetable(60, times), [c], WeightConfig())

    def test_negative_lower_bound(self):
        # window [-4, 4] mod 12 means "within 4 minutes either way"
        c = constraint(-4, 4)
        assert verdict(c, timetable(12, 10, 8)) == (False, None)
        assert verdict(c, timetable(12, 10, 2)) == (False, None)
        assert verdict(c, timetable(12, 10, 4)) == (True, 6)

    def test_mod_rule_matches_wrap_enumeration_exhaustively(self):
        # the evaluator's modulo rule against the oracle's wrap trial, over
        # all windows and time pairs
        for period in (6, 12, 24):
            x = np.arange(period).repeat(period)
            y = np.tile(np.arange(period), period)
            for lo in range(-(period - 1), period):
                for hi in range(lo, min(lo + period - 1, period - 1) + 1):
                    violated = model.window_test(y - x, lo, hi - lo, period)
                    held = oracle._wrap_trial(y - x, lo, hi, period)
                    assert np.array_equal(~violated, held), (period, lo, hi)

    @pytest.mark.parametrize("period", [2, 60, model.INT_CAP - 1])
    def test_rule_on_int64_arrays_is_python_modulo(self, period):
        # the rule's floor-division residue, on int64 arrays and on ints,
        # against Python's `%` on ints, for huge and negative differences
        def spread(lo, hi):  # all of a short range, else its ends and middle
            return range(lo, hi + 1) if hi - lo < 200 else sorted({lo, lo + 1, (lo + hi) // 2, hi - 1, hi})

        raw = [-(2**40), 1 - 2**40, -period - 1, -period, -1, 0, 1, period - 1, period, period + 1]
        raw += [2**40 - 1, 2**40] + np.random.default_rng(period).integers(-(2**40), 2**40, 20).tolist()
        los, widths = spread(1 - period, period - 1), spread(0, period - 1)
        grid = np.meshgrid(np.array(raw, dtype=np.int64), los, widths, indexing="ij")
        expected = [[[(r - lo) % period > w for w in widths] for lo in los] for r in raw]
        assert model.window_test(*grid, period).tolist() == expected
        # the in-place form: the residue overwrites `raw`, the quotient `scratch`
        raw_grid, lo_grid, width_grid = grid
        scratch, out = np.empty_like(raw_grid), np.empty(raw_grid.shape, dtype=bool)
        result = model.window_test(raw_grid, lo_grid, width_grid, period, scratch=scratch, out=out)
        assert result is out and out.tolist() == expected
        scalar = [[[model.window_test(r, lo, w, period) for w in widths] for lo in los] for r in raw]
        assert scalar == expected


class TestEvaluate:
    def test_all_satisfied(self, cs1):
        from perisched.instances import cs1_reference_genotype

        tt = codec.decode(cs1_reference_genotype(), cs1)
        report = model.evaluate(tt, model.derive_bounds(cs1), cs1.weights)
        assert report.weighted_fitness == 0
        assert all(v == 0 for v in report.violations_by_type.values())
        assert report.feasible and report.soft_violations == 0

    def test_weighted_sum_arithmetic(self):
        tt = Timetable(
            60,
            {
                Event.departure("a", "s"): 0,
                Event.departure("b", "s"): 1,
                Event.departure("c", "s"): 2,
            },
        )
        make = lambda kind, x, y: PeriodicConstraint(
            kind, Event.departure(x, "s"), Event.departure(y, "s"), 30, 40
        )
        constraints = [
            make(ConstraintKind.HEADWAY, "a", "b"),
            make(ConstraintKind.HEADWAY, "b", "c"),
            make(ConstraintKind.CONNECTION, "a", "b"),
            make(ConstraintKind.CONNECTION, "b", "c"),
            make(ConstraintKind.CONNECTION, "a", "c"),
        ]
        report = model.evaluate(tt, constraints, WeightConfig(headway=100, connection=1))
        assert report.violations_by_type[ConstraintKind.HEADWAY] == 2
        assert report.violations_by_type[ConstraintKind.CONNECTION] == 3
        assert report.weighted_fitness == 203
        assert isinstance(report.weighted_fitness, int)

    def test_monotone_in_weights(self, micro_instance):
        import dataclasses

        rng = np.random.default_rng(5)
        constraints = model.derive_bounds(micro_instance)
        tt = random_timetable(micro_instance, rng)
        base = model.evaluate(tt, constraints, micro_instance.weights).weighted_fitness
        for field in ("running", "dwell", "headway", "single_track", "connection"):
            heavier = dataclasses.replace(
                micro_instance.weights,
                **{field: getattr(micro_instance.weights, field) + 50},
            )
            assert model.evaluate(tt, constraints, heavier).weighted_fitness >= base

    def test_violation_records_carry_diff_and_q(self):
        c = constraint(5, 15)
        report = model.evaluate(timetable(60, 0, 20), [c], WeightConfig())
        assert report.violated == (model.Violation(c, 20),)


class TestShiftTimetable:
    def test_zero_and_full_period_shift_are_identity(self, micro_instance):
        tt = random_timetable(micro_instance, np.random.default_rng(0))
        T = micro_instance.period
        assert model.shift_timetable(tt, 0) == tt
        assert model.shift_timetable(tt, T) == tt
        assert model.shift_timetable(tt, 7).period == T

    def test_shift_preserves_violations(self, micro_instance):
        T = micro_instance.period
        constraints = model.derive_bounds(micro_instance)
        rng = np.random.default_rng(1)
        for _ in range(50):
            tt = random_timetable(micro_instance, rng)
            delta = int(rng.integers(-2 * T, 2 * T))
            before = model.evaluate(tt, constraints, micro_instance.weights)
            after = model.evaluate(
                model.shift_timetable(tt, delta), constraints, micro_instance.weights
            )
            assert before.violations_by_type == after.violations_by_type


class TestExpandPeriods:
    def test_clock_rendering_over_periods(self):
        from perisched.cli import clock_str

        tt = Timetable(60, {Event.departure("tgv", "origin"): 46})
        epoch = 8 * 60
        entries = model.expand_periods(tt, 2)
        rendered = [clock_str(epoch + t) for t, _ in entries]
        assert rendered == ["8:46", "9:46"]

    def test_single_period_is_canonical_pattern(self, micro_instance):
        tt = random_timetable(micro_instance, np.random.default_rng(2))
        entries = model.expand_periods(tt, 1)
        assert sorted(t for t, _ in entries) == sorted(tt.times.values())
        assert len(entries) == len(tt.times)

    def test_three_periods_of_event_at_zero(self):
        tt = Timetable(60, {Event.arrival("x", "s"): 0})
        entries = model.expand_periods(tt, 3)
        assert [t for t, _ in entries] == [0, 60, 120]

    def test_repeats_at_the_timetables_period(self):
        tt = Timetable(12, {Event.arrival("x", "s"): 5})
        assert [t for t, _ in model.expand_periods(tt, 3)] == [5, 17, 29]

    def test_sorted_by_absolute_time(self, cs1):
        tt = random_timetable(cs1, np.random.default_rng(3))
        times = [t for t, _ in model.expand_periods(tt, 4)]
        assert times == sorted(times)

    def test_rejects_nonpositive_repetitions(self):
        with pytest.raises(ValueError):
            model.expand_periods(Timetable(60, {}), 0)


class TestDeriveBounds:
    def test_census_cs1(self, cs1):
        constraints = model.derive_bounds(cs1)
        assert len(constraints) == 65

    def test_single_trip_instance_has_one_constraint(self):
        inst = make_instance(60, [Train("solo", 3, (Trip("A", "B", 10, 12),))])
        constraints = model.derive_bounds(inst)
        assert len(constraints) == 1
        assert constraints[0].kind is ConstraintKind.RUNNING
        assert (constraints[0].lo, constraints[0].hi) == (10, 12)

    def test_headway_bounds_from_running_and_headway_times(self):
        # shared directed trip, running floors 10 and 12, headways 3 and 4
        fast = Train("fast", 3, (Trip("s", "t", 10, 14),))
        slow = Train("slow", 4, (Trip("s", "t", 12, 14),))
        inst = make_instance(60, [fast, slow])
        headways = {
            (c.later.train, c.earlier.train): (c.lo, c.hi)
            for c in model.derive_bounds(inst)
            if c.kind is ConstraintKind.HEADWAY
        }
        assert headways[("fast", "slow")] == (abs(10 - 12) + 3, 60 - 4)  # (5, 56)
        assert headways[("slow", "fast")] == (abs(12 - 10) + 4, 60 - 3)

    def test_single_track_bounds_use_minimum_running_floor(self):
        a = Train("a", 2, (Trip("s", "t", 9, 11),))
        b = Train("b", 3, (Trip("t", "s", 7, 8),))
        inst = make_instance(
            60, [a, b], segments=[Segment("s", "t", single_track=True)]
        )
        singles = {
            (c.later.train, c.earlier.train): (c.lo, c.hi)
            for c in model.derive_bounds(inst)
            if c.kind is ConstraintKind.SINGLE_TRACK
        }
        assert singles[("a", "b")] == (2 * 7 + 2, 60 - 3)
        assert singles[("b", "a")] == (2 * 7 + 3, 60 - 2)
        # events: opposing arrival before own departure, at the entry station
        for c in model.derive_bounds(inst):
            if c.kind is ConstraintKind.SINGLE_TRACK and c.later.train == "a":
                assert c.later == Event.departure("a", "s")
                assert c.earlier == Event.arrival("b", "s")

    def test_connection_window_reaching_past_period_is_shifted(self):
        feeder = Train("f", 2, (Trip("A", "B", 10, 12),))
        onward = Train("g", 2, (Trip("B", "C", 10, 12),))
        inst = make_instance(
            60,
            [feeder, onward],
            connections=[ConnectionSpec("f", "g", "B", 55, 70)],
        )
        conn = [
            c
            for c in model.derive_bounds(inst)
            if c.kind is ConstraintKind.CONNECTION
        ]
        assert (conn[0].lo, conn[0].hi) == (-5, 10)
        # same satisfied set as the original window
        tt = Timetable(60, {Event.arrival("f", "B"): 0, Event.departure("g", "C"): 0,
                            Event.departure("f", "A"): 0, Event.arrival("g", "C"): 0,
                            Event.departure("g", "B"): 58})
        assert verdict(conn[0], tt) == (False, None)  # 58 == -2 mod 60
        late = Timetable(60, {**tt.times, Event.departure("g", "B"): 11})
        assert verdict(conn[0], late) == (True, 11)

    def test_a_window_spanning_the_period_cannot_be_built(self):
        train = Train("w", 2, (Trip("A", "B", 5, 6, 0, 60), Trip("B", "C", 5, 6)))
        with pytest.raises(ValidationError, match=r"dwell window \[0, 60\] invalid for period 60"):
            make_instance(60, [train])

    def test_inverted_bounds_raise(self):
        # tiny period makes the headway floor exceed its ceiling
        a = Train("a", 5, (Trip("s", "t", 1, 2),))
        b = Train("b", 5, (Trip("s", "t", 1, 2),))
        inst = make_instance(8, [a, b])
        with pytest.raises(BoundInversion):
            model.derive_bounds(inst)

    def test_deterministic_content_and_ordering(self, cs1):
        first = model.derive_bounds(cs1)
        second = model.derive_bounds(cs1)
        assert first == second
        kinds = [c.kind for c in first]
        order = {k: i for i, k in enumerate(ConstraintKind)}
        assert kinds == sorted(kinds, key=lambda k: order[k])
        # within a kind, ordered by train id
        running_trains = [c.later.train for c in first if c.kind is ConstraintKind.RUNNING]
        assert running_trains == sorted(running_trains)


def corridor_network() -> Instance:
    """Nine lines run both ways over overlapping stretches of one
    seven-station corridor, every third segment single-track: many trains
    share each leg (340 headway and 164 single-track constraints), and ids
    sort in another order than the trains are listed."""
    stations = [f"C{k}" for k in range(7)]
    segments = [
        Segment(a, b, single_track=k % 3 == 2)
        for k, (a, b) in enumerate(zip(stations, stations[1:]))
    ]
    trains = []
    for line in range(9):
        path = stations[line % 3 : line % 3 + 4 + line % 2]
        for direction, stops in (("a", path), ("b", path[::-1])):
            trips = []
            for k, (x, y) in enumerate(zip(stops, stops[1:])):
                lo = 4 + (line + k) % 3
                dwell = (1, 2 + line % 2) if k < len(stops) - 2 else (None, None)
                trips.append(Trip(x, y, lo, lo + 2, *dwell))
            trains.append(Train(f"T{7 * line % 9}{direction}", 2 + line % 3, tuple(trips)))
    connections = (ConnectionSpec("T0a", "T7b", "C3", 2, 9), ConnectionSpec("T5b", "T1a", "C2", 3, 12))
    return Instance(60, tuple(stations), tuple(segments), tuple(trains), connections)


def derivation_digest(instance: Instance) -> tuple[int, str]:
    rows = [(c.kind.value, c.earlier, c.later, c.lo, c.hi) for c in model.derive_bounds(instance)]
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def renamed(instance: Instance, tag: str) -> Instance:
    """`instance` with `tag` put before every station and train id."""
    def trip(t):
        return dataclasses.replace(t, from_station=tag + t.from_station, to_station=tag + t.to_station)

    return dataclasses.replace(
        instance,
        stations=tuple(tag + s for s in instance.stations),
        segments=tuple(
            Segment(tag + s.from_station, tag + s.to_station, s.single_track)
            for s in instance.segments
        ),
        trains=tuple(
            Train(tag + t.id, t.basic_headway, tuple(map(trip, t.route)))
            for t in instance.trains
        ),
        connections=tuple(
            dataclasses.replace(
                c,
                feeder_train=tag + c.feeder_train,
                onward_train=tag + c.onward_train,
                station=tag + c.station,
            )
            for c in instance.connections
        ),
    )


def disjoint_copies(instance: Instance, k: int) -> Instance:
    """k copies of `instance` side by side, copy c tagged ``c<c>:``."""
    copies = [renamed(instance, f"c{c}:") for c in range(k)]
    return dataclasses.replace(
        instance,
        **{
            part: tuple(x for copy in copies for x in getattr(copy, part))
            for part in ("stations", "segments", "trains", "connections")
        },
    )


# (network, constraint count, sha256 of `derivation_digest`'s rows), computed
# with the derivation that tried every ordered pair of trains
DERIVATION_PINS = {
    "cs1": (instances.build_cs1, 65,
            "c8121db059a0c91100360d28478dac114d1d4fac614a5c414a9694f4761aed42"),
    "cs2": (lambda: instances.load(instances.bundled_path("cs2")), 452,
            "e4cb7b7124e39c1592552bffd538afd1f81206194888bfb5aa7f76fcc4844473"),
    "cs2-like-0": (lambda: instances.generate_cs2_like(0), 452,
                   "e4cb7b7124e39c1592552bffd538afd1f81206194888bfb5aa7f76fcc4844473"),
    "cs2-like-1": (lambda: instances.generate_cs2_like(1), 452,
                   "ccb067eaa09ed5a81ad66463b7461248466e55d9b5a6b8c8b48606e280db0430"),
    "cs2-like-2": (lambda: instances.generate_cs2_like(2), 452,
                   "8050b4a3fff13bf45195dd7e023cfba72ca765116c9cefdc45ca971b7df6f3f5"),
    "corridor": (corridor_network, 612,
                 "147b69e569bad7dbe2418160b4572d14852f6ca280633b969d862088dd9f03c1"),
}


class TestDerivationPins:
    """`derive_bounds` output, order included, is pinned."""

    @pytest.mark.parametrize("name", DERIVATION_PINS)
    def test_derivation_is_pinned(self, name):
        build, count, digest = DERIVATION_PINS[name]
        assert derivation_digest(build()) == (count, digest)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_disjoint_copies_scale_linearly(self, cs1, k):
        original = model.derive_bounds(cs1)
        union = model.derive_bounds(disjoint_copies(cs1, k))
        assert len(union) == k * len(original)
        for c in range(k):
            tag = f"c{c}:"
            mine = [x for x in union if x.later.train.startswith(tag)]
            assert all(x.earlier.train.startswith(tag) for x in mine)
            expected = [
                dataclasses.replace(
                    x,
                    earlier=x.earlier._replace(train=tag + x.earlier.train, station=tag + x.earlier.station),
                    later=x.later._replace(train=tag + x.later.train, station=tag + x.later.station),
                )
                for x in original
            ]
            assert mine == expected


def timed_instance(
    period=60, basic_headway=2, running_lo=5, running_hi=6,
    dwell_after_lo=1, dwell_after_hi=2, conn_lo=0, conn_hi=5,
):
    """Two trains and a transfer, with every time field settable."""
    feeder = Train(
        "f",
        basic_headway,
        (Trip("A", "B", running_lo, running_hi, dwell_after_lo, dwell_after_hi), Trip("B", "C", 5, 6)),
    )
    onward = Train("g", 2, (Trip("B", "C", 5, 6),))
    return make_instance(
        period, [feeder, onward], connections=[ConnectionSpec("f", "g", "B", conn_lo, conn_hi)]
    )


class TestValidation:
    def test_valid_instances_pass(self, micro_instance):
        model.validate_instance(micro_instance)
        model.validate_instance(timed_instance())

    def test_empty_trains_rejected(self):
        with pytest.raises(ValidationError, match="no trains"):
            Instance(60, ("A",), (), (), ())

    def test_period_too_small(self):
        with pytest.raises(ValidationError, match="period"):
            make_instance(1, [Train("t", 1, (Trip("A", "B", 1, 1),))])

    def test_replace_is_checked(self, cs1):
        with pytest.raises(ValidationError, match=r"period must be in \[2, 2\*\*31\), got 1"):
            dataclasses.replace(cs1, period=1)

    def test_unpickling_does_not_check_again(self, cs2, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "validate_instance", calls.append)
        assert pickle.loads(pickle.dumps(cs2)) == cs2
        assert calls == []
        copy = dataclasses.replace(cs2)
        assert calls == [copy]  # the patched check does see a build

    @pytest.mark.parametrize("value", [60.0, 6.5, True])
    @pytest.mark.parametrize(
        "field,named",
        [
            ("period", "period"),
            ("basic_headway", "basic_headway"),
            ("running_lo", "running window"),
            ("running_hi", "running window"),
            ("dwell_after_lo", "dwell window"),
            ("dwell_after_hi", "dwell window"),
            ("conn_lo", "connection f->g at B: window"),
            ("conn_hi", "connection f->g at B: window"),
        ],
    )
    def test_times_must_be_ints(self, field, named, value):
        # a float time once reached the int32 kernel and failed there
        with pytest.raises(ValidationError, match="must be (an integer|integers)") as refused:
            timed_instance(**{field: value})
        assert named in str(refused.value) and repr(value) in str(refused.value)

    @pytest.mark.parametrize("kind", [k.value for k in ConstraintKind])
    def test_weights_must_not_be_bools(self, kind):
        with pytest.raises(ValidationError, match=f"weight for {kind} must be a finite"):
            make_instance(
                60, [Train("t", 2, (Trip("A", "B", 5, 6),))], weights=WeightConfig(**{kind: True})
            )

    def test_inverted_running_window_names_trip(self):
        with pytest.raises(ValidationError, match="trip 0"):
            make_instance(60, [Train("t", 2, (Trip("A", "B", 9, 7),))])

    def test_broken_chain(self):
        with pytest.raises(ValidationError, match="breaks"):
            make_instance(
                60,
                [Train("t", 2, (Trip("A", "B", 5, 6, 1, 2), Trip("C", "D", 5, 6)))],
            )

    def test_missing_intermediate_dwell(self):
        with pytest.raises(ValidationError, match="dwell"):
            make_instance(60, [Train("t", 2, (Trip("A", "B", 5, 6), Trip("B", "C", 5, 6)))])

    def test_dwell_on_final_trip(self):
        with pytest.raises(ValidationError, match="final"):
            make_instance(60, [Train("t", 2, (Trip("A", "B", 5, 6, 1, 2),))])

    def test_duplicate_train_ids(self):
        t = Train("t", 2, (Trip("A", "B", 5, 6),))
        with pytest.raises(ValidationError, match="duplicate"):
            make_instance(60, [t, t])

    def test_connection_station_not_on_route(self):
        trains = [
            Train("f", 2, (Trip("A", "B", 5, 6),)),
            Train("g", 2, (Trip("B", "C", 5, 6),)),
        ]
        with pytest.raises(MalformedInstance, match="never arrives"):
            make_instance(60, trains, connections=[ConnectionSpec("f", "g", "C", 0, 5)])

    def test_missing_connection_target_is_malformed(self):
        train = Train("t", 2, (Trip("A", "B", 5, 6),))
        with pytest.raises(MalformedInstance, match="'ghost'"):
            make_instance(60, [train], connections=[ConnectionSpec("t", "ghost", "B", 0, 5)])

    def test_station_visited_twice_in_same_role(self):
        route = (Trip("A", "B", 5, 6, 1, 2), Trip("B", "A", 5, 6, 1, 2), Trip("A", "B", 5, 6))
        with pytest.raises(ValidationError, match="twice"):
            make_instance(60, [Train("t", 2, route)])

    def test_soft_weight_must_stay_below_hard(self):
        with pytest.raises(ValidationError, match="exceed"):
            make_instance(
                60,
                [Train("t", 2, (Trip("A", "B", 5, 6),))],
                weights=WeightConfig(headway=1, connection=5),
            )

    @pytest.mark.parametrize("bad", [-1, float("nan"), float("inf")])
    def test_weights_must_be_finite_nonnegative(self, bad):
        with pytest.raises(ValidationError, match="weight"):
            make_instance(
                60,
                [Train("t", 2, (Trip("A", "B", 5, 6),))],
                weights=WeightConfig(running=bad),
            )

    def test_period_at_int_cap_rejected(self):
        train = Train("t", 1, (Trip("A", "B", 1, 1),))
        make_instance(model.INT_CAP - 1, [train])
        with pytest.raises(ValidationError, match=r"period must be in \[2, 2\*\*31\)"):
            make_instance(model.INT_CAP, [train])

    def test_integer_weight_at_int_cap_rejected(self):
        def with_headway(w):
            return make_instance(
                60,
                [Train("t", 2, (Trip("A", "B", 5, 6),))],
                weights=WeightConfig(headway=w),
            )

        with_headway(model.INT_CAP - 1)
        with pytest.raises(ValidationError, match="weight for headway must be below"):
            with_headway(model.INT_CAP)

    def test_duplicate_segment_pair(self):
        with pytest.raises(ValidationError, match="segment"):
            make_instance(
                60,
                [Train("t", 2, (Trip("A", "B", 5, 6),))],
                segments=[Segment("A", "B"), Segment("B", "A")],
            )

    def test_timetable_time_out_of_range(self):
        with pytest.raises(ValidationError):
            Timetable(60, {Event.arrival("t", "A"): 60})

    @pytest.mark.parametrize("time", [5.5, True, np.int64(5)], ids=["float", "bool", "int64"])
    def test_timetable_time_must_be_an_int(self, time):
        # the bad time sits on the second event, so the message names it
        times = {Event.departure("t", "A"): 0, Event.arrival("t", "B"): time}
        expected = f"time {time!r} for arrival of t at B must be an integer in [0, 60)"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            Timetable(60, times)
