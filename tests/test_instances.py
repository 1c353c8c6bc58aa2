import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from perisched import codec, instances, model
from perisched.errors import (
    IoError,
    MissingEvent,
    ParseError,
    ValidationError,
)
from perisched.model import ConstraintKind, Event, Timetable

from conftest import random_timetable


def census(instance):
    return Counter(c.kind for c in model.derive_bounds(instance))


class TestBuildCs1:
    def test_published_counts(self, cs1):
        counts = census(cs1)
        assert sum(counts.values()) == 65
        assert counts[ConstraintKind.CONNECTION] == 7
        assert len(cs1.stations) == 10
        assert len(cs1.trains) == 8
        assert all(len(t.route) == 4 for t in cs1.trains)

    def test_routes_chain_over_topology(self, cs1):
        declared = {s.pair() for s in cs1.segments}
        for train in cs1.trains:
            for trip in train.route:
                pair = tuple(sorted((trip.from_station, trip.to_station)))
                assert pair in declared

    def test_reference_solution_is_perfect(self, cs1):
        tt = codec.decode(instances.cs1_reference_genotype(), cs1)
        report = model.evaluate(tt, model.derive_bounds(cs1), cs1.weights)
        assert report.weighted_fitness == 0


class TestGenerateCs2Like:
    def test_published_shape_for_several_seeds(self):
        for seed in (0, 1, 9):
            inst = instances.generate_cs2_like(seed)
            counts = census(inst)
            assert len(inst.stations) == 26
            assert len(inst.trains) == 48
            assert len(inst.connections) == 14
            assert sum(counts.values()) == 452
            assert counts[ConstraintKind.HEADWAY] > 0
            assert counts[ConstraintKind.SINGLE_TRACK] > 0

    def test_deterministic_per_seed(self):
        assert instances.generate_cs2_like(3) == instances.generate_cs2_like(3)
        assert instances.generate_cs2_like(3) != instances.generate_cs2_like(4)

    def test_seeds_0_to_11_are_pinned(self):
        # sha256 of the saved documents of seeds 0..11 in order: every draw
        # of the route walks and bound sampling feeds into one of them
        digest = hashlib.sha256()
        for seed in range(12):
            digest.update(instances.dumps(instances.generate_cs2_like(seed)).encode())
        assert digest.hexdigest()[:16] == "5c6fb8fb98350c1f"

    def test_marked_synthetic_and_valid(self):
        inst = instances.generate_cs2_like(2)
        assert inst.meta.synthetic


class TestRoundTrip:
    def test_bundled_files_round_trip(self, tmp_path):
        for name in instances.BUILTIN_NAMES:
            inst = instances.load(instances.bundled_path(name))
            out = tmp_path / f"{name}.json"
            instances.save(inst, out)
            assert instances.load(out) == inst
            assert out.read_text() == instances.bundled_path(name).read_text()

    def test_bundled_cs1_matches_builder(self, cs1):
        assert instances.load(instances.bundled_path("cs1")) == cs1

    def test_bundled_cs2_matches_generator(self, cs2):
        assert instances.load(instances.bundled_path("cs2")) == cs2

    def test_micro_instances_round_trip(self, micro_instance, tmp_path):
        path = tmp_path / "micro.json"
        instances.save(micro_instance, path)
        assert instances.load(path) == micro_instance


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            instances.load(tmp_path / "nope.json")

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"period": 60,\n  "stations": [}')
        with pytest.raises(ParseError, match="line 2"):
            instances.load(path)

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="frequency"):
            instances.loads('{"period": 60, "stations": [], "trains": [], "frequency": 4}')

    def test_unknown_trip_key_named(self, cs1, tmp_path):
        doc = json.loads(instances.dumps(cs1))
        doc["trains"][0]["route"][0]["speed"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="speed"):
            instances.load(path)

    def test_empty_trains_rejected(self):
        with pytest.raises(ValidationError, match="no trains"):
            instances.loads('{"period": 60, "stations": ["A"], "trains": []}')

    def test_inverted_running_window_names_trip(self, cs1, tmp_path):
        doc = json.loads(instances.dumps(cs1))
        doc["trains"][2]["route"][1]["running"] = [9, 7]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="trip 1"):
            instances.load(path)

    def test_non_integer_time_rejected(self):
        text = (
            '{"period": 60, "stations": ["A", "B"], "trains": '
            '[{"id": "t", "basic_headway": 2, "route": '
            '[{"from": "A", "to": "B", "running": [5, "x"]}]}]}'
        )
        with pytest.raises(ValidationError, match="running"):
            instances.loads(text)

    @pytest.mark.parametrize("trip", [1, 3])  # intermediate, then final trip
    def test_null_dwell_window_rejected_by_name(self, cs1, trip):
        doc = json.loads(instances.dumps(cs1))
        assert doc["trains"][0]["id"] == "L1a" and len(doc["trains"][0]["route"]) == 4
        doc["trains"][0]["route"][trip]["dwell_after"] = None
        with pytest.raises(
            ValidationError,
            match=rf"^trip {trip} of train L1a dwell_after must be a pair of integers, got None$",
        ):
            instances.loads(json.dumps(doc))

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_non_boolean_synthetic_flag_rejected(self, cs1, value):
        doc = json.loads(instances.dumps(cs1))
        doc["metadata"]["synthetic"] = value
        with pytest.raises(ValidationError, match="metadata synthetic must be a boolean"):
            instances.loads(json.dumps(doc))


class TestTimetableFiles:
    def test_round_trip(self, cs1, tmp_path):
        rng = np.random.default_rng(4)
        tt = random_timetable(cs1, rng)
        path = tmp_path / "tt.json"
        instances.save_timetable(tt, path)
        assert instances.load_timetable(path, cs1) == tt

    def test_saved_bytes_are_pinned(self, cs1, cs2, tmp_path):
        # sha256 of the saved files of cs1's reference timetable and of a
        # seeded random cs1 and cs2 timetable, in that order: key order,
        # event order and layout all feed into it
        rng = np.random.default_rng(8)
        timetables = [
            codec.decode(instances.cs1_reference_genotype(), cs1),
            random_timetable(cs1, rng),
            random_timetable(cs2, rng),
        ]
        digest = hashlib.sha256()
        path = tmp_path / "tt.json"
        for tt in timetables:
            instances.save_timetable(tt, path)
            digest.update(path.read_bytes())
        assert digest.hexdigest()[:16] == "eb092797a68c60cd"

    def test_missing_event_detected(self, cs1, tmp_path):
        tt = random_timetable(cs1, np.random.default_rng(5))
        times = dict(tt.times)
        times.pop(next(iter(times)))
        path = tmp_path / "tt.json"
        instances.save_timetable(Timetable(cs1.period, times), path)
        with pytest.raises(MissingEvent):
            instances.load_timetable(path, cs1)

    def test_unknown_event_rejected(self, cs1, tmp_path):
        tt = random_timetable(cs1, np.random.default_rng(6))
        times = dict(tt.times)
        times[Event.arrival("L1a", "A")] = 5  # L1a starts at A, never arrives
        path = tmp_path / "tt.json"
        instances.save_timetable(Timetable(cs1.period, times), path)
        with pytest.raises(ValidationError, match="never schedules"):
            instances.load_timetable(path, cs1)

    def test_period_mismatch_rejected(self, cs1, cs2, tmp_path):
        tt = random_timetable(cs1, np.random.default_rng(7))
        path = tmp_path / "tt.json"
        instances.save_timetable(tt, path)
        doc = json.loads(path.read_text())
        doc["period"] = 90
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="period"):
            instances.load_timetable(path, cs1)
