import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perisched
from perisched import cli, codec, instances, model
from perisched.errors import BoundInversion, ConfigInvalid
from perisched.model import Event, Segment, Timetable, Train, Trip

from conftest import make_instance, micro_single_track, micro_unsat_connection


def impossible_single_track():
    # rigid 4-minute crossings with 2-minute headways cannot share one
    # track inside a 12-minute cycle: both windows collapse to a point
    # and contradict each other
    return make_instance(
        12,
        trains=[
            Train("X", 2, (Trip("A", "B", 4, 4),)),
            Train("Y", 2, (Trip("B", "A", 4, 4),)),
        ],
        segments=[Segment("A", "B", single_track=True)],
    )


def write_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    instances.save(instance, path)
    return str(path)


class TestSolve:
    def test_perfect_solution_exits_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, micro_single_track())
        code = cli.main(
            ["solve", "--instance", path, "--pop", "30", "--max-evals", "3000", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "optimum_found" in out
        assert "weighted fitness: 0" in out

    def test_soft_violations_exit_one_and_are_listed(self, tmp_path, capsys):
        path = write_instance(tmp_path, micro_unsat_connection())
        code = cli.main(
            ["solve", "--instance", path, "--pop", "30", "--max-evals", "3000"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "violated connection" in out

    def test_hard_violations_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, impossible_single_track())
        code = cli.main(
            ["solve", "--instance", path, "--pop", "30", "--max-evals", "3000"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "violated single_track" in out

    def test_missing_file_exits_65(self, tmp_path, capsys):
        code = cli.main(["solve", "--instance", str(tmp_path / "ghost.json")])
        assert code == 65

    def test_invalid_instance_exits_65(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"period": 60, "stations": ["A"], "trains": []}')
        assert cli.main(["solve", "--instance", str(path)]) == 65

    def test_usage_error_exits_64(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", "--no-such-flag"])
        assert info.value.code == 64

    def test_unknown_weight_key_exits_64(self, tmp_path):
        path = write_instance(tmp_path, micro_single_track())
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", "--instance", path, "--weights", "w_x=3"])
        assert info.value.code == 64

    def test_invalid_ga_config_exits_64(self, tmp_path, capsys):
        path = write_instance(tmp_path, micro_single_track())
        code = cli.main(["solve", "--instance", path, "--pop", "1"])
        assert code == 64

    def test_negative_seed_exits_64(self, capsys):
        code = cli.main(["solve", "--instance", "cs1", "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 64
        assert "seed must be >= 0, got -1" in err
        assert "Traceback" not in err

    def test_builtin_instance_names_resolve(self, capsys):
        code = cli.main(
            ["solve", "--instance", "cs1", "--pop", "300", "--max-evals", "30K", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "65 constraints" in out

    def test_timetable_out_written(self, tmp_path, capsys):
        inst = micro_single_track()
        path = write_instance(tmp_path, inst)
        out_path = tmp_path / "tt.json"
        cli.main(
            [
                "solve", "--instance", path, "--pop", "30",
                "--max-evals", "3000", "--timetable-out", str(out_path),
            ]
        )
        tt = instances.load_timetable(out_path, inst)
        assert len(tt.times) == len(inst.event_index.events)

    def test_weight_override_changes_fitness_scale(self, tmp_path, capsys):
        path = write_instance(tmp_path, micro_unsat_connection())
        code = cli.main(
            [
                "solve", "--instance", path, "--pop", "30", "--max-evals", "3000",
                "--weights", "w_c=7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "weighted fitness: 7" in out


    def test_zero_connection_weight_still_exits_one(self, capsys):
        # with w_c=0 every missed connection weighs nothing, so fitness 0
        # ends the run; the exit code still reports the misses
        code = cli.main(
            ["solve", "--instance", "cs2", "--max-evals", "3K", "--weights", "w_c=0"]
        )
        out = capsys.readouterr().out
        assert "optimum_found" in out
        assert "connection 0" not in out
        assert code == 1

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_fractional_weights_report_scalar_fitness(self, tmp_path, capsys, seed):
        weights = "w_h=10.1,w_s=10.3,w_c=0.7"
        out_path = tmp_path / "tt.json"
        code = cli.main(
            [
                "solve", "--instance", "cs2", "--max-evals", "3K", "--seed", str(seed),
                "--weights", weights, "--timetable-out", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        instance = cli._load_instance("cs2", cli._parse_weights(weights))
        tt = instances.load_timetable(out_path, instance)
        report = model.evaluate(tt, model.derive_bounds(instance), instance.weights)
        assert f"weighted fitness: {report.weighted_fitness}\n" in out
        expected = 2 if report.hard_violations else 1 if report.soft_violations else 0
        assert code == expected

    def test_outsized_integer_weight_exits_65(self, capsys):
        code = cli.main(
            ["solve", "--instance", "cs1", "--weights", "w_h=100000000000000000000000"]
        )
        assert code == 65
        assert "weight for headway must be below 2**31" in capsys.readouterr().err

    def test_messages_name_kinds_by_value(self, tmp_path, capsys):
        # on Python 3.11+ f"{kind}" prints "EventKind.ARRIVAL", so kinds
        # must be formatted through .value everywhere
        path = write_instance(tmp_path, micro_unsat_connection())
        cli.main(["solve", "--instance", path, "--pop", "30", "--max-evals", "3000"])
        stdout = capsys.readouterr().out
        assert "violated connection: arrival" in stdout

        inverted = make_instance(
            8, [Train(t, 5, (Trip("s", "t", 1, 2),)) for t in ("a", "b")]
        )
        with pytest.raises(BoundInversion) as info:
            model.derive_bounds(inverted)
        assert "headway: departure b@s -> departure a@s" in str(info.value)

        for message in (stdout, str(info.value)):
            assert "EventKind." not in message
            assert "ConstraintKind." not in message

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        src = str(Path(perisched.__file__).parents[1])
        runs = []
        for hash_seed in ("0", "1"):
            cwd = tmp_path / hash_seed
            cwd.mkdir()
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            done = subprocess.run(
                [
                    sys.executable, "-m", "perisched.cli", "solve", "--instance", "cs1",
                    "--seed", "3", "--max-evals", "3K", "--timetable-out", "tt.json",
                ],
                cwd=cwd, env=env, capture_output=True, text=True,
            )
            stdout = re.sub(r"\(\d+\.\d+ s\)", "", done.stdout)
            runs.append((done.returncode, stdout, (cwd / "tt.json").read_bytes()))
        assert runs[0][0] in (0, 1)
        assert runs[0] == runs[1]

    def test_unexpected_exception_exits_70(self, tmp_path, capsys, monkeypatch):
        def broken_run(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.engine, "run", broken_run)
        path = write_instance(tmp_path, micro_single_track())
        assert cli.main(["solve", "--instance", path]) == 70
        assert "RuntimeError: boom" in capsys.readouterr().err


class TestUnreadableAndUnwritableFiles:
    """Input that cannot be decoded or parsed, and output that cannot be
    written, exit 65 with a named message instead of a traceback."""

    def assert_exits_65(self, capsys, argv, message):
        assert cli.main(argv) == 65
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err

    def test_non_utf8_instance(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"period": 60, "stations": ["Zürich"]}'.encode("latin-1"))
        self.assert_exits_65(capsys, ["solve", "--instance", str(path)], "is not UTF-8 text")

    def test_non_utf8_timetable(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path, micro_single_track())
        tt_path = tmp_path / "tt.json"
        tt_path.write_bytes(b"\xff\xfe{}")
        argv = ["expand", "--instance", inst_path, "--timetable", str(tt_path)]
        self.assert_exits_65(capsys, argv, "is not UTF-8 text")

    def test_deeply_nested_instance(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_exits_65(capsys, ["solve", "--instance", str(path)], "nested too deeply")

    @pytest.mark.parametrize("flag", ["--out", "--detail-csv"])
    def test_experiment_output_into_missing_directory(self, tmp_path, capsys, flag):
        path = write_instance(tmp_path, micro_unsat_connection())
        target = tmp_path / "missing" / "table.csv"
        argv = [
            "experiment", "--instance", path, "--pop", "20", "--max-evals", "500",
            "--runs", "1", flag, str(target),
        ]
        self.assert_exits_65(capsys, argv, f"cannot write {target}")

    def test_timetable_out_into_missing_directory(self, tmp_path, capsys):
        path = write_instance(tmp_path, micro_single_track())
        target = tmp_path / "missing" / "tt.json"
        argv = ["solve", "--instance", path, "--max-evals", "500", "--timetable-out", str(target)]
        self.assert_exits_65(capsys, argv, f"cannot write {target}")


class TestExperiment:
    def run_experiment_cli(self, tmp_path, capsys, *extra):
        path = write_instance(tmp_path, micro_unsat_connection())
        code = cli.main(
            [
                "experiment", "--instance", path, "--pop", "20,30",
                "--max-evals", "500,1K", "--runs", "4", "--seed", "9",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_csv_header_and_shape(self, tmp_path, capsys):
        out = self.run_experiment_cli(tmp_path, capsys)
        lines = out.strip().splitlines()
        assert lines[0] == cli.AGGREGATE_HEADER
        assert len(lines) == 3  # one row per evaluation limit
        assert lines[1].startswith("500,")
        assert lines[2].startswith("1000,")

    def test_deterministic_modulo_timing(self, tmp_path, capsys):
        def strip_time(text):
            return ["," .join(line.split(",")[:-1]) for line in text.strip().splitlines()]

        first = self.run_experiment_cli(tmp_path, capsys)
        second = self.run_experiment_cli(tmp_path, capsys)
        assert strip_time(first) == strip_time(second)

    def test_detail_rows_reaggregate_to_summary(self, tmp_path, capsys):
        detail_path = tmp_path / "detail.csv"
        out = self.run_experiment_cli(tmp_path, capsys, "--detail-csv", str(detail_path))
        detail_lines = detail_path.read_text().strip().splitlines()
        assert detail_lines[0] == cli.DETAIL_HEADER
        rows = [line.split(",") for line in detail_lines[1:]]
        assert len(rows) == 2 * 2 * 4  # limits x pops x runs
        for summary in out.strip().splitlines()[1:]:
            parts = summary.split(",")
            limit = parts[0]
            cell = [r for r in rows if r[0] == limit]
            avg_hard = sum(int(r[5]) for r in cell) / len(cell)
            avg_soft = sum(int(r[6]) for r in cell) / len(cell)
            pct = 100 * sum(r[5] == "0" for r in cell) / len(cell)
            pct_conn = (
                100 * sum(r[5] == "0" and r[6] == "0" for r in cell) / len(cell)
            )
            assert float(parts[1]) == pytest.approx(avg_hard, abs=1e-4)
            assert float(parts[2]) == pytest.approx(avg_soft, abs=1e-4)
            assert float(parts[3]) == pytest.approx(pct, abs=1e-2)
            assert float(parts[4]) == pytest.approx(pct_conn, abs=1e-2)

    def test_seeds_shared_across_limits(self, tmp_path, capsys):
        # one seed per (pop, run), counting up from the base seed; every
        # limit reads the same run, so its best never worsens with the limit
        detail_path = tmp_path / "detail.csv"
        self.run_experiment_cli(tmp_path, capsys, "--detail-csv", str(detail_path))
        rows = [r.split(",") for r in detail_path.read_text().strip().splitlines()[1:]]
        by_seed = {}
        for limit, pop, run_index, seed, fitness, hard, *_ in rows:
            by_seed.setdefault(int(seed), []).append(
                (int(limit), (pop, run_index), float(fitness), int(hard))
            )
        assert sorted(by_seed) == list(range(9, 9 + 2 * 4))  # base seed 9, 2 pops x 4 runs
        for runs in by_seed.values():
            assert [limit for limit, *_ in runs] == [500, 1000]
            assert len({cell for _, cell, *_ in runs}) == 1
            (_, _, fitness_a, hard_a), (_, _, fitness_b, hard_b) = runs
            assert fitness_b <= fitness_a and hard_b <= hard_a

    @pytest.mark.parametrize(
        "pop,limits,message",
        [
            ("20", "500,1K,500", "repeated evaluation limit: 500"),
            ("20,30,20", "500", "repeated population size: 20"),
            ("300", "30K,100", r"max_evaluations \(100\) must cover"),
            ("1", "500", "population_size must be >= 2"),
        ],
    )
    def test_invalid_spec_exits_64_before_any_run(
        self, tmp_path, capsys, monkeypatch, pop, limits, message
    ):
        path = write_instance(tmp_path, micro_unsat_connection())

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli.engine, "run_anytime", no_run)
        code = cli.main(
            ["experiment", "--instance", path, "--pop", pop, "--max-evals", limits, "--runs", "20"]
        )
        err = capsys.readouterr().err
        assert code == 64
        assert re.search(message, err)
        assert "Traceback" not in err

    def test_negative_base_seed_exits_64_before_any_run(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, micro_unsat_connection())

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli.engine, "run_anytime", no_run)
        code = cli.main(
            ["experiment", "--instance", path, "--pop", "20", "--max-evals", "500",
             "--runs", "2", "--seed", "-1"]
        )
        err = capsys.readouterr().err
        assert code == 64
        assert "base seed must be >= 0, got -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("wrong", [float, bool])
    @pytest.mark.parametrize(
        "field", ["population_sizes", "eval_limits", "runs", "base_seed", "workers"]
    )
    def test_non_integer_spec_is_refused(self, field, wrong):
        valid = dict(population_sizes=(50,), eval_limits=(500,), runs=1, base_seed=1, workers=1)
        value = valid[field]
        bad = tuple(map(wrong, value)) if type(value) is tuple else wrong(value)
        with pytest.raises(ConfigInvalid, match=field):
            cli.ExperimentSpec(**{**valid, field: bad})

    @pytest.mark.parametrize("bad", [50, [50], range(50, 51)], ids=["int", "list", "range"])
    @pytest.mark.parametrize("field", ["population_sizes", "eval_limits"])
    def test_counts_must_come_as_a_tuple(self, field, bad):
        # a bare int once raised "'int' object is not iterable"
        valid = dict(population_sizes=(50,), eval_limits=(500,))
        with pytest.raises(ConfigInvalid, match=f"^{field}: .* is not a tuple of integers$"):
            cli.ExperimentSpec(**{**valid, field: bad})

    def test_per_size_breakdown(self, tmp_path, capsys):
        out = self.run_experiment_cli(tmp_path, capsys, "--per-size")
        lines = out.strip().splitlines()
        assert lines[0] == cli.PER_SIZE_HEADER
        assert len(lines) == 5  # 2 limits x 2 pops
        assert lines[1].split(",")[:2] == ["500", "20"]

    def test_workers_do_not_change_results(self, tmp_path, capsys):
        def strip_time_cols(text):
            return ["," .join(line.split(",")[:-1]) for line in text.strip().splitlines()]

        sequential = self.run_experiment_cli(tmp_path, capsys)
        parallel = self.run_experiment_cli(tmp_path, capsys, "--workers", "2")
        assert strip_time_cols(sequential) == strip_time_cols(parallel)

    def test_out_file(self, tmp_path, capsys):
        path = write_instance(tmp_path, micro_unsat_connection())
        out_path = tmp_path / "table.csv"
        code = cli.main(
            [
                "experiment", "--instance", path, "--pop", "20",
                "--max-evals", "500", "--runs", "2", "--out", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.read_text().startswith(cli.AGGREGATE_HEADER)


class TestExpand:
    def test_clock_rows_repeat_hourly(self, tmp_path, capsys):
        inst = make_instance(
            60, [Train("tgv", 3, (Trip("paris", "lille", 30, 35),))]
        )
        inst_path = write_instance(tmp_path, inst)
        tt = Timetable(
            60,
            {
                Event.departure("tgv", "paris"): 46,
                Event.arrival("tgv", "lille"): 16,
            },
        )
        tt_path = tmp_path / "tt.json"
        instances.save_timetable(tt, tt_path)
        code = cli.main(
            [
                "expand", "--instance", inst_path, "--timetable", str(tt_path),
                "--k", "4", "--epoch", "08:00",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["From", "To", "Departure", "Arrival"]
        departures = [line.split()[2] for line in lines[1:]]
        assert departures == ["8:46", "9:46", "10:46", "11:46"]
        arrivals = [line.split()[3] for line in lines[1:]]
        assert arrivals == ["9:16", "10:16", "11:16", "12:16"]

    def test_single_period_one_row_per_trip(self, tmp_path, capsys, cs1):
        inst_path = write_instance(tmp_path, cs1)
        tt = codec.decode(instances.cs1_reference_genotype(), cs1)
        tt_path = tmp_path / "tt.json"
        instances.save_timetable(tt, tt_path)
        code = cli.main(
            ["expand", "--instance", inst_path, "--timetable", str(tt_path), "--k", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) - 1 == sum(len(t.route) for t in cs1.trains)

    def test_epoch_zero_event_zero(self, tmp_path, capsys):
        inst = make_instance(60, [Train("t", 3, (Trip("a", "b", 10, 12),))])
        inst_path = write_instance(tmp_path, inst)
        tt = Timetable(
            60,
            {Event.departure("t", "a"): 0, Event.arrival("t", "b"): 11},
        )
        tt_path = tmp_path / "tt.json"
        instances.save_timetable(tt, tt_path)
        cli.main(["expand", "--instance", inst_path, "--timetable", str(tt_path)])
        out = capsys.readouterr().out
        assert out.strip().splitlines()[1].split()[2] == "0:00"

    def test_incomplete_timetable_exits_65(self, tmp_path, capsys, cs1):
        inst_path = write_instance(tmp_path, cs1)
        tt_path = tmp_path / "tt.json"
        tt_path.write_text(json.dumps({"period": 60, "events": []}))
        code = cli.main(
            ["expand", "--instance", inst_path, "--timetable", str(tt_path)]
        )
        assert code == 65

    def test_nonpositive_repetition_count_exits_64(self, tmp_path):
        inst_path = write_instance(tmp_path, micro_single_track())
        with pytest.raises(SystemExit) as info:
            cli.main(
                ["expand", "--instance", inst_path, "--timetable", "tt.json", "--k", "0"]
            )
        assert info.value.code == 64
