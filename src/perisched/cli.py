"""Command line front end: one-shot solving, the multi-run experiment
harness, and clock-time rendering of timetables.

Exit codes: 0 perfect timetable, 1 feasible but some connections missed,
2 hard violations remain, 64 usage error, 65 unreadable or invalid input,
70 internal error. Codes 0-2 follow the best timetable's violation
counts, not its weighted fitness, so they mean the same under any weights.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import sys
import traceback
from dataclasses import dataclass

from . import codec, engine, instances, model
from .errors import (
    BoundInversion,
    ConfigInvalid,
    IoError,
    MissingEvent,
    ParseError,
    TimetablingError,
    ValidationError,
)

AGGREGATE_HEADER = "max_evals,avg_hard,avg_soft,pct_feasible,pct_feasible_conn,avg_time_s"
PER_SIZE_HEADER = (
    "max_evals,pop,avg_hard,avg_soft,pct_feasible,pct_feasible_conn,avg_time_s"
)
DETAIL_HEADER = (
    "max_evals,pop,run_index,seed,best_fitness,hard_violations,"
    "soft_violations,evaluations_used,terminated_by,time_s"
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment sweep: `runs` seeded runs of each population size,
    each answered at every evaluation limit.

    Run r of the p-th population size (counting from 0) is seeded
    base_seed + p*runs + r, whatever the limit: it runs once, to the
    largest limit, and each smaller limit's row is read off it as it
    passes that limit (`engine.run_anytime`), exactly as a separate run to
    that limit with the same seed would end. The runs of one (limit,
    population) cell are independently seeded; the limits share them.

    Building one raises `ConfigInvalid` for a spec that no run of it could
    carry out, so a sweep never fails part way for its spec."""

    population_sizes: tuple[int, ...]
    eval_limits: tuple[int, ...]
    runs: int = 50
    base_seed: int = 1
    workers: int = 1

    def __post_init__(self):
        counts = [("runs", self.runs), ("base_seed", self.base_seed), ("workers", self.workers)]
        for name in ("population_sizes", "eval_limits"):
            values = getattr(self, name)
            if type(values) is not tuple:
                raise ConfigInvalid(f"{name}: {values!r} is not a tuple of integers")
            counts += [(name, v) for v in values]
        for name, value in counts:
            if type(value) is not int:
                raise ConfigInvalid(f"{name}: {value!r} is not an integer")
        if self.runs < 1:
            raise ConfigInvalid("runs must be >= 1")
        if not self.population_sizes or not self.eval_limits:
            raise ConfigInvalid("need at least one population size and one limit")
        if self.workers < 1:
            raise ConfigInvalid("workers must be >= 1")
        if self.base_seed < 0:
            raise ConfigInvalid(f"base seed must be >= 0, got {self.base_seed}")
        for name, values in (
            ("evaluation limit", self.eval_limits),
            ("population size", self.population_sizes),
        ):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigInvalid(f"repeated {name}: {', '.join(map(str, repeated))}")
        for pop in self.population_sizes:
            for limit in self.eval_limits:
                engine.GaConfig(population_size=pop, max_evaluations=limit)  # checks itself


@dataclass(frozen=True)
class DetailRow:
    max_evals: int
    pop: int
    run_index: int
    seed: int
    best_fitness: int | float
    hard_violations: int
    soft_violations: int
    evaluations_used: int
    terminated_by: str
    time_s: float


@dataclass(frozen=True)
class AggregateRow:
    """Summary of one cell: an evaluation limit, and a population size
    unless the populations were pooled (``pop`` is then None)."""

    max_evals: int
    pop: int | None
    avg_hard: float
    avg_soft: float
    pct_feasible: float
    pct_feasible_conn: float
    avg_time_s: float


def _run_rows(
    instance: model.Instance,
    constraints: list[model.PeriodicConstraint],
    limits: tuple[int, ...],
    pop: int,
    run_index: int,
    seed: int,
) -> list[DetailRow]:
    """One seeded run, as one row per evaluation limit in `limits` order."""
    config = engine.GaConfig(population_size=pop, max_evaluations=max(limits), seed=seed)
    results = engine.run_anytime(instance, constraints, config, limits)
    return [
        DetailRow(
            max_evals=limit,
            pop=pop,
            run_index=run_index,
            seed=seed,
            best_fitness=result.best_fitness,
            hard_violations=result.hard_violations,
            soft_violations=result.soft_violations,
            evaluations_used=result.evaluations_used,
            terminated_by=result.terminated_by.value,
            time_s=result.wall_time,
        )
        for limit, result in zip(limits, results)
    ]


# (instance, constraints, limits) of the sweep that a pool worker serves,
# set once in each worker process by `_init_worker`
_worker_sweep: tuple = ()


def _init_worker(*sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _run_in_worker(task: tuple[int, int, int]) -> list[DetailRow]:
    return _run_rows(*_worker_sweep, *task)


def run_experiment(
    instance: model.Instance, spec: ExperimentSpec
) -> list[DetailRow]:
    """Every row of a sweep, in (limit, population, run) order.

    One GA runs per (population, run), seeded as `ExperimentSpec` says.
    A row's ``time_s`` is that run's elapsed time when its limit's answer
    was settled, so it covers the run only up to that limit. With several
    workers, each worker process receives the instance and constraints
    once, from the pool's initializer, and every task is just
    ``(pop, run_index, seed)``.
    """
    constraints = model.derive_bounds(instance)
    sweep = (instance, constraints, spec.eval_limits)
    tasks = [
        (pop, run_index, spec.base_seed + p * spec.runs + run_index)
        for p, pop in enumerate(spec.population_sizes)
        for run_index in range(spec.runs)
    ]
    if spec.workers == 1:
        runs = [_run_rows(*sweep, *task) for task in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=spec.workers, initializer=_init_worker, initargs=sweep
        ) as pool:
            runs = list(pool.map(_run_in_worker, tasks, chunksize=1))
    return [rows[k] for k in range(len(spec.eval_limits)) for rows in runs]


def aggregate(rows: list[DetailRow], by_pop: bool = False) -> list[AggregateRow]:
    """Mean violations, feasibility percentages and mean time, pooled per
    evaluation limit (or per (limit, population) with by_pop)."""
    keys = sorted({(r.max_evals, r.pop if by_pop else None) for r in rows})
    out = []
    for limit, pop in keys:
        cell = [
            r
            for r in rows
            if r.max_evals == limit and (not by_pop or r.pop == pop)
        ]
        n = len(cell)
        out.append(
            AggregateRow(
                max_evals=limit,
                pop=pop,
                avg_hard=sum(r.hard_violations for r in cell) / n,
                avg_soft=sum(r.soft_violations for r in cell) / n,
                pct_feasible=100.0 * sum(r.hard_violations == 0 for r in cell) / n,
                pct_feasible_conn=100.0
                * sum(r.hard_violations == 0 and r.soft_violations == 0 for r in cell)
                / n,
                avg_time_s=sum(r.time_s for r in cell) / n,
            )
        )
    return out


def aggregate_csv(rows: list[DetailRow], by_pop: bool = False) -> str:
    """`aggregate` as CSV; the pop column appears only with by_pop."""
    lines = [PER_SIZE_HEADER if by_pop else AGGREGATE_HEADER]
    for row in aggregate(rows, by_pop):
        pop = f"{row.pop}," if by_pop else ""
        lines.append(
            f"{row.max_evals},{pop}{row.avg_hard:.4f},{row.avg_soft:.4f},"
            f"{row.pct_feasible:.2f},{row.pct_feasible_conn:.2f},{row.avg_time_s:.3f}"
        )
    return "\n".join(lines) + "\n"


def detail_csv(rows: list[DetailRow]) -> str:
    lines = [DETAIL_HEADER]
    for r in rows:
        lines.append(
            f"{r.max_evals},{r.pop},{r.run_index},{r.seed},{r.best_fitness},"
            f"{r.hard_violations},{r.soft_violations},{r.evaluations_used},"
            f"{r.terminated_by},{r.time_s:.3f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parse_count(text: str) -> int:
    """Accept plain integers plus K/M suffixes: 30K, 1M, 5000."""
    raw = text.strip().upper()
    factor = 1
    if raw.endswith("K"):
        factor, raw = 1_000, raw[:-1]
    elif raw.endswith("M"):
        factor, raw = 1_000_000, raw[:-1]
    try:
        return int(raw) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a count: {text!r}") from None


def _parse_count_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_count(part) for part in text.split(","))


_WEIGHT_KEYS = {
    "w_r": "running",
    "w_d": "dwell",
    "w_h": "headway",
    "w_s": "single_track",
    "w_c": "connection",
}


def _parse_weights(text: str) -> dict:
    """Parse 'w_h=100,w_s=100,w_c=1' style overrides."""
    overrides = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in _WEIGHT_KEYS:
            raise argparse.ArgumentTypeError(
                f"unknown weight {key!r}; use " + ", ".join(sorted(_WEIGHT_KEYS))
            )
        try:
            number = int(value)
        except ValueError:
            try:
                number = float(value)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad weight value {value!r}") from None
        overrides[_WEIGHT_KEYS[key]] = number
    return overrides


def _load_instance(source: str, weight_overrides: dict | None) -> model.Instance:
    if source in instances.BUILTIN_NAMES:
        instance = instances.load(instances.bundled_path(source))
    else:
        instance = instances.load(source)
    if weight_overrides:
        weights = dataclasses.replace(instance.weights, **weight_overrides)
        instance = dataclasses.replace(instance, weights=weights)
    return instance


def _parse_epoch(text: str) -> int:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected HH:MM, got {text!r}")
    try:
        hours, minutes = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HH:MM, got {text!r}") from None
    if not (0 <= minutes < 60 and hours >= 0):
        raise argparse.ArgumentTypeError(f"expected HH:MM, got {text!r}")
    return hours * 60 + minutes


def clock_str(abs_minute: int) -> str:
    """Render an absolute minute as wall-clock H:MM (24h wrap)."""
    return f"{(abs_minute // 60) % 24}:{abs_minute % 60:02d}"


# ---------------------------------------------------------------------------
# subcommands

def _print_timetable(instance: model.Instance, tt: model.Timetable) -> None:
    for train in instance.trains:
        print(f"train {train.id} (headway {train.basic_headway}):")
        print(f"  {'station':<10}{'arrival':>9}{'departure':>11}")
        stops = [train.route[0].from_station] + [t.to_station for t in train.route]
        for k, station in enumerate(stops):
            arr = (
                "-"
                if k == 0
                else str(tt.of(model.Event.arrival(train.id, station)))
            )
            dep = (
                "-"
                if k == len(stops) - 1
                else str(tt.of(model.Event.departure(train.id, station)))
            )
            print(f"  {station:<10}{arr:>9}{dep:>11}")
        print()


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance, args.weights)
    constraints = model.derive_bounds(instance)
    config = engine.GaConfig(
        population_size=args.pop,
        max_evaluations=args.max_evals,
        seed=args.seed,
    )
    result = engine.run(instance, constraints, config)

    name = instance.meta.name or args.instance
    print(
        f"instance {name}: {len(instance.stations)} stations, "
        f"{len(instance.trains)} trains, {len(constraints)} constraints"
    )
    print(
        f"seed {args.seed}, population {args.pop}, budget {args.max_evals} evaluations"
    )
    print(
        f"terminated: {result.terminated_by.value} after "
        f"{result.evaluations_used} evaluations ({result.wall_time:.2f} s)"
    )
    print()
    decoded = codec.decode(result.best_genotype, instance)
    _print_timetable(instance, decoded)

    report = result.report
    counts = ", ".join(
        f"{kind.value} {report.violations_by_type[kind]}"
        for kind in model.ConstraintKind
    )
    print(f"violations: {counts}")
    print(f"weighted fitness: {report.weighted_fitness}")
    for violation in report.violated:
        print(f"  violated {violation.constraint.describe()} (gap {violation.diff})")

    if args.timetable_out:
        instances.save_timetable(decoded, args.timetable_out)
        print(f"timetable written to {args.timetable_out}")

    if report.hard_violations:
        return 2
    if report.soft_violations:
        return 1
    return 0


def _cmd_experiment(args) -> int:
    instance = _load_instance(args.instance, args.weights)
    spec = ExperimentSpec(
        population_sizes=args.pop,
        eval_limits=args.max_evals,
        runs=args.runs,
        base_seed=args.seed,
        workers=args.workers,
    )
    rows = run_experiment(instance, spec)
    output = aggregate_csv(rows, args.per_size)
    if args.out:
        instances.write_text(args.out, output)
    else:
        sys.stdout.write(output)
    if args.detail_csv:
        instances.write_text(args.detail_csv, detail_csv(rows))
    return 0


def _cmd_expand(args) -> int:
    instance = _load_instance(args.instance, None)
    tt = instances.load_timetable(args.timetable, instance)
    entries = model.expand_periods(tt, args.k)

    trip_at = {
        (train.id, trip.from_station): trip
        for train in instance.trains
        for trip in train.route
    }
    rows = []
    for abs_time, event in entries:
        if event.kind is not model.EventKind.DEPARTURE:
            continue
        trip = trip_at[(event.train, event.station)]
        run = (
            tt.of(model.Event.arrival(event.train, trip.to_station))
            - tt.of(event)
        ) % instance.period
        depart = args.epoch + abs_time
        rows.append((trip.from_station, trip.to_station, depart, depart + run))

    headers = ("From", "To", "Departure", "Arrival")
    table = [
        (a, b, clock_str(dep), clock_str(arr)) for a, b, dep, arr in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) if table else len(headers[i])
        for i in range(4)
    ]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for r in table:
        print("  ".join(r[i].ljust(widths[i]) for i in range(4)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perisched",
        description="Generate and inspect periodic railway timetables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the solver once and print the result")
    solve.add_argument("--instance", required=True, help="instance file, or cs1/cs2")
    solve.add_argument("--pop", type=_parse_count, default=300, help="population size")
    solve.add_argument(
        "--max-evals", type=_parse_count, default=200_000, help="evaluation budget"
    )
    solve.add_argument("--seed", type=int, default=1)
    solve.add_argument("--weights", type=_parse_weights, default=None)
    solve.add_argument("--timetable-out", default=None, help="write the best timetable")
    solve.set_defaults(func=_cmd_solve)

    experiment = sub.add_parser(
        "experiment", help="seeded multi-run sweep with CSV aggregation"
    )
    experiment.add_argument("--instance", required=True)
    experiment.add_argument(
        "--pop", type=_parse_count_list, default=(300, 600, 900),
        help="comma separated population sizes",
    )
    experiment.add_argument(
        "--max-evals", type=_parse_count_list, required=True,
        help="comma separated evaluation limits (suffixes K and M allowed)",
    )
    experiment.add_argument("--runs", type=_positive_int, default=50, help="runs per cell")
    experiment.add_argument("--seed", type=int, default=1, help="base seed")
    experiment.add_argument("--weights", type=_parse_weights, default=None)
    experiment.add_argument("--detail-csv", default=None, help="write per-run rows here")
    experiment.add_argument(
        "--per-size", action="store_true",
        help="report one row per (limit, population) instead of pooling",
    )
    experiment.add_argument("--workers", type=_positive_int, default=1)
    experiment.add_argument("--out", default=None, help="write the table here")
    experiment.set_defaults(func=_cmd_experiment)

    expand = sub.add_parser(
        "expand", help="unroll a timetable over several periods as clock times"
    )
    expand.add_argument("--instance", required=True)
    expand.add_argument("--timetable", required=True, help="timetable JSON file")
    expand.add_argument("--k", type=_positive_int, default=1, help="periods to unroll")
    expand.add_argument(
        "--epoch", type=_parse_epoch, default=0,
        help="clock time of minute zero, HH:MM (default 00:00)",
    )
    expand.set_defaults(func=_cmd_expand)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, IoError, MissingEvent, BoundInversion) as e:
        print(f"error: {e}", file=sys.stderr)
        return 65
    except ConfigInvalid as e:
        print(f"error: {e}", file=sys.stderr)
        return 64
    except TimetablingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 70
    except Exception:
        traceback.print_exc()
        print("error: internal failure", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
