"""Properties over randomly generated small valid instances."""

import dataclasses
import functools
import json
import operator
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from perisched import codec, engine, model, oracle
from perisched.errors import MissingEvent, TimetablingError
from perisched.instances import (
    build_cs1,
    bundled_path,
    dumps,
    generate_cs2_like,
    load,
    load_timetable,
    loads,
    save_timetable,
)
from perisched.model import (
    ConnectionSpec,
    ConstraintKind,
    Instance,
    Segment,
    Timetable,
    Train,
    Trip,
    WeightConfig,
)

from conftest import MICRO_BUILDERS, random_timetable, run_answer

STATIONS = "ABCDEF"
BRANCH = "GHI"  # stations of a train that shares no track and no transfer
PAIR_KINDS = (ConstraintKind.HEADWAY, ConstraintKind.SINGLE_TRACK, ConstraintKind.CONNECTION)

weight = st.one_of(
    st.integers(0, 1000),
    st.integers(0, 10_000).map(lambda k: k / 10),
    st.floats(0, 1000, allow_nan=False, allow_infinity=False),
)
margin = st.one_of(st.integers(1, 1000), st.floats(0.1, 1000))


@st.composite
def weight_configs(draw):
    connection = draw(weight)
    return WeightConfig(
        running=draw(weight),
        dwell=draw(weight),
        headway=connection + draw(margin),
        single_track=connection + draw(margin),
        connection=connection,
    )


@st.composite
def train_on(draw, train_id, path):
    trips = []
    for k, (a, b) in enumerate(zip(path, path[1:])):
        run_lo = draw(st.integers(1, 6))
        run_hi = run_lo + draw(st.integers(0, 3))
        if k < len(path) - 2:
            dwell_lo = draw(st.integers(0, 3))
            trips.append(Trip(a, b, run_lo, run_hi, dwell_lo, dwell_lo + draw(st.integers(0, 2))))
        else:
            trips.append(Trip(a, b, run_lo, run_hi))
    return Train(train_id, draw(st.integers(1, 3)), tuple(trips))


@st.composite
def instances(draw):
    """A valid instance with headway, single-track and connection pairs:
    train b shares train a's first trip, train c runs it backwards over a
    single track, and a transfer links a to c where a arrives and c starts.
    Train d, if any, runs on the same stations; train e, if any, on a
    branch of its own, so that no pairwise constraint reads its events."""
    period = draw(st.integers(20, 40))
    a_path = draw(st.permutations(STATIONS))[: draw(st.integers(3, 5))]
    rest = [s for s in STATIONS if s not in a_path[:2]]
    b_path = a_path[:2] + draw(st.permutations(rest))[: draw(st.integers(0, 2))]
    c_path = [a_path[1], a_path[0]] + draw(st.permutations(rest))[: draw(st.integers(0, 2))]
    paths = {"a": a_path, "b": b_path, "c": c_path}
    if draw(st.booleans()):
        paths["d"] = draw(st.permutations(STATIONS))[: draw(st.integers(2, 4))]
    if draw(st.booleans()):
        paths["e"] = draw(st.permutations(BRANCH))[: draw(st.integers(2, 3))]
    trains = tuple(draw(train_on(train_id, path)) for train_id, path in paths.items())

    single = {tuple(sorted(a_path[:2]))}
    pairs = sorted({tuple(sorted(p)) for path in paths.values() for p in zip(path, path[1:])})
    segments = tuple(
        Segment(x, y, (x, y) in single or draw(st.booleans())) for x, y in pairs
    )

    candidates = [
        (feeder.id, onward.id, trip.to_station)
        for feeder in trains
        for trip in feeder.route
        for onward in trains
        if onward.id != feeder.id
        and trip.to_station in (t.from_station for t in onward.route)
    ]
    picked = {("a", "c", a_path[1])} | set(
        draw(st.lists(st.sampled_from(candidates), max_size=3))
    )
    connections = []
    for feeder, onward, station in sorted(picked):
        lo = draw(st.integers(0, period - 1))
        connections.append(
            ConnectionSpec(feeder, onward, station, lo, lo + draw(st.integers(0, period - 2)))
        )

    return Instance(
        period=period,
        stations=tuple(STATIONS + BRANCH),
        segments=segments,
        trains=trains,
        connections=tuple(connections),
        weights=draw(weight_configs()),
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_batch_fitness_is_the_scalar_fitness(instance, seed):
    constraints = model.derive_bounds(instance)
    assert {c.kind for c in constraints} == set(ConstraintKind)
    problem = engine.CompiledProblem(instance, constraints)
    genes = np.vstack([
        problem.random_population(8, np.random.default_rng(seed)),
        problem.gene_lo,
        problem.gene_hi,
    ])
    fitness = problem.fitness_batch(genes)
    counts = problem.violation_counts(genes)
    for row in range(len(genes)):
        tt = codec.decode(codec.Genotype(tuple(int(g) for g in genes[row])), instance)
        report = model.evaluate(tt, constraints, instance.weights)
        assert fitness[row] == report.weighted_fitness
        batch_counts = {kind: int(n[row]) for kind, n in counts.items()}
        assert batch_counts == report.violations_by_type
        assert batch_counts == oracle.check_independent(tt, instance).violations_by_type


cs2_like = st.integers(0, 11).map(functools.cache(generate_cs2_like))
FRACTIONAL = WeightConfig(headway=10.1, single_track=10.3, connection=0.7)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(cs2_like, st.sampled_from([WeightConfig(), FRACTIONAL]), st.integers(0, 2**32 - 1))
def test_kernel_reads_int64_int32_and_strided_genes_alike(instance, weights, seed):
    # the GA hands the kernel rows of `gene_dtype` (int8 here); callers may
    # pass int64 or int32, or a view
    instance = dataclasses.replace(instance, weights=weights)
    constraints = model.derive_bounds(instance)
    problem = engine.CompiledProblem(instance, constraints)
    genes = problem.random_population(10, np.random.default_rng(seed))
    narrow = genes.astype(np.int32)
    strided = np.repeat(narrow, 2, axis=0)[::2]
    assert not strided.flags.c_contiguous
    assert problem.gene_dtype == np.int8
    counts = problem.violation_counts(genes)
    for other in (narrow, strided, genes.astype(problem.gene_dtype)):
        other_counts = problem.violation_counts(other)
        assert all(np.array_equal(counts[kind], other_counts[kind]) for kind in ConstraintKind)
    fitness = problem.fitness_batch(strided)
    for row in range(len(genes)):
        tt = codec.decode(codec.Genotype(tuple(int(g) for g in genes[row])), instance)
        report = model.evaluate(tt, constraints, weights)
        assert {kind: int(n[row]) for kind, n in counts.items()} == report.violations_by_type
        assert fitness[row] == report.weighted_fitness


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([np.int8, np.int16, np.int32]), st.integers(2, 30), st.integers(1, 6), st.data())
def test_xor_swap_exchanges_tails(dtype, length, pairs, data):
    # any genes of the type, negative ones included; cut None is a pair
    # that is not crossed, which takes row 0 of the tail window (all 0)
    a, b = data.draw(arrays(dtype, (2, pairs, length)))
    cuts = data.draw(st.lists(st.none() | st.integers(1, length - 1), min_size=pairs, max_size=pairs))
    tail = np.array(
        [np.zeros(length) if c is None else np.where(np.arange(length) >= c, -1, 0) for c in cuts],
        dtype=dtype,
    )
    children = np.concatenate([a, b])  # the step crosses the two halves of one buffer
    engine._swap_tails(children[:pairs], children[pairs:], tail, np.empty_like(a))
    for i, c in enumerate(cuts):
        c = length if c is None else c
        assert children[i].tolist() == [*a[i, :c], *b[i, c:]]
        assert children[pairs + i].tolist() == [*b[i, :c], *a[i, c:]]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_decode_array_is_a_running_sum_per_section(instance, seed, rows):
    index = instance.event_index
    genes = np.vstack([
        np.random.default_rng(seed).integers(
            index.gene_lo, index.gene_hi + 1, size=(rows, len(index.events))
        ),
        index.gene_lo,
        index.gene_hi,
    ])
    times = codec.decode_array(genes, instance)
    starts = index.section_offsets.tolist()
    for row, decoded in zip(genes, times):
        assert np.array_equal(codec.decode_array(row, instance), decoded)
        expected = []
        for start, end in zip(starts, [*starts[1:], len(row)]):
            total = 0
            for gene in row[start:end].tolist():
                total += gene
                expected.append(total % instance.period)
        assert decoded.tolist() == expected


def unread_columns(instance: Instance, constraints) -> list[int]:
    """Gene columns that no pairwise constraint depends on: those after the
    last column such a constraint reads in their train's section, and every
    column of a section it never reads."""
    column = instance.event_index.column
    read = {
        column[event]
        for c in constraints
        if c.kind in PAIR_KINDS
        for event in (c.earlier, c.later)
    }
    unread, start = [], 0
    for train in instance.trains:
        end = start + 2 * len(train.route)
        last = max((col for col in range(start, end) if col in read), default=start - 1)
        unread += range(last + 1, end)
        start = end
    return unread


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_genes_no_pair_reads_leave_the_counts(instance, seed):
    constraints = model.derive_bounds(instance)
    problem = engine.CompiledProblem(instance, constraints)
    rng = np.random.default_rng(seed)
    genes = problem.random_population(8, rng)
    redrawn = genes.copy()
    unread = unread_columns(instance, constraints)
    redrawn[:, unread] = problem.random_population(8, rng)[:, unread]
    before = problem.violation_counts(genes)
    after = problem.violation_counts(redrawn)
    assert all(np.array_equal(before[kind], after[kind]) for kind in ConstraintKind)


def test_some_instance_has_a_train_no_pair_reads():
    def has_unread_train(instance):
        read = {
            event.train
            for c in model.derive_bounds(instance)
            if c.kind in PAIR_KINDS
            for event in (c.earlier, c.later)
        }
        return any(train.id not in read for train in instance.trains)

    no_shrink = settings(derandomize=True, database=None, phases=[Phase.generate])
    find(instances(), has_unread_train, settings=no_shrink)


# the micro instances, cs1 and generated instances; the micros mostly stop
# at an optimum, cs1 and unsat_connection mostly at a limit
ga_instances = st.one_of(
    st.sampled_from(sorted(MICRO_BUILDERS)).map(lambda name: MICRO_BUILDERS[name]()),
    st.builds(functools.cache(build_cs1)),
    instances(),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ga_instances, st.integers(2, 40), st.integers(0, 2**32 - 1), st.data())
def test_anytime_answers_are_separate_runs(instance, population, seed, data):
    constraints = model.derive_bounds(instance)
    limits = data.draw(
        st.lists(st.integers(population, 12 * population), min_size=1, max_size=4, unique=True)
    )
    config = engine.GaConfig(
        population_size=population,
        max_evaluations=max(limits),
        seed=seed,
    )
    together = engine.run_anytime(instance, constraints, config, limits)
    for limit, result in zip(limits, together):
        alone = engine.run(
            instance, constraints, dataclasses.replace(config, max_evaluations=limit)
        )
        assert run_answer(result) == run_answer(alone)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(instances())
def test_derivation_holds_the_independent_checklist(instance):
    assert Counter(model.derive_bounds(instance)) == Counter(oracle._checklist(instance))


def _documented_key(c: model.PeriodicConstraint, column: dict) -> tuple:
    """The key `derive_bounds` documents for each family, preceded by the
    family's place in `ConstraintKind` order."""
    family = list(ConstraintKind).index(c.kind)
    if c.kind in (ConstraintKind.RUNNING, ConstraintKind.DWELL):
        return (family, c.later.train, column[c.later])
    if c.kind is ConstraintKind.CONNECTION:
        return (family, c.earlier.train, c.later.train, c.later.station)
    return (family, c.later.train, c.earlier.train, column[c.later])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(instances(), st.randoms(use_true_random=False))
def test_derivation_is_ordered_by_documented_keys(instance, rnd):
    # the order must not depend on how the instance lists its parts
    trains, connections = list(instance.trains), list(instance.connections)
    rnd.shuffle(trains)
    rnd.shuffle(connections)
    instance = dataclasses.replace(
        instance, trains=tuple(trains), connections=tuple(connections)
    )
    column = instance.event_index.column
    keys = [_documented_key(c, column) for c in model.derive_bounds(instance)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances())
def test_documents_round_trip(instance):
    text = dumps(instance)
    assert dumps(loads(text)) == text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1), st.integers(-100, 100))
def test_shift_keeps_family_counts(instance, seed, delta):
    constraints = model.derive_bounds(instance)
    tt = random_timetable(instance, np.random.default_rng(seed))
    shifted = model.shift_timetable(tt, delta)
    counts = model.evaluate(tt, constraints, instance.weights).violations_by_type
    assert model.evaluate(shifted, constraints, instance.weights).violations_by_type == counts
    assert oracle.check_independent(shifted, instance).violations_by_type == counts


def loop_evaluate(tt, constraints, weights):
    """`model.evaluate` as one Python step per constraint."""
    counts = {kind: 0 for kind in ConstraintKind}
    violated = []
    for c in constraints:
        raw = tt.of(c.later) - tt.of(c.earlier)
        if model.window_test(raw, c.lo, c.hi - c.lo, tt.period):
            counts[c.kind] += 1
            violated.append(model.Violation(c, raw % tt.period))
    return model.EvaluationReport(counts, model.weighted_fitness(counts, weights), tuple(violated))


def assert_evaluates_as_the_loop(tt, constraints, weights):
    report = model.evaluate(tt, constraints, weights)
    expected = loop_evaluate(tt, constraints, weights)
    assert report == expected
    assert all(a.constraint is b.constraint for a, b in zip(report.violated, expected.violated))
    assert {type(n) for n in report.violations_by_type.values()} == {int}
    assert all(type(v) is model.Violation and type(v.diff) is int for v in report.violated)
    assert type(report.weighted_fitness) is type(expected.weighted_fitness)


def flipped(c, tt):
    """``c`` with a window that reverses its verdict on ``tt``: exactly the
    current residue if violated, every other residue if not."""
    d = (tt.of(c.later) - tt.of(c.earlier)) % tt.period
    if model.window_test(d, c.lo, c.hi - c.lo, tt.period):
        return c._replace(lo=d, hi=d)
    return c._replace(lo=d + 1 - tt.period, hi=d - 1)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_evaluate_is_the_per_constraint_loop(instance, seed, rnd):
    constraints = model.derive_bounds(instance)
    rng = np.random.default_rng(seed)
    index = instance.event_index
    genes = rng.integers(index.gene_lo, index.gene_hi + 1)
    timetables = [
        random_timetable(instance, rng),
        codec.decode(codec.Genotype(tuple(genes.tolist())), instance),
    ]
    for weights in (instance.weights, WeightConfig(), FRACTIONAL):
        for tt in timetables:
            assert_evaluates_as_the_loop(tt, constraints, weights)

    # a dict timetable keyed by fresh events in shuffled order
    items = list(timetables[0].times.items())
    rnd.shuffle(items)
    fresh = Timetable(instance.period, {model.Event(*e): t for e, t in items})
    assert not any(e is index.events[index.column[e]] for e in fresh.times)
    assert_evaluates_as_the_loop(fresh, constraints, FRACTIONAL)
    tt = timetables[0]
    assert_evaluates_as_the_loop(tt, constraints, FRACTIONAL)

    # a list copy edited in place: one constraint replaced, then one appended
    constraints = list(constraints)
    i = rnd.randrange(len(constraints))
    constraints[i] = flipped(constraints[i], tt)
    assert_evaluates_as_the_loop(tt, constraints, FRACTIONAL)
    constraints.append(flipped(constraints[rnd.randrange(len(constraints))], tt))
    assert_evaluates_as_the_loop(tt, constraints, FRACTIONAL)


def error_text(call) -> str:
    with pytest.raises(MissingEvent) as info:
        call()
    return str(info.value)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1), st.data())
def test_missing_events_are_named_as_one_at_a_time(instance, seed, data):
    constraints = model.derive_bounds(instance)
    tt = random_timetable(instance, np.random.default_rng(seed))
    model.evaluate(tt, constraints, instance.weights)  # a cached plan for this list
    events = instance.event_index.events
    dropped = data.draw(st.sets(st.sampled_from(events), min_size=1))
    partial = Timetable(tt.period, {e: t for e, t in tt.times.items() if e not in dropped})
    assert error_text(
        lambda: model.evaluate(partial, constraints, instance.weights)
    ) == error_text(lambda: loop_evaluate(partial, constraints, instance.weights))
    first = next(e for e in events if e in dropped)
    assert error_text(lambda: oracle.check_independent(partial, instance)) == error_text(
        lambda: partial.of(first)
    )


BUILDERS = {
    "cs1": build_cs1,
    "cs2": lambda: load(bundled_path("cs2")),
    **MICRO_BUILDERS,
}
bundled_and_micro = st.sampled_from(sorted(BUILDERS)).map(
    functools.cache(lambda name: BUILDERS[name]())
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    bundled_and_micro,
    st.sampled_from([None, FRACTIONAL]),
    st.integers(0, 2**32 - 1),
    st.integers(-100, 100),
)
def test_decoded_timetables_act_as_their_dicts(
    tmp_path_factory, instance, weights, seed, delta
):
    # a timetable over the event index against a dict-built copy of it
    if weights is not None:
        instance = dataclasses.replace(instance, weights=weights)
    constraints = model.derive_bounds(instance)
    index = instance.event_index
    genes = np.random.default_rng(seed).integers(index.gene_lo, index.gene_hi + 1)
    decoded = codec.decode(codec.Genotype(tuple(genes.tolist())), instance)
    copy = Timetable(decoded.period, dict(decoded.times))
    assert type(decoded.times) is not dict and type(copy.times) is dict
    assert decoded == copy and copy == decoded

    reports = [model.evaluate(tt, constraints, instance.weights) for tt in (decoded, copy)]
    assert reports[0] == reports[1]
    assert type(reports[0].weighted_fitness) is type(reports[1].weighted_fitness)
    assert oracle.check_independent(decoded, instance) == oracle.check_independent(copy, instance)

    folder = tmp_path_factory.mktemp("timetables")
    for name, tt in (("decoded.json", decoded), ("copy.json", copy)):
        save_timetable(tt, folder / name)
    assert (folder / "decoded.json").read_bytes() == (folder / "copy.json").read_bytes()
    loaded = load_timetable(folder / "decoded.json", instance)
    assert loaded == copy and copy == loaded
    assert type(loaded.times) is type(decoded.times)

    thawed = [pickle.loads(pickle.dumps(tt)) for tt in (decoded, copy)]
    assert thawed[0] == thawed[1] == decoded
    assert type(thawed[0].times) is dict

    shifted = [model.shift_timetable(tt, delta) for tt in (decoded, copy)]
    assert shifted[0] == shifted[1] and shifted[1] == shifted[0]
    assert type(shifted[0].times) is type(decoded.times)
    assert model.expand_periods(shifted[0], 2) == model.expand_periods(shifted[1], 2)


DROP = object()
REQUIRED_KEYS = {
    "period", "stations", "trains",  # instance
    "id", "basic_headway", "route",  # train
    "from", "to", "running", "dwell_after",  # trip; segments need from/to
    "feeder", "onward", "station", "window",  # connection
}
WINDOW_KEYS = {"running", "dwell_after", "window"}
OTHER_TYPE = {str: 7, int: "7", float: "7", bool: "yes", list: {}, dict: []}


def _nodes(node, path=()):
    """(path, value) of every value below a JSON document node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _key(path: tuple) -> str | None:
    """The key a message must name when an edit at `path` breaks the
    document's schema: the last key, unless that is a list position."""
    return path[-1] if isinstance(path[-1], str) else None


def _invalidating_edits(doc) -> list[tuple[tuple, object, str | None]]:
    """Single edits (path, new value or DROP, the key its message names) of
    a valid instance document that each make it invalid: a dropped required
    key, a value of the wrong type, an outsized integer, a swapped window,
    an unknown train. Edits that keep the schema and break the network name
    no key; neither does a dropped dwell window, which only an intermediate
    trip needs."""
    edits = []
    for path, value in _nodes(doc):
        edits.append((path, OTHER_TYPE[type(value)], _key(path)))
        if type(value) is int:
            edits += [(path, model.INT_CAP, None), (path, 10**30, None)]
        if path[0] == "weights":  # every weight is optional and a number
            continue
        if path[-1] in REQUIRED_KEYS:
            edits.append((path, DROP, None if path[-1] == "dwell_after" else path[-1]))
        if path[-1] in WINDOW_KEYS and value[0] != value[1]:
            edits.append((path, value[::-1], None))
    for k in range(len(doc["connections"])):
        edits += [(("connections", k, role), "ghost", None) for role in ("feeder", "onward")]
    return edits


def _apply(doc, path: tuple, value) -> None:
    """Set the value at `path`, drop it (DROP), or append it to a list
    when the last key is the list's length."""
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DROP:
        del parent[path[-1]]
    elif isinstance(parent, list) and path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value


def _assert_named(error: TimetablingError, key: str | None) -> None:
    assert type(error) is not TimetablingError
    if key is not None:
        assert key in str(error), (key, str(error))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances(), st.data())
def test_mutated_documents_raise_named_errors(instance, data):
    doc = json.loads(dumps(instance))
    path, value, key = data.draw(st.sampled_from(_invalidating_edits(doc)))
    _apply(doc, path, value)
    with pytest.raises(TimetablingError) as info:
        loads(json.dumps(doc))
    _assert_named(info.value, key)


def _invalidating_timetable_edits(doc) -> list[tuple[tuple, object, str | None]]:
    """Single edits of a valid timetable document that each make it
    invalid: a dropped key or event, a value of the wrong type, a time out
    of range, an unknown train, station or kind, a duplicated event, a
    mismatched period, an extra key. As for instances, the third item is
    the key the message must name."""
    period, events = doc["period"], doc["events"]
    edits = [
        (("period",), period + 1, None),
        (("extra",), 0, "extra"),
        (("events", len(events)), events[0], None),
    ]
    for path, value in _nodes(doc):
        edits += [(path, OTHER_TYPE[type(value)], _key(path)), (path, DROP, _key(path))]
        if path[-1] == "time":
            edits += [(path, -1, None), (path, period, None), (path, 10**30, None)]
        if path[-1] in ("train", "station", "kind"):
            edits.append((path, "ghost", None))
        if len(path) == 2:  # an event
            edits.append((path + ("extra",), 0, "extra"))
    return edits


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 2**32 - 1), st.data())
def test_mutated_timetable_documents_raise_named_errors(
    tmp_path_factory, instance, seed, data
):
    path = tmp_path_factory.mktemp("timetable") / "tt.json"
    tt = random_timetable(instance, np.random.default_rng(seed))
    save_timetable(tt, path)
    assert load_timetable(path, instance) == tt
    doc = json.loads(path.read_text())
    edit, value, key = data.draw(st.sampled_from(_invalidating_timetable_edits(doc)))
    _apply(doc, edit, value)
    path.write_text(json.dumps(doc))
    with pytest.raises(TimetablingError) as info:
        load_timetable(path, instance)
    _assert_named(info.value, key)
