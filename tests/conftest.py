"""Shared fixtures: bundled networks and a zoo of hand-sized instances
small enough for exhaustive enumeration."""

import pytest

from perisched.model import (
    ConnectionSpec,
    Instance,
    Segment,
    Timetable,
    Train,
    Trip,
    WeightConfig,
)


def make_instance(period, trains, segments=(), connections=(), weights=None):
    stations = []
    for train in trains:
        for trip in train.route:
            for s in (trip.from_station, trip.to_station):
                if s not in stations:
                    stations.append(s)
    return Instance(
        period=period,
        stations=tuple(sorted(stations)),
        segments=tuple(segments),
        trains=tuple(trains),
        connections=tuple(connections),
        weights=weights or WeightConfig(),
    )


def random_timetable(instance, rng):
    """Uniform random canonical time for every event of the instance."""
    events = instance.event_index.events
    times = rng.integers(0, instance.period, size=len(events))
    return Timetable(instance.period, dict(zip(events, times.tolist())))


@pytest.fixture(scope="session")
def cs1():
    from perisched.instances import build_cs1

    return build_cs1()


@pytest.fixture(scope="session")
def cs2():
    from perisched.instances import generate_cs2_like

    return generate_cs2_like(0)


def micro_single_track():
    """Two opposing trains over one single-track segment; solvable."""
    return make_instance(
        12,
        trains=[
            Train("X", 1, (Trip("A", "B", 3, 4),)),
            Train("Y", 1, (Trip("B", "A", 3, 4),)),
        ],
        segments=[Segment("A", "B", single_track=True)],
    )


def micro_headway_connection():
    """Two trains sharing a directed trip, plus a transfer; solvable."""
    return make_instance(
        12,
        trains=[
            Train("P", 2, (Trip("A", "B", 3, 4, 1, 2), Trip("B", "C", 3, 4))),
            Train("Q", 2, (Trip("A", "B", 4, 5),)),
        ],
        connections=[ConnectionSpec("Q", "P", "B", 1, 3)],
    )


def micro_three_trains():
    """Three trains exercising all five families at once."""
    return make_instance(
        12,
        trains=[
            Train("X", 1, (Trip("A", "B", 3, 4, 1, 2), Trip("B", "C", 3, 3))),
            Train("Y", 1, (Trip("C", "B", 3, 3, 1, 1), Trip("B", "A", 3, 3))),
            Train("Z", 1, (Trip("A", "B", 3, 4),)),
        ],
        segments=[Segment("B", "C", single_track=True)],
        connections=[ConnectionSpec("Z", "Y", "B", 2, 5)],
    )


def micro_unsat_connection():
    """Rigid opposing trains on a single track whose transfer window is
    unreachable: the single-track windows pin the relative phase to a
    band where the feeder-to-onward gap stays in [7, 11], but the
    connection asks for [2, 4]. Optimum violates exactly the connection.
    """
    return make_instance(
        12,
        trains=[
            Train("X", 1, (Trip("A", "B", 3, 3),)),
            Train("Y", 1, (Trip("B", "A", 3, 3),)),
        ],
        segments=[Segment("A", "B", single_track=True)],
        connections=[ConnectionSpec("X", "Y", "B", 2, 4)],
    )


def micro_mutual_transfers():
    """Two trains meeting mid-route with transfers both ways; solvable."""
    return make_instance(
        12,
        trains=[
            Train("X", 1, (Trip("A", "B", 3, 4, 1, 2), Trip("B", "C", 3, 4))),
            Train("Y", 1, (Trip("C", "B", 3, 3, 1, 2), Trip("B", "A", 3, 3))),
        ],
        connections=[
            ConnectionSpec("X", "Y", "B", 1, 4),
            ConnectionSpec("Y", "X", "B", 1, 4),
        ],
    )


MICRO_BUILDERS = {
    "single_track": micro_single_track,
    "headway_connection": micro_headway_connection,
    "three_trains": micro_three_trains,
    "unsat_connection": micro_unsat_connection,
    "mutual_transfers": micro_mutual_transfers,
}


@pytest.fixture(params=sorted(MICRO_BUILDERS))
def micro_instance(request):
    return MICRO_BUILDERS[request.param]()


def run_answer(result):
    """What a run answers, all but its timing: the fields a run read off a
    longer one must share with a separate run to the same budget."""
    return (
        result.best_genotype,
        result.best_fitness,
        result.hard_violations,
        result.soft_violations,
        result.evaluations_used,
        result.terminated_by,
        result.generations,
    )
