"""The scenario matrices share one cell runner: repro.runner.campaigns.CellMatrix."""

import pytest

from repro.core.scenarios import (
    _CONTROLLED_RUNS,
    scenario_controlled_ttl,
    scenario_ddos_resilience,
    scenario_ecs_cdn,
    scenario_prefetch_tradeoff,
    scenario_push_vs_poll,
)
from repro.runner.campaigns import CellMatrix


def controlled_matrix(parallelism=None, label=()):
    """The controlled matrix with a chosen label axis.

    scenario_controlled_ttl always runs all five §6.2 runs, so its axis
    cannot be emptied or misspelt through the scenario.
    """
    return CellMatrix(
        kind="controlled-ttl", label="controlled", cell_fn="controlled",
        axes={"label": label}, known={"label": tuple(_CONTROLLED_RUNS)},
    ).run(0, parallelism=parallelism)


#: matrix -> (scenario, empty-axis arguments, unknown-value arguments).
BAD_AXES = {
    "ddos": (scenario_ddos_resilience, {"ttls": ()}, None),
    "prefetch": (scenario_prefetch_tradeoff, {"modes": ()}, {"modes": ("turbo",)}),
    "ecs": (scenario_ecs_cdn, {"ttls": ()}, {"modes": ("hybrid",)}),
    "push": (scenario_push_vs_poll, {"plans": ()}, {"plans": ("meteor",)}),
    "controlled": (controlled_matrix, {"label": ()}, {"label": ("TTL5-u",)}),
}

CASES = [
    pytest.param(matrix, which, id=f"{matrix}-{which}")
    for matrix, (_, empty, unknown) in BAD_AXES.items()
    for which, kwargs in (("empty", empty), ("unknown", unknown))
    if kwargs is not None
]


@pytest.mark.parametrize("matrix,which", CASES)
def test_bad_axis_raises_the_same_error_on_every_path(matrix, which):
    scenario, empty, unknown = BAD_AXES[matrix]
    kwargs = empty if which == "empty" else unknown
    messages = []
    for parallelism in (None, 1):
        with pytest.raises(ValueError) as caught:
            scenario(parallelism=parallelism, **kwargs)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert ("needs >= 1" if which == "empty" else "unknown") in messages[0]


def test_cells_are_the_axis_product_with_offset_seeds():
    matrix = CellMatrix(
        kind="k", label="k", cell_fn="ddos",
        axes={"serve_stale": (False, True), "ttl": (60, 300)},
        fixed={"attack_seconds": 600.0},
    )
    assert matrix.cells(seed=10) == [
        {"serve_stale": False, "ttl": 60, "seed": 10, "attack_seconds": 600.0},
        {"serve_stale": False, "ttl": 300, "seed": 11, "attack_seconds": 600.0},
        {"serve_stale": True, "ttl": 60, "seed": 12, "attack_seconds": 600.0},
        {"serve_stale": True, "ttl": 300, "seed": 13, "attack_seconds": 600.0},
    ]


def test_one_shard_done_per_cell():
    events = []
    scenario_ddos_resilience(
        ttls=(60, 86400), attack_seconds=600.0, progress=events.append
    )
    done = [event.shard_index for event in events if event.status == "shard-done"]
    assert done == [0, 1, 2, 3]


def test_controlled_runs_always_carry_metrics():
    runs = scenario_controlled_ttl(seed=3, probes=4, duration=600.0)
    assert all(run.metrics is not None for run in runs.values())
    assert all(len(run.metrics) > 0 for run in runs.values())
