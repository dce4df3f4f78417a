"""Campaign plumbing: fingerprints, the sharded run, and shard entry points.

:func:`run_campaign` is the one way a campaign executes: a shard plan,
a :class:`repro.runner.executor.ShardExecutor` (in-process for
``parallelism`` ``None`` or 1, a process pool above), optional
checkpoints, and one merged metrics snapshot.  :class:`CellMatrix`
declares the scenario matrices (§6.1 DDoS tiers, §6.2 controlled runs,
prefetch, ECS, push) as a product of axes, one cell per shard, run by
the single :func:`cell_shard`.

Worker processes cannot ship a live simulated Internet across a pipe, so
each shard *derives* its slice of the campaign from the shard seed: a
world leased from the per-process :mod:`repro.runner.worldcache` (built
once per worker, then reset to the shard seed instead of reconstructed),
a fresh probe population covering only the shard's unit range (probe ids
offset by ``shard.start`` so merged ids stay globally unique), and a
fresh measurement.  Everything a shard does is a pure function of
``(shard, kwargs)`` — the determinism contract of
:mod:`repro.runner.shard` — so any worker, any worker count, and any
resume order produce byte-identical shard outputs.  Seeded world reset
is exactly equivalent to a rebuild because world *structure* never
depends on the seed (asserted by the worldcache tests).

Shard return values are :func:`repro.runner.codec.encode_shard_payload`
envelopes; :func:`run_campaign` decodes them after the executor returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.runner.codec import PAYLOAD_VERSION as SHARD_PAYLOAD_VERSION
from repro.runner.codec import encode_shard_payload
from repro.runner.shard import Shard

__all__ = [
    "CELL_FUNCTIONS",
    "CellMatrix",
    "cell_shard",
    "centricity_shard",
    "crawl_shard",
    "campaign_fingerprint",
    "run_campaign",
    "SHARD_PAYLOAD_VERSION",
]


def campaign_fingerprint(kind: str, **params: Any) -> dict[str, Any]:
    """The JSON-able identity of a campaign, used to guard run dirs."""
    return {
        "kind": kind,
        "payload_version": SHARD_PAYLOAD_VERSION,
        "params": dict(sorted(params.items())),
    }


def run_campaign(
    campaign: str,
    fingerprint: dict,
    fn,
    kwargs: dict,
    *,
    total_units: int,
    seed: int,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
    initializer=None,
    initargs: tuple = (),
):
    """Run ``fn`` over a campaign's shard plan and merge the outcomes.

    ``parallelism`` ``None`` or 1 runs the shards in-process; either way
    the shard plan depends only on ``(total_units, shards, seed)``, so
    results are identical for every worker count — the runner's
    determinism contract.  With ``shards`` unset the plan uses the fixed
    :data:`repro.runner.shard.DEFAULT_SHARDS`, never the worker count,
    so that contract holds for the defaults too.

    ``run_dir`` checkpoints completed shards under ``fingerprint``;
    ``profile`` dumps per-shard cProfile stats to
    ``f"{profile}.shard-NNNN"``; ``initializer``/``initargs`` run once
    per worker process (world-cache prewarm).

    Returns ``(values, metrics)``: each shard's payload in shard order,
    decoded to ``{"results", "queries", "metrics"}``, plus one merged
    :class:`repro.metrics.MetricsSnapshot` — the shards' sim-domain
    metrics folded exactly, with the executor's host-domain telemetry
    (wall times, retries, checkpoint hits) alongside.
    """
    from repro.metrics.registry import MetricsRegistry
    from repro.runner.checkpoint import CheckpointStore
    from repro.runner.codec import decode_shard_payload
    from repro.runner.executor import ShardExecutor
    from repro.runner.merge import merge_shard_metrics
    from repro.runner.progress import ProgressTracker
    from repro.runner.shard import DEFAULT_SHARDS, plan_shards

    num_shards = shards if shards is not None else DEFAULT_SHARDS
    host_registry = MetricsRegistry()
    executor = ShardExecutor(
        parallelism=1 if parallelism is None else parallelism,
        checkpoint=(
            CheckpointStore(run_dir, fingerprint) if run_dir is not None else None
        ),
        tracker=ProgressTracker(campaign=campaign, callback=progress),
        metrics=host_registry,
        initializer=initializer,
        initargs=initargs,
        profile_path=profile,
    )
    outcomes = executor.run(fn, plan_shards(total_units, num_shards, seed), kwargs)
    values = [decode_shard_payload(outcome.value) for outcome in outcomes]
    metrics = merge_shard_metrics(values).merge(host_registry.snapshot())
    return values, metrics


# ------------------------------------------------------------- centricity


#: World builders a centricity shard may use, by name (names, not
#: callables, cross the process boundary).
def _world_builders():
    from repro.core.worlds import build_googleco_world, build_uy_world

    return {"uy": build_uy_world, "googleco": build_googleco_world}


def centricity_shard(
    shard: Shard,
    *,
    builder: str,
    world_kwargs: dict[str, Any],
    spec_kwargs: dict[str, Any],
    qtype_name: str,
    fault_plan: Optional[dict[str, Any]] = None,
    predict: bool = False,
    snapshot: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Run one shard of an active centricity campaign (§3.2/§3.3).

    Leases the shard's world from the per-process
    :mod:`repro.runner.worldcache` (reset to ``shard.seed`` rather than
    rebuilt), attaches a population of ``shard.count`` probes whose ids
    start at ``shard.start``, and runs the measurement spec against
    every vantage point.  Returns a
    :func:`repro.runner.codec.encode_shard_payload` envelope — the
    shard's sim-domain metrics snapshot rides along so the merged
    campaign observes the whole simulated world exactly.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan` payload) schedules
    the same failures in every shard; the injector RNG is derived from
    the plan seed *and* ``shard.seed``, so per-shard draws are
    independent yet reproducible for any worker count.

    ``snapshot`` configures mid-shard world-snapshot/resume (not part
    of the campaign fingerprint — it changes *when* state hits disk,
    never the results)::

        {"run_dir": path, "fingerprint": dict, "every": int,
         "crash_after": int | None, "crash_hard": bool}

    With ``every > 0`` the measurement kernel checkpoints the whole
    world-level campaign state (measurement + run state + metrics
    registry, one pickled graph) every ``every`` queries.  If a
    snapshot exists when the shard starts, the run resumes from it —
    worldcache bypassed, the pickled world already carries the exact
    mid-run RNG/cache/fault state.  ``crash_after``/``crash_hard`` are
    test hooks: after the first snapshot at or past that query count a
    fresh (non-resumed) run raises (or ``os._exit(2)`` when hard,
    killing the pool worker) so the resume path can be exercised.
    """
    from repro.atlas.measurement import Measurement, MeasurementSpec
    from repro.core.experiment import make_population
    from repro.dns.rdtypes import RdataType
    from repro.metrics.registry import MetricsRegistry
    from repro.runner import worldcache

    config = snapshot or {}
    every = int(config.get("every") or 0)
    store = None
    if config.get("run_dir") is not None:
        from repro.runner.checkpoint import CheckpointStore

        store = CheckpointStore(config["run_dir"], config["fingerprint"])

    measurement = None
    state = None
    registry = None
    if store is not None:
        snap = store.load_world_snapshot(shard.index)
        if snap is not None:
            measurement = snap["measurement"]
            state = snap["state"]
            registry = snap["registry"]
    resumed = measurement is not None
    if not resumed:
        registry = MetricsRegistry()
        built = worldcache.lease(
            worldcache.cache_key(builder, world_kwargs),
            lambda: _world_builders()[builder](shard.seed, **world_kwargs),
            seed=shard.seed,
        )
        world = getattr(built, "world", built)
        world.network.attach_metrics(registry)
        if fault_plan is not None:
            from repro.faults import FaultInjector, FaultPlan

            world.network.attach_faults(
                FaultInjector(FaultPlan.from_payload(fault_plan), seed=shard.seed)
            )
        population = make_population(
            world, probes=shard.count, seed=shard.seed, probe_id_base=shard.start,
            predict=predict,
        )
        spec = MeasurementSpec(qtype=RdataType[qtype_name], **spec_kwargs)
        measurement = Measurement(
            spec=spec, vantage_points=population.vantage_points(), seed=shard.seed
        )

    checkpoint_cb = None
    if store is not None and every > 0:
        crash_after = config.get("crash_after")
        crash_hard = bool(config.get("crash_hard"))

        def checkpoint_cb(run_state):
            store.save_world_snapshot(
                shard.index,
                {
                    "measurement": measurement,
                    "state": run_state,
                    "registry": registry,
                },
            )
            if crash_after is not None and not resumed and run_state.position >= crash_after:
                if crash_hard:
                    import os

                    os._exit(2)
                raise RuntimeError(
                    f"injected crash after {run_state.position} queries (test hook)"
                )

    results = measurement.run(
        resume=state, checkpoint_every=every, checkpoint=checkpoint_cb
    )
    if store is not None:
        # The shard is complete: its mid-run snapshot is obsolete (and
        # the executor is about to spill the final payload anyway).
        store.discard_world_snapshot(shard.index)
    return encode_shard_payload(
        results=results,
        queries=len(results),
        metrics=registry.snapshot().to_payload(),
    )


# ------------------------------------------------------------- cell matrices


#: Cell functions a matrix shard may run: registered name -> attribute of
#: :mod:`repro.core.scenarios` (names, not callables, cross the process
#: boundary).  Each takes its cell's parameters plus ``metrics=`` and
#: returns a result whose ``queries`` counts the simulated queries.
CELL_FUNCTIONS = {
    "controlled": "_run_controlled",
    "ddos": "_run_ddos_tier",
    "ecs": "_run_ecs_cell",
    "prefetch": "_run_prefetch_cell",
    "push": "_run_push_cell",
}


def cell_shard(
    shard: Shard, *, cell_fn: str, cells: list[dict[str, Any]]
) -> dict[str, Any]:
    """Run one cell of a :class:`CellMatrix` (one shard per cell).

    ``cells[shard.index]`` carries exactly the arguments the registered
    cell function receives, so every worker count — and the in-process
    path — runs the same call with a fresh metrics registry.
    """
    from repro.core import scenarios
    from repro.metrics.registry import MetricsRegistry

    run_cell = getattr(scenarios, CELL_FUNCTIONS[cell_fn])
    registry = MetricsRegistry()
    result = run_cell(**cells[shard.index], metrics=registry)
    return encode_shard_payload(
        results=result,
        queries=result.queries,
        metrics=registry.snapshot().to_payload(),
    )


@dataclass(frozen=True)
class CellMatrix:
    """A campaign of independent cells: the product of its axes.

    ``axes`` maps each axis name to its values, outermost axis first;
    ``known`` lists the admissible values of the closed axes (modes,
    plans).  Cell ``i`` of the product is ``{axis: value, ...,
    "seed": seed + i, **fixed}`` and runs as shard ``i`` through
    :func:`cell_shard` — one path for every worker count, in-process
    included.  ``label`` names the matrix in error messages.
    """

    kind: str
    label: str
    cell_fn: str
    axes: dict[str, tuple]
    fixed: dict[str, Any] = field(default_factory=dict)
    known: dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"{self.label} matrix needs >= 1 {axis}")
            known = self.known.get(axis, values)
            for value in values:
                if value not in known:
                    raise ValueError(
                        f"unknown {self.label} {axis} {value!r} "
                        f"(have: {', '.join(map(str, known))})"
                    )

    def cells(self, seed: int) -> list[dict[str, Any]]:
        """Every cell's parameters, in shard order."""
        return [
            {**dict(zip(self.axes, values)), "seed": seed + index, **self.fixed}
            for index, values in enumerate(itertools.product(*self.axes.values()))
        ]

    def run(
        self,
        seed: int,
        *,
        parallelism: Optional[int] = None,
        run_dir: Optional[str] = None,
        progress=None,
        profile: Optional[str] = None,
    ):
        """Run every cell; returns ``(values, metrics)`` as :func:`run_campaign`."""
        cells = self.cells(seed)
        return run_campaign(
            self.kind,
            campaign_fingerprint(self.kind, seed=seed, cells=cells),
            cell_shard,
            {"cell_fn": self.cell_fn, "cells": cells},
            total_units=len(cells),
            seed=seed,
            parallelism=parallelism,
            shards=len(cells),
            run_dir=run_dir,
            progress=progress,
            profile=profile,
        )


# ------------------------------------------------------------- crawl


def crawl_shard(
    shard: Shard,
    *,
    scale: float,
    seed: int,
    lists: Optional[list[str]],
    timeout: float = 1.0,
) -> dict[str, Any]:
    """Crawl one contiguous slice of the generated list universe.

    The universe — identical in every shard — is leased from the
    per-process :mod:`repro.runner.worldcache` (built once per worker
    from ``(scale, seed, lists)``, reset between shards) and the shard
    crawls ``domains[start:stop]``.  Returns a codec envelope so the
    executor's progress telemetry can count simulated queries and the
    merged campaign carries an exact metrics snapshot.
    """
    from repro.crawler.crawl import Crawler
    from repro.metrics.registry import MetricsRegistry
    from repro.runner import worldcache

    def build():
        from repro.crawler.toplists import build_crawl_universe

        return build_crawl_universe(scale=scale, seed=seed, lists=lists)

    registry = MetricsRegistry()
    universe = worldcache.lease(
        worldcache.cache_key(
            "crawl_universe", {"scale": scale, "seed": seed, "lists": lists}
        ),
        build,
        seed=seed,
    )
    universe.network.attach_metrics(registry)
    crawler = Crawler(universe, timeout=timeout)
    result = crawler.crawl(universe.domains[shard.start : shard.stop])
    return encode_shard_payload(
        results=result,
        queries=crawler.queries_sent,
        metrics=registry.snapshot().to_payload(),
    )
