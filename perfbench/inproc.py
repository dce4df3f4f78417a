"""One repetition of an in-process workload, in a process of its own.

    python3 perfbench/inproc.py {campaign-uy|matrix-mix} --seed N [--trace PATH] [--setup-only]

Run from the root of a checkout.  The process imports the program,
prints ``ready`` (the end of set-up: ``run.py`` times spawn -> ready),
runs the workload through its public ``scenario_*`` entry points with
the runner's serial path, checks the outputs, and prints one JSON line
(with ``--setup-only`` it stops after ``ready``).
With ``--trace`` the layer wrappers from :mod:`tracing` are installed
before the timed call and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from procs import vmhwm_mb  # noqa: E402
from yardstick import calibrate  # noqa: E402

#: campaign-uy: .uy NS every 10 min for 10 h, 8 shards.  250 probes
#: (~20k queries) rather than the 2000 of the paper-scale campaign, so
#: that one run holds twelve repetitions for the best-of-N estimate.
CAMPAIGN = {"probes": 250, "duration": 36000.0, "shards": 8}
#: Yardstick samples at each of a campaign's nine shard boundaries, so
#: its repetitions read the host about as often as a matrix pass (one
#: at each of 53 boundaries) does: the loop's speed is bimodal, and a
#: median of nine samples flips between the modes.
CAMPAIGN_READINGS = 10

#: The program's own counters read alongside the spans (summed when
#: labelled).
COUNTERS = (
    "resolver.client_queries", "resolver.upstream_queries",
    "cache.hits", "cache.misses", "cache.size_peak",
    "net.retries", "net.timeouts", "faults.injected",
    "push.notifications", "predict.refreshes",
    "serve.queries", "serve.memo_hits", "serve.shed", "serve.inflight_peak",
)


def counters(snapshot) -> dict[str, float]:
    found = {}
    for name in COUNTERS:
        if name in snapshot.metrics:
            value = snapshot.value(name)
            found[name] = sum(value.values()) if isinstance(value, dict) else value
    return found


def digest(snapshot) -> str:
    """sha256 of a snapshot's canonical (sim-domain) metrics JSON."""
    return hashlib.sha256(snapshot.to_json().encode()).hexdigest()


def timed_call(scenario, calibration: list[float], readings: int = 1, **kwargs):
    """Call a scenario through the runner's serial path and time it.

    Returns ``(run, unit_ms, troubles)``.  The units are each shard's
    wall, from the runner's progress events, then the rest of the call
    (planning before the first shard; decoding, merging and summarising
    after the last), so they add up to the whole call's wall.  At each
    shard boundary the host-speed yardstick is timed ``readings`` times
    into ``calibration``; that time is left out of the units.
    ``troubles`` counts retried or failed shards.
    """
    walls, troubles = [], 0
    paused = 0.0
    started = time.perf_counter()
    last = started

    def progress(event) -> None:
        nonlocal troubles, paused, last
        if event.status == "shard-done":
            now = time.perf_counter() - paused
            walls.append((now - last) * 1000.0)
            last = now
            for _ in range(readings):
                paused += calibrate(calibration)
        elif event.status in ("shard-retry", "shard-failed"):
            troubles += 1

    run = scenario(parallelism=1, progress=progress, **kwargs)
    walls.append((time.perf_counter() - paused - last) * 1000.0)
    return run, walls, troubles


def run_campaign(seed: int) -> dict:
    from repro.core.scenarios import scenario_uy_ns

    calibration: list[float] = []
    for _ in range(CAMPAIGN_READINGS):
        calibrate(calibration)
    started = time.perf_counter()
    run, walls, troubles = timed_call(scenario_uy_ns, calibration, CAMPAIGN_READINGS,
                                      seed=seed, **CAMPAIGN)
    wall = time.perf_counter() - started
    summary = run.summary
    breakdown = run.breakdown
    queries = summary["queries"]
    checks = {
        "every response valid": summary["responses_valid"] == queries,
        "no timeouts": summary["timeouts"] == 0,
        "child-centric share > 0.8": breakdown.child_fraction > 0.8,
        "parent-centric share in (0.01, 0.25)": 0.01 < breakdown.parent_fraction < 0.25,
        "full parent TTL share < 0.1": breakdown.full_parent_fraction < 0.1,
        "no retried or failed shard": troubles == 0,
    }
    return {
        "attempted": queries,
        "failed": summary["timeouts"] + (queries - summary["responses_valid"]) + troubles,
        "wall_s": wall,
        "rate": queries / wall,
        "unit_ms": walls,
        "calibration_ms": calibration,
        "checks": checks,
        "digests": {"uy-NS": digest(run.metrics)},
        "counters": counters(run.metrics),
    }


def _matrix_checks(family: str, run) -> dict[str, bool]:
    """Each family's headline inequality, as its tier-1 tests state it."""
    if family == "ddos":
        plain = run.availability_profile(serve_stale=False)
        stale = run.availability_profile(serve_stale=True)
        return {
            "ddos: availability climbs with TTL": plain[min(plain)] < plain[max(plain)],
            "ddos: serve-stale answers every tier": all(v == 1.0 for v in stale.values()),
        }
    if family == "prefetch":
        return {
            "prefetch: refresh-ahead lifts TTL-60 hit rate":
                run.cell("ahead", 60).hit_rate > run.cell("off", 60).hit_rate,
        }
    if family == "ecs":
        ttls = sorted({cell.ttl for cell in run.cells})
        return {
            "ecs: public resolver misroutes without ECS":
                all(run.cell("public", ttl).local_site_rate < 1.0 for ttl in ttls),
            "ecs: ECS restores local routing":
                all(run.cell("public-ecs", ttl).local_site_rate == 1.0 for ttl in ttls),
        }
    if family == "push":
        return {
            "push: push@86400 posts fewer auth queries than poll@60":
                run.cell("renumbering", "push", 86400).auth_queries
                < run.cell("renumbering", "poll", 60).auth_queries,
        }
    return {
        "controlled: TTL 60 draws more auth queries than TTL 86400":
            run["TTL60-u"].auth_queries > run["TTL86400-u"].auth_queries,
    }


def run_matrix(seed: int) -> dict:
    from repro.core import scenarios
    from repro.metrics import merge_snapshots

    families = [
        ("ddos", scenarios.scenario_ddos_resilience),
        ("prefetch", scenarios.scenario_prefetch_tradeoff),
        ("ecs", scenarios.scenario_ecs_cdn),
        ("push", scenarios.scenario_push_vs_poll),
        ("controlled", scenarios.scenario_controlled_ttl),
    ]
    walls, checks, digests, snapshots = [], {}, {}, []
    cells = troubles = 0
    calibration: list[float] = []
    calibrate(calibration)
    started = time.perf_counter()
    for family, scenario in families:
        run, family_walls, family_troubles = timed_call(scenario, calibration, seed=seed)
        cells += len(family_walls) - 1
        walls.extend(family_walls)
        troubles += family_troubles
        checks.update(_matrix_checks(family, run))
        if isinstance(run, dict):
            snapshot = merge_snapshots([part.metrics for part in run.values()])
        else:
            snapshot = run.metrics
        digests[family] = digest(snapshot)
        snapshots.append(snapshot)
    wall = time.perf_counter() - started
    checks["no retried or failed cell"] = troubles == 0
    return {
        "attempted": cells,
        "failed": troubles + sum(not ok for ok in checks.values()),
        "wall_s": wall,
        "rate": cells / wall,
        "unit_ms": walls,
        "calibration_ms": calibration,
        "checks": checks,
        "digests": digests,
        "counters": counters(merge_snapshots(snapshots)),
    }


WORKLOADS = {"campaign-uy": run_campaign, "matrix-mix": run_matrix}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (run.py times set-up alone)")
    args = parser.parse_args(argv)

    import repro.core.scenarios  # noqa: F401  (set-up: imports)
    import repro.runner.campaigns  # noqa: F401

    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
        result["layers"] = tracer.summary()
        result["tallies"] = tracer.tallies
    result["rss_mb"] = vmhwm_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
