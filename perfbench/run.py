"""The repo benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
(nothing is built or installed).  Workloads:

* ``campaign-uy``  -- the .uy NS centricity campaign through the runner;
* ``serve-hot``    -- ``repro serve`` under Zipf load on prewarmed names;
* ``serve-unique`` -- ``repro serve`` under never-seen names (NXDOMAIN);
* ``matrix-mix``   -- one pass of the five scenario matrices.

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer ones.
Human-readable lines before it give checks, digests, sample counts and
the bases of every ratio.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from procs import read_lines_until  # noqa: E402
from stats import median, tail_percentile, upper_decile  # noqa: E402
from tracing import span_names  # noqa: E402
import yardstick  # noqa: E402

WORKLOADS = ("campaign-uy", "serve-hot", "serve-unique", "matrix-mix")
#: Fewest repetitions of an in-process workload in one run; beyond them
#: a run starts another only while it would end within ``--seconds``.
MIN_ROUNDS = 3
#: Plain/traced repetition pairs behind a traced in-process run.
TRACE_PAIRS = 2
REP_TIMEOUT_S = 150.0
SCRATCH = ".perfbench"


class BenchmarkError(RuntimeError):
    pass


# ---------------------------------------------------------------- reporting


def line(name: str, value, unit: str = "", note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:44s} {shown:>14} {unit}".rstrip() + (f"  ({note})" if note else ""))


def tail(values: list[float]) -> tuple[float, str]:
    """The tail latency and how it was taken (percentile rule, else max)."""
    found = tail_percentile(values)
    if found is None:
        return max(values), f"max of n={len(values)}"
    pct, value = found
    return value, f"p{pct} of n={len(values)}"


def report_measured(throughput: float, unit: str, setups: list[tuple[float, float]]) -> None:
    """Print the figures as measured, before quoting at the reference speed."""
    line("measured throughput", throughput, unit, "on this run's host; not gated")
    line("measured setup_s", median([measured for measured, _ in setups]), "s",
         "on this run's host; not gated")


def ratio(top: float, base: float) -> float:
    return top / base if base else 0.0


# ---------------------------------------------------- in-process workloads


def spawn_rep(workload: str, seed: int, hash_seed: int, trace: str = "",
              setup_only: bool = False) -> tuple[float, dict | None]:
    """One repetition in a fresh process: ``(setup_s, result)``.

    With ``setup_only`` the process stops after set-up and the result
    is ``None``.
    """
    command = [sys.executable, os.path.join(HERE, "inproc.py"), workload,
               "--seed", str(seed)]
    if trace:
        command += ["--trace", trace]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
               PYTHONHASHSEED=str(hash_seed))
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, bufsize=0)
    try:
        read_lines_until(proc, lambda text: text == "ready", REP_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        result = None
        if not setup_only:
            lines = read_lines_until(proc, lambda text: text.startswith("{"), REP_TIMEOUT_S)
            result = json.loads(lines[-1])
        if proc.wait(timeout=REP_TIMEOUT_S) != 0:
            raise BenchmarkError(f"{workload} repetition exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return setup_s, result


def report_checks(checks: dict[str, bool], digests: dict[str, str]) -> bool:
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in digests.items():
        print(f"digest {name} sha256 {value}")
    return all(checks.values())


def best_units(results: list[dict], scaled: bool) -> list[float]:
    """Each unit's fastest wall across repetitions of identical work.

    On a shared VM the CPU speed moves by up to 2x from one moment to
    the next (a fixed 5-ms loop takes 3.5 to 7 ms on a 2-vCPU Xeon VM,
    as other tenants load the physical cores under its vCPUs).  A
    median of whole repetitions reports how busy the host was; the
    fastest of N repetitions per shard or cell reports what the work
    costs.  With
    ``scaled`` each repetition's walls are first quoted at the reference
    host speed by that repetition's own yardstick reading.  The units
    of one repetition add up to the wall of its scenario calls.
    """
    counts = {len(result["unit_ms"]) for result in results}
    if len(counts) != 1:
        raise BenchmarkError(f"repetitions ran different numbers of units: {sorted(counts)}")
    walls = [
        [yardstick.scaled_time(wall, yardstick.reading_ms(result["calibration_ms"]))
         if scaled else wall
         for wall in result["unit_ms"]]
        for result in results
    ]
    return [min(unit) for unit in zip(*walls)]


def run_inproc(workload: str, seed: int, seconds: float) -> dict:
    # One process at a time: on a 2-vCPU VM two busy processes slowed
    # each other by up to 1.75x for seconds at a time, which no
    # best-of-N estimate removes.
    setups, results = [], []

    def lone_setup() -> None:
        # Set-up is timed in a process of its own that stops there,
        # beside a yardstick reading taken just before it.
        reading = yardstick.read()
        measured = spawn_rep(workload, seed, hash_seed=1, setup_only=True)[0]
        setups.append((measured, yardstick.scaled_time(measured, yardstick.reading_ms(reading))))

    started = time.perf_counter()
    round_s = 0.0
    while (len(results) < MIN_ROUNDS
           or time.perf_counter() - started + round_s <= seconds):
        begun = time.perf_counter()
        lone_setup()
        # Every repetition runs under its own fixed hash seed, the same
        # ones in every run, so string-hash layout is no run-to-run
        # variable.
        results.append(spawn_rep(workload, seed, hash_seed=len(results) + 1)[1])
        round_s = time.perf_counter() - begun
    lone_setup()
    reps = len(results)

    checks = {}
    for result in results:
        for name, ok in result["checks"].items():
            checks[name] = checks.get(name, True) and ok
    digests = results[0]["digests"]
    checks["metrics digest identical across processes"] = all(
        result["digests"] == digests for result in results
    )
    correct = report_checks(checks, digests)
    units = best_units(results, scaled=False)
    unit = "shard" if workload == "campaign-uy" else "cell"
    rate_unit = "queries/s" if workload == "campaign-uy" else "cells/s"
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print("repetition walls (s): " + " ".join(f"{r['wall_s']:.3f}" for r in results))
    line("p50_ms", median(units), "ms", f"median of {len(units)} best {unit} walls; not gated")
    line("tail_ms", tail(units)[0], "ms", f"best {unit} walls, {tail(units)[1]}; not gated")
    print(f"error_rate {ratio(failed, attempted):.6g} ({failed} / {attempted})")
    work = results[0]["attempted"]
    report_measured(work / (sum(units) / 1000.0), rate_unit, setups)
    metrics = {
        "setup_s": (median([at_reference for _, at_reference in setups]), "s",
                    f"median of {len(setups)} lone process starts, at the reference host speed"),
        "peak_rss_mb": (median([r["rss_mb"] for r in results]), "MiB",
                        f"median VmHWM of {reps} processes"),
        "throughput_per_s": (work / (sum(best_units(results, scaled=True)) / 1000.0), "1/s",
                             f"{rate_unit} over the sum of each {unit}'s best of {reps}, "
                             f"at the reference host speed"),
    }
    return {"metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed}


def trace_inproc(workload: str, seed: int, scratch: str) -> dict:
    # Plain and traced repetitions alternate, and each side keeps its
    # fastest wall, so the overhead is not which mode the host was in.
    spans = os.path.join(scratch, f"{workload}.spans")
    plain_walls, traced_walls = [], []
    for _ in range(TRACE_PAIRS):
        plain = spawn_rep(workload, seed, hash_seed=1)[1]
        traced = spawn_rep(workload, seed, hash_seed=1, trace=spans)[1]
        plain_walls.append(plain["wall_s"])
        traced_walls.append(traced["wall_s"])
    correct = report_checks(traced["checks"], traced["digests"])
    return {
        "layers": traced["layers"],
        "tallies": traced["tallies"],
        "counters": traced["counters"],
        "overhead_pct": (min(traced_walls) / min(plain_walls) - 1.0) * 100.0,
        "generator": None,
        "correct": correct and traced["digests"] == plain["digests"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
    }


# ------------------------------------------------------------ serve workloads


def run_serve(workload: str, seed: int, seconds: float) -> dict:
    import servebench

    outcome = servebench.run(workload, seed, seconds)
    nominal, high = outcome["nominal"], outcome["high"]
    for label, phase in (("nominal", nominal), ("high", high)):
        result = phase.result
        lag, lag_how = tail(result.lag_ms)
        print(f"{label}: offered {result.offered} received {result.received} "
              f"wrong {phase.wrong} failed {phase.failed} rcodes {result.rcodes} "
              f"decoded sample {len(result.samples)} generator lag {lag:.3f} ms "
              f"({lag_how}) busy {result.busy_share:.3f}")
    print("capacity probes (offered q/s, verdict): " + ", ".join(
        f"{rate:.0f} {'pass' if ok else 'fail'}" for rate, ok in outcome["probes"]))
    bursts = outcome["bursts"]
    windows = [burst.result.window_rates(servebench.WINDOW_S, burst.duration_s)
               for burst in bursts]
    print("closed-loop bursts: " + ", ".join(
        f"sent {burst.result.sent} answered {len(burst.result.answered_at)} "
        f"best window {max(rates):.0f} q/s" for burst, rates in zip(bursts, windows)))
    # Server and generator share one CPU during a burst: their shares
    # say how much of the figure is the server's own cost per query.
    print("closed-loop CPU share (server, generator): " + ", ".join(
        f"{burst.server_cpu_s / burst.wall_s:.3f} {burst.generator_cpu_s / burst.wall_s:.3f}"
        for burst in bursts))
    line("capacity_qps", outcome["capacity_qps"], "queries/s",
         f"open loop, p99 <= {servebench.LATENCY_LIMIT_MS:g} ms, no loss; not gated")
    line("p50_ms", median(nominal.result.latency_ms), "ms",
         f"due-time latency, n={nominal.result.received}; not gated")
    for label, phase in (("p99_ms", nominal), ("p99_ms_high", high)):
        value, how = tail(phase.result.latency_ms)
        line(label, value, "ms", f"due-time latency, {how}; not gated")
    attempted = (nominal.result.offered + high.result.offered
                 + sum(burst.result.sent for burst in bursts))
    failed = nominal.failed + high.failed + outcome["burst_failed"]
    print(f"error_rate {ratio(failed, attempted):.6g} ({failed} / {attempted}, "
          "nominal and high phases and closed-loop bursts)")
    setups = outcome["setups"]
    measured = upper_decile([rate for rates in windows for rate in rates])
    report_measured(measured, "answers/s", setups)
    # A burst is too short to carry its own reading, so the run's fast
    # moments (upper decile of windows) are scaled by its fast readings.
    reading = yardstick.fast_reading_ms([sample for burst in bursts for sample in burst.reading])
    metrics = {
        "setup_s": (median([at_reference for _, at_reference in setups]), "s",
                    f"spawn to ready, median of {len(setups)} boots, at the reference host speed"),
        "peak_rss_mb": (outcome["rss_mb"], "MiB", "server VmHWM after the nominal phase"),
        "throughput_per_s": (yardstick.scaled_rate(measured, reading), "1/s",
                             f"answered q/s, {servebench.IN_FLIGHT} in flight, upper decile "
                             f"of {sum(map(len, windows))} {servebench.WINDOW_S:g}-s windows "
                             f"in {len(bursts)} bursts, at the reference host speed"),
    }
    correct = nominal.wrong == 0 and high.wrong == 0 and outcome["burst_wrong"] == 0
    return {"metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed}


def trace_serve(workload: str, seed: int, seconds: float, scratch: str) -> dict:
    import servebench
    from inproc import counters

    outcome = servebench.run_traced(workload, seed, seconds, scratch)
    phase = outcome["phase"]
    return {
        "layers": outcome["layers"],
        "tallies": outcome["tallies"],
        "counters": counters(outcome["snapshot"]),
        "overhead_pct": outcome["overhead_pct"],
        "generator": phase.result,
        "correct": phase.wrong == 0,
        "attempted": phase.result.offered,
        "failed": phase.failed,
    }


# ------------------------------------------------------------- per layer


def layer_metrics(traced: dict) -> dict[str, tuple[float, str, str]]:
    """Every per-layer metric, zero where the layer did not run."""
    layers, tallies, counts = traced["layers"], traced["tallies"], traced["counters"]
    metrics = {}
    for span in span_names():
        row = layers.get(span, {"calls": 0, "self_ms": 0.0})
        metrics[f"{span}.calls"] = (row["calls"], "count", "")
        metrics[f"{span}.self_ms"] = (row["self_ms"], "ms", "")

    def counter(name: str) -> float:
        return counts.get(name, 0)

    def with_base(top: str, base: str, value_top: float, value_base: float):
        return ratio(value_top, value_base), "ratio", f"{value_top:g} {top} / {value_base:g} {base}"

    hits, misses = counter("cache.hits"), counter("cache.misses")
    recv = layers.get("serve.batchio.recv_batch", {"calls": 0})["calls"]
    executor = layers.get("runner.executor.run", {}).get("total_ms", 0.0)
    shards = layers.get("runner.shard", {}).get("total_ms", 0.0)
    metrics.update({
        "resolver.upstream_per_query": with_base(
            "resolver.upstream_queries", "resolver.client_queries",
            counter("resolver.upstream_queries"), counter("resolver.client_queries")),
        "resolver.cache.hit_ratio": with_base("cache.hits", "cache.hits+misses",
                                              hits, hits + misses),
        "resolver.cache.size_peak": (counter("cache.size_peak"), "count", ""),
        "net.retries": (counter("net.retries"), "count", ""),
        "net.timeouts": (counter("net.timeouts"), "count", ""),
        "serve.batchio.datagrams_per_batch": with_base(
            "datagrams", "recv_batch calls",
            tallies.get("serve.batchio.recv_batch", 0.0), recv),
        "serve.memo_hit_ratio": with_base("serve.memo_hits", "serve.queries",
                                          counter("serve.memo_hits"), counter("serve.queries")),
        "serve.shed": (counter("serve.shed"), "count", ""),
        "serve.inflight_peak": (counter("serve.inflight_peak"), "count", ""),
        "runner.executor.overhead_ms": (executor - shards if executor else 0.0, "ms",
                                        "executor run wall minus shard wall"),
        "runner.codec.payload_bytes": (tallies.get("runner.codec.encode", 0.0), "bytes",
                                       "pickled size of every encoded shard payload"),
        "faults.injected": (counter("faults.injected"), "count", ""),
        "push.notifications": (counter("push.notifications"), "count", ""),
        "predict.refreshes": (counter("predict.refreshes"), "count", ""),
    })
    generator = traced["generator"]
    lag = tail(generator.lag_ms)[0] if generator is not None else 0.0
    metrics["generator.lag_p99_ms"] = (lag, "ms", "due to sent")
    metrics["generator.busy_share"] = (
        generator.busy_share if generator is not None else 0.0, "ratio",
        "share of the generator's wall spent sending and receiving")
    metrics["trace.overhead_pct"] = (
        traced["overhead_pct"], "%",
        "server CPU, traced vs plain" if generator is not None
        else f"best wall of {TRACE_PAIRS} traced vs {TRACE_PAIRS} plain repetitions")
    return metrics


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: no program source at ./src/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # Traced runs leave their spans in SCRATCH (one file per workload,
    # overwritten by the next traced run of it).
    os.makedirs(SCRATCH, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} cpus {os.cpu_count()}")
    try:
        if args.trace:
            if args.workload.startswith("serve-"):
                traced = trace_serve(args.workload, args.seed, args.seconds, SCRATCH)
            else:
                traced = trace_inproc(args.workload, args.seed, SCRATCH)
            outcome = dict(traced, metrics=layer_metrics(traced))
        elif args.workload.startswith("serve-"):
            outcome = run_serve(args.workload, args.seed, args.seconds)
        else:
            outcome = run_inproc(args.workload, args.seed, args.seconds)
    except (BenchmarkError, RuntimeError, OSError) as error:
        print(f"perfbench: {args.workload} failed: {error}", file=sys.stderr)
        return 1

    for name, (value, unit, note) in outcome["metrics"].items():
        line(name, value, unit, note)
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
