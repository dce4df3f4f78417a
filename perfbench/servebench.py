"""serve-hot and serve-unique: ``repro serve`` on loopback.

Each run boots ``repro serve --world nl --workers 1 --prewarm 200`` a
dozen times; every boot is timed from spawn to the ready lines (the
set-up samples), and two of the servers carry the load:

1. nominal rate: latency from the due time, server VmHWM;
2. high rate: latency from the due time;
3. closed-loop bursts: :data:`BURSTS` of them, each holding
   :data:`IN_FLIGHT` queries outstanding, with a boot between each two;
   the upper decile of their :data:`WINDOW_S` windows is the peak
   throughput, quoted at the reference host speed by the lower decile
   of the yardstick samples taken around the bursts.  Server and generator
   share one CPU during a burst, so the figure counts the generator's
   cost per query too; each burst records the CPU time each side used,
   so a run shows the split;
4. capacity, on a server of its own: bisection over a rate ladder for
   the highest rate whose p99 stays within :data:`LATENCY_LIMIT_MS` with
   no loss, no SERVFAIL, no wrong answer and a generator that kept its
   schedule.

Serve traffic crosses loopback, not a real link: there is no wire delay
and the generator shares the host's CPUs with the server.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from procs import cpu_seconds, read_lines_until, sharing_one_cpu, vmhwm_mb
from loadgen import (
    ClosedResult,
    RunResult,
    Schedule,
    build_schedule,
    encode_queries,
    run_closed_loop,
    run_open_loop,
)
from stats import rate_ladder, search_capacity, tail_percentile
from yardstick import read, reading_ms, scaled_time

#: Capacity verdict: the tail (p99 with >= 1000 samples) must stay within this.
LATENCY_LIMIT_MS = 50.0
#: ...and the generator must send within this of the due time (p99).
LAG_LIMIT_MS = 5.0
#: Rate ladder step for the capacity search.
LADDER_STEP = 1.04
#: Queries kept outstanding by a closed-loop burst (the server sheds
#: beyond 256 in flight).
IN_FLIGHT = 64
#: Closed-loop throughput is counted in windows this wide.
WINDOW_S = 0.05
#: Nominal and high phases wait this long after the last due time for
#: stragglers before counting a query lost (capacity probes wait less).
PHASE_DRAIN_S = 1.0
#: Seconds of untimed traffic after each boot (fills the response memo).
WARMUP_S = 0.5
BOOT_TIMEOUT_S = 60.0
#: Closed-loop bursts in a run, each this share of ``--seconds`` long.
BURSTS = 10
BURST_SHARE = 0.02
#: ...but no shorter than this, so each burst holds several windows.
MIN_BURST_S = 0.25
PREWARM = 200
#: Every server runs under this string-hash seed, so runs differ only in
#: their inputs and a run's bursts are comparable samples.
SERVER_HASH_SEED = "1"
RCODE_NOERROR, RCODE_SERVFAIL, RCODE_NXDOMAIN = 0, 2, 3


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    population: int
    nominal_qps: float
    high_qps: float
    ceiling_qps: float  # top of the capacity ladder
    burst_qps: float  # above the closed-loop peak: sizes a burst's queries
    rcode: int

    def qname(self, rank: int, serial: int) -> str:
        if self.rcode == RCODE_NOERROR:
            return f"www.domain{rank}.nl."
        return f"u{serial}.domain{rank}.nl."


WORKLOADS = {
    # Zipf(1.0) over the 200 prewarmed names: almost every query is a
    # response-memo hit.  The open-loop rates stay far below the knee:
    # the server's UDP receive buffer (the kernel default, a few
    # hundred datagrams) overflows whenever the host stalls the server
    # for longer than it takes to fill, and at 15k q/s one such stall
    # in twenty runs dropped 100 queries.
    "serve-hot": ServeWorkload("serve-hot", PREWARM, 5000.0, 8000.0, 80000.0, 250000.0,
                               RCODE_NOERROR),
    # A never-seen name under one of the 500 delegated domains: memo
    # miss, full decode -> resolve -> encode, NXDOMAIN from the hoster.
    "serve-unique": ServeWorkload("serve-unique", 500, 500.0, 1000.0, 8000.0, 12000.0,
                                  RCODE_NXDOMAIN),
}


class ServerProcess:
    """One ``repro serve`` process (optionally through the traced launcher)."""

    def __init__(self, seed: int, spans: Optional[str] = None,
                 metrics: Optional[str] = None) -> None:
        args = ["--world", "nl", "--workers", "1", "--prewarm", str(PREWARM),
                "--seed", str(seed), "--port", "0"]
        if metrics:
            args += ["--metrics", metrics]
        here = os.path.dirname(os.path.abspath(__file__))
        if spans:
            command = [sys.executable, os.path.join(here, "serve_launcher.py"),
                       "--spans", spans, "--", *args]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
                   PYTHONHASHSEED=SERVER_HASH_SEED)
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, bufsize=0)
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_ready(self) -> int:
        lines = read_lines_until(self.proc, lambda line: " fast path: " in line,
                                 BOOT_TIMEOUT_S)
        for line in lines:
            if " listening on " in line:
                return int(line.split()[-2].rsplit(":", 1)[1])
        raise RuntimeError("repro serve printed no listening address")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class PhaseMaker:
    """Seeded schedules for one run; unique names never repeat in it."""

    def __init__(self, workload: ServeWorkload, seed: int) -> None:
        from repro.core.worlds import build_nl_world
        from repro.dns.message import Message
        from repro.dns.rdtypes import RdataType
        from repro.loadgen.arrivals import ZipfSampler

        self.workload = workload
        self.seed = seed
        self.sampler = ZipfSampler(workload.population, 1.0)
        self.serial = 0
        self._a = RdataType.A
        self._message = Message
        zones = build_nl_world(seed).world.zones
        # The answer each hot name must carry, straight from zone data.
        self.expected = {
            f"www.domain{rank}.nl.": str(
                zones[f"domain{rank}.nl."].get(f"www.domain{rank}.nl.", RdataType.A).rdatas[0]
                .address
            )
            for rank in range(workload.population)
        } if workload.rcode == RCODE_NOERROR else {}

    def encode(self, qname: str, query_id: int) -> bytes:
        return self._message.make_query(qname, self._a, id=query_id).use_edns().to_wire()

    def qnames(self, count: int, rng: random.Random) -> list[str]:
        names = []
        for rank in self.sampler.ranks(count, rng):
            names.append(self.workload.qname(rank, self.serial))
            self.serial += 1
        return names

    def make_closed(self, phase: str, count: int) -> list[bytes]:
        """``count`` queries for a closed-loop burst, IDs in order."""
        rng = random.Random(f"perfbench:{self.workload.name}:{self.seed}:{phase}")
        return encode_queries(self.qnames(count, rng), self.encode)

    def make(self, phase: str, rate: float, duration: float) -> tuple[Schedule, list[str]]:
        from repro.loadgen.arrivals import poisson_schedule

        rng = random.Random(f"perfbench:{self.workload.name}:{self.seed}:{phase}")
        due = list(poisson_schedule(rate, duration, rng))
        qnames = self.qnames(len(due), rng)
        return build_schedule(due, qnames, self.encode, rng), qnames

    def assess(self, result, qnames: list[str]) -> tuple[int, int]:
        """``(wrong, failed)`` for one open-loop run's responses: those of
        :func:`header_faults`, plus every decoded sample whose content
        disagrees with the zone data (and is not a SERVFAIL).
        """
        wrong, failed = header_faults(result, self.workload.rcode)
        for index, data in result.samples.items():
            if not self._answer_ok(qnames[index], data) and data[3] & 0x0F != RCODE_SERVFAIL:
                wrong += 1
                failed += 1
        return wrong, failed

    def _answer_ok(self, qname: str, data: bytes) -> bool:
        from repro.dns.message import Section

        response = self._message.from_wire(data)
        if response.question is None or str(response.question.qname) != qname:
            return False
        if int(response.rcode) != self.workload.rcode:
            return False
        if self.workload.rcode == RCODE_NXDOMAIN:
            return not response.answer
        addresses = [
            str(rdata.address)
            for rrset in response.rrsets(Section.ANSWER) if rrset.rdtype == self._a
            for rdata in rrset.rdatas
        ]
        return addresses == [self.expected[qname]]


def header_faults(result: RunResult | ClosedResult, rcode: int) -> tuple[int, int]:
    """``(wrong, failed)`` from the headers alone.

    Wrong: a bad header, or an rcode other than ``rcode`` or SERVFAIL.
    Failed: every wrong answer plus every lost query and every SERVFAIL
    (what the server sends when it sheds load).
    """
    wrong = result.bad_header + sum(
        count for code, count in result.rcodes.items() if code not in (rcode, RCODE_SERVFAIL)
    )
    return wrong, wrong + result.rcodes.get(RCODE_SERVFAIL, 0) + result.lost


@dataclass
class Phase:
    result: RunResult
    wrong: int
    failed: int


@dataclass
class Burst:
    """A closed-loop burst and the CPU each side used over it."""

    result: ClosedResult
    duration_s: float  # how long it kept sending
    wall_s: float
    server_cpu_s: float
    generator_cpu_s: float
    reading: list[float]  # yardstick samples taken just before and after, on its CPU


def _phase(server: ServerProcess, maker: PhaseMaker, name: str, rate: float,
           duration: float) -> Phase:
    warm, _ = maker.make(f"{name}-warmup", rate, WARMUP_S)
    run_open_loop(server.port, warm)
    schedule, qnames = maker.make(name, rate, duration)
    result = run_open_loop(server.port, schedule, drain_s=PHASE_DRAIN_S)
    return Phase(result, *maker.assess(result, qnames))


def meets_limits(result: RunResult, failed: int) -> bool:
    """The capacity verdict for one probe."""
    latency = tail_percentile(result.latency_ms)
    lag = tail_percentile(result.lag_ms)
    return (
        failed == 0
        and latency is not None and latency[1] <= LATENCY_LIMIT_MS
        and lag is not None and lag[1] <= LAG_LIMIT_MS
    )


def run(name: str, seed: int, seconds: float) -> dict:
    """An untraced run: two boots, then the boots only timed.

    The first server takes the nominal and the high phase, then
    :data:`BURSTS` short closed-loop bursts, with one more server booted
    (and timed) between each two.  The second server takes the capacity
    search on its own, so no overload probe leaves a backlog behind.
    The bursts are spread over the run because the host's speed holds
    for a second or two and then changes; the upper decile of all their
    short windows is the gated throughput.  Server and generator share
    one CPU during a burst: on two vCPUs their pace swung by 1.5x from
    one second to the next.  The open-loop phases give
    the latencies and the capacity, printed but not gated.
    """
    workload = WORKLOADS[name]
    maker = PhaseMaker(workload, seed)
    burst_s = max(BURST_SHARE * seconds, MIN_BURST_S)
    setups, bursts = [], []

    def boot() -> ServerProcess:
        reading = read()
        server = ServerProcess(seed)
        setups.append((server.setup_s, scaled_time(server.setup_s, reading_ms(reading))))
        return server

    def burst(server: ServerProcess, label: str) -> None:
        count = int(workload.burst_qps * burst_s)
        wires = maker.make_closed(label, count)
        pid = server.proc.pid
        server_cpu, generator_cpu = cpu_seconds(pid), time.process_time()
        with sharing_one_cpu(pid):
            reading = read()
            started = time.perf_counter()
            result = run_closed_loop(server.port, wires, IN_FLIGHT, burst_s)
            wall = time.perf_counter() - started
            reading += read()
        bursts.append(Burst(result, burst_s, wall, cpu_seconds(pid) - server_cpu,
                            time.process_time() - generator_cpu, reading))

    nominal_s = 0.1 * seconds
    with boot() as server:
        nominal = _phase(server, maker, "nominal", workload.nominal_qps, nominal_s)
        rss = vmhwm_mb(str(server.proc.pid))
        high = _phase(server, maker, "high", workload.high_qps, 0.05 * seconds)
        for index in range(BURSTS):
            burst(server, f"burst-{index}")
            # Boots only timed, while the server above sits idle.
            boot().stop()
    probe_s = 0.025 * seconds
    achieved = {workload.nominal_qps: nominal.result.received / nominal_s}
    with boot() as server:

        def passes(rate: float) -> bool:
            schedule, qnames = maker.make(f"capacity-{rate:.0f}", rate, probe_s)
            result = run_open_loop(server.port, schedule)
            achieved[rate] = result.received / probe_s
            return meets_limits(result, maker.assess(result, qnames)[1])

        run_open_loop(server.port, maker.make("capacity-warmup", workload.nominal_qps,
                                              WARMUP_S)[0])
        ladder = rate_ladder(workload.nominal_qps, workload.ceiling_qps, LADDER_STEP)
        capacity, probes = search_capacity(passes, ladder)
    faults = [header_faults(burst.result, workload.rcode) for burst in bursts]
    return {
        "setups": setups,
        "rss_mb": rss,
        "nominal": nominal,
        "high": high,
        "capacity_qps": achieved[capacity],
        "probes": probes,
        "bursts": bursts,
        "burst_wrong": sum(wrong for wrong, _ in faults),
        "burst_failed": sum(failed for _, failed in faults),
    }


def run_traced(name: str, seed: int, seconds: float, scratch: str) -> dict:
    """The nominal phase on a plain server, then on a traced one.

    Tracing overhead is the traced server's CPU time over the plain
    one's for the same schedule.  The traced server also writes the
    program's own counters (``repro serve --metrics``).
    """
    from repro.metrics import MetricsSnapshot

    workload = WORKLOADS[name]
    spans = os.path.join(scratch, f"{name}.spans")
    metrics = os.path.join(scratch, f"{name}.metrics.json")
    cpu = {}
    for traced in (False, True):
        maker = PhaseMaker(workload, seed)
        with ServerProcess(seed, spans=spans if traced else None,
                           metrics=metrics if traced else None) as server:
            before = cpu_seconds(server.proc.pid)
            phase = _phase(server, maker, "nominal", workload.nominal_qps, 0.25 * seconds)
            cpu[traced] = cpu_seconds(server.proc.pid) - before
    with open(spans + ".json", encoding="utf-8") as stream:
        summary = json.load(stream)
    with open(metrics, encoding="utf-8") as stream:
        snapshot = MetricsSnapshot.from_payload(json.load(stream))
    return {
        "phase": phase,
        "layers": summary["layers"],
        "tallies": summary["tallies"],
        "snapshot": snapshot,
        "overhead_pct": (cpu[True] / cpu[False] - 1.0) * 100.0 if cpu[False] > 0 else 0.0,
    }
