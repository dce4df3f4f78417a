"""Open-loop UDP load generator owned by the benchmark.

One process, at most ``nproc`` connected UDP sockets, a send schedule
fixed before the first packet leaves (``repro.loadgen.arrivals``), and
every query timed from when it was *due*, not from when it was sent.
Timing from the send hides the wait a server stall imposes on every
query scheduled behind it (coordinated omission); timing from the due
time counts it.  How late the generator itself ran is reported
separately as the lag (due -> sent), so a run whose generator could not
keep its schedule is visible as such.

:func:`run_closed_loop` is the other shape: a fixed number of queries
in flight, the next sent as each answer arrives, which holds the server
at its peak rate without overloading it.

Responses are matched on (socket, DNS ID).  Query ``i`` goes out on
socket ``i % sockets`` with ID ``(i // sockets) & 0xFFFF``; a slot that
is still unanswered when its ID comes round again counts as lost.
Header checks (QR, ID, rcode) run on every response; a seeded sample of
raw responses is kept for full decoding after the timed window.
"""

from __future__ import annotations

import os
import random
import select
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: A wait shorter than this spins instead of sleeping in epoll, whose
#: timeout has millisecond resolution and would add up to 1 ms of lag.
SPIN_BELOW_S = 0.002
#: Longest an open-loop run waits after its last due time for stragglers.
DRAIN_S = 0.25
#: A closed-loop burst gives up after this long without an answer; the
#: host can stall a process for a few hundred ms.
STALL_S = 1.0
#: One query in this many keeps its raw response for a full decode.
SAMPLE_EVERY = 64
LOOPBACK = "127.0.0.1"


def socket_count() -> int:
    """Sockets the generator opens: one per CPU, at most four."""
    return max(1, min(os.cpu_count() or 1, 4))


@dataclass
class Schedule:
    """Everything one open-loop run sends, built before it starts."""

    due: list[float]  # seconds from the run's start
    wires: list[bytes]  # query bytes, ID already set
    sockets: int
    #: Indices whose raw response is kept for a full decode.
    sampled: frozenset = frozenset()


@dataclass
class RunResult:
    """Outcome of one open-loop run; latencies and lags in ms."""

    offered: int
    received: int
    latency_ms: list[float]  # due -> response, received queries only
    lag_ms: list[float]  # due -> sent, every sent query
    wall_s: float
    busy_s: float
    rcodes: dict[int, int] = field(default_factory=dict)
    bad_header: int = 0  # QR clear or ID matching nothing outstanding
    samples: dict[int, bytes] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        return self.offered - self.received

    @property
    def busy_share(self) -> float:
        return self.busy_s / self.wall_s if self.wall_s > 0 else 0.0


def build_schedule(
    due: list[float],
    qnames: list[str],
    encode: Callable[[str, int], bytes],
    sample_rng: random.Random,
    sockets: Optional[int] = None,
) -> Schedule:
    """Pair each due time with an encoded query and pick the sample.

    The generator never touches the DNS data model while it runs.
    """
    if len(due) != len(qnames):
        raise ValueError("one qname per due time")
    count = sockets or socket_count()
    wires = encode_queries(qnames, encode, count)
    sampled = frozenset(
        index for index in range(len(due)) if sample_rng.randrange(SAMPLE_EVERY) == 0
    )
    return Schedule(due=due, wires=wires, sockets=count, sampled=sampled)


def encode_queries(
    qnames: list[str], encode: Callable[[str, int], bytes], sockets: int = 1
) -> list[bytes]:
    """Query ``i`` for ``qnames[i]`` with DNS ID ``(i // sockets) & 0xFFFF``.

    ``encode(qname, query_id)`` returns the query's wire bytes; each
    distinct name is encoded once.
    """
    bodies: dict[str, bytes] = {}
    wires = []
    for index, qname in enumerate(qnames):
        body = bodies.get(qname)
        if body is None:
            body = bodies[qname] = encode(qname, 0)[2:]
        wires.append(struct.pack(">H", (index // sockets) & 0xFFFF) + body)
    return wires


def run_open_loop(
    port: int,
    schedule: Schedule,
    clock: Callable[[], float] = time.perf_counter,
    drain_s: float = DRAIN_S,
) -> RunResult:
    """Send ``schedule`` to ``port`` on loopback open-loop and collect replies.

    Queries still unanswered ``drain_s`` after the last due time are lost.
    """
    count = schedule.sockets
    socks = []
    poller = select.epoll()
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
            sock.connect((LOOPBACK, port))
            sock.setblocking(False)
            socks.append(sock)
            poller.register(sock.fileno(), select.EPOLLIN)
        return _drive(socks, poller, schedule, clock, drain_s)
    finally:
        poller.close()
        for sock in socks:
            sock.close()


def _drive(socks, poller, schedule: Schedule, clock, drain_s: float) -> RunResult:
    due = schedule.due
    wires = schedule.wires
    sampled = schedule.sampled
    count = len(socks)
    total = len(due)
    pending = [[-1] * 65536 for _ in range(count)]
    latency = []
    lag = []
    rcodes: dict[int, int] = {}
    samples: dict[int, bytes] = {}
    bad_header = 0
    received = 0
    outstanding = 0
    idle_s = 0.0
    sent = 0
    last_due = due[-1] if due else 0.0
    start = clock() + 0.01
    while clock() < start:
        pass
    while True:
        now = clock() - start
        iteration = now
        was_sent = sent
        # Send everything that is due.
        while sent < total and due[sent] <= now:
            lane = sent % count
            slot = (sent // count) & 0xFFFF
            try:
                socks[lane].send(wires[sent])
            except BlockingIOError:
                break  # send buffer full: the lag will show it
            if pending[lane][slot] >= 0:
                outstanding -= 1  # the old query on this ID is lost
            pending[lane][slot] = sent
            outstanding += 1
            lag.append((clock() - start - due[sent]) * 1000.0)
            sent += 1
            if sent & 63 == 0:
                now = clock() - start
        # Receive everything that has arrived.
        got = 0
        for lane, sock in enumerate(socks):
            table = pending[lane]
            while True:
                try:
                    data = sock.recv(4096)
                except BlockingIOError:
                    break
                at = clock() - start
                got += 1
                if len(data) < 12 or not data[2] & 0x80:
                    bad_header += 1
                    continue
                slot = data[0] << 8 | data[1]
                index = table[slot]
                if index < 0:
                    bad_header += 1
                    continue
                table[slot] = -1
                outstanding -= 1
                received += 1
                latency.append((at - due[index]) * 1000.0)
                rcode = data[3] & 0x0F
                rcodes[rcode] = rcodes.get(rcode, 0) + 1
                if index in sampled:
                    samples[index] = data
        now = clock() - start
        if sent >= total and (outstanding == 0 or now > last_due + drain_s):
            break
        if got or sent != was_sent:
            continue
        wait = (due[sent] - now) if sent < total else (last_due + drain_s - now)
        if wait >= SPIN_BELOW_S:
            poller.poll(wait - 0.001)
        idle_s += clock() - start - iteration
    wall = clock() - start
    return RunResult(
        offered=total,
        received=received,
        latency_ms=latency,
        lag_ms=lag,
        wall_s=wall,
        busy_s=max(0.0, wall - idle_s),
        rcodes=rcodes,
        bad_header=bad_header,
        samples=samples,
    )


@dataclass
class ClosedResult:
    """Outcome of one closed-loop burst; times in seconds from its start."""

    sent: int
    answered_at: list[float]
    rcodes: dict[int, int] = field(default_factory=dict)
    bad_header: int = 0

    @property
    def lost(self) -> int:
        return self.sent - len(self.answered_at)

    def window_rates(self, width: float, duration: float) -> list[float]:
        """Answers per second in each whole ``width``-second window of
        the first ``duration`` seconds, leaving out the first (ramp-up).
        """
        counts = [0] * int(duration / width + 1e-9)
        for at in self.answered_at:
            slot = int(at // width)
            if slot < len(counts):
                counts[slot] += 1
        return [count / width for count in counts[1:]]


def run_closed_loop(
    port: int,
    wires: list[bytes],
    in_flight: int,
    duration_s: float,
    clock: Callable[[], float] = time.perf_counter,
) -> ClosedResult:
    """Keep ``in_flight`` queries outstanding for ``duration_s``.

    ``wires[i]`` must carry DNS ID ``i & 0xFFFF``; with far fewer than
    65536 in flight an ID is never reused while still outstanding.
    Sending stops at the deadline or when ``wires`` runs out; answers
    still outstanding after :data:`STALL_S` without an answer count as lost.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    poller = select.epoll()
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        sock.connect((LOOPBACK, port))
        sock.setblocking(False)
        poller.register(sock.fileno(), select.EPOLLIN)
        outstanding: set[int] = set()
        answered = []
        rcodes: dict[int, int] = {}
        bad_header = 0
        sent = 0
        start = clock()
        last_answer = start
        while True:
            now = clock()
            sending = now - start < duration_s
            while sending and len(outstanding) < in_flight and sent < len(wires):
                sock.send(wires[sent])
                outstanding.add(sent & 0xFFFF)
                sent += 1
            if not outstanding or now - last_answer > STALL_S:
                break
            poller.poll(STALL_S)
            while True:
                try:
                    data = sock.recv(4096)
                except BlockingIOError:
                    break
                last_answer = clock()
                slot = (data[0] << 8 | data[1]) if len(data) >= 12 else -1
                if slot not in outstanding or not data[2] & 0x80:
                    bad_header += 1
                    continue
                outstanding.discard(slot)
                answered.append(last_answer - start)
                rcode = data[3] & 0x0F
                rcodes[rcode] = rcodes.get(rcode, 0) + 1
        return ClosedResult(sent=sent, answered_at=answered, rcodes=rcodes,
                            bad_header=bad_header)
    finally:
        poller.close()
        sock.close()
