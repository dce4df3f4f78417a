"""The benchmark's own arithmetic, each rule checked on a synthetic input.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import random
import socket
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from loadgen import ClosedResult, Schedule, run_open_loop  # noqa: E402
from stats import (  # noqa: E402
    interval_union,
    rate_ladder,
    search_capacity,
    self_times,
    tail_percentile,
    upper_decile,
)
from tracing import Tracer, load_dump  # noqa: E402
import yardstick  # noqa: E402


# ----------------------------------------------------------- self time


def test_self_time_subtracts_nested_children():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [5, 7]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    # Two concurrent children [1, 5] and [3, 8] cover [1, 8] = 7 of 10.
    starts = [0.0, 1.0, 3.0]
    ends = [10.0, 5.0, 8.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_self_time_clips_a_child_that_outlives_its_parent():
    starts = [0.0, 6.0]
    ends = [10.0, 14.0]
    parents = [-1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 8.0])


def test_interval_union_merges_touching_and_contained():
    assert interval_union([(0, 2), (2, 3), (1, 1.5), (5, 6)]) == pytest.approx(4.0)


def test_tracer_records_parents_requests_and_super_calls_once():
    class Base:
        def handle(self, depth):
            return self.leaf() if depth else 0

        def leaf(self):
            return 1

    class Derived(Base):
        def handle(self, depth):
            return super().handle(depth)

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer._wrap_method("handle", Base, "handle", None)
    tracer._wrap_method("leaf", Base, "leaf", None)
    assert Derived().handle(1) == 1
    Base().handle(0)
    summary = tracer.summary()
    # Derived.handle -> Base.handle (super) -> leaf; then a second root.
    assert summary["handle"]["calls"] == 2
    assert summary["leaf"]["calls"] == 1
    assert list(tracer.parent) == [-1, 0, 1, -1]
    assert list(tracer.request) == [0, 0, 0, 3]
    tracer.uninstall()
    assert "__wrapped__" not in vars(Base.handle) and "__wrapped__" not in vars(Derived.handle)


def test_span_dump_round_trips(tmp_path):
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: None)
    outer()
    path = str(tmp_path / "spans")
    tracer.dump(path)
    loaded = load_dump(path)
    assert loaded.names == ["outer", "inner"]
    assert list(loaded.start) == [0.0, 1.0] and list(loaded.end) == [3.0, 2.0]
    assert list(loaded.parent) == [-1, 0] and list(loaded.request) == [0, 0]
    assert loaded.summary()["outer"]["self_ms"] == pytest.approx(2000.0)


# ----------------------------------------------------------- percentile rule


def test_tail_is_p99_with_a_thousand_samples():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99, 990)


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    # p90 leaves exactly 10 samples (91..100) beyond it; p91 leaves 9.
    assert tail_percentile(values) == (90, 90)


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50


# ----------------------------------------------------------- capacity search


def knee_curve(knee: float):
    """Latency flat at 1 ms up to ``knee``, then climbing steeply."""
    return lambda rate: 1.0 if rate <= knee else 1.0 + (rate - knee) * 0.5


@pytest.mark.parametrize("knee", [1200.0, 2500.0, 3999.0, 7000.0])
def test_capacity_search_stops_within_one_step_below_the_knee(knee):
    latency = knee_curve(knee)
    ladder = rate_ladder(500.0, 8000.0, 1.04)
    capacity, probes = search_capacity(lambda rate: latency(rate) <= 20.0, ladder)
    # The limit of 20 ms is reached 38 q/s past the knee.
    assert capacity <= knee + 38.0
    assert capacity * 1.04 > knee
    assert len(probes) <= 7


def test_capacity_search_reports_the_floor_when_nothing_passes():
    ladder = rate_ladder(100.0, 200.0, 1.1)
    capacity, probes = search_capacity(lambda rate: False, ladder)
    assert capacity == 100.0
    assert all(not verdict for _, verdict in probes)


def test_rate_ladder_ends_at_the_ceiling():
    ladder = rate_ladder(10.0, 20.0, 1.5)
    assert ladder == pytest.approx([10.0, 15.0, 20.0])


# ----------------------------------------------------------- due-time latency


class Responder(threading.Thread):
    """Answers every datagram at once with QR set (a perfect server)."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.2)
        self.port = self.sock.getsockname()[1]
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            try:
                data, addr = self.sock.recvfrom(512)
            except socket.timeout:
                continue
            self.sock.sendto(data[:2] + bytes([data[2] | 0x80]) + data[3:], addr)


class StallingClock:
    """``time.perf_counter``, except the generator stalls once for
    ``stall`` seconds when ``at`` seconds have passed."""

    def __init__(self, at: float, stall: float) -> None:
        self.at, self.stall = at, stall
        self.origin = None
        self.stalled = False

    def __call__(self) -> float:
        now = time.perf_counter()
        if self.origin is None:
            self.origin = now
        if not self.stalled and now - self.origin >= self.at:
            self.stalled = True
            time.sleep(self.stall)
            now = time.perf_counter()
        return now


def test_due_time_latency_counts_a_generator_stall():
    rate, duration = 1000.0, 0.3
    due = [index / rate for index in range(int(rate * duration))]
    query = bytes(12) + b"\x00\x00\x01\x00\x01"
    wires = [(index & 0xFFFF).to_bytes(2, "big") + query[2:] for index in range(len(due))]
    schedule = Schedule(due=due, wires=wires, sockets=1)
    responder = Responder()
    responder.start()
    try:
        # The run starts 10 ms after the clock's first reading, so the
        # stall covers due times 0.05 .. 0.13 s: ~80 queries.
        result = run_open_loop(responder.port, schedule, clock=StallingClock(0.06, 0.08))
    finally:
        responder.stop.set()
        responder.join(timeout=5)
    assert not responder.is_alive()
    assert result.received == len(due)
    # Queries due during the stall leave late but are still timed from
    # their due time, so their latency carries the wait.
    late = [value for value in result.latency_ms if value >= 30.0]
    assert len(late) >= 40
    assert max(result.latency_ms) >= 60.0
    assert max(result.lag_ms) >= 60.0
    # Timed from the send instead, every reply would look fast.
    assert sorted(result.latency_ms)[len(due) // 2] < 30.0


def test_schedule_ids_round_robin_over_sockets():
    from loadgen import build_schedule

    due = [0.0, 0.1, 0.2, 0.3]
    schedule = build_schedule(
        due, ["a.", "b.", "a.", "b."], lambda name, qid: qid.to_bytes(2, "big") + name.encode(),
        random.Random(1), sockets=2,
    )
    assert [wire[:2] for wire in schedule.wires] == [b"\x00\x00", b"\x00\x00",
                                                    b"\x00\x01", b"\x00\x01"]
    assert [wire[2:] for wire in schedule.wires] == [b"a.", b"b.", b"a.", b"b."]


# ------------------------------------------------- closed-loop throughput


def test_window_rates_skip_the_ramp_and_answers_past_the_end():
    # 0.1-s windows over 0.4 s: 2, 3, 4 and 5 answers, then one late one.
    answered = [0.01, 0.02] + [0.11] * 3 + [0.21] * 4 + [0.31] * 5 + [0.45]
    result = ClosedResult(sent=len(answered), answered_at=answered)
    assert result.window_rates(0.1, 0.4) == pytest.approx([30.0, 40.0, 50.0])


def test_upper_decile_of_a_uniform_ladder():
    assert upper_decile([float(value) for value in range(1, 100)]) == pytest.approx(90.0)


# ---------------------------------------------------------- yardstick


def test_readings_are_the_median_and_the_lower_decile_of_the_samples():
    assert yardstick.reading_ms([0.3, 0.1, 0.2, 0.9, 0.15]) == pytest.approx(0.2)
    samples = [0.1 + 0.001 * index for index in range(99)]
    assert yardstick.fast_reading_ms(samples) == pytest.approx(0.1 + 0.001 * 9)


def test_scaling_cancels_a_uniformly_slower_host():
    # The same work, 1.5x slower in every respect on the slow host.
    assert yardstick.scaled_rate(1000.0 / 1.5, 0.15) == pytest.approx(
        yardstick.scaled_rate(1000.0, 0.1))
    assert yardstick.scaled_time(0.3 * 1.5, 0.15) == pytest.approx(
        yardstick.scaled_time(0.3, 0.1))
    assert yardstick.scaled_rate(1000.0, yardstick.REFERENCE_MS) == pytest.approx(1000.0)
    assert yardstick.scaled_time(0.3, yardstick.REFERENCE_MS) == pytest.approx(0.3)


def test_calibrate_appends_one_positive_sample_and_reports_its_cost():
    samples: list[float] = []
    spent = yardstick.calibrate(samples)
    assert len(samples) == 1 and samples[0] > 0
    assert spent * 1000.0 >= samples[0] * yardstick.TRIES


def test_a_reading_holds_the_samples_asked_for():
    assert len(yardstick.read(3)) == 3
