"""Tests for repro.core.sweeps."""

import pytest

from repro.core.sweeps import ttl_latency_sweep


class TestTtlLatencySweep:
    @pytest.fixture(scope="class")
    def points(self):
        return ttl_latency_sweep(ttls=(60, 3600, 86400), probes=80, seed=2)

    def test_one_point_per_ttl(self, points):
        assert [p.child_ns_ttl for p in points] == [60, 3600, 86400]

    def test_latency_decreases_with_ttl(self, points):
        medians = [p.median_ms for p in points]
        assert medians[0] > medians[-1]

    def test_long_ttl_reaches_cache_latency(self, points):
        # At TTL 86400 almost every query is a warm-cache hit: a few ms.
        assert points[-1].median_ms < 20.0

    def test_samples_recorded(self, points):
        assert all(p.samples > 0 for p in points)
