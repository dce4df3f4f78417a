"""Tests for scenario_ddos_resilience (§6.1's headline numbers)."""

import pytest

from repro.core.scenarios import scenario_ddos_resilience
from repro.faults import FaultPlan, FaultSpec


class TestHeadlineNumbers:
    @pytest.fixture(scope="class")
    def run(self):
        return scenario_ddos_resilience()

    def test_availability_climbs_with_ttl(self, run):
        profile = run.availability_profile(serve_stale=False)
        assert profile[60] == 0.0
        assert profile[300] == pytest.approx(1 / 12)
        assert profile[1800] == pytest.approx(0.5)
        assert profile[3600] == 1.0
        assert profile[86400] == 1.0

    def test_serve_stale_rescues_every_tier(self, run):
        profile = run.availability_profile(serve_stale=True)
        assert all(value == 1.0 for value in profile.values())
        # The rescue really is stale serving, not hidden freshness: the
        # stale fraction mirrors what the plain tier failed to answer.
        for ttl, plain_availability in run.availability_profile(False).items():
            tier = run.tier(ttl, serve_stale=True)
            assert tier.served_stale_fraction == pytest.approx(
                1.0 - plain_availability
            )

    def test_every_tier_recovers_after_the_attack(self, run):
        assert all(tier.recovered for tier in run.tiers)

    def test_fault_events_are_observable(self, run):
        metrics = run.metrics.to_payload()["metrics"]
        injected = metrics["faults.injected"]["values"]
        assert injected["server_outage"] > 0
        # Tiers whose cache outlived the outage never re-queried the
        # target, so recoveries < tiers; but the short-TTL tiers heal.
        assert metrics["faults.recovered"]["values"]["server_outage"] >= 1
        assert metrics["faults.time_to_recovery_s"]["count"] >= 1
        assert metrics["resolver.served_stale"]["value"] > 0


class TestParameters:
    def test_extra_faults_ride_along(self):
        # A resolver restart mid-attack wipes the cache: even the
        # longest-TTL tier goes dark for the remaining probes.
        plan = FaultPlan(
            faults=(FaultSpec(kind="resolver_restart", start=1000.0,
                              duration=0.0),),
        )
        run = scenario_ddos_resilience(ttls=(86400,), faults=plan)
        tier = run.tier(86400, serve_stale=False)
        assert tier.availability < 1.0
        restarts = run.metrics.to_payload()["metrics"]["resolver.restarts"]
        assert restarts["value"] >= 1

    def test_serve_stale_rescues_short_ttls(self):
        # A half-hour attack on a one-minute TTL: the plain tier goes dark
        # for most slots, the serve-stale tier answers every one of them,
        # mostly from expired cache.
        run = scenario_ddos_resilience(ttls=(60,), attack_seconds=1800.0, seed=1)
        plain = run.tier(60, serve_stale=False)
        stale = run.tier(60, serve_stale=True)
        assert stale.availability > plain.availability
        assert stale.availability == 1.0
        assert stale.served_stale_fraction > 0.5

    def test_attack_shorter_than_ttl_is_invisible(self):
        run = scenario_ddos_resilience(ttls=(86400,), attack_seconds=1200.0)
        assert run.tier(86400, serve_stale=False).availability == 1.0

    def test_tier_lookup_raises_on_unknown(self):
        run = scenario_ddos_resilience(ttls=(60,), attack_seconds=600.0)
        with pytest.raises(KeyError):
            run.tier(12345, serve_stale=False)
