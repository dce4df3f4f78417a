"""The paper's experiments, one runnable scenario per section.

Every scenario builds its world, runs the measurement, and returns the raw
datasets plus the derived statistics that the corresponding table or
figure reports.  Bench targets under ``benchmarks/`` are thin wrappers
that print these results; tests assert the calibration targets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.analysis.cdf import ECDF
from repro.analysis.centricity import (
    CentricityBreakdown,
    classify_active_ttls,
    classify_capped_or_child,
    classify_passive_groups,
    sticky_vps,
)
from repro.atlas.measurement import Measurement, MeasurementSpec
from repro.atlas.population import AtlasConfig, AtlasPopulation
from repro.atlas.results import ResultSet
from repro.core.experiment import make_population
from repro.core.worlds import (
    CachetestWorld,
    ControlledWorld,
    NlWorld,
    UyWorld,
    build_cachetest_world,
    build_cl_world,
    build_controlled_world,
    build_ecs_cdn_world,
    build_hotset_world,
    build_nl_world,
    build_outage_world,
    build_push_world,
)
from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.registry import MetricsRegistry
from repro.metrics.snapshot import MetricsSnapshot
from repro.runner.campaigns import CellMatrix

# ------------------------------------------------- sharded campaign plumbing


def _normalize_fault_plan(faults) -> Optional[dict]:
    """Accept a :class:`FaultPlan` or a payload dict; return the payload.

    Payload form crosses the process boundary to shard workers and lands
    in the campaign fingerprint, so checkpoint resumes replay the exact
    schedule (a changed plan is a different campaign).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults.to_payload()
    return FaultPlan.from_payload(faults).to_payload()


def _run_centricity(
    campaign: str,
    builder: str,
    world_kwargs: dict,
    spec_kwargs: dict,
    qtype: RdataType,
    *,
    seed: int,
    probes: int,
    parallelism: Optional[int],
    shards: Optional[int],
    run_dir: Optional[str],
    progress,
    faults,
    predict: bool,
    profile: Optional[str],
    snapshot_every: int,
) -> tuple[ResultSet, Optional[MetricsSnapshot]]:
    """Run an active centricity campaign; returns ``(results, metrics)``.

    Without ``parallelism`` the campaign is one world measured by every
    probe (``metrics`` is None).  With it, probes are sharded through
    :mod:`repro.runner` — each shard derives its own world from its
    shard seed — and merged.  ``snapshot_every`` (with ``run_dir``)
    makes each shard checkpoint its world-level state every that-many
    queries, so a killed run resumes mid-shard.  Snapshot cadence is
    deliberately *not* part of the fingerprint — it changes when state
    hits disk, never the results.
    """
    from repro.runner.campaigns import (
        _world_builders,
        campaign_fingerprint,
        centricity_shard,
        run_campaign,
    )
    from repro.runner.merge import merge_result_sets
    from repro.runner.shard import DEFAULT_SHARDS
    from repro.runner.worldcache import prewarm

    fault_plan = _normalize_fault_plan(faults)
    if parallelism is not None:
        kwargs = {
            "builder": builder,
            "world_kwargs": world_kwargs,
            "spec_kwargs": spec_kwargs,
            "qtype_name": qtype.name,
            "fault_plan": fault_plan,
        }
        if predict:
            # Only present when armed, so run dirs checkpointed before the
            # predict layer existed still fingerprint-match their campaigns.
            kwargs["predict"] = True
        fingerprint = campaign_fingerprint(
            "centricity",
            campaign=campaign,
            seed=seed,
            probes=probes,
            shards=shards if shards is not None else DEFAULT_SHARDS,
            **kwargs,
        )
        if run_dir is not None and snapshot_every > 0:
            kwargs["snapshot"] = {
                "run_dir": str(run_dir),
                "fingerprint": fingerprint,
                "every": int(snapshot_every),
            }
        values, metrics = run_campaign(
            campaign,
            fingerprint,
            centricity_shard,
            kwargs,
            total_units=probes,
            seed=seed,
            parallelism=parallelism,
            shards=shards,
            run_dir=run_dir,
            progress=progress,
            profile=profile,
            initializer=prewarm,
            initargs=(builder, world_kwargs),
        )
        return merge_result_sets([value["results"] for value in values]), metrics

    built = _world_builders()[builder](seed, **world_kwargs)
    world = getattr(built, "world", built)
    if fault_plan is not None:
        world.network.attach_faults(
            FaultInjector(FaultPlan.from_payload(fault_plan), seed=seed)
        )
    population = make_population(world, probes=probes, seed=seed, predict=predict)
    spec = MeasurementSpec(qtype=qtype, **spec_kwargs)
    results = Measurement(
        spec=spec, vantage_points=population.vantage_points(), seed=seed
    ).run()
    return results, None


# ------------------------------------------------------------------- Table 1


@dataclass
class Table1Row:
    query: str
    server: str
    response: str
    ttl: int
    section: str
    authoritative: bool


def scenario_table1_cl(seed: int = 0) -> list[Table1Row]:
    """Reproduce Table 1: the TTLs seen resolving a.nic.cl."""
    from repro.net.topology import Region

    world = build_cl_world(seed)
    client = world.topology.endpoint_in_region(Region.EU, name="table1-client")
    rows: list[Table1Row] = []

    def ask(server_name: str, qname: str, qtype: RdataType, label: str) -> None:
        address = world.address_of(server_name)
        query = Message.make_query(qname, qtype, recursion_desired=False)
        response, _ = world.network.exchange(client, address, query, now=0.0)
        for section, heading in (
            (Section.ANSWER, "Ans."),
            (Section.AUTHORITY, "Auth."),
            (Section.ADDITIONAL, "Add."),
        ):
            for record in response.section(section):
                rows.append(
                    Table1Row(
                        query=label,
                        server=server_name,
                        response=f"{record.name}/{record.rdtype.name}",
                        ttl=record.ttl,
                        section=heading,
                        authoritative=response.flags.aa,
                    )
                )

    ask("a.root-servers.net", "cl.", RdataType.NS, ".cl / NS")
    ask("a.nic.cl", "cl.", RdataType.NS, ".cl / NS")
    ask("a.nic.cl", "a.nic.cl.", RdataType.A, "a.nic.cl / A")
    return rows


# --------------------------------------------------------- §3.2/§3.3 (T2, F1, F2)


@dataclass
class CentricityRun:
    """One active centricity measurement campaign."""

    name: str
    parent_ttl: int
    child_ttl: int
    results: ResultSet
    breakdown: CentricityBreakdown
    summary: dict[str, int]
    #: Merged campaign metrics (sharded runs only; None on the plain
    #: serial path, which runs outside :mod:`repro.runner`).
    metrics: Optional[MetricsSnapshot] = None

    def ttl_cdf(self) -> ECDF:
        return ECDF(self.results.ttls())


def _expected_answer(result) -> bool:
    return result.ok


def _centricity_result(
    name: str,
    parent_ttl: int,
    child_ttl: int,
    results: ResultSet,
    metrics: Optional[MetricsSnapshot],
    classify,
) -> CentricityRun:
    """Classify a campaign's valid answers into its :class:`CentricityRun`."""
    valid = results.valid(_expected_answer)
    return CentricityRun(
        name=name,
        parent_ttl=parent_ttl,
        child_ttl=child_ttl,
        results=valid,
        breakdown=classify(valid.ttls(), parent_ttl=parent_ttl, child_ttl=child_ttl),
        summary=results.summary(_expected_answer),
        metrics=metrics,
    )


def scenario_uy_ns(
    seed: int = 0,
    probes: int = 300,
    child_ns_ttl: int = 300,
    duration: float = 7200.0,
    interval: float = 600.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    faults=None,
    predict: bool = False,
    profile: Optional[str] = None,
    snapshot_every: int = 0,
) -> CentricityRun:
    """The .uy-NS campaign (Table 2 col 1; Figure 1): parent 172800 s,
    child 300 s, queries every 10 min for 2 h.

    With ``parallelism`` set, the campaign runs through
    :mod:`repro.runner`: probes are sharded deterministically, shards
    execute on that many workers (1 = the serial in-process fallback),
    and the merged :class:`ResultSet` is identical for every worker
    count.  ``run_dir`` enables checkpoint/resume; ``snapshot_every``
    additionally checkpoints world-level state mid-shard (see
    docs/performance.md).  ``faults`` (a :class:`FaultPlan` or its
    payload) schedules failures against the campaign's virtual clock —
    see docs/resilience.md.  ``predict`` arms every resolver with the
    default predictive policy (refresh-ahead + RFC 8767) — see
    docs/prediction.md.  ``profile`` writes per-shard cProfile stats.
    """
    results, metrics = _run_centricity(
        "uy-NS", "uy", {"child_ns_ttl": child_ns_ttl},
        dict(qname="uy.", interval=interval, duration=duration,
             description=f".uy-NS (child TTL {child_ns_ttl})"),
        RdataType.NS, seed=seed, probes=probes, parallelism=parallelism,
        shards=shards, run_dir=run_dir, progress=progress, faults=faults,
        predict=predict, profile=profile, snapshot_every=snapshot_every,
    )
    return _centricity_result(
        "uy-NS" if child_ns_ttl == 300 else "uy-NS-new", 172800, child_ns_ttl,
        results, metrics, classify_active_ttls,
    )


def scenario_anicuy_a(
    seed: int = 0,
    probes: int = 300,
    duration: float = 10800.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    faults=None,
    predict: bool = False,
    profile: Optional[str] = None,
    snapshot_every: int = 0,
) -> CentricityRun:
    """The a.nic.uy-A campaign (Table 2 col 2; Figure 1): parent glue
    172800 s, child A 120 s, every 10 min for 3 h."""
    results, metrics = _run_centricity(
        "a.nic.uy-A", "uy", {},
        dict(qname="a.nic.uy.", interval=600.0, duration=duration,
             description="a.nic.uy-A"),
        RdataType.A, seed=seed, probes=probes, parallelism=parallelism,
        shards=shards, run_dir=run_dir, progress=progress, faults=faults,
        predict=predict, profile=profile, snapshot_every=snapshot_every,
    )
    return _centricity_result(
        "a.nic.uy-A", 172800, 120, results, metrics, classify_active_ttls
    )


def scenario_googleco_ns(
    seed: int = 0,
    probes: int = 300,
    duration: float = 3600.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    faults=None,
    predict: bool = False,
    profile: Optional[str] = None,
    snapshot_every: int = 0,
) -> CentricityRun:
    """The google.co-NS campaign (Table 2 col 3; Figure 2): parent 900 s,
    child 345600 s, every 10 min for 1 h."""
    results, metrics = _run_centricity(
        "google.co-NS", "googleco", {},
        dict(qname="google.co.", interval=600.0, duration=duration,
             description="google.co-NS"),
        RdataType.NS, seed=seed, probes=probes, parallelism=parallelism,
        shards=shards, run_dir=run_dir, progress=progress, faults=faults,
        predict=predict, profile=profile, snapshot_every=snapshot_every,
    )
    return _centricity_result(
        "google.co-NS", 900, 345600, results, metrics,
        partial(classify_capped_or_child, cap=21599),
    )


# ------------------------------------------------------------ §3.4 (F3, F4)


@dataclass
class NlPassiveRun:
    world: NlWorld
    groups: dict[tuple[str, Name], list[float]]
    breakdown: object
    queries_per_group: list[int]
    min_interarrivals: list[float]
    total_queries: int
    unique_resolvers: int


def scenario_nl_passive(
    seed: int = 0,
    resolvers: int = 200,
    duration: float = 172800.0,
    domain_count: int = 300,
    median_rate_per_hour: float = 0.025,
    rate_sigma: float = 2.2,
) -> NlPassiveRun:
    """The passive .nl study (§3.4): a resolver fleet drives two days of
    client workload; the monitored authoritatives' logs are grouped by
    (resolver, NS-name) exactly as Figures 3 and 4 require."""
    from repro.resolver.policy import ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver

    nl = build_nl_world(seed, domain_count=domain_count)
    world = nl.world
    rng = random.Random(seed ^ 0x9A55)

    fleet: list[RecursiveResolver] = []
    for index in range(resolvers):
        endpoint = world.topology.create_endpoint(name=f"nl-res-{index}")
        fleet.append(
            RecursiveResolver(
                endpoint=endpoint,
                network=world.network,
                root_hints=world.hints,
                policy=ResolverPolicy.child_centric(),
            )
        )

    # Heterogeneous client demand: a heavy-tailed lognormal over per-
    # resolver rates — most resolvers rarely need .nl (they produce the
    # paper's 48 % single-query groups), a few are very busy (they produce
    # the multi-query mass and the hourly re-fetch bumps of Figure 4).
    events: list[tuple[float, int, str]] = []
    for index in range(resolvers):
        rate = rng.lognormvariate(math.log(median_rate_per_hour), rate_sigma) / 3600.0
        t = rng.expovariate(rate) if rate > 0 else duration
        while t < duration:
            domain = f"www.domain{rng.randrange(domain_count)}.nl."
            events.append((t, index, domain))
            t += rng.expovariate(rate)
    events.sort(key=lambda event: event[0])

    for timestamp, index, qname in events:
        fleet[index].resolve(qname, RdataType.A, timestamp)

    ns_names = {Name(f"{name}.") for name in nl.server_names}
    groups = {
        key: stamps
        for key, stamps in nl.monitored_log_groups().items()
        if key[1] in ns_names
    }
    from repro.analysis.interarrival import (
        min_interarrival_per_group,
        queries_per_group,
    )

    breakdown = classify_passive_groups(groups)
    return NlPassiveRun(
        world=nl,
        groups=groups,
        breakdown=breakdown,
        queries_per_group=queries_per_group(groups),
        min_interarrivals=min_interarrival_per_group(groups),
        total_queries=sum(
            world.servers[name].queries_received for name in nl.monitored
        ),
        unique_resolvers=len({resolver for resolver, _ in groups}),
    )


# ----------------------------------------------------- §4 (T3, T4, F6, F7, F8)


@dataclass
class BailiwickRun:
    world: CachetestWorld
    results: ResultSet
    summary: dict[str, int]
    timeseries: dict[str, dict[int, int]]
    sticky_vp_ids: set[str]
    switched_by_round: dict[int, float]  # round -> fraction answered by new

    @property
    def old_label(self) -> str:
        return self.world.old_answer

    @property
    def new_label(self) -> str:
        return self.world.new_answer


def scenario_bailiwick(
    seed: int = 0,
    in_bailiwick: bool = True,
    probes: int = 300,
    duration: float = 14400.0,
    interval: float = 600.0,
    renumber_at: float = 540.0,
) -> BailiwickRun:
    """The §4 renumbering experiment (in- or out-of-bailiwick).

    Queries AAAA PROBEID.sub.cachetest.net every 10 minutes for 4 hours
    from every VP; the server is renumbered at t=9 min (paper §4.2).
    """
    ct = build_cachetest_world(seed, in_bailiwick=in_bailiwick)
    population = make_population(ct.world, probes=probes, seed=seed)
    spec = MeasurementSpec(
        qname="PROBEID.sub.cachetest.net.",
        qtype=RdataType.AAAA,
        interval=interval,
        duration=duration,
        description=f"{'in' if in_bailiwick else 'out-of'}-bailiwick renumbering",
    )
    measurement = Measurement(
        spec=spec, vantage_points=population.vantage_points(), seed=seed
    )
    measurement.schedule(renumber_at, ct.renumber, label="renumber")
    results = measurement.run()
    valid = results.valid(_expected_answer)

    per_vp: dict[str, list[tuple[float, tuple[str, ...]]]] = {}
    for result in valid:
        per_vp.setdefault(result.vp_id, []).append((result.timestamp, result.answers))
    sticky = sticky_vps(per_vp, ct.old_answer, first_round_end=interval)

    switched: dict[int, float] = {}
    for round_index in range(spec.rounds()):
        round_results = valid.for_round(round_index)
        if len(round_results) == 0:
            continue
        new_count = sum(
            1 for result in round_results if ct.new_answer in result.answers
        )
        switched[round_index] = new_count / len(round_results)

    return BailiwickRun(
        world=ct,
        results=valid,
        summary=results.summary(_expected_answer),
        timeseries=valid.answer_timeseries(bin_seconds=interval),
        sticky_vp_ids=sticky,
        switched_by_round=switched,
    )


def scenario_matched_sticky(
    seed: int = 0, probes: int = 300
) -> tuple[BailiwickRun, BailiwickRun, list[float]]:
    """Figure 8: VPs sticky in the out-of-bailiwick run, re-observed in the
    in-bailiwick run; returns their new-server response ratios there."""
    out_run = scenario_bailiwick(seed, in_bailiwick=False, probes=probes)
    in_run = scenario_bailiwick(seed, in_bailiwick=True, probes=probes)
    in_per_vp: dict[str, list] = {}
    for result in in_run.results:
        in_per_vp.setdefault(result.vp_id, []).append(result)
    ratios: list[float] = []
    for vp_id in out_run.sticky_vp_ids:
        rows = in_per_vp.get(vp_id)
        if not rows:
            continue
        new = sum(1 for r in rows if in_run.world.new_answer in r.answers)
        ratios.append(new / len(rows))
    return out_run, in_run, ratios


@dataclass
class OpenDnsCaseStudy:
    """§4.4's confirmation probe of a parent-centric public resolver."""

    responses: int
    old_answers: int
    new_answers: int
    child_ns_queries_seen: int

    @property
    def old_fraction(self) -> float:
        return self.old_answers / self.responses if self.responses else 0.0


def scenario_opendns_case_study(
    seed: int = 0,
    interval: float = 300.0,
    duration: float = 48600.0,
) -> OpenDnsCaseStudy:
    """The §4.4 single-VP probe of an OpenDNS-like resolver.

    The paper queried one OpenDNS resolver every 300 s after renumbering
    the out-of-bailiwick server and found answers from the *old* server
    long past every child TTL — because the resolver trusted the .com
    zone's 2-day NS/glue and never asked the child for NS records.
    """
    from repro.resolver.policy import ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver
    from repro.net.topology import Region

    ct = build_cachetest_world(seed, in_bailiwick=False)
    world = ct.world
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU, "opendns-like"),
        network=world.network,
        root_hints=world.hints,
        policy=ResolverPolicy.parent_centric(),
    )
    # Warm the resolver, renumber at t=9min, then probe every 300 s.
    old = new = responses = 0
    renumbered = False
    t = 0.0
    while t < duration:
        if not renumbered and t >= 540.0:
            ct.renumber()
            renumbered = True
        out = resolver.resolve("probe.sub.cachetest.net.", RdataType.AAAA, now=t)
        if out.rcode.name == "NOERROR" and out.answers:
            responses += 1
            answer = str(out.answers[-1].rdatas[0])
            if answer == ct.old_answer:
                old += 1
            elif answer == ct.new_answer:
                new += 1
        t += interval
    # "our authoritative servers have received no queries for NS
    # zurrundedu.com" — verify the same from our logs.
    ns_queries = 0
    for server in (ct.old_server, ct.new_server):
        log = server.query_log
        if log is not None:
            ns_queries += sum(
                1
                for entry in log
                if entry.qtype == RdataType.NS
                and entry.qname == Name("zurrundedu.com.")
            )
    return OpenDnsCaseStudy(
        responses=responses,
        old_answers=old,
        new_answers=new,
        child_ns_queries_seen=ns_queries,
    )


def scenario_zurrundedu_offline(
    seed: int = 0, probes: int = 200
) -> tuple[ResultSet, AtlasPopulation]:
    """§4.4: child servers down; only parent-centric resolvers answer."""
    ct = build_cachetest_world(seed, in_bailiwick=False)
    population = make_population(ct.world, probes=probes, seed=seed)
    ct.take_child_offline()
    spec = MeasurementSpec(
        qname="sub.cachetest.net.",
        qtype=RdataType.NS,
        interval=600.0,
        duration=1200.0,
        description="child authoritatives offline",
    )
    results = Measurement(
        spec=spec, vantage_points=population.vantage_points(), seed=seed
    ).run()
    return results, population


# ----------------------------------------------------------- §5.3 (Figure 10)


@dataclass
class UyNaturalRun:
    before: ResultSet
    after: ResultSet

    def rtts_by_region(self, which: str) -> dict:
        dataset = self.before if which == "before" else self.after
        return {
            region: [r.rtt * 1000.0 for r in rows]
            for region, rows in dataset.by_region().items()
        }


def scenario_uy_natural(
    seed: int = 0,
    probes: int = 300,
    duration: float = 7200.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
) -> UyNaturalRun:
    """Figure 10: .uy NS query RTTs with TTL 300 s vs 86400 s.

    Run as two independent campaigns (before/after the operator's change),
    as the paper's uy-NS and uy-NS-new measurements were.
    """
    before = scenario_uy_ns(
        seed, probes=probes, child_ns_ttl=300, duration=duration,
        parallelism=parallelism, shards=shards,
    )
    after = scenario_uy_ns(
        seed, probes=probes, child_ns_ttl=86400, duration=duration,
        parallelism=parallelism, shards=shards,
    )
    return UyNaturalRun(before=before.results, after=after.results)


# ------------------------------------------------------- §6.2 (Table 10, F11)


@dataclass
class ControlledRun:
    label: str
    results: ResultSet
    auth_queries: int
    auth_unique_ips: int
    client_summary: dict[str, int]
    #: This run's metrics snapshot (set by :func:`scenario_controlled_ttl`).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def queries(self) -> int:
        return self.client_summary["queries"]

    def rtts_ms(self) -> list[float]:
        return self.results.rtts_ms()


#: The five §6.2 experiments: label -> (qname, zone, server).
_CONTROLLED_RUNS: dict[str, tuple[str, str, str]] = {
    "TTL60-u": ("PROBEID.ttl60.mapache-de-madrid.co.",
                "zone_unicast_60", "unicast_server"),
    "TTL86400-u": ("PROBEID.ttl86400.mapache-de-madrid.co.",
                   "zone_unicast_86400", "unicast_server"),
    "TTL60-s": ("1.ttl60.mapache-de-madrid.co.",
                "zone_unicast_60", "unicast_server"),
    "TTL86400-s": ("2.ttl86400.mapache-de-madrid.co.",
                   "zone_unicast_86400", "unicast_server"),
    "TTL60-anycast": ("4.anycast.mapache-de-madrid.co.",
                      "zone_anycast", "anycast"),
}


def _run_controlled(
    label: str,
    seed: int,
    probes: int,
    duration: float,
    interval: float = 600.0,
    metrics: Optional[MetricsRegistry] = None,
) -> ControlledRun:
    qname, zone_attr, server_attr = _CONTROLLED_RUNS[label]
    world = build_controlled_world(seed)
    if metrics is not None:
        world.world.network.attach_metrics(metrics)
    population = make_population(world.world, probes=probes, seed=seed)
    spec = MeasurementSpec(
        qname=qname,
        qtype=RdataType.AAAA,
        interval=interval,
        duration=duration,
        description=label,
    )
    results = Measurement(
        spec=spec, vantage_points=population.vantage_points(), seed=seed
    ).run()
    valid = results.valid(_expected_answer)
    server = getattr(world, server_attr)
    log = server.query_log
    assert log is not None
    zone = getattr(world, zone_attr)
    relevant = log.filtered(lambda e: e.qname.is_subdomain_of(zone.origin))
    return ControlledRun(
        label=label,
        results=valid,
        auth_queries=len(relevant),
        auth_unique_ips=len(relevant.unique_clients()),
        client_summary=results.summary(_expected_answer),
    )


def scenario_controlled_ttl(
    seed: int = 0,
    probes: int = 300,
    duration: float = 3600.0,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> dict[str, ControlledRun]:
    """Table 10 / Figure 11: the five controlled experiments.

    Unique-QNAME runs use PROBEID names; shared runs a single name; the
    anycast run uses the 45-site cluster.  Each runs in a fresh world
    seeded ``seed + i`` as one cell of a :class:`CellMatrix` — so the
    output is identical for every worker count.
    """
    values, _ = CellMatrix(
        kind="controlled-ttl",
        label="controlled",
        cell_fn="controlled",
        axes={"label": tuple(_CONTROLLED_RUNS)},
        fixed={"probes": probes, "duration": duration},
    ).run(seed, parallelism=parallelism, run_dir=run_dir, progress=progress,
          profile=profile)
    runs: dict[str, ControlledRun] = {}
    for value in values:
        run = value["results"]
        run.metrics = MetricsSnapshot.from_payload(value["metrics"])
        runs[run.label] = run
    return runs


# ------------------------------------------------------------------- §6.1


@dataclass(frozen=True)
class DdosTierResult:
    """One (TTL, serve-stale) cell of the resilience matrix."""

    ttl: int
    serve_stale: bool
    seed: int
    #: Probe slots during the attack window.
    slots: int
    #: Slots answered with records (fresh or stale).
    answered: int
    #: Slots answered from expired cache (serve-stale engagements).
    stale_answers: int
    #: Whether the post-attack recovery probe got a fresh answer.
    recovered: bool

    @property
    def queries(self) -> int:
        """Resolutions driven: the warm-up, one per slot, the recovery probe."""
        return self.slots + 2

    @property
    def availability(self) -> float:
        return self.answered / self.slots if self.slots else 0.0

    @property
    def served_stale_fraction(self) -> float:
        return self.stale_answers / self.slots if self.slots else 0.0


@dataclass
class DdosResilienceRun:
    """§6.1: answer availability under an authoritative outage.

    The paper's claim — "longer caching is more robust to DDoS attacks",
    sharpened by Moura et al. to "TTLs must be longer than the attack" —
    falls out of the tier matrix: availability climbs from 0 to 1 as the
    TTL crosses the attack duration, and serve-stale rescues every tier.
    """

    attack_seconds: float
    probe_interval: float
    attack_start: float
    tiers: list[DdosTierResult]
    #: Merged campaign metrics (fault events, retries, recoveries).
    metrics: Optional[MetricsSnapshot] = None

    def tier(self, ttl: int, serve_stale: bool) -> DdosTierResult:
        for result in self.tiers:
            if result.ttl == ttl and result.serve_stale == serve_stale:
                return result
        raise KeyError((ttl, serve_stale))

    def availability_profile(self, serve_stale: bool) -> dict[int, float]:
        """TTL -> availability, the headline curve of the scenario."""
        return {
            result.ttl: result.availability
            for result in self.tiers
            if result.serve_stale == serve_stale
        }


def _run_ddos_tier(
    *,
    ttl: int,
    serve_stale: bool,
    seed: int,
    attack_seconds: float,
    probe_interval: float,
    attack_start: float,
    fault_plan: Optional[dict] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> DdosTierResult:
    """Probe one warmed resolver through an authoritative outage.

    The outage is injected through :mod:`repro.faults` (never by mutating
    the loss model directly), so every fault event is observable in the
    metrics stream and extra faults can ride along via ``fault_plan``.
    """
    from repro.net.topology import Region
    from repro.resolver.policy import ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver

    outage = build_outage_world(ttl, seed)
    world = outage.world
    if metrics is not None:
        world.network.attach_metrics(metrics)

    specs = [
        FaultSpec(
            kind="server_outage",
            start=attack_start,
            duration=attack_seconds,
            target=outage.target_address,
        )
    ]
    plan_name, plan_seed = "ddos", seed
    if fault_plan is not None:
        extra = FaultPlan.from_payload(fault_plan)
        specs.extend(extra.faults)
        plan_name = extra.name or plan_name
        plan_seed = extra.seed
    plan = FaultPlan(faults=tuple(specs), name=plan_name, seed=plan_seed)
    world.network.attach_faults(FaultInjector(plan, seed=seed))

    policy = ResolverPolicy.child_centric().with_(serve_stale=serve_stale)
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU, "res"),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
    )
    # Warm the cache just before the attack begins.
    warm = resolver.resolve("www.shop.example.", RdataType.A, now=0.0)
    assert warm.rcode == Rcode.NOERROR and warm.answers

    answered = stale = 0
    slots = int(attack_seconds // probe_interval)
    for k in range(1, slots + 1):
        out = resolver.resolve("www.shop.example.", RdataType.A, now=k * probe_interval)
        if out.rcode == Rcode.NOERROR and out.answers:
            answered += 1
            stale += out.served_stale
    # One probe after the attack lifts: the tree answers again, and the
    # delivery closes the fault's recovery clock in the metrics stream.
    after = resolver.resolve(
        "www.shop.example.", RdataType.A,
        now=attack_start + attack_seconds + probe_interval,
    )
    recovered = bool(after.rcode == Rcode.NOERROR and after.answers)
    return DdosTierResult(
        ttl=ttl,
        serve_stale=serve_stale,
        seed=seed,
        slots=slots,
        answered=answered,
        stale_answers=stale,
        recovered=recovered,
    )


def scenario_ddos_resilience(
    seed: int = 0,
    ttls: tuple = (60, 300, 1800, 3600, 86400),
    attack_seconds: float = 3600.0,
    probe_interval: float = 300.0,
    attack_start: Optional[float] = None,
    faults=None,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> DdosResilienceRun:
    """§6.1: availability across TTL tiers during a 1 h authoritative DDoS.

    Runs a (TTL × serve-stale) matrix of independent tiers: each warms a
    child-centric resolver, takes the zone's only authoritative down via
    a :class:`FaultPlan`, and probes every ``probe_interval``.  The
    tiers are the cells of a :class:`CellMatrix`, one shard each, so the
    output is identical for every worker count.  ``faults`` schedules
    *additional* failures on top of the attack in every tier.
    """
    if attack_start is None:
        # Half a slot before the first probe: every probe lands mid-attack.
        attack_start = probe_interval / 2
    values, metrics = CellMatrix(
        kind="ddos-resilience",
        label="ddos",
        cell_fn="ddos",
        axes={"serve_stale": (False, True), "ttl": ttls},
        fixed={
            "attack_seconds": attack_seconds,
            "probe_interval": probe_interval,
            "attack_start": attack_start,
            "fault_plan": _normalize_fault_plan(faults),
        },
    ).run(seed, parallelism=parallelism, run_dir=run_dir, progress=progress,
          profile=profile)
    return DdosResilienceRun(
        attack_seconds=attack_seconds,
        probe_interval=probe_interval,
        attack_start=attack_start,
        tiers=[value["results"] for value in values],
        metrics=metrics,
    )


# ----------------------------------------------- prefetch/refresh-ahead figure


#: Resolver behaviour per prefetch-tradeoff mode.
_PREFETCH_MODES = ("off", "onhit", "ahead")


@dataclass(frozen=True)
class PrefetchCell:
    """One (mode, TTL) cell of the prefetch trade-off matrix."""

    mode: str
    ttl: int
    seed: int
    #: Client queries driven through the resolver.
    queries: int
    #: Queries answered straight from live cache.
    cache_hits: int
    #: Queries the child authoritative answered (the volume axis).
    auth_queries: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Scheduler-executed refreshes + revalidations (0 for mode "off").
    refreshes: int
    #: RFC 8767 stale answers (mode "ahead" only).
    stale_answered: int

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0


@dataclass
class PrefetchTradeoffRun:
    """The prefetch figure: client p99 and authoritative volume vs TTL.

    Pappas et al.'s renewal idea, quantified: at short TTLs refresh-ahead
    buys the client hit-latency p99 at the price of budgeted refresh
    traffic; at day-long TTLs prediction buys (and costs) nothing.
    """

    duration: float
    rate_qps: float
    names: int
    cells: list[PrefetchCell]
    metrics: Optional[MetricsSnapshot] = None

    def cell(self, mode: str, ttl: int) -> PrefetchCell:
        for cell in self.cells:
            if cell.mode == mode and cell.ttl == ttl:
                return cell
        raise KeyError((mode, ttl))

    def p99_profile(self, mode: str) -> dict[int, float]:
        return {c.ttl: c.p99_ms for c in self.cells if c.mode == mode}

    def auth_profile(self, mode: str) -> dict[int, int]:
        return {c.ttl: c.auth_queries for c in self.cells if c.mode == mode}


def _run_prefetch_cell(
    *,
    mode: str,
    ttl: int,
    seed: int,
    names: int,
    rate_qps: float,
    duration: float,
    metrics: Optional[MetricsRegistry] = None,
) -> PrefetchCell:
    """Drive one resolver through a Zipf workload against one TTL tier."""
    from repro.loadgen.arrivals import poisson_schedule
    from repro.net.topology import Region
    from repro.resolver.policy import ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver
    from repro.workload import ZipfSampler

    hotset = build_hotset_world(ttl, seed, names=names)
    world = hotset.world
    if metrics is not None:
        world.network.attach_metrics(metrics)
    policy = {
        "off": ResolverPolicy.child_centric,
        "onhit": ResolverPolicy.prefetching,
        "ahead": ResolverPolicy.predictive,
    }[mode]()
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU, "prefetch-res"),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
    )
    rng = random.Random(seed ^ 0x50F7)
    sampler = ZipfSampler(population=names, exponent=1.0)
    latencies: list[float] = []
    hits = 0
    count = 0
    for at in poisson_schedule(rate_qps, duration, rng):
        qname = hotset.qnames[sampler.rank(rng)]
        out = resolver.resolve(qname, RdataType.A, now=at)
        latencies.append(out.elapsed * 1000.0)
        hits += out.cache_hit
        count += 1
    cdf = ECDF(latencies) if latencies else None
    refreshes = stale = 0
    if metrics is not None:
        snapshot = metrics.snapshot()
        present = set(snapshot.metrics)
        refreshes = int(
            (snapshot.value("predict.refreshes") if "predict.refreshes" in present else 0)
            + (snapshot.value("predict.revalidations")
               if "predict.revalidations" in present else 0)
        )
        if "predict.stale_answered" in present:
            stale = int(snapshot.value("predict.stale_answered"))
    return PrefetchCell(
        mode=mode,
        ttl=ttl,
        seed=seed,
        queries=count,
        cache_hits=hits,
        auth_queries=hotset.auth_queries,
        p50_ms=cdf.median if cdf else 0.0,
        p95_ms=cdf.quantile(0.95) if cdf else 0.0,
        p99_ms=cdf.quantile(0.99) if cdf else 0.0,
        refreshes=refreshes,
        stale_answered=stale,
    )


def scenario_prefetch_tradeoff(
    seed: int = 0,
    ttls: tuple = (60, 300, 3600, 86400),
    modes: tuple = _PREFETCH_MODES,
    names: int = 16,
    rate_qps: float = 2.0,
    duration: float = 1800.0,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> PrefetchTradeoffRun:
    """Authoritative volume and client p99 vs TTL, with prediction
    off / on-hit prefetch / refresh-ahead.

    Runs a (mode × TTL) matrix of independent cells, each a fresh
    :func:`build_hotset_world` plus one resolver under a seeded Zipf
    workload.  The cells run as one shard each through a
    :class:`CellMatrix` — identical for every worker count, predict
    machinery included.
    """
    values, metrics = CellMatrix(
        kind="prefetch-tradeoff",
        label="prefetch",
        cell_fn="prefetch",
        axes={"mode": modes, "ttl": ttls},
        known={"mode": _PREFETCH_MODES},
        fixed={"names": names, "rate_qps": rate_qps, "duration": duration},
    ).run(seed, parallelism=parallelism, run_dir=run_dir, progress=progress,
          profile=profile)
    return PrefetchTradeoffRun(
        duration=duration,
        rate_qps=rate_qps,
        names=names,
        cells=[value["results"] for value in values],
        metrics=metrics,
    )


# ------------------------------------------------------ ECS + CDN interplay


#: Resolution architectures compared by the ECS/CDN scenario.
_ECS_MODES = ("isp", "public", "public-ecs")


@dataclass(frozen=True)
class EcsCell:
    """One (mode, TTL) cell of the ECS/CDN matrix."""

    mode: str
    ttl: int
    seed: int
    #: Client queries driven through the resolvers.
    queries: int
    #: Queries answered from resolver cache (global or subnet-scoped).
    cache_hits: int
    #: Queries the CDN authoritative answered (cache-miss volume).
    auth_queries: int
    #: Client-to-content latency: DNS resolution plus one RTT to the
    #: answered site — the end-to-end number the CDN papers compare.
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Fraction of queries answered with the client's region-local site.
    local_site_rate: float
    #: Per-site answer tallies, sorted by site name.
    site_counts: tuple[tuple[str, int], ...]
    #: Subnet-scoped cache entries at end of run (the cardinality axis).
    scoped_entries: int
    #: Scoped hits served to a different covered subnet than the one
    #: that fetched the answer.
    scope_merges: int

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0


@dataclass
class EcsCdnRun:
    """The ECS/CDN figure: end-to-end latency and hit rate vs TTL for
    ISP resolvers, a public resolver without ECS, and one with it.

    The expected shape: "isp" and "public-ecs" route clients to nearby
    sites (low p50), "public" sends every catchment to the egress's site
    (high tail for far clients); "public-ecs" pays for the repair with
    subnet-scoped cache cardinality and a lower hit rate at equal TTL.
    """

    duration: float
    rate_qps: float
    subnets: int
    cells: list[EcsCell]
    metrics: Optional[MetricsSnapshot] = None

    def cell(self, mode: str, ttl: int) -> EcsCell:
        for cell in self.cells:
            if cell.mode == mode and cell.ttl == ttl:
                return cell
        raise KeyError((mode, ttl))

    def latency_profile(self, mode: str) -> dict[int, float]:
        return {c.ttl: c.p50_ms for c in self.cells if c.mode == mode}

    def hit_profile(self, mode: str) -> dict[int, float]:
        return {c.ttl: c.hit_rate for c in self.cells if c.mode == mode}


def _run_ecs_cell(
    *,
    mode: str,
    ttl: int,
    seed: int,
    subnets: int,
    rate_qps: float,
    duration: float,
    metrics: Optional[MetricsRegistry] = None,
) -> EcsCell:
    """Drive one resolution architecture through the CDN workload."""
    from repro.core.worlds import _ECS_SITE_OF_REGION
    from repro.loadgen.arrivals import poisson_schedule
    from repro.resolver.policy import EcsPolicy, ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver

    testbed = build_ecs_cdn_world(ttl, seed, subnets=subnets)
    world = testbed.world
    if metrics is not None:
        world.network.attach_metrics(metrics)
        testbed.cdn.attach_metrics(metrics)

    policy = ResolverPolicy.child_centric()
    if mode == "public-ecs":
        policy = policy.with_(ecs=EcsPolicy())
    if mode == "isp":
        resolvers = {
            region: RecursiveResolver(
                endpoint=endpoint,
                network=world.network,
                root_hints=world.hints,
                policy=policy,
            )
            for region, endpoint in testbed.isp_endpoints.items()
        }
        resolver_of = lambda client: resolvers[client.region]  # noqa: E731
    else:
        resolvers = {
            egress: RecursiveResolver(
                endpoint=endpoint,
                network=world.network,
                root_hints=world.hints,
                policy=policy,
            )
            for egress, endpoint in testbed.egress_endpoints.items()
        }
        resolver_of = lambda client: resolvers[client.egress]  # noqa: E731

    site_of_address = {site.address: name for name, site in testbed.sites.items()}
    local_site = {
        client.index: _ECS_SITE_OF_REGION[client.region]
        for client in testbed.clients
    }
    rng = random.Random(seed ^ 0xEC5D)
    clients = testbed.clients
    latencies: list[float] = []
    hits = 0
    count = 0
    local_answers = 0
    for at in poisson_schedule(rate_qps, duration, rng):
        client = clients[rng.randrange(len(clients))]
        resolver = resolver_of(client)
        out = resolver.resolve(
            testbed.content_name,
            RdataType.A,
            now=at,
            client_subnet=client.subnet if mode == "public-ecs" else None,
        )
        total_ms = out.elapsed * 1000.0
        if out.answers:
            rdata = out.answers[-1].rdatas[0]
            site_name = site_of_address.get(getattr(rdata, "address", None))
            if site_name is not None:
                total_ms += (
                    world.network.latency.rtt(
                        client.endpoint, testbed.site_endpoints[site_name], rng
                    )
                    * 1000.0
                )
                if site_name == local_site[client.index]:
                    local_answers += 1
        latencies.append(total_ms)
        hits += out.cache_hit
        count += 1
    cdf = ECDF(latencies) if latencies else None
    scope_merges = 0
    if metrics is not None:
        snapshot = metrics.snapshot()
        if "ecs.scope_merges" in snapshot.metrics:
            scope_merges = int(snapshot.value("ecs.scope_merges"))
    return EcsCell(
        mode=mode,
        ttl=ttl,
        seed=seed,
        queries=count,
        cache_hits=hits,
        auth_queries=testbed.auth_queries,
        p50_ms=cdf.median if cdf else 0.0,
        p95_ms=cdf.quantile(0.95) if cdf else 0.0,
        p99_ms=cdf.quantile(0.99) if cdf else 0.0,
        local_site_rate=local_answers / count if count else 0.0,
        site_counts=tuple(sorted(testbed.cdn.site_answers.items())),
        scoped_entries=sum(
            resolver.cache.ecs_scoped_len() for resolver in resolvers.values()
        ),
        scope_merges=scope_merges,
    )


def scenario_ecs_cdn(
    seed: int = 0,
    ttls: tuple = (60, 300, 3600),
    modes: tuple = _ECS_MODES,
    subnets: int = 12,
    rate_qps: float = 2.0,
    duration: float = 1800.0,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> EcsCdnRun:
    """Client-to-content latency and cache hit rate across TTLs for ISP
    resolvers vs a public resolver without and with ECS.

    Runs a (mode × TTL) matrix of independent cells, each a fresh
    :func:`build_ecs_cdn_world` plus its resolver set under a seeded
    workload.  The cells run as one shard each through a
    :class:`CellMatrix` — identical for every worker count, scoped-cache
    metrics included.
    """
    values, metrics = CellMatrix(
        kind="ecs-cdn",
        label="ECS",
        cell_fn="ecs",
        axes={"mode": modes, "ttl": ttls},
        known={"mode": _ECS_MODES},
        fixed={"subnets": subnets, "rate_qps": rate_qps, "duration": duration},
    ).run(seed, parallelism=parallelism, run_dir=run_dir, progress=progress,
          profile=profile)
    return EcsCdnRun(
        duration=duration,
        rate_qps=rate_qps,
        subnets=subnets,
        cells=[value["results"] for value in values],
        metrics=metrics,
    )


# ------------------------------------------------------- push vs TTL polling


#: Fault families the push/poll comparison runs under.
_PUSH_PLANS = ("renumbering", "ddos")
#: Update channels under comparison.
_PUSH_MODES = ("poll", "push")
#: Analytic population rungs for the 1k -> 1M projection.
PUSH_POPULATIONS = (1_000, 10_000, 100_000, 1_000_000)


@dataclass(frozen=True)
class PushCell:
    """One (plan, mode, TTL) cell of the push-vs-poll matrix."""

    plan: str
    mode: str
    ttl: int
    seed: int
    seats: int
    #: Probes driven through the resolver seats (warm probes included).
    probes: int
    #: Probes answered NOERROR with an address.
    answered: int
    #: Answered probes carrying an outdated address (the record had
    #: changed but the cached copy had not caught up).
    stale_probes: int
    #: Full DNS queries the child authoritative answered — cache-miss
    #: refetches plus (in push mode) SUBSCRIBE exchanges.  Keepalives are
    #: transport frames and deliberately excluded, as for a real DSO
    #: session.
    auth_queries: int
    #: NOTIFY frames enqueued / coalesced away / sessions reset by a
    #: doomed NOTIFY (push mode; all zero under polling).
    notifications: int
    coalesced: int
    session_resets: int
    #: Client-side session reconnects (push mode).
    reconnects: int
    #: Probe-observed staleness windows, seconds: per change and seat,
    #: how long after the change the seat's answers kept showing the old
    #: address (censored at the next change or end of run).
    mean_staleness_s: float
    p95_staleness_s: float
    max_staleness_s: float
    #: Measured per-seat authoritative query rate, queries/hour.
    per_seat_auth_per_hour: float
    #: ``(population, projected authoritative queries/s)``: the measured
    #: per-seat rate scaled to resolver populations the simulation never
    #: instantiates — the same aggregate treatment docs/ecs.md applies
    #: with the Jung model.
    projected_auth_qps: tuple[tuple[int, float], ...]
    #: Jung et al. closed-form check: a poll-mode seat probing at
    #: ``1/probe_interval`` misses at ``lambda/(1 + lambda*TTL)`` qps.
    analytic_poll_miss_qps: float

    @property
    def queries(self) -> int:
        return self.probes

    @property
    def answered_rate(self) -> float:
        return self.answered / self.probes if self.probes else 0.0

    @property
    def stale_rate(self) -> float:
        return self.stale_probes / self.answered if self.answered else 0.0


@dataclass
class PushVsPollRun:
    """The push-vs-poll figure: staleness window and authoritative volume
    across TTLs, for TTL polling vs pub/sub record updates, under a
    renumbering plan and a DDoS plan.

    The expected shape: polling trades the two axes against each other
    (TTL 60 is fresh but loud, TTL 86400 quiet but stale for hours after
    a renumbering), while push at a long TTL holds both — staleness
    bounded by delivery latency, volume bounded by the change rate —
    and under the DDoS plan keeps answering from the long-TTL cache
    where short-TTL polling goes dark.
    """

    duration: float
    probe_interval: float
    changes: int
    seats: int
    cells: list[PushCell]
    metrics: Optional[MetricsSnapshot] = None

    def cell(self, plan: str, mode: str, ttl: int) -> PushCell:
        for cell in self.cells:
            if cell.plan == plan and cell.mode == mode and cell.ttl == ttl:
                return cell
        raise KeyError((plan, mode, ttl))

    def staleness_profile(self, plan: str, mode: str) -> dict[int, float]:
        return {
            c.ttl: c.mean_staleness_s
            for c in self.cells
            if c.plan == plan and c.mode == mode
        }

    def volume_profile(self, plan: str, mode: str) -> dict[int, int]:
        return {
            c.ttl: c.auth_queries
            for c in self.cells
            if c.plan == plan and c.mode == mode
        }


def _push_staleness_lags(
    change_log: list[tuple[float, str]],
    observations: list[list[tuple[float, Optional[str]]]],
    end: float,
) -> list[float]:
    """Per (change, seat) staleness windows from the probe record.

    For each change, each seat's lag is the time from the change until
    the seat first observed the new address — censored at the next
    change (after which the old target is unobservable) or end of run.
    Identical bookkeeping for both modes: the probe schedule is the
    measurement instrument, the update channel is the treatment.
    """
    lags: list[float] = []
    for index, (changed_at, address) in enumerate(change_log):
        horizon = (
            change_log[index + 1][0] if index + 1 < len(change_log) else end
        )
        for seat_obs in observations:
            lag = horizon - changed_at
            for at, seen in seat_obs:
                if at < changed_at or seen is None:
                    continue
                if at >= horizon:
                    break
                if seen == address:
                    lag = at - changed_at
                    break
            lags.append(lag)
    return lags


def _run_push_cell(
    *,
    plan: str,
    mode: str,
    ttl: int,
    seed: int,
    seats: int,
    changes: int,
    probe_interval: float,
    duration: float,
    fault_plan: Optional[dict] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> PushCell:
    """Probe one update channel through one fault family at one TTL."""
    from repro.analysis.hitrate import analytic_hit_rate
    from repro.net.topology import Region
    from repro.push import PushPolicy, attach_publisher
    from repro.resolver.policy import ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver

    testbed = build_push_world(ttl, seed)
    world = testbed.world
    if metrics is not None:
        world.network.attach_metrics(metrics)

    change_times = [
        round(duration * (index + 1) / (changes + 1), 3)
        for index in range(changes)
    ]
    specs = list(
        FaultPlan.renumbering(testbed.content_name, change_times).faults
    )
    if plan == "ddos":
        # A 20 %-of-run outage at the child authoritative, with one
        # renumbering landing inside it: the update channel must survive
        # the attack *and* catch up afterwards.
        specs.append(
            FaultSpec(
                kind="server_outage",
                start=round(duration * 0.45, 3),
                duration=round(duration * 0.20, 3),
                target=testbed.target_address,
            )
        )
    plan_name = f"push-{plan}"
    plan_seed = seed
    if fault_plan is not None:
        extra = FaultPlan.from_payload(fault_plan)
        specs.extend(extra.faults)
        plan_name = extra.name or plan_name
        plan_seed = extra.seed
    world.network.attach_faults(
        FaultInjector(
            FaultPlan(faults=tuple(specs), name=plan_name, seed=plan_seed),
            seed=seed,
        )
    )
    injector = world.network.faults

    publisher = None
    policy = ResolverPolicy.child_centric()
    if mode == "push":
        publisher = attach_publisher(testbed.server, world.network)
        policy = ResolverPolicy.pushing(PushPolicy())

    resolvers = [
        RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU, f"res{index}"),
            network=world.network,
            root_hints=world.hints,
            policy=policy,
        )
        for index in range(seats)
    ]

    name = Name(testbed.content_name)
    change_log: list[tuple[float, str]] = []
    applied = 0

    def apply_due(now: float) -> None:
        # Fire due record_change events: mutate the zone at the scheduled
        # instant and (push mode) publish the new RRset.  Both modes
        # consume the same injector schedule — the change feed is part of
        # the world, the update channel is the experimental treatment.
        nonlocal applied
        for spec in injector.take_record_changes(now):
            address = testbed.apply_change(applied)
            if publisher is not None:
                publisher.publish(name, RdataType.A, spec.start)
            change_log.append((spec.start, address))
            applied += 1

    observations: list[list[tuple[float, Optional[str]]]] = [
        [] for _ in range(seats)
    ]
    probes = answered = 0
    # Seats probe on a staggered cadence so cache expiries and pushed
    # updates land between different seats' probes, not all at once.
    offset = probe_interval / (seats + 1)

    def probe(seat: int, at: float) -> None:
        nonlocal probes, answered
        apply_due(at)
        out = resolvers[seat].resolve(name, RdataType.A, now=at)
        address = None
        if out.rcode == Rcode.NOERROR and out.answers:
            address = getattr(out.answers[-1].rdatas[0], "address", None)
        probes += 1
        answered += address is not None
        observations[seat].append((at, address))

    for seat in range(seats):
        probe(seat, seat * offset)
    slots = int(duration // probe_interval)
    for slot in range(1, slots + 1):
        for seat in range(seats):
            probe(seat, slot * probe_interval + seat * offset)

    # Staleness and volume accounting -------------------------------------
    stale = 0
    for seat_obs in observations:
        for at, seen in seat_obs:
            if seen is None:
                continue
            truth = "203.0.113.10"
            for changed_at, address in change_log:
                if changed_at <= at:
                    truth = address
            stale += seen != truth
    lags = sorted(_push_staleness_lags(change_log, observations, duration))
    mean_lag = sum(lags) / len(lags) if lags else 0.0
    p95_lag = lags[min(len(lags) - 1, int(0.95 * len(lags)))] if lags else 0.0

    counter = lambda name_: 0  # noqa: E731
    if metrics is not None:
        snapshot = metrics.snapshot()
        counter = lambda name_: (  # noqa: E731
            int(snapshot.value(name_)) if name_ in snapshot.metrics else 0
        )
    auth_queries = testbed.server.queries_received
    probe_rate = 1.0 / probe_interval
    return PushCell(
        plan=plan,
        mode=mode,
        ttl=ttl,
        seed=seed,
        seats=seats,
        probes=probes,
        answered=answered,
        stale_probes=stale,
        auth_queries=auth_queries,
        notifications=counter("push.notifications"),
        coalesced=counter("push.coalesced"),
        session_resets=counter("push.session_resets"),
        reconnects=counter("push.reconnects"),
        mean_staleness_s=mean_lag,
        p95_staleness_s=p95_lag,
        max_staleness_s=lags[-1] if lags else 0.0,
        per_seat_auth_per_hour=auth_queries / seats / (duration / 3600.0),
        projected_auth_qps=tuple(
            (population, auth_queries / seats / duration * population)
            for population in PUSH_POPULATIONS
        ),
        analytic_poll_miss_qps=probe_rate
        * (1.0 - analytic_hit_rate(probe_rate, ttl)),
    )


def scenario_push_vs_poll(
    seed: int = 0,
    ttls: tuple = (60, 3600, 86400),
    plans: tuple = _PUSH_PLANS,
    modes: tuple = _PUSH_MODES,
    seats: int = 4,
    changes: int = 6,
    probe_interval: float = 60.0,
    duration: float = 7200.0,
    faults=None,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> PushVsPollRun:
    """Staleness window vs authoritative volume: pub/sub updates against
    TTL polling, under renumbering and DDoS fault plans.

    Runs a (plan × mode × TTL) matrix of independent cells, each a fresh
    :func:`build_push_world` whose ``record_change`` schedule renumbers
    the probed answer mid-run.  Both modes consume the *same* seeded
    schedule and the *same* probe cadence; only the update channel
    differs.  The cells run as one shard each through a
    :class:`CellMatrix` — identical for every worker count, push metrics
    included.  ``faults`` schedules extra failures on top of every
    cell's own plan.
    """
    values, metrics = CellMatrix(
        kind="push-vs-poll",
        label="push",
        cell_fn="push",
        axes={"plan": plans, "mode": modes, "ttl": ttls},
        known={"plan": _PUSH_PLANS, "mode": _PUSH_MODES},
        fixed={
            "seats": seats,
            "changes": changes,
            "probe_interval": probe_interval,
            "duration": duration,
            "fault_plan": _normalize_fault_plan(faults),
        },
    ).run(seed, parallelism=parallelism, run_dir=run_dir, progress=progress,
          profile=profile)
    return PushVsPollRun(
        duration=duration,
        probe_interval=probe_interval,
        changes=changes,
        seats=seats,
        cells=[value["results"] for value in values],
        metrics=metrics,
    )
