"""The ``repro run`` campaign table.

One :class:`Campaign` entry per campaign names its scenario, the
``repro run`` options it takes, and its report: title, columns and one
row function.  ``repro run`` dispatches through :data:`CAMPAIGNS`, and
the option gates (which campaigns take ``--faults``, ``--predict``,
``--snapshot-every``) are read from the same table.

Scenarios are named by ``module:function`` and imported only when a
campaign runs, so importing this table (and ``repro.cli``) stays cheap.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable

__all__ = ["CAMPAIGNS", "Campaign", "campaigns_taking"]


@dataclass(frozen=True)
class Campaign:
    """One ``repro run`` campaign: what runs it and how it reports."""

    #: ``module:function`` called with ``seed``, ``parallelism``,
    #: ``run_dir``, ``progress``, ``profile`` and the :attr:`options`.
    scenario: str
    #: Scenario keywords the campaign takes from ``repro run``: any of
    #: ``probes``, ``duration``, ``attack_seconds`` (fed by ``--duration``),
    #: ``scale``, ``shards``, ``faults``, ``predict``, ``snapshot_every``.
    options: tuple[str, ...]
    #: Report title, formatted with ``args`` (the parsed command line)
    #: and ``run`` (the scenario's return value).
    title: str
    columns: tuple[str, ...]
    rows: Callable[[Any], Iterable[tuple]]
    #: The run's merged metrics snapshot.
    metrics: Callable[[Any], Any] = attrgetter("metrics")

    def run(self, **kwargs: Any) -> Any:
        module, _, function = self.scenario.partition(":")
        return getattr(importlib.import_module(module), function)(**kwargs)

    def report(self, run: Any, args: Any) -> str:
        from repro.analysis.tables import Table

        table = Table(list(self.columns), title=self.title.format(args=args, run=run))
        for row in self.rows(run):
            table.add_row(*row)
        return table.render()


def _centricity_rows(run) -> Iterable[tuple]:
    for key in ("probes", "vps", "queries", "responses_valid",
                "responses_discarded", "resolvers"):
        yield key, run.summary[key]
    yield "child-centric", f"{run.breakdown.child_fraction * 100:.1f}%"
    yield "parent-centric", f"{run.breakdown.parent_fraction * 100:.1f}%"


def _controlled_rows(runs) -> Iterable[tuple]:
    from repro.analysis.cdf import ECDF

    for label, run in runs.items():
        yield (label, run.queries, run.auth_queries,
               f"{ECDF(run.rtts_ms()).median:.1f} ms")


def _controlled_metrics(runs):
    from repro.metrics import merge_snapshots

    return merge_snapshots(run.metrics for run in runs.values())


def _crawl_rows(run) -> Iterable[tuple]:
    from repro.crawler.report import record_counts

    counts = record_counts(run[0])
    for name in counts:
        yield name, counts[name].domains, counts[name].responsive


def _ddos_rows(run) -> Iterable[tuple]:
    for ttl in sorted({tier.ttl for tier in run.tiers}):
        plain = run.tier(ttl, serve_stale=False)
        rescued = run.tier(ttl, serve_stale=True)
        yield (ttl, f"{plain.availability * 100:.0f}%",
               f"{rescued.availability * 100:.0f}%",
               f"{rescued.served_stale_fraction * 100:.0f}%")


def _prefetch_rows(run) -> Iterable[tuple]:
    for cell in run.cells:
        yield (cell.ttl, cell.mode, cell.queries, f"{cell.hit_rate * 100:.1f}%",
               cell.auth_queries, f"{cell.p99_ms:.2f}", cell.refreshes,
               cell.stale_answered)


def _ecs_rows(run) -> Iterable[tuple]:
    for cell in run.cells:
        yield (cell.ttl, cell.mode, cell.queries, f"{cell.hit_rate * 100:.1f}%",
               cell.auth_queries, f"{cell.p50_ms:.2f}", f"{cell.p95_ms:.2f}",
               f"{cell.local_site_rate * 100:.0f}%", cell.scoped_entries)


def _push_rows(run) -> Iterable[tuple]:
    for cell in run.cells:
        yield (cell.plan, cell.ttl, cell.mode, f"{cell.answered_rate * 100:.0f}%",
               f"{cell.stale_rate * 100:.1f}%", f"{cell.mean_staleness_s:.1f}",
               cell.auth_queries, cell.notifications, cell.session_resets)


_SCENARIOS = "repro.core.scenarios"
#: Only the centricity campaigns arm resolver populations (``predict``)
#: and run one long resumable Measurement per shard (``snapshot_every``).
#: The controlled-TTL and crawl campaigns build many isolated worlds a
#: fault plan cannot meaningfully target, so they reject ``--faults``
#: rather than ignore it.
_CENTRICITY_OPTIONS = (
    "probes", "duration", "shards", "faults", "predict", "snapshot_every",
)
_CENTRICITY_COLUMNS = ("metric", "value")

#: ``repro run`` campaigns, in ``--help`` order.
CAMPAIGNS: dict[str, Campaign] = {
    "t2-uy": Campaign(
        f"{_SCENARIOS}:scenario_uy_ns", _CENTRICITY_OPTIONS,
        "T2: .uy-NS centricity campaign", _CENTRICITY_COLUMNS, _centricity_rows,
    ),
    "t2-anicuy": Campaign(
        f"{_SCENARIOS}:scenario_anicuy_a", _CENTRICITY_OPTIONS,
        "T2: a.nic.uy-A centricity campaign", _CENTRICITY_COLUMNS, _centricity_rows,
    ),
    "t2-googleco": Campaign(
        f"{_SCENARIOS}:scenario_googleco_ns", _CENTRICITY_OPTIONS,
        "T2: google.co-NS centricity campaign", _CENTRICITY_COLUMNS,
        _centricity_rows,
    ),
    "t10-controlled": Campaign(
        f"{_SCENARIOS}:scenario_controlled_ttl", ("probes", "duration"),
        "Table 10: controlled TTL experiments",
        ("experiment", "queries", "auth queries", "median RTT"),
        _controlled_rows, _controlled_metrics,
    ),
    "crawl": Campaign(
        "repro.crawler.crawl:crawl_parallel", ("scale", "shards"),
        "Sharded crawl ({run[1]} queries)", ("list", "domains", "responsive"),
        _crawl_rows, itemgetter(2),
    ),
    "ddos": Campaign(
        f"{_SCENARIOS}:scenario_ddos_resilience", ("attack_seconds", "faults"),
        "§6.1 resilience: {args.duration:.0f}s authoritative outage",
        ("TTL (s)", "availability", "serve-stale", "stale fraction"), _ddos_rows,
    ),
    "prefetch": Campaign(
        f"{_SCENARIOS}:scenario_prefetch_tradeoff", ("duration",),
        "Prefetch trade-off: client p99 and authoritative volume vs TTL",
        ("TTL (s)", "mode", "queries", "hit rate", "auth queries", "p99 (ms)",
         "refreshes", "stale"),
        _prefetch_rows,
    ),
    "ecs": Campaign(
        f"{_SCENARIOS}:scenario_ecs_cdn", ("duration",),
        "ECS + CDN: client-to-content latency and hit rate vs TTL",
        ("TTL (s)", "mode", "queries", "hit rate", "auth queries", "p50 (ms)",
         "p95 (ms)", "local site", "scoped"),
        _ecs_rows,
    ),
    "push": Campaign(
        f"{_SCENARIOS}:scenario_push_vs_poll", ("duration", "faults"),
        "Push vs poll: staleness window and authoritative volume vs TTL",
        ("plan", "TTL (s)", "mode", "answered", "stale", "staleness (s)",
         "auth queries", "notifies", "resets"),
        _push_rows,
    ),
}


def campaigns_taking(option: str) -> tuple[str, ...]:
    """The campaigns that accept ``option``, in table order."""
    return tuple(name for name, entry in CAMPAIGNS.items() if option in entry.options)
