"""The TTL crawler (paper §5.1 methodology).

For each list entry the crawler:

1. queries the *parent* authoritative server for the entry's NS records,
   recording the delegation's parent-side TTLs and glue;
2. queries the *child* authoritative servers directly (no shared
   recursive resolvers) for NS, A, AAAA, MX and DNSKEY records, recording
   the child-side TTLs the operator intends;
3. classifies the NS response (NS answer / CNAME / SOA) and the observed
   bailiwick configuration.

The child server address comes from glue when present, else from an
out-of-band hosts table (as the paper's crawler resolved server names
before querying children directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from repro.metrics.snapshot import MetricsSnapshot

from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import NS, RdataType
from repro.crawler.toplists import CrawlUniverse, GeneratedDomain
from repro.net.topology import Region
from repro.net.transport import NetworkTimeout

#: The record types crawled at the child (Table 5's rows).
CHILD_RECORD_TYPES = (
    RdataType.NS,
    RdataType.A,
    RdataType.AAAA,
    RdataType.MX,
    RdataType.DNSKEY,
)


@dataclass
class CrawlRecord:
    """Everything the crawler learned about one list entry."""

    domain: GeneratedDomain
    responsive: bool = False
    #: NS-query response class: "ns", "cname", "soa", or "none".
    ns_response: str = "none"
    #: Parent-side data.
    parent_ns_ttl: Optional[int] = None
    parent_glue_ttls: list[int] = field(default_factory=list)
    #: Child-side records: rtype name -> list of (ttl, rdata text).
    records: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    #: Observed bailiwick class ("out", "in", "mixed"), NS responders only.
    bailiwick: Optional[str] = None

    @property
    def list_name(self) -> str:
        return self.domain.list_name

    def ttls(self, rtype: str) -> list[int]:
        return [ttl for ttl, _ in self.records.get(rtype, [])]

    def values(self, rtype: str) -> list[str]:
        return [value for _, value in self.records.get(rtype, [])]


@dataclass
class CrawlResult:
    """All records of one crawl, grouped by list."""

    records: list[CrawlRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def for_list(self, list_name: str) -> list[CrawlRecord]:
        return [record for record in self.records if record.list_name == list_name]

    def list_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.list_name)
        return list(seen)


class Crawler:
    """Crawls a :class:`CrawlUniverse` from a single measurement host."""

    def __init__(self, universe: CrawlUniverse, timeout: float = 1.0) -> None:
        self.universe = universe
        # The paper measures from EC2 Frankfurt; one EU endpoint suffices.
        self.endpoint = universe.topology.endpoint_in_region(
            Region.EU, name="crawler"
        )
        self.timeout = timeout
        self.queries_sent = 0

    # -- plumbing -----------------------------------------------------------
    def _ask(
        self, address: str, qname: Name | str, qtype: RdataType, now: float = 0.0
    ) -> Optional[Message]:
        query = Message.make_query(qname, qtype, recursion_desired=False)
        self.queries_sent += 1
        try:
            response, _ = self.universe.network.exchange(
                self.endpoint, address, query, now, timeout=self.timeout, retries=0
            )
        except NetworkTimeout:
            return None
        return response

    def _parent_address(self, domain: GeneratedDomain) -> Optional[str]:
        if domain.format == "TLD":
            return self.universe.root_server_address
        tld = domain.parent.labels[0]
        return self.universe.tld_server_addresses.get(tld)

    def _child_addresses(
        self, domain: GeneratedDomain, referral: Optional[Message]
    ) -> list[str]:
        addresses: list[str] = []
        ns_targets: list[Name] = []
        if referral is not None:
            for record in referral.section(Section.AUTHORITY):
                if record.rdtype == RdataType.NS:
                    rdata = record.rdata
                    assert isinstance(rdata, NS)
                    ns_targets.append(rdata.target)
            for record in referral.section(Section.ADDITIONAL):
                if record.rdtype == RdataType.A:
                    addresses.append(str(record.rdata))
        for target in ns_targets:
            known = self.universe.host_addresses.get(target)
            if known is not None and known not in addresses:
                addresses.append(known)
        return addresses

    # -- crawling -------------------------------------------------------------
    def crawl_domain(self, domain: GeneratedDomain) -> CrawlRecord:
        record = CrawlRecord(domain=domain)

        parent_address = self._parent_address(domain)
        referral = (
            self._ask(parent_address, domain.name, RdataType.NS)
            if parent_address is not None
            else None
        )
        if referral is not None:
            # Parent-side NS TTL: the delegation in the authority section
            # (or, for a TLD queried at the root, possibly an answer).
            for section in (Section.AUTHORITY, Section.ANSWER):
                for rr in referral.section(section):
                    if rr.rdtype == RdataType.NS:
                        record.parent_ns_ttl = rr.ttl
                        break
                if record.parent_ns_ttl is not None:
                    break
            record.parent_glue_ttls = [
                rr.ttl
                for rr in referral.section(Section.ADDITIONAL)
                if rr.rdtype in (RdataType.A, RdataType.AAAA)
            ]

        child_addresses = self._child_addresses(domain, referral)
        if not child_addresses:
            return record  # unresponsive: never delegated or servers unknown

        child = child_addresses[0]
        responded = False
        for qtype in CHILD_RECORD_TYPES:
            response = self._ask(child, domain.name, qtype)
            if response is None:
                continue
            responded = True
            answers = response.section(Section.ANSWER)
            if qtype == RdataType.NS:
                record.ns_response = self._classify_ns_response(response)
            for rr in answers:
                entry = (rr.ttl, rr.rdata.to_text())
                bucket = record.records.setdefault(rr.rdtype.name, [])
                # A CNAME chain repeats in every query type's answer;
                # count each record once per domain, as the paper's
                # per-domain record counts do.
                if entry not in bucket:
                    bucket.append(entry)
        record.responsive = responded
        if record.ns_response == "ns":
            record.bailiwick = self._classify_bailiwick(domain, record)
        return record

    def _classify_ns_response(self, response: Message) -> str:
        answers = response.section(Section.ANSWER)
        if any(rr.rdtype == RdataType.NS for rr in answers):
            return "ns"
        if any(rr.rdtype == RdataType.CNAME for rr in answers):
            return "cname"
        if response.rcode == Rcode.NOERROR and any(
            rr.rdtype == RdataType.SOA for rr in response.section(Section.AUTHORITY)
        ):
            return "soa"
        return "none"

    def _classify_bailiwick(
        self, domain: GeneratedDomain, record: CrawlRecord
    ) -> str:
        """Table 9's classification from the *observed* NS answer."""
        targets = [Name(value) for value in record.values("NS")]
        if not targets:
            return "out"
        # Only entries whose NS query returned an NS answer are classified,
        # and that answer's owner is the entry itself — so the entry is the
        # zone apex the bailiwick test is relative to.
        zone_origin = domain.name
        inside = [target.is_subdomain_of(zone_origin) for target in targets]
        if all(inside):
            return "in"
        if any(inside):
            return "mixed"
        return "out"

    def crawl(
        self, domains: Optional[Iterable[GeneratedDomain]] = None
    ) -> CrawlResult:
        targets = list(domains) if domains is not None else self.universe.domains
        return CrawlResult([self.crawl_domain(domain) for domain in targets])


def crawl_parallel(
    scale: float = 0.01,
    seed: int = 0,
    lists: Optional[list[str]] = None,
    parallelism: int = 1,
    shards: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    timeout: float = 1.0,
    profile: Optional[str] = None,
) -> tuple[CrawlResult, int, "MetricsSnapshot"]:
    """Run the crawl sharded over the list entries via :mod:`repro.runner`.

    Each worker rebuilds the universe from ``(scale, seed, lists)`` and
    crawls a contiguous slice of it; every domain's crawl is an
    independent direct query exchange, so the merged result equals the
    serial crawl record-for-record.  ``parallelism=1`` uses the serial
    in-process fallback; ``run_dir`` enables checkpoint/resume.  Returns
    ``(result, total_queries_sent, metrics)`` where ``metrics`` merges
    the shards' sim-domain snapshots with the executor's host telemetry.
    """
    from repro.crawler.toplists import planned_list_sizes
    from repro.runner.campaigns import campaign_fingerprint, crawl_shard, run_campaign
    from repro.runner.merge import merge_crawl_results
    from repro.runner.shard import DEFAULT_SHARDS

    total = sum(planned_list_sizes(scale, lists).values())
    num_shards = shards if shards is not None else DEFAULT_SHARDS
    kwargs = {"scale": scale, "seed": seed, "lists": lists, "timeout": timeout}
    values, metrics = run_campaign(
        "crawl",
        campaign_fingerprint("crawl", shards=num_shards, **kwargs),
        crawl_shard,
        kwargs,
        total_units=total,
        seed=seed,
        parallelism=parallelism,
        shards=num_shards,
        run_dir=run_dir,
        progress=progress,
        profile=profile,
    )
    result, total_queries = merge_crawl_results(
        [value["results"] for value in values],
        queries=[value["queries"] for value in values],
    )
    return result, total_queries, metrics
