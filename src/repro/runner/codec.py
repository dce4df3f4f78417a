"""One versioned codec for every shard payload.

Before this module existed three places each had their own idea of what
a shard payload looked like: :mod:`repro.runner.merge` dug
``value["metrics"]`` out of raw dicts, :mod:`repro.runner.executor`
re-implemented the ``value["queries"]`` lookup for progress telemetry,
and :mod:`repro.runner.checkpoint` pickled whatever shape a shard
function happened to return.  They now all speak through this codec.

A shard function returns :func:`encode_shard_payload`'s envelope::

    {"v": PAYLOAD_VERSION, "kind": ..., "queries": int,
     "metrics": snapshot payload | None, "data": ...}

Two kinds exist:

``"resultset"``
    A :class:`repro.atlas.results.ResultSet` stored *columnar*: one
    deduplicated string table plus flat :mod:`array` columns (int64 /
    int32 / float64) instead of 100k+ per-probe dataclass objects.  The
    pickle for a 160k-query shard shrinks ~6x and, more importantly,
    encode/decode avoids pickling a deep object graph through the pool
    pipe.  Floats travel in IEEE-754 ``array('d')`` cells so decode is
    bit-exact; decode rebuilds value-equal :class:`MeasurementResult`
    rows (asserted by the codec round-trip tests).

``"pickle"``
    Anything else (scenario-matrix cells, crawl results)
    passes through untouched — the envelope still carries the uniform
    ``queries``/``metrics`` fields every consumer needs.

:func:`decode_shard_payload` returns the legacy
``{"results": ..., "queries": int, "metrics": payload}`` dict the
scenario-layer mergers have always consumed, so everything downstream
of :func:`repro.runner.campaigns.run_campaign` is unchanged.

Bumping :data:`PAYLOAD_VERSION` deliberately invalidates old run
directories: the version is embedded in every campaign fingerprint, so
resuming a run dir written by an older layout raises
:class:`repro.runner.checkpoint.CheckpointMismatch` instead of merging
garbage.
"""

from __future__ import annotations

from array import array
from typing import Any, Optional

__all__ = [
    "PAYLOAD_VERSION",
    "PayloadError",
    "encode_shard_payload",
    "decode_shard_payload",
    "query_count",
    "metrics_payload",
]

#: Version of the per-shard payload layout.  v3: versioned envelope with
#: columnar ResultSet encoding (v2 was the bare ``{"results", "queries",
#: "metrics"}`` dict of pickled object graphs).
PAYLOAD_VERSION = 3

_TTL_NONE = -1  # TTLs are non-negative; -1 marks ``ttl=None`` in the column.


class PayloadError(RuntimeError):
    """A shard payload does not match the codec's versioned envelope."""


def encode_shard_payload(*, results: Any, queries: int, metrics: Optional[dict]) -> dict:
    """Wrap one shard's output in the versioned payload envelope."""
    from repro.atlas.results import ResultSet

    if isinstance(results, ResultSet):
        kind = "resultset"
        data = _encode_result_set(results)
    else:
        kind = "pickle"
        data = results
    return {
        "v": PAYLOAD_VERSION,
        "kind": kind,
        "queries": int(queries),
        "metrics": metrics,
        "data": data,
    }


def decode_shard_payload(payload: Any) -> dict:
    """Decode an envelope back to ``{"results", "queries", "metrics"}``.

    Already-decoded dicts pass through unchanged, so callers may decode
    defensively.  Anything else — including pre-v3 payloads — raises
    :class:`PayloadError` (the fingerprint's payload version should have
    ruled those out long before decode).
    """
    if not isinstance(payload, dict):
        raise PayloadError(f"shard payload is not a dict: {type(payload).__name__}")
    if "v" not in payload:
        if "results" in payload and "queries" in payload:
            return payload  # already decoded (or built by a serial path)
        raise PayloadError(f"shard payload missing version: keys={sorted(payload)}")
    version = payload["v"]
    if version != PAYLOAD_VERSION:
        raise PayloadError(
            f"shard payload version {version!r} unsupported "
            f"(this build speaks v{PAYLOAD_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "resultset":
        results = _decode_result_set(payload["data"])
    elif kind == "pickle":
        results = payload["data"]
    else:
        raise PayloadError(f"unknown shard payload kind {kind!r}")
    return {
        "results": results,
        "queries": int(payload["queries"]),
        "metrics": payload.get("metrics"),
    }


def query_count(payload: Any) -> int:
    """Best-effort simulated-query count (encoded, decoded, or legacy)."""
    if isinstance(payload, dict) and "queries" in payload:
        try:
            return int(payload["queries"])
        except (TypeError, ValueError):
            return 0
    try:
        return len(payload)
    except TypeError:
        return 0


def metrics_payload(payload: Any) -> Optional[dict]:
    """The shard's metrics snapshot payload, or None when absent."""
    if isinstance(payload, dict):
        return payload.get("metrics")
    return None


# -- columnar ResultSet encoding ---------------------------------------------


def _encode_result_set(result_set: Any) -> dict:
    results = result_set.results
    n = len(results)

    strings: list[str] = []
    intern_index: dict[str, int] = {}

    def intern(text: str) -> int:
        index = intern_index.get(text)
        if index is None:
            index = len(strings)
            intern_index[text] = index
            strings.append(text)
        return index

    probe_id = array("q", bytes(8 * n))
    asn = array("q", bytes(8 * n))
    ttl = array("q", bytes(8 * n))
    vp_id = array("i", bytes(4 * n))
    resolver = array("i", bytes(4 * n))
    region = array("i", bytes(4 * n))
    round_index = array("i", bytes(4 * n))
    qname = array("i", bytes(4 * n))
    qtype = array("i", bytes(4 * n))
    rcode = array("i", bytes(4 * n))
    timestamp = array("d", bytes(8 * n))
    rtt = array("d", bytes(8 * n))
    flags = bytearray(n)

    # Answer tuples repeat massively (every cache hit on the same rrset
    # yields the same tuple), so intern whole tuples in one table and
    # store a single index per result.
    answer_tuples: list[tuple[str, ...]] = []
    answer_index: dict[tuple[str, ...], int] = {}
    answers = array("i", bytes(4 * n))

    for i, result in enumerate(results):
        probe_id[i] = result.probe_id
        asn[i] = result.asn
        ttl[i] = _TTL_NONE if result.ttl is None else result.ttl
        vp_id[i] = intern(result.vp_id)
        resolver[i] = intern(result.resolver_address)
        region[i] = intern(result.region.name)
        round_index[i] = result.round_index
        qname[i] = intern(str(result.qname))
        qtype[i] = int(result.qtype)
        rcode[i] = int(result.rcode)
        timestamp[i] = result.timestamp
        rtt[i] = result.rtt
        flags[i] = (1 if result.cache_hit else 0) | (2 if result.served_stale else 0)
        tup = result.answers
        index = answer_index.get(tup)
        if index is None:
            index = len(answer_tuples)
            answer_index[tup] = index
            answer_tuples.append(tup)
        answers[i] = index

    return {
        "n": n,
        "spec": result_set.spec,
        "strings": strings,
        "answer_tuples": answer_tuples,
        "probe_id": probe_id,
        "asn": asn,
        "ttl": ttl,
        "vp_id": vp_id,
        "resolver": resolver,
        "region": region,
        "round_index": round_index,
        "qname": qname,
        "qtype": qtype,
        "rcode": rcode,
        "timestamp": timestamp,
        "rtt": rtt,
        "flags": bytes(flags),
        "answers": answers,
    }


def _decode_result_set(data: dict) -> Any:
    from repro.atlas.results import MeasurementResult, ResultSet
    from repro.dns.message import Rcode
    from repro.dns.name import Name
    from repro.dns.rdtypes import RdataType
    from repro.net.topology import Region

    n = data["n"]
    strings = data["strings"]
    answer_tuples = data["answer_tuples"]
    # Materialize each distinct value once; rows then share the decoded
    # Name/enum objects exactly like the encoder's inputs did.
    names = [Name(text) for text in strings]
    regions = {index: Region[strings[index]] for index in set(data["region"])}
    qtypes = {value: RdataType(value) for value in set(data["qtype"])}
    rcodes = {value: Rcode(value) for value in set(data["rcode"])}

    probe_id = data["probe_id"]
    asn = data["asn"]
    ttl = data["ttl"]
    vp_id = data["vp_id"]
    resolver = data["resolver"]
    region = data["region"]
    round_index = data["round_index"]
    qname = data["qname"]
    qtype = data["qtype"]
    rcode = data["rcode"]
    timestamp = data["timestamp"]
    rtt = data["rtt"]
    flags = data["flags"]
    answers = data["answers"]

    results = [
        MeasurementResult(
            probe_id=probe_id[i],
            vp_id=strings[vp_id[i]],
            resolver_address=strings[resolver[i]],
            region=regions[region[i]],
            asn=asn[i],
            round_index=round_index[i],
            timestamp=timestamp[i],
            qname=names[qname[i]],
            qtype=qtypes[qtype[i]],
            rcode=rcodes[rcode[i]],
            ttl=None if ttl[i] == _TTL_NONE else ttl[i],
            answers=answer_tuples[answers[i]],
            rtt=rtt[i],
            cache_hit=bool(flags[i] & 1),
            served_stale=bool(flags[i] & 2),
        )
        for i in range(n)
    ]
    return ResultSet(results, spec=data["spec"])
