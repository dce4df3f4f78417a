"""Spans around the program's public functions, installed from outside.

The benchmark never edits ``src/repro``.  A traced run replaces each
function named in :data:`TARGETS` with a wrapper that records one span
per call — name, start, end, parent span and request id — in parallel
arrays held by a :class:`Tracer`.  Spans stay in memory until the run
ends, are written out once, and are folded into per-layer call counts
and self time (duration minus the part covered by child spans).

A request id is the index of the root span a span descends from, so
every span of one client resolution (or one served datagram) shares it.
The current span is tracked in a :class:`contextvars.ContextVar`, which
asyncio copies into each task, so concurrent requests on the serve loop
keep their own parents.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import pickle
import sys
import time
from array import array
from typing import Any, Callable, Optional

from stats import self_times

#: (span name, module, attribute path, tally).  An attribute path is
#: ``Class.method`` — the class and every subclass defining its own
#: override are wrapped — or a module-level function name; a trailing
#: ``*`` wraps every module function with that prefix and suffix.
#: ``tally`` maps a call's result to a number summed per span.
TARGETS: list[tuple[str, str, str, Optional[Callable[[Any], float]]]] = [
    ("atlas.measurement.run", "repro.atlas.measurement", "Measurement.run", None),
    ("resolver.recursive.resolve", "repro.resolver.recursive", "RecursiveResolver.resolve", None),
    ("resolver.stub.query", "repro.resolver.stub", "StubResolver.query", None),
    ("resolver.cache.get_entry", "repro.resolver.cache", "Cache.get_entry", None),
    ("resolver.cache.get", "repro.resolver.cache", "Cache.get", None),
    ("resolver.cache.put", "repro.resolver.cache", "Cache.put", None),
    ("resolver.cache.put_negative", "repro.resolver.cache", "Cache.put_negative", None),
    ("net.transport.exchange", "repro.net.transport", "Network.exchange", None),
    ("net.latency.rtt", "repro.net.latency", "LatencyModel.rtt", None),
    ("server.authoritative.handle_query", "repro.server.authoritative",
     "AuthoritativeServer.handle_query", None),
    ("dns.zone.respond", "repro.dns.zone", "Zone.respond", None),
    ("dns.zone.lookup", "repro.dns.zone", "Zone.lookup", None),
    ("dns.message.rrsets", "repro.dns.message", "Message.rrsets", None),
    ("dns.wire.from_wire", "repro.dns.message", "Message.from_wire", None),
    ("dns.wire.to_wire", "repro.dns.message", "Message.to_wire", None),
    ("serve.batchio.recv_batch", "repro.serve.batchio", "MmsgBatcher.recv_batch", len),
    ("serve.batchio.recv_batch", "repro.serve.batchio", "FallbackBatcher.recv_batch", len),
    ("serve.batchio.send_batch", "repro.serve.batchio", "MmsgBatcher.send_batch", None),
    ("serve.batchio.send_batch", "repro.serve.batchio", "FallbackBatcher.send_batch", None),
    ("serve.frontend.fast_answer", "repro.serve.frontend", "DnsFrontend.fast_answer", None),
    ("serve.frontend.handle_wire", "repro.serve.frontend", "DnsFrontend.handle_wire", None),
    ("serve.memo.get", "repro.serve.memo", "ResponseMemo.get", None),
    ("serve.memo.put", "repro.serve.memo", "ResponseMemo.put", None),
    ("runner.executor.run", "repro.runner.executor", "ShardExecutor.run", None),
    ("runner.shard", "repro.runner.campaigns", "*_shard", None),
    ("runner.codec.encode", "repro.runner.codec", "encode_shard_payload",
     lambda payload: len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))),
    ("runner.codec.decode", "repro.runner.codec", "decode_shard_payload", None),
    ("runner.merge.merge_result_sets", "repro.runner.merge", "merge_result_sets", None),
    ("runner.worldcache.lease", "repro.runner.worldcache", "lease", None),
    ("faults.injector.transmission_fate", "repro.faults.injector",
     "FaultInjector.transmission_fate", None),
    ("faults.injector.pick_site", "repro.faults.injector", "FaultInjector.pick_site", None),
    ("push.publisher.publish", "repro.push.publisher", "PushPublisher.publish", None),
    ("push.subscriber.pump", "repro.push.subscriber", "PushClient.pump", None),
    ("predict.scheduler.pump", "repro.predict.scheduler", "RefreshScheduler.pump", None),
    ("core.worlds.build", "repro.core.worlds", "build_*_world", None),
]


def span_names() -> list[str]:
    """Every span name, once, in table order."""
    return list(dict.fromkeys(name for name, _, _, _ in TARGETS))


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.tallies: dict[str, float] = {}
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, span: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        current = self._current
        clock = self.clock
        starts, ends, names = self.start, self.end, self.name
        parents, requests = self.parent, self.request
        tallies = self.tallies

        def traced(*args, **kwargs):
            parent = current.get()
            index = len(starts)
            names.append(name_id)
            parents.append(parent)
            requests.append(requests[parent] if parent >= 0 else index)
            ends.append(0.0)
            token = current.set(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                current.reset(token)
            if tally is not None:
                tallies[span] = tallies.get(span, 0.0) + tally(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for span, module_name, path, tally in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                self._wrap_method(span, getattr(module, class_name), attr, tally)
            elif "*" in path:
                prefix, suffix = path.split("*")
                for attr, value in sorted(vars(module).items()):
                    if (attr.startswith(prefix) and attr.endswith(suffix)
                            and callable(value)
                            and getattr(value, "__module__", None) == module_name):
                        self._wrap_function(span, module, attr, tally)
            else:
                self._wrap_function(span, module, path, tally)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_method(self, span, cls, attr, tally) -> None:
        for klass in _with_subclasses(cls):
            if attr not in vars(klass):
                continue
            raw = vars(klass)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__, tally))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(span, raw.__func__, tally))
            else:
                wrapped = self.wrap(span, raw, tally)
            self._undo.append((klass, attr, raw))
            setattr(klass, attr, wrapped)

    def _wrap_function(self, span, module, attr, tally) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(span, original, tally)
        # Modules that did ``from x import f`` hold their own reference.
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, name, original))
                    setattr(other, name, wrapped)

    # -- reporting ---------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        with open(path, "wb") as stream:
            header = {"names": self.names, "count": len(self.start),
                      "columns": ["start", "end", "name", "parent", "request"]}
            stream.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.name, self.parent, self.request):
                column.tofile(stream)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms and total_ms.

        A span nested in a span of the same name (an override calling
        ``super()``) adds its self time but no call and no total.
        """
        own = self_times(self.start, self.end, self.parent)
        result = {name: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0} for name in self.names}
        for index, name_id in enumerate(self.name):
            row = result[self.names[name_id]]
            row["self_ms"] += own[index] * 1000.0
            if not _nested_in_same(self, index):
                row["calls"] += 1
                row["total_ms"] += (self.end[index] - self.start[index]) * 1000.0
        return result


def load_dump(path: str) -> Tracer:
    """Read back a :meth:`Tracer.dump` file into a fresh tracer."""
    tracer = Tracer()
    with open(path, "rb") as stream:
        header = json.loads(stream.readline())
        count = header["count"]
        for column in (tracer.start, tracer.end, tracer.name, tracer.parent, tracer.request):
            column.fromfile(stream, count)
    tracer.names = header["names"]
    return tracer


def _nested_in_same(tracer: Tracer, index: int) -> bool:
    """True when an ancestor span has the same name (recursion)."""
    name_id = tracer.name[index]
    parent = tracer.parent[index]
    while parent >= 0:
        if tracer.name[parent] == name_id:
            return True
        parent = tracer.parent[parent]
    return False


def _with_subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(klass for klass in _with_subclasses(sub) if klass not in found)
    return found
