"""Layer tracing from outside the program: timing wrappers on entry points.

:class:`LayerTracer` replaces the public entry points of each
``src/repro/`` layer (listed in :data:`TARGETS`) with wrappers that keep a
per-thread stack of frames.  A frame's *self time* is its duration minus
the time its child frames covered; children on one thread nest, so that
union is their sum.  The outermost frame on a thread opens a *segment*,
which is charged to the request *roots* it serves:

* a client thread names its root explicitly (:meth:`LayerTracer.root`);
* a front-door dispatcher thread has no root of its own, so its
  ``TraversalService.submit`` frame finds the roots bound to the queries it
  was handed (:meth:`LayerTracer.bind`) -- one coalesced sweep serving k
  requests is charged to each of the k;
* anything else -- work no request caused, such as a maintenance tick on
  an idle dispatcher -- becomes a background root of its own.

Per root, the layers' self times plus the *remainder* (root time no
segment covers: queue wait, dispatch bookkeeping, wake-up) sum to the
root's duration.  Hot leaves (device-memory accounting, plan-cache
lookups) are aggregated without per-call span records.

Wrappers must be installed before the traced serving stack is built: some
entry points are captured as bound methods at construction
(``ViewManager.on_updates`` subscribes itself to the registry).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from servebench.stats import self_time

#: The ``src/repro/`` layers the benchmark attributes time to.
LAYERS = (
    "server", "service", "apps", "traversal", "gpu", "compression",
    "shard", "dynamic", "views", "lifecycle", "store",
)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        path: ``"module:Class.method"`` or ``"module:function"``.
        name: the entry's metric name; its first part is the layer its
            self time is charged to.
        hot: called per edge or per node; aggregated, never recorded.
        query_roots: a thread-outermost call is charged to the roots bound
            to its ``queries`` argument (a dispatcher serving requests).
        sharded_name: the name used instead when called with ``shards``.
    """

    path: str
    name: str
    hot: bool = False
    query_roots: bool = False
    sharded_name: str = ""


TARGETS: tuple[Target, ...] = (
    Target("repro.server.frontdoor:FrontDoor.submit", "server.admit"),
    Target("repro.service.service:TraversalService.submit",
           "service.submit", query_roots=True),
    Target("repro.service.service:TraversalService.register_graph",
           "service.register", sharded_name="shard.register"),
    Target("repro.service.service:TraversalService.apply_updates",
           "dynamic.apply"),
    Target("repro.service.service:TraversalService.view_result",
           "views.read"),
    Target("repro.service.service:TraversalService.register_view",
           "views.register"),
    Target("repro.views.manager:ViewManager.on_updates", "views.repair"),
    Target("repro.apps.bfs:bfs", "apps.bfs"),
    Target("repro.apps.cc:connected_components", "apps.cc"),
    Target("repro.apps.pagerank:personalized_pagerank", "apps.ppr"),
    Target("repro.traversal.gcgt:TraversalSession.expand",
           "traversal.expand"),
    Target("repro.traversal.msbfs:msbfs", "traversal.msbfs"),
    Target("repro.gpu.memory:DeviceMemory.access_words", "gpu.memory",
           hot=True),
    Target("repro.gpu.memory:DeviceMemory.access_bit_ranges", "gpu.memory",
           hot=True),
    Target("repro.gpu.memory:DeviceMemory.atomic_add", "gpu.memory",
           hot=True),
    Target("repro.gpu.memory:DeviceMemory.shared_access", "gpu.memory",
           hot=True),
    Target("repro.service.cache:DecodedAdjacencyCache.lookup",
           "compression.plan_lookup", hot=True),
    Target("repro.shard.executor:ShardExecutor.bfs", "shard.executor"),
    Target("repro.shard.executor:ShardExecutor.msbfs", "shard.executor"),
    Target("repro.shard.executor:ShardExecutor.expand", "shard.executor"),
    Target("repro.lifecycle.cdc:CDCWriter.__call__", "lifecycle.cdc_append"),
    Target("repro.lifecycle.cdc:FollowerReplica.catch_up",
           "lifecycle.catch_up"),
    Target("repro.lifecycle.cdc:FollowerReplica.submit",
           "lifecycle.follower_read"),
    Target("repro.lifecycle.maintenance:MaintenanceScheduler.tick",
           "lifecycle.maintenance"),
    Target("repro.store.snapshot:restore_entry", "store.load"),
    Target("repro.store.snapshot:write_snapshot", "store.save"),
)


class Root:
    """One traced request (or background activity) and its segments."""

    __slots__ = ("id", "kind", "start", "end", "segments")

    def __init__(self, root_id: int, kind: str, start: int) -> None:
        self.id = root_id
        self.kind = kind
        self.start = start
        self.end = start
        self.segments: list[Segment] = []


class Segment:
    """The work under one thread-outermost frame, charged to its roots.

    ``layers`` maps layer -> self nanoseconds; ``calls`` maps entry name ->
    ``[calls, duration_ns, self_ns]``.
    """

    __slots__ = ("id", "start", "end", "layers", "calls", "roots")

    def __init__(self, segment_id: int, start: int, roots: list) -> None:
        self.id = segment_id
        self.start = start
        self.end = start
        self.layers: dict[str, int] = {}
        self.calls: dict[str, list[int]] = {}
        self.roots = roots


class _ThreadState:
    __slots__ = ("stack", "roots", "segment")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.roots: list[Root] | None = None
        self.segment: Segment | None = None


@dataclass(frozen=True)
class Summary:
    """Aggregate of a set of roots.

    ``layers`` and ``remainder_ns`` sum to ``request_ns`` (up to the few
    microseconds where a dispatcher segment overlaps the caller's own
    admission frame).
    """

    roots: int
    request_ns: int
    remainder_ns: int
    layers: dict[str, int]
    calls: dict[str, tuple[int, int, int]]

    def per_call_ms(self, name: str, self_only: bool = False) -> float:
        calls, duration, own = self.calls.get(name, (0, 0, 0))
        if calls == 0:
            return 0.0
        return (own if self_only else duration) / calls / 1e6

    def count(self, name: str) -> int:
        return self.calls.get(name, (0, 0, 0))[0]

    def total_ms(self, name: str, self_only: bool = False) -> float:
        _, duration, own = self.calls.get(name, (0, 0, 0))
        return (own if self_only else duration) / 1e6


class LayerTracer:
    """Installs timing wrappers on :data:`TARGETS` and aggregates spans."""

    def __init__(self) -> None:
        self.roots: list[Root] = []
        #: Recorded spans: ``(id, parent, segment, name, layer, start, end,
        #: self)``, nanoseconds on the ``perf_counter_ns`` clock.
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._bound: dict[int, Root] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._active = False
        os.register_at_fork(after_in_child=self._forked)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; originals are restored by :meth:`uninstall`."""
        for target in TARGETS:
            module_name, _, attr_path = target.path.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr_path:
                class_name, attr = attr_path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, target))
            else:
                original = getattr(module, attr_path)
                wrapper = self._wrap(original, target)
                # Functions are also bound by name in every importing module.
                for loaded in list(sys.modules.values()):
                    name = getattr(loaded, "__name__", "")
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)
        self._active = True

    def uninstall(self) -> None:
        self._active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _forked(self) -> None:
        # Forked shard workers inherit the wrappers; only this process traces.
        self._active = False

    # -- roots ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            return state

    def new_root(self, kind: str, start: int | None = None) -> Root:
        return Root(
            next(self._ids), kind,
            time.perf_counter_ns() if start is None else start,
        )

    def finish_root(self, root: Root, end: int | None = None) -> None:
        root.end = time.perf_counter_ns() if end is None else end
        self.roots.append(root)

    @contextmanager
    def acting_for(self, root: Root):
        """Charge this thread's outermost frames to ``root`` in the block."""
        state = self._state()
        previous = state.roots
        state.roots = [root]
        try:
            yield root
        finally:
            state.roots = previous

    @contextmanager
    def root(self, kind: str):
        """A client-side request: timed here, charged its segments."""
        root = self.new_root(kind)
        try:
            with self.acting_for(root):
                yield root
        finally:
            self.finish_root(root)

    def _query_roots(self, args, kwargs) -> list[Root]:
        """Roots bound to the queries of a ``TraversalService.submit``."""
        queries = args[1] if len(args) > 1 else kwargs.get("queries", ())
        roots = []
        for query in queries:
            root = self._bound.get(id(query))
            if root is not None and root not in roots:
                roots.append(root)
        return roots

    def bind(self, query, root: Root) -> None:
        """Let a dispatcher's ``submit`` of ``query`` find ``root``.

        The caller keeps ``query`` alive for the tracer's lifetime, so its
        id is never reused by another object.
        """
        self._bound[id(query)] = root

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, function, target: Target):
        tracer = self
        clock = time.perf_counter_ns
        hot = target.hot
        query_roots = target.query_roots
        sharded_name = target.sharded_name
        default_name = target.name
        default_layer = default_name.partition(".")[0]
        spans = self.spans
        ids = self._ids

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return function(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            name, layer = default_name, default_layer
            if sharded_name and kwargs.get("shards"):
                name = sharded_name
                layer = name.partition(".")[0]
            background = False
            if not stack:
                roots = state.roots
                if roots is None and query_roots:
                    roots = tracer._query_roots(args, kwargs)
                if not roots:
                    roots = [tracer.new_root(name)]
                    background = True
                state.segment = Segment(next(ids), clock(), roots)
            span_id = 0 if hot else next(ids)
            parent = stack[-1][4] if stack else 0
            frame = [layer, name, clock(), 0, span_id]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                segment = state.segment
                record = segment.calls.get(name)
                if record is None:
                    segment.calls[name] = [1, duration, own]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += own
                segment.layers[layer] = segment.layers.get(layer, 0) + own
                if stack:
                    stack[-1][3] += duration
                if not hot:
                    spans.append((
                        span_id, parent, segment.id, name, layer,
                        frame[2], end, own,
                    ))
                if not stack:
                    segment.end = end
                    state.segment = None
                    for root in segment.roots:
                        root.segments.append(segment)
                    if background:
                        segment.roots[0].start = segment.start
                        tracer.finish_root(segment.roots[0], end)

        return wrapper

    # -- reporting --------------------------------------------------------

    def summarize(self, roots: list[Root]) -> Summary:
        """Aggregate ``roots``: layer self times, remainder, entry calls."""
        layers = dict.fromkeys(LAYERS, 0)
        calls: dict[str, list[int]] = {}
        request_ns = 0
        remainder_ns = 0
        for root in roots:
            duration = root.end - root.start
            request_ns += duration
            remainder_ns += self_time(
                root.start, root.end,
                [(segment.start, segment.end) for segment in root.segments],
            )
            for segment in root.segments:
                for layer, own in segment.layers.items():
                    layers[layer] = layers.get(layer, 0) + own
                for name, (count, duration_ns, own) in segment.calls.items():
                    total = calls.setdefault(name, [0, 0, 0])
                    total[0] += count
                    total[1] += duration_ns
                    total[2] += own
        return Summary(
            roots=len(roots),
            request_ns=request_ns,
            remainder_ns=int(remainder_ns),
            layers=layers,
            calls={name: tuple(value) for name, value in calls.items()},
        )

    def write(self, path: Path) -> None:
        """Write every finished root and recorded span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for root in list(self.roots):
                handle.write(json.dumps({
                    "root": root.id, "kind": root.kind,
                    "start_ns": root.start, "end_ns": root.end,
                    "segments": [
                        {
                            "segment": segment.id,
                            "start_ns": segment.start,
                            "end_ns": segment.end,
                            "self_ns": segment.layers,
                            "calls": segment.calls,
                        }
                        for segment in root.segments
                    ],
                }) + "\n")
            for span in list(self.spans):
                span_id, parent, segment, name, layer, start, end, own = span
                handle.write(json.dumps({
                    "span": span_id, "parent": parent, "segment": segment,
                    "name": name, "layer": layer, "start_ns": start,
                    "end_ns": end, "self_ns": own,
                }) + "\n")


class NullTracer:
    """The untraced stand-in: same surface, records nothing."""

    @contextmanager
    def root(self, kind: str):
        yield None

    @contextmanager
    def acting_for(self, root):
        yield root

    def new_root(self, kind: str, start: int | None = None):
        return None

    def finish_root(self, root, end: int | None = None) -> None:
        pass

    def bind(self, query, root) -> None:
        pass
