"""The three serving workloads: seeded inputs, set-up, measured loop, checks.

Each workload turns ``--seed`` and ``--seconds`` into its inputs (BFS/PPR
sources, update batches, an arrival schedule: a nominal ``--seconds``
worth) before anything touches the program, builds a serving stack from
the public APIs, issues every input and keeps every answer, which
``verify`` then checks against the oracles outside the timed phase.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.graph.datasets import DATASETS
from repro.graph.graph import Graph
from repro.lifecycle.cdc import FollowerReplica
from repro.server.frontdoor import FrontDoor
from repro.service.queries import BFSQuery, CCQuery, PageRankQuery
from repro.service.service import TraversalService

from servebench import oracle
from servebench.stats import latency_from_due, min_samples

#: Seconds a single request may take before the benchmark gives up on it.
CALL_TIMEOUT = 120.0

#: Samples every workload collects: p95 of reads, p50 of each kind.
READ_SAMPLES = min_samples(95)
KIND_SAMPLES = min_samples(50)

#: The personalized-PageRank push tolerance of queries and the view.
PPR_EPSILON = 1e-4

#: Updates per churn batch and the share of them that are inserts.
CHURN_BATCH = 30
CHURN_INSERT_SHARE = 0.7


@dataclass
class Op:
    """One attempted operation and what came back.

    ``seconds`` is the client-observed latency (from the due time for open
    loops); ``value`` keeps the answer for :func:`verify`; ``wrong`` is set
    there.  ``response`` is the front door's response for reads through it.
    """

    kind: str
    seconds: float
    ok: bool
    value: Any = None
    source: int = -1
    step: int = -1
    epoch: int = -1
    response: Any = None
    lag: float = 0.0
    wrong: bool = False


@dataclass
class Phase:
    """A measured loop: its operations and its wall-clock window."""

    ops: list[Op] = field(default_factory=list)
    wall_seconds: float = 0.0

    def of(self, *kinds: str) -> list[Op]:
        return [op for op in self.ops if op.kind in kinds]


@dataclass
class Stack:
    """A live serving stack; :meth:`close` stops every thread and worker."""

    service: TraversalService
    frontdoor: FrontDoor
    follower: FollowerReplica | None = None
    workdir: Path | None = None

    def close(self) -> None:
        try:
            self.frontdoor.close()
        finally:
            try:
                if self.follower is not None:
                    self.follower.close()
            finally:
                self.service.close()
                if self.workdir is not None:
                    shutil.rmtree(self.workdir, ignore_errors=True)


def _build_graph(dataset: str, scale: int) -> Graph:
    # The spec's builder, not the per-process cache in load_dataset, so
    # every set-up pays (and times) generation.
    return DATASETS[dataset].build(scale)


def _call(frontdoor, tenant: str, query, tracer, kind: str) -> Op:
    """One closed-loop read through the front door."""
    with tracer.root("read") as root:
        tracer.bind(query, root)
        began = time.perf_counter()
        try:
            response = frontdoor.call(tenant, query, timeout=CALL_TIMEOUT)
        except TimeoutError:
            return Op(kind, time.perf_counter() - began, False)
        seconds = time.perf_counter() - began
    source = getattr(query, "source", -1)
    return Op(
        kind, seconds, response.ok,
        value=response.value.value if response.ok else None,
        source=source, response=response,
    )


def _require_ok(op: Op, what: str) -> None:
    if not op.ok:
        raise RuntimeError(f"warm-up {what} failed: {op.response}")


def _blocks(rng, block: tuple[str, ...], count: int) -> list[str]:
    """``count`` items: ``block`` shuffled again for each repetition."""
    items: list[str] = []
    while len(items) < count:
        items.extend(str(item) for item in rng.permutation(block))
    return items[:count]


def _query(kind: str, source: int):
    if kind == "bfs":
        return BFSQuery("g", source)
    if kind == "ppr":
        return PageRankQuery("g", source, epsilon=PPR_EPSILON)
    if kind == "cc":
        return CCQuery("g")
    raise ValueError(f"unknown read kind {kind!r}")


def _operations(per_second: float, seconds: float, least: int) -> int:
    """How many operations a run issues: ``per_second`` nominal, at least
    ``least``.

    Every run of a seed does the same work, however fast the host is that
    day; a slow host takes longer instead.  Growing state (the CDC log a
    follower re-reads, its overlay) then cannot couple a run's content to
    the host's speed.
    """
    return max(math.ceil(per_second * seconds), least)


# -- serial-uk -----------------------------------------------------------------


class SerialUK:
    """One client, one request outstanding, on unsharded uk-2002."""

    name = "serial-uk"
    dataset, scale = "uk-2002", 1500
    read_kinds = ("bfs", "ppr", "cc")
    #: The request mix, as one shuffled block per 12 requests.
    block = ("bfs",) * 8 + ("ppr",) * 3 + ("cc",)
    #: Nominal requests per second of ``--seconds``.
    per_second = 12
    tenant = "client"

    def generate(self, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(seed)
        count = _operations(
            self.per_second, seconds, KIND_SAMPLES * len(self.block))
        # Whole blocks, enough for a p95 of reads and a median of CC.
        count = math.ceil(count / len(self.block)) * len(self.block)
        kinds = _blocks(rng, self.block, count)
        sources = rng.integers(self.scale, size=count)
        requests = [(kind, int(source)) for kind, source in zip(kinds, sources)]
        warm = int(rng.integers(self.scale))
        return {"requests": requests, "warm": warm}

    def setup(self, inputs: dict, tracer) -> Stack:
        graph = _build_graph(self.dataset, self.scale)
        service = TraversalService()
        service.register_graph("g", graph)
        frontdoor = FrontDoor(service)
        stack = Stack(service, frontdoor)
        try:
            frontdoor.register_tenant(self.tenant, priority=0)
            for kind in self.read_kinds:
                op = _call(
                    frontdoor, self.tenant, _query(kind, inputs["warm"]),
                    tracer, kind,
                )
                _require_ok(op, kind)
        except BaseException:
            stack.close()
            raise
        return stack

    def run(
        self, stack: Stack, inputs: dict, tracer, calibrator
    ) -> Phase:
        phase = Phase()
        began = time.perf_counter()
        for kind, source in inputs["requests"]:
            calibrator.sample()
            phase.ops.append(
                _call(stack.frontdoor, self.tenant, _query(kind, source),
                      tracer, kind)
            )
        phase.wall_seconds = (
            time.perf_counter() - began - calibrator.wall_seconds
        )
        return phase

    def verify(self, inputs: dict, phase: Phase) -> None:
        graph = _build_graph(self.dataset, self.scale)
        checker = oracle.StaticOracle(graph, PPR_EPSILON)
        for op in phase.ops:
            if op.ok:
                op.wrong = not checker.check(op.kind, op.source, op.value)


# -- burst-twitter-sharded -------------------------------------------------------


class BurstTwitterSharded:
    """Bursts of concurrent requests from two tenants on 2-shard twitter.

    Each burst's requests are due at one instant and submitted together,
    so they queue behind one another and the BFS among them coalesce into
    MS-BFS sweeps; the next burst is due when the last answer is back.
    The loop is closed: as an open Poisson loop the median moved from 30
    to 58 ms over six runs on a 2-vCPU host, and no reference task timed
    beside it tracked the change (a request that found the host idle ran
    slower by an amount that varied from run to run).

    The shards run on the inline backend.  On the process backend the
    same run's median latency moves by a third from one run to the next
    (worker wake-ups on a 2-vCPU host), beyond any usable bound.
    """

    name = "burst-twitter-sharded"
    dataset, scale = "twitter", 350
    shards, backend = 2, "inline"
    read_kinds = ("bfs", "ppr")
    #: Requests per burst.
    burst = 6
    #: Nominal requests per second of ``--seconds``.
    per_second = 24
    #: The request mix (85% BFS), as one shuffled block per 20 requests.
    kinds = ("bfs",) * 17 + ("ppr",) * 3
    #: Tenants as ``(name, priority)``, and their mix (30% interactive).
    tenants = (("interactive", 0), ("batch", 2))
    tenant_block = ("interactive",) * 3 + ("batch",) * 7

    def generate(self, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(seed)
        count = _operations(self.per_second, seconds, READ_SAMPLES)
        # Whole bursts.  Kinds and tenants come in shuffled blocks, so every
        # seed has the same mix: p95 sits among the PPRs, and their count
        # moved it.
        count = math.ceil(count / self.burst) * self.burst
        kinds = _blocks(rng, self.kinds, count)
        tenants = _blocks(rng, self.tenant_block, count)
        sources = rng.integers(self.scale, size=count)
        requests = [
            (kind, tenant, int(source))
            for kind, tenant, source in zip(kinds, tenants, sources)
        ]
        bursts = [
            requests[index:index + self.burst]
            for index in range(0, count, self.burst)
        ]
        warm = [int(source) for source in rng.integers(self.scale, size=8)]
        return {"bursts": bursts, "warm": warm}

    def setup(self, inputs: dict, tracer) -> Stack:
        graph = _build_graph(self.dataset, self.scale)
        service = TraversalService()
        try:
            service.register_graph(
                "g", graph, shards=self.shards, executor_backend=self.backend
            )
            frontdoor = FrontDoor(service)
        except BaseException:
            service.close()
            raise
        stack = Stack(service, frontdoor)
        try:
            for name, priority in self.tenants:
                frontdoor.register_tenant(name, priority=priority)
            tenant = self.tenants[0][0]
            for kind in self.read_kinds:
                op = _call(
                    frontdoor, tenant, _query(kind, inputs["warm"][0]),
                    tracer, kind,
                )
                _require_ok(op, kind)
            # A concurrent wave so the coalesced MS-BFS path is warm too.
            tickets = [
                frontdoor.submit(tenant, BFSQuery("g", source))
                for source in inputs["warm"]
            ]
            for ticket in tickets:
                if not ticket.response(CALL_TIMEOUT).ok:
                    raise RuntimeError("warm-up BFS wave failed")
        except BaseException:
            stack.close()
            raise
        return stack

    def run(
        self, stack: Stack, inputs: dict, tracer, calibrator
    ) -> Phase:
        frontdoor = stack.frontdoor
        phase = Phase()
        began = time.perf_counter()
        for burst in inputs["bursts"]:
            calibrator.sample()
            due = time.perf_counter()
            sent = []
            for kind, tenant, source in burst:
                query = _query(kind, source)
                root = tracer.new_root("read", int(due * 1e9))
                tracer.bind(query, root)
                sent_at = time.perf_counter()
                with tracer.acting_for(root):
                    ticket = frontdoor.submit(tenant, query)
                sent.append((sent_at, kind, source, ticket, root))
            for sent_at, kind, source, ticket, root in sent:
                try:
                    response = ticket.response(CALL_TIMEOUT)
                except TimeoutError:
                    ticket.cancel()
                    phase.ops.append(
                        Op(kind, CALL_TIMEOUT, False, source=source))
                    continue
                latency, lag = latency_from_due(
                    due, sent_at, response.total_seconds
                )
                tracer.finish_root(root, int((due + latency) * 1e9))
                phase.ops.append(Op(
                    kind, latency, response.ok,
                    value=response.value.value if response.ok else None,
                    source=source, response=response, lag=lag,
                ))
        phase.wall_seconds = (
            time.perf_counter() - began - calibrator.wall_seconds
        )
        return phase

    def verify(self, inputs: dict, phase: Phase) -> None:
        graph = _build_graph(self.dataset, self.scale)
        checker = oracle.StaticOracle(graph, PPR_EPSILON)
        for op in phase.ops:
            if op.ok:
                op.wrong = not checker.check(op.kind, op.source, op.value)


# -- churn-twitter ------------------------------------------------------------------


class ChurnTwitter:
    """One client writing, reading fresh, reading views and a follower.

    The maintenance scheduler is ticked by the client once per step, not
    attached to the front door's idle dispatcher: there its ticks landed at
    random points against the reads, and on a 2-vCPU host read_p95_ms and
    read_qps then spread by a quarter to a third between seeds.
    """

    name = "churn-twitter"
    dataset, scale = "twitter", 200
    read_kinds = ("bfs",)
    #: Nominal steps per second of ``--seconds``.
    per_second = 10
    tenant = "client"

    def generate(self, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(seed)
        graph = _build_graph(self.dataset, self.scale)
        # The benchmark's own model of the graph as the batches mutate it,
        # so deletes name live edges and inserts name absent ones.
        adjacency = [set(graph.neighbors(node)) for node in range(self.scale)]
        steps = []
        for _ in range(_operations(self.per_second, seconds, READ_SAMPLES)):
            batch = []
            while len(batch) < CHURN_BATCH:
                source = int(rng.integers(self.scale))
                neighbors = adjacency[source]
                if rng.random() < CHURN_INSERT_SHARE:
                    target = int(rng.integers(self.scale))
                    if target != source and target not in neighbors:
                        neighbors.add(target)
                        batch.append(("insert", source, target))
                elif neighbors:
                    live = sorted(neighbors)
                    target = live[int(rng.integers(len(live)))]
                    neighbors.discard(target)
                    batch.append(("delete", source, target))
            steps.append((batch, int(rng.integers(self.scale))))
        return {
            "steps": steps,
            "warm": int(rng.integers(self.scale)),
            "ppr_source": int(rng.integers(self.scale)),
        }

    def setup(self, inputs: dict, tracer) -> Stack:
        graph = _build_graph(self.dataset, self.scale)
        workdir = Path(tempfile.mkdtemp(prefix="churn-", dir=_scratch()))
        service = TraversalService()
        follower = None
        try:
            service.register_graph("g", graph)
            service.register_view("cc", "g", kind="cc")
            service.register_view(
                "ppr", "g", kind="pagerank",
                params={
                    "source": inputs["ppr_source"], "mode": "approx",
                    "epsilon": PPR_EPSILON,
                },
            )
            service.save_graph("g", workdir / "snapshot")
            service.start_cdc_export("g", workdir / "g.cdc")
            follower = FollowerReplica(workdir / "snapshot", workdir / "g.cdc")
            frontdoor = FrontDoor(service)
        except BaseException:
            if follower is not None:
                follower.close()
            service.close()
            shutil.rmtree(workdir, ignore_errors=True)
            raise
        stack = Stack(service, frontdoor, follower, workdir)
        try:
            service.enable_maintenance()
            frontdoor.register_tenant(self.tenant, priority=0)
            _require_ok(
                _call(frontdoor, self.tenant, BFSQuery("g", inputs["warm"]),
                      tracer, "bfs"),
                "bfs",
            )
            service.view_result("cc")
            service.view_result("ppr")
            follower.submit([BFSQuery("g", inputs["warm"])])
        except BaseException:
            stack.close()
            raise
        return stack

    def run(
        self, stack: Stack, inputs: dict, tracer, calibrator
    ) -> Phase:
        service, follower = stack.service, stack.follower
        phase = Phase()
        began = time.perf_counter()
        for step, (batch, source) in enumerate(inputs["steps"]):
            calibrator.sample()
            with tracer.root("update"):
                started = time.perf_counter()
                service.apply_updates("g", batch)
                update_seconds = time.perf_counter() - started
            epoch = service.registry.logical_epoch("g")
            phase.ops.append(Op("update", update_seconds, True, step=step,
                                epoch=epoch))

            read = _call(stack.frontdoor, self.tenant, BFSQuery("g", source),
                         tracer, "bfs")
            read.step, read.epoch = step, epoch
            phase.ops.append(read)

            for view in ("cc", "ppr"):
                with tracer.root("view_read"):
                    started = time.perf_counter()
                    result = service.view_result(view)
                    view_seconds = time.perf_counter() - started
                phase.ops.append(Op(
                    f"view_{view}", view_seconds, True, value=result,
                    step=step, epoch=epoch,
                ))

            with tracer.root("catchup"):
                started = time.perf_counter()
                follower.catch_up()
                catchup_seconds = time.perf_counter() - started
            phase.ops.append(Op("catchup", catchup_seconds, True,
                                value=follower.applied_epoch, step=step,
                                epoch=epoch))

            query = BFSQuery("g", source)
            with tracer.root("follower_read"):
                started = time.perf_counter()
                [answer] = follower.submit([query])
                follower_seconds = time.perf_counter() - started
            phase.ops.append(Op("follower_bfs", follower_seconds, True,
                                value=answer.value, source=source, step=step,
                                epoch=epoch))

            with tracer.root("maintenance"):
                started = time.perf_counter()
                service.maintenance.tick()
                tick_seconds = time.perf_counter() - started
            phase.ops.append(Op("maintenance", tick_seconds, True, step=step,
                                epoch=epoch))
        phase.wall_seconds = (
            time.perf_counter() - began - calibrator.wall_seconds
        )
        return phase

    def verify(self, inputs: dict, phase: Phase) -> None:
        """Replay the batches on the benchmark's own model of the graph.

        Fresh reads against the oracles, views against from-scratch
        recompute (PPR within its certificate), the follower bit-identical
        to the primary at the same logical epoch.
        """
        model = _build_graph(self.dataset, self.scale)
        by_step: dict[int, list[Op]] = {}
        for op in phase.ops:
            by_step.setdefault(op.step, []).append(op)
        ppr_source = inputs["ppr_source"]
        for step, (batch, _) in enumerate(inputs["steps"]):
            if step not in by_step:
                break
            model = model.with_edge_updates(batch)
            checker = oracle.StaticOracle(model, PPR_EPSILON)
            ops = {op.kind: op for op in by_step[step]}
            primary = ops.get("bfs")
            for op in by_step[step]:
                if not op.ok:
                    continue
                if op.kind == "bfs":
                    op.wrong = not checker.check("bfs", op.source, op.value)
                elif op.kind == "follower_bfs":
                    op.wrong = primary is None or not primary.ok or not (
                        np.array_equal(op.value.levels, primary.value.levels)
                    )
                elif op.kind == "catchup":
                    op.wrong = op.value != op.epoch
                elif op.kind == "view_cc":
                    op.wrong = op.value.epoch != op.epoch or not (
                        checker.check_components(op.value.value)
                    )
                elif op.kind == "view_ppr":
                    op.wrong = op.value.epoch != op.epoch or not (
                        checker.check_ppr_certificate(
                            ppr_source, op.value.value
                        )
                    )


def _scratch() -> Path:
    """The benchmark's own output directory inside the checkout."""
    path = Path(__file__).resolve().parent / "out"
    path.mkdir(exist_ok=True)
    return path


WORKLOADS = {
    workload.name: workload
    for workload in (SerialUK(), BurstTwitterSharded(), ChurnTwitter())
}
