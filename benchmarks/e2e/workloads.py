"""The four workloads, each driven through the public ``repro.core.ElGA`` facade.

A workload object is set up (possibly several times, for ``setup_s``)
and then asked for repetitions.  Only facade calls sit inside timed
windows; batch generation and every oracle check happen between them.
Default ``ClusterConfig`` everywhere except cluster shape and seed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.counters import aggregate_counters
from repro.cluster.metrics import combine_metrics
from repro.core import ElGA, PageRank, WCC
from repro.graph.stream import EdgeBatch
from repro.serving import OpenLoopWorkload

from . import oracle
from .inputs import Inputs
from .specs import SMOKE, WORKLOADS


class Workload:
    """Shared bookkeeping: timed windows, operation accounting, samples."""

    def __init__(self, name: str, seed: int, smoke: bool = False, recorder=None):
        self.name = name
        self.seed = int(seed)
        self.spec = dict(WORKLOADS[name], **(SMOKE if smoke else {}))
        self.recorder = recorder
        self.elga: Optional[ElGA] = None
        self.inputs: Optional[Inputs] = None
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.rep_walls: List[float] = []
        self.op_walls: List[float] = []
        self.op_sims: List[float] = []
        self.step_sims: List[float] = []
        self.work = 0
        self.work_wall = 0.0
        self.edge_steps = 0
        self.run_wall = 0.0
        self.supersteps = 0
        self.rounds = 0
        self.incremental_runs = 0
        self.delta_runs = 0
        self.extra: Dict[str, float] = {}
        self._rep_wall = 0.0
        self._ops = 0
        # Counters leave with departing agents (a 24 -> 16 scale_to
        # reads negative), so every agent seen at an operation boundary
        # is kept here and summed whether or not it is still a member.
        self._agents_seen: Dict[int, object] = {}

    # -- life cycle ------------------------------------------------------

    def new_engine(self) -> ElGA:
        """Default config but for the shape.  The cluster's own seed
        stays at its default too: ``--seed`` makes the inputs, and ring
        positions that moved with it were the main seed-to-seed spread
        of the sim-clock metrics (6 % against 0.9 % with it fixed)."""
        self._agents_seen = {}
        return ElGA(
            nodes=self.spec["nodes"],
            agents_per_node=self.spec["agents_per_node"],
            keep_reference=False,
        )

    def new_inputs(self) -> Inputs:
        return Inputs(self.seed, self.spec["scale"], self.spec["edge_factor"])

    def setup(self) -> None:
        raise NotImplementedError

    def repetition(self) -> None:
        self._rep_wall = 0.0
        self._rep()
        self.rep_walls.append(self._rep_wall)

    def _rep(self) -> None:
        raise NotImplementedError

    # -- measurement -----------------------------------------------------

    def timed(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` inside a timed window; returns (result, wall).
        Spans are recorded only inside these windows."""
        recorder = self.recorder
        if recorder is not None:
            self._ops += 1
            recorder.op = f"{label}#{self._ops}"
            recorder.on = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.on = False
        self._rep_wall += wall
        return result, wall

    def operation(self, *reasons: Optional[str], count: int = 1, failed: Optional[int] = None) -> None:
        """Account ``count`` operations; any reason fails the operation
        (or ``failed`` of them, when the reasons speak for many)."""
        reasons = [r for r in reasons if r]
        self.attempted += count
        self.failed += min(count, len(reasons)) if failed is None else failed
        self.reasons.extend(reasons)

    def run_program(self, label: str, program, counted: bool = True, **kwargs):
        """A timed ``ElGA.run``; ``counted`` runs feed compute_teps and
        sim_superstep_us."""
        m = self.inputs.n_edges
        result, wall = self.timed(label, self.elga.run, program, **kwargs)
        if counted:
            self.edge_steps += m * result.steps
            self.run_wall += wall
            self.step_sims += [d for phase, _, d in result.round_durations if phase.endswith("step")]
        self.supersteps += result.steps
        self.rounds += len(result.round_durations)
        if kwargs.get("incremental"):
            self.incremental_runs += 1
            self.delta_runs += result.strategy == "delta"
        return result, wall

    def residency(self) -> Optional[str]:
        return oracle.check_residency(self.elga.cluster, self.inputs.n_edges)

    # -- counters for the per-layer table --------------------------------

    def _see_agents(self) -> List:
        for agent in self.elga.cluster.agents.values():
            self._agents_seen[id(agent)] = agent
        return list(self._agents_seen.values())

    def fingerprint(self) -> Dict[str, float]:
        """What one seed must reproduce exactly, traced or not."""
        cluster = self.elga.cluster
        return {
            "inputs": self.inputs.digest,
            "sim_now": cluster.kernel.now,
            "sim.events": cluster.kernel.events_processed,
            "net.messages": cluster.network.stats.messages_sent,
            "net.bytes": cluster.network.stats.bytes_sent,
            "core.delta_share": self.delta_runs / max(self.incremental_runs, 1),
        }

    def counters(self) -> Dict[str, float]:
        """Monotone counts read from public surfaces, without running
        the simulator (``collect_metrics()`` would inject METRIC_REPORT
        traffic into the measured run)."""
        if self.elga is None:
            return {}
        cluster = self.elga.cluster
        agents = self._see_agents()
        out: Dict[str, float] = dict(combine_metrics(a.metrics.snapshot() for a in agents))
        participants = agents + list(cluster.streamers) + list(cluster.clients)
        out.update(aggregate_counters(p.perf for p in participants).snapshot())
        out.update(cluster.collect_client_metrics())
        stats = cluster.network.stats
        out.update(
            events=cluster.kernel.events_processed,
            messages=stats.messages_sent,
            bytes=stats.bytes_sent,
            retransmits=stats.messages_retried,
            drops=stats.messages_dropped,
            run_supersteps=self.supersteps,
            run_rounds=self.rounds,
        )
        return out

    def load_skew(self) -> float:
        loads = list(self.elga.cluster.edge_loads().values())
        return max(loads) / (sum(loads) / len(loads))


class BulkStatic(Workload):
    def setup(self) -> None:
        self.inputs = self.new_inputs()
        # Lazy imports and first-call caches: one miniature pipeline.
        warm = Inputs(self.seed, 8, 4)
        engine = self.new_engine()
        engine.ingest_edges(warm.us, warm.vs, n_streamers=2)
        engine.run(PageRank(max_iters=2, tol=1e-15))
        engine.run(WCC())

    def _rep(self) -> None:
        us, vs = self.inputs.us, self.inputs.vs
        self.elga = None
        self.elga, _ = self.timed("build", self.new_engine)
        bounds = np.linspace(0, len(us), self.spec["chunks"] + 1).astype(int)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            batch = EdgeBatch.insertions(us[a:b], vs[a:b])
            report, wall = self.timed(f"chunk-{i}", self.elga.apply_batch, batch, n_streamers=2)
            self.op_walls.append(wall)
            self.op_sims.append(report["sim_seconds"])
            self.work += len(batch)
            self.work_wall += wall
            self.operation(oracle.check_residency(self.elga.cluster, int(b)))
        pr, _ = self.run_program("run-pagerank", PageRank(max_iters=10, tol=1e-15))
        self.operation(oracle.check_pagerank(pr.values, us, vs, 1e-15, iters=10))
        wcc, _ = self.run_program("run-wcc", WCC())
        self.operation(oracle.check_wcc(wcc.values, us, vs))


class StreamChurn(Workload):
    TOL = 1e-5

    def setup(self) -> None:
        self.inputs = self.new_inputs()
        self.elga = self.new_engine()
        self.elga.ingest_edges(self.inputs.us, self.inputs.vs, n_streamers=2)
        self.elga.run(PageRank(tol=self.TOL))
        self.elga.run(WCC())
        self._m0 = self.inputs.n_edges
        self._cycle = 0

    def churn(self, deletions: bool) -> EdgeBatch:
        n_delete = round(self._m0 * self.spec.get("delete_share", 0)) if deletions else 0
        return EdgeBatch(
            *self.inputs.churn_batch(max(1, round(self._m0 * self.spec["insert_share"])), n_delete)
        )

    def _rep(self) -> None:
        every = self.spec["delete_every"]
        for _ in range(self.spec["ops_per_rep"]):
            self._cycle += 1
            batch = self.churn(deletions=self._cycle % every == 0)
            report, w_apply = self.timed("cycle-apply", self.elga.apply_batch, batch)
            _, w_quiesce = self.timed("cycle-quiesce", self.elga.quiesce)
            pr, w_pr = self.run_program("cycle-pagerank", PageRank(tol=self.TOL), incremental=True)
            wcc, w_wcc = self.run_program("cycle-wcc", WCC(), incremental=True)
            wall = w_apply + w_quiesce + w_pr + w_wcc
            self.op_walls.append(wall)
            self.op_sims.append(report["sim_seconds"] + pr.sim_seconds + wcc.sim_seconds)
            self.work += len(batch)
            self.work_wall += wall
            us, vs = self.inputs.edges()
            self.operation(
                self.residency(),
                oracle.check_pagerank(pr.values, us, vs, self.TOL),
                oracle.check_wcc(wcc.values, us, vs),
            )
        self.extra["scratch_or_dense_runs"] = self.incremental_runs - self.delta_runs


class ServeChurn(StreamChurn):
    def setup(self) -> None:
        super().setup()
        self.proxies = [self.elga.cluster.new_client() for _ in range(self.spec["proxies"])]
        for proxy in self.proxies:
            proxy.audit = []
        self._labels = oracle.wcc_labels(*self.inputs.edges())
        self._latencies: List[float] = []

    def _rep(self) -> None:
        spec = self.spec
        for slice_ in range(spec["ops_per_rep"]):
            # Replies in this slice land after the previous slice's run
            # completed and before this one's does: anything but the
            # previous run's labels is a stale or torn read.
            ids, labels = self._labels
            stream = OpenLoopWorkload(
                self.proxies, ids, "wcc", rate=spec["rate"], duration=spec["duration"],
                n_clients=spec["n_clients"], zipf_s=spec["zipf_s"], seed=self.inputs.stream_seed(),
            )
            batch = self.churn(deletions=False)
            stream.start()
            _, w_apply = self.timed("slice-apply", self.elga.apply_batch, batch)
            # An incremental WCC takes 1 or 3 supersteps as the batch
            # happens to merge components or not, too few and too
            # uneven to rate compute by.  Every third slice refreshes
            # from scratch instead, and only those runs count.
            full = slice_ % 3 == 2
            wcc, w_wcc = self.run_program("slice-wcc", WCC(), counted=full, incremental=not full)
            _, w_settle = self.timed("slice-settle", self.elga.quiesce)
            wall = w_apply + w_wcc + w_settle
            self.op_walls.append(wall)
            self.work += stream.delivered
            self.work_wall += wall
            stale = 0
            for proxy in self.proxies:
                # proxy.latencies keeps the last 65,536 samples only.
                self._latencies.extend(proxy.latencies)
                proxy.latencies.clear()
                if proxy.audit:
                    asked = np.array([r["vertex"] for r in proxy.audit], dtype=np.int64)
                    got = np.array([np.nan if r["value"] is None else r["value"] for r in proxy.audit])
                    stale += int((got != labels[np.searchsorted(ids, asked)]).sum())
                    proxy.audit.clear()
            lost = stream.n_queries - stream.delivered
            self.operation(
                f"serve: {stale} stale replies" if stale else None,
                f"serve: {lost} of {stream.n_queries} queries never delivered" if lost else None,
                count=stream.n_queries, failed=stale + lost,
            )
            us, vs = self.inputs.edges()
            self.operation(self.residency(), oracle.check_wcc(wcc.values, us, vs))
            self._labels = oracle.wcc_labels(us, vs)
        self.op_sims = self._latencies
        self.extra["sim_query_p99_us"] = float(np.percentile(self._latencies, 99) * 1e6)
        self.extra["scratch_or_dense_runs"] = self.incremental_runs - self.delta_runs


class ElasticScale(Workload):
    def setup(self) -> None:
        self.inputs = self.new_inputs()
        self.elga = self.new_engine()
        self.elga.ingest_edges(self.inputs.us, self.inputs.vs, n_streamers=2)

    def _rep(self) -> None:
        us, vs = self.inputs.us, self.inputs.vs
        pr, _ = self.run_program(
            "run-pagerank", PageRank(max_iters=10, tol=1e-15), counted=False,
            scale_plan=self.spec["scale_plan"],
        )
        self.operation(self.residency(), oracle.check_pagerank(pr.values, us, vs, 1e-15, iters=10))
        for target in self.spec["events"]:
            before = sum(a.metrics.edges_migrated for a in self._see_agents())
            report, wall = self.timed(f"scale-{target}", self.elga.scale_to, target)
            moved = sum(a.metrics.edges_migrated for a in self._see_agents()) - before
            self.op_walls.append(wall)
            self.op_sims.append(report["sim_seconds"])
            self.work += moved
            self.work_wall += wall
            agents = self.elga.n_agents
            self.operation(
                self.residency(),
                f"scale: {agents} agents after scale_to({target})" if agents != target else None,
            )
        wcc, _ = self.run_program("run-wcc", WCC())
        self.operation(oracle.check_wcc(wcc.values, us, vs))


CLASSES = {
    "bulk-static": BulkStatic,
    "stream-churn": StreamChurn,
    "serve-churn": ServeChurn,
    "elastic-scale": ElasticScale,
}
