"""Blogel: the static BSP baseline (§4.2, §4.7).

Blogel [89] is the state-of-the-art static distributed system the paper
competes against.  Characteristics modeled here, each from the paper:

* **CSR storage** — faster per-edge scans than ElGA's flat hash maps
  (§4.7), but rebuilt from scratch on any change (hence "static").
* **Vertex partitioning** — an edge lives with its source, assigned by
  hashing (the competitive variant), or by Voronoi block growth
  (Blogel-Vor, confirmed uncompetitive in §4.2).
* **MPI transport** — ~1 µs sends (§3.5), but per-superstep allreduce
  barriers whose cost grows with rank count; the paper found Blogel
  fastest at only 8 ranks/node because allreduces saturate the network
  beyond that, leaving most cores idle.
* **Combiners** — messages to the same destination vertex from one rank
  are pre-aggregated, so cross-rank volume counts distinct
  (rank, destination) pairs.

The algorithms (PageRank, WCC) are executed exactly, vectorized over
the global edge arrays, while per-superstep *time* is the straggler
rank's compute plus communication plus the allreduce term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COSTS
from repro.graph.csr import compact_ids, symmetrize
from repro.net.latency import TransportModel
from repro.partition.baselines import hash_vertex_partition, voronoi_partition


@dataclass
class BlogelResult:
    """One Blogel run: exact values plus modeled timing."""

    values: np.ndarray
    vertex_ids: np.ndarray
    iterations: int
    per_iter_seconds: List[float]
    total_seconds: float

    def value_map(self) -> dict:
        return {int(v): float(x) for v, x in zip(self.vertex_ids, self.values)}

    @property
    def mean_iter_seconds(self) -> float:
        return float(np.mean(self.per_iter_seconds)) if self.per_iter_seconds else 0.0


class Blogel:
    """A Blogel deployment.

    Parameters
    ----------
    nodes, ranks_per_node:
        Cluster shape; the paper's tuned configuration is 64 nodes × 8
        MPI ranks.
    partitioner:
        ``"hash"`` (simple vertex partitioning) or ``"voronoi"``
        (Blogel-Vor).
    """

    def __init__(
        self,
        nodes: int = 64,
        ranks_per_node: int = 8,
        partitioner: str = "hash",
        costs: CostModel = DEFAULT_COSTS,
        transport: Optional[TransportModel] = None,
        seed: int = 0,
        memory_bandwidth_ranks: int = 8,
    ):
        if partitioner not in ("hash", "voronoi"):
            raise ValueError(f"unknown partitioner {partitioner!r}")
        self.nodes = int(nodes)
        self.ranks_per_node = int(ranks_per_node)
        self.ranks = int(nodes * ranks_per_node)
        self.partitioner = partitioner
        self.costs = costs
        self.transport = transport if transport is not None else TransportModel.mpi()
        self.seed = seed
        # The paper found Blogel fastest at 8 MPI ranks per 32-core node:
        # its CSR scans are memory-bound, so ~8 ranks already saturate a
        # node's DRAM bandwidth and further ranks add no scan throughput
        # (§4.2, §4.7).  The contention factor scales per-rank scan cost
        # back up once ranks_per_node exceeds this saturation point.
        self.memory_bandwidth_ranks = int(memory_bandwidth_ranks)
        self._loaded = False

    @property
    def _contention(self) -> float:
        return max(1.0, self.ranks_per_node / self.memory_bandwidth_ranks)

    # ------------------------------------------------------------------

    def load(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Partition and build the per-rank CSRs (static load phase).

        Loading/partitioning time is deliberately not part of any
        result: the paper excludes static systems' load, partition, and
        save costs (§4.2).
        """
        self.us, self.vs, self.vertex_ids = compact_ids(us, vs)
        self.n = len(self.vertex_ids)
        if self.partitioner == "hash":
            vertex_rank_all = hash_vertex_partition(
                np.arange(self.n), np.arange(self.n), self.ranks
            )
        else:
            rng = np.random.default_rng(self.seed)
            edge_rank = voronoi_partition(self.us, self.vs, self.n, self.ranks, rng)
            # Voronoi assigns blocks; derive the vertex map from each
            # vertex's (source-side) block.
            vertex_rank_all = np.zeros(self.n, dtype=np.int64)
            vertex_rank_all[self.us] = edge_rank
        self.vertex_rank = vertex_rank_all
        self.edge_rank = self.vertex_rank[self.us]  # edge lives with source
        self.out_deg = np.bincount(self.us, minlength=self.n).astype(np.float64)
        self.edges_per_rank = np.bincount(self.edge_rank, minlength=self.ranks)
        self.verts_per_rank = np.bincount(self.vertex_rank, minlength=self.ranks)
        self._loaded = True

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise RuntimeError("call load() before running an algorithm")

    # -- timing model -----------------------------------------------------

    def _superstep_seconds(
        self, edge_mask: Optional[np.ndarray], dst_rank: np.ndarray
    ) -> float:
        """Straggler compute + combined message volume + allreduce."""
        costs = self.costs
        if edge_mask is None:
            active_src_rank = self.edge_rank
            active_vs = self.vs
        else:
            active_src_rank = self.edge_rank[edge_mask]
            active_vs = self.vs[edge_mask]
            dst_rank = dst_rank[edge_mask]
        edges_per_rank = np.bincount(active_src_rank, minlength=self.ranks)
        recv_per_rank = np.bincount(dst_rank if edge_mask is None else dst_rank, minlength=self.ranks)
        compute = (
            edges_per_rank * costs.blogel_edge_op * self._contention
            + recv_per_rank * costs.blogel_combine_op * self._contention
            + self.verts_per_rank * costs.blogel_vertex_op
        )
        # Combiner: one 16-byte message per distinct (src rank, dst vertex)
        # pair crossing ranks.
        cross = active_src_rank != dst_rank
        if cross.any():
            pair = active_src_rank[cross].astype(np.int64) * self.n + active_vs[cross]
            n_msgs_by_rank = np.bincount(
                active_src_rank[cross][_first_occurrence(pair)], minlength=self.ranks
            )
        else:
            n_msgs_by_rank = np.zeros(self.ranks, dtype=np.int64)
        comm = n_msgs_by_rank * (16.0 / self.transport.bandwidth_Bps) + (
            n_msgs_by_rank > 0
        ) * self.transport.latency_s
        allreduce = costs.blogel_allreduce_base * max(
            1.0, np.log2(max(self.ranks, 2))
        ) + costs.blogel_allreduce_per_rank * self.ranks
        return float((compute + comm).max() + allreduce)

    # -- algorithms ---------------------------------------------------------

    def pagerank(
        self, damping: float = 0.85, tol: float = 1e-8, max_iters: int = 100
    ) -> BlogelResult:
        """Pregel PageRank, identical semantics to ElGA's program."""
        self._require_loaded()
        dst_rank = self.vertex_rank[self.vs]
        safe_deg = np.where(self.out_deg > 0, self.out_deg, 1.0)
        ranks = np.full(self.n, 1.0 / self.n)
        base = (1.0 - damping) / self.n
        per_iter: List[float] = []
        iters = 0
        for iters in range(1, max_iters + 1):
            incoming = np.zeros(self.n)
            np.add.at(incoming, self.vs, (ranks / safe_deg)[self.us])
            new_ranks = base + damping * incoming
            per_iter.append(self._superstep_seconds(None, dst_rank))
            delta = float(np.abs(new_ranks - ranks).sum())
            ranks = new_ranks
            if delta < tol:
                break
        return BlogelResult(
            values=ranks,
            vertex_ids=self.vertex_ids,
            iterations=iters,
            per_iter_seconds=per_iter,
            total_seconds=float(sum(per_iter)),
        )

    def wcc(self, max_iters: int = 10_000) -> BlogelResult:
        """Min-label WCC on the symmetrized graph.

        The paper had to symmetrize inputs to fix Blogel's WCC bug
        (§4.7); the same step happens here.
        """
        self._require_loaded()
        sym_us, sym_vs = symmetrize(self.us, self.vs)
        src_rank = self.vertex_rank[sym_us]
        dst_rank = self.vertex_rank[sym_vs]
        # Labels in the original id space, comparable across systems.
        labels = self.vertex_ids.copy()
        active = np.ones(self.n, dtype=bool)
        per_iter: List[float] = []
        iters = 0
        while active.any() and iters < max_iters:
            iters += 1
            send = active[sym_us]
            new_labels = labels.copy()
            np.minimum.at(new_labels, sym_vs[send], labels[sym_us[send]])
            per_iter.append(self._wcc_step_seconds(send, sym_us, sym_vs, src_rank, dst_rank))
            active = new_labels < labels
            labels = new_labels
        # Quiescence is detected by one final (empty) superstep's
        # allreduce — Pregel-style systems pay this round too, and the
        # paper observed identical superstep counts across systems.
        per_iter.append(
            self._wcc_step_seconds(
                np.zeros(len(sym_us), dtype=bool), sym_us, sym_vs, src_rank, dst_rank
            )
        )
        return BlogelResult(
            values=labels.astype(np.float64),
            vertex_ids=self.vertex_ids,
            iterations=iters,
            per_iter_seconds=per_iter,
            total_seconds=float(sum(per_iter)),
        )

    def _wcc_step_seconds(self, send, sym_us, sym_vs, src_rank, dst_rank) -> float:
        costs = self.costs
        edges_per_rank = np.bincount(src_rank[send], minlength=self.ranks)
        recv_per_rank = np.bincount(dst_rank[send], minlength=self.ranks)
        compute = (
            edges_per_rank * costs.blogel_edge_op * self._contention
            + recv_per_rank * costs.blogel_combine_op * self._contention
            + self.verts_per_rank * costs.blogel_vertex_op
        )
        cross = send & (src_rank != dst_rank)
        if cross.any():
            pair = src_rank[cross].astype(np.int64) * self.n + sym_vs[cross]
            n_msgs = np.bincount(
                src_rank[cross][_first_occurrence(pair)], minlength=self.ranks
            )
        else:
            n_msgs = np.zeros(self.ranks, dtype=np.int64)
        comm = n_msgs * (16.0 / self.transport.bandwidth_Bps) + (
            n_msgs > 0
        ) * self.transport.latency_s
        allreduce = costs.blogel_allreduce_base * max(
            1.0, np.log2(max(self.ranks, 2))
        ) + costs.blogel_allreduce_per_rank * self.ranks
        return float((compute + comm).max() + allreduce)


def _first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the first occurrence of each key."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first_sorted = np.ones(len(keys), dtype=bool)
    first_sorted[1:] = sorted_keys[1:] != sorted_keys[:-1]
    mask = np.zeros(len(keys), dtype=bool)
    mask[order] = first_sorted
    return mask
