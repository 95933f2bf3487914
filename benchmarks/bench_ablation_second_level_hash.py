"""Ablation — the second-level consistent hash for split vertices.

§3.4.1's two-level design: the first consistent hash picks a split
vertex's replica set; a second *consistent* hash (rendezvous here)
distributes its edges among the replicas.  The obvious cheaper
alternative — ``hash(other) % k`` — balances just as well but is not
consistent: when the replication factor k grows by one, modulo
reassigns ~(k−1)/k of the vertex's edges, while the consistent scheme
moves only the share the new replica claims (~1/k).  Edge movement is
exactly what elasticity needs to minimize.
"""

import numpy as np

from benchmarks.common import dataset_edges
from repro.bench import Table, print_experiment_header
from repro.hashing import ConsistentHashRing, wang64
from repro.partition.placer import _rendezvous_pick

U64 = np.uint64


def modulo_pick(replicas, other_hashes):
    reps = np.asarray(replicas, dtype=np.int64)
    return reps[(other_hashes % U64(len(reps))).astype(np.int64)]


def run_experiment():
    us, vs, _ = dataset_edges("twitter-2010", scale=0.6)
    ring = ConsistentHashRing(range(32), virtual_factor=100)
    hub = int(np.argmax(np.bincount(us)))  # a real hub's out-edges
    others = vs[us == hub].astype(np.uint64)
    other_hashes = np.asarray(wang64(others))

    rows = []
    for k in (2, 3, 4, 6, 8):
        replicas_k = ring.successors(hub, k)
        replicas_k1 = ring.successors(hub, k + 1)
        rz_before = _rendezvous_pick(replicas_k, other_hashes)
        rz_after = _rendezvous_pick(replicas_k1, other_hashes)
        mod_before = modulo_pick(replicas_k, other_hashes)
        mod_after = modulo_pick(replicas_k1, other_hashes)
        rows.append(
            {
                "k": k,
                "rz_moved": float((rz_before != rz_after).mean()),
                "mod_moved": float((mod_before != mod_after).mean()),
                "rz_balance": float(np.bincount(
                    np.searchsorted(np.sort(replicas_k), rz_before), minlength=k
                ).max() * k / len(others)),
                "mod_balance": float(np.bincount(
                    np.searchsorted(np.sort(replicas_k), mod_before), minlength=k
                ).max() * k / len(others)),
            }
        )
    return rows, len(others)


def test_ablation_second_level_hash(benchmark):
    rows, n_edges = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Ablation", f"second-level hash on a hub's {n_edges} edges: movement when k -> k+1"
    )
    table = Table(["k", "moved (consistent)", "moved (modulo)", "imbalance (consistent)", "imbalance (modulo)"])
    for r in rows:
        table.add_row(
            r["k"],
            f"{100 * r['rz_moved']:.1f}%",
            f"{100 * r['mod_moved']:.1f}%",
            f"{r['rz_balance']:.2f}",
            f"{r['mod_balance']:.2f}",
        )
    table.show()

    for r in rows:
        k = r["k"]
        # Consistent (rendezvous) movement ≈ 1/(k+1): only the new
        # replica's claim moves.
        assert r["rz_moved"] < 1.6 / (k + 1), r
        # Modulo reshuffles ≈ k/(k+1) of the edges — k× more.  The
        # ratio grows with k (2× at k=2, ~8× at k=8).
        assert r["mod_moved"] > 1.8 * r["rz_moved"], r
        assert r["mod_moved"] > 0.5
        # Both balance the edges across replicas comparably.
        assert r["rz_balance"] < 1.5
