"""Kernel acceleration benchmark — C backend vs the numpy reference.

Four layers, matching the raw-speed push:

* **Microbenches** — the four hot kernels (placement hash, the CSR
  ``scatter_rows``, canonical ``combine_pairs``, the receive-side
  PageRank fold) timed head-to-head against the pure-numpy reference on
  realistic RMAT-derived batches.
  Results must be *bit-identical* between backends (the reference path
  is the determinism oracle), and the full run gates a >= 5x wall-clock
  speedup per kernel.
* **Crossover** — the hash, combine and fold through the dispatchers production
  calls, both backends, at the batch sizes the cluster actually sends
  (n = 16 … 4,096).  The dispatch floors in ``repro.kernels`` are read
  from this table: the smallest n from which C never loses again
  (0: it never does, no floor).
* **Million-edge end-to-end** — a scale-17 RMAT (~10^6 edges) ingested
  into the cluster and run through PageRank, wall-clock and simulated
  seconds both reported.  This is the "routine" scale the storage
  refactor + kernels buy; it runs in CI.
* **Scenario rows** — k-core, label propagation, and count-sketch
  triangle counting at mid scale, with the sketch estimate checked
  against the exact scipy oracle.

Results land in ``BENCH_kernels.json``.  ``--smoke`` runs only the
microbenches at reduced size and asserts a >= 3x speedup per kernel —
the CI regression gate.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.bench import Table, print_experiment_header
from repro.core import ElGA, PageRank
from repro.core.algorithms import KCore, LabelPropagation
from repro.gen.rmat import rmat_graph
from repro.kernels import reference
from repro.sketch.triangles import triangle_count_exact, triangle_count_sketch

try:
    from benchmarks.common import timed_run
except ModuleNotFoundError:  # script mode: sys.path[0] is benchmarks/
    from common import timed_run

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

SEED = 5
# Microbench batch sizes: full mode exercises the million-row regime
# the cluster's hot loops see at scale 17; smoke keeps CI fast.
MICRO_ROWS = 1 << 21
SMOKE_ROWS = 1 << 19
MICRO_REPEATS = 5
# Gates: the committed full run must clear 5x per kernel; the CI smoke
# run (noisier shared runners, smaller batches) gates at 3x.
FULL_BAR = 5.0
SMOKE_BAR = 3.0

E2E_SCALE = 17
E2E_EDGE_FACTOR = 8
E2E_PR_ITERS = 3
SCENARIO_SCALE = 13
TRIANGLE_SCALE = 12


def _require_backend() -> None:
    if not kernels.available():
        raise SystemExit(
            "C kernel backend unavailable on this host "
            "(no compiler?) — the kernels bench cannot run"
        )


def _best_of(fn, repeats: int = MICRO_REPEATS) -> float:
    """Best wall-clock of ``repeats`` calls, GC paused while timed."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def _pair_workload(rows: int) -> tuple:
    """(dst, val) batches shaped like a scale-17 scatter: heavy-tailed
    destinations, float64 message values."""
    rng = np.random.default_rng(SEED)
    us, vs, n = rmat_graph(14, edge_factor=4, seed=SEED)
    dst = vs[rng.integers(0, len(vs), size=rows)].astype(np.int64)
    val = rng.standard_normal(rows)
    ids = np.unique(dst)
    return dst, val, ids


def micro_hash(rows: int) -> dict:
    rng = np.random.default_rng(SEED)
    keys = rng.integers(0, 1 << 63, size=rows, dtype=np.uint64)
    ref = reference.wang64_u64(keys)
    acc = kernels.c_wang64_u64(keys)
    assert np.array_equal(ref, acc), "hash backends diverged"
    t_ref = _best_of(lambda: reference.wang64_u64(keys))
    t_acc = _best_of(lambda: kernels.c_wang64_u64(keys))
    return {
        "rows": rows,
        "ref_seconds": t_ref,
        "accel_seconds": t_acc,
        "speedup": t_ref / t_acc,
        "bit_identical": True,
    }


def micro_combine(rows: int) -> dict:
    dst, val, _ = _pair_workload(rows)
    ref = reference.combine_pairs(dst, val, np.add, 0.0)
    acc = kernels.c_combine_pairs(dst, val, np.add, 0.0)
    assert np.array_equal(ref[0], acc[0]) and np.array_equal(ref[1], acc[1]), (
        "combine_pairs backends diverged"
    )
    t_ref = _best_of(lambda: reference.combine_pairs(dst, val, np.add, 0.0))
    t_acc = _best_of(lambda: kernels.c_combine_pairs(dst, val, np.add, 0.0))
    return {
        "rows": rows,
        "ref_seconds": t_ref,
        "accel_seconds": t_acc,
        "speedup": t_ref / t_acc,
        "bit_identical": True,
    }


def micro_fold(rows: int) -> dict:
    dst, val, ids = _pair_workload(rows)

    def run_ref():
        accum = np.zeros(len(ids))
        got = np.zeros(len(ids), dtype=bool)
        reference.fold_pairs(accum, got, ids, dst, val, np.add)
        return accum, got

    def run_acc():
        accum = np.zeros(len(ids))
        got = np.zeros(len(ids), dtype=bool)
        kernels.c_fold_pairs(accum, got, ids, dst, val, np.add)
        return accum, got

    ra, rg = run_ref()
    aa, ag = run_acc()
    assert np.array_equal(ra, aa) and np.array_equal(rg, ag), (
        "fold_pairs backends diverged"
    )
    t_ref = _best_of(run_ref)
    t_acc = _best_of(run_acc)
    return {
        "rows": rows,
        "hosted_ids": len(ids),
        "ref_seconds": t_ref,
        "accel_seconds": t_acc,
        "speedup": t_ref / t_acc,
        "bit_identical": True,
    }


def _csr_workload(edges: int) -> tuple:
    """One shard's out-copies as a scatter CSR: RMAT-sampled edges in
    key order, four destination agents, every row sending, rows in
    value order as a round emits them."""
    rng = np.random.default_rng(SEED)
    us, vs, _ = rmat_graph(14, edge_factor=4, seed=SEED)
    pick = rng.integers(0, len(us), size=edges)
    keys, others = us[pick].astype(np.int64), vs[pick].astype(np.int64)
    order = np.lexsort((others, keys))
    keys, others = keys[order], others[order]
    ids = np.unique(keys)
    off = np.append(np.searchsorted(keys, ids), len(keys)).astype(np.int64)
    owner = (others % 4).astype(np.int32)
    cap = np.concatenate([[0], np.cumsum(np.bincount(owner))]).astype(np.int64)
    vals = rng.random(len(ids)) / np.diff(off)
    rows = np.argsort(vals)
    return rows, vals[rows], off, others, owner, cap


def _agent_slices(out) -> list:
    dst, val, start, counts = out
    return [(dst[s : s + c], val[s : s + c].view(np.uint64)) for s, c in zip(start, counts)]


def micro_scatter(rows: int) -> dict:
    csr = _csr_workload(rows)
    ref = _agent_slices(reference.scatter_rows(*csr))
    acc = _agent_slices(kernels.c_scatter_rows(*csr))
    assert all(
        np.array_equal(rd, ad) and np.array_equal(rv, av) for (rd, rv), (ad, av) in zip(ref, acc)
    ), "scatter_rows backends diverged"
    t_ref = _best_of(lambda: reference.scatter_rows(*csr))
    t_acc = _best_of(lambda: kernels.c_scatter_rows(*csr))
    return {
        "rows": rows,
        "ref_seconds": t_ref,
        "accel_seconds": t_acc,
        "speedup": t_ref / t_acc,
        "bit_identical": True,
    }


CROSSOVER_SIZES = (16, 32, 64, 128, 192, 256, 512, 1024, 2048, 4096)
CROSSOVER_CALLS = 200
CROSSOVER_ROUNDS = 9


def _dispatcher_calls(n: int) -> dict:
    """One closure per kernel over the dispatcher production calls, on
    an n-row batch with ~2 pairs per destination."""
    rng = np.random.default_rng(SEED)
    dst = rng.integers(0, max(n // 2, 4), size=n).astype(np.int64)
    val = rng.standard_normal(n)
    ids = np.unique(dst)
    accum, got = np.zeros(len(ids)), np.zeros(len(ids), dtype=bool)
    keys = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
    return {
        "wang64": lambda: kernels.wang64_u64(keys),
        "combine_pairs": lambda: kernels.combine_pairs(dst, val, np.add, 0.0),
        "fold_pairs": lambda: kernels.fold_pairs(accum, got, ids, dst, val, np.add),
    }


def crossover_floor(rows: list):
    """Smallest measured n from which C never loses again: 0 if it
    never loses, None if it loses at the largest (delete the kernel)."""
    losing = [i for i, row in enumerate(rows) if row["c_us"] >= row["numpy_us"]]
    if not losing:
        return 0
    if losing[-1] == len(rows) - 1:
        return None
    return rows[losing[-1] + 1]["n"]


def run_crossover() -> dict:
    """µs per call, numpy vs C, for each kernel at each batch size.

    Rounds are the outer loop and each visits every (size, kernel,
    backend) cell, so a change of the box's clock speed mid-table falls
    on every cell alike; a cell's value is its best round."""
    calls = {n: _dispatcher_calls(n) for n in CROSSOVER_SIZES}
    best: dict = {}
    was = kernels.enabled()
    floor, kernels.MIN_FOLD = kernels.MIN_FOLD, 0  # time C below the floor too
    gc.collect()
    gc.disable()
    try:
        for _ in range(CROSSOVER_ROUNDS):
            for n, by_kernel in calls.items():
                for name, call in by_kernel.items():
                    for backend in ("numpy", "c"):
                        kernels.set_enabled(backend == "c")
                        start = time.perf_counter()
                        for _ in range(CROSSOVER_CALLS):
                            call()
                        took = 1e6 * (time.perf_counter() - start) / CROSSOVER_CALLS
                        cell = (name, n, backend)
                        best[cell] = min(best.get(cell, took), took)
    finally:
        gc.enable()
        kernels.MIN_FOLD = floor
        kernels.set_enabled(was)
    table = {
        name: [
            {"n": n, "numpy_us": best[name, n, "numpy"], "c_us": best[name, n, "c"]}
            for n in CROSSOVER_SIZES
        ]
        for name in calls[CROSSOVER_SIZES[0]]
    }
    return {
        "table": table,
        "floors": {name: crossover_floor(rows) for name, rows in table.items()},
    }


MICROS = {
    "wang64": micro_hash,
    "scatter_rows": micro_scatter,
    "combine_pairs": micro_combine,
    "pagerank_fold": micro_fold,
}


def run_micros(rows: int) -> dict:
    return {name: fn(rows) for name, fn in MICROS.items()}


def _build_engine(us, vs, seed=SEED, threshold=4096) -> ElGA:
    elga = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=seed,
        replication_threshold=threshold,
        keep_reference=False,
    )
    elga.ingest_edges(us, vs, n_streamers=4)
    return elga


def run_end_to_end() -> dict:
    """Scale-17 RMAT (~10^6 edges) through ingest + PageRank, run once
    accelerated and once on the reference path; the two runs must agree
    bit for bit (the determinism-oracle contract, trace-diff clean)."""
    us, vs, n = rmat_graph(E2E_SCALE, edge_factor=E2E_EDGE_FACTOR, seed=SEED)
    runs = {}
    values = {}
    was = kernels.enabled()
    for label, flag in (("accel", True), ("reference", False)):
        kernels.set_enabled(flag)
        try:
            start = time.perf_counter()
            engine = _build_engine(us, vs)
            ingest_wall = time.perf_counter() - start
            result, pr_wall = timed_run(
                engine, PageRank(max_iters=E2E_PR_ITERS, tol=1e-15)
            )
        finally:
            kernels.set_enabled(was)
        runs[label] = {
            "backend": "c" if flag else "numpy",
            "ingest_wall_seconds": ingest_wall,
            "pagerank_wall_seconds": pr_wall,
            "pagerank_sim_seconds": result.sim_seconds,
            "steps": result.steps,
            "checksum": float(sum(result.values.values())),
        }
        values[label] = result.values
    bit_identical = values["accel"] == values["reference"]
    assert bit_identical, "accelerated scale-17 run diverged from reference"
    return {
        "scale": E2E_SCALE,
        "n_vertices": n,
        "n_edges": int(len(us)),
        "pr_iters": E2E_PR_ITERS,
        "bit_identical": bit_identical,
        **runs,
    }


def run_scenarios() -> dict:
    """k-core / LPA / triangles riding the new scale."""
    us, vs, n = rmat_graph(SCENARIO_SCALE, edge_factor=8, seed=SEED)
    out: dict = {"scale": SCENARIO_SCALE, "n_vertices": n, "n_edges": int(len(us))}

    engine = _build_engine(us, vs)
    kcore_res, kcore_wall = timed_run(engine, KCore(4))
    out["kcore4"] = {
        "wall_seconds": kcore_wall,
        "sim_seconds": kcore_res.sim_seconds,
        "steps": kcore_res.steps,
        "in_core": int(sum(kcore_res.values.values())),
    }

    engine = _build_engine(us, vs)
    lpa = LabelPropagation(max_iters=20)
    lpa_res, lpa_wall = timed_run(engine, lpa)
    labels = lpa.labels(np.fromiter(lpa_res.values.values(), dtype=np.float64))
    out["lpa"] = {
        "wall_seconds": lpa_wall,
        "sim_seconds": lpa_res.sim_seconds,
        "steps": lpa_res.steps,
        "communities": int(len(np.unique(labels))),
    }

    tus, tvs, _ = rmat_graph(TRIANGLE_SCALE, edge_factor=8, seed=SEED)
    start = time.perf_counter()
    exact = triangle_count_exact(tus, tvs)
    exact_wall = time.perf_counter() - start
    start = time.perf_counter()
    est = triangle_count_sketch(tus, tvs, width=256, seed=SEED)
    sketch_wall = time.perf_counter() - start
    out["triangles"] = {
        "scale": TRIANGLE_SCALE,
        "exact": int(exact),
        "sketch_estimate": est,
        "relative_error": abs(est - exact) / max(exact, 1),
        "exact_wall_seconds": exact_wall,
        "sketch_wall_seconds": sketch_wall,
    }
    return out


def run_experiment(smoke: bool = False) -> dict:
    _require_backend()
    rows = SMOKE_ROWS if smoke else MICRO_ROWS
    payload: dict = {
        "micro_rows": rows,
        "micro": run_micros(rows),
    }
    if not smoke:
        payload["crossover"] = run_crossover()
        payload["end_to_end"] = run_end_to_end()
        payload["scenarios"] = run_scenarios()
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def show(payload: dict) -> None:
    print_experiment_header(
        "Kernel acceleration",
        "C backend vs numpy reference (bit-identical by construction)",
    )
    table = Table(["kernel", "rows", "ref ms", "accel ms", "speedup"])
    for name, cell in payload["micro"].items():
        table.add_row(
            name,
            cell["rows"],
            1e3 * cell["ref_seconds"],
            1e3 * cell["accel_seconds"],
            cell["speedup"],
        )
    table.show()
    cross = payload.get("crossover")
    if cross:
        names = list(cross["table"])
        table = Table(["n", *[f"{name} numpy/C us" for name in names]])
        for cells in zip(*cross["table"].values()):
            table.add_row(
                cells[0]["n"], *[f"{c['numpy_us']:.1f} / {c['c_us']:.1f}" for c in cells]
            )
        table.show()
        print(
            f"[crossover] floors {cross['floors']} "
            f"(kernels.MIN_FOLD = {kernels.MIN_FOLD})"
        )
    e2e = payload.get("end_to_end")
    if e2e:
        acc = e2e["accel"]
        print(
            f"[e2e] scale-{e2e['scale']} RMAT: {e2e['n_edges']:,} edges — "
            f"ingest {acc['ingest_wall_seconds']:.1f}s wall, "
            f"pagerank x{e2e['pr_iters']} {acc['pagerank_wall_seconds']:.1f}s wall "
            f"/ {acc['pagerank_sim_seconds']:.3f}s sim; "
            f"accel == reference bit-identical: {e2e['bit_identical']}"
        )
    sc = payload.get("scenarios")
    if sc:
        print(
            f"[scenarios] scale-{sc['scale']}: "
            f"kcore4 {sc['kcore4']['wall_seconds']:.1f}s wall "
            f"({sc['kcore4']['in_core']} in core), "
            f"lpa {sc['lpa']['wall_seconds']:.1f}s wall "
            f"({sc['lpa']['communities']} communities), "
            f"triangles sketch err {sc['triangles']['relative_error']:.3f}"
        )
    if RESULT_PATH.exists():
        print(f"[written] {RESULT_PATH}")


def _assert_bar(payload: dict, bar: float) -> None:
    for name, cell in payload["micro"].items():
        assert cell["bit_identical"], f"{name}: backends diverged"
        assert cell["speedup"] >= bar, (
            f"{name}: speedup {cell['speedup']:.2f}x below the {bar}x gate"
        )


def test_kernel_speedups():
    payload = run_experiment()
    show(payload)
    _assert_bar(payload, FULL_BAR)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    payload = run_experiment(smoke=smoke)
    show(payload)
    _assert_bar(payload, SMOKE_BAR if smoke else FULL_BAR)
    if smoke:
        print(f"[smoke] ok: >={SMOKE_BAR}x on all {len(MICROS)} kernels")
