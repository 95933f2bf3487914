"""What the benchmark runs and what it reports: pure data, no numpy.

``BENCHMARK.json`` at the repo root is the frozen copy of the tables
here (``tests/test_e2e.py`` checks they agree).  Sizes were chosen so
one untraced run — set-up five times, then ~14 s of measured
repetitions, then the oracle — takes 18–22 s on the 2-core reference box
at ``--seconds 15``; the driver makes 92 such runs inside a 57-minute cap.
"""

from __future__ import annotations

RUN_SECONDS = 15
SETUP_ROUNDS = 5  # set-ups per run; setup_s is their median

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
# ``reps`` is the repetition count at RUN_SECONDS; other --seconds
# values scale it linearly (never below 2).  Counts, not a stopwatch,
# end a run: the sim-clock metrics are means over the operations done,
# so they repeat exactly only if the same operations are done.

WORKLOADS = {
    "bulk-static": {
        "why": "big arrays, ~150 sim events per ingest: hashing/sketch/partition/edgestore/"
        "kernels do the work; must not move for dispatch or messaging changes",
        "scale": 15, "edge_factor": 8, "nodes": 2, "agents_per_node": 2,
        "chunks": 8, "reps": 4,
        "op": "ingest chunk (apply_batch of 1/8 of the edges, n_streamers=2)",
        "work": "edges ingested / wall of the apply_batch calls (ingest_edges_per_s)",
        "sim_op": "ingest-report sim time of one chunk",
    },
    "stream-churn": {
        "why": "0.25 % batches, closed loop: per-batch fixed costs (epoch invalidation, sketch "
        "flush, barrier rounds, result collection) dominate; bulk kernels do little",
        "scale": 13, "edge_factor": 8, "nodes": 2, "agents_per_node": 2,
        "ops_per_rep": 8, "reps": 5,
        "insert_share": 0.0025, "delete_share": 0.00125, "delete_every": 4,
        "op": "update cycle: apply_batch start -> incremental PageRank and WCC both returned "
        "(update_to_fresh)",
        "work": "changed edges / cycle wall, the mean (stream_updates_per_s)",
        "sim_op": "ingest-report sim time + both RunResult.sim_seconds of one cycle",
    },
    "serve-churn": {
        "why": "open-loop Zipf queries beside inserts on one cluster: per-query Python in "
        "client/serving/net/sim dominates; a stale read after a version bump shows only here",
        "scale": 13, "edge_factor": 8, "nodes": 2, "agents_per_node": 2,
        "ops_per_rep": 6, "reps": 5, "insert_share": 0.001,
        "proxies": 4, "rate": 400_000.0, "duration": 0.0125, "n_clients": 100_000,
        "zipf_s": 1.0,
        "op": "slice: 5,000 open-loop queries beside one insert batch and an incremental WCC",
        "work": "queries delivered / slice wall (query_wall_qps)",
        "sim_op": "proxy latency sample, from due time (sim_query_p50_us)",
    },
    "elastic-scale": {
        "why": "the paper's headline: 12-24 entities, ring changes that cold-start every "
        "PlacementCache, EDGE_MIGRATE moving a third of the edge copies per event",
        "scale": 13, "edge_factor": 8, "nodes": 4, "agents_per_node": 4,
        "reps": 4, "scale_plan": {3: 24, 7: 16}, "events": [24, 16, 12, 16],
        "op": "between-run scale_to event (scale_event)",
        "work": "edge copies migrated / wall of the scale_to calls (migrate_edges_per_s)",
        "sim_op": "scale_to report sim_seconds of one event",
    },
}

SMOKE = {"scale": 10, "reps": 1, "ops_per_rep": 3}

# ----------------------------------------------------------------------
# end-to-end metrics: every workload reports every one (the driver's
# contract); what `op`, `work` and `sim_op` mean is the workload's entry
# above.  Bounds are shares of the parent's median.  On this box two
# runs of one seed differ by 6-10 % in wall time (IQR over six runs), so
# every wall bound is the contract's maximum; the sim-clock bounds are
# three times the spread between ten seeds.
# ----------------------------------------------------------------------

END_TO_END = [
    # name, unit, better, bound, definition
    ("setup_s", "s", "lower", 0.25,
     "input generation + warm-up + cluster build + preload/convergence before the first "
     "timed call; median of the run's set-ups"),
    ("total_wall_s", "s", "lower", 0.25,
     "wall of the timed windows of one repetition; median over repetitions"),
    ("peak_rss_mib", "MiB", "lower", 0.10, "ru_maxrss of the workload's child process"),
    ("op_p50_ms", "ms", "lower", 0.25, "median wall of the workload's operation"),
    ("op_p80_ms", "ms", "lower", 0.25, "80th percentile wall of the workload's operation"),
    ("work_per_s", "1/s", "higher", 0.25, "the workload's work units per wall second"),
    ("compute_teps", "1/s", "higher", 0.25,
     "sum(global_m x RunResult.steps) / sum(run wall) over the workload's counted runs"),
    ("sim_op_p50_us", "us", "lower", 0.15, "median sim-clock duration of the operation"),
    ("sim_superstep_us", "us", "lower", 0.20,
     "mean 'step'/'delta_step' entry of round_durations over the workload's counted runs"),
]

# Reported in the result file and by `compare`, but not in the driver's
# last-line JSON: only some workloads have them.
EXTRA = [
    ("sim_query_p99_us", "us", "lower", 0.15, "99th percentile proxy latency sample"),
    ("scratch_or_dense_runs", "count", "lower", 0.25,
     "incremental runs that fell back from 'delta'"),
]

# ----------------------------------------------------------------------
# per-layer metrics (traced run only); layers are repro module names
# ----------------------------------------------------------------------

LAYERS = [
    "hashing", "sketch", "partition", "cluster.streamer", "cluster.edgestore",
    "cluster.recovery", "kernels", "cluster.dataplane", "cluster.agent",
    "cluster.directory", "sim", "net", "cluster.client", "serving", "core",
    "cluster.cluster", "harness",
]

_COUNTS = {
    "hashing": [("keys_hashed", "count", "lower"), ("ring_updates", "count", "lower")],
    "sketch": [("keys_added", "count", "lower"), ("keys_queried", "count", "lower"),
               ("merges", "count", "lower")],
    "partition": [("edges_resolved", "count", "lower"), ("cache_hit_ratio", "ratio", "higher"),
                  ("epoch_invalidations", "count", "lower")],
    "cluster.streamer": [("edges_routed", "count", "higher")],
    "cluster.edgestore": [("apply_calls", "count", "lower"), ("rows_applied", "count", "lower"),
                          ("effective_row_ratio", "ratio", "higher")],
    "cluster.recovery": [("wal_rows", "count", "lower")],
    "kernels": [("rows", "count", "lower")],
    "cluster.dataplane": [("pairs_emitted", "count", "lower"), ("combine_ratio", "ratio", "lower"),
                          ("packets_coalesced", "count", "higher")],
    "cluster.agent": [("edges_processed", "count", "lower"), ("updates_forwarded", "count", "lower"),
                      ("replica_syncs", "count", "lower"), ("edges_migrated", "count", "lower"),
                      ("load_skew", "ratio", "lower")],
    "cluster.directory": [("barrier_rounds", "count", "lower"), ("broadcasts", "count", "lower")],
    "sim": [("events", "count", "lower")],
    "net": [("messages", "count", "lower"), ("bytes", "B", "lower"),
            ("retransmits", "count", "lower"), ("drops", "count", "lower")],
    "cluster.client": [("queries", "count", "higher"), ("fanouts", "count", "lower"),
                       ("coalesced", "count", "higher"), ("shed", "count", "lower"),
                       ("snapshot_retries", "count", "lower")],
    "serving": [("cache_hit_ratio", "ratio", "higher"), ("version_invalidations", "count", "lower"),
                ("ttl_expirations", "count", "lower")],
    "core": [("supersteps", "count", "lower"), ("rounds", "count", "lower"),
             ("delta_share", "ratio", "higher")],
    "cluster.cluster": [],
    "harness": [("trace_overhead_ratio", "ratio", "lower")],
}

PER_LAYER = [
    (f"{layer}.{name}", unit, better)
    for layer in LAYERS
    for name, unit, better in [("self_s", "s", "lower")] + _COUNTS[layer]
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + EXTRA + PER_LAYER}

# Inputs, sim-clock values and counts that one seed must reproduce
# exactly, traced or not; taken at the end of a run's first repetition.
DETERMINISTIC = ["inputs", "sim_now", "sim.events", "net.messages", "net.bytes", "core.delta_share"]


def reps_for(workload: str, seconds: float, smoke: bool = False) -> int:
    if smoke:
        return SMOKE["reps"]
    return max(2, round(WORKLOADS[workload]["reps"] * seconds / RUN_SECONDS))


def benchmark_json() -> dict:
    """The contract file's content, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
