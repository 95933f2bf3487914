"""Command-line interface: ``python -m repro ...``.

The reproduction equivalent of the artifact's ``scripts/`` directory —
a way to drive ElGA on the registry datasets without writing code.

Commands
--------
``datasets``
    List the Table 2 registry with paper-scale and generated sizes.
``run``
    Build a cluster, ingest a dataset, run an algorithm, and print a
    result summary (per-superstep simulated times, top vertices).
    With ``--churn-batches`` the run continues as an update stream:
    each batch inserts random edges between existing vertices and the
    algorithm re-converges incrementally (delta strategy) from the
    previous fixpoint, printing per-batch strategy/steps/time and the
    sustained updates/s.
``query``
    Run an algorithm, then answer point queries through a ClientProxy.
``serve``
    Run an algorithm, then drive an open-loop Zipf query stream through
    client proxies and print the tail-latency/QPS/cache summary.
``trace``
    Run an algorithm with tracing on, print the per-superstep timeline,
    and export the trace as Chrome ``trace_event`` JSON (open it in
    Perfetto / ``chrome://tracing``) and optionally JSONL.
``metrics``
    Run an algorithm and print the cluster's Prometheus text
    exposition (agent metrics, fabric stats, cost-model charges).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.bench.runner import Table
from repro.core import ElGA, PageRank, PersonalizedPageRank, SSSP, WCC
from repro.gen import DATASETS, load_dataset
from repro.graph.stream import EdgeBatch
from repro.obs import TraceSummary, write_chrome_trace, write_jsonl
from repro.serving import OpenLoopWorkload, percentile


def _build_algorithm(name: str, source: Optional[int], max_iters: int):
    if name == "pagerank":
        return PageRank(max_iters=max_iters), "sync"
    if name == "wcc":
        return WCC(max_iters=max_iters), "sync"
    if name == "sssp":
        if source is None:
            raise SystemExit("sssp requires --source")
        return SSSP(source=source, max_iters=max_iters), "async"
    if name == "ppr":
        if source is None:
            raise SystemExit("ppr requires --source")
        return PersonalizedPageRank(source=source, max_iters=max_iters), "sync"
    raise SystemExit(f"unknown algorithm {name!r}")


def _build_engine(args, tracing: bool = False, keep_reference: bool = False) -> ElGA:
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    elga = ElGA(
        nodes=args.nodes,
        agents_per_node=args.agents_per_node,
        seed=args.seed,
        keep_reference=keep_reference,
        tracing=tracing,
    )
    report = elga.ingest_edges(data.us, data.vs, n_streamers=min(4, args.nodes * 2))
    print(
        f"loaded {args.dataset}: {elga.global_m} edges on "
        f"{elga.n_agents} agents "
        f"({report['edges_per_second']:,.0f} edges/s simulated ingest)"
    )
    return elga


def cmd_datasets(args) -> int:
    table = Table(["name", "family", "paper n", "paper m", "A-BTER", "gen n", "gen m"])
    for name, spec in DATASETS.items():
        table.add_row(
            name,
            spec.family,
            f"{spec.paper_n:.2g}",
            f"{spec.paper_m:.2g}",
            f"×{spec.abter_scale}" if spec.abter_scale else "—",
            spec.base_n,
            spec.base_m,
        )
    table.show()
    return 0


def cmd_run(args) -> int:
    program, default_mode = _build_algorithm(args.algorithm, args.source, args.max_iters)
    mode = args.mode or default_mode
    elga = _build_engine(args, keep_reference=args.churn_batches > 0)
    result = elga.run(program, mode=mode)
    steps = result.steps if result.steps is not None else "async"
    print(
        f"{args.algorithm}: {steps} superstep(s), "
        f"{result.sim_seconds * 1e3:.3f} ms simulated"
    )
    if result.steps is not None:
        per_step = ", ".join(f"{d * 1e3:.3f}" for d in result.per_step_seconds())
        print(f"per-superstep ms: {per_step}")
    if args.churn_batches > 0:
        _run_churn_stream(elga, program, mode, args)
    table = Table(["vertex", "value"])
    for vertex, value in result.top_k(args.top):
        table.add_row(vertex, value)
    table.show()
    return 0


def _run_churn_stream(elga: ElGA, program, mode: str, args) -> None:
    """Replay an insert-only update stream, re-converging incrementally.

    Inserts land between already-present vertices so |V| stays fixed
    and stable-n programs (PageRank) keep their delta strategy.
    """
    rng = np.random.default_rng(args.seed)
    verts = np.fromiter(elga.reference.vertices(), dtype=np.int64)
    k = max(1, int(elga.global_m * args.churn_frac))
    table = Table(["batch", "edges", "strategy", "steps", "sim_ms"])
    total_sim = 0.0
    total_edges = 0
    for i in range(args.churn_batches):
        eu = rng.choice(verts, k)
        ev = rng.choice(verts, k)
        keep = eu != ev
        eu, ev = eu[keep], ev[keep]
        elga.apply_batch(EdgeBatch(np.ones(len(eu), dtype=np.int8), eu, ev))
        elga.quiesce()
        result = elga.run(program, mode=mode, incremental=True)
        total_sim += result.sim_seconds
        total_edges += len(eu)
        table.add_row(
            i, len(eu), result.strategy, result.steps, result.sim_seconds * 1e3
        )
    table.show()
    print(
        f"sustained: {total_edges / total_sim:,.0f} updates/s "
        f"({total_edges} edges over {total_sim * 1e3:.3f} ms analysis)"
    )


def cmd_trace(args) -> int:
    program, default_mode = _build_algorithm(args.algorithm, args.source, args.max_iters)
    elga = _build_engine(args, tracing=True)
    result = elga.run(program, mode=args.mode or default_mode)
    trace = elga.trace()
    print(
        f"{args.algorithm}: {result.steps} superstep(s), "
        f"{len(trace.spans)} spans, {len(trace.events)} events"
    )
    print(TraceSummary.from_trace(trace).format())
    write_chrome_trace(trace, args.out)
    print(f"wrote Chrome trace to {args.out} (open in ui.perfetto.dev)")
    if args.jsonl:
        n = write_jsonl(trace, args.jsonl)
        print(f"wrote {n} JSONL records to {args.jsonl}")
    return 0


def cmd_metrics(args) -> int:
    program, default_mode = _build_algorithm(args.algorithm, args.source, args.max_iters)
    elga = _build_engine(args)
    elga.run(program, mode=args.mode or default_mode)
    sys.stdout.write(elga.prometheus_text())
    return 0


def cmd_serve(args) -> int:
    """Run an algorithm, then serve an open-loop Zipf query stream."""
    program, default_mode = _build_algorithm(args.algorithm, args.source, args.max_iters)
    elga = _build_engine(args, keep_reference=True)
    elga.run(program, mode=args.mode or default_mode)
    cluster = elga.cluster
    proxies = [cluster.new_client(node=i % args.nodes) for i in range(args.proxies)]
    vertices = np.fromiter(elga.reference.vertices(), dtype=np.int64)
    workload = OpenLoopWorkload(
        proxies,
        vertices,
        program.name,
        rate=args.rate,
        duration=args.duration,
        n_clients=args.clients,
        zipf_s=args.zipf,
        seed=args.seed,
    ).start()
    start = cluster.kernel.now
    cluster.settle()
    elapsed = cluster.kernel.now - start
    metrics = cluster.collect_client_metrics()
    samples: List[float] = []
    for proxy in proxies:
        samples.extend(proxy.latencies)
    hits = metrics.get("serving_cache_hits", 0)
    misses = metrics.get("serving_cache_misses", 0)
    table = Table(["metric", "value"])
    table.add_row("queries delivered", workload.delivered)
    table.add_row("distinct clients", workload.distinct_clients)
    table.add_row("QPS (simulated)", f"{workload.delivered / max(elapsed, 1e-12):,.0f}")
    table.add_row("p50 latency (us)", f"{percentile(samples, 50.0) * 1e6:.2f}")
    table.add_row("p99 latency (us)", f"{percentile(samples, 99.0) * 1e6:.2f}")
    table.add_row("p999 latency (us)", f"{percentile(samples, 99.9) * 1e6:.2f}")
    table.add_row("cache hit rate", f"{hits / max(hits + misses, 1):.3f}")
    table.add_row("coalesced", int(metrics.get("client_queries_coalesced", 0)))
    table.add_row("shed", int(metrics.get("client_queries_shed", 0)))
    table.add_row("snapshot retries", int(metrics.get("client_snapshot_retries", 0)))
    table.show()
    return 0


def cmd_query(args) -> int:
    program, default_mode = _build_algorithm(args.algorithm, args.source, args.max_iters)
    elga = _build_engine(args)
    elga.run(program, mode=args.mode or default_mode)
    for vertex in args.vertices:
        value = elga.query(vertex, program.name)
        print(f"vertex {vertex}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ElGA reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table 2 dataset registry")

    def add_common(p):
        p.add_argument("--dataset", default="twitter-2010", choices=sorted(DATASETS))
        p.add_argument("--scale", type=float, default=0.2, help="dataset scale factor")
        p.add_argument("--nodes", type=int, default=2)
        p.add_argument("--agents-per-node", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--algorithm", default="pagerank", choices=["pagerank", "wcc", "sssp", "ppr"]
        )
        p.add_argument("--source", type=int, default=None, help="source vertex (sssp/ppr)")
        p.add_argument("--max-iters", type=int, default=50)
        p.add_argument("--mode", choices=["sync", "async"], default=None)

    run_p = sub.add_parser("run", help="run an algorithm on a registry dataset")
    add_common(run_p)
    run_p.add_argument("--top", type=int, default=10, help="result rows to print")
    run_p.add_argument(
        "--churn-batches",
        type=int,
        default=0,
        help="after the first run, replay this many insert batches and "
        "re-converge incrementally after each",
    )
    run_p.add_argument(
        "--churn-frac",
        type=float,
        default=0.001,
        help="edges inserted per churn batch, as a fraction of |E|",
    )

    query_p = sub.add_parser("query", help="run, then answer point queries")
    add_common(query_p)
    query_p.add_argument("vertices", type=int, nargs="+", help="vertex ids to query")

    serve_p = sub.add_parser(
        "serve", help="run, then serve an open-loop Zipf query stream"
    )
    add_common(serve_p)
    serve_p.add_argument("--proxies", type=int, default=2, help="client proxy count")
    serve_p.add_argument("--rate", type=float, default=50_000.0, help="queries/s offered")
    serve_p.add_argument(
        "--duration", type=float, default=0.2, help="stream length (simulated s)"
    )
    serve_p.add_argument(
        "--clients", type=int, default=100_000, help="simulated client population"
    )
    serve_p.add_argument("--zipf", type=float, default=1.0, help="key skew exponent")

    trace_p = sub.add_parser("trace", help="run traced, export a Chrome trace")
    add_common(trace_p)
    trace_p.add_argument(
        "--out", default="trace.json", help="Chrome trace_event output path"
    )
    trace_p.add_argument("--jsonl", default=None, help="also dump raw JSONL records")

    metrics_p = sub.add_parser("metrics", help="run, print Prometheus exposition")
    add_common(metrics_p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "run": cmd_run,
        "query": cmd_query,
        "serve": cmd_serve,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
