"""Figure 18 — fully elastic autoscaling.

Client query rates follow a step function (emulating sudden workload
changes on Skitter); the reactive autoscaler takes the EMA of the query
rate over 30 s, divides by a scaling factor, waits 60 s between actions,
and drives the cluster's Agent count.  The paper: "ElGA converges
quickly to the autoscaler's target ... and hence elastically matches
the load" (the target and actual lines mostly overlap).
"""

import numpy as np

from benchmarks.common import build_engine, dataset_edges
from repro.bench import Series, print_experiment_header
from repro.cluster import ReactiveAutoscaler
from repro.core import WCC

# (epoch end time, queries/s): a step-function workload.
WORKLOAD = [(120.0, 40.0), (300.0, 240.0), (480.0, 80.0)]
SAMPLE_PERIOD = 10.0
QUERIES_PER_AGENT = 20.0  # scaling factor: one agent absorbs 20 q/s


def run_experiment():
    us, vs, n = dataset_edges("skitter", scale=0.3)
    elga = build_engine(us, vs, nodes=2, agents_per_node=2, seed=18)
    elga.run(WCC())
    client = elga.cluster.new_client()
    autoscaler = ReactiveAutoscaler(
        scaling_factor=QUERIES_PER_AGENT,
        ema_window=30.0,
        cooldown=60.0,
        min_agents=2,
        max_agents=64,
    )
    kernel = elga.cluster.kernel
    rng = np.random.default_rng(18)
    timeline = []
    base = kernel.now
    # The autoscaler consumes the in-protocol metric path: Agents push
    # METRIC_REPORTs to their Directories (§3.4.3) and the rate is the
    # delta of the directory-collected queries_served counters.
    prev_served = {
        aid: snap["queries_served"]
        for aid, snap in elga.cluster.collect_metrics().items()
    }
    for end, rate in WORKLOAD:
        while kernel.now - base < end:
            sample_start = kernel.now
            n_queries = rng.poisson(rate * SAMPLE_PERIOD)
            for _ in range(int(n_queries)):
                client.query(int(rng.integers(0, n)), "wcc")
            elga.cluster.settle()
            # Advance the clock to the end of the sample period (queries
            # resolve far faster than the period).
            kernel.run(until=sample_start + SAMPLE_PERIOD)
            snaps = elga.cluster.collect_metrics()
            served = sum(
                snap["queries_served"] - prev_served.get(aid, 0)
                for aid, snap in snaps.items()
            )
            prev_served = {
                aid: snap["queries_served"] for aid, snap in snaps.items()
            }
            observed_rate = served / SAMPLE_PERIOD
            autoscaler.observe(observed_rate, kernel.now - base)
            target = autoscaler.target()
            desired = autoscaler.desired(elga.n_agents, kernel.now - base)
            if desired is not None:
                elga.scale_to(desired)
            timeline.append(
                {
                    "t": kernel.now - base,
                    "rate": observed_rate,
                    "target": target,
                    "agents": elga.n_agents,
                }
            )
    return timeline


def test_fig18_autoscaling(benchmark):
    timeline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 18", "reactive autoscaling under a step-function query load (skitter)"
    )
    s = Series("load / target / agents", x_name="sim seconds", y_name="(rate, target, agents)")
    for point in timeline[:: max(1, len(timeline) // 24)]:
        s.add(f"{point['t']:.0f}", f"rate={point['rate']:6.1f}  target={point['target']:3d}  agents={point['agents']:3d}")
    s.show()

    # Convergence: by the end of each workload phase the agent count
    # matches the autoscaler's target.
    by_phase_end = {}
    for end, rate in WORKLOAD:
        tail = [p for p in timeline if p["t"] <= end]
        by_phase_end[end] = tail[-1]
    high = by_phase_end[300.0]
    low_again = by_phase_end[480.0]
    # The cluster grew for the burst and shrank after it.
    assert high["agents"] > by_phase_end[120.0]["agents"]
    assert low_again["agents"] < high["agents"]
    # At each phase end, actual tracks target (the overlapping lines).
    for point in by_phase_end.values():
        assert abs(point["agents"] - point["target"]) <= max(2, 0.3 * point["target"])
