"""Benchmark harness utilities (§4's methodology).

"Following standard distributed graph system experimental methodologies
[29], we run five independent trials for each experiment.  We report
the means and, assuming a t-distribution as the sample size is small,
we show the 95% confidence intervals for the mean."  :mod:`bench.stats`
is that methodology; :mod:`bench.runner` formats the tables and series
each ``benchmarks/bench_*.py`` file prints.
"""

from repro.bench.chaos import (
    ChaosReport,
    InvariantViolation,
    build_engine_pair,
    check_cluster_invariants,
    fault_matrix,
    run_chaos_scenario,
)
from repro.bench.counters import PerfCounters, aggregate_counters
from repro.bench.runner import Series, Table, print_counters, print_experiment_header
from repro.bench.stats import TrialStats, t_confidence_interval, trials

__all__ = [
    "ChaosReport",
    "InvariantViolation",
    "PerfCounters",
    "Series",
    "Table",
    "TrialStats",
    "aggregate_counters",
    "build_engine_pair",
    "check_cluster_invariants",
    "fault_matrix",
    "print_counters",
    "print_experiment_header",
    "run_chaos_scenario",
    "t_confidence_interval",
    "trials",
]
