"""Benchmark harness utilities (§4's methodology).

"Following standard distributed graph system experimental methodologies
[29], we run five independent trials for each experiment.  We report
the means and, assuming a t-distribution as the sample size is small,
we show the 95% confidence intervals for the mean."  :mod:`bench.stats`
is that methodology; :mod:`bench.runner` formats the tables and series
each ``benchmarks/bench_*.py`` file prints.

The runtime imports :mod:`bench.counters` (every entity's counter
registry), so this package re-exports only modules that import nothing
from the runtime.  The chaos harness drives the whole engine; import it
by name, from :mod:`repro.bench.chaos`.
"""

from repro.bench.counters import PerfCounters, aggregate_counters
from repro.bench.runner import Series, Table, print_counters, print_experiment_header
from repro.bench.stats import TrialStats, t_confidence_interval, trials

__all__ = [
    "PerfCounters",
    "Series",
    "Table",
    "TrialStats",
    "aggregate_counters",
    "print_counters",
    "print_experiment_header",
    "t_confidence_interval",
    "trials",
]
