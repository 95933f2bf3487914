"""Trial statistics: 5 trials, mean, 95% t-distribution CI (§4).

``scipy.stats`` is imported by the two functions that compute with it:
the runtime imports this package for its counter registry, and no
entity process should pay for scipy to get it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TrialStats:
    """Mean and 95% confidence interval over independent trials."""

    mean: float
    ci_low: float
    ci_high: float
    n: int
    samples: Tuple[float, ...]

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.2g}"


def t_confidence_interval(samples: Sequence[float], confidence: float = 0.95) -> TrialStats:
    """The paper's statistic: mean with a t-distribution CI.

    With a single sample (deterministic experiments) the interval
    collapses to the point.

    Examples
    --------
    >>> s = t_confidence_interval([1.0, 1.1, 0.9, 1.05, 0.95])
    >>> round(s.mean, 2)
    1.0
    >>> s.ci_low < s.mean < s.ci_high
    True
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one trial")
    mean = float(arr.mean())
    if arr.size == 1 or np.allclose(arr, arr[0]):
        return TrialStats(mean, mean, mean, int(arr.size), tuple(arr.tolist()))
    from scipy import stats as scipy_stats

    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return TrialStats(
        mean,
        mean - t_crit * sem,
        mean + t_crit * sem,
        int(arr.size),
        tuple(arr.tolist()),
    )


def trials(
    fn: Callable[[int], float], n_trials: int = 5, base_seed: int = 0
) -> TrialStats:
    """Run ``fn(seed)`` for ``n_trials`` independent seeds.

    Each trial gets a distinct derived seed, so trials are independent
    in exactly the way the paper's repeated runs are.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    samples = [float(fn(base_seed + 1000 * t)) for t in range(n_trials)]
    return t_confidence_interval(samples)


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> float:
    """p-value that the two systems' means differ (the Figure 11/12
    t-tests); one-sided in favor of mean(a) < mean(b)."""
    import warnings

    from scipy import stats as scipy_stats

    a, b = list(a), list(b)
    if np.allclose(a, np.mean(a)) and np.allclose(b, np.mean(b)):
        # Degenerate zero-variance samples (fully deterministic trials):
        # the means either differ exactly or not at all.
        if np.mean(a) == np.mean(b):
            return 0.5
        return 0.0 if np.mean(a) < np.mean(b) else 1.0
    with warnings.catch_warnings():
        # Near-identical samples trip scipy's catastrophic-cancellation
        # RuntimeWarning; the degenerate cases are handled above.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = scipy_stats.ttest_ind(a, b, equal_var=False)
    p_two = float(result.pvalue)
    if np.mean(a) < np.mean(b):
        return p_two / 2.0
    return 1.0 - p_two / 2.0
