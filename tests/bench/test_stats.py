"""Trial statistics: the paper's 5-trial / t-distribution methodology."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.bench import t_confidence_interval, trials
from repro.bench.stats import welch_t_test


def test_mean_and_interval():
    s = t_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.mean == 3.0
    assert s.n == 5
    assert s.ci_low < 3.0 < s.ci_high
    # Closed form: mean ± t_{.975,4} · s/√5.
    sem = np.std([1, 2, 3, 4, 5], ddof=1) / np.sqrt(5)
    t_crit = scipy_stats.t.ppf(0.975, df=4)
    assert s.ci_high == pytest.approx(3.0 + t_crit * sem)


def test_single_sample_collapses():
    s = t_confidence_interval([7.0])
    assert s.mean == s.ci_low == s.ci_high == 7.0


def test_identical_samples_collapse():
    s = t_confidence_interval([2.0, 2.0, 2.0])
    assert s.half_width == 0.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        t_confidence_interval([])


def test_trials_runs_independent_seeds():
    seen = []

    def fn(seed):
        seen.append(seed)
        return float(seed % 7)

    s = trials(fn, n_trials=5, base_seed=3)
    assert len(seen) == len(set(seen)) == 5
    assert s.n == 5


def test_trials_validates():
    with pytest.raises(ValueError):
        trials(lambda s: 0.0, n_trials=0)


def test_str_format():
    s = t_confidence_interval([1.0, 1.2, 0.8])
    text = str(s)
    assert "±" in text


def test_welch_t_test_direction():
    fast = [1.0, 1.1, 0.9, 1.05, 0.95]
    slow = [2.0, 2.1, 1.9, 2.05, 1.95]
    assert welch_t_test(fast, slow) < 0.0005  # "ElGA fastest, p < 0.0005"
    assert welch_t_test(slow, fast) > 0.5


def test_welch_t_test_inconclusive_when_overlapping():
    a = [1.0, 1.5, 0.6, 1.2, 0.9]
    b = [1.1, 1.4, 0.7, 1.3, 0.8]
    assert welch_t_test(a, b) > 0.05  # the paper's Graph500-30 case


def test_welch_t_test_degenerate_zero_variance():
    # Deterministic trials: identical samples on both sides.
    assert welch_t_test([1.0, 1.0], [2.0, 2.0]) == 0.0
    assert welch_t_test([2.0, 2.0], [1.0, 1.0]) == 1.0
    assert welch_t_test([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_welch_t_test_one_degenerate_side_no_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.1, 1.9])
    assert p < 0.05
