"""RunResult convenience helpers."""

import pytest

from repro.core.superstep import RunResult


@pytest.fixture()
def result():
    return RunResult(
        program_name="pagerank",
        run_id=1,
        mode="sync",
        values={0: 0.5, 1: 0.1, 2: 0.9, 3: 0.1},
        steps=3,
        sim_seconds=1.0,
    )


def test_top_k_largest(result):
    assert result.top_k(2) == [(2, 0.9), (0, 0.5)]


def test_top_k_smallest(result):
    smallest = result.top_k(2, largest=False)
    assert [v for _, v in smallest] == [0.1, 0.1]


def test_top_k_handles_overflow_and_zero(result):
    assert len(result.top_k(100)) == 4
    assert result.top_k(0) == []
    assert result.top_k(-1) == []


def test_groups(result):
    grouped = result.groups()
    assert sorted(grouped[0.1]) == [1, 3]
    assert grouped[0.9] == [2]


def test_groups_empty():
    empty = RunResult("x", 1, "sync", {}, 0, 0.0)
    assert empty.groups() == {}
    assert empty.top_k(3) == []
