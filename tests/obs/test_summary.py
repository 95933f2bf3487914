"""TraceSummary: per-superstep compute/wait/comms breakdown."""

import pytest

pytestmark = pytest.mark.obs


def test_one_row_per_compute_superstep(traced_run):
    _, result, summary = _summarized(traced_run)
    steps = summary.steps()
    assert len(steps) == result.steps + 1  # init + N steps
    assert steps[0].phase == "init"
    assert all(r.phase == "step" for r in steps[1:])
    assert [r.step for r in steps] == list(range(result.steps + 1))


def _summarized(traced_run):
    elga, result, trace = traced_run
    from repro.obs import TraceSummary

    return elga, result, TraceSummary.from_trace(trace)


def test_breakdown_is_populated(traced_run):
    _, _, summary = _summarized(traced_run)
    assert summary.total_compute() > 0
    assert summary.total_wait() > 0
    assert sum(row.comms_bytes for row in summary.rows) > 0
    for row in summary.steps():
        assert row.duration > 0
        assert row.compute > 0
        assert len(row.per_agent_compute) == 4
        # Compute can never exceed the barrier-to-barrier window summed
        # over the agents that ran inside it.
        assert row.compute <= row.duration * 4 + 1e-12


def test_straggler_identified(traced_run):
    _, _, summary = _summarized(traced_run)
    for row in summary.steps():
        assert row.straggler in row.per_agent_compute
        assert row.straggler_compute == max(row.per_agent_compute.values())


def test_comms_attributed_to_rounds(traced_run):
    _, _, summary = _summarized(traced_run)
    stepped = [r for r in summary.steps() if r.comms_packets]
    assert stepped, "a PageRank run must ship data-plane packets"
    assert all(r.comms_bytes > 0 for r in stepped)


def test_format_renders_table(traced_run):
    _, result, summary = _summarized(traced_run)
    text = summary.format()
    lines = text.splitlines()
    assert "compute_ms" in lines[0] and "straggler" in lines[0]
    assert len(lines) >= 2 + result.steps
