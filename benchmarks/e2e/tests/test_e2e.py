"""Harness tests: ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.

Not collected by tier-1 (``testpaths = ["tests"]``).  They check the
harness itself — span arithmetic, seam resolution, verdict logic, input
determinism — and drive the whole benchmark once at ``--smoke`` size.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import spans as sp
from benchmarks.e2e.compare import compare, spread, verdict
from benchmarks.e2e.inputs import Inputs
from benchmarks.e2e.specs import DETERMINISTIC, END_TO_END, LAYERS, PER_LAYER, WORKLOADS, benchmark_json

ROOT = Path(__file__).resolve().parents[3]


# -- span arithmetic ---------------------------------------------------------


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    rec = sp.Recorder(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    inner = rec.wrap("b", "inner", lambda: None)
    outer = rec.wrap("a", "outer", lambda: (inner(), inner()))
    rec.on = True
    outer()
    assert [s[sp.PARENT] for s in rec.spans] == [-1, 0, 0]
    assert sp.self_times(rec.spans) == {"a": 10.0 - 2.0 - 2.0, "b": 4.0}
    assert sp.root_time(rec.spans) == 10.0


def test_nested_same_layer_and_work_counts():
    rec = sp.Recorder(clock=fake_clock(range(100)))
    add = rec.wrap("sketch", "add", lambda self, keys: None, sp._rows(1))
    remove = rec.wrap("sketch", "remove", lambda self, keys: add(self, keys))
    rec.on = True
    remove(None, np.arange(7))
    add(None, [1, 2])
    assert sp.tally(rec.spans) == {("sketch", "add"): (2, 9), ("sketch", "remove"): (1, 0)}
    total = sum(s[sp.END] - s[sp.START] for s in rec.spans if s[sp.PARENT] < 0)
    assert sum(sp.self_times(rec.spans).values()) == total


def test_generator_seam_spans_each_resume_and_off_records_nothing():
    rec = sp.Recorder(clock=fake_clock(range(100)))

    def drain():
        yield 1
        yield 2

    wrapped = rec.wrap("cluster.dataplane", "drain", drain)
    assert list(wrapped()) == [1, 2] and rec.spans == []
    rec.on = True
    assert list(wrapped()) == [1, 2]
    assert len(rec.spans) == 3  # two items and the exhausted resume


def test_callbacks_are_attributed_to_their_own_layer():
    from repro.net.network import Network
    from repro.sim.kernel import SimKernel

    assert sp.layer_of_module("repro.cluster.agent") == "cluster.agent"
    assert sp.layer_of_module("repro.net.network") == "net"
    assert sp.layer_of_module("builtins") == "harness"
    rec = sp.Recorder()
    rec.install()
    try:
        kernel = SimKernel()
        network = Network(kernel)
        kernel.schedule(1.0, network.is_attached, 0)
        rec.on = True
        kernel.run()
    finally:
        rec.uninstall()
    layers = [(s[sp.LAYER], s[sp.NAME]) for s in rec.spans]
    assert layers == [("sim", "SimKernel.run"), ("net", "Network.is_attached")]
    assert SimKernel.schedule_at.__name__ == "schedule_at" and not hasattr(
        SimKernel.run, "__wrapped__")


# -- seams ---------------------------------------------------------------------


def test_every_seam_resolves_and_a_renamed_one_fails_loudly():
    for _, module, owner, attr, _ in sp.SEAMS:
        sp.resolve(module, owner, attr)
    assert {layer for layer, *_ in sp.SEAMS} | {"harness"} == set(LAYERS)
    with pytest.raises(LookupError, match="repro.sketch.countmin.CountMinSketch.add_many"):
        sp.Recorder().install([("sketch", "repro.sketch.countmin", "CountMinSketch", "add_many", None)])


def test_install_rebinds_functions_imported_by_name_and_uninstall_restores():
    import repro.cluster.agent as agent
    import repro.cluster.dataplane as dataplane
    from repro.hashing.hashes import HASH_FUNCTIONS, wang64

    rec = sp.Recorder()
    rec.install()
    try:
        assert agent.combine_pairs is dataplane.combine_pairs is not None
        assert hasattr(agent.combine_pairs, "__wrapped__")
        assert HASH_FUNCTIONS["wang"].__wrapped__ is wang64
    finally:
        rec.uninstall()
    assert HASH_FUNCTIONS["wang"] is wang64
    assert not hasattr(agent.combine_pairs, "__wrapped__")


# -- compare ---------------------------------------------------------------------


def test_verdicts():
    assert verdict(100, 105, "lower", 0.10) == "within bound"
    assert verdict(100, 111, "lower", 0.10) == "worse"
    assert verdict(100, 89, "lower", 0.10) == "improved"
    assert verdict(100, 89, "higher", 0.10) == "worse"
    assert verdict(100, 111, "higher", 0.10) == "improved"
    assert verdict(100, 150, "lower", 0.10, new_spread=0.2) == "unresolved"
    assert verdict(1.5, 1.5, "lower", 0.01, exact=True) == "identical"
    assert verdict(1.5, 1.5000001, "lower", 0.01, exact=True) == "differs"
    assert spread([1.0]) == 0.0
    assert spread([10, 11, 12, 13, 14]) == pytest.approx(3 / 12)
    assert spread([10, 11, 13]) == pytest.approx(3 / 11)


def _set(total_wall, failed=0, sha="abc", sim=7.0):
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit, *_ in END_TO_END}
    metrics["total_wall_s"]["value"] = total_wall
    metrics["sim_op_p50_us"]["value"] = sim
    result = {
        "metrics": metrics, "extra": {}, "samples": {}, "digest": "d", "attempted": 10,
        "failed": failed, "deterministic": {"sim.events": 5}, "env": {"git_sha": sha},
    }
    return {"workloads": {"bulk-static": {"untraced": result}}}


def test_compare_fails_on_worse_on_failures_and_on_nondeterminism():
    assert compare(_set(1.0), _set(1.05))[1]
    assert not compare(_set(1.0), _set(1.3))[1]
    assert not compare(_set(1.0), _set(1.0, failed=1))[1]
    assert not compare(_set(1.0), _set(1.0, sim=7.01))[1]
    assert compare(_set(1.0, sha="abc"), _set(1.0, sha="def", sim=7.01))[1]


# -- inputs and the contract file ------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    a, b, c = Inputs(5, 9, 4), Inputs(5, 9, 4), Inputs(6, 9, 4)
    assert a.digest == b.digest != c.digest
    for inputs in (a, b):
        batch = inputs.churn_batch(20, 5)
        inputs.stream_seed()
    assert a.digest == b.digest and np.array_equal(a.edge_keys, b.edge_keys)
    actions, us, vs = batch
    assert (us != vs).all() and (actions == -1).sum() == 5
    assert len(np.unique(a.edge_keys)) == a.n_edges


def test_benchmark_json_is_the_frozen_copy_of_specs():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()
    assert len(on_disk["per_layer"]) == len(PER_LAYER) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert "setup_s" in [m["name"] for m in on_disk["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])


# -- the whole thing, small --------------------------------------------------------


def test_smoke_set_runs_clean_reconciles_and_repeats(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke", "--seed", "12",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    saved = json.loads(out.read_text())
    assert list(saved["workloads"]) == list(WORKLOADS)
    for name, pair in saved["workloads"].items():
        plain, traced = pair["untraced"], pair["traced"]
        assert plain["failed"] == traced["failed"] == 0 and plain["attempted"] >= 1
        assert set(plain["metrics"]) == {m for m, *_ in END_TO_END}
        assert all(m["value"] > 0 for m in plain["metrics"].values()), name
        assert set(traced["metrics"]) == {m for m, *_ in PER_LAYER}
        assert {k: plain["deterministic"][k] for k in DETERMINISTIC} == traced["deterministic"]
        total = sum(traced["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
        assert total == pytest.approx(traced["traced_wall_s"], rel=0.02)
        assert (ROOT / "benchmarks/e2e/out" / f"trace-{name}.jsonl").stat().st_size > 0
    # the headline layers really are reached from outside
    share = {n: p["traced"]["metrics"] for n, p in saved["workloads"].items()}
    assert share["serve-churn"]["cluster.client.self_s"]["value"] > 0
    assert share["serve-churn"]["serving.self_s"]["value"] > 0
    assert share["elastic-scale"]["cluster.agent.edges_migrated"]["value"] > 0
    assert share["bulk-static"]["cluster.client.self_s"]["value"] == 0
