"""``tools/check_counts.py`` as CI runs it: a subprocess, argv in, exit code out."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_counts.py"


def run(*args, cwd):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], cwd=cwd, capture_output=True, text=True,
        timeout=60,
    )


def metric(value, unit="count"):
    return {"value": value, "unit": unit}


def result_set(ring_updates):
    return {
        "seed": 12,
        "workloads": {
            "elastic-scale": {
                "untraced": {
                    "deterministic": {"sim.events": 10},
                    "metrics": {"sim_op_p50_us": metric(1.5, "us"), "sim_superstep_us": metric(2.5, "us")},
                },
                "traced": {
                    "metrics": {
                        "hashing.ring_updates": metric(ring_updates),
                        "hashing.self_s": metric(0.1, "s"),
                        "harness.trace_overhead_ratio": metric(1.2, "ratio"),
                    }
                },
            }
        },
    }


def test_usage_missing_files_and_a_moved_count(tmp_path):
    for argv in ([], ["--help"], ["only-a-baseline.json"]):
        usage = run(*argv, cwd=tmp_path)
        assert usage.returncode == 2 and "Traceback" not in usage.stderr
        assert "check_counts.py BENCH_counts.json OUT" in usage.stderr

    out = tmp_path / "counts-12.json"
    out.write_text(json.dumps(result_set(25)))
    absent = run("BENCH_counts.json", out, cwd=tmp_path)
    assert absent.returncode == 2
    assert absent.stderr.strip() == "check_counts: no such file: BENCH_counts.json"

    baseline = tmp_path / "BENCH_counts.json"
    baseline.write_text("{}")
    assert run(baseline, out, "--update", cwd=tmp_path).returncode == 2  # names no key
    assert run(baseline, out, "--update", "*", cwd=tmp_path).returncode == 0
    assert run(baseline, out, cwd=tmp_path).returncode == 0
    out.write_text(json.dumps(result_set(568)))
    moved = run(baseline, out, cwd=tmp_path)
    assert moved.returncode == 1
    assert "seed 12 elastic-scale traced/hashing.ring_updates: 25 -> 568" in moved.stdout
    assert "1 value(s) moved" in moved.stdout


def test_update_rewrites_only_the_named_keys(tmp_path):
    baseline, out = tmp_path / "BENCH_counts.json", tmp_path / "counts-12.json"
    out.write_text(json.dumps(result_set(25)))
    baseline.write_text("{}")
    assert run(baseline, out, "--update", "*", cwd=tmp_path).returncode == 0
    committed = json.loads(baseline.read_text())

    # Two keys move; naming one rewrites it, the other still fails.
    moved_set = result_set(568)
    moved_set["workloads"]["elastic-scale"]["untraced"]["deterministic"]["sim.events"] = 11
    out.write_text(json.dumps(moved_set))
    partial = run(baseline, out, "--update", "traced/hashing.ring_updates", cwd=tmp_path)
    assert partial.returncode == 1
    assert "traced/hashing.ring_updates: 25 -> 568 (updated)" in partial.stdout
    assert "deterministic/sim.events: 10 -> 11\n" in partial.stdout
    assert "2 value(s) moved" in partial.stdout and "1 named by --update" in partial.stdout
    row = json.loads(baseline.read_text())["seed 12"]["elastic-scale"]
    assert row["traced/hashing.ring_updates"] == 568
    assert row["deterministic/sim.events"] == 10
    assert {k: v for k, v in row.items() if k != "traced/hashing.ring_updates"} == {
        k: v for k, v in committed["seed 12"]["elastic-scale"].items()
        if k != "traced/hashing.ring_updates"
    }

    # Naming every moved key (a pattern matches too) passes and records them.
    both = run(baseline, out, "--update", "deterministic/sim.*", cwd=tmp_path)
    assert both.returncode == 0 and "1 value(s) moved" in both.stdout
    assert run(baseline, out, cwd=tmp_path).returncode == 0
