"""``tools/probe_memory.py`` as CI runs it: its report at a size tier-1 can
afford, and CI's scale-12 ceiling."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "probe_memory.py"


def run(*args, scale="10"):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    return subprocess.run(
        [sys.executable, str(TOOL), "--scale", scale, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_probe_reports_bytes_per_resident_edge_copy_and_gates_on_a_ceiling():
    done = run("--max-held", "1e6")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["scale"] == 10 and report["copies"] == 2 * report["edges"] > 0
    assert 0 < report["held_bytes"] <= report["peak_bytes"]
    assert report["held_per_copy"] == report["held_bytes"] / report["copies"]
    assert report["peak_per_copy"] == report["peak_bytes"] / report["copies"]

    over = run("--max-held", "1")
    assert over.returncode == 1
    assert "exceeds 1 B" in over.stderr


def test_a_scale_12_ingest_holds_at_most_31_bytes_per_copy():
    """CI's ceiling: 22.2 B at scale 12 with sketch tables held only
    between a first count and its flush, shared copy-on-write (63.6 B
    when every agent and checkpoint held a dense table of its own; a
    per-row key column beside the CSR edge store made that 71.6 B)."""
    done = run("--max-held", "31", scale="12")
    assert done.returncode == 0, done.stderr


def test_nodes_reports_held_bytes_per_agent_and_gates_the_build():
    done = run("--nodes", "3", "--max-build-per-agent", "1", scale="8")
    assert done.returncode == 1
    assert "per agent exceeds 1 B" in done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["agents"] == 6
    assert 0 < report["build_held_bytes"] <= report["peak_bytes"]
    assert report["build_held_per_agent"] == report["build_held_bytes"] / 6
    assert report["held_per_agent"] == report["held_bytes"] / 6
