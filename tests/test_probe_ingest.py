"""``tools/probe_ingest.py`` at a size tier-1 can afford."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "probe_ingest.py"


def test_probe_reports_both_clocks_rates_and_bytes_per_copy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    done = subprocess.run(
        [sys.executable, str(TOOL), "--scales", "8"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["scale"] == 8 and report["copies"] == 2 * report["edges"] > 0
    assert report["pagerank_steps"] == 20 and report["wcc_steps"] > 0
    for clock in ("wall", "sim"):
        for phase in ("ingest", "pagerank", "wcc"):
            assert report[f"{phase}_{clock}_s"] > 0
    assert report["edges_per_wall_s"] == report["edges"] / report["ingest_wall_s"]
    assert report["edges_per_sim_s"] == report["edges"] / report["ingest_sim_s"]
    assert "held_per_copy" in report and "peak_per_copy" in report
    # What the ingest's adoptions cost the agents, summed over them.
    assert report["placement_epoch_invalidations"] > 0
    assert report["migrate_rows_rechecked"] >= report["edges_migrated"] >= 0
    assert report["migrate_rechecks_skipped"] >= 0
