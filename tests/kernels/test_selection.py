"""Backend selection: from what the machine has, in a fresh interpreter.

The backend is resolved once per process, so each case runs in its own
``python -c``: the default with a compiler present, the numpy fallback
with none (or a cache directory someone else could write into, or a
compile that fails), and ``REPRO_KERNELS`` read by nothing.  Every case
folds the same batch through all three dispatchers; the digests must
agree whichever backend did the work.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import csrc

pytestmark = pytest.mark.kernels

needs_compiler = pytest.mark.skipif(csrc._compiler() is None, reason="no C compiler on PATH")

PROBE = """
import hashlib, json
import numpy as np
from repro.kernels import csrc
{inject}
from repro import kernels

rng = np.random.default_rng(3)
dst, val = rng.integers(0, 50, 600), rng.standard_normal(600)
ids = np.unique(dst)
accum, got = np.zeros(len(ids)), np.zeros(len(ids), dtype=bool)
kernels.fold_pairs(accum, got, ids, dst, val, np.add)
out = [accum, got, *kernels.combine_pairs(dst, val, np.add, 0.0)]
out.append(kernels.wang64_u64(dst.astype(np.uint64)))
digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
print(json.dumps({{"backend": kernels.backend(), "error": kernels.build_error(), "digest": digest}}))
"""


def probe(inject="", **env):
    src = Path(__file__).resolve().parents[2] / "src"
    full = {k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"}
    full.update(env, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(inject=inject)],
        env=full, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def on_numpy():
    seen = probe("csrc._compiler = lambda: None")
    assert seen["backend"] == "numpy"
    assert seen["error"] == "RuntimeError: no C compiler on PATH"
    return seen


@needs_compiler
def test_default_is_c_when_a_compiler_is_found(on_numpy):
    seen = probe()
    assert (seen["backend"], seen["error"]) == ("c", None)
    assert seen["digest"] == on_numpy["digest"]


@needs_compiler
@pytest.mark.parametrize("value", ["0", "1"])
def test_the_environment_selects_nothing(value, on_numpy):
    assert probe(REPRO_KERNELS=value)["backend"] == "c"
    silenced = probe("csrc._compiler = lambda: None", REPRO_KERNELS=value)
    assert silenced == on_numpy


@needs_compiler
def test_a_cache_dir_others_can_write_is_never_loaded_from(tmp_path, on_numpy):
    """Another local user could have planted the library there."""
    planted = tmp_path / f"repro-kernels-{os.getuid()}"
    planted.mkdir()
    planted.chmod(0o777)
    seen = probe(TMPDIR=str(tmp_path))
    assert seen["backend"] == "numpy"
    assert seen["error"].startswith("PermissionError: kernel cache")
    assert "drwxrwxrwx" in seen["error"]
    assert seen["digest"] == on_numpy["digest"]
    assert list(planted.iterdir()) == []


@needs_compiler
def test_the_cache_dir_is_private_to_the_user(tmp_path):
    assert probe(TMPDIR=str(tmp_path))["backend"] == "c"
    (made,) = tmp_path.iterdir()
    assert made.name == f"repro-kernels-{os.getuid()}"
    assert stat.S_IMODE(made.stat().st_mode) == 0o700


def test_a_failed_compile_leaves_no_partial_library(tmp_path, on_numpy):
    cc = tmp_path / "cc"
    cc.write_text('#!/bin/sh\n'
                  'while [ $# -gt 1 ]; do [ "$1" = -o ] && touch "$2"; shift; done\n'
                  'echo "boom: no such target" >&2\nexit 3\n')
    cc.chmod(0o755)
    seen = probe(TMPDIR=str(tmp_path), CC=str(cc))
    assert seen["backend"] == "numpy"
    assert "exited 3" in seen["error"] and "boom" in seen["error"]
    assert seen["digest"] == on_numpy["digest"]
    left = sorted(p.name for p in (tmp_path / f"repro-kernels-{os.getuid()}").iterdir())
    assert [name for name in left if not name.endswith(".c")] == []


@needs_compiler
def test_a_build_removes_the_libraries_of_older_sources(tmp_path):
    """Each source revision is built under its own digest; the build of
    the current one deletes this user's pairs of any other digest and
    leaves everything else in the cache alone."""
    cache = tmp_path / f"repro-kernels-{os.getuid()}"
    cache.mkdir(mode=0o700)
    stale = [f"repro_kernels_{digest}.{ext}"
             for digest in ("0123456789abcdef", "fedcba9876543210") for ext in ("c", "so")]
    kept = ["notes.txt", "repro_kernels_0123.so", "repro_kernels_0123456789abcdef.so.tmp7"]
    for name in stale + kept:
        (cache / name).write_text("x")
    assert probe(TMPDIR=str(tmp_path))["backend"] == "c"
    left = sorted(p.name for p in cache.iterdir())
    built = [name for name in left if name not in kept]
    assert sorted(kept) == [name for name in left if name in kept]
    assert len(built) == 2 and not set(built) & set(stale)
    assert {name.rsplit(".", 1)[1] for name in built} == {"c", "so"}
