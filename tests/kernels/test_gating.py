"""Dispatch gating: measured floors, graceful fallback, reversible,
and the checks the raw-pointer calls leave to the wrappers."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.hashing.hashes import wang64
from repro.kernels import reference

pytestmark = pytest.mark.kernels


@pytest.fixture(autouse=True)
def _restore_dispatch():
    before = kernels.enabled()
    yield
    kernels.set_enabled(before)


def test_disabled_backend_is_numpy():
    kernels.set_enabled(False)
    assert kernels.backend() == "numpy"
    assert not kernels.enabled()


def test_enable_reports_effective_state():
    effective = kernels.set_enabled(True)
    # Enabling only sticks when the C backend actually built; either
    # way the report matches reality.
    assert effective == (kernels.available() and kernels.enabled())
    assert kernels.backend() == ("c" if effective else "numpy")


def test_dispatcher_results_identical_across_backends():
    rng = np.random.default_rng(3)
    dst = rng.integers(0, 200, size=1024).astype(np.int64)
    val = rng.standard_normal(len(dst))

    kernels.set_enabled(False)
    off = kernels.combine_pairs(dst, val, np.add, 0.0)
    on_state = kernels.set_enabled(True)
    on = kernels.combine_pairs(dst, val, np.add, 0.0)

    assert np.array_equal(off[0], on[0])
    assert np.array_equal(
        off[1].view(np.uint64), on[1].view(np.uint64)
    ), f"dispatcher diverged (accel effective: {on_state})"


def test_tiny_batches_take_the_c_kernels(monkeypatch):
    """No kernel has a floor (the measured crossover): a 4-key hash and
    a 1-row fold go to C wherever it builds, and a 4-key hash is an
    array on both backends."""
    small = np.arange(4, dtype=np.uint64)
    for flag in (False, True):
        kernels.set_enabled(flag)
        assert np.array_equal(reference.wang64_u64(small), wang64(small))

    calls = []
    monkeypatch.setattr(kernels, "c_wang64_u64", lambda key: calls.append("hash") or key)
    monkeypatch.setattr(kernels, "c_fold_pairs", lambda *args: calls.append("fold"))
    effective = kernels.set_enabled(True)
    ids = np.arange(4, dtype=np.int64)
    accum, got = np.zeros(len(ids)), np.zeros(len(ids), dtype=bool)
    kernels.wang64_u64(small)
    kernels.fold_pairs(accum, got, ids, ids[:1], np.ones(1), np.add)
    assert calls == (["hash", "fold"] if effective else [])
    assert got[0] != effective  # the reference folded only where C is off


def test_floors_are_the_committed_crossover():
    """The dispatchers have no floor, and neither has any kernel in
    ``BENCH_kernels.json``'s crossover table (bench_kernels.py).  The
    table gives a kernel a floor only where C loses to numpy by more
    than 10 % in at least 9 of 10 alternating pairs, so a tie that noise
    decides is no floor."""
    bench = Path(__file__).resolve().parents[2] / "BENCH_kernels.json"
    crossover = json.loads(bench.read_text())["crossover"]
    assert crossover["rule"] == {"pairs": 10, "loss_margin": 0.1, "loss_pairs": 9}
    floors = crossover["floors"]
    assert floors == {
        "wang64": 0,
        "combine_pairs": 0,
        "fold_pairs": 0,
        "sketch_query": 0,
        "place_edges": 0,
        "merge_edges": 0,
    }


def _dispatch_all(dst, val, ids, keys):
    """Every dispatcher once, on fresh accumulators; a flat byte image."""
    accum, got = np.zeros(len(ids)), np.zeros(len(ids), dtype=bool)
    kernels.fold_pairs(accum, got, ids, dst, val, np.add)
    unique, folded = kernels.combine_pairs(dst, val, np.minimum, np.inf)
    out = [accum, got, unique, folded, kernels.wang64_u64(keys), wang64(dst)]
    out.append(kernels.pagerank_apply(folded, 0.15, 0.85))
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


@pytest.mark.parametrize("n", [0, 5, 700])
def test_raw_pointer_calls_equal_the_reference_on_awkward_inputs(n):
    """The C functions take bare pointers, so dtype, contiguity and
    length are the wrappers' to establish: strided views, narrow and
    wrong dtypes and empty batches give what the reference gives."""
    rng = np.random.default_rng(n)
    ids = np.arange(0, 120, dtype=np.int64)
    wide = rng.integers(0, 120, size=2 * n)
    cases = {
        "plain": (wide[:n].copy(), rng.standard_normal(n), ids),
        "strided": (wide[::2], rng.standard_normal(2 * n)[::2], ids),
        "narrow": (wide[:n].astype(np.int32), rng.standard_normal(n).astype(np.float32), ids),
        "int values": (wide[:n].copy(), rng.integers(-9, 9, size=n), ids),
        "narrow ids": (wide[:n].copy(), rng.standard_normal(n), ids.astype(np.int32)),
    }
    keys = np.arange(3 * n, dtype=np.uint64).reshape(n, 3)[:, 1]  # strided
    for label, (dst, val, table) in cases.items():
        kernels.set_enabled(False)
        want = _dispatch_all(dst, val, table, keys)
        kernels.set_enabled(True)
        assert _dispatch_all(dst, val, table, keys) == want, label


def test_fold_refuses_accumulators_it_cannot_write_through():
    """A float32, strided or short accumulator goes to the reference
    from the dispatcher and raises from the bare C entry point — never
    a write through a pointer of the wrong width or length."""
    ids = np.arange(300, dtype=np.int64)
    val = np.ones(300)
    bad = {
        "float32": (np.zeros(300, dtype=np.float32), np.zeros(300, dtype=bool)),
        "strided": (np.zeros(600)[::2], np.zeros(300, dtype=bool)),
        "uint8 got": (np.zeros(300), np.zeros(300, dtype=np.uint8)),
    }
    effective = kernels.set_enabled(True)
    for label, (accum, got) in bad.items():
        kernels.fold_pairs(accum, got, ids, ids, val, np.add)
        assert np.array_equal(accum, val) and got.all(), label
        if effective:
            with pytest.raises(TypeError):
                kernels.c_fold_pairs(accum, got, ids, ids, val, np.add)
    if effective:
        with pytest.raises(TypeError):  # one row per id, or the C fold writes past the end
            kernels.c_fold_pairs(np.zeros(10), np.zeros(10, dtype=bool), ids, ids, val, np.add)
        with pytest.raises(ValueError):
            kernels.c_combine_pairs(ids, val[:-1], np.add, 0.0)
