"""A traced run takes the compiled ingest kernels too.

The end-to-end tracer replaces ``wang64`` with a ``functools.wraps``
wrapper in ``repro.hashing.hashes`` and in every ``repro`` module (and
dict, such as ``HASH_FUNCTIONS``) that holds it by name.  A placer that
asked ``hash_fn is wang64`` would then send every traced run down the
numpy path; this test rebinds the same way and checks that an ingest
still dispatches the sketch, placement and merge kernels to C.
"""

import functools
import sys

import numpy as np
import pytest

from repro import kernels
from repro.core import ElGA
from repro.hashing import hashes

pytestmark = [
    pytest.mark.kernels,
    pytest.mark.skipif(
        not kernels.available(), reason="C kernel backend unavailable (no compiler)"
    ),
]


def rebind_everywhere(monkeypatch, original, wrapped) -> None:
    """What the tracer's install does for a module-level seam."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                for key in [k for k, entry in value.items() if entry is original]:
                    monkeypatch.setitem(value, key, wrapped)


def test_a_wrapped_wang64_still_dispatches_the_c_ingest_kernels(monkeypatch):
    was = kernels.enabled()
    kernels.set_enabled(True)
    try:
        hashed = []
        original = hashes.wang64

        @functools.wraps(original)
        def traced(x):
            hashed.append(np.size(x))
            return original(x)

        rebind_everywhere(monkeypatch, original, traced)
        assert hashes.HASH_FUNCTIONS["wang"] is traced and hashes.is_wang64(traced)

        calls = {}
        for name in ("c_place_edges", "c_sketch_query", "c_sketch_add", "c_merge_edges"):
            real = getattr(kernels, name)

            def spy(*args, real=real, name=name):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(kernels, name, spy)

        rng = np.random.default_rng(5)
        us = rng.integers(0, 300, size=3000)
        vs = rng.integers(0, 300, size=3000)
        keep = us != vs
        elga = ElGA(nodes=2, agents_per_node=2, seed=3, replication_threshold=20)
        elga.ingest_edges(us[keep], vs[keep])
        assert elga.cluster.total_resident_edges() > 0
    finally:
        kernels.set_enabled(was)
    assert hashed, "the rebinding never reached a hash call"
    assert set(calls) == {"c_place_edges", "c_sketch_query", "c_sketch_add", "c_merge_edges"}
