"""Execute the docstring examples across the public modules.

Every usage example shown in a docstring must actually work; this keeps
the documentation honest as the code evolves.
"""

import doctest

import pytest

import repro.bench.counters
import repro.bench.stats
import repro.cluster.cluster
import repro.core.algorithms.pagerank
import repro.core.algorithms.ppr
import repro.core.algorithms.sssp
import repro.core.algorithms.wcc
import repro.core.engine
import repro.core.superstep
import repro.gen.datasets
import repro.gen.rmat
import repro.gen.powerlaw
import repro.graph.csr
import repro.graph.dynamic
import repro.graph.io
import repro.hashing.hashes
import repro.hashing.ring
import repro.partition.placer
import repro.sim.kernel
import repro.sim.random
import repro.sketch.countmin
import repro.sketch.countsketch

MODULES = [
    repro.bench.counters,
    repro.bench.stats,
    repro.cluster.cluster,
    repro.core.algorithms.pagerank,
    repro.core.algorithms.ppr,
    repro.core.algorithms.sssp,
    repro.core.algorithms.wcc,
    repro.core.engine,
    repro.core.superstep,
    repro.gen.datasets,
    repro.gen.rmat,
    repro.gen.powerlaw,
    repro.graph.csr,
    repro.graph.dynamic,
    repro.graph.io,
    repro.hashing.hashes,
    repro.hashing.ring,
    repro.partition.placer,
    repro.sim.kernel,
    repro.sim.random,
    repro.sketch.countmin,
    repro.sketch.countsketch,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failure(s)"


def test_docstring_examples_exist():
    """The suite above must actually be exercising something."""
    total = sum(doctest.testmod(m, verbose=False).attempted for m in MODULES)
    assert total >= 25
