"""Prometheus text exposition."""

import pytest

from repro import kernels
from repro.obs import MetricFamily, render
from repro.obs.prom import counter_families, kernels_backend_family

pytestmark = pytest.mark.obs


def test_render_basic_family():
    fam = MetricFamily("elga_test_total", "counter", "A test counter.")
    fam.add({"agent": "0"}, 3).add({"agent": "1"}, 4.5)
    text = render([fam])
    assert "# HELP elga_test_total A test counter." in text
    assert "# TYPE elga_test_total counter" in text
    assert 'elga_test_total{agent="0"} 3' in text
    assert 'elga_test_total{agent="1"} 4.5' in text
    assert text.endswith("\n")


def test_render_unlabeled_and_escaping():
    fam = MetricFamily("x_total", "counter", "x").add({}, 1)
    assert "x_total 1\n" in render([fam])
    esc = MetricFamily("y_total", "counter", "y").add({"k": 'a"b\nc'}, 1)
    assert 'y_total{k="a\\"b\\nc"} 1' in render([esc])


@pytest.mark.parametrize(
    "name,kind,labels",
    [
        ("9bad", "counter", {}),
        ("has space", "gauge", {}),
        ("ok_total", "histogram", {}),
        ("ok_total", "counter", {"0bad": "x"}),
        ("elga_entries", "counter", {}),
        ("elga_entries_total", "gauge", {}),
    ],
)
def test_render_rejects_invalid(name, kind, labels):
    fam = MetricFamily(name, kind, "h").add(labels, 1)
    with pytest.raises(ValueError):
        render([fam])


def test_agent_families_match_combine_totals():
    samples = [({"agent": "0"}, {"edges_processed": 3}), ({"agent": "1"}, {"edges_processed": 5})]
    fams = counter_families(samples)
    assert [f.name for f in fams] == ["elga_edges_processed_total"]
    assert sum(v for _, v in fams[0].samples) == 8


def test_serving_cache_entries_is_a_gauge():
    """The entry count falls on every invalidation and on a term bump's
    clear(), so it must not be exposed as a counter."""
    import numpy as np

    from repro.core import ElGA, PageRank

    elga = ElGA(nodes=1, agents_per_node=2, seed=3, serving_cache_ttl=1.0)
    elga.ingest_edges(np.arange(10), (np.arange(10) + 1) % 10)
    elga.run(PageRank(max_iters=2))
    for vertex in range(4):
        elga.query(vertex, "pagerank")
    text = elga.prometheus_text()
    assert "# TYPE elga_serving_cache_entries gauge" in text
    assert 'elga_serving_cache_entries{client="0"} 4' in text
    assert "elga_serving_cache_entries_total" not in text
    elga.cluster.clients[0].cache.clear()
    assert 'elga_serving_cache_entries{client="0"} 0' in elga.prometheus_text()


def test_engine_exposition_end_to_end(traced_run):
    elga, _, _ = traced_run
    text = elga.prometheus_text()
    assert "# TYPE elga_agents gauge" in text
    assert "elga_agents 4" in text
    assert 'elga_updates_applied_total{agent="0"}' in text
    assert "elga_net_messages_total" in text
    assert 'elga_net_messages_by_type_total{type="VERTEX_MSG"}' in text
    assert 'elga_charged_seconds_total{entity="agent-0"}' in text
    # Control-plane fault-tolerance counters are always exposed (zero in
    # a healthy run), so failover dashboards need no conditional panels.
    assert 'elga_lead_elections_total{directory="0"} 0' in text
    assert 'elga_stale_term_drops_total{directory="0"} 0' in text
    assert "# TYPE elga_control_term gauge" in text
    assert "elga_control_term 0" in text
    # Every line is either a comment or "name[{labels}] value".
    for line in text.splitlines():
        assert line.startswith("#") or " " in line


def test_exposition_names_the_kernel_backend(traced_run, monkeypatch):
    elga, _, _ = traced_run
    was = kernels.enabled()
    try:
        effective = kernels.set_enabled(True)
        want = "c" if effective else "numpy"
        assert f'elga_kernels_backend{{backend="{want}"' in elga.prometheus_text()
        # A fallback the machine forced says why; a pinned reference
        # (no build error) has nothing to explain.
        kernels.set_enabled(False)
        monkeypatch.setattr(kernels, "build_error", lambda: None)
        assert kernels_backend_family().samples == [({"backend": "numpy"}, 1.0)]
        monkeypatch.setattr(kernels, "build_error", lambda: "RuntimeError: no C compiler on PATH")
        assert kernels_backend_family().samples == [
            ({"backend": "numpy", "reason": "RuntimeError: no C compiler on PATH"}, 1.0)
        ]
        assert (
            'elga_kernels_backend{backend="numpy",reason="RuntimeError: no C compiler on PATH"} 1'
            in elga.prometheus_text()
        )
    finally:
        kernels.set_enabled(was)
