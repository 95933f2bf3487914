"""Edge-list I/O round trips."""

import numpy as np
import pytest

from repro.graph import EdgeBatch
from repro.graph.io import read_edge_list, stream_edge_list


@pytest.fixture()
def edges():
    rng = np.random.default_rng(0)
    return rng.integers(0, 100, 500), rng.integers(0, 100, 500)


def write_text(path, us, vs, comment=""):
    """A SNAP-style edge list: ``#`` comment lines, then ``src dst``."""
    np.savetxt(path, np.stack([us, vs], axis=1), fmt="%d", header=comment)


def test_text_round_trip(tmp_path, edges):
    us, vs = edges
    path = str(tmp_path / "g.el")
    write_text(path, us, vs, comment="test graph")
    got_us, got_vs = read_edge_list(path)
    assert np.array_equal(got_us, us)
    assert np.array_equal(got_vs, vs)


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.el"
    path.write_text("# nothing here\n")
    us, vs = read_edge_list(str(path))
    assert len(us) == 0 and len(vs) == 0


def test_read_malformed_single_column(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("42\n")
    with pytest.raises(ValueError):
        read_edge_list(str(path))


def test_stream_chunks_cover_file(tmp_path, edges):
    us, vs = edges
    path = str(tmp_path / "g.el")
    write_text(path, us, vs)
    batches = list(stream_edge_list(path, chunk=64))
    assert all(len(b) <= 64 for b in batches)
    rejoined = EdgeBatch.concat(batches)
    assert np.array_equal(rejoined.us, us)
    assert np.array_equal(rejoined.vs, vs)


def test_stream_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("# header\n\n0 1\n# mid\n1 2\n")
    batches = list(stream_edge_list(str(path)))
    total = EdgeBatch.concat(batches)
    assert total.us.tolist() == [0, 1]


def test_stream_malformed_rejected(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("0\n")
    with pytest.raises(ValueError):
        list(stream_edge_list(str(path)))


def test_stream_validates_chunk(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("0 1\n")
    with pytest.raises(ValueError):
        list(stream_edge_list(str(path), chunk=0))


def test_stream_feeds_engine(tmp_path, edges):
    """The intended use: a file streamed straight into the cluster."""
    from repro.core import ElGA

    us, vs = edges
    keep = us != vs
    path = str(tmp_path / "g.el")
    write_text(path, us[keep], vs[keep])
    elga = ElGA(nodes=1, agents_per_node=2, seed=33)
    for batch in stream_edge_list(path, chunk=128):
        elga.apply_batch(batch, flush=False)
    elga.cluster.flush_sketches()
    assert elga.validate_against_reference()
