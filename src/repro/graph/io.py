"""Edge-list input/output.

The paper's cluster reads edge lists from a distributed filesystem
(Ceph) and the artifact ships scripts that feed them to ElGA.  This
module is the library equivalent: a reader for plain-text edge lists
(the format SNAP/LAW datasets use), and a chunked reader that streams a
file into :class:`~repro.graph.stream.EdgeBatch` batches the way a
Streamer consumes them.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph.stream import EdgeBatch


def read_edge_list(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Read a whitespace-separated edge list, skipping ``#`` comments.

    Examples
    --------
    >>> import tempfile, os
    >>> f = tempfile.NamedTemporaryFile(mode="w", suffix=".el", delete=False)
    >>> _ = f.write("# demo\\n0 1\\n1 2\\n")
    >>> f.close()
    >>> us, vs = read_edge_list(f.name)
    >>> us.tolist(), vs.tolist()
    ([0, 1], [1, 2])
    >>> os.unlink(f.name)
    """
    import warnings

    with warnings.catch_warnings():
        # An all-comments file is a legitimate empty graph, not a
        # user-facing warning condition.
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if data.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected 'src dst' per line, got {data.shape[1]} columns")
    return data[:, 0].copy(), data[:, 1].copy()


def stream_edge_list(path: str, chunk: int = 8192) -> Iterator[EdgeBatch]:
    """Stream a text edge list as insertion batches without loading it
    whole — the shape a Streamer ingests.

    Examples
    --------
    >>> import tempfile, os
    >>> f = tempfile.NamedTemporaryFile(mode="w", suffix=".el", delete=False)
    >>> _ = f.write("0 1\\n1 2\\n2 0\\n")
    >>> f.close()
    >>> total = sum(len(b) for b in stream_edge_list(f.name, chunk=2))
    >>> total
    3
    >>> os.unlink(f.name)
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    us_buf: list = []
    vs_buf: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}: malformed edge line {line!r}")
            us_buf.append(int(parts[0]))
            vs_buf.append(int(parts[1]))
            if len(us_buf) >= chunk:
                yield EdgeBatch.insertions(us_buf, vs_buf)
                us_buf, vs_buf = [], []
    if us_buf:
        yield EdgeBatch.insertions(us_buf, vs_buf)
