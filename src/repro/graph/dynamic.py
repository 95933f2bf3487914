"""In-memory dynamic graph storage.

ElGA stores its dynamic graph "as a flat hash map with vectors" and
keeps both in- and out-edges (§4).  The Python equivalent is a dict of
adjacency sets per direction: O(1) expected insert/delete/lookup, at the
cost of being slower to scan than a CSR — the same trade-off the paper
discusses when comparing against Blogel's static CSR (§4.7).

Simple (non-multi) directed graphs: inserting an existing edge or
deleting a missing one is a no-op that reports ``False``, so the edge
multiset is always consistent with the applied stream prefix.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

import numpy as np

from repro.graph.stream import INSERT, EdgeBatch


class DynamicGraph:
    """A directed graph under turnstile edge updates.

    Examples
    --------
    >>> g = DynamicGraph()
    >>> g.insert_edge(1, 2)
    True
    >>> g.insert_edge(1, 2)   # duplicate
    False
    >>> g.num_edges
    1
    >>> g.remove_edge(1, 2)
    True
    >>> g.num_edges
    0
    """

    def __init__(self):
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._num_edges = 0

    # -- mutation ---------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert directed edge (u, v); False if already present."""
        out_u = self._out.get(u)
        if out_u is None:
            out_u = self._out[u] = set()
            self._in.setdefault(u, set())
        if v in out_u:
            return False
        out_u.add(v)
        in_v = self._in.get(v)
        if in_v is None:
            in_v = self._in[v] = set()
            self._out.setdefault(v, set())
        in_v.add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove directed edge (u, v); False if absent."""
        out_u = self._out.get(u)
        if out_u is None or v not in out_u:
            return False
        out_u.remove(v)
        self._in[v].remove(u)
        self._num_edges -= 1
        self._prune(u)
        self._prune(v)
        return True

    def _prune(self, vertex: int) -> None:
        """Drop a vertex whose adjacency became empty in both directions."""
        if not self._out.get(vertex) and not self._in.get(vertex):
            self._out.pop(vertex, None)
            self._in.pop(vertex, None)

    def apply_batch(self, batch: EdgeBatch) -> int:
        """Apply a change batch in stream order; returns #effective changes."""
        applied = 0
        for action, u, v in zip(batch.actions, batch.us, batch.vs):
            if action == INSERT:
                applied += self.insert_edge(int(u), int(v))
            else:
                applied += self.remove_edge(int(u), int(v))
        return applied

    def clear(self) -> None:
        """Reset to the empty graph G^0."""
        self._out.clear()
        self._in.clear()
        self._num_edges = 0

    # -- queries ------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        out_u = self._out.get(u)
        return out_u is not None and v in out_u

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    def vertices(self) -> Iterator[int]:
        """All vertices with at least one incident edge."""
        return iter(self._out)

    def out_neighbors(self, u: int) -> Set[int]:
        return self._out.get(u, set())

    def in_neighbors(self, v: int) -> Set[int]:
        return self._in.get(v, set())

    def out_degree(self, u: int) -> int:
        return len(self._out.get(u, ()))

    def in_degree(self, v: int) -> int:
        return len(self._in.get(v, ()))

    def degree(self, v: int) -> int:
        """Total degree (in + out), the quantity the sketch estimates."""
        return self.out_degree(v) + self.in_degree(v)

    # -- bulk export -----------------------------------------------------------

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sources, destinations) arrays in deterministic sorted order."""
        m = self._num_edges
        us = np.empty(m, dtype=np.int64)
        vs = np.empty(m, dtype=np.int64)
        pos = 0
        for u in sorted(self._out):
            nbrs = self._out[u]
            if not nbrs:
                continue
            dsts = sorted(nbrs)
            n = len(dsts)
            us[pos : pos + n] = u
            vs[pos : pos + n] = dsts
            pos += n
        return us, vs

    def degree_dict(self) -> Dict[int, int]:
        """Exact total degree per vertex (ground truth for sketch tests)."""
        return {v: self.degree(v) for v in self._out}

    def __eq__(self, other) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._out == other._out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"
