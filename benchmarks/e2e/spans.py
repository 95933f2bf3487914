"""Wall-clock spans around the public entry points of every ``repro`` layer.

Nothing under ``src/`` knows about this: :func:`install` replaces the
seams listed in :data:`SEAMS` with recording wrappers (``setattr`` on
the class or module, and on every loaded ``repro`` module that bound the
same function by name) and :func:`uninstall` puts the originals back.

A span is ``[layer, name, start, end, parent, op, work]``: ``parent`` is
the index of the enclosing span (-1 for a root), ``op`` the operation
the harness had announced, ``work`` the rows the call was handed (0
where the seam has no natural size).  A layer's self time is the sum of
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LAYER, NAME, START, END, PARENT, OP, WORK = range(7)


def _rows(index: int) -> Callable:
    """Work size of a call: rows in its ``index``-th positional argument
    (0 is ``self`` for a method); a scalar counts as one row."""

    def size(args) -> int:
        arg = args[index]
        n = getattr(arg, "size", None)
        if n is None:
            n = len(arg) if hasattr(arg, "__len__") else 1
        return int(n)

    return size


# (layer, module, owner class or None, attribute, size-of-work or None).
# Module-level functions are also re-bound wherever another repro module
# imported them by name (wang64 in hashing.ring / sketch.countmin /
# partition.placer, combine_pairs in cluster.agent) and in HASH_FUNCTIONS.
SEAMS: List[Tuple[str, str, Optional[str], str, Optional[Callable]]] = [
    *[("core", "repro.core.engine", "ElGA", m, None)
      for m in ("apply_batch", "ingest_edges", "run", "quiesce", "scale_to", "query")],
    *[("cluster.cluster", "repro.cluster.cluster", "ElGACluster", m, None)
      for m in ("ingest", "flush_sketches", "settle", "scale_to", "add_agent", "remove_agent")],
    *[("sim", "repro.sim.kernel", "SimKernel", m, None)
      for m in ("run", "run_until_idle", "step")],
    ("net", "repro.net.network", "Network", "send", None),
    ("net", "repro.net.sockets", "PushSocket", "push", None),
    ("net", "repro.net.sockets", "PubSubSocket", "publish", None),
    ("net", "repro.net.sockets", "ReqRepSocket", "request", None),
    ("cluster.agent", "repro.cluster.agent", "Agent", "handle_message", None),
    ("cluster.directory", "repro.cluster.directory", "Directory", "handle_message", None),
    ("cluster.directory", "repro.cluster.directory", "DirectoryMaster", "handle_message", None),
    ("cluster.streamer", "repro.cluster.streamer", "Streamer", "handle_message", None),
    ("cluster.streamer", "repro.cluster.streamer", "Streamer", "stream_batch", _rows(1)),
    ("cluster.client", "repro.cluster.client", "ClientProxy", "handle_message", None),
    ("cluster.client", "repro.cluster.client", "ClientProxy", "query", None),
    ("partition", "repro.partition.cache", "PlacementCache", "owner_of_edges", _rows(1)),
    *[("partition", "repro.partition.cache", "PlacementCache", m, None)
      for m in ("replication_factor", "replica_matrix", "bind")],
    ("partition", "repro.partition.placer", "EdgePlacer", "owner_of_edges", None),
    ("partition", "repro.partition.placer", "EdgePlacer", "replication_factor", None),
    ("sketch", "repro.sketch.countmin", "CountMinSketch", "add", _rows(1)),
    ("sketch", "repro.sketch.countmin", "CountMinSketch", "query", _rows(1)),
    *[("sketch", "repro.sketch.countmin", "CountMinSketch", m, None)
      for m in ("remove", "merge", "copy")],
    *[("hashing", "repro.hashing.ring", "ConsistentHashRing", m, None)
      for m in ("__init__", "add", "remove", "lookup_hash", "successors_hash_batch")],
    ("hashing", "repro.hashing.hashes", None, "wang64", _rows(0)),
    ("cluster.edgestore", "repro.cluster.edgestore", "EdgeStore", "apply", _rows(1)),
    *[("cluster.edgestore", "repro.cluster.edgestore", "EdgeStore", m, None)
      for m in ("arrays", "contains_pairs", "remove_pairs", "degrees")],
    *[("cluster.edgestore", "repro.cluster.edgestore", "ValueColumn", m, None)
      for m in ("lookup", "set_many", "select")],
    ("cluster.edgestore", "repro.cluster.edgestore", "DirtyLog", "append_batch", None),
    ("cluster.edgestore", "repro.cluster.edgestore", "DirtyLog", "suffix", None),
    ("cluster.dataplane", "repro.cluster.dataplane", None, "combine_pairs", None),
    *[("cluster.dataplane", "repro.cluster.dataplane", "RoundBuffers", m, None)
      for m in ("add", "drain_vertex_msgs", "drain_replica")],
    ("kernels", "repro.kernels", None, "combine_pairs", _rows(0)),
    ("kernels", "repro.kernels", None, "fold_pairs", _rows(3)),
    ("kernels", "repro.kernels", None, "pagerank_apply", _rows(0)),
    ("kernels", "repro.kernels", None, "wang64_u64", _rows(0)),
    ("cluster.recovery", "repro.cluster.recovery", "EdgeWAL", "append", None),
    ("cluster.recovery", "repro.cluster.recovery", "EdgeWAL", "truncate", None),
    ("cluster.recovery", "repro.cluster.recovery", "RecoveryStore", "snapshot_agent", None),
    *[("serving", "repro.serving.cache", "ResultCache", m, None)
      for m in ("get", "put", "invalidate_program", "invalidate_negative", "clear", "counters")],
]


def layer_of_module(module: Optional[str]) -> str:
    """``repro.cluster.agent`` -> ``cluster.agent``; ``repro.net.network``
    -> ``net``; anything outside ``repro`` is the harness."""
    parts = (module or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "harness"
    return ".".join(parts[1:3]) if parts[1] == "cluster" else parts[1]


def resolve(module: str, owner: Optional[str], attr: str):
    """The object holding a seam and its current value; raises with the
    seam's full name when a refactor has renamed it."""
    try:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        return holder, getattr(holder, attr)
    except (ImportError, AttributeError) as exc:
        where = ".".join(p for p in (module, owner, attr) if p)
        raise LookupError(f"trace seam {where} does not resolve: {exc}") from exc


class Recorder:
    """In-memory span log with an on/off switch and a current-span cursor."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.on = False
        self.op: Optional[str] = None
        self._current = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        span = [layer, name, 0.0, 0.0, self._current, self.op, 0]
        self._current = len(self.spans)
        self.spans.append(span)
        span[START] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        self._current = span[PARENT]

    def wrap(self, layer: str, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # The body runs inside the caller's loop: span each resume.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self.on:
                        yield from it
                        return
                    span = self._open(layer, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if size is not None:
                span[WORK] = size(args)
            return result

        return wrapper

    def _fire(self, layer: str, name: str, callback: Callable, *args) -> None:
        if not self.on:
            callback(*args)
            return
        span = self._open(layer, name)
        try:
            callback(*args)
        finally:
            self._close(span)

    # -- installation ----------------------------------------------------

    def _set(self, holder, attr: str, value) -> None:
        """Replace a class attribute, module global or dict entry,
        remembering what was there."""
        names = holder if isinstance(holder, dict) else vars(holder)
        self._restore.append((holder, attr, names[attr]))
        if isinstance(holder, dict):
            holder[attr] = value
        else:
            setattr(holder, attr, value)

    def install(self, seams: Iterable = SEAMS) -> None:
        """Wrap every seam; must run before any cluster is built so
        bound callbacks and hash functions are the wrapped ones."""
        for layer, module, owner, attr, size in seams:
            holder, original = resolve(module, owner, attr)
            name = f"{owner}.{attr}" if owner else attr
            wrapped = self.wrap(layer, name, original, size)
            self._set(holder, attr, wrapped)
            if owner is None:
                self._rebind(original, wrapped)
        # SimKernel.schedule forwards to schedule_at, so wrapping the
        # latter sees every event once; both names must still resolve.
        resolve("repro.sim.kernel", "SimKernel", "schedule")
        kernel_cls, schedule_at = resolve("repro.sim.kernel", "SimKernel", "schedule_at")
        layers: Dict[object, Tuple[str, str]] = {}

        @functools.wraps(schedule_at)
        def traced_schedule_at(kernel, when, callback, *args):
            # Deliveries go to net, timers to their entity, lambdas to
            # the module that wrote them -- never to sim.
            target = getattr(callback, "__self__", None)
            key = getattr(getattr(callback, "__func__", callback), "__code__", None) or (
                type(target), getattr(callback, "__name__", None))
            found = layers.get(key)
            if found is None:
                module_name = (type(target) if target is not None else callback).__module__
                found = layers[key] = (
                    layer_of_module(module_name),
                    getattr(callback, "__qualname__", type(callback).__name__),
                )
            return schedule_at(kernel, when, self._fire, found[0], found[1], callback, *args)

        self._set(kernel_cls, "schedule_at", traced_schedule_at)

    def _rebind(self, original, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)
                elif isinstance(value, dict):
                    for key in [k for k, entry in value.items() if entry is original]:
                        self._set(value, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time: each span's duration, minus its direct
    children's durations."""
    out: Dict[str, float] = {}
    for span in spans:
        dur = span[END] - span[START]
        out[span[LAYER]] = out.get(span[LAYER], 0.0) + dur
        if span[PARENT] >= 0:
            parent_layer = spans[span[PARENT]][LAYER]
            out[parent_layer] = out.get(parent_layer, 0.0) - dur
    return out


def root_time(spans: List[list]) -> float:
    """Wall covered by spans that have no parent (the operation roots)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def tally(spans: List[list]) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """(layer, seam name) -> (calls, rows handed to it), in one pass."""
    out: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for span in spans:
        key = (span[LAYER], span[NAME])
        n, rows = out.get(key, (0, 0))
        out[key] = (n + 1, rows + span[WORK])
    return out


def write_jsonl(spans: List[list], path) -> None:
    with open(path, "w") as fh:
        for index, span in enumerate(spans):
            fh.write(json.dumps([index, *span]))
            fh.write("\n")
