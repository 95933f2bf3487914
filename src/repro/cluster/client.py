"""ClientProxies: the query-serving plane (§3.1, Goal 4).

ClientProxies proxy end-user queries to Agents.  A query for a vertex
bypasses the second consistent hash (§3.4.1); queries ride the
REQ/REP-style low-latency path and are answered concurrently with
computation (Goal 4).  Beyond the thin forwarder of the seed, a proxy
is a small serving tier:

* **Coalescing** — queries for the same (program, vertex) arriving
  within ``serving_coalesce_window`` (or while an identical fan-out is
  already in flight) collapse into one fan-out whose reply is delivered
  to every waiter.
* **Result cache** — a :class:`~repro.serving.cache.ResultCache` fenced
  by the directory epoch token, the per-program result version
  (RESULT_NOTICE), and a TTL on the sim clock, so a stale read is
  structurally impossible.
* **Snapshot-consistent reads** — split-vertex queries fan out to
  *every* replica; the merged answer is delivered only if all replies
  carry the same incarnation and either the same (run_id, step)
  snapshot tag or bitwise-equal values.  A torn set (mixed tags, mixed
  values) is retried after a backoff, counted as
  ``client_snapshot_retries`` — this holds during supersteps, ingest, and
  recovery rollback alike.
* **Admission control** — at most ``serving_max_inflight`` queries are
  held open; excess load is shed with a retry-after hint
  (:meth:`query`'s return value) instead of queueing unboundedly.

Latency accounting (bounded, retry-honest): one sample per delivered
query, measured from the moment the query was *accepted* — a query
re-issued by failover or a snapshot retry keeps its first-accept time,
so failover and torn-read stalls show up in the tail instead of being
reset away.  The sample ring is bounded by ``serving_latency_window``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.directory import DirectoryState
from repro.cluster.participant import Participant
from repro.net.message import Message, PacketType
from repro.partition.placer import EdgePlacer
from repro.serving import ResultCache

#: Snapshot tag agents answer with when no run ever produced a value
#: (replacement agents, never-run programs).  Proxies accept tag
#: mismatches involving it through the value-equality rule.
_NO_SNAPSHOT: Tuple[int, int] = (-1, -1)

#: Hard per-fan-out bound on snapshot retries.  Replica READY skew
#: windows are microseconds wide while the backoff is much wider, so a
#: genuine merge converges after a handful of attempts; hitting this
#: bound means replicas *permanently* disagree — a protocol bug worth a
#: loud failure, not an infinite silent retry loop.
_MAX_SNAPSHOT_RETRIES = 256

#: Simulated seconds a proxy waits before re-issuing a fan-out whose
#: replica replies straddled two snapshots (different (run_id, step)
#: tags with different values).
SNAPSHOT_BACKOFF = 2e-4

#: The retry-after hint (simulated seconds) returned to a shed query's
#: submitter.
SHED_RETRY_AFTER = 1e-3

#: Maximum (program, vertex) entries a proxy's result cache holds; the
#: oldest entry is evicted first (insertion order).
CACHE_CAPACITY = 65536


class _Waiter:
    """One accepted query waiting for its value."""

    __slots__ = ("accepted_at", "callback", "vertex", "program")

    def __init__(self, accepted_at, callback, vertex, program):
        self.accepted_at = accepted_at
        self.callback = callback
        self.vertex = vertex
        self.program = program


class _Flight:
    """One coalesced fan-out for a (program, vertex) key."""

    __slots__ = ("key", "vertex", "program", "waiters", "targets", "token",
                 "dispatched", "retries")

    def __init__(self, key, vertex, program):
        self.key = key
        self.vertex = vertex
        self.program = program
        self.waiters: List[int] = []      # waiter tokens sharing the reply
        self.targets: Dict[int, Optional[dict]] = {}  # agent id -> reply
        self.token = -1                   # current attempt's wire token
        self.dispatched = False
        self.retries = 0                  # snapshot-mismatch re-issues


class ClientProxy(Participant):
    """A query frontend.

    :meth:`query` issues a vertex-result lookup and delivers the value
    to a callback; per-query latencies (simulated) accumulate in
    :attr:`latencies` for the benchmarks.  The return value is an
    admission verdict: ``0.0`` for accepted, or a positive retry-after
    hint when the query was shed.
    """

    KIND = "client"
    TOPICS = (PacketType.DIRECTORY_UPDATE, PacketType.RESULT_NOTICE)

    def __init__(
        self,
        network,
        config: ClusterConfig,
        client_id: int,
        node: int,
        directory_address: int,
        master_address: Optional[int] = None,
    ):
        super().__init__(
            network, f"client-{client_id}", config, node, directory_address, master_address
        )
        self.client_id = client_id
        # The most recent delivered-query latencies (simulated seconds).
        self.latencies: deque = deque(maxlen=config.serving_latency_window)
        self.cache: Optional[ResultCache] = (
            ResultCache(config.serving_cache_ttl, CACHE_CAPACITY, self.perf)
            if config.serving_cache_ttl > 0
            else None
        )
        # Per-program result versions learned from RESULT_NOTICE
        # broadcasts (monotone max).  Cache entries are fenced on the
        # version they were filled under.
        self.known_versions: Dict[str, int] = {}
        # Optional delivery audit: when a list is assigned, every
        # delivered reply appends {vertex, program, value, source,
        # run_id, step, time}.  Benches use it for the zero-stale check;
        # None (the default) costs nothing.
        self.audit: Optional[List[dict]] = None
        # Waiter-token -> _Waiter.  The attribute is the proxy's open
        # query set: truthy exactly while queries are outstanding.
        self._pending: Dict[int, _Waiter] = {}
        # (program, vertex) -> live flight, plus the wire-token index of
        # dispatched attempts (a resend mints a fresh token, so replies
        # to an abandoned attempt drop here instead of corrupting state).
        self._flights: Dict[Tuple[str, int], _Flight] = {}
        self._by_token: Dict[int, _Flight] = {}
        self._coalesce_buf: List[_Flight] = []
        self._flush_scheduled = False
        self._next_token = 0

    # -- directory plane ---------------------------------------------------

    # Bound in this class body, not inherited: the end-to-end harness
    # wraps ``vars(ClientProxy)["handle_message"]``.
    handle_message = Participant.handle_message

    def _adopted(self, previous: Optional[DirectoryState], before: Optional[EdgePlacer]) -> None:
        state = self.dstate
        if previous is not None:
            self._failover_pending(state)
            if self.cache is not None and (
                state.batch_id > previous.batch_id
                or state.epoch_token != previous.epoch_token
            ):
                # Ingest progressed (the batch clock moved — including
                # flush-less batches, which bump no epoch and emit no
                # RESULT_NOTICE) or placement churned: a cached "vertex
                # does not exist" may have just been falsified.  Drop
                # negatives rather than waiting out the TTL; positive
                # entries keep their version/epoch fencing.
                self.cache.invalidate_negative()

    def _on_result_notice(self, message: Message) -> None:
        """Adopt new per-program result versions.

        Ordinarily monotone (max-merge): late or duplicated notices
        cannot roll a version back.  A notice that raises the term is
        the new lead's, and its versions are adopted verbatim instead —
        a successor reconstructs versions from its mirror and may
        legitimately land *below* what this proxy saw from the old
        lead; max-merging would then ignore every future legit notice
        and leave the cache fenced against versions agents will never
        report again.
        """
        assign = message.term is not None and message.term > self.term
        for program, version in message.payload["versions"].items():
            if assign or version > self.known_versions.get(program, 0):
                self.known_versions[program] = version
                if self.cache is not None:
                    # get() would fence these lazily; eager removal
                    # keeps the capacity for entries that can still hit.
                    self.cache.invalidate_program(program)

    def _on_term_bump(self) -> None:
        """React to a control-plane lead election.

        Everything cached or in flight under the old term is suspect:
        the cache is cleared wholesale (result versions were re-assigned,
        so old entries can no longer fence correctly), and every
        dispatched fan-out is re-issued — its targets may have re-homed,
        and a reply computed under the old term must not race a
        new-term read.  Waiters keep their first-accept time so the
        failover stall lands in the latency tail.
        """
        if self.cache is not None:
            self.cache.clear()
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name, "term_bump", "control", {"term": self.term}
            )
        for flight in list(self._flights.values()):
            if not flight.dispatched:
                continue
            self._by_token.pop(flight.token, None)
            self.perf.add("client_queries_retried", len(flight.waiters))
            self._dispatch(flight)

    def _failover_pending(self, state: DirectoryState) -> None:
        """Re-issue in-flight fan-outs whose target left the membership.

        A crashed agent never answers; once the directory broadcasts
        the post-eviction epoch, every dispatched fan-out with a dead
        target is re-resolved under the new ring and resent.  Waiters
        keep their first-accept time, so latency benchmarks charge
        failover its real cost; ``client_queries_retried`` counts the affected
        *queries* (waiters), matching the seed's accounting.
        """
        live = set(state.agents)
        for flight in list(self._flights.values()):
            if not flight.dispatched:
                continue  # still buffered; dispatches under the new ring
            if all(agent_id in live for agent_id in flight.targets):
                continue
            self._by_token.pop(flight.token, None)
            self.perf.add("client_queries_retried", len(flight.waiters))
            self._dispatch(flight)

    # -- query admission ---------------------------------------------------

    def query(
        self,
        vertex: int,
        program: str,
        callback: Optional[Callable[[Optional[float]], None]] = None,
    ) -> float:
        """Ask for ``vertex``'s current result under ``program``.

        Returns ``0.0`` if the query was accepted (the callback will
        eventually fire exactly once), or a positive retry-after hint
        (simulated seconds) if admission control shed it (the callback
        will never fire; resubmit after the hint).
        """
        if self.placer is None:
            raise RuntimeError(
                f"client {self.client_id} has no directory state yet; "
                "run the simulator until the first broadcast lands"
            )
        # If the home directory died, queries keep flowing on the
        # last-adopted state (fan-outs target agents, not the
        # directory), but without a live subscription this proxy would
        # never see another epoch or version — re-home now.
        # Event-driven, not periodic: an idle proxy costs the simulator
        # nothing, and the first query after a directory death pays the
        # re-home.
        self.home_lost()
        if len(self._pending) >= self.config.serving_max_inflight:
            self.perf.add("client_queries_shed")
            tracer = self.network.tracer
            if tracer is not None:
                tracer.instant(
                    self.name,
                    "query_shed",
                    "serving",
                    {"inflight": len(self._pending), "vertex": int(vertex)},
                )
            return SHED_RETRY_AFTER
        vertex = int(vertex)
        token = self._next_token
        self._next_token += 1
        self.perf.add("client_queries_sent")
        self._pending[token] = _Waiter(self.now, callback, vertex, program)
        if self.cache is not None:
            self.charge(self.config.costs.elga_serving_cache_op)
            entry = self.cache.get(
                program,
                vertex,
                self.now,
                self.dstate.epoch_token,
                self.known_versions.get(program, 0),
            )
            if entry is not None:
                # Deliver asynchronously after the (cheap) cache charge
                # so a hit still records a real, nonzero latency.
                self.kernel.schedule(
                    self.config.costs.elga_serving_cache_op,
                    lambda t=token, e=entry: self._complete_waiter(
                        t, e.value, "cache", e.snapshot
                    ),
                )
                return 0.0
        self._enqueue_fanout(token, vertex, program)
        return 0.0

    # -- fan-out lifecycle -------------------------------------------------

    def _enqueue_fanout(self, waiter_token: int, vertex: int, program: str) -> None:
        window = self.config.serving_coalesce_window
        if window <= 0:
            # Coalescing disabled: every query is its own immediate
            # fan-out, with no in-flight sharing either — the true
            # pre-serving-plane baseline the benches' "off" cell
            # measures (a unique key keeps solo flights from merging).
            flight = _Flight((program, vertex, waiter_token), vertex, program)
            flight.waiters.append(waiter_token)
            self._flights[flight.key] = flight
            self._dispatch(flight)
            return
        key = (program, vertex)
        flight = self._flights.get(key)
        if flight is not None:
            # Identical fan-out buffered or in flight: share its reply.
            flight.waiters.append(waiter_token)
            self.perf.add("client_queries_coalesced")
            return
        flight = _Flight(key, vertex, program)
        flight.waiters.append(waiter_token)
        self._flights[key] = flight
        self._coalesce_buf.append(flight)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.kernel.schedule(window, self._flush_coalesced)

    def _flush_coalesced(self) -> None:
        self._flush_scheduled = False
        buffered, self._coalesce_buf = self._coalesce_buf, []
        for flight in buffered:
            if self._flights.get(flight.key) is flight and not flight.dispatched:
                self._dispatch(flight)

    def _targets_for(self, vertex: int) -> List[int]:
        """Replica fan-out targets: every replica for a split vertex
        (their tags must agree for a consistent read — and hot-key read
        load spreads across all of them), the single owner otherwise."""
        if self.dstate is not None and vertex in self.dstate.split_vertices:
            return sorted(set(self.placer.replica_set(vertex)))
        return [self.placer.owner_of_vertex(vertex, rng=self.rng)]

    def _dispatch(self, flight: _Flight) -> None:
        flight.token = self._next_token
        self._next_token += 1
        flight.dispatched = True
        targets = self._targets_for(flight.vertex)
        flight.targets = {agent_id: None for agent_id in targets}
        self._by_token[flight.token] = flight
        self.perf.add("client_fanouts_dispatched")
        for agent_id in targets:
            self._send_query(flight.token, flight.vertex, flight.program, agent_id)

    def _send_query(self, token: int, vertex: int, program: str, owner: int) -> None:
        address = self.dstate.agents.get(owner)
        if address is None:
            address = next(iter(sorted(self.dstate.agents.values())))
        self.push.push(
            address,
            PacketType.CLIENT_QUERY,
            {"vertex": vertex, "program": program, "token": token},
        )

    def _on_reply(self, payload: dict) -> None:
        self.perf.add("client_replies_received")
        flight = self._by_token.get(payload.get("token"))
        if flight is None:
            return  # stale attempt (failover/snapshot resend) or duplicate
        agent_id = payload.get("agent_id")
        if agent_id not in flight.targets or flight.targets[agent_id] is not None:
            return  # not a target of this attempt / duplicate delivery
        flight.targets[agent_id] = payload
        if any(reply is None for reply in flight.targets.values()):
            return  # fan-out incomplete
        self._merge_flight(flight)

    def _merge_flight(self, flight: _Flight) -> None:
        """Deliver the fan-out iff every replica answered from the same
        snapshot; otherwise retry the whole fan-out after a backoff."""
        self._by_token.pop(flight.token, None)
        replies = [flight.targets[a] for a in sorted(flight.targets)]
        incs = {reply.get("inc", 0) for reply in replies}
        tags = {
            (reply.get("run_id", -1), reply.get("step", -1)) for reply in replies
        }
        first = replies[0].get("value")
        values_equal = all(reply.get("value") == first for reply in replies[1:])
        if len(incs) == 1 and (len(tags) == 1 or values_equal):
            if len(tags) > 1:
                # Tag skew with identical values: replica READY skew or
                # a replacement agent's untagged restore.  Consistent by
                # value; counted so tests can see it happening.
                self.perf.add("client_snapshot_value_merges")
            del self._flights[flight.key]
            self._deliver(flight, replies[0])
            return
        # Torn read caught: replicas answered from different rounds (or
        # across an incarnation fence) with different values.  Never
        # deliver; re-issue the fan-out once the skew window has passed.
        self.perf.add("client_snapshot_retries")
        flight.retries += 1
        if flight.retries > _MAX_SNAPSHOT_RETRIES:
            raise RuntimeError(
                f"client {self.client_id}: replicas of vertex {flight.vertex} "
                f"({flight.program}) disagree after {flight.retries} snapshot "
                f"retries: tags={sorted(tags)}"
            )
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "snapshot_retry",
                "serving",
                {
                    "vertex": flight.vertex,
                    "program": flight.program,
                    "tags": sorted(tags),
                    "attempt": flight.retries,
                },
            )
        self.kernel.schedule(SNAPSHOT_BACKOFF, self._redispatch, flight)

    def _redispatch(self, flight: _Flight) -> None:
        if self._flights.get(flight.key) is not flight:
            return  # superseded (e.g. completed via failover path)
        self._dispatch(flight)

    # -- delivery ----------------------------------------------------------

    def _deliver(self, flight: _Flight, reply: dict) -> None:
        value = reply.get("value")
        snapshot = (reply.get("run_id", -1), reply.get("step", -1))
        if self.cache is not None:
            self.cache.put(
                flight.program,
                flight.vertex,
                value,
                self.now,
                self.dstate.epoch_token,
                self.known_versions.get(flight.program, 0),
                snapshot,
            )
        for token in flight.waiters:
            self._complete_waiter(token, value, "fanout", snapshot)

    def _complete_waiter(
        self,
        token: int,
        value: Optional[float],
        source: str,
        snapshot: Tuple[int, int],
    ) -> None:
        waiter = self._pending.pop(token, None)
        if waiter is None:
            return
        self.latencies.append(self.now - waiter.accepted_at)
        self.perf.add("client_queries_delivered")
        if self.audit is not None:
            self.audit.append(
                {
                    "vertex": waiter.vertex,
                    "program": waiter.program,
                    "value": value,
                    "source": source,
                    "run_id": snapshot[0],
                    "step": snapshot[1],
                    "time": self.now,
                }
            )
        if waiter.callback is not None:
            waiter.callback(value)

    # -- reporting ---------------------------------------------------------

    def serving_metrics(self) -> Dict[str, float]:
        """The serving plane's counts, and the open queries and cached
        entries held now (gauges)."""
        out: Dict[str, float] = {
            k: v for k, v in self.perf.counts.items() if k.startswith("client_")
        }
        out["client_inflight"] = len(self._pending)
        if self.cache is not None:
            out.update(self.cache.counters())
        return out

    _DISPATCH = {
        **Participant._DISPATCH,
        PacketType.CLIENT_REPLY: (_on_reply, False),
        PacketType.RESULT_NOTICE: (_on_result_notice, True),
    }
