"""Prometheus text exposition for cluster metrics.

Renders every entity's counter registry (live agents through the
in-protocol view, §3.4.3's ``METRIC_REPORT`` path), the fabric's
:class:`NetworkStats`, a few gauges read at scrape time, and cost-model
charges (per-entity charged simulated seconds) as labeled counter/gauge
lines in the Prometheus text format — ``# HELP`` / ``# TYPE`` headers,
``metric{label="value"} number`` samples.  A counter's name ends in
``_total`` and a gauge's does not.

No HTTP server is simulated: the exposition *text* is the contract (a
real deployment would serve it from ``/metrics``), and it is what the
CLI's ``python -m repro metrics`` prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import kernels
from repro.bench.counters import COUNTERS, PerfCounters

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass
class MetricFamily:
    """One exposition family: a name, type, help, and labeled samples."""

    name: str
    kind: str  # "counter" | "gauge"
    help: str
    samples: List[Tuple[Dict[str, str], float]] = field(default_factory=list)

    def add(self, labels: Dict[str, str], value: float) -> "MetricFamily":
        self.samples.append((labels, float(value)))
        return self


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render(families: List[MetricFamily]) -> str:
    """Render families as Prometheus exposition text."""
    lines: List[str] = []
    for fam in families:
        if not _NAME_RE.match(fam.name):
            raise ValueError(f"invalid metric name {fam.name!r}")
        if fam.kind not in ("counter", "gauge"):
            raise ValueError(f"invalid metric type {fam.kind!r} for {fam.name}")
        if (fam.kind == "counter") != fam.name.endswith("_total"):
            raise ValueError(f"a {fam.kind} named {fam.name}: only counters end in _total")
        lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for labels, value in fam.samples:
            for key in labels:
                if not _LABEL_RE.match(key):
                    raise ValueError(f"invalid label name {key!r} on {fam.name}")
            if labels:
                body = ",".join(
                    f'{k}="{_escape_label_value(str(v))}"'
                    for k, v in sorted(labels.items())
                )
                lines.append(f"{fam.name}{{{body}}} {_format_value(value)}")
            else:
                lines.append(f"{fam.name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


Sample = Tuple[Dict[str, str], Dict[str, int]]  # (labels, counts)


def counter_families(samples: List[Sample]) -> List[MetricFamily]:
    """One counter family per declared name any sample carries, one
    labeled sample per ``(labels, counts)`` that carries it.  A family's
    sum is the cluster-wide total (Prometheus sums label values)."""
    families = []
    for name in sorted({name for _, counts in samples for name in counts}):
        fam = MetricFamily(f"elga_{name}_total", "counter", COUNTERS[name].meaning + ".")
        for labels, counts in samples:
            if name in counts:
                fam.add(labels, counts[name])
        families.append(fam)
    return families


def registry_samples(cluster, per_agent: Dict[int, dict]) -> List[Sample]:
    """``(labels, counts)`` covering every registry the cluster keeps.

    A live agent that reported is sampled from its METRIC_REPORT (the
    §3.4.3 in-protocol view); every other live entity from its registry,
    labeled ``{kind: id}``; the registries of entities gone for good
    (agents that left or crashed, a replaced master) are summed per kind
    under ``{kind: "retired"}``, so no family steps backwards.
    """
    live = [("agent", agent_id, agent) for agent_id, agent in sorted(cluster.agents.items())]
    live += [("streamer", s.streamer_id, s) for s in cluster.streamers]
    live += [("client", c.client_id, c) for c in cluster.clients]
    live += [("directory", d.index, d) for d in cluster.directories]
    live.append(("master", 0, cluster.master))
    samples = []
    for kind, ident, entity in live:
        reported = per_agent.get(ident) if kind == "agent" else None
        counts = reported if reported is not None else entity.perf.counts
        samples.append(({kind: str(ident)}, counts))
    kept = {id(entity.perf) for _, _, entity in live}
    retired: Dict[str, PerfCounters] = {}
    for perf in cluster.registries:
        if id(perf) not in kept:
            retired.setdefault(perf.kind, PerfCounters()).merge(perf)
    samples += [({kind: "retired"}, total.counts) for kind, total in sorted(retired.items())]
    return samples


def network_families(stats) -> List[MetricFamily]:
    """Families from one fabric's :class:`NetworkStats`."""
    families = [
        MetricFamily(
            "elga_net_messages_total", "counter", "Messages sent on the fabric."
        ).add({}, stats.messages_sent),
        MetricFamily(
            "elga_net_bytes_total", "counter", "Bytes sent on the fabric."
        ).add({}, stats.bytes_sent),
    ]
    by_type = MetricFamily(
        "elga_net_messages_by_type_total", "counter", "Messages sent per packet type."
    )
    by_type_bytes = MetricFamily(
        "elga_net_bytes_by_type_total", "counter", "Bytes sent per packet type."
    )
    for ptype in sorted(stats.by_type_count, key=int):
        by_type.add({"type": ptype.name}, stats.by_type_count[ptype])
        by_type_bytes.add({"type": ptype.name}, stats.by_type_bytes[ptype])
    families += [by_type, by_type_bytes]
    drops = MetricFamily(
        "elga_net_dropped_total", "counter", "Deliveries dropped, by cause."
    )
    drops.add({"cause": "detached"}, stats.drops_detached)
    drops.add({"cause": "chaos"}, stats.drops_chaos)
    drops.add({"cause": "partition"}, stats.drops_partition)
    families.append(drops)
    scalars = [
        ("elga_net_retries_total", "Reliable-transport retransmissions.",
         stats.messages_retried),
        ("elga_net_retries_abandoned_total",
         "Reliable sends abandoned (detached destination).",
         stats.retries_abandoned),
        ("elga_net_duplicates_suppressed_total",
         "Duplicate deliveries suppressed by receiver dedup.",
         stats.duplicates_suppressed),
        ("elga_net_acks_total", "Transport DELIVERY_ACKs sent.", stats.acks_sent),
    ]
    for name, help_text, value in scalars:
        families.append(MetricFamily(name, "counter", help_text).add({}, value))
    return families


def charge_families(entities) -> List[MetricFamily]:
    """Cost-model charges: simulated seconds billed per entity."""
    fam = MetricFamily(
        "elga_charged_seconds_total",
        "counter",
        "Simulated compute seconds charged through the cost model.",
    )
    for entity in entities:
        charged = getattr(entity, "charged_seconds", None)
        if charged:
            fam.add({"entity": entity.name}, charged)
    return [fam]


def serving_gauges(clients) -> List[MetricFamily]:
    """What each proxy holds now: open queries and result-cache entries."""
    held = {client.client_id: client.serving_metrics() for client in clients}
    families = []
    for key, help_text in (
        ("client_inflight", "Open queries held per proxy."),
        ("serving_cache_entries", "Entries in the proxy's result cache."),
    ):
        fam = MetricFamily(f"elga_{key}", "gauge", help_text)
        for client_id, now in held.items():
            if key in now:
                fam.add({"client": str(client_id)}, now[key])
        if fam.samples:
            families.append(fam)
    return families


def kernels_backend_family() -> MetricFamily:
    """Which kernel backend this process computes on; a numpy fallback
    the machine forced (no compiler, failed build, foreign cache
    directory) carries the build error as ``reason``."""
    labels = {"backend": kernels.backend()}
    reason = kernels.build_error()
    if labels["backend"] == "numpy" and reason:
        labels["reason"] = reason
    return MetricFamily(
        "elga_kernels_backend", "gauge",
        "Kernel backend in use: the compiled C library or the numpy reference."
    ).add(labels, 1)


def engine_families(engine) -> List[MetricFamily]:
    """The full exposition for one :class:`~repro.core.engine.ElGA`.

    Collects live agents' metrics through the in-protocol path
    (METRIC_REPORT → directory stores), so calling this settles the
    simulator.
    """
    cluster = engine.cluster
    per_agent = cluster.collect_metrics()
    families = [
        MetricFamily(
            "elga_agents", "gauge", "Live agents in the cluster."
        ).add({}, len(cluster.agents)),
        MetricFamily(
            "elga_directory_version", "gauge", "Lead directory state version."
        ).add({}, cluster.directory_version()),
        MetricFamily(
            "elga_control_term", "gauge",
            "Control-plane term of the current lead directory."
        ).add({}, cluster.lead.term),
        MetricFamily(
            "elga_sim_seconds", "gauge", "Current simulated time."
        ).add({}, cluster.kernel.now),
        kernels_backend_family(),
    ]
    families += counter_families(registry_samples(cluster, per_agent))
    families += network_families(cluster.network.stats)
    families += serving_gauges(cluster.clients)
    participants = [cluster.agents[k] for k in sorted(cluster.agents)]
    participants += list(cluster.directories) + list(cluster.streamers)
    participants += list(cluster.clients)
    families += charge_families(participants)
    return families


def render_engine_metrics(engine) -> str:
    """Prometheus exposition text for one engine (see module docs)."""
    return render(engine_families(engine))
