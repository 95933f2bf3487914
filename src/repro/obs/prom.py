"""Prometheus text exposition for cluster metrics.

Renders the in-protocol metric view (§3.4.3's ``METRIC_REPORT`` path via
``combine_metrics``), the fabric's :class:`NetworkStats`, and cost-model
charges (per-entity charged simulated seconds) as labeled counter/gauge
lines in the Prometheus text format — ``# HELP`` / ``# TYPE`` headers,
``metric{label="value"} number`` samples.

No HTTP server is simulated: the exposition *text* is the contract (a
real deployment would serve it from ``/metrics``), and it is what the
CLI's ``python -m repro metrics`` prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


def agent_metric_families(
    per_agent: Dict[int, dict], retired: Optional[Dict[str, int]] = None
) -> List[MetricFamily]:
    """Families from per-agent metric snapshots (one family per counter,
    one labeled sample per agent), matching ``combine_metrics`` totals
    by construction (Prometheus sums label values).  ``retired`` holds
    the summed counters of agents that left or crashed; it is exposed
    as one more sample (``agent="retired"``), so a family's sum never
    steps backwards when membership shrinks."""
    snapshots = list(per_agent.values()) + ([retired] if retired else [])
    keys = sorted({key for snap in snapshots for key in snap})
    families = []
    for key in keys:
        fam = MetricFamily(
            name=f"elga_{key}_total",
            kind="counter",
            help=f"Agent counter {key} (METRIC_REPORT snapshot).",
        )
        for agent_id in sorted(per_agent):
            fam.add({"agent": str(agent_id)}, per_agent[agent_id].get(key, 0))
        if retired:
            fam.add({"agent": "retired"}, retired.get(key, 0))
        families.append(fam)
    return families


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
        ("elga_net_heartbeats_missed_total",
         "Heartbeats found overdue by the failure detector.",
         stats.heartbeats_missed),
        ("elga_net_lease_expirations_total",
         "Liveness leases that expired into suspicion.",
         stats.lease_expirations),
        ("elga_net_lead_elections_total",
         "Lead-directory elections (control-plane failovers).",
         stats.lead_elections),
        ("elga_net_stale_term_drops_total",
         "Control packets dropped for carrying a superseded term.",
         stats.stale_term_drops),
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


def serving_families(clients) -> List[MetricFamily]:
    """Serving-plane families: one per proxy counter, labeled by client.

    Counter names come from :meth:`ClientProxy.serving_metrics`
    (``client_*`` and ``serving_cache_*`` keys); ``client_inflight`` is
    the only gauge — everything else is monotone.
    """
    clients = list(clients)
    keys = sorted({key for c in clients for key in c.serving_metrics()})
    families = []
    for key in keys:
        if key == "client_inflight":
            fam = MetricFamily(
                "elga_client_inflight", "gauge", "Open queries held per proxy."
            )
        else:
            fam = MetricFamily(
                name=f"elga_{key}_total",
                kind="counter",
                help=f"Serving-plane counter {key}.",
            )
        for client in clients:
            fam.add(
                {"client": str(client.client_id)},
                client.serving_metrics().get(key, 0),
            )
        families.append(fam)
    return families


def kernels_backend_family() -> MetricFamily:
    """Which kernel backend this process computes on; a numpy fallback
    the machine forced (no compiler, failed build, foreign cache
    directory) carries the build error as ``reason``."""
    from repro import kernels

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

    Collects metrics through the in-protocol path (METRIC_REPORT →
    directory stores), so calling this settles the simulator.
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
    # collect_metrics() settled the simulator, so every leaver that
    # finished draining has detached and is counted as retired.
    cluster.departing_agents()
    families += agent_metric_families(per_agent, cluster.retired_metrics)
    families += network_families(cluster.network.stats)
    if cluster.clients:
        families += serving_families(cluster.clients)
    participants = [cluster.agents[k] for k in sorted(cluster.agents)]
    participants += list(cluster.directories) + list(cluster.streamers)
    participants += list(cluster.clients)
    families += charge_families(participants)
    return families


def render_engine_metrics(engine) -> str:
    """Prometheus exposition text for one engine (see module docs)."""
    return render(engine_families(engine))
