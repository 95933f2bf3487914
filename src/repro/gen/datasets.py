"""The Table 2 dataset registry, downscaled.

Each entry mirrors one row of Table 2 of the paper: name, family,
paper-scale vertex/edge counts, the A-BTER scale-up factor used there
(if any), and the published edge-list size.  ``generate`` produces a
synthetic stand-in at roughly 10⁻⁴ linear scale — capped so the largest
graphs stay around a quarter-million edges — using the family's
generator with a skew exponent matched to the family.

For rows the paper built with A-BTER (e.g. Gowalla ×10000) we generate
the *already-scaled* distribution directly; the A-BTER scaling
methodology itself is exercised and validated by the Figure 4 benchmark
(`benchmarks/bench_fig04_abter_fidelity.py`), which scales LiveJournal
×1/×10/×100 through :func:`repro.gen.bter.bter_scale` exactly as the
paper does.

EXPERIMENTS.md records the paper-scale vs generated-scale mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.gen.powerlaw import powerlaw_graph
from repro.gen.rmat import rmat_graph

# Zipf exponents per graph family: lower = heavier head.  Chosen to
# reflect the families' well-known skew ordering (web crawls and email
# are the most skewed; citation and purchase graphs the flattest).
FAMILY_ALPHA: Dict[str, float] = {
    "social": 2.10,
    "web": 2.05,
    "purchase": 2.50,
    "location": 2.30,
    "citation": 2.70,
    "email": 2.15,
    "datagen-fb": 2.30,
    "datagen-zf": 2.40,
}

# Target cap on generated edges so the full registry loads in seconds.
_MAX_BASE_EDGES = 250_000
_DEFAULT_LINEAR_SCALE = 1e-4


class GraphData(NamedTuple):
    """A generated dataset: edge arrays, vertex-id space, and its spec."""

    us: np.ndarray
    vs: np.ndarray
    n: int
    spec: "DatasetSpec"


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 2.

    Attributes
    ----------
    name:
        Dataset label as it appears in the paper.
    family:
        Generator family key (see :data:`FAMILY_ALPHA`, or ``rmat``).
    paper_n, paper_m:
        Vertex/edge counts at paper scale.
    abter_scale:
        The ×N A-BTER factor from Table 2, or ``None`` for graphs used
        at original scale.
    el_size_gb:
        Published edge-list size in GB (documentation only).
    """

    name: str
    family: str
    paper_n: float
    paper_m: float
    abter_scale: Optional[int] = None
    el_size_gb: float = 0.0

    @property
    def downscale(self) -> float:
        """Linear factor applied to paper sizes for the base generation."""
        return min(_DEFAULT_LINEAR_SCALE, _MAX_BASE_EDGES / self.paper_m)

    @property
    def base_n(self) -> int:
        return max(500, int(round(self.paper_n * self.downscale)))

    @property
    def base_m(self) -> int:
        return max(2_000, int(round(self.paper_m * self.downscale)))

    def generate(self, scale: float = 1.0, seed: int = 0) -> GraphData:
        """Generate the downscaled stand-in.

        Parameters
        ----------
        scale:
            Extra multiplier on the base size (benchmarks use < 1 for
            quick sweeps and > 1 for weak-scaling series).
        seed:
            Generator seed; different seeds give independent trials.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        n = max(64, int(round(self.base_n * scale)))
        m = max(256, int(round(self.base_m * scale)))
        if self.family == "rmat":
            log_n = max(6, int(round(math.log2(n))))
            edge_factor = max(1, int(round(m / (1 << log_n))))
            us, vs, n_out = rmat_graph(log_n, edge_factor=edge_factor, seed=seed)
        else:
            alpha = FAMILY_ALPHA[self.family]
            us, vs, n_out = powerlaw_graph(n, m, alpha=alpha, seed=seed)
        return GraphData(us=us, vs=vs, n=n_out, spec=self)


def _spec(name, family, n, m, abter=None, el=0.0) -> DatasetSpec:
    return DatasetSpec(
        name=name, family=family, paper_n=n, paper_m=m, abter_scale=abter, el_size_gb=el
    )


DATASETS: Dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        _spec("twitter-2010", "social", 42e6, 1.5e9, el=25),
        _spec("friendster", "social", 65e6, 1.8e9, el=31),
        _spec("uk-2007-05", "web", 105e6, 3.7e9, el=63),
        _spec("datagen-9.3-zf", "datagen-zf", 555e6, 1.3e9, el=34),
        _spec("datagen-9.4-fb", "datagen-fb", 29e6, 2.6e9, el=65),
        _spec("email-euall", "email", 1.3e9, 5.6e9, abter=5000, el=105),
        _spec("skitter", "web", 339e6, 6.3e9, abter=200, el=119),
        _spec("livejournal", "social", 484e6, 8.6e9, abter=100, el=161),
        _spec("amazon0601", "purchase", 807e6, 9.8e9, abter=2000, el=183),
        _spec("graph500-30", "rmat", 448e6, 17e9, el=319),
        _spec("gowalla", "location", 2.0e9, 28e9, abter=10000, el=568),
        _spec("patents", "citation", 3.7e9, 33e9, abter=1000, el=673),
        _spec("pokec-x1000", "social", 1.6e9, 44e9, abter=1000, el=898),
        _spec("pokec-x2500", "social", 4.0e9, 112e9, abter=2500, el=2300),
    ]
}
"""All 14 rows of Table 2, keyed by name."""


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> GraphData:
    """Generate a registry dataset by name.

    Examples
    --------
    >>> data = load_dataset("twitter-2010", scale=0.05, seed=1)
    >>> data.spec.family
    'social'
    """
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}") from None
    return spec.generate(scale=scale, seed=seed)
