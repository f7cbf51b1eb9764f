"""Spectral machinery for natural connectivity (paper Section 5).

Natural connectivity is ``lambda(G) = ln(tr(e^A)/n)`` (Eq. 5). Computing
it exactly needs a full eigendecomposition; this package provides

* :func:`~repro.spectral.connectivity.natural_connectivity_exact` — the
  dense reference ("Eigen NumPy" column of Table 2),
* :class:`~repro.spectral.connectivity.NaturalConnectivityEstimator` —
  Lanczos + Hutchinson estimation with common random probes (Sec. 5.1),
* :func:`~repro.spectral.gains.block_lanczos_gains` — probe-free
  connectivity gains from a block Lanczos run started at the stops a set
  of new edges touches,
* the three upper bounds of Section 5.2 (Estrada / Lemma 3 / Lemma 4) in
  :mod:`repro.spectral.bounds`.
"""

from repro.spectral.alt_measures import (
    algebraic_connectivity,
    edge_connectivity,
    laplacian,
)
from repro.spectral.batch import batched_expm_traces
from repro.spectral.bounds import (
    estrada_upper_bound,
    general_upper_bound,
    path_upper_bound,
    path_upper_bound_increment,
)
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_exact,
)
from repro.spectral.eigs import top_k_eigenvalues
from repro.spectral.gains import block_lanczos_gains
from repro.spectral.hutchinson import hutchinson_trace, sample_probes
from repro.spectral.lanczos import (
    lanczos_expm_quadrature,
    lanczos_tridiagonalize,
)
from repro.spectral.norms import spectral_norm
from repro.spectral.path_graph import path_graph_adjacency, path_graph_eigenvalues

__all__ = [
    "algebraic_connectivity",
    "batched_expm_traces",
    "block_lanczos_gains",
    "edge_connectivity",
    "laplacian",
    "estrada_upper_bound",
    "general_upper_bound",
    "path_upper_bound",
    "path_upper_bound_increment",
    "NaturalConnectivityEstimator",
    "natural_connectivity_exact",
    "top_k_eigenvalues",
    "hutchinson_trace",
    "sample_probes",
    "lanczos_expm_quadrature",
    "lanczos_tridiagonalize",
    "spectral_norm",
    "path_graph_adjacency",
    "path_graph_eigenvalues",
]
