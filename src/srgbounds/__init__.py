"""Exact clique-number bounds for strongly regular and edge-regular graphs.

Key entry points:
  * quadext.QuadExt       exact arithmetic in Q(sqrt(d))
  * srg                   parameter tuples, spectra, feasibility
  * cab                   clique adjacency / Delsarte / Hoffman bounds
  * identities            symbolic verification of the bound identities
  * graphs                Paley graphs, the distance-3 fixture, max clique
  * catalog               feasible-tuple scans and emitters
"""

from .quadext import QuadExt
from .srg import (
    EdgeRegularParams,
    FeasibilityLevel,
    Spectrum,
    SrgParams,
    SrgType,
    classify,
    complement,
    is_feasible,
    spectrum,
)
from .cab import (
    BoundsReport,
    CabWitness,
    cab,
    cap_value,
    cap_min_over_b,
    delsarte_bound,
    full_report,
    hoffman_clique_bound,
    improved_bound,
    thm21_applies,
    thm22_applies,
    thm51_predicate,
    trivial_bound,
)
from .graphs import (
    CliqueResult,
    Graph,
    heawood_line_distance3,
    is_edge_regular,
    is_strongly_regular,
    line_graph,
    distance_graph,
    max_clique,
    paley,
)

__version__ = "0.1.0"

__all__ = [
    "QuadExt",
    "EdgeRegularParams",
    "FeasibilityLevel",
    "Spectrum",
    "SrgParams",
    "SrgType",
    "classify",
    "complement",
    "is_feasible",
    "spectrum",
    "BoundsReport",
    "CabWitness",
    "cab",
    "cap_value",
    "cap_min_over_b",
    "delsarte_bound",
    "full_report",
    "hoffman_clique_bound",
    "improved_bound",
    "thm21_applies",
    "thm22_applies",
    "thm51_predicate",
    "trivial_bound",
    "CliqueResult",
    "Graph",
    "heawood_line_distance3",
    "is_edge_regular",
    "is_strongly_regular",
    "line_graph",
    "distance_graph",
    "max_clique",
    "paley",
]
