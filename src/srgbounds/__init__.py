"""Exact clique-number bounds for strongly regular and edge-regular graphs.

Key entry points:
  * quadext.QuadExt       exact arithmetic in Q(sqrt(d))
  * srg                   parameter tuples, spectra, feasibility
  * cab                   clique adjacency / Delsarte / Hoffman bounds
  * identities            symbolic verification of the bound identities
  * graphs                Paley graphs, the distance-3 fixture, max clique
  * catalog               feasible-tuple scans and emitters

Importing the package loads only srg and cab.  QuadExt and the nine graph
names (CliqueResult, Graph, paley, max_clique, ...) load on first access,
which imports quadext or graphs then.  They stay in __all__ and dir(), so
`from srgbounds import *` still binds them.
"""

import importlib

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
    thm21_applies,
)

# names served on first access by __getattr__ (PEP 562), with their modules
_LAZY = {"QuadExt": "quadext"} | dict.fromkeys(
    ("CliqueResult", "Graph", "heawood_line_distance3", "is_edge_regular",
     "is_strongly_regular", "line_graph", "distance_graph", "max_clique", "paley"),
    "graphs",
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


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
    "thm21_applies",
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
