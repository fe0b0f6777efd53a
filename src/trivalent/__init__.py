"""Exact counting and classification of finite-index subgroups of the
modular group (and of the free product of Z with Z/2Z) through a calculus of
trivalent diagrams: finite sets of arcs acted on by a rotation and an
involution.

The main entry points:

- `series`: exact truncated power series and the Euler/Moebius transforms;
- `cycleindex`: cycle types (tuples of (length, multiplicity) pairs) and
  the commuting fixed-point counts that make up the factored cycle indices;
- `diagram`: the diagram data model, whose `Diagram` values are connected
  by construction, and its decision procedures: inclusion through
  `pointed_morphism`, conjugacy through `canonical_code`, normality through
  `is_normal`;
- `census`: exhaustive brute-force enumeration at small size;
- `counting`: the generating-series pipelines (subgroup counts, conjugacy
  class counts by the fast factored route and by the dense Burnside
  oracle);
- `cli`: the `trivalent` command-line tool.
"""

from .series import (
    TruncSeries,
    euler_transform,
    inverse_euler_transform,
    moebius_mu,
)
from .cycleindex import count_commuting_order_p
from .diagram import (
    BicoloredGraph,
    Diagram,
    DiagramParseError,
    PointedDiagram,
    automorphism_order,
    automorphisms,
    barycentric_graph,
    canonical_code,
    canonical_representative,
    is_normal,
    parse_diagram_text,
    pointed_morphism,
)
from .census import CensusReport, enumerate_size
from .counting import (
    conjugacy_class_series,
    conjugacy_class_series_dense,
    disconnected_egf,
    disconnected_egf_by_recurrence,
    subgroup_series,
)

__version__ = "0.1.0"

__all__ = [
    "TruncSeries",
    "euler_transform",
    "inverse_euler_transform",
    "moebius_mu",
    "count_commuting_order_p",
    "BicoloredGraph",
    "Diagram",
    "DiagramParseError",
    "PointedDiagram",
    "automorphism_order",
    "automorphisms",
    "barycentric_graph",
    "canonical_code",
    "canonical_representative",
    "is_normal",
    "parse_diagram_text",
    "pointed_morphism",
    "CensusReport",
    "enumerate_size",
    "conjugacy_class_series",
    "conjugacy_class_series_dense",
    "disconnected_egf",
    "disconnected_egf_by_recurrence",
    "subgroup_series",
]
