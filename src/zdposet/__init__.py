"""Zero-divisor graphs of finite bounded posets.

Construct the graph from a poset, enumerate the facets of its
independence complex, decide well-coveredness and Cohen-Macaulayness
through a relabeling certificate, and cross-validate every verdict
against an exact rational-homology oracle.
"""

from .complexes import (
    FacetComplex,
    IndependenceComplex,
    export_edge_ideal,
    extend_independent,
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from .cmcert import (
    Analysis,
    CmVerdict,
    MyCertificate,
    OrderingOutcome,
    Stratification,
    boolean_facet,
    boolean_labeling,
    find_ordering,
    is_cohen_macaulay,
    verify_my_conditions,
)
from .errors import ZdPosetError
from .graphs import Graph
from .homology import (
    HomologyProfile,
    faces_by_dimension,
    link_of,
    reduced_betti,
    reisner_cm,
    reisner_report,
)
from .poset import Poset, ProductPoset, direct_product, generate, parse_poset
from .product import (
    BipartiteReport,
    EquivalenceReport,
    ProductAnalysis,
    bipartite_case,
    equivalence_suite,
    j_single,
    j_triple,
    predicted_counts,
    predicted_triple_size,
    sweep_report,
    validate_factors,
    well_covered_verdict,
)
from .zdg import (
    ZdGraph,
    check_atom_end_lemma,
    check_unique_complementation,
    ends,
    graph_complements,
    to_dot,
    zero_divisor_graph,
    zero_divisors,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BipartiteReport",
    "CmVerdict",
    "EquivalenceReport",
    "FacetComplex",
    "Graph",
    "HomologyProfile",
    "IndependenceComplex",
    "MyCertificate",
    "OrderingOutcome",
    "Poset",
    "ProductAnalysis",
    "ProductPoset",
    "Stratification",
    "ZdGraph",
    "ZdPosetError",
    "bipartite_case",
    "boolean_facet",
    "boolean_labeling",
    "check_atom_end_lemma",
    "check_unique_complementation",
    "direct_product",
    "ends",
    "equivalence_suite",
    "export_edge_ideal",
    "extend_independent",
    "faces_by_dimension",
    "find_ordering",
    "generate",
    "graph_complements",
    "independence_complex",
    "is_cohen_macaulay",
    "is_very_well_covered",
    "is_well_covered",
    "j_single",
    "j_triple",
    "link_of",
    "parse_poset",
    "predicted_counts",
    "predicted_triple_size",
    "reduced_betti",
    "reisner_cm",
    "reisner_report",
    "sweep_report",
    "to_dot",
    "validate_factors",
    "verify_my_conditions",
    "well_covered_verdict",
    "zero_divisor_graph",
    "zero_divisors",
]
