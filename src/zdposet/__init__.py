"""Zero-divisor graphs of finite bounded posets.

Construct the graph from a poset, enumerate the facets of its
independence complex, decide well-coveredness and Cohen-Macaulayness
through a relabeling certificate, and cross-validate every verdict
against an exact rational-homology oracle.

Importing the package loads the core layers (poset, graphs, complexes,
homology, zdg, cmcert).  The product layer loads on first access to one
of its names, or through ``from zdposet import *``; only ``zdposet
sweep`` runs it.  The result records (``CmVerdict``, ``MyCertificate``,
``ConditionStatus``, ``Stratification``, ``OrderingOutcome``,
``HomologyProfile``, ``LemmaReport``, ``PredictedCounts``,
``EquivalenceReport``, ``BipartiteReport``) are named tuples: immutable,
and usable as plain tuples (``len``, indexing, iteration, comparison).
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


def __getattr__(name: str):
    # only names that no import above binds get here: the exported ones
    # are the product layer's, which loads on first access (PEP 562)
    if name in __all__:
        from . import product

        return getattr(product, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
