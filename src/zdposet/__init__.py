"""Zero-divisor graphs of finite bounded posets.

Construct the graph from a poset, enumerate the facets of its
independence complex, decide well-coveredness and Cohen-Macaulayness
through a relabeling certificate, and cross-validate every verdict
against Reisner's criterion with exact rational homology.  The one
complex type is ``IndependenceComplex``: every complex here is the
independence complex of a graph.

Importing the package loads none of its layers: each exported name
loads its module on first access, through one name-to-module table (PEP
562), and ``from zdposet import *`` loads them all.  Without cached
bytecode a run compiles every module it loads, so this keeps short runs
short.  The order core (``bits``, ``Poset``, ``parse_poset``) lives in
``order``; ``poset`` adds the catalog and the products, and re-exports
the core.  The result records (``CmVerdict``, ``MyCertificate``,
``ConditionStatus``, ``Stratification``, ``PredictedCounts``,
``TheoremCheck``) are named tuples: immutable, and usable as plain
tuples (``len``, indexing, iteration, comparison).
"""

import importlib

__version__ = "0.1.0"

# each exported name, under the module that defines it
_EXPORTS = {
    "cmcert": "Analysis CmVerdict MyCertificate Stratification boolean_facet "
    "boolean_labeling is_cohen_macaulay verify_my_conditions",
    "complexes": "IndependenceComplex export_edge_ideal independence_complex "
    "is_very_well_covered is_well_covered",
    "errors": "ZdPosetError",
    "graphs": "Graph",
    "homology": "faces_by_dimension reisner_cm",
    "order": "Poset parse_poset",
    "poset": "ProductPoset direct_product generate",
    "product": "ProductAnalysis TheoremCheck j_single j_triple predicted_counts "
    "predicted_triple_size product_theorem sweep_report validate_factors "
    "well_covered_verdict",
    "search": "find_ordering",
    "zdg": "ZdGraph to_dot zero_divisor_graph zero_divisors",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # only names not yet bound get here: load the defining module, and
    # bind the name so later lookups skip this hook
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
