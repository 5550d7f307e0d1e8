"""Zero-divisor graphs of finite bounded posets.

Construct the graph from a poset, enumerate the facets of its
independence complex, decide well-coveredness and Cohen-Macaulayness
through a relabeling certificate, and cross-validate every verdict
against Reisner's criterion with exact rational homology.  The one
complex type is ``IndependenceComplex``: every complex here is the
independence complex of a graph.

Import each name from the module that defines it (the order core,
``Poset`` and ``parse_poset``, from ``order``); the package binds only
``__version__``, so ``import zdposet`` loads none of its layers.  The
result records (``CmVerdict``, ``TheoremCheck`` and the like) are named
tuples.
"""

__version__ = "0.1.0"
