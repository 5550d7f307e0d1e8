"""Independence complexes: facet enumeration and coveredness.

Facets (maximal independent sets) are enumerated with Bron-Kerbosch on
the complement graph, over vertex-index bitmasks, and stay bitmasks.
Facets are kept in the lexicographic order of their vertex tuples, so
all downstream output is reproducible bit for bit.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import SizeLimitExceededError, ZdPosetError
from .graphs import Graph, Vertex
from .order import bits

DEFAULT_MAX_VERTICES = 40
# the homology oracle's cap, kept here so that the CLI reads it without
# compiling ``homology``
DEFAULT_MAX_HOMOLOGY_VERTICES = 20

# the printed form of a verdict status, in check's CM(MY) line and sweep's CM cell
STATUS_TEXT = {"CM": "yes", "NotCM": "no", "Inconclusive": "inconclusive"}


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


class IndependenceComplex:
    """The independence complex of ``graph``, the package's one complex.

    ``masks`` holds its facets, the maximal independent sets, as bitmasks
    over the positions of ``graph.vertices``, in the lexicographic order
    of their position tuples; every vertex lies in one, so the complex
    and the graph share ``vertices``.
    """

    def __init__(self, graph: Graph, masks: Iterable[int]):
        self.graph = graph
        self.vertices: tuple[Vertex, ...] = graph.vertices
        self.masks: tuple[int, ...] = tuple(sorted(masks, key=lambda m: tuple(bits(m))))

    def vertices_of(self, mask: int) -> tuple[Vertex, ...]:
        """The sorted vertex tuple of a face mask."""
        return tuple(self.vertices[i] for i in bits(mask))

    @cached_property
    def facets(self) -> tuple[tuple[Vertex, ...], ...]:
        return tuple(self.vertices_of(m) for m in self.masks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.masks)} facets)"


def _maximal_independent_masks(nbr: list[int], n: int) -> list[int]:
    # Bron-Kerbosch with pivoting on the complement graph: maximal cliques
    # there are exactly the maximal independent sets here.
    full = (1 << n) - 1
    comp = [~nbr[i] & full & ~(1 << i) for i in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(bits(p | x), key=lambda u: (p & comp[u]).bit_count())
        for v in bits(p & ~comp[pivot]):
            vbit = 1 << v
            expand(r | vbit, p & comp[v], x & comp[v])
            p &= ~vbit
            x |= vbit

    expand(0, full, 0)
    return out


def independence_complex(
    G: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> IndependenceComplex:
    """Enumerate all maximal independent sets of G exhaustively."""
    n = len(G.vertices)
    if n > max_vertices:
        raise SizeLimitExceededError(
            f"{n} vertices exceed the facet-enumeration cap {max_vertices}"
        )
    return IndependenceComplex(G, _maximal_independent_masks(G.nbr, n))


def is_well_covered(C: IndependenceComplex) -> bool:
    """True when every facet has the same cardinality."""
    if not C.masks:
        raise ZdPosetError("complex has no facets")
    return len({m.bit_count() for m in C.masks}) == 1


def is_very_well_covered(C: IndependenceComplex) -> bool:
    """Well-covered, no isolated vertices, and |V| twice the facet size."""
    if not is_well_covered(C):
        return False
    if C.graph.has_isolated_vertex():
        return False
    return len(C.graph.vertices) == 2 * C.masks[0].bit_count()
