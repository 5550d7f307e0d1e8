"""Zero-divisor graphs of posets.

The graph of a poset with least element 0 has the nonzero zero-divisors
as vertices, two being adjacent exactly when their lower cone is {0}.
"""

from __future__ import annotations

from .graphs import Graph
from .order import Poset, bits


class ZdGraph(Graph):
    """A materialized zero-divisor graph; keeps the source poset around."""

    def __init__(self, owner: Poset, vertices: tuple[int, ...], nbr: list[int]):
        super().__init__(vertices, nbr)
        self.owner = owner

    def label(self, v: int) -> str:
        """The poset element's name."""
        return self.owner.elements[v]


def zero_divisor_graph(P: Poset) -> ZdGraph:
    """Graph on the nonzero zero-divisors; empty when Z(P) = {0}.

    One ``perp_mask`` per nonzero element gives both the vertex set and
    the adjacency rows: a neighbor of a vertex is itself a vertex.
    """
    bot = P._require_bottom()
    nonzero = P.full_mask & ~(1 << bot)
    perp = {a: P.perp_mask(a) & nonzero for a in bits(nonzero)}
    verts = tuple(a for a in perp if perp[a])
    pos = {a: i for i, a in enumerate(verts)}
    nbr = [sum(1 << pos[b] for b in bits(perp[a])) for a in verts]
    return ZdGraph(P, verts, nbr)

