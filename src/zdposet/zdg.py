"""Zero-divisor graphs of posets.

The graph of a poset with least element 0 has the nonzero zero-divisors
as vertices, two being adjacent exactly when their lower cone is {0}.
"""

from __future__ import annotations

from .errors import ZdPosetError
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


def zero_divisors(P: Poset) -> frozenset[int]:
    """Ids of all a admitting a nonzero b with lower cone {a,b} = {0}."""
    bot = P._require_bottom()
    nonzero = P.full_mask & ~(1 << bot)
    return frozenset(
        a for a in range(len(P)) if P.perp_mask(a) & nonzero
    )


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


def require_boolean(P: Poset) -> None:
    if not P.is_boolean():
        from .lattice import boolean_failure  # the clauses load only to name one

        raise ZdPosetError(f"poset is not Boolean: {boolean_failure(P)}")
