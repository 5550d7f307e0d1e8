"""Zero-divisor graphs of posets, their graph complements, and DOT output.

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


def complement_mask(nbr: list[int], row: int) -> int:
    """The positions in a vertex's adjacency ``row`` that share no neighbour
    with it: its neighbours w such that the edge v-w lies in no triangle."""
    return sum(1 << j for j in bits(row) if not row & nbr[j])


def require_boolean(P: Poset) -> None:
    reason = P.boolean_failure
    if reason is not None:
        raise ZdPosetError(f"poset is not Boolean: {reason}")


def to_dot(G: ZdGraph) -> str:
    """Deterministic DOT text: edges sorted by (min id, max id), one per
    line, each name a quoted ID with its backslashes and quotes escaped."""
    quote = lambda v: '"' + G.label(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = ["graph zdg {"]
    for a, b in G.edges():
        lines.append(f"  {quote(a)} -- {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
