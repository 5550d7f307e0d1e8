"""Zero-divisor graphs of posets and their structural lemma checks.

The graph of a poset with least element 0 has the nonzero zero-divisors
as vertices, two being adjacent exactly when their lower cone is {0}.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotBooleanError, TheoremContractError
from .graphs import Graph
from .poset import Poset, bits


class ZdGraph(Graph):
    """A materialized zero-divisor graph; keeps the source poset around.

    Built from adjacency rows already indexed by vertex position, so it
    skips the edge list that ``Graph`` takes.
    """

    def __init__(self, owner: Poset, vertices: tuple[int, ...], nbr: list[int]):
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self.nbr = nbr
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


def graph_complements(G: Graph, v) -> frozenset:
    """Neighbors w of v such that the edge v-w lies in no triangle."""
    return frozenset(G.vertices[j] for j in bits(complement_mask(G.nbr, G._row(v))))


def ends(G: Graph) -> frozenset:
    """Vertices of degree exactly one."""
    return frozenset(v for v in G.vertices if G.degree(v) == 1)


class LemmaReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def require_boolean(P: Poset) -> None:
    reason = P.boolean_failure
    if reason is not None:
        raise NotBooleanError(f"poset is not Boolean: {reason}")


def check_unique_complementation(P: Poset, G: ZdGraph) -> LemmaReport:
    """Every vertex must have exactly one graph complement, equal to its
    order-theoretic complement."""
    require_boolean(P)
    violations = []
    for v in G.vertices:
        gc = graph_complements(G, v)
        oc = P.complements_of(v)
        if len(oc) != 1:
            raise TheoremContractError("Boolean posets are uniquely complemented")
        (c,) = oc
        if gc != {c}:
            got = ",".join(P.names(gc)) or "(none)"
            violations.append(
                f"{P.elements[v]}: graph complements {{{got}}} != "
                f"order complement {P.elements[c]}"
            )
    return LemmaReport(not violations, tuple(violations))


def check_atom_end_lemma(P: Poset, G: ZdGraph) -> LemmaReport:
    """A vertex is an atom iff its complement is the unique end adjacent to it."""
    require_boolean(P)
    atoms = P.atoms()
    end_set = ends(G)
    violations = []
    for b in G.vertices:
        (c,) = P.complements_of(b)
        ends_at_b = end_set & G.neighbors(b)
        if b in atoms:
            if ends_at_b != {c}:
                got = ",".join(P.names(ends_at_b)) or "(none)"
                violations.append(
                    f"atom {P.elements[b]}: adjacent ends {{{got}}} != "
                    f"complement {P.elements[c]}"
                )
        elif c in end_set and G.adjacent(b, c):
            violations.append(
                f"{P.elements[b]} is not an atom but its complement "
                f"{P.elements[c]} is an adjacent end"
            )
    return LemmaReport(not violations, tuple(violations))


def to_dot(G: ZdGraph) -> str:
    """Deterministic DOT text: edges sorted by (min id, max id), one per line."""
    lines = ["graph zdg {"]
    for a, b in G.edges():
        lines.append(f'  "{G.label(a)}" -- "{G.label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
