"""The five-condition relabeling certificate: its records, the Boolean
labeling and the verification of the conditions.

The certificate pairs a minimal vertex cover {x_1..x_h} with a maximal
independent set {y_1..y_h}, matched along edges and ordered so that cross
edges x_i - y_j only run forward (i <= j).  For Boolean posets the pairs
come from the canonical facet by atom weight, each member matched to its
complement (``boolean_labeling``); ``search`` builds them on the other
very well-covered graphs.  Only those two routes of ``Analysis.verdict``
load this module.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ZdPosetError
from .graphs import Graph, Vertex
from .order import Poset, bits
from .zdg import ZdGraph

Pair = tuple[Vertex, Vertex]


class ConditionStatus(NamedTuple):
    ok: bool
    witness: tuple[str, ...] | None = None


class MyCertificate(NamedTuple):
    """An ordered pairing plus the per-condition verification outcome."""

    pairs: tuple[Pair, ...]
    pair_names: tuple[tuple[str, str], ...]
    h: int
    conditions: tuple[tuple[str, ConditionStatus], ...]

    @property
    def ok(self) -> bool:
        return all(status.ok for _, status in self.conditions)


def require_boolean(P: Poset) -> None:
    if not P.is_boolean():
        from .lattice import boolean_failure  # the clauses load only to name one

        raise ZdPosetError(f"poset is not Boolean: {boolean_failure(P)}")


def boolean_labeling(P: Poset, G: ZdGraph) -> tuple[Pair, ...]:
    """The ordered (x_i, y_i) pairs of a Boolean poset's graph G.

    For k atoms the facet holds each vertex y with 2|supp(y)| > k and the
    smaller id of each complementary pair with 2|supp| = k, by decreasing
    weight, then id; x_i is the complement of y_i, the one vertex whose
    support is the atoms outside supp(y_i).
    """
    require_boolean(P)
    k, supp = P.poset_weight(), P.supports
    by_support = {supp[v]: v for v in G.vertices}
    out = []
    for y in sorted(G.vertices, key=lambda v: (-supp[v].bit_count(), v)):
        x, w = by_support[P.atoms_mask ^ supp[y]], 2 * supp[y].bit_count()
        if w > k or (w == k and y < x):
            out.append((x, y))
    return tuple(out)


def _pair_table(nbr: list[int], ends: Sequence[int]) -> list[int]:
    """Row v: the mask of pair indices j with v adjacent to ``ends[j]``."""
    table = [0] * len(nbr)
    for j, e in enumerate(ends):
        for v in bits(nbr[e]):
            table[v] |= 1 << j
    return table


def verify_my_conditions(G: Graph, pairs: Sequence[Pair]) -> MyCertificate:
    """Check the five certificate conditions, with witnesses.

    The pairs must use each vertex of G exactly once; condition (e) is the
    only one sensitive to their order.  Each condition is a mask test on
    the pair tables ``tox``/``toy``; a witness is the lowest offending
    index, the first one a loop over (i, z, j, k) would meet.
    """
    h = len(pairs)
    flat = [v for pair in pairs for v in pair]
    if len(set(flat)) != 2 * h or set(flat) != set(G.vertices):
        raise ZdPosetError("the pairs do not partition the vertex set of the graph")
    nbr = G.nbr
    xs = [G.index[x] for x, _ in pairs]
    ys = [G.index[y] for _, y in pairs]
    tox, toy = _pair_table(nbr, xs), _pair_table(nbr, ys)
    name = lambda i: G.label(G.vertices[i])

    conditions: list[tuple[str, ConditionStatus]] = []

    # (a) cover side is a minimal vertex cover, independent side a facet;
    # Y = V - X, so Y is independent iff X is a cover, maximal iff X is minimal.
    # The first y with a y-neighbour has only later ones: it starts the
    # first uncovered edge.
    witness_a = None
    ymask = sum(1 << y for y in ys)
    for u in bits(ymask):
        if nbr[u] & ymask:
            witness_a = (name(u), name(next(bits(nbr[u] & ymask))))
            break
    if witness_a is None:
        for x in xs:
            if not nbr[x] & ymask:
                witness_a = (name(x),)
                break
    conditions.append(("a", ConditionStatus(witness_a is None, witness_a)))

    # (b) matched pairs are edges
    witness_b = None
    for i, x in enumerate(xs):
        if not toy[x] >> i & 1:
            witness_b = (name(x), name(ys[i]))
            break
    conditions.append(("b", ConditionStatus(witness_b is None, witness_b)))

    # (c) transitivity through a matched pair, for distinct indices: z ~ x_j
    # and y_j ~ x_k force z ~ x_k
    witness_c = None
    for i in range(h):
        for z in (xs[i], ys[i]):
            for j in bits(tox[z] & ~(1 << i)):
                bad = tox[ys[j]] & ~tox[z] & ~(1 << i | 1 << j)
                if bad:
                    witness_c = (name(z), name(xs[j]), name(xs[next(bits(bad))]))
                    break
            if witness_c:
                break
        if witness_c:
            break
    conditions.append(("c", ConditionStatus(witness_c is None, witness_c)))

    # (d) a cross edge x_i - y_j forbids the edge x_i - x_j
    witness_d = None
    for x in xs:
        bad = toy[x] & tox[x]
        if bad:
            j = next(bits(bad))
            witness_d = (name(x), name(ys[j]), name(xs[j]))
            break
    conditions.append(("d", ConditionStatus(witness_d is None, witness_d)))

    # (e) cross edges only run forward
    witness_e = None
    for i, x in enumerate(xs):
        bad = toy[x] & ((1 << i) - 1)
        if bad:
            witness_e = (name(x), name(ys[next(bits(bad))]))
            break
    conditions.append(("e", ConditionStatus(witness_e is None, witness_e)))

    pair_names = tuple((name(x), name(y)) for x, y in zip(xs, ys))
    return MyCertificate(tuple(pairs), pair_names, h, tuple(conditions))
