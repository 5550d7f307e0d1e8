"""The matching-search route of ``Analysis.verdict``, which imports this
module on that route alone: twins rule Cohen-Macaulayness out, and on a
twin-free very well-covered graph one labeling, matched, ordered and
verified, certifies it.  README ("Very well-covered graphs") proves each
step but the matching's existence, which it cites; a step that fails
raises ``TheoremContractError``.
"""

from __future__ import annotations

from typing import Sequence

from .cmcert import CmVerdict, Pair, _pair_table, verify_my_conditions
from .errors import TheoremContractError
from .graphs import Graph
from .order import bits


def twin_pair(G: Graph) -> tuple[int, int] | None:
    """The first two vertex positions with equal adjacency rows, or None.
    Twins are never adjacent: a row holds no loop."""
    first: dict[int, int] = {}
    for i, row in enumerate(G.nbr):
        if (j := first.setdefault(row, i)) != i:
            return j, i
    return None


def find_ordering(G: Graph, matching: Sequence[Pair]) -> tuple[Pair, ...] | None:
    """Order a matching so cross edges run forward, if possible.

    Builds the digraph p -> q whenever x_p is adjacent to y_q and returns
    the pairs in a topological order, always taking the lowest ready pair;
    None when the digraph has a cycle.
    """
    tox = _pair_table(G.nbr, [G.index[x] for x, _ in matching])
    pred = [tox[G.index[y]] & ~(1 << q) for q, (_, y) in enumerate(matching)]
    left = (1 << len(matching)) - 1
    order: list[int] = []
    while ready := [q for q in bits(left) if not pred[q] & left]:
        order.append(ready[0])
        left ^= 1 << ready[0]
    return None if left else tuple(matching[p] for p in order)


def matching_certificate(G: Graph, facet: int) -> CmVerdict:
    """Decide a very well-covered graph, given one facet's position mask:
    NotCM when it has twins, which the detail names, and otherwise CM with
    the certificate that matches the rest into ``facet`` by augmenting paths."""
    V, nbr = G.vertices, G.nbr
    if twins := twin_pair(G):
        u, w = (G.label(V[i]) for i in twins)
        return CmVerdict(
            "NotCM",
            "matching-search",
            None,
            f"{u} and {w} have the same neighbours; twins rule Cohen-Macaulayness out",
        )
    mate: dict[int, int] = {}  # a position in the facet -> the one matched to it

    def augment(x: int, seen: set[int]) -> bool:
        for y in bits(nbr[x] & facet):
            if y not in seen:
                seen.add(y)
                if y not in mate or augment(mate[y], seen):
                    mate[y] = x
                    return True
        return False

    if not all(augment(x, set()) for x in range(len(V)) if not facet >> x & 1):
        raise TheoremContractError(
            "a twin-free very well-covered graph has no perfect matching "
            "between a facet and its complement"
        )
    pairs = find_ordering(G, sorted((V[x], V[y]) for y, x in mate.items()))
    if pairs is None:
        raise TheoremContractError(
            "cross edges close a cycle on a twin-free very well-covered graph"
        )
    cert = verify_my_conditions(G, pairs)
    if not cert.ok:
        raise TheoremContractError(
            "the matching certificate fails on a twin-free very well-covered graph: "
            + ", ".join(f"({name}) {st.witness}" for name, st in cert.conditions if not st.ok)
        )
    return CmVerdict("CM", "matching-search", cert)
