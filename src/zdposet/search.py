"""The labeling search: the matching-search route of ``Analysis.verdict``.

For a very well-covered graph that is not a Boolean poset's, the search
tries every facet as the independent side and every edge matching
against its complement, orders each complete matching so that cross
edges run forward (``find_ordering``) and verifies the five conditions.
``Analysis.verdict`` imports this module on that route alone.
"""

from __future__ import annotations

from typing import Sequence

from .cmcert import CmVerdict, MyCertificate, Pair, _pair_table, verify_my_conditions
from .graphs import Graph
from .order import bits


def complement_mask(nbr: list[int], row: int) -> int:
    """The positions in a vertex's adjacency ``row`` that share no neighbour
    with it: its neighbours w such that the edge v-w lies in no triangle."""
    return sum(1 << j for j in bits(row) if not row & nbr[j])


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


def _search_certificate(G: Graph, facets: Sequence[int], budget: int) -> CmVerdict:
    """Backtracking search for a passing labeling of a very well-covered graph.

    Exhausts every facet (a mask over ``G``'s vertex positions, tried in
    the given order) as the independent side and every edge-matching
    against its complement; prunes partial matchings that already violate
    condition (d) or contain an unorderable two-cycle of cross edges.
    Works on vertex positions: x_t is the t-th position outside the facet,
    and ``tox`` is the pair table of these x's.
    """
    nbr, V = G.nbr, G.vertices
    nodes = 0
    exhausted = False

    for ymask in facets:
        X = [x for x in range(len(V)) if not ymask >> x & 1]
        tox = _pair_table(nbr, X)
        candidates = []
        for x in X:
            comps = complement_mask(nbr, nbr[x]) & ymask
            candidates.append([*bits(comps), *bits(nbr[x] & ymask & ~comps)])

        ys: list[int] = []
        used = 0

        def backtrack(idx: int) -> MyCertificate | None:
            nonlocal nodes, exhausted, used
            if exhausted:
                return None
            if idx == len(X):
                pairs = find_ordering(G, [(V[x], V[y]) for x, y in zip(X, ys)])
                if pairs is None:
                    return None
                cert = verify_my_conditions(G, pairs)
                return cert if cert.ok else None
            x = X[idx]
            # earlier pairs t with x ~ x_t, and with x ~ y_t
            to_x = tox[x] & ((1 << idx) - 1)
            to_y = sum(1 << t for t, y2 in enumerate(ys) if nbr[x] >> y2 & 1)
            for y in candidates[idx]:
                if used >> y & 1:
                    continue
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return None
                # earlier pairs t with y ~ x_t; a pair in two of the three
                # sets breaks (d) or closes a two-cycle of cross edges
                from_y = tox[y] & ((1 << idx) - 1)
                if to_y & (to_x | from_y) or from_y & to_x:
                    continue
                ys.append(y)
                used |= 1 << y
                found = backtrack(idx + 1)
                if found is not None:
                    return found
                ys.pop()
                used ^= 1 << y
            return None

        cert = backtrack(0)
        if cert is not None:
            return CmVerdict("CM", "matching-search", cert)
        if exhausted:
            return CmVerdict(
                "Inconclusive",
                "matching-search",
                None,
                f"search budget of {budget} nodes exhausted",
            )
    return CmVerdict(
        "NotCM",
        "matching-search",
        None,
        "no labeling satisfies all five conditions (search was exhaustive)",
    )
