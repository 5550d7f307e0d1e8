"""Definition-level brute-force oracles used to freeze expected values.

Everything here works straight from the mathematical definitions with
plain set arithmetic, independent of the bitmask implementations under
test.  Keep these slow and obvious.
"""

from __future__ import annotations

import itertools

from zdposet.homology import faces_by_dimension, link_of, reduced_betti
from zdposet.poset import Poset


def elements(P: Poset) -> range:
    return range(len(P))


def upper_cone(P: Poset, A) -> set[int]:
    return {b for b in elements(P) if all(P.leq(a, b) for a in A)}


def lower_cone(P: Poset, A) -> set[int]:
    return {b for b in elements(P) if all(P.leq(b, a) for a in A)}


def atoms(P: Poset) -> set[int]:
    bot = P.bottom
    return {
        a
        for a in elements(P)
        if a != bot
        and P.leq(bot, a)
        and not any(b not in (bot, a) and P.leq(bot, b) and P.lt(b, a) for b in elements(P))
    }


def weight(P: Poset, x: int) -> int:
    return sum(1 for a in atoms(P) if P.leq(a, x))


def complements(P: Poset, x: int) -> set[int]:
    return {
        y
        for y in elements(P)
        if lower_cone(P, {x, y}) == {P.bottom} and upper_cone(P, {x, y}) == {P.top}
    }


def perp(P: Poset, x: int) -> set[int]:
    return {y for y in elements(P) if lower_cone(P, {x, y}) == {P.bottom}}


def pseudocomplement(P: Poset, x: int) -> int | None:
    target = perp(P, x)
    hits = [b for b in elements(P) if lower_cone(P, {b}) == target]
    assert len(hits) <= 1
    return hits[0] if hits else None


def distributive_at(P: Poset, a: int, b: int, c: int) -> bool:
    lhs = lower_cone(P, {a} | upper_cone(P, {b, c}))
    inner = lower_cone(P, {a, b}) | lower_cone(P, {a, c})
    rhs = lower_cone(P, upper_cone(P, inner))
    return lhs == rhs


def is_distributive(P: Poset) -> bool:
    n = len(P)
    return all(
        distributive_at(P, a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def distributivity_witness_reference(P: Poset) -> tuple[int, int, int] | None:
    """The O(n³) cone-law loop over every triple, first witness in
    (a, b, c) order; ``Poset.distributivity_witness`` must agree."""
    n = len(P)
    pre = [[P.lcone_mask(P.up[b] & P.up[c]) for c in range(n)] for b in range(n)]
    for a in range(n):
        da = P.down[a]
        for b in range(n):
            dab = da & P.down[b]
            for c in range(n):
                union = dab | (da & P.down[c])
                if da & pre[b][c] != P.lcone_mask(P.ucone_mask(union)):
                    return (a, b, c)
    return None


def boolean_failure_reference(P: Poset) -> str | None:
    """``Poset.boolean_failure`` from the reference loop and the
    definition of a complement: bounded, distributive, complemented."""
    if P.bottom is None:
        return "not bounded (no least element)"
    if P.top is None:
        return "not bounded (no greatest element)"
    w = distributivity_witness_reference(P)
    if w is not None:
        return "not distributive (witness: {},{},{})".format(*(P.elements[i] for i in w))
    for x in elements(P):
        if not complements(P, x):
            return f"element {P.elements[x]!r} has no complement"
    return None


def zero_divisors(P: Poset) -> set[int]:
    bot = P.bottom
    return {
        a
        for a in elements(P)
        if any(b != bot and lower_cone(P, {a, b}) == {bot} for b in elements(P))
    }


def adjacent(P: Poset, a: int, b: int) -> bool:
    return a != b and lower_cone(P, {a, b}) == {P.bottom}


def is_ssc(P: Poset) -> bool:
    bot = P.bottom
    for a in elements(P):
        for b in elements(P):
            if P.leq(b, a):
                continue
            if not any(
                c != bot and P.leq(c, b) and lower_cone(P, {a, c}) == {bot}
                for c in elements(P)
            ):
                return False
    return True


def is_wssc(P: Poset) -> bool:
    bot = P.bottom
    for a in elements(P):
        for b in elements(P):
            if not P.lt(a, b):
                continue
            if not any(
                c != bot and P.leq(c, b) and lower_cone(P, {a, c}) == {bot}
                for c in elements(P)
            ):
                return False
    return True


# --- graph-side oracles ------------------------------------------------------


def maximal_independent_sets(vertices, adjacent_fn) -> set[frozenset]:
    """All maximal independent sets by scanning every vertex subset.

    Usable up to ~16 vertices.  Independence comes from the hereditary
    DP over bitmasks; a set is maximal exactly when no independent
    superset exists, which every independent set certifies for each of
    its one-element-removed subsets.
    """
    verts = sorted(vertices)
    n = len(verts)
    adj_mask = [0] * n
    for i, v in enumerate(verts):
        for j, w in enumerate(verts):
            if i != j and adjacent_fn(v, w):
                adj_mask[i] |= 1 << j
    indep = bytearray(1 << n)
    indep[0] = 1
    independent_masks = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if indep[rest] and not (adj_mask[v] & rest):
            indep[mask] = 1
            independent_masks.append(mask)
    dominated = bytearray(1 << n)
    for mask in independent_masks:
        rest = mask
        while rest:
            low = rest & -rest
            dominated[mask ^ low] = 1
            rest ^= low
    out = set()
    for mask in independent_masks:
        if not dominated[mask]:
            out.add(frozenset(verts[i] for i in range(n) if (mask >> i) & 1))
    return out


def face_closure(facets) -> set[tuple]:
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(len(f) + 1):
            faces.update(itertools.combinations(f, r))
    return faces


def f_vector(facets) -> tuple[int, ...]:
    faces = face_closure(facets)
    top = max((len(f) for f in faces), default=0)
    return tuple(
        sum(1 for f in faces if len(f) == s) for s in range(top + 1)
    )


def is_vertex_cover(edges, cover) -> bool:
    return all(a in cover or b in cover for a, b in edges)


def is_minimal_vertex_cover(edges, cover) -> bool:
    if not is_vertex_cover(edges, cover):
        return False
    return all(not is_vertex_cover(edges, cover - {v}) for v in cover)


def link_faces(facets, face) -> set[tuple]:
    """The link by its definition: all G disjoint from face with G ∪ face a face."""
    fs = set(face)
    closure = face_closure(facets)
    out = set()
    for g in closure:
        gs = set(g)
        if gs & fs:
            continue
        if tuple(sorted(gs | fs)) in closure:
            out.add(g)
    return out


def reisner_cm_reference(C) -> tuple[bool, tuple[tuple, int] | None]:
    """Reisner's criterion with exact rational homology on every link.

    The face-by-face loop the F2 shortcut in ``reisner_cm`` replaced: it
    skips only facets and cone links, and eliminates every other link
    over the integers.  Same witness order, (size, lex).
    """
    for bucket in faces_by_dimension(C, max_vertices=len(C.vertices)):
        for face in bucket:
            link = link_of(C, face)
            dim = link.dimension
            if dim <= -1:
                continue
            common = set(link.facets[0])
            for f in link.facets[1:]:
                common &= set(f)
            if common:
                continue
            bad = reduced_betti(link, len(link.vertices)).vanishes_below(dim)
            if bad is not None:
                return False, (face, bad)
    return True, None


def is_boolean_lattice_reference(P: Poset) -> bool:
    """The three-clause definition: a Boolean poset, with a join for every
    pair, that is order-isomorphic to the power set of its atoms."""
    if not P.is_boolean():
        return False
    n = len(P)
    for a in range(n):
        for b in range(n):
            ub = upper_cone(P, {a, b})
            if not any(all(P.leq(m, u) for u in ub) for m in ub):
                return False
    k = len(atoms(P))
    if n != 2**k:
        return False
    supports = [frozenset(x for x in atoms(P) if P.leq(x, y)) for y in range(n)]
    if len(set(supports)) != n:
        return False
    return all(
        P.leq(a, b) == (supports[a] <= supports[b]) for a in range(n) for b in range(n)
    )
