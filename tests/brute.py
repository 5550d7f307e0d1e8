"""Definition-level brute-force oracles used to freeze expected values.

Everything here works straight from the mathematical definitions with
plain set arithmetic, independent of the bitmask implementations under
test.  Keep these slow and obvious.

The complex-side references work on facet masks alone, with no graph:
``reisner_cm_reference`` and ``reisner_table_reference`` build each
link from the facets through its face, and ``betti`` ranks any facet
list (flag or not) with ``homology._betti``.

``leq`` and ``lt`` read the order off ``Poset.up``; the package itself
asks only mask questions.  The last section holds the lemma checks and
helpers that the package no longer exports, because no subcommand calls
them: ``graph``, which makes the hand-written test graphs from edge
lists, the unique complementation and atom/end lemma checks, ends,
graph complements, the complementary-pair greedy extension and the
mask-level pseudocomplement.  Their tests run them here.  The CLI's old
argparse parser is ``argparse_reference``, the reference of the argv
fuzzer in ``test_fuzz_cli.py``.
"""

from __future__ import annotations

import heapq
import itertools
from functools import reduce
from operator import and_
from typing import Iterable, NamedTuple

from zdposet import homology
from zdposet.cmcert import CmVerdict, ConditionStatus, MyCertificate
from zdposet.errors import TheoremContractError, ZdPosetError
from zdposet.graphs import Graph
from zdposet.order import Poset, bits
from zdposet.lattice import boolean_failure, lcone_mask
from zdposet.zdg import ZdGraph, require_boolean


def elements(P: Poset) -> range:
    return range(len(P))


def leq(P: Poset, a: int, b: int) -> bool:
    return bool((P.up[a] >> b) & 1)


def lt(P: Poset, a: int, b: int) -> bool:
    return a != b and leq(P, a, b)


def upper_cone(P: Poset, A) -> set[int]:
    return {b for b in elements(P) if all(leq(P, a, b) for a in A)}


def lower_cone(P: Poset, A) -> set[int]:
    return {b for b in elements(P) if all(leq(P, b, a) for a in A)}


def mask(ids: Iterable[int]) -> int:
    """The bitmask of a set of ids, as ``Poset.ucone_mask`` takes it."""
    return sum(1 << i for i in set(ids))


def shuffled(P: Poset, rng) -> Poset:
    """P with its element ids permuted at random: the same names and order."""
    order = list(elements(P))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    up = [sum(1 << new[j] for j in bits(P.up[old])) for old in order]
    return Poset([P.elements[old] for old in order], up)


def adjacency(G: Graph):
    """G's adjacency test on vertices, read off its neighbour sets."""
    nbrs = {v: G.neighbors(v) for v in G.vertices}
    return lambda v, w: w in nbrs[v]


def atoms(P: Poset) -> set[int]:
    bot = P.bottom
    return {
        a
        for a in elements(P)
        if a != bot
        and leq(P, bot, a)
        and not any(b not in (bot, a) and leq(P, bot, b) and lt(P, b, a) for b in elements(P))
    }


def weight(P: Poset, x: int) -> int:
    return sum(1 for a in atoms(P) if leq(P, a, x))


def complements(P: Poset, x: int) -> set[int]:
    return {
        y
        for y in elements(P)
        if lower_cone(P, {x, y}) == {P.bottom} and upper_cone(P, {x, y}) == {P.top}
    }


def perp(P: Poset, x: int) -> set[int]:
    return {y for y in elements(P) if lower_cone(P, {x, y}) == {P.bottom}}


def perp_mask_reference(P: Poset, x: int) -> int:
    """The O(n) scan ``Poset.perp_mask`` replaces: every y whose down row
    meets x's in the bottom alone."""
    bot = 1 << P.bottom
    return sum(1 << y for y in elements(P) if P.down[x] & P.down[y] == bot)


def coperp_mask_reference(P: Poset, x: int) -> int:
    """The dual scan: every y whose up row meets x's in the top alone."""
    top = 1 << P.top
    return sum(1 << y for y in elements(P) if P.up[x] & P.up[y] == top)


def first_uncomplemented_reference(P: Poset) -> int | None:
    """The O(n²) scan ``lattice.first_uncomplemented`` replaces."""
    for x in elements(P):
        if not perp_mask_reference(P, x) & coperp_mask_reference(P, x):
            return x
    return None


def is_boolean_lattice_by_pairs(P: Poset) -> bool:
    """The power-set test with its n² ``leq`` calls: 2^k elements for k
    atoms, distinct atom supports, and every pair's order the inclusion
    of their supports."""
    if not P.is_bounded():
        return False
    n = len(P)
    if n != 2 ** len(P.atoms()):
        return False
    supports = [P.atoms_mask & P.down[x] for x in range(n)]
    if len(set(supports)) != n:
        return False
    return all(
        leq(P, a, b) == (supports[a] & ~supports[b] == 0)
        for a in range(n)
        for b in range(n)
    )


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
    pre = [[lcone_mask(P, P.up[b] & P.up[c]) for c in range(n)] for b in range(n)]
    ul: dict[int, int] = {}  # the right-hand side depends on the union alone
    for a in range(n):
        da = P.down[a]
        for b in range(n):
            dab = da & P.down[b]
            for c in range(n):
                union = dab | (da & P.down[c])
                if union not in ul:
                    ul[union] = lcone_mask(P, P.ucone_mask(union))
                if da & pre[b][c] != ul[union]:
                    return (a, b, c)
    return None


def boolean_failure_reference(P: Poset) -> str | None:
    """``lattice.boolean_failure`` from the reference loop and the
    definition of a complement: bounded, distributive, complemented."""
    if P.bottom is None:
        return "not bounded (no least element)"
    if P.top is None:
        return "not bounded (no greatest element)"
    w = distributivity_witness_reference(P)
    if w is not None:
        return "not distributive (witness: {},{},{})".format(*(P.elements[i] for i in w))
    x = first_uncomplemented_reference(P)
    if x is not None:
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
            if leq(P, b, a):
                continue
            if not any(
                c != bot and leq(P, c, b) and lower_cone(P, {a, c}) == {bot}
                for c in elements(P)
            ):
                return False
    return True


def is_wssc(P: Poset) -> bool:
    bot = P.bottom
    for a in elements(P):
        for b in elements(P):
            if not lt(P, a, b):
                continue
            if not any(
                c != bot and leq(P, c, b) and lower_cone(P, {a, c}) == {bot}
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


def fold_reference(nbr, rest):
    """Cone and fold moves on G[rest], one vertex pair at a time.

    ``nbr`` holds adjacency rows as bitmasks and ``rest`` is a vertex
    mask; the pass structure is the one ``homology._fold`` keeps.  Each
    pass takes the neighbourhoods within the vertices it starts with,
    returns None if one is empty (a cone), and otherwise walks u in
    ascending order and drops every other remaining v with
    N(u) ⊆ N(v).  The mask left when a pass drops nothing is returned.
    """
    left = {v for v in range(len(nbr)) if rest >> v & 1}
    while True:
        start = set(left)
        rows = {v: {w for w in start if nbr[v] >> w & 1} for v in start}
        if not all(rows.values()):
            return None
        for u in sorted(start):
            if u in left:
                for v in sorted(start):
                    if v != u and v in left and rows[u] <= rows[v]:
                        left.discard(v)
        if left == start:
            return sum(1 << v for v in left)


# --- complex-side oracles: facet masks, no graph ----------------------------


class Facets(NamedTuple):
    """A complex given by its facets alone: sorted ``vertices`` and one
    bitmask over their positions per facet (``masks``)."""

    vertices: tuple
    masks: tuple[int, ...]

    def vertices_of(self, mask: int) -> tuple:
        return tuple(self.vertices[i] for i in bits(mask))


def facets_of(facets) -> Facets:
    """The ``Facets`` of a list of vertex tuples."""
    vertices = tuple(sorted(set().union(*map(set, facets))))
    index = {v: i for i, v in enumerate(vertices)}
    return Facets(vertices, tuple(sum(1 << index[v] for v in f) for f in facets))


def face_masks(facets: Iterable[int]) -> list[list[int]]:
    """Downward closure of facet bitmasks, grouped by size, each size in
    the lexicographic order of the position tuples."""
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    by_size: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces)) + 1)]
    for f in sorted(faces, key=lambda m: tuple(bits(m))):
        by_size[f.bit_count()].append(f)
    return by_size


def betti(facets) -> dict[int, int]:
    """Reduced rational Betti numbers, dimensions -1..dim, of the complex
    with these facets (vertex tuples): ``homology._betti`` on the face
    masks of ``face_masks``, with no graph, walk or fold."""
    return homology._betti(face_masks(facets_of(facets).masks))


def links(C):
    """(face mask, link facet masks) for every face of C in (size, lex)
    order.  The link of F has the facets m - F, one per facet m ⊇ F; no
    two are nested, since the facets m are not."""
    for bucket in face_masks(C.masks):
        for face in bucket:
            yield face, [m ^ face for m in C.masks if m & face == face]


def reisner_cm_reference(C) -> tuple[bool, tuple[tuple, int] | None]:
    """Reisner's criterion with exact rational homology on every link.

    The face-by-face loop on facet masks (an ``IndependenceComplex`` or
    ``Facets``), with no graph, fold or rest-mask memo: it skips only
    facets and cone links, and ranks every other link's closure over the
    integers.  Same witness order, (size, lex), as ``reisner_cm``.
    """
    for face, link in links(C):
        dim = max(map(int.bit_count, link)) - 1
        if dim <= -1 or reduce(and_, link):
            continue
        b = homology._betti(face_masks(link))
        bad = next((d for d in range(-1, dim) if b[d]), None)
        if bad is not None:
            return False, (C.vertices_of(face), bad)
    return True, None


def reisner_table_reference(C) -> list[tuple[tuple, int, tuple[int, ...]]]:
    """(face, link dimension, reduced rational Betti vector over -1..dim)
    for every face in (size, lex) order.

    The ``check -v`` table by definition: every link's closure ranked
    exactly over the integers, with no cone skip and no fold.
    """
    rows = []
    for face, link in links(C):
        dim = max(map(int.bit_count, link)) - 1
        b = homology._betti(face_masks(link))
        rows.append((C.vertices_of(face), dim, tuple(b[d] for d in range(-1, dim + 1))))
    return rows


def is_boolean_lattice_reference(P: Poset) -> bool:
    """The three-clause definition: order-isomorphic to the power set of
    its atoms, a Boolean poset by the clauses, with a join for every pair.
    The power-set clause goes first, so the cubic clause runs only on
    posets that pass it."""
    if not P.is_bounded():
        return False
    n = len(P)
    k = len(atoms(P))
    if n != 2**k:
        return False
    supports = [frozenset(x for x in atoms(P) if leq(P, x, y)) for y in range(n)]
    if len(set(supports)) != n:
        return False
    if not all(
        leq(P, a, b) == (supports[a] <= supports[b]) for a in range(n) for b in range(n)
    ):
        return False
    if boolean_failure_reference(P) is not None:
        return False
    for a in range(n):
        for b in range(n):
            ub = upper_cone(P, {a, b})
            if not any(all(leq(P, m, u) for u in ub) for m in ub):
                return False
    return True


# --- certificate-layer oracles -------------------------------------------------


def boolean_labeling_reference(P: Poset, G: ZdGraph) -> tuple[tuple[int, int], ...]:
    """The Boolean labeling built by weight strata, as the paper states it.

    For k atoms: level i = 1, 2, ... holds the vertices of weight k - i,
    up to weight (k + 1) / 2 for odd k and k / 2 + 1 for even k; for even
    k the representatives of the half-weight complementary pairs (the
    smaller id of each) follow.  Each facet member y, in that order and
    by id within a level, is paired with its complement x as (x, y).
    """
    require_boolean(P)
    k = len(atoms(P))
    levels = (k - 1) // 2 if k % 2 else (k - 2) // 2
    ys: list[int] = []
    for i in range(1, levels + 1):
        ys += sorted(v for v in G.vertices if weight(P, v) == k - i)
    if k % 2 == 0:
        half = [v for v in G.vertices if weight(P, v) == k // 2]
        ys += sorted({min(v, *complements(P, v)) for v in half})
    out = []
    for y in ys:
        (x,) = complements(P, y)
        out.append((x, y))
    return tuple(out)


def verify_my_conditions_reference(G, pairs) -> MyCertificate:
    """The five conditions as literal loops over pair indices, one
    adjacency test per step; ``cmcert.verify_my_conditions`` must agree,
    witnesses included."""
    h = len(pairs)
    flat = [v for pair in pairs for v in pair]
    if len(set(flat)) != 2 * h or set(flat) != set(G.vertices):
        raise ZdPosetError("the pairs do not partition the vertex set of the graph")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    adj = adjacency(G)
    name = G.label
    conditions = []

    # (a) the first uncovered edge (in vertex order), else the first x
    # with no neighbour on the independent side
    witness_a = None
    yset = set(ys)
    for u in sorted(yset):
        hit = sorted(G.neighbors(u) & yset)
        if hit:
            witness_a = (name(u), name(hit[0]))
            break
    if witness_a is None:
        for x in xs:
            if not G.neighbors(x) & yset:
                witness_a = (name(x),)
                break
    conditions.append(("a", ConditionStatus(witness_a is None, witness_a)))

    witness_b = None
    for x, y in zip(xs, ys):
        if not adj(x, y):
            witness_b = (name(x), name(y))
            break
    conditions.append(("b", ConditionStatus(witness_b is None, witness_b)))

    witness_c = None
    for i in range(h):
        if witness_c:
            break
        for z in (xs[i], ys[i]):
            if witness_c:
                break
            for j in range(h):
                if j == i or not adj(z, xs[j]):
                    continue
                for k in range(h):
                    if k in (i, j):
                        continue
                    if adj(ys[j], xs[k]) and not adj(z, xs[k]):
                        witness_c = (name(z), name(xs[j]), name(xs[k]))
                        break
                if witness_c:
                    break
    conditions.append(("c", ConditionStatus(witness_c is None, witness_c)))

    witness_d = None
    for i in range(h):
        for j in range(h):
            if adj(xs[i], ys[j]) and adj(xs[i], xs[j]):
                witness_d = (name(xs[i]), name(ys[j]), name(xs[j]))
                break
        if witness_d:
            break
    conditions.append(("d", ConditionStatus(witness_d is None, witness_d)))

    witness_e = None
    for i in range(h):
        for j in range(h):
            if i > j and adj(xs[i], ys[j]):
                witness_e = (name(xs[i]), name(ys[j]))
                break
        if witness_e:
            break
    conditions.append(("e", ConditionStatus(witness_e is None, witness_e)))

    pair_names = tuple((name(x), name(y)) for x, y in pairs)
    return MyCertificate(tuple(pairs), pair_names, h, tuple(conditions))


def find_ordering_reference(G, matching):
    """Kahn's algorithm with a heap of ready pairs (lowest index first) on
    the digraph p -> q for x_p ~ y_q: the ordered pairs, or None on a
    cycle."""
    adj = adjacency(G)
    m = len(matching)
    succ = [set() for _ in range(m)]
    indeg = [0] * m
    for p, (xp, _) in enumerate(matching):
        for q, (_, yq) in enumerate(matching):
            if p != q and adj(xp, yq):
                succ[p].add(q)
                indeg[q] += 1
    ready = [p for p in range(m) if indeg[p] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        p = heapq.heappop(ready)
        order.append(p)
        for q in sorted(succ[p]):
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(ready, q)
    return tuple(matching[p] for p in order) if len(order) == m else None


def search_certificate_reference(G, facets, budget: int) -> CmVerdict:
    """The exhaustive labeling search on vertex sets, the reference for
    ``search.matching_certificate``: every facet as the independent side,
    candidates per x its graph complements (neighbours with no common
    neighbour) then its other neighbours on that side, each in vertex
    order; one node per tried candidate, and Inconclusive past ``budget``
    nodes."""
    adj = adjacency(G)
    nodes = 0
    exhausted = False
    for Y in facets:
        yset = set(Y)
        X = [v for v in G.vertices if v not in yset]
        candidates = {}
        for x in X:
            nx = G.neighbors(x)
            comps = sorted(w for w in nx & yset if not nx & G.neighbors(w))
            candidates[x] = comps + sorted((nx & yset) - set(comps))
        assignment = []
        used = set()

        def backtrack(idx):
            nonlocal nodes, exhausted
            if exhausted:
                return None
            if idx == len(X):
                pairs = find_ordering_reference(G, assignment)
                if pairs is None:
                    return None
                cert = verify_my_conditions_reference(G, pairs)
                return cert if cert.ok else None
            x = X[idx]
            for y in candidates[x]:
                if y in used:
                    continue
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return None
                if any(
                    adj(x, y2) and (adj(x, x2) or adj(x2, y))
                    or adj(x2, y) and adj(x2, x)
                    for x2, y2 in assignment
                ):
                    continue
                assignment.append((x, y))
                used.add(y)
                found = backtrack(idx + 1)
                if found is not None:
                    return found
                assignment.pop()
                used.discard(y)
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


# --- helpers that left the package: no subcommand calls them ------------------


def graph(vertices: Iterable, edges: Iterable[tuple]) -> Graph:
    """The simple graph on a set of sortable vertex ids with the given edges."""
    verts = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * len(verts)
    for a, b in edges:
        if a not in index or b not in index:
            raise ZdPosetError(f"edge ({a!r}, {b!r}) uses an unknown vertex")
        if a == b:
            raise ValueError(f"loop at {a!r}: graphs here are simple")
        nbr[index[a]] |= 1 << index[b]
        nbr[index[b]] |= 1 << index[a]
    return Graph(verts, nbr)


def pseudocomplement_of(P: Poset, x: int) -> int | None:
    """The element whose lower set equals x-perp, or None if absent."""
    target = P.perp_mask(x)
    found = [y for y in range(len(P.elements)) if P.down[y] == target]
    if len(found) > 1:
        raise TheoremContractError("distinct elements cannot share a lower set")
    return found[0] if found else None


def complement_mask(nbr: list[int], row: int) -> int:
    """The positions in a vertex's adjacency ``row`` that share no neighbour
    with it: its neighbours w such that the edge v-w lies in no triangle."""
    return sum(1 << j for j in bits(row) if not row & nbr[j])


def graph_complements(G: Graph, v) -> frozenset:
    """Neighbors w of v such that the edge v-w lies in no triangle."""
    row = sum(1 << G.index[w] for w in G.neighbors(v))  # raises on an unknown v
    return frozenset(G.vertices[j] for j in bits(complement_mask(G.nbr, row)))


def ends(G: Graph) -> frozenset:
    """Vertices of degree exactly one."""
    return frozenset(v for v in G.vertices if len(G.neighbors(v)) == 1)


class LemmaReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def check_unique_complementation(P: Poset, G: ZdGraph) -> LemmaReport:
    """Every vertex must have exactly one graph complement, equal to its
    order-theoretic complement."""
    require_boolean(P)
    violations = []
    for v in G.vertices:
        gc = graph_complements(G, v)
        oc = complements(P, v)
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
        (c,) = complements(P, b)
        ends_at_b = end_set & G.neighbors(b)
        if b in atoms:
            if ends_at_b != {c}:
                got = ",".join(P.names(ends_at_b)) or "(none)"
                violations.append(
                    f"atom {P.elements[b]}: adjacent ends {{{got}}} != "
                    f"complement {P.elements[c]}"
                )
        elif c in end_set and c in G.neighbors(b):
            violations.append(
                f"{P.elements[b]} is not an atom but its complement "
                f"{P.elements[c]} is an adjacent end"
            )
    return LemmaReport(not violations, tuple(violations))


class NotIndependentError(ZdPosetError):
    """A seed of ``extend_independent`` holds an adjacent pair."""


def extend_independent(P: Poset, G: Graph, seed: Iterable[int]) -> tuple[int, ...]:
    """Grow an independent set of a Boolean poset's graph to half the vertices.

    Scans complementary pairs untouched by the current set in ascending id
    order; from each pair it adds the member that keeps the set independent,
    preferring the heavier element (then the smaller id) when both work.
    The result is always a facet of size |V|/2.
    """
    if not P.is_boolean():
        raise ZdPosetError(f"poset is not Boolean: {boolean_failure(P)}")
    vertex_set = set(G.vertices)
    current = set()
    for v in seed:
        if v not in vertex_set:
            raise ZdPosetError(f"seed element {v!r} is not a vertex")
        current.add(v)
    for v in current:
        hit = G.neighbors(v) & current
        if hit:
            w = min(hit)
            raise NotIndependentError(
                f"seed contains the adjacent pair "
                f"({P.elements[v]}, {P.elements[w]})"
            )

    pairs = sorted(
        {tuple(sorted((v, min(complements(P, v))))) for v in G.vertices}
    )
    for a, b in pairs:
        if a in current or b in current:
            continue
        can_a = not (G.neighbors(a) & current)
        can_b = not (G.neighbors(b) & current)
        if can_a and can_b:
            wa, wb = P.weight(a), P.weight(b)
            pick = a if (wa, -a) >= (wb, -b) else b
        elif can_a:
            pick = a
        elif can_b:
            pick = b
        else:
            raise TheoremContractError(
                "no member of an untouched complementary pair extends the set; "
                "impossible for a Boolean poset"
            )
        current.add(pick)
    return tuple(sorted(current))


# -- the argparse parser the CLI replaced ---------------------------------------------


def argparse_reference():
    """The CLI's argparse parser as it was before the table-driven one,
    kept as the reference the argv fuzzer compares against.  Its
    namespace holds the subcommand in ``command`` and no ``func``."""
    import argparse

    from zdposet import complexes

    parser = argparse.ArgumentParser(
        prog="zdposet",
        description="Zero-divisor graphs of finite bounded posets: "
        "well-coveredness and Cohen-Macaulayness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    def add_facet_cap(p):
        p.add_argument(
            "--max-vertices",
            type=int,
            default=complexes.DEFAULT_MAX_VERTICES,
            help="facet enumeration cap (default %(default)s)",
        )

    p = sub.add_parser("info", help="order-theoretic profile of a poset file")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("zdg", help="zero-divisor graph as DOT")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("check", help="consolidated coveredness / CM verdict")
    p.add_argument("input")
    add_output(p)
    add_facet_cap(p)
    p.add_argument(
        "--max-homology-vertices",
        type=int,
        default=complexes.DEFAULT_MAX_HOMOLOGY_VERTICES,
        help="homology oracle cap (default %(default)s)",
    )
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include the per-face homology table",
    )

    p = sub.add_parser("export", help="edge ideal script for a CAS")
    p.add_argument("input")
    p.add_argument("-d", "--dialect", choices=("m2", "singular"), required=True)
    add_output(p)

    p = sub.add_parser("sweep", help="TSV verdicts over factor-size vectors")
    p.add_argument("input")
    add_output(p)
    add_facet_cap(p)

    p = sub.add_parser("gen", help="emit a catalog poset file")
    p.add_argument("catalog")
    p.add_argument("params", nargs="+", type=int)
    add_output(p)

    return parser
