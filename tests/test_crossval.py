"""Heavier cross-validation of the hand-rolled kernels.

These pit the homology engine against a second, structurally different
implementation (dense rational ranks via fractions), the labeling search
against the homology oracle on harder random instances, and the poset
calculus against randomly generated orders rather than catalog ones.
"""

import itertools
import random
import time
from fractions import Fraction

import brute
from zdposet.cmcert import Analysis
from zdposet.search import matching_certificate
from zdposet.complexes import independence_complex, is_very_well_covered, is_well_covered
from zdposet.formats import cover_pairs
from zdposet.homology import reisner_cm
from zdposet.lattice import lcone_mask
from zdposet.poset import generate, parse_poset
from zdposet.product import product_theorem, validate_factors
from zdposet.zdg import zero_divisor_graph


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Plain fraction Gaussian elimination, nothing shared with the engine."""
    if not rows:
        return 0
    m = [row[:] for row in rows]
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1, 1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def betti_by_dense_fractions(facets) -> dict[int, int]:
    faces = sorted(brute.face_closure(facets), key=lambda f: (len(f), f))
    by_size: dict[int, list[tuple]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    top = max(by_size)
    ranks = {s: 0 for s in range(top + 2)}
    for s in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_size[s - 1])}
        rows = []
        for face in by_size[s]:
            row = [Fraction(0)] * len(by_size[s - 1])
            for j in range(len(face)):
                sub = face[:j] + face[j + 1 :]
                row[index[sub]] = Fraction(-1 if j % 2 else 1)
            rows.append(row)
        ranks[s] = dense_rank(rows)
    return {
        s - 1: len(by_size.get(s, ())) - ranks[s] - ranks[s + 1]
        for s in range(top + 1)
    }


def test_betti_matches_independent_dense_implementation():
    # the rank engine on face masks built in brute, flag complexes or
    # not: the hollow triangle, the tetrahedron boundary, two disjoint
    # edges, {∅}, RP2 and its suspension, random facet lists, and random
    # independence complexes
    rng = random.Random(97)
    rp2 = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    ]
    fixtures = [
        [(1, 2), (2, 3), (1, 3)],
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
        [(1, 3), (2, 4)],
        [()],
        rp2,
        [f + (apex,) for f in rp2 for apex in (7, 8)],
        independence_complex(zero_divisor_graph(generate("atom_coatom", 4))).facets,
    ]
    for _ in range(40):
        n = rng.randint(1, 7)
        fixtures.append(
            [
                tuple(v for v in range(n) if rng.random() < 0.5)
                for _ in range(rng.randint(1, 6))
            ]
        )
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a < b and rng.random() < rng.choice([0.3, 0.6])
        ]
        fixtures.append(independence_complex(brute.graph(range(n), edges)).facets)
    for facets in fixtures:
        expected = {d: b for d, b in betti_by_dense_fractions(facets).items() if b}
        got = {d: b for d, b in brute.betti(facets).items() if b}
        assert got == expected, facets


def test_search_matches_reisner_on_eight_vertex_vwc_graphs():
    rng = random.Random(113)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 20000:
        attempts += 1
        n = 8
        verts = list(range(n))
        edges = [
            (a, b)
            for a in verts
            for b in verts
            if a < b and rng.random() < rng.choice([0.25, 0.4, 0.55])
        ]
        G = brute.graph(verts, edges)
        C = independence_complex(G)
        if not is_well_covered(C) or not is_very_well_covered(C):
            continue
        verdict = matching_certificate(G, C.masks[0])
        assert verdict.status in ("CM", "NotCM")
        ok, witness = reisner_cm(C)
        assert (ok, witness) == brute.reisner_cm_reference(C), edges
        assert (verdict.status == "CM") == ok, (edges, verdict.status)
        checked += 1
    assert checked == 25


def test_kmm_search_terminates_fast():
    # the two-cycle prune keeps complete bipartite searches polynomial
    t0 = time.monotonic()
    for size in (4, 5, 6):
        A = validate_factors([generate("chain", size)] * 2)
        r = product_theorem(A, Analysis(A.graph))
        assert r.cm_status == "NotCM"
    assert time.monotonic() - t0 < 5.0


def random_dag_poset(rng: random.Random, n: int):
    names = [f"e{i}" for i in range(n)]
    lines = ["poset v1"] + [f"elem {x}" for x in names]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                lines.append(f"le e{i} e{j}")
    return parse_poset("\n".join(lines) + "\n")


def test_random_posets_roundtrip_and_galois():
    rng = random.Random(5)
    for _ in range(150):
        P = random_dag_poset(rng, rng.randint(1, 9))
        assert parse_poset(P.to_text()) == P
        universe = range(len(P))
        A = {v for v in universe if rng.random() < 0.4}
        u = P.ucone_mask(brute.mask(A))
        assert brute.mask(A) & ~lcone_mask(P, u) == 0
        assert P.ucone_mask(lcone_mask(P, u)) == u
        for a, b in itertools.combinations(sorted(A), 2):
            assert brute.leq(P, a, b) == bool(P.down[b] >> a & 1)


def test_random_posets_cover_pairs_regenerate_order():
    rng = random.Random(6)
    for _ in range(100):
        P = random_dag_poset(rng, rng.randint(1, 9))
        regenerated = parse_poset(P.to_text())
        assert regenerated.up == P.up
        for i, j in cover_pairs(P):
            assert brute.lt(P, i, j)
            assert not any(
                brute.lt(P, i, z) and brute.lt(P, z, j) for z in range(len(P))
            )
