"""End-to-end acceptance suite.

Each test is one acceptance criterion; it prints a single PASS/FAIL line
(visible under ``pytest -s``) and enforces the criterion's runtime
budget.  The randomized suites in criterion 7 run at least 1000 seeded
cases apiece.
"""

import itertools
import random
import time

import brute
from brute import extend_independent, pseudocomplement_of
from zdposet.cmcert import (
    Analysis,
    boolean_labeling,
    is_cohen_macaulay,
    verify_my_conditions,
)
from zdposet.complexes import independence_complex, is_very_well_covered, is_well_covered
from zdposet.homology import reisner_cm
from zdposet.lattice import lcone_mask
from zdposet.poset import direct_product, generate, parse_poset
from zdposet.product import (
    j_single,
    j_triple,
    predicted_counts,
    validate_factors,
    well_covered_verdict,
)
from zdposet.search import find_ordering
from zdposet.zdg import zero_divisor_graph


class Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.start = time.monotonic()

    def finish(self) -> None:
        elapsed = time.monotonic() - self.start
        ok = elapsed < self.seconds
        verdict = "PASS" if ok else "FAIL"
        print(
            f"ACCEPTANCE {self.number} [{verdict}] {self.description} "
            f"({elapsed:.2f}s / budget {self.seconds:.0f}s)"
        )
        assert ok, f"criterion {self.number} exceeded its {self.seconds}s budget"


def test_criterion_1_figure1_reproduction(figure1_text):
    budget = Budget(1, "Figure 1: exact edge list and facet list", 1.0)
    P = parse_poset(figure1_text)
    G = zero_divisor_graph(P)
    edges = [(P.elements[a], P.elements[b]) for a, b in G.edges()]
    assert edges == [
        ("q1", "q2"), ("q1", "q3"), ("q1", "q4"), ("q1", "q1'"),
        ("q2", "q3"), ("q2", "q4"), ("q2", "q2'"),
        ("q3", "q4"), ("q3", "q3'"),
        ("q4", "q4'"),
    ]
    C = independence_complex(G)
    facets = [tuple(P.elements[v] for v in f) for f in C.facets]
    assert facets == [
        ("q1", "q2'", "q3'", "q4'"),
        ("q2", "q1'", "q3'", "q4'"),
        ("q3", "q1'", "q2'", "q4'"),
        ("q4", "q1'", "q2'", "q3'"),
        ("q1'", "q2'", "q3'", "q4'"),
    ]
    budget.finish()


def test_criterion_2_well_covered_family(boolean_catalog):
    budget = Budget(
        2, "Boolean family is well-covered with facet size |V|/2", 30.0
    )
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        C = independence_complex(G)
        assert is_well_covered(C)
        assert len(C.facets[0]) * 2 == len(G.vertices)
        assert is_very_well_covered(C)
    budget.finish()


def test_criterion_3_constructive_certificate(boolean_catalog):
    budget = Budget(
        3, "constructive pipeline satisfies all five conditions", 30.0
    )
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        pairs = boolean_labeling(P, G)
        ordered = find_ordering(G, pairs)
        assert ordered is not None
        cert = verify_my_conditions(G, ordered)
        assert cert.ok, [
            (name, status) for name, status in cert.conditions if not status.ok
        ]
    budget.finish()


def test_criterion_4_oracle_agreement(figure1):
    budget = Budget(4, "certificate and Reisner oracle verdicts agree", 60.0)
    cm_posets = [
        generate("boolean_lattice", 2),
        generate("boolean_lattice", 3),
        generate("boolean_lattice", 4),
        figure1,
        generate("m_atoms", 3),
    ]
    for P in cm_posets:
        verdict = is_cohen_macaulay(P)
        assert verdict.status == "CM"
        C = independence_complex(zero_divisor_graph(P))
        assert reisner_cm(C) == (True, None)

    two_chains = direct_product([generate("chain", 3)] * 2)
    K = zero_divisor_graph(two_chains.carrier)
    verdict = is_cohen_macaulay(two_chains.carrier)
    assert (verdict.status, verdict.method) == ("NotCM", "matching-search")
    C = independence_complex(K)
    for Y in C.facets:
        X = tuple(v for v in K.vertices if v not in Y)
        assert find_ordering(K, tuple(zip(X, Y))) is None
    assert reisner_cm(C) == (False, ((), 0))
    budget.finish()


def test_criterion_5_counting_formulas():
    budget = Budget(5, "J-set counts match the closed formulas", 10.0)
    A3 = validate_factors([generate("chain", 3)] * 3)
    assert len(j_single(A3, 1)) == 10
    assert len(j_triple(A3, 1, 2, 3)) == 12
    counts = predicted_counts([3, 3, 3])
    assert counts.j_single_sizes == (10, 10, 10)
    assert counts.j_triple_size == 12
    ok, _ = well_covered_verdict(A3)
    assert ok is False

    for n in (3, 4):
        A2 = validate_factors([generate("chain", 2)] * n)
        counts = predicted_counts([2] * n)
        for i in range(1, n + 1):
            assert len(j_single(A2, i)) == counts.j_single_sizes[i - 1]
        assert len(j_triple(A2, 1, 2, 3)) == counts.j_triple_size
        ok, _ = well_covered_verdict(A2)
        assert ok is True
    budget.finish()


def test_criterion_6_equivalence_sweep():
    budget = Budget(6, "five-statement equivalence over n=3 products", 60.0)
    from zdposet.product import product_theorem

    vectors = [
        s
        for s in itertools.combinations_with_replacement((2, 3, 4), 3)
        if s[0] * s[1] * s[2] <= 64
    ]
    assert len(vectors) == 10
    for sizes in vectors:
        A = validate_factors([generate("chain", s) for s in sizes])
        # product_theorem raises unless the five statements agree
        report = product_theorem(A, Analysis(A.graph))
        assert report.cm_status in ("CM", "NotCM") and report.enumerated
        assert report.boolean_lattice == all(s == 2 for s in sizes)
    budget.finish()


# --- criterion 7: randomized property suites ------------------------------------


CASES = 1000


def _poset_pool():
    pool = [generate("boolean_lattice", n) for n in range(2, 6)]
    pool += [generate("atom_coatom", k) for k in range(3, 7)]
    pool += [generate("m_atoms", k) for k in range(2, 6)]
    pool += [generate("chain", k) for k in range(2, 7)]
    return pool


def _boolean_pool():
    return [generate("boolean_lattice", n) for n in range(2, 6)] + [
        generate("atom_coatom", k) for k in range(3, 7)
    ]


def _suite_cone_galois(rng):
    pool = _poset_pool()
    for _ in range(CASES):
        P = rng.choice(pool)
        universe = range(len(P))
        A = {v for v in universe if rng.random() < 0.3}
        B = A | {v for v in universe if rng.random() < 0.3}
        a, b = brute.mask(A), brute.mask(B)
        ul = lcone_mask(P, P.ucone_mask(a))
        assert a & ~ul == 0
        assert P.ucone_mask(ul) == P.ucone_mask(a)
        assert P.ucone_mask(b) & ~P.ucone_mask(a) == 0


def _suite_unique_complements(rng):
    pool = _boolean_pool()
    for _ in range(CASES):
        P = rng.choice(pool)
        x = rng.randrange(len(P))
        cs = brute.complements(P, x)
        assert len(cs) == 1
        assert pseudocomplement_of(P, x) == min(cs)


def _suite_weight_sum(rng):
    pool = _boolean_pool()
    for _ in range(CASES):
        P = rng.choice(pool)
        x = rng.randrange(len(P))
        (c,) = brute.complements(P, x)
        assert P.weight(x) + P.weight(c) == P.poset_weight()


def _suite_weight_monotone(rng):
    pool = _boolean_pool()
    for _ in range(CASES):
        P = rng.choice(pool)
        b = rng.randrange(len(P))
        below = [a for a in range(len(P)) if brute.lt(P, a, b)]
        if not below:
            b = P.top
            below = [a for a in range(len(P)) if brute.lt(P, a, b)]
        a = rng.choice(below)
        assert P.weight(a) < P.weight(b)


def _suite_adjacent_complementary_weights(rng):
    pool = _boolean_pool()
    graphs = {id(P): zero_divisor_graph(P) for P in pool}
    hits = 0
    for _ in range(CASES):
        P = rng.choice(pool)
        G = graphs[id(P)]
        edges = G.edges()
        v, w = edges[rng.randrange(len(edges))]
        if P.weight(v) + P.weight(w) == P.poset_weight():
            assert brute.complements(P, v) == {w}
            hits += 1
    assert hits > 0


def _suite_extension(rng):
    pool = _boolean_pool()
    graphs = {id(P): zero_divisor_graph(P) for P in pool}
    for _ in range(CASES):
        P = rng.choice(pool)
        G = graphs[id(P)]
        half = len(G.vertices) // 2
        target = rng.randint(0, half)
        seed: list[int] = []
        for v in rng.sample(G.vertices, len(G.vertices)):
            if len(seed) >= target:
                break
            if not (G.neighbors(v) & set(seed)):
                seed.append(v)
        got = extend_independent(P, G, seed)
        assert set(seed) <= set(got)
        assert len(got) == half
        got_set = set(got)
        for v in got:
            assert not (G.neighbors(v) & got_set - {v})
        for v in G.vertices:
            if v not in got_set:
                assert G.neighbors(v) & got_set


def _suite_facets_vs_brute(rng):
    for _ in range(CASES):
        n = rng.randint(1, 16)
        p = rng.uniform(0.1, 0.9)
        verts = list(range(n))
        edges = [
            (a, b) for a in verts for b in verts if a < b and rng.random() < p
        ]
        G = brute.graph(verts, edges)
        C = independence_complex(G)
        assert {frozenset(f) for f in C.facets} == brute.maximal_independent_sets(
            verts, brute.adjacency(G)
        )


def _suite_betti_relabeling(rng):
    for _ in range(CASES):
        n = rng.randint(1, 7)
        p = rng.uniform(0.2, 0.8)
        verts = list(range(n))
        edges = [
            (a, b) for a in verts for b in verts if a < b and rng.random() < p
        ]
        C = independence_complex(brute.graph(verts, edges))
        perm = verts[:]
        rng.shuffle(perm)
        relabeled = [tuple(perm[v] for v in f) for f in C.facets]
        assert brute.betti(C.facets) == brute.betti(relabeled)


def test_criterion_7_randomized_property_suites():
    budget = Budget(
        7, f"eight randomized suites, {CASES} cases each, zero failures", 120.0
    )
    suites = [
        ("cone Galois laws", _suite_cone_galois),
        ("unique complementation", _suite_unique_complements),
        ("complement weight sum", _suite_weight_sum),
        ("strict weight monotonicity", _suite_weight_monotone),
        ("adjacent complementary weights", _suite_adjacent_complementary_weights),
        ("greedy pair extension", _suite_extension),
        ("facet enumeration vs brute force", _suite_facets_vs_brute),
        ("Betti relabeling invariance", _suite_betti_relabeling),
    ]
    for pos, (label, suite) in enumerate(suites):
        t0 = time.monotonic()
        suite(random.Random(1000 + pos))
        print(f"  suite '{label}': {CASES} cases in {time.monotonic() - t0:.1f}s")
    budget.finish()
