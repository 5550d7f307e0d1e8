import itertools
import json
import random

import pytest

import brute
from zdposet.certificate import boolean_labeling, verify_my_conditions
from zdposet.cmcert import Analysis, is_cohen_macaulay
from zdposet.complexes import (
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from zdposet.errors import TheoremContractError, ZdPosetError
from zdposet.formats import certificate_json
from zdposet.graphs import Graph
from zdposet.homology import reisner_cm
from zdposet.poset import direct_product, generate
from zdposet import search
from zdposet.search import find_ordering, matching_certificate, twin_pair
from zdposet.zdg import zero_divisor_graph


def k22():
    return brute.graph(["a1", "a2", "b1", "b2"], [
        ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
    ])


# --- boolean_labeling -----------------------------------------------------------


def facet(P, G):
    """The y side of the Boolean labeling: the canonical facet, in order."""
    return [y for _, y in boolean_labeling(P, G)]


def test_labeling_figure1(figure1):
    pairs = boolean_labeling(figure1, zero_divisor_graph(figure1))
    expected = tuple(
        (figure1.elements.index(f"q{i}"), figure1.elements.index(f"q{i}'"))
        for i in (1, 2, 3, 4)
    )
    assert pairs == expected
    assert brute.names(figure1, facet(figure1, zero_divisor_graph(figure1))) == (
        "q1'", "q2'", "q3'", "q4'",
    )


def test_labeling_cube():
    P = generate("boolean_lattice", 3)
    pairs = boolean_labeling(P, zero_divisor_graph(P))
    for x, y in pairs:
        assert brute.complements(P, y) == {x}
        assert P.weight(y) == 2
    assert set(brute.names(P, (y for _, y in pairs))) == {"a12", "a13", "a23"}


def test_labeling_2_4():
    P = generate("boolean_lattice", 4)
    G = zero_divisor_graph(P)
    ys = facet(P, G)
    assert len(ys) == 7
    assert frozenset(ys) in brute.maximal_independent_sets(G.vertices, brute.adjacency(G))
    # of each half-weight pair the facet holds the smaller member
    for v in ys:
        if P.weight(v) == 2:
            (c,) = brute.complements(P, v)
            assert v < c


def test_labeling_single_pair():
    P = generate("boolean_lattice", 2)
    pairs = boolean_labeling(P, zero_divisor_graph(P))
    assert len(pairs) == 1
    x, y = pairs[0]
    assert {P.elements[x], P.elements[y]} == {"a1", "a2"}


def test_labeling_guard():
    P = generate("m_atoms", 3)
    with pytest.raises(ZdPosetError, match="^poset is not Boolean: not distributive"):
        boolean_labeling(P, zero_divisor_graph(P))
    # one atom: the graph is empty, and so is the labeling
    P = generate("boolean_lattice", 1)
    assert boolean_labeling(P, zero_divisor_graph(P)) == ()


def test_labeling_matches_the_stratified_reference(boolean_catalog, b4_without_a12_a34):
    # the one-pass labeling against the weight strata, half-weight
    # representatives and complements built from the definitions, with
    # the element ids shuffled so that id order and weight order differ
    rng = random.Random(24)
    posets = [*boolean_catalog, b4_without_a12_a34]
    posets += [generate("atom_coatom", k) for k in range(2, 10)]
    posets += [
        direct_product([generate("boolean_lattice", a), generate("boolean_lattice", b)]).carrier
        for a, b in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))
    ]
    for P in posets:
        for Q in [P] + [brute.shuffled(P, rng) for _ in range(5)]:
            G = zero_divisor_graph(Q)
            assert boolean_labeling(Q, G) == brute.boolean_labeling_reference(Q, G), Q.to_text()


# --- verify_my_conditions -------------------------------------------------------


def test_verify_passes_on_figure1(figure1):
    G = zero_divisor_graph(figure1)
    cert = verify_my_conditions(G, boolean_labeling(figure1, G))
    assert cert.ok
    assert [name for name, _ in cert.conditions] == ["a", "b", "c", "d", "e"]


def test_verify_k22_fails_only_condition_e():
    G = k22()
    matchings = [
        (("b1", "a1"), ("b2", "a2")),
        (("b1", "a2"), ("b2", "a1")),
        (("a1", "b1"), ("a2", "b2")),
    ]
    for pairs in matchings:
        for perm in itertools.permutations(pairs):
            cert = verify_my_conditions(G, perm)
            assert not cert.ok
            conditions = dict(cert.conditions)
            assert not conditions["e"].ok
            for name in "abcd":
                assert conditions[name].ok


def test_verify_k2_passes():
    P = generate("boolean_lattice", 2)
    G = zero_divisor_graph(P)
    cert = verify_my_conditions(G, boolean_labeling(P, G))
    assert cert.ok


def test_verify_requires_partition(figure1):
    G = zero_divisor_graph(figure1)
    q = figure1.elements.index
    with pytest.raises(ZdPosetError, match="^the pairs do not partition the vertex set"):
        verify_my_conditions(G, ((q("q1"), q("q1'")),))


def test_stratum_order_itself_satisfies_all_conditions(boolean_catalog):
    # equal-weight strata admit no forward-breaking cross edges, so the
    # labeling passes even before the topological re-derivation
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        pairs = boolean_labeling(P, G)
        assert verify_my_conditions(G, pairs).ok


def test_permuting_pairs_only_moves_condition_e(figure1):
    G = zero_divisor_graph(figure1)
    pairs = list(boolean_labeling(figure1, G))
    rng = random.Random(5)
    base = dict(verify_my_conditions(G, pairs).conditions)
    for _ in range(20):
        rng.shuffle(pairs)
        cert = dict(verify_my_conditions(G, tuple(pairs)).conditions)
        for name in "abcd":
            assert cert[name].ok == base[name].ok


def test_condition_witnesses_carry_names():
    # path a-b-c labeled badly: pairs use a maximal independent set {a, c}
    G = brute.graph("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ZdPosetError, match="^the pairs do not partition the vertex set"):
        verify_my_conditions(G, (("b", "a"),))


def test_certificate_json_golden():
    P = generate("boolean_lattice", 2)
    G = zero_divisor_graph(P)
    cert = verify_my_conditions(G, boolean_labeling(P, G))
    obj = json.loads(certificate_json(cert))
    assert obj == {
        "h": 1,
        "pairs": [["a2", "a1"]],
        "conditions": {
            "a": {"ok": True, "witness": None},
            "b": {"ok": True, "witness": None},
            "c": {"ok": True, "witness": None},
            "d": {"ok": True, "witness": None},
            "e": {"ok": True, "witness": None},
        },
    }
    assert list(obj["conditions"]) == ["a", "b", "c", "d", "e"]


# --- find_ordering ----------------------------------------------------------------


def test_ordering_cube_matching_is_free():
    P = generate("boolean_lattice", 3)
    G = zero_divisor_graph(P)
    pairs = boolean_labeling(P, G)
    out = find_ordering(G, pairs)
    assert out is not None
    assert set(out) == set(pairs)


def test_ordering_k22_cycle():
    G = k22()
    assert find_ordering(G, (("b1", "a1"), ("b2", "a2"))) is None


def test_ordering_single_edge():
    G = brute.graph("ab", [("a", "b")])
    assert find_ordering(G, (("a", "b"),)) == (("a", "b"),)


# --- is_cohen_macaulay ---------------------------------------------------------------


def test_cm_boolean(figure1):
    v = is_cohen_macaulay(figure1)
    assert v.status == "CM"
    assert v.method == "boolean-certificate"
    assert v.certificate is not None and v.certificate.ok


def test_cm_boolean_poset_that_is_not_a_lattice(b4_without_a12_a34):
    v = is_cohen_macaulay(b4_without_a12_a34)
    assert (v.status, v.method) == ("CM", "boolean-certificate")
    C = independence_complex(zero_divisor_graph(b4_without_a12_a34))
    assert reisner_cm(C) == (True, None)


def test_cm_not_well_covered():
    pp = direct_product([generate("chain", 3)] * 3)
    v = is_cohen_macaulay(pp.carrier)
    assert (v.status, v.method) == ("NotCM", "not-well-covered")


def test_cm_oracle_path():
    v = is_cohen_macaulay(generate("m_atoms", 3))
    assert (v.status, v.method) == ("CM", "reisner-oracle")


def test_cm_k22_via_search():
    pp = direct_product([generate("chain", 3)] * 2)
    v = is_cohen_macaulay(pp.carrier)
    assert (v.status, v.method) == ("NotCM", "matching-search")


def test_cm_empty_graph_raises():
    with pytest.raises(ZdPosetError, match="^the zero-divisor graph has no vertices$"):
        is_cohen_macaulay(generate("chain", 3))


def test_cm_facet_cap_inconclusive(figure1):
    v = is_cohen_macaulay(generate("m_atoms", 3), max_vertices=2)
    assert v.status == "Inconclusive"


def test_certificate_implies_well_covered(boolean_catalog):
    for P in boolean_catalog:
        v = is_cohen_macaulay(P)
        assert v.status == "CM" and v.certificate.ok
        C = independence_complex(zero_divisor_graph(P))
        assert is_well_covered(C)


def test_condition_b_failure_witness():
    # pairs matched along a non-edge
    G = brute.graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    cert = verify_my_conditions(G, (("b", "a"), ("c", "d")))
    # (b) holds here; now force a non-edge pairing
    cert = verify_my_conditions(G, (("b", "d"), ("c", "a")))
    st = dict(cert.conditions)["b"]
    assert not st.ok and st.witness == ("b", "d")


def test_condition_c_failure_witness():
    edges = [
        ("x1", "y1"), ("x2", "y2"), ("x3", "y3"),
        ("x1", "x2"), ("y2", "x3"),
    ]
    G = brute.graph(["x1", "x2", "x3", "y1", "y2", "y3"], edges)
    pairs = (("x1", "y1"), ("x2", "y2"), ("x3", "y3"))
    cert = verify_my_conditions(G, pairs)
    st = dict(cert.conditions)["c"]
    assert not st.ok and st.witness == ("x1", "x2", "x3")


def test_condition_d_failure_witness():
    edges = [("x1", "y1"), ("x2", "y2"), ("x1", "y2"), ("x1", "x2")]
    G = brute.graph(["x1", "x2", "y1", "y2"], edges)
    cert = verify_my_conditions(G, (("x1", "y1"), ("x2", "y2")))
    st = dict(cert.conditions)["d"]
    assert not st.ok and st.witness == ("x1", "y2", "x2")


def test_search_verdict_matches_reisner_on_random_vwc_graphs():
    # on very well-covered graphs the matching route must agree with the
    # homology oracle
    rng = random.Random(41)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 4000:
        attempts += 1
        n = rng.choice([4, 6])
        verts = list(range(n))
        edges = [
            (a, b)
            for a in verts
            for b in verts
            if a < b and rng.random() < rng.choice([0.3, 0.5, 0.7])
        ]
        G = brute.graph(verts, edges)
        C = independence_complex(G)
        if not C.facets or not is_well_covered(C):
            continue
        if not is_very_well_covered(C):
            continue
        verdict = matching_certificate(G, C.masks[0])
        assert verdict.status in ("CM", "NotCM")
        ok, witness = reisner_cm(C)
        assert (ok, witness) == brute.reisner_cm_reference(C), edges
        assert (verdict.status == "CM") == ok, (edges, verdict.status)
        checked += 1
    assert checked == 40


def test_my_verdict_agrees_with_reisner_on_small_instances(figure1):
    posets = [
        generate("boolean_lattice", 2),
        generate("boolean_lattice", 3),
        generate("boolean_lattice", 4),
        generate("atom_coatom", 3),
        figure1,
        generate("m_atoms", 2),
        generate("m_atoms", 3),
        generate("m_atoms", 4),
        direct_product([generate("chain", 3)] * 2).carrier,
        direct_product([generate("chain", 2), generate("chain", 4)]).carrier,
    ]
    for P in posets:
        G = zero_divisor_graph(P)
        if len(G.vertices) > 16:
            continue
        v = is_cohen_macaulay(P)
        assert v.status in ("CM", "NotCM")
        ok, _ = reisner_cm(independence_complex(G))
        assert (v.status == "CM") == ok, P


# --- the pair-table layer against the loop references ----------------------------


def random_pairing_graph(rng, h):
    """2h shuffled vertices paired up, each pair an edge with probability
    0.9, plus random edges; returns the graph and the pairs in random
    order and orientation."""
    verts = list(range(2 * h))
    rng.shuffle(verts)
    pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(h)]
    p = rng.choice([0.1, 0.25, 0.5])
    edges = {(x, y) for x, y in pairs if rng.random() < 0.9}
    edges |= {
        (a, b) for a in range(2 * h) for b in range(a + 1, 2 * h) if rng.random() < p
    }
    return brute.graph(range(2 * h), edges), pairs


def test_verify_matches_reference_on_random_pairings():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2000):
        G, pairs = random_pairing_graph(rng, rng.randint(1, 7))
        cert = verify_my_conditions(G, pairs)
        ref = brute.verify_my_conditions_reference(G, pairs)
        assert cert.pair_names == ref.pair_names
        assert cert.conditions == ref.conditions, (G.edges(), pairs)
        seen |= {(name, st.ok) for name, st in cert.conditions}
    # every condition both holds and fails somewhere in the sample
    assert seen == {(name, ok) for name in "abcde" for ok in (True, False)}


def test_verify_matches_reference_on_boolean_labelings(boolean_catalog):
    rng = random.Random(8)
    for P in boolean_catalog[:6]:
        G = zero_divisor_graph(P)
        pairs = list(boolean_labeling(P, G))
        for _ in range(3):
            cert = verify_my_conditions(G, pairs)
            assert cert == brute.verify_my_conditions_reference(G, pairs)
            rng.shuffle(pairs)


def test_find_ordering_matches_reference_on_random_matchings():
    rng = random.Random(99)
    feasible = 0
    for _ in range(2000):
        G, pairs = random_pairing_graph(rng, rng.randint(1, 8))
        matching = pairs[: rng.randint(0, len(pairs))]
        out = find_ordering(G, matching)
        assert out == brute.find_ordering_reference(G, matching), (G.edges(), matching)
        feasible += out is not None
    assert 0 < feasible < 2000


def random_vwc_graph(rng, h):
    """A very well-covered graph from a planted pairing with an independent
    side and random x-x and cross edges, or None when the draw is not."""
    verts = list(range(2 * h))
    rng.shuffle(verts)
    xs, ys = verts[:h], verts[h:]
    p = rng.choice([0.15, 0.3, 0.45])
    edges = set(zip(xs, ys))
    for i in range(h):
        for j in range(h):
            if i != j and rng.random() < p:
                edges.add((xs[i], ys[j]))
            if i < j and rng.random() < p:
                edges.add((xs[i], xs[j]))
    G = brute.graph(verts, edges)
    C = independence_complex(G)
    return (G, C) if is_well_covered(C) and is_very_well_covered(C) else None


def planted_vwc_graph(rng, h):
    """A perfect matching x_i - y_i plus random edges, with shuffled
    labels, or None when the draw is not very well-covered."""
    verts = list(range(2 * h))
    rng.shuffle(verts)
    p = rng.choice([0.1, 0.2, 0.3])
    edges = {(verts[2 * i], verts[2 * i + 1]) for i in range(h)}
    edges |= {e for e in itertools.combinations(verts, 2) if rng.random() < p}
    G = brute.graph(verts, edges)
    C = independence_complex(G)
    return (G, C) if is_very_well_covered(C) else None


def small_vwc_graphs():
    """Every labeled very well-covered graph on 1 to 6 vertices."""
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            G = brute.graph(range(n), [e for i, e in enumerate(pairs) if code >> i & 1])
            if not G.has_isolated_vertex():
                C = independence_complex(G)
                if is_very_well_covered(C):
                    yield G, C


def draw(make, rng, sizes, count):
    cases = []
    while len(cases) < count:
        drawn = make(rng, rng.randint(*sizes))
        if drawn is not None:
            cases.append(drawn)
    return cases


def test_route_matches_the_exhaustive_search_and_reisner():
    # the route's status against the exhaustive labeling search, at a
    # budget it never reaches, and against the homology oracle; a NotCM
    # names two non-adjacent vertices with one neighbourhood, and a CM
    # certificate passes the loop-level verifier
    rng = random.Random(17)
    small = list(small_vwc_graphs())
    assert len(small) == 1289
    cases = {
        "small": small,
        "drawn": draw(random_vwc_graph, rng, (2, 6), 150),
        "planted": draw(planted_vwc_graph, rng, (4, 7), 60),
    }
    statuses = set()
    for kind, graphs in cases.items():
        for G, C in graphs:
            got = matching_certificate(G, C.masks[0])
            ref = brute.search_certificate_reference(G, C.facets, 10**9)
            ok, _ = reisner_cm(C)
            assert got.status == ref.status == ("CM" if ok else "NotCM"), G.edges()
            if got.status == "CM":
                assert brute.verify_my_conditions_reference(G, got.certificate.pairs).ok
            else:
                by_label = {G.label(v): v for v in G.vertices}
                u, w = map(by_label.get, got.detail.split(" have ")[0].split(" and "))
                adj = brute.adjacency(G)
                assert u != w and not adj(u, w)
                assert {z for z in G.vertices if adj(u, z)} == {z for z in G.vertices if adj(w, z)}
            statuses.add((kind, got.status))
    assert statuses == {(kind, s) for kind in cases for s in ("CM", "NotCM")}


def test_twin_pair_is_the_first_pair_of_equal_rows():
    assert twin_pair(k22()) == (0, 1)
    assert twin_pair(brute.graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])) is None
    assert twin_pair(brute.graph("abc", [("a", "b"), ("b", "c")])) == (0, 2)


# a path a-b-c-d: twin-free, very well-covered and Cohen-Macaulay
P4 = brute.graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_route_certifies_the_path_on_four_vertices():
    C = independence_complex(P4)
    v = matching_certificate(P4, C.masks[0])
    assert (v.status, v.method) == ("CM", "matching-search")
    assert v.certificate.pairs == (("b", "a"), ("d", "c"))


def test_route_rematches_along_alternating_paths():
    # a triangle 0 4 5 with whiskers 3, 1, 2 on its corners; the first
    # facet is {0, 1, 2}.  Whisker 3 takes 0, its one neighbour there,
    # and keeps it: 4 and 5 each try 0 first, then take their whiskers
    G = brute.graph(range(6), [(0, 4), (0, 5), (4, 5), (0, 3), (4, 1), (5, 2)])
    C = independence_complex(G)
    assert C.masks[0] == 0b111
    v = matching_certificate(G, C.masks[0])
    assert (v.status, v.certificate.pairs) == ("CM", ((4, 1), (5, 2), (3, 0)))


def test_route_traps_a_facet_it_cannot_match():
    # a-b-c-d-e is twin-free; the facet {b, e} leaves three vertices
    G = brute.graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    with pytest.raises(TheoremContractError, match="no perfect matching"):
        matching_certificate(G, 0b10010)


def test_route_traps_an_unorderable_matching(monkeypatch):
    monkeypatch.setattr(search, "find_ordering", lambda G, matching: None)
    with pytest.raises(TheoremContractError, match="cross edges close a cycle"):
        matching_certificate(P4, independence_complex(P4).masks[0])


def test_route_traps_a_failing_certificate(monkeypatch):
    # the pairs in reverse order run the cross edge b - c backwards
    order = search.find_ordering
    monkeypatch.setattr(search, "find_ordering", lambda G, matching: order(G, matching)[::-1])
    with pytest.raises(TheoremContractError, match=r"certificate fails .*: \(e\) \('b', 'c'\)"):
        matching_certificate(P4, independence_complex(P4).masks[0])


def test_certificate_layer_reads_only_adjacency_rows(boolean_catalog, monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate layer must read G.nbr rows")

    # Graph has no neighbour-set method; a planted one must go uncalled
    monkeypatch.setattr(Graph, "neighbors", refuse, raising=False)
    for P in boolean_catalog:
        v = Analysis(zero_divisor_graph(P)).verdict
        assert (v.status, v.method) == ("CM", "boolean-certificate")
    pp = direct_product([generate("chain", 3)] * 2)
    v = Analysis(zero_divisor_graph(pp.carrier)).verdict
    assert (v.status, v.method) == ("NotCM", "matching-search")
    assert find_ordering(k22(), (("b1", "a1"), ("b2", "a2"))) is None
