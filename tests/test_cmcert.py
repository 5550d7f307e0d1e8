import itertools
import json
import random

import pytest

import brute
from zdposet.cmcert import (
    Analysis,
    boolean_facet,
    boolean_labeling,
    is_cohen_macaulay,
    verify_my_conditions,
)
from zdposet.complexes import (
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from zdposet.errors import ZdPosetError
from zdposet.graphs import Graph
from zdposet.homology import reisner_cm
from zdposet.poset import direct_product, generate
from zdposet.search import _search_certificate, find_ordering
from zdposet.zdg import zero_divisor_graph


def k22():
    return brute.graph(["a1", "a2", "b1", "b2"], [
        ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
    ])


# --- boolean_facet ------------------------------------------------------------


def test_boolean_facet_figure1(figure1):
    S = boolean_facet(figure1, zero_divisor_graph(figure1))
    assert S.k == 4
    q = figure1.elements.index
    assert dict(S.strata) == {1: tuple(q(name) for name in ("q1'", "q2'", "q3'", "q4'"))}
    assert S.b_hat == ()
    assert figure1.names(S.facet) == ("q1'", "q2'", "q3'", "q4'")


def test_boolean_facet_cube():
    P = generate("boolean_lattice", 3)
    S = boolean_facet(P, zero_divisor_graph(P))
    assert S.k == 3
    assert set(P.names(S.facet)) == {"a12", "a13", "a23"}


def test_boolean_facet_2_4():
    P = generate("boolean_lattice", 4)
    G = zero_divisor_graph(P)
    S = boolean_facet(P, G)
    assert len(S.facet) == 7
    assert frozenset(S.facet) in brute.maximal_independent_sets(G.vertices, brute.adjacency(G))
    # representatives are the smaller member of each half-weight pair
    for v in S.b_hat:
        (c,) = P.complements_of(v)
        assert v < c


def test_boolean_facet_guards():
    P = generate("m_atoms", 3)
    with pytest.raises(ZdPosetError, match="^poset is not Boolean: not distributive"):
        boolean_facet(P, zero_divisor_graph(P))
    P = generate("boolean_lattice", 1)
    with pytest.raises(
        ZdPosetError, match=r"^poset has 1 atom\(s\); the zero-divisor graph is empty$"
    ):
        boolean_facet(P, zero_divisor_graph(P))


# --- boolean_labeling -----------------------------------------------------------


def test_labeling_figure1(figure1):
    pairs = boolean_labeling(figure1, boolean_facet(figure1, zero_divisor_graph(figure1)))
    expected = tuple(
        (figure1.elements.index(f"q{i}"), figure1.elements.index(f"q{i}'"))
        for i in (1, 2, 3, 4)
    )
    assert pairs == expected


def test_labeling_cube():
    P = generate("boolean_lattice", 3)
    pairs = boolean_labeling(P, boolean_facet(P, zero_divisor_graph(P)))
    for x, y in pairs:
        assert P.complements_of(y) == {x}
        assert P.weight(y) == 2


def test_labeling_single_pair():
    P = generate("boolean_lattice", 2)
    pairs = boolean_labeling(P, boolean_facet(P, zero_divisor_graph(P)))
    assert len(pairs) == 1
    x, y = pairs[0]
    assert {P.elements[x], P.elements[y]} == {"a1", "a2"}


# --- verify_my_conditions -------------------------------------------------------


def test_verify_passes_on_figure1(figure1):
    G = zero_divisor_graph(figure1)
    cert = verify_my_conditions(G, boolean_labeling(figure1, boolean_facet(figure1, G)))
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
    cert = verify_my_conditions(G, boolean_labeling(P, boolean_facet(P, G)))
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
        pairs = boolean_labeling(P, boolean_facet(P, G))
        assert verify_my_conditions(G, pairs).ok


def test_permuting_pairs_only_moves_condition_e(figure1):
    G = zero_divisor_graph(figure1)
    pairs = list(boolean_labeling(figure1, boolean_facet(figure1, G)))
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
    cert = verify_my_conditions(G, boolean_labeling(P, boolean_facet(P, G)))
    obj = json.loads(cert.to_json())
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
    pairs = boolean_labeling(P, boolean_facet(P, G))
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


def test_cm_search_budget_inconclusive():
    pp = direct_product([generate("chain", 3)] * 2)
    v = is_cohen_macaulay(pp.carrier, max_search_nodes=1)
    assert v.status == "Inconclusive"


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
    # exhaustive-search soundness: on very well-covered graphs the labeling
    # search must agree with the homology oracle
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
        verdict = _search_certificate(G, C.masks, 10**6)
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
        pairs = list(boolean_labeling(P, boolean_facet(P, G)))
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


def test_search_matches_reference_with_small_budgets():
    rng = random.Random(17)
    cases = [
        (G, independence_complex(G))
        for G in (
            zero_divisor_graph(direct_product([generate("chain", 3)] * 2).carrier),
            zero_divisor_graph(direct_product([generate("chain", 4)] * 2).carrier),
            zero_divisor_graph(generate("boolean_lattice", 3)),
        )
    ]
    while len(cases) < 400:
        drawn = random_vwc_graph(rng, rng.randint(2, 6))
        if drawn is not None:
            cases.append(drawn)
    statuses = set()
    for G, C in cases:
        for budget in (3, 10, 50, 10**6):
            got = _search_certificate(G, C.masks, budget)
            assert got == brute.search_certificate_reference(G, C.facets, budget)
            statuses.add(got.status)
    assert statuses == {"CM", "NotCM", "Inconclusive"}


def test_certificate_layer_reads_only_adjacency_rows(boolean_catalog, monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate layer must read G.nbr rows")

    monkeypatch.setattr(Graph, "neighbors", refuse)
    for P in boolean_catalog:
        v = Analysis(zero_divisor_graph(P)).verdict
        assert (v.status, v.method) == ("CM", "boolean-certificate")
    pp = direct_product([generate("chain", 3)] * 2)
    v = Analysis(zero_divisor_graph(pp.carrier)).verdict
    assert (v.status, v.method) == ("NotCM", "matching-search")
    assert find_ordering(k22(), (("b1", "a1"), ("b2", "a2"))) is None
