import random

import pytest

import brute
from brute import NotIndependentError, extend_independent
from zdposet.complexes import (
    IndependenceComplex,
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from zdposet.errors import SizeLimitExceededError, ZdPosetError
from zdposet.formats import export_edge_ideal
from zdposet.poset import direct_product, generate
from zdposet.zdg import zero_divisor_graph


def facet_names(P, C):
    return [tuple(P.elements[v] for v in f) for f in C.facets]


def test_figure1_facets_exact(figure1):
    C = independence_complex(zero_divisor_graph(figure1))
    assert facet_names(figure1, C) == [
        ("q1", "q2'", "q3'", "q4'"),
        ("q2", "q1'", "q3'", "q4'"),
        ("q3", "q1'", "q2'", "q4'"),
        ("q4", "q1'", "q2'", "q3'"),
        ("q1'", "q2'", "q3'", "q4'"),
    ]


def test_graph_rejects_unknown_vertices_and_loops():
    with pytest.raises(ZdPosetError, match="uses an unknown vertex") as err:
        brute.graph("ab", [("a", "z")])
    assert str(err.value) == "edge ('a', 'z') uses an unknown vertex"
    with pytest.raises(ValueError) as err:
        brute.graph("ab", [("a", "a")])
    assert str(err.value) == "loop at 'a': graphs here are simple"


def test_k2_facets():
    G = brute.graph(["a", "b"], [("a", "b")])
    C = independence_complex(G)
    assert C.facets == (("a",), ("b",))


def test_cube_facets_against_brute_force():
    P = generate("boolean_lattice", 3)
    G = zero_divisor_graph(P)
    C = independence_complex(G)
    assert len(C.facets) == 4
    assert all(len(f) == 3 for f in C.facets)
    expected = brute.maximal_independent_sets(G.vertices, brute.adjacency(G))
    assert {frozenset(f) for f in C.facets} == expected


@pytest.mark.parametrize("seed", range(12))
def test_facets_match_brute_force_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    verts = list(range(n))
    edges = [
        (a, b)
        for a in verts
        for b in verts
        if a < b and rng.random() < 0.4
    ]
    G = brute.graph(verts, edges)
    C = independence_complex(G)
    assert {frozenset(f) for f in C.facets} == brute.maximal_independent_sets(
        verts, brute.adjacency(G)
    )


def test_well_covered(figure1):
    assert is_well_covered(independence_complex(zero_divisor_graph(figure1)))
    path3 = brute.graph("abc", [("a", "b"), ("b", "c")])
    assert not is_well_covered(independence_complex(path3))
    ppp = direct_product([generate("chain", 3)] * 3)
    assert not is_well_covered(
        independence_complex(zero_divisor_graph(ppp.carrier))
    )


def test_well_covered_requires_facets():
    with pytest.raises(ZdPosetError, match="^complex has no facets$"):
        is_well_covered(IndependenceComplex(brute.graph("ab", []), []))


def test_very_well_covered(figure1):
    assert is_very_well_covered(independence_complex(zero_divisor_graph(figure1)))
    K3 = zero_divisor_graph(generate("m_atoms", 3))
    assert not is_very_well_covered(independence_complex(K3))
    P4 = generate("boolean_lattice", 4)
    C4 = independence_complex(zero_divisor_graph(P4))
    assert is_very_well_covered(C4)
    assert len(C4.facets[0]) == 7


def test_extend_independent_from_empty(figure1):
    G = zero_divisor_graph(figure1)
    got = extend_independent(figure1, G, ())
    assert got == tuple(sorted(map(figure1.elements.index, ("q1'", "q2'", "q3'", "q4'"))))


def test_extend_independent_cube_seed():
    P = generate("boolean_lattice", 3)
    G = zero_divisor_graph(P)
    got = extend_independent(P, G, {P.elements.index("a1")})
    assert set(P.names(got)) == {"a1", "a13", "a12"}


def test_extend_independent_fixpoint(figure1):
    G = zero_divisor_graph(figure1)
    facet = tuple(sorted(map(figure1.elements.index, ("q1'", "q2'", "q3'", "q4'"))))
    assert extend_independent(figure1, G, facet) == facet


def test_extend_independent_guards(figure1):
    G = zero_divisor_graph(figure1)
    with pytest.raises(NotIndependentError):
        extend_independent(figure1, G, ids := set(map(figure1.elements.index, ("q1", "q2"))))
    M = generate("m_atoms", 3)
    with pytest.raises(ZdPosetError, match="^poset is not Boolean: not distributive"):
        extend_independent(M, zero_divisor_graph(M), ())


def test_extend_independent_random_seeds(boolean_catalog):
    rng = random.Random(3)
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        C = independence_complex(G)
        half = len(G.vertices) // 2
        for _ in range(10):
            seed = []
            for v in rng.sample(G.vertices, len(G.vertices)):
                if not (G.neighbors(v) & set(seed)):
                    seed.append(v)
                if len(seed) == rng.randint(0, half):
                    break
            got = extend_independent(P, G, seed)
            assert len(got) == half
            assert got in C.facets


def test_facet_complements_are_exactly_the_minimal_covers(figure1):
    G = zero_divisor_graph(figure1)
    C = independence_complex(G)
    edges = G.edges()
    from_facets = {frozenset(set(G.vertices) - set(f)) for f in C.facets}
    for cover in from_facets:
        assert brute.is_minimal_vertex_cover(edges, set(cover))
    all_minimal = set()
    verts = list(G.vertices)
    for mask in range(1 << len(verts)):
        cover = {verts[i] for i in range(len(verts)) if (mask >> i) & 1}
        if brute.is_minimal_vertex_cover(edges, cover):
            all_minimal.add(frozenset(cover))
    assert all_minimal == from_facets


def test_size_cap():
    G = brute.graph(range(41), [])
    with pytest.raises(SizeLimitExceededError):
        independence_complex(G)
    assert len(independence_complex(G, max_vertices=41).facets) == 1


# --- edge ideal export ---------------------------------------------------------


def test_export_k2_m2_golden():
    G = brute.graph(["a", "b"], [("a", "b")])
    assert export_edge_ideal(G, "m2") == (
        "-- v0 = a\n"
        "-- v1 = b\n"
        "R = QQ[v0..v1];\n"
        "I = monomialIdeal(v0*v1);\n"
    )


def test_export_figure1_has_ten_generators(figure1):
    G = zero_divisor_graph(figure1)
    script = export_edge_ideal(G, "m2")
    gens = script.split("monomialIdeal(")[1].rstrip(");\n").split(", ")
    assert len(gens) == 10


def test_export_cube_singular():
    P = generate("boolean_lattice", 3)
    G = zero_divisor_graph(P)
    script = export_edge_ideal(G, "singular")
    assert script.startswith("// v0 = a1\n")
    assert "ring R = 0, (v0..v5), dp;" in script
    gens = script.split("ideal I = ")[1].rstrip(";\n").split(", ")
    assert len(gens) == 6


def test_export_two_squares_singular_golden():
    P = generate("boolean_lattice", 2)
    G = zero_divisor_graph(P)
    assert export_edge_ideal(G, "singular") == (
        "// v0 = a1\n"
        "// v1 = a2\n"
        "ring R = 0, (v0..v1), dp;\n"
        "ideal I = v0*v1;\n"
    )


def test_export_guards():
    with pytest.raises(ZdPosetError, match="^graph has no vertices: nothing to export$"):
        export_edge_ideal(brute.graph([], []), "m2")
    with pytest.raises(ValueError):
        export_edge_ideal(brute.graph(["a"], []), "maple")
