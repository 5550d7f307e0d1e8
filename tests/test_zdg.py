import random

import pytest

import brute
from zdposet.errors import ZdPosetError
from zdposet.poset import direct_product, generate, parse_poset
from brute import (
    check_atom_end_lemma,
    check_unique_complementation,
    ends,
    graph_complements,
)
from zdposet.formats import to_dot
from zdposet.commands import zero_divisors
from zdposet.zdg import zero_divisor_graph


def names(P, vs):
    return set(brute.names(P, vs))


def test_zero_divisors_figure1(figure1):
    got = zero_divisors(figure1)
    middles = set(range(10)) - {figure1.bottom, figure1.top}
    assert got == middles | {figure1.bottom}
    assert got == brute.zero_divisors(figure1)


def test_zero_divisors_chain_and_cube():
    chain3 = generate("chain", 3)
    assert zero_divisors(chain3) == {chain3.bottom}
    cube = generate("boolean_lattice", 3)
    got = zero_divisors(cube)
    assert got == set(range(8)) - {cube.top}
    assert len(got - {cube.bottom}) == 6
    assert got == brute.zero_divisors(cube)


def test_graph_m_atoms_is_complete():
    P = generate("m_atoms", 3)
    G = zero_divisor_graph(P)
    assert len(G.vertices) == 3
    assert len(G.edges()) == 3  # K3


def test_graph_figure1_shape(figure1):
    G = zero_divisor_graph(figure1)
    e = {(figure1.elements[a], figure1.elements[b]) for a, b in G.edges()}
    atoms = ["q1", "q2", "q3", "q4"]
    expected = {(a, b) for i, a in enumerate(atoms) for b in atoms[i + 1 :]}
    expected |= {(q, q + "'") for q in atoms}
    assert e == expected


def test_graph_empty_for_chain():
    G = zero_divisor_graph(generate("chain", 3))
    assert G.vertices == ()
    assert to_dot(G) == "graph zdg {\n}\n"


def test_adjacency_matches_cone_definition(figure1):
    G = zero_divisor_graph(figure1)
    for v in G.vertices:
        for w in G.vertices:
            if v != w:
                assert (w in brute.neighbors(G, v)) == brute.adjacent(figure1, v, w)


def random_bounded_poset(rng: random.Random, n: int):
    """A random order on n elements, between an added bottom and top."""
    lines = ["poset v1", "elem z", *(f"elem e{i}" for i in range(n)), "elem t"]
    lines.append("le z t")
    for i in range(n):
        lines += [f"le z e{i}", f"le e{i} t"]
        lines += [f"le e{i} e{j}" for j in range(i + 1, n) if rng.random() < 0.3]
    return parse_poset("\n".join(lines) + "\n")


def test_rows_match_brute_adjacency(figure1):
    # the hand-written test graphs and the package's graphs share a form:
    # brute.graph on the nonzero zero-divisors, adjacent where the lower
    # cone is {0}, gives the same vertices, index and rows
    rng = random.Random(17)
    posets = [figure1]
    posets += [generate("boolean_lattice", k) for k in range(1, 6)]
    posets += [generate("atom_coatom", k) for k in range(2, 10)]
    posets += [generate(name, k) for name in ("chain", "m_atoms") for k in range(1, 5)]
    for specs in (
        (("chain", 3),) * 3,
        (("chain", 2), ("atom_coatom", 4)),
        (("chain", 4), ("m_atoms", 3)),
        (("m_atoms", 2), ("m_atoms", 3)),
    ):
        posets.append(direct_product([generate(*s) for s in specs]).carrier)
    posets += [random_bounded_poset(rng, rng.randint(0, 9)) for _ in range(80)]
    for P in posets:
        verts = brute.zero_divisors(P) - {P.bottom}
        edges = [(v, w) for v in verts for w in verts if brute.adjacent(P, v, w)]
        expected = brute.graph(verts, edges)
        G = zero_divisor_graph(P)
        assert (G.vertices, G.index, G.nbr) == (
            expected.vertices,
            expected.index,
            expected.nbr,
        ), P.to_text()


def test_graph_complements(figure1):
    G = zero_divisor_graph(figure1)
    q1 = figure1.elements.index("q1")
    assert names(figure1, graph_complements(G, q1)) == {"q1'"}
    K3 = zero_divisor_graph(generate("m_atoms", 3))
    assert graph_complements(K3, K3.vertices[0]) == frozenset()
    cube = generate("boolean_lattice", 3)
    Gc = zero_divisor_graph(cube)
    assert names(cube, graph_complements(Gc, cube.elements.index("a23"))) == {"a1"}
    with pytest.raises(ZdPosetError, match=f"^unknown vertex {figure1.bottom}$"):
        graph_complements(G, figure1.bottom)


def test_ends(figure1):
    G = zero_divisor_graph(figure1)
    assert names(figure1, ends(G)) == {"q1'", "q2'", "q3'", "q4'"}
    assert ends(zero_divisor_graph(generate("m_atoms", 3))) == frozenset()
    cube = generate("boolean_lattice", 3)
    assert names(cube, ends(zero_divisor_graph(cube))) == {"a12", "a13", "a23"}


def test_unique_complementation_check(figure1):
    G = zero_divisor_graph(figure1)
    assert check_unique_complementation(figure1, G).ok
    P4 = generate("boolean_lattice", 4)
    assert check_unique_complementation(P4, zero_divisor_graph(P4)).ok
    M = generate("m_atoms", 3)
    with pytest.raises(ZdPosetError, match="^poset is not Boolean: not distributive"):
        check_unique_complementation(M, zero_divisor_graph(M))


@pytest.mark.parametrize("name,param", [("atom_coatom", 4), ("boolean_lattice", 3), ("boolean_lattice", 2)])
def test_atom_end_lemma(name, param):
    P = generate(name, param)
    assert check_atom_end_lemma(P, zero_divisor_graph(P)).ok


def test_boolean_vertex_set_is_everything_but_bounds(boolean_catalog):
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        assert set(G.vertices) == set(range(len(P))) - {P.bottom, P.top}


def test_complement_pairs_with_matching_weights(boolean_catalog):
    # adjacent vertices whose weights add to wt(P) must be complements
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        k = P.poset_weight()
        for v, w in G.edges():
            if P.weight(v) + P.weight(w) == k:
                assert brute.complements(P, v) == {w}


def test_complement_edges_avoid_triangles(boolean_catalog):
    for P in boolean_catalog:
        G = zero_divisor_graph(P)
        for v in G.vertices:
            (c,) = brute.complements(P, v)
            assert not (brute.neighbors(G, v) & brute.neighbors(G, c))


def test_dot_export_figure1_golden(figure1):
    G = zero_divisor_graph(figure1)
    assert to_dot(G) == (
        "graph zdg {\n"
        '  "q1" -- "q2";\n'
        '  "q1" -- "q3";\n'
        '  "q1" -- "q4";\n'
        '  "q1" -- "q1\'";\n'
        '  "q2" -- "q3";\n'
        '  "q2" -- "q4";\n'
        '  "q2" -- "q2\'";\n'
        '  "q3" -- "q4";\n'
        '  "q3" -- "q3\'";\n'
        '  "q4" -- "q4\'";\n'
        "}\n"
    )


def test_product_of_two_three_chains_is_k22():
    pp = direct_product([generate("chain", 3)] * 2)
    G = zero_divisor_graph(pp.carrier)
    assert len(G.vertices) == 4
    degrees = sorted(len(brute.neighbors(G, v)) for v in G.vertices)
    assert degrees == [2, 2, 2, 2]
    assert len(G.edges()) == 4
