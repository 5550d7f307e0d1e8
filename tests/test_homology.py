import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from test_crossval import betti_by_dense_fractions
from zdposet import homology
from zdposet.complexes import independence_complex, is_well_covered
from zdposet.errors import SizeLimitExceededError
from zdposet.formats import link_table
from zdposet.homology import faces_by_dimension, link_rows, reisner_cm
from zdposet.poset import direct_product, generate
from zdposet.zdg import zero_divisor_graph


def betti_map(facets):
    """The nonzero reduced Betti numbers of the complex with these facets."""
    return {d: b for d, b in brute.betti(facets).items() if b}


# flag complexes as independence complexes: Ind(C4) has the facets
# {1,3} and {2,4}; the edgeless graph on 1, 2 gives the edge {1,2}; the
# edge 1-3 gives {1,2}, {2,3}; the edges 1-2, 1-3 give {1}, {2,3}
FOUR_CYCLE = independence_complex(brute.graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)]))
SIMPLEX = independence_complex(brute.graph([1, 2], []))
PATH_FACETS = independence_complex(brute.graph([1, 2, 3], [(1, 3)]))
POINT_AND_EDGE = independence_complex(brute.graph([1, 2, 3], [(1, 2), (1, 3)]))
# complexes given by facets alone (vertex tuples), with no graph: the
# 6-vertex real projective plane has H_1 = Z/2, so over F2 it has
# b_1 = b_2 = 1 while its rational homology vanishes; its suspension
# joins two apexes to every facet; neither is a flag complex
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
]
SIGMA_RP2 = [f + (apex,) for f in RP2 for apex in (7, 8)]


def test_faces_of_two_points():
    C = independence_complex(brute.graph("ab", [("a", "b")]))
    by_size = faces_by_dimension(C)
    assert by_size == [[()], [("a",), ("b",)]]


def test_faces_of_two_disjoint_edges():
    by_size = faces_by_dimension(FOUR_CYCLE)
    assert by_size == [[()], [(1,), (2,), (3,), (4,)], [(1, 3), (2, 4)]]


def test_figure1_f_vector_from_closure(figure1):
    # frozen from the brute-force closure of the five facets; the reduced
    # Euler characteristic -1+8-18+16-5 vanishes
    C = independence_complex(zero_divisor_graph(figure1))
    expected = brute.f_vector(C.facets)
    assert expected == (1, 8, 18, 16, 5)
    got = [len(b) for b in faces_by_dimension(C)]
    assert tuple(got) == expected
    # cross-check f_1 against the edge count: C(8,2) - 10 edges
    assert got[2] == 8 * 7 // 2 - 10


def test_betti_two_disjoint_points():
    assert betti_map([("a",), ("b",)]) == {0: 1}


def test_betti_hollow_triangle():
    assert betti_map([(1, 2), (2, 3), (1, 3)]) == {1: 1}


def test_betti_two_disjoint_edges():
    assert betti_map(FOUR_CYCLE.facets) == {0: 1}


def test_betti_sphere_and_point():
    octa = [
        (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5),
        (1, 2, 6), (2, 3, 6), (3, 4, 6), (1, 4, 6),
    ]
    assert betti_map(octa) == {2: 1}
    assert betti_map([(1,)]) == {}
    assert betti_map([()]) == {-1: 1}


def test_figure1_complex_is_acyclic(figure1):
    # the complex passes the link criterion, so homology vanishes below the
    # top dimension, and the zero Euler characteristic kills the top too
    C = independence_complex(zero_divisor_graph(figure1))
    assert betti_map(C.facets) == {}


def row_of(C, face):
    """The face walk's (link dimension, Betti vector) for ``face``."""
    return next((dim, b) for f, dim, b in link_rows(C) if C.vertices_of(f) == face)


def test_link_identity_and_facet(figure1):
    # the empty face's link is the whole acyclic complex, and a facet's is {∅}
    C = independence_complex(zero_divisor_graph(figure1))
    assert row_of(C, ()) == (3, {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0})
    assert row_of(C, C.facets[0]) == (-1, {-1: 1})


def test_link_of_vertex(figure1):
    P = figure1
    C = independence_complex(zero_divisor_graph(P))
    face = (P.elements.index("q1'"),)
    top = max(map(len, brute.link_faces(C.facets, face)))
    dim, betti = row_of(C, face)
    assert dim == top - 1 == 2
    assert betti == dict.fromkeys(range(-1, 3), 0)


def test_reisner_verdicts(figure1):
    C = independence_complex(zero_divisor_graph(figure1))
    assert reisner_cm(C) == (True, None)
    assert FOUR_CYCLE.facets == ((1, 3), (2, 4))
    assert reisner_cm(FOUR_CYCLE) == (False, ((), 0))
    K3 = independence_complex(zero_divisor_graph(generate("m_atoms", 3)))
    assert reisner_cm(K3) == (True, None)


def test_reisner_on_nonpure_product_complex():
    pp = direct_product([generate("chain", 3)] * 3)
    C = independence_complex(zero_divisor_graph(pp.carrier))
    ok, witness = reisner_cm(C)
    assert not ok
    face, dim = witness
    assert dim < row_of(C, face)[0]


def test_betti_invariant_under_relabeling():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 8)
        verts = list(range(n))
        edges = [
            (a, b) for a in verts for b in verts if a < b and rng.random() < 0.5
        ]
        C = independence_complex(brute.graph(verts, edges))
        perm = verts[:]
        rng.shuffle(perm)
        relabeled = [tuple(perm[v] for v in f) for f in C.facets]
        assert brute.betti(C.facets) == brute.betti(relabeled)


def test_rank_matches_dense_fractions(figure1):
    # an independent rank: plain Fraction elimination, nothing shared
    complexes = [
        independence_complex(zero_divisor_graph(figure1)).facets,
        [(1, 2), (2, 3), (1, 3)],
        FOUR_CYCLE.facets,
        RP2,
        SIGMA_RP2,
        independence_complex(zero_divisor_graph(generate("boolean_lattice", 3))).facets,
    ]
    for facets in complexes:
        assert brute.betti(facets) == betti_by_dense_fractions(facets)


def test_reisner_pass_implies_pure():
    from zdposet.complexes import is_well_covered

    rng = random.Random(23)
    complexes = [
        independence_complex(zero_divisor_graph(generate("boolean_lattice", 3))),
        independence_complex(zero_divisor_graph(generate("m_atoms", 4))),
        PATH_FACETS,
        POINT_AND_EDGE,
    ]
    assert PATH_FACETS.facets == ((1, 2), (2, 3))
    assert POINT_AND_EDGE.facets == ((1,), (2, 3))
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = [
            (a, b) for a in range(n) for b in range(n) if a < b and rng.random() < 0.5
        ]
        complexes.append(independence_complex(brute.graph(range(n), edges)))
    for C in complexes:
        ok, witness = reisner_cm(C)
        assert (ok, witness) == brute.reisner_cm_reference(C), C.facets
        if ok:
            assert is_well_covered(C)


def test_reisner_cm_and_link_table():
    C = FOUR_CYCLE
    assert reisner_cm(C)[0] is False
    lines = link_table(C, link_rows(C)).splitlines()
    assert lines[0] == "face\tlink-dim\tbetti"
    assert lines[1] == "{}\t1\t0,1,0"  # the whole complex is disconnected
    assert lines[-1] == "CM: no"
    assert len(lines) == 2 + 7  # header, 7 faces, summary
    assert SIMPLEX.facets == ((1, 2),)
    assert reisner_cm(SIMPLEX) == (True, None)


def test_homology_size_cap():
    verts = list(range(21))
    complete = [(a, b) for a in verts for b in verts if a < b]
    C = independence_complex(brute.graph(verts, complete))
    for run in (faces_by_dimension, link_rows, reisner_cm):
        with pytest.raises(SizeLimitExceededError):
            run(C)
    # 21 points: the empty face's link has b_0 = 20
    assert link_rows(C, max_vertices=21)[0] == (0, 0, {-1: 0, 0: 20})


def test_two_torsion_seen_over_f2_only():
    # H_1(RP2) = Z/2 leaves no rational homology, in RP2 or its suspension
    assert betti_map(RP2) == {}
    assert betti_map(SIGMA_RP2) == {}
    assert brute.reisner_cm_reference(brute.facets_of(RP2)) == (True, None)
    assert brute.reisner_cm_reference(brute.facets_of(SIGMA_RP2)) == (True, None)


SURVIVOR_POSETS = {
    "atom_coatom 6": generate("atom_coatom", 6),
    "boolean_lattice 4": generate("boolean_lattice", 4),
    "chain 3 x chain 3 x chain 3": direct_product([generate("chain", 3)] * 3).carrier,
    "chain 4 x m_atoms 3": direct_product(
        [generate("chain", 4), generate("m_atoms", 3)]
    ).carrier,
}
# CM, link graphs ranked, vertices left after folding
FOLD_SURVIVORS = {
    "figure1": (True, 4, {2}),
    "atom_coatom 6": (True, 6, {2}),
    "boolean_lattice 4": (True, 11, {2, 4, 6}),
    "chain 3 x chain 3 x chain 3": (False, 1, {2}),
    "chain 4 x m_atoms 3": (False, 1, {2}),
}


def record_link_work(monkeypatch):
    """Record the rest mask of every ``_fold`` call and the vertex count
    of every link graph that reaches ``_betti``."""
    folds, ranked = [], []
    fold, betti = homology._fold, homology._betti

    def recording_fold(nbr, rest):
        folds.append(rest)
        return fold(nbr, rest)

    def recording_betti(by_size):
        ranked.append(len(by_size[1]))
        return betti(by_size)

    monkeypatch.setattr(homology, "_fold", recording_fold)
    monkeypatch.setattr(homology, "_betti", recording_betti)
    return folds, ranked


def rest_masks(C, witness=None):
    """V - N[F] as a mask for each face F of the facet closure, in (size,
    lex) order, up to and including the face ``witness`` if one is given."""
    G = C.graph
    rests = []
    for bucket in brute.face_masks(C.masks):
        for mask in bucket:
            face = C.vertices_of(mask)
            closed = set(face).union(*(G.neighbors(v) for v in face))
            rests.append(sum(1 << G.index[v] for v in C.vertices if v not in closed))
            if face == witness:
                return rests
    return rests


@pytest.mark.parametrize("name", sorted(FOLD_SURVIVORS))
def test_only_fold_survivors_are_ranked(name, request, monkeypatch):
    # every link graph is folded, once per distinct rest mask, before any of its
    # faces is built; the CM complexes rank only the links left (each K2,
    # i.e. S^0, on atom_coatom 6), and the non-CM products stop at their
    # witness, the first survivor
    if name == "figure1":
        P = request.getfixturevalue("figure1")
    else:
        P = SURVIVOR_POSETS[name]
    C = independence_complex(zero_divisor_graph(P))
    cm, graphs, vertices = FOLD_SURVIVORS[name]
    expected = brute.reisner_cm_reference(C)
    assert expected[0] == cm
    rests = rest_masks(C, expected[1][0] if expected[1] else None)
    folds, ranked = record_link_work(monkeypatch)
    assert reisner_cm(C) == expected
    assert sorted(folds) == sorted(set(rests))
    assert len(ranked) == graphs
    assert set(ranked) == vertices


def test_table_ranks_only_fold_survivors(monkeypatch):
    # chain 4 x m_atoms 3 is not well-covered: its 4,656 faces have fewer
    # distinct rest masks, and only 4 of those leave a link that folding
    # does not contract, each a K2
    P = SURVIVOR_POSETS["chain 4 x m_atoms 3"]
    C = independence_complex(zero_divisor_graph(P))
    rests = rest_masks(C)
    folds, ranked = record_link_work(monkeypatch)
    lines = link_table(C, link_rows(C)).splitlines()
    assert len(lines) == 4656 + 2
    assert sorted(folds) == sorted(set(rests))
    assert len(folds) < len(rests)
    assert ranked == [2, 2, 2, 2]


def test_failing_walk_stops_at_its_witness_level(monkeypatch):
    # faces are built one size at a time as the walk reaches them, so a
    # complex that fails Reisner builds none past the size after its
    # witness's; chain 3^3 fails at an 8-vertex face of its 6,400
    C = independence_complex(
        zero_divisor_graph(SURVIVOR_POSETS["chain 3 x chain 3 x chain 3"])
    )
    expected = brute.reisner_cm_reference(C)
    witness, _ = expected[1]
    walks = []
    levels = homology._levels

    def recording_levels(nbr, rest):
        walks.append([])
        for level in levels(nbr, rest):
            walks[-1].append(len(level))
            yield level

    monkeypatch.setattr(homology, "_levels", recording_levels)
    assert reisner_cm(C) == expected
    built = walks[0]  # the complex's faces; later calls build link faces
    assert len(built) <= len(witness) + 2
    assert sum(built) < sum(brute.f_vector(C.facets)) == 6400


def table_rows(C):
    """``link_table``'s rows for the reference's (face, dim, betti)."""
    return [
        "{" + ",".join(map(str, face)) + "}\t" + f"{dim}\t" + ",".join(map(str, betti))
        for face, dim, betti in brute.reisner_table_reference(C)
    ]


def assert_table_matches_reference(C):
    lines = link_table(C, link_rows(C)).splitlines()
    assert lines[0] == "face\tlink-dim\tbetti"
    assert lines[1:-1] == table_rows(C), C.facets
    ok, _ = brute.reisner_cm_reference(C)
    assert lines[-1] == f"CM: {'yes' if ok else 'no'}"


def random_graphs(seed, count=300):
    """``count`` random graphs on one to eight vertices, each with its own
    edge density."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        p = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        yield brute.graph(range(n), edges)


def test_table_matches_reference_on_random_independence_complexes():
    for G in random_graphs(37):
        assert_table_matches_reference(independence_complex(G))


def test_faces_by_dimension_is_the_facet_closure(figure1):
    # the faces read off the graph are the downward closure of the
    # facets, size by size in lex order: the benchmark's homology.faces
    # count is their total
    graphs = [brute.graph([], []), zero_divisor_graph(figure1), *random_graphs(37)]
    for G in graphs:
        C = independence_complex(G)
        by_size = faces_by_dimension(C, len(G.vertices))
        closure = sorted(brute.face_closure(C.facets), key=lambda f: (len(f), f))
        assert tuple(map(len, by_size)) == brute.f_vector(C.facets), C.facets
        assert [f for bucket in by_size for f in bucket] == closure, C.facets
    assert faces_by_dimension(independence_complex(graphs[0])) == [[()]]


def neighbours(edges, u):
    return {a + b - u for a, b in edges if u in (a, b)}


def planted_graph(rng, base):
    """A random graph on ``base`` vertices with one to three dominated
    vertices planted on it: a false twin of a vertex, a pendant vertex
    (it dominates every other neighbour of its anchor), or a vertex whose
    neighbourhood contains another's."""
    n = base
    p = rng.random()
    edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("twin", "pendant", "superset"))
        u = rng.randrange(n)
        if kind == "twin":
            new = neighbours(edges, u)
        elif kind == "pendant":
            new = {u}
        else:
            extra = {w for w in range(n) if w != u and rng.random() < 0.3}
            new = neighbours(edges, u) | extra
        edges |= {(w, n) for w in new}
        n += 1
    return brute.graph(range(n), edges)


def test_fold_matches_reference_on_planted_dominated_vertices(monkeypatch):
    rng = random.Random(41)
    complexes = [
        independence_complex(planted_graph(rng, rng.randint(2, 6)))
        for _ in range(200)
    ]
    expected = [
        (table_rows(C), brute.reisner_cm_reference(C)) for C in complexes
    ]
    folds = []
    fold = homology._fold

    def recording_fold(nbr, rest):
        folded = fold(nbr, rest)
        folds.append(folded not in (None, rest))
        return folded

    monkeypatch.setattr(homology, "_fold", recording_fold)
    for C, (rows, cm) in zip(complexes, expected):
        lines = link_table(C, link_rows(C)).splitlines()
        assert lines[1:-1] == rows, C.facets
        assert lines[-1] == f"CM: {'yes' if cm[0] else 'no'}"
        assert reisner_cm(C) == cm, C.facets
    # the planted vertices make the fold move, not only the cone, do work
    assert sum(folds) > len(complexes)


def test_mask_fold_matches_pairwise_reference():
    # the mask fold drops, pass by pass, exactly the vertices the pairwise
    # loop drops: same mask left, or None for a cone
    rng = random.Random(43)
    moved = 0
    for _ in range(150):
        G = planted_graph(rng, rng.randint(2, 7))
        n = len(G.vertices)
        rests = {(1 << n) - 1} | {rng.randrange(1 << n) for _ in range(20)}
        for rest in rests:
            folded = homology._fold(G.nbr, rest)
            assert folded == brute.fold_reference(G.nbr, rest), (G.nbr, rest)
            moved += folded not in (None, rest)
    assert moved > 150


def twinned_graph(rng, base):
    """A random graph on ``base`` vertices with one to three closed twins
    planted: a new vertex joined to some u and to all of N(u).  Faces
    through u and through its twin then have the same closed
    neighbourhood, so rest masks repeat."""
    n = base
    p = rng.random()
    edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    for _ in range(rng.randint(1, 3)):
        u = rng.randrange(n)
        edges |= {(w, n) for w in neighbours(edges, u) | {u}}
        n += 1
    return brute.graph(range(n), edges)


def test_rows_match_reference_where_rest_masks_repeat(monkeypatch):
    # the walk settles each rest mask once and reuses it for every face
    # with that mask; rows and verdicts must still be the reference's,
    # on well-covered complexes and on ones that are not
    rng = random.Random(47)
    complexes = [
        independence_complex(twinned_graph(rng, rng.randint(2, 7)))
        for _ in range(150)
    ]
    expected = [
        (brute.reisner_table_reference(C), brute.reisner_cm_reference(C))
        for C in complexes
    ]
    folds = []
    fold = homology._fold

    def recording_fold(nbr, rest):
        folds.append(rest)
        return fold(nbr, rest)

    monkeypatch.setattr(homology, "_fold", recording_fold)
    reused = 0
    for C, (table, cm) in zip(complexes, expected):
        folds.clear()
        rows = homology.link_rows(C)
        got = [(C.vertices_of(f), dim, tuple(b.values())) for f, dim, b in rows]
        assert got == table, C.facets
        assert len(folds) == len(set(folds))
        reused += len(rows) - len(folds)
        assert reisner_cm(C) == cm, C.facets
    assert reused > len(complexes)
    assert not all(map(is_well_covered, complexes))
    assert any(map(is_well_covered, complexes))


@st.composite
def graphs_with_dominated_vertex(draw):
    """(G, v): a random graph G whose last vertex v has N(u) ⊆ N(v) for
    some other vertex u."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = set()
    if pairs:
        edges = set(draw(st.lists(st.sampled_from(pairs), max_size=12)))
    u = draw(st.integers(0, n - 1))
    extra = draw(st.sets(st.integers(0, n - 1)))
    new = neighbours(edges, u) | (extra - {u})
    G = brute.graph(range(n + 1), edges | {(w, n) for w in new})
    assert G.neighbors(u) <= G.neighbors(n)
    return G, n


@settings(max_examples=150, deadline=None)
@given(graphs_with_dominated_vertex())
def test_fold_lemma_keeps_reduced_betti(case):
    G, v = case
    rest = [w for w in G.vertices if w != v]
    smaller = brute.graph(rest, [e for e in G.edges() if v not in e])
    assert betti_map(independence_complex(G).facets) == betti_map(
        independence_complex(smaller).facets
    )


@st.composite
def small_graphs(draw):
    """A random graph on one to eight vertices."""
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return brute.graph(range(n), edges)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_reisner_matches_exact_reference(G):
    C = independence_complex(G)
    assert reisner_cm(C) == brute.reisner_cm_reference(C)


def test_homology_guards_fire_under_O():
    # an inflated boundary rank drives a Betti number negative; the
    # ranking of the hollow triangle's faces and of a link graph left by
    # folding (each K2 on atom_coatom 6), for the verdict and for the
    # check -v rows, must refuse it with asserts stripped
    script = (
        "import zdposet.homology as h\n"
        "from zdposet.complexes import independence_complex\n"
        "from zdposet.errors import TheoremContractError\n"
        "from zdposet.poset import generate\n"
        "from zdposet.zdg import zero_divisor_graph\n"
        "print('debug', __debug__)\n"
        "orig = h._boundary_rank\n"
        "h._boundary_rank = lambda *args: orig(*args) + 1\n"
        "C = [[0], [1, 2, 4], [3, 5, 6]]\n"
        "I = independence_complex(zero_divisor_graph(generate('atom_coatom', 6)))\n"
        "for name, run, K in (\n"
        "    ('_betti on the hollow triangle', h._betti, C),\n"
        "    ('reisner_cm on a graph', h.reisner_cm, I),\n"
        "    ('link_rows', h.link_rows, I),\n"
        "):\n"
        "    try:\n"
        "        run(K)\n"
        "    except TheoremContractError as exc:\n"
        "        print(name, 'raised:', exc)\n"
        "    else:\n"
        "        raise SystemExit(f'{name} accepted a broken rank')\n"
    )
    src = str(Path(homology.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "_betti on the hollow triangle raised: negative Betti number" in proc.stdout
    assert "reisner_cm on a graph raised: negative Betti number" in proc.stdout
    assert "link_rows raised: negative Betti number" in proc.stdout
