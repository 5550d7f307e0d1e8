import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brute
from zdposet import lattice
from zdposet.errors import PosetSyntaxError, TheoremContractError, ZdPosetError
from zdposet.order import Poset, bits, parse_poset
from zdposet.poset import direct_product, generate


def ids(P, *names):
    return {P.elements.index(n) for n in names}


def upper_cone(P, A):
    """``P.ucone_mask`` on a set of ids."""
    return set(bits(P.ucone_mask(brute.mask(A))))


def lower_cone(P, A):
    """``lattice.lcone_mask`` on a set of ids."""
    return set(bits(lattice.lcone_mask(P, brute.mask(A))))


# --- parsing -----------------------------------------------------------------


def test_parse_three_chain():
    P = parse_poset("poset v1\nelem 0\nelem a\nelem 1\nle 0 a\nle a 1\n")
    assert len(P) == 3
    assert P.elements == ("0", "a", "1")
    assert (P.bottom, P.top) == (0, 2)
    assert brute.leq(P, 0, 2)  # closure supplies 0 <= 1


def test_parse_figure1(figure1):
    assert len(figure1) == 10
    assert figure1.names(figure1.atoms()) == ("q1", "q2", "q3", "q4")
    coatoms = {
        x
        for x in range(len(figure1))
        if figure1.down[figure1.top] & (1 << x) and figure1.weight(x) == 3
    }
    assert figure1.names(coatoms) == ("q1'", "q2'", "q3'", "q4'")
    assert figure1.is_boolean()


def test_parse_antisymmetry_cycle():
    text = "poset v1\nelem a\nelem b\nle a b\nle b a\n"
    with pytest.raises(ZdPosetError, match="^elements 'a' and 'b' lie below each other$"):
        parse_poset(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PosetSyntaxError, match="^line 3: duplicate element 'a'$") as err:
        parse_poset("poset v1\nelem a\nelem a\n")
    assert err.value.line == 3
    with pytest.raises(PosetSyntaxError, match="^line 3: unknown element 'b'$") as err:
        parse_poset("poset v1\nelem a\nle a b\n")
    assert err.value.line == 3
    with pytest.raises(PosetSyntaxError) as err:
        parse_poset("poset v1\nelem a\nfrob a\n")
    assert err.value.line == 3
    with pytest.raises(PosetSyntaxError):
        parse_poset("")
    with pytest.raises(PosetSyntaxError):
        parse_poset("# only a comment\n")


@pytest.mark.parametrize(
    "up, message",
    [
        ([1], "relation size does not match element count"),
        ([0b1001, 0b010, 0b100], "relation references unknown element ids"),
        ([0b010, 0b010, 0b100], "relation is not reflexive at 'a'"),
        ([0b011, 0b110, 0b100], "relation is not transitive at ('a', 'b')"),
    ],
)
def test_constructor_rejects_bad_relations(up, message):
    with pytest.raises(ValueError) as err:
        Poset(["a", "b", "c"], up)
    assert str(err.value) == message


def test_constructor_rejects_duplicate_names():
    with pytest.raises(PosetSyntaxError, match="^duplicate element name 'a'$") as err:
        Poset(["a", "b", "a"], [0b001, 0b010, 0b100])
    assert err.value.line is None


def test_parse_comments_and_blanks():
    P = parse_poset("poset v1\n\n# a comment\nelem x  # trailing\n")
    assert P.elements == ("x",)


def test_roundtrip_through_text(figure1):
    for P in (figure1, generate("boolean_lattice", 3), generate("chain", 4)):
        assert parse_poset(P.to_text()) == P


@st.composite
def shuffled_bounded_posets(draw):
    """A bounded poset on one to ten elements, parsed from a file whose
    ``elem`` and ``le`` lines come in random order: x0 lies below every
    element, x(n-1) above every element, and each other ``le`` pair goes
    up in index, so the order is acyclic but ids need not follow it."""
    n = draw(st.integers(1, 10))
    middle = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    pairs = [(0, j) for j in range(1, n)] + [(i, n - 1) for i in range(1, n - 1)]
    pairs += draw(st.sets(st.sampled_from(middle))) if middle else []
    elems = [f"elem x{i}" for i in draw(st.permutations(range(n)))]
    les = draw(st.permutations([f"le x{i} x{j}" for i, j in pairs]))
    return parse_poset("\n".join(["poset v1", *elems, *les]) + "\n")


@settings(max_examples=200, deadline=None)
@given(shuffled_bounded_posets())
def test_roundtrip_through_text_on_shuffled_posets(P):
    Q = parse_poset(P.to_text())
    assert Q == P
    assert Q.down == P.down
    assert (Q.bottom, Q.top) == (P.bottom, P.top)
    assert P.elements[P.bottom] == "x0"
    assert P.elements[P.top] == f"x{len(P) - 1}"


# --- cones ---------------------------------------------------------------------


def test_lower_cone_b3_two_coatoms():
    P = generate("boolean_lattice", 3)
    got = lower_cone(P, ids(P, "a23", "a13"))
    assert got == ids(P, "0", "a3")
    assert got == brute.lower_cone(P, ids(P, "a23", "a13"))


def test_upper_cone_of_bottom_is_everything(figure1):
    assert upper_cone(figure1, {figure1.bottom}) == set(range(10))


def test_two_atoms_meet_in_zero(figure1):
    assert lower_cone(figure1, ids(figure1, "q1", "q2")) == {figure1.bottom}


def test_empty_cone_input_returns_everything(figure1):
    assert upper_cone(figure1, ()) == set(range(10))
    assert lower_cone(figure1, ()) == set(range(10))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cone_galois_laws(data):
    P = data.draw(
        st.sampled_from(
            [
                generate("boolean_lattice", 3),
                generate("boolean_lattice", 4),
                generate("atom_coatom", 4),
                generate("m_atoms", 3),
                generate("chain", 5),
            ]
        )
    )
    universe = list(range(len(P)))
    A = set(data.draw(st.sets(st.sampled_from(universe), max_size=len(P))))
    B = A | set(data.draw(st.sets(st.sampled_from(universe), max_size=len(P))))
    ul = lower_cone(P, upper_cone(P, A))
    assert A <= ul
    assert upper_cone(P, ul) == upper_cone(P, A)
    assert upper_cone(P, B) <= upper_cone(P, A)


# --- atoms / weight --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_boolean_lattice_atom_count(n):
    P = generate("boolean_lattice", n)
    assert len(P.atoms()) == n
    assert P.atoms() == brute.atoms(P)


def test_chain_atom_is_middle():
    P = generate("chain", 3)
    assert P.names(P.atoms()) == ("c1",)


def test_weights(figure1):
    assert figure1.poset_weight() == 4
    assert figure1.weight(figure1.bottom) == 0
    P = generate("boolean_lattice", 4)
    x = P.elements.index("a12")
    assert P.weight(x) == 2 == brute.weight(P, x)


def test_atoms_need_bottom():
    P = parse_poset("poset v1\nelem a\nelem b\n")
    with pytest.raises(ZdPosetError, match="^poset has no least element$"):
        P.atoms()


# --- complements ------------------------------------------------------------------


def test_complements_in_power_set():
    P = generate("boolean_lattice", 3)
    assert brute.complements(P, P.elements.index("a1")) == ids(P, "a23")
    assert brute.complements(P, P.bottom) == {P.top}


def test_three_atom_counterexample_has_non_unique_complements():
    P = generate("m_atoms", 3)
    a = P.elements.index("a1")
    assert brute.complements(P, a) == ids(P, "a2", "a3")


def test_pseudocomplements():
    P = generate("boolean_lattice", 3)
    assert brute.pseudocomplement_of(P, P.elements.index("a1")) == P.elements.index("a23")
    assert brute.pseudocomplement_of(P, P.bottom) == P.top
    M = generate("m_atoms", 3)
    a = M.elements.index("a1")
    assert brute.pseudocomplement_of(M, a) is None
    assert brute.pseudocomplement(M, a) is None


# --- distributivity / booleanness ----------------------------------------------------


def test_distributive_posets():
    assert generate("boolean_lattice", 4).distributivity_witness is None


def test_figure1_distributive(figure1):
    assert figure1.distributivity_witness is None


def test_m3_not_distributive_with_valid_witness():
    P = generate("m_atoms", 3)
    w = P.distributivity_witness
    assert w is not None
    assert not brute.distributive_at(P, *w)
    assert P.distributivity_witness is not None


def test_is_boolean(figure1):
    assert figure1.is_boolean()
    assert generate("boolean_lattice", 1).is_boolean()  # the 2-chain
    M = generate("m_atoms", 3)
    assert not M.is_boolean()
    assert "distributive" in lattice.boolean_failure(M)


def test_boolean_failure_reports_missing_complement():
    P = generate("chain", 3)
    assert P.distributivity_witness is None
    assert "complement" in lattice.boolean_failure(P)


N5 = parse_poset(
    "poset v1\nelem 0\nelem a\nelem b\nelem c\nelem 1\n"
    "le 0 a\nle a b\nle b 1\nle 0 c\nle c 1\n"
)


def assert_boolean_gate_matches_reference(P, definitional=True):
    w = brute.distributivity_witness_reference(P)
    fresh = Poset(P.elements, P.up)  # is_boolean() first, nothing cached
    boolean = (
        P.is_bounded() and w is None and brute.first_uncomplemented_reference(P) is None
    )
    assert fresh.is_boolean() == boolean, P.to_text()
    assert P.distributivity_witness == w, P.to_text()
    assert (P.distributivity_witness is None) == (w is None)
    if definitional:
        assert brute.is_distributive(P) == (w is None)
    assert lattice.boolean_failure(P) == brute.boolean_failure_reference(P)
    assert P.is_boolean() == boolean


def test_boolean_gate_on_named_posets(figure1, b4_without_a12_a34):
    M3 = generate("m_atoms", 3)
    chain2 = generate("chain", 2)
    named = [
        M3,
        N5,
        direct_product([M3, chain2]).carrier,
        direct_product([chain2, N5]).carrier,
        figure1,
        b4_without_a12_a34,
        *(generate("atom_coatom", k) for k in range(5, 10)),
        direct_product([chain2, figure1]).carrier,
    ]
    for P in named:
        assert_boolean_gate_matches_reference(P, definitional=len(P) <= 14)
    assert all(P.distributivity_witness is not None for P in named[:4])
    assert all(P.is_boolean() for P in named[4:])
    # no Boolean poset here is a lattice, so the cone law decides them,
    # running through every triple
    assert not any(lattice.is_distributive_lattice(P) for P in named[4:])


def test_order_queries_match_the_quadratic_scans(figure1, b4_without_a12_a34):
    # perp and coperp masks read the atoms below x and the coatoms above
    # it; is_boolean_lattice reads one up row per element
    from test_zdg import random_bounded_poset
    from zdposet.product import is_boolean_lattice

    rng = random.Random(61)
    chain = lambda k: generate("chain", k)
    posets = [figure1, b4_without_a12_a34, N5]
    posets += [generate("boolean_lattice", k) for k in range(1, 6)]
    posets += [generate("atom_coatom", k) for k in range(2, 6)]
    posets += [generate(name, k) for name in ("chain", "m_atoms") for k in range(1, 6)]
    posets += [
        direct_product([chain(a) for a in sizes]).carrier
        for sizes in ((2, 2), (3, 4), (2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2))
    ]
    posets += [direct_product([generate("m_atoms", 3), chain(2)]).carrier]
    posets += [random_bounded_poset(rng, rng.randint(0, 9)) for _ in range(120)]
    verdicts = set()
    for P in posets:
        coperp = lattice.coperp_masks(P)
        for x in range(len(P)):
            assert P.perp_mask(x) == brute.perp_mask_reference(P, x), P.to_text()
            assert coperp[x] == brute.coperp_mask_reference(P, x), P.to_text()
        first = brute.first_uncomplemented_reference(P)
        assert lattice.first_uncomplemented(P) == first, P.to_text()
        boolean_lattice = is_boolean_lattice(P)
        assert boolean_lattice == brute.is_boolean_lattice_by_pairs(P), P.to_text()
        verdicts.add((first is None, boolean_lattice))
    assert verdicts == {(True, True), (True, False), (False, False)}


@st.composite
def random_posets(draw):
    """Random order on up to 7 elements in a random id order, optionally
    with a bottom and a top added."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    lines = ["poset v1"] + [f"elem e{i}" for i in order]
    lines += [f"le e{a} e{b}" for a, b in pairs if a < b]
    if draw(st.booleans()):
        lines += ["elem 0", "elem 1"] + [f"le 0 e{i}\nle e{i} 1" for i in range(n)]
    return parse_poset("\n".join(lines) + "\n")


@st.composite
def distributive_lattices(draw):
    """A random family of subsets of {1..k}, closed under union and
    intersection and ordered by inclusion, in a random id order."""
    k = draw(st.integers(1, 4))
    family = draw(st.sets(st.integers(0, 2**k - 1), min_size=1, max_size=6))
    while True:
        closed = family | {a | b for a in family for b in family}
        closed |= {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    sets = draw(st.permutations(sorted(family)))
    up = [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets]
    return Poset([f"s{s}" for s in sets], up)


@settings(max_examples=300, deadline=None)
@given(random_posets())
def test_boolean_gate_matches_reference_on_random_posets(P):
    assert_boolean_gate_matches_reference(P)


@settings(max_examples=150, deadline=None)
@given(distributive_lattices())
def test_boolean_gate_matches_reference_on_distributive_lattices(P):
    assert lattice.is_distributive_lattice(P)
    assert_boolean_gate_matches_reference(P, definitional=len(P) <= 8)


def support_families():
    """Yield (k, family): families of subsets of k = 2..5 atoms holding the
    empty set, the full set, the singletons and the co-singletons, plus
    any set of complementary pairs (1,034 families, all Boolean); and each
    family with a pair once more, without the complement of its first
    pair (1,030, none Boolean)."""
    for k in range(2, 6):
        full = (1 << k) - 1
        base = {0, full} | {1 << i for i in range(k)} | {full ^ 1 << i for i in range(k)}
        pairs = [m for m in range(1 << k) if m < full ^ m and m not in base]
        for r in range(len(pairs) + 1):
            for picked in itertools.combinations(pairs, r):
                family = base | set(picked) | {full ^ m for m in picked}
                yield k, family
                if picked:
                    yield k, family - {full ^ picked[0]}


def test_boolean_gate_matches_reference_on_support_families():
    # Booleanness and being a Boolean lattice do not change when the
    # atoms are permuted, so the cubic references run once per orbit of
    # families, and every family is compared with its orbit's answers.
    # The singletons and co-singletons make every family distributive,
    # so a non-Boolean one fails on its first uncomplemented element.
    from zdposet.product import is_boolean_lattice

    # images[k]: for each permutation of the k atoms, the bit of each
    # set's image; a family's orbit is keyed by its least image
    images = {
        k: [
            [1 << brute.mask(p[i] for i in bits(m)) for m in range(1 << k)]
            for p in itertools.permutations(range(k))
        ]
        for k in range(2, 6)
    }
    rng = random.Random(53)
    orbits: dict[tuple[int, int], tuple[bool, bool]] = {}
    tally = {True: 0, False: 0}
    for k, family in support_families():
        sets = sorted(family)
        rng.shuffle(sets)
        up = [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets]
        P = Poset([f"s{s}" for s in sets], up)
        orbit = (k, min(sum(map(bit.__getitem__, family)) for bit in images[k]))
        if orbit not in orbits:
            assert_boolean_gate_matches_reference(P, definitional=False)
            assert P.distributivity_witness is None
            orbits[orbit] = (P.is_boolean(), brute.is_boolean_lattice_reference(P))
        boolean = P.is_boolean()
        assert (boolean, is_boolean_lattice(P)) == orbits[orbit], P.to_text()
        assert boolean == (brute.first_uncomplemented_reference(P) is None)
        tally[boolean] += 1
    assert len(orbits) == 130
    assert tally == {True: 1034, False: 1030}


def test_boolean_failure_traps_a_support_test_disagreement(figure1):
    # a complemented distributive poset that the support test rejects
    # would contradict the theorem behind it
    P = Poset(figure1.elements, figure1.up)
    P.__dict__["_boolean"] = False
    with pytest.raises(TheoremContractError, match="failed the support test"):
        lattice.boolean_failure(P)


def test_is_boolean_tests_complements_first():
    carrier = direct_product([generate("chain", 4)] * 3).carrier
    assert not carrier.is_boolean()
    assert "distributivity_witness" not in carrier.__dict__


@pytest.mark.parametrize(
    "build",
    [
        lambda: generate("boolean_lattice", 6),
        lambda: direct_product([generate("chain", 2)] * 6).carrier,
    ],
    ids=["boolean_lattice 6", "(2,)*6 carrier"],
)
def test_distributive_lattice_skips_the_triple_loop(build, monkeypatch):
    P = build()
    assert P.is_boolean()  # the support test reads ucone_mask itself
    # the cone calls below are made only by the triple loop
    calls = []
    for owner, name in ((Poset, "ucone_mask"), (lattice, "lcone_mask")):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda P, m, real=real: calls.append(m) or real(P, m)
        )
    assert P.distributivity_witness is None
    assert calls == []


# --- ssc / wssc -----------------------------------------------------------------------


def test_ssc_wssc():
    fig = generate("atom_coatom", 4)
    assert fig.is_ssc()
    assert lattice.is_wssc(generate("boolean_lattice", 3))
    chain3 = generate("chain", 3)
    assert not chain3.is_ssc()
    assert not lattice.is_wssc(chain3)


@pytest.mark.parametrize(
    "name,param",
    [("boolean_lattice", 3), ("atom_coatom", 4), ("m_atoms", 3), ("chain", 4)],
)
def test_ssc_wssc_match_brute_force(name, param):
    P = generate(name, param)
    assert P.is_ssc() == brute.is_ssc(P)
    assert lattice.is_wssc(P) == brute.is_wssc(P)
    if P.is_ssc():
        assert lattice.is_wssc(P)


def random_poset_with_bottom(rng, top):
    """Atoms a_i over a bottom z, elements m_j each over a random set of
    atoms and of earlier m's, and a top t when asked; ids shuffled."""
    k, n = rng.randint(1, 4), rng.randint(0, 5)
    lines = ["poset v1", "elem z", *(f"elem a{i}" for i in range(k))]
    lines += [f"elem m{j}" for j in range(n)] + [f"le z a{i}" for i in range(k)]
    for j in range(n):
        lines += [f"le a{i} m{j}" for i in range(k) if rng.random() < 0.5] or [f"le z m{j}"]
        lines += [f"le m{i} m{j}" for i in range(j) if rng.random() < 0.3]
    if top:
        lines += ["elem t", "le z t", *(f"le a{i} t" for i in range(k))]
        lines += [f"le m{j} t" for j in range(n)]
    return brute.shuffled(parse_poset("\n".join(lines) + "\n"), rng)


def test_ssc_wssc_match_brute_force_on_random_posets():
    rng = random.Random(24)
    seen = []
    for i in range(400):
        P = random_poset_with_bottom(rng, top=i % 2 == 0)
        ssc, wssc = P.is_ssc(), lattice.is_wssc(P)
        assert (ssc, wssc) == (brute.is_ssc(P), brute.is_wssc(P)), P.to_text()
        seen.append((ssc, wssc))
    for k in (0, 1):  # each predicate comes out both ways, often
        assert all(sum(s[k] == v for s in seen) >= 30 for v in (True, False))
    assert seen.count((False, True)) >= 5  # WSSC without SSC


def test_boolean_implies_ssc(boolean_catalog):
    for P in boolean_catalog:
        assert P.is_ssc() and lattice.is_wssc(P)


def test_uniquely_complemented_implies_wssc(boolean_catalog):
    pool = boolean_catalog + [
        generate("m_atoms", 3),
        generate("chain", 4),
        generate("boolean_lattice", 2),
    ]
    for P in pool:
        if all(len(brute.complements(P, x)) == 1 for x in range(len(P))):
            assert lattice.is_wssc(P)


# --- weight lemmas on Boolean posets ---------------------------------------------------


def test_complement_weight_sum(boolean_catalog):
    for P in boolean_catalog:
        k = P.poset_weight()
        for x in range(len(P)):
            (c,) = brute.complements(P, x)
            assert P.weight(x) + P.weight(c) == k


def test_strict_weight_monotonicity(boolean_catalog):
    rng = random.Random(0)
    for P in boolean_catalog:
        pairs = [
            (a, b)
            for a in range(len(P))
            for b in range(len(P))
            if brute.lt(P, a, b)
        ]
        for a, b in rng.sample(pairs, min(50, len(pairs))):
            assert P.weight(a) < P.weight(b)


def test_weight_converse_fails_without_adjacency():
    # complementary weights alone do not make complements
    P = generate("boolean_lattice", 4)
    x, y = P.elements.index("a12"), P.elements.index("a23")
    assert P.weight(x) + P.weight(y) == P.poset_weight()
    assert y not in brute.complements(P, x)


def test_unique_complementation_on_boolean_catalog(boolean_catalog):
    for P in boolean_catalog:
        for x in range(len(P)):
            cs = brute.complements(P, x)
            assert len(cs) == 1
            assert brute.pseudocomplement_of(P, x) == min(cs)


# --- products -----------------------------------------------------------------------


def test_product_of_three_two_chains_is_boolean_cube():
    pp = direct_product([generate("chain", 2)] * 3)
    Q = generate("boolean_lattice", 3)
    assert len(pp.carrier) == 8
    assert pp.carrier.is_boolean()
    # order-isomorphic to 2^3: atom supports realize every subset
    sup = {pp.carrier.atoms_mask & pp.carrier.down[x] for x in range(8)}
    assert len(sup) == 8
    assert len(Q) == 8


def test_product_of_three_three_chains():
    pp = direct_product([generate("chain", 3)] * 3)
    assert len(pp.carrier) == 27
    assert len(pp.carrier.atoms()) == 3


def test_product_componentwise_order(figure1):
    for factors in (
        [generate("chain", 3), generate("chain", 4)],
        [figure1, generate("m_atoms", 2)],
        [generate("atom_coatom", 3), generate("chain", 2), generate("m_atoms", 2)],
    ):
        pp = direct_product(factors)
        P = pp.carrier
        for i in range(len(P)):
            for j in range(len(P)):
                expect = all(
                    brute.leq(f, a, b)
                    for f, a, b in zip(pp.factors, pp.coord_of[i], pp.coord_of[j])
                )
                assert brute.leq(P, i, j) == expect == bool(P.down[j] >> i & 1)


def test_benchmark_product_carriers_pass_the_full_order_check():
    # a carrier is built without a second check of the order axioms; on
    # every product the benchmark workloads build, the full constructor
    # must accept its rows and derive the same order
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    specs = workloads.BOOLEAN_CHECK + workloads.REISNER_CM + workloads.REISNER_NOT_CM
    products = [[generate(name, k) for name, k in s] for s in specs if len(s) > 1]
    products += [
        [generate("chain", k) for k in v]
        for v in workloads.SWEEP_HEAVY + workloads.SWEEP_LIGHT
    ]
    assert len(products) == 19
    for factors in products:
        C = direct_product(factors).carrier
        Q = Poset(C.elements, C.up)
        assert (Q.down, Q.bottom, Q.top) == (C.down, C.bottom, C.top), C
        assert Q == C


def test_product_guards():
    with pytest.raises(ZdPosetError, match="a direct product needs at least two factors"):
        direct_product([generate("chain", 2)])
    unbounded = parse_poset("poset v1\nelem a\nelem b\n")
    with pytest.raises(ZdPosetError, match="^factor 1 is not bounded$"):
        direct_product([unbounded, generate("chain", 2)])


# --- catalog ---------------------------------------------------------------------------


def test_generate_atom_coatom_4_matches_figure1(figure1):
    assert generate("atom_coatom", 4) == figure1


def test_generate_atom_coatom_collapses_for_small_k():
    assert len(generate("atom_coatom", 2)) == 4
    assert len(generate("atom_coatom", 3)) == 8
    for k in range(2, 7):
        assert generate("atom_coatom", k).is_boolean()


def test_generate_m_atoms_counterexample():
    P = generate("m_atoms", 3)
    assert len(P) == 5
    assert len(P.atoms()) == 3


def test_generate_boolean_lattice_1_is_two_chain():
    P = generate("boolean_lattice", 1)
    assert P.elements == ("0", "1")
    assert brute.leq(P, 0, 1)


def test_generate_guards():
    with pytest.raises(ZdPosetError, match=r"^unknown catalog poset 'nonsense' \(known: "):
        generate("nonsense", 3)
    with pytest.raises(ZdPosetError, match="^boolean_lattice needs n >= 1$"):
        generate("boolean_lattice", 0)
    with pytest.raises(ZdPosetError, match="^atom_coatom needs k >= 2$"):
        generate("atom_coatom", 1)
    with pytest.raises(ZdPosetError, match="^chain needs k >= 1$"):
        generate("chain", 0)
    with pytest.raises(ZdPosetError, match="^m_atoms needs k >= 1$"):
        generate("m_atoms", 0)


def test_generate_refuses_a_poset_above_the_catalog_cap():
    # cheap parameters first: a builder without the cap returns at once
    # on these, where 2^30 elements would exhaust memory
    cases = [
        ("m_atoms", 1023, "1025"),
        ("chain", 1025, "1025"),
        ("atom_coatom", 512, "1026"),
        ("boolean_lattice", 11, "2^11"),
        ("boolean_lattice", 30, "2^30"),
        ("boolean_lattice", 10**18, f"2^{10**18}"),
    ]
    for name, k, count in cases:
        with pytest.raises(ZdPosetError) as err:
            generate(name, k)
        assert str(err.value) == (
            f"{name} {k} would have {count} elements, above the catalog cap of 1024"
        )


def test_generate_builds_every_poset_up_to_the_catalog_cap():
    from zdposet.poset import MAX_CATALOG_ELEMENTS

    assert MAX_CATALOG_ELEMENTS == 2**10
    for name, k in (
        ("boolean_lattice", 10),
        ("chain", 1024),
        ("atom_coatom", 511),
        ("m_atoms", 1022),
    ):
        assert len(generate(name, k)) == MAX_CATALOG_ELEMENTS


def test_parse_poset_takes_files_up_to_the_cap():
    from zdposet.order import MAX_CATALOG_ELEMENTS

    # an antichain: one element past the cap is refused at its elem line
    text = "poset v1\n" + "".join(f"elem e{i}\n" for i in range(MAX_CATALOG_ELEMENTS))
    assert len(parse_poset(text)) == MAX_CATALOG_ELEMENTS
    with pytest.raises(ZdPosetError) as err:
        parse_poset(text + "elem last\nle e0 nowhere\n")
    assert str(err.value) == (
        "line 1026: the poset would have more than 1024 elements, above the catalog cap of 1024"
    )
