import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import brute
import zdposet
from test_zdg import random_bounded_poset
from zdposet.errors import ZdPosetError
from zdposet.cmcert import Analysis, CmVerdict
from zdposet.complexes import DEFAULT_MAX_VERTICES
from zdposet.poset import ProductPoset, direct_product, generate, parse_poset
from zdposet.product import (
    TheoremCheck,
    is_boolean_lattice,
    j_single,
    j_triple,
    parse_size_vectors,
    predicted_counts,
    predicted_triple_size,
    product_theorem,
    sweep_report,
    validate_factors,
    well_covered_verdict,
)


def chains(*sizes):
    return [generate("chain", s) for s in sizes]


def coords_of(A, members):
    return {A.coord_of[v] for v in members}


def names_of_coords(A, members, pos=0):
    return coords_of(A, members)


def test_validate_three_two_chains():
    A = validate_factors(chains(2, 2, 2))
    assert A.factor_sizes == (2, 2, 2)
    assert len(A.dense) == 1
    (d,) = A.dense
    assert A.coord_of[d] == (1, 1, 1)


def test_validate_three_three_chains():
    A = validate_factors(chains(3, 3, 3))
    assert len(A.dense) == 8


def test_validate_rejects_multi_atom_factor():
    with pytest.raises(ZdPosetError, match=r"^factor 1 must satisfy Z\(P\) = \{0\} "):
        validate_factors([generate("m_atoms", 2), generate("chain", 4)])


def test_validate_rejects_unordered_sizes():
    with pytest.raises(ZdPosetError, match=r"factor sizes \[3, 2, 2\] are not ascending"):
        validate_factors(chains(3, 2, 2))


def test_validate_rejects_single_factor():
    with pytest.raises(ZdPosetError, match="a direct product needs at least two factors"):
        validate_factors(chains(3))


def test_validate_accepts_non_chain_unique_atom_factor():
    # 0 < a < {b, c} < 1: bounded, one atom, Z = {0}
    text = (
        "poset v1\nelem 0\nelem a\nelem b\nelem c\nelem 1\n"
        "le 0 a\nle a b\nle a c\nle b 1\nle c 1\n"
    )
    P = parse_poset(text)
    A = validate_factors([generate("chain", 2), P])
    assert A.factor_sizes == (2, 5)
    assert len(A.dense) == 4


# a < b > c has a top but no bottom
NO_BOTTOM = "poset v1\nelem a\nelem b\nelem c\nle a b\nle c b\n"


def test_validate_rejects_factor_without_least_element():
    P = parse_poset(NO_BOTTOM)
    with pytest.raises(ZdPosetError, match="^factor 2 is not bounded$"):
        validate_factors([generate("chain", 2), P])


def test_validate_checks_ascending_then_arity_then_bounded_then_z():
    unbounded = parse_poset(NO_BOTTOM)
    multi_atom = generate("m_atoms", 2)  # 4 elements, Z != {0}
    with pytest.raises(ZdPosetError, match=r"^factor sizes \[4, 3\] are not ascending$"):
        validate_factors([multi_atom, unbounded])
    with pytest.raises(ZdPosetError, match="a direct product needs at least two factors"):
        validate_factors([unbounded])
    with pytest.raises(ZdPosetError, match="^factor 1 is not bounded$"):
        validate_factors([unbounded, multi_atom])
    with pytest.raises(ZdPosetError, match=r"^factor 2 must satisfy Z\(P\) = \{0\} "):
        validate_factors([generate("chain", 2), multi_atom])


def test_product_atom_ids_are_the_atom_tuples():
    A = validate_factors(chains(2, 3, 4))
    assert isinstance(A, ProductPoset)
    assert [A.coord_of[q] for q in A.atom_ids] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert frozenset(A.atom_ids) == brute.atom_ids(A.carrier)


def test_j_single_two_chains():
    A = validate_factors(chains(2, 2, 2))
    J = j_single(A, 1)
    assert coords_of(A, J) == {(1, 0, 0), (1, 1, 0), (1, 0, 1)}


def test_j_single_three_chains():
    A = validate_factors(chains(3, 3, 3))
    assert len(j_single(A, 1)) == 10  # 18 above the atom, minus 8 dense


def test_j_single_index_guard():
    A = validate_factors(chains(2, 2, 2))
    with pytest.raises(ZdPosetError, match=r"^factor index 4 not in 1\.\.3$"):
        j_single(A, 4)
    with pytest.raises(ZdPosetError, match=r"^factor index 0 not in 1\.\.3$"):
        j_single(A, 0)


def test_j_triple_two_chains():
    A = validate_factors(chains(2, 2, 2))
    J = j_triple(A, 1, 2, 3)
    assert coords_of(A, J) == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}


def test_j_triple_three_chains():
    A = validate_factors(chains(3, 3, 3))
    assert len(j_triple(A, 1, 2, 3)) == 12


def test_j_triple_index_guard():
    A = validate_factors(chains(2, 2, 2))
    with pytest.raises(ZdPosetError, match=r"indices \(1,1,2\) must satisfy 1 <= i < j < k"):
        j_triple(A, 1, 1, 2)
    with pytest.raises(ZdPosetError, match=r"indices \(2,1,3\) must satisfy 1 <= i < j < k"):
        j_triple(A, 2, 1, 3)


def test_predicted_counts_match_spoken_values():
    assert predicted_counts([3, 3, 3]) .j_single_sizes == (10, 10, 10)
    assert predicted_counts([3, 3, 3]).j_triple_size == 12
    assert predicted_counts([2, 2, 2]).j_single_sizes == (3, 3, 3)
    assert predicted_counts([2, 2, 2]).j_triple_size == 3
    assert predicted_counts([2, 2, 2, 2]).j_single_sizes == (7, 7, 7, 7)
    assert predicted_counts([2, 2, 2, 2]).j_triple_size == 7
    assert predicted_counts([2, 2, 3]).j_single_sizes == (4, 4, 6)
    assert predicted_counts([2, 2, 3]).j_triple_size is None
    with pytest.raises(ZdPosetError, match=r"needs equal sizes, got \(2, 2, 3\)"):
        predicted_triple_size([2, 2, 3])
    with pytest.raises(ZdPosetError, match="^counting formulas apply for n >= 3$"):
        predicted_counts([2, 3])


@pytest.mark.parametrize(
    "sizes",
    [s for s in itertools.combinations_with_replacement(range(2, 5), 3)]
    + [s for s in itertools.combinations_with_replacement(range(2, 4), 4)],
)
def test_enumerated_counts_match_formulas(sizes):
    A = validate_factors(chains(*sizes))
    counts = predicted_counts(sizes)
    for i in range(1, len(sizes) + 1):
        assert len(j_single(A, i)) == counts.j_single_sizes[i - 1]
    if counts.j_triple_size is not None:
        assert len(j_triple(A, 1, 2, 3)) == counts.j_triple_size
    assert len(A.dense) == math.prod(s - 1 for s in sizes)


@pytest.mark.parametrize(
    "sizes",
    list(itertools.combinations_with_replacement(range(2, 5), 3))
    + [(2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3), (2, 2, 2, 2, 2)],
)
def test_formula_verdict_matches_enumeration_within_caps(sizes):
    from zdposet.complexes import independence_complex, is_well_covered

    A = validate_factors(chains(*sizes))
    formula, _ = well_covered_verdict(A)
    enumerated = is_well_covered(independence_complex(A.graph))
    assert formula == enumerated


def test_well_covered_verdicts():
    assert well_covered_verdict(validate_factors(chains(2, 2, 2)))[0] is True
    ok, why = well_covered_verdict(validate_factors(chains(3, 3, 3)))
    assert not ok and why == "|J_1| = 10 != 12 = |J_1,2,3|"
    ok, why = well_covered_verdict(validate_factors(chains(2, 2, 3)))
    assert not ok and why == "|J_1| = 4 != 6 = |J_3|"
    with pytest.raises(ZdPosetError, match="^the product verdict applies for n >= 3$"):
        well_covered_verdict(validate_factors(chains(2, 2)))


def unique_atom_factor(rng):
    """A 2-chain, or a random bounded poset with a new bottom under it:
    the old bottom is then the only atom, so Z(P) = {0}."""
    n = rng.randint(-1, 2)
    if n < 0:
        return generate("chain", 2)
    text = random_bounded_poset(rng, n).to_text()
    text = text.replace("poset v1\n", "poset v1\nelem o\n", 1) + "le o z\n"
    return parse_poset(text)


def test_product_theorem_beyond_chains():
    # n = 4 products take two 2-chains, so that some stay under the facet cap
    rng = random.Random(53)
    chain2 = generate("chain", 2)
    seen = set()
    for n, drawn, count in ((3, 3, 150), (4, 2, 40)):
        for _ in range(count):
            factors = [chain2] * (n - drawn)
            factors += [unique_atom_factor(rng) for _ in range(drawn)]
            A = validate_factors(sorted(factors, key=len))
            sizes = A.factor_sizes
            predicted = predicted_counts(sizes)
            singles = tuple(len(j_single(A, i)) for i in range(1, n + 1))
            assert singles == predicted.j_single_sizes, sizes
            if len(set(sizes)) == 1:
                assert len(j_triple(A, 1, 2, 3)) == predicted_triple_size(sizes)
            two_chains = all(len(f) == 2 for f in factors)
            assert well_covered_verdict(A)[0] is two_chains, sizes
            r = product_theorem(A, Analysis(A.graph))
            assert r.boolean_lattice is two_chains and r.well_covered is two_chains
            assert r.cm_status == ("CM" if two_chains else "NotCM" if r.enumerated else None)
            seen.add((n, two_chains, len(set(sizes)) == 1, r.enumerated))
    assert seen == {
        (3, True, True, True),
        (3, False, True, False),
        (3, False, False, True),
        (3, False, False, False),
        (4, True, True, True),
        (4, False, False, True),
        (4, False, False, False),
    }


def test_equivalence_suite_all_true():
    A = validate_factors(chains(2, 2, 2))
    r = product_theorem(A, Analysis(A.graph))
    assert r == TheoremCheck(
        boolean_lattice=True, cm_status="CM", well_covered=True, enumerated=True
    )


def test_equivalence_suite_all_false():
    A = validate_factors(chains(3, 3, 3))
    r = product_theorem(A, Analysis(A.graph))
    assert r == (False, "NotCM", False, True)


def test_equivalence_suite_four_factors():
    A = validate_factors(chains(2, 2, 2, 2))
    r = product_theorem(A, Analysis(A.graph))
    assert r == (True, "CM", True, True)


def test_is_boolean_lattice_distinguishes_posets(figure1):
    # figure1 is a Boolean poset but not a lattice: two atoms have no join
    assert figure1.is_boolean()
    assert not is_boolean_lattice(figure1)
    assert is_boolean_lattice(generate("boolean_lattice", 3))


def test_is_boolean_lattice_matches_three_clause_reference(figure1):
    rng = random.Random(29)
    posets = [figure1]
    posets += [generate("boolean_lattice", k) for k in range(1, 5)]
    posets += [generate("atom_coatom", k) for k in range(2, 6)]
    posets += [generate(name, k) for name in ("chain", "m_atoms") for k in range(1, 7)]
    posets += [
        direct_product(chains(*sizes)).carrier
        for sizes in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 3))
    ]
    # 4 or 8 elements: only these sizes get past the 2^k count
    posets += [random_bounded_poset(rng, rng.choice((2, 6))) for _ in range(120)]
    verdicts = set()
    for P in posets:
        verdict = is_boolean_lattice(P)
        assert verdict == brute.is_boolean_lattice_reference(P), P.to_text()
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_boolean_lattice_skips_distributivity_loop():
    carrier = validate_factors(chains(3, 3, 3)).carrier
    assert not is_boolean_lattice(carrier)
    assert "distributivity_witness" not in carrier.__dict__


def test_maximality_trap_fires_under_O():
    script = (
        "from zdposet import product\n"
        "from zdposet.errors import TheoremContractError\n"
        "from zdposet.poset import generate\n"
        "print('debug', __debug__)\n"
        "A = product.validate_factors([generate('chain', 3)] * 3)\n"
        "try:\n"
        "    product._assert_maximal_independent(A.graph, frozenset())\n"
        "except TheoremContractError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    raise SystemExit('the empty set passed as maximal')\n"
    )
    src = str(Path(zdposet.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "raised: set is not maximal" in proc.stdout


def test_bipartite_two_two():
    A = validate_factors(chains(2, 2))
    assert product_theorem(A, Analysis(A.graph)) == (True, "CM", True, True)


def test_bipartite_three_three():
    # K_{2,2} is well-covered but not CM
    A = validate_factors(chains(3, 3))
    assert product_theorem(A, Analysis(A.graph)) == (False, "NotCM", True, True)
    # an Inconclusive verdict decides no statement, and is passed on
    analysis = Analysis(A.graph)
    analysis.verdict = CmVerdict("Inconclusive", "facet-cap")
    assert product_theorem(A, analysis) == (False, "Inconclusive", True, True)


def test_bipartite_mixed():
    A = validate_factors(chains(2, 3))
    r = product_theorem(A, Analysis(A.graph))
    assert r == (False, "NotCM", False, True)


def test_parse_size_vectors():
    assert parse_size_vectors("2,2,2\n\n# c\n3,3\n") == [(2, 2, 2), (3, 3)]
    assert parse_size_vectors(" 3 , 4\t,2 \n") == [(3, 4, 2)]
    with pytest.raises(ZdPosetError, match="expected comma-separated integers") as err:
        parse_size_vectors("2,2\nnope\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ZdPosetError, match="line 1: a factor vector needs at least 2 entries"):
        parse_size_vectors("2\n")
    with pytest.raises(ZdPosetError, match="^line 1: factor sizes must be at least 2$"):
        parse_size_vectors("2,1\n")
    # the catalog cap is read off the sizes, before any factor is built
    for text, line in [
        ("2,2\n300,300\n", "line 2: 300,300 would have 90000 elements"),
        ("2,513\n", "line 1: 2,513 would have 1026 elements"),
        (",".join(["2"] * 11), "line 1: 2,2,2,2,2,2,2,2,2,2,2 would have 2048 elements"),
        ("1000, 1000", "line 1: 1000,1000 would have 1000000 elements"),
    ]:
        with pytest.raises(ZdPosetError) as exc:
            parse_size_vectors(text)
        assert str(exc.value) == line + ", above the catalog cap of 1024"
    ten = (2,) * 10
    text = ",".join(map(str, ten)) + "\n32,32\n2,512\n"
    assert parse_size_vectors(text) == [ten, (32, 32), (2, 512)]
    # a size is judged by its digits, leading zeros aside, before int()
    # reads it: int() refuses more than 4,300 digits
    assert parse_size_vectors("02,3\n" + "0" * 5000 + "2,2\n") == [(2, 3), (2, 2)]
    with pytest.raises(ZdPosetError) as exc:
        parse_size_vectors("2,2\n" + "9" * 5000 + ",2\n")
    assert str(exc.value) == (
        "line 2: a vector with a 5000-digit factor size would have at least "
        "10^4999 elements, above the catalog cap of 1024"
    )


def test_sweep_report_golden():
    got = sweep_report([(2, 2, 2), (3, 3, 3), (2, 3)])
    assert got == (
        "sizes\t|D|\t|J_1|\t|J_1,2,3|\twell-covered\tCM\tboolean-lattice\n"
        "2,2,2\t1\t3\t3\tyes\tyes\tyes\n"
        "3,3,3\t8\t10\t12\tno\tno\tno\n"
        "2,3\t2\t1\t-\tno\tno\tno\n"
    )


def test_no_sweep_row_reaches_the_homology_oracle():
    # CM chain products are Boolean; the rest are not well-covered, or
    # for n = 2 the very well-covered K_{a,a} that the matching search
    # settles; so no vector under the facet cap needs the oracle, even
    # with a homology cap of 1.  The vectors: 2-4 chains of sizes 2-6,
    # ascending, whose graph (|P| - 1 - |D| vertices) is under the cap.
    vectors = [
        sizes
        for n in (2, 3, 4)
        for sizes in itertools.combinations_with_replacement(range(2, 7), n)
        if math.prod(sizes) - 1 - math.prod(s - 1 for s in sizes)
        <= DEFAULT_MAX_VERTICES
    ]
    assert len(vectors) == 41
    for sizes in vectors:
        A = validate_factors(chains(*sizes))
        route = Analysis(A.graph, max_homology_vertices=1).verdict.method
        assert route in (
            "boolean-certificate", "not-well-covered", "matching-search"
        ), sizes


@pytest.mark.parametrize(
    "sizes",
    [(2, 2), (3, 4), (2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2), (3, 3, 3, 3)],
    ids=lambda v: ",".join(map(str, v)),
)
def test_sweep_row_builds_each_j_set_once(sizes, monkeypatch):
    # a row reads J_1 (for its cell), J_2 (the n = 2 axes) and, for
    # n >= 3, every J_i (the counts and well_covered_verdict) and J_1,2,3:
    # each is built and checked once, above and below the facet cap
    import zdposet.product as product_mod

    checked = []
    check = product_mod._assert_maximal_independent

    def counted(G, members):
        checked.append(members)
        check(G, members)

    monkeypatch.setattr(product_mod, "_assert_maximal_independent", counted)
    expected = len(sizes) + 1 if len(sizes) >= 3 else 2
    for max_vertices in (DEFAULT_MAX_VERTICES, 3):
        checked.clear()
        row = product_mod.sweep_row(sizes, max_vertices)
        assert len(checked) == expected, row


def test_sweep_above_cap_flags_formula_verdict():
    row = sweep_report([(3, 3, 3)], max_vertices=10).splitlines()[1]
    assert "no [unverified-by-enumeration]" in row


@pytest.mark.parametrize(
    "sizes",
    [(2, 2), (3, 4), (2, 2, 2), (3, 3, 3), (3, 3, 3, 3)],
    ids=lambda v: ",".join(map(str, v)),
)
def test_sweep_row_builds_one_analysis_and_one_lattice_test(sizes, monkeypatch):
    # the theorem check reads the row's own Analysis: one call to the
    # facet enumeration, and one is_boolean_lattice call
    import zdposet.cmcert as cmcert_mod
    import zdposet.product as product_mod

    calls = []

    class CountedAnalysis(Analysis):
        def __init__(self, *args):
            calls.append("Analysis")
            super().__init__(*args)

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(product_mod, "Analysis", CountedAnalysis)
    monkeypatch.setattr(
        product_mod, "is_boolean_lattice", counted("lattice", is_boolean_lattice)
    )
    monkeypatch.setattr(
        cmcert_mod,
        "independence_complex",
        counted("facets", cmcert_mod.independence_complex),
    )
    for max_vertices in (DEFAULT_MAX_VERTICES, 3):
        calls.clear()
        product_mod.sweep_row(sizes, max_vertices)
        assert calls.count("Analysis") == 1
        assert calls.count("lattice") == 1
        assert calls.count("facets") == 1  # raising above the cap


def test_product_theorem_on_four_chains_under_the_facet_cap():
    vectors = [
        sizes
        for sizes in itertools.combinations_with_replacement(range(2, 7), 4)
        if math.prod(sizes) - 1 - math.prod(s - 1 for s in sizes)
        <= DEFAULT_MAX_VERTICES
    ]
    assert vectors == [
        (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 4), (2, 2, 2, 5), (2, 2, 3, 3)
    ]
    for sizes in vectors:
        boolean = sizes == (2, 2, 2, 2)
        A = validate_factors(chains(*sizes))
        r = product_theorem(A, Analysis(A.graph))
        assert r == (boolean, "CM" if boolean else "NotCM", boolean, True), sizes


def test_product_theorem_on_complete_bipartite_graphs():
    # chains a + 1 and b + 1 give K_{a,b}: well-covered iff a = b, and
    # CM for no a, b >= 2
    for a in range(2, 8):
        for b in range(a, 8):
            A = validate_factors(chains(a + 1, b + 1))
            r = product_theorem(A, Analysis(A.graph))
            assert r == (False, "NotCM", a == b, True), (a, b)


@pytest.mark.parametrize(
    "plant, vectors, message",
    [
        ("lattice", "2,2,2\n", "statements disagree"),
        ("lattice", "3,3\n", "statements disagree"),
        ("counts", "2,2,2\n", "differ from the counting formulas"),
        ("formula", "2,3,4\n", "disagrees with enumeration"),
        ("axes", "2,3\n", "is not K_{1,2} on the axes"),
    ],
)
def test_planted_disagreement_fails_the_sweep(
    plant, vectors, message, tmp_path, monkeypatch, capsys
):
    import zdposet.product as product_mod
    from zdposet.cli import main

    if plant == "lattice":
        patched = lambda P: not is_boolean_lattice(P)
        monkeypatch.setattr(product_mod, "is_boolean_lattice", patched)
    elif plant == "counts":
        patched = lambda sizes: predicted_counts(sizes)._replace(j_triple_size=0)
        monkeypatch.setattr(product_mod, "predicted_counts", patched)
    elif plant == "formula":
        patched = lambda A: (not well_covered_verdict(A)[0], "planted")
        monkeypatch.setattr(product_mod, "well_covered_verdict", patched)
    else:  # J_1 in place of J_2: the axes are not the parts
        monkeypatch.setattr(product_mod, "j_single", lambda A, i: j_single(A, 1))
    path = tmp_path / "sizes.txt"
    path.write_text(vectors)
    assert main(["sweep", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contract violation: ") and message in err
