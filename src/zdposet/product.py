"""Zero-divisor graphs of products of unique-atom bounded posets.

For factors with no nonzero zero-divisors the product graph carries the
canonical maximal independent sets J_i (everything above the i-th atom,
dense elements removed) and J_{i,j,k} (above at least two of three
atoms).  Their sizes obey closed counting formulas, and comparing them
decides well-coveredness without any facet enumeration.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

from .cmcert import Analysis
from .complexes import DEFAULT_MAX_VERTICES, STATUS_TEXT, is_well_covered, yes_no
from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .order import MAX_CATALOG_ELEMENTS, Poset, above_cap, bits
from .poset import ProductPoset, generate
from .zdg import ZdGraph, zero_divisor_graph, zero_divisors


class ProductAnalysis(ProductPoset):
    """A direct product whose factors have Z(P_i) = {0}, with its atom
    tuples and dense elements.

    The constructor checks the hypotheses in the order: two or more
    factors, each bounded (``ProductPoset``), then Z(P_i) = {0}.
    """

    def __init__(self, factors: Sequence[Poset]):
        super().__init__(factors)
        for pos, f in enumerate(self.factors, 1):
            if zero_divisors(f) != {f.bottom}:
                raise ZdPosetError(
                    f"factor {pos} must satisfy Z(P) = {{0}} "
                    "(equivalently: at least two elements and a unique atom)"
                )
        self.factor_sizes: tuple[int, ...] = tuple(len(f) for f in self.factors)
        bottoms = tuple(f.bottom for f in self.factors)
        # atom_ids[p]: the carrier id of factor p's atom tuple (its unique
        # atom at p, bottoms elsewhere)
        self.atom_ids: tuple[int, ...] = tuple(
            self.coord_of.index(bottoms[:p] + tuple(f.atoms()) + bottoms[p + 1 :])
            for p, f in enumerate(self.factors)
        )
        if self.carrier.atoms() != frozenset(self.atom_ids):
            raise TheoremContractError(
                "product atoms must be the per-factor atom tuples"
            )
        dense = frozenset(
            i
            for i, co in enumerate(self.coord_of)
            if all(c != b for c, b in zip(co, bottoms))
        )
        # dense elements are exactly the non-zero-divisors; Z(P) is the
        # graph's vertex set plus the bottom
        z = frozenset(self.graph.vertices) | {self.carrier.bottom}
        if dense != frozenset(range(len(self.carrier))) - z:
            raise TheoremContractError("dense set must equal the complement of Z(P)")
        if len(dense) != math.prod(s - 1 for s in self.factor_sizes):
            raise TheoremContractError("|D| must be the product of (|P_i| - 1)")
        self.dense = dense
        # the J-sets built so far, by index tuple: each one is built and
        # checked once, however many callers ask for it
        self._j_sets: dict[tuple[int, ...], frozenset[int]] = {}

    @property
    def n(self) -> int:
        return len(self.factor_sizes)

    @cached_property
    def graph(self) -> ZdGraph:
        return zero_divisor_graph(self.carrier)


def validate_factors(factors: Sequence[Poset]) -> ProductAnalysis:
    """Check that the factor sizes ascend, then build the validated product."""
    sizes = [len(f) for f in factors]
    if sizes != sorted(sizes):
        raise ZdPosetError(f"factor sizes {sizes} are not ascending")
    return ProductAnalysis(factors)


def _assert_maximal_independent(G: ZdGraph, members: frozenset[int]) -> None:
    mask = sum(1 << G.index[v] for v in members)
    name = G.label
    for v, row in zip(G.vertices, G.nbr):
        hit = row & mask
        if v in members and hit:
            raise TheoremContractError(
                f"set is not independent: {name(v)} is adjacent to "
                f"{name(G.vertices[next(bits(hit))])}"
            )
        if v not in members and not hit:
            raise TheoremContractError(f"set is not maximal: {name(v)} could be added")


def _j_set(A: ProductAnalysis, key: tuple[int, ...], mask: int) -> frozenset[int]:
    """The J-set ``key`` of A: the carrier ids in ``mask`` minus D, checked
    maximal independent on its first build."""
    members = A._j_sets.get(key)
    if members is None:
        members = frozenset(bits(mask)) - A.dense
        _assert_maximal_independent(A.graph, members)
        A._j_sets[key] = members
    return members


def j_single(A: ProductAnalysis, i: int) -> frozenset[int]:
    """The maximal independent set above the i-th atom (1-based), minus D."""
    if not 1 <= i <= A.n:
        raise ZdPosetError(f"factor index {i} not in 1..{A.n}")
    return _j_set(A, (i,), A.carrier.up[A.atom_ids[i - 1]])


def j_triple(A: ProductAnalysis, i: int, j: int, k: int) -> frozenset[int]:
    """Union of the three pairwise atom upper cones, minus D (1-based)."""
    if not (1 <= i < j < k <= A.n):
        raise ZdPosetError(
            f"indices ({i},{j},{k}) must satisfy 1 <= i < j < k <= {A.n}"
        )
    ui, uj, uk = (A.carrier.up[A.atom_ids[m - 1]] for m in (i, j, k))
    return _j_set(A, (i, j, k), ui & uj | uj & uk | ui & uk)


class PredictedCounts(NamedTuple):
    j_single_sizes: tuple[int, ...]
    j_triple_size: int | None


def predicted_triple_size(sizes: Sequence[int]) -> int:
    """Closed inclusion-exclusion count of |J_{i,j,k}| for equal sizes."""
    n = len(sizes)
    if n < 3:
        raise ZdPosetError("the triple formula needs n >= 3")
    if len(set(sizes)) != 1:
        raise ZdPosetError(
            f"the closed triple formula needs equal sizes, got {tuple(sizes)}"
        )
    a = sizes[0]
    return 3 * ((a - 1) ** 2 * a ** (n - 2) - (a - 1) ** n) - 2 * (
        (a - 1) ** 3 * a ** (n - 3) - (a - 1) ** n
    )


def predicted_counts(sizes: Sequence[int]) -> PredictedCounts:
    """Formula sizes of the J-sets; the triple form needs equal sizes."""
    n = len(sizes)
    if n < 3:
        raise ZdPosetError("counting formulas apply for n >= 3")
    dense = math.prod(s - 1 for s in sizes)
    singles = tuple(
        (math.prod(sizes) // sizes[i]) * (sizes[i] - 1) - dense
        for i in range(n)
    )
    triple = predicted_triple_size(sizes) if len(set(sizes)) == 1 else None
    return PredictedCounts(singles, triple)


def well_covered_verdict(A: ProductAnalysis) -> tuple[bool, str]:
    """Theorem-level verdict: well-covered iff every factor is a 2-chain.

    The explanation cites actually enumerated J-set sizes, not formulas.
    """
    if A.n < 3:
        raise ZdPosetError("the product verdict applies for n >= 3")
    singles = [len(j_single(A, i)) for i in range(1, A.n + 1)]
    for i in range(A.n):
        for j in range(i + 1, A.n):
            if singles[i] != singles[j]:
                return False, (
                    f"|J_{i + 1}| = {singles[i]} != {singles[j]} = |J_{j + 1}|"
                )
    if all(s == 2 for s in A.factor_sizes):
        return True, "every factor is a 2-chain; all J-sets share one size"
    triple = len(j_triple(A, 1, 2, 3))
    return False, f"|J_1| = {singles[0]} != {triple} = |J_1,2,3|"


def is_boolean_lattice(P: Poset) -> bool:
    """Order-isomorphic to the power set of its atoms: a Boolean poset
    with 2^k elements for k atoms.  x ↦ supp(x) embeds a Boolean poset
    into the 2^k subsets of its atoms (``Poset.is_boolean``), so it is
    onto exactly when the sizes match."""
    return P.is_boolean() and len(P) == 2 ** P.atoms_mask.bit_count()


class TheoremCheck(NamedTuple):
    """``product_theorem``'s findings: the value every decided statement
    shares, the verdict's status (None where the facet cap kept it from
    running), and well-covered, enumerated or else the formula's."""

    boolean_lattice: bool
    cm_status: str | None
    well_covered: bool
    enumerated: bool


def product_theorem(A: ProductAnalysis, analysis: Analysis) -> TheoremCheck:
    """Check the product theorem on A under the caps of ``analysis``, an
    ``Analysis`` of ``A.graph``; any disagreement raises
    ``TheoremContractError``.

    For n >= 3 the five statements (CM, well-covered, every factor a
    2-chain, Boolean lattice, Boolean poset) agree, and the J-set sizes
    match ``predicted_counts``.  For n = 2 the graph is
    K_{|P_1|-1,|P_2|-1} on the axes, well-covered iff |P_1| = |P_2|, and
    the other four statements agree.  Facet enumeration checks the
    well-covered formula below the facet cap; above it only a Boolean
    lattice, whose certificate needs no facets, gets a CM verdict.  An
    ``Inconclusive`` verdict decides no statement.
    """
    sizes = A.factor_sizes
    singles = tuple(j_single(A, i) for i in range(1, A.n + 1))
    if A.n == 2:
        # with a unique atom, J_i is the i-th axis: coordinate i nonzero,
        # the other at the bottom
        part1, part2 = singles
        complete = len(part1) + len(part2) == len(A.graph.vertices) and all(
            A.graph.neighbors(a) == part2 for a in part1
        )
        a, b = (s - 1 for s in sizes)
        if not complete or (len(part1), len(part2)) != (a, b):
            raise TheoremContractError(
                f"the graph is not K_{{{a},{b}}} on the axes J_1 and J_2"
            )
        formula = sizes[0] == sizes[1]
    else:
        predicted = predicted_counts(sizes)
        counts = tuple(map(len, singles))
        triple = len(j_triple(A, 1, 2, 3))
        if counts != predicted.j_single_sizes or predicted.j_triple_size not in (
            None,
            triple,
        ):
            raise TheoremContractError(
                f"J-set sizes {counts}, {triple} differ from the counting "
                f"formulas {tuple(predicted)}"
            )
        formula, _ = well_covered_verdict(A)
    lattice = is_boolean_lattice(A.carrier)
    try:
        wc = is_well_covered(analysis.complex)
    except SizeLimitExceededError:
        wc, enumerated = formula, False
    else:
        enumerated = True
        if wc != formula:
            raise TheoremContractError(
                f"formula verdict {formula} disagrees with enumeration "
                f"{wc} for sizes {sizes}"
            )
    status = analysis.verdict.status if enumerated or lattice else None
    statements = {}
    if status in ("CM", "NotCM"):
        statements["cohen-macaulay"] = status == "CM"
    if A.n >= 3:
        statements["well-covered"] = wc
    statements["all-factors-2-chains"] = all(s == 2 for s in sizes)
    statements["boolean-lattice"] = lattice
    if status is not None:
        # the verdict has already decided, and cached, is_boolean()
        statements["boolean-poset"] = A.carrier.is_boolean()
    if len(set(statements.values())) != 1:
        detail = ", ".join(f"{name}={v}" for name, v in statements.items())
        raise TheoremContractError(
            f"the product theorem's statements disagree for sizes {sizes}: {detail}"
        )
    return TheoremCheck(lattice, status, wc, enumerated)


# -- sweep harness -------------------------------------------------------------


def parse_size_vectors(text: str) -> list[tuple[int, ...]]:
    """One comma-separated factor-size vector per line; # comments allowed.
    A vector whose carrier would exceed the catalog cap is refused."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = [tok.strip(" \t") for tok in line.split(",")]
        # int() also takes signs, underscores and non-ASCII digits
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ZdPosetError(
                f"line {lineno}: expected comma-separated integers, got {line!r}"
            )
        # int() refuses over 4,300 digits: count them, leading zeros aside
        tokens = [tok.lstrip("0") or "0" for tok in tokens]
        if (digits := max(map(len, tokens))) > len(str(MAX_CATALOG_ELEMENTS)):
            raise above_cap(
                f"line {lineno}: a vector with a {digits}-digit factor size",
                f"at least 10^{digits - 1}",
            )
        sizes = tuple(map(int, tokens))
        if len(sizes) < 2:
            raise ZdPosetError(
                f"line {lineno}: a factor vector needs at least 2 entries"
            )
        if any(s < 2 for s in sizes):
            raise ZdPosetError(f"line {lineno}: factor sizes must be at least 2")
        elements = math.prod(sizes)
        if elements > MAX_CATALOG_ELEMENTS:
            vector = ",".join(map(str, sizes))
            raise above_cap(f"line {lineno}: {vector}", elements)
        out.append(sizes)
    return out


SWEEP_HEADER = "sizes\t|D|\t|J_1|\t|J_1,2,3|\twell-covered\tCM\tboolean-lattice"


def sweep_row(sizes: Sequence[int], max_vertices: int = DEFAULT_MAX_VERTICES) -> str:
    """One TSV row for the chain product with the given factor sizes, read
    off ``product_theorem`` under the facet cap ``max_vertices``; above
    it, formula cells carry a flag.  No row needs the homology oracle:
    CM chain products are Boolean, and the others are not well-covered
    or, for n = 2, very well-covered."""
    A = validate_factors([generate("chain", s) for s in sizes])
    t = product_theorem(A, Analysis(A.graph, max_vertices))
    flag = "" if t.enumerated else " [unverified-by-enumeration]"
    cells = [
        ",".join(str(s) for s in sizes),
        str(len(A.dense)),
        str(len(j_single(A, 1))),
        "-" if A.n == 2 else str(len(j_triple(A, 1, 2, 3))),
        yes_no(t.well_covered) + flag,
        "no" + flag if t.cm_status is None else STATUS_TEXT[t.cm_status],
        yes_no(t.boolean_lattice),
    ]
    return "\t".join(cells)


def sweep_report(
    vectors: Sequence[Sequence[int]],
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> str:
    """TSV report over factor-size vectors, in input order."""
    rows = [sweep_row(v, max_vertices) for v in vectors]
    return "\n".join([SWEEP_HEADER, *rows]) + "\n"
