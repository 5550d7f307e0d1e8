"""The order facts that only ``info`` prints and the Boolean guards read.

``Poset.is_boolean`` decides the Boolean question from the atom supports
without running a clause.  This module holds the clauses one at a time,
for the reports that name the one that failed: distributivity (Birkhoff's
test first, then the cone-law loop that finds the first witness),
complements, the reason a poset is not Boolean, and WSSC.  A ``check``
run never loads it.
"""

from __future__ import annotations

from .errors import TheoremContractError
from .order import Poset, bits


def lcone_mask(P: Poset, mask: int) -> int:
    """Mask of elements below every member of ``mask`` (all, if empty)."""
    out = P.full_mask
    for i in bits(mask):
        out &= P.down[i]
    return out


def coperp_masks(P: Poset) -> list[int]:
    """For every x, the mask of {y : the upper cone of {x, y} is exactly
    {top}}: the dual of ``perp_mask``, through the coatoms above x.  P
    is bounded."""
    top = P.top
    coatoms = 0
    for i, row in enumerate(P.up):
        if i != top and row == (1 << top) | (1 << i):
            coatoms |= 1 << i
    out = []
    for row in P.up:
        m = 0
        for c in bits(coatoms & row):
            m |= P.down[c]
        out.append(P.full_mask & ~m)
    return out


def is_distributive_lattice(P: Poset) -> bool:
    """True if the poset is a distributive lattice, else False.

    A finite poset with a least element and a join for every pair is a
    lattice.  A finite lattice is distributive iff every join-irreducible
    is join-prime (Birkhoff), i.e. iff ``J(b ∨ c) == J(b) | J(c)`` for
    all b, c, where ``J(x)`` is the mask of join-irreducibles below x.
    On a lattice the cone law is the lattice distributive law, so True
    decides it.  False only means this test cannot decide it.
    """
    if P.bottom is None:
        return False
    up, down = P.up, P.down
    # b ∨ c is the element whose up-set is up[b] & up[c], if any
    by_up = {row: i for i, row in enumerate(up)}
    # x has exactly one lower cover iff the elements strictly below x
    # are the down-set of one element
    by_down = set(down)
    irreducible = 0
    for x, row in enumerate(down):
        if (row ^ (1 << x)) in by_down:
            irreducible |= 1 << x
    J = [row & irreducible for row in down]
    for b, ub in enumerate(up):
        jb = J[b]
        for c in range(b + 1, len(up)):
            join = by_up.get(ub & up[c])
            if join is None or J[join] != jb | J[c]:
                return False
    return True


def distributivity_witness(P: Poset) -> tuple[int, int, int] | None:
    """First triple (a, b, c) violating the cone distributive law, or None.

    The law compared is
    ``({a} ∪ {b,c}^u)^l == ({a,b}^l ∪ {a,c}^l)^{ul}``.  Distributive
    lattices are recognized in O(n²) mask operations; every other poset
    goes through the O(n³) triple loop, which finds the first witness.
    ``Poset.distributivity_witness`` caches the answer.
    """
    if is_distributive_lattice(P):
        return None
    n = len(P)
    up, down = P.up, P.down
    # the law is symmetric in b and c, and holds at b = c since
    # ({a,b}^l)^{ul} = {a,b}^l; so the first witness has b < c, and
    # only those pairs are tried.  pre[b][c]: lower cone of {b,c}^u
    pre: list[list[int]] = [[0] * n for _ in range(n)]
    for b in range(n):
        for c in range(b + 1, n):
            pre[b][c] = lcone_mask(P, up[b] & up[c])
    ul_memo: dict[int, int] = {}
    for a in range(n):
        da = down[a]
        for b in range(n):
            dab = da & down[b]
            row = pre[b]
            for c in range(b + 1, n):
                lhs = da & row[c]
                union = dab | (da & down[c])
                rhs = ul_memo.get(union)
                if rhs is None:
                    rhs = lcone_mask(P, P.ucone_mask(union))
                    ul_memo[union] = rhs
                if lhs != rhs:
                    return (a, b, c)
    return None


def first_uncomplemented(P: Poset) -> int | None:
    """The first element of a bounded poset with no complement, or None."""
    for x, co in enumerate(coperp_masks(P)):
        if not P.perp_mask(x) & co:
            return x
    return None


def boolean_failure(P: Poset) -> str | None:
    """None if Boolean, else a reason naming the first failed clause.

    Clauses are reported in the order bounded, distributive,
    complemented; only a non-Boolean poset reads them.
    """
    if P.is_boolean():
        return None
    if P.bottom is None:
        return "not bounded (no least element)"
    if P.top is None:
        return "not bounded (no greatest element)"
    w = P.distributivity_witness
    if w is not None:
        a, b, c = (P.elements[i] for i in w)
        return f"not distributive (witness: {a},{b},{c})"
    x = first_uncomplemented(P)
    if x is None:
        raise TheoremContractError(
            "a complemented distributive poset failed the support test"
        )
    return f"element {P.elements[x]!r} has no complement"


def is_wssc(P: Poset) -> bool:
    """Weakly section semi-complemented: each a < b admits 0 < c <= b
    with L(a, c) = {0}; iff a < b implies supp(a) != supp(b) (README's
    "Boolean posets")."""
    P._require_bottom()
    alike: dict[int, int] = {}  # a support -> the elements that have it
    for x, s in enumerate(P.supports):
        alike[s] = alike.get(s, 0) | 1 << x
    return all(P.up[x] & m == 1 << x for m in alike.values() for x in bits(m))
