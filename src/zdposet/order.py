"""The order core: finite posets over bitmask order rows, and the
poset file format.

Conventions used throughout the package:

  - Elements are identified by their integer id, which is the index of
    first appearance (file order for parsed posets, generator order for
    catalog posets).  Ids are never renumbered.
  - The order relation is stored reflexively and transitively closed as
    two tuples of bitmasks: ``up[i]`` is the mask of ``{j : i <= j}`` and
    ``down[i]`` the mask of ``{j : j <= i}``.  Upper and lower cones of a
    set are then plain intersections of rows.
  - All set-valued results are frozensets of ids; render them sorted for
    deterministic output.

Posets are immutable after construction and safe to share between
threads; derived data (atoms, distributivity, ...) is cached lazily.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import PosetSyntaxError, TheoremContractError, ZdPosetError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """An immutable finite poset given by a closed order relation.

    The constructor validates reflexivity, antisymmetry and transitivity,
    and the uniqueness of element names; use :func:`parse_poset`,
    :func:`generate` or :func:`direct_product` to build instances.
    """

    def __init__(self, elements: Sequence[str], up: Sequence[int]):
        self.elements: tuple[str, ...] = tuple(elements)
        self.up: tuple[int, ...] = tuple(up)
        n = len(self.elements)
        if len(self.up) != n:
            raise ValueError("relation size does not match element count")
        self._check_names()

        full = self.full_mask
        down = [0] * n
        for i, row in enumerate(self.up):
            if row & ~full:
                raise ValueError("relation references unknown element ids")
            if not (row >> i) & 1:
                raise ValueError(f"relation is not reflexive at {self.elements[i]!r}")
            for j in bits(row):
                down[j] |= 1 << i
        self.down: tuple[int, ...] = tuple(down)

        for i in range(n):
            both = self.up[i] & self.down[i]
            if both != 1 << i:
                j = next(j for j in bits(both) if j != i)
                raise ZdPosetError(
                    f"elements {self.elements[i]!r} and {self.elements[j]!r} "
                    "lie below each other"
                )
        for i in range(n):
            row = self.up[i]
            for j in bits(row):
                if self.up[j] | row != row:
                    raise ValueError(
                        f"relation is not transitive at "
                        f"({self.elements[i]!r}, {self.elements[j]!r})"
                    )
        self._find_bounds()

    @classmethod
    def _from_order(
        cls, elements: Sequence[str], up: Sequence[int], down: Sequence[int]
    ) -> Poset:
        """A poset on rows that already form a closed partial order, with
        ``down`` the transpose of ``up``; the order axioms are not
        checked again."""
        P = cls.__new__(cls)
        P.elements, P.up, P.down = tuple(elements), tuple(up), tuple(down)
        P._check_names()
        P._find_bounds()
        return P

    def _check_names(self) -> None:
        self.full_mask: int = (1 << len(self.elements)) - 1
        seen: set[str] = set()
        for name in self.elements:
            if name in seen:
                raise PosetSyntaxError(f"duplicate element name {name!r}")
            seen.add(name)

    def _find_bounds(self) -> None:
        full = self.full_mask
        self.bottom: int | None = None
        self.top: int | None = None
        for i in range(len(self.elements)):
            if self.up[i] == full:
                self.bottom = i
            if self.down[i] == full:
                self.top = i

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.up))

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements, bottom={self.bottom}, top={self.top})"

    def names(self, ids: Iterable[int]) -> tuple[str, ...]:
        """Element names in ascending id order (the canonical rendering)."""
        return tuple(self.elements[i] for i in sorted(ids))

    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    def _require_bottom(self) -> int:
        if self.bottom is None:
            raise ZdPosetError("poset has no least element")
        return self.bottom

    def _require_top(self) -> int:
        if self.top is None:
            raise ZdPosetError("poset has no greatest element")
        return self.top

    # -- cones ---------------------------------------------------------------

    def ucone_mask(self, mask: int) -> int:
        """Mask of elements above every member of ``mask`` (all, if empty)."""
        out = self.full_mask
        for i in bits(mask):
            out &= self.up[i]
        return out

    def lcone_mask(self, mask: int) -> int:
        out = self.full_mask
        for i in bits(mask):
            out &= self.down[i]
        return out

    # -- atoms and weights -----------------------------------------------------

    @cached_property
    def atoms_mask(self) -> int:
        bot = self._require_bottom()
        m = 0
        for i in range(len(self.elements)):
            if i != bot and self.down[i] == (1 << bot) | (1 << i):
                m |= 1 << i
        return m

    @cached_property
    def coatoms_mask(self) -> int:
        """Mask of the elements the greatest element covers."""
        top = self._require_top()
        m = 0
        for i in range(len(self.elements)):
            if i != top and self.up[i] == (1 << top) | (1 << i):
                m |= 1 << i
        return m

    def atoms(self) -> frozenset[int]:
        """Elements covering the least element."""
        return frozenset(bits(self.atoms_mask))

    @cached_property
    def supports(self) -> tuple[int, ...]:
        """supp(x) for every x: the mask of the atoms below x.  Every
        Boolean question reads it (README's "Boolean posets")."""
        atoms = self.atoms_mask
        return tuple(atoms & row for row in self.down)

    def weight(self, x: int) -> int:
        """Number of atoms lying below ``x``."""
        return self.supports[x].bit_count()

    def poset_weight(self) -> int:
        """Weight of the greatest element, i.e. the total number of atoms."""
        return self.weight(self._require_top())

    # -- complements -------------------------------------------------------------

    def perp_mask(self, x: int) -> int:
        """Mask of {y : the lower cone of {x, y} is exactly {bottom}}.

        Every nonzero element lies above an atom, so y has a nonzero lower
        bound in common with x iff y lies above an atom below x.
        """
        m = 0
        for a in bits(self.supports[x]):
            m |= self.up[a]
        return self.full_mask & ~m

    def coperp_mask(self, x: int) -> int:
        """Mask of {y : the upper cone of {x, y} is exactly {top}}: the
        dual of ``perp_mask``, through the coatoms above x."""
        m = 0
        for c in bits(self.coatoms_mask & self.up[x]):
            m |= self.down[c]
        return self.full_mask & ~m

    # -- structural predicates ------------------------------------------------------

    def _is_distributive_lattice(self) -> bool:
        """True if the poset is a distributive lattice, else False.

        A finite poset with a least element and a join for every pair is a
        lattice.  A finite lattice is distributive iff every join-irreducible
        is join-prime (Birkhoff), i.e. iff ``J(b ∨ c) == J(b) | J(c)`` for
        all b, c, where ``J(x)`` is the mask of join-irreducibles below x.
        On a lattice the cone law is the lattice distributive law, so True
        decides it.  False only means this test cannot decide it.
        """
        if self.bottom is None:
            return False
        up, down = self.up, self.down
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

    @cached_property
    def distributivity_witness(self) -> tuple[int, int, int] | None:
        """First triple (a, b, c) violating the cone distributive law, or None.

        The law compared is
        ``({a} ∪ {b,c}^u)^l == ({a,b}^l ∪ {a,c}^l)^{ul}``.  Distributive
        lattices are recognized in O(n²) mask operations; every other poset
        goes through the O(n³) triple loop, which finds the first witness.
        """
        if self._is_distributive_lattice():
            return None
        n = len(self.elements)
        up, down = self.up, self.down
        # the law is symmetric in b and c, and holds at b = c since
        # ({a,b}^l)^{ul} = {a,b}^l; so the first witness has b < c, and
        # only those pairs are tried.  pre[b][c]: lower cone of {b,c}^u
        pre: list[list[int]] = [[0] * n for _ in range(n)]
        for b in range(n):
            for c in range(b + 1, n):
                pre[b][c] = self.lcone_mask(up[b] & up[c])
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
                        rhs = self.lcone_mask(self.ucone_mask(union))
                        ul_memo[union] = rhs
                    if lhs != rhs:
                        return (a, b, c)
        return None

    @cached_property
    def _first_uncomplemented(self) -> int | None:
        """The first element of a bounded poset with no complement, or None."""
        for x in range(len(self.elements)):
            if not self.perp_mask(x) & self.coperp_mask(x):
                return x
        return None

    @cached_property
    def boolean_failure(self) -> str | None:
        """None if Boolean, else a reason naming the first failed clause.

        Clauses are reported in the order bounded, distributive,
        complemented; only a non-Boolean poset reads them.
        """
        if self.is_boolean():
            return None
        if self.bottom is None:
            return "not bounded (no least element)"
        if self.top is None:
            return "not bounded (no greatest element)"
        w = self.distributivity_witness
        if w is not None:
            a, b, c = (self.elements[i] for i in w)
            return f"not distributive (witness: {a},{b},{c})"
        x = self._first_uncomplemented
        if x is None:
            raise TheoremContractError(
                "a complemented distributive poset failed the support test"
            )
        return f"element {self.elements[x]!r} has no complement"

    @cached_property
    def _boolean(self) -> bool:
        if not self.is_bounded() or not self.is_ssc():
            return False
        atoms = self.atoms_mask
        return {atoms ^ s for s in self.supports} == set(self.supports)

    def is_boolean(self) -> bool:
        """Bounded, complemented and distributive; cached.

        Decided from the supports: P is Boolean iff it is bounded, SSC
        (so x <= y iff supp(x) ⊆ supp(y)), and the supports are closed
        under complement in the atom set.  README's "Boolean posets" has
        the proof.  O(n·k) masks for k atoms; no clause runs.
        """
        return self._boolean

    def is_ssc(self) -> bool:
        """Section semi-complemented: each b not<= a admits 0 < c <= b with
        L(a, c) = {0}; iff ``up[x] == ucone_mask(supp(x))`` for every x,
        that is x <= y iff supp(x) ⊆ supp(y) (README's "Boolean posets")."""
        self._require_bottom()
        return all(row == self.ucone_mask(s) for row, s in zip(self.up, self.supports))

    def is_wssc(self) -> bool:
        """Weakly section semi-complemented: the same for a < b only; iff
        a < b implies supp(a) != supp(b)."""
        self._require_bottom()
        alike: dict[int, int] = {}  # a support -> the elements that have it
        for x, s in enumerate(self.supports):
            alike[s] = alike.get(s, 0) | 1 << x
        return all(self.up[x] & m == 1 << x for m in alike.values() for x in bits(m))

    # -- covers and serialization ----------------------------------------------------

    def cover_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) with j covering i, sorted by (i, j)."""
        out = []
        for i in range(len(self.elements)):
            for j in bits(self.up[i] & ~(1 << i)):
                if (self.down[j] & self.up[i]) == (1 << i) | (1 << j):
                    out.append((i, j))
        return out

    def to_text(self) -> str:
        """Serialize in the poset file format (cover pairs only)."""
        lines = ["poset v1"]
        for name in self.elements:
            if not name or any(ch.isspace() for ch in name) or "#" in name:
                raise ValueError(f"element name {name!r} is not file-safe")
            lines.append(f"elem {name}")
        for i, j in self.cover_pairs():
            lines.append(f"le {self.elements[i]} {self.elements[j]}")
        return "\n".join(lines) + "\n"


# -- parsing --------------------------------------------------------------------


def parse_poset(text: str) -> Poset:
    """Parse the line-oriented poset file format.

    The order is the reflexive-transitive closure of the declared ``le``
    pairs; ``#`` starts a comment anywhere on a line.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    header_seen = False
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "poset v1":
                raise PosetSyntaxError("expected 'poset v1' header", lineno)
            header_seen = True
            continue
        tokens = line.split()
        if tokens[0] == "elem":
            if len(tokens) != 2:
                raise PosetSyntaxError("elem takes exactly one name", lineno)
            name = tokens[1]
            if name in index:
                raise PosetSyntaxError(f"duplicate element {name!r}", lineno)
            index[name] = len(names)
            names.append(name)
        elif tokens[0] == "le":
            if len(tokens) != 3:
                raise PosetSyntaxError("le takes exactly two names", lineno)
            try:
                a, b = index[tokens[1]], index[tokens[2]]
            except KeyError as exc:
                raise PosetSyntaxError(
                    f"unknown element {exc.args[0]!r}", lineno
                ) from None
            pairs.append((a, b))
        else:
            raise PosetSyntaxError(f"unrecognized directive {tokens[0]!r}", lineno)
    if not header_seen:
        raise PosetSyntaxError("missing 'poset v1' header", max(last_line, 1))

    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    # Warshall closure on bit rows
    for k in range(n):
        kbit = 1 << k
        upk = up[k]
        for i in range(n):
            if up[i] & kbit:
                up[i] |= upk
    return Poset(names, up)
