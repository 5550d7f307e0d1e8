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
from typing import Iterator, Sequence

from .errors import PosetSyntaxError, ZdPosetError


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

    def __init__(
        self, elements: Sequence[str], up: Sequence[int], down: Sequence[int] | None = None
    ):
        """``down``, when given, is the transpose of ``up`` on rows known to
        form a partial order already (a product's), and the order axioms
        are not checked again."""
        self.elements: tuple[str, ...] = tuple(elements)
        self.up: tuple[int, ...] = tuple(up)
        n = len(self.elements)
        if len(self.up) != n:
            raise ValueError("relation size does not match element count")
        full = self.full_mask = (1 << n) - 1
        seen: set[str] = set()
        for name in self.elements:
            if name in seen:
                raise PosetSyntaxError(f"duplicate element name {name!r}")
            seen.add(name)

        if down is None:
            down = [0] * n
            for i, row in enumerate(self.up):
                if row & ~full:
                    raise ValueError("relation references unknown element ids")
                if not (row >> i) & 1:
                    raise ValueError(f"relation is not reflexive at {self.elements[i]!r}")
                for j in bits(row):
                    down[j] |= 1 << i
            for i in range(n):
                both = self.up[i] & down[i]
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
        self.down: tuple[int, ...] = tuple(down)
        self.bottom: int | None = None
        self.top: int | None = None
        for i in range(n):
            if self.up[i] == full:
                self.bottom = i
            if self.down[i] == full:
                self.top = i

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    def _require_bottom(self) -> int:
        if self.bottom is None:
            raise ZdPosetError("poset has no least element")
        return self.bottom

    # -- cones ---------------------------------------------------------------

    def ucone_mask(self, mask: int) -> int:
        """Mask of elements above every member of ``mask`` (all, if empty)."""
        out = self.full_mask
        for i in bits(mask):
            out &= self.up[i]
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
        if self.top is None:
            raise ZdPosetError("poset has no greatest element")
        return self.weight(self.top)

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

    # -- structural predicates ------------------------------------------------------

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

    @cached_property
    def _ssc(self) -> bool:
        return all(row == self.ucone_mask(s) for row, s in zip(self.up, self.supports))

    def is_ssc(self) -> bool:
        """Section semi-complemented: each b not<= a admits 0 < c <= b with
        L(a, c) = {0}; iff ``up[x] == ucone_mask(supp(x))`` for every x,
        that is x <= y iff supp(x) ⊆ supp(y) (README's "Boolean posets").
        Cached."""
        self._require_bottom()
        return self._ssc

    @cached_property
    def distributivity_witness(self) -> tuple[int, int, int] | None:
        """``lattice.distributivity_witness``, cached."""
        from .lattice import distributivity_witness

        return distributivity_witness(self)

    def to_text(self) -> str:
        """The poset file: ``formats.poset_text``."""
        from .formats import poset_text

        return poset_text(self)


# -- parsing --------------------------------------------------------------------

# the largest poset, in elements, that a file or a catalog builder may
# give; each refuses a larger one before building anything
MAX_CATALOG_ELEMENTS = 2**10


def above_cap(poset: str, elements: object) -> ZdPosetError:
    return ZdPosetError(
        f"{poset} would have {elements} elements, above the catalog cap of "
        f"{MAX_CATALOG_ELEMENTS}"
    )


def parse_poset(text: str) -> Poset:
    """Parse the line-oriented poset file format.

    The order is the reflexive-transitive closure of the declared ``le``
    pairs; ``#`` starts a comment anywhere on a line.  A file with more
    than ``MAX_CATALOG_ELEMENTS`` elements is refused at the first
    ``elem`` line past the cap.
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
            if len(names) == MAX_CATALOG_ELEMENTS:
                raise above_cap(
                    f"line {lineno}: the poset", f"more than {MAX_CATALOG_ELEMENTS}"
                )
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
