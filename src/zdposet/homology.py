"""Exact reduced simplicial homology over the rationals, plus Reisner's
link criterion.

Rational ranks are computed by integer fraction-free elimination on the
boundary matrices of the reduced chain complex (the empty face is a
genuine generator in degree -1).  One face walk yields each link's
rational Betti vector, for both Reisner's verdict and the ``check -v``
table.  It ranks a link over F2 first, with boundary rows as bitmasks;
where F2 homology vanishes below the link's dimension it equals the
rational homology, and only the other links are eliminated over the
integers.  No floating point is involved anywhere: Betti numbers are
integers and tolerances would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyComplexError,
    NotAFaceError,
    SizeLimitExceededError,
    TheoremContractError,
)
from .complexes import FacetComplex, lex_sorted
from .graphs import Vertex

DEFAULT_MAX_HOMOLOGY_VERTICES = 20


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers over the rationals, keyed by dimension."""

    betti: Mapping[int, int]

    def vanishes_below(self, dim: int) -> int | None:
        """The smallest i < dim with nonzero homology, or None."""
        for i in sorted(self.betti):
            if i < dim and self.betti[i]:
                return i
        return None


def _check_cap(C: FacetComplex, max_vertices: int) -> None:
    if not C.masks:
        raise EmptyComplexError("complex has no facets")
    n = len(C.vertices)
    if n > max_vertices:
        raise SizeLimitExceededError(
            f"{n} vertices exceed the homology cap {max_vertices}"
        )


def faces_by_dimension(
    C: FacetComplex, max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES
) -> list[list[tuple[Vertex, ...]]]:
    """Downward closure of the facets, grouped by size.

    Entry s holds the faces with s vertices (dimension s-1), sorted
    lexicographically; entry 0 is the empty face.
    """
    _check_cap(C, max_vertices)
    return [
        [C.vertices_of(f) for f in lex_sorted(bucket)]
        for bucket in _face_masks(C.masks)
    ]


class _IntRowBasis:
    """Incremental exact integer elimination; rank = number of pivot rows.

    Stored rows are gcd-reduced and kept in echelon form: each is stored
    under its leading column, which no other stored row leads with.
    ``prefer_high`` leads with the highest column instead of the lowest,
    giving an independent elimination order for cross-checks.
    """

    def __init__(self, prefer_high: bool = False):
        self.prefer_high = prefer_high
        self.rows: dict[int, dict[int, int]] = {}

    @staticmethod
    def _combine(
        r: dict[int, int], prow: dict[int, int], col: int
    ) -> dict[int, int]:
        a, p = r[col], prow[col]
        g = gcd(a, p)
        am, pm = a // g, p // g
        new = {c: v * pm for c, v in r.items()}
        for c, v in prow.items():
            new[c] = new.get(c, 0) - v * am
        out = {c: v for c, v in new.items() if v}
        if out:
            g = 0
            for v in out.values():
                g = gcd(g, v)
            if g > 1:
                out = {c: v // g for c, v in out.items()}
        return out

    def add(self, row: dict[int, int]) -> bool:
        r = {c: v for c, v in row.items() if v}
        while r:
            col = max(r) if self.prefer_high else min(r)
            if col not in self.rows:
                self.rows[col] = r
                return True
            r = self._combine(r, self.rows[col], col)
        return False

    @staticmethod
    def boundary_row(cols: Sequence[int]) -> dict[int, int]:
        """Row of the face whose j-th facet has target index ``cols[j]``."""
        return {c: -1 if j % 2 else 1 for j, c in enumerate(cols)}

    @property
    def rank(self) -> int:
        return len(self.rows)


class _F2RowBasis:
    """Elimination over F2: rows are bitmasks, reduced by XOR on the lowest bit."""

    def __init__(self):
        self.rows: dict[int, int] = {}

    def add(self, row: int) -> bool:
        while row:
            low = row & -row
            prow = self.rows.get(low)
            if prow is None:
                self.rows[low] = row
                return True
            row ^= prow
        return False

    @staticmethod
    def boundary_row(cols: Sequence[int]) -> int:
        row = 0
        for c in cols:
            row |= 1 << c
        return row

    @property
    def rank(self) -> int:
        return len(self.rows)


def _face_masks(facets: Sequence[int]) -> list[list[int]]:
    """Downward closure of facet bitmasks, grouped by size, each size sorted."""
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    top = max(f.bit_count() for f in facets)
    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for f in faces:
        by_size[f.bit_count()].append(f)
    for bucket in by_size:
        bucket.sort()
    return by_size


def _boundary_rank(
    sources: Sequence[int],
    target_index: Mapping[int, int],
    basis: _IntRowBasis | _F2RowBasis,
) -> int:
    """Rank of the boundary map from the ``sources`` faces to the targets."""
    for face in sources:
        cols = []
        rest = face
        while rest:
            low = rest & -rest
            cols.append(target_index[face ^ low])
            rest ^= low
        basis.add(basis.boundary_row(cols))
    return basis.rank


def _betti(
    by_size: list[list[int]],
    new_basis: Callable[[], _IntRowBasis | _F2RowBasis],
) -> dict[int, int]:
    """Reduced Betti numbers, dimensions -1..top, over the basis's field.

    ``by_size[s]`` lists the faces with s vertices as bitmasks.
    The nonnegativity check guards the rank computation; it raises even
    when asserts are stripped.
    """
    top = len(by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_size[s - 1])}
        ranks[s] = _boundary_rank(by_size[s], index, new_basis())
    betti: dict[int, int] = {}
    for s in range(top + 1):
        b = len(by_size[s]) - ranks[s] - ranks[s + 1]
        if b < 0:
            raise TheoremContractError(
                f"negative Betti number {b} in dimension {s - 1}: "
                "rank computation is broken"
            )
        betti[s - 1] = b
    return betti


def reduced_betti(
    C: FacetComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
    elimination_order: str = "forward",
) -> HomologyProfile:
    """Reduced rational Betti numbers of the complex, dimensions -1..dim."""
    if elimination_order not in ("forward", "reverse"):
        raise ValueError(f"unknown elimination order {elimination_order!r}")
    _check_cap(C, max_vertices)
    prefer_high = elimination_order == "reverse"
    return HomologyProfile(
        _betti(_face_masks(C.masks), lambda: _IntRowBasis(prefer_high))
    )


def link_of(C: FacetComplex, face: Iterable[Vertex]) -> FacetComplex:
    """The link: faces disjoint from ``face`` whose union with it is a face."""
    fs = set(face)
    if not C.has_face(fs):
        raise NotAFaceError(f"{sorted(fs)} is not a face of the complex")
    fm = sum(1 << C.index[v] for v in fs)
    return FacetComplex(C.vertices_of(m ^ fm) for m in C.masks if m & fm == fm)


def _face_walk(C: FacetComplex) -> Iterator[tuple[int, int, dict[int, int]]]:
    """(face mask, link dimension, the link's reduced rational Betti
    numbers over dimensions -1..dim) in (size, lex) face order.

    Facets through a face, minus it, are distinct and maximal: the link.
    A cone link is contractible.  F2 Betti numbers are never below the
    rational ones and have the same alternating sum, so where they vanish
    below dim they are the rational ones; only other links are eliminated
    over the integers.
    """
    for bucket in _face_masks(C.masks):
        for face in lex_sorted(bucket):
            link = [m ^ face for m in C.masks if m & face == face]
            dim = max(m.bit_count() for m in link) - 1
            if reduce(and_, link):
                betti = dict.fromkeys(range(-1, dim + 1), 0)
            else:
                faces = _face_masks(link)
                betti = _betti(faces, _F2RowBasis)
                if any(betti[d] for d in range(-1, dim)):
                    betti = _betti(faces, _IntRowBasis)
            yield face, dim, betti


def reisner_report(
    C: FacetComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
    verbose: bool = False,
    label=str,
) -> str:
    """Human-readable Reisner verdict.

    Summary line only by default; with ``verbose`` a per-face table of
    (face, link dimension, rational betti vector) precedes it, read from
    the face walk that decides ``reisner_cm``.
    """
    if not verbose:
        ok, _ = reisner_cm(C, max_vertices)
        return f"CM: {'yes' if ok else 'no'}\n"
    _check_cap(C, max_vertices)
    ok = True
    lines = ["face\tlink-dim\tbetti"]
    for face, dim, betti in _face_walk(C):
        ok = ok and HomologyProfile(betti).vanishes_below(dim) is None
        cells = ",".join(map(str, betti.values()))
        face_text = "{" + ",".join(label(v) for v in C.vertices_of(face)) + "}"
        lines.append(f"{face_text}\t{dim}\t{cells}")
    lines.append(f"CM: {'yes' if ok else 'no'}")
    return "\n".join(lines) + "\n"


def reisner_cm(
    C: FacetComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
    """Reisner's criterion over the rationals.

    True iff every face's link (the empty face included) has vanishing
    reduced homology strictly below the link's dimension; on failure the
    witness is the first such (face, dimension) in (size, lex) face order.
    The link vectors come from the face walk the ``check -v`` table
    prints: exact rational Betti numbers, taken from F2 where that is
    provably equal.
    """
    _check_cap(C, max_vertices)
    for face, dim, betti in _face_walk(C):
        bad = HomologyProfile(betti).vanishes_below(dim)
        if bad is not None:
            return False, (C.vertices_of(face), bad)
    return True, None
