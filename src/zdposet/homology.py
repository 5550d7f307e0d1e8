"""Reisner's link criterion over the rationals, on independence complexes.

The criterion is read off the graph of an ``IndependenceComplex``, the
flag complex the paper's CM claim is about.  One face walk yields each
link's rational Betti vector, for both the verdict (``reisner_cm``) and
the ``check -v`` table (``link_rows``).  Faces are built one size at a
time, each with R = V - N[F], whose induced graph has the link as its
independence complex; ``faces_by_dimension`` reads the same generator.  Each distinct R is
shrunk once by cone and fold moves (Engström's fold lemma: if
N(u) ⊆ N(v) for u != v, then Ind(G) ≃ Ind(G - v)); both keep the
homotopy type, so what is left is ranked exactly and padded with zeros
up to the link's dimension.  Ranks come from integer fraction-free
elimination on the boundary matrices of the reduced chain complex (the
empty face is a genuine generator in degree -1).  No floating point is
involved anywhere: Betti numbers are integers and tolerances would be
meaningless.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .complexes import DEFAULT_MAX_HOMOLOGY_VERTICES, IndependenceComplex
from .graphs import Vertex
from .order import bits

# (face mask, link dimension, the link's reduced Betti numbers by dimension)
LinkRow = tuple[int, int, dict[int, int]]


def _check_cap(C: IndependenceComplex, max_vertices: int) -> None:
    if not C.masks:
        raise ZdPosetError("complex has no facets")
    n = len(C.vertices)
    if n > max_vertices:
        raise SizeLimitExceededError(
            f"{n} vertices exceed the homology cap {max_vertices}"
        )


class _IntRowBasis:
    """Incremental exact integer elimination; rank = number of pivot rows.

    Stored rows are gcd-reduced and kept in echelon form: each is stored
    under its lowest column, which no other stored row leads with.
    """

    def __init__(self):
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
            col = min(r)
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


def _boundary_rank(sources: Sequence[int], target_index: Mapping[int, int]) -> int:
    """Rank of the boundary map from the ``sources`` faces to the targets."""
    basis = _IntRowBasis()
    for face in sources:
        cols = []
        rest = face
        while rest:
            low = rest & -rest
            cols.append(target_index[face ^ low])
            rest ^= low
        basis.add(basis.boundary_row(cols))
    return basis.rank


def _betti(by_size: list[list[int]]) -> dict[int, int]:
    """Reduced rational Betti numbers, dimensions -1..top.

    ``by_size[s]`` lists the faces with s vertices as bitmasks.
    The nonnegativity check guards the rank computation; it raises even
    when asserts are stripped.
    """
    top = len(by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_size[s - 1])}
        ranks[s] = _boundary_rank(by_size[s], index)
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


def _fold(nbr: Sequence[int], rest: int) -> int | None:
    """Shrink ``rest`` by fold moves until none applies; None for a cone.

    A vertex of G[rest] with no neighbour in it lies in every facet of
    Ind(G[rest]), a cone.  If N(u) ⊆ N(v) in G[rest] for u != v, then
    Ind(G[rest]) ≃ Ind(G[rest - v]) (Engström's fold lemma); such a
    containment survives the removal of other vertices, so one pass may
    drop several.  Within a pass over the start mask S, the vertices u
    dominates are the common neighbours of N(u) ∩ S, found as one mask.
    """
    while True:
        start = rest
        for u in bits(start):
            if not nbr[u] & start:
                return None
        for u in bits(start):
            if rest >> u & 1:
                dom = start
                for x in bits(nbr[u] & start):
                    dom &= nbr[x]
                rest &= ~dom | 1 << u
        if rest == start:
            return rest


def _levels(nbr: Sequence[int], rest: int) -> Iterator[list[tuple[int, int]]]:
    """The faces of Ind(G[rest]) as (face, R) pairs, R = rest - N[face],
    one list per size, each in lex order.

    A face's children are face + v for v in R above its top vertex, with
    R shrunk by N[v]; taken parent by parent, they come out in lex
    order.  Each size is built only when the one before it is used up.
    """
    closed = [row | 1 << v for v, row in enumerate(nbr)]
    level = [(0, rest)]
    while level:
        yield level
        level = [
            (face | 1 << v, r & ~closed[v])
            for face, r in level
            for v in bits(r >> face.bit_length() << face.bit_length())
        ]


def faces_by_dimension(
    C: IndependenceComplex, max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES
) -> list[list[tuple[Vertex, ...]]]:
    """The faces (independent sets), grouped by size.

    Entry s holds the faces with s vertices (dimension s-1), sorted
    lexicographically; entry 0 is the empty face.
    """
    _check_cap(C, max_vertices)
    levels = _levels(C.graph.nbr, (1 << len(C.vertices)) - 1)
    return [[C.vertices_of(f) for f, _ in level] for level in levels]


def _face_walk(C: IndependenceComplex) -> Iterator[LinkRow]:
    """(face mask, link dimension, the link's reduced rational Betti
    numbers over dimensions -1..dim) in (size, lex) face order.

    The link of F is Ind(G[R]), R = V - N[F].  ``_levels`` yields the
    faces one size at a time with R carried down, so a failing complex
    stops at its witness's size.  Each distinct R is settled once per
    walk: the dimension from the largest facet through F, then the cone
    and fold moves of ``_fold``, which keep the homotopy type, before
    any face of the link is built.  What is left is ranked exactly, and
    zero padding up to dim, which it never exceeds, completes the
    vector.  Faces with one R, and cone links of one dimension, share
    one Betti dict: treat rows as read-only.
    """
    nbr = C.graph.nbr
    facets = sorted(C.masks, key=int.bit_count, reverse=True)
    links: dict[int, tuple[int, dict[int, int]]] = {}
    cones: dict[int, tuple[int, dict[int, int]]] = {}
    for level in _levels(nbr, (1 << len(nbr)) - 1):
        for face, rest in level:
            link = links.get(rest)
            if link is None:
                top = next(m for m in facets if m & face == face)
                dim = top.bit_count() - face.bit_count() - 1
                folded = _fold(nbr, rest)
                if folded is None:
                    link = cones.get(dim)
                    if link is None:
                        zeros = dict.fromkeys(range(-1, dim + 1), 0)
                        link = cones[dim] = dim, zeros
                else:
                    betti = dict.fromkeys(range(-1, dim + 1), 0)
                    if rest == 0:  # a facet: the link is {∅}
                        betti[-1] = 1
                    else:
                        faces = [[f for f, _ in lv] for lv in _levels(nbr, folded)]
                        betti.update(_betti(faces))
                    link = dim, betti
                links[rest] = link
            yield face, *link


def link_rows(
    C: IndependenceComplex, max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES
) -> list[LinkRow]:
    """Every face's (face mask, link dimension, reduced rational Betti
    vector over -1..dim) in (size, lex) order: one whole face walk.
    Rows may share one Betti dict; they are read-only."""
    _check_cap(C, max_vertices)
    return list(_face_walk(C))


def reisner_verdict(
    C: IndependenceComplex, rows: Iterable[LinkRow]
) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
    """``reisner_cm``'s answer from face-walk rows, read up to the first
    face whose link has homology below its dimension."""
    for face, dim, betti in rows:
        # Betti numbers are nonnegative: the sum exceeds the top one
        # exactly when some lower one is nonzero
        if sum(betti.values()) > betti[dim]:
            bad = next(d for d in range(-1, dim) if betti[d])
            return False, (C.vertices_of(face), bad)
    return True, None


def reisner_cm(
    C: IndependenceComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
    """Reisner's criterion over the rationals, on an independence complex.

    True iff every face's link (the empty face included) has vanishing
    reduced homology strictly below the link's dimension; on failure the
    witness is the first such (face, dimension) in (size, lex) face order.
    The link vectors come from the face walk the ``check -v`` table
    prints: exact rational Betti numbers of each fold-reduced link graph.
    """
    _check_cap(C, max_vertices)
    return reisner_verdict(C, _face_walk(C))
