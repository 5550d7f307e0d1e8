"""Reisner's link criterion over the rationals, on independence complexes.

The criterion is read off the graph of an ``IndependenceComplex``, the
flag complex the paper's CM claim is about.  The link of a face F is
Ind(G[K]), K = V - N[F], so ``cm_by_links`` decides the yes/no by one
memoised recursion over link graphs G[K], and never builds the
complex's faces: a cone is CM iff its base is, a leaf settles a graph
by the links of its two ends, and any other graph is CM iff its vertex
links are and its homology vanishes below its dimension (README,
"Reisner oracle", proves the three).  That homology is ranked after
fold moves (Engström's fold lemma: if N(u) ⊆ N(v) for u != v, then
Ind(G) ≃ Ind(G - v)), which keep the homotopy type.  Ranks come from
integer fraction-free elimination on the boundary matrices of the
reduced chain complex (the empty face is a genuine generator in degree
-1).  No floating point is involved anywhere: Betti numbers are
integers and tolerances would be meaningless.  Naming the first failing
face, and the ``check -v`` table, take the face walk of ``facewalk``.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Mapping, Sequence

from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .complexes import DEFAULT_MAX_HOMOLOGY_VERTICES, IndependenceComplex
from .graphs import Vertex
from .order import bits


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


def _alpha(facets: Sequence[int], rest: int) -> int:
    """The independence number of G[rest]: every independent set of
    G[rest] lies in a facet of G, so it is the largest facet ∩ rest."""
    return max((m & rest).bit_count() for m in facets)


def _link_cm(
    nbr: Sequence[int], facets: Sequence[int], rest: int, memo: dict[int, bool]
) -> bool:
    """Whether Ind(G[rest]) satisfies Reisner's criterion.  Vertices
    with no neighbour in rest are dropped first (the cone lemma); memo
    maps each rest mask left, once settled, to its answer."""
    for u in bits(rest):
        if not nbr[u] & rest:
            rest ^= 1 << u
    if rest not in memo:
        memo[rest] = _settle(nbr, facets, rest, memo)
    return memo[rest]


def _settle(
    nbr: Sequence[int], facets: Sequence[int], rest: int, memo: dict[int, bool]
) -> bool:
    """``_link_cm`` on a rest mask where every vertex has a neighbour.

    A leaf u, with v its one neighbour, settles it by the leaf lemma:
    the links of u and v are CM, of equal independence number.
    Otherwise every vertex link must be CM, and the homology of
    Ind(G[rest]), ranked after folding, vanish below its dimension.
    """
    for u in bits(rest):
        row = nbr[u] & rest
        if not row & row - 1:  # u is a leaf, and row holds its neighbour v
            v = row.bit_length() - 1
            lu, lv = rest & ~row & ~(1 << u), rest & ~nbr[v] & ~row
            return (
                _alpha(facets, lu) == _alpha(facets, lv)
                and _link_cm(nbr, facets, lu, memo)
                and _link_cm(nbr, facets, lv, memo)
            )
    for w in bits(rest):
        if not _link_cm(nbr, facets, rest & ~nbr[w] & ~(1 << w), memo):
            return False
    folded = _fold(nbr, rest)
    if folded is None:  # folding left a cone
        return True
    betti = _betti([[f for f, _ in level] for level in _levels(nbr, folded)])
    return not any(betti.get(d) for d in range(-1, _alpha(facets, rest) - 1))


def cm_by_links(
    C: IndependenceComplex, max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES
) -> bool:
    """Reisner's criterion over the rationals, as a yes/no: ``reisner_cm``
    without the witness, by the link recursion of ``_link_cm``."""
    _check_cap(C, max_vertices)
    return _link_cm(C.graph.nbr, C.masks, (1 << len(C.vertices)) - 1, {0: True})


def reisner_cm(
    C: IndependenceComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
    """Reisner's criterion over the rationals, on an independence complex.

    True iff every face's link (the empty face included) has vanishing
    reduced homology strictly below the link's dimension; on failure the
    witness is the first such (face, dimension) in (size, lex) face order.
    ``cm_by_links`` decides; only a failure runs the face walk, which
    names the witness and must agree.
    """
    if cm_by_links(C, max_vertices):
        return True, None
    from .facewalk import _face_walk, checked_verdict

    return checked_verdict(C, _face_walk(C), False)
