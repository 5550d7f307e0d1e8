"""Exact reduced simplicial homology over the rationals, plus Reisner's
link criterion.

All ranks are computed by integer fraction-free elimination on the
boundary matrices of the reduced chain complex (the empty face is a
genuine generator in degree -1).  No floating point is involved
anywhere: Betti numbers are integers and tolerances would be
meaningless.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import EmptyComplexError, NotAFaceError, SizeLimitExceededError
from .complexes import FacetComplex
from .graphs import Vertex

DEFAULT_MAX_HOMOLOGY_VERTICES = 20


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers over the rationals, keyed by dimension."""

    betti: Mapping[int, int]

    def rank(self, dim: int) -> int:
        return self.betti.get(dim, 0)

    def vanishes_below(self, dim: int) -> int | None:
        """The smallest i < dim with nonzero homology, or None."""
        for i in sorted(self.betti):
            if i < dim and self.betti[i]:
                return i
        return None


def _check_cap(C: FacetComplex, max_vertices: int) -> None:
    n = len(C.vertices)
    if n > max_vertices:
        raise SizeLimitExceededError(
            f"{n} vertices exceed the homology cap {max_vertices}"
        )


def _face_lists(C: FacetComplex) -> list[list[tuple[Vertex, ...]]]:
    faces: set[tuple[Vertex, ...]] = set()
    for f in C.facets:
        for r in range(len(f) + 1):
            faces.update(itertools.combinations(f, r))
    by_size: list[list[tuple[Vertex, ...]]] = [[] for _ in range(C.dimension + 2)]
    for f in faces:
        by_size[len(f)].append(f)
    for bucket in by_size:
        bucket.sort()
    return by_size


def faces_by_dimension(
    C: FacetComplex, max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES
) -> list[list[tuple[Vertex, ...]]]:
    """Downward closure of the facets, grouped by size.

    Entry s holds the faces with s vertices (dimension s-1), sorted
    lexicographically; entry 0 is the empty face.
    """
    if not C.facets:
        raise EmptyComplexError("complex has no facets")
    _check_cap(C, max_vertices)
    return _face_lists(C)


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

    @property
    def rank(self) -> int:
        return len(self.rows)


def _boundary_rank(
    sources: Sequence[tuple[Vertex, ...]],
    target_index: Mapping[tuple[Vertex, ...], int],
    prefer_high: bool,
) -> int:
    basis = _IntRowBasis(prefer_high)
    for face in sources:
        row = {}
        for j in range(len(face)):
            sub = face[:j] + face[j + 1 :]
            row[target_index[sub]] = -1 if j % 2 else 1
        basis.add(row)
    return basis.rank


def reduced_betti(
    C: FacetComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
    elimination_order: str = "forward",
) -> HomologyProfile:
    """Reduced rational Betti numbers of the complex, dimensions -1..dim."""
    if elimination_order not in ("forward", "reverse"):
        raise ValueError(f"unknown elimination order {elimination_order!r}")
    if not C.facets:
        raise EmptyComplexError("complex has no facets")
    _check_cap(C, max_vertices)
    prefer_high = elimination_order == "reverse"
    by_size = _face_lists(C)
    top = len(by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_size[s - 1])}
        ranks[s] = _boundary_rank(by_size[s], index, prefer_high)
    betti: dict[int, int] = {}
    for s in range(top + 1):
        b = len(by_size[s]) - ranks[s] - ranks[s + 1]
        assert b >= 0, "negative Betti number: rank computation is broken"
        betti[s - 1] = b
    euler_faces = sum((-1) ** (s - 1) * len(by_size[s]) for s in range(top + 1))
    euler_betti = sum((-1) ** d * b for d, b in betti.items())
    assert euler_faces == euler_betti, "Euler check failed in homology"
    return HomologyProfile(betti)


def link_of(C: FacetComplex, face: Iterable[Vertex]) -> FacetComplex:
    """The link: faces disjoint from ``face`` whose union with it is a face."""
    fs = set(face)
    if not C.has_face(fs):
        raise NotAFaceError(f"{sorted(fs)} is not a face of the complex")
    stars = [set(m) - fs for m in C.facets if fs <= set(m)]
    return FacetComplex(tuple(sorted(s)) for s in stars)


def reisner_report(
    C: FacetComplex,
    max_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
    verbose: bool = False,
    label=str,
) -> str:
    """Human-readable Reisner verdict.

    Summary line only by default; with ``verbose`` a per-face table of
    (face, link dimension, betti vector) precedes it.
    """
    if not verbose:
        ok, _ = reisner_cm(C, max_vertices)
        return f"CM: {'yes' if ok else 'no'}\n"
    ok = True
    lines = ["face\tlink-dim\tbetti"]
    for bucket in faces_by_dimension(C, max_vertices):
        for face in bucket:
            link = link_of(C, face)
            dim = link.dimension
            profile = reduced_betti(link, max_vertices)
            ok = ok and profile.vanishes_below(dim) is None
            betti = ",".join(
                str(profile.rank(d)) for d in range(-1, max(dim + 1, 0))
            )
            face_text = "{" + ",".join(label(v) for v in face) + "}"
            lines.append(f"{face_text}\t{dim}\t{betti}")
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
    """
    if not C.facets:
        raise EmptyComplexError("complex has no facets")
    _check_cap(C, max_vertices)
    for bucket in _face_lists(C):
        for face in bucket:
            link = link_of(C, face)
            dim = link.dimension
            if dim <= -1:
                continue
            # links that are cones are contractible: nothing can fail there
            common = set(link.facets[0])
            for f in link.facets[1:]:
                common &= set(f)
            if common:
                continue
            profile = reduced_betti(link, max_vertices)
            bad = profile.vanishes_below(dim)
            if bad is not None:
                return False, (face, bad)
    return True, None
