"""The per-face link walk: every face's link dimension and reduced
rational Betti vector, in (size, lex) face order.

Only what prints a face loads this module: the ``check -v`` table
(``link_rows``) and the witness of a Reisner failure, the first failing
face (``reisner_verdict``).  The yes/no itself comes from
``homology.cm_by_links``, and ``checked_verdict`` holds the walk to it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .complexes import DEFAULT_MAX_HOMOLOGY_VERTICES, IndependenceComplex
from .errors import TheoremContractError
from .graphs import Vertex
from .homology import _betti, _check_cap, _fold, _levels

# (face mask, link dimension, the link's reduced Betti numbers by dimension)
LinkRow = tuple[int, int, dict[int, int]]


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


def checked_verdict(
    C: IndependenceComplex, rows: Iterable[LinkRow], cm: bool
) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
    """``reisner_verdict`` of ``rows``, which must agree with ``cm``, the
    link recursion's answer; two routes to one theorem, so a
    disagreement raises ``TheoremContractError``, also under ``python -O``."""
    ok, witness = reisner_verdict(C, rows)
    if ok != cm:
        raise TheoremContractError(
            "the face walk finds "
            + ("no failing face" if ok else f"a failing face {witness}")
            + ", but the link recursion says "
            + ("CM" if cm else "NotCM")
        )
    return ok, witness
