"""A small immutable undirected-graph value type.

Vertex ids only need to be hashable and mutually comparable (ints for
zero-divisor graphs, anything sortable for ad-hoc test graphs).  The
adjacency is one bitmask row per vertex position: bit j of ``nbr[i]``
is set when ``vertices[i]`` and ``vertices[j]`` are adjacent, and
``index`` maps a vertex to its position.  A graph is built from those
rows alone; the tests build theirs from edge lists with ``brute.graph``.
"""

from __future__ import annotations

from typing import Hashable

from .order import bits

Vertex = Hashable


class Graph:
    def __init__(self, vertices: tuple[Vertex, ...], nbr: list[int]):
        """``vertices`` sorted; one symmetric, loop-free row per position."""
        self.vertices = vertices
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        self.nbr = nbr

    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """All edges as (smaller, larger) pairs, sorted."""
        return tuple(
            (v, self.vertices[j])
            for i, v in enumerate(self.vertices)
            for j in bits(self.nbr[i] >> (i + 1) << (i + 1))
        )

    def has_isolated_vertex(self) -> bool:
        return not all(self.nbr)

    def label(self, v: Vertex) -> str:
        """The name printed for a vertex."""
        return str(v)
