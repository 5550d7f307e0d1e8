"""A small immutable undirected-graph value type.

Vertex ids only need to be hashable and mutually comparable (ints for
zero-divisor graphs, anything sortable for ad-hoc test graphs).  The
adjacency is one bitmask row per vertex position: bit j of ``nbr[i]``
is set when ``vertices[i]`` and ``vertices[j]`` are adjacent, and
``index`` maps a vertex to its position.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .errors import ZdPosetError
from .order import bits

Vertex = Hashable


class Graph:
    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(vertices)))
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        self.nbr: list[int] = [0] * len(self.vertices)
        for a, b in edges:
            if a not in self.index or b not in self.index:
                raise ZdPosetError(f"edge ({a!r}, {b!r}) uses an unknown vertex")
            if a == b:
                raise ValueError(f"loop at {a!r}: graphs here are simple")
            i, j = self.index[a], self.index[b]
            self.nbr[i] |= 1 << j
            self.nbr[j] |= 1 << i

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges())} edges)"

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        try:
            row = self.nbr[self.index[v]]
        except KeyError:
            raise ZdPosetError(f"unknown vertex {v!r}") from None
        return frozenset(self.vertices[j] for j in bits(row))

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
