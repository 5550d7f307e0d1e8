"""Cohen-Macaulayness of very well-covered graphs via the five-condition
relabeling certificate, with a constructive path for Boolean posets.

The certificate pairs a minimal vertex cover {x_1..x_h} with a maximal
independent set {y_1..y_h}, matched along edges and ordered so that cross
edges x_i - y_j only run forward (i <= j).  For Boolean posets the pairs
come from the weight-stratified canonical facet and its complement
matching; for other very well-covered graphs a bounded backtracking
search decides existence (``search``); everything else is delegated to
the homology oracle.  ``Analysis`` imports ``search`` and ``homology``
only on the routes that run them.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .complexes import (
    DEFAULT_MAX_HOMOLOGY_VERTICES,
    DEFAULT_MAX_SEARCH_NODES,
    DEFAULT_MAX_VERTICES,
    IndependenceComplex,
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .graphs import Graph, Vertex
from .order import Poset, bits
from .zdg import ZdGraph, require_boolean, zero_divisor_graph

if TYPE_CHECKING:
    from .homology import LinkRow

Pair = tuple[Vertex, Vertex]


class ConditionStatus(NamedTuple):
    ok: bool
    witness: tuple[str, ...] | None = None


class MyCertificate(NamedTuple):
    """An ordered pairing plus the per-condition verification outcome."""

    pairs: tuple[Pair, ...]
    pair_names: tuple[tuple[str, str], ...]
    h: int
    conditions: tuple[tuple[str, ConditionStatus], ...]

    @property
    def ok(self) -> bool:
        return all(status.ok for _, status in self.conditions)

    def to_json(self) -> str:
        import json  # only a failing certificate is rendered

        obj = {
            "h": self.h,
            "pairs": [[x, y] for x, y in self.pair_names],
            "conditions": {
                name: {
                    "ok": status.ok,
                    "witness": list(status.witness) if status.witness else None,
                }
                for name, status in self.conditions
            },
        }
        return json.dumps(obj, indent=2)


class Stratification(NamedTuple):
    """The weight-stratified canonical facet of a Boolean poset's graph.

    ``strata`` maps the level i to the vertices of weight k - i; for even
    k the half-weight representatives live in ``b_hat`` (one per
    complementary pair, the smaller id).  ``facet`` is their union.
    """

    k: int
    strata: tuple[tuple[int, tuple[int, ...]], ...]
    b_hat: tuple[int, ...]
    facet: tuple[int, ...]


class CmVerdict(NamedTuple):
    status: str  # "CM" | "NotCM" | "Inconclusive"
    method: str
    certificate: MyCertificate | None = None
    detail: str = ""


def boolean_facet(P: Poset, G: ZdGraph) -> Stratification:
    """Build the canonical facet of a Boolean poset's graph G by weight strata."""
    require_boolean(P)
    k = P.poset_weight()
    if k < 2:
        raise ZdPosetError(f"poset has {k} atom(s); the zero-divisor graph is empty")
    weight = {v: P.weight(v) for v in G.vertices}

    levels = (k - 1) // 2 if k % 2 else (k - 2) // 2
    strata = []
    members: list[int] = []
    for i in range(1, levels + 1):
        layer = tuple(v for v in G.vertices if weight[v] == k - i)
        strata.append((i, layer))
        members.extend(layer)
    b_hat: tuple[int, ...] = ()
    if k % 2 == 0:
        half = [v for v in G.vertices if weight[v] == k // 2]
        b_hat = tuple(sorted({min(v, min(P.complements_of(v))) for v in half}))
        members.extend(b_hat)

    return Stratification(k, tuple(strata), b_hat, tuple(sorted(members)))


def boolean_labeling(P: Poset, S: Stratification) -> tuple[Pair, ...]:
    """Pair the canonical facet (decreasing weight, then id) with complements.

    Returns the ordered (x_i, y_i) pairs; x_i is the unique complement of
    the facet member y_i.
    """
    ys: list[int] = []
    for _, layer in S.strata:
        ys.extend(sorted(layer))
    ys.extend(S.b_hat)
    out = []
    for y in ys:
        comps = P.complements_of(y)
        if len(comps) != 1:
            raise TheoremContractError("Boolean posets are uniquely complemented")
        out.append((min(comps), y))
    return tuple(out)


def _pair_table(nbr: list[int], ends: Sequence[int]) -> list[int]:
    """Row v: the mask of pair indices j with v adjacent to ``ends[j]``."""
    table = [0] * len(nbr)
    for j, e in enumerate(ends):
        for v in bits(nbr[e]):
            table[v] |= 1 << j
    return table


def verify_my_conditions(G: Graph, pairs: Sequence[Pair]) -> MyCertificate:
    """Check the five certificate conditions, with witnesses.

    The pairs must use each vertex of G exactly once; condition (e) is the
    only one sensitive to their order.  Each condition is a mask test on
    the pair tables ``tox``/``toy``; a witness is the lowest offending
    index, the first one a loop over (i, z, j, k) would meet.
    """
    h = len(pairs)
    flat = [v for pair in pairs for v in pair]
    if len(set(flat)) != 2 * h or set(flat) != set(G.vertices):
        raise ZdPosetError("the pairs do not partition the vertex set of the graph")
    nbr = G.nbr
    xs = [G.index[x] for x, _ in pairs]
    ys = [G.index[y] for _, y in pairs]
    tox, toy = _pair_table(nbr, xs), _pair_table(nbr, ys)
    name = lambda i: G.label(G.vertices[i])

    conditions: list[tuple[str, ConditionStatus]] = []

    # (a) cover side is a minimal vertex cover, independent side a facet;
    # Y = V - X, so Y is independent iff X is a cover, maximal iff X is minimal.
    # The first y with a y-neighbour has only later ones: it starts the
    # first uncovered edge.
    witness_a = None
    ymask = sum(1 << y for y in ys)
    for u in bits(ymask):
        if nbr[u] & ymask:
            witness_a = (name(u), name(next(bits(nbr[u] & ymask))))
            break
    if witness_a is None:
        for x in xs:
            if not nbr[x] & ymask:
                witness_a = (name(x),)
                break
    conditions.append(("a", ConditionStatus(witness_a is None, witness_a)))

    # (b) matched pairs are edges
    witness_b = None
    for i, x in enumerate(xs):
        if not toy[x] >> i & 1:
            witness_b = (name(x), name(ys[i]))
            break
    conditions.append(("b", ConditionStatus(witness_b is None, witness_b)))

    # (c) transitivity through a matched pair, for distinct indices: z ~ x_j
    # and y_j ~ x_k force z ~ x_k
    witness_c = None
    for i in range(h):
        for z in (xs[i], ys[i]):
            for j in bits(tox[z] & ~(1 << i)):
                bad = tox[ys[j]] & ~tox[z] & ~(1 << i | 1 << j)
                if bad:
                    witness_c = (name(z), name(xs[j]), name(xs[next(bits(bad))]))
                    break
            if witness_c:
                break
        if witness_c:
            break
    conditions.append(("c", ConditionStatus(witness_c is None, witness_c)))

    # (d) a cross edge x_i - y_j forbids the edge x_i - x_j
    witness_d = None
    for x in xs:
        bad = toy[x] & tox[x]
        if bad:
            j = next(bits(bad))
            witness_d = (name(x), name(ys[j]), name(xs[j]))
            break
    conditions.append(("d", ConditionStatus(witness_d is None, witness_d)))

    # (e) cross edges only run forward
    witness_e = None
    for i, x in enumerate(xs):
        bad = toy[x] & ((1 << i) - 1)
        if bad:
            witness_e = (name(x), name(ys[next(bits(bad))]))
            break
    conditions.append(("e", ConditionStatus(witness_e is None, witness_e)))

    pair_names = tuple((name(x), name(y)) for x, y in zip(xs, ys))
    return MyCertificate(tuple(pairs), pair_names, h, tuple(conditions))


class Analysis:
    """A zero-divisor graph with its facet complex, Reisner result and verdict.

    Each is computed at most once, under the caps given here.
    """

    def __init__(
        self,
        graph: ZdGraph,
        max_vertices: int = DEFAULT_MAX_VERTICES,
        max_homology_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
        max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES,
    ):
        self.graph = graph
        self.max_vertices = max_vertices
        self.max_homology_vertices = max_homology_vertices
        self.max_search_nodes = max_search_nodes

    @cached_property
    def complex(self) -> IndependenceComplex:
        """The independence complex; raises SizeLimitExceededError above the cap."""
        return independence_complex(self.graph, self.max_vertices)

    @cached_property
    def link_rows(self) -> list[LinkRow]:
        """``homology.link_rows`` of the complex, the ``check -v`` table;
        raises SizeLimitExceededError at a cap."""
        from . import homology  # the oracle loads only when a run asks for it

        return homology.link_rows(self.complex, self.max_homology_vertices)

    @cached_property
    def reisner(self) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
        """``reisner_cm`` on the complex; raises SizeLimitExceededError at a cap.

        When ``link_rows`` were built first, the verdict is read off them,
        so ``check -v`` walks the complex once.
        """
        from . import homology

        if "link_rows" in self.__dict__:
            return homology.reisner_verdict(self.complex, self.link_rows)
        return homology.reisner_cm(self.complex, self.max_homology_vertices)

    @cached_property
    def verdict(self) -> CmVerdict:
        """Decide Cohen-Macaulayness of the graph.

        Boolean posets go through the constructive certificate, other very
        well-covered graphs through the exhaustive (budgeted) labeling
        search, non-well-covered graphs are rejected outright, and whatever
        remains is settled by the homology oracle.
        """
        G, P = self.graph, self.graph.owner
        if not G.vertices:
            raise ZdPosetError("the zero-divisor graph has no vertices")

        if P.is_boolean():
            # equal-weight strata admit no cross edges, so the stratum
            # order already runs every cross edge forward
            cert = verify_my_conditions(G, boolean_labeling(P, boolean_facet(P, G)))
            if not cert.ok:
                raise TheoremContractError(
                    "the Boolean certificate fails on a Boolean poset: "
                    + cert.to_json()
                )
            return CmVerdict("CM", "boolean-certificate", cert)

        try:
            C = self.complex
        except SizeLimitExceededError as exc:
            return CmVerdict("Inconclusive", "facet-cap", None, str(exc))
        if not is_well_covered(C):
            sizes = sorted({m.bit_count() for m in C.masks})
            return CmVerdict(
                "NotCM",
                "not-well-covered",
                None,
                f"facet sizes {sizes} differ; Cohen-Macaulay graphs are well-covered",
            )
        if is_very_well_covered(C):
            from .search import _search_certificate  # this route alone loads it

            return _search_certificate(G, C.masks, self.max_search_nodes)
        try:
            ok, witness = self.reisner
        except SizeLimitExceededError as exc:
            return CmVerdict("Inconclusive", "homology-cap", None, str(exc))
        if ok:
            return CmVerdict(
                "CM", "reisner-oracle", None, "all links have vanishing low homology"
            )
        face, dim = witness
        face_names = ",".join(map(G.label, face)) or "empty face"
        return CmVerdict(
            "NotCM",
            "reisner-oracle",
            None,
            f"link of ({face_names}) has homology in dimension {dim}",
        )


def is_cohen_macaulay(
    P: Poset,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_homology_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
    max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES,
) -> CmVerdict:
    """Decide Cohen-Macaulayness of the poset's zero-divisor graph.

    See ``Analysis.verdict`` for the routes.
    """
    return Analysis(
        zero_divisor_graph(P), max_vertices, max_homology_vertices, max_search_nodes
    ).verdict
