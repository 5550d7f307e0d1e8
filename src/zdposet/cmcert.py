"""The CM verdict on a zero-divisor graph, by route.

Boolean posets get the five-condition relabeling certificate built from
their atom supports, other very well-covered graphs are decided by their
twins and one matching (``search``), graphs that are not well-covered
are rejected outright, and everything else is delegated to the homology
oracle.  ``Analysis`` imports the certificate (``certificate``),
``search``, ``homology`` and the face walk (``facewalk``) only on the
routes that run them.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .complexes import (
    DEFAULT_MAX_HOMOLOGY_VERTICES,
    DEFAULT_MAX_VERTICES,
    IndependenceComplex,
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .graphs import Vertex
from .order import Poset
from .zdg import ZdGraph, zero_divisor_graph

if TYPE_CHECKING:
    from .certificate import MyCertificate
    from .facewalk import LinkRow

# the default of is_cohen_macaulay's ignored search-budget keyword: no
# route has a budget, but bench/tracing.py imports and passes both
DEFAULT_MAX_SEARCH_NODES = 10**6


class CmVerdict(NamedTuple):
    status: str  # "CM" | "NotCM" | "Inconclusive"
    method: str
    certificate: MyCertificate | None = None
    detail: str = ""


class Analysis:
    """A zero-divisor graph with its facet complex, Reisner result and verdict.

    Each is computed at most once, under the caps given here.
    """

    def __init__(
        self,
        graph: ZdGraph,
        max_vertices: int = DEFAULT_MAX_VERTICES,
        max_homology_vertices: int = DEFAULT_MAX_HOMOLOGY_VERTICES,
    ):
        self.graph = graph
        self.max_vertices = max_vertices
        self.max_homology_vertices = max_homology_vertices

    @cached_property
    def complex(self) -> IndependenceComplex:
        """The independence complex; raises SizeLimitExceededError above the cap."""
        return independence_complex(self.graph, self.max_vertices)

    @cached_property
    def links_cm(self) -> bool:
        """``homology.cm_by_links`` on the complex, Reisner's yes/no;
        raises SizeLimitExceededError at a cap."""
        from .homology import cm_by_links

        return cm_by_links(self.complex, self.max_homology_vertices)

    @cached_property
    def link_rows(self) -> list[LinkRow]:
        """``facewalk.link_rows`` of the complex, the ``check -v`` table;
        raises SizeLimitExceededError at a cap."""
        from .facewalk import link_rows

        return link_rows(self.complex, self.max_homology_vertices)

    @cached_property
    def reisner(self) -> tuple[bool, tuple[tuple[Vertex, ...], int] | None]:
        """``reisner_cm`` on the complex: ``links_cm`` with the first
        failing face; raises SizeLimitExceededError at a cap.

        The face walk runs only to name that face, or is read off
        ``link_rows`` when ``check -v`` built them first; either way it
        must agree with ``links_cm``.
        """
        rows = self.__dict__.get("link_rows")
        if rows is None and self.links_cm:
            return True, None
        from .facewalk import _face_walk, checked_verdict

        return checked_verdict(
            self.complex, _face_walk(self.complex) if rows is None else rows, self.links_cm
        )

    @cached_property
    def verdict(self) -> CmVerdict:
        """Decide Cohen-Macaulayness of the graph.

        Boolean posets go through the constructive certificate, other very
        well-covered graphs through their twins and one matching from the
        first facet, non-well-covered graphs are rejected outright, and
        whatever remains is settled by the homology oracle.
        """
        G, P = self.graph, self.graph.owner
        if not G.vertices:
            raise ZdPosetError("the zero-divisor graph has no vertices")

        if P.is_boolean():
            # equal-weight strata admit no cross edges, so the stratum
            # order already runs every cross edge forward
            from .certificate import boolean_labeling, verify_my_conditions

            cert = verify_my_conditions(G, boolean_labeling(P, G))
            if not cert.ok:
                from .formats import certificate_json  # only a failing one is rendered

                raise TheoremContractError(
                    "the Boolean certificate fails on a Boolean poset: "
                    + certificate_json(cert)
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
            from .search import matching_certificate  # this route alone loads it

            return matching_certificate(G, C.masks[0])
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
    max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES,  # ignored, see DEFAULT_MAX_SEARCH_NODES
) -> CmVerdict:
    """Decide Cohen-Macaulayness of the poset's zero-divisor graph.

    See ``Analysis.verdict`` for the routes.
    """
    return Analysis(zero_divisor_graph(P), max_vertices, max_homology_vertices).verdict
