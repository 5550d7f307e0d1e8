"""Traced in-process replay of the calls one ``zdposet`` invocation makes.

The replay calls the public functions of ``poset``, ``zdg``,
``complexes``, ``cmcert``, ``homology`` and ``product`` in the order
``cli.cmd_check`` and ``product.sweep_row`` call them, and records one
span around each call.  Spans live in the benchmark, not in the program.
Counters are taken at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from zdposet.cmcert import DEFAULT_MAX_SEARCH_NODES, is_cohen_macaulay
from zdposet.complexes import (
    DEFAULT_MAX_VERTICES,
    independence_complex,
    is_very_well_covered,
    is_well_covered,
)
from zdposet.errors import SizeLimitExceededError, TheoremContractError
from zdposet.homology import (
    DEFAULT_MAX_HOMOLOGY_VERTICES,
    faces_by_dimension,
    reisner_cm,
)
from zdposet.poset import generate, parse_poset
from zdposet.product import (
    is_boolean_lattice,
    j_single,
    j_triple,
    parse_size_vectors,
    validate_factors,
    well_covered_verdict,
)
from zdposet.zdg import zero_divisor_graph

ROUTES = (
    "boolean-certificate",
    "matching-search",
    "not-well-covered",
    "reisner-oracle",
    "facet-cap",
    "homology-cap",
)


class Tracer:
    """Spans and counters of one replay; spans are off when ``enabled`` is false.

    A span is ``[item, id, parent id, name, start ns, end ns]``; the spans
    of one item share its name.  Counters are kept either way.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.item = ""
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [
            self.item,
            len(self.spans),
            self._open[-1] if self._open else None,
            name,
            time.perf_counter_ns(),
            0,
        ]
        self.spans.append(record)
        self._open.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def verdict(self, verdict) -> None:
        self.count(f"cmcert.route.{verdict.method}")
        self.count("cmcert.verdicts")
        if verdict.status == "Inconclusive":
            self.count("cmcert.inconclusive")


_STATUS = {"CM": "yes", "NotCM": "no", "Inconclusive": "inconclusive"}


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def replay_check(t: Tracer, text: str) -> list[str]:
    """Replay ``zdposet check`` with default caps.

    Returns the output lines that name the replay's facts, so that the
    caller can match them against the CLI's own output.
    """
    with t.span("poset.parse"):
        P = parse_poset(text)
    t.count("poset.elements", len(P))
    with t.span("zdg.graph"):
        G = zero_divisor_graph(P)
    with t.span("poset.boolean"):
        boolean = P.is_boolean()
    t.count("zdg.vertices", len(G.vertices))
    t.count("zdg.edges", len(G.edges()))
    facts = [
        f"poset: {len(P)} elements, boolean: {_yn(boolean)}",
        f"graph: {len(G.vertices)} vertices, {len(G.edges())} edges",
    ]
    if not G.vertices:
        return facts

    C = None
    with t.span("complexes.facets"):
        try:
            C = independence_complex(G, DEFAULT_MAX_VERTICES)
            wc = is_well_covered(C)
            vwc = is_very_well_covered(C)
        except SizeLimitExceededError:
            pass
    if C is None:
        t.count("complexes.capped")
    else:
        t.count("complexes.facets", len(C.facets))
        facts += [f"well-covered: {_yn(wc)}", f"very-well-covered: {_yn(vwc)}"]

    with t.span("cmcert.verdict"):
        verdict = is_cohen_macaulay(
            P,
            max_vertices=DEFAULT_MAX_VERTICES,
            max_homology_vertices=DEFAULT_MAX_HOMOLOGY_VERTICES,
            max_search_nodes=DEFAULT_MAX_SEARCH_NODES,
        )
    t.verdict(verdict)
    facts.append(f"CM(MY): {_STATUS[verdict.status]} [{verdict.method}]")

    if C is not None:
        t.count("homology.calls")
        try:
            with t.span("homology.reisner"):
                ok, _ = reisner_cm(C, DEFAULT_MAX_HOMOLOGY_VERTICES)
        except SizeLimitExceededError:
            t.count("homology.capped")
        else:
            if not ok:
                t.count("homology.early_exit")
            faces = faces_by_dimension(C, DEFAULT_MAX_HOMOLOGY_VERTICES)
            t.count("homology.faces", sum(len(bucket) for bucket in faces))
            facts.append(f"CM(Reisner): {_yn(ok)}")
    return facts


def replay_row(t: Tracer, sizes) -> str:
    """Replay ``product.sweep_row`` with default caps; return the TSV row."""
    max_vertices = DEFAULT_MAX_VERTICES
    with t.span("product.row"):
        factors = [generate("chain", s) for s in sizes]
        with t.span("product.validate"):
            A = validate_factors(factors)
        t.count("product.rows")
        t.count("product.carrier_elements", len(A.carrier))
        with t.span("zdg.graph"):
            G = A.graph
        t.count("zdg.vertices", len(G.vertices))
        t.count("zdg.edges", len(G.edges()))
        with t.span("product.jsets"):
            j1 = len(j_single(A, 1))
        # the first is_boolean() on the carrier; is_boolean_lattice reuses it
        with t.span("poset.boolean"):
            A.carrier.is_boolean()
        lattice_cell = _yn(is_boolean_lattice(A.carrier))
        sizes_cell = ",".join(str(s) for s in sizes)
        flag = " [unverified-by-enumeration]"

        if A.n == 2:
            # the calls product.bipartite_case makes, whose report carries
            # only the status of the verdict, not its route
            with t.span("complexes.facets"):
                C = independence_complex(G)
                wc = is_well_covered(C)
            t.count("complexes.facets", len(C.facets))
            with t.span("cmcert.verdict"):
                verdict = is_cohen_macaulay(A.carrier)
            t.verdict(verdict)
            cells = [sizes_cell, str(len(A.dense)), str(j1), "-", _yn(wc),
                     _STATUS[verdict.status], lattice_cell]
            return "\t".join(cells)

        with t.span("product.jsets"):
            jt = len(j_triple(A, 1, 2, 3))
            wc_formula, _ = well_covered_verdict(A)
        if len(G.vertices) <= max_vertices:
            with t.span("complexes.facets"):
                C = independence_complex(G, max_vertices)
                wc = is_well_covered(C)
            t.count("complexes.facets", len(C.facets))
            if wc != wc_formula:
                raise TheoremContractError(
                    f"formula verdict {wc_formula} disagrees with enumeration "
                    f"{wc} for sizes {tuple(sizes)}"
                )
            with t.span("cmcert.verdict"):
                verdict = is_cohen_macaulay(
                    A.carrier,
                    max_vertices=max_vertices,
                    max_homology_vertices=DEFAULT_MAX_HOMOLOGY_VERTICES,
                )
            t.verdict(verdict)
            wc_cell, cm_cell = _yn(wc), _STATUS[verdict.status]
        else:
            t.count("complexes.capped")
            wc_cell = _yn(wc_formula) + flag
            if wc_formula:
                with t.span("cmcert.verdict"):
                    verdict = is_cohen_macaulay(A.carrier, max_vertices=max_vertices)
                t.verdict(verdict)
                cm_cell = _STATUS[verdict.status]
            else:
                cm_cell = "no" + flag
        cells = [sizes_cell, str(len(A.dense)), str(j1), str(jt), wc_cell,
                 cm_cell, lattice_cell]
        return "\t".join(cells)


def replay_sweep(t: Tracer, text: str) -> list[str]:
    """Replay ``zdposet sweep`` without workers; return the TSV rows."""
    return [replay_row(t, sizes) for sizes in parse_size_vectors(text)]

