"""The text that a plain ``check`` never prints: the poset file
(``Poset.to_text``), DOT (``zdg``), edge-ideal scripts (``export``), the
per-face homology table (``check -v``) and a failing certificate as
JSON.  All of it is deterministic for a fixed input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import ZdPosetError
from .graphs import Graph
from .order import Poset, bits

if TYPE_CHECKING:  # writing a poset file loads none of these
    from .cmcert import MyCertificate
    from .complexes import IndependenceComplex
    from .homology import LinkRow


def cover_pairs(P: Poset) -> list[tuple[int, int]]:
    """All (i, j) with j covering i, sorted by (i, j)."""
    out = []
    for i, row in enumerate(P.up):
        for j in bits(row & ~(1 << i)):
            if (P.down[j] & row) == (1 << i) | (1 << j):
                out.append((i, j))
    return out


def poset_text(P: Poset) -> str:
    """The poset file of P: its elements, then its cover pairs."""
    lines = ["poset v1"]
    for name in P.elements:
        if not name or any(ch.isspace() for ch in name) or "#" in name:
            raise ValueError(f"element name {name!r} is not file-safe")
        lines.append(f"elem {name}")
    for i, j in cover_pairs(P):
        lines.append(f"le {P.elements[i]} {P.elements[j]}")
    return "\n".join(lines) + "\n"


def to_dot(G: Graph) -> str:
    """Deterministic DOT text: edges sorted by (min id, max id), one per
    line, each name a quoted ID with its backslashes and quotes escaped."""
    quote = lambda v: '"' + G.label(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = ["graph zdg {"]
    for a, b in G.edges():
        lines.append(f"  {quote(a)} -- {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_edge_ideal(G: Graph, dialect: str) -> str:
    """Emit the squarefree quadratic generators of the edge ideal.

    One variable per vertex in ascending id order; generators sorted by
    (min index, max index); a name map rides along as comments.
    """
    if dialect not in ("m2", "singular"):
        raise ValueError(f"unknown dialect {dialect!r} (use 'm2' or 'singular')")
    verts = G.vertices
    m = len(verts)
    if m == 0:
        raise ZdPosetError("graph has no vertices: nothing to export")
    gens = [f"v{G.index[a]}*v{G.index[b]}" for a, b in G.edges()]
    comment = "--" if dialect == "m2" else "//"
    lines = [f"{comment} v{i} = {G.label(v)}" for i, v in enumerate(verts)]
    if dialect == "m2":
        lines.append(f"R = QQ[v0..v{m - 1}];")
        body = ", ".join(gens) if gens else "0_R"
        lines.append(f"I = monomialIdeal({body});")
    else:
        lines.append(f"ring R = 0, (v0..v{m - 1}), dp;")
        body = ", ".join(gens) if gens else "0"
        lines.append(f"ideal I = {body};")
    return "\n".join(lines) + "\n"


def link_table(C: IndependenceComplex, rows: Sequence[LinkRow]) -> str:
    """The per-face table of ``homology.link_rows``: a header, one (face,
    link dimension, betti vector) line per face, then the verdict.  Faces
    are named through ``C.graph.label``."""
    from .complexes import yes_no
    from .homology import reisner_verdict  # loaded already: it built the rows

    lines = ["face\tlink-dim\tbetti"]
    for face, dim, betti in rows:
        cells = ",".join(map(str, betti.values()))
        names = ",".join(map(C.graph.label, C.vertices_of(face)))
        lines.append(f"{{{names}}}\t{dim}\t{cells}")
    ok, _ = reisner_verdict(C, rows)
    lines.append(f"CM: {yes_no(ok)}")
    return "\n".join(lines) + "\n"


def certificate_json(cert: MyCertificate) -> str:
    """The pairs and each condition's outcome, for a contract violation."""
    import json

    obj = {
        "h": cert.h,
        "pairs": [[x, y] for x, y in cert.pair_names],
        "conditions": {
            name: {
                "ok": status.ok,
                "witness": list(status.witness) if status.witness else None,
            }
            for name, status in cert.conditions
        },
    }
    return json.dumps(obj, indent=2)
