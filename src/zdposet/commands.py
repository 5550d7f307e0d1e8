"""The subcommands other than ``check``: info, zdg, export, sweep and gen.

``cli`` parses the arguments and imports this module only for these
subcommands, so a ``check`` run never compiles them; each imports the
rest of what it runs itself, so ``sweep`` compiles neither the order
clauses (``lattice``) nor the text writers (``formats``).
"""

from __future__ import annotations

from types import SimpleNamespace

from . import zdg
from .cli import load_poset, read_text, write_output
from .complexes import yes_no
from .errors import ZdPosetError


def cmd_info(args: SimpleNamespace) -> int:
    from .lattice import boolean_failure, is_wssc

    P = load_poset(args.input)
    lines = [f"elements: {len(P)}"]
    if P.bottom is None:
        lines.append("bounded: no (no least element)")
    elif P.top is None:
        lines.append("bounded: no (no greatest element)")
    else:
        lines.append("bounded: yes")
    if P.bottom is not None:
        atom_names = " ".join(P.names(P.atoms()))
        lines.append(f"atoms: {len(P.atoms())} ({atom_names})")
    else:
        lines.append("atoms: n/a (no least element)")
    if P.is_bounded():
        lines.append(f"weight: {P.poset_weight()}")
    else:
        lines.append("weight: n/a (not bounded)")
    w = None if P.is_boolean() else P.distributivity_witness
    if w is None:
        lines.append("distributive: yes")
    else:
        names = ",".join(P.elements[i] for i in w)
        lines.append(f"distributive: no (witness: {names})")
    reason = boolean_failure(P)
    lines.append(
        "boolean: yes" if reason is None else f"boolean: no ({reason})"
    )
    if P.bottom is not None:
        lines.append(f"ssc: {yes_no(P.is_ssc())}")
        lines.append(f"wssc: {yes_no(is_wssc(P))}")
        lines.append(f"zero-divisors: {len(zdg.zero_divisors(P))}")
    else:
        lines.append("ssc: n/a (no least element)")
        lines.append("wssc: n/a (no least element)")
        lines.append("zero-divisors: n/a (no least element)")
    write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_zdg(args: SimpleNamespace) -> int:
    from .formats import to_dot

    P = load_poset(args.input)
    G = zdg.zero_divisor_graph(P)
    write_output(to_dot(G), args.output)
    return 0


def cmd_export(args: SimpleNamespace) -> int:
    from .formats import export_edge_ideal

    P = load_poset(args.input)
    G = zdg.zero_divisor_graph(P)
    if not G.vertices:
        raise ZdPosetError("the zero-divisor graph is empty; nothing to export")
    write_output(export_edge_ideal(G, args.dialect), args.output)
    return 0


def cmd_sweep(args: SimpleNamespace) -> int:
    from . import product  # the other subcommands never load the product layer

    vectors = product.parse_size_vectors(read_text(args.input))
    write_output(product.sweep_report(vectors, args.max_vertices), args.output)
    return 0


def cmd_gen(args: SimpleNamespace) -> int:
    from .poset import generate  # the catalog: no other subcommand loads it

    P = generate(args.catalog, *args.params)
    write_output(P.to_text(), args.output)
    return 0


RUN = {"info": cmd_info, "zdg": cmd_zdg, "export": cmd_export, "sweep": cmd_sweep, "gen": cmd_gen}
