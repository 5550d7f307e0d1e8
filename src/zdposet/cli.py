"""Command-line front end.

Subcommands: info, zdg, check, export, sweep, gen.  All output is
byte-deterministic for fixed inputs and flags.  Exit codes: 0 on
success, 1 when two internally-equivalent verdicts disagree (a bug
trap), 2 on input or usage errors.
Each subcommand imports only the layers it runs.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from typing import Sequence

from . import complexes, zdg
from .complexes import STATUS_TEXT, yes_no
from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .order import Poset, parse_poset


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ZdPosetError(
            f"{path} is not UTF-8 text: {exc.reason} "
            f"(byte {exc.object[exc.start]:#04x})"
        ) from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_poset(path: str) -> Poset:
    return parse_poset(_read(path))


def cmd_info(args: argparse.Namespace) -> int:
    P = _load_poset(args.input)
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
    reason = P.boolean_failure
    lines.append(
        "boolean: yes" if reason is None else f"boolean: no ({reason})"
    )
    if P.bottom is not None:
        lines.append(f"ssc: {yes_no(P.is_ssc())}")
        lines.append(f"wssc: {yes_no(P.is_wssc())}")
        lines.append(f"zero-divisors: {len(zdg.zero_divisors(P))}")
    else:
        lines.append("ssc: n/a (no least element)")
        lines.append("wssc: n/a (no least element)")
        lines.append("zero-divisors: n/a (no least element)")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_zdg(args: argparse.Namespace) -> int:
    P = _load_poset(args.input)
    G = zdg.zero_divisor_graph(P)
    _write_output(zdg.to_dot(G), args.output)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .cmcert import Analysis  # the certificate layer: only check runs it

    P = _load_poset(args.input)
    G = zdg.zero_divisor_graph(P)
    A = Analysis(
        G, args.max_vertices, args.max_homology_vertices, args.max_search_nodes
    )
    lines = [
        f"poset: {len(P)} elements, boolean: {yes_no(P.is_boolean())}",
        f"graph: {len(G.vertices)} vertices, {len(G.edges())} edges",
    ]
    if not G.vertices:
        lines.append("zero-divisor graph is empty; nothing to check")
        _write_output("\n".join(lines) + "\n", args.output)
        return 0

    problems: list[str] = []
    wc = vwc = None
    try:
        C = A.complex
        wc = complexes.is_well_covered(C)
        vwc = complexes.is_very_well_covered(C)
        lines.append(f"well-covered: {yes_no(wc)}")
        lines.append(f"very-well-covered: {yes_no(vwc)}")
    except SizeLimitExceededError as exc:
        C = None
        lines.append(f"well-covered: skipped ({exc})")
        lines.append(f"very-well-covered: skipped ({exc})")

    table = ""
    if args.verbose and C is not None:
        from .homology import link_table

        # built before the verdict, which then reads the Reisner answer
        # off the same rows: one face walk for both; above the homology
        # cap the CM(Reisner) line below reports the skip
        with suppress(SizeLimitExceededError):
            table = link_table(C, A.link_rows)

    verdict = A.verdict
    lines.append(f"CM(MY): {STATUS_TEXT[verdict.status]} [{verdict.method}]")

    reisner_status: bool | None = None
    if C is None:
        lines.append("CM(Reisner): skipped (facet enumeration was capped)")
    else:
        try:
            reisner_status, _ = A.reisner
            lines.append(f"CM(Reisner): {yes_no(reisner_status)}")
            lines.extend("  " + row for row in table.splitlines())
        except SizeLimitExceededError as exc:
            lines.append(f"CM(Reisner): skipped ({exc})")

    if P.is_boolean():
        if wc is False or vwc is False:
            problems.append("Boolean poset with a non-well-covered graph")
        if verdict.status != "CM":
            problems.append("Boolean poset judged not Cohen-Macaulay")
    if verdict.status == "CM" and wc is False:
        problems.append("Cohen-Macaulay verdict on a non-well-covered graph")
    if reisner_status is not None and verdict.status in ("CM", "NotCM"):
        if (verdict.status == "CM") != reisner_status:
            problems.append(
                f"certificate verdict {verdict.status} disagrees with the "
                f"homology oracle"
            )
    lines.append(f"consistent: {yes_no(not problems)}")
    for p in problems:
        lines.append(f"  !! {p}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 1 if problems else 0


def cmd_export(args: argparse.Namespace) -> int:
    P = _load_poset(args.input)
    G = zdg.zero_divisor_graph(P)
    if not G.vertices:
        raise ZdPosetError("the zero-divisor graph is empty; nothing to export")
    _write_output(complexes.export_edge_ideal(G, args.dialect), args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import product  # the other subcommands never load the product layer

    vectors = product.parse_size_vectors(_read(args.input))
    _write_output(product.sweep_report(vectors, args.max_vertices), args.output)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .poset import generate  # the catalog: no other subcommand loads it

    P = generate(args.catalog, *args.params)
    _write_output(P.to_text(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdposet",
        description="Zero-divisor graphs of finite bounded posets: "
        "well-coveredness and Cohen-Macaulayness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    def add_facet_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-vertices",
            type=int,
            default=complexes.DEFAULT_MAX_VERTICES,
            help="facet enumeration cap (default %(default)s)",
        )

    p = sub.add_parser("info", help="order-theoretic profile of a poset file")
    p.add_argument("input")
    add_output(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("zdg", help="zero-divisor graph as DOT")
    p.add_argument("input")
    add_output(p)
    p.set_defaults(func=cmd_zdg)

    p = sub.add_parser("check", help="consolidated coveredness / CM verdict")
    p.add_argument("input")
    add_output(p)
    add_facet_cap(p)
    p.add_argument(
        "--max-homology-vertices",
        type=int,
        default=complexes.DEFAULT_MAX_HOMOLOGY_VERTICES,
        help="homology oracle cap (default %(default)s)",
    )
    p.add_argument(
        "--max-search-nodes",
        type=int,
        default=complexes.DEFAULT_MAX_SEARCH_NODES,
        help="matching-search budget (default %(default)s)",
    )
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include the per-face homology table",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="edge ideal script for a CAS")
    p.add_argument("input")
    p.add_argument(
        "-d", "--dialect", choices=("m2", "singular"), required=True
    )
    add_output(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("sweep", help="TSV verdicts over factor-size vectors")
    p.add_argument("input")
    add_output(p)
    add_facet_cap(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="emit a catalog poset file")
    p.add_argument("catalog")
    p.add_argument("params", nargs="+", type=int)
    add_output(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for cap in ("max_vertices", "max_homology_vertices", "max_search_nodes"):
        if getattr(args, cap, 1) < 1:
            parser.error(f"--{cap.replace('_', '-')} must be positive")
    try:
        return args.func(args)
    except TheoremContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except ZdPosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
