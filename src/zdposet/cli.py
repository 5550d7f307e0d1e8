"""Command-line front end: the ``zdposet`` command.

All output is byte-deterministic for fixed inputs and flags.  Exit
codes: 0 on success, 1 when two internally-equivalent verdicts disagree
(a bug trap), 2 on input or usage errors.

Without cached bytecode a run compiles every module it loads, so a run
loads only the code it calls: this module holds the argument table, the
reader of plain argument lists, ``check`` and ``main``; ``arguments``
reads every other list, and ``commands`` holds the other subcommands.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from types import SimpleNamespace
from typing import Sequence

from . import complexes, zdg
from .complexes import STATUS_TEXT, yes_no
from .errors import SizeLimitExceededError, TheoremContractError, ZdPosetError
from .order import Poset, parse_poset

# An option is (flags, metavar, type, default, help).  Type None is a flag
# that stores True; str and int take one value, and a tuple takes one of
# its values.  The default REQUIRED makes the option required.  Its value
# goes to the long flag's name: --max-vertices to max_vertices.
REQUIRED = ...  # a singleton: the same under python -m
HELP = (("-h", "--help"), "", None, False, "show this help message and exit")
OUTPUT = (("-o", "--output"), "FILE", str, None, "write here instead of stdout")
FACET_CAP = (("--max-vertices",), "N", int, complexes.DEFAULT_MAX_VERTICES, "facet enumeration cap")
# A positional is (name, metavar, kind): "one" takes one argument and
# "ints" one or more integers.
FILE = (("input", "FILE", "one"),)

# name -> (help, positionals, options), in the order help lists them
COMMANDS = {
    "info": ("order-theoretic profile of a poset file", FILE, (OUTPUT,)),
    "zdg": ("zero-divisor graph as DOT", FILE, (OUTPUT,)),
    "check": ("consolidated coveredness / CM verdict", FILE, (
        OUTPUT,
        FACET_CAP,
        (("--max-homology-vertices",), "N", int, complexes.DEFAULT_MAX_HOMOLOGY_VERTICES,
         "homology oracle cap"),
        (("-v", "--verbose"), "", None, False, "include the per-face homology table"),
    )),
    "export": ("edge ideal script for a CAS", FILE, (
        (("-d", "--dialect"), "{m2,singular}", ("m2", "singular"), REQUIRED, "CAS dialect"),
        OUTPUT,
    )),
    "sweep": ("TSV verdicts over factor-size vectors", FILE, (OUTPUT, FACET_CAP)),
    "gen": ("emit a catalog poset file", (("catalog", "CATALOG", "one"), ("params", "N", "ints")),
            (OUTPUT,)),
}
CAPS = ("max_vertices", "max_homology_vertices")


def dest(flags: tuple[str, ...]) -> str:
    return flags[-1].lstrip("-").replace("-", "_")


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The subcommand and its values; a usage error exits 2, -h exits 0.

    A plain list, the subcommand, its positionals, then each option as
    a flag or as ``-o FILE``, is read here; any other, or one with a bad
    value, by ``arguments.parse_args``.
    """
    argv = list(argv)
    values = _read_plain(argv)
    if values is None:
        from .arguments import parse_args as read_fully

        values = read_fully(argv)
    return SimpleNamespace(**values)


def _read_plain(argv: list[str]) -> dict | None:
    if not argv or argv[0] not in COMMANDS:
        return None
    command, *rest = argv
    _, positionals, options = COMMANDS[command]
    values = {"command": command}
    values.update((dest(o[0]), o[3]) for o in options)
    n = next((i for i, token in enumerate(rest) if token[:1] == "-"), len(rest))
    if n < len(positionals) or n > len(positionals) and positionals[-1][2] != "ints":
        return None
    try:
        for i, (name, _, kind) in enumerate(positionals):
            values[name] = list(map(int, rest[i:n])) if kind == "ints" else rest[i]
        by_flag = {flag: opt for opt in options for flag in opt[0]}
        while n < len(rest):
            flags, _, kind, _, _ = by_flag[rest[n]]
            value = True  # a flag: -v, --verbose
            if kind is not None:
                n += 1
                value = rest[n]
                if value[:1] == "-":
                    return None
                if kind is int:
                    value = int(value)
                elif kind is not str and value not in kind:
                    return None
            values[dest(flags)] = value
            n += 1
    except (KeyError, IndexError, ValueError):
        return None
    if REQUIRED in values.values() or any(values.get(cap, 1) < 1 for cap in CAPS):
        return None
    return values


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ZdPosetError(
            f"{path} is not UTF-8 text: {exc.reason} "
            f"(byte {exc.object[exc.start]:#04x})"
        ) from None


def write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_poset(path: str) -> Poset:
    return parse_poset(read_text(path))


def cmd_check(args: SimpleNamespace) -> int:
    from .cmcert import Analysis  # the certificate layer: only check runs it

    P = load_poset(args.input)
    G = zdg.zero_divisor_graph(P)
    A = Analysis(G, args.max_vertices, args.max_homology_vertices)
    lines = [
        f"poset: {len(P)} elements, boolean: {yes_no(P.is_boolean())}",
        f"graph: {len(G.vertices)} vertices, {len(G.edges())} edges",
    ]
    if not G.vertices:
        lines.append("zero-divisor graph is empty; nothing to check")
        write_output("\n".join(lines) + "\n", args.output)
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
        from .formats import link_table

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
    write_output("\n".join(lines) + "\n", args.output)
    return 1 if problems else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        from .commands import RUN  # the other subcommands

        return RUN[args.command](args)
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
    # under python -m, commands and arguments import this module by name:
    # hand them the running one rather than compiling it a second time
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
