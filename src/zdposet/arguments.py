"""Every ``zdposet`` argument list that ``cli`` does not read itself,
read the way argparse reads it, and the help and usage texts.

``cli`` reads the plain shape: the subcommand, its positionals, then
each option as a flag, or a flag and its value as two arguments
(``-o FILE``).  Everything else comes here: options before positionals,
``--flag=value``, ``-oFILE`` and ``-vo FILE``, ``--``, values that start
with ``-`` (negative numbers among them), ``-h`` and every usage error.
The reading follows argparse's for the shapes of the table in ``cli``:
options and positionals interleave, a value is converted where it is
read, and ``-h`` prints the help where it stands.  Unlike argparse it
takes no unique prefix of a long flag (``--max-v`` for
``--max-vertices``), and it keeps an explicit value ``--``
(``--output=--``), which argparse replaced by an empty list.
"""

from __future__ import annotations

import sys

from .cli import CAPS, COMMANDS, HELP, REQUIRED, dest

# the top level's one positional: the subcommand and everything after it
TOP = (("command", "{" + ",".join(COMMANDS) + "}", "rest"),)

DESCRIPTION = (
    "Zero-divisor graphs of finite bounded posets: well-coveredness and\n"
    "Cohen-Macaulayness."
)


def usage(prog: str, spec: tuple) -> str:
    """The usage line of the (help, positionals, options) ``spec``."""
    _, positionals, options = spec
    parts = []
    for flags, metavar, kind, default, _ in (HELP, *options):
        text = flags[0] if kind is None else f"{flags[0]} {metavar}"
        parts.append(text if default is REQUIRED else f"[{text}]")
    for _, metavar, kind in positionals:
        more = {"one": "", "ints": f" [{metavar} ...]", "rest": " ..."}[kind]
        parts.append(metavar + more)
    return f"usage: {prog} {' '.join(parts)}\n"


def _columns(title: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return f"\n{title}:\n" + "".join(f"  {left:<{width}}{right}\n" for left, right in rows)


def help_text(prog: str, spec: tuple) -> str:
    """``-h``: the usage line, what the command does, and its flags; at
    the top level, the subcommands."""
    description, _, options = spec
    text = usage(prog, spec) + "\n" + (description or DESCRIPTION) + "\n"
    if not description:
        text += _columns("commands", [(name, c[0]) for name, c in COMMANDS.items()])
    rows = []
    for flags, metavar, kind, default, help in (HELP, *options):
        left = ", ".join(flags) + ("" if kind is None else f" {metavar}")
        if default is REQUIRED:
            help += " (required)"
        elif kind is int:
            help += f" (default {default})"
        rows.append((left, help))
    text += _columns("options", rows)
    if not description:
        text += f"\nRun '{prog} COMMAND -h' for the flags of a command.\n"
    return text


def fail(prog: str, spec: tuple, message: str) -> None:
    """A usage error: the usage line and the message on stderr, exit 2."""
    sys.stderr.write(f"{usage(prog, spec)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _negative_number(token: str) -> bool:
    """argparse's ``^-\\d+$|^-\\d*\\.\\d+$`` ($ also before a final newline)."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (whole == "" or whole.isdecimal())


def _read_token(token: str, by_flag: dict) -> tuple | None:
    """None for a positional, else (option, flag, explicit value): the
    value after ``=``, or the rest of ``-ofile``.  The option is None
    for a flag this parser does not have."""
    if token[:1] != "-" or token == "-":
        return None
    if token in by_flag:
        return by_flag[token], token, None
    flag, eq, value = token.partition("=")
    if eq and flag in by_flag:
        return by_flag[flag], flag, value
    if token[1] != "-" and token[:2] in by_flag:
        return by_flag[token[:2]], token[:2], token[2:]
    if _negative_number(token) or " " in token:
        return None
    return None, token, None


def _positional_counts(kinds: list[str], pattern: str) -> list[int]:
    """How many arguments each of the first positionals takes from the
    start of ``pattern`` (A a positional argument, O an option, - the
    ``--``), for as many positionals as match: argparse's greedy match."""
    for k in range(len(kinds), 0, -1):
        counts, at = [], 0
        for kind in kinds[:k]:
            j = at
            while j < len(pattern) and pattern[j] == "-":
                j += 1
            if j == len(pattern) or pattern[j] != "A":
                break
            more = {"one": "-", "ints": "A-", "rest": "AO-"}[kind]
            j += 1
            while j < len(pattern) and pattern[j] in more:
                j += 1
            counts.append(j - at)
            at = j
        else:
            return counts
    return []


def _parse(prog: str, spec: tuple, argv: list[str], values: dict) -> list[str]:
    """Read ``argv`` into ``values`` for the (help, positionals, options)
    ``spec``, the way argparse does: options and positionals interleave,
    each value is converted where it is read, ``-h`` prints the help then.
    Returns the arguments left over."""
    _, positionals, options = spec
    by_flag = {flag: opt for opt in (HELP, *options) for flag in opt[0]}
    left, seen, extras = list(positionals), set(), []

    def convert(name: str, value: str) -> int:
        try:
            return int(value)
        except ValueError:
            fail(prog, spec, f"argument {name}: invalid int value: {value!r}")

    def take(opt: tuple, value: str | None) -> None:
        flags, _, kind, _, _ = opt
        if opt is HELP:
            sys.stdout.write(help_text(prog, spec))
            raise SystemExit(0)
        seen.add(opt)
        name = "/".join(flags)
        if kind is None:
            value = True
        elif kind is int:
            value = convert(name, value)
        elif kind is not str and value not in kind:
            choices = ", ".join(map(repr, kind))
            fail(prog, spec, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        values[dest(flags)] = value

    found, pattern = {}, ""
    for i, token in enumerate(argv):
        if token == "--":  # everything after it is positional
            pattern += "-" + "A" * (len(argv) - i - 1)
            break
        read = _read_token(token, by_flag)
        if read is not None:
            found[i] = read
        pattern += "A" if read is None else "O"

    def consume_positionals(i: int) -> int:
        counts = _positional_counts([kind for _, _, kind in left], pattern[i:])
        for (name, _, kind), n in zip(left, counts):
            args, i = argv[i : i + n], i + n
            if kind == "rest":
                values[name] = args
                continue
            if "--" in args:
                args.remove("--")
            values[name] = [convert(name, a) for a in args] if kind == "ints" else args[0]
        del left[: len(counts)]
        return i

    def consume_optional(i: int) -> int:
        opt, flag, explicit = found[i]
        actions = []
        while True:
            if opt is None:
                extras.append(argv[i])
                return i + 1
            if explicit is None:
                if opt[2] is None:
                    actions.append((opt, None))
                    stop = i + 1
                elif pattern[i + 1 : i + 2] == "A":
                    actions.append((opt, argv[i + 1]))
                    stop = i + 2
                else:
                    fail(prog, spec, f"argument {'/'.join(opt[0])}: expected one argument")
                break
            if opt[2] is not None:
                actions.append((opt, explicit))
                stop = i + 1
                break
            # a flag with text after it: -vo FILE is -v -o FILE
            short = "-" + explicit[:1]
            if flag[1] == "-" or not explicit or short not in by_flag:
                name = "/".join(opt[0])
                fail(prog, spec, f"argument {name}: ignored explicit argument {explicit!r}")
            actions.append((opt, None))
            opt, flag, explicit = by_flag[short], short, explicit[1:] or None
        for opt, value in actions:
            take(opt, value)
        return stop

    i, last = 0, max(found, default=-1)
    while i <= last:
        nxt = min(j for j in found if j >= i)
        if i != nxt:
            end = consume_positionals(i)
            if end > i:
                i = end
                continue
        if i not in found:
            extras += argv[i:nxt]
            i = nxt
        i = consume_optional(i)
    end = consume_positionals(i)
    extras += argv[end:]

    missing = [name for name, _, _ in left]
    missing += ["/".join(o[0]) for o in options if o[3] is REQUIRED and o not in seen]
    if missing:
        fail(prog, spec, f"the following arguments are required: {', '.join(missing)}")
    return extras


def parse_args(argv: list[str]) -> dict:
    """The subcommand and its values, read as argparse reads them, or a
    usage error (exit 2)."""
    top = ("", TOP, ())
    values: dict = {}
    extras = _parse("zdposet", top, argv, values)
    command, *rest = values["command"]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        fail("zdposet", top, f"argument command: invalid choice: {command!r} (choose from {choices})")
    spec = COMMANDS[command]
    values = {"command": command}
    values.update((dest(o[0]), None if o[3] is REQUIRED else o[3]) for o in spec[2])
    extras += _parse(f"zdposet {command}", spec, rest, values)
    if extras:
        fail("zdposet", top, f"unrecognized arguments: {' '.join(extras)}")
    for cap in CAPS:
        if values.get(cap, 1) < 1:
            fail("zdposet", top, f"--{cap.replace('_', '-')} must be positive")
    return values
