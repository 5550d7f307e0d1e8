"""The CLI's parsers on mutated input files and argument lists, run
in-process.

A run of ``cli.main`` on a mutated file must exit 0 (the file still
means something) or 2 with one ``error:`` line (it does not).  Exit 1
is kept for a contract violation, which no input may cause, and no
exception may escape.

An argument list must parse to the values the argparse parser the CLI
used to have (``brute.argparse_reference``) gives it, or be refused by
both with exit 2, or print the help with exit 0 in both.  Two
differences are declared.  Argparse took a unique prefix of a long flag
(``--max-v``), and the table parser takes none.  Argparse dropped an
explicit value ``--`` (``--output=--``, ``-o--``) and stored an empty
list, on which the run then crashed; the table parser takes the value
as given.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from brute import argparse_reference
from zdposet import arguments
from zdposet.cli import CAPS, COMMANDS, main, parse_args
from zdposet.poset import direct_product, generate

# valid poset files of at most 8 elements, one with comments and blanks
POSET_SEEDS = [
    generate("boolean_lattice", 3).to_text(),
    generate("atom_coatom", 3).to_text(),
    generate("m_atoms", 3).to_text(),
    direct_product([generate("chain", 2), generate("chain", 3)]).carrier.to_text(),
    "poset v1  # a header comment\n\nelem 0\nelem a\nelem b\nelem 1\n"
    "le 0 a\nle 0 b   # two atoms\nle a 1\nle b 1\n",
]
POSET_TOKENS = [
    b"", b"poset", b"v1", b"v2", b"elem", b"le", b"#", b"0", b"1", b"a",
    b"q1", b"zz", b"(0,1)", b"\xff", b"\xc3", b"\x00", b"\t", b"\x0c",
]
POSET_COMMANDS = [
    ["check"], ["check", "-v"], ["info"], ["zdg"],
    ["export", "-d", "m2"], ["export", "-d", "singular"],
]

# size files with entries of at most 4 and at most 3 entries a line, so
# no carrier exceeds 4**3 = 64 elements.  Their mutations never write a
# digit or a comma and never delete a byte, so they cannot merge digits
# into a larger entry or lines into a longer vector.
SIZE_SEEDS = [
    "2,2\n2,3,4\n# comment\n3,3\n",
    "4,4,4\n2,3\n",
    "2,2,2\n 3 , 3 \n\n4,4  # trailing comment\n",
]
SIZE_TOKENS = [b"", b"0", b"1", b"-2", b"+3", b"2.5", b"x", b" ", b"#", b"\xff"]
SIZE_BYTES = b"# \t\r\n\x00\x0b\x0c\xff\xfe-+.x"


@st.composite
def mutated(draw, seeds, tokens, byte_edit, sep):
    """A seed file after one to four mutations: a byte edit, a dropped,
    duplicated or swapped line, or a field swapped for a bad token."""
    lines = draw(st.sampled_from(seeds)).encode().split(b"\n")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["byte", "drop", "dup", "swap", "token"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "byte" and lines[i]:
            at = draw(st.integers(0, len(lines[i]) - 1))
            line = bytearray(lines[i])
            line[at] = byte_edit(draw, line[at])
            lines[i] = bytes(line)
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            fields = lines[i].split(sep)
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from(tokens))
            lines[i] = sep.join(fields)
    return b"\n".join(lines)


def flip_bit(draw, byte):
    return byte ^ 1 << draw(st.integers(0, 7))


def safe_byte(draw, byte):
    return draw(st.sampled_from(SIZE_BYTES))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def run_cli(path, data, command, *flags):
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *flags])
    assert code in (0, 2), (data, code, out.getvalue(), err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (data, lines)


@settings(max_examples=200, deadline=None)
@given(
    data=mutated(POSET_SEEDS, POSET_TOKENS, flip_bit, b" "),
    argv=st.sampled_from(POSET_COMMANDS),
)
def test_mutated_poset_files(input_path, data, argv):
    run_cli(input_path, data, *argv)


@settings(max_examples=100, deadline=None)
@given(data=mutated(SIZE_SEEDS, SIZE_TOKENS, safe_byte, b","))
def test_mutated_size_files(input_path, data):
    run_cli(input_path, data, "sweep")



# -- the argument parser against the argparse one it replaced ----------------------

FLAGS = sorted(
    {flag for _, _, options in COMMANDS.values() for option in options for flag in option[0]}
    | {"-h", "--help"}
)
WORDS = [
    "in.poset", "chain", "3", "0", "40", "-3", "-1.5", "-.5", "+2", "٣", "-٣",
    " 4", "2_0", "m2", "singular", "", "-", "--", "a b", "-x y", "x=y", "-5\n",
]
JUNK = [
    "-x", "--workers", "-vx", "-vd", "-vo", "-ox", "-dm2", "-dx", "-hv", "-vh", "-hh",
    "-hx", "--max", "--max-v", "--out", "--verb", "--he", "-=", "=", "---", "-5x",
    "-v=", "-o=", "--output=", "--verbose=", "--help=x", "-verbose", "-o=x", "-vo=x",
]
COMMAND_WORDS = [*COMMANDS, "frob", "-h", "--help", "-x", "--", "-3", "--he"]

token = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(WORDS),
    st.sampled_from(JUNK),
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(WORDS)),
    st.builds(str.__add__, st.sampled_from(["-o", "-d", "-v", "-h"]), st.sampled_from(WORDS)),
)


@st.composite
def plain_argv(draw):
    """The subcommand, its positionals, then full options with values."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = [command, *draw(st.lists(st.sampled_from(WORDS[:6]), min_size=1, max_size=3))]
    for option in draw(st.lists(st.sampled_from(FLAGS), max_size=4)):
        value = draw(st.sampled_from(["7", "0", "out", "m2", "singular", "x"]))
        argv += draw(st.sampled_from([[option, value], [f"{option}={value}"], [option]]))
    return argv


argvs = st.one_of(
    plain_argv(),
    st.builds(
        lambda first, rest: first + rest,
        st.lists(st.sampled_from(list(COMMANDS)), min_size=1, max_size=1),
        st.lists(token, max_size=7),
    ),
    st.lists(st.one_of(st.sampled_from(COMMAND_WORDS), token), max_size=6),
)


def declared(argv):
    """True when an option of ``argv`` is read differently on purpose: a
    long flag that is a proper prefix of a flag, which argparse read as
    that flag or refused as ambiguous, or an explicit value ``--``."""
    for token in argv[: argv.index("--") if "--" in argv else None]:
        name = token.partition("=")[0]
        if token.startswith("--") and name not in FLAGS and any(f.startswith(name) for f in FLAGS):
            return True
        if token.startswith("-") and token.endswith("--") and len(token) > 2:
            return True
    return False


def outcome(parse, argv):
    """(exit code, the parsed values, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = parse(list(argv))
    except SystemExit as exc:
        return exc.code, None, out.getvalue(), err.getvalue()
    return 0, values, out.getvalue(), err.getvalue()


def reference_parse(argv):
    parser = argparse_reference()
    values = vars(parser.parse_args(argv))
    for cap in CAPS:  # main refused a cap below 1 after parsing
        if isinstance(values.get(cap), int) and values[cap] < 1:
            parser.error(f"--{cap.replace('_', '-')} must be positive")
    return values


@settings(max_examples=1500, deadline=None)
@given(argv=argvs)
def test_argv_parses_as_argparse_did(argv):
    expected = outcome(reference_parse, argv)
    for parse in (lambda a: vars(parse_args(a)), arguments.parse_args):
        code, values, out, err = outcome(parse, argv)
        assert code in (0, 2), (argv, code)
        if code == 2:  # the usage line, then the message
            assert re.match(r"usage: zdposet[^\n]*\nzdposet( \w+)?: error: ", err), (argv, err)
        elif values is None:
            assert out.startswith("usage: zdposet") and err == "", (argv, out, err)
        if not declared(argv):
            assert (code, values) == expected[:2], argv
