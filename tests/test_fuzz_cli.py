"""The CLI's parsers on mutated input files, run in-process.

A run of ``cli.main`` on a mutated file must exit 0 (the file still
means something) or 2 with one ``error:`` line (it does not).  Exit 1
is kept for a contract violation, which no input may cause, and no
exception may escape.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from zdposet.cli import main
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

