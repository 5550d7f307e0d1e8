"""Replay recorded ``zdposet check -v`` outputs byte for byte.

``data/verbose_goldens.json`` maps a case name to the sha256 and line
count of the ``check -v`` stdout recorded for it, plus the exit code.
The per-face tables run to thousands of rows, so only their digests are
kept.  The inputs are catalog posets and carriers of catalog products,
built in-process, and two poset files whose text the goldens store;
they cover CM complexes (every link ranked), non-CM ones, an empty
graph, and complexes where the table ranks links that no cone or fold
move settles.  The two files pin the verdict routes no catalog poset
takes: the matching search's CM verdict and the Reisner oracle's NotCM
verdict.  Re-record only when ``check -v`` output is meant to change:

    PYTHONPATH=src python tests/test_verbose_goldens.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from zdposet.cli import main
from zdposet.poset import direct_product, generate

DATA = Path(__file__).resolve().parent / "data"
GOLDENS_PATH = DATA / "verbose_goldens.json"

CASES = {
    "atom_coatom 6": (("atom_coatom", 6),),
    "atom_coatom 7": (("atom_coatom", 7),),
    "atom_coatom 8": (("atom_coatom", 8),),
    "atom_coatom 9": (("atom_coatom", 9),),
    "boolean_lattice 3": (("boolean_lattice", 3),),
    "boolean_lattice 4": (("boolean_lattice", 4),),
    "m_atoms 3": (("m_atoms", 3),),
    "m_atoms 4": (("m_atoms", 4),),
    "chain 3": (("chain", 3),),
    "chain 2 x atom_coatom 4": (("chain", 2), ("atom_coatom", 4)),
    "chain 3 x chain 3": (("chain", 3), ("chain", 3)),
    "chain 4 x m_atoms 3": (("chain", 4), ("m_atoms", 3)),
    "m_atoms 2 x m_atoms 3": (("m_atoms", 2), ("m_atoms", 3)),
    # not Boolean and very well-covered: the matching search finds a pairing
    "matching-search CM": (
        "poset v1\n"
        + "".join(f"elem {x}\n" for x in ("0", "e0", "e1", "e2", "1"))
        + "le 0 e0\nle 0 e1\nle e0 e2\nle e1 e2\nle e2 1\n"
    ),
    # well-covered, not very well-covered, and not CM
    "reisner-oracle NotCM": (
        "poset v1\n"
        + "".join(f"elem {x}\n" for x in ("0", "e0", "e1", "e2", "e3", "e4", "1"))
        + "le 0 e0\nle 0 e1\nle 0 e2\nle e0 e4\nle e1 e3\nle e2 e3\n"
        + "le e3 1\nle e4 1\n"
    ),
}


def poset_text(spec) -> str:
    """The poset file of ``spec``: the text itself, or that of the catalog
    poset it names or the carrier of their product."""
    if isinstance(spec, str):
        return spec
    factors = [generate(name, param) for name, param in spec]
    if len(factors) == 1:
        return factors[0].to_text()
    return direct_product(factors).carrier.to_text()


def run_check_verbose(spec, tmp_dir) -> tuple[str, int]:
    path = Path(tmp_dir) / "input.poset"
    path.write_text(poset_text(spec), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", "-v", str(path)])
    return out.getvalue(), code


def check_verbose(spec, tmp_dir) -> dict:
    """The golden record of ``spec``; a text case keeps its poset text."""
    text, code = run_check_verbose(spec, tmp_dir)
    record = {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "lines": text.count("\n"),
        "exit": code,
    }
    if isinstance(spec, str):
        record["poset"] = spec
    return record


def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_every_case():
    assert sorted(goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_verbose_matches_golden(name, tmp_path):
    assert check_verbose(CASES[name], tmp_path) == goldens()[name]


@pytest.mark.parametrize(
    "name, lines",
    [
        (
            "matching-search CM",
            ["graph: 2 vertices, 1 edges", "CM(MY): yes [matching-search]"],
        ),
        (
            "reisner-oracle NotCM",
            [
                "graph: 5 vertices, 7 edges",
                "very-well-covered: no",
                "CM(MY): no [reisner-oracle]",
            ],
        ),
    ],
)
def test_text_cases_take_their_route(name, lines, tmp_path):
    text, code = run_check_verbose(CASES[name], tmp_path)
    assert code == 0
    assert set(lines) <= set(text.splitlines())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: check_verbose(spec, tmp) for name, spec in CASES.items()}
    GOLDENS_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
