"""Replay recorded ``zdposet check -v`` outputs byte for byte.

``data/verbose_goldens.json`` maps a case name to the sha256 and line
count of the ``check -v`` stdout recorded for it, plus the exit code.
The per-face tables run to thousands of rows, so only their digests are
kept.  The inputs are catalog posets and carriers of catalog products,
built in-process; they cover CM complexes (every link ranked), non-CM
ones, an empty graph, and complexes where the table ranks links that
no cone or fold move settles.  Re-record only when ``check -v`` output is
meant to change:

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
}


def build(spec):
    """The catalog poset ``spec`` names, or the carrier of their product."""
    factors = [generate(name, param) for name, param in spec]
    if len(factors) == 1:
        return factors[0]
    return direct_product(factors).carrier


def check_verbose(spec, tmp_dir) -> dict:
    path = Path(tmp_dir) / "input.poset"
    path.write_text(build(spec).to_text(), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", "-v", str(path)])
    text = out.getvalue()
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "lines": text.count("\n"),
        "exit": code,
    }


def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_every_case():
    assert sorted(goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_verbose_matches_golden(name, tmp_path):
    assert check_verbose(CASES[name], tmp_path) == goldens()[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: check_verbose(spec, tmp) for name, spec in CASES.items()}
    GOLDENS_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
