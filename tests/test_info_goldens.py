"""Replay recorded ``zdposet info`` outputs byte for byte.

``data/info_goldens.json`` maps a case name to its poset file and the
``info`` output recorded for it.  The cases cover the catalog posets,
figure 1, chain-product carriers, and posets that fail each Boolean
clause, so the clause order of ``boolean_failure`` and the first
distributivity witness are pinned.  Re-record only when ``info`` output
is meant to change:

    PYTHONPATH=src python tests/test_info_goldens.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from zdposet.cli import main
from zdposet.poset import direct_product, generate, parse_poset

DATA = Path(__file__).resolve().parent / "data"
GOLDENS_PATH = DATA / "info_goldens.json"


def info(poset_text, tmp_dir):
    path = Path(tmp_dir) / "input.poset"
    path.write_text(poset_text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["info", str(path)]) == 0
    return out.getvalue()


GOLDENS = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_info_matches_golden(name, tmp_path):
    case = GOLDENS[name]
    assert info(case["poset"], tmp_path) == case["info"]


def _cases():
    def product(*specs):
        return direct_product([generate(c, k) for c, k in specs]).carrier

    cases = {f"boolean_lattice {n}": generate("boolean_lattice", n) for n in range(1, 6)}
    cases |= {f"chain {k}": generate("chain", k) for k in range(1, 6)}
    cases |= {f"atom_coatom {k}": generate("atom_coatom", k) for k in range(2, 8)}
    cases |= {f"m_atoms {k}": generate("m_atoms", k) for k in range(1, 5)}
    cases["figure1"] = parse_poset((DATA / "figure1.poset").read_text())
    cases["chain 3 x chain 4"] = product(("chain", 3), ("chain", 4))
    cases["chain 4 x chain 4 x chain 4"] = product(*[("chain", 4)] * 3)
    cases["chain 3 x m_atoms 3"] = product(("chain", 3), ("m_atoms", 3))
    cases["n5"] = parse_poset(
        "poset v1\nelem 0\nelem a\nelem b\nelem c\nelem 1\n"
        "le 0 a\nle a b\nle b 1\nle 0 c\nle c 1\n"
    )
    cases["no top"] = parse_poset("poset v1\nelem 0\nelem a\nelem b\nle 0 a\nle 0 b\n")
    cases["no bottom"] = parse_poset("poset v1\nelem a\nelem b\nelem 1\nle a 1\nle b 1\n")
    return {name: P.to_text() for name, P in cases.items()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            name: {"poset": text, "info": info(text, tmp)}
            for name, text in _cases().items()
        }
    GOLDENS_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
