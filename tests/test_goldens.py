"""Replay the benchmark's golden CLI outputs in-process, byte for byte.

``bench/goldens.json`` holds the ``zdposet check`` output of every
catalog and product poset the benchmark runs, and the ``zdposet sweep``
row of every factor-size vector.  The file is only read here.
"""

import json
from pathlib import Path

import pytest

from zdposet.cli import main
from zdposet.poset import direct_product, generate

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text(
        encoding="utf-8"
    )
)


def build(name):
    """``boolean_lattice 5``, or the carrier of ``chain 2 x atom_coatom 4``."""
    factors = []
    for spec in name.split(" x "):
        catalog, param = spec.split()
        factors.append(generate(catalog, int(param)))
    return factors[0] if len(factors) == 1 else direct_product(factors).carrier


@pytest.mark.parametrize("name", sorted(GOLDENS["check"]))
def test_check_matches_golden(name, tmp_path, capsys):
    path = tmp_path / "input.poset"
    path.write_text(build(name).to_text(), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == GOLDENS["check"][name]


def test_sweep_matches_golden(tmp_path, capsys):
    rows = GOLDENS["sweep_rows"]
    path = tmp_path / "sizes.txt"
    path.write_text("".join(key + "\n" for key in rows), encoding="utf-8")
    assert main(["sweep", str(path)]) == 0
    expected = "\n".join([GOLDENS["sweep_header"], *rows.values()]) + "\n"
    assert capsys.readouterr().out == expected
