"""Workload inputs for the zdposet benchmark.

Each workload is a fixed list of items, one ``zdposet`` invocation each.
The seed shapes the inputs (element order, random posets, which sweep
vectors share a file) but never the number of items or which layer they
load, so that the seed cannot move a workload's totals.

Run as a script, it writes one workload's input files and a manifest:

    python3 bench/workloads.py <workload> <seed> <out-dir>

The benchmark times that script as its set-up step.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("boolean-check", "reisner-check", "product-sweep")

# Boolean posets whose graphs (30 to 126 vertices) are above the homology
# cap of 20: the Boolean gate and the certificate do the work, the
# oracle is skipped.
BOOLEAN_CHECK = (
    (("boolean_lattice", 5),),
    (("boolean_lattice", 6),),
    (("boolean_lattice", 7),),
    (("boolean_lattice", 3), ("boolean_lattice", 3)),
    (("atom_coatom", 3), ("atom_coatom", 4)),
    (("atom_coatom", 4), ("atom_coatom", 4)),
)

# Graphs with 12 to 18 vertices, under the homology cap: the oracle runs.
# The CM items walk every link; the non-CM ones stop at the first witness.
REISNER_CM = (
    (("atom_coatom", 6),),
    (("atom_coatom", 7),),
    (("atom_coatom", 8),),
    (("atom_coatom", 9),),
    (("boolean_lattice", 4),),
    (("chain", 2), ("atom_coatom", 4)),
)
REISNER_NOT_CM = (
    (("chain", 4), ("m_atoms", 3)),
    (("m_atoms", 2), ("m_atoms", 3)),
)
# Random posets drawn per seed.  At 16 graph vertices and edge
# probability 0.06 the oracle finds its non-CM witness within about
# 20 ms on every draw tried; denser or larger draws range from 1 ms to
# seconds, and then the seed would move the workload's totals.  Seven of
# them make fifteen items a round, which puts the median invocation
# among the atom_coatom 6 samples and p90 among the chain 2 x
# atom_coatom 4 samples, not on a gap between two costs.
RANDOM_POSETS = 7
RANDOM_VERTICES = 16
RANDOM_EDGE_P = 0.06

# Sweep vectors.  Every file holds three vectors.  Each round of the
# workload sweeps every heavy vector exactly once, in a file of its own,
# and two files hold only light vectors; the seed draws the light vectors
# and the file order.  A plain draw of three from thirteen would let the
# seed decide how often (5,5,5), at 0.77 s about ten times any light
# vector, lands in a round.
SWEEP_HEAVY = ((5, 5, 5), (3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (4, 4, 4))
SWEEP_LIGHT = (
    (2, 2, 2), (2, 3, 4), (3, 3, 3), (3, 3, 4), (2, 2, 2, 2, 2),
    (2, 3), (3, 3), (4, 4), (6, 6),
)
SWEEP_LIGHT_FILES = 2
SWEEP_VECTORS_PER_FILE = 3


def spec_name(spec) -> str:
    """``boolean_lattice 5`` or ``chain 2 x atom_coatom 4``."""
    return " x ".join(f"{name} {param}" for name, param in spec)


def vector_key(sizes) -> str:
    return ",".join(str(s) for s in sizes)


def _file_name(name: str, suffix: str) -> str:
    return name.replace(" x ", "_x_").replace(" ", "-") + suffix


def build(spec):
    """The catalog poset that ``spec`` names, or the carrier of their product."""
    from zdposet.poset import direct_product, generate

    factors = [generate(name, param) for name, param in spec]
    if len(factors) == 1:
        return factors[0]
    return direct_product(factors).carrier


def _shuffle_elems(text: str, rng: random.Random) -> str:
    """Reorder the ``elem`` lines; the order itself is unchanged."""
    lines = text.splitlines()
    elems = [ln for ln in lines if ln.startswith("elem ")]
    rest = [ln for ln in lines[1:] if not ln.startswith("elem ")]
    rng.shuffle(elems)
    return "\n".join([lines[0], *elems, *rest]) + "\n"


def random_poset_text(rng: random.Random) -> str:
    """A bounded poset whose zero-divisor graph has RANDOM_VERTICES vertices."""
    from zdposet.poset import parse_poset
    from zdposet.zdg import zero_divisor_graph

    while True:
        k = rng.randint(RANDOM_VERTICES, RANDOM_VERTICES + 2)
        lines = ["poset v1", "elem 0"]
        lines += [f"elem e{i}" for i in range(k)]
        lines.append("elem 1")
        for i in range(k):
            lines += [f"le 0 e{i}", f"le e{i} 1"]
            lines += [
                f"le e{i} e{j}"
                for j in range(i + 1, k)
                if rng.random() < RANDOM_EDGE_P
            ]
        text = "\n".join(lines) + "\n"
        if len(zero_divisor_graph(parse_poset(text)).vertices) == RANDOM_VERTICES:
            return text


def _sweep_files(rng: random.Random) -> list[list[tuple[int, ...]]]:
    slots = len(SWEEP_HEAVY) * (SWEEP_VECTORS_PER_FILE - 1) + (
        SWEEP_LIGHT_FILES * SWEEP_VECTORS_PER_FILE
    )
    deck: list[tuple[int, ...]] = []
    while len(deck) < slots:
        batch = list(SWEEP_LIGHT)
        rng.shuffle(batch)
        deck += batch
    files = [[h] for h in SWEEP_HEAVY] + [[] for _ in range(SWEEP_LIGHT_FILES)]
    # the deck cycles through all light vectors before repeating one; a
    # card already in the file goes back under the deck
    for f in files:
        while len(f) < SWEEP_VECTORS_PER_FILE:
            v = deck.pop()
            if v in f:
                deck.insert(0, v)
            else:
                f.append(v)
    for f in files:
        rng.shuffle(f)
    rng.shuffle(files)
    return files


def write_inputs(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's input files under ``out``; return the manifest.

    A manifest entry names the item, its subcommand, its file (relative to
    ``out``) and the goldens its output must match: a check item's
    ``golden`` is the catalog or product name, or None for a random
    poset; a sweep item's ``vectors`` are the TSV row keys.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    items: list[dict] = []

    def add_check(name: str, text: str, golden: str | None) -> None:
        file = _file_name(name, ".poset")
        (out / file).write_text(text, encoding="utf-8")
        items.append(
            {"name": name, "command": "check", "file": file, "golden": golden}
        )

    if workload == "boolean-check":
        for spec in BOOLEAN_CHECK:
            name = spec_name(spec)
            add_check(name, _shuffle_elems(build(spec).to_text(), rng), name)
    elif workload == "reisner-check":
        for spec in REISNER_CM + REISNER_NOT_CM:
            name = spec_name(spec)
            add_check(name, build(spec).to_text(), name)
        for i in range(1, RANDOM_POSETS + 1):
            add_check(f"random {i}", random_poset_text(rng), None)
    else:
        for i, vectors in enumerate(_sweep_files(rng), 1):
            file = f"sweep-{i}.txt"
            text = "".join(vector_key(v) + "\n" for v in vectors)
            (out / file).write_text(text, encoding="utf-8")
            items.append(
                {
                    "name": f"sweep {i}",
                    "command": "sweep",
                    "file": file,
                    "vectors": [vector_key(v) for v in vectors],
                }
            )
    (out / "items.json").write_text(json.dumps(items, indent=1), encoding="utf-8")
    return items


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        print(
            f"usage: workloads.py {{{','.join(WORKLOADS)}}} <seed> <out-dir>",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    write_inputs(argv[0], int(argv[1]), Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
