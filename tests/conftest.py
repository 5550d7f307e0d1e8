from pathlib import Path

import pytest

from zdposet.poset import Poset, generate, parse_poset

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def figure1_text() -> str:
    return (DATA / "figure1.poset").read_text()


@pytest.fixture(scope="session")
def figure1(figure1_text):
    return parse_poset(figure1_text)


@pytest.fixture(scope="session")
def boolean_catalog():
    """The Boolean posets the acceptance criteria sweep over."""
    posets = [generate("boolean_lattice", n) for n in range(2, 6)]
    posets += [generate("atom_coatom", k) for k in range(3, 7)]
    return posets


@pytest.fixture(scope="session")
def b4_without_a12_a34():
    """2^4 without a12 and a34: a Boolean poset (cone law, unique
    complements) that is not a lattice, as a1 and a2 have no join."""
    B = generate("boolean_lattice", 4)
    keep = [i for i in range(len(B)) if B.elements[i] not in ("a12", "a34")]
    up = [sum(1 << k for k, j in enumerate(keep) if B.leq(i, j)) for i in keep]
    return Poset([B.elements[i] for i in keep], up)
