"""Catalog posets and direct products, built on the order core.

``bits``, ``Poset``, ``parse_poset`` and the element cap
``MAX_CATALOG_ELEMENTS`` live in ``order``; ``parse_poset`` is
re-exported here for the benchmark, and a run that only reads poset
files never compiles this module.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import ZdPosetError
from .order import (  # parse_poset re-exported
    MAX_CATALOG_ELEMENTS,
    Poset,
    above_cap,
    bits,
    parse_poset,
)


# -- products -----------------------------------------------------------------------


class ProductPoset:
    """The direct product of bounded posets, with its materialized carrier.

    ``coord_of[i]`` gives the tuple of factor element ids behind carrier
    element i; carrier names are the factor names joined in parentheses.
    """

    def __init__(self, factors: Sequence[Poset]):
        if len(factors) < 2:
            raise ZdPosetError("a direct product needs at least two factors")
        for pos, f in enumerate(factors, 1):
            if not f.is_bounded():
                raise ZdPosetError(f"factor {pos} is not bounded")
        self.factors: tuple[Poset, ...] = tuple(factors)
        coords = list(itertools.product(*(range(len(f)) for f in factors)))
        names = [
            "(" + ",".join(f.elements[c] for f, c in zip(factors, co)) + ")"
            for co in coords
        ]
        # at[p][x]: the carrier ids whose p-th coordinate is x
        at = [[0] * len(f) for f in factors]
        for i, co in enumerate(coords):
            for p, x in enumerate(co):
                at[p][x] |= 1 << i
        # a product of partial orders is one: the carrier's rows need no
        # second check of the order axioms
        self.carrier: Poset = Poset(
            names,
            _product_rows(coords, at, [f.up for f in factors]),
            _product_rows(coords, at, [f.down for f in factors]),
        )
        self.coord_of: tuple[tuple[int, ...], ...] = tuple(coords)


def _product_rows(
    coords: Sequence[tuple[int, ...]],
    at: Sequence[Sequence[int]],
    factor_rows: Sequence[Sequence[int]],
) -> list[int]:
    """Carrier rows of the componentwise order, from one row per factor
    element: the factors' ``up`` rows give the carrier's, and so do their
    ``down`` rows.  ``at[p][x]`` masks the carrier ids whose p-th
    coordinate is x."""
    # within[p][x]: the carrier ids whose p-th coordinate lies in row x
    within = []
    for at_p, rows_p in zip(at, factor_rows):
        rows = []
        for frow in rows_p:
            m = 0
            for y in bits(frow):
                m |= at_p[y]
            rows.append(m)
        within.append(rows)
    out = []
    for co in coords:
        row = -1  # every carrier id
        for rows, x in zip(within, co):
            row &= rows[x]
        out.append(row)
    return out


def direct_product(factors: Sequence[Poset]) -> ProductPoset:
    """Componentwise-ordered product of two or more bounded posets."""
    return ProductPoset(factors)


# -- catalog ------------------------------------------------------------------------

def _subset_name(mask: int, n: int, full: int) -> str:
    if mask == 0:
        return "0"
    if mask == full:
        return "1"
    sep = "" if n <= 9 else "_"
    return "a" + sep.join(str(i + 1) for i in bits(mask))


def _inclusion_rows(masks: Sequence[int]) -> list[int]:
    """Up-set rows of a family of subsets ordered by inclusion: bit j of
    row i is set when ``masks[i]`` is a subset of ``masks[j]``."""
    rows = []
    for m in masks:
        row = 0
        for j, t in enumerate(masks):
            if m & ~t == 0:
                row |= 1 << j
        rows.append(row)
    return rows


def _boolean_lattice(n: int) -> Poset:
    if n < 1:
        raise ZdPosetError("boolean_lattice needs n >= 1")
    if n >= MAX_CATALOG_ELEMENTS.bit_length():  # 2^n above the cap
        raise above_cap(f"boolean_lattice {n}", f"2^{n}")
    full = (1 << n) - 1
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    names = [_subset_name(m, n, full) for m in masks]
    return Poset(names, _inclusion_rows(masks))


def _chain(k: int) -> Poset:
    if k < 1:
        raise ZdPosetError("chain needs k >= 1")
    if k > MAX_CATALOG_ELEMENTS:
        raise above_cap(f"chain {k}", k)
    if k == 1:
        names = ["0"]
    elif k == 2:
        names = ["0", "1"]
    else:
        names = ["0"] + [f"c{i}" for i in range(1, k - 1)] + ["1"]
    up = [(((1 << k) - 1) >> i) << i for i in range(k)]
    return Poset(names, up)


def _atom_coatom(k: int) -> Poset:
    # the induced subposet of 2^k on ranks {0, 1, k-1, k}
    if k < 2:
        raise ZdPosetError("atom_coatom needs k >= 2")
    if 2 * k + 2 > MAX_CATALOG_ELEMENTS:  # k atoms, k coatoms, 0 and 1
        raise above_cap(f"atom_coatom {k}", 2 * k + 2)
    full = (1 << k) - 1
    masks: list[int] = [0]
    names: list[str] = ["0"]
    for i in range(k):
        masks.append(1 << i)
        names.append(f"q{i + 1}")
    if k - 1 > 1:
        for i in range(k):
            masks.append(full & ~(1 << i))
            names.append(f"q{i + 1}'")
    masks.append(full)
    names.append("1")
    return Poset(names, _inclusion_rows(masks))


def _m_atoms(k: int) -> Poset:
    if k < 1:
        raise ZdPosetError("m_atoms needs k >= 1")
    if k + 2 > MAX_CATALOG_ELEMENTS:
        raise above_cap(f"m_atoms {k}", k + 2)
    names = ["0"] + [f"a{i}" for i in range(1, k + 1)] + ["1"]
    n = k + 2
    top = n - 1
    full = (1 << n) - 1
    up = [full] + [(1 << i) | (1 << top) for i in range(1, k + 1)] + [1 << top]
    return Poset(names, up)


_CATALOG = {
    "boolean_lattice": _boolean_lattice,
    "chain": _chain,
    "atom_coatom": _atom_coatom,
    "m_atoms": _m_atoms,
}


def generate(name: str, *params: int) -> Poset:
    """Build a named catalog poset (boolean_lattice, chain, atom_coatom, m_atoms)."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise ZdPosetError(f"unknown catalog poset {name!r} (known: {known})") from None
    if len(params) != 1:
        raise ZdPosetError(f"{name} takes exactly one integer parameter")
    return builder(params[0])
