import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zdposet
import zdposet.zdg as zdg_mod
from zdposet import lattice
from zdposet.cli import COMMANDS, main
from zdposet.cmcert import is_cohen_macaulay
from zdposet.order import Poset
from zdposet.poset import direct_product, generate, parse_poset


@pytest.fixture
def fig1_path(tmp_path, figure1_text):
    p = tmp_path / "figure1.poset"
    p.write_text(figure1_text)
    return str(p)


def write_poset(tmp_path, P, name="input.poset"):
    p = tmp_path / name
    p.write_text(P.to_text())
    return str(p)


def write_sizes(tmp_path, line):
    p = tmp_path / "sizes.txt"
    p.write_text(line + "\n")
    return str(p)


def test_info_figure1(fig1_path, capsys):
    assert main(["info", fig1_path]) == 0
    out = capsys.readouterr().out
    assert "elements: 10" in out
    assert "boolean: yes" in out
    assert "atoms: 4 (q1 q2 q3 q4)" in out
    assert "weight: 4" in out
    assert "zero-divisors: 9" in out


def test_info_m_atoms(tmp_path, capsys):
    path = write_poset(tmp_path, generate("m_atoms", 3))
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "boolean: no (not distributive (witness: a1,a2,a3))" in out


def test_info_empty_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "empty.poset"
    p.write_text("")
    assert main(["info", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_info_missing_file(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.poset")]) == 2


@pytest.mark.parametrize(
    "argv",
    [["info"], ["zdg"], ["check"], ["export", "-d", "m2"], ["sweep"]],
    ids=lambda argv: argv[0],
)
def test_non_utf8_file_is_input_error(tmp_path, capsys, argv):
    p = tmp_path / "binary.poset"
    p.write_bytes(b"\xff\xfe poset")
    command, *flags = argv
    assert main([command, str(p), *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p} is not UTF-8 text: invalid start byte (byte 0xff)\n"


def test_zdg_dot(fig1_path, capsys):
    assert main(["zdg", fig1_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph zdg {\n")
    assert out.count(" -- ") == 10


def test_zdg_escapes_quotes_and_backslashes(tmp_path, capsys):
    names = ['a"b', "c\\", '\\"', "d"]
    path = tmp_path / "odd.poset"
    path.write_text(
        "poset v1\nelem 0\nelem 1\n"
        + "".join(f"elem {x}\nle 0 {x}\nle {x} 1\n" for x in names)
    )
    assert main(["zdg", str(path)]) == 0
    edges = set()
    for line in capsys.readouterr().out.splitlines()[1:-1]:
        ids = re.findall(r'"((?:[^"\\]|\\.)*)"', line)
        assert len(ids) == 2, line
        assert line == "  " + " -- ".join(f'"{i}"' for i in ids) + ";"
        edges.add(frozenset(re.sub(r"\\(.)", r"\1", i) for i in ids))
    # the four atoms between 0 and 1 are pairwise adjacent
    assert edges == {frozenset(pair) for pair in itertools.combinations(names, 2)}


def test_zdg_empty_graph(tmp_path, capsys):
    path = write_poset(tmp_path, generate("chain", 3))
    assert main(["zdg", path]) == 0
    assert capsys.readouterr().out == "graph zdg {\n}\n"


def test_check_figure1(fig1_path, capsys):
    assert main(["check", fig1_path]) == 0
    out = capsys.readouterr().out
    assert "well-covered: yes" in out
    assert "very-well-covered: yes" in out
    assert "CM(MY): yes [boolean-certificate]" in out
    assert "CM(Reisner): yes" in out
    assert "consistent: yes" in out


def test_check_product_3_3_3(tmp_path, capsys):
    carrier = direct_product([generate("chain", 3)] * 3).carrier
    path = write_poset(tmp_path, carrier)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "well-covered: no" in out
    assert "CM(MY): no [not-well-covered]" in out
    assert "consistent: yes" in out


def test_check_boolean_lattice_8(tmp_path, capsys):
    # 256 elements: the Boolean gate must not fall back to the triple loop
    path = write_poset(tmp_path, generate("boolean_lattice", 8))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "poset: 256 elements, boolean: yes" in out
    assert "CM(MY): yes [boolean-certificate]" in out
    assert "consistent: yes" in out


def test_check_reisner_skip_cap(tmp_path, capsys):
    carrier = direct_product([generate("chain", 3)] * 3).carrier
    path = write_poset(tmp_path, carrier)
    assert main(["check", path, "--max-homology-vertices", "4"]) == 0
    out = capsys.readouterr().out
    assert "CM(Reisner): skipped" in out


def test_check_verbose_prints_face_table(tmp_path, capsys):
    path = write_poset(tmp_path, generate("boolean_lattice", 2))
    assert main(["check", path, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "face\tlink-dim\tbetti" in out
    assert "{a1}" in out
    assert "CM: yes" in out


def test_check_empty_graph(tmp_path, capsys):
    path = write_poset(tmp_path, generate("chain", 3))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "zero-divisor graph is empty" in out


def test_export_cube_m2(tmp_path, capsys):
    path = write_poset(tmp_path, generate("boolean_lattice", 3))
    assert main(["export", path, "-d", "m2"]) == 0
    out = capsys.readouterr().out
    gens = out.split("monomialIdeal(")[1].rstrip(");\n").split(", ")
    assert len(gens) == 6


def test_export_two_square_singular_golden(tmp_path, capsys):
    path = write_poset(tmp_path, generate("boolean_lattice", 2))
    assert main(["export", path, "-d", "singular"]) == 0
    assert capsys.readouterr().out == (
        "// v0 = a1\n"
        "// v1 = a2\n"
        "ring R = 0, (v0..v1), dp;\n"
        "ideal I = v0*v1;\n"
    )


def test_export_empty_graph_fails(tmp_path, capsys):
    path = write_poset(tmp_path, generate("chain", 3))
    assert main(["export", path, "-d", "m2"]) == 2
    assert "empty" in capsys.readouterr().err


def test_sweep(tmp_path, capsys):
    p = tmp_path / "sizes.txt"
    p.write_text("2,2,2\n3,3,3\n2,3\n")
    assert main(["sweep", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sizes\t")
    assert lines[1].endswith("yes\tyes\tyes")
    assert lines[2].endswith("no\tno\tno")


def test_sweep_bad_line(tmp_path, capsys):
    p = tmp_path / "sizes.txt"
    p.write_text("2,2\n2\n")
    assert main(["sweep", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_2,1_2\n", "\u0662,\u0663\n", "+2,3\n"])
def test_sweep_takes_only_ascii_digits(tmp_path, capsys, text):
    # int() reads these as 12,12, 2,3 and 2,3; the format is plain digits
    p = tmp_path / "sizes.txt"
    p.write_text(text, encoding="utf-8")
    assert main(["sweep", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: expected comma-separated integers" in captured.err


def test_sweep_two_factor_row_obeys_caps(tmp_path, capsys):
    # 22,22 is K_{21,21}: 42 vertices, above the default facet cap of 40
    path = write_sizes(tmp_path, "22,22")
    assert main(["sweep", path, "--max-vertices", "100"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "22,22\t441\t21\t-\tyes\tno\tno"
    flag = " [unverified-by-enumeration]"
    assert main(["sweep", path]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        f"22,22\t441\t21\t-\tyes{flag}\tno{flag}\tno"
    )


def test_sweep_two_factor_row_above_the_cap_keeps_every_row(tmp_path, capsys):
    # 21,21 is K_{20,20}: its 40 vertices are above the cap of 12, so it
    # takes the flagged fallback like the n >= 3 rows, and the rows
    # around it still print
    path = tmp_path / "sizes.txt"
    path.write_text("2,2,2\n3,3\n2,2,2,2\n3,3,3\n21,21\n2,3\n")
    assert main(["sweep", str(path), "--max-vertices", "12"]) == 0
    flag = " [unverified-by-enumeration]"
    assert capsys.readouterr().out.splitlines() == [
        "sizes\t|D|\t|J_1|\t|J_1,2,3|\twell-covered\tCM\tboolean-lattice",
        "2,2,2\t1\t3\t3\tyes\tyes\tyes",
        "3,3\t4\t2\t-\tyes\tno\tno",
        f"2,2,2,2\t1\t7\t7\tyes{flag}\tyes\tyes",
        f"3,3,3\t8\t10\t12\tno{flag}\tno{flag}\tno",
        f"21,21\t400\t20\t-\tyes{flag}\tno{flag}\tno",
        "2,3\t2\t1\t-\tno\tno\tno",
    ]


def test_sweep_refuses_a_carrier_above_the_catalog_cap(tmp_path, capsys):
    # refused while the file is read: no row prints, nothing is built
    path = write_sizes(tmp_path, "2,2\n1025,1025")
    assert main(["sweep", path]) == 2
    assert capsys.readouterr() == (
        "",
        "error: line 2: 1025,1025 would have 1050625 elements, above the "
        "catalog cap of 1024\n",
    )


def test_sweep_refuses_a_size_too_long_for_int(tmp_path, capsys):
    # int() raises ValueError past 4,300 digits; the size is refused by
    # its digit count first, with the usual exit code and no traceback
    path = write_sizes(tmp_path, "9" * 5000 + ",2")
    assert main(["sweep", path]) == 2
    assert capsys.readouterr() == (
        "",
        "error: line 1: a vector with a 5000-digit factor size would have at "
        "least 10^4999 elements, above the catalog cap of 1024\n",
    )


def test_boolean_posets_run_no_distributivity_test(tmp_path, monkeypatch, capsys):
    # the support test decides them, so check, info and sweep print the
    # same bytes with both distributivity tests broken
    def broken(*_):
        raise AssertionError("a distributivity test ran")

    monkeypatch.setattr(lattice, "is_distributive_lattice", broken)
    monkeypatch.setattr(lattice, "distributivity_witness", broken)
    monkeypatch.setattr(Poset, "distributivity_witness", property(broken))

    def info(n, atoms):
        return [
            f"elements: {n}",
            "bounded: yes",
            f"atoms: {len(atoms)} ({' '.join(atoms)})",
            f"weight: {len(atoms)}",
            "distributive: yes",
            "boolean: yes",
            "ssc: yes",
            "wssc: yes",
            f"zero-divisors: {n - 1}",
        ]

    def check(n, vertices, edges):
        skip = f"skipped ({vertices} vertices exceed the facet-enumeration cap 40)"
        return [
            f"poset: {n} elements, boolean: yes",
            f"graph: {vertices} vertices, {edges} edges",
            f"well-covered: {skip}",
            f"very-well-covered: {skip}",
            "CM(MY): yes [boolean-certificate]",
            "CM(Reisner): skipped (facet enumeration was capped)",
            "consistent: yes",
        ]

    ac60 = write_poset(tmp_path, generate("atom_coatom", 60), "ac60.poset")
    b6 = write_poset(tmp_path, generate("boolean_lattice", 6), "b6.poset")
    expected = {
        ("info", ac60): info(122, [f"q{i}" for i in range(1, 61)]),
        ("check", ac60): check(122, 120, 1830),
        ("info", b6): info(64, [f"a{i}" for i in range(1, 7)]),
        ("check", b6): check(64, 62, 301),
        ("sweep", write_sizes(tmp_path, "2,2,2,2,2,2")): [
            "sizes\t|D|\t|J_1|\t|J_1,2,3|\twell-covered\tCM\tboolean-lattice",
            "2,2,2,2,2,2\t1\t31\t31\tyes [unverified-by-enumeration]\tyes\tyes",
        ],
    }
    for argv, lines in expected.items():
        assert main(list(argv)) == 0, argv
        assert capsys.readouterr() == ("\n".join(lines) + "\n", ""), argv


@pytest.mark.parametrize(
    "P", [generate("atom_coatom", 9), generate("chain", 5)], ids=["atom_coatom 9", "chain 5"]
)
def test_info_decides_ssc_once(tmp_path, monkeypatch, capsys, P):
    # the Boolean test and the ssc: line read one cached SSC answer, so
    # info makes the ucone_mask calls of one is_ssc() and no more
    calls = []
    real = Poset.ucone_mask
    monkeypatch.setattr(Poset, "ucone_mask", lambda Q, m: calls.append(m) or real(Q, m))
    Poset(P.elements, P.up).is_ssc()
    once = len(calls)
    assert once > 0
    calls.clear()
    assert main(["info", write_poset(tmp_path, P)]) == 0
    assert "ssc: " in capsys.readouterr().out
    assert len(calls) == once


@pytest.mark.parametrize(
    "argv", [["info"], ["zdg"], ["check"], ["export", "-d", "m2"]], ids=lambda argv: argv[0]
)
def test_poset_file_above_the_cap_is_refused(tmp_path, capsys, argv):
    # refused at its 1025th element, before the closure is built
    path = tmp_path / "big.poset"
    path.write_text("poset v1\n" + "".join(f"elem e{i}\n" for i in range(1025)))
    command, *flags = argv
    assert main([command, str(path), *flags]) == 2
    assert capsys.readouterr() == (
        "",
        "error: line 1026: the poset would have more than 1024 elements, above the "
        "catalog cap of 1024\n",
    )


def test_gen_roundtrip(tmp_path, capsys):
    assert main(["gen", "atom_coatom", "4"]) == 0
    text = capsys.readouterr().out
    P = parse_poset(text)
    assert P == generate("atom_coatom", 4)


def test_gen_unknown_catalog(capsys):
    assert main(["gen", "zorp", "3"]) == 2


def test_gen_refuses_a_poset_above_the_catalog_cap(capsys):
    assert main(["gen", "m_atoms", "5000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: m_atoms 5000 would have 5002 elements, above the catalog cap of 1024\n"
    )


def test_output_flag(tmp_path, fig1_path):
    out_file = tmp_path / "graph.dot"
    assert main(["zdg", fig1_path, "-o", str(out_file)]) == 0
    assert out_file.read_text().startswith("graph zdg {")


def test_internal_disagreement_trips_exit_1(fig1_path, capsys, monkeypatch):
    # no real input can disagree; force the oracle to lie to test the trap
    import zdposet.homology as homology_mod

    monkeypatch.setattr(homology_mod, "reisner_cm", lambda C, cap: (False, ((), 0)))
    assert main(["check", fig1_path]) == 1
    out = capsys.readouterr().out
    assert "consistent: no" in out
    assert "disagrees" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["info"])  # missing input
    assert exc.value.code == 2


def test_bad_cap_rejected(fig1_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", fig1_path, "--max-vertices", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", fig1_path, "--workers", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", fig1_path, "--workers", "0"])
    assert exc.value.code == 2


def test_flags_only_where_they_act(fig1_path):
    with pytest.raises(SystemExit) as exc:
        main(["info", fig1_path, "--workers", "2"])
    assert exc.value.code == 2
    # no sweep row reaches the homology oracle, so sweep has no cap for it
    with pytest.raises(SystemExit) as exc:
        main(["sweep", fig1_path, "--max-homology-vertices", "5"])
    assert exc.value.code == 2


def test_check_has_no_search_budget(fig1_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", fig1_path, "--max-search-nodes", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-search-nodes 5" in capsys.readouterr().err


def readme_flag_table():
    """README's per-subcommand flag table: subcommand -> option strings."""
    readme = Path(__file__).parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    flags = {}
    for row in table.splitlines():
        _, command, cell, _ = row.split("|")
        # a cell entry is `-o`, `-v/--verbose` or `-d/--dialect {m2,singular}`
        flags[command.strip(" `").split()[0]] = {
            option
            for entry in re.findall(r"`([^`]*)`", cell)
            for option in entry.split()[0].split("/")
        }
    return flags


def test_readme_flag_table_matches_the_parser():
    parsed = {
        name: {flag for option in options for flag in option[0]}
        for name, (_, _, options) in COMMANDS.items()
    }
    assert readme_flag_table() == parsed


def check_under_O(path, patch):
    """``main(["check", path])`` in a ``python -O`` subprocess, after the
    lines ``patch``: the finished process."""
    script = f"import sys\n{patch}from zdposet.cli import main\n"
    script += f"sys.exit(main(['check', {path!r}]))\n"
    src = str(Path(zdposet.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_boolean_certificate_trap_fires_under_O(tmp_path):
    # the pairs in reverse order run cross edges backwards; the check
    # must exit 1 even with asserts stripped
    path = write_poset(tmp_path, generate("boolean_lattice", 4))
    proc = check_under_O(path, (
        "import zdposet.cmcert as m\n"
        "orig = m.boolean_labeling\n"
        "m.boolean_labeling = lambda P, G: orig(P, G)[::-1]\n"
    ))
    assert proc.returncode == 1, proc.stderr
    assert "contract violation" in proc.stderr


# 0 < a, b < c < 1: the graph is the edge a-b, twin-free and very
# well-covered
ONE_EDGE = parse_poset(
    "poset v1\nelem 0\nelem a\nelem b\nelem c\nelem 1\n"
    "le 0 a\nle 0 b\nle a c\nle b c\nle c 1\n"
)


def test_matching_trap_exits_1(tmp_path, monkeypatch, capsys):
    import zdposet.search as search_mod

    monkeypatch.setattr(search_mod, "find_ordering", lambda G, matching: None)
    assert main(["check", write_poset(tmp_path, ONE_EDGE)]) == 1
    assert "contract violation: cross edges close a cycle" in capsys.readouterr().err


def test_matching_trap_fires_under_O(tmp_path):
    path = write_poset(tmp_path, ONE_EDGE)
    proc = check_under_O(
        path, "import zdposet.search as m\nm.find_ordering = lambda G, matching: None\n"
    )
    assert proc.returncode == 1, proc.stderr
    assert "contract violation: cross edges close a cycle" in proc.stderr


# one input, and the caps it needs, per (status, route) that
# Analysis.verdict can return
ROUTE_INPUTS = {
    ("CM", "boolean-certificate"): (generate("boolean_lattice", 3), {}),
    ("CM", "matching-search"): (ONE_EDGE, {}),
    # the graph is C_4, two pairs of twins
    ("NotCM", "matching-search"): (direct_product([generate("chain", 3)] * 2).carrier, {}),
    ("NotCM", "not-well-covered"): (
        direct_product([generate("chain", 3)] * 3).carrier,
        {},
    ),
    ("Inconclusive", "facet-cap"): (generate("m_atoms", 3), {"max_vertices": 2}),
    ("CM", "reisner-oracle"): (generate("m_atoms", 3), {}),
    # 0 < e0..e4 < 1 with e0, e1 < e3 and e2 < e4
    ("NotCM", "reisner-oracle"): (
        parse_poset(
            "poset v1\nelem 0\n"
            + "".join(f"elem e{i}\n" for i in range(5))
            + "elem 1\n"
            + "".join(f"le 0 e{i}\nle e{i} 1\n" for i in range(5))
            + "le e0 e3\nle e1 e3\nle e2 e4\n"
        ),
        {},
    ),
    ("Inconclusive", "homology-cap"): (
        generate("m_atoms", 3),
        {"max_homology_vertices": 2},
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTE_INPUTS), ids="/".join)
def test_every_route_through_library_and_check(tmp_path, capsys, route):
    P, caps = ROUTE_INPUTS[route]
    verdict = is_cohen_macaulay(P, **caps)
    assert (verdict.status, verdict.method) == route
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in caps.items()]
    assert main(["check", write_poset(tmp_path, P), *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    cell = {"CM": "yes", "NotCM": "no", "Inconclusive": "inconclusive"}
    assert f"CM(MY): {cell[route[0]]} [{route[1]}]" in lines
    if route == ("NotCM", "reisner-oracle"):
        assert "CM(Reisner): no" in lines
        assert verdict.detail == "link of (empty face) has homology in dimension 0"
    if route == ("Inconclusive", "homology-cap"):
        assert "CM(Reisner): skipped (3 vertices exceed the homology cap 2)" in lines


# one input per route of the CM verdict
ONCE_POSETS = {
    "boolean": generate("boolean_lattice", 3),
    "search": direct_product([generate("chain", 3)] * 2).carrier,
    "not-well-covered": direct_product([generate("chain", 3)] * 3).carrier,
    "reisner": generate("m_atoms", 3),
}


@pytest.mark.parametrize(
    "argv",
    [["check", name] for name in ONCE_POSETS]
    + [["check", "reisner", "-v"]]
    + [
        ["sweep", row]
        for row in ("2,2", "3,3", "2,3", "2,2,2", "3,3,3", "2,2,2,2,2,2")
    ],
    ids=" ".join,
)
def test_graph_and_facets_built_once(tmp_path, monkeypatch, capsys, argv):
    import zdposet.complexes as complexes_mod
    import zdposet.homology as homology_mod

    calls = {"graph": 0, "facets": 0, "reisner": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # patch every module that holds the function, however it imported it
    for key, fn in (
        ("graph", zdg_mod.zero_divisor_graph),
        ("reisner", homology_mod.reisner_cm),
    ):
        for mod in list(sys.modules.values()):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted(key, fn))
    monkeypatch.setattr(
        complexes_mod,
        "_maximal_independent_masks",
        counted("facets", complexes_mod._maximal_independent_masks),
    )
    if argv[0] == "check":
        command, name, *flags = argv
        path = write_poset(tmp_path, ONCE_POSETS[name])
    else:
        (command, row), flags = argv, []
        path = write_sizes(tmp_path, row)
    assert main([command, path, *flags]) == 0
    assert calls["graph"] == 1
    assert calls["facets"] <= 1
    assert calls["reisner"] <= 1


@pytest.mark.parametrize("name", sorted(ONCE_POSETS))
def test_check_verbose_walks_the_complex_once(tmp_path, monkeypatch, capsys, name):
    # one face walk feeds both the CM(Reisner) line and the per-face table
    import zdposet.homology as homology_mod

    walks = []
    walk = homology_mod._face_walk

    def counted(C):
        walks.append(C)
        return walk(C)

    monkeypatch.setattr(homology_mod, "_face_walk", counted)
    path = write_poset(tmp_path, ONCE_POSETS[name])
    assert main(["check", path, "-v"]) == 0
    out = capsys.readouterr().out
    assert "CM(Reisner): " in out and "  face\tlink-dim\tbetti" in out
    assert len(walks) == 1
