"""What a subcommand loads, and the shape of the result records.

A ``zdposet`` run is mostly interpreter start-up and imports, and
without cached bytecode every module it loads is compiled from source,
so each subcommand imports only the layers it runs: the product layer
loads for ``sweep`` alone, the catalog (``poset``) for ``gen`` and
``sweep``, the certificate layer (``cmcert``) for ``check`` and
``sweep``, ``search`` only on the matching-search route, the
homology oracle never for ``sweep``, and neither ``dataclasses`` nor
``json`` loads on the way to a verdict.  No run imports ``argparse``
(nor ``gettext`` and ``locale``, which it pulls in), and ``check``
compiles at most ``CHECK_SOURCE_CAP`` bytes of package source.  The
result records are named tuples.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdposet.zdg
from zdposet.cmcert import (
    Analysis,
    CmVerdict,
    ConditionStatus,
    MyCertificate,
)
from zdposet.poset import direct_product, generate
from zdposet.product import PredictedCounts, TheoremCheck

HEAVY = {"dataclasses", "json", "zdposet.product"}


def new_modules(script):
    """The modules that ``script`` adds to ``sys.modules`` in a fresh
    interpreter; the script may bind ``code``, which must then be 0."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "code = 0\n"
        f"{script}\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(zdposet.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    return set(loaded)


def modules_loaded_by(argv):
    """The modules that ``cli.main(argv)`` loads, after checking that it
    exits 0."""
    return new_modules(f"from zdposet.cli import main\ncode = main({argv!r})")


def package_modules(loaded):
    return {m for m in loaded if m.split(".")[0] == "zdposet"}


@pytest.mark.parametrize(
    "command",
    [["check"], ["check", "-v"], ["info"], ["zdg"], ["export", "-d", "m2"]],
    ids=" ".join,
)
def test_poset_subcommands_load_no_heavy_module(tmp_path, command):
    path = tmp_path / "b3.poset"
    path.write_text(generate("boolean_lattice", 3).to_text())
    out = str(tmp_path / "out")
    argv = [command[0], str(path), *command[1:], "-o", out]
    assert modules_loaded_by(argv) & HEAVY == set()


@pytest.mark.parametrize(
    "command, own",
    [
        (["info"], "zdposet.lattice"),
        (["zdg"], "zdposet.formats"),
        (["export", "-d", "m2"], "zdposet.formats"),
    ],
    ids=["info", "zdg", "export -d m2"],
)
def test_info_zdg_and_export_load_no_certificate_layer(tmp_path, command, own):
    # the parser reads its cap defaults, and info its yes/no text, from
    # complexes; only check imports cmcert.  info reads the order
    # clauses (lattice), zdg and export the text writers (formats)
    path = tmp_path / "b3.poset"
    path.write_text(generate("boolean_lattice", 3).to_text())
    argv = [command[0], str(path), *command[1:], "-o", str(tmp_path / "out")]
    assert package_modules(modules_loaded_by(argv)) == {
        "zdposet",
        "zdposet.cli",
        "zdposet.commands",
        "zdposet.complexes",
        "zdposet.errors",
        "zdposet.graphs",
        "zdposet.order",
        "zdposet.zdg",
        own,
    }


def test_gen_loads_no_heavy_module(tmp_path):
    out = str(tmp_path / "out")
    assert modules_loaded_by(["gen", "boolean_lattice", "3", "-o", out]) & HEAVY == set()


def test_sweep_loads_the_product_layer(tmp_path):
    path = tmp_path / "sizes.txt"
    path.write_text("2,2,2\n")
    out = str(tmp_path / "out")
    loaded = modules_loaded_by(["sweep", str(path), "-o", out])
    assert loaded & HEAVY == {"zdposet.product"}


def test_sweep_loads_no_homology(tmp_path):
    # no sweep row reaches the oracle; 3,3 takes the matching search
    path = tmp_path / "sizes.txt"
    path.write_text("2,2,2\n3,3\n2,3,4\n")
    out = str(tmp_path / "out")
    loaded = modules_loaded_by(["sweep", str(path), "-o", out])
    assert "zdposet.search" in loaded
    assert "zdposet.homology" not in loaded


def test_poset_and_zdg_imports_load_only_the_order_core():
    loaded = new_modules("import zdposet.poset, zdposet.zdg")
    assert package_modules(loaded) == {
        "zdposet",
        "zdposet.errors",
        "zdposet.order",
        "zdposet.poset",
        "zdposet.graphs",
        "zdposet.zdg",
    }


def test_package_import_loads_no_layer():
    # the package binds nothing but its dunders: each name is imported
    # from the module that defines it
    script = (
        "import zdposet\n"
        "code = ','.join(n for n in vars(zdposet) if not n.startswith('__')) or 0\n"
        "assert zdposet.__version__\n"
    )
    assert package_modules(new_modules(script)) == {"zdposet"}
    with pytest.raises(ImportError, match="cannot import name 'Poset'"):
        from zdposet import Poset  # noqa: F401


@pytest.mark.parametrize("route", ["boolean-certificate", "not-well-covered"])
def test_check_loads_neither_catalog_nor_search_nor_products(tmp_path, route):
    if route == "boolean-certificate":
        P = generate("boolean_lattice", 3)
    else:  # the graph is K_{1,2}
        P = direct_product([generate("chain", 2), generate("chain", 3)]).carrier
    path = tmp_path / "in.poset"
    path.write_text(P.to_text())
    out = tmp_path / "out"
    loaded = modules_loaded_by(["check", str(path), "-o", str(out)])
    assert f"[{route}]" in out.read_text()
    assert {"zdposet.poset", "zdposet.search", "zdposet.product"} & loaded == set()
    assert "zdposet.homology" in loaded


def test_check_on_a_very_well_covered_poset_loads_the_search(tmp_path):
    path = tmp_path / "c3c3.poset"
    path.write_text(direct_product([generate("chain", 3)] * 2).carrier.to_text())
    out = tmp_path / "out"
    loaded = modules_loaded_by(["check", str(path), "-o", str(out)])
    assert "very-well-covered: yes" in out.read_text()
    assert "[matching-search]" in out.read_text()
    assert "zdposet.search" in loaded
    assert {"zdposet.poset", "zdposet.product"} & loaded == set()


# argparse, and the two modules its message lookups pull in
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "{poset}"],
        ["zdg", "{poset}"],
        ["check", "{poset}"],
        ["check", "{poset}", "-v", "--max-vertices=30"],
        ["check", "-v", "{poset}"],  # options first: not the plain shape
        ["export", "{poset}", "-d", "m2"],
        ["export", "-dsingular", "{poset}"],
        ["sweep", "{sizes}"],
        ["gen", "chain", "3"],
        ["gen", "-o", "{out}", "chain", "3"],
    ],
    ids=" ".join,
)
def test_no_run_loads_argparse(tmp_path, argv):
    files = {"poset": tmp_path / "b3.poset", "sizes": tmp_path / "sizes.txt"}
    files["poset"].write_text(generate("boolean_lattice", 3).to_text())
    files["sizes"].write_text("2,2,2\n3,3\n")
    argv = [a.format(**files, out=tmp_path / "out") for a in argv]
    if "-o" not in argv:
        argv += ["-o", str(tmp_path / "out")]
    assert modules_loaded_by(argv) & ARGPARSE == set()


# the package source a check run may compile, in bytes: every module it
# loads is compiled in full, whether or not the run calls its code
CHECK_SOURCE_CAP = 50_000


def source_bytes(modules):
    package = Path(zdposet.__file__).resolve().parent
    return sum(
        (package / (m.partition(".")[2] or "__init__")).with_suffix(".py").stat().st_size
        for m in package_modules(modules)
    )


@pytest.mark.parametrize("route", ["boolean-certificate", "not-well-covered"])
def test_check_compiles_at_most_the_source_cap(tmp_path, route):
    if route == "boolean-certificate":
        P = generate("boolean_lattice", 3)
    else:  # the graph is K_{1,2}
        P = direct_product([generate("chain", 2), generate("chain", 3)]).carrier
    path = tmp_path / "in.poset"
    path.write_text(P.to_text())
    out = tmp_path / "out"
    loaded = modules_loaded_by(["check", str(path), "-o", str(out)])
    assert f"[{route}]" in out.read_text()
    assert {"zdposet.arguments", "zdposet.commands", "zdposet.formats", "zdposet.lattice"} & loaded == set()
    assert source_bytes(loaded) <= CHECK_SOURCE_CAP


def test_gen_loads_the_catalog(tmp_path):
    out = str(tmp_path / "out")
    loaded = modules_loaded_by(["gen", "chain", "3", "-o", out])
    assert "zdposet.poset" in loaded
    assert "zdposet.homology" not in loaded


def test_python_m_compiles_the_cli_once(tmp_path):
    # run as __main__, cli registers itself under its own name, so the
    # commands module imports no second copy of it
    path = tmp_path / "c3.poset"
    path.write_text(generate("chain", 3).to_text())
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "zdposet.cli", "info", str(path)],
        env={**os.environ, "PYTHONPATH": str(Path(zdposet.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("elements: 3")
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "zdposet.commands" in imported
    assert "zdposet.cli" not in imported


# the zdposet names the benchmark imports, by module (bench/workloads.py
# and bench/tracing.py); the benchmark is run on other commits, so these
# stay importable from these modules, also where bench/ is not checked out
BENCH_IMPORTS = {
    "zdposet.cmcert": {"DEFAULT_MAX_SEARCH_NODES", "is_cohen_macaulay"},
    "zdposet.complexes": {
        "DEFAULT_MAX_VERTICES",
        "independence_complex",
        "is_very_well_covered",
        "is_well_covered",
    },
    "zdposet.errors": {"SizeLimitExceededError", "TheoremContractError"},
    "zdposet.homology": {"DEFAULT_MAX_HOMOLOGY_VERTICES", "faces_by_dimension", "reisner_cm"},
    "zdposet.poset": {"generate", "direct_product", "parse_poset"},
    "zdposet.product": {
        "is_boolean_lattice",
        "j_single",
        "j_triple",
        "parse_size_vectors",
        "validate_factors",
        "well_covered_verdict",
    },
    "zdposet.zdg": {"zero_divisor_graph"},
}


def bench_imports():
    """Every ``from zdposet... import ...`` in the benchmark's sources, by module."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    found = {}
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zdposet"):
                found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_names_the_benchmark_imports_resolve():
    from zdposet.homology import DEFAULT_MAX_HOMOLOGY_VERTICES

    assert DEFAULT_MAX_HOMOLOGY_VERTICES == 20
    found = bench_imports()
    if found:  # the benchmark sources ship with the repository
        for module, names in BENCH_IMPORTS.items():
            assert names <= found[module]
    for module in BENCH_IMPORTS.keys() | found.keys():
        names = BENCH_IMPORTS.get(module, set()) | found.get(module, set())
        exec(f"from {module} import {', '.join(sorted(names))}", {})


RECORDS = {
    ConditionStatus: ("ok", "witness"),
    MyCertificate: ("pairs", "pair_names", "h", "conditions"),
    CmVerdict: ("status", "method", "certificate", "detail"),
    PredictedCounts: ("j_single_sizes", "j_triple_size"),
    TheoremCheck: ("boolean_lattice", "cm_status", "well_covered", "enumerated"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_named_tuples_with_the_same_fields(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORDS[record]


def test_record_shape():
    v = CmVerdict("CM", "x")
    assert (v.certificate, v.detail) == (None, "")
    assert v == ("CM", "x", None, "") and len(v) == 4 and v[0] == "CM"
    assert repr(v) == "CmVerdict(status='CM', method='x', certificate=None, detail='')"
    with pytest.raises(AttributeError):
        v.status = "NotCM"
    assert ConditionStatus(True).witness is None


def test_analysis_keeps_its_signature():
    G = zdposet.zdg.zero_divisor_graph(generate("boolean_lattice", 2))
    A = Analysis(G)
    assert (A.graph, A.max_vertices, A.max_homology_vertices) == (G, 40, 20)
    A = Analysis(G, 5, max_homology_vertices=6)
    assert (A.max_vertices, A.max_homology_vertices) == (5, 6)
    assert A.verdict is A.verdict
