"""What a subcommand loads, and the shape of the result records.

A ``zdposet`` run is mostly interpreter start-up and imports, so each
subcommand imports only the layers it runs: the product layer loads for
``sweep`` alone, and neither ``dataclasses`` nor ``json`` loads on the
way to a verdict.  The result records are named tuples.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdposet
from zdposet.cmcert import (
    Analysis,
    CmVerdict,
    ConditionStatus,
    MyCertificate,
    OrderingOutcome,
    Stratification,
)
from zdposet.homology import HomologyProfile
from zdposet.poset import generate
from zdposet.product import (
    BipartiteReport,
    EquivalenceReport,
    PredictedCounts,
)
from zdposet.zdg import LemmaReport

HEAVY = ("dataclasses", "json", "zdposet.product")


def modules_loaded_by(argv):
    """The modules among HEAVY that ``cli.main(argv)`` loads in a fresh
    interpreter, after checking that it exits 0."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from zdposet.cli import main\n"
        f"code = main({argv!r})\n"
        f"loaded = [m for m in {HEAVY!r} if m in set(sys.modules) - before]\n"
        "print(code, *loaded)\n"
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
    return loaded


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
    assert modules_loaded_by(argv) == []


def test_gen_loads_no_heavy_module(tmp_path):
    out = str(tmp_path / "out")
    assert modules_loaded_by(["gen", "boolean_lattice", "3", "-o", out]) == []


def test_sweep_loads_the_product_layer(tmp_path):
    path = tmp_path / "sizes.txt"
    path.write_text("2,2,2\n")
    out = str(tmp_path / "out")
    assert modules_loaded_by(["sweep", str(path), "-o", out]) == ["zdposet.product"]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from zdposet import *", namespace)
    assert set(zdposet.__all__) <= namespace.keys()
    assert zdposet.sweep_report is zdposet.product.sweep_report
    with pytest.raises(AttributeError, match="no_such_name"):
        zdposet.no_such_name


RECORDS = {
    ConditionStatus: ("ok", "witness"),
    MyCertificate: ("pairs", "pair_names", "h", "conditions"),
    Stratification: ("k", "strata", "b_hat", "facet"),
    OrderingOutcome: ("pairs", "cycle"),
    CmVerdict: ("status", "method", "certificate", "detail"),
    HomologyProfile: ("betti",),
    LemmaReport: ("ok", "violations"),
    PredictedCounts: ("j_single_sizes", "j_triple_size"),
    EquivalenceReport: ("statements", "value"),
    BipartiteReport: (
        "part_sizes",
        "complete_bipartite",
        "well_covered",
        "cm_status",
        "note",
    ),
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
    assert OrderingOutcome(None, (0, 1)).feasible is False
    assert HomologyProfile({0: 0, 1: 2}).vanishes_below(2) == 1


def test_analysis_keeps_its_signature():
    G = zdposet.zero_divisor_graph(generate("boolean_lattice", 2))
    A = Analysis(G)
    assert (A.graph, A.max_vertices, A.max_homology_vertices) == (G, 40, 20)
    assert A.max_search_nodes == 10**6
    A = Analysis(G, 5, max_homology_vertices=6, max_search_nodes=7)
    assert (A.max_vertices, A.max_homology_vertices, A.max_search_nodes) == (5, 6, 7)
    assert A.verdict is A.verdict
