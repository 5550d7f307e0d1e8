"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q

They run every workload, including any that ``BENCHMARK.json`` leaves
out, for one round in each mode (about a minute on two cores).  They
check the keys and units of the result line, the correctness gate and
the predicted dominant layer per workload.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = list(workloads.WORKLOADS)

# The layer each workload routes most of its time through, per the
# interaction list in bench/README.md.
PREDICTED_DOMINANT = {
    "boolean-check": "poset.boolean_s",
    "reisner-check": "homology.reisner_s",
    "product-sweep": "poset.boolean_s",
}


@functools.lru_cache(maxsize=None)
def bench_output(workload: str, trace: int) -> tuple[str, ...]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return tuple(done.stdout.splitlines())


def test_workloads_match_the_benchmark_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert set(PREDICTED_DOMINANT) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines = bench_output(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    stamp = json.loads(lines[0].split(" ", 1)[1])
    for key in ("commit", "python", "nproc", "cpu", "loadavg_start", "seed"):
        assert key in stamp


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_names_the_predicted_dominant_layer(workload):
    line = next(ln for ln in bench_output(workload, 1) if "dominant layer" in ln)
    assert f"dominant layer {PREDICTED_DOMINANT[workload]} " in line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload):
    metrics = json.loads(bench_output(workload, 0)[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.fixture
def scratch_dir():
    path = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", ["boolean-check", "product-sweep"])
def test_corrupted_golden_is_counted_as_a_failure(workload, scratch_dir):
    _, items = run.set_up(workload, 3, scratch_dir)
    goldens = run.load_goldens()
    if workload == "boolean-check":
        target = items[0]["golden"]
        goldens["check"][target] = goldens["check"][target].replace("yes", "no", 1)
        affected = 1
    else:
        target = items[0]["vectors"][0]
        goldens["sweep_rows"][target] += "\tx"
        affected = sum(target in it["vectors"] for it in items)
    _, attempted, failed, _ = run.measure_end_to_end(
        items, scratch_dir, 3, 0, goldens, lambda line: None, lambda: 1.0
    )
    assert attempted == len(items)
    assert failed == affected


def test_gate_rejects_exit_codes_and_inconsistent_checks():
    goldens = run.load_goldens()
    item = {"name": "random 1", "command": "check", "file": "x", "golden": None}
    ok = "poset: 3 elements, boolean: no\nconsistent: yes\n"
    assert run.failure(item, 0, ok, goldens) is None
    assert run.failure(item, 1, ok, goldens) == "exit code 1"
    assert run.failure(item, 0, ok.replace("yes", "no"), goldens) is not None
    unknown = dict(item, golden="no such item")
    assert run.failure(unknown, 0, ok, goldens).startswith("no golden")


def test_same_seed_gives_the_same_inputs(scratch_dir):
    def snapshot(seed, name):
        out = scratch_dir / name
        for w in WORKLOADS:
            workloads.write_inputs(w, seed, out / w)
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()}

    sys.path.insert(0, str(workloads.SRC))
    first, again, other = snapshot(5, "a"), snapshot(5, "b"), snapshot(6, "c")
    assert first == again
    assert first != other
    assert first.keys() == other.keys()


def test_run_fails_without_the_program_sources(scratch_dir):
    scratch_dir.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", scratch_dir)
    shutil.copytree(BENCH, scratch_dir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch_dir,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
