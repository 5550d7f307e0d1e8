"""Benchmark of the ``zdposet`` CLI: end-to-end latency, or a traced run.

    python3 bench/run.py --workload reisner-check --seed 1 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src`` directory, nothing needs installing.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report that starts with the run stamp.

``--trace 0`` times ``zdposet check`` / ``zdposet sweep`` as a user runs
them: one subprocess per invocation, one at a time (a closed loop with a
single client).  It runs the workload's items in whole rounds, each item
once per round in a seeded order, until ``--seconds`` have passed, so
every item contributes the same number of samples.

``--trace 1`` replays each item in-process instead, with one span around
every call into a layer (see ``tracing.py``), and reports the per-layer
metrics.  Work files go to ``.bench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
STARTUP_REPEATS = 7
INVOCATION_TIMEOUT_S = 60.0
# With 55-second runs every workload makes more than 100 invocations, so
# at least ten samples lie beyond the 90th percentile.
TAIL_PERCENTILE = 90
CLI_ENTRY = "import sys; from zdposet.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_s.p50": "s",
    f"cli_s.p{TAIL_PERCENTILE}": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
LAYER_SPANS = (
    "poset.parse",
    "poset.boolean",
    "zdg.graph",
    "complexes.facets",
    "cmcert.verdict",
    "homology.reisner",
    "product.validate",
    "product.jsets",
    "product.row",
)
LAYER_COUNTS = (
    "poset.elements",
    "zdg.vertices",
    "zdg.edges",
    "complexes.facets",
    "complexes.capped",
    "homology.calls",
    "homology.capped",
    "homology.early_exit",
    "homology.faces",
    "product.rows",
    "product.carrier_elements",
)


def stamp(args: argparse.Namespace) -> dict:
    """What explains noise on a shared machine, taken at the start of a run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree of its own."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str], cwd: Path, stdout=None, stderr=None):
    """Run one child to its exit: wall seconds, exit code and its own rusage.

    ``os.wait4`` blocks until the exit and returns the child's own
    rusage.  ``Popen.wait`` with a timeout would poll with sleeps of up to
    50 ms, which shows up as 50 ms steps in the times.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=cwd)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, proc.returncode, usage


def set_up(workload: str, seed: int, out: Path) -> tuple[float, list[dict]]:
    """Build the workload's inputs under ``out``: wall seconds and the manifest."""
    shutil.rmtree(out, ignore_errors=True)
    wall, code, _ = spawn(
        [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(out)],
        ROOT,
    )
    if code != 0:
        raise RuntimeError(f"input generation failed with exit code {code}")
    return wall, json.loads((out / "items.json").read_text(encoding="utf-8"))


def load_goldens() -> dict:
    return json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))


def expected_output(item: dict, goldens: dict) -> str | None:
    """The golden output of an item, or None for a random poset."""
    if item["command"] == "sweep":
        rows = [goldens["sweep_rows"][v] for v in item["vectors"]]
        return "\n".join([goldens["sweep_header"], *rows]) + "\n"
    if item["golden"] is None:
        return None
    return goldens["check"][item["golden"]]


def failure(item: dict, returncode: int, stdout: str, goldens: dict) -> str | None:
    """Why an invocation failed, or None when it passed the correctness gate."""
    if returncode != 0:
        return f"exit code {returncode}"
    if item["command"] == "check" and "consistent: yes" not in stdout.splitlines():
        return "no 'consistent: yes' line"
    try:
        expected = expected_output(item, goldens)
    except KeyError as exc:
        return f"no golden for {exc.args[0]!r}"
    if expected is not None and stdout != expected:
        return "output differs from the golden"
    return None


def invoke(argv: list[str], out_dir: Path) -> tuple[float, int, str, float]:
    """One CLI subprocess: wall seconds, exit code, stdout, max RSS in MiB."""
    with open(out_dir / "stdout.txt", "w+b") as out, open(out_dir / "stderr.txt", "wb") as err:
        wall, code, usage = spawn([sys.executable, "-c", CLI_ENTRY, *argv], out_dir, out, err)
        out.seek(0)
        stdout = out.read().decode("utf-8", errors="replace")
    return wall, code, stdout, usage.ru_maxrss / 1024


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def measure_end_to_end(items, in_dir: Path, seed: int, seconds: float, goldens: dict, log,
                       set_up_again):
    """Closed loop of CLI subprocesses, in whole rounds for ``seconds``.

    ``set_up_again()`` repeats the set-up and returns its wall seconds.
    The loop calls it between rounds, spread over the run so that the
    set-up times sample the machine as the invocations do, and keeps it
    out of the loop's time.  Returns the metrics, the attempted and failed
    counts, and one ``[item, wall s, max RSS MiB]`` record per invocation.
    """
    warm = items[0]
    invoke([warm["command"], warm["file"]], in_dir)  # compiles the bytecode
    rng = random.Random(f"order:{seed}")
    samples, setups, failed = [], [], 0
    start, paused = time.perf_counter(), 0.0
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            wall, code, stdout, peak = invoke([item["command"], item["file"]], in_dir)
            samples.append([item["name"], wall, peak])
            why = failure(item, code, stdout, goldens)
            if why is not None:
                failed += 1
                log(f"FAILED {item['name']}: {why}")
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            due = SETUP_REPEATS
        else:
            due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * elapsed / seconds))
        while len(setups) < due:
            t0 = time.perf_counter()
            setups.append(set_up_again())
            paused += time.perf_counter() - t0
        if elapsed >= seconds:
            break
    walls = [wall for _, wall, _ in samples]
    tail = f"cli_s.p{TAIL_PERCENTILE}"
    metrics = {
        "setup_s": statistics.median(setups),
        "cli_s.p50": percentile(walls, 50),
        tail: percentile(walls, TAIL_PERCENTILE),
        "items_per_s": (len(walls) - failed) / elapsed,
        "peak_rss_mb": max(peak for _, _, peak in samples),
    }
    beyond = sum(w > metrics[tail] for w in walls)
    log(f"{len(walls)} invocations in {elapsed:.1f} s; {tail} has {beyond} samples beyond it")
    log(f"fail_ratio {failed / len(walls):g} ({failed} of {len(walls)})")
    log("setup s: " + json.dumps([round(t, 4) for t in setups]))
    by_item: dict[str, list[float]] = {}
    for name, wall, _ in samples:
        by_item.setdefault(name, []).append(wall)
    log("median s per item: " + json.dumps(
        {name: round(statistics.median(w), 4) for name, w in by_item.items()}
    ))
    return metrics, len(walls), failed, samples


def _self_times(rounds: list[list[list]]) -> dict[str, float]:
    """Seconds per span name, minus the part covered by child spans.

    Span ids restart in every round, so each round is taken on its own.
    """
    totals: dict[str, float] = {}
    for spans in rounds:
        own = {}
        for _, sid, parent, name, start, end in spans:
            own[sid] = [name, end - start]
            if parent is not None:
                own[parent][1] -= end - start
        for name, ns in own.values():
            totals[name] = totals.get(name, 0.0) + ns / 1e9
    return totals


def replay_mismatch(item: dict, facts: list[str], cli_out: str, goldens: dict) -> str | None:
    """How the replay's facts (check) or rows (sweep) disagree with the CLI, if they do."""
    if item["command"] == "sweep":
        if facts != expected_output(item, goldens).splitlines()[1:]:
            return "replayed rows differ from the golden"
        return None
    lines = cli_out.splitlines()
    missing = [f for f in facts if f not in lines]
    return f"replay disagrees with the CLI on {missing[0]!r}" if missing else None


def measure_traced(items, in_dir: Path, seed: int, seconds: float, goldens: dict, log):
    """In-process rounds: CLI main, traced replay and untraced replay per item.

    Returns the per-layer metrics, the attempted and failed counts, and the
    spans of each round.
    """
    sys.path.insert(0, str(SRC))
    import tracing
    from zdposet import cli

    startup = [
        spawn([sys.executable, "-c", "import zdposet.cli"], ROOT)[0]
        for _ in range(STARTUP_REPEATS)
    ]

    texts = {it["name"]: (in_dir / it["file"]).read_text(encoding="utf-8") for it in items}
    per_round, counts, spans_by_round = [], None, []
    attempted = failed = 0
    flip = False
    order = list(items)
    round_rng = random.Random(f"order:{seed}")
    start = time.perf_counter()
    while not per_round or time.perf_counter() - start < seconds:
        round_rng.shuffle(order)
        traced, untraced = tracing.Tracer(True), tracing.Tracer(False)
        main_s = self_s = 0.0
        wall = {True: 0.0, False: 0.0}
        for item in order:
            attempted += 1
            replay = tracing.replay_check if item["command"] == "check" else tracing.replay_sweep
            first = len(traced.spans)
            try:
                buf = io.StringIO()
                gc.collect()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([item["command"], str(in_dir / item["file"])])
                item_main = time.perf_counter() - t0
                why = failure(item, code, buf.getvalue(), goldens)
                for tracer in ((traced, untraced) if flip else (untraced, traced)):
                    tracer.item = item["name"]
                    gc.collect()
                    t0 = time.perf_counter()
                    facts = replay(tracer, texts[item["name"]])
                    wall[tracer.enabled] += time.perf_counter() - t0
                why = why or replay_mismatch(item, facts, buf.getvalue(), goldens)
            except Exception as exc:  # a crash fails the item, not the run
                item_main, why = 0.0, f"raised {exc!r}"
            flip = not flip
            main_s += item_main
            roots = sum(e - s for _, _, p, _, s, e in traced.spans[first:] if p is None)
            self_s += item_main - roots / 1e9
            if why is not None:
                failed += 1
                log(f"FAILED {item['name']}: {why}")
        if counts is None:
            counts = traced.counts
        elif traced.counts != counts:
            failed += 1
            log("FAILED counters differ between rounds")
        by_name: dict[str, float] = {}
        for _, _, _, name, s, e in traced.spans:
            by_name[name] = by_name.get(name, 0.0) + (e - s) / 1e9
        by_name["cli.main"] = main_s
        by_name["cli.self"] = self_s
        by_name["trace.overhead"] = wall[True] - wall[False]
        per_round.append(by_name)
        spans_by_round.append(traced.spans)

    metrics: dict[str, float] = {}
    for name in (*LAYER_SPANS, "cli.main", "cli.self", "trace.overhead"):
        metrics[f"{name}_s"] = statistics.median(r.get(name, 0.0) for r in per_round)
    metrics["cli.startup_s"] = statistics.median(startup)
    for name in LAYER_COUNTS:
        metrics[name] = counts[name]
    for route in tracing.ROUTES:
        metrics[f"cmcert.route.{route}"] = counts[f"cmcert.route.{route}"]
    verdicts = counts["cmcert.verdicts"]
    metrics["cmcert.inconclusive_ratio"] = (
        counts["cmcert.inconclusive"] / verdicts if verdicts else 0.0
    )
    own = _self_times(spans_by_round)
    dominant = max(own, key=own.get)
    log(
        f"{len(per_round)} traced rounds of {len(items)} items; "
        f"dominant layer {dominant}_s ({own[dominant] / len(per_round):.3f} s "
        f"self time per round)"
    )
    return metrics, attempted, failed, spans_by_round


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zdposet" / "cli.py").is_file():
        print(f"error: no zdposet sources under {SRC}", file=sys.stderr)
        return 2
    run_stamp = stamp(args)
    report: list[str] = []

    def log(line: str) -> None:
        report.append(line)
        print(line, flush=True)

    log("stamp " + json.dumps(run_stamp))
    in_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spare = in_dir.with_name(in_dir.name + "-again")
    try:
        _, items = set_up(args.workload, args.seed, in_dir)
        goldens = load_goldens()
        if args.trace:
            metrics, attempted, failed, records = measure_traced(
                items, in_dir, args.seed, args.seconds, goldens, log
            )
        else:
            metrics, attempted, failed, records = measure_end_to_end(
                items, in_dir, args.seed, args.seconds, goldens, log,
                lambda: set_up(args.workload, args.seed, spare)[0],
            )
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)
    run_stamp["loadavg_end"] = os.getloadavg()
    log("loadavg_end " + json.dumps(run_stamp["loadavg_end"]))
    for name, value in metrics.items():
        log(f"  {name:34s} {value:14.6f} {unit_of(name)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (out / name).write_text(
        json.dumps(
            {"stamp": run_stamp, "report": report, "result": result, "records": records}
        ),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
