"""Steadiness check: repeat each workload over several seeds and compare spreads.

    python3 bench/steadiness.py --runs 10 --first-seed 1
    python3 bench/steadiness.py --runs 10 --first-seed 1000   # held-out seeds

Runs ``bench/run.py --trace 0`` once per (workload, seed), the workloads
interleaved, and prints for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  A spread is steady below a third of the bound.
``setup_s`` is shown but not judged: its bound limits the change of its
median between commits, not its spread.  ``--out`` also writes the
summary as JSON, the form of an entry in ``bench/history.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import ROOT, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(lines[0].split(" ", 1)[1])
    return result


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        judged = m["name"] != "setup_s"
        out[m["name"]] = {
            "unit": m["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": m["bound"],
            "steady": (spread <= m["bound"] / 3) if judged else None,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=names)
    ap.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            r = run_once(w, seed, args.seconds)
            results[w].append(r)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n} {v['value']:.4g}" for n, v in r["metrics"].items()
            ), flush=True)

    summary = {
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "seconds": args.seconds,
        "stamp": results[args.workloads[0]][0]["stamp"],
        "failed": sum(r["failed"] for rs in results.values() for r in rs),
        "attempted": sum(r["attempted"] for rs in results.values() for r in rs),
        "workloads": {
            w: summarize(rs, spec["end_to_end"]) for w, rs in results.items()
        },
    }
    unsteady = 0
    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w, table in summary["workloads"].items():
        for name, s in table.items():
            verdict = {True: "steady", False: "UNSTEADY", None: "(not judged)"}[s["steady"]]
            unsteady += s["steady"] is False
            print(f"{w:15s} {name:12s} {s['median']:10.4f} {s['q1']:10.4f} "
                  f"{s['q3']:10.4f} {s['spread']:7.3f} {s['bound']:6.2f} "
                  f"{s['unit']:4s} {verdict}")
    print(f"failed {summary['failed']} of {summary['attempted']} invocations")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if unsteady or summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
