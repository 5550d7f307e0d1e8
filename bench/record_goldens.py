"""Record the golden CLI outputs the benchmark checks every invocation against.

    python3 bench/record_goldens.py

Runs ``zdposet check`` on every catalog and product item (unshuffled)
and ``zdposet sweep`` over every sweep vector, in-process, and writes
``bench/goldens.json``.  Re-record only when a change is meant to alter
CLI output; the ROADMAP asks for output to stay byte for byte the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import workloads
from workloads import ROOT, SRC


def _cli(argv: list[str]) -> str:
    from zdposet import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    if code != 0 or (argv[0] == "check" and "consistent: yes" not in out.splitlines()):
        raise SystemExit(f"refusing to record a failing run of {argv}:\n{out}")
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check = {}
        specs = workloads.BOOLEAN_CHECK + workloads.REISNER_CM + workloads.REISNER_NOT_CM
        for spec in specs:
            path = work / "item.poset"
            path.write_text(workloads.build(spec).to_text(), encoding="utf-8")
            check[workloads.spec_name(spec)] = _cli(["check", str(path)])
        vectors = workloads.SWEEP_HEAVY + workloads.SWEEP_LIGHT
        path = work / "sizes.txt"
        path.write_text("".join(workloads.vector_key(v) + "\n" for v in vectors))
        header, *rows = _cli(["sweep", str(path)]).splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    goldens = {
        "check": check,
        "sweep_header": header,
        "sweep_rows": {workloads.vector_key(v): row for v, row in zip(vectors, rows)},
    }
    out = Path(workloads.__file__).with_name("goldens.json")
    out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
