"""List the package lines that no CLI run executes.

Runs every subcommand in-process under the standard library's ``trace``
statement counter, over the inputs the project already pins:

- ``check`` on every item of ``bench/goldens.json`` and ``sweep`` over
  its rows;
- ``info`` on every poset of ``tests/data/info_goldens.json`` and
  ``check -v`` on every case of ``tests/data/verbose_goldens.json``;
- ``zdg`` and both ``export`` dialects on figure 1 and the catalog;
- each cap flag set low, files that fail to parse, refused ``sweep``
  lines and ``gen`` parameters;
- the benchmark's set-up (``bench/workloads.py``) for every workload,
  then every item it writes.

It then prints, per module, the executable lines that never ran.  Lines
inside a ``raise`` statement, an ``except`` handler or an ``assert``
message are counted but not listed: they are error paths and contract
traps, which the tests reach.  Run it from anywhere; it takes about
ten seconds:

    python3 tools/trace_coverage.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "zdposet"


def build(name: str):
    """``boolean_lattice 5``, or the carrier of ``chain 2 x atom_coatom 4``."""
    from zdposet.poset import direct_product, generate

    factors = [generate(spec.split()[0], int(spec.split()[1])) for spec in name.split(" x ")]
    return factors[0] if len(factors) == 1 else direct_product(factors).carrier


def drive(tmp: Path) -> None:
    """Every run, with stdout and stderr discarded."""
    from zdposet.cli import main

    def run(*argv: str) -> None:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(list(argv))
        except SystemExit:  # argparse refusing its arguments
            pass
        except Exception as exc:  # a crash: report it, and go on
            print(f"{argv[0]} escaped with {type(exc).__name__}: {exc}"[:200], file=sys.stderr)

    def write(name: str, text: str) -> str:
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    goldens = json.loads((ROOT / "bench" / "goldens.json").read_text(encoding="utf-8"))
    for name in sorted(goldens["check"]):
        run("check", write("golden.poset", build(name).to_text()))
    rows = "# the golden rows\n\n" + "".join(k + "\n" for k in goldens["sweep_rows"])
    run("sweep", write("rows.txt", rows), "-o", str(tmp / "rows.tsv"))

    data = ROOT / "tests" / "data"
    for case in json.loads((data / "info_goldens.json").read_text(encoding="utf-8")).values():
        run("info", write("info.poset", case["poset"]))
    for name in json.loads((data / "verbose_goldens.json").read_text(encoding="utf-8")):
        run("check", write("verbose.poset", build(name).to_text()), "-v")

    figure1 = str(data / "figure1.poset")
    posets = [figure1, write("b3.poset", build("boolean_lattice 3").to_text())]
    posets.append(write("c3.poset", build("chain 3").to_text()))
    for path in posets:
        run("zdg", path)
        run("info", path)
        for dialect in ("m2", "singular"):
            run("export", path, "-d", dialect)

    # caps: each one set low enough to be hit
    c3c3 = write("c3c3.poset", build("chain 3 x chain 3").to_text())
    b4 = write("b4.poset", build("boolean_lattice 4").to_text())
    for path in (figure1, c3c3, b4):
        run("check", path, "--max-vertices", "5")
        run("check", path, "--max-homology-vertices", "5")
        run("check", path, "--max-search-nodes", "1")
        run("check", path, "-v", "--max-homology-vertices", "5")
    run("check", c3c3, "--max-vertices", "0")
    run("sweep", write("capped.txt", "2,2,2\n3,3\n21,21\n"), "--max-vertices", "12")

    # files that are refused, and a missing one
    for text in ("", "poset v2\n", "poset v1\nelem a\nelem a\n", "poset v1\nle a b\n",
                 "poset v1\nelem a\nelem b\nle a b\nle b a\n", "poset v1\nelem a\nelem b\n"):
        run("check", write("bad.poset", text))
    (tmp / "binary.poset").write_bytes(b"\xff\xfe poset")
    for command in ("check", "info", "sweep"):
        run(command, str(tmp / "binary.poset"))
        run(command, str(tmp / "missing"))
    for text in ("2\n", "2,1\n", "x,2\n", "1025,1025\n", "9" * 5000 + ",2\n", "3,2\n"):
        run("sweep", write("bad.txt", text))
    for name, param in (("boolean_lattice", "3"), ("chain", "4"), ("atom_coatom", "3"),
                        ("m_atoms", "3"), ("chain", "1"), ("boolean_lattice", "11"), ("chain", "0"),
                        ("nope", "2")):
        run("gen", name, param)

    # the benchmark's set-up, then the items it writes
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        out = tmp / workload
        for item in workloads.write_inputs(workload, 0, out):
            run(item["command"], str(out / item["file"]))


def executable_lines(path: Path) -> dict[int, str]:
    """Each line with bytecode, mapped to the outermost function on it."""
    owner: dict[int, str] = {}

    def walk(code, name: str) -> None:
        for _, _, line in code.co_lines():
            if line:  # module code starts on a line 0
                owner.setdefault(line, name)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, getattr(const, "co_qualname", const.co_name))

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return owner


def error_path_lines(path: Path) -> set[int]:
    """Lines of ``raise`` statements, ``except`` handlers and assert messages."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            span = node
        elif isinstance(node, ast.Assert) and node.msg is not None:
            span = node.msg
        else:
            continue
        lines.update(range(span.lineno, span.end_lineno + 1))
    return lines


def main() -> int:
    sys.path.insert(0, str(SRC))
    if any(name.split(".")[0] == "zdposet" for name in sys.modules):
        raise SystemExit("zdposet is already imported: its import-time lines would not count")
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(drive, Path(tmp))
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    total = unexecuted = errors = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = executable_lines(path)
        error_lines = error_path_lines(path)
        missed = sorted(line for line in owner if (path.resolve(), line) not in ran)
        total += len(owner)
        unexecuted += len(missed)
        errors += sum(line in error_lines for line in missed)
        listed = [line for line in missed if line not in error_lines]
        if not listed:
            continue
        print(path.relative_to(SRC))
        source = path.read_text(encoding="utf-8").splitlines()
        for line in listed:
            print(f"  {line:4d}  {owner[line]:<36} {source[line - 1].strip()}")
    print(
        f"{total} executable lines, {unexecuted} never ran: {errors} on error "
        f"paths, {unexecuted - errors} listed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
