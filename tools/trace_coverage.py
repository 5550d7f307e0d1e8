"""List the package lines that no CLI run executes.

Runs every subcommand in-process under the standard library's ``trace``
statement counter, over the inputs the project already pins:

- ``check`` on every item of ``bench/goldens.json`` and ``sweep`` over
  its rows;
- ``info`` on every poset of ``tests/data/info_goldens.json`` and
  ``check -v`` on every case of ``tests/data/verbose_goldens.json``,
  catalog names and stored poset text alike;
- ``zdg`` and both ``export`` dialects on figure 1 and the catalog;
- each cap flag set low, files that fail to parse, refused ``sweep``
  lines and ``gen`` parameters;
- ``check`` on both outcomes of the matching route, twins and a
  certificate, and on a matching that re-matches along alternating paths;
- argument lists that are not the plain shape, usage errors and ``-h``;
- the benchmark's set-up (``bench/workloads.py``) for every workload,
  then every item it writes.

It then prints, per module, the executable lines that never ran.  Lines
inside a ``raise`` statement, an ``except`` handler or an ``assert``
message are counted but not listed: they are error paths and contract
traps, which the tests reach.

Last, it runs the runs of each subcommand again in a fresh interpreter
under ``sys.setprofile`` and prints the kB of package source they load,
and the kB in functions that none of them calls, with those functions by
module: code that every run of the subcommand compiles and none runs.
Run it from anywhere; it takes about ten seconds:

    python3 tools/trace_coverage.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "zdposet"


def whiskers() -> str:
    """The Boolean lattice on three atoms plus e, a second upper bound of
    the atoms below 1: not Boolean, and its graph is a triangle a1 a2 a3
    with a whisker c_i on each a_i, numbered so that the matching route's
    first facet is {a1, c2, c3}, and c1, matched first, holds a1 against
    a2 and a3."""
    lines = ["poset v1", *(f"elem {e}" for e in "0 a1 c2 c3 c1 a2 a3 e 1".split())]
    lines += [f"le 0 a{i}" for i in (1, 2, 3)]
    for top, atoms in {"c1": "a2 a3", "c2": "a1 a3", "c3": "a1 a2", "e": "a1 a2 a3"}.items():
        lines += [f"le {a} {top}" for a in atoms.split()] + [f"le {top} 1"]
    return "\n".join(lines) + "\n"


def build(name: str):
    """``boolean_lattice 5``, or the carrier of ``chain 2 x atom_coatom 4``."""
    from zdposet.poset import direct_product, generate

    factors = [generate(spec.split()[0], int(spec.split()[1])) for spec in name.split(" x ")]
    return factors[0] if len(factors) == 1 else direct_product(factors).carrier


def prepare(tmp: Path) -> list[list[str]]:
    """Write every input under ``tmp``; return the argument lists of the runs."""
    runs: list[list[str]] = []

    def run(*argv: str) -> None:
        runs.append(list(argv))

    def write(name: str, text: str) -> str:
        path = tmp / f"{len(runs)}-{name}"
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
    verbose = json.loads((data / "verbose_goldens.json").read_text(encoding="utf-8"))
    for name, case in verbose.items():
        text = case.get("poset") or build(name).to_text()
        run("check", write("verbose.poset", text), "-v")

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
        run("check", path, "-v", "--max-homology-vertices", "5")
    run("check", c3c3, "--max-vertices", "0")
    # both outcomes of the matching route: twins (chain 3 x chain 3, the
    # graph C_4) and a certificate (0 < a, b < c < 1, the graph one edge),
    # and a matching that re-matches along alternating paths
    run("check", c3c3)
    run("check", write("edge.poset", "poset v1\nelem 0\nelem a\nelem b\nelem c\nelem 1\n"
                       "le 0 a\nle 0 b\nle a c\nle b c\nle c 1\n"))
    run("check", write("whiskers.poset", whiskers()))
    run("sweep", write("capped.txt", "2,2,2\n3,3\n21,21\n"), "--max-vertices", "12")

    # files that are refused, and a missing one
    for text in ("", "poset v2\n", "poset v1\nelem a\nelem a\n", "poset v1\nle a b\n",
                 "poset v1\nelem a\nelem b\nle a b\nle b a\n", "poset v1\nelem a\nelem b\n",
                 "poset v1\n" + "".join(f"elem e{i}\n" for i in range(1025))):
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

    # argument lists that are not the plain shape, usage errors and help
    for argv in (
        ["check", "-v", figure1], ["check", "-vo", str(tmp / "out"), figure1],
        ["export", "-dm2", figure1], ["gen", "-o", str(tmp / "gen.poset"), "chain", "3"],
        ["gen", "--", "chain", "3"], ["check", figure1, "--workers", "2"], ["check"],
        ["gen", "chain", "x"], ["export", figure1, "-d", "maple"], ["check", "-vx", figure1],
        ["check", figure1, "-o"], ["check", "-h"], ["export", "--help"], ["-h"], ["frob"],
    ):
        run(*argv)

    # the benchmark's set-up, then the items it writes
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        out = tmp / workload
        for item in workloads.write_inputs(workload, 0, out):
            run(item["command"], str(out / item["file"]))
    return runs


def run_all(runs: list[list[str]]) -> None:
    """Every run, in-process, with stdout and stderr discarded."""
    from zdposet.cli import main

    for argv in runs:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        except SystemExit:  # a usage error, or -h
            pass
        except Exception as exc:  # a crash: report it, and go on
            print(f"{argv[0]} escaped with {type(exc).__name__}: {exc}"[:200], file=sys.stderr)


def drive(tmp: Path) -> list[list[str]]:
    runs = prepare(tmp)
    run_all(runs)
    return runs


def loads(runs: list[list[str]]) -> dict:
    """Run ``runs`` in a fresh interpreter: the package files it loads, and
    the (file, first line) of every function it calls."""
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r}); sys.path.insert(0, {str(ROOT / 'tools')!r})\n"
        "called = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n"
        "sys.setprofile(profile)\n"
        "import trace_coverage\n"
        f"trace_coverage.run_all({runs!r})\n"
        "sys.setprofile(None)\n"
        "files = sorted({m.__file__ for n, m in sys.modules.items() if n.split('.')[0] == 'zdposet'})\n"
        "print(json.dumps({'files': files, 'called': sorted(called)}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def uncalled_functions(path: Path, called: set) -> list[tuple[str, int]]:
    """(qualified name, source bytes) of each function in ``path`` that no
    run called, outermost only: a function nested in one is counted with it."""
    source = path.read_bytes()
    starts = [0]
    for line in source.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)
    out: list[tuple[str, int]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if (str(path), first) not in called:
                    out.append((prefix + child.name, starts[child.end_lineno] - starts[first - 1]))
                    continue
            name = prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix
            walk(child, name)

    walk(ast.parse(source), "")
    return out


def load_report(runs: list[list[str]]) -> None:
    """Per subcommand, over all of its runs: the kB of package source it
    loads, and the kB in the functions that none of its runs call."""
    from zdposet.cli import COMMANDS

    print("\nsource each subcommand loads (kB), and what of it no run of it calls")
    for command in sorted(COMMANDS):
        mine = [argv for argv in runs if argv[0] == command]
        result = loads(mine)
        called = {tuple(c) for c in result["called"]}
        paths = [Path(f) for f in result["files"]]
        size = sum(p.stat().st_size for p in paths)
        idle = {p: uncalled_functions(p, called) for p in paths}
        idle_size = sum(b for funcs in idle.values() for _, b in funcs)
        print(f"{command:7} {size / 1000:5.1f} kB loaded, {idle_size / 1000:4.1f} kB in uncalled "
              f"functions ({len(mine)} runs)")
        for p, funcs in idle.items():
            if funcs:
                names = ", ".join(f"{n} {b / 1000:.1f}" for n, b in sorted(funcs, key=lambda f: -f[1]))
                print(f"          {p.stem}: {names}")


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
        runs = tracer.runfunc(drive, Path(tmp))
        ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
        report_lines(ran)
        load_report(runs)
    return 0


def report_lines(ran: set) -> None:
    """Per module, the executable lines that no run executed."""
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


if __name__ == "__main__":
    sys.exit(main())
