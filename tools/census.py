#!/usr/bin/env python3
"""Line census: which lines of ``src/repro`` does no gate execute?

    python3 tools/census.py        # or: make census

Every gate below runs in its own interpreter under one startup tracer (a
``sitecustomize`` module on ``PYTHONPATH``) that records each
``(file, line)`` executed in a ``src/repro`` frame and dumps the set when
the interpreter exits.  The gates are the ones ``make check`` runs, the
two smokes, and each perf-ledger workload once, traced (a traced ledger
run is the only caller of ``Observatory.span_totals``); the ledger
workers are started here directly, because ``bench-ledger/run.py``
resets ``PYTHONPATH`` and so would drop the tracer.

The executable lines of a module are the line numbers of its compiled
code objects (``compile`` + ``co_lines``), less each function's own
``def`` line and the line 0 of a module's prologue.  ``CENSUS.json``
holds, per module, the executable line count, the never-run lines, and
the definitions none of whose body lines ran.  Its ``detectors`` section
lists every corruption detector in src -- each ``report.error`` /
``report.frame_error`` call and each ``raise CorruptHeapError`` /
``raise HeapCorruptionError`` -- with whether a gate executed it, and
totals per kind.  A definition is *exempt*
when it is a ``__repr__``, a hook default whose body is only a
docstring, ``pass``, ``...`` or ``raise NotImplementedError``, or on
:data:`EXEMPT` with a reason.  Exit status 1 when a gate fails or a
definition that is not exempt never ran.

Output is repo-relative and sorted, and the gates are pinned
(``PYTHONHASHSEED=0``, ``--hypothesis-seed=0``, no pytest cache), so two
runs write the same file.  Nothing else is written into the checkout:
every gate's output goes to a temporary directory.  Traced code runs
about six times slower: the census takes about 13 minutes on two cores,
so it runs per anchor, not in ``make check``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
CENSUS = REPO_ROOT / "CENSUS.json"
JOBS = 2

#: Definitions no gate executes, kept on purpose: qualified name (as
#: ``src/repro/pkg/module.py:Qual.name``) -> why.
EXEMPT: Dict[str, str] = {}

#: Installed as ``sitecustomize`` in every gate's interpreter.  Code
#: objects are keyed by ``id`` (a code object hashes by value, which is
#: slow) and kept alive, so an id is never reused.  Each traced call gets
#: a line tracer bound to its code object's line set; a code object
#: whose every line has been seen is not traced again, so hot loops stop
#: paying for the tracer.
TRACER = '''
import atexit, json, os, sys, threading

_ROOT = os.environ["CENSUS_SRC"] + os.sep
_OUT = os.environ["CENSUS_OUT"]
_codes = {}


def _entry(code):
    seen = want = None
    if code.co_filename.startswith(_ROOT):
        want = {line for _s, _e, line in code.co_lines()
                if line and line != code.co_firstlineno}
        seen = set()
    entry = _codes[id(code)] = (code, seen, want, len(want or ()))
    return entry


def _call(frame, event, arg):
    code = frame.f_code
    entry = _codes.get(id(code)) or _entry(code)
    seen = entry[1]
    if seen is None or (len(seen) >= entry[3] and entry[2] <= seen):
        return None
    add = seen.add

    def local(frame, event, arg):
        add(frame.f_lineno)
        return local
    return local


def _dump():
    sys.settrace(None)
    lines = {}
    for code, seen, _want, _n in list(_codes.values()):
        if seen:
            lines.setdefault(code.co_filename, set()).update(seen)
    path = os.path.join(_OUT, "%d-%d.json" % (os.getpid(), id(lines)))
    with open(path, "w") as out:
        json.dump({name: sorted(found) for name, found in lines.items()},
                  out)


if os.environ.get("CENSUS_HYPOTHESIS"):
    # Traced code runs several times slower: no deadlines or timing
    # health checks, and no replay of stored examples, so a run depends
    # on the seed alone.
    from hypothesis import HealthCheck, settings
    settings.register_profile("census", deadline=None, database=None,
                              suppress_health_check=list(HealthCheck))
    settings.load_profile("census")

atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def gates(tmp: Path) -> List[Tuple[str, List[str]]]:
    """(name, argv) of every gate; argv runs with the repo as cwd."""
    py = sys.executable
    workloads = [w["name"] for w in json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [
        ("tier-1", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--hypothesis-seed=0"]),
        ("sweep-fast", [py, "-m", "repro.faults.sweep_all", "--fast"]),
        ("experiments", [py, "-m", "repro.bench"]),
        ("analyze", [py, "-m", "repro.analysis", "--closure-schema",
                     "--static-order", "--assumptions",
                     "analysis-assumptions.json", "--baseline",
                     "analysis-baseline.json"]),
        ("elision-report", [py, "-m", "repro.bench.elision_report",
                            "--out", str(tmp / "ELISION_REPORT.json")]),
        ("fleet-smoke", [py, "-m", "repro.fleet.smoke"]),
        ("concurrent-smoke", [py, "-c", "from repro.workloads.concurrent_kv"
                              " import main; raise SystemExit(main())"]),
        ("test-ledger", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "bench-ledger/tests"]),
    ] + [
        (f"ledger:{w}", [py, "bench-ledger/worker.py", "--workload", w,
                         "--trace", "1", "--reps", "1",
                         "--workdir", str(tmp / f"ledger-{w}")])
        for w in workloads
    ]


def run_gate(name: str, argv: List[str], tracer_dir: Path, out: Path,
             tmp: Path) -> Tuple[str, int, str]:
    """Run one gate; (name, exit status, the tail of its output)."""
    scratch = tmp / ("tmp-" + name.replace(":", "-"))
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=f"{tracer_dir}{os.pathsep}{SRC}",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(scratch), CENSUS_SRC=str(SRC / "repro"),
               CENSUS_OUT=str(out))
    if "pytest" in argv:
        env["CENSUS_HYPOTHESIS"] = "1"
    done = subprocess.run(argv, cwd=REPO_ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return name, done.returncode, "\n".join(done.stdout.splitlines()[-15:])


def executable_lines(path: Path) -> Set[int]:
    lines: Set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        skip = code.co_firstlineno if code.co_name != "<module>" else None
        lines.update(line for _s, _e, line in code.co_lines()
                     if line and line != skip)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _is_hook_default(node: ast.AST) -> bool:
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def definitions(tree: ast.AST):
    """(qualname, def node) of every function, in source order."""
    found = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return sorted(found, key=lambda item: item[1].lineno)


#: A detector is a ``report.<one of these>(...)`` call ...
DETECTOR_CALLS = ("error", "frame_error")
#: ... or a ``raise`` of one of these exception classes.
DETECTOR_RAISES = ("CorruptHeapError", "HeapCorruptionError")


def detector_sites(tree: ast.AST) -> List[Tuple[int, int, str]]:
    """(first line, last line, kind) of every detector in a module."""
    sites = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DETECTOR_CALLS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "report"):
            sites.append((node.lineno, node.end_lineno,
                          f"report.{node.func.attr}"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in DETECTOR_RAISES:
                sites.append((node.lineno, node.end_lineno,
                              f"raise {exc.id}"))
    return sorted(sites)


def _ranges(lines: List[int]) -> List[str]:
    spans: List[List[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return [str(a) if a == b else f"{a}-{b}" for a, b in spans]


def census(executed: Dict[str, Set[int]]) -> dict:
    modules = {}
    totals = {"executable": 0, "never_run": 0}
    dead: List[str] = []
    sites: Dict[str, bool] = {}
    kinds: Dict[str, Dict[str, int]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        lines = executable_lines(path)
        ran = executed.get(str(path), set()) & lines
        never = sorted(lines - ran)
        tree = ast.parse(path.read_text())
        for first, last, kind in detector_sites(tree):
            hit = any(first <= line <= last for line in ran)
            sites[f"{rel}:{first} {kind}"] = hit
            count = kinds.setdefault(kind, {"sites": 0, "ran": 0})
            count["sites"] += 1
            count["ran"] += hit
        unexecuted = {}
        for qualname, node in definitions(tree):
            body = {n for n in lines
                    if node.body[0].lineno <= n <= node.end_lineno}
            if not body or body & ran:
                continue
            key = f"{rel}:{qualname}"
            if node.name == "__repr__":
                reason = "__repr__"
            elif _is_hook_default(node):
                reason = "hook default"
            else:
                reason = EXEMPT.get(key)
            if reason is None:
                dead.append(f"{rel}:{node.lineno} {qualname}")
            unexecuted[f"{node.lineno} {qualname}"] = reason
        totals["executable"] += len(lines)
        totals["never_run"] += len(never)
        modules[rel] = {"executable": len(lines),
                        "never_run": _ranges(never),
                        "unexecuted_definitions": unexecuted}
    detectors = {"sites": sites, "totals": dict(kinds, all={
        "sites": len(sites), "ran": sum(sites.values())})}
    return {"totals": totals, "dead": dead, "modules": modules,
            "detectors": detectors}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as tmp_name:
        tmp = Path(tmp_name)
        tracer_dir, out = tmp / "tracer", tmp / "lines"
        tracer_dir.mkdir()
        out.mkdir()
        (tracer_dir / "sitecustomize.py").write_text(TRACER)
        todo = gates(tmp)
        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(
                lambda gate: run_gate(*gate, tracer_dir, out, tmp), todo))
        executed: Dict[str, Set[int]] = {}
        for dump in sorted(out.iterdir()):
            for name, lines in json.loads(dump.read_text()).items():
                executed.setdefault(name, set()).update(lines)

    report = census(executed)
    report["gates"] = [name for name, _argv in todo]
    CENSUS.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    failed = [f"{name} (exit {code}):\n{tail}"
              for name, code, tail in results if code]
    totals = report["totals"]
    print(f"{totals['never_run']} of {totals['executable']} executable "
          f"src lines never ran; wrote {CENSUS.name}")
    for kind, count in sorted(report["detectors"]["totals"].items()):
        print(f"detectors {kind}: {count['ran']} of {count['sites']} ran")
    for entry in report["dead"]:
        print(f"never executed: {entry}")
    for entry in failed:
        print(f"gate failed: {entry}")
    return 1 if failed or report["dead"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
