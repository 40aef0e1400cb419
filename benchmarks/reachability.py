"""Function-level reachability ledger for ``src/repro``.

Runs two sets of programs, each command in its own interpreter, with a
``sys.setprofile``/``threading.setprofile`` ``call`` hook that records
every code object entered under ``src/repro``:

* **drivers** — the e2e workloads (``benchmarks/e2e/run.py --seed 7
  --seconds 3``, untraced and traced), every ``examples/`` script,
  ``python -m repro.experiments.runner``, ``python -m repro demo``,
  ``pytest benchmarks --benchmark-disable --ignore benchmarks/e2e`` and
  every ``benchmarks/perf/bench_*`` at ``--quick`` (each writes its report
  to a temporary path, so no tracked ``BENCH_*.json`` changes);
* **tests** — ``pytest tests``.

The hook is installed by a ``sitecustomize`` module in a bootstrap
directory put first on ``PYTHONPATH``, so subprocesses the commands
start are counted too; under pytest it is re-installed before every
test, because pytest-benchmark can swap it.

A function is keyed by ``(file, first line)``, its first decorator's
line when it has one, which is the code object's ``co_firstlineno``.
Its *own lines* are its span, decorators included, minus the spans of
the defs nested in it.  It is *driven* when a driver entered it,
*tests-only* when only the tests did, and *unreached* otherwise.  The
ledger prints the three totals, then one line per file that holds
tests-only functions (their count and own lines, most lines first), each
followed by those functions (first line, qualified name and own lines,
in file order), then the unreached functions.  Each
command's exit status and wall time go to stderr; a failing command is
reported, not fatal (a perf bench's own timing gate can trip under the
hook).

Run from the repository root (takes several minutes; stdlib only)::

    python benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

Key = Tuple[str, int]

_SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_OUT = {out!r}
_SRC = {src!r}
_seen = {{}}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def install():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _dump():
    sys.setprofile(None)
    keys = sorted({{
        (code.co_filename, code.co_firstlineno) for code in _seen.values()
        if code.co_filename.startswith(_SRC)
    }})
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    with open(path, "w") as out:
        out.writelines("%s\\t%d\\n" % key for key in keys)


atexit.register(_dump)
install()
'''

_PLUGIN = '''\
import pytest
import sitecustomize


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sitecustomize.install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    sitecustomize.install()
'''


def functions() -> Dict[Key, Tuple[str, int]]:
    """Every def under ``src/repro``: key -> (qualified name, own lines)."""
    found: Dict[Key, Tuple[str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, str(path), "", found)
    return found


def _span(node: ast.AST) -> Tuple[int, int]:
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    return first, node.end_lineno


def _collect(node: ast.AST, path: str, prefix: str,
             found: Dict[Key, Tuple[str, int]]) -> int:
    """Record the defs under ``node``; returns the lines nested defs span."""
    nested = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first, last = _span(child)
            inner = _collect(child, path, f"{prefix}{child.name}.", found)
            found[(path, first)] = (prefix + child.name, last - first + 1 - inner)
            nested += last - first + 1
        elif isinstance(child, ast.ClassDef):
            nested += _collect(child, path, f"{prefix}{child.name}.", found)
        else:
            nested += _collect(child, path, prefix, found)
    return nested


def driver_commands(reports: Path) -> List[List[str]]:
    """The production drivers, one command each."""
    python = sys.executable
    workloads = [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    commands = [
        [python, "benchmarks/e2e/run.py", "--workload", name, "--seed", "7",
         "--seconds", "3", "--trace", trace]
        for name in workloads for trace in ("0", "1")
    ]
    commands += [[python, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    commands += [
        [python, "-m", "repro.experiments.runner"],
        [python, "-m", "repro", "demo"],
        [python, "-m", "pytest", "-q", "-p", "reach_plugin", "-p", "no:cacheprovider",
         "benchmarks", "--benchmark-disable", "--ignore", "benchmarks/e2e"],
    ]
    commands += [
        [python, "-m", f"benchmarks.perf.{p.stem}", "--quick",
         "--output", str(reports / f"{p.stem}.json")]
        for p in sorted((ROOT / "benchmarks" / "perf").glob("bench_*.py"))
    ]
    return commands


def suite_commands() -> List[List[str]]:
    """The test set."""
    return [[sys.executable, "-m", "pytest", "-q", "-p", "reach_plugin",
             "-p", "no:cacheprovider", "tests"]]


def entered(label: str, commands: List[List[str]], scratch: Path) -> Set[Key]:
    """Run ``commands`` under the hook; the functions any of them entered."""
    boot = scratch / f"{label}-boot"
    out = scratch / f"{label}-out"
    boot.mkdir()
    out.mkdir()
    (boot / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(out=str(out), src=str(SRC) + os.sep))
    (boot / "reach_plugin.py").write_text(_PLUGIN)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(boot), str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]))
    for command in commands:
        started = time.monotonic()
        done = subprocess.run(command, cwd=str(ROOT), env=env, check=False,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shown = " ".join(
            os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
            for a in command[1:])
        print(f"  [{label}] exit {done.returncode}  "
              f"{time.monotonic() - started:6.1f}s  {shown}", file=sys.stderr)
    keys: Set[Key] = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, lineno = line.rsplit("\t", 1)
            keys.add((path, int(lineno)))
    return keys


def main() -> int:
    defs = functions()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        scratch = Path(tmp)
        reports = scratch / "reports"
        reports.mkdir()
        driven = entered("drivers", driver_commands(reports), scratch)
        tested = entered("tests", suite_commands(), scratch)
    classes: Dict[str, List[Key]] = {"driven": [], "tests-only": [], "unreached": []}
    for key in defs:
        if key in driven:
            classes["driven"].append(key)
        elif key in tested:
            classes["tests-only"].append(key)
        else:
            classes["unreached"].append(key)
    total_lines = sum(lines for _, lines in defs.values())
    print(f"src/repro: {len(defs):,} functions, {total_lines:,} own lines")
    for name, keys in classes.items():
        lines = sum(defs[key][1] for key in keys)
        print(f"  {name:<11} {len(keys):>6,} functions {lines:>8,} own lines")
    per_file: Dict[str, List[Key]] = {}
    for key in sorted(classes["tests-only"]):
        per_file.setdefault(os.path.relpath(key[0], ROOT), []).append(key)
    totals = {path: sum(defs[key][1] for key in keys) for path, keys in per_file.items()}
    print("\ntests-only by file:")
    for path in sorted(per_file, key=lambda path: (-totals[path], path)):
        keys = per_file[path]
        print(f"  {path:<48} {len(keys):>4} functions {totals[path]:>6} own lines")
        for key in keys:
            qualname, own = defs[key]
            print(f"      {key[1]:>5}  {qualname}  ({own})")
    print("\nunreached:")
    for key in sorted(classes["unreached"]):
        path, lineno = key
        qualname, lines = defs[key]
        print(f"  {os.path.relpath(path, ROOT)}:{lineno}  {qualname}  ({lines})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
