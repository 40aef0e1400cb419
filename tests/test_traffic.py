"""Only what runs: every module is imported by something that runs,
every ``TeemonConfig`` field is set by something, no module imports a
thread API, every writer under ``src/`` commits a batch, and every method
the end-to-end benchmark's tracer wraps exists on its class.

The walks are static (``ast``), so they see the repository as written,
not whatever this process happens to have imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from repro.teemon import TeemonConfig

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Fields nothing in the repository sets, kept on purpose: operator
#: content or paper-named values, not tuning.
FIELDS_KEPT_UNSET = {
    "wal_dir",              # a path: deployment setting
    "analysis_window_s",    # §4: PMAN analyses "the last five minutes"
    "analysis_every_s",     # §4: "every minute"
    "alert_silences",       # operator content
    "alert_inhibit_rules",  # operator content
}


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _module_file(name: str):
    """The file under ``src/`` that importing ``name`` executes."""
    base = SRC.joinpath(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path, package: str):
    """Absolute names ``path`` may import: each ``import x.y`` target and,
    for ``from x import y``, both ``x`` and ``x.y`` (``y`` may be a
    submodule)."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _reachable(roots):
    """Files under ``src/repro`` executed by importing from ``roots``."""
    seen = set()
    queue = [(root, "") for root in roots]
    while queue:
        path, package = queue.pop()
        for name in _imports(path, package):
            # Importing a.b.c executes a, a.b and a.b.c.
            parts = name.split(".")
            for depth in range(1, len(parts) + 1):
                target = _module_file(".".join(parts[:depth]))
                if target is None or target in seen:
                    continue
                seen.add(target)
                module = _module_name(target)
                is_package = target.name == "__init__.py"
                queue.append((
                    target,
                    module if is_package else module.rpartition(".")[0],
                ))
    return seen


def test_every_module_is_imported_by_something_that_runs():
    roots = [SRC / "repro" / "__main__.py"]
    roots += sorted((REPO / "examples").glob("*.py"))
    roots += sorted((REPO / "benchmarks").rglob("*.py"))
    reached = _reachable(roots) | {SRC / "repro" / "__main__.py"}
    orphans = sorted(
        str(path.relative_to(REPO))
        for path in (SRC / "repro").rglob("*.py")
        if path not in reached
    )
    assert orphans == [], (
        "imported by nothing under repro.__main__, examples/ or "
        "benchmarks/ (wire it in or delete it with its tests): "
        f"{orphans}"
    )


def test_nothing_under_src_starts_a_thread():
    # The simulated stack runs in one thread: shard fan-out, clock
    # callbacks and WAL writes all happen in the caller's.
    offenders = sorted(
        f"{path.relative_to(REPO)}: {name}"
        for path in (SRC / "repro").rglob("*.py")
        for name in _imports(path, _module_name(path.parent))
        if name in ("threading", "concurrent.futures")
    )
    assert offenders == [], offenders


#: Receivers of ``.append(`` that are storage engines or WAL writers,
#: by the names ``src/`` gives them (``self._route(…)`` is a shard).
_WRITER_NAMES = {"tsdb", "engine", "shard", "route", "wal", "writer"}


def _receiver_name(node):
    """The last identifier of a call receiver: ``self._tsdb`` -> ``tsdb``,
    ``self._route(labels)`` -> ``route``."""
    while isinstance(node, ast.Call):
        node = node.func
    name = (node.attr if isinstance(node, ast.Attribute)
            else getattr(node, "id", ""))
    return name.lstrip("_")


def test_every_writer_under_src_commits_a_batch():
    # Scrapes, rule steps, alert passes and self-series each hand storage
    # one append_batch; scalar append and append_sample are API for tests
    # and hand-written samples, not a path the stack takes.
    offenders = sorted(
        f"{path.relative_to(REPO)}:{node.lineno}"
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (node.func.attr == "append_sample"
             or (node.func.attr == "append"
                 and _receiver_name(node.func.value) in _WRITER_NAMES))
    )
    assert offenders == [], offenders


def test_every_method_the_e2e_tracer_wraps_is_on_its_class():
    # benchmarks/e2e/tracing.py is frozen and wraps ``cls.__dict__[attr]``
    # for each ``methods(name, cls, "attr", …)`` call: a rename there
    # would only fail the traced benchmark.
    tree = _parse(REPO / "benchmarks" / "e2e" / "tracing.py")
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        for alias in node.names
    }
    loops = {
        node.target.id: node.iter.elts
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }

    def resolve(node):
        if isinstance(node, ast.Attribute):
            return [getattr(owner, node.attr) for owner in resolve(node.value)]
        if node.id in loops:
            return [cls for elt in loops[node.id] for cls in resolve(elt)]
        module, name = imported[node.id]
        try:
            return [importlib.import_module(f"{module}.{name}")]
        except ModuleNotFoundError:
            return [getattr(importlib.import_module(module), name)]

    wrapped, missing = 0, []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "methods"):
            for cls in resolve(node.args[1]):
                for arg in node.args[2:]:
                    wrapped += 1
                    if arg.value not in vars(cls):
                        missing.append(f"{cls.__name__}.{arg.value}")
    assert wrapped > 30
    assert missing == [], missing


def _names_set_somewhere():
    """Every keyword-argument name and string literal in the repo's
    Python files other than ``config.py`` (a string covers
    ``replace(config, **{"name": …})``-style overrides)."""
    config_py = SRC / "repro" / "teemon" / "config.py"
    names = set()
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in (REPO / top).rglob("*.py"):
            if path == config_py or path == Path(__file__).resolve():
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    names.add(node.value)
    return names


def test_every_config_field_is_set_by_something():
    fields = {f.name for f in dataclasses.fields(TeemonConfig)}
    assert FIELDS_KEPT_UNSET <= fields
    unset = fields - _names_set_somewhere()
    assert unset == FIELDS_KEPT_UNSET, (
        f"never set anywhere: {sorted(unset - FIELDS_KEPT_UNSET)}; "
        f"allowlisted but now set: {sorted(FIELDS_KEPT_UNSET - unset)}"
    )
