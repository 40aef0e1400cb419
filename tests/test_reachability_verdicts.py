"""The reachability ledger's verdict table names code that still exists,
and its tree hashes catch a source edit made during a run.

Static (AST only): nothing is run or imported from ``src/repro``.  A
deletion that leaves its verdict behind fails here, so the table cannot
go stale.
"""

from pathlib import Path

from benchmarks.reachability import (
    VERDICTS, changed_paths, dotted, functions, source_hashes,
)


def _covered():
    """Every dotted name that covers at least one def under src/repro."""
    names = set()
    for (path, _line), (qualname, _own) in functions().items():
        parts = dotted(path, qualname).split(".")
        names.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return names


def test_every_verdict_names_a_def_under_src():
    covered = _covered()
    stale = [(kind, name) for kind, names in VERDICTS.items()
             for name in names if name not in covered]
    assert stale == []


def test_each_name_has_one_verdict():
    names = [name for names in VERDICTS.values() for name in names]
    assert len(names) == len(set(names))


def test_source_hashes_report_exactly_the_edited_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
    (tmp_path / "notes.txt").write_text("not source\n")
    before = source_hashes(tmp_path)
    assert changed_paths(before, source_hashes(tmp_path)) == []

    (tmp_path / "pkg" / "b.py").write_text("y = 3\n")
    (tmp_path / "notes.txt").write_text("edited, still not source\n")
    assert changed_paths(before, source_hashes(tmp_path)) == [
        str(Path("pkg") / "b.py")]

    (tmp_path / "a.py").unlink()
    (tmp_path / "c.py").write_text("z = 4\n")
    assert changed_paths(before, source_hashes(tmp_path)) == [
        "a.py", "c.py", str(Path("pkg") / "b.py")]
