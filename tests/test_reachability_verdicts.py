"""The reachability ledger's verdict table names code that still exists.

Static (AST only): nothing is run or imported from ``src/repro``.  A
deletion that leaves its verdict behind fails here, so the table cannot
go stale.
"""

from benchmarks.reachability import VERDICTS, dotted, functions


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
