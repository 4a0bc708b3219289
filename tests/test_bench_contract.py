"""The names the benchmark reaches into framelex by.

``bench/tracer.py`` wraps callables by owner and attribute name, and
``bench/workloads.py`` swaps out ``cli.open_lexicon``.  A rename or move of
any of them breaks ``bench/run.py --trace 1`` without failing another test.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_callables_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    targets = tracer.targets()
    assert targets
    for owner, attr, name in targets:
        assert attr in vars(owner), name


def test_bench_hooks_exist():
    from framelex import cli
    from framelex.records import Lazy

    assert callable(cli.open_lexicon)
    assert Lazy(lambda: 1)._done is False
