"""The benchmark tracer patches package names by string; each must stay bound.

`perfbench/spans.py` wraps functions that `cli`, `census` and `counting`
take from other modules, and some `TruncSeries` methods, looking each up in
the owner's `__dict__`.  Renaming or dropping one of them breaks the traced
benchmark run, so this test installs the tracer and removes it again.
"""

import importlib
import os

import trivalent
import trivalent.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    owners = (trivalent.cli, trivalent.census, trivalent.counting, trivalent.series.TruncSeries)
    before = [dict(vars(owner)) for owner in owners]
    main = trivalent.cli.main
    tracer = spans.Tracer()
    tracer.install(trivalent)  # raises KeyError for a target that is gone
    try:
        assert trivalent.cli.main is not main
        assert trivalent.cli.main.__wrapped__ is main
    finally:
        tracer.remove()
    assert trivalent.cli.main is main
    assert [dict(vars(owner)) for owner in owners] == before
