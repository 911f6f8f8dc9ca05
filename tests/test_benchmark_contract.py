"""The benchmark's traced spans name functions that exist.

``perfbench/bench_isccsim.py`` wraps each ``(owner, attr)`` of its ``SPANS``
by name when it traces a run; a rename in ``src/`` would otherwise only
surface when the benchmark is run with tracing on.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("bench_isccsim")


def test_every_span_resolves_to_a_callable(bench):
    assert bench.SPANS
    missing = [
        f"{span.name}: {getattr(span.owner, '__name__', span.owner)}.{span.attr}"
        for span in bench.SPANS
        if not callable(getattr(span.owner, span.attr, None))
    ]
    assert missing == []
