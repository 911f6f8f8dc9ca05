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


def test_edge_counts_read_a_built_graph(bench):
    """The traced run's edge counters read a real gain graph's edges."""
    inp = bench.oracle_build(0)[0]
    graph = bench.gain.build_gain_graph(
        inp.scenario, 0.9, 0.7, [(4e6, 1e9)] * len(inp.scenario.clients),
        bench.SENSING, coupled=True,
    )
    store = bench.SpanStore()
    bench._edge_counts(store, (), graph)
    edges = len(inp.scenario.clients) * bench.gain.num_models(inp.scenario)
    assert store.counters["gain.edges_solved"] == edges
    assert store.counters["gain.edges_feasible"] == sum(e.solution.feasible for e in graph.edges)


def test_oracle_check_passes_on_a_tiny_scenario(bench):
    """The benchmark's own correctness check accepts the oracle's output, and
    the optimum covers all 2^(3*3) sequences."""
    inp = bench.oracle_build(0)[0]
    outcome = bench.oracle_check(inp, bench.oracle_op(inp))
    assert outcome.problems == []
    assert outcome.record["sequences_tried"] == 512
