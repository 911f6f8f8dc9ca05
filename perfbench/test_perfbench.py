"""Tests for the benchmark's own arithmetic and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from bench_trace import Span, SpanStore, aggregate, install  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_nested_and_sibling_spans():
    # a [0,10] holds siblings b [2,5] and c [6,9]; b holds d [3,4].
    # A second top-level span e [12,13] follows a.
    store = SpanStore(clock=FakeClock([0, 2, 3, 4, 5, 6, 9, 10, 12, 13]))
    ids = {n: store.intern(n) for n in "abcde"}
    a = store.open(ids["a"])
    b = store.open(ids["b"])
    d = store.open(ids["d"])
    store.close(d)
    store.close(b)
    c = store.open(ids["c"])
    store.close(c)
    store.close(a)
    e = store.open(ids["e"])
    store.close(e)

    totals = aggregate(store)
    assert totals.self_s == {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 1.0}
    assert totals.calls == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}
    assert totals.top_level_s == 11.0
    assert sum(totals.self_s.values()) == totals.top_level_s


def test_aggregate_selects_operations():
    store = SpanStore(clock=FakeClock([0, 1, 1, 3, 3, 7]))
    x = store.intern("x")
    for op in (-1, 0, 1):
        store.op_id = op
        store.close(store.open(x))
    assert aggregate(store, {0: 1.0, 1: 1.0}).self_s == {"x": 6.0}
    assert aggregate(store, {-1: 1.0}).self_s == {"x": 1.0}
    assert aggregate(store).calls == {"x": 3}
    scaled = aggregate(store, {0: 0.5, 1: 2.0})  # durations 2 and 4
    assert scaled.self_s == {"x": 0.5 * 2 + 2.0 * 4}
    assert scaled.top_level_s == 9.0 and scaled.calls == {"x": 2}


def test_install_wraps_every_imported_name_and_restores():
    owner = types.ModuleType("fakepkg.owner")
    user = types.ModuleType("fakepkg.user")

    def work(n):
        return n + 1

    class Base:
        def decide(self):
            return "base"

    class Child(Base):
        pass

    owner.work = work
    user.work = work
    user.alias = work
    sys.modules.update({"fakepkg": types.ModuleType("fakepkg"),
                        "fakepkg.owner": owner, "fakepkg.user": user})
    try:
        store = SpanStore()
        undo = install(store, [Span("owner.work", owner, "work"),
                               Span("child.decide", Child, "decide")], "fakepkg")
        assert user.work(1) == 2 and user.alias(2) == 3 and owner.work(3) == 4
        assert Child().decide() == "base"
        assert Base.decide is not Child.__dict__["decide"]
        undo()
        assert owner.work is work and user.work is work and user.alias is work
        assert "decide" not in Child.__dict__
        totals = aggregate(store)
        assert totals.calls == {"owner.work": 3, "child.decide": 1}
    finally:
        for key in ("fakepkg", "fakepkg.owner", "fakepkg.user"):
            sys.modules.pop(key, None)


def test_rejected_calls_are_counted_and_reraised():
    class Full(Exception):
        pass

    mod = types.ModuleType("rejpkg")

    def take(ok):
        if not ok:
            raise Full
        return ok

    mod.take = take
    sys.modules["rejpkg"] = mod
    try:
        store = SpanStore()
        undo = install(store, [Span("pool.take", mod, "take", rejects=(Full,))], "rejpkg")
        assert mod.take(True)
        with pytest.raises(Full):
            mod.take(False)
        with pytest.raises(Full):
            mod.take(False)
        undo()
        assert store.counters == {"pool.take.rejected": 2.0}
        assert aggregate(store).calls == {"pool.take": 3}
    finally:
        sys.modules.pop("rejpkg")


@pytest.mark.parametrize("n, expected", [
    (0, None),
    (19, None),                  # p50 would leave only 9 samples beyond it
    (20, (50.0, 10)),            # rank 10, ten beyond
    (39, (50.0, 20)),            # p75: rank 30, nine beyond
    (40, (75.0, 30)),            # rank 30, ten beyond
    (100, (90.0, 90)),
    (199, (90.0, 180)),          # p95: rank 190, nine beyond
    (200, (95.0, 190)),
    (1000, (99.0, 990)),
    (10000, (99.9, 9990)),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # unsorted on purpose; values equal ranks
    assert run.tail_percentile(samples) == expected


class FakeWorkload:
    """Operations on integer inputs; an input named in ``raises`` raises,
    one named in ``bad`` fails its check, ``drift`` changes on a repeat."""

    def __init__(self, raises=(), bad=(), drift=()):
        self.raises, self.bad, self.drift = set(raises), set(bad), set(drift)
        self.seen = {}

    def op(self, inp):
        if inp.value in self.raises:
            raise RuntimeError("boom")
        self.seen[inp.value] = self.seen.get(inp.value, 0) + 1
        return inp.value

    def check(self, inp, raw):
        record = {"value": raw, "gain": 0.1 * raw}
        if raw in self.drift and self.seen[raw] > 1:
            record["gain"] += 1e-16 * raw
        problems = [f"{inp.key}: bad"] if raw in self.bad else []
        return types.SimpleNamespace(key=inp.key, client_rounds=3, gain=record["gain"],
                                     record=record, problems=problems)


def fake_input(value):
    return types.SimpleNamespace(value=value, key=f"in={value}")


def test_failed_operations_are_counted_not_retried():
    wl = FakeWorkload(raises={2}, bad={3})
    tally = run.Tally()
    samples = [run.run_op(wl, fake_input(v), tally) for v in (1, 2, 3, 4)]
    assert [s is not None for s in samples] == [True, False, False, True]
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert 2 not in wl.seen  # the raising input was not retried
    assert any("RuntimeError" in p for p in tally.problems)
    assert any("in=3: bad" in p for p in tally.problems)


def test_repeat_with_different_outputs_fails():
    wl = FakeWorkload(drift={5})
    tally = run.Tally()
    assert run.run_op(wl, fake_input(5), tally) is not None
    assert run.run_op(wl, fake_input(5), tally) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differ from an earlier repeat" in tally.problems[0]


def test_digest_is_canonical_and_exact():
    a = {"gain": 0.1 + 0.2, "rounds": [[1, 2], [3]], "seed": 4}
    b = {"seed": 4, "rounds": [[1, 2], [3]], "gain": 0.1 + 0.2}
    assert run.digest(a) == run.digest(b)
    nudged = dict(a, gain=math.nextafter(a["gain"], 1.0))
    assert run.digest(nudged) != run.digest(a)
    assert run.run_digest({"x": "1", "y": "2"}) == run.run_digest({"y": "2", "x": "1"})


@pytest.fixture(scope="module")
def isccsim_on_path():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import bench_isccsim

    return bench_isccsim


def test_oracle_digest_same_traced_and_untraced(isccsim_on_path):
    """One tiny oracle solve, untraced then traced: identical simulated
    outputs, and the self times add up to the traced wall time."""
    bi = isccsim_on_path
    wl = bi.WORKLOADS["oracle-tiny"]
    inp = wl.build(0)[0]
    tally = run.Tally()
    store = SpanStore()
    undo = []
    plain = run.run_op(wl, inp, tally)
    traced = run.run_op(wl, inp, tally,
                        before=lambda: undo.append(install(store, list(bi.SPANS), "isccsim")),
                        after=lambda: undo.pop()())
    assert plain is not None and traced is not None, tally.problems
    assert tally.failed == 0 and len(tally.digests) == 1
    metrics = bi.layer_metrics(aggregate(store), store.counters, 1, traced.seconds)
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert parts == pytest.approx(traced.seconds, rel=1e-9)
    assert metrics["policies.exhaustive_optimal.sequences"] == 512
    assert metrics["schedule.validate_cstc.calls"] == 512 + 6


def test_benchmark_json_matches_emitted_metrics(isccsim_on_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(isccsim_on_path.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(isccsim_on_path.PER_LAYER)



def test_reference_seconds_remove_handler_time_and_scale_by_speed():
    from bench_speed import REFERENCE_KERNEL_S, Speedometer

    speed = Speedometer()
    speed.samples[:] = [REFERENCE_KERNEL_S * 1.5, REFERENCE_KERNEL_S * 2.5]  # half speed
    speed.spent = 0.5
    assert speed.reference_seconds(10.5) == pytest.approx(5.0)
    sample = run.Sample(seconds=10.5, client_rounds=20, ref_seconds=5.0)
    assert sample.scale == pytest.approx(5.0 / 10.5)
    assert run.throughput([sample, run.Sample(1.0, 10, 1.0)]) == pytest.approx(30 / 6.0)


def test_speedometer_samples_while_a_block_runs():
    from bench_speed import PERIOD_S, Speedometer

    with Speedometer() as speed:
        end = time.perf_counter() + 10 * PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 5
    assert 0.0 < speed.spent < 10 * PERIOD_S
