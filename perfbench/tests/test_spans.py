"""Tests of the benchmark's span recorder, self-time reducer and layer
wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
sys.path.insert(0, _BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(_BENCH), "src"))

from layers import LayerTrace  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _nested(rec: SpanRecorder, clock: FakeClock):
    """root{1 | a{2 | b{3} | 4 | b{5}} | 6 | c{7 | a{8}}} with the
    numbers as elapsed seconds."""

    def leaf_b():
        clock.advance(3)

    def leaf_b2():
        clock.advance(5)

    def a_body():
        clock.advance(2)
        b()
        clock.advance(4)
        b2()

    def inner_a():
        clock.advance(8)

    def c_body():
        clock.advance(7)
        a_inner()

    b = rec.span(leaf_b, "b", "b")
    b2 = rec.span(leaf_b2, "b", "b")
    a = rec.span(a_body, "a", "a")
    a_inner = rec.span(inner_a, "a", "a")
    c = rec.span(c_body, "c", "c")

    rec.enter("remainder")
    clock.advance(1)
    a()
    clock.advance(6)
    c()
    rec.exit()


def test_nested_spans_reduce_to_self_times():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    _nested(rec, clock)
    assert rec.self_time["b"] == 8
    assert rec.self_time["a"] == 2 + 4 + 8
    assert rec.self_time["c"] == 7
    assert rec.self_time["remainder"] == 1 + 6
    assert rec.inclusive["a"] == (2 + 3 + 4 + 5) + 8
    assert rec.inclusive["remainder"] == 36
    assert rec.calls == {"a": 2, "b": 2, "c": 1}


def test_self_times_add_up_to_total_with_nonnegative_remainder():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    _nested(rec, clock)
    assert sum(rec.self_time.values()) == rec.inclusive["remainder"]
    assert rec.self_time["remainder"] >= 0


def test_same_layer_call_is_not_a_new_span():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def inner():
        clock.advance(2)

    wrapped_inner = rec.span(inner, "link", "link.enqueue")

    def outer():
        clock.advance(1)
        wrapped_inner()

    rec.span(outer, "link", "link.serve")()
    assert rec.self_time["link"] == 3
    assert rec.calls == {"link.serve": 1}


def test_span_closes_on_exception():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom():
        clock.advance(1)
        raise ValueError

    with pytest.raises(ValueError):
        rec.span(boom, "x", "x")()
    assert rec.depth == 0
    assert rec.self_time["x"] == 1


def test_class_span_charges_the_instance_class():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    class Base:
        def hook(self):
            clock.advance(1)

    class Sub(Base):
        def hook(self):
            clock.advance(2)
            super().hook()

    Base.hook = rec.class_span(Base.hook, "cc.")
    Sub.hook = rec.class_span(Sub.hook, "cc.")
    Sub().hook()
    Base().hook()
    assert rec.self_time == {"cc.Sub": 3, "cc.Base": 1}
    assert rec.calls == {"cc.Sub": 1, "cc.Base": 1}


def test_patcher_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Sub(Base):
        def g(self):
            return "sub"

    before = dict(vars(Sub))
    patcher = Patcher()
    patcher.patch(Sub, "f", lambda fn: lambda self: "patched-f")
    patcher.patch(Sub, "g", lambda fn: lambda self: "patched-g")
    assert Sub().f() == "patched-f" and Sub().g() == "patched-g"
    patcher.restore()
    assert dict(vars(Sub)) == before
    assert Sub().f() == "base" and Sub().g() == "sub"


# ----------------------------------------------------------------------
# Layer wrappers over the real program
# ----------------------------------------------------------------------
def _short_flows():
    from repro.experiments.runner import canonical_summary, run_single_flow
    from repro.tcp.congestion import Bbr, Cubic
    from repro.core.proprate import PropRate
    from repro.traces.presets import isp_trace

    trace = isp_trace("A", "mobile", duration=4.0)
    return [
        canonical_summary(run_single_flow(
            factory, trace, duration=4.0, measure_start=1.0).summary())
        for factory in (lambda: PropRate(target_buffer_delay=0.040), Cubic, Bbr)
    ]


def _short_fluid():
    import repro.fluid.engine as engine
    from repro.fluid.scenarios import fan_in_scenario

    flows, towers, handovers = fan_in_scenario(
        40, 2, 4.0, mix="pr-vs-cubic", handover_count=4,
        tower_labels=("cellular:A-mobile", "wired:8mbps"), seed=3)
    return engine.run_fluid(flows, towers, 4.0, measure_start=1.0,
                            handovers=handovers).to_dict()


def _owner_dicts(owners):
    return {owner: dict(vars(owner)) for owner in owners}


def test_traced_and_untraced_runs_are_identical_and_wrappers_removed():
    untraced = (_short_flows(), _short_fluid())

    trace = LayerTrace()
    trace.install()
    owners = {owner for owner, _name in trace.patched}
    trace.uninstall()
    before = _owner_dicts(owners)

    with trace:
        with trace.root():
            traced = (_short_flows(), _short_fluid())
        assert trace.patched
    assert not trace.patched
    assert _owner_dicts(owners) == before
    assert traced == untraced

    metrics = trace.metrics()
    assert metrics["remainder_s"] >= 0
    assert abs(trace.split_total() - metrics["traced_cpu_s"]) < 1e-9
    for layer in ("engine.self_s", "link.self_s", "receiver.self_s",
                  "sender.ack.self_s", "tick.self_s", "fluid.self_s",
                  "cc.PropRate.self_s", "cc.Cubic.self_s", "cc.Bbr.self_s"):
        assert metrics[layer] > 0, layer
    assert metrics["engine.events"] > 0
    assert 0 < metrics["cc.derive.repeat_share"] <= 1
    assert 0 < metrics["tick.useful_share"] <= 1
    assert metrics["fluid.steps"] > 0


def test_counts_repeat_exactly():
    def counts():
        trace = LayerTrace()
        with trace:
            with trace.root():
                _short_flows()
        metrics = trace.metrics()
        return {k: v for k, v in metrics.items()
                if not (k.endswith("_s") or "us_per" in k or k == "trace_overhead")}

    assert counts() == counts()


def test_unknown_layer_values_are_zero_not_missing():
    trace = LayerTrace()
    metrics = trace.metrics()
    assert metrics["fluid.steps"] == 0
    assert metrics["cc.Bbr.us_per_call"] == 0
    assert metrics["remainder_s"] == 0


# ----------------------------------------------------------------------
# Timed-run estimator
# ----------------------------------------------------------------------
def _item(wall, cpu, parts=()):
    from workloads import Item

    return Item("k", wall, cpu, 1.0, 1.0, 1.0, [], [], [], "", parts=list(parts))


def test_fastest_repeat_without_parts_is_the_minimum():
    from run import _fastest

    repeats = [_item(3.0, 2.5), _item(2.0, 1.5), _item(4.0, 3.5)]
    assert _fastest(repeats, 0) == 2.0
    assert _fastest(repeats, 1) == 1.5


def test_fastest_repeat_takes_each_part_from_its_fastest_repeat():
    from run import _fastest

    # Two repeats of three steps; a burst of load slows step 0 of the
    # first and step 2 of the second.  The remainder outside the steps
    # is 0.5 s and 0.25 s.
    first = _item(0.5 + 9 + 1 + 1, 0, [(9, 0), (1, 0), (1, 0)])
    second = _item(0.25 + 1 + 1 + 9, 0, [(1, 0), (1, 0), (9, 0)])
    assert _fastest([first, second], 0) == 0.25 + 3
