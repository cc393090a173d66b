"""The per-layer split: which program entry points are wrapped, into
which layer each is charged, and the counters read at the same
boundaries.

Every wrapper is installed on the class (or module) from outside, in
the style of ``repro.experiments.cpu``: the entry points each layer
exposes to the layer above, and the event callbacks the engine
dispatches into it.  Objects built while the wrappers are installed
bind the wrapped methods; :meth:`LayerTrace.uninstall` restores every
original, so untraced runs in the same process are unaffected.

Layers (span names) and what is charged to them:

=================  ====================================================
``engine``         ``Simulator.run``/``step``: the event loop, plus any
                   dispatched callback no layer below claims
``link``           link enqueue/serve/delivery-pump callbacks and the
                   path's delivery demux (``sim.link``, ``sim.queues``,
                   ``sim.network``)
``receiver``       ``TcpReceiver.receive``/``receive_batch``
``sender.ack``     ``TcpSender.on_ack_packet``/``on_ack_batch`` and the
                   RTO timer callback
``tick``           ``TcpSender._tick_fire``: the pacing tick
``cc.<Class>``     every congestion-control hook, per concrete class
``collector``      ``DeliveryCollector`` recording and window queries
``runner.build``   ``ExperimentHarness.__init__``
``runner.reduce``  ``ExperimentHarness.finalize`` (minus the event loop)
``traces.synth``   ``generate_cellular_trace``
``obs``            ``Tracer.emit`` and the queue sampler's tick
``obs.merge``      the batch coordinator's part-file merge
``fluid``          ``run_fluid`` (the integration loop itself)
``fluid.bank.<C>`` fluid controller banks, per class
``fluid.profile``  ``TowerSpec.capacity_profile``
``env``            ``CcEnv.reset``/``step``/``result`` and env policies
``remainder``      the root span: whatever no span claims
=================  ====================================================
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict

from spans import Patcher, SpanRecorder

#: Congestion-control classes reported by name; any other class is
#: folded into ``cc.other``.
CC_CLASSES = ("PropRate", "AdaptivePropRate", "Cubic", "Bbr")

#: Fluid controller banks reported by name.
FLUID_BANKS = ("PropRateBank", "CubicBank")

#: The hooks the sender calls on a congestion controller.
CC_HOOKS = (
    "on_connection_start",
    "on_ack",
    "on_congestion",
    "on_recovery_exit",
    "on_rto",
    "on_packet_sent",
    "on_tick",
)

#: Layers whose self time is reported, mapped to the metric carrying it.
SELF_TIME_METRICS = {
    "engine": "engine.self_s",
    "link": "link.self_s",
    "receiver": "receiver.self_s",
    "sender.ack": "sender.ack.self_s",
    "tick": "tick.self_s",
    "collector": "collector.self_s",
    "runner.build": "runner.build_s",
    "runner.reduce": "runner.reduce_s",
    "traces.synth": "traces.synth_s",
    "obs": "obs.self_s",
    "obs.merge": "obs.merge_s",
    "fluid": "fluid.self_s",
    "fluid.profile": "fluid.profile_s",
    "env": "env.self_s",
    "remainder": "remainder_s",
}


def _subclasses(cls: type) -> list:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class LayerTrace:
    """Install the layer wrappers, record spans and counters, report.

    Use as a context manager around a traced pass, with :meth:`root`
    around the region whose CPU time the split must add up to.
    """

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.counts: Dict[str, float] = defaultdict(float)
        self._patcher = Patcher()
        self._derive_owner: list = [None]
        self._derive_prev: Dict[int, tuple] = {}

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def patched(self) -> list:
        return self._patcher.patched

    def install(self) -> None:
        import repro.core.adaptive  # noqa: F401 - registers AdaptivePropRate
        import repro.core.proprate as proprate
        import repro.experiments.parallel as parallel
        import repro.fluid.controllers as fluid_controllers
        import repro.fluid.engine as fluid_engine
        import repro.tcp.congestion  # noqa: F401 - registers every algorithm
        import repro.tcp.congestion.policy  # noqa: F401 - env adapters
        import repro.traces.cache as trace_cache
        import repro.traces.generator as generator
        import repro.traces.presets as presets
        from repro.env.core import CcEnv
        from repro.env.policies import AdaptiveTargetPolicy
        from repro.experiments.runner import ExperimentHarness
        from repro.metrics.collector import DeliveryCollector
        from repro.metrics.telemetry import QueueSampler
        from repro.obs.tracer import Tracer
        from repro.sim.engine import Simulator
        from repro.sim.link import CellularLink, WiredLink
        from repro.sim.network import DuplexPath
        from repro.tcp.congestion.base import (
            CongestionControl,
            RateCongestionControl,
            WindowCongestionControl,
        )
        from repro.tcp.receiver import TcpReceiver
        from repro.tcp.sender import TcpSender

        rec = self.rec
        patch = self._patcher.patch

        def span(owner, name, layer, label=None):
            patch(owner, name, lambda fn: rec.span(fn, layer, label or layer))

        for name in ("run", "step"):
            span(Simulator, name, "engine")

        for cls in (CellularLink, WiredLink):
            patch(cls, "enqueue", lambda fn: rec.span(
                self._track_queue_peak(fn), "link", "link.enqueue"))
        for name in ("_serve", "_serve_fast"):
            span(CellularLink, name, "link", "link.serve")
        span(WiredLink, "_finish", "link", "link.serve")
        span(CellularLink, "_pump_fire", "link", "link.pump")
        for name in ("_deliver_forward", "_deliver_reverse",
                     "_deliver_forward_batch", "_deliver_reverse_batch"):
            span(DuplexPath, name, "link", "link.deliver")

        for name in ("receive", "receive_batch"):
            span(TcpReceiver, name, "receiver")
        for name in ("on_ack_packet", "on_ack_batch"):
            span(TcpSender, name, "sender.ack")
        span(TcpSender, "_rto_fire", "sender.ack", "sender.rto_fire")
        patch(TcpSender, "_tick_fire",
              lambda fn: rec.span(self._count_useful_ticks(fn), "tick", "tick"))

        bases = (CongestionControl, RateCongestionControl,
                 WindowCongestionControl)
        for cls in _subclasses(CongestionControl):
            if cls in bases:
                continue
            for hook in CC_HOOKS:
                if hook in vars(cls):
                    patch(cls, hook, lambda fn: rec.class_span(fn, "cc."))
        patch(proprate.PropRate, "_derive", self._derive_owner_setter)
        patch(proprate, "params_for_threshold", self._derive_input_counter)

        for name in ("on_data", "delays", "delivered_bytes", "throughput"):
            span(DeliveryCollector, name, "collector")
        span(ExperimentHarness, "__init__", "runner.build")
        span(ExperimentHarness, "finalize", "runner.reduce")
        patch(ExperimentHarness, "finalize", self._harvest_harness)
        patch(ExperimentHarness, "advance",
              lambda fn: rec.timed(fn, "runner.advance"))

        for module in (generator, presets, trace_cache):
            span(module, "generate_cellular_trace", "traces.synth")

        span(Tracer, "emit", "obs", "obs.emit")
        span(QueueSampler, "_sample", "obs", "obs.sample")
        patch(Tracer, "drain_dropped", self._count_dropped)
        span(parallel._BatchTelemetry, "finalize", "obs.merge")

        span(fluid_engine, "run_fluid", "fluid")
        patch(fluid_engine, "run_fluid", self._count_fluid_steps)
        span(fluid_engine.TowerSpec, "capacity_profile", "fluid.profile")
        for cls in _subclasses(fluid_controllers.ControllerBank):
            for name in ("rates", "on_overflow"):
                if name in vars(cls):
                    patch(cls, name,
                          lambda fn: rec.class_span(fn, "fluid.bank."))

        for name in ("reset", "result"):
            span(CcEnv, name, "env")
        span(CcEnv, "step", "env", "env.step")
        for name in ("reset", "action"):
            span(AdaptiveTargetPolicy, name, "env")

    def uninstall(self) -> None:
        self._patcher.restore()
        self._derive_prev.clear()

    def root(self) -> "_Root":
        """Context manager for the root span (self time = remainder)."""
        return _Root(self.rec)

    # -- counting wrappers ----------------------------------------------
    def _track_queue_peak(self, fn: Callable) -> Callable:
        counts = self.counts

        def enqueue(link, packet) -> bool:
            accepted = fn(link, packet)
            depth = len(link.queue)
            if depth > counts["link.queue_peak"]:
                counts["link.queue_peak"] = depth
            return accepted

        return enqueue

    def _count_fluid_steps(self, fn: Callable) -> Callable:
        counts = self.counts

        def run_fluid(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts["fluid.steps"] += report.steps
            return report

        return run_fluid

    def _count_useful_ticks(self, fn: Callable) -> Callable:
        counts = self.counts

        def tick_fire(sender) -> None:
            before = sender.segments_sent
            fn(sender)
            if sender.segments_sent != before:
                counts["tick.useful"] += 1

        return tick_fire

    def _derive_owner_setter(self, fn: Callable) -> Callable:
        owner = self._derive_owner

        def derive(cc):
            outer = owner[0]
            owner[0] = cc
            try:
                return fn(cc)
            finally:
                owner[0] = outer

        return derive

    def _derive_input_counter(self, fn: Callable) -> Callable:
        owner = self._derive_owner
        prev = self._derive_prev
        counts = self.counts

        def params_for_threshold(*args):
            key = id(owner[0])
            counts["cc.derive.calls"] += 1
            if prev.get(key) == args:
                counts["cc.derive.repeats"] += 1
            prev[key] = args
            return fn(*args)

        return params_for_threshold

    def _count_dropped(self, fn: Callable) -> Callable:
        counts = self.counts

        def drain_dropped(tracer) -> dict:
            dropped = fn(tracer)
            counts["obs.dropped"] += sum(dropped.values())
            return dropped

        return drain_dropped

    def _harvest_harness(self, fn: Callable) -> Callable:
        counts = self.counts
        prev = self._derive_prev

        def finalize(harness):
            first = harness._results is None
            results = fn(harness)
            if first:
                sim, path = harness.sim, harness.path
                counts["engine.events"] += sim.events_processed
                counts["engine.compactions"] += sim.compactions
                for link in (path.forward_link, path.reverse_link):
                    counts["link.delivered"] += link.delivered_packets
                    counts["link.batched"] += getattr(link, "batched_packets", 0)
                counts["link.drops"] += sum(path.forward_drops.values())
                counts["link.drops"] += sum(path.reverse_drops.values())
                for _spec, _name, _collector, sender in harness._harnessed:
                    counts["sender.rtx"] += sender.retransmissions
                    counts["sender.rto"] += sender.rto_count
                # The run's controllers are done: forget their inputs
                # so a recycled id() cannot match a dead instance.
                prev.clear()
            return results

        return finalize

    # -- reporting ------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric this trace measures (0 when the layer
        was not exercised)."""
        rec, counts = self.rec, self.counts
        self_t, calls = rec.self_time, rec.calls
        out: Dict[str, float] = {
            metric: self_t.get(layer, 0.0)
            for layer, metric in SELF_TIME_METRICS.items()
        }
        out["traced_cpu_s"] = rec.inclusive.get("remainder", 0.0)
        out["engine.events"] = counts["engine.events"]
        out["engine.compactions"] = counts["engine.compactions"]

        out["link.enqueues"] = calls["link.enqueue"]
        out["link.serves"] = calls["link.serve"]
        out["link.drops"] = counts["link.drops"]
        out["link.queue_peak"] = counts["link.queue_peak"]
        out["link.batched_share"] = _share(counts["link.batched"],
                                           counts["link.delivered"])

        out["receiver.calls"] = calls["receiver"]
        acks = calls["sender.ack"]
        out["sender.ack.calls"] = acks
        out["sender.ack.us_per_call"] = _per_call_us(self_t["sender.ack"], acks)
        out["sender.rtx"] = counts["sender.rtx"]
        out["sender.rto"] = counts["sender.rto"]

        out["tick.fires"] = calls["tick"]
        out["tick.useful_share"] = _share(counts["tick.useful"], calls["tick"])

        other_s, other_calls = 0.0, 0
        for layer in list(self_t):
            if layer.startswith("cc.") and layer[3:] not in CC_CLASSES:
                other_s += self_t[layer]
                other_calls += calls[layer]
        for name in CC_CLASSES:
            layer = "cc." + name
            _cc_metrics(out, layer, self_t.get(layer, 0.0), calls[layer])
        _cc_metrics(out, "cc.other", other_s, other_calls)
        out["cc.derive.repeat_share"] = _share(counts["cc.derive.repeats"],
                                               counts["cc.derive.calls"])

        out["obs.dropped"] = counts["obs.dropped"]

        for name in FLUID_BANKS:
            layer = "fluid.bank." + name
            out[layer + ".self_s"] = self_t.get(layer, 0.0)
        steps = counts["fluid.steps"]
        out["fluid.steps"] = steps
        out["fluid.step_us"] = _per_call_us(rec.inclusive.get("fluid", 0.0), steps)

        env_steps = calls["env.step"]
        out["env.steps"] = env_steps
        out["env.self_us_per_step"] = _per_call_us(self_t.get("env", 0.0), env_steps)
        out["env.advance_share"] = _share(rec.timers.get("runner.advance", 0.0),
                                          rec.inclusive.get("env", 0.0))
        return out

    def split_total(self) -> float:
        """Sum of every layer's self time (equals ``traced_cpu_s``)."""
        return sum(self.rec.self_time.values())


class _Root:
    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec

    def __enter__(self) -> None:
        if self.rec.depth:
            raise RuntimeError("root span must be outermost")
        self.rec.enter("remainder")

    def __exit__(self, *exc) -> None:
        self.rec.exit()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_call_us(seconds: float, calls: float) -> float:
    return seconds * 1e6 / calls if calls else 0.0


def _cc_metrics(out: Dict[str, float], layer: str, seconds: float,
                calls: float) -> None:
    out[layer + ".calls"] = calls
    out[layer + ".self_s"] = seconds
    out[layer + ".us_per_call"] = _per_call_us(seconds, calls)

