"""Unit tests for PropRate's state machine (Figure 5(b)) via a fake host."""

import math

import pytest

import repro.core.proprate as proprate_module
from repro.core.adaptive import retarget
from repro.core.model import DEFAULT_LMAX_HEADROOM, Regime, params_for_threshold
from repro.core.proprate import PROBE_BURST, PropRate, PropRateState
from repro.env import CcEnv
from repro.experiments.runner import run_single_flow
from repro.traces.generator import constant_rate_trace
from repro.traces.presets import isp_trace

from tests.helpers import AckFeeder, FakeHost


def _proprate(target=0.040, **kwargs):
    cc = PropRate(target_buffer_delay=target, **kwargs)
    host = FakeHost(srtt=0.05, min_rtt=0.04)
    feeder = AckFeeder(cc, host)
    return cc, feeder


def _warm_to_fill(cc, feeder, max_acks=400):
    """Feed steady ACKs until Slow Start's burst-doubling loop settles."""
    for _ in range(max_acks):
        feeder.ack(dt=0.004)
        if cc.state is PropRateState.FILL:
            return
    raise AssertionError(f"never left slow start: {cc.state}")


class TestSlowStart:
    def test_starts_in_slow_start_with_probe_burst(self):
        cc, feeder = _proprate()
        assert cc.state is PropRateState.SLOW_START
        assert cc.take_burst() == PROBE_BURST
        assert cc.pacing_rate == 0.0

    def test_exits_to_fill_once_rate_stabilises(self):
        cc, feeder = _proprate()
        feeder.run(5, dt=0.001)   # all inside one 10 ms receiver tick
        assert cc.state is PropRateState.SLOW_START
        _warm_to_fill(cc, feeder)
        assert cc.pacing_rate > 0.0

    def test_single_tick_burst_doubles(self):
        cc, feeder = _proprate()
        cc.take_burst()
        # All 10 segments acked within one receiver timestamp tick.
        for _ in range(10):
            feeder.ack(dt=0.0005)
        assert cc._burst_size == 2 * PROBE_BURST
        assert cc.take_burst() == 2 * PROBE_BURST

    def test_derives_params_from_rtt(self):
        cc, feeder = _proprate(target=0.080)
        feeder.run(20, dt=0.004)
        assert cc.params is not None
        assert cc.params.regime is Regime.BUFFER_FULL
        assert cc.params.kf > 1.0 > cc.params.kd


class TestFillDrainSwitching:
    def _warm(self, target=0.040):
        cc, feeder = _proprate(target=target)
        _warm_to_fill(cc, feeder)
        return cc, feeder

    def test_fill_until_threshold_crossed(self):
        cc, feeder = self._warm()
        feeder.run(10, dt=0.01, queue_delay=0.0)
        assert cc.state is PropRateState.FILL

    def test_switch_to_drain_above_threshold(self):
        cc, feeder = self._warm()
        feeder.run(20, dt=0.01, queue_delay=cc.threshold + 0.06)
        assert cc.state is PropRateState.DRAIN

    def test_drain_back_to_fill_below_threshold(self):
        cc, feeder = self._warm()
        feeder.run(20, dt=0.01, queue_delay=cc.threshold + 0.06)
        assert cc.state is PropRateState.DRAIN
        feeder.run(20, dt=0.01, queue_delay=0.0)
        assert cc.state is PropRateState.FILL

    def test_fill_rate_is_kf_rho(self):
        cc, feeder = self._warm()
        assert cc.state is PropRateState.FILL
        assert cc.pacing_rate == pytest.approx(cc.params.kf * cc.rho, rel=1e-6)

    def test_drain_rate_is_kd_rho(self):
        cc, feeder = self._warm()
        feeder.run(20, dt=0.01, queue_delay=cc.threshold + 0.06)
        assert cc.pacing_rate == pytest.approx(cc.params.kd * cc.rho, rel=1e-6)

    def test_round_modes_follow_state(self):
        """Paper §4.3: round up in Fill, down in Drain."""
        cc, feeder = self._warm()
        assert cc.round_mode == "up"
        feeder.run(20, dt=0.01, queue_delay=cc.threshold + 0.06)
        assert cc.round_mode == "down"


class TestMonitorState:
    def _drained(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        feeder.run(20, dt=0.01, queue_delay=cc.threshold + 0.08)
        assert cc.state is PropRateState.DRAIN
        return cc, feeder

    def test_long_drain_enters_monitor(self):
        cc, feeder = self._drained()
        cap = cc._drain_packet_cap(cc._base_rtt())
        for _ in range(cap + 1):
            cc.on_packet_sent(0, feeder.host.now, retransmit=False)
        feeder.ack(dt=0.01, queue_delay=cc.threshold + 0.08)
        assert cc.state is PropRateState.MONITOR
        assert cc.monitor_entries == 1

    def test_monitor_requests_probe_burst(self):
        cc, feeder = self._drained()
        cc.take_burst()
        cap = cc._drain_packet_cap(cc._base_rtt())
        for _ in range(cap + 1):
            cc.on_packet_sent(0, feeder.host.now, retransmit=False)
        feeder.ack(dt=0.01, queue_delay=cc.threshold + 0.08)
        assert cc.take_burst() == PROBE_BURST

    def test_monitor_rate_is_half_drain_rate(self):
        cc, feeder = self._drained()
        rho_before = cc.rho
        kd = cc.params.kd
        cap = cc._drain_packet_cap(cc._base_rtt())
        for _ in range(cap + 1):
            cc.on_packet_sent(0, feeder.host.now, retransmit=False)
        feeder.ack(dt=0.01, queue_delay=cc.threshold + 0.08)
        assert cc.pacing_rate == pytest.approx(0.5 * kd * rho_before, rel=0.2)

    def test_monitor_returns_to_fill_when_rate_recovered(self):
        cc, feeder = self._drained()
        cap = cc._drain_packet_cap(cc._base_rtt())
        for _ in range(cap + 1):
            cc.on_packet_sent(0, feeder.host.now, retransmit=False)
        feeder.ack(dt=0.01, queue_delay=cc.threshold + 0.08)
        assert cc.state is PropRateState.MONITOR
        # Burst ACKs arrive at full link speed across several ticks.
        feeder.run(30, dt=0.01, queue_delay=0.0)
        assert cc.state in (PropRateState.FILL, PropRateState.DRAIN)


class TestRtoHandling:
    def test_rto_returns_to_slow_start(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        cc.take_burst()
        cc.on_rto()
        assert cc.state is PropRateState.SLOW_START
        assert cc.pacing_rate == 0.0
        assert cc.take_burst() == PROBE_BURST

    def test_congestion_event_is_ignored(self):
        """Paper §4.3: loss needs no special handling."""
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        state = cc.state
        feeder.ack(dt=0.01, in_recovery=True, newly_lost=3)
        sample = feeder.ack(dt=0.01)
        cc.on_congestion(sample)
        assert cc.state is state


class TestWindowCap:
    def test_inflight_cap_zeroes_pacing(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        assert cc.pacing_rate > 0
        feeder.host.inflight = 100_000
        cc.on_tick(feeder.host.now)
        assert cc.pacing_rate == 0.0

    def test_normal_inflight_keeps_pacing(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        feeder.host.inflight = 1
        rate = cc.pacing_rate
        cc.on_tick(feeder.host.now)
        assert cc.pacing_rate == rate


class TestRhoHold:
    def test_rho_held_through_a_normal_drain_phase(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        # Enter Drain (the transition ACK itself still updates rho in
        # Fill), then verify the hold keeps rho essentially intact over
        # a normal drain phase (a few hundred ms of self-limited ACKs).
        feeder.run(3, dt=0.05, queue_delay=cc.threshold + 0.06)
        assert cc.state is PropRateState.DRAIN
        rho_at_entry = cc.rho
        feeder.run(6, dt=0.05, queue_delay=cc.threshold + 0.06)  # ~300 ms
        assert cc.state is PropRateState.DRAIN
        assert cc.rho >= 0.85 * rho_at_entry

    def test_rho_hold_decays_under_prolonged_drain(self):
        """Pinned in Drain for many seconds (e.g. by cross traffic), the
        held estimate must converge to the measured share instead of
        ratcheting upward forever."""
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        feeder.run(3, dt=0.05, queue_delay=cc.threshold + 0.06)
        assert cc.state is PropRateState.DRAIN
        rho_at_entry = cc.rho
        # 10+ seconds of slow, self-limited ACKs.
        feeder.run(250, dt=0.05, queue_delay=cc.threshold + 0.06)
        assert cc.state is not PropRateState.FILL
        assert cc.rho < 0.7 * rho_at_entry

    def test_rho_tracks_down_in_fill(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        rho_before = cc.rho
        # Fill-state ACKs arrive much slower: capacity genuinely dropped.
        feeder.run(60, dt=0.08, queue_delay=0.0)
        assert cc.state is PropRateState.FILL
        assert cc.rho < rho_before


class TestConfiguration:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            PropRate(target_buffer_delay=0.0)

    def test_feedback_disabled_keeps_threshold_fixed(self):
        cc, feeder = _proprate(enable_feedback=False)
        _warm_to_fill(cc, feeder)
        t0 = cc.threshold
        feeder.run(200, dt=0.01, queue_delay=0.15)
        assert cc.threshold == t0

    def test_table3_metadata(self):
        cc = PropRate()
        assert cc.is_rate_based
        assert "Rate-based" in cc.sending_regulation
        assert cc.congestion_trigger == "Buffer Delay"


def _fresh_params(cc, rtt):
    """§3 parameters derived from scratch for ``cc``'s current inputs
    (default L_max; the threshold band never reaches the clamp)."""
    lmax = rtt + max(DEFAULT_LMAX_HEADROOM, 1.5 * cc.target_buffer_delay)
    return params_for_threshold(
        cc.feedback.threshold, rtt, cc.target_buffer_delay, lmax)


class TestDeriveMemo:
    """``_derive`` reuses its last result only while all four of its
    inputs (threshold, base RTT, target, L_max) are unchanged."""

    def _warm(self):
        cc, feeder = _proprate()
        _warm_to_fill(cc, feeder)
        cc._derive()
        return cc, feeder

    def _assert_rederived(self, cc, rtt):
        before = cc.params
        assert cc._derive() == _fresh_params(cc, rtt)
        assert cc.params == _fresh_params(cc, rtt) != before

    def test_unchanged_inputs_reuse_params(self, monkeypatch):
        cc, _feeder = self._warm()
        calls = []
        monkeypatch.setattr(proprate_module, "params_for_threshold",
                            lambda *args: calls.append(args))
        params = cc.params
        assert cc._derive() is params
        assert calls == []

    def test_nfl_threshold_move(self):
        cc, feeder = self._warm()
        threshold = cc.feedback.threshold
        cc.feedback.on_window_sample(0.5, now=feeder.host.now + 10.0)
        assert cc.feedback.threshold != threshold
        self._assert_rederived(cc, feeder.host.min_rtt)

    def test_retarget(self):
        cc, feeder = self._warm()
        threshold = cc.feedback.threshold
        # A small move keeps T inside the new band: only the target changes.
        assert retarget(cc, 1.1 * cc.target_buffer_delay)
        assert cc.feedback.threshold == threshold
        self._assert_rederived(cc, feeder.host.min_rtt)

    def test_env_threshold_action(self):
        env = CcEnv(constant_rate_trace(1.5e6, 12.0),
                    inner_cc=lambda: PropRate(0.040),
                    duration=6.0, measure_start=1.0)
        try:
            env.reset()
            for _ in range(10):  # well into Fill/Drain
                env.step()
            inner = env.adapter.inner
            inner._derive()
            new = inner.feedback.min_threshold
            assert inner.params.threshold != new
            env.step({"threshold": new})
            inner._derive()
            assert inner.params == _fresh_params(inner, inner._base_rtt())
        finally:
            env.close()

    def test_min_rtt_drop(self):
        cc, feeder = self._warm()
        feeder.host.min_rtt = 0.030
        self._assert_rederived(cc, 0.030)

    def test_srtt_fallback_while_min_rtt_unknown(self):
        cc, feeder = self._warm()
        feeder.host.min_rtt = math.inf
        feeder.host.srtt = 0.070
        self._assert_rederived(cc, 0.070)
        feeder.host.srtt = 0.060
        self._assert_rederived(cc, 0.060)

    def test_run_derives_on_few_acks(self, monkeypatch):
        derives, acks = [], []
        real_params, real_on_ack = params_for_threshold, PropRate.on_ack

        def counting_params(*args):
            derives.append(args)
            return real_params(*args)

        def counting_on_ack(cc, sample):
            acks.append(sample)
            real_on_ack(cc, sample)

        monkeypatch.setattr(proprate_module, "params_for_threshold",
                            counting_params)
        monkeypatch.setattr(PropRate, "on_ack", counting_on_ack)
        run_single_flow(lambda: PropRate(0.040),
                        isp_trace("A", "mobile", duration=10.0),
                        duration=5.0, measure_start=1.0)
        assert len(acks) > 1000
        assert len(derives) < 0.05 * len(acks)
