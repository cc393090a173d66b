"""Tests for synthetic trace generation and the Table-2 presets."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.traces.generator import (
    TraceSpec,
    constant_rate_trace,
    generate_cellular_trace,
)
from repro.traces.presets import (
    PRESET_SPECS,
    TABLE2_TARGETS,
    isp_trace,
    lte_validation_trace,
    sprint_like_trace,
)


def _spec(**overrides):
    base = dict(
        name="test",
        mean_throughput=1_000_000.0,
        std_throughput=300_000.0,
        duration=30.0,
        seed=42,
    )
    base.update(overrides)
    return TraceSpec(**base)


class TestGenerator:
    def test_mean_matches_target(self):
        trace = generate_cellular_trace(_spec())
        assert trace.mean_throughput() == pytest.approx(1_000_000.0, rel=0.02)

    def test_windowed_std_matches_target(self):
        trace = generate_cellular_trace(_spec())
        stats = trace.stats(window=0.1)
        assert stats.std == pytest.approx(300_000.0, rel=0.10)

    def test_deterministic_for_same_seed(self):
        a = generate_cellular_trace(_spec())
        b = generate_cellular_trace(_spec())
        np.testing.assert_array_equal(a.opportunity_times, b.opportunity_times)

    def test_different_seed_differs(self):
        a = generate_cellular_trace(_spec(seed=1))
        b = generate_cellular_trace(_spec(seed=2))
        assert not np.array_equal(a.opportunity_times, b.opportunity_times)

    def test_outage_fraction_realised(self):
        spec = _spec(
            outage_fraction=0.5, outage_mean_duration=1.0, duration=120.0,
            std_throughput=100_000.0,
        )
        trace = generate_cellular_trace(spec)
        stats = trace.stats(window=0.1)
        assert 0.30 <= stats.outage_fraction <= 0.70

    def test_zero_std_gives_smooth_trace(self):
        trace = generate_cellular_trace(_spec(std_throughput=0.0))
        stats = trace.stats(window=0.1)
        assert stats.std < 0.05 * stats.mean

    def test_with_seed_copies_spec(self):
        spec = _spec()
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.mean_throughput == spec.mean_throughput
        assert spec.seed == 42  # original untouched

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_cellular_trace(_spec(mean_throughput=0.0))
        with pytest.raises(ValueError):
            generate_cellular_trace(_spec(std_throughput=-1.0))
        with pytest.raises(ValueError):
            generate_cellular_trace(_spec(duration=0.001))

    def test_too_little_capacity_for_one_opportunity_rejected(self):
        with pytest.raises(ValueError, match="opportunity"):
            generate_cellular_trace(_spec(mean_throughput=1000.0, duration=1.0))


def _digest(trace):
    return hashlib.sha256(trace.opportunity_times.tobytes()).hexdigest()[:16]


class TestShortTraces:
    def test_collapsed_moment_match_still_yields_target_trace(self):
        # Regression: this 10 s path's mean sits 1.9 of its own standard
        # deviations from zero, and the moment match collapsed to
        # all-zero rates, i.e. an empty trace.
        spec = replace(PRESET_SPECS["ISPA-mobile"], duration=10.0)
        trace = generate_cellular_trace(spec.with_seed(852350192))
        stats = trace.stats(window=0.1)
        assert len(trace.opportunity_times) > 0
        assert stats.mean_kbps == pytest.approx(1726.2, rel=0.01)
        assert stats.std_kbps == pytest.approx(817.5, rel=0.10)

    def test_trace_wholly_in_outage_still_carries_the_mean(self):
        spec = _spec(duration=0.05, outage_fraction=0.98,
                     outage_mean_duration=10.0)
        for seed in range(20):
            trace = generate_cellular_trace(spec.with_seed(seed))
            assert len(trace.opportunity_times) > 0

    # Pinned before the empty-trace fix: traces that were non-empty must
    # stay byte-identical.
    @pytest.mark.parametrize("make,digest", [
        (lambda: isp_trace("A", "mobile", duration=30.0), "38fec7c19965620a"),
        (lambda: isp_trace("B", "mobile", duration=30.0), "2fc2562406384535"),
        (lambda: isp_trace("C", "stationary", duration=30.0), "98151d47912e63dd"),
        (lambda: isp_trace("A", "mobile", duration=30.0, direction="uplink"),
         "af73e51c7286d2e0"),
        (lambda: sprint_like_trace(duration=30.0), "f537e875593e3e73"),
        (lambda: generate_cellular_trace(replace(
            PRESET_SPECS["ISPA-mobile"], duration=10.0).with_seed(7)),
         "dd067a4eb5983315"),
    ])
    def test_non_empty_traces_unchanged(self, make, digest):
        assert _digest(make()) == digest


class TestConstantRate:
    def test_exact_rate(self):
        trace = constant_rate_trace(1_500_000.0, 10.0)
        assert trace.mean_throughput() == pytest.approx(1_500_000.0, rel=0.01)

    def test_evenly_spaced(self):
        trace = constant_rate_trace(150_000.0, 1.0)
        gaps = np.diff(trace.opportunity_times)
        assert gaps.std() < 1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            constant_rate_trace(0.0, 1.0)


class TestPresets:
    @pytest.mark.parametrize("isp,mode", sorted(TABLE2_TARGETS))
    def test_table2_mean_reproduced(self, isp, mode):
        trace = isp_trace(isp, mode, duration=60.0)
        mean_kbps, _ = TABLE2_TARGETS[(isp, mode)]
        assert trace.stats().mean_kbps == pytest.approx(mean_kbps, rel=0.03)

    @pytest.mark.parametrize("isp,mode", sorted(TABLE2_TARGETS))
    def test_table2_std_in_band(self, isp, mode):
        trace = isp_trace(isp, mode, duration=60.0)
        _, std_kbps = TABLE2_TARGETS[(isp, mode)]
        assert trace.stats().std_kbps == pytest.approx(std_kbps, rel=0.10)

    def test_uplink_scaled_down(self):
        down = isp_trace("A", "stationary", duration=60.0)
        up = isp_trace("A", "stationary", duration=60.0, direction="uplink")
        ratio = up.mean_throughput() / down.mean_throughput()
        assert 0.15 <= ratio <= 0.35

    def test_unknown_trace_rejected(self):
        with pytest.raises(ValueError):
            isp_trace("Z", "stationary")
        with pytest.raises(ValueError):
            isp_trace("A", "stationary", direction="sideways")

    def test_sprint_like_outage_dominates(self):
        trace = sprint_like_trace(duration=120.0)
        stats = trace.stats(window=0.1)
        # Figure 8: the network is down 54% of the time.
        assert 0.45 <= stats.outage_fraction <= 0.70
        assert stats.mean_kbps < 100.0

    def test_lte_validation_distinct_from_table2(self):
        val = lte_validation_trace(duration=60.0)
        a = isp_trace("A", "stationary", duration=60.0)
        assert not np.array_equal(val.opportunity_times, a.opportunity_times)

    def test_preset_caching_returns_same_object(self):
        assert isp_trace("A", "mobile") is isp_trace("A", "mobile")
