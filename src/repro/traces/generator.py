"""Synthetic cellular trace generation.

The paper's traces were captured by saturating three ISPs with UDP and are
characterised only by their mean and standard deviation of 100 ms-windowed
throughput (Table 2).  We synthesise equivalent traces with a seeded
mean-reverting (AR(1)) rate process modulated by a two-state outage Markov
chain:

* the *rate process* captures fading and scheduler variation — it is an
  AR(1) process in rate space with a configurable coherence time, clipped
  at zero, whose stationary moments are calibrated to the target mean and
  standard deviation by an iterative moment-matching pass;
* the *outage chain* captures coverage holes (dominant in the Sprint trace
  of Figure 8, where the network is down 54 % of the time).

Delivery opportunities are then laid down by integrating the rate: within
each modulation step the accumulated byte budget is converted to evenly
spaced 1500-byte opportunities, with fractional carry across steps so no
capacity is lost to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.traces.trace import OPPORTUNITY_BYTES, Trace


@dataclass(frozen=True)
class TraceSpec:
    """Parameters for one synthetic trace.

    ``mean_throughput`` / ``std_throughput`` are the Table-2 targets in
    bytes/second over ``stats_window``-second windows.  ``coherence_time``
    sets how slowly the channel rate wanders (mobile traces use longer
    fades than stationary ones).  ``outage_fraction`` is the long-run
    fraction of time with zero capacity; ``outage_mean_duration`` the mean
    length of one outage.
    """

    name: str
    mean_throughput: float
    std_throughput: float
    duration: float = 120.0
    seed: int = 0
    coherence_time: float = 1.0
    outage_fraction: float = 0.0
    outage_mean_duration: float = 2.0
    step: float = 0.01
    stats_window: float = 0.1

    def with_seed(self, seed: int) -> "TraceSpec":
        """A copy of this spec with a different random seed."""
        return replace(self, seed=seed, name=f"{self.name}#s{seed}")


def _ar1_series(
    rng: np.random.Generator,
    n: int,
    phi: float,
    sigma: float,
) -> np.ndarray:
    """Zero-mean AR(1) series with lag-1 coefficient ``phi``."""
    noise = rng.standard_normal(n) * sigma
    series = np.empty(n)
    # Start at the stationary distribution so the trace has no warm-up.
    stationary_sd = sigma / math.sqrt(max(1e-12, 1.0 - phi * phi))
    series[0] = rng.standard_normal() * stationary_sd
    for i in range(1, n):
        series[i] = phi * series[i - 1] + noise[i]
    return series


def _outage_mask(
    rng: np.random.Generator,
    n: int,
    step: float,
    outage_fraction: float,
    outage_mean_duration: float,
) -> np.ndarray:
    """Boolean mask, True while the link is up, from a 2-state chain."""
    if outage_fraction <= 0:
        return np.ones(n, dtype=bool)
    if not 0 < outage_fraction < 1:
        raise ValueError("outage_fraction must be in [0, 1)")
    # Mean sojourns: outage d_o = outage_mean_duration;
    # up-time d_u chosen so d_o / (d_o + d_u) = outage_fraction.
    d_out = max(step, outage_mean_duration)
    d_up = d_out * (1.0 - outage_fraction) / outage_fraction
    p_enter = min(1.0, step / d_up)      # up -> outage per step
    p_exit = min(1.0, step / d_out)      # outage -> up per step
    mask = np.empty(n, dtype=bool)
    up = rng.random() > outage_fraction
    draws = rng.random(n)
    for i in range(n):
        mask[i] = up
        if up:
            up = draws[i] >= p_enter
        else:
            up = draws[i] < p_exit
    return mask


def _windowed_std(rates: np.ndarray, step: float, window: float) -> float:
    """Std of throughput when the rate series is averaged over windows."""
    per_window = max(1, int(round(window / step)))
    n_windows = rates.size // per_window
    if n_windows < 2:
        return 0.0
    trimmed = rates[: n_windows * per_window]
    means = trimmed.reshape(n_windows, per_window).mean(axis=1)
    return float(means.std())


def generate_cellular_trace(spec: TraceSpec) -> Trace:
    """Synthesise a :class:`Trace` matching ``spec``'s target moments.

    The generator is deterministic: the same spec (including seed) always
    produces the identical trace.  It never returns an empty trace: a spec
    whose capacity cannot fill one delivery opportunity raises ValueError.
    """
    if spec.mean_throughput <= 0:
        raise ValueError("mean_throughput must be positive")
    if spec.std_throughput < 0:
        raise ValueError("std_throughput must be non-negative")
    n = int(round(spec.duration / spec.step))
    if n < 2:
        raise ValueError("duration must cover at least two steps")

    rng = np.random.default_rng(spec.seed)
    phi = math.exp(-spec.step / max(spec.step, spec.coherence_time))
    shape = _ar1_series(rng, n, phi, sigma=1.0)
    mask = _outage_mask(
        rng, n, spec.step, spec.outage_fraction, spec.outage_mean_duration
    )

    rates = _moment_match(shape, mask, spec)
    if not rates.any():
        # A trace not much longer than its coherence time can draw an
        # AR(1) path whose mean sits far from zero relative to its own
        # spread, which sends the moment match to all-zero rates.  Match the
        # standardised path instead (and, for a trace drawn wholly in
        # outage, ignore the outages: the target mean must be carried).
        centred = shape - shape.mean()
        spread = centred.std()
        if spread > 0:
            centred /= spread
        rates = _moment_match(centred, mask if mask.any() else ~mask, spec)
    cur_mean = float(rates.mean())
    if cur_mean > 0:
        rates *= spec.mean_throughput / cur_mean

    times = _rates_to_opportunities(rates, spec.step)
    if times.size == 0:
        raise ValueError(
            "mean_throughput × duration must carry at least one "
            f"{OPPORTUNITY_BYTES}-byte delivery opportunity"
        )
    trace = Trace(times, spec.duration, name=spec.name)
    # Remember the recipe: a seeded spec is a complete, compact stand-in
    # for the trace itself, which lets the parallel execution layer ship
    # a few dataclass fields to workers instead of the opportunity array
    # (see repro.traces.cache).
    trace.source_spec = spec
    return trace


def _moment_match(
    shape: np.ndarray, mask: np.ndarray, spec: TraceSpec
) -> np.ndarray:
    """Rates ``clip(m + s * shape, 0) * mask`` near ``spec``'s moments.

    Finds the offset m and scale s that hit the target mean and std of
    window-averaged throughput.  Clipping at zero and outage masking
    distort both moments (strongly so for high relative-variance targets
    like the ISP-B mobile trace), so the fixed point is found
    iteratively: an additive correction for the mean and a
    multiplicative one for the std.
    """
    mean_t, std_t = spec.mean_throughput, spec.std_throughput
    scale = std_t
    offset = mean_t
    for _ in range(20):
        rates = np.clip(offset + scale * shape, 0.0, None)
        rates[~mask] = 0.0
        cur_mean = float(rates.mean())
        cur_std = _windowed_std(rates, spec.step, spec.stats_window)
        offset += 0.9 * (mean_t - cur_mean)
        if std_t == 0:
            scale = 0.0
        elif cur_std > 1e-9:
            scale *= math.sqrt(std_t / cur_std)
    rates = np.clip(offset + scale * shape, 0.0, None)
    rates[~mask] = 0.0
    return rates


def _rates_to_opportunities(rates: np.ndarray, step: float) -> np.ndarray:
    """Lay down evenly spaced 1500-byte opportunities for each rate step."""
    chunks = []
    carry = 0.0
    for i, rate in enumerate(rates):
        carry += rate * step / OPPORTUNITY_BYTES
        count = int(carry)
        if count:
            carry -= count
            start = i * step
            # Evenly spread within the step, offset half a slot so the
            # first opportunity is not exactly on the step boundary.
            slots = (np.arange(count) + 0.5) * (step / count)
            chunks.append(start + slots)
    if not chunks:
        return np.empty(0)
    return np.concatenate(chunks)


def constant_rate_trace(
    rate_bps: float,
    duration: float,
    name: str = "constant",
) -> Trace:
    """A trace with perfectly regular opportunities at ``rate_bps`` bytes/s.

    Useful for tests and for emulating wired links through the cellular
    link machinery.
    """
    if rate_bps <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    interval = OPPORTUNITY_BYTES / rate_bps
    count = int(duration / interval)
    times = (np.arange(count) + 0.5) * interval
    times = times[times < duration]
    return Trace(times, duration, name=name)
