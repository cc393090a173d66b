"""The benchmark's workloads: inputs generated from a seed, one pass of
work through the program's public entry points, and the outputs checked.

Each workload's ``setup()`` builds its inputs from the seed (the
program only ever receives those generated inputs) and ``units()``
lists the timed units of one pass over them, each a callable returning
an :class:`Item`.  Units are deterministic in their simulated outputs:
every repeat of a unit for one seed must produce the same output,
traced or not, serial or parallel.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import repro.experiments.algorithms as algorithms
import repro.experiments.contention_grid as contention_grid
import repro.fluid.engine as fluid_engine
import repro.traces.cache as trace_cache
import repro.traces.generator as generator
import repro.traces.presets as presets
from repro.core.proprate import PropRate
from repro.env.core import CcEnv
from repro.env.policies import AdaptiveTargetPolicy
from repro.experiments.runner import canonical_summary
from repro.fluid.scenarios import fan_in_scenario
from repro.sim.packet import DATA_PACKET_BYTES

#: Simulated seconds per control epoch: one ``CcEnv.step`` on ``env``,
#: and the unit the ``step_us_*`` metrics restate makespan in elsewhere.
EPOCH = 0.020

#: Per-run wall-clock budget handed to the program's scheduler; a run
#: that overruns it is reported failed.
RUN_TIMEOUT = 120.0

#: How long finished scheduler workers may take to exit.
REAP_TIMEOUT = 60.0

#: The sampled-telemetry budget of ``scripts/perf_smoke.py``
#: (``SAMPLED_SPEC``), the way a sampled ``repro grid`` is run.
SAMPLED_SPEC = ("queue.sample:every=64;cc.loss-runs:every=16;"
                "cc.estimator:every=8;*:max=100000")

#: Scratch space for telemetry traces, inside the working directory.
SCRATCH_DIR = ".perfbench-tmp"

#: Per-layer metrics only the grid's parallel pass measures.
SCHED_METRICS = ("sched.attempts", "sched.tail_s", "sched.idle_share",
                 "sched.pool_start_s", "obs.records", "obs.bytes")


@dataclass
class Item:
    """What one timed unit (a line-up row, an env episode, a whole grid
    or fleet run) measured and produced.  A timed run repeats the units
    and keeps each one's fastest repeat."""

    key: str
    wall_s: float
    cpu_s: float
    #: Simulated flow-seconds: flows in each run times its duration.
    flow_s: float
    #: Data packets delivered inside the measurement windows (fluid:
    #: delivered bytes in packet-sized units).
    packets: float
    #: Simulated :data:`EPOCH` s the item covers, summed over its runs.
    epochs: float
    #: Wall µs of each ``CcEnv.step``, in step order (``env`` only).
    step_us: List[float]
    #: Per-flow goodput (KB/s) and delay (ms) the user sees.
    goodput_kbps: List[float]
    delay_ms: List[float]
    #: Digest of the canonical output; every repeat must match it.
    digest: str
    attempted: int = 1
    failed: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: (wall s, CPU s) of each ``CcEnv.step`` inside an ``env`` item,
    #: the same sequence on every repeat.
    parts: List[tuple] = field(default_factory=list)


def digest_of(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def clear_trace_caches() -> None:
    """Drop every memoised trace so the next set-up synthesises anew."""
    presets.isp_trace.cache_clear()
    presets.sprint_like_trace.cache_clear()
    presets.lte_validation_trace.cache_clear()
    trace_cache.clear_cache()


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped worker, MiB."""
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _reap_children() -> None:
    """Wait until every worker process has exited and been reaped."""
    deadline = time.monotonic() + REAP_TIMEOUT
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.005)


def _finite(values: List[float]) -> List[float]:
    return [v for v in values if math.isfinite(v)]


def _flow_ok(result) -> bool:
    """A single flow's result is usable: finite, and delays defined
    whenever anything was delivered."""
    if not math.isfinite(result.throughput) or result.throughput < 0:
        return False
    if result.delivered_bytes > 0:
        return math.isfinite(result.delay.mean) and math.isfinite(result.delay.p95)
    return True


def _seeded_spec(key: str, rng: random.Random, duration: float):
    """A Table-2 preset's moments with a seed drawn from ``rng``, as
    long as the run that replays it: the generator matches the moments
    over the whole trace, so every seed offers a run the same capacity."""
    spec = replace(presets.PRESET_SPECS[key], duration=duration)
    return spec.with_seed(rng.randrange(1, 2 ** 31))


# ----------------------------------------------------------------------
class Lineup:
    """Figure-7 single-flow shootout, serial and in-process; each row
    (algorithm × trace) is one unit."""

    name = "lineup"
    ALGORITHMS = ("PR(M)", "PR(A)", "CUBIC", "BBR")
    TRACES = ("ISPA-mobile", "ISPC-stationary")
    DURATION = 30.0
    MEASURE_START = 0.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.specs = [_seeded_spec(k, rng, self.DURATION) for k in self.TRACES]
        self.traces: list = []

    def setup(self) -> None:
        clear_trace_caches()
        self.traces = [generator.generate_cellular_trace(s) for s in self.specs]

    def units(self, jobs: int = 1) -> List[Callable[[], Item]]:
        del jobs  # the line-up is serial by design
        return [partial(self._row, key, trace, name)
                for key, trace in zip(self.TRACES, self.traces)
                for name in self.ALGORITHMS]

    def _row(self, key: str, trace, name: str) -> Item:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = algorithms.run_shootout(
                trace, names=(name,), duration=self.DURATION,
                measure_start=self.MEASURE_START, timeout=RUN_TIMEOUT,
            )[name]
        except Exception:  # noqa: BLE001 - counted and reported
            traceback.print_exc()
            result = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        key = f"{key}/{name}"
        if result is None:
            return _failed_item(key, wall, cpu)
        return Item(
            key=key,
            wall_s=wall,
            cpu_s=cpu,
            flow_s=self.DURATION,
            packets=result.delivered_bytes / DATA_PACKET_BYTES,
            epochs=self.DURATION / EPOCH,
            step_us=[],
            goodput_kbps=[result.throughput / 1000.0],
            delay_ms=_finite([result.delay.p95 * 1000.0]),
            digest=digest_of(canonical_summary(result.summary())),
            failed=int(not _flow_ok(result)),
        )


def _failed_item(key: str, wall: float, cpu: float) -> Item:
    return Item(key, wall, cpu, 0.0, 0.0, 0.0, [], [], [], "", failed=1)


# ----------------------------------------------------------------------
class Grid:
    """A contention-grid slice through the parallel scheduler, with
    sampled telemetry on."""

    name = "grid"
    MIXES = ("pr-vs-cubic", "cubic-self", "bbr-vs-cubic")
    FLOW_COUNTS = (4, 16)
    TRACE = "cellular:B-mobile"
    OVERLAP = 8.0
    JOBS = 2

    #: Last flow's start plus settle time in the 16-flow cells, kept at
    #: the GridConfig defaults' 15 * 0.5 + 2.0 s for every seed.
    LAST_JOIN_S = 9.5

    def __init__(self, seed: int) -> None:
        # The seed moves the start stagger over 30/64..34/64 s (binary
        # fractions, so the sums below are exact) and the settle time
        # absorbs it.  The longest cell, and so the B-mobile trace the
        # grid synthesises for it, keeps its length: a different trace
        # realization would move the work by tens of percent (B-mobile's
        # std/mean is 0.87), swamping what the benchmark measures.  The
        # 4-flow cells run 17.5 s less 12 x stagger, so the band is kept
        # narrow: 26/64..38/64 moved their work by up to 22%.  The cell order
        # is kept, so the scheduler's tail is the same work.
        stagger = random.Random(seed).randrange(30, 35) / 64.0
        self.config = contention_grid.GridConfig(
            mixes=self.MIXES,
            flow_counts=self.FLOW_COUNTS,
            patterns=("staggered",),
            traces=(self.TRACE,),
            stagger=stagger,
            settle=self.LAST_JOIN_S - (max(self.FLOW_COUNTS) - 1) * stagger,
            overlap=self.OVERLAP,
        )

    def setup(self) -> None:
        clear_trace_caches()
        contention_grid.expand_grid(self.config)

    def units(self, jobs: int = JOBS) -> List[Callable[[], Item]]:
        return [partial(self._run, jobs)]

    def _run(self, jobs: int) -> Item:
        os.makedirs(SCRATCH_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=SCRATCH_DIR)
        done: list = []
        try:
            _reap_children()
            ch0 = _children_cpu()
            t0, c0 = time.perf_counter(), time.process_time()
            failed = 0
            report = None
            try:
                report = contention_grid.run_grid(
                    self.config, n_jobs=jobs, timeout=RUN_TIMEOUT,
                    on_outcome=lambda o: done.append((time.perf_counter(), o)),
                    telemetry=os.path.join(tmp, "grid.jsonl"),
                    sampling=SAMPLED_SPEC,
                )
            except Exception:  # noqa: BLE001 - counted and reported
                traceback.print_exc()
                failed = sum(1 for _, o in done if not o.ok) or 1
            wall = time.perf_counter() - t0
            cpu_parent = time.process_time() - c0
            _reap_children()
            cpu_workers = _children_cpu() - ch0
            records, size = _trace_volume(tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(SCRATCH_DIR)

        goodput: List[float] = []
        delay: List[float] = []
        flow_s = packets = epochs = 0.0
        for outcome in sorted((o for _, o in done), key=lambda o: o.index):
            if not outcome.ok:
                continue
            results = outcome.result
            duration = results[0].measure_end
            epochs += duration / EPOCH
            flow_s += len(results) * duration
            for r in results:
                if not _flow_ok(r):
                    failed += 1
                packets += r.delivered_bytes / DATA_PACKET_BYTES
                goodput.append(r.throughput / 1000.0)
                if math.isfinite(r.delay.p95):
                    delay.append(r.delay.p95 * 1000.0)

        times = sorted(t - t0 for t, _ in done)
        workers = min(jobs, len(done)) or 1
        extra = {
            "sched.attempts": float(sum(o.attempts for _, o in done)),
            "sched.tail_s": times[-1] - times[-2] if len(times) > 1 else 0.0,
            "sched.idle_share": (
                max(0.0, 1.0 - cpu_workers / (workers * wall)) if jobs > 1 else 0.0
            ),
            "sched.pool_start_s": (
                max(0.0, times[0] - _cell_wall(done[0][1]))
                if done and done[0][1].ok else 0.0
            ),
            "jfi": (statistics.fmean(c.jain for c in report.cells)
                    if report is not None else 0.0),
            "obs.records": float(records),
            "obs.bytes": float(size),
        }
        return Item(
            key="grid",
            wall_s=wall,
            cpu_s=cpu_parent + cpu_workers,
            flow_s=flow_s,
            packets=packets,
            epochs=epochs,
            step_us=[],
            goodput_kbps=goodput,
            delay_ms=delay,
            digest=digest_of(report.to_dict() if report is not None else None),
            attempted=contention_grid.grid_size(self.config),
            failed=failed,
            extra=extra,
        )


def _cell_wall(outcome) -> float:
    """The wall time a grid cell's own run measured, in its worker."""
    return outcome.result[0].metrics["run.timing.wall_s"]["gauge"]


def _trace_volume(directory: str) -> tuple:
    """(records, bytes) of every telemetry file under ``directory``."""
    records = size = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        size += os.path.getsize(path)
        with open(path, "rb") as fh:
            records += sum(1 for _ in fh)
    return records, size


# ----------------------------------------------------------------------
class Fleet:
    """Fluid-tier cell-tower fan-in."""

    name = "fleet"
    FLOWS = 2000
    TOWERS = 8
    DURATION = 20.0
    MIX = "pr-heavy"
    HANDOVERS = 400
    LABELS = ("cellular:A-mobile", "wired:40mbps",
              "cellular:C-stationary", "wired:80mbps")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        shift = seed % len(self.LABELS)
        self.labels = self.LABELS[shift:] + self.LABELS[:shift]
        self.scenario: Optional[tuple] = None

    def setup(self) -> None:
        clear_trace_caches()
        self.scenario = fan_in_scenario(
            self.FLOWS, self.TOWERS, self.DURATION, mix=self.MIX,
            handover_count=self.HANDOVERS, tower_labels=self.labels,
            seed=self.seed,
        )

    def units(self, jobs: int = 1) -> List[Callable[[], Item]]:
        del jobs
        return [self._run]

    def _run(self) -> Item:
        flows, towers, handovers = self.scenario
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            report = fluid_engine.run_fluid(
                flows, towers, self.DURATION, handovers=handovers)
        except Exception:  # noqa: BLE001 - counted and reported
            traceback.print_exc()
            report = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if report is None:
            return _failed_item("fleet", wall, cpu)
        results = report.flows
        finite = all(math.isfinite(f.goodput) and math.isfinite(f.avg_tbuff)
                     for f in results)
        one_way = [spec.rtt / 2.0 for spec in flows]
        delays = sorted((f.avg_tbuff + prop) * 1000.0
                        for f, prop in zip(results, one_way))
        return Item(
            key="fleet",
            wall_s=wall,
            cpu_s=cpu,
            flow_s=len(results) * self.DURATION,
            packets=sum(f.delivered_bytes for f in results) / DATA_PACKET_BYTES,
            epochs=self.DURATION / EPOCH,
            step_us=[],
            goodput_kbps=[f.goodput / 1000.0 for f in results],
            delay_ms=[statistics.quantiles(delays, n=20)[-1]],
            digest=digest_of(report.to_dict()),
            failed=int(not finite),
            extra={"jfi": report.jfi},
        )


# ----------------------------------------------------------------------
class Env:
    """Control-plane rollouts: a native replay and an adaptive-target
    policy, both steering PR(M) on a mobile trace."""

    name = "env"
    TRACE = "ISPA-mobile"
    DURATION = 30.0
    MEASURE_START = 0.0

    def __init__(self, seed: int) -> None:
        self.spec = _seeded_spec(self.TRACE, random.Random(seed), self.DURATION)
        self.envs: list = []

    def setup(self) -> None:
        clear_trace_caches()
        trace = generator.generate_cellular_trace(self.spec)
        for env, _policy in self.envs:
            env.close()
        self.envs = [
            (CcEnv(trace, inner_cc=_pr_m, duration=self.DURATION,
                   measure_start=self.MEASURE_START, step_interval=EPOCH),
             policy)
            for policy in (None, AdaptiveTargetPolicy())
        ]

    def close(self) -> None:
        for env, _policy in self.envs:
            env.close()

    def units(self, jobs: int = 1) -> List[Callable[[], Item]]:
        del jobs
        return [partial(self._episode, label, env, policy)
                for label, (env, policy) in zip(("native", "adaptive"), self.envs)]

    def _episode(self, label: str, env: CcEnv, policy) -> Item:
        clock, cpu_clock = time.perf_counter, time.process_time
        t0, c0 = clock(), cpu_clock()
        parts: List[tuple] = []
        try:
            obs = env.reset()
            if policy is not None:
                policy.reset(env, obs)
            done = env.done
            while not done:
                action = policy.action(obs) if policy is not None else None
                start, cpu_start = clock(), cpu_clock()
                obs, _reward, done, _info = env.step(action)
                parts.append((clock() - start, cpu_clock() - cpu_start))
            result = env.result()
        except Exception:  # noqa: BLE001 - counted and reported
            traceback.print_exc()
            result = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if result is None:
            return _failed_item(label, wall, cpu)
        return Item(
            key=label,
            wall_s=wall,
            cpu_s=cpu,
            flow_s=self.DURATION,
            packets=result.delivered_bytes / DATA_PACKET_BYTES,
            epochs=float(len(parts)),
            step_us=[wall * 1e6 for wall, _cpu in parts],
            goodput_kbps=[result.throughput / 1000.0],
            delay_ms=_finite([result.delay.p95 * 1000.0]),
            digest=digest_of([len(parts), canonical_summary(result.summary())]),
            failed=int(not _flow_ok(result)),
            parts=parts,
        )


def _pr_m() -> PropRate:
    return PropRate(target_buffer_delay=algorithms.PR_TARGETS["PR(M)"])


WORKLOADS = {cls.name: cls for cls in (Lineup, Grid, Fleet, Env)}
