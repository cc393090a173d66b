"""Repository benchmark: one workload per process, timed or traced.

Run from the repository root::

    python3 perfbench/run.py --workload lineup --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 1

``--trace 0`` repeats the units of a pass (line-up rows, env episodes,
whole grid or fleet runs) over the same seeded inputs for ``--seconds``
with no instrumentation, and reports the end-to-end metrics from each
unit's fastest repeat, and the median of several set-ups, each in a
fresh process.
``--trace 1`` runs an untimed warm-up pass, one untraced pass and one
traced pass (serial, in-process) and reports the per-layer split.  Both
modes check the outputs: every repeat of a unit must produce the same
output, and for the recorded default seed their digest must equal the
one in ``expected_digests.json``.  The last line of standard output is
one JSON object; the lines before it are a readable table.

See ``README.md`` in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

_T0 = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

#: The seed whose output digests are recorded in expected_digests.json.
DEFAULT_SEED = 1

#: Set-ups per timed run, each in a fresh process; the median is reported.
SETUP_REPEATS = 7


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _load_expected():
    with open(os.path.join(_HERE, "expected_digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _table(title, metrics):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit_of(name)}")


def _repeats(items):
    """Unit key -> that unit's items, in run order."""
    by_key = {}
    for item in items:
        by_key.setdefault(item.key, []).append(item)
    return by_key


def _run_pass(workload, **kwargs):
    return [unit() for unit in workload.units(**kwargs)]


def _fastest(repeats, field):
    """An item's time (``field`` 0: wall, 1: CPU) from its fastest
    repeats: the minimum over repeats of each sub-step in ``parts``,
    plus the minimum of what the sub-steps leave out.  Without parts
    this is the fastest whole repeat."""
    total = "wall_s" if field == 0 else "cpu_s"
    rest = min(getattr(i, total) - sum(p[field] for p in i.parts) for i in repeats)
    return rest + sum(min(step[field] for step in steps)
                      for steps in zip(*(i.parts for i in repeats)))


def _fresh_setup_s(name, seed):
    """Wall time of one whole set-up (imports, input generation,
    scenario build) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.split()[-1])


def timed_run(workload, seed, seconds):
    from workloads import peak_rss_mb

    workload.setup()

    # One pass over every unit, then repeats for as long as the next one
    # fits in the time left (at least one, so an output is checked
    # against a repeat).  Repeats go to the costliest units first: they
    # carry most of the noise in the sums.  The set-ups are spread over
    # the run, off its clock: the host's speed drifts over seconds, so
    # back-to-back set-ups would all share one spell.
    units = workload.units()
    n = len(units)
    order = list(range(n))
    items, walls, setups = [], [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    k = 0
    while k <= n or time.perf_counter() + 0.5 * walls[order[k % n]] < deadline:
        now = time.perf_counter()
        if (len(setups) < SETUP_REPEATS
                and now >= begin + len(setups) * seconds / SETUP_REPEATS):
            setups.append(_fresh_setup_s(workload.name, seed))
            deadline += time.perf_counter() - now
        if k == n:
            order.sort(key=lambda i: -walls[i])
        start = time.perf_counter()
        items.append(units[order[k % n]]())
        if k < n:
            walls.append(time.perf_counter() - start)
        k += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(_fresh_setup_s(workload.name, seed))

    # Every unit keeps its fastest repeat: co-tenant load on a shared
    # host only ever slows a repeat down, and it comes and goes within
    # seconds, so the per-unit minimum over repeats spread across the
    # run is far steadier than any mean or median of whole passes.
    repeats = _repeats(items).values()
    first = [reps[0] for reps in repeats]
    cpu = sum(_fastest(reps, 1) for reps in repeats)
    makespan = sum(_fastest(reps, 0) for reps in repeats)
    steps = [min(samples) for reps in repeats
             for samples in zip(*(i.step_us for i in reps))]
    if not steps:
        # No step is timed outside env: the pass's wall time per
        # simulated epoch stands for both (makespan restated).
        steps = [makespan * 1e6 / sum(i.epochs for i in first)]
    metrics = {
        "setup_s": _median(setups),
        "makespan_s": makespan,
        "flow_s_per_cpu_s": sum(i.flow_s for i in first) / cpu,
        "us_per_pkt": cpu * 1e6 / sum(i.packets for i in first),
        "step_us_p50": _median(steps),
        "step_us_p95": _percentile(steps, 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    # Simulated outputs: fixed by the seed, guarded by the digest.
    goodput = [g for i in first for g in i.goodput_kbps]
    delay = [d for i in first for d in i.delay_ms]
    info = {
        "repeats": len(items),
        "step_samples": len(steps),
        "goodput_kbps": statistics.fmean(goodput) if goodput else 0.0,
        "delay_p95_ms": statistics.fmean(delay) if delay else 0.0,
    }
    jfi = [i.extra["jfi"] for i in first if "jfi" in i.extra]
    if jfi:
        info["jfi"] = jfi[0]
    return metrics, info, items


def traced_run(workload):
    from layers import LayerTrace
    from workloads import SCHED_METRICS, Grid

    serial = 1
    parallel = []
    if isinstance(workload, Grid):
        # The scheduler metrics come from the parallel pass; workers
        # cannot be wrapped from outside, so the traced pass (and its
        # untraced baseline) run the same specs serially in-process.
        workload.setup()
        parallel = _run_pass(workload, jobs=Grid.JOBS)
    # An untimed warm-up pass pays the first-call costs (lazy imports,
    # numpy, caches), so the baseline below is as warm as the traced pass.
    workload.setup()
    warmup = _run_pass(workload, jobs=serial)
    start = time.process_time()
    workload.setup()
    untraced = _run_pass(workload, jobs=serial)
    base_cpu = time.process_time() - start

    trace = LayerTrace()
    with trace:
        with trace.root():
            workload.setup()
            traced = _run_pass(workload, jobs=serial)
        patched = len(trace.patched)
    metrics = trace.metrics()
    extra = {k: v for item in parallel + untraced for k, v in item.extra.items()}
    metrics.update({k: extra.get(k, 0.0) for k in SCHED_METRICS})
    metrics["trace_overhead"] = metrics["traced_cpu_s"] / base_cpu - 1.0
    info = {
        "wrappers": patched,
        "split_error_s": trace.split_total() - metrics["traced_cpu_s"],
        "untraced_cpu_s": base_cpu,
    }
    return metrics, info, parallel + warmup + untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once and print the seconds "
                             "since start-up")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"perfbench: program sources not found at {_SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, _SRC)
    import workloads
    from workloads import digest_of

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            workload.setup()
            print(time.perf_counter() - _T0)
            return 0
        if args.trace:
            metrics, info, items = traced_run(workload)
        else:
            metrics, info, items = timed_run(workload, args.seed, args.seconds)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    attempted = sum(i.attempted for i in items)
    failed = sum(i.failed for i in items)
    # Every repeat of a unit must reproduce its first output.
    repeats = _repeats(items).values()
    mismatched = [i for reps in repeats for i in reps[1:]
                  if i.digest != reps[0].digest]
    failed += sum(i.attempted for i in mismatched)
    expected = _load_expected().get(args.workload)
    digest = digest_of({reps[0].key: reps[0].digest for reps in repeats})
    if args.seed == DEFAULT_SEED and digest != expected:
        failed += sum(reps[0].attempted for reps in repeats)
    if args.trace and abs(info["split_error_s"]) > 1e-6:
        failed += 1
    info["failed_share"] = failed / attempted
    correct = failed == 0

    _table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    print(f"  digest {digest} ({len(mismatched)} of {len(items) - len(repeats)}"
          f" repeats differ; recorded for seed {DEFAULT_SEED}: {expected})")
    for name, value in info.items():
        print(f"  {name:<32} {value!r} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


#: Units of the end-to-end metrics.
UNITS = {
    "setup_s": "s",
    "makespan_s": "s",
    "flow_s_per_cpu_s": "flow-s/cpu-s",
    "us_per_pkt": "us",
    "step_us_p50": "us",
    "step_us_p95": "us",
    "peak_rss_mb": "MiB",
    "goodput_kbps": "KB/s",
    "delay_p95_ms": "ms",
    "jfi": "index",
}


def unit_of(name: str) -> str:
    """Unit of any metric, end-to-end or per-layer."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us") or name.endswith("us_per_call") or name.endswith("us_per_step"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "trace_overhead":
        return "ratio"
    if name == "obs.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
