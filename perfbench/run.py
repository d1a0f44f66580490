"""mpschain benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload chain_spectra --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the package is imported from its src
directory.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced
phase, measured after an untraced phase of the same length.  The line
before it is a detail record: the machine, sizes, failures, tail
percentile and sample count, computed memory, and the single-thread
cli_cold baseline.  --quick runs one untraced pass of every workload
with all its checks and prints one result line per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"

# Set-up samples taken before and again after the measured phases, so
# that one slow stretch of the machine does not decide their median.
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 60
WAKE_DIM = 300
TAIL_BEYOND = 10
clock = time.perf_counter

# Machine-speed probe.  The CPU speed of the development machine drifts
# by up to a quarter over seconds to minutes, and moves pure-Python work
# most.  A run therefore times a fixed routine every PROBE_EVERY_S between
# operations, and scaled workloads report each latency times
# REF_PROBE_S over the median probe time within PROBE_WINDOW_S of it:
# the latency at the reference speed.  REF_PROBE_S is the probe's median
# time on the development machine (a 2.1 GHz Xeon vCPU).
REF_PROBE_S = 4.0e-4
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.3


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import mpschain from this checkout's src directory, never from an
    installed copy, so a directory without the sources fails."""
    pkg = ROOT / "src" / "mpschain"
    if not (pkg / "__init__.py").is_file():
        _die(f"no mpschain sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mpschain
    if Path(mpschain.__file__).resolve().parent != pkg.resolve():
        _die(f"imported mpschain from {mpschain.__file__}, not {pkg}")
    return mpschain


def child_env(**extra) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    env.update(extra)
    return env


def machine_record() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        pass
    ram_mb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    ram_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def blas_wake_s() -> float:
    """First minus second time of a threaded 300x300 eigensolve.

    On a machine that has idled for a while the first multithreaded
    LAPACK call can stall for most of a second; calling this before any
    timed phase also absorbs that stall.
    """
    import numpy as np
    a = np.random.default_rng(0).normal(size=(WAKE_DIM, WAKE_DIM))
    a = a + a.T
    times = []
    for _ in range(2):
        t0 = clock()
        np.linalg.eigvalsh(a)
        times.append(clock() - t0)
    return times[0] - times[1]


def speed_probe() -> float:
    """Seconds of a fixed routine of Python arithmetic and 4x4 numpy
    products, best of three."""
    import numpy as np
    a = np.eye(4) * 1.01
    times = []
    for _ in range(3):
        t0 = clock()
        x = 0
        for i in range(3000):
            x += i * i
        m = a
        for _ in range(100):
            m = m @ a
        times.append(clock() - t0)
    return min(times)


def setup_seconds(samples: int) -> list:
    """(wall, probe) per fresh process that imports mpschain and finishes
    a first small eigensolve; probe is a speed_probe() taken just before
    it."""
    out = []
    for _ in range(samples):
        probe = speed_probe()
        t0 = clock()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               "setup"], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        out.append((clock() - t0, probe))
        if proc.returncode != 0:
            _die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return out


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    pass_busy: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def passes(self) -> int:
        return len(self.pass_busy)


def run_phase(workload, ctx, seconds: float) -> Phase:
    """Whole passes of the op list, one op at a time, for about `seconds`
    of wall time: another pass starts while more than half a pass of
    time is left (there is always at least one pass).  Speed probes run
    between operations, outside their timers."""
    phase = Phase()
    start = clock()
    phase.probes.append((start, speed_probe()))
    while True:
        busy = 0.0
        for i, op in enumerate(workload.ops):
            if ctx.tracer is not None:
                ctx.tracer.op = phase.passes * len(workload.ops) + i
            error = None
            t0 = clock()
            try:
                out = op.run(ctx)
            except Exception as exc:  # an operation failure is counted
                out, error = None, exc
            dt = clock() - t0
            if error is None:
                try:
                    phase.counters.update(op.check(out))
                except Exception as exc:  # so is a failed check
                    error = exc
            out = None  # free the output before the next op runs
            if clock() - phase.probes[-1][0] >= PROBE_EVERY_S:
                phase.probes.append((clock(), speed_probe()))
            busy += dt
            phase.starts.append(t0)
            phase.latencies.append(dt)
            phase.attempted += 1
            if error is not None:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"{op.label}: {error!r}")
        phase.pass_busy.append(busy)
        elapsed = clock() - start
        if elapsed + elapsed / phase.passes / 2 >= seconds:
            break
    phase.wall = clock() - start
    return phase


def tail(latencies: list, cap: int) -> tuple:
    """(value, percentile): nearest rank at the highest whole percentile,
    at most cap, that has at least TAIL_BEYOND samples beyond it.

    Each workload fixes its cap at the highest such percentile for the
    fewest samples a run of the default length takes, so the percentile
    does not move when one run fits one more pass than another.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = min(cap, (100 * (n - TAIL_BEYOND)) // n)
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct


def scaled_latencies(phase: Phase) -> list:
    """Each latency at the reference speed: times REF_PROBE_S over the
    median of the probes within PROBE_WINDOW_S of the operation and the
    nearest probe on each side of that window."""
    times = [t for t, _ in phase.probes]
    secs = [s for _, s in phase.probes]
    out = []
    for t0, dt in zip(phase.starts, phase.latencies):
        lo = max(0, bisect_left(times, t0 - PROBE_WINDOW_S) - 1)
        hi = bisect_right(times, t0 + dt + PROBE_WINDOW_S) + 1
        out.append(dt * REF_PROBE_S / statistics.median(secs[lo:hi]))
    return out


def latency_figures(workload, latencies: list) -> dict:
    """ops_per_s, op_p50_ms and op_tail_ms of one phase's latencies.

    Both the rate and the median come from each position's median over
    the passes, so a slow stretch that hits part of one pass moves
    neither.
    """
    n_ops = len(workload.ops)
    medians = [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]
    tail_s, pct = tail(latencies, workload.tail_percentile)
    return {"ops_per_s": n_ops / sum(medians),
            "op_p50_ms": 1e3 * statistics.median(medians),
            "op_tail_ms": 1e3 * tail_s, "op_tail_percentile": pct,
            "medians": medians}


def setup_figure(setup: list, scaled: bool) -> float:
    return statistics.median(
        wall * REF_PROBE_S / probe if scaled else wall
        for wall, probe in setup)


def end_to_end(workload, ctx, phase: Phase, setup: list) -> dict:
    latencies = (scaled_latencies(phase) if workload.scaled
                 else phase.latencies)
    figures = latency_figures(workload, latencies)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = ctx.peak_rss_kb
    return declared({
        "ops_per_s": figures["ops_per_s"],
        "op_p50_ms": figures["op_p50_ms"],
        "op_tail_ms": figures["op_tail_ms"],
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_figure(setup, scaled=True),
    }, "end_to_end")


def phase_detail(workload, phase: Phase) -> dict:
    """Figures of one phase as measured (raw) and at the reference speed
    (scaled); the end-to-end metrics of a scaled workload are the
    scaled ones."""
    raw = latency_figures(workload, phase.latencies)
    scaled = latency_figures(workload, scaled_latencies(phase))
    by_label = {}
    for op, t in zip(workload.ops, raw.pop("medians")):
        by_label.setdefault(op.label, []).append(t)
    del scaled["medians"]
    probes = [s for _, s in phase.probes]
    return {
        "passes": phase.passes,
        "ops_per_pass": len(workload.ops),
        "wall_s": phase.wall,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "fail_frac": phase.failed / phase.attempted,
        "errors": phase.errors,
        "scaled_metrics": workload.scaled,
        "raw": raw,
        "scaled": scaled,
        "op_tail_samples": len(phase.latencies),
        "speed_probe_s": {"median": statistics.median(probes),
                          "min": min(probes), "max": max(probes),
                          "count": len(probes), "ref": REF_PROBE_S},
        "pass_busy_s": phase.pass_busy,
        "op_median_ms": {label: 1e3 * statistics.median(ts)
                         for label, ts in by_label.items()},
    }


def per_layer(untraced: Phase, traced: Phase, tracer, wake_s: float) -> dict:
    spans = tracer.spans
    passes = traced.passes
    values = tracing.layer_metrics(spans, passes)
    c = traced.counters
    values["verify.catalogue_coverage"] = (
        c["coverage.rank"] / c["coverage.kdim"] if c["coverage.kdim"] else 0.0)
    values["classify.refusals"] = (
        c["classify.refusals"] / c["classify.attempts"]
        if c["classify.attempts"] else 0.0)
    first_calls = tracer.samples.get("verify.spectrum.first_call_s")
    if first_calls is None:
        first_calls = [rec[2] - rec[1] for rec in spans
                       if rec[0] == "verify.spectrum"][:1]
    values["verify.spectrum.first_call_s"] = (
        statistics.median(first_calls) if first_calls else 0.0)
    imports = tracer.samples.get("cli.import_s", [])
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["cli.blas_wake_s"] = wake_s
    values["trace.uncovered_s"] = (
        sum(traced.pass_busy) - tracing.root_time(spans)) / passes
    base = statistics.median(untraced.pass_busy)
    values["trace.overhead_frac"] = (
        statistics.median(traced.pass_busy) - base) / base
    return declared(values, "per_layer")


def declared(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under kind, with its units;
    a declared metric that was not measured is an error."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        specs = json.load(fh)[kind]
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(detail, result) of one run."""
    import workloads
    WORKDIR.mkdir(exist_ok=True)
    wake_s = blas_wake_s()
    setup = setup_seconds(SETUP_SAMPLES)
    ctx = workloads.Context(root=ROOT, workdir=WORKDIR, env=child_env())
    workload = workloads.WORKLOADS[name](seed, ctx)
    # the inputs and references live for the whole run: keep them out of
    # the collections the measured calls trigger
    gc.collect()
    gc.freeze()
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine_record(),
        "sizes": workload.sizes,
        "blas_wake_s": wake_s,
    }
    if not trace:
        phase = run_phase(workload, ctx, seconds)
        setup += setup_seconds(SETUP_SAMPLES)
        metrics = end_to_end(workload, ctx, phase, setup)
        detail["phase"] = phase_detail(workload, phase)
        detail["memory"] = memory_note(workload,
                                       metrics["peak_rss_mb"]["value"])
        phases = [phase]
    else:
        share = seconds / (3 if not workload.in_process else 2)
        untraced = run_phase(workload, ctx, share)
        tracer = tracing.Tracer()
        ctx.tracer = tracer
        tracer.install()
        try:
            traced = run_phase(workload, ctx, share)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        metrics = per_layer(untraced, traced, tracer, wake_s)
        detail["untraced"] = phase_detail(workload, untraced)
        detail["traced"] = phase_detail(workload, traced)
        tracer.write(WORKDIR / f"spans-{name}.jsonl",
                     {"workload": name, "seed": seed,
                      "passes": traced.passes})
        phases = [untraced, traced]
        if not workload.in_process:
            # single-thread baseline: the variable is set for the
            # children only, never for this process or the machine
            ctx.env = child_env(OPENBLAS_NUM_THREADS="1")
            single = run_phase(workload, ctx, share)
            detail["single_thread"] = dict(
                phase_detail(workload, single), OPENBLAS_NUM_THREADS="1")
            phases.append(single)
    detail["setup"] = {"samples_s": [wall for wall, _ in setup],
                       "probes_s": [probe for _, probe in setup],
                       "raw_s": setup_figure(setup, scaled=False),
                       "scaled_s": setup_figure(setup, scaled=True)}
    for path in (WORKDIR / "chain.mpsh", WORKDIR / "child.jsonl"):
        path.unlink(missing_ok=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def memory_note(workload, rss_mb: float) -> dict:
    """Computed dense bytes beside the measured peak, and what the
    site guard would admit (computed, never run)."""
    from mpschain.hamiltonian import max_sites
    guard = max_sites()
    return {
        "peak_rss_mb": rss_mb,
        "computed_dense_mb": workload.sizes["dense_bytes"] / 2 ** 20,
        "guard_max_sites": guard,
        "guard_chain_dense_mb": 16 * 4 ** guard / 2 ** 20,
        "guard_full_chain_peak_mb": tracing.chain_dense_bytes(guard) / 2 ** 20,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one checked pass of every workload")
    args = parser.parse_args()
    _import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.quick:
        ok = True
        for name in workloads.WORKLOADS:
            _, result = run_workload(name, args.seed, 0.0, False)
            ok = ok and result["correct"]
            print(json.dumps({"workload": name, **result}))
        return 0 if ok else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    detail, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
