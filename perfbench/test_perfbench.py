"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mpschain  # noqa: E402
# imported before any snapshot: the tracer wraps cli's functions too
import mpschain.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mpschain.pauli import (SL2, CSpace, PauliQuartet,  # noqa: E402
                            sl2_act_space, span_equal)


def _span(name, start, end, parent, value=None):
    return [name, start, end, parent, 0, value]


def test_self_time_on_nested_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("classify.classify", 1.0, 4.0, 0),
        _span("pauli.sl2_act", 2.0, 3.0, 1),
        # helpers that are not reported by name, one calling the other
        _span("classify.normalize_null", 3.25, 3.75, 1),
        _span("classify.canonical_space", 3.5, 3.625, 3),
        _span("verify.spectrum", 5.0, 8.0, 0, 1),
        # a helper called from another layer's code
        _span("states.zeta_weight", 5.5, 6.0, 5),
        _span("serialize.dumps", 8.5, 9.75, 0, 7),
        _span("serialize.format_float", 9.0, 9.25, 7),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10.0 - (3.0 + 3.0 + 1.25), 1.5, 1.0, 0.375,
                                 0.125, 2.5, 0.5, 1.0, 0.25])
    assert tracing.root_time(spans) == pytest.approx(10.0)
    layers = tracing.layer_metrics(spans, passes=2)
    # classify's own 1.5 s plus its helpers' 0.375 + 0.125 s
    assert layers["classify.classify.self_s"] == pytest.approx(1.0)
    assert layers["classify.self_s"] == pytest.approx(1.0)
    assert layers["verify.spectrum.self_s"] == pytest.approx(1.25)
    # zeta_weight has no named states ancestor: only the layer total has it
    assert layers["states.self_s"] == pytest.approx(0.25)
    assert all(layers[f"{name}.self_s"] == 0.0 for name in tracing.NAMED_SELF
               if name.startswith("states."))
    assert layers["cli.main.self_s"] == pytest.approx(2.75 / 2)
    assert layers["pauli.calls_per_classify"] == 1.0
    assert layers["verify.spectrum.calls"] == 0.5
    assert layers["verify.gap_warnings"] == 0.5
    assert layers["serialize.self_s"] == pytest.approx(1.25 / 2)
    assert layers["serialize.bytes_out"] == 3.5


def _function_objects():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "mpschain" or name.startswith("mpschain."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[(name, attr)] = obj
    out[("CSpace", "__init__")] = CSpace.__init__
    return out


def test_untraced_run_leaves_functions_unwrapped():
    before = _function_objects()
    assert not any(hasattr(f, "__wrapped__") for f in before.values())
    ctx = workloads.Context(root=ROOT, workdir=ROOT / ".bench_work",
                            env=run.child_env())
    wl = workloads.algebra(3, ctx)
    wl.ops = wl.ops[:48]
    phase = run.run_phase(wl, ctx, 0.0)
    assert phase.failed == 0, phase.errors
    assert _function_objects() == before


def test_tracer_wraps_then_restores():
    before = _function_objects()
    ctx = workloads.Context(root=ROOT, workdir=ROOT / ".bench_work",
                            env=run.child_env())
    wl = workloads.algebra(4, ctx)
    wl.ops = wl.ops[:48]
    tracer = tracing.Tracer()
    ctx.tracer = tracer
    tracer.install()
    try:
        assert hasattr(mpschain.classify, "__wrapped__")
        assert hasattr(mpschain.pauli.sl2_act, "__wrapped__")
        phase = run.run_phase(wl, ctx, 0.0)
    finally:
        tracer.uninstall()
    assert phase.failed == 0, phase.errors
    assert _function_objects() == before
    names = {rec[0] for rec in tracer.spans}
    assert {"classify.classify", "classify.invariant_signature",
            "pauli.CSpace", "states.mps_contract"} <= names
    layers = tracing.layer_metrics(tracer.spans, phase.passes)
    assert layers["pauli.calls_per_classify"] > 1.0
    assert {rec[4] for rec in tracer.spans} <= set(range(48))


def test_tail_has_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct = run.tail(lat, 99)
    assert (value, pct) == (90, 90)
    assert sum(x > value for x in lat) >= 10
    value, pct = run.tail(list(range(1, 37)), 99)
    assert pct == 72 and sum(x > value for x in range(1, 37)) >= 10


def test_latencies_scale_by_nearby_probes():
    ref = run.REF_PROBE_S
    phase = run.Phase(starts=[0.0, 1.0, 5.0], latencies=[0.5, 0.25, 0.5],
                      probes=[(0.0, ref), (0.6, 2 * ref), (1.3, 2 * ref),
                              (5.6, ref / 2)])
    # op 0 sees the probes at 0.0 and 0.6, plus the next one at 1.3;
    # op 1 sees 1.3, plus 0.6 before and 5.6 after; op 2 sees 5.6, plus
    # 1.3 before (the median of two probes is their mean)
    assert run.scaled_latencies(phase) == pytest.approx([0.25, 0.125, 0.4])
    setup = [(0.2, ref), (0.3, 2 * ref), (0.8, ref / 2)]
    assert run.setup_figure(setup, scaled=False) == pytest.approx(0.3)
    assert run.setup_figure(setup, scaled=True) == pytest.approx(0.2)


def test_orbit_generator_matches_library_action():
    rng = np.random.default_rng(7)
    for case in workloads.CaseId:
        rows = workloads.canonical_rows(case, 0.3 + 0.2j)
        if rows.shape[0] == 0:
            continue
        g = workloads.random_unimodular(rng)
        ours = CSpace([PauliQuartet(*r) for r in workloads.act(g, rows)])
        theirs = sl2_act_space(SL2.unit_normalized(g),
                               CSpace([PauliQuartet(*r) for r in rows]))
        assert span_equal(ours, theirs, 1e-9)


def test_recorded_kernel_dims_hold_for_another_seed():
    rng = np.random.default_rng(11)
    for label, (fam, mapping) in workloads.family_specs(rng).items():
        report = mpschain.family_report(
            mpschain.params_from_mapping(fam, mapping), 10)
        assert report.kernel_dim == workloads.expected_kernel_dim(
            label, 10), label


def test_quick_mode_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in results] == list(workloads.WORKLOADS)
    assert all(r["correct"] and r["failed"] == 0 for r in results)
