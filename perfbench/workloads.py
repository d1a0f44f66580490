"""The three benchmark workloads: seeded inputs, operations and checks.

Every workload is a fixed list of operations built from the seed before
timing starts.  An operation's run() is the timed call into mpschain; its
check() runs afterwards, untimed, and raises CheckFailed when the output
is wrong.  Checks call no mpschain function: they use the benchmark's
own numpy code or references that were computed during set-up.
An expected refusal (an uncatalogued space, a case the catalogue has no
bond representation for) is a success.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Timed calls go through the package namespace (mc.classify, ...), which
# is where the tracer rebinds its wrappers.
import mpschain as mc
from mpschain import (CaseId, CSpace, MPSSpec, NoRepresentationError,
                      PauliQuartet, UncataloguedSpaceError,
                      params_from_mapping)
from mpschain.serialize import pack_chain
from mpschain.verify import stacked_state_rank

from tracing import COMPLEX_BYTES, chain_dense_bytes, read_spans

MEMBER_TOL = 1e-9
WITNESS_TOL = 1e-8
MU_TOL = 1e-6
OMEGA3 = cmath.exp(2j * cmath.pi / 3)


def hardcore_count(n: int) -> int:
    """Fibonacci(n + 2): strings of n sites with no two adjacent zeros."""
    a, b = 1, 2
    for _ in range(n):
        a, b = b, a + b
    return a


# Kernel dimensions without a closed form, recorded once from dense ED at
# n = 10 with weights strictly inside the PSD cone (any seed gives these).
RECORDED_KERNEL_DIM = {
    "hardcore-mixed": 11,
    "hardcore-singlet": 2,
    "pairsum-exchange/prime": 2,
    "pairsum-exchange/parity": 2,
    "hardcore-exchange": 2,
    "mixed-singlet": 2,
}


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: run(ctx) is timed, check(out) is not.

    check returns a dict of counters that the phase sums up.
    """

    label: str
    run: Callable
    check: Callable


@dataclass
class Context:
    """What an operation may need at run time."""

    root: Path
    workdir: Path
    env: dict
    tracer: object = None
    peak_rss_kb: int = 0


@dataclass
class Workload:
    """ops is one pass; tail_percentile caps op_tail_ms's percentile;
    scaled reports latencies at the reference speed (run.speed_probe)."""

    name: str
    ops: list
    sizes: dict
    tail_percentile: int
    in_process: bool = True
    scaled: bool = True


# ---------------------------------------------------------------------------
# seeded parameter draws (weights strictly inside the PSD cone)

def _phase(rng) -> complex:
    return cmath.exp(2j * cmath.pi * rng.uniform())


def _g(rng) -> float:
    return float(rng.uniform(0.5, 2.0))


def _nu(rng) -> complex:
    return complex(rng.uniform(0.5, 1.5) * _phase(rng))


def _weights(rng, lo=0.5, hi=2.0) -> dict:
    g1, g2 = (float(x) for x in rng.uniform(lo, hi, size=2))
    g3 = complex(rng.uniform(0.1, 0.9) * np.sqrt(g1 * g2) * _phase(rng))
    return {"g1": g1, "g2": g2, "g3": g3}


def _lambda3(rng) -> np.ndarray:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return a.conj().T @ a + 0.1 * np.eye(3)


def family_specs(rng) -> dict:
    """label -> (family, parameter mapping) for every family and branch."""
    w = _weights(rng)
    nu = _nu(rng)
    nu_x, nu_y = _nu(rng), _nu(rng)
    return {
        "exchange/-1": ("exchange",
                        {"g": _g(rng), "nu": nu, "nu_prime": -nu}),
        "exchange/omega3": ("exchange",
                            {"g": _g(rng), "nu": nu,
                             "nu_prime": OMEGA3 * nu}),
        "hardcore": ("hardcore", {"g": _g(rng)}),
        "hardcore-mixed": ("hardcore-mixed", {"g": _g(rng)}),
        "antialigned": ("antialigned", _weights(rng)),
        "hardcore-singlet": ("hardcore-singlet", _weights(rng)),
        "pairsum-exchange/prime": ("pairsum-exchange",
                                   dict(w, nu=nu_x, nu_prime=-nu_x)),
        "pairsum-exchange/parity": ("pairsum-exchange",
                                    dict(w, nu=nu_x, nu_prime=nu_x)),
        "hardcore-exchange": ("hardcore-exchange",
                              dict(_weights(rng), nu=nu_x, nu_prime=nu_y)),
        "mixed-singlet": ("mixed-singlet", _weights(rng)),
        "pinned": ("pinned", {"lambda3": _lambda3(rng)}),
    }


def expected_kernel_dim(label: str, n: int) -> int:
    family = label.split("/")[0]
    if family == "hardcore":
        return hardcore_count(n)
    if family == "exchange":
        return n + 1
    if family == "antialigned":
        return 2
    if family == "pinned":
        return 1
    return RECORDED_KERNEL_DIM[label]


def expected_catalogue_size(label: str, n: int) -> int:
    if label == "exchange/-1":
        return 2 + n // 2 - 1
    if label == "exchange/omega3":
        return 2 + n // 3 - 1
    if label == "hardcore":
        return hardcore_count(n)
    if label == "antialigned" or label == "pairsum-exchange/parity":
        return 2
    return 1


# ---------------------------------------------------------------------------
# chain_spectra

def chain_spectra(seed: int, ctx: Context) -> Workload:
    rng = np.random.default_rng(seed)
    specs = family_specs(rng)
    plan = [(label, 9 if label == "exchange/omega3" else 10)
            for label in specs]
    plan.append(("hardcore", 11))
    ops = []
    for label, n in plan:
        params = params_from_mapping(*specs[label])
        rank = stacked_state_rank(
            [ns.state for ns in mc.ground_state_catalogue(params, n)])
        ops.append(Op(f"{label}@{n}",
                      lambda c, p=params, n=n: mc.family_report(p, n),
                      _report_check(label, n, rank)))
    # 3 passes (36 samples) fit the default run: p72 leaves 10 beyond.
    # Not scaled: the eigensolves leave BLAS threads spinning on the other
    # core while the speed probe runs, so the probe would read a change
    # in BLAS use as a change in machine speed.
    return Workload("chain_spectra", ops, tail_percentile=72, sizes={
        "ops": [op.label for op in ops],
        "dense_bytes": max(chain_dense_bytes(n) for _, n in plan),
    }, scaled=False)


def _report_check(label: str, n: int, rank: int):
    kdim = expected_kernel_dim(label, n)
    count = expected_catalogue_size(label, n)

    def check(report):
        require(report.kernel_dim == kdim,
                f"{label} n={n}: kernel_dim {report.kernel_dim} != {kdim}")
        require(len(report.residuals) == count,
                f"{label} n={n}: {len(report.residuals)} catalogued states, "
                f"expected {count}")
        worst = max(report.residuals.values(), default=0.0)
        require(worst <= MEMBER_TOL,
                f"{label} n={n}: residual {worst:.3e} > {MEMBER_TOL}")
        return {"coverage.rank": rank, "coverage.kdim": report.kernel_dim}

    return check


# ---------------------------------------------------------------------------
# algebra: classifier pipeline and large catalogues

_T2MU = "t2+mu*s"
CANONICAL_ROWS = {
    CaseId.EMPTY: [],
    CaseId.ANTISYMMETRIC_LINE: [(0, 0, 0, 1)],
    CaseId.NONNULL_LINE: [_T2MU],
    CaseId.NONNULL_LINE_SIGMA: [(0, 0, 1, 0), (0, 0, 0, 1)],
    CaseId.NULL_LINE: [(1, 1, 0, 0)],
    CaseId.NULL_LINE_TILTED: [(1, 1, 0, 1)],
    CaseId.NULL_LINE_SIGMA: [(1, 1, 0, 0), (0, 0, 0, 1)],
    CaseId.REGULAR_PLANE: [(1, 0, 0, 0), _T2MU],
    CaseId.REGULAR_PLANE_TILTED: [(1, 0, 0, 1), (0, 0, 1, 1)],
    CaseId.DEGENERATE_PLANE: [(1, 1, 0, 0), _T2MU],
    CaseId.DEGENERATE_PLANE_TILTED: [(1, 1, 0, 1), (0, 0, 1, 0)],
    CaseId.DEGENERATE_PLANE_SIGMA: [(1, 1, 0, 0), (0, 0, 1, 0),
                                    (0, 0, 0, 1)],
    CaseId.FULL_SYMMETRIC: [(1, 0, 0, 0), (0, 1, 0, 0), _T2MU],
    CaseId.FULL_SYMMETRIC_TILTED: [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0)],
    CaseId.FULL_SPACE: [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                        (0, 0, 0, 1)],
}
# span{tau0, tau2, sigma}: no canonical form, classify must refuse it
UNCATALOGUED_ROWS = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

MINKOWSKI = np.diag([-1.0, 1.0, 1.0])
ORBIT_SAMPLES = 50   # per (case, modulus) per pass
ORBIT_MAX_COND = 20.0
MPS_SITES = 10
CATALOGUE_SITES = 18
HARDCORE_CATALOGUE_SITES = 14


def canonical_rows(case: CaseId, mu) -> np.ndarray:
    rows = [(0, 0, 1, mu) if r == _T2MU else r for r in CANONICAL_ROWS[case]]
    return np.array(rows, dtype=complex).reshape(len(rows), 4)


def act(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Quartet rows of g^T C g for each row C (the unimodular action)."""
    v0, v1, v2, u = (rows[:, i] for i in range(4))
    c = np.empty((rows.shape[0], 2, 2), dtype=complex)
    c[:, 0, 0], c[:, 1, 1] = v0 + v1, v0 - v1
    c[:, 0, 1], c[:, 1, 0] = v2 + u, v2 - u
    m = g.T @ c @ g
    return np.stack([(m[:, 0, 0] + m[:, 1, 1]) / 2,
                     (m[:, 0, 0] - m[:, 1, 1]) / 2,
                     (m[:, 0, 1] + m[:, 1, 0]) / 2,
                     (m[:, 0, 1] - m[:, 1, 0]) / 2], axis=1)


def random_unimodular(rng) -> np.ndarray:
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-3:
            continue
        g = m / np.sqrt(det)
        s = np.linalg.svd(g, compute_uv=False)
        if s[0] / s[-1] <= ORBIT_MAX_COND:
            return g


def spans_agree(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Equal dimension and every row of each within tol of the other's
    span (relative to max(1, |row|))."""
    if a.shape[0] != b.shape[0]:
        return False
    if a.shape[0] == 0:
        return True
    for x, y in ((a, b), (b, a)):
        coef, *_ = np.linalg.lstsq(y.T, x.T, rcond=None)
        resid = np.linalg.norm(y.T @ coef - x.T, axis=0)
        scale = np.maximum(1.0, np.linalg.norm(x, axis=1))
        if np.any(resid > tol * scale):
            return False
    return True


def expected_signature(rows: np.ndarray) -> tuple:
    """(dim, dim_plus, gram_rank, sigma_in) of a canonical basis."""
    k = rows.shape[0]
    if k == 0:
        return (0, 0, 0, False)
    _, sv, vh = np.linalg.svd(rows[:, :3])
    p = int(np.sum(sv > 1e-10))
    if p == 0:
        return (k, 0, 0, p < k)
    basis = vh[:p]
    gsv = np.linalg.svd(basis @ MINKOWSKI @ basis.T, compute_uv=False)
    grank = int(np.sum(gsv > 1e-8 * max(1.0, gsv[0])))
    return (k, p, grank, p < k)


def _root_order(z: complex):
    """The least m <= 24 with z^m = 1 (to 1e-9), or None."""
    if abs(abs(z) - 1.0) > 1e-9:
        return None
    for m in range(1, 25):
        if abs(z ** m - 1.0) <= 1e-9:
            return m
    return None


def has_representation(case: CaseId, mu) -> bool:
    """Which canonical forms the bond-matrix catalogue covers."""
    if case is CaseId.NONNULL_LINE:
        if abs(mu - 1.0) <= 1e-9:
            return False
        return _root_order((1.0 + mu) / (mu - 1.0)) is not None
    if case is CaseId.REGULAR_PLANE:
        return abs(mu) <= 1e-9
    return case not in (CaseId.REGULAR_PLANE_TILTED, CaseId.FULL_SYMMETRIC,
                        CaseId.FULL_SYMMETRIC_TILTED, CaseId.FULL_SPACE)


def brute_force_amplitudes(a0: np.ndarray, a1: np.ndarray, n: int):
    """tr(A_s1 ... A_sn) for every string, site 1 most significant,
    by left-to-right products over all 2^n strings."""
    d = a0.shape[0]
    prods = np.stack([a0, a1])
    for _ in range(n - 1):
        prods = np.stack([prods @ a0, prods @ a1], axis=1).reshape(-1, d, d)
    return np.trace(prods, axis1=1, axis2=2)


def check_mps(result, a0, a1, n: int, what: str) -> None:
    ref = brute_force_amplitudes(a0, a1, n)
    amps = result.state.amplitudes
    scale = max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(amps - ref)))
    require(err <= 1e-9 * scale,
            f"{what}: mps amplitudes differ from brute force by {err:.3e}")
    z = float(np.sum(np.abs(ref) ** 2))
    require(abs(result.z - z) <= 1e-9 * max(1.0, z),
            f"{what}: z {result.z!r} != brute-force norm {z!r}")


def _mu_moduli(case: CaseId, rng) -> list:
    generic = complex(rng.uniform(0.2, 1.5)
                      * cmath.exp(1j * rng.uniform(-1.3, 1.3)))
    if case is CaseId.NONNULL_LINE:
        m = int(rng.integers(3, 7))
        return [0.0, 1j / np.tan(np.pi / m), generic]
    return [0.0, 1.0, generic]


def orbit_kinds(rng) -> list:
    """(case or None for the uncatalogued span, mu) per orbit kind."""
    kinds = []
    for case in CaseId:
        if "t2+mu*s" in CANONICAL_ROWS[case]:
            kinds.extend((case, complex(mu)) for mu in _mu_moduli(case, rng))
        else:
            kinds.append((case, None))
    kinds.append((None, None))
    return kinds


def _pipeline(space):
    sig = mc.invariant_signature(space)
    try:
        result = mc.classify(space)
    except UncataloguedSpaceError as exc:
        return sig, exc, None, None, None
    try:
        rep = mc.representation_for_case(result.form)
    except NoRepresentationError as exc:
        return sig, result, exc, None, None
    resid = mc.constraint_residual(result.canonical, rep.spec)
    return sig, result, rep, resid, mc.mps_contract(rep.spec, MPS_SITES)


def kind_rows(case, mu) -> np.ndarray:
    """Basis of an orbit kind; case None is the uncatalogued span."""
    if case is None:
        return np.array(UNCATALOGUED_ROWS, dtype=complex)
    return canonical_rows(case, mu)


def _pipeline_check(case, mu, rows):
    what = f"{case.value if case else 'uncatalogued'} mu={mu}"
    want_sig = expected_signature(kind_rows(case, mu))

    def check(out):
        sig, result, rep, resid, mps = out
        got = (sig.dim, sig.dim_plus, sig.gram_rank, sig.sigma_in)
        require(got == want_sig, f"{what}: signature {got} != {want_sig}")
        if case is None:
            require(isinstance(result, UncataloguedSpaceError),
                    f"{what}: classify did not refuse the uncatalogued span")
            return {"classify.attempts": 1, "classify.refusals": 1}
        require(not isinstance(result, Exception),
                f"{what}: classify refused a catalogued space")
        form = result.form
        require(form.case_id is case, f"{what}: classified as {form.case_id}")
        if mu is not None:
            require(abs(form.mu - mu) <= MU_TOL * max(1.0, abs(mu)),
                    f"{what}: recovered mu {form.mu}")
        image = act(np.asarray(result.gamma.matrix), rows)
        require(spans_agree(image, canonical_rows(case, form.mu),
                            WITNESS_TOL),
                f"{what}: witness does not carry the input onto the "
                f"canonical span")
        if not has_representation(case, form.mu):
            require(isinstance(rep, NoRepresentationError),
                    f"{what}: expected no bond representation")
            return {"classify.attempts": 1}
        require(not isinstance(rep, Exception),
                f"{what}: missing bond representation ({rep})")
        require(resid <= 1e-10, f"{what}: constraint residual {resid:.3e}")
        check_mps(mps, rep.spec.a0, rep.spec.a1, MPS_SITES, what)
        return {"classify.attempts": 1}

    return check


# bond constraint rows of the catalogued families, (|00>,|01>,|10>,|11>)
def _constraint_rows(label: str, mapping: dict) -> np.ndarray:
    if label == "hardcore":
        return np.array([[1, 0, 0, 0]], dtype=complex)
    exchange = [0, mapping["nu_prime"], -mapping["nu"], 0]
    if label.startswith("exchange"):
        return np.array([exchange], dtype=complex)
    return np.array([[1, 0, 0, 1], exchange], dtype=complex)


def bond_residual(amps: np.ndarray, rows: np.ndarray, n: int) -> float:
    """|(R on every bond) psi| / (|psi| |R|): zero exactly when psi lies
    in the joint kernel of the bond constraints."""
    total = 0.0
    r = rows.reshape(-1, 4)
    for i in range(n - 1):
        view = amps.reshape(2 ** i, 4, 2 ** (n - 2 - i))
        total += float(np.sum(np.abs(np.einsum("kb,ibj->kij", r, view)) ** 2))
    return float(np.sqrt(total) / (np.linalg.norm(amps)
                                   * np.linalg.norm(r)))


def _catalogue_check(label: str, mapping: dict, n: int, probe: np.ndarray):
    rows = _constraint_rows(label, mapping)
    count = expected_catalogue_size(label, n)
    seen = {}

    def check(states):
        require(len(states) == count,
                f"{label} n={n}: {len(states)} states, expected {count}")
        prints = np.array([ns.state.amplitudes @ probe for ns in states])
        labels = [ns.label for ns in states]
        if "prints" not in seen:
            for ns in states:
                res = bond_residual(ns.state.amplitudes, rows, n)
                require(res <= MEMBER_TOL,
                        f"{label} n={n} {ns.label}: residual {res:.3e}")
            seen.update(prints=prints, labels=labels)
        else:
            require(labels == seen["labels"]
                    and np.allclose(prints, seen["prints"], rtol=1e-12,
                                    atol=0.0),
                    f"{label} n={n}: catalogue differs from its first call")
        return {}

    return check


def algebra(seed: int, ctx: Context) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    kinds = orbit_kinds(rng)
    for _ in range(ORBIT_SAMPLES):
        for case, mu in kinds:
            rows = act(random_unimodular(rng), kind_rows(case, mu))
            space = CSpace([PauliQuartet(*r) for r in rows])
            ops.append(Op(f"classify:{case.value if case else 'uncat'}",
                          lambda c, s=space: _pipeline(s),
                          _pipeline_check(case, mu, rows)))
    specs = family_specs(rng)
    catalogues = [("exchange/-1", CATALOGUE_SITES),
                  ("exchange/omega3", CATALOGUE_SITES),
                  ("pairsum-exchange/prime", CATALOGUE_SITES),
                  ("pairsum-exchange/parity", CATALOGUE_SITES),
                  ("hardcore", HARDCORE_CATALOGUE_SITES)]
    for label, n in catalogues:
        fam, mapping = specs[label]
        params = params_from_mapping(fam, mapping)
        probe = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        ops.append(Op(f"catalogue:{label}@{n}",
                      lambda c, p=params, n=n:
                      mc.ground_state_catalogue(p, n),
                      _catalogue_check(label, mapping, n, probe)))
    # p99 falls past the bulk of even the slowest orbit kinds (3 kinds of
    # 50 make up the slowest 12% of a pass) and swings with the machine;
    # p90 sits inside them
    return Workload("algebra", ops, tail_percentile=90, sizes={
        "orbit_kinds": len(kinds),
        "orbit_samples_per_kind": ORBIT_SAMPLES,
        "orbit_max_cond": ORBIT_MAX_COND,
        "mps_sites": MPS_SITES,
        "catalogues": [f"{label}@{n}" for label, n in catalogues],
        "dense_bytes": max(COMPLEX_BYTES * 2 ** n
                           * expected_catalogue_size(label, n)
                           for label, n in catalogues),
    })


# ---------------------------------------------------------------------------
# cli_cold: fresh interpreter per command

CHILD_TIMEOUT_S = 120


def _json_value(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return [[_json_value(complex(x)) for x in row] for row in v]
    return v


def _params_json(mapping: dict) -> str:
    return json.dumps({k: _json_value(v) for k, v in mapping.items()})


def _run_cli(ctx: Context, argv: list, stdin_text: str | None):
    """Run one mpschain command in a fresh interpreter: the timed call.

    The command goes through the benchmark's launcher, which does what
    `python -m mpschain` does and also writes the child's own peak RSS
    and, when ctx.tracer is set, installs the same wrappers in the child
    and writes its spans.  _collect_child reads that record afterwards.
    """
    record = ctx.workdir / "child.jsonl"
    # a record left by a command that raised must not pass for this one's
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(ctx.root / "perfbench" / "child.py"), "cli",
           str(record), "0" if ctx.tracer is None else "1", *argv]
    return subprocess.run(cmd, input=stdin_text, capture_output=True,
                          text=True, env=ctx.env, cwd=ctx.root,
                          timeout=CHILD_TIMEOUT_S)


def _collect_child(ctx: Context) -> None:
    """Take in the launcher's record of the command that just ran."""
    path = ctx.workdir / "child.jsonl"
    records = read_spans(path)
    path.unlink()  # a launcher that fails to write its record fails here
    ctx.peak_rss_kb = max(ctx.peak_rss_kb, records[0]["peak_rss_kb"])
    if ctx.tracer is not None:
        _merge_child_spans(ctx.tracer, records[0], records[1:])


def _merge_child_spans(tracer, header: dict, spans: list) -> None:
    tracer.samples.setdefault("cli.import_s", []).append(header["import_s"])
    offset = len(tracer.spans)
    first_spectrum = None
    for name, start, end, parent, _, value in spans:
        if first_spectrum is None and name == "verify.spectrum":
            first_spectrum = end - start
        tracer.spans.append((name, start, end,
                             parent + offset if parent >= 0 else -1,
                             tracer.op, value))
    if first_spectrum is not None:
        tracer.samples.setdefault("verify.spectrum.first_call_s",
                                  []).append(first_spectrum)


def _cli_op(label, argv, verify_first, stdin_text=None, out_file=None):
    """A CLI operation that must exit with 0 and whose stdout (and output
    file) must be byte identical on every repetition; verify_first
    compares the first output with the in-process result.

    Only the child process is timed.  The check first takes in the
    child's record (peak RSS, spans), then reads the output file, before
    the next operation starts.  Repetitions are compared per BLAS thread
    setting: the eigenvalues that verify prints differ in their last
    digits between one thread and several.
    """
    seen = {}

    def run(ctx):
        return _run_cli(ctx, argv, stdin_text), ctx

    def check(out):
        proc, ctx = out
        _collect_child(ctx)
        require(proc.returncode == 0,
                f"{label}: exit {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}")
        data = out_file.read_bytes() if out_file is not None else b""
        digest = hashlib.sha256(data).hexdigest()
        threads = ctx.env.get("OPENBLAS_NUM_THREADS")
        if threads not in seen:
            seen[threads] = (proc.stdout, digest,
                             verify_first(proc.stdout, data) or {})
        stdout, first_digest, counters = seen[threads]
        require(proc.stdout == stdout and digest == first_digest,
                f"{label}: output differs from the first repetition")
        return counters

    return Op(label, run, check)


def _verify_reference(label, params, n):
    report = mc.family_report(params, n)
    rank = stacked_state_rank(
        [ns.state for ns in mc.ground_state_catalogue(params, n)])
    kdim = expected_kernel_dim(label, n)

    def verify_first(stdout, _):
        payload = json.loads(stdout)
        require(payload["kernel_dim"] == kdim == report.kernel_dim,
                f"verify {label}: kernel_dim {payload['kernel_dim']}")
        require(sorted(payload["residuals"]) == sorted(report.residuals),
                f"verify {label}: catalogued labels differ")
        require(max(payload["residuals"].values()) <= MEMBER_TOL,
                f"verify {label}: residual above {MEMBER_TOL}")
        require(abs(payload["ground_energy"] - report.ground_energy) <= 1e-12,
                f"verify {label}: ground energy differs in-process")
        return {"coverage.rank": rank, "coverage.kdim": kdim}

    return verify_first


def _sweep_reference(fam, base, name, values, n):
    reports = []
    for v in values:
        reports.append(mc.family_report(
            params_from_mapping(fam, dict(base, **{name: float(v)})), n))

    def verify_first(stdout, _):
        rows = list(csv.reader(io.StringIO(stdout)))
        require(rows[0] == ["params", "ground_energy", "kernel_dim",
                            "max_residual"], "sweep: bad CSV header")
        require(len(rows) == len(values) + 1, "sweep: wrong row count")
        for row, report in zip(rows[1:], reports):
            require(int(row[2]) == 2 == report.kernel_dim,
                    f"sweep: kernel_dim {row[2]} != 2")
            require(float(row[3]) <= MEMBER_TOL, "sweep: residual too big")
            require(abs(float(row[1]) - report.ground_energy) <= 1e-12,
                    "sweep: ground energy differs in-process")
        return {}

    return verify_first


def _classify_reference(space, case, mu, rows):
    result = mc.classify(space)

    def verify_first(stdout, _):
        payload = json.loads(stdout)
        require(payload["case_id"] == case.value == result.form.case_id.value,
                f"classify: case {payload['case_id']}")
        got_mu = complex(*payload["mu"])
        require(abs(got_mu - mu) <= MU_TOL * max(1.0, abs(mu))
                and abs(got_mu - result.form.mu) <= 1e-12,
                f"classify: mu {got_mu}")
        gamma = np.array([[complex(*z) for z in r] for r in payload["gamma"]])
        require(spans_agree(act(gamma, rows), canonical_rows(case, got_mu),
                            WITNESS_TOL), "classify: witness not faithful")
        return {}

    return verify_first


def _mps_reference(a0, a1, n):
    result = mc.mps_contract(MPSSpec(a0, a1), n)
    check_mps(result, a0, a1, n, "mps")

    def verify_first(stdout, _):
        payload = json.loads(stdout)
        amps = np.array([complex(*z) for z in payload["amplitudes"]])
        require(np.array_equal(amps, result.state.amplitudes)
                and payload["z"] == result.z,
                "mps: output differs from the in-process contraction")
        return {}

    return verify_first


def _ground_states_reference(params, n, label):
    states = mc.ground_state_catalogue(params, n)
    count = expected_catalogue_size(label, n)

    def verify_first(stdout, _):
        payload = json.loads(stdout)
        require(len(payload) == count == len(states),
                f"ground-states {label}: {len(payload)} states")
        for item, ns in zip(payload, states):
            amps = np.array([complex(*z) for z in item["amplitudes"]])
            require(item["label"] == ns.label
                    and np.array_equal(amps, ns.state.amplitudes),
                    f"ground-states {label}: {item['label']} differs")
        return {}

    return verify_first


def _build_h_reference(params, n):
    expected = pack_chain(n, mc.full_chain(mc.build_family(params), n).matrix)

    def verify_first(stdout, data):
        require(stdout == "", "build-h --binary wrote to stdout")
        require(data == expected,
                "build-h: binary dump differs from the in-process chain")
        return {}

    return verify_first


def cli_cold(seed: int, ctx: Context) -> Workload:
    rng = np.random.default_rng(seed)
    specs = family_specs(rng)
    ops = []

    def family_cmd(cmd, label, n, *extra):
        """(argv, params) of a command on one family's seeded weights."""
        fam, mapping = specs[label]
        argv = [cmd, "--family", fam, "--params", _params_json(mapping),
                "--n-sites", str(n), *extra]
        return argv, params_from_mapping(fam, mapping)

    for label, n in (("hardcore", 8), ("exchange/omega3", 9)):
        argv, params = family_cmd("verify", label, n)
        ops.append(_cli_op(f"verify:{label}@{n}", argv,
                           _verify_reference(label, params, n)))

    sweep_base = {k: v for k, v in _weights(rng, 1.1, 2.0).items()
                  if k != "g3"}
    grid = np.linspace(0.0, 1.0, 5)
    ops.append(_cli_op(
        "sweep:antialigned@6",
        ["sweep", "--family", "antialigned", "--params",
         _params_json(sweep_base), "--grid", "g3:0..1:5", "--n-sites", "6"],
        _sweep_reference("antialigned", sweep_base, "g3", grid, 6)))

    mu = complex(rng.uniform(0.2, 1.5) * cmath.exp(1j * rng.uniform(-1.3,
                                                                    1.3)))
    case = CaseId.DEGENERATE_PLANE
    rows = act(random_unimodular(rng), canonical_rows(case, mu))
    space_json = json.dumps({"basis": [
        dict(zip(("v0", "v1", "v2", "u"), (_json_value(complex(x))
                                            for x in r))) for r in rows]})
    space = CSpace([PauliQuartet(*r) for r in rows])
    ops.append(_cli_op("classify:stdin", ["classify", "--space", "-"],
                       _classify_reference(space, case, mu, rows),
                       stdin_text=space_json))

    a0 = 0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    a1 = 0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ops.append(_cli_op("mps@12",
                       ["mps", "--a0", json.dumps(_json_value(a0)),
                        "--a1", json.dumps(_json_value(a1)),
                        "--n-sites", "12"],
                       _mps_reference(a0, a1, 12)))

    for label in ("pairsum-exchange/prime", "pairsum-exchange/parity"):
        argv, params = family_cmd("ground-states", label, 12)
        ops.append(_cli_op(f"ground-states:{label}@12", argv,
                           _ground_states_reference(params, 12, label)))

    chain_path = ctx.workdir / "chain.mpsh"
    argv, params = family_cmd("build-h", "mixed-singlet", 10, "--binary",
                              "--out", str(chain_path))
    ops.append(_cli_op("build-h:mixed-singlet@10", argv,
                       _build_h_reference(params, 10), out_file=chain_path))
    # 11 passes (88 samples) fit the default run: p88 leaves 10 beyond
    return Workload("cli_cold", ops, tail_percentile=88,
                    sizes={"commands": [op.label for op in ops],
                           "dense_bytes": chain_dense_bytes(10)},
                    in_process=False)


WORKLOADS = {"chain_spectra": chain_spectra, "algebra": algebra,
             "cli_cold": cli_cold}
