"""Behaviour fingerprints of family_report on the benchmark's draws, and
of the chain spectra of some fixed bond terms.

Run from the repository root, and diff the output of two checkouts:

    PYTHONPATH=src python3 tests/fingerprints.py > out.jsonl

One JSON line per (seed, label, n_sites): seeds 1001, 2001 and 4242, the
eleven labels of oracles.benchmark_specs in their order, n_sites 2..10.
Each line holds the report's kernel_dim and warning, float.hex of its
ground energy, of each lowest eigenvalue and of each residual, and the
(count, shape) of every stack of sector blocks the report solves.  Equal
lines mean the same spectrum, bit for bit, from the same eigensolves.

Then one line per (fixed point, n_sites), n_sites 2..9, with seed null
(point_fingerprints): the pinned point oracles.CANCELLING_PINNED through
family_report, residuals included, then the bond terms of
oracles.CANONICAL_POINTS and oracles.dm_terms through verify._frame,
sectors._stacks and verify._spectrum_report, without residuals.

Then the states layer.  state_fingerprints gives one line per seeded
pair of bond matrices (seeds 0..19, bond dimension 2 and 3 in turn) and
n_sites 10 and 12, with float.hex of mps_contract's z and of the raw
state's norm() and a sha256 of the normalized amplitudes.
catalogue_fingerprints gives one line per state of the seed-1001
catalogues at n_sites 10, with float.hex of its norm() and a sha256 of
its amplitudes.

    PYTHONPATH=src python3 tests/fingerprints.py cli > cli.jsonl

prints the command line's fingerprints instead (cli_fingerprints): one
line per command of the benchmark's cli_cold workload at seed 0, run as
`python -m mpschain` in a fresh interpreter, with its exit code and the
sha256 of its stdout, of its stderr and of its --out file, if one was
written; then one line per command of MULTI_SLICE, whose outputs span
many of the JSON writer's slices of complex pairs; then one line per
build-h command of _build_h_commands, the JSON and the --binary chain of
every benchmark label and one that is refused; then one line per --help
text, the top-level one and each subcommand's.  verify prints
eigenvalues whose last digits can change with the BLAS thread count, so
compare runs made with the same OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from mpschain import sectors, verify
from mpschain.hamiltonian import build_family, params_from_mapping
from mpschain.serialize import dumps
from mpschain.states import MPSSpec, ground_state_catalogue, mps_contract
from oracles import (CANCELLING_PINNED, CANONICAL_POINTS, benchmark_specs,
                     canonical_term, child_env, dm_terms)

SEEDS = (1001, 2001, 4242)
SIZES = range(2, 11)
POINT_SIZES = range(2, 10)
MPS_SEEDS = range(20)
MPS_SIZES = (10, 12)
CATALOGUE_SEED, CATALOGUE_SIZE = 1001, 10

CLI_SEED = 0
COMMANDS = ("classify", "build-h", "ground-states", "mps", "verify", "sweep")
ROOT = Path(__file__).resolve().parents[1]

# (label, argv) of commands whose JSON holds complex rows of 65536 pairs:
# mps on a bond pair of dimension 2 whose amplitudes are all nonzero, and
# the exchange catalogue at nu_prime = -nu
MULTI_SLICE = (
    ("mps:d2@16", ["mps", "--a0",
                   "[[[0.3, 0.1], [0.2, -0.4]], [[0.5, 0.05], [-0.1, 0.2]]]",
                   "--a1",
                   "[[[0.1, 0.7], [0.3, 0.2]], [[-0.2, 0.1], [0.6, -0.3]]]",
                   "--n-sites", "16"]),
    ("ground-states:exchange/-1@16",
     ["ground-states", "--family", "exchange", "--params",
      '{"g": 1, "nu": [0.8, 0.1], "nu_prime": [-0.8, -0.1]}',
      "--n-sites", "16"]),
)

# (n_sites, binary) of the build-h commands for each label of
# oracles.benchmark_specs: JSON at n=5, --binary at n=7; and the hardcore
# chain at g = 2e307, whose sums overflow, refused in both forms at n=4
BUILD_H_FORMS = ((5, False), (7, True))
REFUSED_HARDCORE = ("hardcore", {"g": 2e307})

# the label of oracles.CANCELLING_PINNED
PINNED_LABEL = "pinned/cancelling"


@contextmanager
def recorded_stacks():
    """A list that holds the (count, shape) of every stack that
    verify._spectrum_report solves while the context is open."""
    solve = verify._spectrum_report
    stacks = []

    def recording(n_sites, parts):
        parts = list(parts)
        stacks.extend((count, blocks.shape) for count, blocks in parts)
        return solve(n_sites, parts)

    with mock.patch.object(verify, "_spectrum_report", recording):
        yield stacks


def _line(seed, label, rep, stacks) -> dict:
    return {
        "seed": seed, "label": label, "n_sites": rep.n_sites,
        "kernel_dim": rep.kernel_dim,
        "warning": rep.warning,
        "ground_energy": rep.ground_energy.hex(),
        "lowest": [v.hex() for v in rep.lowest_k_eigenvalues],
        "residuals": {name: r.hex() for name, r in rep.residuals.items()},
        "stacks": [[count, list(shape)] for count, shape in stacks],
    }


def fingerprints(seeds=SEEDS, sizes=SIZES):
    """Yield the fingerprint of each (seed, label, n_sites), as a dict in
    the order of the lines."""
    with recorded_stacks() as stacks:
        for seed in seeds:
            specs = benchmark_specs(np.random.default_rng(seed))
            for label, spec in specs.items():
                params = params_from_mapping(*spec)
                for n_sites in sizes:
                    stacks.clear()
                    rep = verify.family_report(params, n_sites)
                    yield _line(seed, label, rep, stacks)


def point_terms() -> dict:
    """label -> bond term of every fixed point, in the order of the
    lines: PINNED_LABEL, the canonical points, the DM terms."""
    terms = {PINNED_LABEL: build_family(params_from_mapping(
        *CANCELLING_PINNED))}
    for case, mu in CANONICAL_POINTS:
        label = case.value if mu is None else f"{case.value}@{mu}"
        terms[label] = canonical_term(case, mu)
    terms.update(dm_terms())
    return terms


def point_fingerprints(sizes=POINT_SIZES):
    """Yield the fingerprint of each (fixed point, n_sites), as a dict in
    the order of the lines."""
    params = params_from_mapping(*CANCELLING_PINNED)
    with recorded_stacks() as stacks:
        for label, local in point_terms().items():
            for n_sites in sizes:
                stacks.clear()
                if label == PINNED_LABEL:
                    rep = verify.family_report(params, n_sites)
                else:
                    _, h, t = verify._frame(local.matrix)
                    rep = verify._spectrum_report(
                        n_sites, sectors._stacks(h, n_sites, t)[0])
                yield _line(None, label, rep, stacks)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def state_fingerprints(seeds=MPS_SEEDS, sizes=MPS_SIZES):
    """Yield the fingerprint of each (seed, n_sites) bond pair, as a dict
    in the order of the lines: seed s draws complex normal 2x2 bond
    matrices for even s and 3x3 ones for odd s."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        a0, a1 = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                  for _ in range(2))
        for n_sites in sizes:
            res = mps_contract(MPSSpec(a0, a1), n_sites)
            yield {"seed": seed, "bond_dim": d, "n_sites": n_sites,
                   "z": res.z.hex(), "norm": res.state.norm().hex(),
                   "normalized": None if res.normalized is None
                   else _digest(res.normalized.amplitudes.tobytes())}


def catalogue_fingerprints(seed=CATALOGUE_SEED, n_sites=CATALOGUE_SIZE):
    """Yield the fingerprint of each state of the seed's catalogues, as a
    dict in the order of the lines."""
    specs = benchmark_specs(np.random.default_rng(seed))
    for label, spec in specs.items():
        for ns in ground_state_catalogue(params_from_mapping(*spec),
                                         n_sites):
            yield {"seed": seed, "label": label, "n_sites": n_sites,
                   "state": ns.label, "norm": ns.state.norm().hex(),
                   "amplitudes": _digest(ns.state.amplitudes.tobytes())}


def _cli_commands(seed, workdir: Path) -> list:
    """(label, argv, stdin text) of each command of the benchmark's
    cli_cold workload at the seed, with its --out files in workdir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    ctx = workloads.Context(root=ROOT, workdir=workdir, env={})
    ops = workloads.cli_cold(seed, ctx).ops
    calls = []
    with mock.patch.object(workloads, "_run_cli", lambda _, argv, stdin:
                           calls.append((argv, stdin))):
        for op in ops:
            op.run(ctx)
    return [(op.label, argv, stdin) for op, (argv, stdin) in zip(ops, calls)]


def _run_cli(argv, stdin=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "mpschain", *argv], capture_output=True,
        input=None if stdin is None else stdin.encode(), env=child_env())


def _build_h_commands(seed, workdir: Path) -> list:
    """(label, argv, stdin text) of each build-h command: per label of
    benchmark_specs at the seed, then REFUSED_HARDCORE."""
    specs = benchmark_specs(np.random.default_rng(seed))
    calls = [(label, spec, n, binary) for label, spec in specs.items()
             for n, binary in BUILD_H_FORMS]
    calls += [("hardcore/refused", REFUSED_HARDCORE, 4, binary)
              for binary in (False, True)]
    commands = []
    for i, (label, (family, mapping), n, binary) in enumerate(calls):
        argv = ["build-h", "--family", family, "--params", dumps(mapping),
                "--n-sites", str(n)]
        if binary:
            argv += ["--binary", "--out", str(workdir / f"build-h-{i}")]
        commands.append((f"build-h:{label}@{n}{' binary' * binary}", argv,
                         None))
    return commands


def cli_fingerprints(seed=CLI_SEED):
    """Yield the fingerprint of each cli_cold command at the seed, then of
    each MULTI_SLICE command, each build-h command of _build_h_commands
    and each --help text, as a dict in the order of the lines."""
    with tempfile.TemporaryDirectory() as tmp:
        commands = [*_cli_commands(seed, Path(tmp)),
                    *((label, argv, None) for label, argv in MULTI_SLICE),
                    *_build_h_commands(seed, Path(tmp))]
        for label, argv, stdin in commands:
            proc = _run_cli(argv, stdin)
            out = (Path(argv[argv.index("--out") + 1])
                   if "--out" in argv else None)
            yield {"command": label, "exit": proc.returncode,
                   "stdout": _digest(proc.stdout),
                   "stderr": _digest(proc.stderr),
                   "out": None if out is None or not out.exists()
                   else _digest(out.read_bytes())}
    for command in (None, *COMMANDS):
        proc = _run_cli([command, "--help"] if command else ["--help"])
        yield {"help": command, "exit": proc.returncode,
               "stdout": _digest(proc.stdout)}


if __name__ == "__main__":
    groups = ((cli_fingerprints(),) if sys.argv[1:] == ["cli"] else
              (fingerprints(), point_fingerprints(), state_fingerprints(),
               catalogue_fingerprints()))
    for lines in groups:
        for line in lines:
            print(json.dumps(line))
