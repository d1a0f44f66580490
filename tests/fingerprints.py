"""Behaviour fingerprints of family_report on the benchmark's draws.

Run from the repository root, and diff the output of two checkouts:

    PYTHONPATH=src python3 tests/fingerprints.py > out.jsonl

One JSON line per (seed, label, n_sites): seeds 1001, 2001 and 4242, the
eleven labels of oracles.benchmark_specs in their order, n_sites 2..10.
Each line holds the report's kernel_dim and warning, float.hex of its
ground energy, of each lowest eigenvalue and of each residual, and the
(count, shape) of every stack of sector blocks the report solves.  Equal
lines mean the same spectrum, bit for bit, from the same eigensolves.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np

from mpschain import verify
from mpschain.hamiltonian import params_from_mapping
from oracles import benchmark_specs

SEEDS = (1001, 2001, 4242)
SIZES = range(2, 11)


def fingerprints(seeds=SEEDS, sizes=SIZES):
    """Yield the fingerprint of each (seed, label, n_sites), as a dict in
    the order of the lines."""
    solve = verify._spectrum_report
    stacks = []

    def recording(n_sites, parts):
        parts = list(parts)
        stacks.extend((count, blocks.shape) for count, blocks in parts)
        return solve(n_sites, parts)

    with mock.patch.object(verify, "_spectrum_report", recording):
        for seed in seeds:
            specs = benchmark_specs(np.random.default_rng(seed))
            for label, spec in specs.items():
                params = params_from_mapping(*spec)
                for n_sites in sizes:
                    stacks.clear()
                    rep = verify.family_report(params, n_sites)
                    yield {
                        "seed": seed, "label": label, "n_sites": n_sites,
                        "kernel_dim": rep.kernel_dim,
                        "warning": rep.warning,
                        "ground_energy": rep.ground_energy.hex(),
                        "lowest": [v.hex() for v in
                                   rep.lowest_k_eigenvalues],
                        "residuals": {name: r.hex() for name, r in
                                      rep.residuals.items()},
                        "stacks": [[count, list(shape)]
                                   for count, shape in stacks],
                    }


if __name__ == "__main__":
    for line in fingerprints():
        print(json.dumps(line))
