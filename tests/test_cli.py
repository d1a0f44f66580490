"""End-to-end command-line behaviour: schemas, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mpschain import verify
from mpschain.cli import _report_payload
from mpschain.hamiltonian import FamilyId, FamilyParams
from mpschain.serialize import (decode_matrix, decode_vector, dumps,
                                encode_vector, unpack_chain)
from mpschain.states import NamedState, StateVector

SIGMA_SPACE = '{"basis": [{"v0": [0,0], "v1": [0,0], "v2": [0,0], "u": [1,0]}]}'
UNCATALOGUED = ('{"basis": ['
                '{"v0": [1,0], "v1": [0,0], "v2": [0,0], "u": [0,0]},'
                '{"v0": [0,0], "v1": [0,0], "v2": [1,0], "u": [0,0]},'
                '{"v0": [0,0], "v1": [0,0], "v2": [0,0], "u": [1,0]}]}')
EXCHANGE_M2 = '{"g": 1.0, "nu": 1.0, "nu_prime": -1.0}'
# ratio nu_prime/nu is a primitive cube root of unity, so the k-string
# state picks up genuine rounding and its residual is small but nonzero
EXCHANGE_M3 = ('{"g": 1.0, "nu": [1.0, 0.0], '
               '"nu_prime": [-0.5, 0.8660254037844386]}')


def run_cli(*argv, stdin_text=None, env=None):
    """Run the CLI in a child process; ``env`` entries are laid over the
    caller's environment, so the child keeps ``PYTHONPATH`` and the rest."""
    if env is not None:
        env = {**os.environ, **env}
    return subprocess.run([sys.executable, "-m", "mpschain", *argv],
                          capture_output=True, text=True, input=stdin_text,
                          env=env)


def run_cli_bytes(*argv):
    return subprocess.run([sys.executable, "-m", "mpschain", *argv],
                          capture_output=True)


def test_classify_stdin_antisymmetric_line():
    proc = run_cli("classify", "--space", "-", stdin_text=SIGMA_SPACE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["case_id"] == "antisymmetric_line"
    assert out["mu"] is None
    assert out["signature"] == {"dim": 1, "dim_plus": 0, "gram_rank": 0,
                                "sigma_in": True}
    gamma = decode_matrix(out["gamma"])
    assert abs(np.linalg.det(gamma) - 1) <= 1e-12


def test_classify_file_with_modulus(tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"basis": [{"v0": [0,0], "v1": [0,0], '
                    '"v2": [1,0], "u": [0.3,0.1]}]}')
    proc = run_cli("classify", "--space", str(path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["case_id"] == "nonnull_line"
    assert out["mu"] == [0.3, 0.1]


def test_classify_exit_codes():
    proc = run_cli("classify", "--space", "-", stdin_text="{not json")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    proc = run_cli("classify", "--space", "-",
                   stdin_text='{"basis": "wrong"}')
    assert proc.returncode == 2
    proc = run_cli("classify", "--space", "-", stdin_text=UNCATALOGUED)
    assert proc.returncode == 3
    assert "error:" in proc.stderr
    proc = run_cli("classify", "--space", "/no/such/file.json")
    assert proc.returncode == 2


def test_classify_refuses_nan_coefficients():
    proc = run_cli("classify", "--space", "-", stdin_text=(
        '{"basis": [{"v0": NaN, "v1": 0, "v2": 0, "u": 0}]}'))
    assert proc.returncode == 2, proc.stderr
    assert "non-finite complex value" in proc.stderr


def test_verify_refuses_a_small_indefinite_weight():
    proc = run_cli("verify", "--family", "antialigned", "--params",
                   '{"g1": 1e-6, "g2": 1e-6, "g3": 1.4e-6}', "--n-sites", "4")
    assert proc.returncode == 2, proc.stderr
    assert ("error: weight matrix [[g1, g3], [conj(g3), g2]] is not "
            "positive semidefinite") in proc.stderr


@pytest.mark.parametrize("argv, line", [
    (("ground-states", "--family", "hardcore", "--params", '{"g": NaN}'),
     "error: g must be finite"),
    (("verify", "--family", "hardcore", "--params", '{"g": NaN}'),
     "error: g must be finite"),
    (("verify", "--family", "exchange", "--params",
      '{"g": 1, "nu": 1, "nu_prime": Infinity}'),
     "error: nu_prime must be finite"),
    (("verify", "--family", "antialigned", "--params",
      '{"g1": 1, "g2": 1, "g3": [0, NaN]}'),
     "error: g3 must be finite"),
    (("verify", "--family", "pinned", "--params",
      '{"lambda3": [[1, 0, 0], [0, 1, 0], [0, 0, -Infinity]]}'),
     "error: lambda3 must be finite"),
    # finite parameters whose pair energy overflows
    (("verify", "--family", "exchange", "--params",
      '{"g": 1, "nu": 1, "nu_prime": 1e308}'),
     "error: pair energy is not finite"),
])
def test_non_finite_parameters_are_refused(argv, line):
    proc = run_cli(*argv, "--n-sites", "4")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == line + "\n"
    assert "Warning" not in proc.stderr
    assert proc.stdout == ""


def test_build_h_json_matches_library():
    proc = run_cli("build-h", "--family", "exchange", "--params",
                   EXCHANGE_M2, "--n-sites", "2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["n_sites"] == 2
    mat = decode_matrix(out["matrix"])
    expected = np.zeros((4, 4), dtype=complex)
    expected[1:3, 1:3] = [[1, 1], [1, 1]]
    assert np.allclose(mat, expected, atol=1e-14)


def test_build_h_binary_round_trip(tmp_path):
    path = tmp_path / "chain.mpsh"
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "3", "--binary",
                   "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    n, mat = unpack_chain(path.read_bytes())
    assert n == 3
    assert np.allclose(np.diag(mat).real[[0, 1, 7]], [8, 4, 0])
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "3", "--binary")
    assert proc.returncode == 2


def test_build_h_rejects_bad_parameters():
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": -1.0}', "--n-sites", "3")
    assert proc.returncode == 2
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": 1.0, "bogus": 2}', "--n-sites", "3")
    assert proc.returncode == 2
    proc = run_cli("build-h", "--family", "no-such-family", "--params",
                   '{"g": 1.0}', "--n-sites", "3")
    assert proc.returncode == 2
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "40")
    assert proc.returncode == 2


def test_site_guard_env_override():
    env = {"MPS_MAX_SITES": "3"}
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "4", env=env)
    assert proc.returncode == 2, proc.stderr
    assert "between 2 and 3" in proc.stderr, proc.stderr
    proc = run_cli("build-h", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "3", env=env)
    assert proc.returncode == 0, proc.stderr


def test_ground_states_lists_labelled_vectors():
    proc = run_cli("ground-states", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "3")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [entry["label"] for entry in out] == ["010", "011", "101",
                                                 "110", "111"]
    for entry in out:
        vec = decode_vector(entry["amplitudes"])
        assert vec.shape == (8,)
        assert vec[int(entry["label"], 2)] == 1


def dense_catalogue(n_sites, labels):
    """Basis-vector catalogue entries built as dense vectors: a label is
    a bit string, or psi1 for the all-ones state."""
    named = []
    for label in labels:
        amps = np.zeros(2 ** n_sites, dtype=complex)
        amps[2 ** n_sites - 1 if label == "psi1" else int(label, 2)] = 1.0
        named.append(NamedState(label, StateVector(n_sites, amps)))
    return named


def hardcore_labels(n_sites):
    strings = (format(i, f"0{n_sites}b") for i in range(2 ** n_sites))
    return [s for s in strings if "00" not in s]


def emitted(payload) -> bytes:
    return (dumps(payload) + "\n").encode()


@pytest.mark.parametrize("family, params, n, labels", [
    ("hardcore", '{"g": 1.0}', 6, hardcore_labels(6)),
    ("pinned", '{"lambda3": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}', 5,
     ["psi1"]),
])
def test_ground_states_bytes_match_dense_vectors(family, params, n, labels):
    proc = run_cli_bytes("ground-states", "--family", family, "--params",
                         params, "--n-sites", str(n))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == emitted(
        [{"label": ns.label, "amplitudes": encode_vector(ns.state.amplitudes)}
         for ns in dense_catalogue(n, labels)])


def test_verify_bytes_match_dense_vectors(monkeypatch):
    n = 8
    dense = dense_catalogue(n, hardcore_labels(n))
    monkeypatch.setattr(verify, "ground_state_catalogue",
                        lambda params, n_sites: dense)
    report = verify.family_report(FamilyParams(FamilyId.HARDCORE, g=1.0), n)
    proc = run_cli_bytes("verify", "--family", "hardcore", "--params",
                         '{"g": 1.0}', "--n-sites", str(n))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == emitted(_report_payload(report))


def test_mps_uniform_and_bond_dim_two():
    proc = run_cli("mps", "--a0", "[[1]]", "--a1", "[[1]]",
                   "--n-sites", "3")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert decode_vector(out["amplitudes"]).tolist() == [1] * 8
    assert out["z"] == 8
    assert out["is_zero"] is False
    proc = run_cli("mps", "--a0", "[[[1,0],[0,0]],[[0,0],[-1,0]]]",
                   "--a1", "[[[0,0],[0,1]],[[0,1],[0,0]]]", "--n-sites", "2")
    out = json.loads(proc.stdout)
    assert decode_vector(out["amplitudes"]).tolist() == [2, 0, 0, -2]


def test_mps_refuses_amplitudes_beyond_the_float_range():
    # the bond matrices are finite; their 3-site traces (1e600) are not
    proc = run_cli("mps", "--a0", "[[1e200]]", "--a1", "[[1e200]]",
                   "--n-sites", "3")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip() == ("error: contracted amplitudes exceed the "
                                   "float range at n_sites=3")
    assert proc.stdout == ""


def test_verify_passes_and_reports_kernel():
    proc = run_cli("verify", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "5")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["kernel_dim"] == 13
    assert out["n_sites"] == 5
    assert len(out["residuals"]) == 13
    assert all(r <= 1e-9 for r in out["residuals"].values())


def test_verify_claim_failure_exit_code():
    proc = run_cli("verify", "--family", "exchange", "--params",
                   EXCHANGE_M3, "--n-sites", "6", "--tol", "1e-30")
    assert proc.returncode == 4
    out = json.loads(proc.stdout)
    assert max(out["residuals"].values()) > 0


def test_sweep_emits_csv_rows():
    proc = run_cli("sweep", "--family", "antialigned", "--params",
                   '{"g1": 1.0, "g2": 1.0}', "--grid", "g3:0..1:5",
                   "--n-sites", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "params,ground_energy,kernel_dim,max_residual"
    assert len(lines) == 6
    assert '""g3"": 0.25' in lines[2]


def test_sweep_rejects_malformed_grid():
    proc = run_cli("sweep", "--family", "hardcore", "--grid", "g=0..1:5",
                   "--n-sites", "4")
    assert proc.returncode == 2
    proc = run_cli("sweep", "--family", "hardcore", "--grid", "g:0..1:0",
                   "--n-sites", "4")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "exchange", "--params", EXCHANGE_M3,
     "--n-sites", "6"),
    ("sweep", "--family", "antialigned", "--params",
     '{"g1": 1.0, "g2": 0.8}', "--grid", "g3:0..0.8:4", "--n-sites", "4"),
])
def test_reruns_are_byte_identical(argv):
    first = run_cli_bytes(*argv)
    second = run_cli_bytes(*argv)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout
