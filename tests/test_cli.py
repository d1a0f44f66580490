"""End-to-end command-line behaviour: schemas, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpschain import cli, hamiltonian, sectors, verify
from mpschain.classify import classify, invariant_signature
from mpschain.cli import _report_payload
from mpschain.hamiltonian import (_PARAM_NAMES, FamilyId, FamilyParams,
                                  build_family, family_espace, full_chain,
                                  params_from_mapping)
from mpschain.pauli import _FROM_FLAT, CSpace
from mpschain.serialize import (decode_matrix, decode_space, dumps,
                                encode_complex, encode_space, pack_chain)
from mpschain.states import (MPSSpec, NamedState, StateVector,
                             ground_state_catalogue, mps_contract)
from oracles import (benchmark_specs, child_env, encode_matrix,
                     encode_vector, value_dumps)

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
    caller's environment, and the checkout's src leads ``PYTHONPATH``."""
    return subprocess.run([sys.executable, "-m", "mpschain", *argv],
                          capture_output=True, text=True, input=stdin_text,
                          env=child_env(env))


def run_cli_bytes(*argv):
    return subprocess.run([sys.executable, "-m", "mpschain", *argv],
                          capture_output=True, env=child_env())


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
    # JSON integers beyond the float range
    (("verify", "--family", "hardcore", "--params", f'{{"g": {10 ** 400}}}'),
     "error: g must be finite"),
    (("verify", "--family", "pinned", "--params",
      f'{{"lambda3": [[{10 ** 400}]]}}'),
     "error: integer beyond the float range"),
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
    data = path.read_bytes()
    assert data[:8] == b"MPSH\x03\x00\x00\x00"
    mat = np.frombuffer(data, "<c16", offset=8).reshape(8, 8)
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
        vec = decode_matrix([entry["amplitudes"]])[0]
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
    return (value_dumps(payload) + "\n").encode()


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
    assert decode_matrix([out["amplitudes"]])[0].tolist() == [1] * 8
    assert out["z"] == 8
    assert out["is_zero"] is False
    proc = run_cli("mps", "--a0", "[[[1,0],[0,0]],[[0,0],[-1,0]]]",
                   "--a1", "[[[0,0],[0,1]],[[0,1],[0,0]]]", "--n-sites", "2")
    out = json.loads(proc.stdout)
    assert decode_matrix([out["amplitudes"]])[0].tolist() == [2, 0, 0, -2]


def test_mps_refuses_amplitudes_beyond_the_float_range():
    # the bond matrices are finite; their 3-site traces (1e600) are not
    proc = run_cli("mps", "--a0", "[[1e200]]", "--a1", "[[1e200]]",
                   "--n-sites", "3")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip() == ("error: contracted amplitudes exceed the "
                                   "float range at n_sites=3")
    assert proc.stdout == ""


def test_a_refused_mps_writes_nothing(tmp_path, capsys):
    # the amplitudes (3.2e15^10) are finite; their squared norm z is not,
    # and it is refused before the output is opened
    argv = ["mps", "--a0", "[[[3.2e15, 0]]]", "--a1", "[[[3.2e15, 0]]]",
            "--n-sites", "10"]
    path = tmp_path / "state.json"
    capsys.readouterr()
    for extra in ((), ("--out", str(path))):
        assert cli.main([*argv, *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: non-finite value inf cannot be serialized\n"
    assert not path.exists()


def test_verify_passes_and_reports_kernel():
    proc = run_cli("verify", "--family", "hardcore", "--params",
                   '{"g": 1.0}', "--n-sites", "5")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["kernel_dim"] == 13
    assert out["n_sites"] == 5
    assert len(out["residuals"]) == 13
    assert all(r <= 1e-9 for r in out["residuals"].values())


@pytest.mark.parametrize("family, params, kernel", [
    ("hardcore", '{"g": 1e300}', 8),
    ("antialigned", '{"g1": 1e300, "g2": 1e300, "g3": 0}', 2),
])
def test_verify_huge_weights_neither_overflow_nor_warn(family, params,
                                                       kernel):
    # finite weights whose |H|_F squares overflow: the residuals are taken
    # on power-of-two scaled entries, so they stay exact and quiet
    proc = run_cli("verify", "--family", family, "--params", params,
                   "--n-sites", "4")
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    out = json.loads(proc.stdout)
    assert out["kernel_dim"] == kernel
    assert len(out["residuals"]) == kernel
    assert all(r == 0 for r in out["residuals"].values())


# Finite weights whose chain sums (or, for pairsum-exchange, eigenvalues)
# pass the float range at the first n and not at n = 3: hardcore's |00>
# costs 4g on each of the n - 1 bonds.  The kernel at n = 3 is the one
# of unit weights.
OVERFLOWING = [
    ("antialigned", '{"g1": 5e307, "g2": 5e307, "g3": 0}', 6, "values", 2),
    ("pairsum-exchange", '{"g1": 2e307, "g2": 2e307, "g3": 0, "nu": 1, '
     '"nu_prime": 1}', 6, "eigenvalues", 2),
    ("hardcore", '{"g": 2.2e307}', 4, "values", 5),
]


@pytest.mark.parametrize("family, params, n, what, kernel", OVERFLOWING)
def test_verify_refuses_a_chain_beyond_the_float_range(family, params, n,
                                                       what, kernel):
    proc = run_cli("verify", "--family", family, "--params", params,
                   "--n-sites", str(n))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip() == (f"error: chain {what} exceed the float "
                                   f"range at n_sites={n}")
    assert proc.stdout == ""
    proc = run_cli("verify", "--family", family, "--params", params,
                   "--n-sites", "3")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["kernel_dim"] == kernel
    assert len(out["residuals"]) == kernel
    assert all(r == 0 for r in out["residuals"].values())


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


def test_verify_kernel_count_ignores_a_tiny_weight_scale():
    for g in ("1e-300", "1"):
        proc = run_cli("verify", "--family", "hardcore", "--params",
                       f'{{"g": {g}}}', "--n-sites", "4")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kernel_dim"] == 8


# ---------------------------------------------------------------------------
# byte pins: CLI output against the per-value oracle writer applied to the
# in-process library results, on the benchmark's eleven labels

BENCH_SPECS = benchmark_specs(np.random.default_rng(1001))


def _params_json(mapping) -> str:
    def plain(v):
        if isinstance(v, np.ndarray):
            return [plain(x) for x in v]
        if isinstance(v, complex):
            return [v.real, v.imag]
        return v
    return json.dumps({k: plain(v) for k, v in mapping.items()})


def _family_argv(label, n):
    fam, mapping = BENCH_SPECS[label]
    return (["--family", fam, "--params", _params_json(mapping),
             "--n-sites", str(n)], params_from_mapping(fam, mapping))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_family_commands_match_the_oracle_writer(label, n, tmp_path, capsys):
    argv, params = _family_argv(label, n)
    chain = full_chain(build_family(params), n).matrix
    path = tmp_path / "chain.mpsh"
    capsys.readouterr()
    assert cli.main(["build-h", *argv, "--binary", "--out", str(path)]) == 0
    assert path.read_bytes() == pack_chain(n, chain)
    assert cli.main(["build-h", *argv]) == 0
    assert capsys.readouterr().out == value_dumps(
        {"n_sites": n, "matrix": encode_matrix(chain)}) + "\n"
    states = value_dumps(
        [{"label": ns.label, "amplitudes": encode_vector(ns.state.amplitudes)}
         for ns in ground_state_catalogue(params, n)]) + "\n"
    assert cli.main(["ground-states", *argv]) == 0
    assert capsys.readouterr().out == states
    path = tmp_path / "states.json"
    assert cli.main(["ground-states", *argv, "--out", str(path)]) == 0
    assert path.read_bytes() == states.encode()


_PEAK_RSS_SCRIPT = """
import sys
from mpschain import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh
               if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_ground_states_streams_one_state_at_a_time(tmp_path):
    # hardcore at 13 sites lists 610 basis states of 2^13 amplitudes:
    # 80 MiB as vectors and several times that as text, all at once
    path = tmp_path / "states.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, "ground-states",
         "--family", "hardcore", "--params", '{"g": 1.0}',
         "--n-sites", "13", "--out", str(path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(path.read_text())) == 610
    peak_kb = int(proc.stdout)
    assert peak_kb <= 50 * 1024, f"VmHWM {peak_kb} kB"


# a bond pair of dimension 2 whose 2^n amplitudes are all nonzero, and
# exchange weights with nu_prime = -nu
D2_PAIR = ("[[[0.3, 0.1], [0.2, -0.4]], [[0.5, 0.05], [-0.1, 0.2]]]",
           "[[[0.1, 0.7], [0.3, 0.2]], [[-0.2, 0.1], [0.6, -0.3]]]")
EXCHANGE_ANTI = '{"g": 1, "nu": [0.8, 0.1], "nu_prime": [-0.8, -0.1]}'


@pytest.mark.parametrize("argv, size", [
    (["mps", "--a0", D2_PAIR[0], "--a1", D2_PAIR[1]], 13 * 10 ** 6),
    (["ground-states", "--family", "exchange", "--params", EXCHANGE_ANTI],
     20 * 10 ** 6),
], ids=["mps", "ground-states"])
def test_json_output_is_written_while_it_is_serialized(argv, size,
                                                       tmp_path):
    # at 18 sites the text is 13 and 21 MB; held whole, as one string and
    # its pieces, it took the process to about 120 and 80 MiB
    path = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv, "--n-sites", "18",
         "--out", str(path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert path.stat().st_size > size
    peak_kb = int(proc.stdout)
    assert peak_kb <= 64 * 1024, f"VmHWM {peak_kb} kB"


def test_json_build_h_joins_row_blocks(capsys):
    # at 9 sites the chain is written in four blocks of 128 rows
    argv, params = _family_argv("hardcore-exchange", 9)
    capsys.readouterr()
    assert cli.main(["build-h", *argv]) == 0
    assert capsys.readouterr().out == dumps({
        "n_sites": 9,
        "matrix": full_chain(build_family(params), 9).matrix}) + "\n"


@pytest.mark.parametrize("n", range(2, 9))
def test_mps_matches_the_oracle_writer(n, capsys):
    rng = np.random.default_rng(1000 + n)
    a0, a1 = (0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
              for _ in range(2))
    result = mps_contract(MPSSpec(a0, a1), n)
    capsys.readouterr()
    assert cli.main(["mps", "--a0", value_dumps(encode_matrix(a0)),
                     "--a1", value_dumps(encode_matrix(a1)),
                     "--n-sites", str(n)]) == 0
    assert capsys.readouterr().out == value_dumps({
        "n_sites": n, "amplitudes": encode_vector(result.state.amplitudes),
        "z": result.z, "is_zero": result.is_zero}) + "\n"


@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_classify_matches_the_oracle_writer(label, tmp_path, capsys):
    _, params = _family_argv(label, 2)
    path = tmp_path / "space.json"
    space = CSpace(family_espace(params)[0] @ _FROM_FLAT)
    path.write_text(dumps(encode_space(space)))
    space = decode_space(json.loads(path.read_text()))
    result, sig = classify(space), invariant_signature(space)
    mu = result.form.mu
    capsys.readouterr()
    assert cli.main(["classify", "--space", str(path)]) == 0
    assert capsys.readouterr().out == value_dumps({
        "case_id": result.form.case_id.value,
        "mu": encode_complex(mu) if mu is not None else None,
        "gamma": encode_matrix(result.gamma.matrix),
        "canonical_basis": encode_space(result.canonical),
        "signature": {"dim": sig.dim, "dim_plus": sig.dim_plus,
                      "gram_rank": sig.gram_rank,
                      "sigma_in": sig.sigma_in}}) + "\n"


# ---------------------------------------------------------------------------
# build-h refuses before it builds or opens anything

def test_build_h_binary_without_out_builds_nothing(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a chain was built")
    monkeypatch.setattr(hamiltonian, "build_family", never)
    capsys.readouterr()
    for extra in ((), ("--out", "-")):
        assert cli.main(["build-h", "--family", "hardcore", "--params",
                         '{"g": 1.0}', "--n-sites", "4", "--binary",
                         *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --binary requires --out FILE\n"


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("params, n, env", [
    ('{"g": 1.0}', 40, None),
    ('{"g": 1.0}', -1, None),
    ('{"g": 1.0}', 4, "3"),
    ('{"g": -1.0}', 3, None),
    ('{"g": 1.0, "bogus": 2}', 3, None),
    ('{"g": NaN}', 3, None),
    ('{"g": 1.0', 3, None),
])
def test_build_h_refuses_before_opening_the_output(params, n, env, binary,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    if env is not None:
        monkeypatch.setenv("MPS_MAX_SITES", env)
    path = tmp_path / "chain.out"
    capsys.readouterr()
    assert cli.main(["build-h", "--family", "hardcore", "--params", params,
                     "--n-sites", str(n), "--out", str(path),
                     *(("--binary",) if binary else ())]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert not path.exists()


def test_verify_refuses_blocks_beyond_available_memory(monkeypatch,
                                                       capsys):
    # pinned at 14 sites leaves one complex 16383-state block: 4.3 GB, and
    # eigvalsh's copy, against 7 GiB available
    available = 7 * 2 ** 30
    monkeypatch.setattr(sectors, "_available_bytes", lambda: available)
    argv, _ = _family_argv("pinned", 14)
    capsys.readouterr()
    assert cli.main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the largest sector blocks need "
                   f"{2 * 16 * 16383 ** 2} bytes with eigvalsh's copy, but "
                   f"{available} bytes are available\n")


# Sizes no machine can map (2^57 bytes and more), which numpy refuses at
# once: a 711 PiB grid and a 128 PiB index range, never a size that
# memory overcommit could grant.
HARDCORE_54 = ["--family", "hardcore", "--params", '{"g": 1}',
               "--n-sites", "54"]


@pytest.mark.parametrize("argv, env", [
    (["sweep", "--family", "hardcore", "--params", '{"g": 1}', "--grid",
      f"g:1..2:{10 ** 17}", "--n-sites", "3"], None),
    (["verify", *HARDCORE_54], "54"),
    (["build-h", *HARDCORE_54], "54"),
    (["ground-states", *HARDCORE_54], "54"),
])
def test_sizes_beyond_any_memory_end_in_exit_2(argv, env, monkeypatch,
                                               capsys):
    if env is not None:
        monkeypatch.setenv("MPS_MAX_SITES", env)
    capsys.readouterr()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate ")
    assert "PiB" in err and "Traceback" not in err


def test_an_unexpected_runtime_error_ends_in_exit_3(monkeypatch, capsys):
    # any RuntimeError a handler raises is a failed computation
    def fails(*args):
        raise RuntimeError("no such computation")
    monkeypatch.setattr(verify, "family_report", fails)
    argv, _ = _family_argv("hardcore", 3)
    capsys.readouterr()
    assert cli.main(["verify", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no such computation\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_refuses_a_tolerance_that_is_not_one(tol, monkeypatch,
                                                    capsys):
    def never(*args):
        raise AssertionError("a report ran")
    monkeypatch.setattr(verify, "family_report", never)
    argv, _ = _family_argv("hardcore", 3)
    capsys.readouterr()
    assert cli.main(["verify", *argv, "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --tol must be finite and at least 0")


def test_verify_runs_at_tolerance_zero(capsys):
    argv, params = _family_argv("hardcore", 5)
    report = verify.family_report(params, 5)
    capsys.readouterr()
    code = cli.main(["verify", *argv, "--tol", "0"])
    assert code == (0 if report.all_pass(0.0) else 4)
    assert json.loads(capsys.readouterr().out)["kernel_dim"] == \
        report.kernel_dim


def test_build_h_json_refuses_a_non_finite_chain_entry(tmp_path, capsys):
    # each bond term is finite; their sum on |0000> overflows to inf
    argv = ["build-h", "--family", "hardcore", "--params", '{"g": 2e307}',
            "--n-sites", "4"]
    path = tmp_path / "chain.json"
    capsys.readouterr()
    for extra in ((), ("--out", str(path))):
        assert cli.main([*argv, *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: non-finite value inf cannot be serialized\n"
    assert not path.exists()


def test_build_h_binary_refuses_a_non_finite_chain_entry(tmp_path, capsys):
    # the sum on |0000> overflows to inf; the binary dump is refused as
    # the JSON one is, before its file is opened
    argv = ["build-h", "--family", "hardcore", "--n-sites", "4", "--binary"]
    path = tmp_path / "chain.mpsh"
    chain = full_chain(build_family(FamilyParams(FamilyId.HARDCORE,
                                                 g=2.2e307)), 4).matrix
    assert np.isinf(chain[0, 0])
    capsys.readouterr()
    assert cli.main([*argv, "--params", '{"g": 2.2e307}',
                     "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: non-finite value inf cannot be serialized\n"
    assert not path.exists()
    # a finite chain is written as it is
    assert cli.main([*argv, "--params", '{"g": 1.0}', "--out", str(path)]) \
        == 0
    assert path.read_bytes() == pack_chain(4, full_chain(
        build_family(FamilyParams(FamilyId.HARDCORE, g=1.0)), 4).matrix)


def test_binary_build_h_at_10_sites_streams_the_chain(tmp_path):
    argv, params = _family_argv("mixed-singlet", 10)
    path = tmp_path / "chain.mpsh"
    tracemalloc.start()
    try:
        code = cli.main(["build-h", *argv, "--binary", "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # one dense 1024 x 1024 complex copy alone would take 16 MiB
    assert peak < 4 * 2 ** 20
    assert path.read_bytes() == pack_chain(
        10, full_chain(build_family(params), 10).matrix)


# ---------------------------------------------------------------------------
# fuzzing: every input ends in an exit code, never in a traceback

@pytest.mark.parametrize("argv", [
    ["verify", "--family", "hardcore", "--params", "[" * 10 ** 5,
     "--n-sites", "3"],
    ["mps", "--a0", "[" * 10 ** 5, "--a1", "[[1]]", "--n-sites", "3"],
])
def test_deeply_nested_json_is_refused(argv, capsys):
    assert cli.main(argv) == 2
    assert "is nested too deeply" in capsys.readouterr().err


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from([10 ** 400, -10 ** 400, 1e308, 0.0, 1.0, -1.0]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(
                      [*_PARAM_NAMES, "v0", "v1", "v2", "u", "basis", "x"]),
                      kids, max_size=4)),
    max_leaves=12)
VALID_PARAMS = st.sampled_from(list(BENCH_SPECS)).map(
    lambda label: (BENCH_SPECS[label][0], _params_json(BENCH_SPECS[label][1])))
VALID_MATRICES = st.sampled_from(
    ["[[1]]", "[[0, 1], [1, 0]]", "[[[0, 1], 0], [0, [0.5, -0.5]]]",
     "[[0, 1], [0, 0]]", "[[1e200]]"])


def _json_text(valid=st.nothing()):
    """Valid text, any JSON value (NaN and Infinity included), a prefix of
    one, or arbitrary text."""
    return st.one_of(valid, JSON_VALUES.map(json.dumps),
                     st.tuples(JSON_VALUES.map(json.dumps), st.integers(0, 8))
                     .map(lambda t: t[0][:t[1]]),
                     st.text(max_size=12))


FAMILIES = st.sampled_from([f.value for f in FamilyId] + ["bogus", ""])
# ground-states and mps keep their own 24-site state guard; 15 sites of
# dense ground states would be a large but legal request, so ground-states
# is fuzzed below it
SITES = [-5, 0, 1, 15, 25, 10 ** 6, 2, 3, 4]
GRID_NAMES = st.sampled_from(["lambda3", "g", "g1", "g3", "nu", "nu_prime",
                              "bogus", "x_y"])
GRID_BOUNDS = st.sampled_from(["0", "1", "-1", "0.5", "1e400", "-1e400",
                               "1e308", "-1e308", "2e-308", "3"])


@st.composite
def _family_command(draw, command):
    family_params = draw(st.one_of(
        VALID_PARAMS, st.tuples(FAMILIES, _json_text())))
    sites = SITES if command != "ground-states" else [
        n for n in SITES if n != 15]
    argv = [command, "--family", family_params[0],
            "--params", family_params[1],
            f"--n-sites={draw(st.sampled_from(sites))}"]
    if command == "build-h" and draw(st.booleans()):
        argv.append("--binary")
    return argv, None


@st.composite
def _sweep_command(draw):
    family, params = draw(st.one_of(
        VALID_PARAMS, st.tuples(FAMILIES, _json_text())))
    grid = draw(st.one_of(
        st.builds("{}:{}..{}:{}".format, GRID_NAMES, GRID_BOUNDS,
                  GRID_BOUNDS, st.integers(0, 2)),
        st.text(max_size=12)))
    return (["sweep", "--family", family, "--params", params,
             "--grid", grid, f"--n-sites={draw(st.sampled_from(SITES))}"],
            None)


@st.composite
def _mps_command(draw):
    a0, a1 = draw(st.one_of(
        st.tuples(VALID_MATRICES, VALID_MATRICES),
        st.tuples(_json_text(VALID_MATRICES), _json_text(VALID_MATRICES))))
    return (["mps", "--a0", a0, "--a1", a1,
             f"--n-sites={draw(st.sampled_from(SITES))}"], None)


@st.composite
def _classify_command(draw):
    space = draw(_json_text(st.sampled_from([SIGMA_SPACE, UNCATALOGUED])))
    return ["classify", "--space", "-"], space


COMMANDS = st.one_of(
    _family_command("verify"), _family_command("build-h"),
    _family_command("ground-states"), _sweep_command(), _mps_command(),
    _classify_command(),
    st.just((["classify", "--space", "/nonexistent/space.json"], None)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=COMMANDS)
def test_fuzzed_commands_end_in_an_exit_code(command):
    argv, stdin_text = command
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
