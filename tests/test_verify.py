"""Exact-diagonalization verifier: spectra, residuals, covariance."""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpschain.classify import MU_CASES, CanonicalForm, CaseId
from mpschain.hamiltonian import (HERMITICITY_TOL, ChainSizeError, FamilyId,
                                  FamilyParams, FullHamiltonian,
                                  LocalHamiltonian, build_family,
                                  chain_entries, local_from_espace,
                                  params_from_mapping)
from mpschain.pauli import SIGMA, SL2, TAU0, TAU1, TAU2
from mpschain import cli, verify
from mpschain import sectors as sector_module
from mpschain.states import NamedState, StateVector, ground_state_catalogue
from mpschain.sectors import _filled_stacks, _sector_roots, _sector_stacks
from mpschain.verify import (KERNEL_TOL, _spectrum_report, family_report,
                             spectrum, stacked_state_rank)
from fingerprints import (fingerprints, point_fingerprints, point_terms,
                          recorded_stacks)
from oracles import (CANCELLING_PINNED, axis_by_axis_frame, benchmark_specs,
                     canonical_term, check_zero_member, child_env,
                     conjugate_local, covariance_check, dm_terms, frame_rank,
                     kron_chain, no_mps_case_report, operator_sum,
                     random_sl2)


def _random_special_unitary(rng) -> SL2:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return SL2.unit_normalized(q)


def test_spectrum_zero_chain():
    chain = FullHamiltonian(2, np.zeros((4, 4), dtype=complex))
    rep = spectrum(chain)
    assert rep.n_sites == 2
    assert rep.ground_energy == 0.0
    assert rep.kernel_dim == 4
    assert rep.lowest_k_eigenvalues == (0.0, 0.0, 0.0, 0.0)
    assert rep.warning is None
    assert rep.residuals == {}
    assert rep.all_pass()


def test_spectrum_orders_eigenvalues_and_counts_kernel():
    diag = np.diag([3.0, 0.0, 1.0, 0.0, 2.0, 5.0, 4.0, 6.0])
    rep = spectrum(FullHamiltonian(3, diag.astype(complex)))
    assert rep.kernel_dim == 2
    assert rep.lowest_k_eigenvalues == (0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
                                        6.0)
    assert rep.ground_energy == 0.0
    assert rep.warning is None


def test_spectrum_warns_on_ambiguous_gap():
    # One true zero and one eigenvalue barely above the kernel cut.
    diag = np.diag([0.0, 5e-9, 1.0, 2.0]).astype(complex)
    rep = spectrum(FullHamiltonian(2, diag))
    assert rep.kernel_dim == 1
    assert rep.warning is not None
    # A comfortable gap stays quiet.
    rep2 = spectrum(FullHamiltonian(2, np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)))
    assert rep2.kernel_dim == 1
    assert rep2.warning is None


@pytest.mark.parametrize("n_sites,expected", [(2, 3), (3, 5), (4, 8), (5, 13)])
def test_hardcore_kernel_dimension_counts_allowed_strings(n_sites, expected):
    rep = family_report(FamilyParams(family=FamilyId.HARDCORE, g=1.0), n_sites)
    assert rep.kernel_dim == expected
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert rep.residuals and max(rep.residuals.values()) <= 1e-12
    assert rep.all_pass()


def test_exchange_report_members_and_kernel():
    params = FamilyParams(family=FamilyId.EXCHANGE, g=1.0, nu=1.0,
                          nu_prime=-1.0)
    rep = family_report(params, 4)
    assert set(rep.residuals) == {"psi0", "psi1", "psi_k1"}
    assert max(rep.residuals.values()) <= 1e-10
    assert rep.kernel_dim >= 4


@pytest.mark.parametrize("params,n_sites", [
    (FamilyParams(family=FamilyId.HARDCORE_MIXED, g=1.0), 6),
    (FamilyParams(family=FamilyId.ANTIALIGNED, g1=1.0, g2=0.7, g3=0.2), 8),
    (FamilyParams(family=FamilyId.HARDCORE_SINGLET, g1=0.9, g2=1.1, g3=0.3j), 5),
    (FamilyParams(family=FamilyId.HARDCORE_EXCHANGE, g1=1.0, g2=0.5, g3=0.1,
                  nu=1.0, nu_prime=2.0), 5),
    (FamilyParams(family=FamilyId.MIXED_SINGLET, g1=1.0, g2=1.0, g3=0.5), 5),
])
def test_family_reports_pass_at_1e_10(params, n_sites):
    rep = family_report(params, n_sites)
    assert rep.n_sites == n_sites
    assert rep.residuals
    assert max(rep.residuals.values()) <= 1e-10
    assert rep.all_pass(1e-10)


def _seeded_params(label, rng):
    """One parameter set per case, every catalogued state present.

    hardcore, hardcore-mixed and exchange/-1 have a real pair energy;
    the others are complex.
    """
    def cplx():
        return complex(rng.normal(), rng.normal())

    def weights():
        g1, g2 = rng.uniform(0.2, 2.0, size=2)
        g3 = 0.9 * np.sqrt(g1 * g2) * np.exp(2j * np.pi * rng.uniform())
        return {"g1": float(g1), "g2": float(g2), "g3": g3}

    fam = FamilyId(label.split("/")[0])
    if fam in (FamilyId.HARDCORE, FamilyId.HARDCORE_MIXED):
        return FamilyParams(fam, g=float(rng.uniform(0.1, 3.0)))
    if label == "exchange/-1":
        nu = float(rng.uniform(0.5, 2.0))
        return FamilyParams(fam, g=float(rng.uniform(0.1, 3.0)), nu=nu,
                            nu_prime=-nu)
    if fam is FamilyId.EXCHANGE:
        return FamilyParams(fam, g=float(rng.uniform(0.1, 3.0)), nu=cplx(),
                            nu_prime=cplx())
    if fam is FamilyId.PINNED:
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return FamilyParams(fam, lambda3=a.conj().T @ a)
    if fam is FamilyId.PAIRSUM_EXCHANGE:
        nu = cplx()
        sign = -1.0 if label.endswith("prime") else 1.0
        return FamilyParams(fam, nu=nu, nu_prime=sign * nu, **weights())
    if fam is FamilyId.HARDCORE_EXCHANGE:
        return FamilyParams(fam, nu=cplx(), nu_prime=cplx(), **weights())
    return FamilyParams(fam, **weights())


ORACLE_CASES = ["hardcore", "hardcore-mixed", "exchange/-1", "exchange",
                "antialigned", "hardcore-singlet", "pairsum-exchange/prime",
                "pairsum-exchange/parity", "hardcore-exchange",
                "mixed-singlet", "pinned"]
BENCH_SPECS = benchmark_specs(np.random.default_rng(1001))


@pytest.mark.parametrize("label", ORACLE_CASES)
def test_family_report_matches_dense_ed(label, monkeypatch):
    rng = np.random.default_rng(ORACLE_CASES.index(label) + 900)
    params = _seeded_params(label, rng)
    real_h = not np.any(build_family(params).matrix.imag)
    assert real_h == (label in ("hardcore", "hardcore-mixed", "exchange/-1"))

    # Two random non-members and two random basis states ride along with
    # the catalogue, so residuals of both kinds of state are compared away
    # from zero as well.
    reported = []

    def catalogue_with_probes(p, n):
        states = ground_state_catalogue(p, n) + [
            NamedState(f"probe{j}", StateVector(
                n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)))
            for j in range(2)] + [
            NamedState(f"basis{j}", StateVector._of(
                n, int(rng.integers(2 ** n))))
            for j in range(2)]
        reported[:] = states
        return states

    monkeypatch.setattr(verify, "ground_state_catalogue",
                        catalogue_with_probes)
    for n in range(2, 9):
        rep = family_report(params, n)
        chain = kron_chain(operator_sum(params), n)
        evals = np.linalg.eigvalsh(chain)
        scale = max(1.0, float(np.max(np.abs(evals))))
        assert rep.kernel_dim == int(np.sum(
            evals <= KERNEL_TOL * np.max(np.abs(evals))))
        k = len(rep.lowest_k_eigenvalues)
        assert k == min(8, 2 ** n)
        assert np.max(np.abs(np.array(rep.lowest_k_eigenvalues)
                             - evals[:k])) <= 1e-10 * scale
        assert set(rep.residuals) == {ns.label for ns in reported}
        for ns in reported:
            assert abs(rep.residuals[ns.label]
                       - check_zero_member(chain, ns.state)) <= 1e-12
        assert min(rep.residuals["probe0"], rep.residuals["probe1"]) > 1e-3


@pytest.mark.parametrize("log2_g", [996, -996])
def test_residuals_keep_their_value_beyond_the_float_range(log2_g,
                                                          monkeypatch):
    # |0...0> costs 4g on every bond, so its residual is far from zero.
    # At g = 2**996 the squares behind |H|_F overflow, and at g = 2**-996
    # max(1, |H|_F) is 1; both must give the exact scaled residual of g = 1,
    # not 0 and not a warning.
    n = 4
    monkeypatch.setattr(verify, "ground_state_catalogue", lambda p, n_sites: [
        NamedState("psi0", StateVector(n_sites, np.eye(2 ** n_sites)[0]))])
    unit = FamilyParams(FamilyId.HARDCORE, g=1.0)
    base = family_report(unit, n).residuals["psi0"]
    hnorm = np.linalg.norm(kron_chain(operator_sum(unit), n))
    assert base > 0.1 and hnorm > 1.0
    got = family_report(FamilyParams(FamilyId.HARDCORE, g=2.0 ** log2_g),
                        n).residuals["psi0"]
    if log2_g > 0:
        assert got == base
    else:
        assert got == pytest.approx(2.0 ** log2_g * base * hnorm, rel=1e-14)


_RESIDUAL_HEX = """
import cmath, json
from mpschain.hamiltonian import FamilyId, FamilyParams
from mpschain.verify import family_report
nu = 0.8 + 0.1j
params = FamilyParams(FamilyId.EXCHANGE, g=1.3, nu=nu,
                      nu_prime=nu * cmath.exp(2j * cmath.pi / 3))
report = family_report(params, 12)
print(json.dumps({k: v.hex() for k, v in report.residuals.items()}))
"""


def test_residuals_do_not_depend_on_the_blas_thread_count():
    # the chain's 12799 values are enough for a BLAS dot to split its
    # work over two threads, so |H|_F taken by one would change the
    # nonzero psi_k residuals in their last bits
    runs = [subprocess.run(
        [sys.executable, "-c", _RESIDUAL_HEX], capture_output=True,
        text=True, env=child_env({"OPENBLAS_NUM_THREADS": threads}))
        for threads in ("1", "2")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    one, two = (json.loads(proc.stdout) for proc in runs)
    assert any(float.fromhex(r) for r in one.values())
    assert one == two


PSI1_CASES = ["hardcore-mixed", "hardcore-singlet", "hardcore-exchange",
              "mixed-singlet", "pinned"]


@pytest.mark.parametrize("label", PSI1_CASES)
def test_psi1_is_an_exact_zero_mode(label):
    # No constraint row of these families touches |11>, so the pair
    # energy has an exactly zero |11> row and column, and the all-ones
    # product state has residual exactly 0, not merely below tolerance.
    rng = np.random.default_rng(PSI1_CASES.index(label) + 970)
    for _ in range(10):
        params = _seeded_params(label, rng)
        h = build_family(params).matrix
        assert not np.any(h[3]) and not np.any(h[:, 3])
        for n in range(2, 9):
            assert family_report(params, n).residuals["psi1"] == 0.0


def _plain_sectors(n_sites, rows, cols, vals):
    """The sector blocks of a chain's entries, no frame or involution."""
    dim = 2 ** n_sites
    return list(_filled_stacks([
        (1, vals, _sector_stacks(dim, rows, cols, np.arange(dim)))]))


def _parity_entries(n_sites, involution, entries):
    """The nonzero entries of a chain in the even and odd states of an
    involution (sigma, phi) that commutes with it."""
    rows, cols, vals = entries
    fold, keys = sector_module._parity_fold(*involution, rows, cols)
    total = sector_module._folded(vals, fold, keys.size)
    keep = total != 0
    keys = keys[keep]
    return keys // 2 ** n_sites, keys % 2 ** n_sites, total[keep]


def _sizes(sectors):
    """Sizes of every sector, a block counted once for each it stands
    for."""
    return sorted(blocks.shape[1] for count, blocks in sectors
                  for _ in range(count * blocks.shape[0]))


def _sector_sizes(params, n_sites):
    return _sizes(_plain_sectors(
        n_sites, *chain_entries(build_family(params), n_sites)))


def test_sector_sizes_follow_bond_connectivity():
    rng = np.random.default_rng(950)
    hardcore = _seeded_params("hardcore", rng)
    exchange = _seeded_params("exchange", rng)
    antialigned = _seeded_params("antialigned", rng)
    pairsum = _seeded_params("pairsum-exchange/parity", rng)
    assert pairsum.g3 != 0
    for n in range(2, 9):
        binomial = sorted(comb(n, k) for k in range(n + 1))
        assert _sector_sizes(hardcore, n) == [1] * 2 ** n
        assert _sector_sizes(exchange, n) == binomial
        assert _sector_sizes(antialigned, n) == binomial
        assert _sector_sizes(pairsum, n) == [2 ** n]


def _framed_sectors(local, n_sites):
    """The stacks and values of the chain family_report solves for local:
    that of _frame's bond term, split by its involution."""
    _, h, t = verify._frame(local.matrix)
    return sector_module._stacks(h, n_sites, t)


def _framed_stacks(local, n_sites):
    """The framed chain's (count, blocks) stacks, all built."""
    return list(_framed_sectors(local, n_sites)[0])


def _framed_sizes(local, n_sites):
    return _sizes(_framed_stacks(local, n_sites))


def _framed_report(local, n_sites):
    return _spectrum_report(n_sites, _framed_stacks(local, n_sites))


def _dense_evals(local, n_sites):
    evals = np.linalg.eigvalsh(kron_chain(local.matrix, n_sites))
    return evals, max(1.0, float(np.max(np.abs(evals))))


def _assert_matches_dense(rep, evals, scale):
    assert rep.kernel_dim == int(np.sum(
        evals <= KERNEL_TOL * np.max(np.abs(evals))))
    k = len(rep.lowest_k_eigenvalues)
    assert np.max(np.abs(np.array(rep.lowest_k_eigenvalues)
                         - evals[:k])) <= 1e-10 * scale


@pytest.mark.parametrize("label", ["pairsum-exchange/prime",
                                   "pairsum-exchange/parity"])
def test_frame_splits_pairsum_chains(label):
    rng = np.random.default_rng(960)
    for _ in range(3):
        params = _seeded_params(label, rng)
        local = build_family(params)
        assert not np.array_equal(verify._frame(local.matrix)[0], np.eye(2))
        for n in range(2, 9):
            sizes = _framed_sizes(local, n)
            assert sum(sizes) == 2 ** n
            assert max(sizes) <= comb(n, n // 2)


def test_hardcore_singlet_blocks_are_real_in_its_frame():
    rng = np.random.default_rng(961)
    params = _seeded_params("hardcore-singlet", rng)
    local = build_family(params)
    assert np.any(local.matrix.imag)
    assert not np.array_equal(verify._frame(local.matrix)[0], np.eye(2))
    for n in range(2, 9):
        sectors, _ = _framed_sectors(local, n)
        assert all(blocks.dtype == np.float64 for _, blocks in sectors)


def _gauged(h):
    """h with a complex hopping phase gauged away where h keeps the
    number of ones: the diagonal by its real part, the rest by modulus."""
    if verify._conserved(h) == 2 and np.any(h.imag):
        return np.where(np.eye(4, dtype=bool), h.real, np.abs(h))
    return h


def test_framed_chain_is_built_from_the_scored_bond_term():
    rng = np.random.default_rng(965)
    gauged, invariant, averaged = 0, 0, 0
    for label in ("pairsum-exchange/prime", "pairsum-exchange/parity",
                  "hardcore-singlet", "mixed-singlet") * 4:
        local = build_family(_seeded_params(label, rng))
        u, h, t = verify._frame(local.matrix)
        assert not np.array_equal(u, np.eye(2)) and t is not None
        scored = _gauged(verify._snapped(verify._rotated(local.matrix, u)))
        gauged += not np.iscomplexobj(scored)
        # the scored term averaged with its image under t: the term
        # itself where it is t-invariant already
        move = _signed_permutation(2, *t)
        image = move @ scored @ move.T
        if np.array_equal(image, scored):
            assert np.array_equal(h, scored)
            invariant += 1
        else:
            assert np.array_equal(h, (scored + image) / 2.0)
            averaged += 1
        # real dtype where it has no imaginary part
        assert np.iscomplexobj(h) == bool(np.any(scored.imag))
        _, vals = _framed_sectors(local, 2)
        # the averaged term's chain values, in chain_entries' order
        term = (scored + image) / 2.0
        rows, cols, want = chain_entries(LocalHamiltonian(term), 2)
        # real where the scored term is
        assert np.iscomplexobj(vals) == bool(np.any(scored.imag))
        assert vals.astype(complex).tobytes() == want.tobytes()
        order = np.lexsort((cols, rows))
        assert np.array_equal(want[order], term[np.nonzero(term)])
    # pairsum-exchange at nu' = nu keeps the number with a complex hopping
    assert gauged == 4
    # mixed-singlet's tilted frame leaves rounding residue that its
    # reversal o Z breaks, so its four draws are averaged; the rest are
    # invariant already
    assert (invariant, averaged) == (12, 4)


def test_frame_paulis_are_the_algebra_layers_bit_for_bit():
    # _frame's arctan2 reads the signs of Y's zero parts, which -1j *
    # SIGMA makes -0.0
    want = np.array([TAU0, TAU2, -1j * SIGMA, TAU1])
    assert verify._PAULI.dtype == want.dtype
    assert verify._PAULI.tobytes() == want.tobytes()


@pytest.mark.parametrize("label", ["hardcore", "exchange/-1", "exchange",
                                   "antialigned", "hardcore-mixed",
                                   "hardcore-exchange", "pinned"])
def test_frame_is_the_identity_without_a_hidden_symmetry(label):
    rng = np.random.default_rng(962)
    for _ in range(3):
        local = build_family(_seeded_params(label, rng))
        u, framed, _ = verify._frame(local.matrix)
        assert np.array_equal(u, np.eye(2))
        # the chain's values are the unframed ones, the hopping phase of
        # exchange and antialigned gauged away
        h = _gauged(local.matrix)
        assert (h is not local.matrix) == (label in ("exchange",
                                                     "antialigned"))
        assert np.array_equal(framed, h)
        _, vals = _framed_sectors(local, 4)
        assert vals.astype(complex).tobytes() \
            == chain_entries(LocalHamiltonian(h), 4)[2].tobytes()


def _reversal_bound(n_sites):
    """States of one parity of a site reversal: half the orbits that are
    not palindromes, plus every palindrome."""
    return (2 ** n_sites + 2 ** ((n_sites + 1) // 2)) // 2


REVERSAL_CASES = ["mixed-singlet", "hardcore-mixed", "hardcore-singlet"]


@pytest.mark.parametrize("label", REVERSAL_CASES)
def test_reversal_splits_one_block_families(label):
    rng = np.random.default_rng(966)
    for _ in range(3):
        local = build_family(_seeded_params(label, rng))
        _, h, t = verify._frame(local.matrix)
        # reversal times Z on every site, not reversal alone
        assert verify._commuting(h)[:2].tolist() == [False, True]
        assert t == (True, False, -1)
        for n in range(2, 9):
            sizes = _framed_sizes(local, n)
            assert sum(sizes) == 2 ** n
            assert max(sizes) <= _reversal_bound(n)
            _assert_matches_dense(_framed_report(local, n),
                                  *_dense_evals(local, n))


@pytest.mark.parametrize("label", ["hardcore-exchange", "pinned"])
def test_reversal_is_refused_without_the_symmetry(label):
    rng = np.random.default_rng(967)
    for _ in range(3):
        local = build_family(_seeded_params(label, rng))
        assert not verify._commuting(local.matrix)[:2].any()
        for n in range(2, 9):
            # |1...1> is alone; every other state is one block
            assert _framed_sizes(local, n) == [1, 2 ** n - 1]


def test_diagonal_chain_skips_the_reversal_step(monkeypatch):
    params = _seeded_params("hardcore", np.random.default_rng(970))
    local = build_family(params)
    assert verify._commuting(local.matrix)[0]
    assert verify._frame(local.matrix)[2] is None
    # what the reversal-parity states would give
    expected = {}
    for n in (4, 7, 10):
        sectors = _plain_sectors(n, *_parity_entries(
            n, sector_module._involution(n, verify._INVOLUTIONS[0]),
            chain_entries(local, n)))
        expected[n] = _sizes(sectors), _spectrum_report(n, sectors)

    fold = sector_module._parity_fold

    def identity_only(sigma, phi, rows, cols):
        # a diagonal chain is folded by the identity only
        if not (np.array_equal(sigma, np.arange(sigma.size))
                and np.all(phi == 1)):
            raise AssertionError("a reversal folded a diagonal chain")
        return fold(sigma, phi, rows, cols)

    monkeypatch.setattr(sector_module, "_parity_fold", identity_only)
    sector_module._PLANS.clear()
    for n, (sizes, rep) in expected.items():
        assert _framed_sizes(local, n) == sizes == [1] * 2 ** n
        assert _framed_report(local, n) == rep
        assert replace(family_report(params, n), residuals={}) == rep


def test_reversal_keeps_a_small_symmetry_breaking_term():
    rng = np.random.default_rng(968)
    u = _random_special_unitary(rng)
    mixed = build_family(_seeded_params("mixed-singlet", rng)).matrix
    # |01><01| alone is not mapped onto itself by the site swap
    breaking = np.zeros((4, 4))
    breaking[1, 1] = 1.0
    local = conjugate_local(LocalHamiltonian(mixed + 1e-6 * breaking), u)
    for n in range(2, 9):
        # turned by u, no state is alone any more
        assert _framed_sizes(local, n) == [2 ** n]
        _assert_matches_dense(_framed_report(local, n),
                              *_dense_evals(local, n))


def _exchange_sizes(n_sites):
    """Sectors of an exchange chain: the number sectors, of which
    reverse o X^{x n} swaps k with n - k ones and splits the middle one;
    its 2^(n/2) fixed points, x with rev(x) = not x, are all even."""
    sizes = [comb(n_sites, k) for k in range(n_sites + 1)
             if 2 * k != n_sites]
    if n_sites % 2 == 0:
        middle, fixed = comb(n_sites, n_sites // 2), 2 ** (n_sites // 2)
        sizes += [half for half in ((middle + fixed) // 2,
                                    (middle - fixed) // 2) if half]
    return sorted(sizes)


@pytest.mark.parametrize("label,sizes", [
    ("exchange", lambda n: _exchange_sizes(n)),
    ("hardcore", lambda n: [1] * 2 ** n),
])
def test_frame_undoes_a_site_rotation(label, sizes):
    rng = np.random.default_rng(963)
    params = _seeded_params(label, rng)
    for _ in range(3):
        local = conjugate_local(build_family(params),
                                _random_special_unitary(rng))
        for n in range(2, 9):
            assert _framed_sizes(local, n) == sizes(n)
            rep, plain = _framed_report(local, n), family_report(params, n)
            evals, scale = _dense_evals(local, n)
            assert rep.kernel_dim == plain.kernel_dim
            assert np.max(np.abs(np.array(rep.lowest_k_eigenvalues)
                                 - plain.lowest_k_eigenvalues)) \
                <= 1e-10 * scale
            _assert_matches_dense(rep, evals, scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(label=st.sampled_from(ORACLE_CASES), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 7))
def test_frame_keeps_spectra_of_rotated_families(label, seed, n):
    rng = np.random.default_rng(seed)
    local = conjugate_local(build_family(_seeded_params(label, rng)),
                            _random_special_unitary(rng))
    assert frame_rank(verify._frame(local.matrix)[1]) \
        == axis_by_axis_frame(local)[0]
    _assert_matches_dense(_framed_report(local, n), *_dense_evals(local, n))
    if label in REVERSAL_CASES:
        assert max(_framed_sizes(local, n)) <= _reversal_bound(n)


def _canonical_points() -> dict:
    """The nonempty canonical forms with identity weight on their literal
    rows, each mu form at several mu, by name."""
    points = {}
    for case in CaseId:
        for mu in ([0.0, 0.3 + 0.1j, np.exp(2j * np.pi / 3), -1.0]
                   if case in MU_CASES else [None]):
            if case is not CaseId.EMPTY:
                name = case.value if mu is None else f"{case.value}@{mu}"
                points[name] = canonical_term(case, mu)
    return points


def test_frame_search_matches_the_axis_by_axis_oracle():
    # the benchmark draws on three seeds, the canonical points and the
    # two Dzyaloshinskii-Moriya terms, each also turned by three random
    # unitaries: the library's frame reaches the oracle's rank, and the
    # oracle's frame splits the chain alike.  The zero-field DM term
    # keeps the number along an axis that only K's antisymmetric part
    # shows once it is turned: no field, and (K + K^T) / 2 a multiple of
    # the identity
    rng = np.random.default_rng(976)
    terms = {f"{label}@{seed}": build_family(params_from_mapping(*spec))
             for seed in (1001, 2001, 4242)
             for label, spec in benchmark_specs(
                 np.random.default_rng(seed)).items()}
    terms.update(_canonical_points())
    terms.update(dm_terms())
    for local in dm_terms().values():
        assert _solved_sizes(local, 5) == [6, 6, 4, 4, 3, 3, 2, 2]
    ranks, unlike = [], set()
    for name, local in terms.items():
        for turn, turned in enumerate((local, *(conjugate_local(
                local, _random_special_unitary(rng)) for _ in range(3)))):
            rank, _, term = axis_by_axis_frame(turned)
            assert frame_rank(verify._frame(turned.matrix)[1]) == rank
            if any(_solved_sizes(turned, n)
                   != _solved_sizes(LocalHamiltonian(term), n)
                   for n in (5, 8)):
                unlike.add((name, turn))
            ranks.append(rank)
    assert len(ranks) == 244
    # every rank occurs: number, parity, reversal and none
    assert set(ranks) == {0, 1, 2, 3}
    # no exception: the framed term is invariant under its involution bit
    # for bit, so folded entries that cancel do so exactly, however a
    # frame's rotation rounds
    assert unlike == set()


def test_identity_frame_builds_the_chain_from_the_snapped_term():
    # u x u keeps the singlet for every unitary u, so the singlet
    # projector turned by one keeps the number of ones up to rounding
    # residue, which snapping removes from the term the chain is built
    # from: number sectors, paired by the flip and split by reversal
    rng = np.random.default_rng(981)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    local = conjugate_local(LocalHamiltonian(np.outer(singlet, singlet)),
                            _random_special_unitary(rng))
    assert verify._conserved(local.matrix) < 2
    u, h, _ = verify._frame(local.matrix)
    assert np.array_equal(u, np.eye(2)) and verify._conserved(h) == 2
    stacks = _framed_stacks(local, 5)
    assert sorted((blocks.shape[1] for _, blocks in stacks
                   for _ in range(blocks.shape[0])), reverse=True) \
        == [6, 6, 4, 4, 3, 3, 2, 2, 1, 1]
    _assert_matches_dense(_spectrum_report(5, stacks),
                          *_dense_evals(local, 5))


def _signed_permutation(n_sites, reverse, flip, sign):
    """T = (reverse, flip, sign) as a dense matrix, T|x> = sign^ones(x)
    |sigma x>, sigma read off x's bit string: reversed when reverse, each
    bit flipped when flip."""
    dim = 2 ** n_sites
    t = np.zeros((dim, dim))
    for x in range(dim):
        bits = format(x, f"0{n_sites}b")
        image = bits[::-1] if reverse else bits
        if flip:
            image = image.translate(str.maketrans("01", "10"))
        t[int(image, 2), x] = sign ** bits.count("1")
    return t


@pytest.mark.parametrize("i", range(len(verify._INVOLUTIONS)))
def test_bond_tables_are_the_involutions_on_two_sites(i):
    # _MOVED[i] and _MOVED_SIGNS[i] are T on one bond, X^{x n} included,
    # which no benchmark draw or canonical point has _frame choose
    move = _signed_permutation(2, *verify._INVOLUTIONS[i])
    sigma, signs = verify._MOVED[i], verify._MOVED_SIGNS[i]
    # phi[|00>] = 1, so the first column of the signs is phi
    table = np.zeros((4, 4))
    table[sigma, np.arange(4)] = signs[:, 0]
    assert np.array_equal(table, move)
    assert np.array_equal(signs, np.outer(signs[:, 0], signs[:, 0]))
    # the image _frame and _commuting take: T h T of a bond term
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(h[sigma[:, None], sigma[None, :]] * signs,
                          move @ h @ move.T)


def test_held_involutions_are_those_of_the_dense_chain():
    # on the canonical points and the benchmark draws, _frame's t is the
    # first T of _INVOLUTIONS whose signed permutation commutes with the
    # dense chain of h' to the bond term's snapping cut, summed over its
    # bonds, and h' is t-invariant bit for bit; t is None for a diagonal
    # h' or where no T commutes
    terms = {f"{label}@{seed}": build_family(params_from_mapping(*spec))
             for seed in (1001, 2001, 4242)
             for label, spec in benchmark_specs(
                 np.random.default_rng(seed)).items()}
    terms.update(_canonical_points())
    chosen = set()
    for name, local in terms.items():
        _, h, t = verify._frame(local.matrix)
        chosen.add(t)
        if t is not None:
            move = _signed_permutation(2, *t)
            assert np.array_equal(move @ h @ move.T, h), name
        diagonal = not np.any(h[~np.eye(4, dtype=bool)])
        for n in (4, 5, 6):
            chain = kron_chain(h, n)
            cut = (n - 1) * HERMITICITY_TOL * np.max(np.abs(h))
            commutes = []
            for reverse, flip, sign in verify._INVOLUTIONS:
                move = _signed_permutation(n, reverse, flip, sign)
                diff = move @ chain @ move.T - chain
                commutes.append(max(np.max(np.abs(diff.real)),
                                    np.max(np.abs(diff.imag))) <= cut)
            first = None if diagonal or not any(commutes) else \
                verify._INVOLUTIONS[commutes.index(True)]
            assert t == first, (name, n)
    # every involution but X^{x n} is chosen somewhere, and somewhere
    # none: wherever X^{x n} holds, a reversal ahead of it holds too
    assert chosen == {*verify._INVOLUTIONS, None} - {(False, True, 1)}


def test_frame_keeps_a_small_symmetry_breaking_term():
    rng = np.random.default_rng(964)
    u = _random_special_unitary(rng)
    exchange = build_family(_seeded_params("exchange", rng)).matrix
    # (|00> + |11>)/sqrt(2) keeps the parity of ones but not their number
    bell = np.zeros(4)
    bell[[0, 3]] = 2 ** -0.5
    local = conjugate_local(
        LocalHamiltonian(exchange + 1e-6 * np.outer(bell, bell)), u)
    assert not np.array_equal(verify._frame(local.matrix)[0], np.eye(2))
    for n in range(2, 9):
        # the parity sectors, not the number sectors of exchange alone
        assert _framed_sizes(local, n) == [2 ** (n - 1)] * 2
        _assert_matches_dense(_framed_report(local, n),
                              *_dense_evals(local, n))


GAUGED_CASES = ["exchange", "antialigned", "pairsum-exchange/parity"]


def _framed_term(local):
    """The bond term in its symmetry frame, snapped, before the gauge."""
    return verify._snapped(verify._rotated(local.matrix,
                                           verify._frame(local.matrix)[0]))


@pytest.mark.parametrize("label", GAUGED_CASES)
def test_gauged_chains_have_real_blocks_and_match_dense_ed(label):
    rng = np.random.default_rng(972)
    for _ in range(3):
        local = build_family(_seeded_params(label, rng))
        h = _framed_term(local)
        # a complex hopping that keeps the number of ones
        assert verify._conserved(h) == 2 and np.any(h[1, 2].imag)
        for n in range(2, 9):
            sectors = _framed_stacks(local, n)
            assert all(blocks.dtype == np.float64 for _, blocks in sectors)
            _assert_matches_dense(_spectrum_report(n, sectors),
                                  *_dense_evals(local, n))


def test_exchange_at_equal_moduli_splits_by_reversal():
    # nu' = omega nu: once the hopping phase is gauged away, the bond term
    # is unchanged by the site swap, so each number sector splits in two
    local = build_family(params_from_mapping(*BENCH_SPECS["exchange/omega3"]))
    assert not verify._commuting(local.matrix)[:2].any()
    for n in range(2, 10):
        sizes = _framed_sizes(local, n)
        assert sum(sizes) == 2 ** n
        assert max(sizes) < comb(n, n // 2)
        if n <= 8:
            _assert_matches_dense(_framed_report(local, n),
                                  *_dense_evals(local, n))
    # C(9, 4) = 126 states with four ones, 6 of them palindromes
    assert sorted(_framed_sizes(local, 9))[-2:] == [66, 66]
    assert 60 in _framed_sizes(local, 9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7))
def test_rotated_number_conserving_terms_get_real_blocks(seed, n):
    rng = np.random.default_rng(seed)
    a, d = rng.uniform(0.0, 2.0, size=2)
    b, c = rng.uniform(0.5, 2.0, size=2)
    h = np.diag([a, b, c, d]).astype(complex)
    h[1, 2] = (np.sqrt(b * c) * rng.uniform(0.1, 0.9)
               * np.exp(2j * np.pi * rng.uniform()))
    h[2, 1] = np.conj(h[1, 2])
    local = conjugate_local(LocalHamiltonian(h), _random_special_unitary(rng))
    sectors = _framed_stacks(local, n)
    assert all(blocks.dtype == np.float64 for _, blocks in sectors)
    _assert_matches_dense(_spectrum_report(n, sectors),
                          *_dense_evals(local, n))


def test_a_small_number_breaking_term_is_not_gauged():
    rng = np.random.default_rng(973)
    antialigned = build_family(_seeded_params("antialigned", rng)).matrix
    # (|00> + |11>)/sqrt(2) keeps the parity of ones but not their number
    bell = np.zeros(4)
    bell[[0, 3]] = 2 ** -0.5
    local = LocalHamiltonian(antialigned + 1e-6 * np.outer(bell, bell))
    assert verify._conserved(_framed_term(local)) == 1
    for n in range(2, 9):
        sectors = _framed_stacks(local, n)
        assert max(sectors, key=lambda s: s[1].shape[1])[1].dtype \
            == np.complex128
        _assert_matches_dense(_spectrum_report(n, sectors),
                              *_dense_evals(local, n))


def _sector_spectrum(sectors):
    """Every eigenvalue of the chain, each block's counted count times."""
    return np.sort(np.concatenate([
        np.tile(np.linalg.eigvalsh(blocks), count)
        for count, blocks in sectors],
        axis=None))


def _solved_states(sectors) -> int:
    return sum(blocks.shape[0] * blocks.shape[1] for _, blocks in sectors)


def _solved_sizes(local, n_sites):
    """Sizes of the blocks the framed chain eigensolves, largest first."""
    sectors = _framed_stacks(local, n_sites)
    return sorted((blocks.shape[1] for _, blocks in sectors
                   for _ in range(blocks.shape[0]) if blocks.shape[1] > 1),
                  reverse=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9),
       flip=st.booleans())
def test_involutions_pair_and_split_sectors_as_dense_ed(seed, n, flip):
    # number-keeping terms with h[00] = h[11] commute with
    # reverse o X^{x n}; with h[01] = h[10] too, also with X^{x n} (and,
    # the hopping gauged real, with reversal); then turned by a random u
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.0, 2.0, size=3)
    if flip:
        c = b
    h = np.diag([a, b, c, a]).astype(complex)
    h[1, 2] = (np.sqrt(b * c) * rng.uniform(0.1, 0.9)
               * np.exp(2j * np.pi * rng.uniform()))
    h[2, 1] = np.conj(h[1, 2])
    local = conjugate_local(LocalHamiltonian(h), _random_special_unitary(rng))
    sectors = _framed_stacks(local, n)
    evals = np.linalg.eigvalsh(kron_chain(local.matrix, n))
    scale = max(1.0, float(np.max(np.abs(evals))))
    assert np.max(np.abs(_sector_spectrum(sectors) - evals)) <= 1e-12 * scale
    assert _spectrum_report(n, sectors).kernel_dim == int(np.sum(
        evals <= KERNEL_TOL * np.max(np.abs(evals))))
    if not flip:
        # reverse o X^{x n} alone: sector k and sector n - k solved once
        assert _solved_states(sectors) < 2 ** n


def test_a_small_term_breaking_reverse_flip_is_refused():
    rng = np.random.default_rng(974)
    antialigned = build_family(_seeded_params("antialigned", rng)).matrix
    # |00><00| alone is not mapped onto itself by reverse o X^{x n}
    breaking = np.zeros((4, 4))
    breaking[0, 0] = 1.0
    local = LocalHamiltonian(antialigned + 1e-6 * breaking)
    plain = LocalHamiltonian(antialigned)
    # reverse o X^{x n} is the last of verify._INVOLUTIONS
    assert verify._INVOLUTIONS[-1] == (True, True, 1)
    assert verify._commuting(_framed_term(plain))[-1]
    assert not verify._commuting(_framed_term(local))[-1]
    assert verify._frame(plain.matrix)[2] == (True, True, 1)
    assert verify._frame(local.matrix)[2] is None
    for n in range(2, 9):
        binomial = sorted((comb(n, k) for k in range(n + 1)), reverse=True)
        assert _solved_sizes(local, n) == [k for k in binomial if k > 1]
        assert _solved_states(_framed_stacks(plain, n)) < 2 ** n
        sectors = _framed_stacks(local, n)
        assert _solved_states(sectors) == 2 ** n
        evals = np.linalg.eigvalsh(kron_chain(local.matrix, n))
        scale = max(1.0, float(np.max(np.abs(evals))))
        assert np.max(np.abs(_sector_spectrum(sectors) - evals)) \
            <= 1e-12 * scale
        _assert_matches_dense(_spectrum_report(n, sectors), evals, scale)


@pytest.mark.parametrize("pair", [(0, 1), (1, 3), (2, 3)])
def test_a_pattern_broken_below_the_cut_merges_sectors(pair):
    # a 1e-13 hop between two pair states lies below the snapping cut, so
    # reverse o X^{x n} holds and _frame drops the hop.  Built from the
    # raw term, the chain's pattern breaks T: T's images of its sectors
    # are no longer sectors, and a plan for it is refused.  Through
    # _frame, whose term is T-invariant bit for bit, the chain splits by
    # T and keeps the raw term's spectrum
    rng = np.random.default_rng(975)
    hop = np.zeros((4, 4))
    hop[pair] = hop[pair[::-1]] = 1.0
    plain = build_family(_seeded_params("antialigned", rng)).matrix
    h = plain + 1e-13 * hop
    u, framed, t = verify._frame(h)
    assert u.tolist() == np.eye(2).tolist()
    assert np.array_equal(framed, verify._frame(plain)[1])
    assert t == (True, True, 1)
    for n in range(3, 9):
        rows, cols, _ = chain_entries(LocalHamiltonian(h), n)
        off = rows != cols
        root = _sector_roots(2 ** n, rows[off], cols[off])
        sigma, _ = sector_module._involution(n, t)
        assert not np.array_equal(root[sigma], root[sigma[root]])
        with pytest.raises(RuntimeError, match="does not map every sector"):
            sector_module._stacks(h, n, t)
        sectors = _framed_stacks(LocalHamiltonian(h), n)
        assert _solved_states(sectors) < 2 ** n
        evals = np.linalg.eigvalsh(kron_chain(h, n))
        scale = max(1.0, float(np.max(np.abs(evals))))
        assert np.max(np.abs(_sector_spectrum(sectors) - evals)) \
            <= 1e-12 * scale
        _assert_matches_dense(_spectrum_report(n, sectors), evals, scale)


# Blocks eigensolved per benchmark label at n = 10 (seed 1001 draw): one of
# each pair of sectors an involution swaps, and the halves of those it
# maps onto themselves.
SOLVED_AT_10 = {
    "exchange/-1": [126, 126, 110, 110, 100, 100, 60, 60, 60, 60, 25, 25,
                    20, 20, 5, 5, 5, 5],
    "exchange/omega3": [126, 126, 110, 110, 100, 100, 60, 60, 60, 60, 25,
                        25, 20, 20, 5, 5, 5, 5],
    "hardcore": [],
    "hardcore-mixed": [527, 496],
    "antialigned": [210, 142, 120, 110, 45, 10],
    "hardcore-singlet": [527, 496],
    "pairsum-exchange/prime": [210, 142, 120, 110, 45, 10],
    "pairsum-exchange/parity": [210, 142, 120, 110, 45, 10],
    "hardcore-exchange": [1023],
    "mixed-singlet": [528, 496],
    "pinned": [1023],
}


@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_solved_block_sizes_are_pinned(label):
    local = build_family(params_from_mapping(*BENCH_SPECS[label]))
    assert _solved_sizes(local, 10) == SOLVED_AT_10[label]


def test_fingerprints_count_the_kernel_as_dense_ed():
    # the behaviour fingerprints of tests/fingerprints.py, one seed and
    # the small sizes: one line for each label and size, JSON-ready
    specs = benchmark_specs(np.random.default_rng(1001))
    lines = list(fingerprints(seeds=(1001,), sizes=range(2, 5)))
    assert len(lines) == 33
    for line in lines:
        json.dumps(line)
        local = build_family(params_from_mapping(*specs[line["label"]]))
        evals = np.linalg.eigvalsh(kron_chain(local.matrix, line["n_sites"]))
        assert line["kernel_dim"] == int(np.sum(
            evals <= KERNEL_TOL * np.max(np.abs(evals))))
        assert sum(count * s * k for count, (s, k, _) in line["stacks"]) \
            == 2 ** line["n_sites"]
    # the fixed points appended after them, at three sites
    terms = point_terms()
    lines = list(point_fingerprints(sizes=(3,)))
    assert len(lines) == 22
    assert [line["label"] for line in lines] == list(terms)
    for line in lines:
        evals = np.linalg.eigvalsh(kron_chain(terms[line["label"]].matrix, 3))
        assert line["kernel_dim"] == int(np.sum(
            evals <= KERNEL_TOL * np.max(np.abs(evals))))
    assert lines[0]["residuals"] and not lines[1]["residuals"]


def test_family_report_refuses_blocks_beyond_available_memory(monkeypatch):
    params = params_from_mapping(*BENCH_SPECS["pinned"])
    # one complex 1023-state block, and eigvalsh's copy of it
    need = 2 * 16 * 1023 ** 2
    monkeypatch.setattr(sector_module, "_available_bytes", lambda: need - 1)
    with pytest.raises(ChainSizeError,
                       match=f"need {need} bytes .* {need - 1} bytes"):
        family_report(params, 10)
    for available in (need, None):
        # enough, or MemAvailable unreadable: only the site guard holds
        monkeypatch.setattr(sector_module, "_available_bytes", lambda: available)
        assert family_report(params, 10).residuals == {"psi1": 0.0}


def test_pinned_at_14_sites_is_refused_before_any_block(monkeypatch):
    # 16 * 16383^2 bytes (4.3 GB) and its copy do not fit in 7 GiB
    monkeypatch.setattr(sector_module, "_available_bytes", lambda: 7 * 2 ** 30)
    params = params_from_mapping(*BENCH_SPECS["pinned"])
    tracemalloc.start()
    try:
        with pytest.raises(ChainSizeError,
                           match=f"need {2 * 16 * 16383 ** 2} bytes"):
            family_report(params, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 28


def test_stacks_are_solved_one_at_a_time(monkeypatch):
    # two real stacks: paths of k and k - 1 states.  The guard admits
    # twice the largest, and each stack is solved and dropped before the
    # next is built, so both are never held together
    k = 400
    x = np.arange(2 * k - 1)
    edge = np.flatnonzero(x[:-1] != k - 1)
    rows = np.concatenate((x, edge, edge + 1))
    cols = np.concatenate((x, edge + 1, edge))
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    vals = np.where(rows == cols, 2.0, -1.0)
    plan = _sector_stacks(x.size, rows, cols, x)
    assert [(s, size) for s, size, _, _ in plan] == [(1, k - 1), (1, k)]
    stack = 8 * k * k
    parts = [(1, vals, plan)]
    monkeypatch.setattr(sector_module, "_available_bytes", lambda: 2 * stack - 1)
    with pytest.raises(ChainSizeError, match=f"need {2 * stack} bytes"):
        _filled_stacks(parts)
    monkeypatch.setattr(sector_module, "_available_bytes", lambda: 2 * stack)
    tracemalloc.start()
    try:
        rep = _spectrum_report(1, _filled_stacks(parts))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack
    dense = np.zeros((x.size, x.size))
    dense[rows, cols] = vals
    assert rep.lowest_k_eigenvalues == pytest.approx(
        np.linalg.eigvalsh(dense)[:8], abs=1e-12)


def test_available_bytes_reads_meminfo():
    available = sector_module._available_bytes()
    assert available is None or available > 0


def _counted_plans(monkeypatch) -> list:
    """An empty plan cache, and a list that gets one entry for every plan
    _sector_plan builds."""
    built = []
    build = sector_module._sector_plan

    def counting(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(sector_module, "_sector_plan", counting)
    monkeypatch.setattr(sector_module, "_PLANS", OrderedDict())
    return built


def _stacks_and_values(local, n_sites):
    stacks, vals = _framed_sectors(local, n_sites)
    return list(stacks), vals


def _assert_same_stacks(got, want):
    """The same (count, blocks) stacks and chain values, dtype and bytes."""
    (stacks, vals), (want_stacks, want_vals) = got, want
    assert vals.dtype == want_vals.dtype
    assert vals.tobytes() == want_vals.tobytes()
    assert len(stacks) == len(want_stacks)
    for (count, blocks), (want_count, want_blocks) in zip(stacks,
                                                          want_stacks):
        assert count == want_count
        assert blocks.dtype == want_blocks.dtype
        assert blocks.shape == want_blocks.shape
        assert blocks.tobytes() == want_blocks.tobytes()


def _report_bits(rep):
    return (rep.n_sites, rep.kernel_dim, rep.warning, rep.ground_energy.hex(),
            tuple(v.hex() for v in rep.lowest_k_eigenvalues),
            {label: r.hex() for label, r in rep.residuals.items()})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9),
       density=st.floats(0.0, 1.0), real=st.booleans(),
       small_integers=st.booleans())
def test_warm_plans_give_the_cold_stacks_bit_for_bit(seed, n, density, real,
                                                     small_integers):
    # a sparse Hermitian PSD bond term; small integer entries make exact
    # cancellations in the chain and in the parity fold likely
    rng = np.random.default_rng(seed)
    if small_integers:
        m = rng.integers(-2, 3, size=(4, 4)) + (
            0 if real else 1j * rng.integers(-2, 3, size=(4, 4)))
    else:
        m = rng.normal(size=(4, 4)) + (
            0 if real else 1j * rng.normal(size=(4, 4)))
    mask = rng.uniform(size=(4, 4)) < density
    h = np.where(mask | mask.T, m + m.conj().T, 0.0)
    h += max(0.0, -np.linalg.eigvalsh(h)[0]) * np.eye(4)
    local = LocalHamiltonian(h)
    sector_module._PLANS.clear()
    cold = _stacks_and_values(local, n)
    warm = _stacks_and_values(local, n)
    _assert_same_stacks(warm, cold)
    rep = _spectrum_report(n, warm[0])
    assert _report_bits(rep) == _report_bits(_spectrum_report(n, cold[0]))
    _assert_matches_dense(rep, *_dense_evals(local, n))


def test_a_cancelling_point_gets_a_plan_of_its_own(monkeypatch):
    # the one-site flip of a site between two |0>s is h[00, 01] +
    # h[00, 10] = g1 - g2: it cancels at g1 = g2, while the bond term's
    # pattern and its (no) involutions are those of g1 != g2
    rows = np.array([[1, 1, 0, 0], [1, 0, -1, 0], [0, 1, 0, 0]])
    plain = local_from_espace(rows, np.diag([1.0, 2.0, 0.5]))
    cancel = local_from_espace(rows, np.diag([1.0, 1.0, 0.5]))
    for n in range(3, 8):
        assert len(chain_entries(cancel, n)[0]) \
            < len(chain_entries(plain, n)[0])
        for first, second in ((plain, cancel), (cancel, plain)):
            built = _counted_plans(monkeypatch)
            _stacks_and_values(first, n)
            (key, kept), = sector_module._PLANS.items()
            warm = _stacks_and_values(second, n)
            # the second point's values do not fit the first one's plan:
            # it got one of its own, which was not kept
            assert len(built) == 2
            assert list(sector_module._PLANS.items()) == [(key, kept)]
            sector_module._PLANS.clear()
            _assert_same_stacks(warm, _stacks_and_values(second, n))
            _assert_matches_dense(_spectrum_report(n, warm[0]),
                                  *_dense_evals(second, n))


def test_plans_follow_the_values_of_a_family_chain():
    # pinned with lambda02 = -lambda01: the one-site flips of a site
    # between two |0>s cancel in every chain of this point, so its plan
    # must come from the chain's values; one from the bond term's
    # pattern alone would merge the sectors (into [1, 15, 16] at n = 5)
    params = params_from_mapping(*CANCELLING_PINNED)
    local = build_family(params)
    assert verify._frame(local.matrix)[2] == (True, False, -1)
    solved = {}
    with recorded_stacks() as stacks:
        for n in range(5, 9):
            stacks.clear()
            rep = family_report(params, n)
            solved[n] = list(stacks)
            assert rep.residuals and rep.all_pass()
            _assert_matches_dense(rep, *_dense_evals(local, n))
    assert solved[5] == [(1, (2, 1, 1)), (1, (2, 6, 6)), (1, (2, 9, 9))]
    assert solved[7] == [(1, (2, 1, 1)), (1, (2, 12, 12)), (1, (2, 16, 16)),
                         (1, (1, 32, 32)), (1, (1, 38, 38))]


def test_evicted_plans_leave_reports_unchanged(monkeypatch):
    cases = [(params_from_mapping(*BENCH_SPECS[label]), n)
             for label in BENCH_SPECS for n in (5, 7)]
    built = _counted_plans(monkeypatch)
    want = [_report_bits(family_report(p, n)) for p, n in cases]
    sizes = sorted(plan.nbytes for plan in sector_module._PLANS.values())
    assert len(built) == len(sizes) > 2
    # room for the largest plan but not for all, then for none
    for bound in (sizes[-1], sizes[0] - 1):
        monkeypatch.setattr(sector_module, "_PLAN_BYTES", bound)
        sector_module._PLANS.clear()
        for _ in range(2):
            for (p, n), bits in zip(cases, want):
                assert _report_bits(family_report(p, n)) == bits
                assert sum(plan.nbytes for plan in
                           sector_module._PLANS.values()) <= bound
        assert len(sector_module._PLANS) < len(sizes)


def test_a_sweep_at_fixed_size_builds_one_plan(monkeypatch, capsys):
    built = _counted_plans(monkeypatch)
    assert cli.main(["sweep", "--family", "antialigned", "--params",
                     '{"g1": 1.0, "g2": 1.0}', "--grid", "g3:0.25..1:5",
                     "--n-sites", "6"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 6
    assert built == [6]


@pytest.mark.parametrize("n", range(2, 12))
def test_hardcore_residuals_are_pinned(n):
    # every catalogued hardcore string avoids |00>, so its column of the
    # diagonal chain is exactly zero
    rep = family_report(FamilyParams(FamilyId.HARDCORE, g=1.7), n)
    fib = [1, 2]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    assert len(rep.residuals) == rep.kernel_dim == fib[n]
    assert {r.hex() for r in rep.residuals.values()} == {"0x0.0p+0"}


@pytest.mark.parametrize("seed", [1001, 2001, 4242])
def test_pinned_residuals_are_pinned(seed):
    fam, mapping = benchmark_specs(np.random.default_rng(seed))["pinned"]
    params = params_from_mapping(fam, mapping)
    for n in range(2, 11):
        assert {k: r.hex() for k, r in family_report(
            params, n).residuals.items()} == {"psi1": "0x0.0p+0"}


@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_basis_state_residuals_read_their_column(label, monkeypatch):
    # each basis state, once as an index and once as a dense vector
    params = params_from_mapping(*BENCH_SPECS[label])
    for n in (2, 5, 7):
        def catalogue(p, n_sites, dense):
            return [NamedState(f"e{x}", StateVector(n_sites, np.eye(
                2 ** n_sites)[x]) if dense else StateVector._of(n_sites, x))
                for x in range(2 ** n_sites)]
        got = {}
        for dense in (False, True):
            monkeypatch.setattr(verify, "ground_state_catalogue",
                                lambda p, n_sites: catalogue(p, n_sites,
                                                             dense))
            got[dense] = family_report(params, n).residuals
        chain = kron_chain(build_family(params).matrix, n)
        for x in range(2 ** n):
            key = f"e{x}"
            want = check_zero_member(chain, StateVector(n, np.eye(2 ** n)[x]))
            assert abs(got[False][key] - want) <= 1e-14
            # the same sum of squares, bit for bit when the column has one
            # entry (the diagonal chains)
            assert got[False][key] == pytest.approx(got[True][key],
                                                    rel=1e-14)
            if label == "hardcore":
                assert got[False][key].hex() == got[True][key].hex()


@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_dense_state_residuals_match_the_dense_chain(label, monkeypatch):
    # the catalogue's states, each as a dense vector, and two random
    # probes: H psi comes from the bond term on each bond, |H|_F from the
    # framed chain's values
    params = params_from_mapping(*BENCH_SPECS[label])
    rng = np.random.default_rng(list(BENCH_SPECS).index(label) + 980)
    h = build_family(params).matrix
    for n in range(2, 9):
        states = [NamedState(ns.label, StateVector(n, ns.state.amplitudes))
                  for ns in ground_state_catalogue(params, n)] + [
            NamedState(f"probe{j}", StateVector(
                n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)))
            for j in range(2)]
        monkeypatch.setattr(verify, "ground_state_catalogue",
                            lambda p, n_sites: states)
        rep = family_report(params, n)
        chain = kron_chain(h, n)
        for ns in states:
            assert abs(rep.residuals[ns.label]
                       - check_zero_member(chain, ns.state)) <= 1e-13


def test_hardcore_report_at_11_sites_stacks_no_dense_states():
    params = FamilyParams(family=FamilyId.HARDCORE, g=1.0)
    tracemalloc.start()
    try:
        rep = family_report(params, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 233 dense states alone would take 233 * 16 * 2**11 bytes (7.3 MiB)
    assert peak < 2 * 2 ** 20
    assert len(rep.residuals) == rep.kernel_dim == 233


def test_hardcore_report_at_12_sites_never_builds_the_dense_chain():
    tracemalloc.start()
    try:
        rep = family_report(FamilyParams(family=FamilyId.HARDCORE, g=1.0), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4 ** 12
    assert rep.kernel_dim == 377
    assert len(rep.residuals) == 377
    assert max(rep.residuals.values()) <= 1e-9


WEIGHT_NAMES = ("g", "g1", "g2", "g3", "lambda3")


@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_kernel_count_is_unchanged_when_the_weights_are_scaled(label):
    # the cut is relative to the largest eigenvalue, so scaling every
    # weight by 2^k leaves the count alone, even where the whole spectrum
    # lies below KERNEL_TOL (k = -996)
    fam, mapping = BENCH_SPECS[label]
    for n in (4, 7):
        dims = []
        for k in (-996, 0, 996):
            scaled = {key: value * 2.0 ** k if key in WEIGHT_NAMES else value
                      for key, value in mapping.items()}
            dims.append(family_report(params_from_mapping(fam, scaled),
                                      n).kernel_dim)
        assert dims[0] == dims[1] == dims[2], (n, dims)


def test_mixed_singlet_report_at_10_sites_never_builds_a_full_block():
    params = _seeded_params("mixed-singlet", np.random.default_rng(969))
    tracemalloc.start()
    try:
        rep = family_report(params, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a complex 1024 x 1024 block alone would take 16 * 4**10 bytes
    assert peak < 16 * 4 ** 10
    assert rep.kernel_dim == 2
    assert rep.residuals["psi1"] == 0.0


def test_check_zero_member_rejects_zero_vector():
    chain = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        check_zero_member(chain, StateVector(2, np.zeros(4)))


def test_check_zero_member_rejects_dimension_mismatch():
    chain = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        check_zero_member(chain, StateVector(3, np.ones(8)))


def test_check_zero_member_flags_non_members():
    chain = kron_chain(operator_sum(
        FamilyParams(family=FamilyId.HARDCORE, g=1.0)), 3)
    # |000> maximally violates the no-adjacent-zeros rule.
    bad = np.zeros(8, dtype=complex)
    bad[0] = 1.0
    assert check_zero_member(chain, StateVector(3, bad)) > 0.05
    good = np.zeros(8, dtype=complex)
    good[0b111] = 1.0
    assert check_zero_member(chain, StateVector(3, good)) <= 1e-14


def test_covariance_identity_is_exact():
    params = FamilyParams(family=FamilyId.HARDCORE_MIXED, g=1.0)
    local = operator_sum(params)
    (ns,) = ground_state_catalogue(params, 6)
    assert covariance_check(local, ns.state, SL2.identity(), 6) <= 1e-12


def test_covariance_under_unitaries():
    rng = np.random.default_rng(61)
    params = FamilyParams(family=FamilyId.EXCHANGE, g=1.0, nu=1.0,
                          nu_prime=-1.0)
    local = operator_sum(params)
    states = ground_state_catalogue(params, 6)
    for _ in range(5):
        g = _random_special_unitary(rng)
        for ns in states:
            assert covariance_check(local, ns.state, g, 6) <= 1e-9


def test_covariance_under_invertible_maps():
    rng = np.random.default_rng(62)
    params = FamilyParams(family=FamilyId.ANTIALIGNED, g1=1.0, g2=1.0, g3=0.4)
    local = operator_sum(params)
    states = ground_state_catalogue(params, 6)
    for _ in range(5):
        g = random_sl2(rng, max_cond=10.0)
        for ns in states:
            assert covariance_check(local, ns.state, g, 6) <= 1e-8


@pytest.mark.parametrize("params,n_sites", [
    (FamilyParams(family=FamilyId.HARDCORE, g=1.0), 5),
    (FamilyParams(family=FamilyId.EXCHANGE, g=1.0, nu=1.0, nu_prime=1.0), 6),
    (FamilyParams(family=FamilyId.ANTIALIGNED, g1=1.0, g2=0.5, g3=0.1), 6),
    (FamilyParams(family=FamilyId.PAIRSUM_EXCHANGE, g1=1.0, g2=1.0, g3=0.0,
                  nu=1.0, nu_prime=-1.0), 6),
])
def test_kernel_dimension_bounds_stacked_state_rank(params, n_sites):
    rep = family_report(params, n_sites)
    states = [ns.state for ns in ground_state_catalogue(params, n_sites)]
    assert rep.kernel_dim >= stacked_state_rank(states)


def test_stacked_state_rank_counts_independent_states():
    v1 = StateVector(2, [1, 0, 0, 0])
    v2 = StateVector(2, [0, 1, 0, 0])
    assert stacked_state_rank([]) == 0
    assert stacked_state_rank([v1]) == 1
    assert stacked_state_rank([v1, v2]) == 2
    assert stacked_state_rank([v1, v1, v2]) == 2


@pytest.mark.parametrize("form", [
    CanonicalForm(CaseId.REGULAR_PLANE_TILTED),
    CanonicalForm(CaseId.FULL_SYMMETRIC, mu=0.4),
    CanonicalForm(CaseId.FULL_SPACE),
])
def test_no_mps_case_report_is_informational(form):
    rep = no_mps_case_report(form, 4)
    assert rep.n_sites == 4
    assert rep.ground_energy >= -1e-12
    assert len(rep.lowest_k_eigenvalues) == 8
    assert rep.residuals == {}


def test_no_mps_case_report_accepts_weights_and_caps_size():
    form = CanonicalForm(CaseId.REGULAR_PLANE_TILTED)
    rep = no_mps_case_report(form, 4, lam=np.diag([2.0, 3.0]))
    assert rep.ground_energy >= -1e-12
    with pytest.raises(ValueError):
        no_mps_case_report(form, 11)
    with pytest.raises(ValueError):
        no_mps_case_report(CanonicalForm(CaseId.EMPTY), 4)
