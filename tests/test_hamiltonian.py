"""Pair energies: rows route against the operator-sum oracle, positivity,
chain embedding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mpschain.hamiltonian import (ROW_BLOCK_BYTES, ChainSizeError, FamilyId,
                                  FamilyParams, LocalHamiltonian,
                                  ParameterError, _chain_table, build_family,
                                  chain_row_blocks, family_espace, full_chain,
                                  local_from_espace, max_sites,
                                  params_from_mapping)
from mpschain.pauli import _FROM_FLAT, CSpace, sl2_act_space, span_equal
from oracles import (conjugate_local, kron_chain, operator_sum, random_sl2,
                     sl2_with_condition, sorted_chain_entries, table_entries)


def _random_params(family, rng):
    """Draw a valid parameter set for a family."""
    def cplx():
        return complex(rng.normal(), rng.normal())

    if family in (FamilyId.HARDCORE, FamilyId.HARDCORE_MIXED):
        return FamilyParams(family, g=float(rng.uniform(0.1, 3.0)))
    if family is FamilyId.EXCHANGE:
        return FamilyParams(family, g=float(rng.uniform(0.1, 3.0)),
                            nu=cplx(), nu_prime=cplx())
    if family is FamilyId.PINNED:
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return FamilyParams(family, lambda3=a.conj().T @ a)
    g1, g2 = rng.uniform(0.0, 2.0, size=2)
    # keep |g3|^2 <= g1 g2, sometimes exactly on the boundary
    cap = np.sqrt(g1 * g2)
    mag = cap if rng.uniform() < 0.25 else rng.uniform(0.0, cap)
    g3 = mag * np.exp(2j * np.pi * rng.uniform())
    extra = {}
    if family in (FamilyId.PAIRSUM_EXCHANGE, FamilyId.HARDCORE_EXCHANGE):
        extra = {"nu": cplx(), "nu_prime": cplx()}
    return FamilyParams(family, g1=float(g1), g2=float(g2), g3=g3, **extra)


def test_exchange_frozen_matrix():
    p = FamilyParams(FamilyId.EXCHANGE, g=1.0, nu=1.0, nu_prime=1.0)
    expected = np.array([[0, 0, 0, 0],
                         [0, 1, -1, 0],
                         [0, -1, 1, 0],
                         [0, 0, 0, 0]], dtype=complex)
    assert_allclose(build_family(p).matrix, expected, atol=1e-14)


def test_hardcore_frozen_matrix():
    p = FamilyParams(FamilyId.HARDCORE, g=1.0)
    assert_allclose(build_family(p).matrix,
                    np.diag([4.0, 0.0, 0.0, 0.0]), atol=1e-14)


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_dual_routes_agree(family):
    rng = np.random.default_rng(sum(family.value.encode()))
    for _ in range(50):
        p = _random_params(family, rng)
        via_ops = operator_sum(p)
        via_rows = build_family(p).matrix
        scale = max(1.0, np.max(np.abs(via_rows)))
        assert np.max(np.abs(via_ops - via_rows)) <= 1e-12 * scale


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_families_are_hermitian_psd(family):
    rng = np.random.default_rng(1 + sum(family.value.encode()))
    for _ in range(20):
        h = build_family(_random_params(family, rng)).matrix
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * max(1, np.max(np.abs(h)))
        evals = np.linalg.eigvalsh(h)
        assert evals[0] >= -1e-10 * max(1.0, evals[-1])


def test_local_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LocalHamiltonian(np.eye(3))
    with pytest.raises(ValueError):
        LocalHamiltonian(np.diag([1.0, 1.0, 1.0, -1.0]))  # not PSD
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        LocalHamiltonian(m)
    with pytest.raises(ValueError):
        local_from_espace(np.array([[1, 0, 0, 0]]),
                          np.array([[-1.0]]))  # negative weight


def test_param_validation():
    with pytest.raises(ParameterError):
        FamilyParams(FamilyId.HARDCORE, g=-1.0)
    with pytest.raises(ParameterError):
        FamilyParams(FamilyId.HARDCORE)  # g missing
    with pytest.raises(ParameterError):
        FamilyParams(FamilyId.HARDCORE, g=1.0, nu=2.0)  # nu not allowed
    with pytest.raises(ParameterError):
        FamilyParams(FamilyId.EXCHANGE, g=1.0, nu=0.0, nu_prime=0.0)
    with pytest.raises(ParameterError):
        FamilyParams(FamilyId.ANTIALIGNED, g1=1.0, g2=1.0, g3=2.0)  # not PSD
    with pytest.raises(ParameterError):
        FamilyParams(FamilyId.PINNED, lambda3=np.eye(2))
    with pytest.raises(ParameterError):
        params_from_mapping("antialigned", {"g1": 1.0, "g2": 1.0,
                                            "g3": 0.0, "bogus": 1.0})
    p = params_from_mapping("hardcore", {"g": 2.0})
    assert p.family is FamilyId.HARDCORE and p.g == 2.0


def test_small_indefinite_weight_is_refused():
    # eigenvalues -4e-7 and 2.4e-6: indefinite, however small the entries
    with pytest.raises(ParameterError, match=r"weight matrix \[\[g1, g3\], "
                       r"\[conj\(g3\), g2\]\] is not positive semidefinite"):
        FamilyParams(FamilyId.ANTIALIGNED, g1=1e-6, g2=1e-6, g3=1.4e-6)


def test_psd_boundary_accepted():
    # |g3|^2 = g1 g2 exactly: rank-one weight, still admissible
    p = FamilyParams(FamilyId.ANTIALIGNED, g1=4.0, g2=1.0, g3=2.0)
    evals = np.linalg.eigvalsh(build_family(p).matrix)
    assert evals[0] >= -1e-12
    assert abs(evals[1]) <= 1e-12  # rank one on the pair space


def test_full_chain_small_sizes():
    p = FamilyParams(FamilyId.EXCHANGE, g=1.3, nu=0.7 + 0.2j, nu_prime=1.1)
    h = build_family(p)
    chain2 = full_chain(h, 2)
    assert_allclose(chain2.matrix, h.matrix, atol=1e-14)
    chain3 = full_chain(h, 3)
    expected = np.kron(h.matrix, np.eye(2)) + np.kron(np.eye(2), h.matrix)
    assert_allclose(chain3.matrix, expected, atol=1e-14)


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_full_chain_matches_kron_sum(family):
    rng = np.random.default_rng(list(FamilyId).index(family) + 700)
    h = build_family(_random_params(family, rng))
    for n in range(2, 8):
        assert_allclose(full_chain(h, n).matrix, kron_chain(h.matrix, n),
                        rtol=0, atol=1e-14)
        _row_major(table_entries(h, n), n)


def _sparse_term(rng) -> np.ndarray:
    """A 4x4 Hermitian PSD term with a random pattern of zero entries:
    some pair states drop out with their row and column, the others get a
    random Hermitian part on a random symmetric pattern, shifted to PSD."""
    live = rng.random(4) < 0.8
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) * np.triu(rng.random((4, 4)) < 0.6, 1)
    h = h + h.conj().T
    h += np.diag(rng.uniform(0.0, 1.0, 4) + np.abs(h).sum(axis=1))
    h[~live] = 0.0
    h[:, ~live] = 0.0
    if rng.random() < 0.3:
        h = h.real + 0j
    return h


def _row_major(entries, n_sites):
    """The entries sorted by row then column, after checking that rows
    do not decrease and that each (row, col) appears once."""
    rows, cols, vals = entries
    assert np.all(np.diff(rows) >= 0)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    assert np.all(np.diff(rows * 2 ** n_sites + cols) > 0)
    return rows, cols, vals


def _assert_entries_bitwise(entries, h, n_sites):
    entries = _row_major(entries, n_sites)
    rows, cols, vals = entries
    want = sorted_chain_entries(h, n_sites)
    for got, ref in zip(entries, want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    dense = kron_chain(h, n_sites)
    assert np.array_equal(np.flatnonzero(dense), rows * 2 ** n_sites + cols)
    assert dense[rows, cols].tobytes() == vals.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9))
def test_table_entries_are_the_sorted_and_kron_ones(seed, n):
    # bit for bit once sorted: values summed bond by bond
    h = _sparse_term(np.random.default_rng(seed))
    _assert_entries_bitwise(table_entries(LocalHamiltonian(h), n), h, n)


def test_table_entries_drop_contributions_that_cancel():
    # h = v v^dagger, v = (1, 1, -1, 0): flipping a site between two 0s
    # gives h[00, 01] = 1 from its left bond and h[00, 10] = -1 from its
    # right one, an exact zero, which is no entry
    v = np.array([1.0, 1.0, -1.0, 0.0])
    h = np.outer(v, v) + 0j
    for n in range(3, 10):
        rows, cols, vals = table_entries(LocalHamiltonian(h), n)
        assert np.all(vals != 0)
        assert not np.any((rows == 0) & (cols == 1 << (n - 2)))
        _assert_entries_bitwise((rows, cols, vals), h, n)


@pytest.mark.parametrize("n", [2, 8, 9, 10])
def test_row_blocks_stack_to_the_full_chain(n):
    rng = np.random.default_rng(710)
    h = build_family(_random_params(FamilyId.HARDCORE_EXCHANGE, rng))
    dim = 2 ** n
    # copies: every block is the one reused buffer
    blocks = [b.copy() for b in chain_row_blocks(
        n, _chain_table(h.matrix, n))]
    assert {b.shape for b in blocks} == {
        (min(dim, ROW_BLOCK_BYTES // (16 * dim)), dim)}
    assert np.array_equal(np.vstack(blocks), full_chain(h, n).matrix)


def test_hardcore_chain_diagonal_rule():
    # chain energy of a basis string counts adjacent 00 pairs, 4g each
    p = FamilyParams(FamilyId.HARDCORE, g=1.0)
    chain = full_chain(build_family(p), 4)
    diag = np.real(np.diag(chain.matrix))

    def idx(bits):
        return int(bits, 2)

    assert diag[idx("0010")] == pytest.approx(4.0)
    assert diag[idx("0011")] == pytest.approx(4.0)
    assert diag[idx("0110")] == pytest.approx(0.0)
    assert diag[idx("0000")] == pytest.approx(12.0)
    assert np.max(np.abs(chain.matrix - np.diag(diag))) == 0.0


def test_hardcore_kernel_counts_are_fibonacci():
    p = FamilyParams(FamilyId.HARDCORE, g=0.8)
    h = build_family(p)
    fib = {2: 3, 3: 5, 4: 8, 5: 13, 6: 21}
    for n, expected in fib.items():
        evals = np.linalg.eigvalsh(full_chain(h, n).matrix)
        assert int(np.sum(evals <= 1e-9 * max(1, evals[-1]))) == expected


def test_chain_size_guard(monkeypatch):
    p = FamilyParams(FamilyId.HARDCORE, g=1.0)
    h = build_family(p)
    with pytest.raises(ChainSizeError):
        full_chain(h, 1)
    with pytest.raises(ChainSizeError):
        full_chain(h, 15)
    monkeypatch.setenv("MPS_MAX_SITES", "15")
    assert max_sites() == 15
    monkeypatch.setenv("MPS_MAX_SITES", "xyz")
    with pytest.raises(ChainSizeError):
        max_sites()


@pytest.mark.parametrize("env", ["0", "-1"])
def test_site_guard_below_one_is_refused_by_name(env, monkeypatch):
    monkeypatch.setenv("MPS_MAX_SITES", env)
    with pytest.raises(ChainSizeError,
                       match=f"MPS_MAX_SITES='{env}' is below 1"):
        max_sites()


def _random_special_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q = q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
    from mpschain.pauli import SL2
    return SL2.unit_normalized(q)


def test_conjugate_local_properties():
    rng = np.random.default_rng(31)
    p = FamilyParams(FamilyId.HARDCORE_SINGLET, g1=1.0, g2=0.5, g3=0.3j)
    h = build_family(p)
    conj_u = conjugate_local(h, _random_special_unitary(rng))
    # unitary conjugation preserves the spectrum
    assert_allclose(np.linalg.eigvalsh(conj_u.matrix),
                    np.linalg.eigvalsh(h.matrix), atol=1e-10)
    g = random_sl2(rng, max_cond=20.0)
    moved = conjugate_local(h, g)

    def kernel_dimension(m):
        evals = np.linalg.eigvalsh(m)
        return int(np.sum(evals <= 1e-9 * max(1.0, evals[-1])))

    assert kernel_dimension(moved.matrix) == kernel_dimension(h.matrix)


@pytest.mark.parametrize("family", list(FamilyId))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), log_cond=st.floats(0.0, 3.0))
def test_row_action_is_the_pair_congruence(family, seed, log_cond):
    # pushing every constraint row through g (R -> R (g x g)) is the
    # congruence (g x g)^dagger h (g x g) of the pair energy, and in
    # quartet coordinates it is the unimodular action on the space
    rng = np.random.default_rng(seed)
    params = _random_params(family, rng)
    g = sl2_with_condition(rng, 10.0 ** log_cond)
    rows, lam = family_espace(params)
    moved_rows = rows @ np.kron(g.matrix, g.matrix)
    want = conjugate_local(local_from_espace(rows, lam), g).matrix
    got = local_from_espace(moved_rows, lam).matrix
    scale = np.linalg.norm(g.matrix, 2) ** 4 * max(
        1.0, float(np.max(np.abs(build_family(params).matrix))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert span_equal(sl2_act_space(g, CSpace(rows @ _FROM_FLAT)),
                      CSpace(moved_rows @ _FROM_FLAT))
