"""State constructions: weighted sums, bond-matrix traces, catalogues."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mpschain.classify import CanonicalForm, CaseId, classify
from mpschain.hamiltonian import FamilyId, FamilyParams, build_family, \
    full_chain
from mpschain.pauli import PauliQuartet
from mpschain.states import (CaseRepresentation, MPSSpec, NamedState,
                             NoRepresentationError, StateVector,
                             _zero_counts, constraint_residual,
                             ground_state_catalogue, hardcore_states,
                             mps_contract, order_of_unit_root, product_state,
                             psi_k, psi_parity, psi_prime,
                             representation_for_case, transfer_matrix,
                             transform_state)
from oracles import random_sl2, zero_counts


def chain_residual(params: FamilyParams, state: StateVector) -> float:
    h = full_chain(build_family(params), state.n_sites)
    return float(np.linalg.norm(h.matrix @ state.amplitudes) / state.norm())


def test_product_states():
    p0 = product_state("0", 3)
    assert p0.amplitudes[0] == 1.0 and np.sum(np.abs(p0.amplitudes)) == 1.0
    p1 = product_state("1", 3)
    assert p1.amplitudes[7] == 1.0
    with pytest.raises(ValueError):
        product_state("2", 3)


def test_zeta_weight_examples():
    zeros, exponent = _zero_counts(4)
    for bits, z, e in [("0011", 2, 0), ("0101", 2, 1), ("1100", 2, 4),
                       ("1111", 0, 0)]:
        assert (zeros[int(bits, 2)], exponent[int(bits, 2)]) == (z, e)


def test_zero_counts_match_the_site_loop():
    for n in range(1, 17):
        zeros, exponent = _zero_counts(n)
        want_zeros, want_exponent = zero_counts(n)
        assert np.array_equal(zeros, want_zeros), n
        assert np.array_equal(exponent, want_exponent), n


def test_zero_counts_table_is_cached_read_only_and_fits_24_sites():
    zeros, exponent = _zero_counts(6)
    assert _zero_counts(6)[0] is zeros
    for table in (zeros, exponent):
        with pytest.raises(ValueError):
            table[0] = 1
    zeros, exponent = _zero_counts(24)
    assert zeros.nbytes + exponent.nbytes == 2 * 2 ** 24
    # the largest entries: all 24 zeros, and 12 ones left of 12 zeros
    assert zeros[0] == 24 and zeros.max() == 24
    assert exponent.max() == exponent[int("1" * 12 + "0" * 12, 2)] == 144


def dense_basis(n_sites, index):
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[index] = 1.0
    return amps


def test_basis_states_read_as_dense_basis_vectors():
    for n in range(1, 11):
        named = hardcore_states(n)
        states = [ns.state for ns in named] + [product_state("0", n),
                                               product_state("1", n)]
        indices = [int(ns.label, 2) for ns in named] + [0, 2 ** n - 1]
        for state, index in zip(states, indices):
            want = dense_basis(n, index).tobytes()
            assert state.amplitudes.tobytes() == want
            assert state.norm() == 1.0
            assert state.normalized().amplitudes.tobytes() == want
            assert not state.amplitudes.flags.writeable
            # rebuilt on every read, never kept
            assert state.amplitudes is not state.amplitudes


def test_basis_states_hold_no_dense_vector():
    params = FamilyParams(FamilyId.HARDCORE, g=1.0)
    tracemalloc.start()
    try:
        named = ground_state_catalogue(params, 14)
        catalogue_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        state = product_state("1", 24)
        product_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(named) == 987
    assert catalogue_peak < 2 * 2 ** 20
    assert product_peak < 2 ** 20
    assert state.norm() == 1.0


def definition_amplitudes(n_sites, weight):
    """Amplitudes from a per-string definition: weight(zero count, zeta
    exponent) for every basis string, None meaning amplitude zero."""
    amps = np.zeros(2 ** n_sites, dtype=complex)
    for idx in range(2 ** n_sites):
        positions = [i + 1 for i, b in enumerate(format(idx, f"0{n_sites}b"))
                     if b == "0"]
        z = len(positions)
        w = weight(z, sum(positions) - z * (z + 1) // 2)
        if w is not None:
            amps[idx] = w
    return amps


@pytest.mark.parametrize("n", range(1, 11))
def test_builders_match_per_string_definition(n):
    for m in range(1, 6):
        if n % m:
            continue
        ratio = {1: 1.0, 2: -1.0}.get(m, np.exp(2j * np.pi / m))
        for k in range(n // m + 1):
            expected = definition_amplitudes(
                n, lambda z, e: complex(ratio) ** e if z == k * m else None)
            assert psi_k(n, m, k, ratio).amplitudes.tobytes() == \
                expected.tobytes(), (m, k)
    if n % 2 == 0:
        expected = definition_amplitudes(
            n, lambda z, e: ((-1.0) ** (z // 2) * complex(-1.0) ** e
                             if z % 2 == 0 else None))
        assert psi_prime(n).amplitudes.tobytes() == expected.tobytes()
    for parity, literal, first in [("even", False, 0), ("even", True, 0),
                                   ("odd", False, 1), ("odd", True, 3)]:
        expected = definition_amplitudes(
            n, lambda z, e: ((-1.0) ** (z // 2)
                             if z % 2 == first % 2 and z >= first else None))
        got = psi_parity(n, parity, literal_bounds=literal)
        assert got.amplitudes.tobytes() == expected.tobytes(), \
            (parity, literal)
    strings = [format(i, f"0{n}b") for i in range(2 ** n)]
    allowed = [s for s in strings if "00" not in s]
    named = hardcore_states(n)
    assert [ns.label for ns in named] == allowed
    for ns in named:
        expected = np.zeros(2 ** n, dtype=complex)
        expected[strings.index(ns.label)] = 1.0
        assert ns.state.amplitudes.tobytes() == expected.tobytes()


def test_order_of_unit_root():
    assert order_of_unit_root(1.0) == 1
    assert order_of_unit_root(-1.0) == 2
    assert order_of_unit_root(np.exp(2j * np.pi / 7)) == 7
    assert order_of_unit_root(0.5) is None
    assert order_of_unit_root(np.exp(1j)) is None  # irrational angle


def test_psi_k_frozen_four_sites():
    st = psi_k(4, 2, 1, -1.0)
    expected = {3: 1.0, 5: -1.0, 6: 1.0, 9: 1.0, 10: -1.0, 12: 1.0}
    for idx in range(16):
        assert st.amplitudes[idx] == pytest.approx(expected.get(idx, 0.0))


def test_psi_k_validation():
    with pytest.raises(ValueError):
        psi_k(4, 3, 1, np.exp(2j * np.pi / 3))  # 4 not divisible by 3
    with pytest.raises(ValueError):
        psi_k(4, 2, 3, -1.0)  # 6 zeros > 4 sites
    with pytest.raises(ValueError):
        psi_k(4, 2, 1, 1.0)  # order 1, not 2
    with pytest.raises(ValueError):
        psi_k(4, 2, 1, 0.9)  # not on the unit circle


def test_psi_k_members_of_exchange_kernel():
    rng = np.random.default_rng(41)
    for m, n in [(1, 4), (2, 4), (2, 6), (3, 6), (4, 8)]:
        ratio = np.exp(2j * np.pi / m) if m > 1 else 1.0
        nu = complex(rng.normal(), rng.normal())
        params = FamilyParams(FamilyId.EXCHANGE, g=1.0,
                              nu=nu, nu_prime=ratio * nu)
        for k in range(0, n // m + 1):
            st = psi_k(n, m, k, ratio)
            assert chain_residual(params, st) <= 1e-10


def test_psi_prime_frozen_two_sites():
    st = psi_prime(2)
    assert st.amplitudes[0] == pytest.approx(-1.0)
    assert st.amplitudes[3] == pytest.approx(1.0)
    assert abs(st.amplitudes[1]) + abs(st.amplitudes[2]) == 0.0
    with pytest.raises(ValueError):
        psi_prime(3)
    with pytest.raises(ValueError):
        psi_prime(2, ratio=1.0)


def test_psi_prime_membership():
    params = FamilyParams(FamilyId.PAIRSUM_EXCHANGE, g1=0.8, g2=1.1, g3=0.2,
                          nu=1.3, nu_prime=-1.3)
    for n in (2, 4, 6):
        assert chain_residual(params, psi_prime(n)) <= 1e-10


def test_psi_parity_membership_and_literal_gap():
    params = FamilyParams(FamilyId.PAIRSUM_EXCHANGE, g1=1.0, g2=0.7, g3=0.1,
                          nu=0.9, nu_prime=0.9)
    for n in (2, 3, 4, 5, 6):
        even = psi_parity(n, "even")
        assert chain_residual(params, even) <= 1e-10
        odd_fixed = psi_parity(n, "odd", literal_bounds=False)
        assert chain_residual(params, odd_fixed) <= 1e-10
    # the literal lower bound drops the single-zero strings: the result is
    # the zero vector on two sites and off the kernel for longer chains
    assert psi_parity(2, "odd", literal_bounds=True).norm() == 0.0
    assert chain_residual(params, psi_parity(4, "odd",
                                             literal_bounds=True)) > 1e-3


def test_hardcore_strings_counts_and_order():
    counts = {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21}
    for n, expected in counts.items():
        strs = [ns.label for ns in hardcore_states(n)]
        assert len(strs) == expected
        assert strs == sorted(strs)
        assert all("00" not in s for s in strs)
    named = hardcore_states(3)
    assert [ns.label for ns in named] == ["010", "011", "101", "110", "111"]
    params = FamilyParams(FamilyId.HARDCORE, g=1.0)
    assert all(chain_residual(params, ns.state) == 0.0 for ns in named)


def test_mps_against_brute_force():
    rng = np.random.default_rng(42)
    a0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    spec = MPSSpec(a0, a1)
    n = 5
    res = mps_contract(spec, n)
    assert not res.is_zero
    for idx in range(2 ** n):
        bits = format(idx, f"0{n}b")
        m = np.eye(3, dtype=complex)
        for b in bits:
            m = m @ (a0 if b == "0" else a1)
        assert res.state.amplitudes[idx] == pytest.approx(np.trace(m),
                                                          rel=1e-10)
    assert res.z == pytest.approx(res.state.norm() ** 2, rel=1e-8)
    assert res.normalized.norm() == pytest.approx(1.0)


def test_mps_zero_state_flag():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    res = mps_contract(MPSSpec(nil, nil), 4)
    assert res.is_zero
    assert res.normalized is None
    assert res.state.norm() == 0.0


def test_mps_huge_entries_keep_a_unit_normalized_state():
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    res = mps_contract(MPSSpec(1e9 * a0, 1e9 * a1), 20)
    # z is about 1e380: out of range, so inf, never nan
    assert res.z == np.inf and not res.is_zero
    assert res.normalized.norm() == pytest.approx(1.0, abs=1e-12)
    unit = mps_contract(MPSSpec(a0, a1), 20).normalized
    assert_allclose(res.normalized.amplitudes, unit.amplitudes, atol=1e-12)
    res = mps_contract(MPSSpec([[1e10]], [[1e10]]), 20)
    assert res.z == np.inf and not res.is_zero
    assert res.normalized.norm() == pytest.approx(1.0, abs=1e-12)
    assert_allclose(res.normalized.amplitudes, 2.0 ** -10, rtol=1e-12)


def test_state_norm_of_huge_amplitudes_stays_finite():
    state = mps_contract(MPSSpec([[1e10]], [[1e10]]), 20).state
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = state.norm()
        unit = state.normalized()
    # every one of the 2^20 amplitudes is about 1e200
    assert norm == pytest.approx(1e200 * 2.0 ** 10, rel=1e-12)
    assert unit.norm() == pytest.approx(1.0, abs=1e-12)
    assert_allclose(unit.amplitudes, 2.0 ** -10, rtol=1e-12)
    tiny = StateVector(2, [3e-200, 4e-200j, 0, 0])
    assert tiny.norm() == pytest.approx(5e-200, rel=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), n=st.integers(1, 20),
       exponent=st.integers(-30, 30), data=st.data())
def test_mps_contract_across_scales(d, n, exponent, data):
    unit = st.floats(-1.0, 1.0)
    parts = [np.array(data.draw(st.lists(unit, min_size=d * d,
                                         max_size=d * d))).reshape(d, d)
             for _ in range(4)]
    a0, a1 = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    scale = 10.0 ** exponent
    try:
        res = mps_contract(MPSSpec(scale * a0, scale * a1), n)
    except ValueError as exc:
        # refused only when the raw amplitudes leave the float range
        assert "exceed the float range" in str(exc)
        amps = mps_contract(MPSSpec(a0, a1), n).state.amplitudes
        assert np.log10(np.max(np.abs(amps))) + n * exponent > 308
        return
    assert not np.isnan(res.z)
    assert res.is_zero == (res.normalized is None)
    if res.normalized is not None:
        assert abs(res.normalized.norm() - 1.0) <= 1e-12


def test_transfer_matrix_traces_norm():
    rng = np.random.default_rng(43)
    spec = MPSSpec(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    t = transfer_matrix(spec)
    for n in (2, 3, 5):
        res = mps_contract(spec, n)
        z = np.real(np.trace(np.linalg.matrix_power(t, n)))
        assert res.state.norm() ** 2 == pytest.approx(z, rel=1e-8)


CASES_WITH_REPRESENTATION = [
    CanonicalForm(CaseId.EMPTY),
    CanonicalForm(CaseId.ANTISYMMETRIC_LINE),
    CanonicalForm(CaseId.NONNULL_LINE, 0.0),  # order 2
    CanonicalForm(CaseId.NONNULL_LINE,
                  (1 + np.exp(2j * np.pi / 3)) / (np.exp(2j * np.pi / 3) - 1)),
    CanonicalForm(CaseId.NONNULL_LINE, -1j),  # order 4
    CanonicalForm(CaseId.NONNULL_LINE_SIGMA),
    CanonicalForm(CaseId.NULL_LINE),
    CanonicalForm(CaseId.NULL_LINE_TILTED),
    CanonicalForm(CaseId.NULL_LINE_SIGMA),
    CanonicalForm(CaseId.REGULAR_PLANE, 0.0),
    CanonicalForm(CaseId.DEGENERATE_PLANE, 0.37 + 0.2j),
    CanonicalForm(CaseId.DEGENERATE_PLANE_TILTED),
    CanonicalForm(CaseId.DEGENERATE_PLANE_SIGMA),
]


@pytest.mark.parametrize("form", CASES_WITH_REPRESENTATION,
                         ids=lambda f: f.case_id.value)
def test_representation_residuals(form):
    rep = representation_for_case(form)
    assert constraint_residual(rep.space, rep.spec) <= 1e-12


def test_representation_commuting_branch():
    rep = representation_for_case(CanonicalForm(CaseId.REGULAR_PLANE, 0.0),
                                  params={"branch": "commuting"})
    assert rep.spec.bond_dim == 1
    # annihilates the identity-plus-antisymmetric plane, not the
    # canonical regular plane
    assert rep.space.contains(PauliQuartet(1, 0, 0, 0))
    assert rep.space.contains(PauliQuartet(0, 0, 0, 1))
    assert constraint_residual(rep.space, rep.spec) <= 1e-12


def test_representation_frozen_amplitudes():
    rep = representation_for_case(CanonicalForm(CaseId.REGULAR_PLANE, 0.0))
    res = mps_contract(rep.spec, 2)
    assert res.state.amplitudes[0] == pytest.approx(2.0)
    assert res.state.amplitudes[3] == pytest.approx(-2.0)
    assert abs(res.state.amplitudes[1]) + abs(res.state.amplitudes[2]) == 0.0


def test_null_line_representation_gives_all_ones_state():
    rep = representation_for_case(CanonicalForm(CaseId.NULL_LINE_TILTED))
    res = mps_contract(rep.spec, 4)
    expected = np.zeros(16)
    expected[15] = 2.0
    assert_allclose(res.state.amplitudes, expected, atol=1e-14)


def test_clock_shift_representation_order_three():
    omega = np.exp(2j * np.pi / 3)
    mu = (1 + omega) / (omega - 1)
    rep = representation_for_case(CanonicalForm(CaseId.NONNULL_LINE, mu))
    assert rep.spec.bond_dim == 3
    assert constraint_residual(rep.space, rep.spec) <= 1e-12


@pytest.mark.parametrize("form", [
    CanonicalForm(CaseId.REGULAR_PLANE_TILTED),
    CanonicalForm(CaseId.FULL_SYMMETRIC, 0.3),
    CanonicalForm(CaseId.FULL_SYMMETRIC_TILTED),
    CanonicalForm(CaseId.FULL_SPACE),
    CanonicalForm(CaseId.NONNULL_LINE, 0.3),  # not a root of unity
    CanonicalForm(CaseId.NONNULL_LINE, 1.0),  # collapsed factor
    CanonicalForm(CaseId.REGULAR_PLANE, 0.4),  # away from modulus zero
], ids=lambda f: f"{f.case_id.value}-mu{f.mu}")
def test_no_representation_raises(form):
    with pytest.raises(NoRepresentationError):
        representation_for_case(form)


def test_transform_state_round_trip():
    rng = np.random.default_rng(44)
    g = random_sl2(rng, max_cond=20.0)
    st = StateVector(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    back = transform_state(transform_state(st, g), g.inverse())
    assert_allclose(back.amplitudes, st.amplitudes, atol=1e-10)


def test_transform_state_single_site():
    g = random_sl2(np.random.default_rng(45))
    st = StateVector(1, np.array([1.0, 2.0]))
    out = transform_state(st, g)
    assert_allclose(out.amplitudes,
                    g.inverse().matrix @ st.amplitudes, atol=1e-12)


def test_catalogue_exchange():
    params = FamilyParams(FamilyId.EXCHANGE, g=1.0, nu=1.0, nu_prime=-1.0)
    named = ground_state_catalogue(params, 4)
    labels = [ns.label for ns in named]
    assert labels == ["psi0", "psi1", "psi_k1"]
    assert all(chain_residual(params, ns.state) <= 1e-10 for ns in named)
    # ratio of order 1: every filling fraction appears
    sym = FamilyParams(FamilyId.EXCHANGE, g=1.0, nu=1.0, nu_prime=1.0)
    assert [ns.label for ns in ground_state_catalogue(sym, 4)] == \
        ["psi0", "psi1", "psi_k1", "psi_k2", "psi_k3"]
    # irrational ratio: products only
    irr = FamilyParams(FamilyId.EXCHANGE, g=1.0, nu=1.0,
                       nu_prime=np.exp(1j))
    assert [ns.label for ns in ground_state_catalogue(irr, 4)] == \
        ["psi0", "psi1"]


def test_catalogue_memberships_all_families():
    rng = np.random.default_rng(46)
    entries = [
        FamilyParams(FamilyId.HARDCORE, g=1.2),
        FamilyParams(FamilyId.HARDCORE_MIXED, g=0.5),
        FamilyParams(FamilyId.ANTIALIGNED, g1=1.0, g2=2.0, g3=1.0j),
        FamilyParams(FamilyId.HARDCORE_SINGLET, g1=1.0, g2=0.4, g3=0.5),
        FamilyParams(FamilyId.HARDCORE_EXCHANGE, g1=1.0, g2=0.4, g3=0.5,
                     nu=0.3 + 1.0j, nu_prime=rng.normal()),
        FamilyParams(FamilyId.MIXED_SINGLET, g1=1.0, g2=0.4, g3=0.5),
        FamilyParams(FamilyId.PINNED,
                     lambda3=np.diag([1.0, 2.0, 3.0])),
    ]
    for params in entries:
        named = ground_state_catalogue(params, 5)
        assert named, params.family
        for ns in named:
            assert chain_residual(params, ns.state) <= 1e-10, \
                (params.family, ns.label)


def test_catalogue_pairsum_branches():
    anti = FamilyParams(FamilyId.PAIRSUM_EXCHANGE, g1=1.0, g2=1.0, g3=0.5,
                        nu=0.7, nu_prime=-0.7)
    named = ground_state_catalogue(anti, 4)
    assert [ns.label for ns in named] == ["psi_prime"]
    assert ground_state_catalogue(anti, 5) == []  # odd chain: nothing
    sym = FamilyParams(FamilyId.PAIRSUM_EXCHANGE, g1=1.0, g2=1.0, g3=0.5,
                       nu=0.7, nu_prime=0.7)
    named = ground_state_catalogue(sym, 5)
    assert [ns.label for ns in named] == ["psi_parity_odd",
                                          "psi_parity_even"]
    for ns in named:
        assert chain_residual(sym, ns.state) <= 1e-10
    generic = FamilyParams(FamilyId.PAIRSUM_EXCHANGE, g1=1.0, g2=1.0, g3=0.5,
                           nu=0.7, nu_prime=1.4)
    assert ground_state_catalogue(generic, 4) == []
