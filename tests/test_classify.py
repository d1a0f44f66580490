"""Canonical forms, invariants, and the classification pipeline."""

import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mpschain.classify import (CanonicalForm, CaseId, ClassificationError,
                               UncataloguedSpaceError, canonical_space,
                               classify, invariant_signature,
                               normal_complement, normalize_nonnull,
                               normalize_null)
from mpschain.pauli import (CSpace, PauliQuartet, minkowski_vec,
                            quartet_from_array, sl2_act, sl2_act_space,
                            span_equal)
from oracles import random_sl2

T0 = PauliQuartet(1, 0, 0, 0)
T1 = PauliQuartet(0, 1, 0, 0)
T2 = PauliQuartet(0, 0, 1, 0)
SG = PauliQuartet(0, 0, 0, 1)

MU = 0.37 + 0.2j

# one representative input per catalogued case, already canonical
CANONICAL_INPUTS = [
    (CaseId.EMPTY, None, []),
    (CaseId.ANTISYMMETRIC_LINE, None, [SG]),
    (CaseId.NONNULL_LINE, MU, [T2 + MU * SG]),
    (CaseId.NONNULL_LINE_SIGMA, None, [T2, SG]),
    (CaseId.NULL_LINE, None, [T0 + T1]),
    (CaseId.NULL_LINE_TILTED, None, [T0 + T1 + SG]),
    (CaseId.NULL_LINE_SIGMA, None, [T0 + T1, SG]),
    (CaseId.REGULAR_PLANE, MU, [T0, T2 + MU * SG]),
    (CaseId.REGULAR_PLANE_TILTED, None, [T0 + SG, T2 + SG]),
    (CaseId.DEGENERATE_PLANE, MU, [T0 + T1, T2 + MU * SG]),
    (CaseId.DEGENERATE_PLANE_TILTED, None, [T0 + T1 + SG, T2]),
    (CaseId.DEGENERATE_PLANE_SIGMA, None, [T0 + T1, T2, SG]),
    (CaseId.FULL_SYMMETRIC, MU, [T0, T1, T2 + MU * SG]),
    (CaseId.FULL_SYMMETRIC_TILTED, None, [T0 + SG, T1 + SG, T2]),
    (CaseId.FULL_SPACE, None, [T0, T1, T2, SG]),
]


def test_canonical_form_mu_validation():
    with pytest.raises(ValueError):
        CanonicalForm(CaseId.NONNULL_LINE)  # mu missing
    with pytest.raises(ValueError):
        CanonicalForm(CaseId.EMPTY, 1.0)  # mu not allowed


def test_canonical_space_table():
    sp = canonical_space(CanonicalForm(CaseId.REGULAR_PLANE, MU))
    assert sp.dim == 2
    assert sp.contains(T0)
    assert sp.contains(T2 + MU * SG)
    assert canonical_space(CanonicalForm(CaseId.EMPTY)).dim == 0
    assert canonical_space(CanonicalForm(CaseId.FULL_SPACE)).dim == 4


@pytest.mark.parametrize("case_id,mu,basis",
                         CANONICAL_INPUTS,
                         ids=[c.value for c, _, _ in CANONICAL_INPUTS])
def test_classify_fixed_points(case_id, mu, basis):
    res = classify(CSpace(basis))
    assert res.form.case_id is case_id
    if mu is not None:
        assert res.form.mu == pytest.approx(mu, abs=1e-9)
    assert span_equal(sl2_act_space(res.gamma, CSpace(basis)), res.canonical)


@pytest.mark.parametrize("case_id,mu,basis",
                         CANONICAL_INPUTS,
                         ids=[c.value for c, _, _ in CANONICAL_INPUTS])
def test_classify_orbit_stability(case_id, mu, basis):
    rng = np.random.default_rng(zlib.crc32(case_id.value.encode()))
    sp = CSpace(basis)
    for _ in range(25):
        g = random_sl2(rng, max_cond=20.0)
        moved = sl2_act_space(g, sp)
        res = classify(moved)
        assert res.form.case_id is case_id
        if mu is not None:
            assert res.form.mu == pytest.approx(mu, abs=1e-7)
        assert span_equal(sl2_act_space(res.gamma, moved), res.canonical)


def test_classify_scale_invariance():
    sp1 = CSpace([3.7 * (T0 + T1), -2.0 * (T2 + MU * SG)])
    res = classify(sp1)
    assert res.form.case_id is CaseId.DEGENERATE_PLANE
    assert res.form.mu == pytest.approx(MU, abs=1e-10)


def test_classify_mu_sign_reduction():
    # the modulus of the non-null line is defined up to sign
    res = classify(CSpace([T2 + (-MU) * SG]))
    assert res.form.case_id is CaseId.NONNULL_LINE
    assert res.form.mu == pytest.approx(MU, abs=1e-10)
    res = classify(CSpace([T0, T1, T2 + (-MU) * SG]))
    assert res.form.case_id is CaseId.FULL_SYMMETRIC
    assert res.form.mu == pytest.approx(MU, abs=1e-10)
    res = classify(CSpace([T0, T2 + (-MU) * SG]))
    assert res.form.case_id is CaseId.REGULAR_PLANE
    assert res.form.mu == pytest.approx(MU, abs=1e-10)


def test_degenerate_plane_mu_is_not_sign_reduced():
    # the stabilizer of the null ray fixes the tau2 coefficient, so mu and
    # -mu are distinct orbits here
    res = classify(CSpace([T0 + T1, T2 + (-MU) * SG]))
    assert res.form.case_id is CaseId.DEGENERATE_PLANE
    assert res.form.mu == pytest.approx(-MU, abs=1e-10)


def test_classify_tau1_line():
    res = classify(CSpace([T1]))
    assert res.form.case_id is CaseId.NONNULL_LINE
    assert res.form.mu == pytest.approx(0.0, abs=1e-10)


def test_nonnull_line_real_negative_mu():
    res = classify(CSpace([T2 + (-1.0) * SG]))
    assert res.form.mu == pytest.approx(1.0, abs=1e-10)


def test_uncatalogued_combination_raises():
    with pytest.raises(UncataloguedSpaceError):
        classify(CSpace([T0, T2, SG]))
    rng = np.random.default_rng(99)
    g = random_sl2(rng, max_cond=20.0)
    with pytest.raises(UncataloguedSpaceError):
        classify(sl2_act_space(g, CSpace([T0, T2, SG])))


def test_normalize_null_postcondition():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        # null vectors satisfy v0^2 = v1^2 + v2^2
        v = np.array([np.sqrt(a[0] ** 2 + a[1] ** 2), a[0], a[1]])
        q = quartet_from_array(np.concatenate([v, [0.0]]))
        g = normalize_null(v)
        img = sl2_act(g, q)
        arr = img.as_array()
        assert abs(arr[0] - arr[1]) <= 1e-9 * max(1.0, abs(arr[0]))
        assert abs(arr[2]) <= 1e-9 * max(1.0, abs(arr[0]))
        assert abs(arr[0]) > 1e-6  # lands on the ray, not at zero
    with pytest.raises(ValueError):
        normalize_null([0, 0, 1])  # tau2 is not null


def test_normalize_nonnull_postcondition():
    rng = np.random.default_rng(22)
    count = 0
    while count < 200:
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        if abs(minkowski_vec(v, v)) < 1e-3 * np.linalg.norm(v) ** 2:
            continue
        count += 1
        q = quartet_from_array(np.concatenate([v, [0.0]]))
        g = normalize_nonnull(v)
        img = sl2_act(g, q)
        arr = img.as_array()
        assert abs(arr[0]) <= 1e-9 * abs(arr[2])
        assert abs(arr[1]) <= 1e-9 * abs(arr[2])
    with pytest.raises(ValueError):
        normalize_nonnull([1, 1, 0])  # tau0 + tau1 is null


def test_normalize_nonnull_diagonal_free_input():
    g = normalize_nonnull([0, 0, 1])
    img = sl2_act(g, T2)
    assert_allclose(img.as_array(), T2.as_array(), atol=1e-14)


def test_normal_complement_examples():
    w = normal_complement(np.array([[1, 0, 0], [0, 0, 1]], dtype=complex))
    assert abs(w[0]) < 1e-12 and abs(w[2]) < 1e-12 and abs(w[1]) > 0.9
    w = normal_complement(np.array([[1, 1, 0], [0, 0, 1]], dtype=complex))
    # the degenerate plane contains its own normal
    assert abs(minkowski_vec(w, w)) < 1e-12
    w = normal_complement(np.array([[0, 1, 0], [0, 0, 1]], dtype=complex))
    assert abs(w[1]) < 1e-12 and abs(w[2]) < 1e-12 and abs(w[0]) > 0.9


def test_invariant_signature_distinguishes_and_is_invariant():
    rng = np.random.default_rng(23)
    sigs = {}
    for case_id, _, basis in CANONICAL_INPUTS:
        sp = CSpace(basis)
        sig = invariant_signature(sp)
        for _ in range(5):
            g = random_sl2(rng, max_cond=20.0)
            assert invariant_signature(sl2_act_space(g, sp)) == sig
        sigs[case_id] = sig
    # the fingerprint separates every pair except the ones that differ
    # only through the functional w or the modulus mu
    same = {frozenset(pair): sigs[pair[0]] == sigs[pair[1]]
            for pair in [(CaseId.NULL_LINE, CaseId.NULL_LINE_TILTED),
                         (CaseId.REGULAR_PLANE, CaseId.REGULAR_PLANE_TILTED),
                         (CaseId.EMPTY, CaseId.ANTISYMMETRIC_LINE)]}
    assert same[frozenset((CaseId.NULL_LINE, CaseId.NULL_LINE_TILTED))]
    assert same[frozenset((CaseId.REGULAR_PLANE,
                           CaseId.REGULAR_PLANE_TILTED))]
    assert not same[frozenset((CaseId.EMPTY, CaseId.ANTISYMMETRIC_LINE))]


def test_witness_has_unit_determinant():
    rng = np.random.default_rng(24)
    for _, _, basis in CANONICAL_INPUTS:
        g = random_sl2(rng, max_cond=20.0)
        moved = sl2_act_space(g, CSpace(basis))
        try:
            res = classify(moved)
        except UncataloguedSpaceError:
            continue
        det = np.linalg.det(res.gamma.matrix)
        assert det == pytest.approx(1.0, abs=1e-10)


def test_witness_ignores_the_last_bits_of_the_input():
    # scaling the rows by 1 + 2^-50 moves the input by rounding only, so
    # the witness must not move more, not even by an overall sign
    rng = np.random.default_rng(25)
    for case_id, _, basis in CANONICAL_INPUTS:
        if not basis:
            continue
        for _ in range(50):
            rows = sl2_act_space(random_sl2(rng, max_cond=20.0),
                                 CSpace(basis)).coefficient_matrix()
            first = classify(CSpace(rows)).gamma.matrix
            again = classify(CSpace(rows * (1.0 + 2.0 ** -50))).gamma.matrix
            assert_allclose(again, first, atol=1e-9, err_msg=case_id.value)
