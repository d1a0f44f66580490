"""Basis arithmetic, invariant forms, group action, span container."""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from numpy.testing import assert_allclose

from mpschain.pauli import (AmbiguousRankError, CSpace, LinearDependenceError,
                            PauliQuartet, SL2, SIGMA, TAU0, TAU1, TAU2,
                            _FROM_FLAT, _action_matrix, _row_reduce,
                            minkowski_vec, quartet_from_array, sl2_act,
                            sl2_act_space, span_equal)
from oracles import (flat, kron_action_matrix, loop_row_reduce,
                     lstsq_span_equal, minkowski, quartet_action, random_sl2,
                     sl2_with_condition, svd_span_equal, trace_form)

T0 = PauliQuartet(1, 0, 0, 0)
T1 = PauliQuartet(0, 1, 0, 0)
T2 = PauliQuartet(0, 0, 1, 0)
SG = PauliQuartet(0, 0, 0, 1)


def random_quartet(rng):
    return quartet_from_array(rng.normal(size=4) + 1j * rng.normal(size=4))


def transpose(c: PauliQuartet) -> PauliQuartet:
    """Index transposition (PC)_{ab} = C_{ba}: fixes v, negates u."""
    return PauliQuartet(c.v0, c.v1, c.v2, -c.u)


def matrix(q: PauliQuartet) -> np.ndarray:
    """The 2x2 matrix v^i tau_i + u sigma of q."""
    return q.v0 * TAU0 + q.v1 * TAU1 + q.v2 * TAU2 + q.u * SIGMA


def trace_form_matrix(a: PauliQuartet, b: PauliQuartet) -> complex:
    """tr(C1 sigma^-1 C2^T sigma^-1) by direct matrix multiplication: the
    independent evaluation route for trace_form."""
    sig_inv = np.linalg.inv(SIGMA)
    return complex(np.trace(matrix(a) @ sig_inv @ matrix(b).T @ sig_inv))


def test_flat_is_row_major_entries():
    q = PauliQuartet(1.0, 2.0, 3.0, 4.0)
    # C00 = v0+v1, C01 = v2+u, C10 = v2-u, C11 = v0-v1
    assert_allclose(flat(q), [3.0, 7.0, -1.0, -1.0])
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = random_quartet(rng)
        assert_allclose(flat(q), matrix(q).ravel(), atol=1e-14)
        # the exact map back: v0 = (C00 + C11) / 2, ..., u = (C01 - C10) / 2
        assert_allclose(flat(q) @ _FROM_FLAT, q.as_array(), atol=1e-14)


def test_permute_and_projectors():
    rng = np.random.default_rng(8)
    q = random_quartet(rng)
    assert_allclose(matrix(transpose(q)), matrix(q).T, atol=1e-14)
    # the v terms are the symmetric part, the u term the antisymmetric one
    plus = PauliQuartet(q.v0, q.v1, q.v2, 0.0)
    minus = PauliQuartet(0.0, 0.0, 0.0, q.u)
    assert_allclose(matrix(plus), (matrix(q) + matrix(q).T) / 2, atol=1e-14)
    assert_allclose(matrix(minus), (matrix(q) - matrix(q).T) / 2, atol=1e-14)


def test_minkowski_signature():
    assert minkowski(T0, T0) == -1
    assert minkowski(T1, T1) == 1
    assert minkowski(T2, T2) == 1
    null = PauliQuartet(1, 1, 0, 0)
    assert minkowski(null, null) == 0
    # bilinear, not sesquilinear
    q = PauliQuartet(1j, 0, 0, 0)
    assert minkowski(q, q) == pytest.approx(1.0)
    assert minkowski_vec([1, 2, 3], [4, 5, 6]) == pytest.approx(-4 + 10 + 18)


def test_trace_form_values_and_agreement():
    assert trace_form(SG, SG) == pytest.approx(-2.0)
    assert trace_form(T2, T2) == pytest.approx(2.0)
    assert trace_form(T0, T0) == pytest.approx(-2.0)
    rng = np.random.default_rng(9)
    for _ in range(25):
        a, b = random_quartet(rng), random_quartet(rng)
        assert trace_form(a, b) == pytest.approx(trace_form_matrix(a, b))


def test_action_rotates_tau1_to_tau2():
    g = SL2(np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0))
    img = sl2_act(g, T1)
    assert_allclose(img.as_array(), T2.as_array(), atol=1e-15)


def test_action_preserves_invariants():
    rng = np.random.default_rng(10)
    for _ in range(30):
        g = random_sl2(rng)
        a, b = random_quartet(rng), random_quartet(rng)
        ga, gb = sl2_act(g, a), sl2_act(g, b)
        assert ga.u == a.u  # exactly restored
        assert minkowski(ga, gb) == pytest.approx(minkowski(a, b), abs=1e-10)
        assert trace_form(ga, gb) == pytest.approx(trace_form(a, b), abs=1e-10)


def test_action_composition_matches_product():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g1, g2 = random_sl2(rng), random_sl2(rng)
        q = random_quartet(rng)
        twice = sl2_act(g2, sl2_act(g1, q))
        # Op_{g1 g2} = Op_{g2} after Op_{g1}
        once = sl2_act(SL2(g1.matrix @ g2.matrix), q)
        assert_allclose(twice.as_array(), once.as_array(), atol=1e-10)


def test_action_commutes_with_permute():
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = random_sl2(rng)
        q = random_quartet(rng)
        a = transpose(sl2_act(g, q))
        b = sl2_act(g, transpose(q))
        assert_allclose(a.as_array(), b.as_array(), atol=1e-12)
    q = random_quartet(rng)
    assert_allclose(transpose(transpose(q)).as_array(), q.as_array(),
                    atol=1e-15)


def test_sl2_rejects_bad_determinant():
    with pytest.raises(ValueError):
        SL2(np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SL2(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_unit_normalized():
    g = SL2.unit_normalized(np.array([[3.0, 1.0], [0.0, 2.0]]))
    m = g.matrix
    assert m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SL2.unit_normalized(np.zeros((2, 2)))


def test_cspace_canonical_basis():
    a = CSpace([PauliQuartet(1, 1, 0, 0), PauliQuartet(1, -1, 0, 0)])
    b = CSpace([T0, T1])
    assert_allclose(a.coefficient_matrix(), b.coefficient_matrix(), atol=1e-14)
    assert span_equal(a, b)


def test_cspace_rejects_dependence():
    with pytest.raises(LinearDependenceError):
        CSpace([T0, PauliQuartet(2, 0, 0, 0)])
    with pytest.raises(LinearDependenceError):
        CSpace([T0, T1, T2, SG, PauliQuartet(1, 1, 0, 0)])


def test_cspace_ambiguous_band():
    with pytest.raises(AmbiguousRankError):
        CSpace([T0, PauliQuartet(1, 3e-10, 0, 0)])


def test_near_coordinate_plane_is_stored_well_conditioned():
    # span{T0 + SG, T0 + 3e-10 T1} has singular value ratio 0.38; a pivot
    # on the 3e-10 entry would store it with ratio 3e-10, and its image
    # under any g would then fall in the ambiguous band
    rows = np.array([[1, 0, 0, 1], [1, 3e-10, 0, 0]], dtype=complex)
    given_sv = np.linalg.svd(rows, compute_uv=False)
    space = CSpace(rows)
    sv = np.linalg.svd(space.coefficient_matrix(), compute_uv=False)
    assert sv[-1] / sv[0] >= given_sv[-1] / given_sv[0]
    assert lstsq_span_equal(space, CSpace([PauliQuartet(1, 0, 0, 1),
                                           PauliQuartet(1, 3e-10, 0, 0)]))
    for g in (SL2.identity(), SL2(np.array([[1.0, 0.5], [0.0, 1.0]])),
              random_sl2(np.random.default_rng(7), 5.0)):
        image = sl2_act_space(g, space)
        assert image.dim == 2
        moved = np.array([sl2_act(g, q).as_array() for q in space.basis])
        assert _residual_ratio(moved, image) <= 1e-8


def test_span_equal_discriminates():
    assert not span_equal(CSpace([T0]), CSpace([T0, T1]))
    assert not span_equal(CSpace([T0]), CSpace([T1]))
    assert span_equal(CSpace([PauliQuartet(1, 0, 2, 0)]),
                      CSpace([PauliQuartet(0.5, 0, 1, 0)]))


def test_space_image_under_action():
    rng = np.random.default_rng(13)
    sp = CSpace([T0, PauliQuartet(0, 0, 1, 0.3)])
    g = random_sl2(rng, max_cond=20.0)
    img = sl2_act_space(g, sp)
    assert img.dim == sp.dim
    back = sl2_act_space(SL2.unit_normalized(np.linalg.inv(g.matrix)), img)
    assert span_equal(back, sp)


def test_random_sl2_properties():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_sl2(rng, max_cond=20.0)
        det = np.linalg.det(g.matrix)
        assert det == pytest.approx(1.0, abs=1e-10)
        s = np.linalg.svd(g.matrix, compute_uv=False)
        assert s[0] / s[-1] <= 20.0


SEEDS = st.integers(0, 2 ** 32 - 1)
# condition numbers of g from 1 to 1e3, log-uniform
LOG_CONDS = st.floats(0.0, 3.0)
COEFFS = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, log_cond=LOG_CONDS,
       q=st.tuples(COEFFS, COEFFS, COEFFS, COEFFS).map(
           lambda c: PauliQuartet(*c)))
def test_action_matches_recomposition(seed, log_cond, q):
    g = sl2_with_condition(np.random.default_rng(seed), 10.0 ** log_cond)
    got = sl2_act(g, q)
    want = quartet_action(g, q)
    # rounding grows with |g|^2 |C|; for det g = 1, |g|_2^2 is cond(g)
    scale = np.linalg.norm(g.matrix, 2) ** 2 * max(
        1.0, float(np.linalg.norm(q.as_array())))
    assert np.max(np.abs(got.as_array() - want.as_array())) <= 1e-12 * scale
    assert got.u == q.u


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=SEEDS, log_cond=LOG_CONDS, dim=st.integers(1, 4))
def test_space_action_matches_recomposition(seed, log_cond, dim):
    rng = np.random.default_rng(seed)
    g = sl2_with_condition(rng, 10.0 ** log_cond)
    space = CSpace(rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4)))
    image = sl2_act_space(g, space)
    oracle = CSpace([quartet_action(g, q) for q in space.basis])
    got, want = image.coefficient_matrix(), oracle.coefficient_matrix()
    scale = np.linalg.norm(g.matrix, 2) ** 2 * max(
        1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_cspace_from_rows_matches_quartets():
    rng = np.random.default_rng(16)
    for dim in range(5):
        rows = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
        a = CSpace(rows)
        b = CSpace([quartet_from_array(r) for r in rows])
        assert a.coefficient_matrix().shape == (dim, 4)
        assert a.coefficient_matrix().tobytes() == \
            b.coefficient_matrix().tobytes()
        assert a.basis == b.basis
        assert all(isinstance(q, PauliQuartet) for q in a.basis)
    with pytest.raises(ValueError, match="expected rows of 4 coefficients"):
        CSpace(np.ones((2, 3)))


def test_cspace_rows_are_read_only():
    sp = CSpace([T0, PauliQuartet(0, 0, 1, 0.3)])
    rows = sp.coefficient_matrix()
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 5.0
    assert not CSpace([]).coefficient_matrix().flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_cspace_refuses_non_finite_rows(bad):
    rows = np.eye(4, dtype=complex)[:2]
    rows[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite complex value"):
        CSpace(rows)


# The batched kernels against their loop versions in oracles.py.

@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=SEEDS, log_cond=LOG_CONDS)
def test_action_matrix_is_the_kron_one(seed, log_cond):
    g = sl2_with_condition(np.random.default_rng(seed), 10.0 ** log_cond)
    assert _action_matrix(g).tobytes() == kron_action_matrix(g).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, dim=st.integers(1, 4), rank=st.integers(0, 4),
       log_scale=st.floats(-6.0, 6.0))
def test_row_reduce_is_the_loop_one(seed, dim, rank, log_scale):
    # rank-deficient stacks too: dependent rows are where pivots get skipped
    rng = np.random.default_rng(seed)
    rank = min(rank, dim)
    basis = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    mix = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rows = 10.0 ** log_scale * (mix @ basis)
    rows[rng.random(size=rows.shape) < 0.2] = 0.0
    assert _row_reduce(rows).tobytes() == loop_row_reduce(rows).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, dim=st.integers(1, 3), log_small=st.floats(-14.0, -1.0))
def test_pivot_share_rule_is_the_loop_one(seed, dim, log_small):
    # rows with small entries in one column: a pivot there would divide by
    # them, unless the rows are themselves that badly conditioned
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    rows[:, rng.integers(4)] *= 10.0 ** log_small
    sv = np.linalg.svd(rows, compute_uv=False)
    ratio = sv[-1] / sv[0]
    reduced = _row_reduce(rows, ratio)
    assert reduced.tobytes() == loop_row_reduce(rows, ratio).tobytes()
    assert reduced.shape[0] == dim
    stored = np.linalg.svd(reduced, compute_uv=False)
    assert stored[-1] / stored[0] >= 1e-3 * ratio
    if ratio > 1e-9:
        # construction from the array reduces at the rows' own ratio
        assert CSpace(rows).coefficient_matrix().tobytes() == reduced.tobytes()


def _residual_ratio(x: np.ndarray, space: CSpace) -> float:
    """Largest lstsq residual of the rows of x off the span, each over
    max(1, |row|): the quantity the span tests compare with tol."""
    b = space.coefficient_matrix()
    coef, *_ = np.linalg.lstsq(b.T, x.T, rcond=None)
    resid = np.linalg.norm(b.T @ coef - x.T, axis=0)
    return float(np.max(resid / np.maximum(1.0, np.linalg.norm(x, axis=1))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, dim=st.integers(1, 3), log_off=st.floats(-12.0, -1.0),
       side=st.sampled_from([0.99, 1.01]))
def test_span_tests_decide_as_the_lstsq_oracle(seed, dim, log_off, side):
    # a: combinations of b's rows pushed off its span by about 10**log_off;
    # tol is then placed 1% below or above the worst residual ratio
    rng = np.random.default_rng(seed)
    b = CSpace(rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4)))
    mix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    off = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    try:
        a = CSpace(mix @ b.coefficient_matrix() + 10.0 ** log_off * off)
    except (LinearDependenceError, AmbiguousRankError):
        return
    ra = _residual_ratio(a.coefficient_matrix(), b)
    rb = _residual_ratio(b.coefficient_matrix(), a)
    tol = side * max(ra, rb)
    assert span_equal(a, b, tol) == lstsq_span_equal(a, b, tol) == (side > 1)


def _rows_agree(a: CSpace, b: CSpace, tol: float) -> bool:
    """The stored-row comparison span_equal answers True from, written
    out: 2 max|a_i - b_i| <= tol max(1, min(max|a_i|, max|b_i|))."""
    ra, rb = a.coefficient_matrix(), b.coefficient_matrix()
    return all(2.0 * np.max(np.abs(x - y)) <= tol * max(
        1.0, min(np.max(np.abs(x)), np.max(np.abs(y))))
        for x, y in zip(ra, rb))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=SEEDS, dim=st.integers(1, 4), log_cond=LOG_CONDS,
       kind=st.sampled_from(["equal", "offset", "near_dependent"]),
       log_off=st.floats(-9.0, -7.0), log_tol=st.floats(-12.0, -6.0))
def test_span_equal_decides_as_the_svd_route(seed, dim, log_cond, kind,
                                             log_off, log_tol):
    # pairs of spans moved by one unimodular action of condition up to
    # 1e3: the same span from two bases, spans 1e-9 to 1e-7 apart, and
    # spans with two rows that far from dependent; tol drawn, then put 1%
    # either side of the pair's residual ratio
    rng = np.random.default_rng(seed)
    g = sl2_with_condition(rng, 10.0 ** log_cond)
    rows = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    off = 10.0 ** log_off * (rng.normal(size=(dim, 4))
                             + 1j * rng.normal(size=(dim, 4)))
    if kind == "near_dependent" and dim > 1:
        rows[-1] = rows[0] + off[0]
    mix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    try:
        b = sl2_act_space(g, CSpace(rows))
        a = sl2_act_space(g, CSpace(
            mix @ rows + (off if kind == "offset" else 0.0)))
    except (LinearDependenceError, AmbiguousRankError):
        return
    ratio = max(_residual_ratio(a.coefficient_matrix(), b),
                _residual_ratio(b.coefficient_matrix(), a))
    tols = [10.0 ** log_tol] + [side * ratio for side in (0.99, 1.01)
                                if side * ratio >= 1e-12]
    for tol in tols:
        want = svd_span_equal(a, b, tol)
        assert span_equal(a, b, tol) == want
        if _rows_agree(a, b, tol):
            event("stored rows agree")
            assert want


def test_span_tests_on_empty_and_full_spaces():
    full = CSpace([T0, T1, T2, SG])
    empty = CSpace([])
    assert span_equal(empty, CSpace(np.zeros((0, 4))))
    assert span_equal(full, CSpace(
        [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
    assert not span_equal(empty, full)


def test_basis_is_built_on_first_read():
    sp = CSpace([PauliQuartet(1, 1, 0, 0), PauliQuartet(0, 0, 1, 0.3)])
    assert sp._basis is None
    assert sp.dim == 2 and sp._basis is None
    basis = sp.basis
    assert basis == tuple(quartet_from_array(r)
                          for r in sp.coefficient_matrix())
    assert sp.basis is basis
