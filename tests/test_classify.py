"""Canonical forms, invariants, and the classification pipeline."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from numpy.testing import assert_allclose

from mpschain.classify import (_CANONICAL_BASES, AmbiguousNullError,
                               CanonicalForm, CaseId, ClassificationError,
                               MU_CASES, UncataloguedSpaceError, ZERO_TOL,
                               canonical_space, classify, invariant_signature,
                               normal_complement, normalize_nonnull,
                               normalize_null)
from mpschain.pauli import (AmbiguousRankError, CSpace, LinearDependenceError,
                            PauliQuartet, minkowski_vec, quartet_from_array,
                            sl2_act, sl2_act_space, span_equal)
from oracles import (CANONICAL_POINTS, lstsq_span_equal, quartet_action,
                     random_sl2)

# coefficient rows of tau0, tau1, tau2 and sigma
T0, T1, T2, SG = np.eye(4, dtype=complex)

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
    assert span_equal(sp, CSpace([T0, T2 + MU * SG]))
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


@pytest.mark.parametrize("rows, small", [
    # an independent pair whose SVD overflows unscaled, and one row
    ([[1, 1, 1, 1], [1, -1, 1, 1]], 1e300),
    ([[1, 1, 1, 1]], 1.0),
])
def test_rows_near_the_float_maximum_classify_as_smaller_ones(rows, small):
    # scaled by a power of two before the rank test: the same stored rows,
    # the same form and witness, and no RuntimeWarning
    huge, want = (CSpace(scale * np.array(rows, dtype=complex))
                  for scale in (1e308, small))
    assert huge.coefficient_matrix().tobytes() \
        == want.coefficient_matrix().tobytes()
    huge, want = classify(huge), classify(want)
    assert huge.form == want.form
    assert huge.gamma.matrix.tobytes() == want.gamma.matrix.tobytes()
    assert huge.canonical.coefficient_matrix().tobytes() \
        == want.canonical.coefficient_matrix().tobytes()


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
    img = sl2_act(g, quartet_from_array(T2))
    assert_allclose(img.as_array(), T2, atol=1e-14)


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



def test_canonical_rows_are_those_of_cspace():
    # canonical_space skips construction, so its rows must be exactly what
    # construction stores from the literal basis, negative zeros in mu too
    rng = np.random.default_rng(31)
    signed = [complex(a, b) for a in (0.0, -0.0, 0.5, -0.5)
              for b in (0.0, -0.0, 0.25, -0.25)]
    for case in CaseId:
        mus = ([None] if case not in MU_CASES else
               signed + list(rng.normal(size=10) + 1j * rng.normal(size=10)))
        for mu in mus:
            form = CanonicalForm(case, mu)
            got = canonical_space(form).coefficient_matrix()
            rows = [(0, 0, 1, form.mu) if r == "t2+mu*s" else r
                    for r in _CANONICAL_BASES[case]]
            want = CSpace(np.array(rows, dtype=complex).reshape(-1, 4))
            assert got.tobytes() == want.coefficient_matrix().tobytes(), \
                (case.value, mu)
            assert not got.flags.writeable



def _literal_rows(form):
    rows = [(0, 0, 1, form.mu) if r == "t2+mu*s" else r
            for r in _CANONICAL_BASES[form.case_id]]
    return np.array(rows, dtype=complex).reshape(-1, 4)


def _outcome(build):
    try:
        return build().coefficient_matrix().tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mu", [0.99e8, 1e8, -1e8j, 1.01e8, 3e9 - 1e9j,
                                1e12, 1e20])
def test_canonical_space_with_large_mu_is_that_of_cspace(mu):
    # up to |mu| = 1e8 the literal rows are taken as they are; beyond it
    # canonical_space refuses, or reduces, exactly as construction does
    for case in MU_CASES:
        form = CanonicalForm(case, mu)
        want = _outcome(lambda: CSpace(_literal_rows(form)))
        assert _outcome(lambda: canonical_space(form)) == want, case.value
    assert isinstance(_outcome(lambda: canonical_space(
        CanonicalForm(CaseId.REGULAR_PLANE, 1e12))), tuple)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"),
                                complex(0.0, -float("inf")),
                                complex(float("nan"), 1.0)])
def test_canonical_space_refuses_non_finite_mu(mu):
    for case in MU_CASES:
        with pytest.raises(ValueError, match="^non-finite complex value$"):
            canonical_space(CanonicalForm(case, mu))


@pytest.mark.parametrize("k", [2.5, 3.0, 3.5])
def test_line_between_the_null_cuts_is_refused_as_classification(k):
    # the unit row s of tau0 + tau1 + eps tau2 has <s, s> = eps^2/(2+eps^2)
    # and largest matrix entry 2/sqrt(2+eps^2), so |<s, s>| / s^2 is
    # eps^2 / 4.  normalize_null's witness leaves that much of <s, s>
    # behind, more than WITNESS_TOL from eps^2 = 2.25 ZERO_TOL on, and
    # normalize_nonnull's loses as much to rounding near the cut: the band
    # is refused by name, before either normalizer runs.
    eps = np.sqrt(k * ZERO_TOL)
    with pytest.raises(AmbiguousNullError, match="null cut"):
        classify(CSpace([PauliQuartet(1, 1, eps, 0)]))


def test_null_band_scan_ends_in_a_form_or_a_named_refusal():
    outcomes = []
    for k in np.arange(1, 17) * 0.25:
        try:
            form = classify(CSpace([PauliQuartet(
                1, 1, np.sqrt(k * ZERO_TOL), 0)])).form.case_id
        except AmbiguousNullError:
            form = None
        outcomes.append(form)
    # |<s, s>| / s^2 = eps^2 / 4 is at most ZERO_TOL / 4 up to eps^2 =
    # 0.75 ZERO_TOL (1.0 lands just above it by rounding); every point
    # above is refused by name, and none fails witness validation
    assert outcomes == [CaseId.NULL_LINE] * 3 + [None] * 13


@pytest.mark.parametrize("mu", [1e-5, 1e-6, 1e-7])
def test_tilted_null_line_next_to_the_untilted_one_is_refused(mu):
    # tau0 + tau1 + mu sigma is exactly null, but its witness must shrink
    # the null ray by mu: the action's rounding, about eps / mu^2 of the
    # image, is past WITNESS_TOL, so it is refused by name instead of
    # failing validation
    with pytest.raises(AmbiguousNullError, match="untilted"):
        classify(CSpace([PauliQuartet(1, 1, 0, mu)]))
    res = classify(CSpace([PauliQuartet(1, 1, 0, 1e-3)]))
    assert res.form.case_id is CaseId.NULL_LINE_TILTED


def _minkowski(a, b):
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _near_null(rng, size: float) -> np.ndarray:
    """A random null symmetric vector of norm size, pushed off null (two
    draws in three) to |<v, v>| / s^2 up to ZERO_TOL / 4, the most the
    null test accepts."""
    v = quartet_action(random_sl2(rng, 20.0),
                       quartet_from_array(T0 + T1)).as_array()[:3]
    v *= size / np.linalg.norm(v) * np.exp(2j * np.pi * rng.random())
    if rng.integers(3):
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = max(abs(v[0] + v[1]), abs(v[2]), abs(v[0] - v[1]))
        v += rng.uniform(0, 0.25) * ZERO_TOL * s * s / (
            2 * _minkowski(v, d)) * d
    return v


def test_near_null_tilted_forms_validate_or_are_refused_by_name():
    # near-null lines at any tilt mu in [1e-8, 10], and full symmetric
    # parts whose w is near null at |w| in [0.1, 20]: the scale step of
    # their witness amplifies what the null test let through, and none may
    # end in a failed validation
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(500):
        v = _near_null(rng, 1.0)
        mu = 10.0 ** rng.uniform(-8, 1) * np.exp(2j * np.pi * rng.random())
        rows = np.array([[*v, mu * (v[0] + v[1]) / 2]])
        try:
            seen.add(classify(CSpace(rows)).form.case_id)
        except AmbiguousNullError:
            seen.add("refused line")
    for _ in range(500):
        w = _near_null(rng, 10.0 ** rng.uniform(-1, 1.3))
        vs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rows = np.array([[*v, _minkowski(v, w)] for v in vs])
        try:
            seen.add(classify(CSpace(rows)).form.case_id)
        except AmbiguousNullError:
            seen.add("refused w")
    assert seen == {CaseId.NULL_LINE, CaseId.NULL_LINE_TILTED,
                    CaseId.FULL_SYMMETRIC_TILTED, "refused line",
                    "refused w"}


def test_tilted_plane_scan_ends_in_a_form_or_a_named_refusal():
    # unimodular images (condition at most 20) of planes next to the
    # tilted degenerate plane, [[1, 1, 0, beta], [0, 0, 1, gamma]] with
    # beta from 1e-11 to 1e-1, and of regular planes [[1, 0, 0, a], [0, 0,
    # 1, b]] whose w = (-a, b) is next to null: their witnesses take large
    # scale steps.  Every outcome is a form or a ClassificationError (the
    # witness image's own rank refusal aside), never the plain ValueError
    # of a witness that drifted off unit determinant
    rng = np.random.default_rng(3)
    seen = {}
    for kind in ("degenerate", "regular") * 250:
        phase = np.exp(2j * np.pi * rng.random())
        a = complex(rng.normal(), rng.normal())
        if kind == "degenerate":
            rows = [[1, 1, 0, 10.0 ** rng.uniform(-11, -1) * phase],
                    [0, 0, 1, a]]
        else:
            b = a * rng.choice([1, -1]) * (
                1 + 10.0 ** rng.uniform(-12, -6) * phase)
            rows = [[1, 0, 0, a], [0, 0, 1, b]]
        space = sl2_act_space(random_sl2(rng, 20.0),
                              CSpace(np.array(rows, dtype=complex)))
        try:
            got = classify(space).form.case_id
        except (ClassificationError, AmbiguousRankError) as exc:
            got = type(exc).__name__
        seen[kind, got] = seen.get((kind, got), 0) + 1
    assert set(seen) == {
        ("degenerate", CaseId.DEGENERATE_PLANE),
        ("degenerate", CaseId.DEGENERATE_PLANE_TILTED),
        ("degenerate", "AmbiguousNullError"),
        ("regular", CaseId.REGULAR_PLANE),
        ("regular", CaseId.REGULAR_PLANE_TILTED),
        ("regular", "ClassificationError"),
        ("regular", "AmbiguousRankError")}


def _hex(z) -> list:
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def test_witnesses_are_the_recorded_ones():
    # form.mu and gamma as float.hex, recorded when each witness step was
    # still an SL2 product: two seeded unimodular images (condition at
    # most 20) of each canonical point; composing the raw 2x2 product and
    # checking it once keeps every bit
    assert len(CANONICAL_POINTS) == 19
    got = []
    for case, mu in CANONICAL_POINTS:
        space = canonical_space(CanonicalForm(case, mu))
        rng = np.random.default_rng(zlib.crc32(f"{case.value}:{mu}".encode()))
        for _ in range(2):
            res = classify(sl2_act_space(random_sl2(rng, 20.0), space))
            assert res.form.case_id is case
            got.append({"case": case.value,
                        "mu_in": None if mu is None else _hex(mu),
                        "mu": (None if res.form.mu is None
                               else _hex(res.form.mu)),
                        "gamma": [_hex(z) for z in res.gamma.matrix.ravel()]})
    recorded = Path(__file__).with_name("golden_witnesses.json")
    assert got == json.loads(recorded.read_text())


# Property tests near the classifier's decision boundaries.  Near a cut
# the branch taken may depend on the orbit point, so each asserts the
# contract rather than one outcome: classify either returns a witness
# that independently carries the input onto its canonical basis, with the
# canonical basis a fixed point of classify, or it refuses with a
# documented error; the validation refusals come from the end of
# classify, where the witness image is checked.

REFUSALS = (ClassificationError, AmbiguousNullError, LinearDependenceError,
            AmbiguousRankError)
REFUSAL_NAMES = {cls.__name__ for cls in REFUSALS}


def _round_trip(basis, g=None):
    """classify of the span of basis, moved by g first, checked against
    the oracles; the refusal's type name when construction or classify
    refuses."""
    if g is not None:
        basis = [quartet_action(g, quartet_from_array(q)) for q in basis]
    try:
        space = CSpace(basis)
        res = classify(space)
    except REFUSALS as exc:
        event(type(exc).__name__)
        return type(exc).__name__
    event(res.form.case_id.value)
    image = CSpace([quartet_action(res.gamma, q) for q in space.basis])
    assert lstsq_span_equal(image, res.canonical, 1e-6)
    again = classify(res.canonical)
    assert again.form.case_id is res.form.case_id
    if res.form.mu is not None:
        assert abs(again.form.mu - res.form.mu) <= 1e-9 * max(
            1.0, abs(res.form.mu))
    return res.form.case_id


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), log_eps=st.floats(-10.0, -1.0),
       tilt=st.sampled_from([0.0, 0.6]))
def test_null_cut_orbit_round_trip(seed, log_eps, tilt):
    # tau0 + tau1 + eps tau2 has (-,+,+) square eps^2: null below the
    # ZERO_TOL cut, non-null above it
    eps = 10.0 ** log_eps
    g = random_sl2(np.random.default_rng(seed), 20.0)
    got = _round_trip([T0 + T1 + eps * T2 + tilt * SG], g)
    lines = {CaseId.NULL_LINE, CaseId.NULL_LINE_TILTED, CaseId.NONNULL_LINE}
    assert got in lines or got in ("ClassificationError",
                                   "AmbiguousNullError")
    if eps >= 1e-2:
        assert got is CaseId.NONNULL_LINE


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), log_delta=st.floats(-13.0, -6.0),
       w=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
def test_symmetric_rank_cut_orbit_round_trip(seed, log_delta, w):
    # span{tau0 + w sigma, tau0 + delta tau1}: its symmetric part has rank
    # two, with a second singular value about delta / sqrt(2) that crosses
    # the 1e-10 cut of the symmetric rank
    g = random_sl2(np.random.default_rng(seed), 20.0)
    got = _round_trip([T0 + w * SG, T0 + 10.0 ** log_delta * T1], g)
    assert got in REFUSAL_NAMES or canonical_space(
        CanonicalForm(got, 0.0 if got in MU_CASES else None)).dim == 2


def _near_band_plane(ratio: float, theta: float, phi: float) -> np.ndarray:
    """Reduced rows e0 + t z, e1 + t z (z a unit vector on the v2, u
    coordinates) whose singular value ratio is 1 / sqrt(1 + 2 t^2)."""
    t = np.sqrt((1.0 / ratio ** 2 - 1.0) / 2.0)
    rows = np.zeros((2, 4), dtype=complex)
    rows[0, 0] = rows[1, 1] = 1.0
    rows[:, 2:] = t * np.array([np.cos(theta),
                                np.sin(theta) * np.exp(1j * phi)])
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(log_ratio=st.floats(-10.5, -7.5), theta=st.floats(0.05, 1.5),
       phi=st.floats(0.0, 6.2))
def test_rank_band_round_trip(log_ratio, theta, phi):
    # bases whose singular value ratio runs from below rank_tol, through
    # the ambiguous band (rank_tol, 10 rank_tol], to above it
    rows = _near_band_plane(10.0 ** log_ratio, theta, phi)
    sv = np.linalg.svd(rows, compute_uv=False)
    ratio = sv[-1] / sv[0]
    try:
        space = CSpace(rows)
    except (LinearDependenceError, AmbiguousRankError) as exc:
        banded = 1e-10 < ratio <= 1e-9
        assert isinstance(exc, AmbiguousRankError) == banded
        assert ratio <= 1.01e-9
        return
    assert ratio > 0.99e-9
    got = _round_trip(space.basis)
    assert got in REFUSAL_NAMES or got in CaseId


@pytest.mark.parametrize("ratio, theta, phi, refusal", [
    (1.05e-9, 0.3, 0.0, AmbiguousRankError),
    (1.05e-9, 1.2, 0.0, LinearDependenceError),
])
def test_witness_image_in_the_rank_band_is_refused(ratio, theta, phi,
                                                   refusal):
    # the input passes construction, but its basis pushed through the
    # witness falls into (or below) the ambiguous band: classify refuses
    # with the construction error instead of validating a guess
    space = CSpace(_near_band_plane(ratio, theta, phi))
    with pytest.raises(refusal):
        classify(space)
