"""Reduction of constraint subspaces to canonical representatives.

Every subspace of the tau/sigma coefficient space falls, under the
unimodular action, onto one of fifteen catalogued normal forms.  The
decision data are invariant: the dimension p of the symmetric part, the
nullity structure of the induced (-,+,+) form, whether the pure
antisymmetric generator lies in the space, and the vector w expressing
the antisymmetric coefficient as u = w.v.  classify() walks that tree,
accumulating an explicit witness matrix whose action carries the input
onto the canonical basis.

One invariant combination (two-dimensional symmetric part with
non-degenerate induced form, together with the antisymmetric generator)
has no catalogued representative; it raises UncataloguedSpaceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pauli import (CSpace, SL2, MINKOWSKI_METRIC, _action_matrix,
                    minkowski_vec, sl2_act_space, span_equal)

# Relative threshold for "is this invariant zero" decisions during
# classification.  Coarser than the rank tolerance: the inputs are floats
# that have already been pushed through a group action.
ZERO_TOL = 1e-8

# Tolerance of the final witness validation.
WITNESS_TOL = 1e-8

_EPS = float(np.finfo(float).eps)

# Half-width, as a factor either side of ZERO_TOL, of the band of
# |<v, v>| / s^2 that _is_null refuses (AmbiguousNullError).
NULL_BAND = 4.0


class ClassificationError(RuntimeError):
    """The reduction pipeline failed internal validation."""


class UncataloguedSpaceError(ClassificationError):
    """The input's invariants match no catalogued normal form."""


class AmbiguousNullError(ClassificationError):
    """A symmetric tensor is too close to null for either normal form.

    Mapped onto the null ray, it leaves |<v, v>| / s^2 behind in the
    image; mapped onto tau2, rounding grows like s^2 / |<v, v>|.  In the
    band (ZERO_TOL / NULL_BAND, ZERO_TOL * NULL_BAND] of that ratio
    neither image is within WITNESS_TOL of its canonical span, so such
    inputs are refused instead of failing validation.

    Also raised where a tilted form's scale step would carry what the
    null test let through, or the rounding of the witness's own action,
    past WITNESS_TOL (see _refuse_amplified)."""


class CaseId(str, Enum):
    """The fifteen canonical constraint-space types."""

    EMPTY = "empty"
    ANTISYMMETRIC_LINE = "antisymmetric_line"
    NONNULL_LINE = "nonnull_line"
    NONNULL_LINE_SIGMA = "nonnull_line_sigma"
    NULL_LINE = "null_line"
    NULL_LINE_TILTED = "null_line_tilted"
    NULL_LINE_SIGMA = "null_line_sigma"
    REGULAR_PLANE = "regular_plane"
    REGULAR_PLANE_TILTED = "regular_plane_tilted"
    DEGENERATE_PLANE = "degenerate_plane"
    DEGENERATE_PLANE_TILTED = "degenerate_plane_tilted"
    DEGENERATE_PLANE_SIGMA = "degenerate_plane_sigma"
    FULL_SYMMETRIC = "full_symmetric"
    FULL_SYMMETRIC_TILTED = "full_symmetric_tilted"
    FULL_SPACE = "full_space"


# Cases carrying a continuous modulus mu (the coefficient coupling the
# antisymmetric generator to the tau2 direction).
MU_CASES = frozenset({CaseId.NONNULL_LINE, CaseId.REGULAR_PLANE,
                      CaseId.DEGENERATE_PLANE, CaseId.FULL_SYMMETRIC})


@dataclass(frozen=True)
class CanonicalForm:
    case_id: CaseId
    mu: complex | None = None

    def __post_init__(self):
        if self.case_id in MU_CASES:
            if self.mu is None:
                raise ValueError(f"{self.case_id.value} requires mu")
            object.__setattr__(self, "mu", complex(self.mu))
        elif self.mu is not None:
            raise ValueError(f"{self.case_id.value} takes no mu")


@dataclass(frozen=True)
class ClassificationResult:
    form: CanonicalForm
    gamma: SL2
    canonical: CSpace


@dataclass(frozen=True)
class SpaceSignature:
    """Orbit-invariant fingerprint used to cross-check classify()."""

    dim: int
    dim_plus: int
    gram_rank: int
    sigma_in: bool


_T0 = (1, 0, 0, 0)
_T1 = (0, 1, 0, 0)
_T2 = (0, 0, 1, 0)
_SG = (0, 0, 0, 1)

# The other rows of a mu form are orthogonal to t2+mu*s and of norm 1 or
# sqrt 2, so up to this |mu| the singular value ratio stays above 1e-8,
# clear of CSpace's refusal band, and every unit pivot stays above its
# row reduction threshold DEFAULT_RANK_TOL * |mu|.
_LITERAL_MU_MAX = 1e8

_CANONICAL_BASES = {
    CaseId.EMPTY: [],
    CaseId.ANTISYMMETRIC_LINE: [_SG],
    CaseId.NONNULL_LINE: ["t2+mu*s"],
    CaseId.NONNULL_LINE_SIGMA: [_T2, _SG],
    CaseId.NULL_LINE: [(1, 1, 0, 0)],
    CaseId.NULL_LINE_TILTED: [(1, 1, 0, 1)],
    CaseId.NULL_LINE_SIGMA: [(1, 1, 0, 0), _SG],
    CaseId.REGULAR_PLANE: [_T0, "t2+mu*s"],
    CaseId.REGULAR_PLANE_TILTED: [(1, 0, 0, 1), (0, 0, 1, 1)],
    CaseId.DEGENERATE_PLANE: [(1, 1, 0, 0), "t2+mu*s"],
    CaseId.DEGENERATE_PLANE_TILTED: [(1, 1, 0, 1), _T2],
    CaseId.DEGENERATE_PLANE_SIGMA: [(1, 1, 0, 0), _T2, _SG],
    CaseId.FULL_SYMMETRIC: [_T0, _T1, "t2+mu*s"],
    CaseId.FULL_SYMMETRIC_TILTED: [(1, 0, 0, 1), (0, 1, 0, 1), _T2],
    CaseId.FULL_SPACE: [_T0, _T1, _T2, _SG],
}


def canonical_space(form: CanonicalForm) -> CSpace:
    """The literal canonical basis for a form, mu substituted where used.

    For |mu| <= _LITERAL_MU_MAX the literal rows are already the reduced
    rows a CSpace stores, unit pivots first, so they skip the checks and
    the reduction.  Its one step that still acts on them, the division by
    the pivot 1, can turn a negative zero in mu positive; it is kept, so
    the rows are CSpace's bit for bit.  Any other mu (huge, inf or nan)
    goes through CSpace, with its refusals.
    """
    rows = np.array([(0, 0, 1, form.mu) if entry == "t2+mu*s" else entry
                     for entry in _CANONICAL_BASES[form.case_id]],
                    dtype=complex).reshape(-1, 4)
    if form.mu is not None and not abs(form.mu) <= _LITERAL_MU_MAX:
        return CSpace(rows)
    return CSpace._reduced(rows / 1.0)


# ---------------------------------------------------------------------------
# witness building blocks

def _rotation(theta: float) -> SL2:
    c, s = math.cos(theta), math.sin(theta)
    return SL2(np.array([[c, s], [-s, c]], dtype=complex))


def _fixed(g: SL2) -> tuple:
    """A step that never changes, with its action matrix built once."""
    return g, _action_matrix(g)


# tau2 -> tau1 exchange (fixes tau0 and the antisymmetric part)
_R_T2_TO_T1 = _fixed(_rotation(-math.pi / 4.0))

# negates v1 and v2
_SWAP = _fixed(_rotation(math.pi / 2.0))

# negates v0 and v2, fixes v1 and u
_FLIP = _fixed(SL2(np.array([[0.0, 1.0j], [1.0j, 0.0]])))


def _scale(a: complex) -> SL2:
    """diag(a, 1/a): scales the two null rays v0 +/- v1 by a^{+/-2}."""
    a = complex(a)
    return SL2(np.array([[a, 0.0], [0.0, 1.0 / a]], dtype=complex))


def _shear(m: complex) -> SL2:
    """Lower-triangular unipotent: fixes tau0+tau1 exactly."""
    return SL2(np.array([[1.0, 0.0], [complex(m), 1.0]], dtype=complex))


def _boost(big_c: complex, big_s: complex) -> SL2:
    """Symmetric matrix [[c,s],[s,c]] acting on (v0, v2) as the hyperbolic
    rotation [[C, S], [S, C]] with C^2 - S^2 = 1.  Fixes tau1 and u."""
    small_c = np.sqrt((big_c + 1.0) / 2.0)
    if abs(small_c) < 1e-8:
        raise ValueError("boost parameter at the branch singularity")
    small_s = big_s / (2.0 * small_c)
    try:
        # unit_normalized soaks up rounding drift in C^2 - S^2 = 1
        return SL2.unit_normalized(
            np.array([[small_c, small_s], [small_s, small_c]]))
    except ValueError as exc:
        # a boost too large to bring back onto unit determinant
        raise ClassificationError(
            f"witness validation failed for a boost: {exc}") from None


def _apply_lorentz(pipe: _Pipeline, big_c: complex, big_s: complex) -> None:
    """Realize the (v0, v2)-action [[C,S],[S,C]] robustly.

    Near C = -1 the boost formula degenerates; there the action factors as
    the well-conditioned boost of (-C, -S) followed by the flip (-identity
    on the (v0, v2) plane).
    """
    if big_c.real >= -0.5:
        pipe.apply(_boost(big_c, big_s))
    else:
        pipe.apply(_boost(-big_c, -big_s))
        pipe.apply(*_FLIP)


# ---------------------------------------------------------------------------
# normal-form subroutines

def _symmetric_matrix(v) -> np.ndarray:
    """The 2x2 matrix v0 tau0 + v1 tau1 + v2 tau2."""
    v0, v1, v2 = np.asarray(v, dtype=complex)
    return np.array([[v0 + v1, v2], [v2, v0 - v1]])


def _is_null(v) -> bool:
    """Whether a nonzero symmetric tensor, given by its coefficients (v0,
    v1, v2), counts as null: |<v, v>| <= ZERO_TOL s^2 / NULL_BAND, s the
    largest entry of its 2x2 matrix, and not above ZERO_TOL s^2 NULL_BAND;
    in between it raises AmbiguousNullError.  Branch decisions and the
    normalizers share this test, so a branch never hands a normalizer an
    input it refuses."""
    v0, v1, v2 = np.asarray(v, dtype=complex).tolist()
    square = abs(-v0 * v0 + v1 * v1 + v2 * v2)
    cut = ZERO_TOL * max(abs(v0 + v1), abs(v2), abs(v0 - v1)) ** 2
    if square <= cut / NULL_BAND:
        return True
    if square > cut * NULL_BAND:
        return False
    raise AmbiguousNullError(
        f"|<v, v>| = {square:.3e} is within {NULL_BAND:g}x of the null cut "
        f"{cut:.3e}; neither normal form's witness would validate")


def normalize_null(v) -> SL2:
    """Witness carrying a nonzero null symmetric tensor, given by its
    coefficients (v0, v1, v2), onto the tau0+tau1 ray.

    The recomposed 2x2 matrix of a null tensor is rank one and symmetric,
    M = c w w^T.  Completing w to a unimodular column basis N and acting
    with N^{-T} sends M to a multiple of e0 e0^T = (tau0+tau1)/2.
    """
    m = _symmetric_matrix(v)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        raise ValueError("zero input")
    if not _is_null(v):
        raise ValueError("input is not null")
    i = 0 if abs(m[0, 0]) >= abs(m[1, 1]) else 1
    if abs(m[i, i]) <= 1e-14 * scale:
        # both diagonals vanish: det = -M01^2 would be nonzero
        raise ValueError("input is not a rank-one symmetric tensor")
    w = m[:, i] / np.sqrt(m[i, i])
    if abs(w[0]) >= abs(w[1]):
        z = np.array([0.0, 1.0 / w[0]], dtype=complex)
    else:
        z = np.array([-1.0 / w[1], 0.0], dtype=complex)
    # inverse-transpose of the det-1 column basis [w | z]
    gamma = np.array([[z[1], -w[1]], [-z[0], w[0]]], dtype=complex)
    return SL2(gamma)


def normalize_nonnull(v) -> SL2:
    """Witness carrying a non-null symmetric tensor, given by its
    coefficients (v0, v1, v2), onto the tau2 ray.

    The associated quadratic form x^T M x factors over C into two
    independent linear forms; the matrix of their zero directions,
    rescaled to unit determinant, has zero diagonal in the transformed
    tensor, i.e. the image is proportional to tau2.
    """
    m = _symmetric_matrix(v)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        raise ValueError("zero input")
    if _is_null(v):
        raise ValueError("input is null")
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    if max(abs(a), abs(c)) <= 1e-14 * scale:
        return SL2.identity()  # already off-diagonal
    disc = np.sqrt(b * b - a * c)
    # divide by the larger diagonal entry: swapping a and c turns the
    # zero directions (1, t) of c t^2 + 2 b t + a into (t, 1)
    swapped = abs(c) < abs(a)
    if swapped:
        a, c = c, a
    u1 = -(b + disc) if abs(b + disc) >= abs(b - disc) else -(b - disc)
    t1 = u1 / c
    t2 = (a / c) / t1
    raw = np.array([[1.0, 1.0], [t1, t2]], dtype=complex)
    return SL2.unit_normalized(raw[::-1] if swapped else raw)


def normal_complement(vplus_rows: np.ndarray) -> np.ndarray:
    """Direction normal (in the (-,+,+) sense) to a two-dimensional
    symmetric subspace, as a length-3 coefficient vector."""
    rows = np.asarray(vplus_rows, dtype=complex)
    if rows.shape != (2, 3):
        raise ValueError("expected two length-3 symmetric coefficient rows")
    a = rows @ MINKOWSKI_METRIC
    _, sv, vh = np.linalg.svd(a)
    if sv[-2] <= 1e-12 * sv[0]:
        raise ValueError("symmetric subspace is not two-dimensional")
    return np.conj(vh[-1])


def _symmetric_rank(rows: np.ndarray):
    """Rank p of the symmetric part rows[:, :3], counting singular values
    above 1e-10 of the largest entry (at least 1), and the right singular
    vectors: the first p rows of vh span the symmetric part."""
    _, sv, vh = np.linalg.svd(rows[:, :3])
    scale = max(1.0, float(np.max(np.abs(rows))))
    return int(np.sum(sv > 1e-10 * scale)), vh


def invariant_signature(space: CSpace) -> SpaceSignature:
    """Orbit-invariant fingerprint (dimension, symmetric rank, rank of the
    induced bilinear form on the symmetric part, sigma membership)."""
    rows = space.coefficient_matrix()
    n = rows.shape[0]
    if n == 0:
        return SpaceSignature(0, 0, 0, False)
    p, vh = _symmetric_rank(rows)
    sigma_in = p < n
    if p == 0:
        return SpaceSignature(n, 0, 0, sigma_in)
    basis = vh[:p]  # rows spanning the symmetric part
    gram = basis @ MINKOWSKI_METRIC @ basis.T
    return SpaceSignature(n, p, _gram_rank(gram), sigma_in)


def _gram_rank(gram: np.ndarray) -> int:
    """Number of singular values above ZERO_TOL * max(1, the largest).

    A 1x1 or 2x2 matrix is ranked in closed form: its largest singular
    value s0 has s0^2 = (F + sqrt(F^2 - 4 D^2)) / 2, F the squared
    Frobenius norm and D = |det|, and the other is D / s0."""
    if gram.shape[0] == 3:
        gsv = np.linalg.svd(gram, compute_uv=False)
        return int(np.sum(gsv > ZERO_TOL * max(1.0, gsv[0])))
    entries = gram.ravel().tolist()
    if len(entries) == 1:
        return int(abs(entries[0]) > ZERO_TOL)
    a, b, c, d = entries
    fro = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = abs(a * d - b * c)
    s0 = math.sqrt((fro + math.sqrt(max(fro * fro - 4.0 * det * det, 0.0)))
                   / 2.0)
    if s0 <= ZERO_TOL:
        return 0
    return 2 if det / s0 > ZERO_TOL * max(1.0, s0) else 1


# ---------------------------------------------------------------------------
# the classifier

class _Pipeline:
    """Mutable state while reducing: coefficient rows plus the witness,
    kept as the raw 2x2 product of the steps; _finish checks it once."""

    def __init__(self, space: CSpace):
        self.rows = space.coefficient_matrix()
        self.gamma = np.eye(2, dtype=complex)

    def apply(self, g: SL2, action: np.ndarray | None = None) -> None:
        """Act with g; action is its matrix M(g) where that is built."""
        self.gamma = self.gamma @ g.matrix
        self.rows = self.rows @ (_action_matrix(g) if action is None
                                 else action)


def _needs_sign_flip(mu: complex) -> bool:
    """Canonical representative of the mu ~ -mu identification: right half
    plane, with the boundary resolved upward."""
    if mu.real > 1e-12:
        return False
    if mu.real < -1e-12:
        return True
    return mu.imag < -1e-12


def _solve_functional(rows: np.ndarray, v_targets: np.ndarray) -> np.ndarray:
    """Express basis rows as combinations whose symmetric parts are the
    given target vectors; return the antisymmetric coefficients u_i of
    those combinations."""
    n = rows.shape[0]
    coeff = np.array([[_component(rows[i, :3], v_targets[j])
                       for j in range(n)] for i in range(n)])
    sol = np.linalg.solve(coeff, rows)
    return sol[:, 3]


def _component(v: np.ndarray, target: np.ndarray) -> complex:
    """Coefficient of `target` in v, assuming v lies in the span of the
    target rows used by the caller (Euclidean projection)."""
    return complex(np.vdot(target, v) / np.vdot(target, target))


def classify(space: CSpace) -> ClassificationResult:
    """Reduce a constraint space to its canonical form.

    Returns the case label, the surviving modulus where the case has one,
    and a unit-determinant witness whose action maps the input onto the
    canonical basis (validated by span comparison before returning).
    """
    pipe = _Pipeline(space)
    n = pipe.rows.shape[0]

    if n == 0:
        form = CanonicalForm(CaseId.EMPTY)
        return _finish(space, pipe, form)

    p, vh = _symmetric_rank(pipe.rows)
    sigma_in = p < n

    if p == 0:
        form = CanonicalForm(CaseId.ANTISYMMETRIC_LINE)
    elif p == 1:
        form = _classify_line(pipe, vh[0], sigma_in)
    elif p == 2:
        form = _classify_plane(pipe, vh[:2], sigma_in)
    else:
        form = _classify_full(pipe, sigma_in)
    return _finish(space, pipe, form)


def _refuse_amplified(pipe: _Pipeline, nullness: float,
                      case: CaseId) -> None:
    """Refuse a tilted witness that would not validate.

    nullness is what the canonical image keeps of the input's distance
    from null: the invariant |<v, v>| / u^2 of a line, |<w, w>| of a
    full symmetric part, none for the planes.  The witness's action, with
    entries up to |gamma|_F^2, adds rounding of about eps |gamma|_F^4
    relative to the image.  The scale step makes both large where the
    input sits close to the untilted form.  On random near-null inputs
    (|<v, v>| / s^2 up to ZERO_TOL / NULL_BAND, any tilt) the validation
    residual stayed below half their sum, so a sum above WITNESS_TOL is
    refused."""
    norm2 = float(np.vdot(pipe.gamma, pipe.gamma).real)
    amplified = nullness + _EPS * norm2 * norm2
    if amplified > WITNESS_TOL:
        raise AmbiguousNullError(
            f"{case.value} witness would leave {amplified:.3e} of null "
            f"residual and rounding in the image, above WITNESS_TOL "
            f"{WITNESS_TOL:.1e}; too close to the untilted form")


def _classify_line(pipe: _Pipeline, s: np.ndarray, sigma_in: bool):
    """s: unit vector spanning the (rank-one) symmetric row space."""
    if _is_null(s):
        given = pipe.rows[0]
        pipe.apply(normalize_null(s))
        if sigma_in:
            return CanonicalForm(CaseId.NULL_LINE_SIGMA)
        row = pipe.rows[0]
        c = (row[0] + row[1]) / 2.0
        mu = row[3] / c
        if abs(mu) <= ZERO_TOL:
            return CanonicalForm(CaseId.NULL_LINE)
        pipe.apply(_scale(np.sqrt(mu)))
        v, u = given[:3], given[3]
        _refuse_amplified(pipe, abs(minkowski_vec(v, v)) / abs(u) ** 2,
                          CaseId.NULL_LINE_TILTED)
        return CanonicalForm(CaseId.NULL_LINE_TILTED)
    pipe.apply(normalize_nonnull(s))
    if sigma_in:
        return CanonicalForm(CaseId.NONNULL_LINE_SIGMA)
    row = pipe.rows[0]
    mu = row[3] / row[2]
    if _needs_sign_flip(mu):
        pipe.apply(*_FLIP)
        mu = -mu
    return CanonicalForm(CaseId.NONNULL_LINE, mu)


def _classify_plane(pipe: _Pipeline, vp: np.ndarray, sigma_in: bool):
    """vp: two rows spanning the (rank-two) symmetric row space."""
    w_dir = normal_complement(vp)
    if not _is_null(w_dir):
        # symmetric part equivalent to span{tau0, tau2}
        pipe.apply(normalize_nonnull(w_dir))
        pipe.apply(*_R_T2_TO_T1)
        if sigma_in:
            raise UncataloguedSpaceError(
                "two-dimensional symmetric part with non-degenerate induced "
                "form plus the antisymmetric generator has no catalogued "
                "normal form")
        targets = np.array([[1, 0, 0], [0, 0, 1]], dtype=complex)
        u0, u1 = _solve_functional(pipe.rows, targets)
        if max(abs(u0), abs(u1)) <= ZERO_TOL:
            return CanonicalForm(CaseId.REGULAR_PLANE, 0.0)
        # w restricted to the plane: (w0, w2) = (-u0, u1)
        w0, w2 = -u0, u1
        rho2 = -w0 * w0 + w2 * w2
        if abs(rho2) <= ZERO_TOL * max(abs(w0), abs(w2)) ** 2:
            # null w: carry it onto the v2 - v0 direction
            if abs(w2 - w0) <= abs(w2 + w0):
                pipe.apply(*_SWAP)
                w2 = -w2
            beta = (w0 - w2) / 2.0
            big_c = -(beta + 1.0 / beta) / 2.0
            big_s = (1.0 / beta - beta) / 2.0
            _apply_lorentz(pipe, big_c, big_s)
            _refuse_amplified(pipe, 0.0, CaseId.REGULAR_PLANE_TILTED)
            return CanonicalForm(CaseId.REGULAR_PLANE_TILTED)
        mu = np.sqrt(rho2)  # principal root lands in the canonical half plane
        _apply_lorentz(pipe, w2 / mu, -w0 / mu)
        if _needs_sign_flip(mu):  # signed-zero edge of the principal branch
            pipe.apply(*_FLIP)
            mu = -mu
        return CanonicalForm(CaseId.REGULAR_PLANE, mu)

    # null complement: symmetric part equivalent to span{tau0+tau1, tau2}
    pipe.apply(normalize_null(w_dir))
    if sigma_in:
        return CanonicalForm(CaseId.DEGENERATE_PLANE_SIGMA)
    targets = np.array([[1, 1, 0], [0, 0, 1]], dtype=complex)
    u0, u1 = _solve_functional(pipe.rows, targets)
    beta, gamma_c = u0 / 2.0, u1
    if abs(beta) <= ZERO_TOL * max(1.0, abs(gamma_c)):
        # the modulus here admits no further reduction: the stabilizer of
        # the null ray is triangular and fixes the tau2 coefficient
        return CanonicalForm(CaseId.DEGENERATE_PLANE, gamma_c)
    pipe.apply(_shear(gamma_c / (2.0 * beta)))
    pipe.apply(_scale(np.sqrt(2.0 * beta)))
    _refuse_amplified(pipe, 0.0, CaseId.DEGENERATE_PLANE_TILTED)
    return CanonicalForm(CaseId.DEGENERATE_PLANE_TILTED)


def _solve_w(rows: np.ndarray) -> np.ndarray:
    vpart = rows[:, :3]
    return np.linalg.solve(vpart @ MINKOWSKI_METRIC, rows[:, 3])


def _classify_full(pipe: _Pipeline, sigma_in: bool):
    if sigma_in:
        return CanonicalForm(CaseId.FULL_SPACE)
    w = _solve_w(pipe.rows)
    wnorm = float(np.linalg.norm(w))
    if wnorm <= ZERO_TOL:
        return CanonicalForm(CaseId.FULL_SYMMETRIC, 0.0)
    if _is_null(w):
        pipe.apply(normalize_null(w))
        pipe.apply(*_SWAP)
        w2 = _solve_w(pipe.rows)
        c = (w2[0] - w2[1]) / 2.0  # coefficient on the v0 - v1 ray
        # c is 1/2 up to rounding (w lands on (tau0+tau1)/2, then _SWAP):
        # sqrt(-c) would sit on the branch cut and let rounding pick the
        # sign of gamma; i sqrt(c) is the same action with a fixed sign.
        pipe.apply(_scale(1j * np.sqrt(c)))
        _refuse_amplified(pipe, abs(minkowski_vec(w, w)),
                          CaseId.FULL_SYMMETRIC_TILTED)
        return CanonicalForm(CaseId.FULL_SYMMETRIC_TILTED)
    pipe.apply(normalize_nonnull(w))
    mu = _solve_w(pipe.rows)[2]
    if _needs_sign_flip(mu):
        pipe.apply(*_FLIP)
        mu = -mu
    return CanonicalForm(CaseId.FULL_SYMMETRIC, mu)


def _finish(space: CSpace, pipe: _Pipeline,
            form: CanonicalForm) -> ClassificationResult:
    try:
        gamma = SL2(pipe.gamma)
    except ValueError as exc:
        # the raw product drifted off unit determinant
        raise ClassificationError(
            f"witness validation failed for {form.case_id.value}: {exc}"
        ) from None
    canonical = canonical_space(form)
    image = sl2_act_space(gamma, space)
    if not span_equal(image, canonical, WITNESS_TOL):
        raise ClassificationError(
            f"witness validation failed for {form.case_id.value}")
    return ClassificationResult(form=form, gamma=gamma, canonical=canonical)
