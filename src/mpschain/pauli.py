"""Arithmetic layer for 2x2 complex tensors in the basis {tau0, tau1, tau2, sigma}.

A rank-2 tensor C on C^2 x C^2 is stored as the coefficient quartet
(v0, v1, v2, u) with C = v0*tau0 + v1*tau1 + v2*tau2 + u*sigma.  The first
three basis matrices are symmetric, sigma is antisymmetric, and the change
of basis is rational, so it is done in closed form rather than by a solve.

A list of k tensors is a (k, 4) array of such rows; that array is the
working format of this module and of the classifier.  The unimodular group
action Op_g C = g^T C g is one fixed linear map on it: rows @ M(g), where
M(g) is g x g written in quartet coordinates.  The module also provides
the signature (-,+,+) bilinear product on the symmetric coefficients and
a canonicalized subspace container (CSpace) that stores its reduced rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Relative rank threshold for independence and row-reduction decisions.
DEFAULT_RANK_TOL = 1e-10

# Row reduction passes over a pivot at or below this share of the rows'
# singular value ratio times the largest entry left to reduce.
PIVOT_SHARE = 1e-3

# Determinant slack accepted for unimodular matrices.
DET_TOL = 1e-12

TAU0 = np.eye(2, dtype=complex)
TAU1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
TAU2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

# Metric of the bilinear product on (v0, v1, v2).
MINKOWSKI_METRIC = np.diag([-1.0, 1.0, 1.0]).astype(complex)

# Quartet rows to flat entries (C00, C01, C10, C11): flat = q @ _TO_FLAT.
# The rows are orthogonal with squared norm 2, so the inverse is the
# transpose over two, and both maps are exact.
_TO_FLAT = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                     [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)
_FROM_FLAT = _TO_FLAT.T / 2.0


class LinearDependenceError(ValueError):
    """The supplied basis vectors are linearly dependent at DEFAULT_RANK_TOL
    (the rank_tol of the message)."""


class AmbiguousRankError(ValueError):
    """Independence cannot be decided: the smallest singular value falls in
    the band (rank_tol, 10*rank_tol], rank_tol = DEFAULT_RANK_TOL.
    Classification is discontinuous, so such inputs are rejected instead
    of silently reduced."""


def _as_complex(z) -> complex:
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("non-finite complex value")
    return z


@dataclass(frozen=True)
class PauliQuartet:
    """Coefficients (v0, v1, v2, u) of a 2x2 tensor in the tau/sigma basis."""

    v0: complex
    v1: complex
    v2: complex
    u: complex

    def __post_init__(self):
        for name in ("v0", "v1", "v2", "u"):
            object.__setattr__(self, name, _as_complex(getattr(self, name)))

    def as_array(self) -> np.ndarray:
        """Coefficients as a length-4 complex vector (v0, v1, v2, u)."""
        return np.array([self.v0, self.v1, self.v2, self.u], dtype=complex)


def quartet_from_array(a) -> PauliQuartet:
    a = np.asarray(a, dtype=complex)
    if a.shape != (4,):
        raise ValueError("expected 4 coefficients")
    return PauliQuartet(a[0], a[1], a[2], a[3])


def minkowski_vec(a, b) -> complex:
    """Bilinear product -v0*w0 + v1*w1 + v2*w2 on length-3 symmetric
    coefficient vectors.

    No complex conjugation: this is the invariant of the unimodular
    action, not a Hermitian inner product.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return complex(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


@dataclass(frozen=True)
class SL2:
    """A 2x2 complex matrix with unit determinant."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite entries")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det - 1.0) > DET_TOL:
            raise ValueError(f"determinant {det} is not 1 within {DET_TOL}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        # rebuilt through the constructor, so a copy stays read-only
        return type(self), (self.matrix,)

    @staticmethod
    def identity() -> "SL2":
        return SL2(np.eye(2, dtype=complex))

    @staticmethod
    def unit_normalized(m) -> "SL2":
        """Rescale an invertible matrix by a principal-root factor so the
        determinant becomes exactly one."""
        m = np.asarray(m, dtype=complex)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-300:
            raise ValueError("matrix is singular")
        g = m / np.sqrt(det)
        # kill the residual rounding in the determinant
        d2 = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        return SL2(g / np.sqrt(d2))


def _action_matrix(g: SL2) -> np.ndarray:
    """The 4x4 map M(g) with rows @ M(g) the quartet rows of g^T C g.

    flat(g^T C g) = flat(C) (g x g), taken into quartet coordinates; g x g
    is the broadcast outer product, entry for entry np.kron(g, g).  The
    antisymmetric part scales with det g = 1, so the u row and column are
    set to e3: u passes through bit-exact and never leaks into v.
    """
    u = g.matrix
    gg = (u[:, None, :, None] * u[None, :, None, :]).reshape(4, 4)
    m = _TO_FLAT @ gg @ _FROM_FLAT
    m[3] = m[:, 3] = (0, 0, 0, 1)
    return m


def sl2_act(g: SL2, c: PauliQuartet) -> PauliQuartet:
    """Push a tensor through the unimodular action: quartet of g^T C g,
    with u kept exactly."""
    return quartet_from_array(c.as_array() @ _action_matrix(g))


class CSpace:
    """A subspace of the tau/sigma coefficient space, given by a basis.

    The basis (quartets, or length-4 coefficient rows such as a (k, 4)
    array) is independence-checked and canonicalized on construction by
    row reduction (columns scanned left to right, partial pivoting on row
    magnitude), so that two equal spans produce the same stored basis up
    to rounding.  The reduced rows are the stored form; .basis gives them
    as quartets, built on first read.
    """

    def __init__(self, basis: Iterable[PauliQuartet] | np.ndarray):
        if isinstance(basis, np.ndarray) and basis.ndim == 2 and len(basis):
            coeff = basis.astype(complex, order="C")
        else:
            coeff = np.array([q.as_array() if isinstance(q, PauliQuartet)
                              else q for q in basis] or np.zeros((0, 4)),
                             dtype=complex)
        if coeff.ndim != 2 or coeff.shape[1] != 4:
            raise ValueError("expected rows of 4 coefficients")
        if not np.all(np.isfinite(coeff)):
            raise ValueError("non-finite complex value")
        if coeff.shape[0] > 4:
            raise LinearDependenceError("more than 4 basis vectors")
        if coeff.shape[0]:
            # rows whose largest real or imaginary part is 2 or more are
            # scaled by the power of two that brings it into [1, 2), so
            # the SVD cannot overflow; every threshold below is relative
            # to max(1, max|rows|) or free of scale, so no decision and
            # no stored row changes
            e = math.frexp(np.abs(coeff.view(float)).max())[1] - 1
            if e > 0:
                coeff = np.ldexp(coeff.view(float), -e).view(complex)
            reduced = _row_reduce(coeff, self._check_independence(coeff))
            if reduced.shape[0] != coeff.shape[0]:
                # row reduction lost a vector the SVD band check let through
                raise LinearDependenceError("basis is not independent")
        else:
            reduced = coeff
        self._set_rows(reduced)

    def _check_independence(self, coeff: np.ndarray) -> float:
        """The rows' smallest over largest singular value, refused when
        it is at or below DEFAULT_RANK_TOL or in the band above it."""
        s = np.linalg.svd(coeff, compute_uv=False)
        if s[0] == 0.0:
            raise LinearDependenceError("zero basis vector")
        ratio = s[-1] / s[0]
        if ratio <= DEFAULT_RANK_TOL:
            raise LinearDependenceError(
                f"smallest/largest singular value ratio {ratio:.3e} "
                f"below rank_tol {DEFAULT_RANK_TOL:.1e}")
        if ratio <= 10.0 * DEFAULT_RANK_TOL:
            raise AmbiguousRankError(
                f"singular value ratio {ratio:.3e} falls in the ambiguous "
                f"band (rank_tol, 10*rank_tol]; refusing to guess")
        return float(ratio)

    @classmethod
    def _reduced(cls, rows: np.ndarray) -> "CSpace":
        """The space of rows that are already what construction stores:
        reduced, independent and finite.  Taken as they are, unchecked."""
        space = object.__new__(cls)
        space._set_rows(rows)
        return space

    def _set_rows(self, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self._rows = rows
        self._basis = None

    def __reduce__(self):
        # rebuilt through _reduced, so a copy's rows stay read-only
        return self._reduced, (self._rows,)

    @property
    def basis(self) -> tuple:
        """The stored rows as PauliQuartets."""
        if self._basis is None:
            self._basis = tuple(quartet_from_array(r) for r in self._rows)
        return self._basis

    @property
    def dim(self) -> int:
        return self._rows.shape[0]

    def coefficient_matrix(self) -> np.ndarray:
        """Basis rows as a read-only (dim x 4) complex array."""
        return self._rows

    def __repr__(self):
        return f"CSpace(dim={self.dim})"


def _row_reduce(rows: np.ndarray, ratio: float = 0.0) -> np.ndarray:
    """Reduced row-echelon form over C; returns the nonzero rows.

    A column's largest entry p left below the reduced rows becomes its
    pivot unless p <= DEFAULT_RANK_TOL * scale, scale = max(1, max|rows|),
    or, for two rows or more whose singular value ratio is `ratio`, p is
    at most PIVOT_SHARE * ratio times both scale and the largest entry
    left to reduce.  A column passed over keeps its small entries, so no
    step divides a row by a pivot much smaller than the rest of it: the
    stored rows are not much worse conditioned than the rows given.  A
    ratio of 0 (the default, and rank-deficient rows) keeps only the
    first cut.
    """
    m = np.array(rows, dtype=complex)
    if m.size == 0:
        return m
    scale = max(1.0, float(np.max(np.abs(m))))
    thresh = DEFAULT_RANK_TOL * scale
    # one row is as well conditioned scaled as given
    share = PIVOT_SHARE * ratio if m.shape[0] > 1 else 0.0
    r = 0
    for col in range(m.shape[1]):
        if r >= m.shape[0]:
            break
        mags = np.abs(m[r:, col])
        piv = int(mags.argmax())
        p = mags[piv]
        if p <= thresh or (p <= share * scale and p <= share * float(
                np.max(np.abs(m[r:, col:])))):
            continue
        if piv:
            m[[r, r + piv]] = m[[r + piv, r]]
        pivot = m[r] / m[r, col]
        # one rank-1 update clears the column; the pivot row is put back
        m -= m[:, col, None] * pivot
        m[r] = pivot
        r += 1
    return m[:r]


def sl2_act_space(g: SL2, space: CSpace) -> CSpace:
    """Image of a subspace under the action; re-checked and canonicalized."""
    return CSpace(space.coefficient_matrix() @ _action_matrix(g))


# lstsq's default cut: singular values at or below eps * max(4, k), k <= 4
# rows, times the largest are taken as zero
_RCOND = 4 * np.finfo(float).eps


def _row_spaces(rows: np.ndarray):
    """Singular values of each (k, 4) block of rows, and right singular
    vectors spanning its rows, those at or below the lstsq cut zeroed."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return s, vh * (s > _RCOND * s[..., :1])[..., None]


def _within(x: np.ndarray, vh: np.ndarray, tol: float) -> bool:
    """Every row of x lies within tol * max(1, |row|) of the span of the
    rows of vh (orthonormal or zero); blocks of x pair with blocks of vh."""
    resid = np.linalg.norm(x - x @ vh.conj().swapaxes(-1, -2) @ vh, axis=-1)
    return bool(np.all(
        resid <= tol * np.maximum(1.0, np.linalg.norm(x, axis=-1))))


def span_equal(a: CSpace, b: CSpace, tol: float = 1e-8) -> bool:
    """True iff the two spans agree: equal dimension and every basis vector
    of one lies within tol (relative) of the span of the other.

    Equal spans store the same reduced rows up to rounding, so the stored
    rows are compared first: when every row pair has 2 max|a_i - b_i| <=
    tol max(1, min(max|a_i|, max|b_i|)), each row lies within tol max(1,
    |row|) of the other span, its distance to it being at most |a_i -
    b_i| <= 2 max|a_i - b_i| over four entries.  Otherwise the answer
    comes from one SVD of the stacked (2, k, 4) pair of basis rows."""
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    ra, rb = a.coefficient_matrix(), b.coefficient_matrix()
    diff, big_a, big_b = np.abs(np.stack([ra - rb, ra, rb])).max(axis=2)
    if np.all(2.0 * diff <= tol * np.maximum(1.0, np.minimum(big_a, big_b))):
        return True
    pair = np.stack([ra, rb])
    return _within(pair, _row_spaces(pair)[1][::-1], tol)
