"""Chain states: explicit kernel vectors and bond-matrix constructions.

Conventions shared by everything here:

 - a chain state on N two-state sites is a vector of 2^N amplitudes in
   the product basis, site 1 most significant, so the basis index of a
   bit string is just its value as a binary number;
 - states are returned UNNORMALIZED (their components are exact small
   integers or powers of a ratio); call .normalized() when needed;
 - a product basis state (product_state, hardcore_states) carries only
   its basis index and builds its dense amplitudes on each read;
 - the weighted sums read one table of zero counts and zeta exponents,
   computed once per chain length;
 - bond-matrix (MPS) states assign amplitude tr(A^{s1} ... A^{sN}) to
   the string s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import CanonicalForm, CaseId, canonical_space
from .hamiltonian import (FamilyId, FamilyParams, max_sites)
from .pauli import CSpace, PauliQuartet, SL2

# Site guard for explicit state vectors (2^N amplitudes), overridable
# through MPS_MAX_SITES.
DEFAULT_MAX_STATE_SITES = 24

# Tolerance on |ratio^M - 1| when a construction requires a root of unity.
ROOT_TOL = 1e-9

# mps_contract calls a state zero when its squared norm z falls below
# this fraction of the bound (|A0|_F^2 + |A1|_F^2)^N.
MPS_ZERO_TOL = 1e-24

# Largest cyclic order searched for when turning a modulus into a
# finite-dimensional bond representation.
MAX_ROOT_ORDER = 24


class NoRepresentationError(RuntimeError):
    """The catalogue has no bond-matrix representation for this case."""


class StateVector:
    """Unnormalized amplitudes over the 2^N product basis.

    A product basis state (product_state, hardcore_states) keeps only its
    basis index: its norm is 1, it is its own normalization, and every
    read of .amplitudes builds a fresh read-only dense vector that is kept
    nowhere, so a list of such states holds no 2^N array.
    """

    __slots__ = ("n_sites", "_amplitudes", "_index")

    def __init__(self, n_sites: int, amplitudes):
        amps = np.array(amplitudes, dtype=complex).ravel()
        if n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        if amps.shape != (2 ** n_sites,):
            raise ValueError("amplitude count must be 2**n_sites")
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitudes")
        amps.flags.writeable = False
        self._set(n_sites, amps, None)

    @classmethod
    def _basis(cls, n_sites: int, index: int) -> "StateVector":
        """The product basis state with amplitude 1 at index."""
        state = object.__new__(cls)
        state._set(n_sites, None, index)
        return state

    def _set(self, n_sites, amplitudes, index) -> None:
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "_amplitudes", amplitudes)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self) -> str:
        return (f"StateVector(n_sites={self.n_sites}, "
                f"amplitudes={self.amplitudes!r})")

    @property
    def amplitudes(self) -> np.ndarray:
        if self._index is None:
            return self._amplitudes
        amps = np.zeros(2 ** self.n_sites, dtype=complex)
        amps[self._index] = 1.0
        amps.flags.writeable = False
        return amps

    def _scaled(self):
        """(amplitudes * 2**-f, f), f the binary exponent of their largest
        real or imaginary part: exact, and safe to square."""
        f = math.frexp(np.abs(self._amplitudes.view(float)).max())[1]
        return _times_power_of_two(self._amplitudes, -f), f

    def norm(self) -> float:
        """Euclidean norm, inf only when the norm itself is out of range;
        the power-of-two scaling leaves in-range results bit for bit."""
        if self._index is not None:
            return 1.0
        scaled, f = self._scaled()
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(scaled), f))

    def normalized(self) -> "StateVector":
        if self._index is not None:
            return self
        scaled, _ = self._scaled()
        n = np.linalg.norm(scaled)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_sites, scaled / n)


def _times_power_of_two(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2**e for a contiguous complex array, exact wherever the result
    stays a normal float."""
    return np.ldexp(a.view(float), e).view(complex)


@dataclass(frozen=True)
class NamedState:
    label: str
    state: StateVector


def _check_sites(n_sites: int) -> None:
    limit = max_sites(DEFAULT_MAX_STATE_SITES)
    if not 1 <= n_sites <= limit:
        raise ValueError(
            f"n_sites must be between 1 and {limit} (got {n_sites})")


def product_state(symbol: str, n_sites: int) -> StateVector:
    """|sss...s> for s in {'0', '1'}."""
    _check_sites(n_sites)
    if symbol not in ("0", "1"):
        raise ValueError("symbol must be '0' or '1'")
    index = 0 if symbol == "0" else 2 ** n_sites - 1
    return StateVector._basis(n_sites, index)


def order_of_unit_root(z, max_order: int = MAX_ROOT_ORDER):
    """Smallest M <= max_order with |z^M - 1| <= ROOT_TOL, or None."""
    z = complex(z)
    if abs(abs(z) - 1.0) > ROOT_TOL:
        return None
    w = 1.0 + 0.0j
    for m in range(1, max_order + 1):
        w *= z
        if abs(w - 1.0) <= ROOT_TOL:
            return m
    return None


@functools.lru_cache(maxsize=1)
def _zero_counts(n_sites: int):
    """Zero count Z and zeta exponent of every basis index, read-only.

    The exponent is the sum of the 1-based zero positions minus Z(Z+1)/2:
    it counts how far the Z zeros sit to the right of the fully
    left-packed string, so it is 0 when all zeros are leading.  Equally,
    it counts the (one, zero) pairs with the one to the left.

    The table grows by one leading site per step: a leading zero adds one
    to Z and leaves the exponent, a leading one adds Z to the exponent.
    The last table is kept, since a catalogue reads it once per state.
    """
    size = 2 ** n_sites
    zeros = np.zeros(size, dtype=np.min_scalar_type(n_sites))
    exponent = np.zeros(size, dtype=np.min_scalar_type(n_sites ** 2 // 4))
    half = 1
    while half < size:
        exponent[half:2 * half] = exponent[:half] + zeros[:half]
        zeros[half:2 * half] = zeros[:half]
        zeros[:half] += 1
        half *= 2
    zeros.flags.writeable = False
    exponent.flags.writeable = False
    return zeros, exponent


def _signed_powers(ratio, max_exponent: int) -> np.ndarray:
    """Table t[s, e] = (-1.0)**s * complex(ratio)**e, each entry taken in
    Python: numpy's elementwise complex power may round differently."""
    powers = [complex(ratio) ** e for e in range(max_exponent + 1)]
    return np.array([[sign * w for w in powers] for sign in (1.0, -1.0)])


def psi_k(n_sites: int, m_period: int, k: int, ratio) -> StateVector:
    """Weighted sum over all strings with exactly k*m_period zeros.

    The weight of a string is ratio ** (its zeta exponent, see
    _zero_counts), and ratio must be a primitive root of unity of order
    exactly m_period.
    """
    _check_sites(n_sites)
    if m_period < 1:
        raise ValueError("m_period must be at least 1")
    if n_sites % m_period != 0:
        raise ValueError("n_sites must be a multiple of m_period")
    if not 0 <= k * m_period <= n_sites:
        raise ValueError("k*m_period must lie between 0 and n_sites")
    if order_of_unit_root(ratio, max_order=max(m_period, 1)) != m_period:
        raise ValueError(
            f"ratio must be a primitive root of unity of order {m_period}")
    zeros, exponent = _zero_counts(n_sites)
    sel = zeros == k * m_period
    e = exponent[sel]
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[sel] = _signed_powers(ratio, int(e.max()))[0, e]
    return StateVector(n_sites, amps)


def psi_prime(n_sites: int, ratio=-1.0) -> StateVector:
    """Alternating-sign sum over even-zero-count strings, weight
    ratio ** (zeta exponent) * (-1)^(half the zero count).  Defined for
    even chains and ratio -1."""
    _check_sites(n_sites)
    if n_sites % 2 != 0:
        raise ValueError("n_sites must be even")
    if abs(complex(ratio) + 1.0) > ROOT_TOL:
        raise ValueError("ratio must be -1")
    zeros, exponent = _zero_counts(n_sites)
    even = zeros % 2 == 0
    e = exponent[even]
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[even] = _signed_powers(ratio, int(e.max()))[zeros[even] // 2 % 2, e]
    return StateVector(n_sites, amps)


def psi_parity(n_sites: int, parity: str,
               literal_bounds: bool = False) -> StateVector:
    """Alternating-sign sums over fixed-parity zero counts.

    parity 'even': amplitude (-1)^k on strings with 2k zeros, k from 0.
    parity 'odd':  amplitude (-1)^k on strings with 2k+1 zeros, k from 0.
    literal_bounds=True starts the odd sum at k = 1 instead, which leaves
    single-zero strings with amplitude zero (and produces the zero vector
    on two sites); that variant leaves the kernel from three sites on.
    """
    _check_sites(n_sites)
    fewest = {"even": 0, "odd": 3 if literal_bounds else 1}.get(parity)
    if fewest is None:
        raise ValueError("parity must be 'even' or 'odd'")
    zeros, _ = _zero_counts(n_sites)
    sel = (zeros % 2 == fewest % 2) & (zeros >= fewest)
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[sel] = np.where(zeros[sel] // 2 % 2 == 0, 1.0, -1.0)
    return StateVector(n_sites, amps)


def hardcore_states(n_sites: int) -> list:
    """The no-adjacent-zeros product basis states, lex order by string."""
    _check_sites(n_sites)
    z = ~np.arange(2 ** n_sites) & (2 ** n_sites - 1)
    # ascending index is lexicographic order of the strings
    return [NamedState(format(idx, f"0{n_sites}b"),
                       StateVector._basis(n_sites, idx))
            for idx in np.flatnonzero(z & (z >> 1) == 0).tolist()]


# ---------------------------------------------------------------------------
# bond-matrix states

@dataclass(frozen=True)
class MPSSpec:
    """A pair of square bond matrices (a0 for symbol 0, a1 for symbol 1)."""

    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        a0 = np.atleast_2d(np.array(self.a0, dtype=complex))
        a1 = np.atleast_2d(np.array(self.a1, dtype=complex))
        if a0.shape != a1.shape or a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError("bond matrices must be square and equal sized")
        if not (np.all(np.isfinite(a0)) and np.all(np.isfinite(a1))):
            raise ValueError("non-finite bond matrices")
        a0.flags.writeable = False
        a1.flags.writeable = False
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)

    @property
    def bond_dim(self) -> int:
        return self.a0.shape[0]


@dataclass(frozen=True)
class MPSResult:
    """Raw trace amplitudes, their squared sum z, and a zero-state flag.

    normalized is None exactly when is_zero: a bond representation can
    produce the zero vector (nilpotent matrices), which still satisfies
    every constraint but spans nothing.
    """

    state: StateVector
    z: float
    is_zero: bool
    normalized: StateVector | None


def transfer_matrix(spec: MPSSpec) -> np.ndarray:
    """kron(conj(a0), a0) + kron(conj(a1), a1); its N-th power traces to
    the squared norm of the N-site state."""
    return (np.kron(np.conj(spec.a0), spec.a0)
            + np.kron(np.conj(spec.a1), spec.a1))


def _half_products(spec: MPSSpec, n_bits: int, prepend: bool) -> np.ndarray:
    """All 2^n_bits ordered products of bond matrices, bits most
    significant first.  With prepend=False bit b extends products on the
    right (prefixes); with prepend=True on the left (suffixes)."""
    d = spec.bond_dim
    out = np.broadcast_to(np.eye(d, dtype=complex), (1, d, d)).copy()
    for _ in range(n_bits):
        nxt = np.empty((2 * out.shape[0], d, d), dtype=complex)
        if prepend:
            nxt[:out.shape[0]] = spec.a0 @ out
            nxt[out.shape[0]:] = spec.a1 @ out
        else:
            nxt[0::2] = out @ spec.a0
            nxt[1::2] = out @ spec.a1
        out = nxt
    return out


def mps_contract(spec: MPSSpec, n_sites: int) -> MPSResult:
    """Evaluate all trace amplitudes of the N-site bond-matrix state.

    Meets in the middle: amplitudes factor as tr(P S) over prefix and
    suffix products, which is a single flat matrix product.  The state is
    zero when z < MPS_ZERO_TOL (|A0|_F^2 + |A1|_F^2)^N.
    """
    _check_sites(n_sites)
    # Work with the bond matrices times 2**-f, their largest real or
    # imaginary part brought into [0.5, 1).  Scaling by a power of two is
    # exact, so amplitudes and z come out bit for bit as from the raw
    # matrices wherever those stay in range; where they overflow or
    # underflow, z becomes inf or 0 (never nan) while the zero test and
    # the normalized state stay right.
    f = math.frexp(max(np.abs(spec.a0.view(float)).max(),
                       np.abs(spec.a1.view(float)).max()))[1]
    scaled = MPSSpec(_times_power_of_two(spec.a0, -f),
                     _times_power_of_two(spec.a1, -f))
    d = spec.bond_dim
    m1 = n_sites // 2
    m2 = n_sites - m1
    pref = _half_products(scaled, m1, prepend=False).reshape(2 ** m1, d * d)
    suff = _half_products(scaled, m2, prepend=True)
    suff = suff.transpose(0, 2, 1).reshape(2 ** m2, d * d)
    amps = (pref @ suff.T).ravel()

    t = transfer_matrix(scaled)
    tr = float(np.real(np.trace(np.linalg.matrix_power(t, n_sites))))
    # scale bound: z can never exceed (|a0|_F^2 + |a1|_F^2)^N; both sides
    # carry the same factor 2**(2fN), so the scaled values compare alike
    s = np.linalg.norm(scaled.a0) ** 2 + np.linalg.norm(scaled.a1) ** 2
    if s == 0.0 or tr <= 0.0:
        is_zero = True
    else:
        is_zero = np.log(tr) < n_sites * np.log(s) + np.log(MPS_ZERO_TOL)
    # amps carry the factor 2**-(fN) too, so their squared sum is about tr
    # and in range whenever the state is not zero
    normalized = None if is_zero else StateVector(
        n_sites, amps / np.linalg.norm(amps))
    # the raw state last, so at most four 2^N arrays are alive at once;
    # out of range, z reads inf and the raw amplitudes are refused
    with np.errstate(over="ignore"):
        z = float(np.ldexp(tr, 2 * f * n_sites))
        amps = _times_power_of_two(amps, f * n_sites)
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"contracted amplitudes exceed the float range "
                         f"at n_sites={n_sites}")
    state = StateVector(n_sites, amps)
    return MPSResult(state=state, z=max(z, 0.0), is_zero=is_zero,
                     normalized=normalized)


# ---------------------------------------------------------------------------
# catalogued bond representations per canonical case

@dataclass(frozen=True)
class CaseRepresentation:
    """Bond matrices plus the constraint space they annihilate."""

    spec: MPSSpec
    space: CSpace


def constraint_residual(space: CSpace, spec: MPSSpec) -> float:
    """max over basis constraints of |C00 A0A0 + C01 A0A1 + C10 A1A0 +
    C11 A1A1|_F, relative to the bond matrix scale."""
    a = (spec.a0, spec.a1)
    scale = max(1.0, float(np.linalg.norm(a[0]) * np.linalg.norm(a[1])))
    worst = 0.0
    for q in space.basis:
        c = q.matrix()
        acc = np.zeros_like(a[0])
        for i in (0, 1):
            for j in (0, 1):
                acc = acc + c[i, j] * (a[i] @ a[j])
        worst = max(worst, float(np.linalg.norm(acc)) / scale)
    return worst


def _shift_matrix(m: int) -> np.ndarray:
    v = np.zeros((m, m), dtype=complex)
    for j in range(m):
        v[(j + 1) % m, j] = 1.0
    return v


_E01_2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def representation_for_case(form: CanonicalForm,
                            params: dict | None = None) -> CaseRepresentation:
    """Catalogued bond matrices annihilating the canonical space of a case.

    Raises NoRepresentationError where the catalogue has none: the
    tilted regular plane, both full-symmetric cases, the full space, a
    non-null line whose modulus is not matched to a root of unity, and
    the regular plane away from modulus zero.
    """
    params = params or {}
    case = form.case_id

    if case is CaseId.EMPTY:
        return CaseRepresentation(
            MPSSpec(np.eye(1), np.eye(1)), canonical_space(form))
    if case is CaseId.ANTISYMMETRIC_LINE:
        return CaseRepresentation(
            MPSSpec(np.diag([1.0, 2.0]), np.diag([3.0, 1.0])),
            canonical_space(form))
    if case is CaseId.NONNULL_LINE:
        mu = complex(form.mu)
        if abs(mu - 1.0) <= ROOT_TOL:
            raise NoRepresentationError(
                "modulus 1 collapses the commutation factor")
        omega = (1.0 + mu) / (mu - 1.0)
        m = order_of_unit_root(omega)
        if m is None:
            raise NoRepresentationError(
                f"commutation factor {omega} is not a root of unity of "
                f"order at most {MAX_ROOT_ORDER}")
        clock = np.diag(omega ** np.arange(m)).astype(complex)
        return CaseRepresentation(
            MPSSpec(_shift_matrix(m), clock), canonical_space(form))
    if case is CaseId.NONNULL_LINE_SIGMA:
        return CaseRepresentation(
            MPSSpec(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            canonical_space(form))
    if case in (CaseId.NULL_LINE, CaseId.NULL_LINE_TILTED,
                CaseId.NULL_LINE_SIGMA):
        return CaseRepresentation(
            MPSSpec(_E01_2, np.eye(2)), canonical_space(form))
    if case is CaseId.REGULAR_PLANE:
        if params.get("branch") == "commuting":
            # scalar pair with a0^2 + a1^2 = 0 and [a0, a1] = 0: it
            # annihilates span{tau0, sigma}, the plane this branch of the
            # parameter space actually degenerates to
            return CaseRepresentation(
                MPSSpec(np.eye(1), 1j * np.eye(1)),
                CSpace([PauliQuartet(1, 0, 0, 0), PauliQuartet(0, 0, 0, 1)]))
        if abs(complex(form.mu)) > ROOT_TOL:
            raise NoRepresentationError(
                "regular plane has a representation only at modulus zero")
        return CaseRepresentation(
            MPSSpec(np.diag([1.0, -1.0]),
                    np.array([[0.0, 1.0j], [1.0j, 0.0]])),
            canonical_space(form))
    if case is CaseId.DEGENERATE_PLANE:
        mu = complex(form.mu)
        diag = np.diag([1.0 + mu, mu - 1.0, 1.0]).astype(complex)
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1.0
        return CaseRepresentation(MPSSpec(e01, diag), canonical_space(form))
    if case is CaseId.DEGENERATE_PLANE_TILTED:
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1.0
        a1 = -e01.copy()
        a1[2, 2] = 1.0
        return CaseRepresentation(MPSSpec(e01, a1), canonical_space(form))
    if case is CaseId.DEGENERATE_PLANE_SIGMA:
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1.0
        e22 = np.zeros((3, 3), dtype=complex)
        e22[2, 2] = 1.0
        return CaseRepresentation(MPSSpec(e01, e22), canonical_space(form))
    raise NoRepresentationError(
        f"no catalogued bond representation for {case.value}")


def transform_state(state: StateVector, g: SL2) -> StateVector:
    """Push a chain state through the inverse one-site action on every
    site: the companion of the pair-energy congruence transform."""
    m = g.inverse().matrix
    t = state.amplitudes.reshape((2,) * state.n_sites)
    for axis in range(state.n_sites):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [axis])), 0, axis)
    return StateVector(state.n_sites, t.ravel())


# ---------------------------------------------------------------------------
# which states go with which family

def ground_state_catalogue(params: FamilyParams,
                           n_sites: int) -> list:
    """The catalogued zero-energy states of a family on n_sites sites.

    Returns NamedState entries, unnormalized.  The list is exactly what
    the catalogue pairs with the family; it is not always a full kernel
    basis, and for the pair-sum exchange family away from nu_prime =
    +/- nu it is empty.
    """
    _check_sites(n_sites)
    if n_sites < 2:
        raise ValueError("a chain needs at least 2 sites")
    fam = params.family
    psi0 = NamedState("psi0", product_state("0", n_sites))
    psi1 = NamedState("psi1", product_state("1", n_sites))

    if fam is FamilyId.EXCHANGE:
        out = [psi0, psi1]
        if params.nu != 0:
            ratio = params.nu_prime / params.nu
            m = order_of_unit_root(ratio)
            if m is not None and n_sites % m == 0:
                for k in range(1, n_sites // m):
                    out.append(NamedState(
                        f"psi_k{k}", psi_k(n_sites, m, k, ratio)))
        return out
    if fam is FamilyId.HARDCORE:
        return hardcore_states(n_sites)
    if fam is FamilyId.ANTIALIGNED:
        return [psi0, psi1]
    if fam in (FamilyId.HARDCORE_MIXED, FamilyId.HARDCORE_SINGLET,
               FamilyId.HARDCORE_EXCHANGE, FamilyId.MIXED_SINGLET,
               FamilyId.PINNED):
        return [psi1]
    if fam is FamilyId.PAIRSUM_EXCHANGE:
        scale = max(abs(params.nu), abs(params.nu_prime))
        if abs(params.nu_prime + params.nu) <= 1e-12 * scale:
            if n_sites % 2 != 0:
                return []
            return [NamedState("psi_prime", psi_prime(n_sites))]
        if abs(params.nu_prime - params.nu) <= 1e-12 * scale:
            return [NamedState("psi_parity_odd",
                               psi_parity(n_sites, "odd")),
                    NamedState("psi_parity_even",
                               psi_parity(n_sites, "even"))]
        return []
    raise ValueError(f"unknown family {fam!r}")
