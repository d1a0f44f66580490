"""Chain states: explicit kernel vectors and bond-matrix constructions.

Conventions shared by everything here:

 - a chain state on N two-state sites is a vector of 2^N amplitudes in
   the product basis, site 1 most significant, so the basis index of a
   bit string is just its value as a binary number;
 - states are returned UNNORMALIZED (their components are exact small
   integers or powers of a ratio); call .normalized() when needed;
 - the catalogue's states (product_state, hardcore_states, psi_k,
   psi_prime, psi_parity) keep a recipe, not a vector: each read of
   .amplitudes builds a fresh read-only vector that is kept nowhere,
   while bad arguments are refused when the state is made;
 - the weighted sums read one table of zero counts and zeta exponents,
   computed once per chain length;
 - bond-matrix (MPS) states assign amplitude tr(A^{s1} ... A^{sN}) to
   the string s.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (FamilyId, FamilyParams, max_sites)

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

    A state holds one of three things: its dense read-only vector
    (StateVector(n, amplitudes), mps_contract results, normalized
    copies); the basis index, a Python int, of a product basis state
    (product_state, hardcore_states), whose norm is 1 and which is its
    own normalization; or a recipe, a functools.partial of a
    module-level builder that returns a fresh vector.  Every read of
    .amplitudes on a basis or recipe state builds a new read-only vector
    that is kept nowhere, so a list of such states holds no 2^N array.
    Norms are summed by numpy itself (_squared_norm), so they do not
    depend on the BLAS thread count.
    """

    __slots__ = ("n_sites", "_held")

    def __new__(cls, n_sites: int, amplitudes):
        amps = np.array(amplitudes, dtype=complex).ravel()
        if n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        if amps.shape != (2 ** n_sites,):
            raise ValueError("amplitude count must be 2**n_sites")
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitudes")
        return cls._of(n_sites, amps)

    @classmethod
    def _of(cls, n_sites: int, held) -> "StateVector":
        """The state that holds held, taken as it is, neither copied nor
        checked: a fresh finite complex vector of 2^n_sites entries that
        no one else holds, made read-only here; a basis index, as a
        Python int; or a functools.partial whose call builds such a
        vector afresh."""
        if isinstance(held, np.ndarray):
            held.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "n_sites", n_sites)
        object.__setattr__(state, "_held", held)
        return state

    @property
    def _index(self) -> int | None:
        """The basis index of a product basis state, else None."""
        return self._held if isinstance(self._held, int) else None

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the state through _of, which
        # leaves a copied vector read-only too
        return self._of, (self.n_sites, self._held)

    def __repr__(self) -> str:
        if self._index is not None:
            held = f"index={self._index}"
        elif isinstance(self._held, np.ndarray):
            held = f"amplitudes={self._held!r}"
        else:
            args = ", ".join(map(repr, self._held.args))
            held = f"recipe={self._held.func.__name__}({args})"
        return f"StateVector(n_sites={self.n_sites}, {held})"

    @property
    def amplitudes(self) -> np.ndarray:
        if isinstance(self._held, np.ndarray):
            return self._held
        if self._index is None:
            amps = self._held()
        else:
            amps = np.zeros(2 ** self.n_sites, dtype=complex)
            amps[self._index] = 1.0
        amps.flags.writeable = False
        return amps

    def _scaled(self):
        """(amplitudes * 2**-f, f), f the binary exponent of their largest
        real or imaginary part: exact, and safe to square."""
        amps = self.amplitudes
        f = math.frexp(np.abs(amps.view(float)).max())[1]
        return _times_power_of_two(amps, -f), f

    def norm(self) -> float:
        """Euclidean norm, inf only when the norm itself is out of range;
        the power-of-two scaling leaves in-range results bit for bit."""
        if self._index is not None:
            return 1.0
        scaled, f = self._scaled()
        with np.errstate(over="ignore"):
            return float(np.ldexp(math.sqrt(_squared_norm(scaled)), f))

    def normalized(self) -> "StateVector":
        if self._index is not None:
            return self
        scaled, _ = self._scaled()
        n = math.sqrt(_squared_norm(scaled))
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector._of(self.n_sites, scaled / n)


def _squared_norm(amps: np.ndarray) -> float:
    """The sum of the squares of the real and of the imaginary parts of
    amps, the two sums as np.linalg.norm splits them but each by numpy's
    pairwise summation, which, unlike a BLAS dot, no thread count
    changes."""
    re, im = amps.real, amps.imag
    return float(np.add.reduce(re * re) + np.add.reduce(im * im))


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
    return StateVector._of(n_sites, index)


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


def _powers(ratio, max_exponent: int) -> np.ndarray:
    """Table t[e] = z**e, z = complex(ratio), for e up to max_exponent,
    every entry by the binary exponentiation CPython's z**e uses up to
    e = 100: 1 times z^(2^b) for each set bit b of e, lowest first, each
    square the one before squared.  So t[e] is t[e without its top bit]
    times the top bit's square, in Python complex arithmetic, and equals
    z**e bit for bit up to 100.  Past 100 CPython switches to the polar
    formula, whose (-1+0j)**101 is (-1+8.8e-15j); the products here keep
    the powers of -1 and of 1j exact at every exponent.
    """
    squares, table = [complex(ratio)], [1 + 0j]
    for e in range(1, max_exponent + 1):
        top = e.bit_length() - 1
        if top == len(squares):
            squares.append(squares[-1] * squares[-1])
        table.append(table[e - (1 << top)] * squares[top])
    return np.array(table)


def psi_k(n_sites: int, m_period: int, k: int, ratio) -> StateVector:
    """Weighted sum over all strings with exactly k*m_period zeros.

    The weight of a string is ratio ** (its zeta exponent, see
    _zero_counts), and ratio must be a primitive root of unity of order
    exactly m_period.  The arguments are checked here; the amplitudes are
    built on each read.
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
    return StateVector._of(n_sites, functools.partial(
        _psi_k_amplitudes, n_sites, k * m_period, ratio))


def _psi_k_amplitudes(n_sites: int, n_zeros: int, ratio) -> np.ndarray:
    zeros, exponent = _zero_counts(n_sites)
    sel = zeros == n_zeros
    e = exponent[sel]
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[sel] = _powers(ratio, int(e.max()))[e]
    return amps


def psi_prime(n_sites: int) -> StateVector:
    """Alternating-sign sum over even-zero-count strings, weight
    (-1)^(zeta exponent + half the zero count).  Defined for even chains;
    built on each read."""
    _check_sites(n_sites)
    if n_sites % 2 != 0:
        raise ValueError("n_sites must be even")
    return StateVector._of(n_sites, functools.partial(
        _psi_prime_amplitudes, n_sites))


def _psi_prime_amplitudes(n_sites: int) -> np.ndarray:
    zeros, exponent = _zero_counts(n_sites)
    even = zeros % 2 == 0
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[even] = np.where((exponent[even] + zeros[even] // 2) % 2, -1.0, 1.0)
    return amps


def psi_parity(n_sites: int, parity: str,
               literal_bounds: bool = False) -> StateVector:
    """Alternating-sign sums over fixed-parity zero counts, built on each
    read.

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
    return StateVector._of(n_sites, functools.partial(
        _psi_parity_amplitudes, n_sites, fewest))


def _psi_parity_amplitudes(n_sites: int, fewest: int) -> np.ndarray:
    zeros, _ = _zero_counts(n_sites)
    sel = (zeros % 2 == fewest % 2) & (zeros >= fewest)
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[sel] = np.where(zeros[sel] // 2 % 2 == 0, 1.0, -1.0)
    return amps


def hardcore_states(n_sites: int) -> list:
    """The no-adjacent-zeros product basis states, lex order by string."""
    _check_sites(n_sites)
    z = ~np.arange(2 ** n_sites) & (2 ** n_sites - 1)
    # ascending index is lexicographic order of the strings
    index = np.flatnonzero(z & (z >> 1) == 0)
    # each index's bits, most significant first, as the bytes of its label
    bits = index[:, None] >> np.arange(n_sites - 1, -1, -1) & 1
    labels = (bits + ord("0")).astype(np.uint8).view(f"S{n_sites}")
    return [NamedState(label, StateVector._of(n_sites, idx))
            for label, idx in zip(labels.astype(str).ravel().tolist(),
                                  index.tolist())]


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

    @classmethod
    def _of(cls, a0: np.ndarray, a1: np.ndarray) -> "MPSSpec":
        """The spec of a0 and a1 taken as they are, neither copied nor
        checked: finite complex square matrices of one shape that no one
        writes, made read-only here."""
        a0.flags.writeable = False
        a1.flags.writeable = False
        spec = object.__new__(cls)
        object.__setattr__(spec, "a0", a0)
        object.__setattr__(spec, "a1", a1)
        return spec

    def __reduce__(self):
        # rebuilt through _of, so copied matrices stay read-only
        return self._of, (self.a0, self.a1)

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


def _half_products(a0: np.ndarray, a1: np.ndarray,
                   n_bits: int) -> np.ndarray:
    """All 2^n_bits ordered products A_s1 ... A_sn of bond matrices, the
    word s read as bits most significant first.

    Each bit extends every product on the right by one matrix product
    against both bond matrices side by side, [a0 a1].
    """
    d = a0.shape[0]
    out = np.eye(d, dtype=complex)[None]
    both = np.concatenate([a0, a1], axis=1)
    for _ in range(n_bits):
        out = out.reshape(-1, d) @ both
        out = out.reshape(-1, d, 2, d).transpose(0, 2, 1, 3)
        out = out.reshape(-1, d, d)
    return out


def mps_contract(spec: MPSSpec, n_sites: int) -> MPSResult:
    """Evaluate all trace amplitudes of the N-site bond-matrix state.

    Meets in the middle: amplitudes factor as tr(P S) over prefix and
    suffix products, which is a single flat matrix product.  The 2^(N//2)
    words of N//2 bond matrices are built once and serve as both the
    prefixes and the suffixes; at odd N each suffix takes one more bond
    matrix on the left.  The state is zero when z < MPS_ZERO_TOL
    (|A0|_F^2 + |A1|_F^2)^N.
    """
    _check_sites(n_sites)
    # Work with the bond matrices times 2**-f, their largest real or
    # imaginary part brought into [0.5, 1).  Scaling by a power of two is
    # exact, so amplitudes and z come out bit for bit as from the raw
    # matrices wherever those stay in range; where they overflow or
    # underflow, z becomes inf or 0 (never nan) while the zero test and
    # the normalized state stay right.
    both = np.stack([spec.a0, spec.a1])
    f = math.frexp(np.abs(both.view(float)).max())[1]
    both = _times_power_of_two(both, -f)
    a0, a1 = both
    d = spec.bond_dim
    words = _half_products(a0, a1, n_sites // 2)
    suff = words if n_sites % 2 == 0 else (
        both[:, None] @ words).reshape(-1, d, d)
    amps = (words.reshape(-1, d * d)
            @ suff.transpose(0, 2, 1).reshape(-1, d * d).T).ravel()

    # the squared sum of the scaled amplitudes themselves, as norm()
    # forms it: an exact zero state keeps only the rounding of its own
    # amplitudes, far below the scale bound
    zs = _squared_norm(amps)
    # scale bound: z can never exceed (|a0|_F^2 + |a1|_F^2)^N; both sides
    # carry the same factor 2**(2fN), so the scaled values compare alike
    s = np.linalg.norm(a0) ** 2 + np.linalg.norm(a1) ** 2
    is_zero = bool(zs == 0.0 or np.log(zs) < n_sites * np.log(s)
                   + np.log(MPS_ZERO_TOL))
    normalized = None if is_zero else StateVector._of(
        n_sites, amps / math.sqrt(zs))
    # the raw state last, so at most four 2^N arrays are alive at once;
    # out of range, z reads inf and the raw amplitudes are refused
    with np.errstate(over="ignore"):
        z = float(np.ldexp(zs, 2 * f * n_sites))
        amps = _times_power_of_two(amps, f * n_sites)
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"contracted amplitudes exceed the float range "
                         f"at n_sites={n_sites}")
    return MPSResult(state=StateVector._of(n_sites, amps),
                     z=z, is_zero=is_zero, normalized=normalized)


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
    from .pauli import _TO_FLAT
    a0, a1 = spec.a0, spec.a1
    scale = max(1.0, float(np.linalg.norm(a0) * np.linalg.norm(a1)))
    # (C00, C01, C10, C11) of every constraint against the four products
    # A0A0, A0A1, A1A0, A1A1, each flattened
    products = np.stack([a0 @ a0, a0 @ a1, a1 @ a0, a1 @ a1]).reshape(4, -1)
    acc = space.coefficient_matrix() @ _TO_FLAT @ products
    return float(np.max(np.linalg.norm(acc, axis=1), initial=0.0)) / scale


def _shift_matrix(m: int) -> np.ndarray:
    v = np.zeros((m, m), dtype=complex)
    for j in range(m):
        v[(j + 1) % m, j] = 1.0
    return v


_E01_2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_E01_3 = np.zeros((3, 3), dtype=complex)
_E01_3[0, 1] = 1.0
_E22_3 = np.zeros((3, 3), dtype=complex)
_E22_3[2, 2] = 1.0


@functools.cache
def _fixed_representations() -> dict:
    """The representations of the cases that carry no modulus, built on
    the first call, which loads classify for their spaces: the state
    builders and mps_contract do not need it.  MPSSpec and CSpace are
    read-only, so every caller can share them."""
    from .classify import CanonicalForm, CaseId, canonical_space
    bonds = {
        CaseId.EMPTY: (np.eye(1), np.eye(1)),
        CaseId.ANTISYMMETRIC_LINE: (np.diag([1.0, 2.0]),
                                    np.diag([3.0, 1.0])),
        CaseId.NONNULL_LINE_SIGMA: (np.diag([1.0, 0.0]),
                                    np.diag([0.0, 1.0])),
        CaseId.NULL_LINE: (_E01_2, np.eye(2)),
        CaseId.NULL_LINE_TILTED: (_E01_2, np.eye(2)),
        CaseId.NULL_LINE_SIGMA: (_E01_2, np.eye(2)),
        CaseId.DEGENERATE_PLANE_TILTED: (_E01_3, -_E01_3 + _E22_3),
        CaseId.DEGENERATE_PLANE_SIGMA: (_E01_3, _E22_3),
    }
    return {case: CaseRepresentation(MPSSpec(a0, a1),
                                     canonical_space(CanonicalForm(case)))
            for case, (a0, a1) in bonds.items()}


def representation_for_case(form, params: dict | None = None
                            ) -> CaseRepresentation:
    """Catalogued bond matrices annihilating the canonical space of a case.

    Raises NoRepresentationError where the catalogue has none: the
    tilted regular plane, both full-symmetric cases, the full space, a
    non-null line whose modulus is not matched to a root of unity, and
    the regular plane away from modulus zero.  form is a
    classify.CanonicalForm.

    The bond pairs built here are fresh, finite and complex, so they
    take MPSSpec's trusted path.
    """
    case = form.case_id
    fixed = _fixed_representations().get(case)
    if fixed is not None:
        return fixed
    from .classify import CaseId, canonical_space
    from .pauli import CSpace, PauliQuartet
    params = params or {}
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
            MPSSpec._of(_shift_matrix(m), clock), canonical_space(form))
    if case is CaseId.REGULAR_PLANE:
        if params.get("branch") == "commuting":
            # scalar pair with a0^2 + a1^2 = 0 and [a0, a1] = 0: it
            # annihilates span{tau0, sigma}, the plane this branch of the
            # parameter space actually degenerates to
            return CaseRepresentation(
                MPSSpec._of(np.eye(1, dtype=complex), 1j * np.eye(1)),
                CSpace([PauliQuartet(1, 0, 0, 0), PauliQuartet(0, 0, 0, 1)]))
        if abs(complex(form.mu)) > ROOT_TOL:
            raise NoRepresentationError(
                "regular plane has a representation only at modulus zero")
        return CaseRepresentation(
            MPSSpec._of(np.diag([1.0, -1.0]).astype(complex),
                        np.array([[0.0, 1.0j], [1.0j, 0.0]])),
            canonical_space(form))
    if case is CaseId.DEGENERATE_PLANE:
        mu = complex(form.mu)
        if not cmath.isfinite(mu):
            raise ValueError("non-finite bond matrices")
        diag = np.diag([1.0 + mu, mu - 1.0, 1.0]).astype(complex)
        return CaseRepresentation(MPSSpec._of(_E01_3, diag),
                                  canonical_space(form))
    raise NoRepresentationError(
        f"no catalogued bond representation for {case.value}")


# ---------------------------------------------------------------------------
# which states go with which family

def ground_state_catalogue(params: FamilyParams,
                           n_sites: int) -> list:
    """The catalogued zero-energy states of a family on n_sites sites.

    Returns NamedState entries, unnormalized, each state holding its
    recipe rather than its vector.  The list is exactly what
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
