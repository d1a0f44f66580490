"""Local pair Hamiltonians h = R* Lambda R and their open-chain sums.

A constraint functional E acts on a pair of neighbouring two-state sites
through its coefficient row (E00, E01, E10, E11) in the product basis
(|00>, |01>, |10>, |11>), first site most significant.  Stacking the rows
of the chosen functionals into R and weighting with a Hermitian
positive-semidefinite Lambda gives the positive pair energy

    h = R^dagger Lambda R,

whose kernel is exactly the joint kernel of the functionals.  The module
provides that generic constructor, a catalogue of nine named families
with validated parameters (each family is defined by its constraint rows
and weight, and built through the same constructor), and the open-chain
embedding H = sum_i h_{i,i+1}.
"""

from __future__ import annotations

import cmath
import os
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

# Relative tolerance for Hermiticity of inputs and outputs.
HERMITICITY_TOL = 1e-12

# Relative slack when checking positive semidefiniteness.
PSD_TOL = 1e-10

# chain_entries (and so every chain, sparse or dense) refuses chains above
# this site count unless the MPS_MAX_SITES environment variable raises it.
DEFAULT_MAX_SITES = 14

# chain_row_blocks fills this many bytes of dense rows at a time (one
# whole row when a row is larger).
ROW_BLOCK_BYTES = 1 << 20


class ParameterError(ValueError):
    """A family parameter set is incomplete or out of range."""


class ChainSizeError(ValueError):
    """The requested chain length is outside the site guard."""


class FamilyId(str, Enum):
    """Named pair-energy families."""

    EXCHANGE = "exchange"
    HARDCORE = "hardcore"
    HARDCORE_MIXED = "hardcore-mixed"
    ANTIALIGNED = "antialigned"
    HARDCORE_SINGLET = "hardcore-singlet"
    PAIRSUM_EXCHANGE = "pairsum-exchange"
    HARDCORE_EXCHANGE = "hardcore-exchange"
    MIXED_SINGLET = "mixed-singlet"
    PINNED = "pinned"


def max_sites(default: int = DEFAULT_MAX_SITES) -> int:
    """Site guard, overridable through MPS_MAX_SITES."""
    env = os.environ.get("MPS_MAX_SITES")
    if env is None:
        return default
    try:
        limit = int(env)
    except ValueError as exc:
        raise ChainSizeError(f"MPS_MAX_SITES={env!r} is not an integer") \
            from exc
    if limit < 1:
        raise ChainSizeError(f"MPS_MAX_SITES={env!r} is below 1")
    return limit


@dataclass(frozen=True)
class FamilyParams:
    """Validated coupling constants for one family.

    Unused fields stay None; which ones are required depends on the
    family (its entry in _FAMILIES).
    """

    family: FamilyId
    g: float | None = None
    g1: float | None = None
    g2: float | None = None
    g3: complex | None = None
    nu: complex | None = None
    nu_prime: complex | None = None
    lambda3: np.ndarray | None = None

    def _number(self, name: str) -> complex:
        try:
            c = complex(getattr(self, name))
        except OverflowError:  # an integer beyond the float range
            raise ParameterError(f"{name} must be finite") from None
        if not cmath.isfinite(c):
            raise ParameterError(f"{name} must be finite")
        return c

    def _real(self, name: str) -> float:
        c = self._number(name)
        if c.imag != 0.0:
            raise ParameterError(f"{name} must be real")
        return float(c.real)

    def __post_init__(self):
        fam = FamilyId(self.family)
        object.__setattr__(self, "family", fam)
        required = _FAMILIES[fam][0]
        for name in required:
            if getattr(self, name) is None:
                raise ParameterError(f"{fam.value} requires parameter {name}")
        for name in _PARAM_NAMES:
            if name not in required and getattr(self, name) is not None:
                raise ParameterError(
                    f"{fam.value} does not take parameter {name}")
        if "g" in required:
            g = self._real("g")
            if g <= 0.0:
                raise ParameterError("g must be positive")
            object.__setattr__(self, "g", g)
        if "g1" in required:
            g1, g2 = self._real("g1"), self._real("g2")
            g3 = self._number("g3")
            if g1 < 0.0 or g2 < 0.0:
                raise ParameterError("g1 and g2 must be nonnegative")
            _check_hermitian_psd(
                np.array([[g1, g3], [np.conj(g3), g2]]),
                "weight matrix [[g1, g3], [conj(g3), g2]]", ParameterError)
            object.__setattr__(self, "g1", g1)
            object.__setattr__(self, "g2", g2)
            object.__setattr__(self, "g3", g3)
        if "nu" in required:
            nu, nup = self._number("nu"), self._number("nu_prime")
            if max(abs(nu), abs(nup)) == 0.0:
                raise ParameterError("nu and nu_prime cannot both vanish")
            object.__setattr__(self, "nu", nu)
            object.__setattr__(self, "nu_prime", nup)
        if "lambda3" in required:
            lam = np.array(self.lambda3, dtype=complex)
            if lam.shape != (3, 3):
                raise ParameterError("lambda3 must be a 3x3 matrix")
            if not np.all(np.isfinite(lam)):
                raise ParameterError("lambda3 must be finite")
            _check_hermitian_psd(lam, "weight matrix", ParameterError)
            lam.flags.writeable = False
            object.__setattr__(self, "lambda3", lam)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the parameters through the
        # constructor, which leaves a copied lambda3 read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# the coupling constants of FamilyParams, in declaration order
_PARAM_NAMES = tuple(f.name for f in fields(FamilyParams)
                     if f.name != "family")


def params_from_mapping(family, mapping) -> FamilyParams:
    """Build FamilyParams from a plain dict (CLI/JSON friendly)."""
    fam = FamilyId(family)
    extra = set(mapping) - set(_PARAM_NAMES)
    if extra:
        raise ParameterError(f"unknown parameters: {sorted(extra)}")
    return FamilyParams(family=fam, **dict(mapping))


def _check_hermitian_psd(m: np.ndarray, name: str, error: type) -> None:
    """Raise error(f"{name} is not ...") unless m is Hermitian to
    HERMITICITY_TOL and positive semidefinite to PSD_TOL (relative)."""
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * scale:
        raise error(f"{name} is not Hermitian")
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -PSD_TOL * max(1.0, evals[-1]):
        raise error(f"{name} is not positive semidefinite")


@dataclass(frozen=True)
class LocalHamiltonian:
    """A 4x4 Hermitian positive-semidefinite pair energy."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        _check_hermitian_psd(m, "pair energy", ValueError)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        # rebuilt through the constructor, so a copy stays read-only
        return type(self), (self.matrix,)


@dataclass(frozen=True)
class FullHamiltonian:
    """Open-chain sum of one pair energy over all nearest neighbours."""

    n_sites: int
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# pair energies: h = R^dagger Lambda R

def local_from_espace(rows, lam) -> LocalHamiltonian:
    """Pair energy from constraint rows and a Hermitian PSD weight.

    rows: (k, 4) coefficient rows in the (|00>, |01>, |10>, |11>) basis.
    lam:  (k, k) Hermitian positive-semidefinite weight matrix.
    """
    r = np.atleast_2d(np.asarray(rows, dtype=complex))
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    k = r.shape[0]
    if r.shape != (k, 4):
        raise ValueError("constraint rows must have four components")
    if lam.shape != (k, k):
        raise ValueError("weight matrix shape does not match the row count")
    _check_hermitian_psd(lam, "weight matrix", ParameterError)
    with np.errstate(over="ignore", invalid="ignore"):
        h = r.conj().T @ lam @ r
        h = (h + h.conj().T) / 2.0  # symmetrize away rounding
    if not np.all(np.isfinite(h)):
        raise ParameterError("pair energy is not finite")
    return LocalHamiltonian(h)


def _two_row_weight(p: FamilyParams):
    """[[g1, g3], [conj(g3), g2]], the weight of the two-row families."""
    return [[p.g1, p.g3], [np.conj(p.g3), p.g2]]


# each family's required parameters, and its constraint rows and weight
# matrix as a function of its validated params
_FAMILIES = {
    FamilyId.EXCHANGE: (("g", "nu", "nu_prime"), lambda p: (
        [[0.0, p.nu_prime, -p.nu, 0.0]], [[p.g]])),
    FamilyId.HARDCORE: (("g",), lambda p: ([[2.0, 0.0, 0.0, 0.0]], [[p.g]])),
    FamilyId.HARDCORE_MIXED: (("g",), lambda p: (
        [[2.0, 1.0, -1.0, 0.0]], [[p.g]])),
    FamilyId.ANTIALIGNED: (("g1", "g2", "g3"), lambda p: (
        [[0, 1, 0, 0], [0, 0, 1, 0]], _two_row_weight(p))),
    FamilyId.HARDCORE_SINGLET: (("g1", "g2", "g3"), lambda p: (
        [[1, 0, 0, 0], [0, 1, -1, 0]], _two_row_weight(p))),
    FamilyId.PAIRSUM_EXCHANGE: (
        ("g1", "g2", "g3", "nu", "nu_prime"), lambda p: (
            [[1, 0, 0, 1], [0, p.nu_prime, -p.nu, 0]], _two_row_weight(p))),
    FamilyId.HARDCORE_EXCHANGE: (
        ("g1", "g2", "g3", "nu", "nu_prime"), lambda p: (
            [[1, 0, 0, 0], [0, p.nu_prime, -p.nu, 0]], _two_row_weight(p))),
    FamilyId.MIXED_SINGLET: (("g1", "g2", "g3"), lambda p: (
        [[2, 1, 1, 0], [0, 1, -1, 0]], _two_row_weight(p))),
    FamilyId.PINNED: (("lambda3",), lambda p: (
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], p.lambda3)),
}


def family_espace(params: FamilyParams):
    """Constraint rows and weight matrix of a named family."""
    rows, lam = _FAMILIES[params.family][1](params)
    return np.array(rows, dtype=complex), np.array(lam, dtype=complex)


def build_family(params: FamilyParams) -> LocalHamiltonian:
    """Pair energy of a named family from its constraint rows."""
    return local_from_espace(*family_espace(params))


# ---------------------------------------------------------------------------
# chain embedding

# indices of h[a, a ^ f] at [f, a] for every pair state a and flip f of
# the bond's sites (bit 1 the second site, bit 2 the first)
_FOUR = np.arange(4)
_FLIPPED = _FOUR[:, None] ^ _FOUR


def chain_entries(local: LocalHamiltonian, n_sites: int):
    """Nonzero entries of H = sum_i h_{i,i+1} on the open chain.

    Returns (rows, cols, values) with duplicate positions summed and
    exact zeros dropped.  The pair on the bond at shift s (bond n-2-s
    from the left) of basis index x is (x >> s) & 3, and h[a, a ^ f]
    links x to x ^ (f << s).  So every entry of row x sits at x ^ m for
    one of 2n flip masks m: 0 (the diagonal), one site (1 << b), or two
    adjacent sites (3 << (b-1)).  The values of one mask over all rows
    are one vector, summed bond by bond from the left as a dense
    accumulation would; masks of a kind h has no entry for are skipped.

    Rows come ascending, each row's entries together and in mask order:
    the diagonal, the one-site flips by bit, then the two-site flips by
    top bit.  Columns within a row are not sorted.
    """
    masks, vals = _chain_table(local.matrix, n_sites)
    rows, k = _table_nonzero(vals)
    return rows, rows ^ masks[k], vals[k, rows]


def _table_nonzero(vals: np.ndarray):
    """(rows, k) of the nonzero values vals[k, rows] of a _chain_table,
    row-major: rows ascending, each row's masks in order."""
    # a contiguous boolean copy with the rows first reads far faster than
    # the strided complex table
    found = np.flatnonzero(np.ascontiguousarray((vals != 0).T))
    return np.divmod(found, vals.shape[0])


def _chain_table(h: np.ndarray, n_sites: int, x: np.ndarray | None = None):
    """(masks, vals): the flip masks of chain_entries in its order, and
    vals[j, i] = H[x_i, x_i ^ masks[j]] for the chain of the 4x4 array h,
    zeros included, over the basis indices x (every one by default), of
    h's dtype.

    Each row's values are summed exactly as for the whole chain, so the
    rows of any x are those of chain_entries bit for bit.  Refuses
    (ChainSizeError) a chain outside the site guard.
    """
    limit = max_sites()
    if not 2 <= n_sites <= limit:
        raise ChainSizeError(
            f"n_sites must be between 2 and {limit} (got {n_sites})")
    if x is None:
        x = np.arange(2 ** n_sites)
    # one contiguous row per flip: indexing it is far cheaper than a
    # column of a 2-D array
    hf = h[_FOUR, _FLIPPED]
    has = np.any(hf, axis=1)
    one, two = bool(has[1] or has[2]), bool(has[3])
    shift = np.arange(n_sites)
    pair = (x >> shift[:-1, None]) & 3
    # the values over all rows, summed from 0 in bond order, of the
    # diagonal, then (if h has them) the one-site flips at bits 0..n-1,
    # then the two-site flips with top bits 1..n-1; site b is the second
    # site of the bond at shift b and the first of the bond at shift b - 1
    masks = np.concatenate([[0], 1 << shift[:one * n_sites],
                            3 << shift[:two * (n_sites - 1)]])
    vals = np.zeros((masks.size, x.size), dtype=h.dtype)
    # a sum that overflows stays inf, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        # one bond after another down the rows: the sums of the loop
        # "vals[0] += hf[0][pair[s]]" for s = n-2, ..., 0
        vals[0] = np.add.reduce(hf[0][pair][::-1], axis=0)
        if has[1]:
            vals[1:n_sites] += hf[1][pair]
        if has[2]:
            vals[2:n_sites + 1] += hf[2][pair]
        if two:
            vals[1 + one * n_sites:] += hf[3][pair]
    return masks, vals


def chain_row_blocks(n_sites: int, entries):
    """The dense chain whose chain_entries are given, as consecutive
    blocks of whole rows of about ROW_BLOCK_BYTES each.

    Every block is the same reused buffer, overwritten when the next is
    drawn, so a caller that keeps one must copy it.
    """
    dim = 2 ** n_sites
    return _dense_rows(dim, entries, min(dim, max(1, ROW_BLOCK_BYTES
                                                 // (16 * dim))))


def _dense_rows(dim: int, entries, block_rows: int):
    """Scatter row-sorted entries of a dim x dim matrix into one zero
    buffer of block_rows rows, yield it, and clear what was written."""
    rows, cols, vals = entries
    buf = np.zeros((block_rows, dim), dtype=complex)
    ends = np.searchsorted(rows, np.arange(block_rows, dim + block_rows,
                                           block_rows))
    lo = 0
    for start, hi in zip(range(0, dim, block_rows), ends):
        at = (rows[lo:hi] - start, cols[lo:hi])
        buf[at] = vals[lo:hi]
        yield buf
        buf[at] = 0
        lo = hi


def full_chain(local: LocalHamiltonian, n_sites: int) -> FullHamiltonian:
    """H = sum_i 1 x ... x h_{i,i+1} x ... x 1 on the open chain, dense:
    the one-block case of chain_row_blocks."""
    entries = chain_entries(local, n_sites)
    dim = 2 ** n_sites
    return FullHamiltonian(n_sites=n_sites,
                           matrix=next(_dense_rows(dim, entries, dim)))
