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

from .pauli import _FROM_FLAT, CSpace

# Relative tolerance for Hermiticity of inputs and outputs.
HERMITICITY_TOL = 1e-12

# Relative slack when checking positive semidefiniteness.
PSD_TOL = 1e-10

# chain_entries (and so every chain, sparse or dense) refuses chains above
# this site count unless the MPS_MAX_SITES environment variable raises it.
DEFAULT_MAX_SITES = 14


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


# parameter fields each family requires
REQUIRED_PARAMS = {
    FamilyId.EXCHANGE: ("g", "nu", "nu_prime"),
    FamilyId.HARDCORE: ("g",),
    FamilyId.HARDCORE_MIXED: ("g",),
    FamilyId.ANTIALIGNED: ("g1", "g2", "g3"),
    FamilyId.HARDCORE_SINGLET: ("g1", "g2", "g3"),
    FamilyId.PAIRSUM_EXCHANGE: ("g1", "g2", "g3", "nu", "nu_prime"),
    FamilyId.HARDCORE_EXCHANGE: ("g1", "g2", "g3", "nu", "nu_prime"),
    FamilyId.MIXED_SINGLET: ("g1", "g2", "g3"),
    FamilyId.PINNED: ("lambda3",),
}


def max_sites(default: int = DEFAULT_MAX_SITES) -> int:
    """Site guard, overridable through MPS_MAX_SITES."""
    env = os.environ.get("MPS_MAX_SITES")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError as exc:
        raise ChainSizeError(f"MPS_MAX_SITES={env!r} is not an integer") \
            from exc


@dataclass(frozen=True)
class FamilyParams:
    """Validated coupling constants for one family.

    Unused fields stay None; which ones are required depends on the
    family (see REQUIRED_PARAMS).
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
        c = complex(getattr(self, name))
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
        required = REQUIRED_PARAMS[fam]
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


def family_espace(params: FamilyParams):
    """Constraint rows and weight matrix of a named family."""
    p = params
    fam = p.family
    if fam is FamilyId.EXCHANGE:
        return (np.array([[0.0, p.nu_prime, -p.nu, 0.0]], dtype=complex),
                np.array([[p.g]], dtype=complex))
    if fam is FamilyId.HARDCORE:
        return (np.array([[2.0, 0.0, 0.0, 0.0]], dtype=complex),
                np.array([[p.g]], dtype=complex))
    if fam is FamilyId.HARDCORE_MIXED:
        return (np.array([[2.0, 1.0, -1.0, 0.0]], dtype=complex),
                np.array([[p.g]], dtype=complex))
    lam2 = np.array([[p.g1, p.g3], [np.conj(p.g3), p.g2]], dtype=complex) \
        if p.g1 is not None else None
    if fam is FamilyId.ANTIALIGNED:
        return (np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex), lam2)
    if fam is FamilyId.HARDCORE_SINGLET:
        return (np.array([[1, 0, 0, 0], [0, 1, -1, 0]], dtype=complex), lam2)
    if fam is FamilyId.PAIRSUM_EXCHANGE:
        return (np.array([[1, 0, 0, 1],
                          [0, p.nu_prime, -p.nu, 0]], dtype=complex), lam2)
    if fam is FamilyId.HARDCORE_EXCHANGE:
        return (np.array([[1, 0, 0, 0],
                          [0, p.nu_prime, -p.nu, 0]], dtype=complex), lam2)
    if fam is FamilyId.MIXED_SINGLET:
        return (np.array([[2, 1, 1, 0], [0, 1, -1, 0]], dtype=complex), lam2)
    if fam is FamilyId.PINNED:
        rows = np.zeros((3, 4), dtype=complex)
        rows[0, 0] = rows[1, 1] = rows[2, 2] = 1.0
        return rows, np.array(p.lambda3, dtype=complex)
    raise ParameterError(f"unknown family {fam!r}")


def family_space(params: FamilyParams) -> CSpace:
    """The constraint subspace of a family, in quartet coordinates."""
    return CSpace(family_espace(params)[0] @ _FROM_FLAT)


def build_family(params: FamilyParams) -> LocalHamiltonian:
    """Pair energy of a named family from its constraint rows."""
    return local_from_espace(*family_espace(params))


# ---------------------------------------------------------------------------
# chain embedding

def chain_entries(local: LocalHamiltonian, n_sites: int):
    """Nonzero entries of H = sum_i h_{i,i+1} on the open chain.

    Returns (rows, cols, values), sorted by row then column, with
    duplicate positions summed and exact zeros dropped.  The pair on bond
    i of basis index x is (x >> (n-2-i)) & 3, and each nonzero h[a, b]
    links every x whose pair is a, in ascending order, to the same x with
    pair b.  Bonds are summed in order, as a dense accumulation would.
    """
    limit = max_sites()
    if not 2 <= n_sites <= limit:
        raise ChainSizeError(
            f"n_sites must be between 2 and {limit} (got {n_sites})")
    dim = 2 ** n_sites
    h = local.matrix
    a, b = np.nonzero(h)
    flip, hab = a ^ b, h[a, b]
    rows, cols, vals = [], [], []
    for shift in range(n_sites - 2, -1, -1):
        # every index with pair 0 on this bond, ascending
        base = ((np.arange(dim >> (shift + 2))[:, None] << (shift + 2))
                | np.arange(1 << shift)).ravel()
        xs = (base | (a[:, None] << shift)).ravel()
        rows.append(xs)
        cols.append(xs ^ np.repeat(flip << shift, base.size))
        vals.append(np.repeat(hab, base.size))
    return _summed_entries(dim, np.concatenate(rows), np.concatenate(cols),
                          np.concatenate(vals))


def _summed_entries(dim: int, rows, cols, vals):
    """The entries (rows, cols, vals) of a dim x dim matrix sorted by row
    then column, with duplicate positions summed in the order given and
    exact zeros dropped."""
    keys = rows * dim + cols
    order = np.argsort(keys)
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    keys = keys[first]
    total = (np.bincount(slot, weights=vals.real, minlength=keys.size)
             + 1j * np.bincount(slot, weights=vals.imag, minlength=keys.size))
    keep = total != 0
    keys = keys[keep]
    return keys // dim, keys % dim, total[keep]


def full_chain(local: LocalHamiltonian, n_sites: int) -> FullHamiltonian:
    """H = sum_i 1 x ... x h_{i,i+1} x ... x 1 on the open chain, dense."""
    rows, cols, vals = chain_entries(local, n_sites)
    dim = 2 ** n_sites
    total = np.zeros((dim, dim), dtype=complex)
    total[rows, cols] = vals
    return FullHamiltonian(n_sites=n_sites, matrix=total)
