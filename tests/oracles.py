"""Independent dense references that the tests compare the library to.

None of this is library code: each function rebuilds an object by a
route the library does not take, so agreement is evidence.

- operator_sum: every family's pair energy as an explicit sum of
  spin-operator products, written out term by term instead of from the
  constraint rows.
- kron_chain: the open chain sum_i 1 x ... x h_{i,i+1} x ... x 1 by
  explicit Kronecker products instead of basis-index bit arithmetic.
- check_zero_member: the dense residual |H psi| / (|psi| max(1, |H|_F)).
- conjugate_local: the congruence (g x g)^dagger h (g x g) by an explicit
  Kronecker product, instead of pushing the constraint rows through g.
- covariance_check: that residual for a site-wise transformed state
  against the congruence-transformed chain.
- quartet_action: the unimodular action by recomposing the 2x2 matrix,
  multiplying out g^T C g and decomposing it again, instead of the 4x4
  map on coefficient rows.
- random_sl2, sl2_with_condition: seeded draws of unit-determinant 2x2
  matrices.
- zero_counts: every basis index's zero count and zeta exponent by a loop
  over the sites, instead of the library's table grown one leading site
  at a time.

One helper is shared test plumbing rather than a reference: flat gives
a quartet's entries (C00, C01, C10, C11) through the library's own
`_TO_FLAT`, which test_pauli checks against the recomposed matrix.
"""

from __future__ import annotations

import numpy as np

from mpschain.hamiltonian import FamilyId, FamilyParams, LocalHamiltonian
from mpschain.pauli import _TO_FLAT, SL2, PauliQuartet, quartet_from_matrix
from mpschain.states import StateVector, transform_state

_I2 = np.eye(2, dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SM = _SP.T.copy()
_S1 = _SP + _SM


def _k(a, b):
    return np.kron(a, b)


def _exchange(g, nu, nup):
    s = abs(nu) ** 2 + abs(nup) ** 2
    return g * (s / 4.0 * (_k(_I2, _I2) - _k(_S3, _S3))
                + (abs(nup) ** 2 - abs(nu) ** 2) / 4.0
                * (_k(_S3, _I2) - _k(_I2, _S3))
                - np.conj(nup) * nu * _k(_SP, _SM)
                - nup * np.conj(nu) * _k(_SM, _SP))


def _hardcore(g):
    return g * _k(_I2 + _S3, _I2 + _S3)


def _hardcore_mixed(g):
    return g * (1.5 * _k(_I2, _I2) + _k(_I2, _S3) + _k(_S3, _I2)
                + 0.5 * _k(_S3, _S3)
                + _k(_I2 + _S3, _S1) - _k(_S1, _I2 + _S3)
                - _k(_SM, _SP) - _k(_SP, _SM))


def _antialigned(g1, g2, g3):
    return ((g1 + g2) / 4.0 * (_k(_I2, _I2) - _k(_S3, _S3))
            + (g1 - g2) / 4.0 * (_k(_S3, _I2) - _k(_I2, _S3))
            + g3 * _k(_SP, _SM) + np.conj(g3) * _k(_SM, _SP))


def _hardcore_singlet(g1, g2, g3):
    x = g3 * _SP + np.conj(g3) * _SM
    return ((g1 + 2.0 * g2) / 4.0 * _k(_I2, _I2)
            + g1 / 4.0 * (_k(_S3, _I2) + _k(_I2, _S3))
            + (g1 - 2.0 * g2) / 4.0 * _k(_S3, _S3)
            - g2 * (_k(_SP, _SM) + _k(_SM, _SP))
            + _k((_I2 + _S3) / 2.0, x) - _k(x, (_I2 + _S3) / 2.0))


def _pairsum_exchange(g1, g2, g3, nu, nup):
    s = abs(nu) ** 2 + abs(nup) ** 2
    cnu, cnup, cg3 = np.conj(nu), np.conj(nup), np.conj(g3)
    h = ((2.0 * g1 + g2 * s) / 4.0 * _k(_I2, _I2)
         + (2.0 * g1 - g2 * s) / 4.0 * _k(_S3, _S3)
         + g1 * (_k(_SP, _SP) + _k(_SM, _SM))
         - g2 * cnup * nu * _k(_SP, _SM)
         - g2 * nup * cnu * _k(_SM, _SP)
         + g2 * (abs(nup) ** 2 - abs(nu) ** 2) / 4.0
         * (_k(_S3, _I2) - _k(_I2, _S3)))
    h += g3 / 2.0 * (_k(_I2, nup * _SP - nu * _SM)
                     + _k(nup * _SM - nu * _SP, _I2)
                     + _k(_S3, nup * _SP + nu * _SM)
                     - _k(nup * _SM + nu * _SP, _S3))
    h += cg3 / 2.0 * (_k(_I2, cnup * _SM - cnu * _SP)
                      + _k(cnup * _SP - cnu * _SM, _I2)
                      + _k(_S3, cnup * _SM + cnu * _SP)
                      - _k(cnup * _SP + cnu * _SM, _S3))
    return h


def _hardcore_exchange(g1, g2, g3, nu, nup):
    s = abs(nu) ** 2 + abs(nup) ** 2
    cnu, cnup, cg3 = np.conj(nu), np.conj(nup), np.conj(g3)
    h = ((g1 + g2 * s) / 4.0 * _k(_I2, _I2)
         + (g1 - g2 * s) / 4.0 * _k(_S3, _S3)
         + g1 / 4.0 * (_k(_S3, _I2) + _k(_I2, _S3))
         - g2 * (cnup * nu * _k(_SP, _SM) + nup * cnu * _k(_SM, _SP))
         + g2 * (abs(nup) ** 2 - abs(nu) ** 2) / 4.0
         * (_k(_S3, _I2) - _k(_I2, _S3)))
    h += g3 / 2.0 * (nup * _k(_I2, _SP) - nu * _k(_SP, _I2)
                     + nup * _k(_S3, _SP) - nu * _k(_SP, _S3))
    h += cg3 / 2.0 * (cnup * _k(_I2, _SM) - cnu * _k(_SM, _I2)
                      + cnup * _k(_S3, _SM) - cnu * _k(_SM, _S3))
    return h


def _mixed_singlet(g1, g2, g3):
    cg3 = np.conj(g3)
    x = g3 * _SP + cg3 * _SM
    return ((3.0 * g1 + g2) / 2.0 * _k(_I2, _I2)
            + (g1 - g2) / 2.0 * _k(_S3, _S3)
            + (g1 - g2) * (_k(_SP, _SM) + _k(_SM, _SP))
            + g1 * (_k(_S3, _S1) + _k(_S1, _S3))
            + g1 * (_k(_S3 + _S1, _I2) + _k(_I2, _S3 + _S1))
            + _k(_I2 + _S3, x) - _k(x, _I2 + _S3)
            + (g3 + cg3) / 2.0 * (_k(_S3, _I2) - _k(_I2, _S3))
            + (cg3 - g3) * (_k(_SP, _SM) - _k(_SM, _SP)))


# single-site matrix units for the pinned sum
_UNIT = {(0, 0): (_I2 + _S3) / 2.0, (0, 1): _SP,
         (1, 0): _SM, (1, 1): (_I2 - _S3) / 2.0}


def _pinned(lam3):
    pairs = [(0, 0), (0, 1), (1, 0)]  # |00>, |01>, |10>
    h = np.zeros((4, 4), dtype=complex)
    for a, pa in enumerate(pairs):
        for b, pb in enumerate(pairs):
            h += lam3[a, b] * _k(_UNIT[pa[0], pb[0]], _UNIT[pa[1], pb[1]])
    return h


def operator_sum(p: FamilyParams) -> np.ndarray:
    """4x4 pair energy of a named family via explicit operator sums."""
    fam = p.family
    if fam is FamilyId.EXCHANGE:
        h = _exchange(p.g, p.nu, p.nu_prime)
    elif fam is FamilyId.HARDCORE:
        h = _hardcore(p.g)
    elif fam is FamilyId.HARDCORE_MIXED:
        h = _hardcore_mixed(p.g)
    elif fam is FamilyId.ANTIALIGNED:
        h = _antialigned(p.g1, p.g2, p.g3)
    elif fam is FamilyId.HARDCORE_SINGLET:
        h = _hardcore_singlet(p.g1, p.g2, p.g3)
    elif fam is FamilyId.PAIRSUM_EXCHANGE:
        h = _pairsum_exchange(p.g1, p.g2, p.g3, p.nu, p.nu_prime)
    elif fam is FamilyId.HARDCORE_EXCHANGE:
        h = _hardcore_exchange(p.g1, p.g2, p.g3, p.nu, p.nu_prime)
    elif fam is FamilyId.MIXED_SINGLET:
        h = _mixed_singlet(p.g1, p.g2, p.g3)
    else:
        h = _pinned(p.lambda3)
    return (h + h.conj().T) / 2.0


def kron_chain(h: np.ndarray, n_sites: int) -> np.ndarray:
    """Dense open-chain sum by explicit Kronecker products, bond by bond."""
    total = np.zeros((2 ** n_sites, 2 ** n_sites), dtype=complex)
    for i in range(n_sites - 1):
        left = np.eye(2 ** i, dtype=complex)
        right = np.eye(2 ** (n_sites - 2 - i), dtype=complex)
        total += np.kron(np.kron(left, h), right)
    return total


def zero_counts(n_sites: int):
    """Zero count Z and zeta exponent (sum of the 1-based zero positions
    minus Z(Z+1)/2) of every basis index, site 1 most significant."""
    x = np.arange(2 ** n_sites)
    zeros = np.zeros_like(x)
    position_sum = np.zeros_like(x)
    for pos in range(1, n_sites + 1):
        is_zero = 1 - ((x >> (n_sites - pos)) & 1)
        zeros += is_zero
        position_sum += pos * is_zero
    return zeros, position_sum - zeros * (zeros + 1) // 2


def check_zero_member(chain: np.ndarray, psi: StateVector) -> float:
    """Relative residual |H psi| / (|psi| max(1, |H|_F)) of a dense chain.

    Zero input vectors are an error, not a trivial pass.
    """
    if psi.amplitudes.shape[0] != chain.shape[0]:
        raise ValueError("state and chain dimensions differ")
    norm = psi.norm()
    if norm == 0.0:
        raise ValueError("zero vector cannot witness a ground state")
    hnorm = max(1.0, float(np.linalg.norm(chain)))
    return float(np.linalg.norm(chain @ psi.amplitudes) / (norm * hnorm))


def conjugate_local(local: LocalHamiltonian, g: SL2) -> LocalHamiltonian:
    """Congruence transform (g x g)^dagger h (g x g).

    This is how a pair energy responds when every constraint row is pushed
    through the unimodular action; positivity and the kernel dimension
    survive, the spectrum only for unitary g.
    """
    gg = np.kron(g.matrix, g.matrix)
    h = gg.conj().T @ local.matrix @ gg
    return LocalHamiltonian((h + h.conj().T) / 2.0)


def covariance_check(h: np.ndarray, psi: StateVector, g: SL2,
                     n_sites: int) -> float:
    """Residual of the transformed state against the conjugated chain.

    If psi annihilates every bond term of the chain of h, the site-wise
    inverse action of g must annihilate every bond term of the chain of
    (g x g)^dagger h (g x g), unitary or not.
    """
    gg = np.kron(g.matrix, g.matrix)
    moved = kron_chain(gg.conj().T @ h @ gg, n_sites)
    return check_zero_member(moved, transform_state(psi, g))


def random_sl2(rng: np.random.Generator, max_cond: float | None = None) -> SL2:
    """Draw a unit-determinant matrix with complex normal entries.

    With max_cond set, rejection-sample until the condition number is at
    most that bound.
    """
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-3:
            continue
        g = SL2.unit_normalized(m)
        if max_cond is None:
            return g
        s = np.linalg.svd(g.matrix, compute_uv=False)
        if s[0] / s[-1] <= max_cond:
            return g


def sl2_with_condition(rng: np.random.Generator, cond: float) -> SL2:
    """Draw u diag(s, 1/s) v, u and v unitary, with condition s^2 = cond."""
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    s = np.sqrt(cond)
    return SL2.unit_normalized(u @ np.diag([s, 1.0 / s]) @ v)


def quartet_action(g: SL2, q: PauliQuartet) -> PauliQuartet:
    """Quartet of g^T C g, by way of the recomposed 2x2 matrix."""
    return quartet_from_matrix(g.matrix.T @ q.matrix() @ g.matrix)


def flat(q: PauliQuartet) -> np.ndarray:
    """Entries (C00, C01, C10, C11) of q's 2x2 matrix, row-major."""
    return q.as_array() @ _TO_FLAT
