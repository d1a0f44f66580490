"""Independent dense references that the tests compare the library to.

None of this is library code: each function rebuilds an object by a
route the library does not take, so agreement is evidence.

- operator_sum: every family's pair energy as an explicit sum of
  spin-operator products, written out term by term instead of from the
  constraint rows.
- kron_chain: the open chain sum_i 1 x ... x h_{i,i+1} x ... x 1 by
  explicit Kronecker products instead of basis-index bit arithmetic.
- sorted_chain_entries: the chain's nonzero entries from every bond's
  raw entries, put in (row, column) order by one global argsort,
  duplicates summed by bincount, instead of one vector per flip mask
  listed row by row in mask order.
- check_zero_member: the dense residual |H psi| / (|psi| max(1, |H|_F)).
- no_mps_case_report: an informational spectrum of the chain whose
  constraint rows are a canonical space's own basis, for the cases with
  no catalogued bond representation; it asserts nothing.
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
- eager_psi_k, eager_psi_prime, eager_psi_parity: the string-sum
  states' amplitudes built at once from the loop table of zero_counts,
  as the library built them before its states kept a recipe; each power
  of the ratio is taken in Python.
- axis_by_axis_frame, frame_rank: the symmetry frame search one
  candidate axis at a time, each turned onto z by the eigenvectors of
  n . sigma and an explicit Kronecker product, and ranked from the
  turned bond term's kept entries and a written-out site swap, instead
  of one batched rotation by a closed-form frame.
- transform_state: a chain state pushed through the inverse one-site
  action, one tensordot per site.
- minkowski, trace_form: the (-,+,+) product and the invariant pairing
  tr(C1 sigma^-1 C2^T sigma^-1) of two quartets, in closed form.
- transfer_matrix: the transfer matrix of a bond-matrix state by
  np.kron, whose N-th power traces to the state's squared norm; the
  library has no transfer matrix of its own.
- The loop versions of the algebra layer's batched kernels, kept as
  their definitions: kron_action_matrix (np.kron),
  loop_row_reduce (one row update at a time), lstsq_span_equal (one
  least-squares solve per basis vector) and
  loop_half_products (one batched product per bond matrix and bit).
- svd_span_equal: the span test as one SVD of the stacked pair of basis
  rows, with no comparison of the stored rows first: the library's
  fallback route, kept as the answer its shortcut must agree with.
- value_dumps, encode_vector, encode_matrix: the JSON writer that walks
  nested lists and formats one float at a time, and the encoders that
  turn complex arrays into lists of [re, im] pairs for it; the
  library's writer formats a complex array's parts in bulk and must
  give the same text.
- complex_array_text: a complex array's JSON text from all of its parts
  formatted at once and then joined axis by axis, the library's earlier
  writer, kept as the text its slice-by-slice writer must give.

The rest is shared test plumbing rather than references: flat gives a
quartet's entries (C00, C01, C10, C11) through the library's own
`_TO_FLAT`, which test_pauli checks against the recomposed matrix,
table_entries lists a chain's nonzero entries through the library's own
flip table, which test_hamiltonian checks against sorted_chain_entries
and kron_chain, benchmark_specs draws one parameter set per benchmark
label, as the benchmark's family_specs does, and child_env is the
environment for a `python -m mpschain` child process.  CANONICAL_POINTS, canonical_term,
dm_terms and CANCELLING_PINNED are fixed bond terms that the tests and
the fingerprints share.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from pathlib import Path

import numpy as np

from mpschain.classify import (MU_CASES, CanonicalForm, CaseId,
                               canonical_space)
from mpschain.hamiltonian import (FamilyId, FamilyParams, LocalHamiltonian,
                                  _chain_table, local_from_espace)
from mpschain.pauli import (_FROM_FLAT, _TO_FLAT, DEFAULT_RANK_TOL,
                            PIVOT_SHARE, SL2, CSpace, PauliQuartet)
from mpschain.serialize import FormatError
from mpschain.states import StateVector
from mpschain import sectors, verify
from mpschain.verify import SpectrumReport, _spectrum_report

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


def sorted_chain_entries(h: np.ndarray, n_sites: int):
    """(rows, cols, values) of the open chain of h, sorted by row then
    column, with duplicate positions summed in bond order and exact zeros
    dropped, from one argsort of every bond's raw entries.  The library
    lists each row's columns in flip-mask order instead, so a test sorts
    its entries the same way before comparing them with these."""
    dim = 2 ** n_sites
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
    rows, cols, vals = (np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals))
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


def table_entries(local: LocalHamiltonian, n_sites: int):
    """(rows, cols, values) of the nonzero entries of the open chain of
    local, in the library's order: sectors._table_nonzero of
    hamiltonian._chain_table, rows ascending and each row's columns in
    flip-mask order."""
    masks, vals = _chain_table(local.matrix, n_sites)
    rows, k = sectors._table_nonzero(vals)
    return rows, rows ^ masks[k], vals[k, rows]


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


def _powers(ratio, exponent: np.ndarray) -> np.ndarray:
    """complex(ratio) ** e for each entry e, each power taken in Python."""
    table = np.array([complex(ratio) ** e
                      for e in range(int(exponent.max(initial=0)) + 1)])
    return table[exponent]


def eager_psi_k(n_sites: int, m_period: int, k: int, ratio) -> np.ndarray:
    """ratio ** (zeta exponent) on the strings with k*m_period zeros."""
    zeros, exponent = zero_counts(n_sites)
    sel = zeros == k * m_period
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[sel] = _powers(ratio, exponent[sel])
    return amps


def eager_psi_prime(n_sites: int) -> np.ndarray:
    """(-1)^(Z/2) (-1) ** (zeta exponent) on the strings with an even zero
    count Z."""
    zeros, exponent = zero_counts(n_sites)
    even = zeros % 2 == 0
    powers = _powers(-1.0, exponent[even])
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[even] = np.where(zeros[even] // 2 % 2 == 0, powers, -powers)
    return amps


def eager_psi_parity(n_sites: int, parity: str,
                     literal_bounds: bool = False) -> np.ndarray:
    """(-1)^(Z // 2) on the strings whose zero count Z has the parity and
    is at least 0 (even), 1 (odd) or 3 (odd, literal bounds)."""
    fewest = {"even": 0, "odd": 3 if literal_bounds else 1}[parity]
    zeros, _ = zero_counts(n_sites)
    sel = (zeros % 2 == fewest % 2) & (zeros >= fewest)
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[sel] = np.where(zeros[sel] // 2 % 2 == 0, 1.0, -1.0)
    return amps


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


def no_mps_case_report(form: CanonicalForm, n_sites: int,
                       lam=None) -> SpectrumReport:
    """Informational spectrum for a canonical space with no catalogued
    bond representation: constraint rows are the canonical basis itself,
    weighted by lam (identity when omitted).

    Reports what the ground energy and kernel look like; asserts nothing.
    """
    if not 2 <= n_sites <= 10:
        raise ValueError("informational reports are capped at 10 sites")
    space = canonical_space(form)
    if not space.basis:
        raise ValueError("the empty space has no constraints to report on")
    rows = space.coefficient_matrix() @ _TO_FLAT
    if lam is None:
        lam = np.eye(rows.shape[0])
    _, h, t = verify._frame(local_from_espace(rows, lam).matrix)
    stacks, _ = sectors._stacks(h, n_sites, t)
    return _spectrum_report(n_sites, stacks)


# I, X, Y, Z; the site swap of a pair and Z x Z; the ones of each pair
# state
_PAULIS = (_I2, _S1, np.array([[0.0, -1j], [1j, 0.0]]), _S3)
_PAIR_SWAP = np.eye(4)[[0, 2, 1, 3]]
_ZZ = np.diag([1.0, -1.0, -1.0, 1.0])
_PAIR_ONES = np.array([0, 1, 1, 2])


def _snapped_term(h: np.ndarray) -> np.ndarray:
    """h with every real or imaginary part at or below HERMITICITY_TOL *
    max|h| set to zero."""
    cut = verify.HERMITICITY_TOL * np.max(np.abs(h))
    return (np.where(np.abs(h.real) > cut, h.real, 0.0)
            + 1j * np.where(np.abs(h.imag) > cut, h.imag, 0.0))


def frame_rank(h: np.ndarray) -> int:
    """What the bond term h keeps once snapped: 3 the number of ones, 2
    only their parity, 1 neither but its chain commutes with site
    reversal times 1 or Z on every site (to the snapping cut), else 0."""
    h = _snapped_term(h)
    change = (_PAIR_ONES[:, None] - _PAIR_ONES[None, :])[h != 0]
    if not np.any(change):
        return 3
    if not np.any(change % 2):
        return 2
    cut = verify.HERMITICITY_TOL * np.max(np.abs(h))
    for t in (_PAIR_SWAP, _ZZ @ _PAIR_SWAP):
        d = t @ h @ t - h
        if max(np.max(np.abs(d.real)), np.max(np.abs(d.imag))) <= cut:
            return 1
    return 0


def _axis_turn(axis: np.ndarray) -> np.ndarray:
    """A unit-determinant u with u^dagger (n . sigma) u = Z, n the unit
    vector along axis: the +1 and -1 eigenvectors of n . sigma."""
    n = axis / np.max(np.abs(axis))
    n = n / np.linalg.norm(n)
    _, v = np.linalg.eigh(sum(x * p for x, p in zip(n, _PAULIS[1:])))
    u = v[:, ::-1]
    return u / np.sqrt(np.linalg.det(u))


def axis_by_axis_frame(local: LocalHamiltonian):
    """(rank, u, term): the best frame_rank of a list of candidate frames,
    the frame u that first reaches it (the identity first) and the bond
    term in it, snapped.

    The candidates are the axes of both one-site fields, the real
    eigenvectors of K and of K^T (one general eigensolve each), the field
    sum and the eigenvectors of (K + K^T) / 2, K the two-site part of the
    Pauli coefficients; each is turned onto z by _axis_turn and ranked in
    turn.  verify._frame reads its axes off K's antisymmetric part and
    one symmetric eigensolve instead, so this list is an independent
    route to the same rank.
    """
    h = local.matrix
    c = np.array([[np.trace(np.kron(a, b) @ h).real for b in _PAULIS]
                  for a in _PAULIS]) / 4.0
    k = c[1:, 1:]
    axes = [c[0, 1:], c[1:, 0]]
    for m in (k, k.T):
        w, v = np.linalg.eig(m)
        axes.extend(v[:, w.imag == 0].real.T)
    axes.append(c[1:, 0] + c[0, 1:])
    axes.extend(np.linalg.eigh((k + k.T) / 2.0)[1].T)
    cut = verify.HERMITICITY_TOL * np.max(np.abs(c))
    best, frame, term = frame_rank(h), _I2, _snapped_term(h)
    for axis in axes:
        if best == 3:
            break
        if np.max(np.abs(axis)) <= cut:
            continue
        u = _axis_turn(axis)
        uu = np.kron(u, u)
        turned = uu.conj().T @ h @ uu
        rank = frame_rank(turned)
        if rank > best:
            best, frame = rank, u
            term = _snapped_term((turned + turned.conj().T) / 2.0)
    return best, frame, term


# The 19 canonical points: every nonempty form, each mu form at mu = 0
# and 0.3+0.1i, and nonnull_line also where its commutation factor is
# e^(2 pi i / 3).
_OMEGA3 = cmath.exp(2j * cmath.pi / 3)
CANONICAL_POINTS = [
    (case, mu) for case in CaseId if case is not CaseId.EMPTY
    for mu in ([0.0, 0.3 + 0.1j] + ([(1 + _OMEGA3) / (_OMEGA3 - 1)]
                                    if case is CaseId.NONNULL_LINE else [])
               if case in MU_CASES else [None])]


def canonical_term(case: CaseId, mu) -> LocalHamiltonian:
    """The bond term of a nonempty canonical form: identity weight on its
    literal rows."""
    rows = canonical_space(CanonicalForm(case, mu)).coefficient_matrix() \
        @ _TO_FLAT
    return local_from_espace(rows, np.eye(len(rows)))


def dm_terms() -> dict:
    """name -> bond term: 4 + XX + YY + ZZ + (XY - YX) / 2, a Heisenberg
    term with a Dzyaloshinskii-Moriya term, which keeps the number of
    ones, has no one-site field and a (K + K^T) / 2 that is a multiple of
    the identity; and the same term plus 0.3 (Z x 1 + 1 x Z)."""
    x, y, z = _PAULIS[1:]
    dm = 4.0 * np.eye(4) + sum(np.kron(p, p) for p in (x, y, z)) \
        + 0.5 * (np.kron(x, y) - np.kron(y, x))
    return {"dm": LocalHamiltonian(dm),
            "dm+field": LocalHamiltonian(
                dm + 0.3 * (np.kron(z, _I2) + np.kron(_I2, z)))}


# A pinned point, as (family, mapping), whose lambda02 = -lambda01 makes
# the one-site flips of a site between two |0>s cancel: its chain has
# fewer entries than its bond term's pattern shows.
CANCELLING_PINNED = ("pinned", {"lambda3": np.array(
    [[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 1.0]])})


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
    c = flat(q).reshape(2, 2)
    return PauliQuartet(*((g.matrix.T @ c @ g.matrix).ravel() @ _FROM_FLAT))


def flat(q: PauliQuartet) -> np.ndarray:
    """Entries (C00, C01, C10, C11) of q's 2x2 matrix, row-major."""
    return q.as_array() @ _TO_FLAT


def transform_state(state: StateVector, g: SL2) -> StateVector:
    """Push a chain state through the inverse one-site action on every
    site: the companion of the pair-energy congruence transform."""
    a, b, c, d = g.matrix.ravel()
    m = np.array([[d, -b], [-c, a]])
    t = state.amplitudes.reshape((2,) * state.n_sites)
    for axis in range(state.n_sites):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [axis])), 0, axis)
    return StateVector(state.n_sites, t.ravel())


def minkowski(a: PauliQuartet, b: PauliQuartet) -> complex:
    """Bilinear product -v0*w0 + v1*w1 + v2*w2 on the symmetric parts."""
    return -a.v0 * b.v0 + a.v1 * b.v1 + a.v2 * b.v2


def trace_form(a: PauliQuartet, b: PauliQuartet) -> complex:
    """Invariant pairing tr(C1 sigma^-1 C2^T sigma^-1) in closed form."""
    return 2.0 * (-a.u * b.u + minkowski(a, b))


def kron_action_matrix(g: SL2) -> np.ndarray:
    """The 4x4 quartet action M(g) with g x g taken by np.kron."""
    m = _TO_FLAT @ np.kron(g.matrix, g.matrix) @ _FROM_FLAT
    m[3] = m[:, 3] = (0, 0, 0, 1)
    return m


def transfer_matrix(spec) -> np.ndarray:
    """kron(conj(a0), a0) + kron(conj(a1), a1) of an MPSSpec by np.kron;
    its N-th power traces to the squared norm of the N-site state."""
    return np.kron(np.conj(spec.a0), spec.a0) + np.kron(np.conj(spec.a1),
                                                        spec.a1)


def loop_row_reduce(rows: np.ndarray, ratio: float = 0.0) -> np.ndarray:
    """Reduced row-echelon form over C, clearing each pivot column one row
    at a time; returns the nonzero rows.  A pivot is passed over at or
    below the rank cut, or, given two rows or more, when it is at most
    PIVOT_SHARE * ratio times both the rows' scale and the largest entry
    left to reduce."""
    m = np.array(rows, dtype=complex)
    if m.size == 0:
        return m
    scale = max(1.0, float(np.max(np.abs(m))))
    thresh = DEFAULT_RANK_TOL * scale
    r = 0
    for col in range(m.shape[1]):
        if r >= m.shape[0]:
            break
        piv = r + int(np.argmax(np.abs(m[r:, col])))
        p = abs(m[piv, col])
        left = max(abs(v) for row in m[r:] for v in row[col:])
        share = PIVOT_SHARE * ratio if len(m) > 1 else 0.0
        if p <= thresh or p <= share * min(scale, left):
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] / m[r, col]
        for i in range(m.shape[0]):
            if i != r:
                m[i] = m[i] - m[i, col] * m[r]
        r += 1
    return m[:r]


def lstsq_span_equal(a: CSpace, b: CSpace, tol: float = 1e-8) -> bool:
    """Equal dimension and every basis vector of each within tol * max(1,
    |vector|) of the other's span, by one least-squares solve per
    vector."""
    if a.dim != b.dim:
        return False
    for rows, span in ((a.coefficient_matrix(), b.coefficient_matrix()),
                       (b.coefficient_matrix(), a.coefficient_matrix())):
        for vec in rows:
            coef, *_ = np.linalg.lstsq(span.T, vec, rcond=None)
            if np.linalg.norm(span.T @ coef - vec) > tol * max(
                    1.0, np.linalg.norm(vec)):
                return False
    return True


def svd_span_equal(a: CSpace, b: CSpace, tol: float = 1e-8) -> bool:
    """Equal dimension and every basis row of each within tol * max(1,
    |row|) of the other's span, the spans taken from one SVD of the
    stacked (2, k, 4) rows, singular values at or below lstsq's cut
    4 eps times the largest dropped."""
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    pair = np.stack([a.coefficient_matrix(), b.coefficient_matrix()])
    _, s, vh = np.linalg.svd(pair, full_matrices=False)
    vh = vh * (s > 4 * np.finfo(float).eps * s[..., :1])[..., None]
    other = vh[::-1]
    resid = np.linalg.norm(
        pair - pair @ other.conj().swapaxes(-1, -2) @ other, axis=-1)
    return bool(np.all(
        resid <= tol * np.maximum(1.0, np.linalg.norm(pair, axis=-1))))


def loop_half_products(a0: np.ndarray, a1: np.ndarray,
                       n_bits: int) -> np.ndarray:
    """All 2^n_bits ordered products of a0 and a1, bits most significant
    first, one batched product per bond matrix and bit, each extending
    the products on the right."""
    d = a0.shape[0]
    out = np.eye(d, dtype=complex)[None]
    for _ in range(n_bits):
        nxt = np.empty((2 * out.shape[0], d, d), dtype=complex)
        nxt[0::2] = out @ a0
        nxt[1::2] = out @ a1
        out = nxt
    return out


def _format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise FormatError(f"non-finite value {x!r} cannot be serialized")
    return format(x + 0.0, ".17g")


def value_dumps(obj) -> str:
    """JSON text of obj, one value at a time: numpy arrays become lists,
    complex values [re, im] lists, and every float is formatted alone."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list) -> None:
    if isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        _write([z.real, z.imag], out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise FormatError("JSON object keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write(value, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def complex_array_text(arr: np.ndarray) -> str:
    """Nested lists of [re, im] pairs, one list level per axis, the
    whole array checked and formatted before any of it is joined."""
    parts = np.ascontiguousarray(arr, dtype=complex).view(float)
    bad = ~np.isfinite(parts)
    if np.any(bad):
        _format_float(parts[bad][0])
    parts = (parts + 0.0).ravel().tolist()
    items = list(map("[{:.17g}, {:.17g}]".format, parts[0::2], parts[1::2]))
    shape = arr.shape
    for axis in range(len(shape) - 1, -1, -1):
        size = shape[axis]
        items = ["[" + ", ".join(items[i * size:(i + 1) * size]) + "]"
                 for i in range(math.prod(shape[:axis]))]
    return items[0]


def encode_vector(vec) -> list:
    return [[z.real, z.imag]
            for z in map(complex, np.asarray(vec, dtype=complex).ravel())]


def encode_matrix(mat) -> list:
    m = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [encode_vector(row) for row in m]


def _phase(rng) -> complex:
    return cmath.exp(2j * cmath.pi * rng.uniform())


def _g(rng) -> float:
    return float(rng.uniform(0.5, 2.0))


def _nu(rng) -> complex:
    return complex(rng.uniform(0.5, 1.5) * _phase(rng))


def _weights(rng) -> dict:
    g1, g2 = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
    g3 = complex(rng.uniform(0.1, 0.9) * np.sqrt(g1 * g2) * _phase(rng))
    return {"g1": g1, "g2": g2, "g3": g3}


def benchmark_specs(rng) -> dict:
    """label -> (family, parameter mapping) for the benchmark's eleven
    family and branch labels, drawn in the benchmark's order."""
    w = _weights(rng)
    nu = _nu(rng)
    nu_x, nu_y = _nu(rng), _nu(rng)
    g_m1, g_w3 = _g(rng), _g(rng)
    g_hc, g_hm = _g(rng), _g(rng)
    antialigned, singlet = _weights(rng), _weights(rng)
    exchange_w = _weights(rng)
    mixed = _weights(rng)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return {
        "exchange/-1": ("exchange", {"g": g_m1, "nu": nu, "nu_prime": -nu}),
        "exchange/omega3": ("exchange", {
            "g": g_w3, "nu": nu, "nu_prime": cmath.exp(2j * cmath.pi / 3)
            * nu}),
        "hardcore": ("hardcore", {"g": g_hc}),
        "hardcore-mixed": ("hardcore-mixed", {"g": g_hm}),
        "antialigned": ("antialigned", antialigned),
        "hardcore-singlet": ("hardcore-singlet", singlet),
        "pairsum-exchange/prime": ("pairsum-exchange",
                                   dict(w, nu=nu_x, nu_prime=-nu_x)),
        "pairsum-exchange/parity": ("pairsum-exchange",
                                    dict(w, nu=nu_x, nu_prime=nu_x)),
        "hardcore-exchange": ("hardcore-exchange",
                              dict(exchange_w, nu=nu_x, nu_prime=nu_y)),
        "mixed-singlet": ("mixed-singlet", mixed),
        "pinned": ("pinned", {"lambda3": a.conj().T @ a + 0.1 * np.eye(3)}),
    }


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(overrides: dict | None = None) -> dict:
    """The caller's environment with this checkout's src first on
    PYTHONPATH and the overrides laid over the rest, so a child process
    imports the package under test without an installed copy."""
    env = {**os.environ, **(overrides or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env
