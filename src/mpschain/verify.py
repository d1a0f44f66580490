"""Exact-diagonalization checks of every zero-energy claim at small size.

A chain is block diagonal over the connected components (sectors) of its
off-diagonal pattern, so spectra and residuals come from one dense
Hermitian eigensolve per sector block; a sector of one basis state is its
diagonal entry.  Finding the sectors needs no per-family symmetry.  Before
they are found, the basis is chosen from the 4x4 bond term alone, in one
call (_frame), which settles the frame, the gauge and the involution
together: one search rotates a short list of candidate axes onto z, in
one batch, and ranks what the bond term keeps in each frame and in the
identity: the number of ones, else their parity, else a reversal
symmetry T = reverse o v^{x n} with v = 1 or Z.  A site phase then makes
the bond term real where it can.  A unitary frame leaves the spectrum
unchanged, and it lets a hidden local symmetry split the chain; the chain
is built from exactly the framed, snapped bond term the frame was scored
on, in the identity frame too.  When that term keeps the number of ones
but its hopping entry t is complex (exchange at a complex ratio,
antialigned, pairsum-exchange at nu' = nu), the phase of t is gauged
away in the bond term itself: on an open chain
the site phase exp(i theta k) on the k-th one turns every hopping entry
into |t| exactly, so the chain is built from the real term with |t| in
place of t, and its sectors are real blocks with the same spectrum.

The framed, gauged bond term then takes one basis-permuting involution
T = R o v^{x n}, R site reversal or nothing and v one of 1, Z, X: the
first it commutes with, and it is made T-invariant bit for bit.  T maps
each sector onto a sector whose block differs by a signed permutation
only, so of two sectors T swaps one is solved and its spectrum counted
twice, and a sector T maps onto itself splits into T's even and odd
states.  T's action on a bond is sectors._involution on two sites, the
same table as on the chain.  Exchange at a general ratio, antialigned
and pairsum-exchange at nu' = nu take reverse o X^{x n}, which pairs k
ones with n - k; pairsum-exchange at nu' = -nu pairs its sectors by
reversal; exchange at |nu'| = |nu| splits each number sector by
reversal.  Before any block is allocated, the largest stack to be
solved is held against the memory available.  The checks stay
unambiguous: a state either sits in the numerical kernel of the chain
or it does not.

From that bond term and its involution (the identity where none holds)
the sectors module builds the chain's stacks (sectors._stacks), keeping
the index arrays of each sector split it works out; this module only
solves the stacks.
Residuals need no second chain: the bond term acts on each bond of the
catalogued states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sectors
from .hamiltonian import (HERMITICITY_TOL, FamilyParams, FullHamiltonian,
                          ParameterError, _chain_table, build_family)
from .states import (_squared_norm, _times_power_of_two,
                     ground_state_catalogue)

# Reports list the lowest LOWEST_K eigenvalues.
LOWEST_K = 8

# Eigenvalues at or below KERNEL_TOL times the largest eigenvalue modulus
# count as kernel members (all of them when the chain is zero).
KERNEL_TOL = 1e-9

# A clean kernel needs the first excluded eigenvalue to clear the
# threshold by this factor; otherwise the report carries a warning.
GAP_FACTOR = 1e3

# Default pass tolerance for zero-membership residuals.
MEMBER_TOL = 1e-9

# Relative singular-value cut of stacked_state_rank.
STATE_RANK_TOL = 1e-8

# One-site Pauli matrices I, X, Y, Z, their pair products P_a x P_b
# indexed [a, b], and the number of ones in |00>, |01>, |10>, |11>.  Y is
# -1j times pauli.SIGMA, whose -0.0 parts _frame's arctan2 reads: a literal
# [[0, -1j], [1j, 0]] would have +0.0 there.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]],
                   -1j * np.array([[0, 1], [-1, 0]]), [[1, 0], [0, -1]]])
_PAIR_PAULI = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)
_PAIR_ONES = np.array([0, 1, 1, 2])

# The diagonal of a bond term; and, over its flattened entries h[a, b],
# which change the number of ones (ones(a) != ones(b)) and which their
# parity.
_DIAGONAL = np.eye(4, dtype=bool)
_CHANGE = (_PAIR_ONES[:, None] - _PAIR_ONES[None, :]).ravel()
_CHANGES = np.array([_CHANGE != 0, _CHANGE % 2 == 1]).T

# The basis-permuting involutions T = R o v^{x n} that may join the
# sectors in pairs or split them, as (reverse, flip, sign): R is site
# reversal when reverse, and v is X when flip, else diag(1, sign).  The
# identity and plain parity, which the sectors already resolve, are not
# among them; the first that holds is taken.
_INVOLUTIONS = ((True, False, 1), (True, False, -1), (False, True, 1),
                (True, True, 1))

# The pair state each T of _INVOLUTIONS takes every pair state to, and
# the sign it gives every entry of the bond term: T on two sites.
_PAIR_INVOLUTIONS = [sectors._involution(2, t) for t in _INVOLUTIONS]
_MOVED = np.array([sigma for sigma, _ in _PAIR_INVOLUTIONS])
_MOVED_SIGNS = np.array([np.outer(phi, phi) for _, phi in _PAIR_INVOLUTIONS],
                        dtype=float)


@dataclass(frozen=True)
class SpectrumReport:
    """Lowest eigenvalues of one chain plus per-state membership residuals."""

    n_sites: int
    ground_energy: float
    kernel_dim: int
    lowest_k_eigenvalues: tuple
    residuals: dict
    warning: str | None = None

    def all_pass(self, tol: float = MEMBER_TOL) -> bool:
        return all(r <= tol for r in self.residuals.values())


def _snapped(h: np.ndarray) -> np.ndarray:
    """h, or each 4x4 term of a stack h, with every real or imaginary
    part at or below HERMITICITY_TOL times its largest modulus set to
    zero."""
    cut = HERMITICITY_TOL * np.max(np.abs(h), axis=(-2, -1), keepdims=True)
    parts = h.view(float)
    return np.where(np.abs(parts) > cut, parts, 0.0).view(complex)


def _rotated(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(u x u)^dagger h (u x u) for one 2x2 u or each of a stack of
    them."""
    uu = (u[..., :, None, :, None] * u[..., None, :, None, :]).reshape(
        *u.shape[:-2], 4, 4)
    return np.swapaxes(uu.conj(), -1, -2) @ h @ uu


def _conserved(h: np.ndarray):
    """2 where h keeps the number of ones, 1 where it keeps only their
    parity, 0 where neither: for one 4x4 h, or each term of a stack."""
    changed = (h != 0).reshape(*h.shape[:-2], 16) @ _CHANGES
    return np.sum(~changed, axis=-1)


def _commuting(h: np.ndarray) -> np.ndarray:
    """Whether the chain of h commutes with each T = (reverse, flip,
    sign) of _INVOLUTIONS, in order: for one 4x4 h, or each term of a
    stack.

    Reversal swaps the two sites of every bond, so the condition is
    (v x v) [SWAP] h [SWAP] (v x v) = h, every real and imaginary part
    compared to the snapping cut HERMITICITY_TOL * max|h|.
    """
    diff = (h[..., _MOVED[:, :, None], _MOVED[:, None, :]] * _MOVED_SIGNS
            - h[..., None, :, :])
    cut = HERMITICITY_TOL * np.max(np.abs(h), axis=(-2, -1))[..., None]
    return np.maximum(np.abs(diff.real), np.abs(diff.imag)).max(
        axis=(-2, -1)) <= cut


def _frame(h: np.ndarray):
    """(u, h', t): the one-site unitary frame u in which the chain of the
    4x4 bond term h splits best, the bond term h' the chain is built
    from, and the involution t of _INVOLUTIONS that h' is invariant
    under, or None.

    Writes h = sum_ab c_ab P_a x P_b over the Pauli matrices.  If h keeps
    the number (or parity) of ones along some axis n, then n is a real
    eigenvector of K = c[1:, 1:] and of K^T with the same eigenvalue, so
    (K - K^T) n = 0: n lies along d = (K12 - K21, K20 - K02, K01 - K10),
    the axis of K's antisymmetric part, unless K is symmetric, and then n
    is an eigenvector of (K + K^T) / 2.  Both one-site fields c[0, 1:]
    and c[1:, 0] lie along n, so the first gives n, or their sum does
    where it vanishes.  If the chain has a reversal symmetry T = reverse
    o v^{x n}, v = m . sigma a pi rotation about a unit axis m, then v
    turns Pauli vectors by R = 2 m m^T - 1 and reversal swaps the sites,
    so R K^T R = K and R swaps the two fields: m lies along their sum and
    is an eigenvector of (K + K^T) / 2.  The identity and the candidate
    axes (the first field, d, the summed field, the eigenvectors of (K +
    K^T) / 2), rotated onto z in one batch, are ranked: keeping the
    number beats keeping the parity, which beats commuting with T for v
    = 1 or Z, which beats nothing.  Of equal ranks the first wins, so
    the identity stays unless another frame is strictly better; when it
    keeps the number already, no candidate can beat it and none is
    listed.

    Then, if a site phase diag(1, e^{i theta}) makes the rotated h real,
    it is folded in; theta is read off the largest entry that changes the
    number.  A phase commutes with Z, so it keeps T.

    When the framed term keeps the number of ones and has an imaginary
    part, its phase is gauged away: the diagonal by its real part, every
    other entry by its modulus.  That is the chain conjugated by the
    diagonal unitary D = diag(exp(i theta sum_k k x_k)), theta = arg t
    for the hopping entry t = h'[|01>, |10>]: every off-diagonal chain
    entry comes from one bond and is t or conj(t), so D turns it into
    |t|, with no tolerance involved.  h' is real dtype when it has no
    imaginary part.

    A unitary frame and the gauge leave the chain spectrum unchanged.
    Entries are compared after snapping to zero every real or imaginary
    part at or below HERMITICITY_TOL * max|h|, which removes the
    rotation's rounding residue; h' is the snapped term in every frame,
    the identity included, and a bond term whose snapped mass is
    `dropped` shifts every chain eigenvalue by at most (n - 1) *
    |dropped|_2.  t is the first T of _INVOLUTIONS for which h' and T h'
    T differ by no more than that cut in any part, the order of the
    frame ranking: v = 1 or Z maps every number or parity sector onto
    itself and halves it, v = X only pairs k ones with n - k.  h' is
    then replaced by (h' + T h' T) / 2, T-invariant bit for bit: h'
    itself where it was T-invariant already, as (a + a) / 2 == a, and
    elsewhere each part moved by at most half the cut, so every chain
    eigenvalue by at most (n - 1) * |h' - T h' T|_2 / 2.  t is None for
    a diagonal h', whose chain's sectors are single states that no T
    can split, and where no T holds.
    """
    frames, moved = np.eye(2, dtype=complex)[None], _snapped(h)[None]
    if _conserved(moved[0]) < 2:
        c = np.einsum("ij,abji->ab", h, _PAIR_PAULI).real / 4.0
        k = c[1:, 1:]
        d = k - k.T
        axes = np.array([c[0, 1:], (d[1, 2], d[2, 0], d[0, 1]),
                         c[1:, 0] + c[0, 1:],
                         *np.linalg.eigh((k + k.T) / 2.0)[1].T])
        big = np.max(np.abs(axes), axis=1)
        keep = big > HERMITICITY_TOL * np.max(np.abs(c))
        # an exact power-of-two rescale first, so the norm's squares
        # neither overflow nor underflow for a bond term of any finite scale
        axes = np.ldexp(axes[keep], -np.frexp(big[keep])[1][:, None])
        x, y, z = (axes / np.linalg.norm(axes, axis=1, keepdims=True)).T
        # the columns of each u are the +1 and -1 eigenvectors of n . sigma
        half = np.arccos(np.clip(z, -1.0, 1.0)) / 2.0
        phase = np.exp(1j * np.arctan2(y, x))
        cos, sin = np.cos(half), np.sin(half)
        turns = np.array([[cos, -sin / phase],
                          [phase * sin, cos]]).transpose(2, 0, 1)
        frames = np.concatenate((frames, turns))
        moved = np.concatenate((moved, _snapped(_rotated(h, turns))))
    rank = _conserved(moved)
    if not rank.any():
        # no frame keeps the parity: rank by reversal with v = 1 or Z
        rank = _commuting(moved)[:, :2].any(axis=1)
    best = int(np.argmax(rank))
    frame, moved = frames[best], moved[best]
    a, b = np.nonzero(moved)
    change = _PAIR_ONES[b] - _PAIR_ONES[a]
    if np.any(moved.imag) and np.any(change):
        j = np.flatnonzero(change)[np.argmax(np.abs(
            moved[a[change != 0], b[change != 0]]))]
        angle, delta = np.angle(moved[a[j], b[j]]), change[j]
        for turn in range(abs(delta)):
            theta = (turn * np.pi - angle) / delta
            u = frame @ np.diag([np.exp(-0.5j * theta),
                                 np.exp(0.5j * theta)])
            turned = _snapped(_rotated(h, u))
            if not np.any(turned.imag):
                frame, moved = u, turned
                break
    if np.any(moved.imag) and _conserved(moved) == 2:
        # gauge the hopping phase away, exactly (see above)
        moved = np.where(_DIAGONAL, moved.real, np.abs(moved))
    if not np.any(moved.imag):
        moved = moved.real
    # a diagonal h' holds none
    holds = _commuting(moved) & np.any(moved[~_DIAGONAL])
    if not holds.any():
        return frame, moved, None
    i = int(np.argmax(holds))
    # T h' T, then h' made T-invariant bit for bit (see above)
    image = moved[_MOVED[i][:, None], _MOVED[i][None, :]] * _MOVED_SIGNS[i]
    return frame, (moved + image) / 2.0, _INVOLUTIONS[i]


def _spectrum_report(n_sites: int, stacks) -> SpectrumReport:
    """Lowest LOWEST_K eigenvalues (ascending) and the kernel count of
    the sorted union of the spectra of the (count, blocks) stacks, each
    block's counted count times; each stack is solved as it is drawn and
    only its eigenvalues are kept.  Refuses (ParameterError) a spectrum
    beyond the float range, where the kernel cut would be inf."""
    spectra = []
    for count, blocks in stacks:
        spectra.append(np.tile(np.linalg.eigvalsh(blocks) if blocks.shape[1]
                               > 1 else blocks[:, 0, 0].real, count))
        # drop this stack before the next one is drawn
        del blocks
    evals = np.sort(np.concatenate(spectra, axis=None))
    if not np.all(np.isfinite(evals)):
        raise ParameterError(f"chain eigenvalues exceed the float range "
                             f"at n_sites={n_sites}")
    cut = KERNEL_TOL * float(np.max(np.abs(evals)))
    kernel_dim = int(np.sum(evals <= cut))
    warning = None
    if 0 < kernel_dim < evals.shape[0]:
        first_excluded = float(evals[kernel_dim])
        if first_excluded <= GAP_FACTOR * cut:
            warning = (f"first eigenvalue above the kernel cut "
                       f"({first_excluded:.3e}) is within {GAP_FACTOR:g}x "
                       f"of the threshold; kernel count may be unreliable")
    return SpectrumReport(
        n_sites=n_sites,
        ground_energy=float(evals[0]),
        kernel_dim=kernel_dim,
        lowest_k_eigenvalues=tuple(float(v) for v in evals[:LOWEST_K]),
        residuals={},
        warning=warning,
    )


def spectrum(chain: FullHamiltonian) -> SpectrumReport:
    """Lowest LOWEST_K eigenvalues (ascending) and the kernel count.

    The kernel count uses a relative threshold; when the first excluded
    eigenvalue sits within GAP_FACTOR of that threshold the separation
    is ambiguous and the report says so instead of pretending.
    """
    dim = chain.matrix.shape[0]
    rows, cols = np.nonzero(chain.matrix)
    return _spectrum_report(chain.n_sites, sectors._filled_stacks([
        (1, chain.matrix[rows, cols],
         sectors._sector_stacks(dim, rows, cols, np.arange(dim)))]))


def family_report(params: FamilyParams, n_sites: int) -> SpectrumReport:
    """Spectrum of one family chain plus residuals of its catalogued
    zero-energy states, each |H psi| / (|psi| max(1, |H|_F)), without
    assembling the dense chain.

    The spectrum comes from the sector stacks of the chain of _frame's
    bond term h', and |H|_F from that chain's values, which the stacks'
    numeric step holds (a unitary frame and the gauge keep the norm).
    H psi never needs the chain in the caller's basis.  A basis state's
    |H e_x| is the norm of row x, which is that of column x because H is
    Hermitian bit for bit (local_from_espace symmetrizes every bond
    term): the row's values come from _chain_table, summed exactly as
    for the whole chain, and their squares are added in mask order.
    The other states, each read once, are stacked, and the bond term acts
    on each bond's reshaped (states * 2^i, 4, 2^(n-2-i)) view of them.
    """
    local = build_family(params)
    _, h, t = _frame(local.matrix)
    stacks, vals = sectors._stacks(h, n_sites, t)
    report = _spectrum_report(n_sites, stacks)
    catalogue = ground_state_catalogue(params, n_sites)
    if not catalogue:
        return report
    # Work with the chain times 2**-f, its largest real or imaginary part
    # brought into [0.5, 1), so |H|_F and H psi cannot overflow.  Scaling
    # by a power of two is exact: in-range residuals come out bit for bit
    # as from the raw values.
    f = math.frexp(np.abs(vals.view(float)).max(initial=0.0))[1]
    # taken of complex values whether h' is real or not, and summed by
    # numpy, which no BLAS thread count changes
    hnorm = math.sqrt(_squared_norm(_times_power_of_two(
        np.asarray(vals, dtype=complex), -f)))
    norms = np.ones(len(catalogue))
    hpsi_norms = np.empty(len(catalogue))
    basis = [i for i, ns in enumerate(catalogue)
             if ns.state._index is not None]
    dense = [i for i, ns in enumerate(catalogue) if ns.state._index is None]
    if basis:
        _, row_vals = _chain_table(local.matrix, n_sites, np.array(
            [catalogue[i].state._index for i in basis]))
        row_vals = _times_power_of_two(row_vals, -f)
        # squares summed over the rows in order, which an accumulate
        # keeps for any number of states and a reduce not for one alone
        hpsi_norms[basis] = np.sqrt(np.add.accumulate(
            (row_vals.conj() * row_vals).real)[-1])
    if dense:
        psi = np.array([catalogue[i].state.amplitudes for i in dense])
        norms[dense] = np.linalg.norm(psi, axis=1)
        if not np.all(norms):
            raise ValueError("zero vector cannot witness a ground state")
        h = _times_power_of_two(local.matrix, -f)
        if not np.any(h.imag) and not np.any(psi.imag):
            h, psi = h.real, psi.real
        hpsi = np.zeros_like(psi)
        for i in range(n_sites - 1):
            right = 2 ** (n_sites - 2 - i)
            shape = (-1, 4, right)
            bond, state = hpsi.reshape(shape), psi.reshape(shape)
            if bond.shape[0] <= right:
                bond += h @ state
            else:
                # few states to the right: one product with the pair axis
                # last beats one small product per left index
                bond += (state.transpose(0, 2, 1).reshape(-1, 4) @ h.T
                         ).reshape(-1, right, 4).transpose(0, 2, 1)
        hpsi_norms[dense] = np.linalg.norm(hpsi, axis=1)
    # the divisor max(1, |H|_F) is |H|_F = hnorm * 2**f exactly when the
    # exponent of hnorm plus f is at least 1
    if math.frexp(hnorm)[1] + f >= 1:
        residuals = hpsi_norms / (norms * hnorm)
    else:
        residuals = np.ldexp(hpsi_norms / norms, f)
    return replace(report, residuals={
        ns.label: float(r) for ns, r in zip(catalogue, residuals)})


def stacked_state_rank(states) -> int:
    """Rank of the stacked (normalized) state matrix: how many of the
    catalogued states are actually independent."""
    if not states:
        return 0
    rows = np.array([s.normalized().amplitudes for s in states])
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > STATE_RANK_TOL * sv[0]))
