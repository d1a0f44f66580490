"""Exact-diagonalization checks of every zero-energy claim at small size.

A chain is block diagonal over the connected components (sectors) of its
off-diagonal pattern, so spectra and residuals come from one dense
Hermitian eigensolve per sector block; a sector of one basis state is its
diagonal entry.  Finding the sectors needs no per-family symmetry.  Before
they are found, every site is turned by one unitary frame chosen from the
4x4 bond term alone (symmetry_frame): it brings an axis along which the
bond term keeps the number or parity of ones onto z, and makes the bond
term real where a site phase can.  A unitary frame leaves the spectrum
unchanged, and it lets a hidden local symmetry split the chain; the
chain is built from exactly the framed bond term the frame was scored
on.  Where no axis keeps either, the frame instead brings the axis of a
reversal symmetry T = reverse o v^{x n} (v a pi rotation) onto z.  When
the framed bond term keeps the number of ones but its hopping entry t is
complex (exchange at a complex ratio, antialigned, pairsum-exchange at
nu' = nu), the phase of t is gauged away: on an open chain the site
phase exp(i theta k) on the k-th one turns every hopping entry into |t|
exactly, so those sectors are real blocks with the same spectrum.  When
the (gauged) framed chain commutes with site reversal times a diagonal
site sign, each sector splits further into T's even and odd states;
gauged, exchange at |nu'| = |nu| splits this way too.  The checks stay
unambiguous: a state either sits in the numerical kernel of the chain
or it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import (HERMITICITY_TOL, FullHamiltonian, LocalHamiltonian,
                          FamilyParams, _summed_entries, build_family,
                          chain_entries)
from .pauli import SIGMA, SL2, TAU0, TAU1, TAU2
from .states import _times_power_of_two, ground_state_catalogue

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
# indexed [a, b], and the number of ones in |00>, |01>, |10>, |11>.
_PAULI = np.array([TAU0, TAU2, -1j * SIGMA, TAU1])
_PAIR_PAULI = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)
_PAIR_ONES = np.array([0, 1, 1, 2])

# The pair states in the order the site swap gives them, and the sign
# Z x Z gives each.
_SWAPPED = np.array([0, 2, 1, 3])
_PAIR_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


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


def _sector_roots(dim: int, rows, cols) -> np.ndarray:
    """Smallest basis index in the connected component of each basis
    state, for the graph whose edges are (rows, cols).

    Every component root hooks onto the smallest root it touches, then
    pointer jumping flattens the trees; this repeats until no edge joins
    two roots.
    """
    root = np.arange(dim)
    while True:
        a, b = root[rows], root[cols]
        if np.array_equal(a, b):
            return root
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _sector_blocks(dim: int, rows, cols, vals) -> list:
    """Split H, given by its nonzero entries, into sector blocks.

    Returns a list of (members, blocks) with one item per sector size k:
    members (s, k) holds the basis indices of the s sectors of that size,
    ascending within each sector, and blocks (s, k, k) holds H restricted
    to each of them, real when no entry has an imaginary part.
    """
    if np.iscomplexobj(vals) and not np.any(vals.imag):
        vals = vals.real
    off = rows != cols
    _, sector, sizes = np.unique(_sector_roots(dim, rows[off], cols[off]),
                                 return_inverse=True, return_counts=True)
    size = sizes[sector]
    order = np.lexsort((sector, size))
    block = np.empty(dim, dtype=np.intp)
    pos = np.empty(dim, dtype=np.intp)
    out = []
    ks, counts = np.unique(size, return_counts=True)
    for k, members in zip(ks, np.split(order, np.cumsum(counts)[:-1])):
        members = members.reshape(-1, k)
        block[members] = np.arange(members.shape[0])[:, None]
        pos[members] = np.arange(k)
        sel = size[rows] == k
        r, c = rows[sel], cols[sel]
        blocks = np.zeros((members.shape[0], k, k), dtype=vals.dtype)
        blocks[block[r], pos[r], pos[c]] = vals[sel]
        out.append((members, blocks))
    return out


def _snapped(h: np.ndarray) -> np.ndarray:
    """h with every real or imaginary part at or below
    HERMITICITY_TOL * max|h| set to zero."""
    cut = HERMITICITY_TOL * np.max(np.abs(h))
    return (np.where(np.abs(h.real) > cut, h.real, 0.0)
            + 1j * np.where(np.abs(h.imag) > cut, h.imag, 0.0))


def _rotated(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(u x u)^dagger h (u x u), snapped."""
    uu = (u[:, None, :, None] * u[None, :, None, :]).reshape(4, 4)
    return _snapped(uu.conj().T @ h @ uu)


def _conserved(h: np.ndarray) -> int:
    """2 if h keeps the number of ones, 1 if it keeps only its parity,
    0 if neither."""
    a, b = np.nonzero(h)
    change = _PAIR_ONES[a] - _PAIR_ONES[b]
    if not change.any():
        return 2
    return 1 if not (change % 2).any() else 0


def _axis_frame(axis: np.ndarray) -> np.ndarray:
    """Special unitary u with u^dagger (n . sigma) u = Z for the unit
    vector n along axis: its columns are the +1 and -1 eigenvectors."""
    # an exact power-of-two rescale first, so the norm's squares neither
    # overflow nor underflow for a bond term of any finite scale
    axis = np.ldexp(axis, -np.frexp(np.max(np.abs(axis)))[1])
    x, y, z = axis / np.linalg.norm(axis)
    half = np.arccos(np.clip(z, -1.0, 1.0)) / 2.0
    phase = np.exp(1j * np.arctan2(y, x))
    return np.array([[np.cos(half), -np.sin(half) / phase],
                     [phase * np.sin(half), np.cos(half)]])


def _reversal_sign(h: np.ndarray) -> int | None:
    """d in (1, -1) for which the chain of h is symmetric under site
    reversal times diag(1, d) on every site, or None if neither is.

    Reversal swaps the two sites of every bond, so the condition is
    (v x v) SWAP h SWAP (v x v) = h with v = diag(1, d), every real and
    imaginary part compared to the snapping cut HERMITICITY_TOL * max|h|.
    """
    cut = HERMITICITY_TOL * np.max(np.abs(h))
    swapped = h[np.ix_(_SWAPPED, _SWAPPED)]
    for d, moved in ((1, swapped),
                     (-1, swapped * np.outer(_PAIR_SIGN, _PAIR_SIGN))):
        diff = moved - h
        if max(np.max(np.abs(diff.real)), np.max(np.abs(diff.imag))) <= cut:
            return d
    return None


def symmetry_frame(local: LocalHamiltonian) -> SL2:
    """One-site unitary frame u in which the chain splits best.

    Writes h = sum_ab c_ab P_a x P_b over the Pauli matrices.  If h keeps
    the number (or parity) of ones along some axis n, then n is a real
    eigenvector of K = c[1:, 1:] and of K^T, or (for a degenerate K) the
    direction of a one-site field c[0, 1:] or c[1:, 0].  Each candidate
    axis is rotated onto z, and the frame whose rotated h keeps the most
    wins: number beats parity, parity beats nothing, and the identity
    stays unless another frame is strictly better.

    Where no axis keeps either, the frame looks for a reversal symmetry
    T = reverse o v^{x n}, v = m . sigma a pi rotation about a unit axis
    m.  v turns Pauli vectors by R = 2 m m^T - 1 and reversal swaps the
    sites, so T commutes with the chain exactly when R K^T R = K and R
    swaps the fields c[1:, 0] and c[0, 1:]: m lies along their sum and is
    an eigenvector of (K + K^T) / 2.  Unless T with v = 1 or Z already
    holds, the first such candidate m for which it holds once m is
    rotated onto z gives the frame.  An axis that keeps the number or
    parity is never given up for T.

    Then, if a site phase diag(1, e^{i theta}) makes the rotated h real,
    it is folded in; theta is read off the largest entry that changes the
    number.  A phase commutes with Z, so it keeps T.

    A unitary frame leaves the chain spectrum unchanged.  Entries are
    compared after snapping to zero every real or imaginary part at or
    below HERMITICITY_TOL * max|h|, which removes the rotation's rounding
    residue; a bond term whose snapped mass is `dropped` shifts every
    chain eigenvalue by at most (n - 1) * |dropped|_2.  Likewise T is
    accepted when h' and T h' T differ by no more than that cut in any
    part, so the even and odd blocks shift every eigenvalue by at most
    (n - 1) * |h' - T h' T|_2.
    """
    h = local.matrix
    frame = np.eye(2, dtype=complex)
    best = _conserved(_snapped(h))
    if best < 2:
        c = np.einsum("ij,abji->ab", h, _PAIR_PAULI).real / 4.0
        k = c[1:, 1:]
        axes = [c[0, 1:], c[1:, 0]]
        for m in (k, k.T):
            w, v = np.linalg.eig(m)
            axes.extend(v[:, w.imag == 0].real.T)
        cut = HERMITICITY_TOL * np.max(np.abs(c))
        for axis in axes:
            if np.max(np.abs(axis)) <= cut:
                continue
            u = _axis_frame(axis)
            score = _conserved(_rotated(h, u))
            if score > best:
                best, frame = score, u
                if best == 2:
                    break
        if best == 0 and _reversal_sign(h) is None:
            k_sym, field = (k + k.T) / 2.0, c[1:, 0] + c[0, 1:]
            for axis in [field, *np.linalg.eigh(k_sym)[1].T]:
                if np.max(np.abs(axis)) <= cut:
                    continue
                u = _axis_frame(axis)
                if _reversal_sign(_rotated(h, u)) is not None:
                    frame = u
                    break
    moved = _rotated(h, frame)
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
            if not np.any(_rotated(h, u).imag):
                frame = u
                break
    return SL2(frame)


def _spectrum_report(n_sites: int, sectors: list) -> SpectrumReport:
    """Lowest LOWEST_K eigenvalues (ascending) and the kernel count of
    the sorted union of the sector spectra."""
    evals = np.sort(np.concatenate([
        np.linalg.eigvalsh(blocks) if blocks.shape[1] > 1
        else blocks[:, 0, 0].real
        for _, blocks in sectors], axis=None))
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
    rows, cols = np.nonzero(chain.matrix)
    sectors = _sector_blocks(chain.matrix.shape[0], rows, cols,
                             chain.matrix[rows, cols])
    return _spectrum_report(chain.n_sites, sectors)


def _reversal_entries(n_sites: int, sign: int, rows, cols, vals):
    """Nonzero entries of a chain H in the even and odd states of
    T = reverse o diag(1, sign)^{x n}, from H's entries (rows, cols, vals)
    in the basis; T must commute with H.

    T|s> = phi_s |rev s> with phi_s = sign^(ones in s).  The orbit
    {r, rev r}, r the smaller, gives the normalized states of (1 + T)|r>
    and (1 - T)|r>, indexed by r and rev r; a palindrome r gives only the
    one that does not vanish, indexed by r.  As T commutes with H, the
    entry between the parity-p states of r and s is
    sqrt(o_r / o_s) (H[r, s] + p phi_s H[r, rev s]), o the orbit sizes
    and the second term absent for a palindrome s: only rows at orbit
    representatives are read, and no entry between the parities is made.
    """
    dim = 2 ** n_sites
    x = np.arange(dim)
    # a leading bit b on x' of one site fewer: rev = 2 rev(x') + b
    rev, ones = np.zeros(1, dtype=x.dtype), np.zeros(1, dtype=x.dtype)
    for _ in range(n_sites):
        rev = np.concatenate((2 * rev, 2 * rev + 1))
        ones = np.concatenate((ones, ones + 1))
    phi = np.where(ones % 2, sign, 1)
    rep = np.minimum(x, rev)
    orbit = np.where(rev == x, 1.0, 2.0)
    at_rep = rows == rep[rows]
    r, y = rows[at_rep], cols[at_rep]
    s = rep[y]
    h = vals[at_rep] * np.sqrt(orbit[r] / orbit[s])
    parts = []
    for parity, index in ((1, x), (-1, rev)):
        live = (orbit == 2) | (phi == parity)
        keep = live[r] & live[s]
        turn = np.where(y == s, 1, parity * phi[s])
        parts.append((index[r[keep]], index[s[keep]], (turn * h)[keep]))
    return _summed_entries(dim, *(np.concatenate(p) for p in zip(*parts)))


def _framed_sectors(local: LocalHamiltonian, n_sites: int):
    """Sector blocks of the chain of local, built on the bond term exactly
    as symmetry_frame scored it in its frame; the chain's nonzero entries
    (rows, cols, vals) in that frame; and the frame (None, with the bond
    term untouched, when the frame is the identity).

    When the framed bond term h' keeps the number of ones and has an
    imaginary part, the blocks are built from the chain conjugated by
    the diagonal unitary D = diag(exp(i theta sum_k k x_k)), theta = arg
    t for the hopping entry t = h'[|01>, |10>]: every off-diagonal chain
    entry comes from one bond and is t or conj(t), so D turns it into |t|
    and the diagonal into its real part, with no tolerance involved.
    The spectrum and the sectors are unchanged; the returned entries
    stay the ungauged ones.

    When the (gauged) bond term has an off-diagonal entry and passes
    _reversal_sign, the blocks are those of the reversal-even and -odd
    states (_reversal_entries), and their members are the indices those
    states are given.
    """
    u = symmetry_frame(local)
    if np.array_equal(u.matrix, np.eye(2)):
        u = None
    else:
        local = LocalHamiltonian(_rotated(local.matrix, u.matrix))
    entries = chain_entries(local, n_sites)
    h = local.matrix
    gauged = entries
    if np.any(h.imag) and _conserved(h) == 2:
        # gauge the hopping phase away, exactly (see above)
        h = np.where(np.eye(4, dtype=bool), h.real, np.abs(h))
        rows, cols, vals = entries
        gauged = rows, cols, np.where(rows == cols, vals.real, np.abs(vals))
    # a diagonal chain has one-state sectors, which reversal cannot split
    sign = _reversal_sign(h) if np.any(h - np.diag(np.diag(h))) else None
    adapted = (gauged if sign is None
               else _reversal_entries(n_sites, sign, *gauged))
    return _sector_blocks(2 ** n_sites, *adapted), entries, u


def _column_norms(dim: int, index, cols, vals) -> np.ndarray:
    """|H e_x| for every basis index x in index, from H's entries (cols,
    vals): H e_x is column x, so only the entries in those columns are
    read."""
    index, inverse = np.unique(index, return_inverse=True)
    slot = np.full(dim, -1)
    slot[index] = np.arange(index.size)
    at = slot[cols]
    hit = at >= 0
    v = vals[hit]
    squares = np.bincount(at[hit], weights=(v.conj() * v).real,
                          minlength=index.size)
    return np.sqrt(squares)[inverse]


def family_report(params: FamilyParams, n_sites: int) -> SpectrumReport:
    """Spectrum of one family chain plus residuals of its catalogued
    zero-energy states, each |H psi| / (|psi| max(1, |H|_F)), without
    assembling the dense chain.

    The spectrum comes from the chain built in the bond term's symmetry
    frame; H psi comes from the chain's entries in the caller's basis:
    a basis state's is its column of entries, and the other states'
    amplitudes, each read once, share one sparse product.
    """
    local = build_family(params)
    sectors, entries, u = _framed_sectors(local, n_sites)
    report = _spectrum_report(n_sites, sectors)
    catalogue = ground_state_catalogue(params, n_sites)
    if not catalogue:
        return report
    rows, cols, vals = entries if u is None else chain_entries(local, n_sites)
    # Work with the entries times 2**-f, their largest real or imaginary
    # part brought into [0.5, 1), so |H|_F and H psi cannot overflow.
    # Scaling by a power of two is exact: in-range residuals come out bit
    # for bit as from the raw entries.
    f = math.frexp(np.abs(vals.view(float)).max(initial=0.0))[1]
    vals = _times_power_of_two(vals, -f)
    hnorm = float(np.linalg.norm(vals))
    norms = np.ones(len(catalogue))
    hpsi_norms = np.empty(len(catalogue))
    basis = [i for i, ns in enumerate(catalogue)
             if ns.state._index is not None]
    dense = [i for i, ns in enumerate(catalogue) if ns.state._index is None]
    if basis:
        hpsi_norms[basis] = _column_norms(
            2 ** n_sites, [catalogue[i].state._index for i in basis],
            cols, vals)
    if dense:
        psi = np.array([catalogue[i].state.amplitudes for i in dense])
        norms[dense] = np.linalg.norm(psi, axis=1)
        if not np.all(norms):
            raise ValueError("zero vector cannot witness a ground state")
        if not np.any(vals.imag) and not np.any(psi.imag):
            vals, psi = vals.real, psi.real
        hpsi = vals * psi[:, cols]
        # rows are sorted, so each run of one row sums to one entry of
        # H psi; a chain with one entry per row (a diagonal one) needs no
        # sums
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        if starts.size < rows.size:
            hpsi = np.add.reduceat(hpsi, starts, axis=1)
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
