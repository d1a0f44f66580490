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
exactly, so those sectors are real blocks with the same spectrum.

The (gauged) framed chain is then tested against the basis-permuting
involutions T = R o v^{x n}, R site reversal or nothing and v one of
1, Z, X.  T maps each sector onto a sector whose block differs by a
signed permutation only, so of two sectors T swaps one is solved and
its spectrum counted twice, and a sector T maps onto itself splits into
T's even and odd states.  Exchange at a general ratio, antialigned and
pairsum-exchange at nu' = nu gain reverse o X^{x n}, which pairs k ones
with n - k; pairsum-exchange at nu' = -nu pairs its sectors by reversal;
exchange at |nu'| = |nu| splits each number sector by reversal.  Before
any block is allocated, the largest stack to be solved is held against
the memory available.  The checks stay unambiguous: a state either
sits in the numerical kernel of the chain or it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import (HERMITICITY_TOL, ChainSizeError, FullHamiltonian,
                          LocalHamiltonian, FamilyParams, build_family,
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
# Z x Z gives each pair of them.
_SWAPPED = np.array([0, 2, 1, 3])
_PAIR_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0])

# The basis-permuting involutions T = R o v^{x n} that may join the
# sectors in pairs or split them, as (reverse, flip, sign): R is site
# reversal when reverse, and v is X when flip, else diag(1, sign).  The
# identity and plain parity, which the sectors already resolve, are not
# among them; of equally good ones the first wins.
_INVOLUTIONS = ((True, False, 1), (True, False, -1), (False, True, 1),
                (True, True, 1))


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


def _sector_members(root: np.ndarray, states: np.ndarray) -> list:
    """The basis states `states` (ascending) grouped into sectors by
    their root, one (s, k) array per sector size k: the s sectors of
    that size in order of their root, members ascending."""
    _, sector, sizes = np.unique(root[states], return_inverse=True,
                                 return_counts=True)
    size = sizes[sector]
    order = np.lexsort((sector, size))
    ks, counts = np.unique(size, return_counts=True)
    return [states[o].reshape(-1, k)
            for k, o in zip(ks, np.split(order, np.cumsum(counts)[:-1]))]


def _available_bytes() -> int | None:
    """MemAvailable of /proc/meminfo in bytes, or None where it cannot be
    read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _sector_blocks(dim: int, parts: list):
    """H restricted to sectors of dim basis states, one stack at a time.

    Each part is (members, (rows, cols, vals), count): a list of (s, k)
    member arrays from _sector_members, H's nonzero entries, of which
    those in rows of the members are read, and the number of sectors
    (1, or 2 where each stands for a twin with the same spectrum) each of
    these sectors stands for.  Refuses (ChainSizeError), before any block
    is allocated, when a stack to be eigensolved and eigvalsh's copy of
    it need more bytes than MemAvailable; where that cannot be read, only
    the site guard holds.  Then yields (count, blocks) for each member
    array in turn: blocks (s, k, k) holds H restricted to each sector,
    real when no entry of the part has an imaginary part.  A stack is
    built only when the one before it has been drawn and dropped, so a
    caller that solves each as it comes holds one at a time.
    """
    parts = [(members, (rows, cols, vals.real if np.iscomplexobj(vals)
                        and not np.any(vals.imag) else vals), count)
             for members, (rows, cols, vals), count in parts]
    need = 2 * max((m.shape[0] * m.shape[1] ** 2 * entries[2].itemsize
                    for members, entries, _ in parts for m in members
                    if m.shape[1] > 1), default=0)
    available = _available_bytes() if need else None
    if available is not None and need > available:
        raise ChainSizeError(
            f"the largest sector blocks need {need} bytes with eigvalsh's "
            f"copy, but {available} bytes are available")
    return _built_blocks(dim, parts)


def _built_blocks(dim: int, parts: list):
    """The stacks of _sector_blocks, built one per draw."""
    size = np.zeros(dim, dtype=np.intp)
    block = np.empty(dim, dtype=np.intp)
    pos = np.empty(dim, dtype=np.intp)
    for members, (rows, cols, vals), count in parts:
        size[:] = 0
        for m in members:
            size[m] = m.shape[1]
        for m in members:
            s, k = m.shape
            block[m] = np.arange(s)[:, None]
            pos[m] = np.arange(k)
            sel = size[rows] == k
            r, c = rows[sel], cols[sel]
            blocks = np.zeros((s, k, k), dtype=vals.dtype)
            blocks[block[r], pos[r], pos[c]] = vals[sel]
            yield count, blocks
            # drop this stack before the next one is built
            del blocks


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


def _commutes(h: np.ndarray, reverse: bool, flip: bool, sign: int) -> bool:
    """Whether the chain of h commutes with T = (reverse, flip, sign) of
    _INVOLUTIONS.

    Reversal swaps the two sites of every bond, so the condition is
    (v x v) [SWAP] h [SWAP] (v x v) = h, every real and imaginary part
    compared to the snapping cut HERMITICITY_TOL * max|h|.
    """
    perm = _SWAPPED if reverse else np.arange(4)
    moved = h[np.ix_(perm ^ 3, perm ^ 3) if flip else np.ix_(perm, perm)]
    diff = (moved if sign > 0 else moved * _PAIR_SIGNS) - h
    cut = HERMITICITY_TOL * np.max(np.abs(h))
    return max(np.max(np.abs(diff.real)), np.max(np.abs(diff.imag))) <= cut


def _reversal_sign(h: np.ndarray) -> int | None:
    """d in (1, -1) for which the chain of h is symmetric under site
    reversal times diag(1, d) on every site, or None if neither is."""
    for d in (1, -1):
        if _commutes(h, True, False, d):
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


def _spectrum_report(n_sites: int, sectors) -> SpectrumReport:
    """Lowest LOWEST_K eigenvalues (ascending) and the kernel count of
    the sorted union of the spectra of the (count, blocks) stacks in
    sectors, each block's counted count times; each stack is solved as
    it is drawn and only its eigenvalues are kept."""
    spectra = []
    for count, blocks in sectors:
        spectra.append(np.tile(np.linalg.eigvalsh(blocks) if blocks.shape[1]
                               > 1 else blocks[:, 0, 0].real, count))
        # drop this stack before the next one is drawn
        del blocks
    evals = np.sort(np.concatenate(spectra, axis=None))
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
    off = rows != cols
    members = _sector_members(_sector_roots(dim, rows[off], cols[off]),
                              np.arange(dim))
    return _spectrum_report(chain.n_sites, _sector_blocks(dim, [
        (members, (rows, cols, chain.matrix[rows, cols]), 1)]))


def _involutions(n_sites: int, h: np.ndarray) -> list:
    """(sigma, phi) with T|x> = phi[x] |sigma[x]> on every basis index x,
    for each T = (reverse, flip, sign) of _INVOLUTIONS that commutes with
    the chain of h, in order: sigma[x] is x, reversed when reverse and
    with every bit flipped when flip, and phi[x] is sign to the number of
    ones in x.

    A T that differs from an earlier one only in its sign is left out:
    both holding, the chain keeps parity, so every sector has one and the
    two split it alike.
    """
    held = {}
    for reverse, flip, sign in _INVOLUTIONS:
        if (reverse, flip) not in held and _commutes(h, reverse, flip, sign):
            held[reverse, flip] = sign
    if not held:
        return []
    # a leading bit b on x' of one site fewer: rev = 2 rev(x') + b
    rev, odd = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=bool)
    for _ in range(n_sites):
        rev = np.concatenate((2 * rev, 2 * rev + 1))
        odd = np.concatenate((odd, ~odd))
    x = np.arange(2 ** n_sites)
    return [((rev if reverse else x) ^ (x[-1] if flip else 0),
             np.where(odd, sign, 1))
            for (reverse, flip), sign in held.items()]


def _orbit_cost(root: np.ndarray, sigma: np.ndarray, phi: np.ndarray):
    """The cost sum k^3 over the blocks left to solve once T = (sigma,
    phi) is applied to the sectors named by root, and the sector roots
    it is applied to.

    T maps every sector onto one when it commutes with H exactly; in
    case it does so only up to the snapping cut, the sectors are first
    merged until it does: two sectors that the states of one sector are
    mapped into become one, and this repeats until T maps every merged
    sector onto one (the sectors of the pattern and its image together).
    Then one of each pair of sectors T swaps is solved, and a
    sector of k states that T maps onto itself splits into T-even and
    T-odd halves: (k - p) / 2 states each, plus its p fixed points of
    sigma, each in the half of its phi.
    """
    image, moved = root[sigma], root[sigma[root]]
    while not np.array_equal(image, moved):
        # image and moved hold roots only: join those roots, then send
        # every state to the joined root of its sector
        root = _sector_roots(root.size, image, moved)[root]
        image, moved = root[sigma], root[sigma[root]]
    k = np.bincount(root, minlength=root.size)
    heads = np.flatnonzero(k)
    k = k[heads]
    twin = root[sigma[heads]]
    points = np.flatnonzero(sigma == np.arange(root.size))
    even, odd = (np.bincount(root[points], weights=phi[points] == p,
                             minlength=root.size)[heads] for p in (1, -1))
    pairs = (k - even - odd) / 2
    cost = np.where(heads < twin, k ** 3.0, 0.0) + np.where(
        heads == twin, (pairs + even) ** 3 + (pairs + odd) ** 3, 0.0)
    return float(np.sum(cost)), root


def _parity_entries(sigma: np.ndarray, phi: np.ndarray, rows, cols, vals):
    """Nonzero entries of H in the even and odd states of the involution
    T|x> = phi[x] |sigma[x]> (phi = +-1), from H's entries (rows, cols,
    vals) in the basis; T must commute with H.

    The orbit {r, sigma r}, r the smaller, gives the normalized states of
    (1 + T)|r> and (1 - T)|r>, indexed by r and sigma r; a fixed point r
    gives only the one that does not vanish, indexed by r.  As T commutes
    with H, the entry between the parity-p states of r and s is
    sqrt(o_r / o_s) (H[r, s] + p phi_s H[r, sigma s]), o the orbit sizes
    and the second term absent for a fixed point s: only rows at orbit
    representatives are read, and no entry between the parities is made.
    """
    x = np.arange(sigma.size)
    rep = np.minimum(x, sigma)
    orbit = np.where(sigma == x, 1.0, 2.0)
    at_rep = rows == rep[rows]
    r, y = rows[at_rep], cols[at_rep]
    s = rep[y]
    h = vals[at_rep] * np.sqrt(orbit[r] / orbit[s])
    parts = []
    for parity, index in ((1, x), (-1, sigma)):
        live = (orbit == 2) | (phi == parity)
        keep = live[r] & live[s]
        turn = np.where(y == s, 1, parity * phi[s])
        parts.append((index[r[keep]], index[s[keep]], (turn * h)[keep]))
    return _summed_entries(sigma.size,
                           *(np.concatenate(p) for p in zip(*parts)))


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


def _framed_sectors(local: LocalHamiltonian, n_sites: int):
    """The (count, blocks) stacks of _sector_blocks for the chain of local,
    built on the bond term exactly as symmetry_frame scored it in its
    frame; the chain's nonzero entries (rows, cols, vals) in that frame;
    and the frame (None, with the bond term untouched, when the frame is
    the identity).

    When the framed bond term h' keeps the number of ones and has an
    imaginary part, the blocks are built from the chain conjugated by
    the diagonal unitary D = diag(exp(i theta sum_k k x_k)), theta = arg
    t for the hopping entry t = h'[|01>, |10>]: every off-diagonal chain
    entry comes from one bond and is t or conj(t), so D turns it into |t|
    and the diagonal into its real part, with no tolerance involved.
    The spectrum and the sectors are unchanged; the returned entries
    stay the ungauged ones.

    When the (gauged) bond term has an off-diagonal entry and commutes
    with involutions T of _INVOLUTIONS, the one whose blocks cost least
    (_orbit_cost) is applied, if it costs less than none: of two sectors
    T swaps only the one with the smaller root is solved, and its block
    counts twice; a sector T maps onto itself gives the blocks of its
    T-even and T-odd states (_parity_entries).
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
    rows, cols, vals = gauged
    dim = 2 ** n_sites
    off = rows != cols
    root = _sector_roots(dim, rows[off], cols[off])
    best = float(np.sum(np.bincount(root).astype(float) ** 3)), root, None
    # a diagonal chain has one-state sectors, which T cannot split
    for sigma, phi in _involutions(n_sites, h) if np.any(off) else ():
        cost, merged = _orbit_cost(root, sigma, phi)
        if cost < best[0]:
            best = cost, merged, (sigma, phi)
    _, root, t = best
    if t is None:
        parts = [(_sector_members(root, np.arange(dim)), gauged, 1)]
    else:
        sigma, phi = t
        twin = root[sigma]
        fixed = root == twin
        sel = fixed[rows]
        split = _parity_entries(sigma, phi, rows[sel], cols[sel], vals[sel])
        off = split[0] != split[1]
        parts = [(_sector_members(root, np.flatnonzero(root < twin)),
                  gauged, 2),
                 (_sector_members(_sector_roots(dim, split[0][off],
                                                split[1][off]),
                                  np.flatnonzero(fixed)), split, 1)]
    return _sector_blocks(dim, parts), entries, u


def family_report(params: FamilyParams, n_sites: int) -> SpectrumReport:
    """Spectrum of one family chain plus residuals of its catalogued
    zero-energy states, each |H psi| / (|psi| max(1, |H|_F)), without
    assembling the dense chain.

    The spectrum comes from the chain built in the bond term's symmetry
    frame; H psi comes from the chain's entries in the caller's basis.
    A basis state's |H e_x| is the norm of column x, which is that of row
    x because H is Hermitian bit for bit (local_from_espace symmetrizes
    every bond term), so one pass over the entries gives them all; the
    other states' amplitudes, each read once, share one sparse product.
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
        squares = np.bincount(rows, weights=(vals.conj() * vals).real,
                              minlength=2 ** n_sites)
        hpsi_norms[basis] = np.sqrt(
            squares[[catalogue[i].state._index for i in basis]])
    if dense:
        psi = np.array([catalogue[i].state.amplitudes for i in dense])
        norms[dense] = np.linalg.norm(psi, axis=1)
        if not np.all(norms):
            raise ValueError("zero vector cannot witness a ground state")
        if not np.any(vals.imag) and not np.any(psi.imag):
            vals, psi = vals.real, psi.real
        hpsi = vals * psi[:, cols]
        # each row's entries are together, so each run of one row sums to
        # one entry of H psi; a chain with one entry per row (a diagonal
        # one) needs no sums
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
