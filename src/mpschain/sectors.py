"""Sector stacks of a chain: the index arrays that split it into blocks.

A chain is block diagonal over the connected components (sectors) of its
off-diagonal pattern.  This module finds them and works out where each
of the chain's entries lands in the stack of equal-size blocks it
belongs to (_sector_stacks), and pairs or splits them by a
basis-permuting involution its bond term is invariant under
(_involution, _parity_fold); a chain with none is folded by the
identity, which pairs nothing and splits nothing.  None of that depends
on the chain's values beyond their nonzero pattern, so _sector_plan
gathers it into a plan of index arrays, of one shape for every chain.
_stacks is the one entry point for a chain of a 4x4 bond term: it
computes the chain's values, keeps one plan per size, bond pattern and
involution in a small least-recently-used cache, checks the values
against it (_numeric_parts) and hands them to _filled_stacks, which
builds and yields the stacks one at a time.  Which bond term a
chain is built from (its frame, its gauge, its involution) is verify's
choice.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ChainSizeError, ParameterError, _chain_table


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


def _sector_stacks(dim: int, rows, cols, states,
                   root: np.ndarray | None = None) -> tuple:
    """Where each entry (rows, cols) of a dim-state chain lands in the
    stacks of equal-size sectors of the basis states `states`
    (ascending): the sectors named by root, else the connected
    components of the entries' off-diagonal pattern.

    One (s, k, src, dst) per sector size k: the s sectors of that size in
    order of their root, members ascending, src the entries in rows of
    their members and dst their flat positions in the (s, k, k) stack.
    Entries in rows of no member are left out.  One sort of the entries
    by stack serves every stack.
    """
    if root is None:
        off = rows != cols
        root = _sector_roots(dim, rows[off], cols[off])
    roots = root[states]
    size = np.bincount(roots, minlength=dim)[roots]
    # a stable sort: by size, then root, members ascending
    order = np.lexsort((roots, size))
    states, k = states[order], size[order]
    ks, counts = np.unique(k, return_counts=True)
    # each state's stack, and its rank r there: block r // k, position
    # r % k in the block, and so its row starts at r * k in the stack;
    # stack ids of a small dtype, which a stable sort orders in one pass,
    # and len(ks) for the states of none
    rank = np.arange(states.size) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
    stack = np.full(dim, ks.size, dtype=np.min_scalar_type(ks.size))
    stack[states] = np.repeat(np.arange(ks.size), counts)
    start = np.zeros(dim, dtype=np.intp)
    start[states] = rank * k
    pos = np.zeros(dim, dtype=np.intp)
    pos[states] = rank % k
    at = stack[rows]
    src = np.argsort(at, kind="stable")
    ends = np.searchsorted(at[src], np.arange(1, ks.size + 1))
    # a row and its column lie in one sector
    dst = start[rows[src]] + pos[cols[src]]
    return tuple((count // k, k, src[lo:hi], dst[lo:hi])
                 for k, count, lo, hi in zip(ks.tolist(), counts.tolist(),
                                             np.concatenate(([0], ends[:-1])),
                                             ends))


def _filled_stacks(parts: list):
    """The (count, blocks) stacks of parts of (count, vals, stacks), the
    stacks from _sector_stacks over entries whose values are vals.

    Refuses (ChainSizeError), before any block is allocated, when a stack
    to be eigensolved and eigvalsh's copy of it need more bytes than
    MemAvailable; where that cannot be read, only the site guard holds.
    Then yields (count, blocks) for each stack in turn: blocks (s, k, k)
    holds H restricted to each of s sectors of k states, real when no
    value of the part has an imaginary part.  A stack is built only when
    the one before it has been drawn and dropped, so a caller that solves
    each as it comes holds one at a time.
    """
    parts = [(count, vals.real if np.iscomplexobj(vals)
              and not np.any(vals.imag) else vals, stacks)
             for count, vals, stacks in parts]
    need = 2 * max((s * k * k * vals.itemsize for _, vals, stacks in parts
                    for s, k, _, _ in stacks if k > 1), default=0)
    available = _available_bytes() if need else None
    if available is not None and need > available:
        raise ChainSizeError(
            f"the largest sector blocks need {need} bytes with eigvalsh's "
            f"copy, but {available} bytes are available")
    return _built_blocks(parts)


def _built_blocks(parts: list):
    """The stacks of _filled_stacks, built one per draw."""
    for count, vals, stacks in parts:
        for s, k, src, dst in stacks:
            blocks = np.zeros(s * k * k, dtype=vals.dtype)
            blocks[dst] = vals[src]
            yield count, blocks.reshape(s, k, k)
            # drop this stack before the next one is built
            del blocks


def _involution(n_sites: int, t: tuple):
    """(sigma, phi) with T|x> = phi[x] |sigma[x]> on every basis index x,
    for T = (reverse, flip, sign): sigma[x] is x, reversed when reverse
    and with every bit flipped when flip, and phi[x] is sign to the
    number of ones in x."""
    reverse, flip, sign = t
    # a leading bit b on x' of one site fewer: rev = 2 rev(x') + b
    rev, odd = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=bool)
    for _ in range(n_sites):
        rev = np.concatenate((2 * rev, 2 * rev + 1))
        odd = np.concatenate((odd, ~odd))
    x = np.arange(2 ** n_sites)
    return (rev if reverse else x) ^ (x[-1] if flip else 0), np.where(
        odd, sign, 1)


def _parity_fold(sigma: np.ndarray, phi: np.ndarray, rows, cols):
    """How H's entries (rows, cols) fold into its nonzero entries in the
    even and odd states of the involution T|x> = phi[x] |sigma[x]>
    (phi = +-1); T must commute with H.

    The orbit {r, sigma r}, r the smaller, gives the normalized states of
    (1 + T)|r> and (1 - T)|r>, indexed by r and sigma r; a fixed point r
    gives only the one that does not vanish, indexed by r.  As T commutes
    with H, the entry between the parity-p states of r and s is
    sqrt(o_r / o_s) (H[r, s] + p phi_s H[r, sigma s]), o the orbit sizes
    and the second term absent for a fixed point s: only rows at orbit
    representatives are read, and no entry between the parities is made.

    Returns the fold (src, weight, slot) of _folded, the term
    vals[src] * _FOLD_WEIGHTS[weight] of H's values vals going to slot,
    and keys, row * dim + col of every slot, ascending, dim = sigma.size.
    """
    dim = sigma.size
    x = np.arange(dim)
    rep = np.minimum(x, sigma)
    orbit = np.where(sigma == x, 1.0, 2.0)
    at_rep = np.flatnonzero(rows == rep[rows])
    r, y = rows[at_rep], cols[at_rep]
    s = rep[y]
    # 0, 2 or 4 for an orbit ratio o_r / o_s of 1, 2 or 1/2
    scale = (orbit[r] > orbit[s]) * 2 + (orbit[r] < orbit[s]) * 4
    terms = []
    for parity, index in ((1, x), (-1, sigma)):
        live = (orbit == 2) | (phi == parity)
        keep = live[r] & live[s]
        negative = (y != s) & (parity * phi[s] < 0)
        terms.append((at_rep[keep], (scale + negative)[keep].astype(np.int8),
                      index[r[keep]] * dim + index[s[keep]]))
    src, weight, keys = (np.concatenate(t) for t in zip(*terms))
    order = np.argsort(keys)
    first = np.diff(keys[order], prepend=-1) != 0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    return (src, weight, slot), keys[order][first]


# The weights sqrt(o_r / o_s) and their negatives that _parity_fold
# gives its terms, by code.
_FOLD_WEIGHTS = np.array([1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0),
                          np.sqrt(0.5), -np.sqrt(0.5)])


def _folded(vals: np.ndarray, fold: tuple, slots: int) -> np.ndarray:
    """The value of each of the slots of fold (from _parity_fold) for
    H's values vals: its terms summed in their order.

    A weight is +-1, +-sqrt(2) or +-sqrt(1/2), so each term's nonzero
    parts are those of +-(value * sqrt(o_r / o_s)) bit for bit.
    """
    src, weight, slot = fold
    terms = vals[src] * _FOLD_WEIGHTS[weight]
    if not np.iscomplexobj(terms):
        return np.bincount(slot, weights=terms, minlength=slots)
    return (np.bincount(slot, weights=terms.real, minlength=slots)
            + 1j * np.bincount(slot, weights=terms.imag, minlength=slots))


def _table_nonzero(vals: np.ndarray):
    """(rows, k) of the nonzero values vals[k, rows] of a _chain_table,
    in the chain's order: rows ascending, each row's masks in the table's
    order.  A plan's flat indices list the values in this order, and
    verify sums the squares of |H|_F in it."""
    # a contiguous boolean copy with the rows first reads far faster than
    # the strided complex table
    found = np.flatnonzero(np.ascontiguousarray((vals != 0).T))
    return np.divmod(found, vals.shape[0])


@dataclass(frozen=True)
class _SectorPlan:
    """The symbolic half of a chain's sector split: index arrays only,
    no values (see _stacks), each of the dtype numpy gave it, so a warm
    call indexes with it as it is.

    flat holds the positions, in the chain's flattened _chain_table, of
    its nonzero values in _table_nonzero's order; chain the _sector_stacks
    of the part read from those values, each sector standing for itself
    and its twin under the involution T; fold the _parity_fold of the
    entries in sectors T maps onto themselves, keep its nonzero slots,
    and split the _sector_stacks of the kept folded values.  Under the
    identity, chain is empty and split holds the chain's own sectors.
    """

    flat: np.ndarray
    chain: tuple
    fold: tuple
    keep: np.ndarray
    split: tuple

    @functools.cached_property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.flat, *self.fold, self.keep,
            *(a for stack in self.chain + self.split for a in stack[2:])))


def _sector_plan(n_sites: int, masks: np.ndarray, table: np.ndarray,
                 t: tuple | None) -> _SectorPlan:
    """The plan of the chain whose _chain_table is (masks, table), its
    bond term invariant under the involution t, or None for the identity
    (False, False, 1).

    t is applied to every chain, a diagonal one included: one of each
    pair of sectors it swaps is solved, and a sector it maps onto itself
    splits into its T-even and T-odd states.  The identity maps every
    sector onto itself, gives each folded entry weight 1 and makes no
    odd states, so its split stacks are the chain's own sectors.  Refuses
    (RuntimeError) a t that does not map every sector onto one, which
    a bond term from verify._frame, T-invariant bit for bit, never
    gives.  The table's values enter only through their nonzero pattern
    and that of the folded entries.
    """
    dim = 2 ** n_sites
    rows, k = _table_nonzero(table)
    cols = rows ^ masks[k]
    flat = k * dim + rows
    off = rows != cols
    root = _sector_roots(dim, rows[off], cols[off])
    sigma, phi = _involution(n_sites, (False, False, 1) if t is None else t)
    twin = root[sigma]
    if not np.array_equal(twin, root[sigma[root]]):
        raise RuntimeError(f"{t} does not map every sector of the chain "
                           f"onto one at n_sites={n_sites}")
    fixed = root == twin
    sel = np.flatnonzero(fixed[rows])
    (src, weight, slot), keys = _parity_fold(sigma, phi, rows[sel],
                                             cols[sel])
    fold = sel[src], weight, slot
    keep = _folded(table.reshape(-1)[flat], fold, keys.size) != 0
    keys = keys[keep]
    return _SectorPlan(
        flat,
        _sector_stacks(dim, rows, cols, np.flatnonzero(root < twin), root),
        fold, keep,
        _sector_stacks(dim, keys // dim, keys % dim, np.flatnonzero(fixed)))


def _numeric_parts(plan: _SectorPlan, table: np.ndarray):
    """The parts of _filled_stacks for the chain's _chain_table table
    under plan, the first holding its nonzero values in _table_nonzero's
    order; None where the pattern of the values, or of the folded
    values, is not the plan's."""
    vals = table.reshape(-1)[plan.flat]
    if np.count_nonzero(table) != vals.size or not np.all(vals):
        return None
    total = _folded(vals, plan.fold, plan.keep.size)
    if not np.array_equal(total != 0, plan.keep):
        return None
    return [(2, vals, plan.chain), (1, total[plan.keep], plan.split)]


# Plans by (n_sites, nonzero pattern of the bond term, involution),
# least recently used first, and the bytes they may hold together.
_PLANS: OrderedDict = OrderedDict()
_PLAN_BYTES = 16 << 20
_PLAN_LOCK = threading.Lock()


def _stacks(h: np.ndarray, n_sites: int, t: tuple | None):
    """The (count, blocks) stacks of _filled_stacks for the open chain of
    the 4x4 bond term h, split by the involution t that h is invariant
    under (None for the identity), and that chain's nonzero values in
    _table_nonzero's order, of h's dtype.

    The work is split in two.  The symbolic step (_sector_plan) finds the
    sectors, the twin and fixed sectors of t, the parity fold
    and where every entry lands in its stack; it depends only on n_sites,
    the nonzero pattern of h and t, and its plan is kept in a
    least-recently-used cache of at most _PLAN_BYTES; a larger plan is
    not kept.  The numeric step runs on every call: it computes the
    chain's values, checks that their nonzero pattern and that of the
    folded values are the plan's, and scatters the values into the
    stacks.  An exact cancellation that the bond term's pattern does not
    show fails the check; that call then gets a plan of its own, which is
    not kept.  Only index arrays are cached, never values or results.

    Refuses (ParameterError), before any plan is kept or block built, a
    chain value, raw or folded, that a sum took beyond the float range.
    """
    masks, table = _chain_table(h, n_sites)
    key = n_sites, (h != 0).tobytes(), t
    with _PLAN_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
    parts = None if plan is None else _numeric_parts(plan, table)
    if parts is None:
        fresh = _sector_plan(n_sites, masks, table, t)
        parts = _numeric_parts(fresh, table)
    if not all(np.all(np.isfinite(vals)) for _, vals, _ in parts):
        raise ParameterError(f"chain values exceed the float range at "
                             f"n_sites={n_sites}")
    if plan is None and fresh.nbytes <= _PLAN_BYTES:
        with _PLAN_LOCK:
            _PLANS.setdefault(key, fresh)
            kept = sum(p.nbytes for p in _PLANS.values())
            while kept > _PLAN_BYTES:
                kept -= _PLANS.popitem(last=False)[1].nbytes
    return _filled_stacks(parts), parts[0][1]
