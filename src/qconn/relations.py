"""Relations on a finite carrier as bitmask rows.

A relation on points 0..n-1 is a sequence of ints: bit y of rows[x] is
set iff x is related to y.  Minimal-neighborhood maps, the combined
digraph, join neighborhoods and reachability are all relations in this
form, and every decision on them reduces to the few routines below.  The
functions are shared by the object API and by the counterexample search,
take tuples or lists, and never reindex: a subspace is a mask, and the
relation a trace induces on it is the full relation restricted to that
mask.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CarrierTooLarge

# largest carrier whose open sets are enumerated (2**16 masks)
OPEN_MASK_LIMIT = 16


def mask_of(indices, n: int) -> int:
    """The mask of the point indices ``indices``, each in range(n)."""
    m = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for {n} points")
        m |= 1 << i
    return m


def indices_of(mask: int) -> list[int]:
    """The set bits of a nonnegative ``mask`` in ascending order, one step
    per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def masks_to_partition(masks) -> list[list[int]]:
    """Index lists of component masks, which the relation kernel already
    orders by least member."""
    return [indices_of(m) for m in masks]


def transpose(rows) -> list[int]:
    """Converse relation: bit x of the result's row y iff bit y of rows[x].

    ``rows`` must be square: n rows whose bits all lie below n.  The rows
    are packed into one int at a power-of-two stride w >= max(n, 8), bit
    c of row r at position r*w + c, and log2(w) masked delta swaps
    exchange bit j of r with bit j of c, one level j at a time.  The cost
    is O(n**2 log w / 64) word operations, whatever the number of arcs."""
    n = len(rows)
    if n > 8:
        return _transpose_wide(rows, n)
    x = int.from_bytes(bytes(rows), "little")  # w = 8: one byte per row
    for s, mask in _BYTE_SWAPS:
        t = (x ^ x >> s) & mask
        x ^= t ^ t << s
    return list(x.to_bytes(8, "little")[:n])


def _transpose_wide(rows, n: int) -> list[int]:
    """``transpose`` above 8 points, at every width in one packed int.
    Kept out of ``transpose`` because the small carriers of the search
    run measurably faster in its smaller frame."""
    w = 1 << (n - 1).bit_length()  # >= 16, since n > 8
    nb = w >> 3  # bytes per packed row
    x = int.from_bytes(b"".join([r.to_bytes(nb, "little") for r in rows]), "little")
    for s, mask in _swap_masks(w):
        t = (x ^ x >> s) & mask
        x ^= t ^ t << s
    out = x.to_bytes(w * nb, "little")
    return [int.from_bytes(out[c:c + nb], "little") for c in range(0, n * nb, nb)]


@lru_cache(maxsize=None)
def _swap_masks(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per level j of a w x w bit matrix: the mask marks the
    bits at row r, column c with bit j clear in r and set in c, and the
    shift j*(w-1) carries each to row r+j, column c-j.  Each mask is one
    byte pattern, the column bytes for the j rows with bit j clear and
    then j zero rows, repeated w/2j times.  The instance and CLI caps
    admit no width above 1,024 (768 formal balls), where the cached
    masks take 1.2 MB."""
    nb = w >> 3
    levels = []
    j = w >> 1
    while j:
        cols = sum(1 << c for c in range(w) if c & j).to_bytes(nb, "little")
        pattern = (cols * j + bytes(j * nb)) * (w // (2 * j))
        levels.append((j * (w - 1), int.from_bytes(pattern, "little")))
        j >>= 1
    return tuple(levels)


_BYTE_SWAPS = _swap_masks(8)


def combined_rows(fwd, bwd_cols) -> list[int]:
    """Arcs x -> y iff y in N+(x) or x in N-(y), given the rows of N+ and
    the columns (the transpose) of N-."""
    return [f | c for f, c in zip(fwd, bwd_cols)]


def is_closed(rows, mask: int) -> bool:
    """True iff every row of a member of ``mask`` stays inside ``mask``;
    for a minimal-neighborhood map this is openness."""
    rest = mask
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if rows[x] & ~mask:
            return False
    return True


def coherence_violation(rows) -> tuple[int, int] | None:
    """First (x, y) with y in rows[x] but rows[y] not inside rows[x], or
    (x, x) when x is not in rows[x]; None exactly for a preorder."""
    for x, row in enumerate(rows):
        if not row >> x & 1:
            return (x, x)
        if not is_closed(rows, row):
            return (x, next(y for y in indices_of(row) if rows[y] & ~row))
    return None


def up_sets(up, down) -> list[int]:
    """Every up-set of a preorder in ascending order, given its rows
    ``up`` and their transpose ``down``; this is the package's one
    open-set enumeration.

    Depth-first: branch on the highest undecided point, first excluding
    it with everything below it in ``down``, then including it with
    everything in its ``up`` row.  The in-mask stays up-closed and the
    out-mask down-closed, so neither branch can meet the other mask and
    every branch ends in an up-set: the cost is O(n) per up-set, not per
    subset.  All bits above the branch point are fixed in its subtree,
    so the output is ascending.  A discrete carrier still has 2**n
    up-sets, so carriers above ``OPEN_MASK_LIMIT`` points raise
    ``CarrierTooLarge``."""
    n = len(up)
    if n > OPEN_MASK_LIMIT:
        raise CarrierTooLarge(f"open-set enumeration capped at {OPEN_MASK_LIMIT} "
                              f"points (carrier has {n})")
    full = (1 << n) - 1
    out = []
    pending = [(0, 0)]  # (in-mask, out-mask) of include branches not yet taken
    while pending:
        inside, outside = pending.pop()
        while True:
            free = full & ~(inside | outside)
            if not free:
                out.append(inside)
                break
            b = free.bit_length() - 1
            pending.append((inside | up[b], outside))
            outside |= down[b]
    return out


def reach(rows, start: int, within: int) -> int:
    """Points reachable from the mask ``start`` along arcs that stay
    inside ``within``, start included."""
    seen = front = start
    while front:
        nxt = 0
        rest = front
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            nxt |= rows[x]
        front = nxt & within & ~seen
        seen |= front
    return seen


def scc_masks(rows, cols=None) -> list[int]:
    """Strongly connected components as masks, ordered by least member.
    The component of the least unassigned x is what x reaches and what
    reaches x; earlier components are skipped, since none of them can
    lie on a cycle through x.  What reaches x is read from ``cols``,
    which must equal ``transpose(rows)``; it is computed when omitted,
    and a passed one is not checked."""
    if cols is None:
        cols = transpose(rows)
    free = (1 << len(rows)) - 1
    comps = []
    for x in range(len(rows)):
        if not free >> x & 1:
            continue
        comp = reach(rows, 1 << x, free) & reach(cols, 1 << x, free)
        comps.append(comp)
        free &= ~comp
    return comps


def strongly_connected(rows, sub: int | None = None) -> bool:
    """Strong connectivity of the subgraph induced on the mask ``sub``
    (the whole carrier when omitted), by forward and backward reach from
    its least member, without reindexing."""
    if sub is None:
        sub = (1 << len(rows)) - 1
    if sub & (sub - 1) == 0:
        return True
    seed = sub & -sub
    if reach(rows, seed, sub) != sub:
        return False
    seen = front = seed
    while front:
        nxt = 0
        rest = sub & ~seen
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[x] & front:
                nxt |= 1 << x
        front = nxt
        seen |= nxt
    return seen == sub


def undirected_components(rows, cols=None) -> list[int]:
    """Components of the relation with its arcs read both ways, as masks
    ordered by least member.  The arcs read backwards come from ``cols``,
    which must equal ``transpose(rows)``; it is computed when omitted,
    and a passed one is not checked."""
    if cols is None:
        cols = transpose(rows)
    sym = [r | c for r, c in zip(rows, cols)]
    free = (1 << len(rows)) - 1
    comps = []
    for x in range(len(rows)):
        if free >> x & 1:
            comp = reach(sym, 1 << x, free)
            comps.append(comp)
            free &= ~comp
    return comps


def preserves(assignment, src_rows, tgt_rows) -> tuple[int, int] | None:
    """First pair (x, y) with y in src_rows[x] but assignment[y] outside
    tgt_rows[assignment[x]], or None when the map preserves the relation."""
    for x, row in enumerate(src_rows):
        img = tgt_rows[assignment[x]]
        rest = row
        while rest:
            y = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not img >> assignment[y] & 1:
                return (x, y)
    return None


def image_gaps(assignment, blocks, tgt_rows):
    """Yield (block, image) for each mask in ``blocks``, in order, whose
    image under ``assignment`` does not induce a strongly connected
    subgraph of ``tgt_rows``."""
    for blk in blocks:
        img = 0
        rest = blk
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            img |= 1 << assignment[x]
        if not strongly_connected(tgt_rows, img):
            yield blk, img
