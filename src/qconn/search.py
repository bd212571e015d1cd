"""Counterexample search over small bitopological spaces.

Instances are ordered pairs of preorders (equivalently, pairs of minimal
neighborhood maps), each held as its rows and their transpose.
Exhaustive mode enumerates every pair up to a carrier size of
``EXHAUSTIVE_MAX_N``; random mode samples DAG-plus-equivalence preorders
of up to ``RANDOM_MAX_N`` points from a seed, building the two rows of
each class once and sharing them among its members.  Every search stream
is prefixed with fixed regression instances, and results are
deterministic for a fixed (target, mode, n, seed, budget).  Every check
works on bitmask rows through ``relations``; subsets are masks on the
full combined digraph, never rebuilt spaces.  Only the two oracle
targets read open sets, which each preorder enumerates on first read
from the rows and transpose it already holds, so they take carriers of
at most ``OPEN_MASK_LIMIT`` points (``Target.max_n``).

On carriers of at most ``MEMO_MAX_N`` = 4 points a relation packs into
one int (``pack``), and each preorder keeps the keys of its rows and of
its transpose, packed on first read.  There every preorder, random
draws included, is an ``all_preorders`` entry, so each of the 389 packs
its keys and enumerates its open sets at most once per process.  A
case's combined relation N+ | (N-)^T is then the key ``fwd.up_key | bwd.down_key`` and its join
relation N+ & N- the key ``fwd.up_key & bwd.up_key``.  Each decision
(strong connectivity, the SCCs of the combined digraph, the components
of the join relation, and ``prop61_union``'s decision over every pair of
subsets) has one per-process memo from key to decision, which on a miss
unpacks the key and runs the ``relations`` kernel.  The 4,165 reflexive
relations on 1 to 4 points bound each memo, against 126,885 cases in an
exhaustive n = 4 run.  Larger carriers repeat too rarely to pay for an
entry, so there the kernel runs on the rows, and ``prop61_union``
samples subset pairs instead of enumerating them.  There the SCC and
component kernels are also passed the transpose, which the case holds:
N+^T | N- for the combined relation and N+^T & N-^T for the join
relation, so no check transposes a relation.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .errors import CarrierTooLarge, UnknownProperty
from .relations import (
    OPEN_MASK_LIMIT,
    combined_rows,
    image_gaps,
    indices_of,
    masks_to_partition,
    preserves,
    scc_masks,
    strongly_connected,
    transpose,
    undirected_components,
    up_sets,
)

DEFAULT_SEED = 20240801
EXHAUSTIVE_MAX_N = 5
# random mode draws a preorder in time quadratic in its number of classes
# (one coin per pair): 0.56-0.64 ms at n = 256 (best of 7 x 20 draws in
# each of five processes, shared 2-core VM, CPython 3.11)
RANDOM_MAX_N = 256
# carrier sizes each mode accepts: random mode draws 2 to n points
N_RANGE = {"exhaustive": (1, EXHAUSTIVE_MAX_N), "random": (2, RANDOM_MAX_N)}

# count of reflexive transitive relations per labelled carrier size
# (OEIS A000798); the tests pin the lengths of the preorder tables to it
PREORDER_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
# largest carrier whose decisions the memos keep, keyed by the packed
# rows (one byte per row, so at most 8 points could pack): every check's
# relation is reflexive, and there are 1 + 4 + 64 + 4,096 = 4,165
# reflexive relations (2**(n*(n-1)) on n points) on carriers of 1 to 4
# points, which bounds the entries per memo; an exhaustive n = 4 run
# decides 126,885 cases on them
MEMO_MAX_N = 4


def pack(rows) -> int:
    """A relation on at most 8 points as one int: one byte per row, row 0
    lowest, then a sentinel byte 1, so relations on different carrier
    sizes never share a key, and the bytewise ``|`` and ``&`` of two keys
    of one size are the keys of the rowwise ``|`` and ``&``."""
    return int.from_bytes(bytes(rows) + b"\x01", "little")


def unpack(key: int) -> tuple[int, ...]:
    """The rows ``pack`` packed into ``key``."""
    return tuple(key.to_bytes((key.bit_length() + 7) >> 3, "little")[:-1])


@dataclass(frozen=True)
class PreorderData:
    rows: tuple[int, ...]
    transpose: tuple[int, ...]

    # the memo keys of the rows and of the transpose; only carriers of at
    # most ``MEMO_MAX_N`` points, where each preorder is a table entry, read them
    @cached_property
    def up_key(self) -> int:
        return pack(self.rows)

    @cached_property
    def down_key(self) -> int:
        return pack(self.transpose)

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every open mask, enumerated on first read from the rows and the
        transpose at a cost per open set (see ``relations.up_sets``) and
        kept."""
        return frozenset(up_sets(self.rows, self.transpose))


class BitopCase(NamedTuple):
    fwd: PreorderData
    bwd: PreorderData
    source: str  # "seeded" | "enumerated" | "random"


class MapCase(NamedTuple):
    src: BitopCase
    assignment: tuple[int, ...]
    tgt: BitopCase
    source: str


# the streams build each case from a tuple of its fields with
# tuple.__new__, in C, where ``_make`` is a Python classmethod and the
# keyword constructor Python code
_bitop_case = partial(tuple.__new__, BitopCase)
_map_case = partial(tuple.__new__, MapCase)


def _preorder(rows: tuple[int, ...], cols: tuple[int, ...]) -> PreorderData:
    """A ``PreorderData`` of the row tuple ``rows`` and its transpose
    ``cols``, with both fields written into the instance dict, as
    ``cached_property`` writes its own: the frozen ``__init__`` would
    spend an ``object.__setattr__`` call on each."""
    p = object.__new__(PreorderData)
    p.__dict__.update(rows=rows, transpose=cols)
    return p


def preorder_data(rows) -> PreorderData:
    rows = tuple(rows)
    return _preorder(rows, tuple(transpose(rows)))


def _offdiag_key(rows) -> int:
    """The off-diagonal bit pattern of a relation: bit i*(n-1) + j' is
    set for each arc i -> j, j != i, where j' is j with column i deleted
    from row i."""
    width = len(rows) - 1
    key = 0
    for i, row in enumerate(rows):
        low = row & ((1 << i) - 1)
        key |= (low | row >> (i + 1) << i) << (i * width)
    return key


@lru_cache(maxsize=None)
def all_preorders(n: int) -> tuple[PreorderData, ...]:
    """Every reflexive transitive relation on n labelled points, in a
    fixed order (off-diagonal bit patterns ascending, see
    ``_offdiag_key``); capped at ``EXHAUSTIVE_MAX_N`` points (6942
    relations).

    Built from the table for n-1 points by adding the point z = n-1: z
    reaches {z} | U for an open set U of the smaller preorder P, and is
    reached from a down-set D of P (an open set of P's transpose) whose
    members each already reach all of U.  Every extension is transitive
    and every preorder on n points restricts to exactly one (P, U, D)."""
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"full preorder table capped at {EXHAUSTIVE_MAX_N} points")
    if n == 0:
        return (preorder_data(()),)
    z = 1 << (n - 1)
    table = []
    for p in all_preorders(n - 1):
        ups = up_sets(p.rows, p.transpose)
        for down in up_sets(p.transpose, p.rows):
            common = -1  # the points every member of D reaches
            for x in indices_of(down):
                common &= p.rows[x]
            rows = [row | z if down >> x & 1 else row for x, row in enumerate(p.rows)]
            table.extend(rows + [z | up] for up in ups if not up & ~common)
    table.sort(key=_offdiag_key)
    return tuple(preorder_data(rows) for rows in table)


@lru_cache(maxsize=None)
def _small_preorders() -> dict[tuple[int, ...], PreorderData]:
    """The entry of ``all_preorders`` by its rows, on 1 to ``MEMO_MAX_N``
    points (389 preorders)."""
    return {p.rows: p for n in range(1, MEMO_MAX_N + 1) for p in all_preorders(n)}


def random_preorder(rng: random.Random, n: int) -> PreorderData:
    """Random equivalence classes glued along a random DAG, transitively
    closed by construction; ``rng`` must be a ``random.Random``.

    Draws a class count k, a class for each point and a shuffle of the
    classes that occur, then one coin per pair of positions a < b in the
    shuffled list (an arc from a to b with probability 0.35).  Arcs only
    run forward and the coins come in lexicographic order, so when the
    coins of position a are drawn its down row (the members of every
    class that reaches it) is final and each winning arc ORs it into the
    down row of b.  One backward pass over the winning arcs then ORs
    each up row (the members of every class it reaches) into its
    predecessor's.  Every point takes its class's two rows, so the rows
    arrive with their transpose and no n x n transpose is needed: one
    ``itemgetter`` of the points' classes picks both row tuples, and
    ``_preorder`` writes them into the result without the dataclass
    ``__init__``.  On at most ``MEMO_MAX_N`` points the result is instead
    the ``all_preorders`` entry with those rows, so each small preorder
    is one object, whose keys and open sets are made once per process.

    Each draw below a bound m is CPython's ``Random._randbelow(m)``
    written out: ``getrandbits(m.bit_length())`` until the value is
    below m.  So the draws are those of ``randint(1, n)``, n
    ``randrange(k)`` and ``shuffle``, consuming the same generator
    words, and each coin is one ``random()`` call."""
    if n < 1:
        raise ValueError(f"a random preorder needs at least one point, got {n}")
    bits = rng.getrandbits
    coin = rng.random
    b = n.bit_length()
    r = bits(b)
    while r >= n:
        r = bits(b)
    k = r + 1
    b = k.bit_length()
    assignment = []
    members = [0] * k
    for x in range(n):
        r = bits(b)
        while r >= k:
            r = bits(b)
        assignment.append(r)
        members[r] |= 1 << x
    used = [c for c in range(k) if members[c]]
    for i in range(len(used) - 1, 0, -1):
        b = (i + 1).bit_length()
        r = bits(b)
        while r > i:
            r = bits(b)
        used[i], used[r] = used[r], used[i]
    up = members[:]
    down = members[:]
    arcs = []
    for a, c in enumerate(used, 1):
        row = down[c]
        for d in used[a:]:
            if coin() < 0.35:
                down[d] |= row
                arcs.append((c, d))
    for c, d in reversed(arcs):
        up[c] |= up[d]
    if n <= MEMO_MAX_N:
        return _small_preorders()[tuple([up[c] for c in assignment])]
    pick = itemgetter(*assignment)
    return _preorder(pick(up), pick(down))


# -- fixed regression instances -------------------------------------------

# forward topology indiscrete, backward splits {0,1} from {2}
REGRESSION_INDISCRETE_SPLIT = BitopCase(
    fwd=preorder_data((0b111, 0b111, 0b111)),
    bwd=preorder_data((0b011, 0b011, 0b100)),
    source="seeded",
)

# three-point space whose combined digraph is a cycle while the join
# topology splits {0} from {1,2}: inseparable yet join-disconnected
REGRESSION_CYCLE_SPLIT = BitopCase(
    fwd=preorder_data((0b011, 0b010, 0b111)),
    bwd=preorder_data((0b001, 0b010, 0b110)),
    source="seeded",
)

REGRESSION_CASES = (REGRESSION_INDISCRETE_SPLIT, REGRESSION_CYCLE_SPLIT)

# the one-point space, target of every stream's constant maps
_POINT = preorder_data((1,))


# -- row-level property checks --------------------------------------------


class _Memo(dict):
    """One decision on the relations of at most ``MEMO_MAX_N`` points,
    from the ``pack`` of the rows to the decision; a miss unpacks the key
    and runs ``decide``.  A shared entry must not change, so a list is
    frozen to a tuple."""

    def __init__(self, decide: Callable):
        self.decide = decide

    def __missing__(self, key: int):
        out = self.decide(unpack(key))
        if type(out) is list:
            out = tuple(out)
        self[key] = out
        return out


def _combined(memo: _Memo, case: BitopCase):
    """``memo``'s decision on the combined relation N+ | (N-)^T of
    ``case``, computed above ``MEMO_MAX_N`` points on its rows and, for
    the SCCs, on their transpose N+^T | N-, which the case holds.  Strong
    connectivity scans the rows for its backward reach, which measured
    faster than building the transpose for it."""
    fwd, bwd = case.fwd, case.bwd
    if len(fwd.rows) <= MEMO_MAX_N:
        return memo[fwd.up_key | bwd.down_key]
    rows = combined_rows(fwd.rows, bwd.transpose)
    if memo is _CONNECTED:
        return memo.decide(rows)
    return memo.decide(rows, combined_rows(fwd.transpose, bwd.rows))


def _join(memo: _Memo, case: BitopCase):
    """``memo``'s decision on the join relation N+ & N- of ``case``,
    computed above ``MEMO_MAX_N`` points on its rows and on their
    transpose N+^T & N-^T."""
    fwd, bwd = case.fwd, case.bwd
    if len(fwd.rows) <= MEMO_MAX_N:
        return memo[fwd.up_key & bwd.up_key]
    return memo.decide([f & g for f, g in zip(fwd.rows, bwd.rows)],
                       [f & g for f, g in zip(fwd.transpose, bwd.transpose)])


def _brute_antisym(case: BitopCase) -> bool:
    n = len(case.fwd.rows)
    full = (1 << n) - 1
    bwd_opens = case.bwd.opens
    for a_mask in case.fwd.opens:
        if a_mask in (0, full):
            continue
        if (full & ~a_mask) in bwd_opens:
            return False
    return True


@lru_cache(maxsize=1 << 14)
def _members(mask: int) -> tuple[int, ...]:
    return tuple(indices_of(mask))


@lru_cache(maxsize=64)
def _point_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _bitop_json(case: BitopCase) -> dict:
    """A finding's instance document.  Its sequences are immutable tuples
    shared between findings (JSON renders them as arrays), so a search
    that records many findings holds each neighborhood once."""
    return {
        "kind": "bitopology",
        "points": _point_labels(len(case.fwd.rows)),
        "forward_min_nbhd": tuple(_members(m) for m in case.fwd.rows),
        "backward_min_nbhd": tuple(_members(m) for m in case.bwd.rows),
    }


def check_antisym_oracle(case: BitopCase, rng) -> dict | None:
    fast = _combined(_CONNECTED, case)
    slow = _brute_antisym(case)
    if fast != slow:
        return {"scc_decision": fast, "brute_force": slow}
    return None


def check_prop53_equivalence(case: BitopCase, rng) -> dict | None:
    """The three separation formulations must agree: the digraph decision,
    the partition enumeration, and the disjoint-open-pair scan."""
    n = len(case.fwd.rows)
    full = (1 << n) - 1
    f1 = _combined(_CONNECTED, case)
    f2 = _brute_antisym(case)
    f3 = True
    for u in case.fwd.opens:
        if u == 0:
            continue
        for v in case.bwd.opens:
            if v == 0 or u & v:
                continue
            if (u | v) == full:
                f3 = False
                break
        if not f3:
            break
    if f1 == f2 == f3:
        return None
    return {"digraph": f1, "partition_enumeration": f2, "pair_scan": f3}


def check_prop54_inclusion(case: BitopCase, rng) -> dict | None:
    anti = _combined(_SCCS, case)
    syms = _join(_COMPONENTS, case)
    for sym in syms:
        if not any(sym & ~a == 0 for a in anti):
            return {"symmetric_component": indices_of(sym),
                    "antisymmetric_components": [indices_of(a) for a in anti]}
    return None


def check_thm54_coincidence(case: BitopCase, rng) -> dict | None:
    anti = masks_to_partition(_combined(_SCCS, case))
    sym = masks_to_partition(_join(_COMPONENTS, case))
    if anti != sym:
        return {"antisymmetric": anti, "symmetric": sym}
    return None


def _union_gap(rows) -> tuple[int, int] | None:
    """The first ordered pair (S, T) of overlapping strongly connected
    masks whose union is not strongly connected, or None.  Each of the
    2**n masks is decided once and every pair is read from that table;
    overlapping strongly connected sets lie in one SCC, so no SCC pass is
    needed."""
    connected = [strongly_connected(rows, m) for m in range(1 << len(rows))]
    sets = [m for m in range(1, len(connected)) if connected[m]]
    for s in sets:
        for t in sets:
            if s & t and not connected[s | t]:
                return s, t
    return None


def _sampled_union_gap(rows, cols, rng) -> tuple[int, int] | None:
    """Like ``_union_gap``, from 6 tries per strongly connected block
    of two or more points, each drawing S and T as uniform random subsets
    of the block; ``cols`` is the transpose of ``rows``."""
    n = len(rows)
    for blk in scc_masks(rows, cols):
        if not blk & (blk - 1):
            continue
        for _ in range(6):
            s = rng.getrandbits(n) & blk
            t = rng.getrandbits(n) & blk
            if (s & t and strongly_connected(rows, s) and strongly_connected(rows, t)
                    and not strongly_connected(rows, s | t)):
                return s, t
    return None


_CONNECTED = _Memo(strongly_connected)
_SCCS = _Memo(scc_masks)
_COMPONENTS = _Memo(undirected_components)
_UNION = _Memo(_union_gap)


def check_prop61_union(case: BitopCase, rng) -> dict | None:
    """Two inseparable subsets with a common point must have an
    inseparable union.  Decided over every pair of subsets on carriers of
    at most ``MEMO_MAX_N`` points, once per combined relation; larger
    carriers draw pairs inside their strongly connected blocks from
    ``rng``."""
    fwd, bwd = case.fwd, case.bwd
    if len(fwd.rows) <= MEMO_MAX_N:
        gap = _UNION[fwd.up_key | bwd.down_key]
    else:
        gap = _sampled_union_gap(combined_rows(fwd.rows, bwd.transpose),
                                 combined_rows(fwd.transpose, bwd.rows), rng)
    if gap is None:
        return None
    s, t = gap
    return {"S": indices_of(s), "T": indices_of(t), "union": indices_of(s | t)}


def _lemma_gap(case: BitopCase, mask: int) -> dict | None:
    """First point of ``mask`` where the local-inseparability lemma loses
    its premise, or None.  For y in J(x) = N+(x) & N-(x), y in N+(x) is
    the combined arc x -> y and y in N-(x) the arc y -> x, so the trace on
    J(x) & mask is strongly connected whenever both arcs are present;
    a missing arc is the only way the claim could fail.  The combined
    rows hold N+ itself, so only an arc y -> x can be missing: it is read
    from row y, which takes it from the backward transpose.  Read from the
    combined digraph's transpose written as N+^T | N-, every such arc
    would be present whatever that transpose holds."""
    rows = combined_rows(case.fwd.rows, case.bwd.transpose)
    bwd = case.bwd.rows
    for x, row in enumerate(case.fwd.rows):
        if mask >> x & 1:
            missing = 0
            rest = row & bwd[x] & mask
            while rest:
                low = rest & -rest
                rest ^= low
                if not rows[low.bit_length() - 1] >> x & 1:
                    missing |= low
            if missing:
                return {"point": x, "missing_arcs_with": indices_of(missing)}
    return None


def check_prop61_subspace(case: BitopCase, rng) -> dict | None:
    """Local inseparability must survive passage to join-open subspaces.
    The minimal join neighborhood in a subspace S is J(x) & S and the
    trace's combined digraph is the full one restricted to S, so the
    lemma's premise on the whole carrier settles every subspace at once."""
    return _lemma_gap(case, (1 << len(case.fwd.rows)) - 1)


def check_cor61_join_local(case: BitopCase, rng) -> dict | None:
    """Searches the global claim 'inseparable implies join-connected',
    which is where the local corollary would need a converse; every
    inseparable but join-disconnected space is a finding."""
    if not _combined(_CONNECTED, case):
        return None
    sym = _join(_COMPONENTS, case)
    if len(sym) > 1:
        return {"antisym_connected": True,
                "symmetric_components": masks_to_partition(sym)}
    return None


def check_prop62_image(case: MapCase, rng) -> dict | None:
    """Images of inseparable sets under specialization-preserving maps
    must be inseparable in the image trace."""
    tgt_rows = combined_rows(case.tgt.fwd.rows, case.tgt.bwd.transpose)
    for blk, img in image_gaps(case.assignment, _combined(_SCCS, case.src), tgt_rows):
        return {"block": indices_of(blk), "image": indices_of(img)}
    return None


def check_thm74_local_image(case: MapCase, rng) -> dict | None:
    """A locally inseparable source must map onto a locally inseparable
    image subspace.  Every finite source is locally inseparable by the
    lemma, so this checks the lemma's premise at the image points, inside
    the image trace of the target."""
    image = 0
    for y in case.assignment:
        image |= 1 << y
    return _lemma_gap(case.tgt, image)


@dataclass(frozen=True)
class Target:
    id: str
    description: str
    case_kind: str  # "bitop" | "bitop_equal" | "map"
    check: Callable
    tautological: bool = False  # cannot fail on a finite carrier
    max_n: int = RANDOM_MAX_N  # the largest carrier the check accepts


TARGETS: dict[str, Target] = {
    t.id: t
    for t in (
        Target("antisym_oracle",
               "digraph decision agrees with subset enumeration",
               "bitop", check_antisym_oracle, max_n=OPEN_MASK_LIMIT),
        Target("prop53_equivalence",
               "three separation formulations agree",
               "bitop", check_prop53_equivalence, max_n=OPEN_MASK_LIMIT),
        Target("prop54_inclusion",
               "symmetric components refine antisymmetric components",
               "bitop", check_prop54_inclusion),
        Target("thm54_coincidence",
               "partitions coincide when the two topologies are equal",
               "bitop_equal", check_thm54_coincidence),
        Target("prop61_union",
               "overlapping inseparable subsets have inseparable union",
               "bitop", check_prop61_union),
        Target("prop61_subspace",
               "local inseparability survives join-open subspaces "
               "(tautological on finite carriers)",
               "bitop", check_prop61_subspace, tautological=True),
        Target("cor61_join_local",
               "inseparable spaces that are join-disconnected (expected findings)",
               "bitop", check_cor61_join_local),
        Target("prop62_image",
               "specialization-preserving maps keep images inseparable",
               "map", check_prop62_image),
        Target("thm74_local_image",
               "locally inseparable sources have locally inseparable images "
               "(tautological on finite carriers)",
               "map", check_thm74_local_image, tautological=True),
    )
}


# -- case streams ----------------------------------------------------------


def _bitop_stream(mode: str, n: int, seed: int, equal: bool) -> Iterable[BitopCase]:
    if not equal:
        yield from REGRESSION_CASES
    if mode == "exhaustive":
        for size in range(1, n + 1):
            table = all_preorders(size)
            # fwd outer and bwd inner
            if equal:
                cases = zip(table, table, itertools.repeat("enumerated"))
            else:
                cases = itertools.product(table, table, ("enumerated",))
            yield from map(_bitop_case, cases)
    else:
        # sizes 2 to n, drawn as ``randint(2, n)`` is (see ``random_preorder``)
        span = n - 1
        if span < 1:
            raise ValueError(f"random mode draws 2 to n points, got n = {n}")
        rng = random.Random(seed)
        bits = rng.getrandbits
        b = span.bit_length()
        while True:
            r = bits(b)
            while r >= span:
                r = bits(b)
            size = 2 + r
            p = random_preorder(rng, size)
            q = p if equal else random_preorder(rng, size)
            yield _bitop_case((p, q, "random"))


def _map_stream(mode: str, n: int, seed: int) -> Iterable[MapCase]:
    """Per source case: the identity, the constant map to the one-point
    space, and the first of 6 random assignments into a random target
    of 1 to max(2, size) points that preserves both specializations.
    Sizes and assignments are drawn as ``randint`` and ``randrange`` do
    (see ``random_preorder``)."""
    rng = random.Random(seed ^ 0x5EED)
    bits = rng.getrandbits
    for case in _bitop_stream(mode, n, seed, equal=False):
        size = len(case.fwd.rows)
        source = case.source
        yield _map_case((case, tuple(range(size)), case, source))
        yield _map_case((case, (0,) * size, _bitop_case((_POINT, _POINT, source)), source))
        span = max(2, size)
        b = span.bit_length()
        r = bits(b)
        while r >= span:
            r = bits(b)
        tgt_size = r + 1
        tgt = _bitop_case((random_preorder(rng, tgt_size), random_preorder(rng, tgt_size),
                           source))
        b = tgt_size.bit_length()
        for _ in range(6):
            assignment = []
            for _ in range(size):
                r = bits(b)
                while r >= tgt_size:
                    r = bits(b)
                assignment.append(r)
            if (preserves(assignment, case.fwd.rows, tgt.fwd.rows) is None
                    and preserves(assignment, case.bwd.rows, tgt.bwd.rows) is None):
                yield _map_case((case, tuple(assignment), tgt, source))
                break


def _case_json(case) -> dict:
    if isinstance(case, BitopCase):
        return _bitop_json(case)
    src, tgt = _bitop_json(case.src), _bitop_json(case.tgt)
    return {
        "kind": "map-case",
        "source_space": src,
        "map": {"kind": "map", "source_points": src["points"],
                "target_points": tgt["points"], "assignment": list(case.assignment)},
        "target_space": tgt,
    }


@dataclass
class SearchResult:
    target: str
    mode: str
    n: int
    seed: int
    budget: int | None
    instances_tested: int
    findings: list[dict]
    wall_time: float

    def findings_document(self) -> dict:
        """Deterministic content for the findings file (wall time excluded
        on purpose: byte-identical output across runs is contractual)."""
        return {
            "target": self.target,
            "mode": self.mode,
            "n": self.n,
            "seed": self.seed,
            "budget": self.budget,
            "stats": {
                "instances_tested": self.instances_tested,
                "failures_found": len(self.findings),
                "tautological": TARGETS[self.target].tautological,
            },
            "findings": self.findings,
        }


def search_counterexamples(target: str, n: int, mode: str = "exhaustive",
                           seed: int = DEFAULT_SEED,
                           budget: int | None = None) -> SearchResult:
    """Run one property target over the instance stream.

    Deterministic for fixed arguments: the stream order is fixed and one
    generator, seeded from ``seed``, serves every case of the run in
    stream order; only ``prop61_union`` draws from it, and only on
    carriers of more than ``MEMO_MAX_N`` points.  Raises
    ``ValueError`` for an unknown mode, an ``n`` outside its
    ``N_RANGE`` entry or a negative ``budget``, and ``CarrierTooLarge``
    for an ``n`` above the target's ``max_n``, before any case is drawn.
    """
    if target not in TARGETS:
        raise UnknownProperty(f"unknown target {target!r}; known: "
                              + ", ".join(sorted(TARGETS)))
    if mode not in N_RANGE:
        raise ValueError(f"unknown mode {mode!r}")
    low, high = N_RANGE[mode]
    if not low <= n <= high:
        raise ValueError(f"{mode} mode takes {low} to {high} points, got {n}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    tgt = TARGETS[target]
    if n > tgt.max_n:
        raise CarrierTooLarge(f"target {target} takes carriers of at most {tgt.max_n} "
                              f"points, got n = {n}")
    if tgt.case_kind == "map":
        stream = _map_stream(mode, n, seed)
    else:
        stream = _bitop_stream(mode, n, seed, equal=tgt.case_kind == "bitop_equal")
    if budget is not None:
        stream = itertools.islice(stream, budget)
    elif mode == "random":
        raise ValueError("random mode requires a budget")

    start = time.perf_counter()
    rng = random.Random(seed * 1_000_003)
    tested = 0
    findings = []
    for idx, case in enumerate(stream):
        detail = tgt.check(case, rng)
        tested += 1
        if detail is not None:
            findings.append({"index": idx, "source": case.source,
                             "instance": _case_json(case), "detail": detail})
    return SearchResult(target=target, mode=mode, n=n, seed=seed, budget=budget,
                        instances_tested=tested, findings=findings,
                        wall_time=time.perf_counter() - start)
