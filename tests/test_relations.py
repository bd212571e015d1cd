"""The bitmask relation kernel against networkx as an independent oracle,
on seeded random digraphs (with and without loops) up to 12 points."""

import random

import networkx as nx
import pytest

from qconn.bitopology import AlexandrovTopology
from qconn.errors import CarrierTooLarge
from qconn.relations import (
    OPEN_MASK_LIMIT,
    combined_rows,
    image_gaps,
    is_closed,
    preserves,
    reach,
    scc_masks,
    strongly_connected,
    transpose,
    undirected_components,
    up_sets,
)
from qconn.search import all_preorders, random_preorder


def _mask(nodes) -> int:
    return sum(1 << v for v in nodes)


def _random_rows(rng: random.Random, n: int) -> list[int]:
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    return [sum(1 << y for y in range(n) if rng.random() < density)
            for _ in range(n)]


def _graph(rows) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((x, y) for x, row in enumerate(rows)
                     for y in range(len(rows)) if row >> y & 1)
    return g


def _cases(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        yield rng, n, _random_rows(rng, n)


def test_scc_masks_match_networkx():
    for _, _, rows in _cases(400, 1):
        want = sorted((_mask(c) for c in nx.strongly_connected_components(_graph(rows))),
                      key=lambda m: m & -m)
        assert scc_masks(rows) == want


def test_strongly_connected_on_masks_matches_networkx():
    for rng, n, rows in _cases(300, 2):
        g = _graph(rows)
        assert strongly_connected(rows) == nx.is_strongly_connected(g)
        for _ in range(10):
            sub = rng.randrange(1, 1 << n)
            nodes = [v for v in range(n) if sub >> v & 1]
            assert strongly_connected(rows, sub) == nx.is_strongly_connected(g.subgraph(nodes))


def test_undirected_components_match_networkx():
    for _, _, rows in _cases(400, 3):
        g = _graph(rows).to_undirected()
        want = sorted((_mask(c) for c in nx.connected_components(g)),
                      key=lambda m: m & -m)
        assert undirected_components(rows) == want


def test_reach_matches_networkx():
    for _, n, rows in _cases(300, 4):
        g = _graph(rows)
        full = (1 << n) - 1
        for x in range(n):
            assert reach(rows, 1 << x, full) == _mask(nx.descendants(g, x)) | 1 << x


def _transpose_by_bits(rows):
    """The per-bit loop ``transpose`` replaced, kept as its oracle."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        rest = row
        while rest:
            y = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cols[y] |= 1 << x
    return cols


def test_transpose_matches_the_per_bit_loop():
    rng = random.Random(7)
    for n in [*range(71), 255, 256, 257, 600]:
        for density in (0, 0.02, 0.3, 0.9, 1):
            rows = [sum(1 << y for y in range(n) if rng.random() < density)
                    for _ in range(n)]
            assert transpose(rows) == _transpose_by_bits(rows), (n, density)


def test_transpose_and_combined_rows():
    for _, n, rows in _cases(200, 5):
        g = _graph(rows)
        cols = transpose(rows)
        assert cols == [_mask(g.predecessors(y)) for y in range(n)]
        assert transpose(cols) == rows
        other = _random_rows(random.Random(n), n)
        assert combined_rows(rows, transpose(other)) == [
            r | _mask(x for x in range(n) if other[x] >> y & 1)
            for y, r in enumerate(rows)]


def _closed_masks_by_scan(rows) -> list[int]:
    """Reference oracle: every subset in ascending order, kept when the
    union of its rows (built from the subset without its lowest bit)
    stays inside it."""
    n = len(rows)
    union = [0] * (1 << n)
    out = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        u = union[mask ^ low] | rows[low.bit_length() - 1]
        union[mask] = u
        if not u & ~mask:
            out.append(mask)
    return out


def test_closed_masks_by_enumeration():
    assert up_sets([], []) == [0]
    for _, n, rows in _cases(300, 6):
        want = _closed_masks_by_scan(rows)
        if n <= 9:
            assert want == [m for m in range(1 << n)
                            if all(rows[x] & ~m == 0 for x in range(n) if m >> x & 1)]
            assert [m for m in range(1 << n) if is_closed(rows, m)] == want
    for n in range(1, 5):
        for data in all_preorders(n):
            for up, down in ((data.rows, data.transpose), (data.transpose, data.rows)):
                assert up_sets(up, down) == _closed_masks_by_scan(up)
    rng = random.Random(12)
    for _ in range(300):
        data = random_preorder(rng, rng.randint(1, OPEN_MASK_LIMIT))
        for up, down in ((data.rows, data.transpose), (data.transpose, data.rows)):
            assert up_sets(up, down) == _closed_masks_by_scan(up)


def test_both_enumerations_refuse_carriers_past_the_cap():
    p = random_preorder(random.Random(3), OPEN_MASK_LIMIT + 1)
    assert len(p.rows) == OPEN_MASK_LIMIT + 1
    topo = AlexandrovTopology(points=tuple(map(str, range(len(p.rows)))), nbhd=p.rows)
    with pytest.raises(CarrierTooLarge, match="capped at 16 points"):
        topo.open_sets()
    with pytest.raises(CarrierTooLarge, match="capped at 16 points"):
        up_sets(p.rows, p.transpose)


def test_preserves_reports_first_violation():
    for rng, n, rows in _cases(200, 7):
        k = rng.randint(1, n)
        tgt = _random_rows(rng, k)
        assignment = [rng.randrange(k) for _ in range(n)]
        want = next(((x, y) for x in range(n) for y in range(n)
                     if rows[x] >> y & 1 and not tgt[assignment[x]] >> assignment[y] & 1),
                    None)
        assert preserves(assignment, rows, tgt) == want


def test_image_gaps_match_networkx():
    """Arbitrary maps, most of them not preserving, so some images split."""
    rng = random.Random(8)
    gaps = kept = 0
    for _ in range(300):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        src, tgt = _random_rows(rng, n), _random_rows(rng, m)
        assignment = [rng.randrange(m) for _ in range(n)]
        blocks = scc_masks(src)
        g = _graph(tgt)
        want = []
        for blk in blocks:
            img = _mask({assignment[x] for x in range(n) if blk >> x & 1})
            if not nx.is_strongly_connected(g.subgraph(v for v in range(m) if img >> v & 1)):
                want.append((blk, img))
        assert list(image_gaps(assignment, blocks, tgt)) == want
        gaps += len(want)
        kept += len(blocks) - len(want)
    assert gaps > 50 and kept > 50
