"""Tests for query-driven adaptation: StatsTrie scoring (against a
Counter-based reference), AggregateTrie budget accounting, and the V2
adapted query algorithm (which must always return exactly the V1 answer
— the cache changes cost, never results)."""
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stats_trie
from repro.core.agg_trie import AggregateTrie
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.core.stats_trie import StatsTrie
from repro.s2lite.cell import (
    cell_from_latlon,
    cell_level,
    children,
    common_ancestor,
    contains,
    parent,
    range_max,
    range_min,
)
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import DEFAULT_AGGS, VALUE_COLS, neighborhoods, skewed_workload

TAXI = nyc_taxi_pandas(sf=0.005)
RAW = extract_and_reorganize(TAXI, VALUE_COLS)
V1 = GeoBlock.build_from_raw(RAW, level=15)
HOODS = neighborhoods()


def fresh_v2() -> AdaptiveGeoBlock:
    return AdaptiveGeoBlock.from_block(V1)


def assert_same_results(got, exp):
    """V2 must return V1's answers; sums may differ in the last float
    bit because cached rows and vectorized fallbacks associate the
    additions differently."""
    assert got.keys() == exp.keys()
    for k, v in exp.items():
        if v is None:
            assert got[k] is None, k
        else:
            assert got[k] == pytest.approx(v, rel=1e-12), k


# -- StatsTrie -------------------------------------------------------------

class CounterStats:
    """Reference StatsTrie: a ``Counter`` updated on every record and a
    Python sort whose key scores each cell on its own. The array
    StatsTrie must give the same hits and the same ranking."""

    def __init__(self, key_min, key_max):
        self.root = common_ancestor(key_min, key_max)
        self._rmin, self._rmax = range_min(self.root), range_max(self.root)
        self.hits = Counter()

    def record_many(self, cells):
        arr = np.asarray(cells, dtype=np.int64)
        if len(arr) == 0:
            return
        lsb = arr & -arr
        m = ~((arr + lsb - 1 < self._rmin) | (arr - lsb + 1 > self._rmax))
        self.hits.update(arr[m].tolist())

    def score(self, cid):
        own = self.hits.get(cid, 0)
        lvl = cell_level(cid)
        if lvl == 0:
            return own
        return own + self.hits.get(parent(cid, lvl - 1), 0)

    def ranked_cells(self):
        ranked = sorted(self.hits, key=lambda c: (-self.score(c), cell_level(c), c))
        return np.array(ranked, dtype=np.int64)


def assert_same_stats(got: StatsTrie, ref: CounterStats):
    ids, hits = got.counts()
    assert list(zip(ids.tolist(), hits.tolist())) == sorted(ref.hits.items())
    assert ids.dtype == hits.dtype == np.int64
    assert got.ranked_cells().tolist() == ref.ranked_cells().tolist()


# A few point keys inside the block and one far outside it: cells drawn
# from them at random levels repeat, nest (parent and child pairs, root
# ancestors, leaves finer than the block) and fall outside the root.
_STATS_KEYS = [int(k) for k in RAW.keys[:: len(RAW.keys) // 6]] + [
    cell_from_latlon(0.0, 0.0, 30)
]
_cell = st.builds(parent, st.sampled_from(_STATS_KEYS), st.integers(0, 30))
_op = st.one_of(st.lists(_cell, max_size=12), st.none())  # None: a read


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ops=st.lists(_op, max_size=12), floor=st.sampled_from([1, 8, 1 << 16]))
def test_stats_match_counter_reference(ops, floor):
    with mock.patch.object(stats_trie, "_FOLD_FLOOR", floor):
        s, ref = StatsTrie(V1.key_min, V1.key_max), CounterStats(V1.key_min, V1.key_max)
        for cells in ops:
            if cells is None:
                assert_same_stats(s, ref)
            else:
                arr = np.array(cells, dtype=np.int64)
                s.record_many(arr)
                arr[:] = 0  # the StatsTrie keeps its own copy
                ref.record_many(cells)
        assert_same_stats(s, ref)


def test_stats_pending_memory_bounded():
    """Records without a read fold once the pending cells outnumber the
    folded ids (or the floor): pending memory stays within a constant
    factor of the distinct cells."""
    floor = 1000
    with mock.patch.object(stats_trie, "_FOLD_FLOOR", floor):
        s, ref = StatsTrie(V1.key_min, V1.key_max), CounterStats(V1.key_min, V1.key_max)
        for _ in range(3):
            for poly in HOODS:
                cells = V1.cover(poly)
                s.record_many(cells)
                ref.record_many(cells)
                pending = sum(len(a) for a in s._pending)
                assert pending <= max(floor, len(s._ids))
        assert 0 < len(s._ids) <= len(ref.hits)  # folded without a read
        assert_same_stats(s, ref)


def test_stats_root_covers_block():
    s = StatsTrie(V1.key_min, V1.key_max)
    assert contains(s.root, V1.key_min)
    assert contains(s.root, V1.key_max)
    assert s.root == common_ancestor(V1.key_min, V1.key_max)


def test_stats_record_and_score():
    s = StatsTrie(V1.key_min, V1.key_max)
    c = parent(V1.key_min, 15)
    other = parent(V1.key_max, 15)
    s.record_many([c] * 3 + [other] * 4)
    ids, hits = s.counts()
    assert ids.tolist() == sorted([c, other])
    assert hits.tolist() == ([3, 4] if c < other else [4, 3])
    assert s.ranked_cells().tolist() == [other, c]  # score 4 > 3
    # Parent hits contribute to child scores: c now scores 3 + 2 = 5.
    p = parent(c, 14)
    s.record_many([p, p])
    assert s.ranked_cells().tolist() == [c, other, p]
    assert int(s.counts()[1].sum()) == 9


def test_stats_ignores_disjoint_cells():
    s = StatsTrie(V1.key_min, V1.key_max)
    far = cell_from_latlon(0.0, 0.0, 15)
    s.record_many([far])
    ids, hits = s.counts()
    assert len(ids) == len(hits) == 0
    assert len(s.ranked_cells()) == 0


def test_stats_ranking_order():
    s = StatsTrie(V1.key_min, V1.key_max)
    a = parent(V1.key_min, 15)
    b = parent(V1.key_max, 15)
    coarse = parent(V1.key_min, 12)
    s.record_many([a] * 5)
    s.record_many([b] * 2)
    s.record_many([coarse] * 2)
    ranked = s.ranked_cells().tolist()
    assert ranked[0] == a  # highest score first
    # Same score (2): coarser level ranks before finer.
    assert ranked.index(coarse) < ranked.index(b)


def test_stats_tie_breaks_by_key():
    s = StatsTrie(V1.key_min, V1.key_max)
    cells = sorted(set(int(k) for k in V1.keys[:5]))
    s.record_many(cells[::-1])
    ranked = s.ranked_cells()
    assert ranked.tolist() == sorted(cells)


# -- AggregateTrie ---------------------------------------------------------

def _trained_stats(queries=20, stats_cls=StatsTrie):
    s = stats_cls(V1.key_min, V1.key_max)
    for poly in HOODS[:queries]:
        s.record_many(V1.cover(poly))
    return s


def _reference_build(block, stats, threshold):
    """The AggregateTrie fill loop over a ranking, one cell at a time."""
    trie = AggregateTrie(
        root=stats.root,
        budget_bytes=int(threshold * block.header_size_bytes()),
        agg_row_bytes=block.aggregate_row_bytes(),
    )
    for cid in stats.ranked_cells().tolist():
        if cell_level(cid) > block.level or not contains(trie.root, cid):
            continue
        if not trie._try_insert(cid):
            break
    return trie


@pytest.mark.parametrize("threshold", [0.01, 0.05, 0.2, 1.0])
def test_trie_build_matches_reference_ranking(threshold):
    # Top-ranked cells the trie must skip: finer than the block level,
    # and ancestors of the root.
    root_level = cell_level(common_ancestor(V1.key_min, V1.key_max))
    skip = [children(int(k))[0] for k in V1.keys[:20:4]]
    skip += [parent(V1.key_min, l) for l in range(root_level)]
    ref_stats, stats = _trained_stats(60, CounterStats), _trained_stats(60)
    for s in (ref_stats, stats):
        s.record_many(skip * 50)
    ref = _reference_build(V1, ref_stats, threshold)
    trie = AggregateTrie.build(V1, stats, threshold)
    assert len(trie) > 0
    assert list(trie.slot_of.items()) == list(ref.slot_of.items())
    assert trie.size_bytes() == ref.size_bytes()


def test_trie_zero_budget_empty():
    trie = AggregateTrie.build(V1, _trained_stats(), threshold=0.0)
    assert len(trie) == 0


def test_trie_respects_budget():
    for thr in (0.01, 0.05, 0.2):
        trie = AggregateTrie.build(V1, _trained_stats(), threshold=thr)
        assert trie.size_bytes() <= thr * V1.header_size_bytes()


def test_trie_grows_with_budget():
    sizes = [
        len(AggregateTrie.build(V1, _trained_stats(), threshold=t))
        for t in (0.01, 0.05, 0.2)
    ]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]


def test_trie_caches_top_ranked_first():
    stats = _trained_stats()
    trie = AggregateTrie.build(V1, stats, threshold=0.02)
    assert len(trie) > 0
    cached = set(trie.slot_of)
    ranked = [c for c in stats.ranked_cells().tolist() if cell_level(c) <= V1.level]
    # The cached set is a prefix of the ranking (strict insertion order).
    assert cached == set(ranked[: len(cached)])


def test_trie_rows_match_v1():
    """Each cached cell is planned as its own slot alone, and the cached
    aggregate gives V1's answer exactly."""
    v2 = fresh_v2()
    for poly in HOODS[:20]:
        v2.query_cells(V1.cover(poly), DEFAULT_AGGS)
    v2.build_aggregate_trie(0.05)
    trie = v2.agg_trie
    assert len(trie) >= 10
    for cid, slot in list(trie.slot_of.items())[:10]:
        slots, i0, i1 = v2._plan(np.array([cid]), batch=True)
        assert slots.tolist() == [slot] and len(i0) == len(i1) == 0
        want = V1.query_cells([cid], DEFAULT_AGGS)
        assert v2.query_cells([cid], DEFAULT_AGGS) == want
        count, mins, maxs, sums = trie.get(cid)
        row = {"count": count, "min": mins, "max": maxs, "sum": sums}
        assert count == V1.count_cells([cid])
        for (col, op), v in want.items():
            assert (row[op] if op == "count" else row[op][col]) == v, (col, op)
    uncached = next(int(k) for k in V1.keys if int(k) not in trie.slot_of)
    assert trie.get(uncached) is None


def test_trie_has_node_on_paths():
    """Every node on a cached cell's path is allocated, and the bytes
    charged are the root node, one 4-node child block per allocated
    parent and one aggregate row per cached cell."""
    trie = AggregateTrie.build(V1, _trained_stats(), threshold=0.05)
    assert len(trie) > 0
    blocks = set()
    for cid in trie.slot_of:
        lvl = cell_level(cid)
        for l in range(trie.root_level, lvl + 1):
            assert parent(cid, l) in trie.nodes
        blocks.update(parent(cid, l) for l in range(trie.root_level, lvl))
    rows = len(trie) * V1.aggregate_row_bytes()
    assert trie.size_bytes() == 8 + 32 * len(blocks) + rows


def test_trie_rejects_negative_threshold():
    with pytest.raises(ValueError):
        AggregateTrie.build(V1, _trained_stats(), threshold=-0.1)


def test_trie_accounting_includes_nodes_and_rows():
    trie = AggregateTrie.build(V1, _trained_stats(), threshold=0.05)
    assert trie.size_bytes() >= len(trie) * V1.aggregate_row_bytes()


# -- V2 adapted query algorithm -------------------------------------------

def _train(v2, polys, reps=1):
    for _ in range(reps):
        for p in polys:
            v2.query_select(p, DEFAULT_AGGS)


@pytest.mark.parametrize("threshold", [0.0, 0.02, 0.05, 0.5])
def test_v2_results_equal_v1(threshold):
    v2 = fresh_v2()
    skew = skewed_workload(HOODS, frac=0.1)
    _train(v2, HOODS)
    _train(v2, skew, reps=4)
    v2.build_aggregate_trie(threshold)
    for poly in HOODS[:40]:
        assert_same_results(
            v2.query_select(poly, DEFAULT_AGGS), V1.query_select(poly, DEFAULT_AGGS)
        )


def test_v2_count_query_unchanged():
    # The paper does not adapt COUNT queries (runtime is level-independent).
    v2 = fresh_v2()
    _train(v2, HOODS[:10])
    v2.build_aggregate_trie(0.1)
    for poly in HOODS[:10]:
        assert v2.query_count(poly) == V1.query_count(poly)


def test_v2_cache_is_used_for_skewed_cells():
    v2 = fresh_v2()
    skew = skewed_workload(HOODS, frac=0.1)
    _train(v2, HOODS)
    _train(v2, skew, reps=4)
    v2.build_aggregate_trie(0.05)
    skew_cells = {int(c) for p in skew for c in v2.cover(p)}
    cached = set(v2.agg_trie.slot_of)
    # Skewed cells score ~5x the base cells, so the cache must consist
    # almost entirely of them (the paper's "5% roughly corresponds to
    # aggregating all cells of the skewed workload" is a statement about
    # its 12M-point/level-17 scale; the prioritization is what's general).
    assert len(cached) > 0
    assert len(cached & skew_cells) / len(cached) > 0.9
    # And with a generous budget the whole skewed workload gets cached.
    v2b = fresh_v2()
    _train(v2b, HOODS)
    _train(v2b, skew, reps=4)
    v2b.build_aggregate_trie(1.0)
    cached_b = set(v2b.agg_trie.slot_of)
    assert len(cached_b & skew_cells) / len(skew_cells) > 0.95


def test_v2_without_trie_behaves_like_v1():
    v2 = fresh_v2()
    for poly in HOODS[:10]:
        assert_same_results(
            v2.query_select(poly, DEFAULT_AGGS), V1.query_select(poly, DEFAULT_AGGS)
        )


def test_v2_records_stats_while_querying():
    v2 = fresh_v2()
    _train(v2, HOODS[:5])
    ref = _trained_stats(5, CounterStats)
    assert len(ref.hits) > 0
    assert_same_stats(v2.stats, ref)


def test_v2_children_combination_path():
    """A parent cell whose children (not itself) are cached must still
    return the exact V1 answer through the child-combination path."""
    v2 = fresh_v2()
    target = parent(int(V1.keys[len(V1.keys) // 2]), 13)
    kids = children(target)
    # Train only on the children so they outrank the parent.
    for k in kids:
        for _ in range(5):
            v2.query_cells([k], DEFAULT_AGGS)
    v2.build_aggregate_trie(1.0)
    trie = v2.agg_trie
    cached = [k for k in kids if k in trie.slot_of]
    assert cached and target not in trie.slot_of
    # The parent plans as its cached children's slots; the uncached
    # children fall back to header ranges.
    slots, i0, i1 = v2._plan(np.array([target]), batch=True)
    assert sorted(slots.tolist()) == sorted(trie.slot_of[k] for k in cached)
    assert len(i0) == len(V1._ranges([k for k in kids if k not in trie.slot_of])[0])
    assert_same_results(
        v2.query_cells([target], DEFAULT_AGGS), V1.query_cells([target], DEFAULT_AGGS)
    )


def test_v2_size_includes_trie():
    v2 = fresh_v2()
    _train(v2, HOODS[:20])
    v2.build_aggregate_trie(0.05)
    assert v2.size_bytes() == V1.header_size_bytes() + v2.agg_trie.size_bytes()
    assert v2.size_bytes() <= 1.05 * V1.header_size_bytes()
