"""AggregateTrie — cached aggregates for popular query cells.

The paper stores the cache in-place between the GeoBlock header and the
raw data: a compact 4-ary trie (two 32-bit offsets per node, children
always allocated four-at-a-time) pointing into an aggregate store, with
total size capped at a user threshold expressed as a fraction of the
GeoBlock header size. We keep the cached cells as sorted id arrays and
their aggregates as arrays laid out like the header, but reproduce the
paper's *byte accounting* exactly, because it decides which cells fit
under a given threshold (the measured quantity in Figures 9/10).

"We can simply insert the most relevant unaggregated cell until the
reserved area is filled": in the StatsTrie's rank order, the cache is
the longest prefix of the ranking whose bytes fit. A cell costs one
aggregate row plus one 4-node child block (4 x 8 bytes) for each path
parent — ancestor at a level from the root's down to its own parent's —
that no higher-ranked cell already has; the root node costs 8 bytes.
The fill is therefore one prefix sum over the ranking, not a per-cell
insert loop.
"""
import numpy as np

from repro.s2lite.cell import cell_level, children, parent

__all__ = ["AggregateTrie"]

_NODE_BYTES = 8  # two 32-bit ints per trie node
_CHILD_BLOCK_BYTES = 4 * _NODE_BYTES  # children are allocated 4 at a time


class AggregateTrie:
    def __init__(self, root: int):
        self.root = root
        self.root_level = cell_level(root)

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, block, stats, threshold: float) -> "AggregateTrie":
        """Fill the trie with the highest-ranked cells that fit in
        ``threshold * header_size`` bytes."""
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        trie = cls(stats.root)
        row_bytes = block.aggregate_row_bytes()
        ranked = stats.ranked_cells()
        level = cell_level(ranked)
        # Cells finer than the block level cannot be cached (no finer
        # aggregates exist). The StatsTrie holds only cells that meet the
        # root, so the ones at or below the root's level lie inside it.
        fits = (level >= trie.root_level) & (level <= block.level)
        # Every cell costs at least its row, which bounds the prefix.
        room = max(int(threshold * block.header_size_bytes()) - _NODE_BYTES, 0)
        n = room // row_bytes
        ranked, level = ranked[fits][:n], level[fits][:n]
        # One (rank, path parent) pair per parent(c, l), root_level <= l <
        # level(c); a parent's first rank is the cell that allocates its
        # child block.
        depth = level - trie.root_level
        rank = np.repeat(np.arange(len(ranked)), depth)
        step = np.arange(len(rank)) - np.repeat(np.cumsum(depth) - depth, depth)
        _, first = np.unique(parent(ranked[rank], trie.root_level + step), return_index=True)
        blocks = np.bincount(rank[first], minlength=len(ranked))
        used = np.cumsum(row_bytes + _CHILD_BLOCK_BYTES * blocks)
        # The paper fills in strict rank order and stops at the first cell
        # that no longer fits (strict order guarantee).
        k = int(used.searchsorted(room, side="right"))
        trie.used_bytes = _NODE_BYTES + (int(used[k - 1]) if k else 0)
        trie._finalize(block, ranked[:k])
        return trie

    def _finalize(self, block, ids) -> None:
        """Aggregate the cached cells into contiguous arrays (the paper's
        aggregate storage, addressed by trie offsets), laid out like the
        GeoBlock's header arrays so one executor reduces both."""
        self.slot_of = dict(zip(ids.tolist(), range(len(ids))))  # cell id -> slot
        self.counts, self.aggs = block.cell_aggregates(ids)
        # Sorted-id views for batch probes: searchsorted membership is
        # the vectorized equivalent of the paper's per-cell trie descent.
        self.sorted_slots = np.argsort(ids)
        self.sorted_ids = ids[self.sorted_slots]
        # Parents with at least one *aggregated direct child*: the only
        # uncached query cells for which the children-combination path of
        # the adapted algorithm can beat the plain fallback. Probing this
        # set instead of all allocated nodes skips the guaranteed-futile
        # child lookups that sibling allocation would otherwise cause.
        level = cell_level(ids)
        below = level > self.root_level
        self.child_parent_ids = np.unique(parent(ids[below], level[below] - 1))
        self.child_parents = set(self.child_parent_ids.tolist())

    # -- queries ----------------------------------------------------------
    def get(self, cid: int):
        """Cached aggregate row of ``cid`` as ``(count, mins, maxs, sums)``
        of per-column dicts (an empty cell has no min or max), or None if
        ``cid`` is not cached."""
        j = self.slot_of.get(int(cid))
        if j is None:
            return None
        empty = self.counts[j] == 0
        return (
            int(self.counts[j]),
            {c: None if empty else float(a["min"][j]) for c, a in self.aggs.items()},
            {c: None if empty else float(a["max"][j]) for c, a in self.aggs.items()},
            {c: float(a["sum"][j]) for c, a in self.aggs.items()},
        )

    def lookup(self, cells, *, batch: bool = True):
        """Resolve query cells against the cache (the paper's Figure 5).

        Returns the storage slots of every cached cell in ``cells`` and
        of the cached direct children of uncached ones, and the cells
        left for the header scan: the other uncached cells and the
        uncached children. ``batch`` probes all cells with one
        ``searchsorted``; otherwise each cell is probed on its own, as
        the paper's per-cell trie descent is.
        """
        if batch:
            pos, hit = _find(self.sorted_ids, cells)
            slots, rest = self.sorted_slots[pos[hit]], cells[~hit]
            _, via_kids = _find(self.child_parent_ids, rest)
            parents, rest = rest[via_kids].tolist(), rest[~via_kids]
        else:
            slots, rest, parents = [], [], []
            for cid in cells.tolist():
                slot = self.slot_of.get(cid)
                if slot is not None:
                    slots.append(slot)
                elif cid in self.child_parents:
                    parents.append(cid)
                else:
                    rest.append(cid)
            slots = np.array(slots, dtype=np.int64)
            rest = np.array(rest, dtype=np.int64)
        if parents:
            kids = np.array([k for cid in parents for k in children(cid)], dtype=np.int64)
            pos, hit = _find(self.sorted_ids, kids)
            slots = np.concatenate([slots, self.sorted_slots[pos[hit]]])
            rest = np.concatenate([rest, kids[~hit]])
        return slots, rest

    def __len__(self) -> int:
        return len(self.slot_of)

    def size_bytes(self) -> int:
        return self.used_bytes


def _find(sorted_ids, cells):
    """Position of each of ``cells`` in the sorted array ``sorted_ids``,
    and whether it is there."""
    if not len(sorted_ids):
        return np.zeros(len(cells), dtype=np.int64), np.zeros(len(cells), dtype=bool)
    pos = np.minimum(sorted_ids.searchsorted(cells), len(sorted_ids) - 1)
    return pos, sorted_ids[pos] == cells
