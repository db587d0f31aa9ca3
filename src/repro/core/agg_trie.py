"""AggregateTrie — cached aggregates for popular query cells.

The paper stores the cache in-place between the GeoBlock header and the
raw data: a compact 4-ary trie (two 32-bit offsets per node, children
always allocated four-at-a-time) pointing into an aggregate store, with
total size capped at a user threshold expressed as a fraction of the
GeoBlock header size. We keep the cached cells as id arrays giving each
its slot ``j``; the V2 block holds its aggregate as header row
``n_cells + j``. The paper's *byte accounting* is reproduced exactly: it
decides which cells fit under a threshold (measured in Figures 9/10).

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

from repro.s2lite.cell import cell_level, parent, range_max, range_min

__all__ = ["AggregateTrie"]

_NODE_BYTES = 8  # two 32-bit ints per trie node
_CHILD_BLOCK_BYTES = 4 * _NODE_BYTES  # children are allocated 4 at a time


class AggregateTrie:
    def __init__(self, root: int):
        self.root_level = cell_level(root)

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, block, stats, threshold: float) -> "AggregateTrie":
        """Fill the trie with the highest-ranked cells that fit in
        ``threshold * header_size`` bytes. ``capacity``, the most cells
        that budget can hold (one aggregate row each, no nodes), is the
        number of aggregate rows a V2 block reserves for it."""
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        trie = cls(stats.root)
        row_bytes = block.aggregate_row_bytes()
        ranked = stats.ranked_cells()
        level = cell_level(ranked)
        # Only cells inside the root can be cached, and none finer than
        # the block level (no finer aggregates exist). A cell lies inside
        # the root iff its id lies in the root's descendant range: the
        # root's ancestors and cells beside it at any level do not.
        fits = (level <= block.level) & (ranked >= range_min(stats.root))
        fits &= ranked <= range_max(stats.root)
        # Every cell costs at least its row, which bounds the prefix.
        room = max(int(threshold * block.header_size_bytes()) - _NODE_BYTES, 0)
        trie.capacity = room // row_bytes
        ranked, level = ranked[fits][: trie.capacity], level[fits][: trie.capacity]
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
        trie._finalize(ranked[:k])
        return trie

    def _finalize(self, ids) -> None:
        """Index the cached cells ``ids``, given in slot order."""
        self.ids = ids
        # Sorted-id views for probes: searchsorted membership is the
        # vectorized equivalent of the paper's per-cell trie descent.
        self.sorted_slots = np.argsort(ids)
        self.sorted_ids = ids[self.sorted_slots]
        # Parents with at least one *aggregated direct child*: the only
        # uncached query cells for which the children-combination path of
        # the adapted algorithm can beat the plain fallback. Probing these
        # instead of all allocated nodes skips the guaranteed-futile
        # child lookups that sibling allocation would otherwise cause.
        level = cell_level(ids)
        below = level > self.root_level
        self.child_parent_ids = np.unique(parent(ids[below], level[below] - 1))

    # -- queries ----------------------------------------------------------
    def get(self, cid: int):
        """Slot of ``cid``, or None if ``cid`` is not cached."""
        i = int(self.sorted_ids.searchsorted(cid))
        if i < len(self.ids) and int(self.sorted_ids[i]) == cid:
            return int(self.sorted_slots[i])
        return None

    def lookup(self, cells):
        """Resolve query cells against the cache (the paper's Figure 5).

        Returns the slots of every cached cell in ``cells`` and
        of the cached direct children of uncached ones, and the cells
        left for the header scan: the other uncached cells and the
        uncached children.
        """
        pos, hit = _find(self.sorted_ids, cells)
        slots, rest = self.sorted_slots[pos[hit]], cells[~hit]
        _, via_kids = _find(self.child_parent_ids, rest)
        if via_kids.any():
            # The four children of p are p - 3q + 2kq, k = 0..3, q = lsb(p) / 4.
            p = rest[via_kids]
            q = (p & -p) >> 2
            kids = ((p - 3 * q)[:, None] + (2 * q)[:, None] * np.arange(4)).ravel()
            pos, hit = _find(self.sorted_ids, kids)
            slots = np.concatenate([slots, self.sorted_slots[pos[hit]]])
            rest = np.concatenate([rest[~via_kids], kids[~hit]])
        return slots, rest

    def __len__(self) -> int:
        return len(self.ids)

    def size_bytes(self) -> int:
        return self.used_bytes


def _find(sorted_ids, cells):
    """Position of each of ``cells`` in the sorted array ``sorted_ids``,
    and whether it is there."""
    if not len(sorted_ids):
        return np.zeros(len(cells), dtype=np.int64), np.zeros(len(cells), dtype=bool)
    pos = np.minimum(sorted_ids.searchsorted(cells), len(sorted_ids) - 1)
    return pos, sorted_ids[pos] == cells
