"""AggregateTrie — cached aggregates for popular query cells.

The paper stores the cache in-place between the GeoBlock header and the
raw data: a compact 4-ary trie (two 32-bit offsets per node, children
always allocated four-at-a-time) pointing into an aggregate store, with
total size capped at a user threshold expressed as a fraction of the
GeoBlock header size. We keep the cache as dicts keyed by cell id but
reproduce the paper's *byte accounting* exactly — 4 x 8 bytes whenever a
node's child block is first allocated, plus one full aggregate row per
cached cell — because the accounting is what decides which cells fit
under a given threshold (the measured quantity in Figures 9/10).

Insertion order is the StatsTrie ranking; "we can simply insert the most
relevant unaggregated cell until the reserved area is filled".
"""
import numpy as np

from repro.s2lite.cell import cell_level, children, parent

__all__ = ["AggregateTrie"]

_NODE_BYTES = 8  # two 32-bit ints per trie node
_CHILD_BLOCK_BYTES = 4 * _NODE_BYTES  # children are allocated 4 at a time


class AggregateTrie:
    def __init__(self, root: int, budget_bytes: int, agg_row_bytes: int):
        self.root = root
        self.root_level = cell_level(root)
        self.budget_bytes = budget_bytes
        self.agg_row_bytes = agg_row_bytes
        self.nodes = {root}  # cells with an allocated trie node
        self.slot_of = {}  # cached cell id -> slot, in insertion order
        self.used_bytes = _NODE_BYTES  # the root node itself

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, block, stats, threshold: float) -> "AggregateTrie":
        """Fill the trie with the highest-ranked cells that fit in
        ``threshold * header_size`` bytes."""
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        trie = cls(
            root=stats.root,
            budget_bytes=int(threshold * block.header_size_bytes()),
            agg_row_bytes=block.aggregate_row_bytes(),
        )
        ranked = stats.ranked_cells()
        level = cell_level(ranked)
        # Cells finer than the block level cannot be cached (no finer
        # aggregates exist). The StatsTrie holds only cells that meet the
        # root, so the ones at or below the root's level lie inside it.
        fits = (level >= trie.root_level) & (level <= block.level)
        for cid in ranked[fits].tolist():
            if not trie._try_insert(cid):
                # The paper fills in strict rank order and stops at the
                # first cell that no longer fits (strict order guarantee).
                break
        trie._finalize(block)
        return trie

    def _finalize(self, block) -> None:
        """Aggregate the cached cells into contiguous arrays (the paper's
        aggregate storage, addressed by trie offsets), laid out like the
        GeoBlock's header arrays so one executor reduces both."""
        ids = np.fromiter(self.slot_of, dtype=np.int64, count=len(self.slot_of))
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

    def _path_cost_bytes(self, cid: int) -> int:
        """Bytes of new trie nodes needed to reach ``cid``: one 4-child
        block per path node whose children are not yet allocated."""
        cost = 0
        lvl = cell_level(cid)
        # Walk from the cell up to the root; each missing node on the way
        # implies its parent's child block must be allocated.
        l = lvl
        while l > self.root_level:
            node = parent(cid, l)
            if node in self.nodes:
                break
            cost += _CHILD_BLOCK_BYTES
            l -= 1
        return cost

    def _try_insert(self, cid: int) -> bool:
        cost = self._path_cost_bytes(cid) + self.agg_row_bytes
        if self.used_bytes + cost > self.budget_bytes:
            return False
        # Allocate path nodes (all four siblings at each new level).
        lvl = cell_level(cid)
        for l in range(self.root_level, lvl + 1):
            node = parent(cid, l)
            if node not in self.nodes:
                if l > self.root_level:
                    p = parent(cid, l - 1)
                    for sib in children(p):
                        self.nodes.add(sib)
                else:
                    self.nodes.add(node)
        self.slot_of[cid] = len(self.slot_of)
        self.used_bytes += cost
        return True

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
