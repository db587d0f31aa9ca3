"""StatsTrie — workload statistics over query cells (paper section 3.4).

The paper stores per-cell hit counters in a prefix-pruned 4-ary trie so
that all previously seen query cells can be scored. The information
content of that trie is a map ``cell id -> hit count`` plus the pruned
root; we keep exactly that, as sorted parallel ``ids``/``hits`` arrays.
A query's covering is recorded in O(1) and counted only when the
statistics are read (DESIGN.md section 4, item 5).

Scoring ("a very rudimentary metric", quoted from the paper): score =
own hits + direct parent's hits; candidates ranked by descending score,
then ascending level (coarser first), then ascending spatial key — the
exact reproducibility tie-break the paper specifies.
"""
import numpy as np

from repro.s2lite.cell import cell_level, common_ancestor, parent, range_max, range_min

__all__ = ["StatsTrie"]

# Pending cells always allowed before a fold, however few are folded.
_FOLD_FLOOR = 1 << 16


class StatsTrie:
    def __init__(self, key_min: int, key_max: int):
        # Prune to the deepest single cell covering the whole block: query
        # cells outside it can never touch the block (their header ranges
        # are empty), so not tracking them loses nothing.
        self.root = common_ancestor(key_min, key_max)
        self._rmin = range_min(self.root)
        self._rmax = range_max(self.root)
        self._ids = np.empty(0, dtype=np.int64)
        self._hits = np.empty(0, dtype=np.int64)
        self._pending = []  # copies of the coverings recorded since the last fold
        self._n_pending = 0

    def record_many(self, cells) -> None:
        """Record one query's covering (ints or an int64 array). It is
        counted at the next read, or once the pending cells outnumber
        the folded ids, so pending memory stays within a constant factor
        of the distinct cells and each fold is paid for by the records
        before it."""
        arr = np.array(cells, dtype=np.int64)
        self._pending.append(arr)
        self._n_pending += len(arr)
        if self._n_pending > max(_FOLD_FLOOR, len(self._ids)):
            self._fold()

    def _fold(self) -> None:
        """Merge the pending coverings' cells that meet the root into
        ``ids``/``hits``."""
        if not self._pending:
            return
        new = np.concatenate(self._pending)
        self._pending, self._n_pending = [], 0
        lsb = new & -new
        new = new[(new + lsb - 1 >= self._rmin) & (new - lsb + 1 <= self._rmax)]
        n_old = len(self._ids)
        self._ids, inv = np.unique(np.concatenate([self._ids, new]), return_inverse=True)
        hits = np.bincount(inv[n_old:], minlength=len(self._ids))
        hits[inv[:n_old]] += self._hits
        self._hits = hits

    def counts(self):
        """``(ids, hits)``: every recorded cell that meets the root,
        ascending, and its hit count."""
        self._fold()
        return self._ids, self._hits

    def ranked_cells(self):
        """All seen cells ordered by (-score, level, key) — the insertion
        order for the AggregateTrie — as an int64 array."""
        ids, hits = self.counts()
        if not len(ids):
            return ids
        level = cell_level(ids)
        par = parent(ids, np.maximum(level - 1, 0))
        pos = np.minimum(ids.searchsorted(par), len(ids) - 1)
        score = hits + np.where((ids[pos] == par) & (level > 0), hits[pos], 0)
        return ids[np.lexsort((ids, level, -score))]
