"""Extract & reorganize: sorted columnar raw storage.

The paper's preprocessing ("extract and reorganize") maps each point to
its linear spatial key, drops non-aggregatable columns, and sorts the
remaining columns by key so that each grid cell's tuples are contiguous.
The resulting :class:`RawTable` is shared by the GeoBlock build *and* by
the BinarySearch/BTree baselines — exactly as in the paper, where all
sorted baselines operate on the same columnar data.
"""
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.s2lite.cell import parent, point_keys_from_latlon

CHUNK_ROWS = 1 << 16  # rows per encoder call and per gather in extract_and_reorganize
LAT_COL, LON_COL = "dropoff_lat", "dropoff_lon"  # the point of a ride record


@dataclass
class RawTable:
    """Columnar point data sorted by level-30 spatial key."""

    keys: np.ndarray  # int64, sorted point keys (odd leaf ids)
    columns: dict  # col name -> float64/int64 array, same order as keys
    lats: np.ndarray
    lons: np.ndarray
    timings: dict = field(default_factory=dict)  # phase -> seconds

    def __len__(self) -> int:
        return len(self.keys)

    def size_bytes(self) -> int:
        """Bytes of the queryable payload (key column + value columns),
        the denominator of the paper's relative-overhead figures."""
        return int(
            self.keys.nbytes + sum(a.nbytes for a in self.columns.values())
        )

    def cells_at(self, level: int) -> np.ndarray:
        """Cell id at ``level`` for every tuple (vectorized parent)."""
        return np.asarray(parent(self.keys, level), dtype=np.int64)


def extract_and_reorganize(taxi: pd.DataFrame, value_cols, *, predicate=None) -> RawTable:
    """Build a :class:`RawTable` from raw ride records.

    ``predicate``, if given, is a boolean-mask function applied before
    sorting — the paper's pre-defined filter predicates ("e.g., WHERE
    fare_amount > 10"); GeoBlocks supports no filters after this phase.
    Records the sort wall-time in ``timings['sort']`` (this is the
    paper's "Sorting" column in Table 1: key extraction + reordering of
    all columns).
    """
    if predicate is not None:
        taxi = taxi.loc[predicate(taxi)]
    t0 = time.perf_counter()
    lats = taxi[LAT_COL].to_numpy(dtype=np.float64)
    lons = taxi[LON_COL].to_numpy(dtype=np.float64)
    n = len(lats)
    # One allocation holds the sorted keys, value columns, lats and lons,
    # and every column-sized step writes into it: a block this large is
    # mapped and unmapped in one piece, while column-sized temporaries come
    # from the heap and leave freed holes there that stay resident (only
    # ``order`` is one). Other dtypes can share it as typed views of its
    # rows, as the float64 rows here do.
    block = np.empty((len(value_cols) + 3, n), dtype=np.int64)
    keys, rows = block[0], block[1:].view(np.float64)
    # The lons row holds the unsorted keys until they are sorted into
    # ``keys``. Encoding and gathers go CHUNK_ROWS rows at a time, so their
    # temporaries are cache-sized.
    unsorted = block[-1]
    for i in range(0, n, CHUNK_ROWS):
        unsorted[i : i + CHUNK_ROWS] = point_keys_from_latlon(
            lats[i : i + CHUNK_ROWS], lons[i : i + CHUNK_ROWS]
        )
    order = np.argsort(unsorted, kind="stable")
    # "clip" never applies (order is in range); "raise" would buffer a copy.
    np.take(unsorted, order, out=keys, mode="clip")
    sources = [taxi[c].to_numpy() for c in value_cols] + [lats, lons]
    for i in range(0, n, CHUNK_ROWS):
        part = order[i : i + CHUNK_ROWS]
        for src, row in zip(sources, rows):
            row[i : i + CHUNK_ROWS] = src[part]
    columns = dict(zip(value_cols, rows))
    lats, lons = rows[-2], rows[-1]
    sort_s = time.perf_counter() - t0
    return RawTable(
        keys=keys, columns=columns, lats=lats, lons=lons, timings={"sort": sort_s}
    )
