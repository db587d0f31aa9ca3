"""On-the-fly aggregation baselines from the paper's evaluation.

All four are built from scratch (no boost/Google libraries offline):

- :mod:`repro.baselines.binary_search` — binary search over the sorted
  key column, then scan+aggregate raw tuples (paper: "BinarySearch").
- :mod:`repro.baselines.btree` — B+tree secondary index on the key
  column standing in for Google's cpp-btree (paper: "BTree"): the
  BinarySearch engine with two tree descents per cell in place of the
  binary search; the scan is the aggregation both share.
- :mod:`repro.baselines.quadtree` — multi-dimensional point index on
  lon/lat standing in for the PH-tree, queried with the polygon's
  interior rectangle (paper: "PHTree").
- :mod:`repro.baselines.rtree` — STR-packed R-tree with inner-node
  element counts emulating the aR-tree, count-only (paper: "RTree").
"""
