"""R-tree indexing with node-access (I/O) accounting."""

from repro.index.bulk import bulk_load
from repro.index.node import Node
from repro.index.packed import PackedRTree
from repro.index.rtree import DEFAULT_PAGE_SIZE, RTree, fanout_for_page
from repro.index.stats import AccessSnapshot, AccessStats

__all__ = [
    "AccessSnapshot",
    "AccessStats",
    "DEFAULT_PAGE_SIZE",
    "Node",
    "PackedRTree",
    "RTree",
    "bulk_load",
    "fanout_for_page",
]
