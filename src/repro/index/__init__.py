"""The dataset R-tree, with node-access (I/O) accounting."""

from repro.index.packed import DEFAULT_PAGE_SIZE, PackedRTree, fanout_for_page
from repro.index.stats import AccessSnapshot, AccessStats

__all__ = [
    "AccessSnapshot",
    "AccessStats",
    "DEFAULT_PAGE_SIZE",
    "PackedRTree",
    "fanout_for_page",
]
