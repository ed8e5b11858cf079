"""Sort-Tile-Recursive (STR) bulk loading.

Building an R-tree by repeated insertion costs :math:`O(n \\log n)` node
splits in pure Python, which dominates benchmark setup time at paper-scale
cardinalities.  STR packs a near-optimal tree bottom-up in one sort per
level and is the default construction path for datasets.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

from repro.geometry.point import PointLike
from repro.geometry.rectangle import Rect
from repro.index.node import Node
from repro.index.rtree import DEFAULT_PAGE_SIZE, RTree


def bulk_load(
    items: Sequence[Tuple[Rect | PointLike, Any]],
    dims: int,
    max_entries: int | None = None,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> RTree:
    """Build an :class:`~repro.index.rtree.RTree` from ``(rect, payload)`` pairs.

    Point payloads may be passed directly; they are boxed into degenerate
    rectangles.  The resulting tree satisfies the same invariants as an
    insertion-built tree (checked by ``RTree.validate`` in tests).
    """
    tree = RTree(dims, max_entries=max_entries, page_size=page_size)
    if not items:
        return tree

    boxed: List[Tuple[Rect, Any]] = []
    for rect, payload in items:
        if not isinstance(rect, Rect):
            rect = Rect.from_point(rect)
        boxed.append((rect, payload))

    leaves = _pack_leaves(boxed, dims, tree.max_entries)
    level: List[Node] = leaves
    while len(level) > 1:
        level = _pack_internal(level, dims, tree.max_entries)
    tree.root = level[0]
    tree.size = len(boxed)
    return tree


def _pack_leaves(
    items: List[Tuple[Rect, Any]], dims: int, capacity: int
) -> List[Node]:
    groups = _str_tile(items, dims, capacity, key=lambda item: item[0].center)
    leaves = []
    for group in groups:
        node = Node(is_leaf=True)
        node.entries = list(group)
        node.recompute_mbr()
        leaves.append(node)
    return leaves


def _pack_internal(children: List[Node], dims: int, capacity: int) -> List[Node]:
    groups = _str_tile(children, dims, capacity, key=lambda node: node.mbr.center)
    parents = []
    for group in groups:
        node = Node(is_leaf=False)
        for child in group:
            node.add_child(child)
        node.recompute_mbr()
        parents.append(node)
    return parents


def _str_tile(items: List, dims: int, capacity: int, key) -> List[List]:
    """Recursively sort-tile *items* into groups of at most *capacity*.

    Classic STR: sort on the first dimension, cut into vertical slabs of
    equal leaf count, then recurse on the remaining dimensions within each
    slab.
    """
    n = len(items)
    if n <= capacity:
        return [list(items)]

    def tile(chunk: List, axis: int) -> List[List]:
        if len(chunk) <= capacity:
            return [list(chunk)]
        if axis >= dims - 1:
            ordered = sorted(chunk, key=lambda item: key(item)[axis])
            return [
                ordered[i : i + capacity] for i in range(0, len(ordered), capacity)
            ]
        pages_here = math.ceil(len(chunk) / capacity)
        slabs = math.ceil(pages_here ** (1.0 / (dims - axis)))
        slab_size = math.ceil(len(chunk) / slabs)
        ordered = sorted(chunk, key=lambda item: key(item)[axis])
        groups: List[List] = []
        for i in range(0, len(ordered), slab_size):
            groups.extend(tile(ordered[i : i + slab_size], axis + 1))
        return groups

    return tile(items, 0)
