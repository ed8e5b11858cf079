"""Pointer R-tree reference: scalar STR bulk load and node-by-node traversal.

The program keeps one index, :class:`~repro.index.packed.PackedRTree`,
built by a vectorized STR over box arrays and traversed one level
frontier at a time.  This module is the straightforward version it is
tested against: one :class:`Node` object per page, packed by the classic
recursive Sort-Tile-Recursive loop with Python's stable ``sorted``, and
searched by a depth-first stack that records every visited node in an
:class:`~repro.index.stats.AccessStats`.

* :func:`bulk_load` — the STR tree over ``(rect, payload)`` entries, and
  :func:`dataset_tree`, the one over a dataset's object MBRs with each
  object's position as payload;
* :func:`freeze` — its nodes laid out in BFS order as the arrays a
  packed index holds, and :func:`same_layout`, which compares two such
  layouts bit for bit (:func:`layout` reads one off a packed index);
* :func:`range_search`, :func:`range_search_any` and
  :func:`range_search_many` — hits and node accesses per window, per
  window group and per window list.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rectangle import Rect
from repro.index.packed import DEFAULT_PAGE_SIZE, fanout_for_page
from repro.index.stats import AccessStats

LeafEntry = Tuple[Rect, Any]


class Node:
    """One page: leaf ``(rect, payload)`` entries or child nodes."""

    __slots__ = ("is_leaf", "entries", "children", "mbr")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[LeafEntry] = []
        self.children: List["Node"] = []
        self.mbr: Optional[Rect] = None

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            rects = [rect for rect, _payload in self.entries]
        else:
            rects = [child.mbr for child in self.children]
        self.mbr = Rect.union_all(rects) if rects else None


class Tree:
    """A root node, its dimensionality and an access counter."""

    def __init__(self, root: Node, dims: int):
        self.root = root
        self.dims = dims
        self.stats = AccessStats()


def bulk_load(
    items: Sequence[LeafEntry],
    dims: int,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> Tree:
    """STR-pack ``(rect, payload)`` entries into a pointer tree."""
    capacity = fanout_for_page(page_size, dims)
    if not items:
        return Tree(Node(is_leaf=True), dims)
    level: List[Node] = []
    for group in _str_tile(list(items), dims, capacity, lambda e: e[0].center):
        leaf = Node(is_leaf=True)
        leaf.entries = list(group)
        leaf.recompute_mbr()
        level.append(leaf)
    while len(level) > 1:
        parents = []
        for group in _str_tile(level, dims, capacity, lambda n: n.mbr.center):
            parent = Node(is_leaf=False)
            parent.children = list(group)
            parent.recompute_mbr()
            parents.append(parent)
        level = parents
    return Tree(level[0], dims)


def dataset_tree(dataset) -> Tree:
    """:func:`bulk_load` over a dataset's object MBRs, payload = position."""
    return bulk_load(
        [(obj.mbr, row) for row, obj in enumerate(dataset)],
        dataset.dims,
        page_size=dataset.page_size,
    )


def _str_tile(items: List, dims: int, capacity: int, key) -> List[List]:
    """Sort on one dimension, cut into slabs of equal page count, recurse.

    The last dimension is cut straight into pages of *capacity* items.
    """
    if len(items) <= capacity:
        return [list(items)]

    def tile(chunk: List, axis: int) -> List[List]:
        if len(chunk) <= capacity:
            return [list(chunk)]
        ordered = sorted(chunk, key=lambda item: key(item)[axis])
        if axis >= dims - 1:
            return [
                ordered[i : i + capacity]
                for i in range(0, len(ordered), capacity)
            ]
        pages_here = math.ceil(len(chunk) / capacity)
        slabs = math.ceil(pages_here ** (1.0 / (dims - axis)))
        slab_size = math.ceil(len(chunk) / slabs)
        groups: List[List] = []
        for i in range(0, len(ordered), slab_size):
            groups.extend(tile(ordered[i : i + slab_size], axis + 1))
        return groups

    return tile(items, 0)


def freeze(tree: Tree) -> Dict[str, Any]:
    """The tree's BFS array layout, as :class:`PackedRTree` stores it.

    Nodes are numbered level by level from the root, each node's children
    (or leaf entries) forming one contiguous range; ``rows`` holds the
    leaf entries' payloads in that order.
    """
    levels: List[List[Node]] = [[tree.root]]
    while not levels[-1][0].is_leaf:
        levels.append([c for node in levels[-1] for c in node.children])
    nodes = [node for level in levels for node in level]
    count, dims = len(nodes), tree.dims
    node_lo = np.full((count, dims), np.inf)
    node_hi = np.full((count, dims), -np.inf)
    child_start = np.zeros(count, dtype=np.intp)
    child_count = np.zeros(count, dtype=np.intp)
    entry_start = np.zeros(count, dtype=np.intp)
    entry_count = np.zeros(count, dtype=np.intp)
    entries: List[LeafEntry] = []
    next_child = 1
    for i, node in enumerate(nodes):
        if node.mbr is not None:
            node_lo[i], node_hi[i] = node.mbr.lo, node.mbr.hi
        if node.is_leaf:
            entry_start[i], entry_count[i] = len(entries), len(node.entries)
            entries.extend(node.entries)
        else:
            child_start[i], child_count[i] = next_child, len(node.children)
            next_child += len(node.children)
    return {
        "height": len(levels),
        "leaf_start": count - len(levels[-1]),
        "node_lo": node_lo,
        "node_hi": node_hi,
        "child_start": child_start,
        "child_count": child_count,
        "entry_start": entry_start,
        "entry_count": entry_count,
        "entry_lo": np.array([r.lo for r, _p in entries]).reshape(-1, dims),
        "entry_hi": np.array([r.hi for r, _p in entries]).reshape(-1, dims),
        "rows": np.array([p for _r, p in entries], dtype=np.intp),
    }


LAYOUT = (
    "node_lo", "node_hi", "child_start", "child_count", "entry_start",
    "entry_count", "entry_lo", "entry_hi", "rows",
)


def layout(packed) -> Dict[str, Any]:
    """A packed index's arrays under the keys :func:`freeze` uses."""
    out: Dict[str, Any] = {key: getattr(packed, key) for key in LAYOUT}
    out["height"], out["leaf_start"] = packed.height, packed.leaf_start
    return out


def same_layout(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Equal shapes, integers and float *bits* (int64 views) throughout."""
    if (a["height"], a["leaf_start"]) != (b["height"], b["leaf_start"]):
        return False
    for key in LAYOUT:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.shape != y.shape or x.dtype.kind != y.dtype.kind:
            return False
        if x.dtype.kind == "f":
            x, y = x.view(np.int64), y.view(np.int64)
        if not np.array_equal(x, y):
            return False
    return True


def range_search(tree: Tree, window: Rect) -> List[Any]:
    """Payloads of the entries crossing *window*, one visit per node read."""
    return range_search_any(tree, [window])


def range_search_any(tree: Tree, windows: Sequence[Rect]) -> List[Any]:
    """Payloads of the entries crossing any of *windows* (Algorithm 1).

    A node is expanded when its MBR crosses at least one window and is
    read once however many windows it crosses, so each entry is reported
    at most once.  Every read is counted in ``tree.stats``; the payloads
    come back sorted.
    """
    stats = tree.stats
    stats.record_query()
    out: List[Any] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        stats.record_node(node.is_leaf)
        if node.is_leaf:
            out.extend(
                payload
                for rect, payload in node.entries
                if any(w.intersects(rect) for w in windows)
            )
        else:
            stack.extend(
                child
                for child in node.children
                if any(w.intersects(child.mbr) for w in windows)
            )
    return sorted(out)


def range_search_many(tree: Tree, windows: Sequence[Rect]) -> List[List[Any]]:
    """One :func:`range_search` per window."""
    return [range_search(tree, window) for window in windows]
