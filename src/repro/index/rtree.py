"""An R-tree with R*-style node splits and access accounting.

This is the disk-resident index the paper assumes over every dataset
(page size 4,096 bytes, Sec. 5.1).  The tree is held in memory, but the
fanout is derived from the configured page size exactly as a paged
implementation would, and every node visited by a query increments the
node-access counters in :class:`~repro.index.stats.AccessStats` — the
paper's I/O metric.

Splits follow the R*-tree heuristics (axis chosen by minimum margin sum,
distribution chosen by minimum overlap, ties by area); forced reinsertion
is intentionally omitted — it only affects constants, not the access-count
trends the reproduction compares.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import IndexError_
from repro.geometry.point import PointLike, as_point
from repro.geometry.rectangle import Rect
from repro.index.node import LeafEntry, Node
from repro.index.stats import AccessStats

DEFAULT_PAGE_SIZE = 4096
_POINTER_BYTES = 8
_COORD_BYTES = 8


def fanout_for_page(page_size: int, dims: int) -> int:
    """Entries per node for a given page size (two corners + one pointer each)."""
    entry_bytes = 2 * dims * _COORD_BYTES + _POINTER_BYTES
    return max(4, page_size // entry_bytes)


def _entry_index(leaf: Node, rect: Rect, payload: Any) -> int:
    """Position of the ``(rect, payload)`` entry in *leaf*, or -1.

    The match ``(rect, payload) in leaf.entries`` tests, identity
    shortcuts included, but payloads first: a payload match is rare and
    cheap to test, while every ``Rect`` comparison is an array comparison.
    """
    for i, (entry_rect, entry_payload) in enumerate(leaf.entries):
        if (entry_payload is payload or entry_payload == payload) and (
            entry_rect is rect or entry_rect == rect
        ):
            return i
    return -1


class RTree:
    """R-tree over ``(Rect, payload)`` entries.

    Parameters
    ----------
    dims:
        Dimensionality of indexed rectangles.
    max_entries:
        Node capacity; defaults to the capacity implied by *page_size*.
    page_size:
        Simulated disk page size in bytes (paper default 4,096).
    min_fill_ratio:
        Minimum node fill as a fraction of capacity (R* default 0.4).
    """

    def __init__(
        self,
        dims: int,
        max_entries: Optional[int] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        min_fill_ratio: float = 0.4,
    ):
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.dims = dims
        self.page_size = page_size
        self.max_entries = max_entries or fanout_for_page(page_size, dims)
        if self.max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.min_entries = max(1, int(self.max_entries * min_fill_ratio))
        self.root = Node(is_leaf=True)
        self.size = 0
        self.stats = AccessStats()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def insert(self, rect: Rect | PointLike, payload: Any) -> None:
        """Insert one entry; *rect* may be a point, which is boxed degenerately."""
        if not isinstance(rect, Rect):
            rect = Rect.from_point(as_point(rect, dims=self.dims))
        if rect.dims != self.dims:
            raise IndexError_(f"entry has {rect.dims} dims, tree has {self.dims}")
        leaf = self._choose_leaf(self.root, rect)
        leaf.add_leaf_entry(rect, payload)
        self._propagate_mbr(leaf, rect)
        if len(leaf) > self.max_entries:
            self._split_upward(leaf)
        self.size += 1

    def insert_many(self, items: Iterable[Tuple[Rect | PointLike, Any]]) -> None:
        """Insert a batch of entries.

        On an **empty** tree the batch is STR bulk-loaded (one sort per
        level instead of O(n log n) insertion splits; the final page per
        level may be legitimately underfull, as with any bulk load).  A
        non-empty tree keeps the incremental one-at-a-time path so the
        existing structure is preserved.
        """
        items = list(items)
        if not items:
            return
        if self.size == 0:
            from repro.index.bulk import bulk_load

            built = bulk_load(
                items,
                dims=self.dims,
                max_entries=self.max_entries,
                page_size=self.page_size,
            )
            self.root = built.root
            self.size = built.size
            return
        for rect, payload in items:
            self.insert(rect, payload)

    def delete(self, rect: Rect | PointLike, payload: Any) -> bool:
        """Remove one entry matching ``(rect, payload)``.

        Returns ``True`` when an entry was found and removed.  Underfull
        leaves are condensed by reinserting their surviving entries
        (Guttman's CondenseTree), and a root with a single child is
        collapsed, so the usual structural invariants keep holding.
        """
        if not isinstance(rect, Rect):
            rect = Rect.from_point(as_point(rect, dims=self.dims))
        leaf = self._find_leaf(self.root, rect, payload)
        if leaf is None:
            return False
        del leaf.entries[_entry_index(leaf, rect, payload)]
        self.size -= 1
        self._condense(leaf)
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
        if not self.root.is_leaf and not self.root.children:
            self.root = Node(is_leaf=True)
        return True

    def _find_leaf(self, node: Node, rect: Rect, payload: Any) -> Optional[Node]:
        if node.is_leaf:
            return node if _entry_index(node, rect, payload) >= 0 else None
        for child in node.children:
            if child.mbr is not None and child.mbr.contains_rect(rect):
                found = self._find_leaf(child, rect, payload)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        orphans: List[LeafEntry] = []
        current: Optional[Node] = node
        while current is not None and current.parent is not None:
            parent = current.parent
            # Leaves may shrink to min_entries; internal nodes additionally
            # need two children to justify their level.
            minimum = self.min_entries if current.is_leaf else max(
                self.min_entries, 2
            )
            if len(current) < minimum:
                parent.children.remove(current)
                orphans.extend(self._collect_entries(current))
            else:
                current.recompute_mbr()
            parent.recompute_mbr()
            current = parent
        self.root.recompute_mbr()
        if self.root.is_leaf and not self.root.entries:
            self.root.mbr = None
        self.size -= len(orphans)  # insert() re-increments per reinsertion
        for orphan_rect, orphan_payload in orphans:
            self.insert(orphan_rect, orphan_payload)

    def _collect_entries(self, node: Node) -> List[LeafEntry]:
        out: List[LeafEntry] = []
        stack = [node]
        while stack:
            item = stack.pop()
            if item.is_leaf:
                out.extend(item.entries)
            else:
                stack.extend(item.children)
        return out

    def _choose_leaf(self, node: Node, rect: Rect) -> Node:
        while not node.is_leaf:
            node = min(
                node.children,
                key=lambda child: (
                    child.mbr.enlargement(rect) if child.mbr else float("inf"),
                    child.mbr.area() if child.mbr else float("inf"),
                ),
            )
        return node

    def _propagate_mbr(self, node: Node, rect: Rect) -> None:
        current: Optional[Node] = node
        while current is not None:
            current.mbr = rect if current.mbr is None else current.mbr.union(rect)
            current = current.parent

    def _split_upward(self, node: Node) -> None:
        while node is not None and len(node) > self.max_entries:
            sibling = self._split_node(node)
            parent = node.parent
            if parent is None:
                new_root = Node(is_leaf=False)
                new_root.add_child(node)
                new_root.add_child(sibling)
                self.root = new_root
                return
            parent.add_child(sibling)
            parent.recompute_mbr()
            node = parent

    def _split_node(self, node: Node) -> Node:
        """R*-style split; *node* keeps the first group, a new sibling gets the rest."""
        if node.is_leaf:
            items: Sequence = list(node.entries)
            rect_of = lambda item: item[0]  # noqa: E731 - tiny local accessor
        else:
            items = list(node.children)
            rect_of = lambda item: item.mbr  # noqa: E731

        first, second = _rstar_partition(
            items, rect_of, self.min_entries, self.max_entries
        )

        sibling = Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = list(first)
            sibling.entries = list(second)
        else:
            node.children = list(first)
            sibling.children = list(second)
            for child in node.children:
                child.parent = node
            for child in sibling.children:
                child.parent = sibling
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_search(self, window: Rect) -> List[Any]:
        """Payloads of all entries whose rectangle intersects *window*."""
        return [payload for _rect, payload in self.range_entries(window)]

    def range_entries(self, window: Rect) -> List[LeafEntry]:
        """``(rect, payload)`` pairs of all entries intersecting *window*."""
        self.stats.record_query()
        out: List[LeafEntry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.record_node(node.is_leaf)
            if node.is_leaf:
                out.extend(
                    (rect, payload)
                    for rect, payload in node.entries
                    if window.intersects(rect)
                )
            else:
                stack.extend(
                    child
                    for child in node.children
                    if child.mbr is not None and window.intersects(child.mbr)
                )
        return out

    def range_search_any(self, windows: Sequence[Rect]) -> List[Any]:
        """Unique payloads intersecting *any* window, canonically ordered.

        This is the multi-rectangle branch-and-bound scan of Algorithm 1
        (lines 2-8): a node is expanded when its MBR crosses at least one
        rectangle in the list, and it is read once no matter how many
        rectangles it crosses.

        The result is deduplicated and sorted by ``repr`` *inside* the
        kernel, so traversal order can never leak into downstream result
        bits and callers need no per-call ``set()`` — the packed snapshot
        (:class:`~repro.index.packed.PackedRTree`) shares this contract.
        """
        self.stats.record_query()
        out: List[Any] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.record_node(node.is_leaf)
            if node.is_leaf:
                for rect, payload in node.entries:
                    if any(window.intersects(rect) for window in windows):
                        out.append(payload)
            else:
                for child in node.children:
                    if child.mbr is not None and any(
                        window.intersects(child.mbr) for window in windows
                    ):
                        stack.append(child)
        return sorted(dict.fromkeys(out), key=repr)

    def range_search_many(self, windows: Sequence[Rect]) -> List[List[Any]]:
        """Per-window payload lists (the packed kernel's loop reference)."""
        return [self.range_search(window) for window in windows]

    def freeze(self, stats: Optional[AccessStats] = None):
        """Export this tree as an immutable array-backed
        :class:`~repro.index.packed.PackedRTree` snapshot.

        Pass *stats* to share an access counter (defaults to this tree's
        own, so pointer and packed traversals accumulate into one I/O
        metric).
        """
        from repro.index.packed import PackedRTree

        return PackedRTree.from_rtree(self, stats=stats or self.stats)

    def traverse_if(self, predicate: Callable[[Rect], bool]) -> Iterator[LeafEntry]:
        """Generic guided traversal: descend into nodes whose MBR satisfies
        *predicate*, yield leaf entries whose rect satisfies it."""
        self.stats.record_query()
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.record_node(node.is_leaf)
            if node.is_leaf:
                for rect, payload in node.entries:
                    if predicate(rect):
                        yield rect, payload
            else:
                stack.extend(
                    child
                    for child in node.children
                    if child.mbr is not None and predicate(child.mbr)
                )

    def all_payloads(self) -> List[Any]:
        """Every payload in the tree (no access accounting; test helper)."""
        out: List[Any] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(payload for _rect, payload in node.entries)
            else:
                stack.extend(node.children)
        return out

    # ------------------------------------------------------------------
    # introspection / validation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def height(self) -> int:
        height = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def validate(self, allow_underfull: bool = False) -> None:
        """Check structural invariants; raises :class:`IndexError_` on violation.

        *allow_underfull* skips the minimum-fill check; STR bulk loading
        legitimately leaves its final page per level underfull.
        """
        leaf_depths = set()
        count = 0
        stack: List[Tuple[Node, int]] = [(self.root, 1)]
        while stack:
            node, depth = stack.pop()
            if (
                not allow_underfull
                and node is not self.root
                and len(node) < self.min_entries
            ):
                raise IndexError_(f"underfull node at depth {depth}: {node!r}")
            if len(node) > self.max_entries:
                raise IndexError_(f"overfull node at depth {depth}: {node!r}")
            if node.is_leaf:
                leaf_depths.add(depth)
                count += len(node.entries)
                for rect, _payload in node.entries:
                    if node.mbr is None or not node.mbr.contains_rect(rect):
                        raise IndexError_("leaf MBR does not cover an entry")
            else:
                for child in node.children:
                    if child.parent is not node:
                        raise IndexError_("broken parent pointer")
                    if node.mbr is None or not node.mbr.contains_rect(child.mbr):
                        raise IndexError_("internal MBR does not cover a child")
                    stack.append((child, depth + 1))
        if len(leaf_depths) > 1:
            raise IndexError_(f"leaves at unequal depths: {sorted(leaf_depths)}")
        if count != self.size:
            raise IndexError_(f"size mismatch: counted {count}, recorded {self.size}")


def _rstar_partition(
    items: Sequence,
    rect_of: Callable[[Any], Rect],
    min_entries: int,
    max_entries: int,
) -> Tuple[List, List]:
    """Split *items* into two groups using the R* axis/distribution heuristics."""
    dims = rect_of(items[0]).dims
    best: Optional[Tuple[float, float, List, List]] = None
    for axis in range(dims):
        for lo_first in (True, False):

            def key(item, _axis=axis, _lo_first=lo_first):
                rect = rect_of(item)
                primary = rect.lo[_axis] if _lo_first else rect.hi[_axis]
                secondary = rect.hi[_axis] if _lo_first else rect.lo[_axis]
                return (primary, secondary)

            ordered = sorted(items, key=key)
            rects = [rect_of(item) for item in ordered]
            # prefix[i] bounds rects[:i+1]; suffix[i] bounds rects[i:]
            prefix = list(rects)
            for i in range(1, len(prefix)):
                prefix[i] = prefix[i - 1].union(prefix[i])
            suffix = list(rects)
            for i in range(len(suffix) - 2, -1, -1):
                suffix[i] = suffix[i + 1].union(suffix[i])
            for split_at in range(min_entries, len(ordered) - min_entries + 1):
                mbr1 = prefix[split_at - 1]
                mbr2 = suffix[split_at]
                overlap = mbr1.overlap_area(mbr2)
                area = mbr1.area() + mbr2.area()
                if best is None or (overlap, area) < (best[0], best[1]):
                    best = (overlap, area, ordered[:split_at], ordered[split_at:])
    assert best is not None
    return list(best[2]), list(best[3])
