"""The dataset R-tree: an STR-packed tree held as flat NumPy arrays.

This is the index the paper assumes over every dataset (page size 4,096
bytes, Sec. 5.1).  It is held in memory, but the fanout is derived from
the page size as a paged implementation would derive it
(:func:`fanout_for_page`), and every node a query reads is counted in an
:class:`~repro.index.stats.AccessStats` — the paper's I/O metric.

:meth:`PackedRTree.build` packs ``(n, d)`` box arrays bottom-up with
Sort-Tile-Recursive: one level at a time, every open slab of a level is
sorted by one stable sort on the box centers, so the packing equals the
classic recursive STR loop's page for page.  The tree is stored as

* ``node_lo`` / ``node_hi`` — ``(N, d)`` node MBRs in **BFS order** (the
  root is node 0; every level is a contiguous block; the leaves are
  exactly the last level, because STR keeps all leaves at equal depth);
* ``child_start`` / ``child_count`` — each internal node's children as a
  contiguous node-id range (BFS numbering makes sibling blocks adjacent);
* ``entry_start`` / ``entry_count`` — each leaf's entries as a range into
* ``entry_lo`` / ``entry_hi`` / ``rows`` — the flattened leaf-entry boxes
  and the input row each one came from.

Queries answer in input rows: a dataset builds its index from its tensor's
boxes, so every hit is a dataset position with no id lookup.

Traversal is a *level frontier*: all children of the current frontier are
tested against all query windows in one broadcast comparison per level.
The frontier visits exactly the node set a node-by-node traversal visits
(the root unconditionally, then every child whose MBR crosses a window),
and records each visit in :class:`AccessStats`; the test suite checks
both against a pointer-tree reference.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rectangle import Rect
from repro.index.stats import AccessStats
from repro.obs import span as _span

DEFAULT_PAGE_SIZE = 4096
_POINTER_BYTES = 8
_COORD_BYTES = 8

#: Windows (padding slots included) per grouped-traversal block: groups are
#: processed in blocks so the (windows, frontier) intersection scratch
#: stays small even when thousands of windows are answered in one call.
GROUP_WINDOW_CHUNK = 512

#: Elements per (windows, rects) intersection matrix: rect columns are
#: sliced so one wide frontier (every leaf entry of a large dataset)
#: cannot blow up the comparison scratch.
_INTERSECT_SCRATCH_ELEMENTS = 1 << 18


def fanout_for_page(page_size: int, dims: int) -> int:
    """Entries per node for a given page size (two corners + one pointer each)."""
    entry_bytes = 2 * dims * _COORD_BYTES + _POINTER_BYTES
    return max(4, page_size // entry_bytes)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for every ``(start, count)`` pair."""
    counts = np.asarray(counts, dtype=np.intp)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.intp) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + offsets


def _str_pages(
    centers: np.ndarray, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive packing of items with the given ``(m, d)`` centers.

    Returns ``(order, starts)``: page ``k`` holds the items
    ``order[starts[k]:starts[k + 1]]`` (the last page runs to the end).
    A run of more than *capacity* items is stably sorted on the current
    dimension and cut into ``ceil(pages ** (1 / dims left))`` slabs of
    equal size, each tiled again on the next dimension; the last
    dimension is cut straight into pages of *capacity*.  A run that fits
    one page stays as it is.  Every open run of one dimension is sorted
    by a single ``lexsort`` keyed on (run, center), and pages come out in
    the depth-first order of the recursive formulation.
    """
    m, dims = centers.shape
    order = np.arange(m, dtype=np.intp)
    done: List[np.ndarray] = []
    starts = np.zeros(1, dtype=np.intp)
    sizes = np.full(1, m, dtype=np.intp)
    for axis in range(dims):
        fits = sizes <= capacity
        done.append(starts[fits])
        starts, sizes = starts[~fits], sizes[~fits]
        if starts.size == 0:
            break
        span = _ranges(starts, sizes)
        run = np.repeat(np.arange(starts.size), sizes)
        items = order[span]
        order[span] = items[np.lexsort((centers[items, axis], run))]
        if axis == dims - 1:
            step = np.full(starts.size, capacity, dtype=np.intp)
        else:
            step = np.array(
                [
                    math.ceil(size / math.ceil(
                        math.ceil(size / capacity) ** (1.0 / (dims - axis))
                    ))
                    for size in sizes.tolist()
                ],
                dtype=np.intp,
            )
        pieces = -(-sizes // step)
        step = np.repeat(step, pieces)
        cut = np.repeat(starts, pieces) + step * _ranges(
            np.zeros_like(pieces), pieces
        )
        sizes = np.minimum(step, np.repeat(starts + sizes, pieces) - cut)
        starts = cut
    done.append(starts)
    return order, np.sort(np.concatenate(done))


def _stack_windows(
    windows: Sequence[Rect], dims: int
) -> Tuple[np.ndarray, np.ndarray]:
    if not windows:
        empty = np.empty((0, dims), dtype=np.float64)
        return empty, empty.copy()
    lo = np.stack([w.lo for w in windows])
    hi = np.stack([w.hi for w in windows])
    return lo, hi


def pack_window_groups(
    groups: Sequence[Sequence[Rect]], dims: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(G, K, d)`` bounds of ragged window groups, NaN-padded to width K.

    ``K`` is the largest group.  A padding slot is all NaN, and a NaN
    bound fails every closed-interval comparison, so padding can never
    intersect a node or an entry: it adds no hit and no node visit.
    """
    groups = [list(group) for group in groups]
    width = max((len(group) for group in groups), default=0)
    lo = np.full((len(groups), width, dims), np.nan)
    hi = np.full((len(groups), width, dims), np.nan)
    for g, windows in enumerate(groups):
        if windows:
            lo[g, : len(windows)], hi[g, : len(windows)] = _stack_windows(
                windows, dims
            )
    return lo, hi


def group_blocks(n_groups: int, width: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` ranges of window groups traversed together.

    A block holds at most ``GROUP_WINDOW_CHUNK`` windows, padding slots
    included, so the (windows, frontier) intersection scratch stays
    small; a caller that consumes hits block by block also keeps only
    one block's hits as scratch.
    """
    per_block = max(1, GROUP_WINDOW_CHUNK // max(1, width))
    for start in range(0, n_groups, per_block):
        yield start, min(start + per_block, n_groups)


class PackedRTree:
    """Immutable array-backed R-tree over the rows of ``(n, d)`` box arrays.

    Build via :meth:`build`; query via :meth:`range_search` (one window),
    :meth:`range_search_many` (one answer per window) and
    :meth:`group_hits` (array-shaped window groups, the batched filter).
    Every answer is input rows.
    """

    __slots__ = (
        "dims",
        "size",
        "height",
        "leaf_start",
        "node_lo",
        "node_hi",
        "child_start",
        "child_count",
        "entry_start",
        "entry_count",
        "entry_lo",
        "entry_hi",
        "rows",
        "stats",
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        lo: np.ndarray,
        hi: np.ndarray,
        page_size: int = DEFAULT_PAGE_SIZE,
        stats: Optional[AccessStats] = None,
    ) -> "PackedRTree":
        """STR-pack the boxes ``lo[i] .. hi[i]``, one leaf entry per row.

        Leaves are packed from the box centers, then each level of nodes
        from its node-MBR centers, with the fanout of *page_size*, until
        one node is left: the root.  *stats* shares an existing access
        counter (the dataset-level one); omitted, the index gets a
        private counter.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        n, dims = lo.shape
        capacity = fanout_for_page(page_size, dims)

        # Bottom-up: each packing groups one level's items into pages.
        packings: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        page_bounds: List[Tuple[np.ndarray, np.ndarray]] = []
        item_lo, item_hi = lo, hi
        while True:
            order, starts = _str_pages((item_lo + item_hi) / 2.0, capacity)
            counts = np.diff(starts, append=order.size)
            packings.append((order, starts, counts))
            if order.size:
                item_lo = np.minimum.reduceat(item_lo[order], starts, axis=0)
                item_hi = np.maximum.reduceat(item_hi[order], starts, axis=0)
            else:  # no boxes: one empty leaf no window can intersect
                item_lo = np.full((1, dims), np.inf)
                item_hi = np.full((1, dims), -np.inf)
            page_bounds.append((item_lo, item_hi))
            if starts.size == 1:
                break

        # Top-down: number the pages in BFS order, root first.  The
        # children of a level, in BFS order, are its pages' items in page
        # order, so each level's BFS ids follow from the one above.
        node_lo: List[np.ndarray] = []
        node_hi: List[np.ndarray] = []
        child_start: List[np.ndarray] = []
        child_count: List[np.ndarray] = []
        level = np.zeros(1, dtype=np.intp)  # page ids of one level, BFS order
        offset = 0  # BFS id of the level's first node
        for depth in range(len(packings) - 1, -1, -1):
            order, starts, counts = packings[depth]
            node_lo.append(page_bounds[depth][0][level])
            node_hi.append(page_bounds[depth][1][level])
            below = counts[level]
            child_start.append(offset + level.size + np.cumsum(below) - below)
            child_count.append(below)
            offset += level.size
            level = order[_ranges(starts[level], below)]
        # The last level's "children" are its leaf entries: entry ranges
        # start at 0, and ``level`` now lists the entries' input rows.
        leaves = child_count[-1].size
        child_start[-1] -= offset
        internal = np.zeros(offset - leaves, dtype=np.intp)
        no_children = np.zeros(leaves, dtype=np.intp)

        packed = cls.__new__(cls)
        packed.dims = dims
        packed.size = n
        packed.height = len(packings)
        packed.leaf_start = offset - leaves
        packed.node_lo = np.concatenate(node_lo)
        packed.node_hi = np.concatenate(node_hi)
        packed.child_start = np.concatenate(child_start[:-1] + [no_children])
        packed.child_count = np.concatenate(child_count[:-1] + [no_children])
        packed.entry_start = np.concatenate([internal, child_start[-1]])
        packed.entry_count = np.concatenate([internal, child_count[-1]])
        packed.rows = level
        packed.entry_lo = lo[level]
        packed.entry_hi = hi[level]
        for slot in cls.__slots__:
            value = getattr(packed, slot, None)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        packed.stats = stats if stats is not None else AccessStats()
        return packed

    def with_stats(self, stats: Optional[AccessStats] = None) -> "PackedRTree":
        """An O(1) view over the same frozen arrays with its own counter.

        Every array is shared by reference; only the :class:`AccessStats`
        instance differs, so many concurrent readers of one snapshot can
        each measure their own per-query node-access deltas without
        interleaving — this is what keeps causality
        ``stats.node_accesses`` deterministic when the serve layer fans
        one published snapshot out to parallel requests.
        """
        view = PackedRTree.__new__(PackedRTree)
        for slot in self.__slots__:
            if slot != "stats":
                setattr(view, slot, getattr(self, slot))
        view.stats = stats if stats is not None else AccessStats()
        return view

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return self.node_lo.shape[0]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"<PackedRTree n={self.size} dims={self.dims} "
            f"nodes={self.node_count} height={self.height}>"
        )

    # ------------------------------------------------------------------
    # traversal kernels
    # ------------------------------------------------------------------
    def _leaf_frontier(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Visited leaves for one window, recording every node visit.

        Level frontier: the root is visited unconditionally, then exactly
        the children whose MBR intersects the window — the same
        closed-interval comparisons ``Rect.intersects`` performs.
        """
        active = np.zeros(1, dtype=np.intp)
        for _ in range(self.height - 1):
            self.stats.node_accesses += int(active.size)
            children = _ranges(
                self.child_start[active], self.child_count[active]
            )
            keep = np.logical_and(
                (lo <= self.node_hi[children]).all(axis=1),
                (self.node_lo[children] <= hi).all(axis=1),
            )
            active = children[keep]
        self.stats.node_accesses += int(active.size)
        self.stats.leaf_accesses += int(active.size)
        return active

    def range_search(self, window: Rect) -> np.ndarray:
        """Rows of all entries intersecting *window*, in entry order."""
        with _span("index-search", kernel="packed", windows=1) as sp:
            self.stats.record_query()
            leaves = self._leaf_frontier(window.lo, window.hi)
            eidx = _ranges(self.entry_start[leaves], self.entry_count[leaves])
            keep = np.logical_and(
                (window.lo <= self.entry_hi[eidx]).all(axis=1),
                (self.entry_lo[eidx] <= window.hi).all(axis=1),
            )
            hits = self.rows[eidx[keep]]
            sp.set(hits=int(hits.size))
            return hits

    def range_search_many(self, windows: Sequence[Rect]) -> List[np.ndarray]:
        """Per-window row arrays for W windows in one batched pass.

        Hit sets and access accounting are those of one
        :meth:`range_search` per window; each array is in entry order.
        """
        windows = list(windows)
        with _span("index-search", kernel="packed-many", windows=len(windows)):
            lo, hi = _stack_windows(windows, self.dims)
            groups, rows = self.group_hits(
                lo[:, np.newaxis, :], hi[:, np.newaxis, :]
            )
            bounds = np.searchsorted(groups, np.arange(1, len(windows)))
            return np.split(rows, bounds) if windows else []

    # ------------------------------------------------------------------
    # grouped traversal core
    # ------------------------------------------------------------------
    def group_hits(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(group, row)`` hit of a batch of window groups.

        *lo* / *hi* are ``(G, K, d)`` bounds: group ``g`` is the windows
        ``lo[g, k] .. hi[g, k]``, NaN slots being padding (see
        :func:`pack_window_groups`).  Returns two parallel index arrays
        ``(groups, rows)``, sorted by group and then by entry: the entry
        of input row ``r`` crosses some window of group ``g``.

        Hit sets and access accounting are those of the multi-rectangle
        branch-and-bound scan of Algorithm 1 run once per group (each
        node read once per group, however many of its windows it
        crosses).  A node is visited *for group g* iff its parent was and
        its MBR crosses one of g's windows (the root unconditionally), so
        summing the incidence matrix reproduces the node accesses a loop
        over the groups would record, while every level is a few
        elementwise comparisons over windows × frontier.
        """
        n_groups, width = lo.shape[0], lo.shape[1]
        self.stats.queries += n_groups
        groups: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        rows: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        for start, stop in group_blocks(n_groups, width):
            block_groups, block_entries = self._block_hits(
                lo[start:stop], hi[start:stop]
            )
            groups.append(block_groups + start)
            rows.append(self.rows[block_entries])
        return np.concatenate(groups), np.concatenate(rows)

    def _block_hits(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(group, entry index)`` hits of one block of groups."""
        n_groups = lo.shape[0]
        wlo = lo.reshape(-1, self.dims)
        whi = hi.reshape(-1, self.dims)
        active = np.zeros(1, dtype=np.intp)
        incidence = np.ones((n_groups, 1), dtype=bool)
        for _ in range(self.height - 1):
            self.stats.node_accesses += int(incidence.sum())
            counts = self.child_count[active]
            children = _ranges(self.child_start[active], counts)
            parent = np.repeat(np.arange(active.size, dtype=np.intp), counts)
            grouped = self._incidence(
                self.node_lo[children], self.node_hi[children],
                wlo, whi, n_groups,
            )
            grouped &= incidence[:, parent]
            keep = grouped.any(axis=0)
            active = children[keep]
            incidence = grouped[:, keep]
        visited = int(incidence.sum())
        self.stats.node_accesses += visited
        self.stats.leaf_accesses += visited

        counts = self.entry_count[active]
        eidx = _ranges(self.entry_start[active], counts)
        parent = np.repeat(np.arange(active.size, dtype=np.intp), counts)
        grouped = self._incidence(
            self.entry_lo[eidx], self.entry_hi[eidx], wlo, whi, n_groups
        )
        grouped &= incidence[:, parent]
        hit_groups, columns = np.nonzero(grouped)
        return hit_groups, eidx[columns]

    def _incidence(
        self,
        rect_lo: np.ndarray,
        rect_hi: np.ndarray,
        wlo: np.ndarray,
        whi: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        """``(G, R)`` mask: rect r intersects *some* window of group g.

        *wlo* / *whi* hold the groups' windows back to back, ``K`` per
        group.  The closed-interval test runs one dimension at a time on
        ``(windows, rects)`` matrices, the same comparisons
        ``Rect.intersects`` makes; a group's ``K`` rows then fold with
        one ``any`` over the middle axis.
        """
        n_windows, n_rects = wlo.shape[0], rect_lo.shape[0]
        out = np.zeros((n_groups, n_rects), dtype=bool)
        if n_windows == 0 or n_rects == 0:
            return out
        # dimension-major copies: each comparison row is contiguous
        rect_lo, rect_hi = rect_lo.T.copy(), rect_hi.T.copy()
        chunk = max(1, _INTERSECT_SCRATCH_ELEMENTS // n_windows)
        for start in range(0, n_rects, chunk):
            sl = slice(start, start + chunk)
            hit = wlo[:, 0, np.newaxis] <= rect_hi[0, sl]
            hit &= rect_lo[0, sl] <= whi[:, 0, np.newaxis]
            for j in range(1, self.dims):
                hit &= wlo[:, j, np.newaxis] <= rect_hi[j, sl]
                hit &= rect_lo[j, sl] <= whi[:, j, np.newaxis]
            out[:, sl] = hit.reshape(n_groups, -1, hit.shape[1]).any(axis=1)
        return out
