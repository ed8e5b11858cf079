"""Packed (flattened) NumPy snapshot of an R-tree.

The pointer :class:`~repro.index.rtree.RTree` pays a Python-level
``Rect.intersects`` call per node per window.  For the filter phase of the
index-guided algorithms — Lemma-2 candidate discovery, CR's window query,
the bichromatic reverse skyline's windows, the PRSQ relevance prune — that
scalar traversal dominates the runtime once queries arrive in batches.

:class:`PackedRTree` freezes one tree into contiguous arrays:

* ``node_lo`` / ``node_hi`` — ``(N, d)`` node MBRs in **BFS order** (the
  root is node 0; every level is a contiguous block; the leaves are
  exactly the last level, because the R-tree keeps all leaves at equal
  depth);
* ``child_start`` / ``child_count`` — each internal node's children as a
  contiguous node-id range (BFS numbering makes sibling blocks adjacent);
* ``entry_start`` / ``entry_count`` — each leaf's entries as a range into
* ``entry_lo`` / ``entry_hi`` / ``payloads`` — the flattened leaf-entry
  rectangles and their payload table.

Traversal is a *level frontier*: all children of the current frontier are
tested against all query windows in one broadcast comparison per level.
The frontier visits exactly the node set the pointer traversal visits (the
root unconditionally, then every child whose MBR crosses a window), and
every visit is recorded through the same :class:`AccessStats` counters, so
the paper's node-access metric is identical on both structures — this
parity is property-tested.

A snapshot is immutable and self-contained (plain arrays plus the payload
list), so it pickles cheaply: :class:`~repro.engine.executor
.ParallelExecutor` ships it to worker processes, which adopt the arrays
instead of re-running the O(n log n) bulk load.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rectangle import Rect
from repro.index.rtree import RTree
from repro.index.stats import AccessStats
from repro.obs import span as _span

#: Windows (padding slots included) per grouped-traversal block: groups are
#: processed in blocks so the (windows, frontier) intersection scratch
#: stays small even when thousands of windows are answered in one call.
GROUP_WINDOW_CHUNK = 512

#: Elements per (windows, rects) intersection matrix: rect columns are
#: sliced so one wide frontier (every leaf entry of a large dataset)
#: cannot blow up the comparison scratch.
_INTERSECT_SCRATCH_ELEMENTS = 1 << 18


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


def _split_groups(
    groups: np.ndarray, entries: np.ndarray, n_groups: int
) -> List[List[int]]:
    """Per-group entry lists from group-sorted ``(group, entry)`` hits."""
    bounds = np.searchsorted(groups, np.arange(n_groups + 1)).tolist()
    flat = entries.tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class PackedRTree:
    """Immutable array-backed snapshot of one :class:`RTree`.

    Build via :meth:`from_rtree` (or ``tree.freeze()``); query via the
    same ``range_search`` / ``range_search_any`` family the pointer tree
    exposes, plus the batched multi-window kernels ``range_search_many``
    and ``range_search_any_grouped``.  Hit *sets* and access accounting
    are identical to the pointer tree; ``range_search_any`` additionally
    shares its canonical (unique, ``repr``-sorted) result order.  All of
    them run on :meth:`group_hits`, which answers array-shaped window
    groups with entry indices instead of payloads.
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
        "payloads",
        "stats",
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rtree(
        cls, tree: RTree, stats: Optional[AccessStats] = None
    ) -> "PackedRTree":
        """Freeze *tree* into a packed snapshot (one O(n) array pass).

        *stats* shares an existing access counter (the dataset-level one)
        so pointer and packed traversals accumulate into the same I/O
        metric; omitted, the snapshot gets a private counter.
        """
        levels: List[List] = [[tree.root]]
        while not levels[-1][0].is_leaf:
            levels.append(
                [child for node in levels[-1] for child in node.children]
            )
        nodes = [node for level in levels for node in level]
        n = len(nodes)
        dims = tree.dims

        packed = cls.__new__(cls)
        packed.dims = dims
        packed.size = tree.size
        packed.height = len(levels)
        packed.leaf_start = n - len(levels[-1])
        packed.stats = stats if stats is not None else AccessStats()

        # An MBR-less node (only the root of an empty tree) gets inverted
        # infinite bounds so no window can ever intersect it.
        node_lo = np.full((n, dims), np.inf, dtype=np.float64)
        node_hi = np.full((n, dims), -np.inf, dtype=np.float64)
        child_start = np.zeros(n, dtype=np.intp)
        child_count = np.zeros(n, dtype=np.intp)
        entry_start = np.zeros(n, dtype=np.intp)
        entry_count = np.zeros(n, dtype=np.intp)
        lo_parts: List[np.ndarray] = []
        hi_parts: List[np.ndarray] = []
        payloads: List[Any] = []

        next_child = 1  # BFS numbering: children fill the array in order
        entry_cursor = 0
        for i, node in enumerate(nodes):
            if node.mbr is not None:
                node_lo[i] = node.mbr.lo
                node_hi[i] = node.mbr.hi
            if node.is_leaf:
                entry_start[i] = entry_cursor
                entry_count[i] = len(node.entries)
                entry_cursor += len(node.entries)
                for rect, payload in node.entries:
                    lo_parts.append(rect.lo)
                    hi_parts.append(rect.hi)
                    payloads.append(payload)
            else:
                child_start[i] = next_child
                child_count[i] = len(node.children)
                next_child += len(node.children)

        if payloads:
            # concatenate + reshape: a quarter of np.stack's per-part cost
            entry_lo = np.concatenate(lo_parts).reshape(-1, dims)
            entry_hi = np.concatenate(hi_parts).reshape(-1, dims)
        else:
            entry_lo = np.empty((0, dims), dtype=np.float64)
            entry_hi = np.empty((0, dims), dtype=np.float64)
        for array in (node_lo, node_hi, child_start, child_count,
                      entry_start, entry_count, entry_lo, entry_hi):
            array.flags.writeable = False
        packed.node_lo = node_lo
        packed.node_hi = node_hi
        packed.child_start = child_start
        packed.child_count = child_count
        packed.entry_start = entry_start
        packed.entry_count = entry_count
        packed.entry_lo = entry_lo
        packed.entry_hi = entry_hi
        packed.payloads = payloads
        return packed

    def with_stats(self, stats: Optional[AccessStats] = None) -> "PackedRTree":
        """An O(1) view over the same frozen arrays with its own counter.

        Every array (and the payload table) is shared by reference; only
        the :class:`AccessStats` instance differs, so many concurrent
        readers of one snapshot can each measure their own per-query
        node-access deltas without interleaving — this is what keeps
        causality ``stats.node_accesses`` deterministic when the serve
        layer fans one published snapshot out to parallel requests.
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
    # pickling (worker handoff): ship arrays, never the stats counter
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot != "stats"}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self.stats = AccessStats()
        # pickle restores fresh writable arrays; re-freeze so a worker's
        # copy keeps the same immutability contract as the original
        for slot, value in state.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # ------------------------------------------------------------------
    # traversal kernels
    # ------------------------------------------------------------------
    def _leaf_frontier(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Visited leaves for one window, recording every node visit.

        Level frontier: the root is visited unconditionally (as the
        pointer traversal does), then exactly the children whose MBR
        intersects the window — the same closed-interval comparisons
        ``Rect.intersects`` performs, so the visit set is bit-identical.
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

    def range_hits(self, window: Rect) -> np.ndarray:
        """Entry indices intersecting *window* (ascending entry order)."""
        self.stats.record_query()
        leaves = self._leaf_frontier(window.lo, window.hi)
        eidx = _ranges(self.entry_start[leaves], self.entry_count[leaves])
        if eidx.size == 0:
            return eidx
        keep = np.logical_and(
            (window.lo <= self.entry_hi[eidx]).all(axis=1),
            (self.entry_lo[eidx] <= window.hi).all(axis=1),
        )
        return eidx[keep]

    def range_search(self, window: Rect) -> List[Any]:
        """Payloads of all entries intersecting *window*.

        Same hit set and access accounting as ``RTree.range_search``;
        payloads come back in (deterministic) packed entry order.
        """
        with _span("index-search", kernel="packed", windows=1) as sp:
            hits = [self.payloads[i] for i in self.range_hits(window)]
            sp.set(hits=len(hits))
            return hits

    def range_search_any(self, windows: Sequence[Rect]) -> List[Any]:
        """Unique payloads intersecting *any* window, canonically ordered.

        Matches ``RTree.range_search_any`` exactly: the multi-rectangle
        branch-and-bound scan of Algorithm 1 (each node read once no
        matter how many rectangles it crosses), returning unique payloads
        sorted by ``repr`` so no traversal order can leak downstream.
        """
        windows = list(windows)
        with _span("index-search", kernel="packed-any", windows=len(windows)):
            return self.range_search_any_grouped([windows])[0]

    def range_search_many(
        self, windows: Sequence[Rect]
    ) -> List[List[Any]]:
        """Per-window payload lists for W windows in one batched pass.

        Semantically (hit sets *and* access accounting) identical to
        calling ``range_search`` once per window; each list comes back in
        packed entry order.
        """
        windows = list(windows)
        with _span("index-search", kernel="packed-many", windows=len(windows)):
            lo, hi = _stack_windows(windows, self.dims)
            groups, entries = self.group_hits(
                lo[:, np.newaxis, :], hi[:, np.newaxis, :]
            )
            return [
                [self.payloads[i] for i in part]
                for part in _split_groups(groups, entries, len(windows))
            ]

    def range_search_any_grouped(
        self, groups: Sequence[Sequence[Rect]]
    ) -> List[List[Any]]:
        """One ``range_search_any`` answer per window group, in one pass.

        Semantically (hit sets, canonical order, *and* access accounting)
        identical to calling ``range_search_any`` once per group.  The
        PRSQ evaluation skips the payloads altogether and asks for
        :meth:`group_hits` instead.
        """
        groups = [list(group) for group in groups]
        with _span(
            "index-search", kernel="packed-grouped", groups=len(groups)
        ):
            hit_groups, entries = self.group_hits(
                *pack_window_groups(groups, self.dims)
            )
            return [
                sorted(dict.fromkeys(self.payloads[i] for i in part), key=repr)
                for part in _split_groups(hit_groups, entries, len(groups))
            ]

    # ------------------------------------------------------------------
    # grouped traversal core
    # ------------------------------------------------------------------
    def group_hits(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(group, entry)`` hit of a batch of window groups.

        *lo* / *hi* are ``(G, K, d)`` bounds: group ``g`` is the windows
        ``lo[g, k] .. hi[g, k]``, NaN slots being padding (see
        :func:`pack_window_groups`).  Returns two parallel index arrays
        ``(groups, entries)``, sorted by group and then by entry: entry
        ``e`` crosses some window of group ``g``.

        Hit sets and access accounting are those of one
        ``range_search_any`` per group.  A node is visited *for group g*
        iff its parent was and its MBR crosses one of g's windows (the
        root unconditionally), exactly the pointer traversal's per-group
        visit set, so summing the incidence matrix reproduces the node
        accesses a Python loop over the groups would record, while every
        level is a few elementwise comparisons over windows × frontier.
        """
        n_groups, width = lo.shape[0], lo.shape[1]
        self.stats.queries += n_groups
        groups: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        entries: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        for start, stop in group_blocks(n_groups, width):
            block_groups, block_entries = self._block_hits(
                lo[start:stop], hi[start:stop]
            )
            groups.append(block_groups + start)
            entries.append(block_entries)
        return np.concatenate(groups), np.concatenate(entries)

    def _block_hits(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`group_hits` for one block of groups."""
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
