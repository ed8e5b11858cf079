"""Scatter-gather facade over per-shard spatial indexes.

A :class:`~repro.uncertain.sharded.ShardedDataset` holds k disjoint
sub-datasets, each with its own :class:`~repro.index.packed.PackedRTree`.
:class:`ShardedIndex` presents those k indexes as one object answering
the same ``range_search``/``range_search_many`` and ``group_hits`` calls
every filter call site already issues, so the Lemma-2 filter, CR's window
query, the bichromatic reverse skyline's batched windows and the PRSQ
relevance prune run per-shard without a single algorithm edit.  (Reverse
skylines and k-skybands read no index: they count dominators over the
dataset's points.)

Hit-set soundness rides on two facts:

* the shards **partition** the objects (disjoint, exhaustive), so the
  concatenation of per-shard hits is exactly the global hit set with no
  duplicates;
* every call site canonicalizes hit order before it can influence a
  result — the sorted dataset positions of
  :meth:`~repro.uncertain.dataset.UncertainDataset.relevance_sets` (the
  Eq. (2) product order), an explicit ``sorted(..., key=repr)``, or an
  order-insensitive reduction (``any()``) — so the
  shard-major arrival order is invisible downstream.  This is what makes
  every query family bit-identical between k=1 and k>1 (property-tested).

The performance lever is **shard pruning**: a shard only traverses the
windows that intersect its root MBR.  The packed level-frontier kernels
pay (frontier x windows) per broadcast, so cutting the window list per
shard shrinks the dominant leaf-level comparison from ~``n x W`` to
~``sum_s n_s x W_s`` — a genuine algorithmic win even on one core, and
the basis of the multi-shard filter speedup asserted by
``bench_shard_scaling.py``.

Node-access accounting accumulates into the owning dataset's shared
:class:`~repro.index.stats.AccessStats` (every shard index is built over
it), but the *counts* differ from the unsharded tree — k roots, different
tree heights — so sharded parity is defined over results, never over
``node_accesses``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.geometry.rectangle import Rect
from repro.index.packed import PackedRTree, _stack_windows


class ShardedIndex:
    """k per-shard packed indexes behind the single-index API.

    Built fresh (cheaply) by ``ShardedDataset.spatial_index`` on every
    call, so it always wraps the shards' *current* packed snapshots.
    Every shard runs in-process.
    """

    def __init__(self, indexes: Sequence[PackedRTree]):
        if not indexes:
            raise ValueError("ShardedIndex needs at least one shard index")
        self.indexes = list(indexes)
        self.dims = self.indexes[0].dims
        # Root MBRs: a shard's node 0 (datasets are never empty).
        self.shard_lo = np.stack([index.node_lo[0] for index in self.indexes])
        self.shard_hi = np.stack([index.node_hi[0] for index in self.indexes])
        #: Global entry index of each shard's first entry (see group_hits).
        self.entry_bases = np.cumsum(
            [0] + [index.size for index in self.indexes[:-1]]
        )

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.indexes)

    def __repr__(self) -> str:
        return f"<ShardedIndex shards={self.shard_count} dims={self.dims}>"

    # ------------------------------------------------------------------
    def _window_mask(self, wlo: np.ndarray, whi: np.ndarray) -> np.ndarray:
        """``(k, W)`` mask: shard root MBR intersects window w.

        The same closed-interval comparisons ``Rect.intersects`` performs,
        so a pruned (shard, window) pair is exactly one whose traversal
        would have rejected every node below the root anyway — pruning
        can never change a hit set.
        """
        hit = np.logical_and(
            (wlo[np.newaxis, :, :] <= self.shard_hi[:, np.newaxis, :]).all(
                axis=2
            ),
            (self.shard_lo[:, np.newaxis, :] <= whi[np.newaxis, :, :]).all(
                axis=2
            ),
        )
        metrics = obs.registry()
        metrics.counter("shard.filter.window_pairs").inc(int(hit.size))
        metrics.counter("shard.filter.window_pairs_pruned").inc(
            int(hit.size - hit.sum())
        )
        return hit

    # ------------------------------------------------------------------
    # the range_search calls the filter call sites issue
    # ------------------------------------------------------------------
    def range_search(self, window: Rect) -> List[Any]:
        """Payloads of all entries intersecting *window*.

        Same hit *set* as the unsharded index; order is shard-major (each
        shard's hits in its own deterministic order).  Every caller
        re-sorts or reduces order-insensitively, so the difference cannot
        leak into results.
        """
        wlo, whi = _stack_windows([window], self.dims)
        mask = self._window_mask(wlo, whi)[:, 0]
        hits: List[Any] = []
        for shard, index in enumerate(self.indexes):
            if mask[shard]:
                hits.extend(index.range_search(window))
        return hits

    def range_search_many(self, windows: Sequence[Rect]) -> List[List[Any]]:
        """Per-window payload lists for W windows, scatter-gathered.

        Each shard answers only the windows crossing its root MBR — the
        pruning that makes the batched filter phase ~k times cheaper on
        spatially local workloads.  Per-window hit *sets* match the
        unsharded call; within a window, hits arrive shard-major.
        """
        windows = list(windows)
        if not windows:
            return []
        wlo, whi = _stack_windows(windows, self.dims)
        mask = self._window_mask(wlo, whi)
        # Every shard answers with fresh lists, so a window adopts its
        # first one instead of copying it, and no list is built only to
        # be replaced.
        results: List[Optional[List[Any]]] = [None] * len(windows)
        for shard, index in enumerate(self.indexes):
            selected = np.flatnonzero(mask[shard])
            if not selected.size:
                continue
            per_window = index.range_search_many(
                [windows[i] for i in selected]
            )
            for i, hits in zip(selected.tolist(), per_window):
                if results[i] is None:
                    results[i] = hits
                else:
                    results[i].extend(hits)
        return [[] if hits is None else hits for hits in results]

    @property
    def payloads(self) -> List[Any]:
        """Every shard's payload table, concatenated in shard order.

        The entry space of :meth:`group_hits`: shard ``s``'s entry ``e``
        is global entry ``entry_bases[s] + e``.  Built on every access;
        :meth:`entry_payloads` maps a few hits without it.
        """
        return [payload for index in self.indexes for payload in index.payloads]

    def entry_payloads(self, entries: np.ndarray) -> List[Any]:
        """Payloads of the global entry indices *entries*, in order."""
        shards = np.searchsorted(self.entry_bases, entries, side="right") - 1
        local = entries - self.entry_bases[shards]
        return [
            self.indexes[shard].payloads[entry]
            for shard, entry in zip(shards.tolist(), local.tolist())
        ]

    def group_hits(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``PackedRTree.group_hits`` scattered per shard, gathered by concat.

        A shard traverses only the windows crossing its root MBR (the
        others become NaN padding) and only the groups left with one.
        The shards are disjoint, so the concatenated ``(group, entry)``
        pairs, entries offset by :attr:`entry_bases`, are exactly the
        unsharded hits, in shard-major order; callers sort them.
        """
        n_groups, width, dims = lo.shape
        flat_lo = lo.reshape(-1, dims)
        flat_hi = hi.reshape(-1, dims)
        real = ~np.isnan(flat_lo).any(axis=1)
        crossing = np.zeros((self.shard_count, flat_lo.shape[0]), dtype=bool)
        if real.any():
            crossing[:, real] = self._window_mask(flat_lo[real], flat_hi[real])
        groups: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        entries: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        for shard, index in enumerate(self.indexes):
            keep = crossing[shard].reshape(n_groups, width)
            alive = np.flatnonzero(keep.any(axis=1))
            if alive.size:
                slots = keep[alive][:, :, np.newaxis]
                shard_groups, shard_entries = index.group_hits(
                    np.where(slots, lo[alive], np.nan),
                    np.where(slots, hi[alive], np.nan),
                )
                groups.append(alive[shard_groups])
                entries.append(shard_entries + self.entry_bases[shard])
        return np.concatenate(groups), np.concatenate(entries)
