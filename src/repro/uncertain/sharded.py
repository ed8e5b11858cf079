"""STR-sharded datasets: k disjoint sub-datasets behind the dataset API.

:func:`shard_dataset` partitions an existing dataset into k shards by
Sort-Tile-Recursive tiling of object MBR centers
(:func:`repro.index.bulk.str_partition` — the same scheme the bulk loader
packs leaves with, lifted one level up).  Each shard is a plain
:class:`~repro.uncertain.dataset.UncertainDataset` sharing the parent's
object instances (cached MBRs and digests included), owning its own
packed index; the parent keeps the global object order, tensor and
content digest, so everything downstream of the filter — the Eq. (2)
product order, fingerprints, refine phases — is byte-for-byte the
unsharded dataset.

What changes is purely physical:

* ``spatial_index`` returns a :class:`~repro.index.sharded.ShardedIndex`
  facade over the per-shard packed indexes;
* :class:`~repro.uncertain.delta.DatasetDelta` ops route to the owning
  shard in O(changed): inserts go to the nearest shard seed center,
  deletes/updates to their owner, and a full STR **rebalance** runs only
  when a shard overflows ``REBALANCE_FACTOR x n/k`` or a delete would
  empty a shard;
* the :class:`PartitionLayout` digest names the exact assignment, and the
  engine folds it into every cache key — re-sharding the same data can
  never alias cached results;
* snapshots/views carry the shards (with per-shard frozen arrays), so
  the serve layer publishes sharded snapshots with unchanged isolation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.index.bulk import str_partition
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject

#: A shard may grow to this multiple of the balanced size ``n / k`` before
#: an insert triggers a full STR repartition.
REBALANCE_FACTOR = 2.0


@dataclass(frozen=True)
class PartitionLayout:
    """The exact shard assignment: per-shard object-id tuples, in order.

    Immutable and hash-stable: :attr:`digest` is cache-key material (the
    engine appends it to every sharded session's result-cache key), so
    two sessions over identical data but different partitions — a
    different k, or the same k after a rebalance reshuffled membership —
    can never serve each other's cached entries.
    """

    shards: Tuple[Tuple[Hashable, ...], ...]
    requested: int

    @property
    def k(self) -> int:
        return len(self.shards)

    @cached_property
    def digest(self) -> str:
        """sha1 over the requested count and length-prefixed member ids."""
        hasher = hashlib.sha1()
        hasher.update(f"layout:{self.requested}:{len(self.shards)}:".encode())
        for members in self.shards:
            hasher.update(f"|{len(members)}:".encode())
            for oid in members:
                token = repr(oid).encode()
                hasher.update(len(token).to_bytes(4, "big"))
                hasher.update(token)
        return hasher.hexdigest()

    def assignment(self) -> List[List[Hashable]]:
        """The plain-list form shipped to executor workers."""
        return [list(members) for members in self.shards]


class ShardingMixin:
    """The shard machinery shared by uncertain and certain sharded datasets.

    Mixed in *before* the dataset base class so the mutation primitives
    (``_insert_many``/``_delete_many``/``_update_many``), the index
    accessors and the snapshot/view paths here wrap the base behavior.
    The base class keeps full responsibility for the global state — the
    ordered object list, id maps, tensor, global pointer tree, content
    digest — so sharding adds routing, never a second source of truth.
    """

    _shards: List[UncertainDataset]
    _owner: Dict[Hashable, int]
    _shard_centers: np.ndarray

    # -- construction ---------------------------------------------------
    def _init_sharding(
        self,
        shards: int,
        assignment: Optional[Sequence[Sequence[Hashable]]] = None,
    ) -> None:
        if int(shards) < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._requested_shards = int(shards)
        self.rebalances = 0
        self._layout: Optional[PartitionLayout] = None
        self._build_shards(assignment)

    def _build_shards(
        self, assignment: Optional[Sequence[Sequence[Hashable]]] = None
    ) -> None:
        if assignment is None:
            k = min(self._requested_shards, len(self._objects))
            centers = np.stack([obj.mbr.center for obj in self._objects])
            parts = str_partition(centers, k)
            groups = [[self._objects[i] for i in part] for part in parts]
        else:
            groups = [
                [self._by_id[oid] for oid in members] for members in assignment
            ]
            covered = sum(len(members) for members in groups)
            if covered != len(self._objects) or any(
                not members for members in groups
            ):
                raise ValueError(
                    f"shard assignment covers {covered} of "
                    f"{len(self._objects)} objects "
                    "(must partition the dataset into non-empty shards)"
                )
        shards: List[UncertainDataset] = []
        owner: Dict[Hashable, int] = {}
        for index, members in enumerate(groups):
            shard = UncertainDataset(members, page_size=self.page_size)
            # One shared accumulator: shard traversals (packed or pointer)
            # count into the dataset-level AccessStats, exactly like the
            # unsharded index would.
            shard._access_stats = self._access_stats
            shards.append(shard)
            for obj in members:
                owner[obj.oid] = index
        if len(owner) != len(self._objects):
            raise ValueError("shard assignment repeats an object id")
        self._shards = shards
        self._owner = owner
        # Stable routing targets for inserts: the partition-time centroid
        # of each shard.  Deliberately *not* updated per insert, so routing
        # stays deterministic between rebalances.
        self._shard_centers = np.stack(
            [
                np.mean(
                    np.stack([obj.mbr.center for obj in shard._objects]),
                    axis=0,
                )
                for shard in shards
            ]
        )
        self._layout = None
        obs.registry().gauge("shard.count").set(len(shards))

    # -- introspection --------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def requested_shards(self) -> int:
        return self._requested_shards

    def shards(self) -> List[UncertainDataset]:
        """The live per-shard datasets (shared object instances)."""
        return list(self._shards)

    @property
    def layout(self) -> PartitionLayout:
        """The current assignment as an immutable, digest-able value."""
        if self._layout is None:
            self._layout = PartitionLayout(
                shards=tuple(
                    tuple(shard.ids()) for shard in self._shards
                ),
                requested=self._requested_shards,
            )
        return self._layout

    def layout_digest(self) -> Optional[str]:
        return self.layout.digest

    # -- index plumbing -------------------------------------------------
    def spatial_index(self):
        """A :class:`~repro.index.sharded.ShardedIndex` over the shards.

        Building it freezes every shard's packed snapshot (which is what
        ``warm_index`` relies on); the global packed tree is never
        queried on a sharded dataset, so it stays lazy.
        """
        from repro.index.sharded import ShardedIndex

        return ShardedIndex([shard.packed for shard in self._shards])

    # -- delta routing ---------------------------------------------------
    def _shard_limit(self) -> int:
        k = max(1, min(self._requested_shards, len(self._objects)))
        return max(4, math.ceil(REBALANCE_FACTOR * len(self._objects) / k))

    def _repartition(self) -> None:
        self._build_shards(None)
        self.rebalances += 1
        obs.registry().counter("shard.rebalances").inc()

    def _insert_many(self, objects: Sequence[UncertainObject]) -> None:
        super()._insert_many(objects)
        metrics = obs.registry()
        for obj in objects:
            center = obj.mbr.center
            shard = int(
                np.argmin(
                    ((self._shard_centers - center) ** 2).sum(axis=1)
                )
            )
            self._shards[shard]._insert_many((obj,))
            self._owner[obj.oid] = shard
        metrics.counter("shard.routed_inserts").inc(len(objects))
        self._layout = None
        limit = self._shard_limit()
        if any(len(shard) > limit for shard in self._shards):
            self._repartition()

    def _delete_many(self, oids: Sequence[Hashable]) -> List[int]:
        per_shard: Dict[int, List[Hashable]] = {}
        for oid in oids:
            per_shard.setdefault(self._owner[oid], []).append(oid)
        positions = super()._delete_many(oids)
        if any(
            len(group) >= len(self._shards[shard])
            for shard, group in per_shard.items()
        ):
            # The delete would empty a shard (sub-datasets may not be
            # empty): rebuild the partition from the survivors instead.
            self._repartition()
        else:
            for shard, group in per_shard.items():
                self._shards[shard]._delete_many(group)
            for oid in oids:
                del self._owner[oid]
            self._layout = None
        obs.registry().counter("shard.routed_deletes").inc(len(oids))
        return positions

    def _update_many(self, objects: Sequence[UncertainObject]) -> List[int]:
        positions = super()._update_many(objects)
        per_shard: Dict[int, List[UncertainObject]] = {}
        for obj in objects:
            per_shard.setdefault(self._owner[obj.oid], []).append(obj)
        for shard, group in per_shard.items():
            self._shards[shard]._update_many(group)
        # Membership (and therefore the layout) is unchanged: an updated
        # object stays in its shard even if its MBR drifted — the shard
        # root MBR grows to cover it, so pruning stays sound.
        obs.registry().counter("shard.routed_updates").inc(len(objects))
        return positions

    # -- snapshot isolation ----------------------------------------------
    def _clone_shell(self, objects, by_id, index_of):
        clone = super()._clone_shell(objects, by_id, index_of)
        clone._requested_shards = self._requested_shards
        clone.rebalances = self.rebalances
        clone._layout = self._layout
        clone._shard_centers = self._shard_centers
        clone._owner = dict(self._owner)
        clone._shards = []  # filled by snapshot()/view()
        return clone

    def _adopt_shard_clones(self, clone, shards) -> None:
        """Point cloned shards at the clone's shared access counter."""
        for shard in shards:
            shard._access_stats = clone._access_stats
            if shard._packed is not None:
                shard._packed.stats = clone._access_stats
        clone._shards = shards

    def snapshot(self):
        # Only the shards freeze: the *global* packed tree is never
        # traversed on a sharded dataset.
        clone = self._snapshot_shell()
        self._adopt_shard_clones(
            clone, [shard.snapshot() for shard in self._shards]
        )
        return clone

    def view(self):
        clone = super().view()
        self._adopt_shard_clones(
            clone, [shard.view() for shard in self._shards]
        )
        return clone


class ShardedDataset(ShardingMixin, UncertainDataset):
    """An :class:`UncertainDataset` STR-partitioned into k shards."""

    def __init__(
        self,
        objects,
        shards: int = 8,
        page_size: Optional[int] = None,
    ):
        kwargs = {} if page_size is None else {"page_size": page_size}
        UncertainDataset.__init__(self, objects, **kwargs)
        self._init_sharding(shards)

    def __repr__(self) -> str:
        return (
            f"<ShardedDataset n={len(self._objects)} dims={self.dims} "
            f"shards={self.shard_count}/{self._requested_shards} "
            f"rebalances={self.rebalances}>"
        )


class ShardedCertainDataset(ShardingMixin, CertainDataset):
    """A :class:`CertainDataset` STR-partitioned into k shards."""

    def __init__(
        self,
        points,
        ids=None,
        names=None,
        shards: int = 8,
        page_size: Optional[int] = None,
    ):
        kwargs = {} if page_size is None else {"page_size": page_size}
        CertainDataset.__init__(self, points, ids=ids, names=names, **kwargs)
        self._init_sharding(shards)

    def __repr__(self) -> str:
        return (
            f"<ShardedCertainDataset n={len(self._objects)} dims={self.dims} "
            f"shards={self.shard_count}/{self._requested_shards} "
            f"rebalances={self.rebalances}>"
        )


def shard_dataset(
    dataset: UncertainDataset,
    shards: int,
    *,
    assignment: Optional[Sequence[Sequence[Hashable]]] = None,
) -> UncertainDataset:
    """Partition *dataset* into an STR-sharded equivalent.

    Objects (with their cached MBRs and digests), the sample tensor and
    the combined content digest are **shared**, so the sharded dataset
    fingerprints identically to its source and no sample bytes move.
    Re-sharding a sharded dataset repartitions from its current contents.

    *assignment* (per-shard id lists) skips the STR computation and
    installs an exact layout — the executor's worker-side handoff, which
    must reproduce the parent's partition bit-for-bit.
    """
    if int(shards) < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    cls = (
        ShardedCertainDataset
        if isinstance(dataset, CertainDataset)
        else ShardedDataset
    )
    out = cls.__new__(cls)
    UncertainDataset.__init__(out, dataset.objects(), page_size=dataset.page_size)
    if isinstance(dataset, CertainDataset):
        out.points = dataset.points
    out._tensor = dataset._tensor
    out._content_digest = dataset._content_digest
    out._init_sharding(shards, assignment=assignment)
    return out
