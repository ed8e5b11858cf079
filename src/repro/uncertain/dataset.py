"""Datasets of uncertain and certain objects, indexed by an R-tree.

The R-tree indexes one entry per object: its sample MBR (uncertain) or its
point (certain), exactly as the paper assumes when algorithm CP traverses
``R_P`` in a branch-and-bound manner.  It is a
:class:`~repro.index.packed.PackedRTree` STR-packed from the boxes of the
dataset's tensor (:meth:`DatasetTensor.boxes`), built on first use, and
it answers in dataset positions.

Datasets are **live**: :meth:`UncertainDataset.insert_object`,
:meth:`~UncertainDataset.delete_object`, :meth:`~UncertainDataset.
update_object` and :meth:`~UncertainDataset.apply_delta` change the
contents in place while the cached :class:`DatasetTensor` is patched by
row and the content digest is re-combined from cached per-object
digests, so a single-object change costs O(changed) hashing/kernel work
instead of the O(n) full rebuild that
:meth:`repro.engine.session.Session.replace_dataset` pays.  The index is
the one derived structure that is *invalidated* instead of patched: the
next access packs it afresh from the patched tensor's boxes, so it
depends only on the contents, never on the order of past writes.
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import EmptyDatasetError
from repro.geometry.point import PointLike, as_point_matrix
from repro.geometry.rectangle import Rect
from repro.index.packed import (
    DEFAULT_PAGE_SIZE,
    PackedRTree,
    group_blocks,
    pack_window_groups,
)
from repro.index.stats import AccessStats
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject
from repro.uncertain.tensor import DatasetTensor


class UncertainDataset:
    """An ordered collection of :class:`UncertainObject` with a lazy R-tree."""

    def __init__(
        self,
        objects: Iterable[UncertainObject],
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self._objects: List[UncertainObject] = list(objects)
        if not self._objects:
            raise EmptyDatasetError("dataset must contain at least one object")
        dims = self._objects[0].dims
        for obj in self._objects:
            if obj.dims != dims:
                raise ValueError(
                    f"object {obj.oid!r} has {obj.dims} dims, dataset has {dims}"
                )
        self._by_id: Dict[Hashable, UncertainObject] = {}
        for obj in self._objects:
            if obj.oid in self._by_id:
                raise ValueError(f"duplicate object id {obj.oid!r}")
            self._by_id[obj.oid] = obj
        self._index_of: Dict[Hashable, int] = {
            obj.oid: i for i, obj in enumerate(self._objects)
        }
        self.dims = dims
        self.page_size = page_size
        self._packed: Optional[PackedRTree] = None
        self._access_stats = AccessStats()
        self._tensor: Optional[DatasetTensor] = None
        self._content_digest: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def access_stats(self) -> AccessStats:
        """Node-access counters of :attr:`packed`, the paper's I/O metric.

        Owned by the dataset, so the count accumulates in one place across
        index rebuilds."""
        return self._access_stats

    @property
    def packed(self) -> PackedRTree:
        """The R-tree over the objects' MBRs, addressed by dataset position.

        STR-packed from :attr:`tensor`'s boxes on first use; every live
        update invalidates it and the next access packs it afresh.  Shares
        :attr:`access_stats`.
        """
        if self._packed is None:
            lo, hi, _sums_to_one = self.tensor.boxes()
            self._packed = PackedRTree.build(
                lo, hi, self.page_size, stats=self._access_stats
            )
        return self._packed

    @property
    def tensor(self) -> DatasetTensor:
        """Padded ``(n, S_max, d)`` sample/probability tensor, built lazily.

        Rows follow dataset order — the canonical Eq. (2) product order —
        and the cache is sound because object arrays are immutable.
        """
        if self._tensor is None:
            self._tensor = DatasetTensor(self._objects)
        return self._tensor

    def index_of(self, oid: Hashable) -> int:
        """Dataset position of *oid* (the tensor row index)."""
        try:
            return self._index_of[oid]
        except KeyError:
            from repro.exceptions import UnknownObjectError

            raise UnknownObjectError(f"unknown object {oid!r}") from None

    def relevance_sets(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        exclude: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lemma-2 relevance sets of a batch of window groups, as CSR.

        Group ``g`` is the windows in row ``g`` of the ``(G, K, d)``
        bounds, NaN slots being padding (see
        :func:`~repro.index.packed.pack_window_groups`).  Returns
        ``(offsets, positions)``: ``positions[offsets[g]:offsets[g + 1]]``
        are the dataset positions of the objects whose MBR crosses some
        window of group ``g``, ascending, minus ``exclude[g]`` when given
        (the center of Eq. (2)'s ``P − {u}``).

        Ascending positions are the canonical Eq. (2) product order the
        bit-parity contracts depend on.  The index answers in positions;
        per block of groups it traverses together
        (:func:`~repro.index.packed.group_blocks`), one sort of
        ``(group, position)`` keys orders every group of the block, so
        the scratch is one block's hits.
        """
        index = self.packed
        n_groups, n = lo.shape[0], len(self._objects)
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp)
        counts: List[np.ndarray] = [np.zeros(1, dtype=np.intp)]
        rows: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        for start, stop in group_blocks(n_groups, lo.shape[1]):
            groups, positions = index.group_hits(
                lo[start:stop], hi[start:stop]
            )
            if exclude is not None:
                keep = positions != exclude[start:stop][groups]
                groups, positions = groups[keep], positions[keep]
            keys = np.sort(groups * n + positions)
            counts.append(np.bincount(keys // n, minlength=stop - start))
            rows.append(keys % n)
        return np.cumsum(np.concatenate(counts)), np.concatenate(rows)

    def window_positions(
        self,
        windows: Sequence[Rect],
        exclude: Optional[int] = None,
    ) -> np.ndarray:
        """Ascending positions of the objects whose MBR crosses a window.

        The one-group :meth:`relevance_sets`, minus the position
        *exclude*.
        """
        lo, hi = pack_window_groups([list(windows)], self.dims)
        centers = None if exclude is None else [exclude]
        return self.relevance_sets(lo, hi, exclude=centers)[1]

    def content_digest(self) -> str:
        """Content hash: type, dims, and every object's cached digest.

        The same function the engine's
        :func:`~repro.engine.session.dataset_fingerprint` uses as cache-key
        material.  Per-object digests are cached on the (immutable) objects
        and the combined digest is cached here, so after an incremental
        update only the changed objects are re-hashed — the re-combination
        touches 20 bytes per object instead of every sample byte.
        """
        if self._content_digest is None:
            hasher = hashlib.sha1()
            # Object digests are fixed-width (20 bytes), so one join is
            # unambiguous; the header pins type, dims and count.
            hasher.update(
                f"{type(self).__name__}:{self.dims}:{len(self._objects)}:".encode()
            )
            hasher.update(b"".join(obj.digest() for obj in self._objects))
            self._content_digest = hasher.hexdigest()
        return self._content_digest

    # ------------------------------------------------------------------
    # live updates (incremental: tensor and digest patched, index rebuilt)
    # ------------------------------------------------------------------
    def _check_new_object(self, obj: UncertainObject) -> None:
        if not isinstance(obj, UncertainObject):
            raise TypeError(
                f"expected an UncertainObject, got {type(obj).__name__}"
            )
        if obj.dims != self.dims:
            raise ValueError(
                f"object {obj.oid!r} has {obj.dims} dims, dataset has {self.dims}"
            )

    def insert_object(self, obj: UncertainObject) -> None:
        """Add *obj* at the end of the dataset order, in O(changed) work."""
        self._check_new_object(obj)
        if obj.oid in self._by_id:
            raise ValueError(f"duplicate object id {obj.oid!r}")
        self._insert_many((obj,))

    def delete_object(self, oid: Hashable) -> UncertainObject:
        """Remove the object with id *oid*; returns the removed object."""
        obj = self.get(oid)  # raises UnknownObjectError
        if len(self._objects) == 1:
            raise EmptyDatasetError(
                f"deleting {oid!r} would leave the dataset empty"
            )
        self._delete_many((oid,))
        return obj

    def update_object(self, obj: UncertainObject) -> UncertainObject:
        """Replace the object sharing ``obj.oid`` in place (same position).

        Returns the previous object.  Position in the dataset order — and
        therefore the canonical Eq. (2) product order — is preserved, so
        results stay bit-identical to a fresh dataset built with the
        replacement at the same index.
        """
        self._check_new_object(obj)
        old = self.get(obj.oid)  # raises UnknownObjectError
        self._update_many((obj,))
        return old

    # -- batch primitives (validated by the callers above / apply_delta) --
    def _insert_many(self, objects: Sequence[UncertainObject]) -> None:
        base = len(self._objects)
        self._objects.extend(objects)
        for offset, obj in enumerate(objects):
            self._by_id[obj.oid] = obj
            self._index_of[obj.oid] = base + offset
        if self._tensor is not None:
            self._tensor = self._tensor.with_inserted_rows(objects)
        self._packed = None  # packed afresh on next use
        self._content_digest = None

    def _delete_many(self, oids: Sequence[Hashable]) -> List[int]:
        """Remove *oids* in one pass; returns their (old) sorted positions."""
        positions = sorted(self._index_of[oid] for oid in oids)
        if self._tensor is not None:
            self._tensor = self._tensor.with_deleted_rows(positions)
        removed = set(oids)
        for oid in oids:
            del self._by_id[oid]
        self._objects = [o for o in self._objects if o.oid not in removed]
        self._index_of = {o.oid: i for i, o in enumerate(self._objects)}
        self._packed = None
        self._content_digest = None
        self._maybe_shrink_tensor()
        return positions

    def _update_many(self, objects: Sequence[UncertainObject]) -> List[int]:
        """Replace each object in place; returns the affected positions."""
        replacements = []
        for obj in objects:
            position = self._index_of[obj.oid]
            self._objects[position] = obj
            self._by_id[obj.oid] = obj
            replacements.append((position, obj))
        if self._tensor is not None:
            self._tensor = self._tensor.with_replaced_rows(replacements)
        self._packed = None
        self._content_digest = None
        self._maybe_shrink_tensor()
        return [position for position, _obj in replacements]

    def _maybe_shrink_tensor(self) -> None:
        """Re-pack the cached tensor when churn left it mostly padding.

        Deleting (or narrowing) the widest object never shrinks ``S_max``
        on the incremental path, so a transiently wide object would
        otherwise inflate every later kernel broadcast forever.  The 2x
        threshold keeps re-packs rare enough that alternating wide
        inserts/deletes cannot thrash.
        """
        tensor = self._tensor
        if tensor is None:
            return
        live = tensor.live_max_samples()
        if live and tensor.max_samples > 2 * live:
            self._tensor = tensor.narrowed(live)

    def apply_delta(self, delta: DatasetDelta) -> DatasetDelta:
        """Apply *delta* (deletes, then updates, then inserts) atomically.

        All ops are validated before the first mutation, so a bad delta
        leaves the dataset untouched instead of half-applied; each op
        group patches the tensor and the id maps in one batched pass, so
        a k-op delta pays one O(n) array copy per group, not k.
        """
        if not isinstance(delta, DatasetDelta):
            raise TypeError(
                f"expected a DatasetDelta, got {type(delta).__name__}"
            )
        for oid in delta.deletes:
            self.get(oid)
        if len(delta.deletes) >= len(self._objects):
            # Deletes run first, so this would transiently empty the
            # dataset even when the delta also inserts.
            raise EmptyDatasetError(
                "delta would delete every object; apply the inserts in a "
                "separate (earlier) delta"
            )
        for obj in delta.updates:
            self._check_new_object(obj)
            self.get(obj.oid)
        for obj in delta.inserts:
            self._check_new_object(obj)
            # delta ids are op-disjoint, so an existing id is a real dup
            if obj.oid in self._by_id:
                raise ValueError(f"duplicate object id {obj.oid!r}")
        if delta.deletes:
            self._delete_many(delta.deletes)
        if delta.updates:
            self._update_many(delta.updates)
        if delta.inserts:
            self._insert_many(delta.inserts)
        return delta

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects)

    def __contains__(self, oid: Hashable) -> bool:
        return oid in self._by_id

    def get(self, oid: Hashable) -> UncertainObject:
        try:
            return self._by_id[oid]
        except KeyError:
            from repro.exceptions import UnknownObjectError

            raise UnknownObjectError(f"unknown object {oid!r}") from None

    def ids(self) -> List[Hashable]:
        return [obj.oid for obj in self._objects]

    def objects(self) -> List[UncertainObject]:
        return list(self._objects)

    def others(self, oid: Hashable) -> List[UncertainObject]:
        """All objects except *oid* (the ``P - {u}`` of the definitions)."""
        return [obj for obj in self._objects if obj.oid != oid]

    def without(self, removed: Iterable[Hashable]) -> "UncertainDataset":
        """A new dataset with *removed* ids deleted (``P - Γ``).

        Used by tests and naive what-if baselines; the optimized algorithms
        never materialize removals — they evaluate restricted probabilities
        through :class:`repro.prsq.oracle.MembershipOracle` instead.

        Kept objects are shared with this dataset, so their cached MBRs
        and content digests are reused, and when this dataset's tensor is
        already built the reduced tensor is derived by vectorized row
        deletion (the delta fast path) instead of a per-object rebuild.
        """
        removed_set = set(removed)
        kept = [obj for obj in self._objects if obj.oid not in removed_set]
        reduced = UncertainDataset(kept, page_size=self.page_size)
        self._seed_reduced_tensor(reduced, removed_set)
        return reduced

    def _seed_reduced_tensor(
        self, reduced: "UncertainDataset", removed_set: set
    ) -> None:
        """Pre-seed a ``P - Γ`` dataset's tensor from this one, if built."""
        if self._tensor is not None and len(reduced) > 0:
            positions = [
                self._index_of[oid]
                for oid in removed_set
                if oid in self._index_of
            ]
            reduced._tensor = self._tensor.with_deleted_rows(positions)

    # ------------------------------------------------------------------
    # snapshot isolation (the serve layer's read path)
    # ------------------------------------------------------------------
    def _clone_shell(
        self,
        objects: List[UncertainObject],
        by_id: Dict[Hashable, UncertainObject],
        index_of: Dict[Hashable, int],
    ) -> "UncertainDataset":
        """A dataset shell around pre-validated contents (no re-checking)."""
        clone = type(self).__new__(type(self))
        clone._objects = objects
        clone._by_id = by_id
        clone._index_of = index_of
        clone.dims = self.dims
        clone.page_size = self.page_size
        clone._packed = None
        clone._access_stats = AccessStats()
        clone._tensor = None
        clone._content_digest = None
        return clone

    def snapshot(self) -> "UncertainDataset":
        """An immutable read snapshot, decoupled from future mutations.

        The snapshot shares everything immutable — the objects (with their
        cached MBRs and digests), the sample tensor, the packed-index
        arrays, the combined content digest — but owns fresh id maps and
        access counters, so :meth:`apply_delta` on *this* dataset can
        never be observed by a query already running against the snapshot.
        Cost is O(n) pointer copies plus, after a write, one STR pack of
        the index from the patched tensor's boxes; no sample bytes move.
        """
        clone = self._clone_shell(
            list(self._objects), dict(self._by_id), dict(self._index_of)
        )
        clone._packed = self.packed.with_stats(clone._access_stats)
        clone._tensor = self._tensor
        clone._content_digest = self.content_digest()
        return clone

    def view(self) -> "UncertainDataset":
        """An O(1) per-reader view over this (already immutable) snapshot.

        Shares the id maps, object list, tensor, digest and packed arrays
        by reference; only the :class:`AccessStats` counter (and the
        packed view recording into it) is private, so concurrent readers
        of one published snapshot measure their own node accesses.  Only
        meaningful on a dataset that is no longer mutated — views share
        the maps that :meth:`apply_delta` would patch; take views of
        :meth:`snapshot` results, not of the live dataset.
        """
        clone = self._clone_shell(self._objects, self._by_id, self._index_of)
        clone._tensor = self._tensor
        clone._content_digest = self._content_digest
        if self._packed is not None:
            clone._packed = self._packed.with_stats(clone._access_stats)
        return clone

    def max_samples(self) -> int:
        return max(obj.num_samples for obj in self._objects)

    def __repr__(self) -> str:
        return (
            f"<UncertainDataset n={len(self._objects)} dims={self.dims} "
            f"max_samples={self.max_samples()}>"
        )


class CertainDataset(UncertainDataset):
    """A dataset of certain points (Section 4), stored as 1-sample objects."""

    def __init__(
        self,
        points: Sequence[PointLike] | np.ndarray,
        ids: Optional[Sequence[Hashable]] = None,
        names: Optional[Sequence[str]] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        matrix = as_point_matrix(points)
        if ids is None:
            ids = list(range(matrix.shape[0]))
        if len(ids) != matrix.shape[0]:
            raise ValueError(
                f"{matrix.shape[0]} points but {len(ids)} ids supplied"
            )
        objects = []
        for i, oid in enumerate(ids):
            name = names[i] if names is not None else None
            objects.append(UncertainObject.certain(oid, matrix[i], name=name))
        super().__init__(objects, page_size=page_size)
        # frozen: snapshots and worker handoffs share this matrix by
        # reference, so an in-place write would corrupt every reader
        matrix.flags.writeable = False
        self.points = matrix

    @classmethod
    def from_objects(
        cls,
        objects: Sequence[UncertainObject],
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "CertainDataset":
        """A certain dataset over existing 1-sample objects, shared not copied.

        The objects (and their cached MBRs/digests) are reused as-is; only
        the ``points`` matrix is materialized.  This is what keeps
        :meth:`without` and the delta path from re-validating and
        re-hashing every surviving object.
        """
        dataset = cls.__new__(cls)
        UncertainDataset.__init__(dataset, objects, page_size=page_size)
        for obj in dataset._objects:
            if not obj.is_certain:
                raise ValueError(
                    f"object {obj.oid!r} has {obj.num_samples} samples; "
                    "certain datasets need single-sample objects"
                )
        points = np.vstack([obj.samples[0] for obj in dataset._objects])
        points.flags.writeable = False
        dataset.points = points
        return dataset

    def point_of(self, oid: Hashable) -> np.ndarray:
        return self.get(oid).samples[0]

    def without(self, removed: Iterable[Hashable]) -> "CertainDataset":
        """A new certain dataset with *removed* ids deleted (``P - Γ``).

        Surviving objects are shared (cached MBRs and digests included)
        and ``page_size`` propagates, matching the uncertain variant.
        """
        removed_set = set(removed)
        kept = [obj for obj in self._objects if obj.oid not in removed_set]
        reduced = CertainDataset.from_objects(kept, page_size=self.page_size)
        self._seed_reduced_tensor(reduced, removed_set)
        return reduced

    def _clone_shell(
        self,
        objects: List[UncertainObject],
        by_id: Dict[Hashable, UncertainObject],
        index_of: Dict[Hashable, int],
    ) -> "CertainDataset":
        # Every mutation path replaces ``points`` wholesale (concatenate/
        # delete/copy), never in place, so sharing the matrix is safe.
        clone = super()._clone_shell(objects, by_id, index_of)
        clone.points = self.points
        return clone

    # ------------------------------------------------------------------
    # live updates: keep the dense ``points`` matrix in sync
    # ------------------------------------------------------------------
    def _check_new_object(self, obj: UncertainObject) -> None:
        super()._check_new_object(obj)
        if not obj.is_certain:
            raise ValueError(
                f"object {obj.oid!r} has {obj.num_samples} samples; "
                "certain datasets need single-sample objects"
            )

    def _replace_points(self, points: np.ndarray) -> None:
        # every mutation swaps the matrix wholesale and re-freezes it, so
        # snapshots holding the previous matrix stay untouched
        points.flags.writeable = False
        self.points = points

    def _insert_many(self, objects: Sequence[UncertainObject]) -> None:
        super()._insert_many(objects)
        self._replace_points(np.concatenate(
            [self.points] + [obj.samples[:1] for obj in objects]
        ))

    def _delete_many(self, oids: Sequence[Hashable]) -> List[int]:
        positions = super()._delete_many(oids)
        self._replace_points(np.delete(self.points, positions, axis=0))
        return positions

    def _update_many(self, objects: Sequence[UncertainObject]) -> List[int]:
        positions = super()._update_many(objects)
        points = self.points.copy()
        for position, obj in zip(positions, objects):
            points[position] = obj.samples[0]
        self._replace_points(points)
        return positions
