"""Padded tensor view of an uncertain dataset (the Eq. (2)/(3) layout).

The exact-probability kernels in :mod:`repro.engine.kernels` evaluate the
Eq. (3) dominance-probability matrix for one center against *all* relevant
objects in a single broadcast.  That requires the ragged per-object sample
lists to live in one rectangular array, so a :class:`DatasetTensor` packs
the dataset into

* ``samples`` — ``(n, S_max, d)`` float64, object ``i``'s samples in rows
  ``samples[i, :l_i]``, zero-padded beyond;
* ``probabilities`` — ``(n, S_max)`` float64 appearance probabilities,
  zero-padded (a padded slot therefore contributes an exact ``+0.0`` to
  any Eq. (3) sum — a floating-point no-op);
* ``mask`` — ``(n, S_max)`` bool validity mask (``True`` for real samples).

Row order is dataset order, which is the canonical Eq. (2) product order
used by both the tensor kernels and the scalar reference.  The tensor is
built lazily by :attr:`repro.uncertain.dataset.UncertainDataset.tensor`
and cached for the dataset's lifetime — sound because
:class:`~repro.uncertain.object.UncertainObject` arrays are immutable.

Each row's box — the exact min and max over its real samples — and
whether its probabilities, added left to right from ``+0.0`` as the
Eq. (3) kernel adds them, come to exactly ``1.0`` are computed on the
first :meth:`~DatasetTensor.boxes` call and kept with the tensor: the
Lemma-4 pre-pass of :func:`repro.prsq.query.prsq_probability_map` reads
them on every query.

Live updates never mutate a tensor in place (query code may still hold a
reference): :meth:`~DatasetTensor.with_inserted_rows`,
:meth:`~DatasetTensor.with_deleted_rows` and
:meth:`~DatasetTensor.with_replaced_rows` derive a patched tensor in one
O(n) array copy per batch — re-padding only when a new object's sample
count grows ``S_max`` — which is how a change avoids the per-object
rebuild loop.  A patched tensor computes its boxes afresh on first use.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.uncertain.object import UncertainObject


class DatasetTensor:
    """Rectangular (padded + masked) arrays over one object sequence."""

    __slots__ = (
        "samples", "probabilities", "mask", "ids", "index_of", "_boxes",
    )

    def __init__(self, objects: Sequence[UncertainObject]):
        n = len(objects)
        if n == 0:
            raise ValueError("cannot build a tensor over zero objects")
        dims = objects[0].dims
        s_max = max(obj.num_samples for obj in objects)
        samples = np.zeros((n, s_max, dims), dtype=np.float64)
        probabilities = np.zeros((n, s_max), dtype=np.float64)
        mask = np.zeros((n, s_max), dtype=bool)
        for i, obj in enumerate(objects):
            l = obj.num_samples
            samples[i, :l] = obj.samples
            probabilities[i, :l] = obj.probabilities
            mask[i, :l] = True
        for array in (samples, probabilities, mask):
            array.flags.writeable = False
        self.samples = samples
        self.probabilities = probabilities
        self.mask = mask
        self.ids: List[Hashable] = [obj.oid for obj in objects]
        self.index_of: Dict[Hashable, int] = {
            oid: i for i, oid in enumerate(self.ids)
        }
        self._boxes = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def max_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def dims(self) -> int:
        return self.samples.shape[2]

    def boxes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, sums_to_one)``: each row's box and full-sum flag.

        ``lo`` / ``hi`` are ``(n, d)``, the exact min and max over the
        row's real samples; ``sums_to_one`` is ``(n,)``, whether the row's
        probabilities added in slot order from ``+0.0`` (the sum an Eq. (3)
        entry reaches when every slot dominates) equal ``1.0`` exactly.
        Computed on the first call, then kept for the tensor's lifetime.
        """
        if self._boxes is None:
            from repro.engine.kernels import masked_ordered_sum

            real = self.mask[:, :, np.newaxis]
            boxes = (
                np.where(real, self.samples, np.inf).min(axis=1),
                np.where(real, self.samples, -np.inf).max(axis=1),
                masked_ordered_sum(self.probabilities, self.mask) == 1.0,
            )
            for array in boxes:
                array.flags.writeable = False
            self._boxes = boxes
        return self._boxes

    # ------------------------------------------------------------------
    # derived (patched) tensors — the incremental-update fast path
    # ------------------------------------------------------------------
    @classmethod
    def _from_parts(
        cls,
        samples: np.ndarray,
        probabilities: np.ndarray,
        mask: np.ndarray,
        ids: List[Hashable],
    ) -> "DatasetTensor":
        tensor = cls.__new__(cls)
        for array in (samples, probabilities, mask):
            array.flags.writeable = False
        tensor.samples = samples
        tensor.probabilities = probabilities
        tensor.mask = mask
        tensor.ids = ids
        tensor.index_of = {oid: i for i, oid in enumerate(ids)}
        tensor._boxes = None
        return tensor

    # ------------------------------------------------------------------
    # pickling (worker handoff): re-freeze the restored arrays; the boxes
    # are not sent, a worker computes its own on first use
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_boxes"
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._boxes = None
        # unpickled arrays come back writable; a worker's copy must keep
        # the same read-only contract as the tensor it was cloned from
        for array in (self.samples, self.probabilities, self.mask):
            array.flags.writeable = False

    def _padded_to(self, s_max: int):
        """Writable copies of the arrays, widened to *s_max* slots."""
        n, old, d = self.samples.shape
        grow = s_max - old
        if grow <= 0:
            return (
                self.samples.copy(),
                self.probabilities.copy(),
                self.mask.copy(),
            )
        samples = np.concatenate(
            [self.samples, np.zeros((n, grow, d))], axis=1
        )
        probabilities = np.concatenate(
            [self.probabilities, np.zeros((n, grow))], axis=1
        )
        mask = np.concatenate(
            [self.mask, np.zeros((n, grow), dtype=bool)], axis=1
        )
        return samples, probabilities, mask

    def with_inserted_rows(
        self, objects: Sequence[UncertainObject]
    ) -> "DatasetTensor":
        """A new tensor with *objects* appended, in order, as one copy."""
        n, old_s, d = self.samples.shape
        k = len(objects)
        s_max = max(old_s, max(obj.num_samples for obj in objects))
        # allocate the final arrays once, fill by slice — one O(n) copy
        # for the whole batch, re-padding only when S_max grows
        samples = np.zeros((n + k, s_max, d))
        probabilities = np.zeros((n + k, s_max))
        mask = np.zeros((n + k, s_max), dtype=bool)
        samples[:n, :old_s] = self.samples
        probabilities[:n, :old_s] = self.probabilities
        mask[:n, :old_s] = self.mask
        for offset, obj in enumerate(objects):
            l = obj.num_samples
            samples[n + offset, :l] = obj.samples
            probabilities[n + offset, :l] = obj.probabilities
            mask[n + offset, :l] = True
        return DatasetTensor._from_parts(
            samples, probabilities, mask,
            self.ids + [obj.oid for obj in objects],
        )

    def with_replaced_rows(
        self, replacements: Sequence[Tuple[int, UncertainObject]]
    ) -> "DatasetTensor":
        """A new tensor with every ``(position, object)`` row replaced.

        One O(n) copy covers the whole batch, so a k-update delta costs
        O(n + k·S_max) instead of k full-array copies.
        """
        s_max = max(
            self.max_samples,
            max(obj.num_samples for _pos, obj in replacements),
        )
        samples, probabilities, mask = self._padded_to(s_max)
        ids = list(self.ids)
        for position, obj in replacements:
            l = obj.num_samples
            samples[position] = 0.0
            probabilities[position] = 0.0
            mask[position] = False
            samples[position, :l] = obj.samples
            probabilities[position, :l] = obj.probabilities
            mask[position, :l] = True
            ids[position] = obj.oid
        return DatasetTensor._from_parts(samples, probabilities, mask, ids)

    def with_deleted_rows(self, positions: Sequence[int]) -> "DatasetTensor":
        """A new tensor with all *positions* removed (``P - Γ`` in one shot).

        ``S_max`` is kept even if a deleted object was the widest: the
        padding stays masked out, so every kernel result is unchanged and
        no O(n) re-pack is needed.
        """
        dropped = set(positions)
        idx = np.asarray(sorted(dropped), dtype=np.intp)
        keep = [oid for i, oid in enumerate(self.ids) if i not in dropped]
        return DatasetTensor._from_parts(
            np.delete(self.samples, idx, axis=0),
            np.delete(self.probabilities, idx, axis=0),
            np.delete(self.mask, idx, axis=0),
            keep,
        )

    def narrowed(self, s_max: int) -> "DatasetTensor":
        """A copy with the sample axis cut to *s_max* slots.

        Only valid when every live sample fits (``s_max >=`` the widest
        row's count); :meth:`live_max_samples` reports that bound.  Used
        to re-pack after churn so one transiently wide object does not
        inflate every later kernel broadcast forever.
        """
        return DatasetTensor._from_parts(
            self.samples[:, :s_max].copy(),
            self.probabilities[:, :s_max].copy(),
            self.mask[:, :s_max].copy(),
            list(self.ids),
        )

    def live_max_samples(self) -> int:
        """Widest live row (mask rows are prefix-packed, so sum = count)."""
        return int(self.mask.sum(axis=1).max())

    def rows(self, indices: Sequence[int]):
        """``(samples, probabilities, mask)`` gathered for *indices*.

        The gather preserves the given index order — callers pass sorted
        dataset positions so the Eq. (2) product order is canonical.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return self.samples[idx], self.probabilities[idx], self.mask[idx]

    def __repr__(self) -> str:
        return (
            f"<DatasetTensor n={self.n} max_samples={self.max_samples} "
            f"dims={self.dims}>"
        )
