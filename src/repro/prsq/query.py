"""Probabilistic reverse skyline query processing (Definition 4).

Implements the Lian & Chen query the paper builds on: return every
uncertain object whose probability of being a reverse skyline object of
``q`` is at least ``alpha``.

:func:`prsq_probability_map` first proves most objects' ``Pr(u)``
exactly ``+0.0`` with a Lemma-4 pre-pass, then filters and evaluates
only the rest.  Its :class:`ProbabilityMap` stores only those computed
rows, and a threshold's non-answers are a :class:`NonAnswerIds` view over
the map's ids, so neither holds one entry per object.
"""

from __future__ import annotations

import itertools
from collections.abc import ItemsView, Mapping, Sequence
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.dominance import dominance_bounds
from repro.geometry.point import PointLike, as_point
from repro.obs import span as _span
from repro.prsq.probability import reverse_skyline_probability
from repro.uncertain.dataset import UncertainDataset


class ProbabilityMap(Mapping):
    """Read-only ``{object id: Pr(u)}`` that stores only its computed rows.

    A PRSQ map proves almost every object's ``Pr(u)`` to be ``+0.0``
    before computing anything (:func:`prsq_probability_map`), and the
    engine caches one map per query point.  This map keeps the ids by
    reference (a dataset tensor's id list, shared by every map of one
    dataset version) and, as two arrays, the positions and values of the
    rows it computed, ascending; every other id reads ``+0.0``.  Values
    are boxed only when read.  Iteration follows the id order and
    equality is a mapping's, so it compares equal to the dict it
    replaces.  The id index that lookups need is built on the first
    lookup and kept; ``dict(m.items())`` copies without one,
    ``dict(m)`` looks every id up.
    """

    __slots__ = ("_ids", "_rows", "_values", "_index")

    def __init__(self, ids: Sequence[Hashable], values: np.ndarray):
        """One value per id; keeps the rows whose bits are not ``+0.0``."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (len(ids),):
            raise ValueError(
                f"{len(ids)} ids but values of shape {values.shape}"
            )
        rows = np.flatnonzero(values.view(np.int64))
        self._set(ids, rows, values[rows])

    @classmethod
    def from_rows(
        cls, ids: Sequence[Hashable], rows: np.ndarray, values: np.ndarray
    ) -> "ProbabilityMap":
        """A map whose ascending *rows* hold *values*, every other ``+0.0``.

        Takes the arrays over: they are frozen, not copied.
        """
        probabilities = cls.__new__(cls)
        probabilities._set(
            ids,
            np.asarray(rows, dtype=np.intp),
            np.asarray(values, dtype=np.float64),
        )
        return probabilities

    def _set(
        self, ids: Sequence[Hashable], rows: np.ndarray, values: np.ndarray
    ) -> None:
        if rows.shape != values.shape:
            raise ValueError(
                f"{rows.shape[0]} rows but values of shape {values.shape}"
            )
        rows.flags.writeable = False
        values.flags.writeable = False
        self._ids = ids
        self._rows = rows
        self._values = values
        self._index: Optional[Dict[Hashable, int]] = None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._ids)

    def __getitem__(self, oid: Hashable) -> float:
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self._ids)}
        row = self._index[oid]
        k = int(np.searchsorted(self._rows, row))
        if k < self._rows.size and self._rows[k] == row:
            return float(self._values[k])
        return 0.0

    def items(self) -> ItemsView:
        return _Items(self)

    def answers(self, alpha: float) -> List[Hashable]:
        """Ids with ``Pr(u) >= alpha``, in id order (the PRSQ answer set)."""
        _check_alpha(alpha)
        return [self._ids[row] for row in self._answer_rows(alpha)]

    def non_answers(self, alpha: float) -> "NonAnswerIds":
        """Ids with ``Pr(u) < alpha``, in id order, as a view."""
        _check_alpha(alpha)
        return NonAnswerIds(self._ids, self._answer_rows(alpha))

    def _answer_rows(self, alpha: float) -> List[int]:
        # alpha > 0, so no +0.0 row the map did not store can qualify
        return self._rows[self._values >= alpha].tolist()

    def _dense(self) -> List[float]:
        values = [0.0] * len(self._ids)
        for row, value in zip(self._rows.tolist(), self._values.tolist()):
            values[row] = value
        return values

    def __repr__(self) -> str:
        return f"ProbabilityMap({dict(self.items())!r})"

    def __reduce__(self):
        return ProbabilityMap.from_rows, (
            list(self._ids), np.array(self._rows), np.array(self._values),
        )


class _Items(ItemsView):
    """Items straight from the id list and the rows: no id lookups."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping._ids, self._mapping._dense())


class NonAnswerIds(Sequence):
    """Immutable ids of a map's non-answers: every id but the answer rows.

    A threshold leaves out a handful of objects, so instead of one
    reference per object this view keeps the map's id list by reference
    and the ascending answer positions.  It iterates as list slices
    between those positions, and compares equal to (and hashes like) the
    tuple or list of the same ids in the same order.  Indexing copies
    the ids once; iterate instead.
    """

    __slots__ = ("_ids", "_skip")

    def __init__(self, ids: Sequence[Hashable], skip: Sequence[int]):
        self._ids = ids
        self._skip = tuple(skip)

    def __len__(self) -> int:
        return len(self._ids) - len(self._skip)

    def __iter__(self) -> Iterator[Hashable]:
        parts, start = [], 0
        for stop in self._skip:
            parts.append(self._ids[start:stop])
            start = stop + 1
        parts.append(self._ids[start:])
        return itertools.chain.from_iterable(parts)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, NonAnswerIds)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        if isinstance(other, list):
            return len(self) == len(other) and list(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"NonAnswerIds({tuple(self)!r})"

    def __reduce__(self):
        return NonAnswerIds, (list(self._ids), self._skip)


def prsq_probabilities(
    dataset: UncertainDataset,
    q: PointLike,
) -> Dict[Hashable, float]:
    """``Pr(u)`` for every object in the dataset, as a plain dict.

    The dict form of :func:`prsq_probability_map`.
    """
    return dict(prsq_probability_map(dataset, q).items())


def prsq_probability_map(
    dataset: UncertainDataset,
    q: PointLike,
) -> ProbabilityMap:
    """``Pr(u)`` for every object in the dataset, in dataset order.

    Step 0 is the Lemma-4 pre-pass
    (:func:`~repro.engine.kernels.certainly_dominated` over the tensor's
    :meth:`~repro.uncertain.tensor.DatasetTensor.boxes`): a center each
    of whose real samples has a certain dominator — another object all
    of whose samples dominate ``q`` w.r.t. that sample, and whose
    probabilities sum to exactly ``1.0`` — has a survival factor of
    exactly ``+0.0`` in every product of Eq. (2).  Its ``Pr(u)`` is
    ``+0.0``, which the map stores by leaving its row out; a negative
    factor elsewhere in a product only turns that sample's term into
    ``-0.0``, and the ``+0.0`` total absorbs it.

    Only the remaining centers are computed.  The Lemma-2 filter for all
    of them runs as one grouped multi-window traversal of the packed
    R-tree (:meth:`~repro.uncertain.dataset.UncertainDataset.relevance_sets`),
    and Eq. (3)/(2) for all of them as one segmented kernel over the
    resulting CSR relevance sets, instead of one scan and one evaluation
    per object; result bits are identical to a per-object
    :func:`reverse_skyline_probability` loop.  Center ``g``'s dominance
    rectangles are row ``g`` of the tensor-shaped window bounds (NaN
    where the tensor pads), so its relevance set is CSR segment ``g``,
    its own row excluded.
    """
    from repro.engine.kernels import certainly_dominated, eq2_segmented

    qq = as_point(q, dims=dataset.dims)
    tensor = dataset.tensor
    with _span("filter", mode="grouped-windows", objects=tensor.n) as sp:
        lo, hi, sums_to_one = tensor.boxes()
        owners, slots = np.nonzero(tensor.mask)
        blocked = np.ones(tensor.mask.shape, dtype=bool)
        blocked[owners, slots] = certainly_dominated(
            lo, hi, sums_to_one, tensor.samples[owners, slots], owners, qq
        )
        centers = np.flatnonzero(~blocked.all(axis=1))
        sp.set(pruned=tensor.n - centers.size)
        samples, mask = tensor.samples[centers], tensor.mask[centers]
        window_lo = np.full(samples.shape, np.nan)
        window_hi = np.full(samples.shape, np.nan)
        window_lo[mask], window_hi[mask] = dominance_bounds(samples[mask], qq)
        offsets, rows = dataset.relevance_sets(
            window_lo, window_hi, exclude=centers
        )
    with _span("probability", mode="segmented-eq2", objects=centers.size):
        values = eq2_segmented(
            tensor.samples, tensor.probabilities, tensor.mask,
            centers, offsets, rows, qq,
        )
    return ProbabilityMap.from_rows(tensor.ids, centers, values)


def _check_alpha(alpha: float) -> None:
    """Reject a threshold outside Definition 4's ``(0, 1]`` (NaN too)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def probabilistic_reverse_skyline(
    dataset: UncertainDataset,
    q: PointLike,
    alpha: float,
) -> List[Hashable]:
    """Object ids whose ``Pr(u) >= alpha`` (the PRSQ answer set)."""
    _check_alpha(alpha)
    return prsq_probability_map(dataset, q).answers(alpha)


def prsq_non_answers(
    dataset: UncertainDataset,
    q: PointLike,
    alpha: float,
) -> List[Hashable]:
    """Object ids that are *non-answers* (the CRP inputs)."""
    _check_alpha(alpha)
    return list(prsq_probability_map(dataset, q).non_answers(alpha))


def is_prsq_answer(
    dataset: UncertainDataset,
    oid: Hashable,
    q: PointLike,
    alpha: float,
) -> Tuple[bool, float]:
    """Membership plus the underlying probability for one object."""
    _check_alpha(alpha)
    pr = reverse_skyline_probability(dataset, oid, q)
    return pr >= alpha, pr
