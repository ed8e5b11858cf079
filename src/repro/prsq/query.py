"""Probabilistic reverse skyline query processing (Definition 4).

Implements the Lian & Chen query the paper builds on: return every
uncertain object whose probability of being a reverse skyline object of
``q`` is at least ``alpha``.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.dominance import dominance_bounds
from repro.geometry.point import PointLike, as_point
from repro.obs import span as _span
from repro.prsq.probability import reverse_skyline_probability
from repro.uncertain.dataset import UncertainDataset


class ProbabilityMap(Mapping):
    """Read-only ``{object id: Pr(u)}`` backed by one float64 array.

    As a dict, a PRSQ probability map costs a hash table plus one boxed
    float per object, about 60 bytes an object, and the engine caches one
    map per query point.  This map keeps the ids by reference (a dataset
    tensor's id list, shared by every map of one dataset version) and
    the values as an array, 8 bytes an object, boxed only when read.
    Iteration follows the id order and equality is a mapping's, so it
    compares equal to the dict it replaces.  The id index that lookups
    need is built on the first lookup and kept; ``dict(m.items())``
    copies without one, ``dict(m)`` looks every id up.
    """

    __slots__ = ("_ids", "_values", "_index")

    def __init__(self, ids: Sequence[Hashable], values: np.ndarray):
        # takes the array over: a float64 array is frozen, not copied
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(ids),):
            raise ValueError(
                f"{len(ids)} ids but values of shape {values.shape}"
            )
        values.flags.writeable = False
        self._ids = ids
        self._values = values
        self._index: Optional[Dict[Hashable, int]] = None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._ids)

    def __getitem__(self, oid: Hashable) -> float:
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self._ids)}
        return float(self._values[self._index[oid]])

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"ProbabilityMap({dict(self.items())!r})"

    def __reduce__(self):
        return ProbabilityMap, (list(self._ids), np.array(self._values))


class _Items(ItemsView):
    """Items straight from the id list and the array: no id lookups."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping._ids, self._mapping._values.tolist())


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

    The Lemma-2 filter for *all* objects runs as one grouped multi-window
    traversal of the packed R-tree
    (:meth:`~repro.uncertain.dataset.UncertainDataset.relevance_sets`),
    and Eq. (3)/(2) for all of them as one segmented kernel over the
    resulting CSR relevance sets, instead of one scan and one evaluation
    per object; hit sets, node accesses and result bits are identical to
    a per-object :func:`reverse_skyline_probability` loop.

    Object ``i``'s dominance rectangles are row ``i`` of the tensor-shaped
    window bounds (NaN where the tensor pads), so the relevance set of
    tensor row ``i`` is CSR segment ``i``, its own row excluded.
    """
    from repro.engine.kernels import eq2_segmented

    qq = as_point(q, dims=dataset.dims)
    tensor = dataset.tensor
    centers = np.arange(tensor.n)
    with _span("filter", mode="grouped-windows", objects=tensor.n):
        lo = np.full(tensor.samples.shape, np.nan)
        hi = np.full(tensor.samples.shape, np.nan)
        lo[tensor.mask], hi[tensor.mask] = dominance_bounds(
            tensor.samples[tensor.mask], qq
        )
        offsets, rows = dataset.relevance_sets(lo, hi, exclude=centers)
    with _span("probability", mode="segmented-eq2", objects=tensor.n):
        values = eq2_segmented(
            tensor.samples, tensor.probabilities, tensor.mask,
            centers, offsets, rows, qq,
        )
    return ProbabilityMap(tensor.ids, values)


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
    probabilities = prsq_probability_map(dataset, q)
    return [oid for oid, pr in probabilities.items() if pr >= alpha]


def prsq_non_answers(
    dataset: UncertainDataset,
    q: PointLike,
    alpha: float,
) -> List[Hashable]:
    """Object ids that are *non-answers* (the CRP inputs)."""
    _check_alpha(alpha)
    probabilities = prsq_probability_map(dataset, q)
    return [oid for oid, pr in probabilities.items() if pr < alpha]


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
