"""Fast PRSQ membership oracle for contingency-set verification.

Algorithm CP (and every baseline) must answer thousands of queries of the
form *"is ``an`` an answer to the PRSQ over ``P − Γ`` (optionally also
minus one cause)?"* while it enumerates candidate contingency sets.
Re-running Eq. (2) from scratch each time would re-scan the dataset; the
oracle instead precomputes the Eq. (3) dominance-probability matrix once —
only candidate causes have non-zero rows (Lemma 1/3) — and then evaluates
any restriction in :math:`O(|C_c| \\cdot l_{an})` numpy work with
memoization on the removed-set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional

import numpy as np

from repro.geometry.point import PointLike, as_point
from repro.prsq.probability import relevant_indices
from repro.prsq.query import _check_alpha
from repro.uncertain.dataset import UncertainDataset


class MembershipOracle:
    """Answers ``(P − removed) ⊨ PRSQ(an)`` queries against a fixed dataset.

    Parameters
    ----------
    dataset, an_oid, q, alpha:
        The CR2PRSQ instance.
    relevant_ids:
        Object ids that may influence ``Pr(an)`` (the candidate causes from
        the filter step).  When omitted, the pool is
        :func:`~repro.prsq.probability.relevant_indices`, one Lemma-2
        multi-window scan of the dataset's spatial index — exact, because
        an object outside every dominance rectangle has an
        identically-zero Eq. (3) vector.  Zero rows are dropped, so the
        oracle's answers equal those over every other object.
    """

    def __init__(
        self,
        dataset: UncertainDataset,
        an_oid: Hashable,
        q: PointLike,
        alpha: float,
        relevant_ids: Optional[Iterable[Hashable]] = None,
    ):
        _check_alpha(alpha)
        self.dataset = dataset
        self.an = dataset.get(an_oid)
        self.q = as_point(q, dims=dataset.dims)
        self.alpha = alpha

        if relevant_ids is None:
            indices = relevant_indices(dataset, an_oid, self.q)
        else:
            indices = sorted(
                {dataset.index_of(oid) for oid in relevant_ids}
                - {dataset.index_of(an_oid)}
            )
        matrix = self._build_matrix(indices)

        # Stack non-zero rows into one (k, l) survival matrix for vector math.
        self.influencer_ids: List[Hashable] = sorted(matrix, key=repr)
        self._row_of: Dict[Hashable, int] = {
            oid: i for i, oid in enumerate(self.influencer_ids)
        }
        if self.influencer_ids:
            self._survival = np.vstack(
                [1.0 - matrix[oid] for oid in self.influencer_ids]
            )
        else:
            self._survival = np.zeros((0, self.an.num_samples))
        self._cache: Dict[FrozenSet[Hashable], float] = {}
        self.evaluations = 0

    def _build_matrix(self, indices: List[int]) -> Dict[Hashable, np.ndarray]:
        """Non-zero Eq. (3) vectors for the pool at dataset positions *indices*.

        The whole pool is evaluated in one chunked broadcast
        (:func:`repro.engine.kernels.eq3_dominance_tensor`), bit-identical
        to the per-dominator reference
        :func:`~repro.prsq.probability.dominance_probability_matrix`.
        """
        from repro.engine.kernels import eq3_dominance_tensor

        tensor = self.dataset.tensor
        samples, probabilities, mask = tensor.rows(indices)
        eq3 = eq3_dominance_tensor(
            self.an.samples, samples, probabilities, mask, self.q
        )
        return {
            tensor.ids[i]: eq3[j] for j, i in enumerate(indices) if eq3[j].any()
        }

    # ------------------------------------------------------------------
    @property
    def an_oid(self) -> Hashable:
        return self.an.oid

    def influences(self, oid: Hashable) -> bool:
        """Does *oid* have a non-zero Eq. (3) vector against ``an``?"""
        return oid in self._row_of

    def survival_row(self, oid: Hashable) -> np.ndarray:
        """Per-sample survival ``1 - Eq3(oid)`` (ones for non-influencers)."""
        row = self._row_of.get(oid)
        if row is None:
            return np.ones(self.an.num_samples)
        return self._survival[row]

    def max_survival(self, oid: Hashable) -> float:
        """``max_i (1 - Eq3_i)`` — the largest per-sample survival factor.

        ``Pr(an)`` over any restriction that keeps *oid* is at most the
        product of the kept objects' max survivals (each world term is),
        which is the size-level pruning bound used by FMCS.
        """
        return float(self.survival_row(oid).max())

    def certain_blockers(self) -> List[Hashable]:
        """Objects whose Eq. (3) vector is identically 1 (Lemma 4's ``Γ₁``).

        While any of them remains, ``Pr(an) = 0``, so each must belong to
        every qualifying contingency set.
        """
        return [
            oid
            for oid in self.influencer_ids
            if bool(np.all(self._survival[self._row_of[oid]] == 0.0))
        ]

    # ------------------------------------------------------------------
    def probability(self, removed: Iterable[Hashable] = ()) -> float:
        """``Pr(an)`` over ``P − removed`` (Eq. (2))."""
        key = frozenset(removed) & frozenset(self._row_of)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self.evaluations += 1
        if len(key) == 0:
            survival = self._survival
        else:
            keep_rows = [
                i for oid, i in self._row_of.items() if oid not in key
            ]
            survival = self._survival[keep_rows]
        per_sample = survival.prod(axis=0) if survival.shape[0] else np.ones(
            self.an.num_samples
        )
        value = float(np.dot(self.an.probabilities, per_sample))
        self._cache[key] = value
        return value

    def is_answer(self, removed: Iterable[Hashable] = ()) -> bool:
        """``(P − removed) ⊨ PRSQ(an)``?"""
        return self.probability(removed) >= self.alpha

    def is_non_answer(self, removed: Iterable[Hashable] = ()) -> bool:
        """``(P − removed) ⊭ PRSQ(an)``?"""
        return not self.is_answer(removed)

    def is_contingency_set(
        self, gamma: Iterable[Hashable], cause: Hashable
    ) -> bool:
        """Definition 1(ii): ``(P−Γ) ⊭ PRSQ(an)`` and ``(P−Γ−{cause}) ⊨ PRSQ(an)``."""
        gamma_set = frozenset(gamma)
        if cause in gamma_set or cause == self.an.oid:
            raise ValueError("the cause may appear in neither Γ nor be an itself")
        return self.is_non_answer(gamma_set) and self.is_answer(
            gamma_set | {cause}
        )

    def validate_non_answer(self) -> None:
        """Raise unless ``an`` really is a non-answer over the full dataset."""
        from repro.exceptions import NotANonAnswerError

        pr = self.probability()
        if pr >= self.alpha:
            raise NotANonAnswerError(
                f"object {self.an.oid!r} has Pr={pr:.6f} >= alpha={self.alpha}; "
                "it is an answer, not a non-answer"
            )
