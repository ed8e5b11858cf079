"""Probabilistic reverse skyline queries (Lian & Chen substrate)."""

from repro.prsq.montecarlo import (
    ProbabilityEstimate,
    sample_reverse_skyline_probability,
)
from repro.prsq.oracle import MembershipOracle
from repro.prsq.probability import (
    dominance_probability_matrix,
    dominance_probability_vector,
    probability_from_matrix,
    reverse_skyline_probability,
    sample_dominance_probability,
)
from repro.prsq.query import (
    ProbabilityMap,
    is_prsq_answer,
    probabilistic_reverse_skyline,
    prsq_non_answers,
    prsq_probabilities,
    prsq_probability_map,
)

__all__ = [
    "MembershipOracle",
    "ProbabilityEstimate",
    "ProbabilityMap",
    "sample_reverse_skyline_probability",
    "dominance_probability_matrix",
    "dominance_probability_vector",
    "is_prsq_answer",
    "probabilistic_reverse_skyline",
    "probability_from_matrix",
    "prsq_non_answers",
    "prsq_probabilities",
    "prsq_probability_map",
    "reverse_skyline_probability",
    "sample_dominance_probability",
]
