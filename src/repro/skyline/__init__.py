"""Skyline operators: classic, dynamic, reverse, k-skyband, bichromatic."""

from repro.skyline.bichromatic import (
    bichromatic_reverse_skyline,
    compute_causality_bichromatic,
    product_dominators,
)
from repro.skyline.classic import is_skyline_point, skyline_indices, skyline_points
from repro.skyline.dynamic import dynamic_skyline_indices, q_in_dynamic_skyline
from repro.skyline.reverse import (
    is_reverse_skyline,
    is_reverse_skyline_bruteforce,
    reverse_skyline,
    reverse_skyline_bruteforce,
)
from repro.skyline.skyband import (
    compute_causality_k_skyband,
    dominators_of_query,
    is_reverse_k_skyband,
    reverse_k_skyband,
)

__all__ = [
    "bichromatic_reverse_skyline",
    "compute_causality_bichromatic",
    "compute_causality_k_skyband",
    "dominators_of_query",
    "dynamic_skyline_indices",
    "is_reverse_k_skyband",
    "is_reverse_skyline",
    "is_reverse_skyline_bruteforce",
    "is_skyline_point",
    "product_dominators",
    "q_in_dynamic_skyline",
    "reverse_k_skyband",
    "reverse_skyline",
    "reverse_skyline_bruteforce",
    "skyline_indices",
    "skyline_points",
]
