"""Uncertain data model: discrete samples, possible worlds, continuous pdfs."""

from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject
from repro.uncertain.pdf import (
    ContinuousUncertainObject,
    TruncatedGaussianObject,
    UniformBoxObject,
)
from repro.uncertain.tensor import DatasetTensor
from repro.uncertain.possible_worlds import (
    MAX_ENUMERABLE_WORLDS,
    is_reverse_skyline_in_world,
    iter_worlds,
    reverse_skyline_probability_bruteforce,
    world_count,
    world_points,
)

__all__ = [
    "CertainDataset",
    "ContinuousUncertainObject",
    "DatasetDelta",
    "DatasetTensor",
    "MAX_ENUMERABLE_WORLDS",
    "TruncatedGaussianObject",
    "UncertainDataset",
    "UncertainObject",
    "UniformBoxObject",
    "is_reverse_skyline_in_world",
    "iter_worlds",
    "reverse_skyline_probability_bruteforce",
    "world_count",
    "world_points",
]
