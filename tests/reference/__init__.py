"""Scalar reference implementations the parity suites compare against.

The program keeps one implementation of each kernel: the vectorized one.
Where a kernel has no scalar counterpart in the program itself (the
Eq. (3)/(2) helpers of :mod:`repro.prsq.probability`,
:func:`~repro.core.candidates.can_influence`,
:func:`~repro.skyline.reverse.reverse_skyline_bruteforce` and the pointer
:class:`~repro.index.rtree.RTree` are such counterparts), its
straightforward per-element loop lives here, written from the paper's
definitions and sharing no kernel with the code under test.
"""

from tests.reference.scalar import (
    dominator_counts,
    monte_carlo_probability,
    prsq_probability,
)

__all__ = ["dominator_counts", "monte_carlo_probability", "prsq_probability"]
