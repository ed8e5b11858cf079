"""Scalar reference implementations the parity suites compare against.

The program keeps one implementation of each kernel: the vectorized one.
Where a kernel has no scalar counterpart in the program itself (the
Eq. (3)/(2) helpers of :mod:`repro.prsq.probability`,
:func:`~repro.core.candidates.can_influence` and
:func:`~repro.skyline.reverse.reverse_skyline_bruteforce` are such
counterparts), its straightforward per-element loop lives here, written
from the paper's definitions and sharing no kernel with the code under
test:

* :func:`prsq_probability` — Eq. (2) over every other object, unpruned;
* :func:`dominators` — the points dominating ``q`` w.r.t. one center,
  one :func:`~repro.geometry.dominance.dynamically_dominates` test each;
* :func:`dominator_counts` — every point's dominator count;
* :func:`monte_carlo_probability` — one dominance test per sampled world;
* :mod:`tests.reference.rtree` — the pointer R-tree: scalar STR bulk
  load and node-by-node traversal, the reference for
  :class:`~repro.index.packed.PackedRTree`.
"""

from tests.reference.scalar import (
    dominator_counts,
    dominators,
    monte_carlo_probability,
    prsq_probability,
)

__all__ = [
    "dominator_counts",
    "dominators",
    "monte_carlo_probability",
    "prsq_probability",
]
