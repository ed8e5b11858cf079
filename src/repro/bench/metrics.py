"""Measurement containers for the experiment harness.

The paper reports two metrics per configuration (Sec. 5.1): the number of
R-tree node accesses (I/O) and CPU time, averaged over randomly selected
non-answers.  :class:`Aggregate` accumulates per-run
:class:`~repro.core.model.RunStats` and exposes those means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.model import RunStats


@dataclass
class Aggregate:
    """Mean/total statistics over a batch of algorithm invocations."""

    runs: List[RunStats] = field(default_factory=list)

    def add(self, stats: RunStats) -> None:
        self.runs.append(stats)

    @property
    def count(self) -> int:
        return len(self.runs)

    def _mean(self, attr: str) -> float:
        if not self.runs:
            return 0.0
        return sum(getattr(run, attr) for run in self.runs) / len(self.runs)

    @property
    def mean_node_accesses(self) -> float:
        return self._mean("node_accesses")

    @property
    def mean_cpu_time_s(self) -> float:
        return self._mean("cpu_time_s")

    @property
    def mean_candidates(self) -> float:
        return self._mean("candidates")

    @property
    def mean_subsets(self) -> float:
        return self._mean("subsets_examined")

    def as_row(self) -> dict:
        """One flattened result row for the reporting tables."""
        return {
            "runs": self.count,
            "io": round(self.mean_node_accesses, 1),
            "cpu_ms": round(self.mean_cpu_time_s * 1e3, 3),
            "candidates": round(self.mean_candidates, 1),
            "subsets": round(self.mean_subsets, 1),
        }
