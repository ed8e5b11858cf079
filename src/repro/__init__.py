"""repro — Causality & responsibility for probabilistic reverse skyline
query non-answers.

A from-scratch reproduction of Gao, Liu, Chen, Zhou & Zheng,
*"Finding Causality and Responsibility for Probabilistic Reverse Skyline
Query Non-Answers"*, IEEE TKDE 28(11), 2016.

Public API highlights
---------------------
* :func:`repro.core.cp.compute_causality` — algorithm CP (CR2PRSQ).
* :func:`repro.core.cr.compute_causality_certain` — algorithm CR (CRPRSQ).
* :func:`repro.core.cp.compute_causality_pdf` — the continuous-pdf variant.
* :mod:`repro.prsq` — probabilistic reverse skyline query substrate.
* :mod:`repro.skyline` — classic / dynamic / reverse skyline operators.
* :mod:`repro.index` — R-tree with node-access accounting.
* :mod:`repro.datasets` — all of the paper's workload generators.
* :mod:`repro.engine` — batched, cached, parallel query execution
  (:class:`~repro.engine.Session` + declarative query specs).
* :mod:`repro.api` — the versioned public API: :func:`repro.api.connect`
  returns a fluent :class:`~repro.api.Client` whose methods produce typed
  :class:`~repro.api.QueryResult` envelopes; the
  :data:`~repro.api.REGISTRY` lets new query families plug in with one
  registration call and zero engine edits.
* :mod:`repro.obs` — phase-level tracing (nestable spans, NDJSON export)
  and the process-global metrics registry; enabled per session via
  ``connect(..., trace=...)``, free when off.
"""

from repro import obs
from repro.api import (
    Client,
    QueryResult,
    REGISTRY,
    connect,
    connect_pdf,
)
from repro.core import (
    CPConfig,
    Cause,
    CauseKind,
    CausalityResult,
    RunStats,
    brute_force_causality,
    compute_causality,
    compute_causality_certain,
    compute_causality_pdf,
    naive_i,
    naive_ii,
)
from repro.engine import (
    ParallelExecutor,
    QueryOutcome,
    SerialExecutor,
    Session,
)
from repro.exceptions import (
    DimensionalityError,
    EmptyDatasetError,
    InvalidProbabilityError,
    NotANonAnswerError,
    ReproError,
)
from repro.geometry import Rect
from repro.prsq import (
    MembershipOracle,
    probabilistic_reverse_skyline,
    prsq_non_answers,
    prsq_probabilities,
    reverse_skyline_probability,
    sample_reverse_skyline_probability,
)
from repro.rtopk import WeightSet, compute_causality_rtopk, reverse_top_k
from repro.skyline import (
    compute_causality_bichromatic,
    compute_causality_k_skyband,
    reverse_k_skyband,
    reverse_skyline,
    skyline_indices,
)
from repro.uncertain import (
    CertainDataset,
    TruncatedGaussianObject,
    UncertainDataset,
    UncertainObject,
    UniformBoxObject,
)

__version__ = "2.0.0"

__all__ = [
    "CPConfig",
    "Client",
    "QueryResult",
    "REGISTRY",
    "connect",
    "connect_pdf",
    "Cause",
    "CauseKind",
    "CausalityResult",
    "CertainDataset",
    "DimensionalityError",
    "EmptyDatasetError",
    "InvalidProbabilityError",
    "MembershipOracle",
    "NotANonAnswerError",
    "ParallelExecutor",
    "QueryOutcome",
    "Rect",
    "SerialExecutor",
    "Session",
    "ReproError",
    "RunStats",
    "TruncatedGaussianObject",
    "UncertainDataset",
    "UncertainObject",
    "UniformBoxObject",
    "WeightSet",
    "brute_force_causality",
    "compute_causality",
    "compute_causality_bichromatic",
    "compute_causality_certain",
    "compute_causality_k_skyband",
    "compute_causality_pdf",
    "compute_causality_rtopk",
    "naive_i",
    "naive_ii",
    "obs",
    "probabilistic_reverse_skyline",
    "prsq_non_answers",
    "prsq_probabilities",
    "reverse_k_skyband",
    "reverse_skyline",
    "reverse_skyline_probability",
    "reverse_top_k",
    "sample_reverse_skyline_probability",
    "skyline_indices",
    "__version__",
]
