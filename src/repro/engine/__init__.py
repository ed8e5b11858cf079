"""repro.engine — batched, cached, parallel query execution.

The engine layers a production-style execution model over the paper's
algorithms:

* :class:`~repro.engine.session.Session` — owns a dataset and its
  STR-packed R-tree, reusing both across queries;
* :mod:`~repro.engine.spec` — declarative :class:`QuerySpec` values for
  the full query zoo (CP/CR/pdf causality, PRSQ, reverse skyline,
  reverse k-skyband, reverse top-k);
* :mod:`~repro.engine.plan` — compiles specs into executable plans, one
  physical path per query family (reverse skylines and k-skybands count
  dominators in one broadcast kernel, at any size);
* :mod:`~repro.engine.executor` — serial and multiprocess batch
  execution with deterministic result ordering;
* :mod:`~repro.engine.cache` — LRU result/probability cache keyed by
  dataset fingerprint, query identity and threshold;
* :mod:`~repro.engine.kernels` — NumPy-vectorized dominance,
  candidate-pruning and Eq. (3)/(2) kernels, bit-identical to the scalar
  references they are tested against.
"""

from repro.engine.cache import CacheStats, LRUCache, NullCache
from repro.engine.executor import Executor, ParallelExecutor, SerialExecutor
from repro.engine.plan import QueryPlan, compile_plan
from repro.engine.session import (
    QueryOutcome,
    Session,
    dataset_fingerprint,
)
from repro.engine.spec import (
    CausalityCertainSpec,
    CausalitySpec,
    KSkybandCausalitySpec,
    PdfCausalitySpec,
    PRSQSpec,
    QuerySpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    ReverseTopKSpec,
    UpdateSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.uncertain.delta import DatasetDelta

__all__ = [
    "CacheStats",
    "CausalityCertainSpec",
    "CausalitySpec",
    "DatasetDelta",
    "Executor",
    "KSkybandCausalitySpec",
    "LRUCache",
    "NullCache",
    "ParallelExecutor",
    "PdfCausalitySpec",
    "PRSQSpec",
    "QueryOutcome",
    "QueryPlan",
    "QuerySpec",
    "ReverseKSkybandSpec",
    "ReverseSkylineSpec",
    "ReverseTopKSpec",
    "SerialExecutor",
    "Session",
    "UpdateSpec",
    "compile_plan",
    "dataset_fingerprint",
    "spec_from_dict",
    "spec_to_dict",
]
