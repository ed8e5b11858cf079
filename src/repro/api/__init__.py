"""repro.api — the versioned public API (v2).

Three pillars:

* :data:`~repro.api.registry.REGISTRY` — one table binding every query
  family's spec class, planner and typed result envelope; planning, spec
  (de)serialization and envelope decoding all dispatch through it, so a
  new family plugs in with one ``register`` call and zero engine edits;
* :mod:`~repro.api.results` — per-family payload dataclasses wrapped in a
  uniform, schema-versioned :class:`~repro.api.results.QueryResult`
  envelope with run stats, dataset fingerprint, spec echo and a
  machine-actionable error taxonomy;
* :func:`~repro.api.client.connect` — the fluent
  :class:`~repro.api.client.Client` facade with per-family methods and a
  batch builder whose ``.stream()`` yields envelopes incrementally.
"""

from repro.api import families as _families  # noqa: F401 - registers builtins
from repro.api.client import BatchBuilder, Client, connect, connect_pdf
from repro.api.remote import RemoteBatchBuilder, RemoteClient
from repro.api.retry import RetryPolicy
from repro.api.registry import (
    DEFAULT_SEQUENCE_FIELDS,
    QueryFamily,
    QueryRegistry,
    REGISTRY,
)
from repro.api.results import (
    CausalityAnswer,
    CauseRecord,
    ErrorInfo,
    PRSQResult,
    QueryResult,
    ReverseKSkybandResult,
    ReverseSkylineResult,
    ReverseTopKResult,
    RunInfo,
    SCHEMA_VERSION,
    StatsRecord,
    UpdateResult,
)
from repro.api.wire import decode_value, encode_value

__all__ = [
    "BatchBuilder",
    "CausalityAnswer",
    "CauseRecord",
    "Client",
    "DEFAULT_SEQUENCE_FIELDS",
    "ErrorInfo",
    "PRSQResult",
    "QueryFamily",
    "QueryRegistry",
    "QueryResult",
    "REGISTRY",
    "RemoteBatchBuilder",
    "RemoteClient",
    "RetryPolicy",
    "ReverseKSkybandResult",
    "ReverseSkylineResult",
    "ReverseTopKResult",
    "RunInfo",
    "SCHEMA_VERSION",
    "StatsRecord",
    "UpdateResult",
    "connect",
    "connect_pdf",
    "decode_value",
    "encode_value",
]
