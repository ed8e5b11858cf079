"""LRU result cache for the query-execution engine.

Keys are opaque hashable tuples built by :class:`repro.engine.session.
Session` from the dataset fingerprint and the query spec's own cache key.
The fingerprint component lets a session over a modified dataset share a
cache object with its predecessor without ever hitting stale entries (the
old entries simply age out of the LRU order).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Tuple

from repro.obs import span as _span


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0


class LRUCache:
    """A bounded least-recently-used cache with hit/miss accounting.

    Safe under concurrent access: one lock serializes every lookup,
    insert and eviction *and* the :class:`CacheStats` increments, so the
    serve layer can share one result cache across all reader threads.
    The probe-only ``cache-lookup`` span wraps the locked region but the
    span object itself is ambient thread-local state, so spans never race
    the stats.  A miss's compute runs **outside** the lock — two threads
    missing the same key may compute it twice (results are deterministic,
    so last-put-wins is sound), but no thread ever blocks the cache for
    the duration of a query.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(value, was_hit)`` — computes and stores on miss.

        The ``cache-lookup`` span covers only the probe (and, on a hit,
        the retrieval) — a miss's compute runs *outside* the span, so
        trace phase totals keep lookup cost separate from execution cost.
        """
        with _span("cache-lookup") as sp:
            with self._lock:
                if key in self._entries:
                    self.stats.hits += 1
                    self._entries.move_to_end(key)
                    sp.set(outcome="hit")
                    return self._entries[key], True
                self.stats.misses += 1
            sp.set(outcome="miss")
        value = compute()
        self.put(key, value)
        return value, False

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"<LRUCache {len(self)}/{self.maxsize} hits={self.stats.hits} "
            f"misses={self.stats.misses}>"
        )


class NullCache:
    """The ``--cache-size 0`` cache: never stores, every lookup is a miss."""

    def __init__(self):
        self.maxsize = 0
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return 0

    def __contains__(self, key: Hashable) -> bool:
        return False

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        with self._lock:  # shared by concurrent readers in the serve layer
            self.stats.misses += 1
        return compute(), False

    def put(self, key: Hashable, value: Any) -> None:
        pass

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"<NullCache misses={self.stats.misses}>"
