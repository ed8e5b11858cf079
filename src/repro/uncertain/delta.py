"""Dataset deltas: declarative single- or multi-object change sets.

A :class:`DatasetDelta` records what changes — which objects to delete,
replace, and insert — without saying how the change is carried out.
:meth:`repro.uncertain.dataset.UncertainDataset.apply_delta` applies one
incrementally (patching the cached tensor and the cached content digest
in O(changed) work, and dropping the R-tree for a rebuild), and
:meth:`repro.engine.session.Session.apply` layers version bumps and cache
invalidation on top.  The engine's :class:`~repro.engine.spec.UpdateSpec`
is the wire form of the same record.

Application order within one delta is fixed and documented: **deletes,
then updates, then inserts**.  Ids must be disjoint across the three op
lists — a delete immediately followed by a re-insert of the same id is an
update, and expressing it as two ops in one delta is almost always a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Tuple

from repro.uncertain.object import UncertainObject


@dataclass(frozen=True)
class DatasetDelta:
    """One atomic change set against a dataset.

    Parameters
    ----------
    deletes:
        Ids of existing objects to remove.
    updates:
        Replacement objects; each must carry the id of an existing object.
    inserts:
        New objects; each id must not exist yet.
    """

    deletes: Tuple[Hashable, ...] = ()
    updates: Tuple[UncertainObject, ...] = ()
    inserts: Tuple[UncertainObject, ...] = ()

    def __post_init__(self):
        if isinstance(self.deletes, str):
            # tuple("hot-1") would silently explode into per-char deletes
            raise TypeError(
                f"deletes must be a sequence of ids, got the bare string "
                f"{self.deletes!r}; wrap it: deletes=({self.deletes!r},)"
            )
        object.__setattr__(self, "deletes", tuple(self.deletes))
        object.__setattr__(self, "updates", tuple(self.updates))
        object.__setattr__(self, "inserts", tuple(self.inserts))
        for name in ("updates", "inserts"):
            for obj in getattr(self, name):
                if not isinstance(obj, UncertainObject):
                    raise TypeError(
                        f"{name} must hold UncertainObject instances, "
                        f"got {type(obj).__name__}"
                    )
        seen = set()
        for oid in self._all_ids():
            if oid in seen:
                raise ValueError(
                    f"id {oid!r} appears in more than one delta op; "
                    "a delete + insert of the same id is an update"
                )
            seen.add(oid)
        if not seen:
            raise ValueError("empty delta: no deletes, updates, or inserts")

    def _all_ids(self) -> Iterable[Hashable]:
        for oid in self.deletes:
            yield oid
        for obj in self.updates:
            yield obj.oid
        for obj in self.inserts:
            yield obj.oid

    # ------------------------------------------------------------------
    # single-op constructors (the Client facade's building blocks)
    # ------------------------------------------------------------------
    @classmethod
    def insertion(cls, obj: UncertainObject) -> "DatasetDelta":
        return cls(inserts=(obj,))

    @classmethod
    def deletion(cls, oid: Hashable) -> "DatasetDelta":
        return cls(deletes=(oid,))

    @classmethod
    def replacement(cls, obj: UncertainObject) -> "DatasetDelta":
        return cls(updates=(obj,))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.deletes) + len(self.updates) + len(self.inserts)

    def __repr__(self) -> str:
        return (
            f"<DatasetDelta -{len(self.deletes)} ~{len(self.updates)} "
            f"+{len(self.inserts)}>"
        )
