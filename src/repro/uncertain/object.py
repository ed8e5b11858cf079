"""Uncertain objects under the discrete sample model (Sec. 2.2).

An uncertain object ``u`` is a set of mutually exclusive samples
``u_1 .. u_l`` with appearance probabilities ``u_i.p`` summing to 1.
Certain objects are the degenerate case of a single sample with
probability 1, which is how Section 4 (CRP on plain reverse skylines)
reuses all the uncertain machinery.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidProbabilityError
from repro.geometry.point import PointLike, as_point, as_point_matrix
from repro.geometry.rectangle import Rect

_PROB_TOL = 1e-9


class UncertainObject:
    """One uncertain object: ``l`` exclusive samples with probabilities.

    Parameters
    ----------
    oid:
        Hashable object identifier, unique within a dataset.
    samples:
        ``(l, d)`` matrix (or sequence of points) of sample locations.
    probabilities:
        Length-``l`` appearance probabilities; defaults to the paper's
        running-example convention of equal probabilities ``1/l``.
    name:
        Optional human-readable label (player name, car trim, ...).
    """

    __slots__ = ("oid", "samples", "probabilities", "name", "_mbr", "_digest")

    def __init__(
        self,
        oid: Hashable,
        samples: Sequence[PointLike] | np.ndarray,
        probabilities: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ):
        matrix = as_point_matrix(samples)
        if matrix.shape[0] == 0:
            raise ValueError(f"object {oid!r} must have at least one sample")
        if probabilities is None:
            probs = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
        else:
            probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (matrix.shape[0],):
            raise InvalidProbabilityError(
                f"object {oid!r}: {matrix.shape[0]} samples but "
                f"{probs.shape[0] if probs.ndim == 1 else probs.shape} probabilities"
            )
        # a NaN fails both comparisons, so it is rejected too
        if not ((probs > 0.0) & (probs <= 1.0)).all():
            raise InvalidProbabilityError(
                f"object {oid!r}: probabilities must lie in (0, 1], got {probs}"
            )
        if abs(float(probs.sum()) - 1.0) > _PROB_TOL:
            raise InvalidProbabilityError(
                f"object {oid!r}: probabilities sum to {probs.sum()}, expected 1"
            )
        matrix.flags.writeable = False
        probs.flags.writeable = False
        self.oid = oid
        self.samples = matrix
        self.probabilities = probs
        self.name = name
        self._mbr: Optional[Rect] = None
        self._digest: Optional[bytes] = None

    # ------------------------------------------------------------------
    @classmethod
    def certain(
        cls, oid: Hashable, point: PointLike, name: Optional[str] = None
    ) -> "UncertainObject":
        """A certain object: one sample with probability 1."""
        return cls(oid, [as_point(point)], [1.0], name=name)

    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self.samples.shape[1]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def is_certain(self) -> bool:
        return self.num_samples == 1

    @property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the samples (the uncertain region proxy)."""
        if self._mbr is None:
            self._mbr = Rect.bounding(self.samples)
        return self._mbr

    def expected_position(self) -> np.ndarray:
        """Probability-weighted mean location."""
        return self.probabilities @ self.samples

    def digest(self) -> bytes:
        """Content hash of this object, cached for its (immutable) lifetime.

        Every field is length-prefixed (and the sample matrix carries its
        shape) so no two distinct objects can concatenate to the same byte
        stream.  Dataset fingerprints combine these per-object digests, so
        a single-object change re-hashes O(changed) sample bytes instead
        of the whole dataset.
        """
        if self._digest is None:
            hasher = hashlib.sha1()
            for data in (
                repr(self.oid).encode(),
                repr(self.name).encode(),
                repr(self.samples.shape).encode(),
                self.samples.tobytes(),
                self.probabilities.tobytes(),
            ):
                hasher.update(str(len(data)).encode())
                hasher.update(b":")
                hasher.update(data)
            self._digest = hasher.digest()
        return self._digest

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainObject):
            return NotImplemented
        return (
            self.oid == other.oid
            and np.array_equal(self.samples, other.samples)
            and np.array_equal(self.probabilities, other.probabilities)
        )

    def __hash__(self) -> int:
        return hash(self.oid)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<UncertainObject {self.oid!r}{label} "
            f"samples={self.num_samples} dims={self.dims}>"
        )
