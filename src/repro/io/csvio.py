"""CSV import/export for certain and uncertain datasets.

Certain datasets use a wide format — one row per object::

    id,attr0,attr1,...

Uncertain datasets use a long format — one row per sample::

    id,probability,attr0,attr1,...

Rows sharing an ``id`` form one uncertain object; probabilities must sum
to 1 per object (validated by :class:`~repro.uncertain.object.
UncertainObject` on load).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, Hashable, List, Sequence, Union

import numpy as np

from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject

PathLike = Union[str, Path]


def _numbers(
    path: Path, line: int, row: Sequence[str], width: int
) -> List[float]:
    """The cells after the id as floats; a row that is not *width* cells
    wide, or holds a non-numeric or non-finite cell, is an error at *line*."""
    if len(row) != width:
        raise ValueError(
            f"{path}:{line}: row has {len(row)} cells, the header has {width}"
        )
    try:
        values = list(map(float, row[1:]))
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}:{line}: non-finite value in {row[1:]!r}")
    return values


def save_certain_csv(dataset: CertainDataset, path: PathLike) -> None:
    """Write a certain dataset as ``id,attr0,...`` rows."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id"] + [f"attr{i}" for i in range(dataset.dims)])
        for obj in dataset:
            writer.writerow([obj.oid] + [repr(float(v)) for v in obj.samples[0]])


def load_certain_csv(path: PathLike) -> CertainDataset:
    """Read a certain dataset written by :func:`save_certain_csv`."""
    path = Path(path)
    ids: List[Hashable] = []
    points: List[List[float]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[0] != "id":
            raise ValueError(f"{path}: expected header starting with 'id'")
        for row in reader:
            if not row:
                continue
            ids.append(row[0])
            points.append(_numbers(path, reader.line_num, row, len(header)))
    if not points:
        raise ValueError(f"{path}: no data rows")
    return CertainDataset(np.array(points), ids=ids)


def save_uncertain_csv(dataset: UncertainDataset, path: PathLike) -> None:
    """Write an uncertain dataset as ``id,probability,attr0,...`` rows."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["id", "probability"] + [f"attr{i}" for i in range(dataset.dims)]
        )
        for obj in dataset:
            for i in range(obj.num_samples):
                writer.writerow(
                    [obj.oid, repr(float(obj.probabilities[i]))]
                    + [repr(float(v)) for v in obj.samples[i]]
                )


def load_uncertain_csv(path: PathLike) -> UncertainDataset:
    """Read an uncertain dataset written by :func:`save_uncertain_csv`.

    Rows are grouped by their ``id`` column in first-appearance order.
    """
    path = Path(path)
    samples: Dict[str, List[List[float]]] = {}
    probs: Dict[str, List[float]] = {}
    order: List[str] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:2] != ["id", "probability"]:
            raise ValueError(
                f"{path}: expected header starting with 'id,probability'"
            )
        for row in reader:
            if not row:
                continue
            oid = row[0]
            if oid not in samples:
                samples[oid] = []
                probs[oid] = []
                order.append(oid)
            values = _numbers(path, reader.line_num, row, len(header))
            probs[oid].append(values[0])
            samples[oid].append(values[1:])
    if not order:
        raise ValueError(f"{path}: no data rows")
    objects = [
        UncertainObject(oid, np.array(samples[oid]), probs[oid]) for oid in order
    ]
    return UncertainDataset(objects)
