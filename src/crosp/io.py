"""File formats: point-set JSON, distance-matrix CSV, and result documents.

All floating-point output is printed with 17 significant digits so repeated
runs diff cleanly and values round-trip exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError
from .spaces import Family, PointSet, _point_shape, make_space

__all__ = [
    "dumps_stable",
    "pointset_to_dict",
    "pointset_from_dict",
    "save_pointset",
    "load_pointset",
    "load_distance_matrix",
    "save_distance_matrix",
]


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def _emit(obj, parts, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(pad_in + json.dumps(str(k)) + ": ")
            _emit(v, parts, indent, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(items):
            parts.append(pad_in)
            _emit(v, parts, indent, level + 1)
            parts.append(",\n" if i + 1 < len(items) else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        parts.append(json.dumps(bool(obj) if obj is not None else None))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise DomainError(f"cannot serialize object of type {type(obj)!r}")


def dumps_stable(obj, indent: int = 2) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    parts = []
    _emit(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def pointset_to_dict(pts: PointSet) -> dict:
    return {
        "space": {"family": pts.space.family.value, "n": pts.space.n},
        "points": [list(map(float, row.reshape(-1))) for row in pts.points],
        "label": pts.label,
    }


def pointset_from_dict(doc: dict) -> PointSet:
    try:
        fam = Family(doc["space"]["family"])
        n = int(doc["space"]["n"])
        rows = doc["points"]
        label = doc.get("label", "")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed point-set document: {exc}") from exc
    space = make_space(fam, n)
    shape = _point_shape(space)
    expected = int(np.prod(shape))
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed point coordinates: {exc}") from exc
    if arr.ndim == 0 or arr.size != len(arr) * expected:
        raise DomainError(f"each point must have {expected} coordinates for {space}")
    # PointSet checks that every row is a point of the space
    return PointSet(space, arr.reshape((len(arr),) + shape), label)


def save_pointset(path, pts: PointSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_stable(pointset_to_dict(pts)))


def load_pointset(path) -> PointSet:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise DomainError(f"{path} is not a JSON document: {exc}") from None
    return pointset_from_dict(doc)


def load_distance_matrix(path) -> np.ndarray:
    """N x N geodesic distance matrix (radians) from CSV."""
    try:
        dm = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:  # a non-numeric or ragged row
        raise DomainError(f"malformed distance-matrix CSV {path}: {exc}") from None
    if dm.shape[0] != dm.shape[1]:
        raise DomainError(f"distance matrix must be square, got {dm.shape}")
    return dm


def save_distance_matrix(path, dm: np.ndarray):
    dm = np.asarray(dm, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for row in dm:
            fh.write(",".join(_fmt_float(x) for x in row) + "\n")
