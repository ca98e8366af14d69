"""File formats: point-set JSON, distance-matrix CSV, and result documents.

Every float is written as Python's shortest round-trip ``repr``, by the
standard ``json`` writer in result documents and by ``format_float`` in CSV,
so repeated runs diff cleanly and every value reads back bit for bit.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import DomainError
from .spaces import Family, PointSet, _point_shape, make_space

__all__ = [
    "dumps_stable",
    "format_float",
    "pointset_to_dict",
    "pointset_from_dict",
    "save_pointset",
    "load_pointset",
    "load_distance_matrix",
    "save_distance_matrix",
]


def format_float(x) -> str:
    """The shortest text that reads back as the float ``x``."""
    return repr(float(x))


def _plain(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"object of type {type(obj).__name__} is not supported")


def dumps_stable(obj) -> str:
    """Deterministic JSON text, indented by 2, with round-trip floats.

    numpy scalars and arrays are written as their Python values.  A NaN or
    an infinity anywhere in ``obj``, or a value of any other type, is a
    DomainError.
    """
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot serialize: {exc}") from None


def pointset_to_dict(pts: PointSet) -> dict:
    return {
        "space": {"family": pts.space.family.value, "n": pts.space.n},
        "points": [row.ravel().tolist() for row in pts.points],
        "label": pts.label,
    }


def pointset_from_dict(doc: dict) -> PointSet:
    try:
        fam = Family(doc["space"]["family"])
        n = doc["space"]["n"]
        rows = doc["points"]
        label = doc.get("label", "")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed point-set document: {exc}") from exc
    # a JSON integer: int() would truncate 2.7 and read "2" and true
    if type(n) is not int:
        raise DomainError(f"space dimension n must be a JSON integer, got {n!r}")
    if type(label) is not str:
        raise DomainError(f"label must be a JSON string, got {label!r}")
    space = make_space(fam, n)
    shape = _point_shape(space)
    expected = int(np.prod(shape))
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise DomainError("points must be a list of coordinate lists")
    if not set(map(len, rows)) <= {expected}:
        raise DomainError(f"each point must have {expected} coordinates for {space}")
    # np.array would also read "1" and true as numbers
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise DomainError("point coordinates must be JSON numbers")
    try:
        arr = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond float range
        raise DomainError("point coordinate out of float range") from None
    # PointSet checks that every row is a point of the space
    return PointSet(space, arr.reshape((len(rows),) + shape), label)


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
    if not np.isfinite(dm).all():
        raise DomainError("cannot serialize a non-finite distance")
    with open(path, "w", encoding="utf-8") as fh:
        for row in dm.tolist():
            fh.write(",".join(map(format_float, row)) + "\n")
