"""Correctness checks on crosp output documents.

Each check takes the bytes a command wrote and raises ``CheckError`` with a
reason when they are wrong.  The checks use identities and independent
arithmetic, never a stored copy of an earlier output.

``python3 checks.py SPACE N FILE`` prints the independent tau[D] of the
point-set file (SPACE is s2 or hp2); ``run.py`` calls it as a child process.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

CATALOG = {"s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"}
# |gamma * lambda + tau[D] - <tau> N^2| relative to <tau> N^2; rounding alone
# leaves about 1e-15 at N = 4000
IDENTITY_RTOL = 1e-9
MC_SIGMAS = 4.0


class CheckError(Exception):
    """An output document is malformed or numerically wrong."""


def parse(data: bytes) -> dict:
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckError("output is not a JSON object")
    return doc


def field(doc: dict, key: str, kind=float):
    try:
        value = doc[key]
    except KeyError:
        raise CheckError(f"output lacks {key!r}") from None
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise CheckError(f"{key!r} is not a finite number: {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise CheckError(f"{key!r} has type {type(value).__name__}")
    return value


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def check_spaces(data: bytes) -> None:
    rows = field(parse(data), "spaces", list)
    codes = {row.get("code") for row in rows if isinstance(row, dict)}
    expect(codes == CATALOG and len(rows) == len(CATALOG),
           f"catalog lists {sorted(map(str, codes))}")


def check_constants(data: bytes, space: str) -> dict:
    """Return gamma and <tau>; check <tau> = gamma * <symdiff> to rounding."""
    doc = parse(data)
    expect(doc.get("space") == space, f"constants are for {doc.get('space')!r}")
    gamma, avg = field(doc, "gamma"), field(doc, "avg_chordal")
    sym = field(doc, "avg_symdiff")
    expect(gamma > 0 and 0 < avg < 1, f"gamma {gamma}, <tau> {avg} out of range")
    expect(abs(avg - gamma * sym) <= 1e-12 * avg,
           f"<tau> {avg} != gamma * <symdiff> {gamma * sym}")
    return {"gamma": gamma, "avg_chordal": avg}


def check_pointset(data: bytes, space: str, n: int) -> np.ndarray:
    """Reload a point-set document; it must hold n unit vectors of one width."""
    doc = parse(data)
    fam, dim = space.rstrip("0123456789"), int(space.lstrip("abcdefghijklmnopqrstuvwxyz"))
    sp = field(doc, "space", dict)
    expect(sp.get("family") == fam and sp.get("n") == dim, f"space is {sp!r}")
    rows = field(doc, "points", list)
    expect(len(rows) == n, f"{len(rows)} points, expected {n}")
    try:
        pts = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise CheckError("points are not a rectangular array of numbers") from None
    expect(pts.ndim == 2 and np.isfinite(pts).all(), "points are not finite rows")
    norms = np.sqrt(np.sum(pts * pts, axis=1))
    expect(np.all(np.abs(norms - 1) <= 1e-12), "a point is not a unit vector")
    return pts


def result_doc(data: bytes, quantity: str, space: str, n: int) -> dict:
    """Parse a result document and check which quantity, space and N it is for."""
    doc = parse(data)
    expect(doc.get("quantity") == quantity, f"quantity is {doc.get('quantity')!r}")
    expect(doc.get("space") == space, f"space is {doc.get('space')!r}")
    expect(doc.get("n_points") == n, f"n_points is {doc.get('n_points')!r}")
    return doc


def check_identity(lam: float, tau: float, const: dict, n: int) -> None:
    """gamma * lambda + tau[D] = <tau> N^2 to rounding."""
    target = const["avg_chordal"] * n * n
    residual = const["gamma"] * lam + tau - target
    expect(abs(residual) <= IDENTITY_RTOL * target,
           f"invariance residual {residual:.3e} exceeds {IDENTITY_RTOL:g} * {target:.6g}")


def sphere_chordal_sum(pts: np.ndarray) -> float:
    """Sum of sin(theta/2) = sqrt((1 - <x, y>) / 2) over ordered pairs x != y."""
    c = np.clip(pts @ pts.T, -1.0, 1.0)
    tau = np.sqrt((1.0 - c) / 2.0)
    np.fill_diagonal(tau, 0.0)
    return math.fsum(tau.ravel())


def quaternion_chordal_sum(pts: np.ndarray) -> float:
    """Sum of sqrt(1 - |<x, y>_H|^2) over ordered pairs x != y of hp points.

    ``pts`` holds one point of the quaternionic projective space per row, as
    n + 1 quaternions (1, i, j, k) flattened row-major.  The inner product
    <x, y>_H = sum_i conj(x_i) y_i is formed with the Hamilton product written
    out here, one GEMM per pair of quaternion components, independently of
    crosp's algebra module.  Rows are taken 500 at a time to bound memory.
    """
    block = 500
    n = pts.shape[0]
    q = pts.reshape(n, -1, 4)
    comps = [np.ascontiguousarray(q[:, :, a]) for a in range(4)]
    sums = []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        g = [[comps[a][lo:hi] @ comps[b].T for b in range(4)] for a in range(4)]
        # conj(x) y = (x0 y0 + x1 y1 + x2 y2 + x3 y3,
        #              x0 y1 - x1 y0 - x2 y3 + x3 y2,
        #              x0 y2 + x1 y3 - x2 y0 - x3 y1,
        #              x0 y3 - x1 y2 + x2 y1 - x3 y0)
        re = g[0][0] + g[1][1] + g[2][2] + g[3][3]
        im_i = g[0][1] - g[1][0] - g[2][3] + g[3][2]
        im_j = g[0][2] + g[1][3] - g[2][0] - g[3][1]
        im_k = g[0][3] - g[1][2] + g[2][1] - g[3][0]
        tau = np.sqrt(np.clip(1.0 - (re * re + im_i * im_i + im_j * im_j + im_k * im_k),
                              0.0, 1.0))
        tau[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        sums.append(math.fsum(tau.ravel()))
    return math.fsum(sums)


def check_pair_sum(value: float, tau: float) -> None:
    """A chordal pair sum agrees with an independent tau[D] to rounding."""
    expect(abs(value - tau) <= IDENTITY_RTOL * tau,
           f"pair sum {value!r} differs from the independent {tau!r}")


def check_mc(doc: dict, closed: float, samples: int) -> None:
    value, stderr = field(doc, "value"), field(doc, "stderr")
    expect(doc.get("samples") == samples, f"samples is {doc.get('samples')!r}")
    expect(stderr > 0, f"stderr {stderr} is not positive")
    expect(abs(value - closed) <= MC_SIGMAS * stderr,
           f"mc {value} is {abs(value - closed) / stderr:.2f} stderr from closed {closed}")


def check_series(doc: dict, closed: float, tol: float, n: int) -> None:
    value = field(doc, "value")
    expect(abs(value - closed) <= tol * n * n,
           f"series {value} differs from closed {closed} by more than {tol:g} * {n}^2")


def check_verify(data: bytes) -> None:
    doc = parse(data)
    reports = field(doc, "reports", list)
    expect(field(doc, "all_passed", bool) is True, "all_passed is not true")
    expect(len(reports) > 0
           and all(isinstance(r, dict) and r.get("verdict") == "pass" for r in reports),
           "a suite report is not a pass")


def _main(space: str, n: str, path: str) -> None:
    pts = check_pointset(open(path, "rb").read(), space, int(n))
    print(repr({"s2": sphere_chordal_sum, "hp2": quaternion_chordal_sum}[space](pts)))


if __name__ == "__main__":
    _main(*sys.argv[1:])
