"""Catalog and geometry of the compact rank-one symmetric spaces Q(d, d0).

Covers point representations, geodesic and chordal metrics, the canonical
embedding into a Euclidean sphere, ball volumes, the invariance-principle
constant gamma(Q), the mean chordal distance, and uniform sampling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import ConsistencyError, DomainError, UnsupportedSpaceError
from .specfun import _inc_beta, beta, check_order

__all__ = [
    "Family",
    "SpaceSpec",
    "Point",
    "PointSet",
    "make_space",
    "parse_space",
    "catalog",
    "geodesic",
    "chordal",
    "embed",
    "ball_volume",
    "gamma_const",
    "avg_chordal",
    "sample_uniform",
    "chart_point_oct",
    "cos_geodesic_matrix",
    "cos_geodesic_pairs",
    "geodesic_matrix",
]


class Family(enum.Enum):
    """Space families, with the short codes used in the JSON formats."""

    SPHERE = "s"
    REAL_PROJ = "rp"
    COMPLEX_PROJ = "cp"
    QUAT_PROJ = "hp"
    OCT_PROJ = "op"


_D0 = {
    Family.REAL_PROJ: 1,
    Family.COMPLEX_PROJ: 2,
    Family.QUAT_PROJ: 4,
    Family.OCT_PROJ: 8,
}


@dataclass(frozen=True)
class SpaceSpec:
    """A catalog entry identifying the space Q(d, d0)."""

    family: Family
    n: int
    d: int
    d0: int
    m: int

    @property
    def code(self) -> str:
        return f"{self.family.value}{self.n}"

    def __str__(self) -> str:
        return self.code


def make_space(family, n: int) -> SpaceSpec:
    """Build the SpaceSpec for the given family and projective dimension n."""
    if isinstance(family, str):
        try:
            family = Family(family.lower())
        except ValueError:
            raise UnsupportedSpaceError(f"unknown family {family!r}") from None
    # written so that NaN and inf fail the check, with no int() of them
    if not (n >= 1 and float(n).is_integer()):
        raise UnsupportedSpaceError(f"projective dimension must be a positive integer, got {n}")
    n = int(n)
    if family is Family.SPHERE:
        return SpaceSpec(family, n, n, n, n + 1)
    if family is Family.OCT_PROJ and n != 2:
        raise UnsupportedSpaceError("the octonionic projective space exists only for n = 2")
    d0 = _D0[family]
    d = n * d0
    m = (n + 1) * (d + 2) // 2
    return SpaceSpec(family, n, d, d0, m)


def parse_space(code: str) -> SpaceSpec:
    """Parse a code like 's2', 'rp2', 'cp2', 'hp2', 'op2'."""
    code = code.strip().lower()
    for fam in Family:
        pref = fam.value
        if code.startswith(pref) and code[len(pref):].isdigit():
            return make_space(fam, int(code[len(pref):]))
    raise UnsupportedSpaceError(f"cannot parse space code {code!r}")


def catalog() -> list[SpaceSpec]:
    """The seven default spaces."""
    return [
        make_space(Family.SPHERE, 1),
        make_space(Family.SPHERE, 2),
        make_space(Family.SPHERE, 3),
        make_space(Family.REAL_PROJ, 2),
        make_space(Family.COMPLEX_PROJ, 2),
        make_space(Family.QUAT_PROJ, 2),
        make_space(Family.OCT_PROJ, 2),
    ]


@dataclass(frozen=True)
class Point:
    """A point of Q: a unit representative vector.

    Spheres store a unit vector of length d + 1.  The projective spaces store
    a unit representative in F^{n+1} as an (n+1, d0) real array (the class is
    taken modulo a unit scalar).  On the octonionic plane one entry of the
    row must be real: two octonions generate an associative subalgebra
    (Artin), so x x* is then the point's Jordan idempotent.
    """

    space: SpaceSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(self.data))
        self.validate()

    def validate(self):
        shape = _point_shape(self.space)
        if self.data.shape != shape:
            raise DomainError(f"a point of {self.space} must have shape {shape}")
        _check_rows(self.space, self.data[None])


@dataclass(frozen=True)
class PointSet:
    """An ordered finite collection of points of one space."""

    space: SpaceSpec
    points: np.ndarray = field(repr=False)  # stacked, shape (N, ...) per family
    label: str = ""

    def __post_init__(self):
        arr = _frozen(self.points)
        object.__setattr__(self, "points", arr)
        if arr.size == 0:
            return
        if arr.shape[1:] != _point_shape(self.space):
            raise DomainError(
                f"point array shape {arr.shape[1:]} does not match space {self.space}"
            )
        _check_rows(self.space, arr)

    def __len__(self) -> int:
        return 0 if self.points.size == 0 else self.points.shape[0]

    def __getitem__(self, i) -> Point:
        return Point(self.space, self.points[i])

    @classmethod
    def from_points(cls, space: SpaceSpec, pts, label: str = "") -> "PointSet":
        rows = [_as_data(space, p) for p in pts]
        if not rows:
            return cls(space, np.zeros((0,) + _point_shape(space)), label)
        return cls(space, np.stack(rows), label)


def _frozen(data) -> np.ndarray:
    """A read-only float array of ``data`` that never freezes the caller's array.

    A writable float64 array comes back from np.asarray as itself, so it is
    copied; an array its owner has already made read-only is kept.
    """
    arr = np.asarray(data, dtype=float)
    if arr is data and arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _point_shape(space: SpaceSpec):
    if space.family is Family.SPHERE:
        return (space.d + 1,)
    return (space.n + 1, space.d0)


def _check_rows(space: SpaceSpec, X: np.ndarray) -> None:
    """Raise DomainError unless every row of a stacked point array is a point.

    Rows must be finite unit vectors (spheres) or unit representatives
    (projective spaces), with a real entry on the octonionic plane.  O(N m).
    """
    if not np.all(np.isfinite(X)):
        raise DomainError("point coordinates must be finite")
    flat = X.reshape(len(X), -1)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    if np.max(np.abs(norms - 1)) > 1e-12:
        if space.family is Family.SPHERE:
            raise DomainError("sphere point is not on the unit sphere")
        raise DomainError("projective representative must have unit norm")
    # a unit row with no real entry embeds to a unit vector too, but its x x*
    # is not idempotent
    if space.family is Family.OCT_PROJ and np.any(
            np.abs(X[:, :, 1:]).max(axis=2).min(axis=1) > 1e-12):
        raise DomainError("an octonionic representative must have a real entry")


# ---------------------------------------------------------------------------
# metrics


def _as_data(space, x):
    """The data array of a point of ``space``, from a Point or its coordinates."""
    if isinstance(x, Point):
        if x.space != space:
            raise DomainError(f"point belongs to {x.space}, expected {space}")
        return x.data
    return Point(space, x).data


def _embedding_cols(space: SpaceSpec, X: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The embedding of a stacked point array, coordinate-major: shape (m, N).

    Row k holds coordinate k of embed(x) for every point.  Sphere points are
    their own embedding, so on spheres this is the view X.T.  Otherwise the
    rows are written into ``out``, by default a new C-contiguous array, in
    which each row is written in one contiguous pass.  Each x_a conj(x_b)
    is ``algebra.mul_parts`` on the component arrays of x_a and conj(x_b).

    The rows are homogeneous in a point's representative: rows of any
    nonzero length, such as raw Gaussian draws, give embed(l x) = l^k embed(x)
    with k = 1 on spheres and k = 2 otherwise, rounding aside.
    """
    if space.family is Family.SPHERE:
        return X.T
    if out is None:
        out = np.empty((space.m, len(X)))
    n1 = X.shape[1]
    i, j = np.triu_indices(n1, 1)
    # |x_i|^2 and x_i conj(x_j): right unit scalars x -> x u cancel.  Each
    # component of each coordinate is one contiguous (N,) array, and every
    # entry is written straight into its row of out.
    d0 = space.d0
    comps = np.ascontiguousarray(np.moveaxis(X, 0, 2))  # (n1, d0, N)
    for k, xk in enumerate(comps):
        np.multiply(xk[0], xk[0], out=out[k])
        for c in xk[1:]:
            out[k] += c * c
    for p, (a, b) in enumerate(zip(i, j)):
        prod = algebra.mul_parts(list(comps[a]), algebra.conj_parts(list(comps[b])))
        for c, part in enumerate(prod):
            np.multiply(part, math.sqrt(2.0), out=out[n1 + p * d0 + c])
    return out


def _embedding_scale(space: SpaceSpec, G: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """s with embed(G[i]) = s[i] embed(G[i] / |G[i]|) for raw rows G.

    ``cols`` is ``_embedding_cols(space, G)``.  On spheres s = |G[i]|;
    otherwise s = |G[i]|^2, the sum of the diagonal rows of ``cols``.
    """
    if space.family is Family.SPHERE:
        return np.sqrt(np.einsum("ij,ij->i", G, G))
    return cols[:space.n + 1].sum(axis=0)


def _embedding(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Rows embed(x) of a stacked point array: a C-contiguous (N, m) array.

    The rows of ``_embedding_cols`` are written into its transpose, one
    strided column at a time.  The products and row sums of the distance
    kernels take it in this layout: BLAS picks its routine by the operands'
    layouts, and some of those routines round differently (OpenBLAS's
    small-matrix kernels, gemv for one row), so the same product of the
    coordinate-major array can differ in its last bits.
    """
    if space.family is Family.SPHERE:
        return X
    E = np.empty((len(X), space.m))
    _embedding_cols(space, X, out=E.T)
    return E


def _cos_affine(space: SpaceSpec):
    """(a, b) with cos(theta) = a <E(x), E(y)> + b: (1, 0) on spheres and
    (2, -1) on projective spaces."""
    if space.family is Family.SPHERE:
        return 1.0, 0.0
    return 2.0, -1.0


def _cos_from_inner(space: SpaceSpec, g: np.ndarray) -> np.ndarray:
    """cos(theta) = a <E(x), E(y)> + b, clipped to [-1, 1]; overwrites g."""
    a, b = _cos_affine(space)
    if a != 1.0:
        g *= a
    if b:
        g += b
    return np.clip(g, -1.0, 1.0, out=g)


def cos_geodesic_matrix(space: SpaceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """cos(theta) between all rows of X and Y (stacked point arrays).

    One Gram product of the canonical embedding for every family.
    """
    if X.size == 0 or Y.size == 0:
        return np.zeros((X.shape[0] if X.ndim else 0, Y.shape[0] if Y.ndim else 0))
    return _cos_from_inner(space, _embedding(space, X) @ _embedding(space, Y).T)


def geodesic_matrix(space: SpaceSpec, X: np.ndarray, Y: np.ndarray = None) -> np.ndarray:
    """Pairwise geodesic distances (radians) between stacked point arrays.

    Entries are rounded by their position in the Gram product.
    """
    if Y is None:
        Y = X
    return np.arccos(cos_geodesic_matrix(space, X, Y))


def _inner_pairs(EX: np.ndarray, EY: np.ndarray) -> np.ndarray:
    """<EX[k], EY[k]> of matching embedded rows, each row summed on its own.

    Unlike an entry of a Gram product, a value depends neither on where its
    rows sit nor on which array is EX.
    """
    return np.einsum("ij,ij->i", EX, EY)


def cos_geodesic_pairs(space: SpaceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """cos(theta) between matching rows of X and Y (element-wise)."""
    if X.shape != Y.shape:
        raise DomainError("paired arrays must have identical shapes")
    if X.size == 0:
        return np.zeros(0)
    return _cos_from_inner(space, _inner_pairs(_embedding(space, X), _embedding(space, Y)))


def geodesic(space: SpaceSpec, x, y) -> float:
    """Geodesic distance in [0, pi], normalized so every space has diameter pi."""
    xd = _as_data(space, x)[None]
    yd = _as_data(space, y)[None]
    return float(np.arccos(cos_geodesic_matrix(space, xd, yd)[0, 0]))


def chordal(space: SpaceSpec, x, y) -> float:
    """Chordal distance sin(theta / 2), normalized to diameter 1."""
    return math.sin(0.5 * geodesic(space, x, y))


def embed(space: SpaceSpec, x) -> np.ndarray:
    """Canonical embedding into the unit sphere of R^m.

    Sphere points embed identically; a projective point maps to its
    Hermitian projection x x*: the real diagonal, then sqrt(2) times each
    entry above it.  So chordal(x, y) = ||embed(x) - embed(y)|| / sqrt(2),
    and every kernel computes cos(theta) = a <embed(x), embed(y)> + b.
    """
    return np.array(_embedding(space, _as_data(space, x)[None])[0])


def ball_volume(space: SpaceSpec, r):
    """Normalized volume of a geodesic ball of radius r in [0, pi].

    Equals the regularized incomplete beta I_{sin^2(r/2)}(d/2, d0/2).  Near
    r = pi, sin^2(r/2) rounds to 1 and only cos^2(r/2) still carries
    1 - sin^2(r/2), so 1 - x is passed as cos^2(r/2).  That matters for a
    half-integer b = d0/2, where the slope of I at 1 grows like
    (1 - x)^(b - 1) and is unbounded on s1 and rp_n; the finite sum of an
    integer b <= 8 does not read it.
    """
    arr = np.asarray(r, dtype=float)
    # written so that a NaN fails the check
    if not np.all((arr >= 0) & (arr <= math.pi + 1e-12)):
        raise DomainError("ball radius must lie in [0, pi]")
    half = np.minimum(arr, math.pi) / 2
    x = np.clip(np.sin(half) ** 2, 0.0, 1.0)
    out = _inc_beta(x, space.d / 2, space.d0 / 2, y=np.cos(half) ** 2)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def _gamma_sphere(d: int) -> float:
    return d * math.sqrt(math.pi) * math.exp(math.lgamma(d / 2) - math.lgamma((d + 1) / 2)) / 2


def gamma_const(space: SpaceSpec) -> float:
    """The constant gamma(Q) of the invariance principle.

    Two equivalent gamma-quotient forms are evaluated and must agree.
    """
    d, d0 = space.d, space.d0
    direct = (math.sqrt(math.pi) / 4 * (d + d0)
              * math.exp(math.lgamma(d0 / 2) - math.lgamma((d0 + 1) / 2)))
    via_sphere = (d + d0) / (2 * d0) * _gamma_sphere(d0)
    if abs(direct - via_sphere) > 1e-13 * abs(direct):
        raise ConsistencyError(
            f"gamma(Q) forms disagree for {space}: {direct} vs {via_sphere}"
        )
    return direct


def avg_chordal(space: SpaceSpec) -> float:
    """Mean chordal distance between two independent uniform points."""
    d, d0 = space.d, space.d0
    return beta((d + 1) / 2, d0 / 2) / beta(d / 2, d0 / 2)


_MAX_POINTS = 10**7  # the most points one call may draw, far below numpy's size limit


def _gaussian_rows(space: SpaceSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """count i.i.d. standard Gaussian rows in the point shape of ``space``.

    Normalised, each row is a uniform point: the Gaussian law is invariant
    under the isometry group.  ``count`` must be an integer in [0, 10^7].
    Not available on the octonionic plane, where they are not uniform.
    """
    count = check_order(count, 0, "count")
    if count > _MAX_POINTS:
        raise DomainError(f"count must be at most {_MAX_POINTS}, got {count}")
    if space.family is Family.OCT_PROJ:
        raise UnsupportedSpaceError(
            "uniform sampling on the octonionic projective plane is not supported; "
            "normalised Gaussian rows are not uniform on it - use chart_point_oct "
            "or distance-matrix inputs instead"
        )
    return rng.standard_normal((count,) + _point_shape(space))


def sample_uniform(space: SpaceSpec, count: int, rng: np.random.Generator,
                   label: str = "") -> PointSet:
    """count i.i.d. points from the invariant probability measure.

    The rows of ``_gaussian_rows`` normalized to the unit sphere of R^{d+1}
    or F^{n+1}; invariance of the Gaussian law under the isometry group
    makes the pushforward uniform.  ``count`` must be an integer in
    [0, 10^7].  Not available on the octonionic plane (see _gaussian_rows).
    """
    g = _gaussian_rows(space, count, rng)
    flat = g.reshape(len(g), math.prod(g.shape[1:]))  # also for no rows
    # a Gaussian vector is never numerically zero at these dimensions
    g /= np.sqrt(np.sum(flat**2, axis=1)).reshape((len(g),) + (1,) * (g.ndim - 1))
    g.setflags(write=False)  # no one else holds g, so PointSet need not copy it
    return PointSet(space, g, label)


def chart_point_oct(c1, c2) -> Point:
    """Point of the octonionic plane from affine chart coordinates.

    Maps octonions (c1, c2) to the unit row (c1, c2, 1)/norm, whose last
    entry is real.  Each coordinate is a real number or a flat sequence of
    at most 8 reals, the leading components of an octonion; anything else
    is a DomainError.  The chart covers a dense open subset; (0, 0) gives
    (0, 0, 1).
    """
    v = np.zeros((3, 8))
    for row, c in zip(v, (c1, c2)):
        try:
            arr = np.atleast_1d(np.asarray(c))
        except ValueError:  # a ragged sequence
            arr = None
        # kinds i, u and f: integers and floats, no bools, strings or objects
        if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != 1 or arr.size > 8:
            raise DomainError("an octonionic chart coordinate must be a real number "
                              "or a flat sequence of at most 8 real numbers")
        row[:arr.size] = arr
    v[2, 0] = 1.0
    return Point(make_space(Family.OCT_PROJ, 2), v / np.linalg.norm(v))
