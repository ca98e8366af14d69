"""Point-set functionals: pairwise sums, ball quadratic discrepancy by three
routes, and invariance-principle residuals.

The Monte Carlo route samples centers and radii jointly.  The tests keep a
direct symmetric-difference estimator with the opposite nesting (outer
radius quadrature, inner membership counting) as the stochastic oracle of
``symdiff_series``, so the two remain independent cross-checks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .harmonic import avg_symdiff, check_tol, symdiff_series
from .specfun import check_order, reg_inc_beta
from .spaces import (
    PointSet,
    SpaceSpec,
    _cos_affine,
    _cos_from_inner,
    _embedding,
    _embedding_cols,
    _embedding_scale,
    _gaussian_rows,
    _inner_pairs,
    avg_chordal,
    gamma_const,
)

__all__ = [
    "McEstimate",
    "pair_sum",
    "discrepancy_closed",
    "discrepancy_series",
    "discrepancy_mc",
    "invariance_residual",
]

# samples per Monte Carlo block: one block's (N, block) cos theta matrix is
# 3.3 MB at N = 100, against 52 MB for a 65 536-sample batch; 2048 to 16384
# ran within noise on hp2 on a 2-core Xeon
_MC_BLOCK = 4096
# rows and columns of one kernel tile of a pair sum (2 MB of float64); 256 to
# 1024 ran within noise at N = 4000 on a 2-core Xeon
_PAIR_TILE = 512
# entries the exact accumulator takes at once: 32K-entry chunks ran at about
# 9 ns per entry, one 1M-entry block at about 18; the integer limbs of at
# most 2**20 entries sum in int64 without overflow (|hi| sums below 2**62,
# lo sums below 2**63)
_SUM_CHUNK = 32_768
# largest |theta(x, x)| a distance matrix may carry on its diagonal (radians);
# geodesic_matrix leaves at most 7e-8 on every catalog space; routes read only i != j
_DIAGONAL_TOL = 1e-6


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int


# math.frexp writes a finite double as mant * 2**e with 0.5 <= |mant| < 1
# and e >= -1073; the sum is kept as one integer in units of 2**(_EXP_MIN - 53)
_EXP_MIN = -1073
# a value that is 0 or has 2**-30 <= |v| < 4 splits into two integer limbs,
# v = hi * 2**-40 + lo * 2**-83 with hi = floor(v * 2**40), |hi| <= 2**42, and
# 0 <= lo < 2**43: |v| >= 2**-30 has no bit below 2**-82, so lo is an integer
_LIMB_MIN = 2.0**-30
_LIMB_MAX = 4.0
_HI_BITS = 40
_LO_BITS = 43


class _ExactSum:
    """Exactly rounded sum of finite doubles fed in blocks.

    The sum is one Python integer in units of 2**(_EXP_MIN - 53), and
    ``value`` rounds it once, by a correctly rounded integer division: the
    result is the exact sum rounded to nearest, as ``math.fsum`` returns
    it (but a zero sum is +0.0), whatever the order of the values or the
    split of the blocks.

    Distances and series terms lie in a known range, so each value that is
    0 or has 2**-30 <= |v| < 4 splits into two signed integer limbs whose
    int64 sums over one chunk go into the integer, as in the fixed-range
    accumulators of Demmel & Nguyen, "Parallel reproducible summation"
    (IEEE TC 2015).  Any other value (tiny, subnormal, large) is added on
    its own from ``math.frexp``, exactly; a NaN or an infinity raises there.
    """

    def __init__(self, values=()):
        self._total = 0
        self.add(values)

    def add(self, values) -> None:
        flat = np.ravel(values)
        for start in range(0, flat.size, _SUM_CHUNK):
            chunk = flat[start:start + _SUM_CHUNK]
            # NaN fails both compares; the mask is built only when one fails
            if not (chunk.min() >= _LIMB_MIN and chunk.max() < _LIMB_MAX):
                size = np.abs(chunk)
                fits = (size < _LIMB_MAX) & ((size >= _LIMB_MIN) | (size == 0))
                for v in chunk[~fits].tolist():
                    mant, exp = math.frexp(v)
                    self._total += int(mant * 2.0**53) << (exp - _EXP_MIN)
                chunk = chunk[fits]
            x = chunk * 2.0**_HI_BITS
            hi = np.floor(x)
            x -= hi
            x *= 2.0**_LO_BITS  # lo, exactly
            limbs = (int(hi.astype(np.int64).sum()) << _LO_BITS) + int(x.astype(np.int64).sum())
            # limbs count units of 2**-(_HI_BITS + _LO_BITS)
            self._total += limbs << (53 - _EXP_MIN - _HI_BITS - _LO_BITS)

    def value(self) -> float:
        return self._total / (1 << (53 - _EXP_MIN))


def _distances_of_cos(c, metric):
    """The chosen distance of cos theta; overwrites c.

    The chordal distance sin(theta / 2) is sqrt((1 - cos theta) / 2), with
    no trigonometric call.
    """
    if metric == "chordal":
        np.subtract(1.0, c, out=c)
        c *= 0.5
        return np.sqrt(c, out=c)
    return np.arccos(c, out=c)


def _point_array(space, pts: PointSet) -> np.ndarray:
    if pts.space != space:
        raise DomainError(f"point set belongs to {pts.space}, expected {space}")
    return pts.points


def _distance_matrix(dm) -> np.ndarray:
    """A precomputed geodesic matrix, validated."""
    dm = np.asarray(dm, dtype=float)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
        raise DomainError("distance matrix must be square")
    if not np.all(np.isfinite(dm)):
        raise DomainError("distance matrix entries must be finite")
    if dm.size and (dm.min() < -1e-12 or dm.max() > math.pi + 1e-9):
        raise DomainError("distance matrix entries must lie in [0, pi] (radians)")
    if dm.size and np.max(np.abs(dm - dm.T)) > 1e-9:
        raise DomainError("distance matrix must be symmetric")
    if dm.size and np.max(np.abs(np.diagonal(dm))) > _DIAGONAL_TOL:
        raise DomainError("distance matrix diagonal must be zero")
    return dm


def _pair_angles(space, pts):
    """(N, angles of the pairs i < j in row order) of a PointSet or distance matrix.

    A point pair's angle comes from its own two embedded rows, a matrix
    pair's is 0.5 * (dm[i, j] + dm[j, i]) clipped to [0, pi], the slack of
    ``_distance_matrix`` removed, so that every route reads the same angles.
    Neither depends on the pair's position or order, so relabelling only
    permutes the angles.  Pairs are taken _SUM_CHUNK at a time, so the
    gathered rows are O(chunk m).
    """
    points = isinstance(pts, PointSet)
    if points:
        E = _embedding(space, _point_array(space, pts))
    else:
        dm = _distance_matrix(pts)
    n = len(E if points else dm)
    theta = np.empty(n * (n - 1) // 2)
    ends = np.cumsum(np.arange(n - 1, -1, -1))  # pairs in rows 0 to i
    for start in range(0, theta.size, _SUM_CHUNK):
        p = np.arange(start, min(start + _SUM_CHUNK, theta.size))
        i = np.searchsorted(ends, p, side="right")
        j = p - ends[i] + n
        if points:
            inner = _inner_pairs(E.take(i, axis=0), E.take(j, axis=0))
            theta[p] = np.arccos(_cos_from_inner(space, inner))
        else:
            theta[p] = np.clip(0.5 * (dm[i, j] + dm[j, i]), 0.0, math.pi)
    return n, theta


def _tiled_pair_sum(space, X, metric) -> float:
    """Pair sum of a stacked point array over the upper triangle, in tiles.

    The points are embedded once.  Each tile is the Gram product of a block
    of embedded rows against a block of columns at or right of it, turned
    into distances as in ``cos_geodesic_matrix``; diagonal tiles keep only
    the entries above their diagonal.  Memory is O(tile^2 + N m).

    The columns come from a transposed copy, so a diagonal tile is not an
    array times its own transpose: BLAS computes that product (syrk) with
    other roundings than the off-diagonal tiles, and relabelling the points
    then changed the last bit of the sum (hp2, N = 73).  For the same reason
    a last block of one point joins the block before it: numpy multiplies
    by a single row or column with gemv (s2, N = 8, tiles of 7).
    """
    n = len(X)
    E = _embedding(space, X)
    cols = E.T.copy()
    acc = _ExactSum()
    starts = list(range(0, n, _PAIR_TILE))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [n]
    upper = np.triu(np.ones((_PAIR_TILE + 1, _PAIR_TILE + 1), dtype=bool), 1)
    for k, (i, i_end) in enumerate(zip(starts, ends)):
        rows = E[i:i_end]
        for j, j_end in zip(starts[k:], ends[k:]):
            vals = _distances_of_cos(_cos_from_inner(space, rows @ cols[:, j:j_end]), metric)
            if i == j:
                vals *= upper[:len(rows), :len(rows)]
            acc.add(vals)
    return 2 * acc.value()


def _count_and_pair_sum(space, pts, metric: str = "chordal"):
    """(N, pair sum) of a PointSet, tile by tile, or of a distance matrix."""
    if metric not in ("chordal", "geodesic"):
        raise DomainError(f"unknown metric {metric!r}")
    if isinstance(pts, PointSet):
        return len(pts), _tiled_pair_sum(space, _point_array(space, pts), metric)
    n, theta = _pair_angles(space, pts)
    if metric == "chordal":
        theta = np.sin(0.5 * theta)
    return n, 2 * _ExactSum(theta).value()


def pair_sum(space: SpaceSpec, pts, metric: str = "chordal") -> float:
    """Sum of the chosen distance over all ordered pairs of distinct indices.

    The diagonal counts as zero.  A PointSet is summed over the upper
    triangle, tile by tile, a distance matrix over the pair angles
    0.5 * (dm[i, j] + dm[j, i]), i < j, clipped to [0, pi], and the total
    doubled.  The sum is exactly rounded: it depends only on the multiset of
    pair distances, not on labelling, tiling or tile order.  Memory is
    O(tile^2 + N m) for a PointSet.
    """
    n, total = _count_and_pair_sum(space, pts, metric)
    if n == 0:
        warnings.warn("pair_sum of an empty point set is 0", stacklevel=2)
    return total


def _closed_from_sum(space, n, tau_sum) -> float:
    """discrepancy_closed from the pair chordal sum of n points."""
    return (avg_chordal(space) * n**2 - tau_sum) / gamma_const(space)


def discrepancy_closed(space: SpaceSpec, pts) -> float:
    """Ball quadratic discrepancy for the canonical radius measure, closed form.

    Rearranges the invariance principle: (<tau> N^2 - pair chordal sum) / gamma.
    The pair sum is the tiled, exactly rounded ``pair_sum``: no N x N array
    is formed for a PointSet, and the value does not depend on labelling.
    """
    return _closed_from_sum(space, *_count_and_pair_sum(space, pts))


# certifiable series accuracy at the term cap degrades like C / theta^2 for
# small angles; C <= 2e-12 measured across the catalog, kept with 10x margin
_SMALL_ANGLE_FLOOR = 2e-11


def discrepancy_series(space: SpaceSpec, pts, tol: float = 1e-8) -> float:
    """Ball quadratic discrepancy summed pairwise from the zonal expansion.

    Works for every catalog space, including the octonionic plane (point
    sets may be given as a geodesic distance matrix).
    Pairs at very small angles are evaluated at a relaxed per-pair tolerance
    (the series cannot certify fixed absolute accuracy as theta -> 0); their
    contribution to the total stays negligible.

    Each pair value is accepted by ``symdiff_series`` through a tail
    certificate, two stable refinements, or the relaxed check at the term
    cap.  The radius measure is the canonical sin(r) dr, whose tail is exact,
    so the first path is a certificate.
    The pair values are summed exactly over ``_pair_angles``, so relabelling
    the points (or permuting a matrix's rows and columns together) leaves the
    result unchanged bit for bit.
    """
    check_tol(tol)
    n, theta = _pair_angles(space, pts)
    mean = avg_symdiff(space)
    with np.errstate(divide="ignore"):
        pair_tol = np.where(theta > 0, np.maximum(tol, _SMALL_ANGLE_FLOOR / theta**2), tol)
    off = symdiff_series(space, theta, pair_tol)
    # kernel(theta) = mean - symdiff(theta); diagonal contributes mean each
    return float(n * mean + 2 * _ExactSum(mean - off).value())


def _block_rng(root, block: int) -> np.random.Generator:
    """The stream of one Monte Carlo block, keyed by the root seed and its index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root,
                                                        spawn_key=(block,)))


def _block_moments(vals):
    """(count, mean, M2) of one block's sample values."""
    mean = float(vals.mean())
    dev = vals - mean
    return vals.size, mean, float(dev @ dev)


def _chan_merge(a, b):
    """(count, mean, M2) of two disjoint samples from those of each part.

    The pairwise update of Chan, Golub & LeVeque, "Algorithms for computing
    the sample variance" (Amer. Statist. 1983).
    """
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * nb / n, m2a + m2b + delta * delta * (na * nb / n)


def _mc_mean(block_values, samples: int, root):
    """(mean, stderr) of ``samples`` values drawn in fixed-size blocks.

    ``samples`` must be an integer >= 2 (for a standard error) and the root
    seed an integer >= 0; DomainError otherwise.  Block k holds samples
    k*_MC_BLOCK onwards (the last one may be short) and draws them by
    ``block_values(stream, count)`` from its own stream
    ``_block_rng(root, k)``.  Blocks run one after another on the calling
    thread and their moments are merged in block order, so memory is
    O(block) whatever the sample count.
    """
    samples = check_order(samples, 2, "samples")
    root = check_order(root, 0, "seed")

    def run(k):
        count = min(_MC_BLOCK, samples - k * _MC_BLOCK)
        return _block_moments(block_values(_block_rng(root, k), count))

    n, mean, m2 = functools.reduce(_chan_merge, map(run, range(-(-samples // _MC_BLOCK))))
    return mean, math.sqrt(m2 / (n - 1) / n)


def _count_within(space, inner, scale, cos_r):
    """Per column j, the number of rows i with a inner[i, j] / scale[j] + b > cos_r[j].

    ``cos_r`` holds the cosines of the centres' radii, 1 - 2u in
    ``discrepancy_mc``.  ``inner`` holds <E(x_i), E(g_j)> for raw centres
    g_j, whose embedding is scale[j] times that of the point g_j / |g_j|
    (``_embedding_scale``), and (a, b) are the ``_cos_affine`` constants.
    Column j is compared with one threshold, scale[j] (cos_r[j] - b) / a, or
    +inf where cos_r[j] = 1, since no cosine exceeds 1.  NaN is never
    counted.  A count is at most the number of rows, so it is summed in the
    smallest unsigned type that holds that number.
    """
    a, b = _cos_affine(space)
    threshold = np.where(cos_r < 1.0, scale * ((cos_r - b) / a), np.inf)
    inside = inner > threshold
    return inside.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(len(inner)))


def discrepancy_mc(space: SpaceSpec, pts: PointSet, samples: int,
                   seed: int = 0) -> McEstimate:
    """Unbiased Monte Carlo estimate of the ball quadratic discrepancy.

    Centers are drawn uniformly and radii with density sin(r)/2 on [0, pi];
    the factor 2 restores the canonical measure's total mass.  The radius is
    never formed: a block draws u = sin^2(r/2), uniform on [0, 1), and uses
    cos r = 1 - 2u and the ball volume I_u(d/2, d0/2) (``reg_inc_beta``).
    1 - 2u is exact, and ``reg_inc_beta`` takes 1 - u only for u above the
    mean d / (d + d0) >= 1/2, where that difference is exact, so the volume
    has the accuracy of the incomplete beta.  Ball membership uses the
    strict inequality theta < r.  Deterministic for a fixed seed.
    ``samples`` must be an integer >= 2 and ``seed`` an integer >= 0.
    Blocks run on the calling thread; BLAS uses the cores for each block's
    matrix product.

    A block draws its centres as raw Gaussian rows g, never normalised:
    the embedding is homogeneous, embed(g) = s embed(g / |g|) with s = |g|
    on spheres and |g|^2 otherwise, so the test a <E(x), E(g/|g|)> + b > cos r
    is <E(x), E(g)> > s (cos r - b) / a, one threshold per centre
    (``_count_within``).  The counts equal those of the normalised centres
    in exact arithmetic and can differ only where cos theta lies within
    rounding of cos r.
    """
    if not isinstance(pts, PointSet):
        raise DomainError("the Monte Carlo route requires an explicit point set")
    samples = check_order(samples, 2, "samples")
    seed = check_order(seed, 0, "seed")
    X = _point_array(space, pts)
    n = len(pts)
    E = _embedding(space, X)  # once, not per block

    def block_values(stream, count):
        g = _gaussian_rows(space, count, stream)
        u = stream.random(count)
        cols = _embedding_cols(space, g)
        scale = _embedding_scale(space, g, cols)
        # (n, count); the centres go in coordinate-major, as they are built.
        # An entry may then differ in its last bit from cos_geodesic_matrix's
        # (see _embedding), which moves a count only if cos r falls between
        # the two roundings
        inner = E @ cols
        del cols  # not held through the comparison, which peaks the block's memory
        dev = (_count_within(space, inner, scale, 1 - 2 * u)
               - n * reg_inc_beta(u, space.d / 2, space.d0 / 2))
        return 2.0 * dev * dev

    value, stderr = _mc_mean(block_values, samples, seed)
    return McEstimate(value, stderr, samples, seed)


def invariance_residual(space: SpaceSpec, pts, route: str = "closed",
                        tol: float = 1e-8, samples: int = 100_000, seed: int = 0):
    """Residual gamma * lambda + tau[D] - <tau> N^2 of the invariance principle.

    Every route uses the canonical radius measure, whose constants gamma and
    <tau> are.  The closed route vanishes to rounding by construction
    (regression guard); the series and Monte Carlo routes are genuine
    checks.  The Monte Carlo route returns an McEstimate whose stderr is
    scaled by gamma.  On every route tau[D] is the exactly rounded chordal
    ``pair_sum``, taken after the route has checked its arguments.
    """
    if route not in ("closed", "series", "mc"):
        raise DomainError(f"unknown route {route!r}")
    if route == "mc":
        est = discrepancy_mc(space, pts, samples, seed=seed)
    elif route == "series":
        lam = discrepancy_series(space, pts, tol=tol)
    gam = gamma_const(space)
    n, tau_sum = _count_and_pair_sum(space, pts)
    target = avg_chordal(space) * n**2
    if route == "mc":
        return McEstimate(gam * est.value + tau_sum - target,
                          gam * est.stderr, est.samples, est.seed)
    if route == "closed":
        lam = _closed_from_sum(space, n, tau_sum)
    return gam * lam + tau_sum - target
