"""Point-set functionals: pairwise sums, ball quadratic discrepancy by three
routes, symmetric-difference values, and invariance-principle residuals.

The Monte Carlo route samples centers and radii jointly; the direct
symmetric-difference estimator deliberately uses the opposite nesting
(outer radius quadrature, inner membership counting) so the two remain
independent cross-checks.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .harmonic import avg_symdiff, symdiff_series
from .spaces import (
    Point,
    PointSet,
    RadiusMeasure,
    SpaceSpec,
    avg_chordal,
    ball_volume,
    cos_geodesic_matrix,
    gamma_const,
    sample_uniform,
)

__all__ = [
    "McEstimate",
    "pair_sum",
    "discrepancy_closed",
    "discrepancy_series",
    "discrepancy_mc",
    "symdiff_direct",
    "lp_symdiff",
    "invariance_residual",
]

_MC_BATCH = 65_536


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int


def _geodesic_matrix_of(space, pts):
    """Pairwise geodesic matrix from a PointSet or a precomputed matrix."""
    if isinstance(pts, PointSet):
        if pts.space != space:
            raise DomainError(f"point set belongs to {pts.space}, expected {space}")
        X = pts.points
        if len(pts) == 0:
            return np.zeros((0, 0))
        return np.arccos(cos_geodesic_matrix(space, X, X))
    dm = np.asarray(pts, dtype=float)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
        raise DomainError("distance matrix must be square")
    if not np.all(np.isfinite(dm)):
        raise DomainError("distance matrix entries must be finite")
    if dm.size and (dm.min() < -1e-12 or dm.max() > math.pi + 1e-9):
        raise DomainError("distance matrix entries must lie in [0, pi] (radians)")
    if dm.size and np.max(np.abs(dm - dm.T)) > 1e-9:
        raise DomainError("distance matrix must be symmetric")
    return dm


def pair_sum(space: SpaceSpec, pts, metric: str = "chordal") -> float:
    """Sum of the chosen distance over all ordered pairs (diagonal included)."""
    dm = _geodesic_matrix_of(space, pts)
    if dm.shape[0] == 0:
        warnings.warn("pair_sum of an empty point set is 0", stacklevel=2)
        return 0.0
    return _pair_sum_of(dm, metric)


def _pair_sum_of(dm, metric: str = "chordal") -> float:
    """pair_sum of an already validated geodesic matrix."""
    if metric == "chordal":
        vals = np.sin(dm / 2)
    elif metric == "geodesic":
        vals = dm.copy()
    else:
        raise DomainError(f"unknown metric {metric!r}")
    np.fill_diagonal(vals, 0.0)
    # exactly-rounded summation: the result depends only on the multiset of
    # distances, not on point labelling
    return math.fsum(vals.ravel())


def _closed_from_sum(space, n, tau_sum) -> float:
    """discrepancy_closed from the pair chordal sum of n points."""
    return (avg_chordal(space) * n**2 - tau_sum) / gamma_const(space)


def discrepancy_closed(space: SpaceSpec, pts) -> float:
    """Ball quadratic discrepancy for the canonical radius measure, closed form.

    Rearranges the invariance principle: (<tau> N^2 - pair chordal sum) / gamma.
    """
    dm = _geodesic_matrix_of(space, pts)
    n = dm.shape[0]
    return _closed_from_sum(space, n, _pair_sum_of(dm) if n else 0.0)


# certifiable series accuracy at the term cap degrades like C / theta^2 for
# small angles; C <= 2e-12 measured across the catalog, kept with 10x margin
_SMALL_ANGLE_FLOOR = 2e-11


def discrepancy_series(space: SpaceSpec, pts, measure: RadiusMeasure = None,
                       tol: float = 1e-8) -> float:
    """Ball quadratic discrepancy summed pairwise from the zonal expansion.

    Works for any radius measure and for every catalog space, including the
    octonionic plane (point sets may be given as a geodesic distance matrix).
    Pairs at very small angles are evaluated at a relaxed per-pair tolerance
    (the series cannot certify fixed absolute accuracy as theta -> 0); their
    contribution to the total stays negligible.

    Each pair value is accepted by ``symdiff_series`` through a tail
    certificate, two stable refinements, or the relaxed check at the term
    cap.  Only under the canonical measure is the tail exact and the first
    path a certificate; under a point-mass measure the tail is an
    extrapolated 1/l^2 estimate, so the total is an estimate too.
    """
    return _series_of(space, _geodesic_matrix_of(space, pts), measure, tol)


def _series_of(space, dm, measure, tol) -> float:
    """discrepancy_series of an already validated geodesic matrix."""
    if measure is None:
        measure = RadiusMeasure.canonical()
    n = dm.shape[0]
    if n == 0:
        return 0.0
    mean = avg_symdiff(space, measure)
    theta = dm[np.triu_indices(n, k=1)]
    if theta.size:
        with np.errstate(divide="ignore"):
            pair_tol = np.where(theta > 0,
                                np.maximum(tol, _SMALL_ANGLE_FLOOR / theta**2),
                                tol)
        off = symdiff_series(space, theta, measure, pair_tol)
    else:
        off = np.zeros(0)
    # kernel(theta) = mean - symdiff(theta); diagonal contributes mean each
    return float(n * mean + 2 * np.sum(mean - off))


def _shard_sizes(total: int, workers: int):
    base = total // workers
    out = [base] * workers
    for i in range(total - base * workers):
        out[i] += 1
    return [s for s in out if s > 0]


def _mc_shard(space, X, n, seed, shard_index, count):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(shard_index,)))
    vals = np.empty(count)
    done = 0
    while done < count:
        batch = min(_MC_BATCH, count - done)
        centers = sample_uniform(space, batch, rng).points
        r = np.arccos(1 - 2 * rng.random(batch))
        cosd = cos_geodesic_matrix(space, X, centers)  # (n, batch)
        counts = np.sum(cosd > np.cos(r)[None, :], axis=0)
        v = ball_volume(space, r)
        vals[done:done + batch] = 2.0 * (counts - n * v) ** 2
        done += batch
    return vals


def discrepancy_mc(space: SpaceSpec, pts: PointSet, samples: int,
                   seed: int = 0, workers: int = 1) -> McEstimate:
    """Unbiased Monte Carlo estimate of the ball quadratic discrepancy.

    Centers are drawn uniformly and radii with density sin(r)/2 on [0, pi]
    (inverse CDF r = arccos(1 - 2u)); the factor 2 restores the canonical
    measure's total mass.  Ball membership uses the strict inequality
    theta < r.  Deterministic for fixed (seed, workers).
    """
    if not isinstance(pts, PointSet):
        raise DomainError("the Monte Carlo route requires an explicit point set")
    if pts.space != space:
        raise DomainError(f"point set belongs to {pts.space}, expected {space}")
    if samples < 2:
        raise DomainError("need at least 2 samples for a standard error")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    n = len(pts)
    X = pts.points
    sizes = _shard_sizes(int(samples), int(workers))
    if len(sizes) == 1:
        chunks = [_mc_shard(space, X, n, seed, 0, sizes[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(sizes)) as ex:
            futs = [ex.submit(_mc_shard, space, X, n, seed, i, c)
                    for i, c in enumerate(sizes)]
            chunks = [f.result() for f in futs]
    vals = np.concatenate(chunks)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return McEstimate(value, stderr, int(samples), int(seed))


def symdiff_direct(space: SpaceSpec, x, y, measure: RadiusMeasure = None,
                   mc_samples: int = 100_000, rng: np.random.Generator = None,
                   seed: int = 0) -> McEstimate:
    """Symmetric-difference distance by quadrature over radii with Monte Carlo
    volume estimates of the ball intersections.

    Independent of the zonal expansion; serves as its stochastic oracle.
    """
    if measure is None:
        measure = RadiusMeasure.canonical()
    if rng is None:
        rng = np.random.default_rng(seed)
    if mc_samples < 2:
        raise DomainError("need at least 2 samples for a standard error")
    xd = x.data if isinstance(x, Point) else Point(space, np.asarray(x, float)).data
    yd = y.data if isinstance(y, Point) else Point(space, np.asarray(y, float)).data
    r_nodes, r_weights = measure.rule()
    const = float(np.dot(r_weights, ball_volume(space, r_nodes)))
    pair = np.stack([xd, yd])
    gvals = np.empty(int(mc_samples))
    done = 0
    while done < mc_samples:
        batch = min(_MC_BATCH, int(mc_samples) - done)
        z = sample_uniform(space, batch, rng).points
        cosd = cos_geodesic_matrix(space, pair, z)  # (2, batch)
        cos_r = np.cos(r_nodes)
        both = (cosd[0][:, None] > cos_r[None, :]) & (cosd[1][:, None] > cos_r[None, :])
        gvals[done:done + batch] = both @ r_weights
        done += batch
    value = const - float(gvals.mean())
    stderr = float(gvals.std(ddof=1) / math.sqrt(gvals.size))
    return McEstimate(value, stderr, int(mc_samples), int(seed))


def lp_symdiff(space: SpaceSpec, theta, measure: RadiusMeasure = None,
               p: float = 1.0, tol: float = 1e-8):
    """The L_p version of the symmetric-difference metric: its p-th root."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    base = symdiff_series(space, theta, measure, tol)
    return base ** (1.0 / p)


def invariance_residual(space: SpaceSpec, pts, route: str = "closed",
                        measure: RadiusMeasure = None, tol: float = 1e-8,
                        samples: int = 100_000, seed: int = 0, workers: int = 1):
    """Residual gamma * lambda + tau[D] - <tau> N^2 of the invariance principle.

    The closed route vanishes to rounding by construction (regression guard);
    the series and Monte Carlo routes are genuine checks.  The Monte Carlo
    route returns an McEstimate whose stderr is scaled by gamma.
    """
    dm = _geodesic_matrix_of(space, pts)
    n = dm.shape[0]
    gam = gamma_const(space)
    tau_sum = _pair_sum_of(dm) if n else 0.0
    target = avg_chordal(space) * n**2
    if route == "closed":
        lam = _closed_from_sum(space, n, tau_sum)
        return gam * lam + tau_sum - target
    if route == "series":
        lam = _series_of(space, dm, measure, tol)
        return gam * lam + tau_sum - target
    if route == "mc":
        est = discrepancy_mc(space, pts, samples, seed=seed, workers=workers)
        return McEstimate(gam * est.value + tau_sum - target,
                          gam * est.stderr, est.samples, est.seed)
    raise DomainError(f"unknown route {route!r}")
