"""Property-based checks: the pair sum under relabelling and isometries, the
series and Monte Carlo discrepancy routes under relabelling and isometries,
the series route against the closed route, the exact accumulator against
math.fsum, and file round trips."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosp import discrepancy, io
from crosp.discrepancy import (discrepancy_closed, discrepancy_mc, discrepancy_series,
                               pair_sum)
from crosp.spaces import PointSet, chart_point_oct, parse_space, sample_uniform

S2 = parse_space("s2")
CP2 = parse_space("cp2")

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(2, 300)
small_sizes = st.integers(2, 12)
codes = st.sampled_from(["s2", "cp2", "hp2"])
metrics = st.sampled_from(["chordal", "geodesic"])
# one tile, several tiles, and tiles that split the point set unevenly
tiles = st.sampled_from([7, 64, 512])


def _orthogonal(rng, n, dtype=float):
    """A Haar-random orthogonal (or, for complex dtype, unitary) matrix."""
    g = rng.standard_normal((n, n))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _relabelled(code, n, seed):
    """A uniform point set of n points and the same points in random order."""
    space = parse_space(code)
    rng = np.random.default_rng(seed)
    pts = sample_uniform(space, n, rng)
    return space, pts, PointSet(space, pts.points[rng.permutation(n)])


def _moved(space, pts, rng):
    """pts moved by a random isometry: a rotation of s2 or a unitary map of C^3."""
    if space == S2:
        return PointSet(S2, pts.points @ _orthogonal(rng, 3).T)
    z = pts.points[..., 0] + 1j * pts.points[..., 1]
    w = z @ _orthogonal(rng, 3, complex).T
    return PointSet(CP2, np.stack([w.real, w.imag], axis=-1))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, metric=metrics, tile=tiles, code=codes)
# a diagonal tile formed as an array times its own transpose (BLAS syrk)
# changed the last bit of this sum
@example(seed=201, n=73, metric="geodesic", tile=512, code="hp2")
def test_pair_sum_bit_identical_under_permutation(seed, n, metric, tile, code):
    space, pts, shuffled = _relabelled(code, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "_PAIR_TILE", tile)
        assert pair_sum(space, shuffled, metric) == pair_sum(space, pts, metric)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, metric=metrics)
def test_pair_sum_invariant_under_rotation_s2(seed, n, metric):
    rng = np.random.default_rng(seed)
    pts = sample_uniform(S2, n, rng)
    moved = PointSet(S2, pts.points @ _orthogonal(rng, 3).T)
    assert pair_sum(S2, moved, metric) == pytest.approx(pair_sum(S2, pts, metric),
                                                        rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, metric=metrics)
def test_pair_sum_invariant_under_unitary_map_cp2(seed, n, metric):
    # cp2 representatives are rows of three complex numbers stored as
    # (real, imaginary) pairs; a unitary map of C^3 is an isometry
    rng = np.random.default_rng(seed)
    pts = sample_uniform(CP2, n, rng)
    z = pts.points[..., 0] + 1j * pts.points[..., 1]
    w = z @ _orthogonal(rng, 3, complex).T
    moved = PointSet(CP2, np.stack([w.real, w.imag], axis=-1))
    assert pair_sum(CP2, moved, metric) == pytest.approx(pair_sum(CP2, pts, metric),
                                                         rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(seed=seeds, n=small_sizes, code=codes)
def test_discrepancy_mc_bit_identical_under_permutation(seed, n, code):
    # centres and radii do not depend on the labels and a block's ball
    # counts are integers, so a bit could move only if a Gram entry rounded
    # by its position fell within that rounding of cos r
    space, pts, shuffled = _relabelled(code, n, seed)
    assert (discrepancy_mc(space, shuffled, 20_000, seed=seed)
            == discrepancy_mc(space, pts, 20_000, seed=seed))


@settings(max_examples=12, deadline=None)
@given(seed=seeds, n=small_sizes, code=codes)
def test_discrepancy_series_invariant_under_permutation(seed, n, code):
    space, pts, shuffled = _relabelled(code, n, seed)
    assert discrepancy_series(space, shuffled) == discrepancy_series(space, pts)


def _pair_tol(space, pts, tol):
    """The tolerance at which discrepancy_series accepts each pair of pts."""
    theta = discrepancy._pair_angles(space, pts)[1]
    return np.maximum(tol, discrepancy._SMALL_ANGLE_FLOOR / theta**2)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=small_sizes, code=codes)
def test_series_route_agrees_with_closed_route(seed, n, code):
    # each pair is accepted at its own tolerance: tol, relaxed to
    # _SMALL_ANGLE_FLOOR / theta^2 for close pairs, as discrepancy_series sets
    # it.  Pairs enter the sum twice, so the total is within 2 * sum(pair_tol)
    # of the closed value.  The tail path is a certificate under the canonical
    # measure; the stable-refinement path is not, and this property checks
    # that it holds to the same tolerance.
    space = parse_space(code)
    pts = sample_uniform(space, n, np.random.default_rng(seed))
    tol = 1e-8
    assert (abs(discrepancy_series(space, pts, tol=tol) - discrepancy_closed(space, pts))
            <= 2 * _pair_tol(space, pts, tol).sum())


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=small_sizes, code=st.sampled_from(["s2", "cp2"]))
def test_series_route_invariant_under_isometry(seed, n, code):
    # a rotation of s2 or a unitary map of C^3 moves no pair angle but its
    # rounding; each set's series value is within 2 * sum(pair_tol) of the
    # exact discrepancy, so the two are within the sum of both bounds
    space = parse_space(code)
    rng = np.random.default_rng(seed)
    pts = sample_uniform(space, n, rng)
    moved = _moved(space, pts, rng)
    tol = 1e-8
    bound = 2 * (_pair_tol(space, pts, tol).sum() + _pair_tol(space, moved, tol).sum())
    assert abs(discrepancy_series(space, moved, tol=tol)
               - discrepancy_series(space, pts, tol=tol)) <= bound


# derandomized, so the examples, and with them the estimates, are fixed: a
# 4-sigma bound fails by chance at about one estimate in 16 000
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=seeds, n=small_sizes, code=st.sampled_from(["s2", "cp2"]))
def test_mc_route_invariant_under_isometry(seed, n, code):
    # an isometry moves no ball count but by rounding, so the estimate for
    # the moved set estimates the discrepancy of the unmoved one, which the
    # closed route gives to rounding
    space = parse_space(code)
    rng = np.random.default_rng(seed)
    pts = sample_uniform(space, n, rng)
    est = discrepancy_mc(space, _moved(space, pts, rng), 50_000, seed=seed)
    assert abs(est.value - discrepancy_closed(space, pts)) <= 4 * est.stderr


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(-2.0**1000, 2.0**1000), st.floats(-4.0, 4.0)),
                       max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=6), chunk=st.sampled_from([1, 3, 97]))
def test_exact_sum_equals_fsum(values, cuts, chunk):
    # any finite doubles, both signs, subnormals and |v| up to 2**1000 (60 of
    # them sum to below 2**1006, finite), under any block split and chunk
    values = np.array(values, dtype=float)
    acc = discrepancy._ExactSum()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "_SUM_CHUNK", chunk)
        for block in np.split(values, np.minimum(sorted(cuts), values.size)):
            acc.add(block)
    assert acc.value() == math.fsum(values.tolist())


@settings(max_examples=15, deadline=None)
# labels with quotes, backslashes, control and non-ASCII characters; an
# explicit alphabet spares hypothesis its Unicode table
@given(seed=seeds, n=st.integers(1, 30),
       label=st.text('a "\\\n\t\x00é∂\U0001d11e', max_size=12),
       code=st.sampled_from(["s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"]))
def test_point_set_json_round_trip(seed, n, label, code):
    # the shortest round-trip repr names every double exactly
    space, rng = parse_space(code), np.random.default_rng(seed)
    if code == "op2":
        # no uniform sampler: Jordan idempotents from Gaussian chart coordinates
        rows = [chart_point_oct(rng.standard_normal(8), rng.standard_normal(8)).data
                for _ in range(n)]
        pts = PointSet(space, np.stack(rows), label)
    else:
        pts = sample_uniform(space, n, rng, label=label)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pts.json"
        io.save_pointset(path, pts)
        back = io.load_pointset(path)
    assert back.space == pts.space and back.label == pts.label
    assert back.points.dtype == pts.points.dtype
    assert back.points.tobytes() == pts.points.tobytes()


@settings(max_examples=15, deadline=None)
@given(dm=st.integers(1, 8).flatmap(lambda n: arrays(
    np.float64, (n, n), elements=st.floats(allow_nan=False, allow_infinity=False))))
def test_distance_matrix_csv_round_trip(dm):
    # any finite double, subnormals and signed zeros included
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dm.csv"
        io.save_distance_matrix(path, dm)
        back = io.load_distance_matrix(path)
    assert back.dtype == np.float64 and back.shape == dm.shape
    assert back.tobytes() == dm.tobytes()
