"""Pair sums, the three discrepancy routes, and invariance residuals."""

import functools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from crosp import algebra, discrepancy, harmonic, spaces
from crosp.discrepancy import (
    McEstimate,
    discrepancy_closed,
    discrepancy_mc,
    discrepancy_series,
    invariance_residual,
    pair_sum,
)
from crosp.errors import DomainError, UnsupportedSpaceError
from crosp.harmonic import avg_symdiff, symdiff_series
from crosp.specfun import reg_inc_beta
from crosp.spaces import (
    Point,
    PointSet,
    avg_chordal,
    ball_volume,
    chart_point_oct,
    cos_geodesic_matrix,
    embed,
    gamma_const,
    geodesic_matrix,
    make_space,
    parse_space,
    sample_uniform,
)

S1 = parse_space("s1")
S2 = parse_space("s2")
S3 = parse_space("s3")
HP2 = parse_space("hp2")
CP2 = parse_space("cp2")
OP2 = parse_space("op2")

ANTIPODAL_S1 = PointSet.from_points(S1, [np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
LAMBDA_ANTIPODAL = 16 / math.pi**2 - 4 / math.pi


class TestPairSum:
    def test_single_point(self):
        pts = PointSet.from_points(S2, [np.array([0.0, 0.0, 1.0])])
        assert pair_sum(S2, pts) == 0.0

    def test_antipodal_chordal(self):
        assert pair_sum(S1, ANTIPODAL_S1) == pytest.approx(2.0, rel=1e-14)

    def test_half_euclidean_sum(self):
        # chordal pair sum equals half the sum of Euclidean chord lengths
        rng = np.random.default_rng(8)
        pts = sample_uniform(S3, 40, rng)
        x = pts.points
        chords = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        assert pair_sum(S3, pts) == pytest.approx(chords.sum() / 2, rel=1e-16 * 100)

    def test_empty_warns(self):
        pts = PointSet.from_points(S2, [])
        with pytest.warns(UserWarning):
            assert pair_sum(S2, pts) == 0.0

    def test_geodesic_metric(self):
        assert pair_sum(S1, ANTIPODAL_S1, metric="geodesic") == pytest.approx(
            2 * math.pi, rel=1e-14)

    def test_distance_matrix_input(self):
        # the tiled upper-triangle sum of a point set against its full matrix
        rng = np.random.default_rng(9)
        for space, n in ((S2, 15), (S2, discrepancy._PAIR_TILE + 150),
                         (CP2, discrepancy._PAIR_TILE + 150)):
            pts = sample_uniform(space, n, rng)
            dm = geodesic_matrix(space, pts.points)
            for metric in ("chordal", "geodesic"):
                assert pair_sum(space, dm, metric) == pytest.approx(
                    pair_sum(space, pts, metric), rel=1e-14)

    def test_duplicate_point_adds_twice_its_distances(self):
        rng = np.random.default_rng(10)
        pts = sample_uniform(S2, 12, rng)
        x = pts.points[0]
        extended = PointSet(S2, np.vstack([pts.points, x[None]]))
        increment = 2 * sum(
            math.sin(0.5 * float(np.arccos(np.clip(np.dot(x, y), -1, 1))))
            for y in pts.points
        )
        assert pair_sum(S2, extended) == pytest.approx(pair_sum(S2, pts) + increment,
                                                       rel=1e-12)

    def test_tile_size_invariant(self, monkeypatch):
        rng = np.random.default_rng(17)
        pts = sample_uniform(CP2, 300, rng)
        expected = pair_sum(CP2, pts)
        for tile in (7, 64, 299, 300):
            monkeypatch.setattr(discrepancy, "_PAIR_TILE", tile)
            assert pair_sum(CP2, pts) == expected

    @pytest.mark.parametrize("n, seed", [(8, 2), (8, 40), (8, 47792420), (15, 4)])
    def test_one_point_edge_block_keeps_relabelling_invariance(self, n, seed, monkeypatch):
        # with tiles of 7, a last block of one point went through gemv, whose
        # roundings differ, and these relabellings changed the last bit
        monkeypatch.setattr(discrepancy, "_PAIR_TILE", 7)
        rng = np.random.default_rng(seed)
        pts = sample_uniform(S2, n, rng)
        shuffled = PointSet(S2, pts.points[rng.permutation(n)])
        assert pair_sum(S2, shuffled) == pair_sum(S2, pts)

    def test_chunk_and_tile_size_invariant(self, monkeypatch):
        # the total is the exactly rounded sum of the kernel's entries,
        # whatever the tile and the accumulator chunk
        rng = np.random.default_rng(23)
        for space in (S2, HP2):
            pts = sample_uniform(space, 700, rng)
            cos = cos_geodesic_matrix(space, pts.points, pts.points)
            for metric in ("chordal", "geodesic"):
                vals = discrepancy._distances_of_cos(cos.copy(), metric)
                expected = 2 * math.fsum(vals[np.triu_indices(700, 1)].tolist())
                for tile, chunk in ((7, 97), (64, 4096), (333, 32_768), (700, 2**20)):
                    monkeypatch.setattr(discrepancy, "_PAIR_TILE", tile)
                    monkeypatch.setattr(discrepancy, "_SUM_CHUNK", chunk)
                    assert pair_sum(space, pts, metric) == expected, (space, metric, tile)

    def test_unknown_metric(self):
        with pytest.raises(DomainError):
            pair_sum(S1, ANTIPODAL_S1, metric="taxicab")

    def test_distance_matrix_diagonal_must_vanish(self):
        bad = np.array([[0.5, 1.0], [1.0, 0.5]])
        for fn in (pair_sum, discrepancy_closed, discrepancy_series):
            with pytest.raises(DomainError, match="diagonal"):
                fn(S2, bad)
        with pytest.raises(DomainError, match="diagonal"):
            invariance_residual(S2, bad, route="series")
        # arccos of a rounded cosine leaves noise of about 1e-7 on the diagonal
        noisy = np.array([[5e-7, 1.0], [1.0, -5e-13]])
        assert pair_sum(S2, noisy) == 2 * math.sin(0.5)

    def test_memory_bounded_by_tiles(self):
        # one dense 3000 x 3000 float64 array is 72 MB; the tiled sum never
        # holds one
        pts = sample_uniform(S2, 3000, np.random.default_rng(18))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            pair_sum(S2, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 72e6 / 6


def _split_sum(values, cuts):
    acc = discrepancy._ExactSum()
    for block in np.split(values, cuts):
        acc.add(block)
    return acc.value()


class TestExactSum:
    """The pair-sum accumulator equals math.fsum bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(19)
        tiny = 5e-324
        mixed = rng.random(5000) * 2.0 ** rng.integers(-1074, 3, 5000)
        return {
            "zeros": np.zeros(1000),
            "subnormals": tiny * rng.integers(1, 2**40, 3000),
            "signed_subnormals": tiny * rng.integers(-2**52, 2**52, 3000),
            "one_minus_ulp": np.full(70_001, 1 - 2**-53),
            "mixed_exponents": mixed,
            "signed_mixed": mixed * rng.choice([-1.0, 1.0], mixed.size),
            "cancelling": np.concatenate([mixed, -mixed[::-1], [2.0**-1074]]),
            "halfway": np.array([1.0, 2.0**-53, 2.0**-106]),
            "large": rng.random(2000) * 2.0**1000,
        }

    @staticmethod
    def limb_cases():
        """Chunks inside the range of the integer limbs, {0} u [2**-30, 4)."""
        rng = np.random.default_rng(21)
        floor = 2.0**-30
        # full 53-bit mantissas across the whole range
        spread = 2.0 ** rng.uniform(-30, 2, 5000)
        return {
            "limb_zeros": np.zeros(40_000),
            "limb_floor": np.concatenate([np.repeat([floor, np.nextafter(floor, 1)], 300),
                                          np.zeros(7), spread]),
            "limb_2m27": np.concatenate([np.full(999, 2.0**-27), np.full(70_001, 1 - 2**-53),
                                         spread[:100]]),
            "limb_ones": np.ones(70_001),
            "limb_below_four": np.concatenate([np.full(3000, np.nextafter(4.0, 0)), spread]),
            "limb_near_pi": np.concatenate([np.repeat([np.nextafter(math.pi, 0), math.pi,
                                                       np.nextafter(math.pi, 4)], 500),
                                            rng.uniform(3.1, 3.2, 3000)]),
            "limb_spread": spread,
            # 2**-29 + 2**-81 + 2**-82: half an ulp above, rounds to even
            "limb_halfway": np.array([2.0**-30 + 2.0**-82, 2.0**-30 + 2.0**-81]),
            # the limbs are signed: hi = floor(v * 2**40) and 0 <= lo < 2**43
            "limb_negative": np.concatenate([spread, [-0.75], spread[:10]]),
            "limb_signed": spread * rng.choice([-1.0, 1.0], spread.size),
            "limb_negative_edges": np.repeat([-floor, -np.nextafter(floor, 1),
                                              -np.nextafter(4.0, 0), -math.pi, -1.0], 300),
            "limb_negative_zero": np.concatenate([np.full(5, -0.0), -spread[:100], [0.0]]),
            "limb_only_negative_zeros": np.full(7, -0.0),
            "limb_cancelling": np.concatenate([spread, -spread[::-1]]),
        }

    @staticmethod
    def fallback_cases():
        """Chunks the limbs cannot hold: each mixes limb values with others."""
        rng = np.random.default_rng(22)
        spread = 2.0 ** rng.uniform(-30, 2, 3000)
        floor = 2.0**-30
        cases = {
            "below_floor": [np.nextafter(floor, 0)],
            "floor_over_four": [2.0**-32 + 2.0**-84],
            "tiny": [1e-12 * (1 + 2**-52)],
            "far_below_floor": [1e-300],
            "subnormal": [5e-324, 7 * 5e-324],
            "negative_tiny": [-2.0**-40],
            "negative_subnormal": [-5e-324],
            "minus_four": [-4.0],
            "four": [4.0],
            "large": [2.0**60 + 2.0**8],
        }
        return {f"mixed_{k}": np.concatenate([spread, v, spread[:10]]) for k, v in cases.items()} \
            | {f"alone_{k}": np.concatenate([np.zeros(3), v]) for k, v in cases.items()}

    def all_cases(self):
        return self.cases() | self.limb_cases() | self.fallback_cases()

    def test_matches_fsum(self):
        for name, values in self.all_cases().items():
            acc = discrepancy._ExactSum()
            acc.add(values)
            assert acc.value() == math.fsum(values.tolist()), name

    def test_limb_path_taken(self, monkeypatch):
        # the range cases never reach the per-value path (math.frexp); the
        # others reach it for their out-of-range values only
        seen = []

        def frexp(v):
            seen.append(v)
            return math.frexp(v)
        monkeypatch.setattr(discrepancy, "math", SimpleNamespace(frexp=frexp))
        for limbs_only, cases in ((True, self.limb_cases()), (False, self.fallback_cases())):
            for name, values in cases.items():
                size = np.abs(values)
                outside = values[(size != 0) & ((size < 2.0**-30) | (size >= 4))]
                assert (outside.size == 0) == limbs_only, name
                seen.clear()
                assert discrepancy._ExactSum(values).value() == math.fsum(values.tolist()), name
                assert sorted(seen) == sorted(outside.tolist()), name

    def test_block_split_and_order_invariant(self, monkeypatch):
        rng = np.random.default_rng(20)
        # small chunks: chunks of limbs alone, of per-value values alone, and mixed
        monkeypatch.setattr(discrepancy, "_SUM_CHUNK", 97)
        for name, values in self.all_cases().items():
            expected = math.fsum(values.tolist())
            for _ in range(3):
                cuts = np.sort(rng.integers(0, values.size + 1, rng.integers(0, 20)))
                shuffled = rng.permutation(values)
                assert _split_sum(shuffled, cuts) == expected, name


class TestClosedRoute:
    def test_single_point(self):
        pts = PointSet.from_points(S2, [np.array([0.0, 0.0, 1.0])])
        expected = avg_chordal(S2) / gamma_const(S2)
        assert discrepancy_closed(S2, pts) == pytest.approx(expected, rel=1e-14)

    def test_antipodal_pair_value(self):
        assert discrepancy_closed(S1, ANTIPODAL_S1) == pytest.approx(
            LAMBDA_ANTIPODAL, abs=1e-12)

    def test_coincident_points(self):
        x = np.array([0.0, 0.0, 1.0])
        pts = PointSet.from_points(S2, [x, x, x])
        expected = avg_chordal(S2) * 9 / gamma_const(S2)
        assert discrepancy_closed(S2, pts) == pytest.approx(expected, rel=1e-13)

    def test_label_permutation_invariant(self):
        rng = np.random.default_rng(12)
        # one tile, and more than one tile (the upper triangle of one
        # labelling holds pairs of the lower triangle of the other)
        for space, n in ((S2, 20), (S2, discrepancy._PAIR_TILE + 77),
                         (CP2, discrepancy._PAIR_TILE + 77)):
            pts = sample_uniform(space, n, rng)
            shuffled = PointSet(space, pts.points[rng.permutation(n)])
            assert discrepancy_closed(space, shuffled) == discrepancy_closed(space, pts)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for code in ("s1", "s2", "cp2"):
            space = parse_space(code)
            for n in (1, 5, 40):
                pts = sample_uniform(space, n, rng)
                assert discrepancy_closed(space, pts) >= 0.0


class TestSeriesRoute:
    def test_single_point(self):
        pts = PointSet.from_points(S2, [np.array([0.0, 0.0, 1.0])])
        assert discrepancy_series(S2, pts) == pytest.approx(avg_symdiff(S2), rel=1e-12)

    def test_matches_closed_on_random_sets(self):
        rng = np.random.default_rng(14)
        for n in (2, 10, 30):
            pts = sample_uniform(S2, n, rng)
            lam_c = discrepancy_closed(S2, pts)
            lam_s = discrepancy_series(S2, pts, tol=1e-9)
            assert lam_s == pytest.approx(lam_c, abs=1e-6 * max(1.0, lam_c))

    def test_octonionic_chart_points(self):
        pts = PointSet.from_points(OP2, [
            chart_point_oct(0, 0),
            chart_point_oct(1, 0),
            chart_point_oct([0, 1, 0.5], [0.3, 0, 0, 0.2]),
        ])
        lam_s = discrepancy_series(OP2, pts, tol=1e-9)
        lam_c = discrepancy_closed(OP2, pts)
        assert math.isfinite(lam_s) and lam_s > 0
        assert lam_s == pytest.approx(lam_c, abs=1e-7)

    def test_octonionic_rows_match_idempotent_distances(self):
        # the distance matrix of the Jordan idempotents x x*, built with the
        # algebra's own product: cos(theta) = 2 <P, Q> - 1
        rng = np.random.default_rng(31)
        pts = PointSet.from_points(OP2, [
            chart_point_oct(rng.standard_normal(8), rng.standard_normal(8)) for _ in range(12)])
        X = pts.points
        P = algebra.cd_mul(X[:, :, None], algebra.cd_conj(X)[:, None, :]).reshape(len(X), -1)
        dm = np.arccos(np.clip(2.0 * (P @ P.T) - 1.0, -1.0, 1.0))
        np.fill_diagonal(dm, 0.0)
        for route in (discrepancy_closed, discrepancy_series):
            assert route(OP2, pts) == pytest.approx(route(OP2, dm), rel=1e-12)

    def test_distance_matrix_input(self):
        rng = np.random.default_rng(15)
        pts = sample_uniform(CP2, 8, rng)
        dm = geodesic_matrix(CP2, pts.points)
        assert discrepancy_series(CP2, dm) == pytest.approx(
            discrepancy_series(CP2, pts), rel=1e-12)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_permuted_distance_matrix_bit_identical(self, symmetric):
        # rows and columns permuted together: the same pairs, so the same bits,
        # also for a matrix that is symmetric only within the 1e-9 bound
        rng = np.random.default_rng(16)
        n = 100
        dm = np.triu(geodesic_matrix(S2, sample_uniform(S2, n, rng).points), 1)
        dm += dm.T
        if not symmetric:
            dm += 5e-10 * rng.uniform(-1.0, 1.0, (n, n)) * (1 - np.eye(n))
            assert np.any(dm != dm.T)
        expected = (discrepancy_series(S2, dm), pair_sum(S2, dm, "chordal"),
                    pair_sum(S2, dm, "geodesic"), invariance_residual(S2, dm, route="series"))
        for _ in range(2):
            perm = rng.permutation(n)
            pm = dm[np.ix_(perm, perm)]
            assert (discrepancy_series(S2, pm), pair_sum(S2, pm, "chordal"),
                    pair_sum(S2, pm, "geodesic"),
                    invariance_residual(S2, pm, route="series")) == expected

    @pytest.mark.parametrize("edge,clipped", [(math.pi + 5e-10, math.pi), (-5e-13, 0.0)])
    def test_distance_matrix_slack_is_clipped(self, edge, clipped):
        # a matrix may exceed [0, pi] by a little; every route reads the pair
        # angle clipped, so all accept it and equal the clipped matrix
        dm = geodesic_matrix(S2, sample_uniform(S2, 4, np.random.default_rng(24)).points)
        dm[0, 1] = dm[1, 0] = edge
        want = dm.copy()
        want[0, 1] = want[1, 0] = clipped
        for route in (functools.partial(pair_sum, metric="chordal"),
                      functools.partial(pair_sum, metric="geodesic"),
                      discrepancy_closed, discrepancy_series,
                      functools.partial(invariance_residual, route="series")):
            assert route(S2, dm) == route(S2, want)


class TestMcRoute:
    def test_antipodal_pair(self):
        est = discrepancy_mc(S1, ANTIPODAL_S1, 200_000, seed=21)
        assert abs(est.value - LAMBDA_ANTIPODAL) <= 3 * est.stderr
        assert est.stderr < 0.01

    def test_matches_closed_uniform_sphere(self):
        rng = np.random.default_rng(22)
        pts = sample_uniform(S2, 100, rng)
        est = discrepancy_mc(S2, pts, 200_000, seed=23)
        lam = discrepancy_closed(S2, pts)
        assert abs(est.value - lam) <= 3 * est.stderr

    def test_coincident_points_bounded(self):
        x = np.array([0.0, 0.0, 1.0])
        pts = PointSet.from_points(S2, [x, x, x, x])
        est = discrepancy_mc(S2, pts, 30_000, seed=24)
        n = 4
        # integrand (count - n v)^2 <= n^2, times the measure mass 2
        assert 0.0 < est.value <= 2 * n**2

    def test_reproducible_for_seed_and_workers(self):
        # the estimate depends on the points and the seed alone: two calls
        # run at once on worker threads share no generator state
        def run():
            return discrepancy_mc(S2, sample_uniform(S2, 10, np.random.default_rng(1)),
                                  50_000, seed=7)

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run) for _ in range(2)]
            est = [f.result() for f in futures]
        assert est[0] == est[1] == run()

    @pytest.mark.parametrize("space", [S2, HP2], ids=["s2", "hp2"])
    def test_reproducible_for_seed(self, space):
        # ten blocks, the last one partial, from a freshly drawn point set
        samples = 9 * discrepancy._MC_BLOCK + 123
        est = [discrepancy_mc(space, sample_uniform(space, 10, np.random.default_rng(1)),
                              samples, seed=7) for _ in range(2)]
        assert est[0] == est[1]
        assert est[0].samples == samples

    def test_blocks_run_on_calling_thread(self, monkeypatch):
        threads = []
        moments = discrepancy._block_moments

        def record(vals):
            threads.append(threading.get_ident())
            return moments(vals)

        monkeypatch.setattr(discrepancy, "_block_moments", record)
        pts = sample_uniform(S2, 10, np.random.default_rng(2))
        discrepancy_mc(S2, pts, 3 * discrepancy._MC_BLOCK + 5, seed=3)
        assert threads == [threading.get_ident()] * 4

    def test_merge_matches_two_pass(self, monkeypatch):
        blocks = []
        moments = discrepancy._block_moments

        def record(vals):
            blocks.append(np.array(vals))
            return moments(vals)

        monkeypatch.setattr(discrepancy, "_block_moments", record)
        samples = 5 * discrepancy._MC_BLOCK + 77
        pts = sample_uniform(S2, 20, np.random.default_rng(3))
        est = discrepancy_mc(S2, pts, samples, seed=11)
        vals = np.concatenate(blocks)
        assert [b.size for b in blocks] == [discrepancy._MC_BLOCK] * 5 + [77]
        assert est.value == pytest.approx(vals.mean(), rel=1e-12)
        stderr = vals.std(ddof=1) / math.sqrt(samples)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)

    def test_memory_independent_of_samples(self):
        # the engine keeps no per-sample array: one (100, 10^6) cos theta
        # matrix would be 800 MB, one value per sample 8 MB
        pts = sample_uniform(HP2, 100, np.random.default_rng(4))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            discrepancy_mc(HP2, pts, 1_000_000, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_requires_point_set(self):
        with pytest.raises(DomainError):
            discrepancy_mc(S2, np.zeros((3, 3)), 1000)

    @pytest.mark.parametrize("code", ["s1", "s2", "s3", "rp2", "rp3", "cp2", "hp2", "hp3"])
    def test_equals_estimator_from_public_kernel(self, code):
        # the blocks count from the unclipped Gram product; rebuilt from the
        # clipped cos_geodesic_matrix, block by block, the estimate is the same
        space = parse_space(code)
        pts = sample_uniform(space, 30, np.random.default_rng(8))
        block = discrepancy._MC_BLOCK
        samples, seed = 2 * block + 1001, 9
        moments = []
        for k in range(3):
            stream = discrepancy._block_rng(seed, k)
            count = min(block, samples - k * block)
            centers = sample_uniform(space, count, stream).points
            u = stream.random(count)  # sin^2(r/2)
            cos = cos_geodesic_matrix(space, pts.points, centers)
            volume = reg_inc_beta(u, space.d / 2, space.d0 / 2)
            dev = np.count_nonzero(cos > 1 - 2 * u, axis=0) - len(pts) * volume
            moments.append(discrepancy._block_moments(2.0 * dev * dev))
        n, mean, m2 = functools.reduce(discrepancy._chan_merge, moments)
        assert n == samples
        est = discrepancy_mc(space, pts, samples, seed=seed)
        assert (est.value, est.stderr) == (mean, math.sqrt(m2 / (n - 1) / n))

    @pytest.mark.parametrize("code", ["s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"])
    def test_volume_of_drawn_ball(self, code):
        # a block takes the volume of a ball as I_u(d/2, d0/2) of its draw
        # u = sin^2(r/2); against mpmath at 40 digits, from u = 2^-60 to 1 - 2^-53
        space = parse_space(code)
        a, b = space.d / 2, space.d0 / 2
        u = np.concatenate([[2.0**-60, 2.0**-30, 1e-8, 0.25, 0.5, 0.75, 1 - 2.0**-53],
                            np.random.default_rng(25).random(300)])
        got = reg_inc_beta(u, a, b)
        with mpmath.workdps(40):
            for x, v in zip(u.tolist(), got.tolist()):
                exact = mpmath.betainc(a, b, 0, x, regularized=True)
                assert float(abs(v - exact) / exact) <= 1e-15, (code, x)


class TestCountWithin:
    """The block's per-centre threshold counts what the clipped cosines of
    the normalised centres count."""

    @staticmethod
    def _clipped(cos_theta, cos_r):
        return np.count_nonzero(np.clip(cos_theta, -1.0, 1.0) > cos_r, axis=0)

    @staticmethod
    def _block_counts(space, X, G, cos_r):
        """The counts of a Monte Carlo block for points X and raw centres G."""
        cols = spaces._embedding_cols(space, G)
        inner = spaces._embedding(space, X) @ cols
        return discrepancy._count_within(space, inner, spaces._embedding_scale(space, G, cols),
                                         cos_r)

    def test_edge_values(self):
        # cosines rounded above 1 against cos r = 1, cosines below -1, NaN,
        # and each threshold's neighbours; on a sphere with scale 1 the
        # threshold is cos r itself, and a scale of 4 moves no count
        values = np.array([np.nan, -np.inf, -1.5, np.nextafter(-1.0, -2.0), -1.0,
                           np.nextafter(-1.0, 0.0), 0.0, np.nextafter(1.0, 0.0), 1.0,
                           np.nextafter(1.0, 2.0), 1.0 + 1e-12, 2.0, np.inf])
        cos_r = np.array([-1.0, np.nextafter(-1.0, 0.0), 0.0, np.nextafter(1.0, 0.0), 1.0])
        cos_theta = np.repeat(values[:, None], len(cos_r), axis=1)
        for scale in (1.0, 4.0):
            got = discrepancy._count_within(S2, scale * cos_theta, np.full(len(cos_r), scale),
                                            cos_r)
            assert got.tolist() == self._clipped(cos_theta, cos_r).tolist()
            assert got.tolist() == [8, 7, 6, 5, 0]

    @pytest.mark.parametrize("rows", [1, 255, 256, 70_000])
    def test_random_and_wide(self, rows):
        # counts past 255 and 65535 need a wider sum than a byte or two; the
        # inner products are those of centres of random length, and since
        # inner and threshold round alike a count could move only for a
        # cosine within rounding of cos r
        rng = np.random.default_rng(rows)
        cos_theta = rng.uniform(-1.2, 1.2, (rows, 6))
        cos_theta[rng.random(cos_theta.shape) < 0.01] = np.nan
        cos_theta[:, 0] = 1.5
        cos_r = np.array([-1.0, -1.0, 1.0, 0.3, np.nextafter(1.0, 0.0), -0.7])
        scale = rng.uniform(0.5, 3.0, 6)
        for space in (S2, HP2):
            a, b = spaces._cos_affine(space)
            got = discrepancy._count_within(space, scale * ((cos_theta - b) / a), scale, cos_r)
            assert got.dtype == np.min_scalar_type(rows)
            assert got.tolist() == self._clipped(cos_theta, cos_r).tolist()
            assert got[0] == rows

    @pytest.mark.parametrize("code", ["s2", "rp2", "cp2", "hp2"])
    def test_zero_radius_counts_nothing(self, code):
        # a centre equal to a point, or to a multiple of one, is not within
        # radius 0 of it, whatever the rounding of its inner product
        space = parse_space(code)
        X = sample_uniform(space, 20, np.random.default_rng(21)).points
        for G in (X, 3.0 * X, 0.1 * X):
            assert not self._block_counts(space, X, G, np.ones(len(G))).any()

    def test_full_radius_sphere_misses_exact_antipode(self):
        X = np.vstack([np.eye(3), -np.eye(3),
                       sample_uniform(S2, 10, np.random.default_rng(22)).points])
        G = np.array([[-2.0, 0.0, 0.0], [0.0, 0.0, 0.5]])  # antipodes of rows 0 and 5
        assert self._block_counts(S2, X, G, np.array([-1.0, -1.0])).tolist() == [15, 15]

    @pytest.mark.parametrize("code", ["rp2", "cp2", "hp2"])
    def test_full_radius_projective_misses_orthogonal_points(self, code):
        # points on the three coordinate axes, each with a unit phase, and
        # generic points; a centre on axis 1 is orthogonal to axes 0 and 2
        space = parse_space(code)
        rng = np.random.default_rng(23)
        axes = np.zeros((3, 3, space.d0))
        for k in range(3):
            axes[k, k, 0] = 1.0
        X = np.concatenate([axes, sample_uniform(space, 10, rng).points])
        G = np.zeros((2, 3, space.d0))
        G[0, 1, 0] = 3.0
        G[1, 1, -1] = -0.25
        assert self._block_counts(space, X, G, np.array([-1.0, -1.0])).tolist() == [11, 11]

    @pytest.mark.parametrize("code", ["s2", "s3", "rp2", "cp2", "hp2"])
    def test_power_of_two_scaling_moves_no_count(self, code):
        # scaling a raw row by 2^j scales its embedding and its threshold by
        # 2^(kj) exactly, k = 1 on spheres and 2 otherwise
        space = parse_space(code)
        rng = np.random.default_rng(24)
        X = sample_uniform(space, 50, rng).points
        G = spaces._gaussian_rows(space, 2000, rng)
        cos_r = 1 - 2 * rng.random(len(G))
        cos_r[:3] = (-1.0, 1.0, 0.0)
        got = self._block_counts(space, X, G, cos_r)
        assert 0 < got.sum() < got.size * len(X)
        for j in (-7, -1, 1, 9):
            assert self._block_counts(space, X, G * 2.0**j, cos_r).tolist() == got.tolist()


def symdiff_direct(space, x, y, mc_samples=100_000, seed=0):
    """Symmetric-difference distance by quadrature over radii with Monte Carlo
    volume estimates of the ball intersections.

    Independent of the zonal expansion: the stochastic oracle of
    ``symdiff_series``.  It nests the other way round from
    ``discrepancy_mc``: an outer sine rule over the radius, inner membership
    counting of uniform samples, drawn in the blocks of ``discrepancy_mc``
    keyed by ``seed``.  ``x`` and ``y`` are Points of ``space`` or their
    coordinates.
    """
    pair = np.stack([spaces._as_data(space, x), spaces._as_data(space, y)])
    r_nodes, r_weights = harmonic._sine_rule()
    const = float(np.dot(r_weights, ball_volume(space, r_nodes)))
    cos_r = np.cos(r_nodes)

    def block_values(stream, count):
        z = sample_uniform(space, count, stream).points
        # z lies in both balls of radius r exactly when it lies in the ball
        # around the farther of x and y, the one of smaller cos theta
        cos_far = cos_geodesic_matrix(space, pair, z).min(axis=0)
        return (cos_far[:, None] > cos_r) @ r_weights

    mean, stderr = discrepancy._mc_mean(block_values, mc_samples, seed)
    return McEstimate(const - mean, stderr, mc_samples, seed)


class TestSymdiffDirect:
    def test_same_point_vanishes(self):
        x = Point(S2, np.array([0.0, 0.0, 1.0]))
        est = symdiff_direct(S2, x, x, mc_samples=20_000, seed=31)
        assert abs(est.value) <= 3 * max(est.stderr, 1e-12)

    def test_circle_closed_form(self):
        theta = 1.1
        x = Point(S1, np.array([1.0, 0.0]))
        y = Point(S1, np.array([math.cos(theta), math.sin(theta)]))
        est = symdiff_direct(S1, x, y, mc_samples=200_000, seed=32)
        expected = (2 / math.pi) * math.sin(theta / 2)
        assert abs(est.value - expected) <= 3 * est.stderr

    def test_two_sphere_antipodal(self):
        x = Point(S2, np.array([0.0, 0.0, 1.0]))
        y = Point(S2, np.array([0.0, 0.0, -1.0]))
        est = symdiff_direct(S2, x, y, mc_samples=200_000, seed=33)
        assert abs(est.value - 0.5) <= 3 * est.stderr

    def test_matches_series(self):
        theta = 0.9
        x = Point(S2, np.array([0.0, 0.0, 1.0]))
        y = Point(S2, np.array([math.sin(theta), 0.0, math.cos(theta)]))
        est = symdiff_direct(S2, x, y, mc_samples=200_000, seed=34)
        assert abs(est.value - symdiff_series(S2, theta)) <= 3 * est.stderr


class TestSymdiffMetric:
    def test_triangle_inequality_on_point_triples(self):
        # the symmetric-difference distance is a metric
        rng = np.random.default_rng(41)
        for _ in range(20):
            pts = sample_uniform(S2, 3, rng)
            dm = geodesic_matrix(S2, pts.points)
            d_xy = symdiff_series(S2, dm[0, 1])
            d_yz = symdiff_series(S2, dm[1, 2])
            d_xz = symdiff_series(S2, dm[0, 2])
            assert d_xz <= d_xy + d_yz + 1e-10


class TestInvarianceResidual:
    def test_closed_route_vanishes(self):
        rng = np.random.default_rng(51)
        for code in ("s1", "s2", "cp2"):
            space = parse_space(code)
            pts = sample_uniform(space, 30, rng)
            res = invariance_residual(space, pts, route="closed")
            scale = avg_chordal(space) * 30**2
            assert abs(res) <= 1e-9 * scale

    def test_series_route_small(self):
        rng = np.random.default_rng(52)
        pts = sample_uniform(CP2, 25, rng)
        res = invariance_residual(CP2, pts, route="series", tol=1e-9)
        scale = avg_chordal(CP2) * 25**2
        assert abs(res) <= 1e-6 * scale

    def test_mc_route_within_sigma(self):
        rng = np.random.default_rng(53)
        pts = sample_uniform(S2, 50, rng)
        res = invariance_residual(S2, pts, route="mc", samples=100_000, seed=54)
        assert abs(res.value) <= 3 * res.stderr

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            invariance_residual(S2, sample_uniform(S2, 3, np.random.default_rng(0)),
                                route="nope")


class TestArgumentChecks:
    """Each count and seed goes through check_order and each point through
    _as_data, so a bad one is a DomainError at the boundary, not a numpy
    error, a silent truncation or a wrong-shaped result."""

    PTS = sample_uniform(S2, 5, np.random.default_rng(60))
    RP2_POINT = Point(parse_space("rp2"), np.array([[1.0], [0.0], [0.0]]))
    CALLS = {
        "make_space_nan": lambda c: make_space("s", math.nan),
        "make_space_inf": lambda c: make_space("s", math.inf),
        "sample_count_nan": lambda c: sample_uniform(S2, math.nan, np.random.default_rng(0)),
        "sample_count_inf": lambda c: sample_uniform(S2, math.inf, np.random.default_rng(0)),
        "mc_samples_nan": lambda c: discrepancy_mc(S2, c.PTS, math.nan),
        "mc_samples_fraction": lambda c: discrepancy_mc(S2, c.PTS, 2.5),
        "mc_seed_negative": lambda c: discrepancy_mc(S2, c.PTS, 100, seed=-1),
        "mc_seed_fraction": lambda c: discrepancy_mc(S2, c.PTS, 100, seed=1.5),
        "residual_samples_nan": lambda c: invariance_residual(S2, c.PTS, route="mc",
                                                              samples=math.nan),
        "embed_foreign_point": lambda c: embed(S2, c.RP2_POINT),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejected_with_domain_error(self, name):
        expected = UnsupportedSpaceError if name.startswith("make_space") else DomainError
        with pytest.raises(expected):
            self.CALLS[name](self)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8, [1e-8, math.inf]])
    def test_series_tol_rejected_before_any_work(self, tol, monkeypatch):
        # a tolerance that is not finite and positive stops every series entry
        # point before it reads a pair angle or a coefficient table
        def no_work(*args, **kwargs):
            pytest.fail("work done before the tolerance was checked")
        monkeypatch.setattr(discrepancy, "_pair_angles", no_work)
        monkeypatch.setattr(harmonic, "expansion_coeffs", no_work)
        theta = np.array([0.5, 1.0])
        for call in (lambda: discrepancy_series(S2, self.PTS, tol=tol),
                     lambda: symdiff_series(S2, theta, tol=tol)):
            with pytest.raises(DomainError, match="finite and positive"):
                call()

    @pytest.mark.parametrize("matrix,kwargs", [
        (False, {"route": "series", "tol": math.inf}),
        (False, {"route": "mc", "samples": math.nan}),
        (False, {"route": "mc", "seed": -1}),
        (True, {"route": "mc"}),
    ], ids=["series_tol_inf", "mc_samples_nan", "mc_seed_negative", "mc_distance_matrix"])
    def test_residual_arguments_rejected_before_any_work(self, matrix, kwargs, monkeypatch):
        # invariance_residual checks its route's arguments before it sums a
        # pair, embeds a point or reads a pair angle
        pts = geodesic_matrix(S2, self.PTS.points) if matrix else self.PTS

        def no_work(*args, **kwargs):
            pytest.fail("work done before the arguments were checked")
        for name in ("_count_and_pair_sum", "_pair_angles", "_embedding"):
            monkeypatch.setattr(discrepancy, name, no_work)
        with pytest.raises(DomainError):
            invariance_residual(S2, pts, **kwargs)
