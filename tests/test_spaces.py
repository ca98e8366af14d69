"""Catalog geometry: metrics, embeddings, volumes, constants, sampling."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.stats

from crosp import algebra, harmonic, spaces
from crosp.errors import DomainError, UnsupportedSpaceError
from crosp.spaces import (
    Family,
    Point,
    PointSet,
    avg_chordal,
    ball_volume,
    catalog,
    chart_point_oct,
    chordal,
    cos_geodesic_matrix,
    cos_geodesic_pairs,
    embed,
    gamma_const,
    geodesic,
    make_space,
    parse_space,
    sample_uniform,
)

ALL_CODES = ["s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"]
SAMPLABLE = ["s1", "s2", "s3", "rp2", "cp2", "hp2"]


def _random_points(space, count, rng):
    if space.family is Family.OCT_PROJ:
        pts = [chart_point_oct(rng.standard_normal(8), rng.standard_normal(8))
               for _ in range(count)]
        return PointSet.from_points(space, pts)
    return sample_uniform(space, count, rng)


def _oct_idempotent(X):
    """x x* of octonionic rows as 3 x 3 matrices, shape (..., 3, 3, 8): the
    point's Jordan idempotent, built with the algebra's own product."""
    return algebra.cd_mul(X[..., :, None, :], algebra.cd_conj(X)[..., None, :, :])


def _oct_square(P):
    """P P of one 3 x 3 octonionic matrix."""
    return np.sum(algebra.cd_mul(P[:, :, None], P[None]), axis=1)


def _idempotent_embedding(P):
    """The embedding read off an idempotent: the real diagonal, then sqrt(2)
    times each entry above it."""
    i, j = np.triu_indices(3, 1)
    upper = P[:, i, j].reshape(len(P), -1)
    return np.concatenate([P[:, [0, 1, 2], [0, 1, 2], 0], math.sqrt(2.0) * upper], axis=1)


class TestCatalog:
    def test_complex_projective_plane(self):
        s = make_space(Family.COMPLEX_PROJ, 2)
        assert (s.d, s.d0, s.m) == (4, 2, 9)

    def test_sphere_convention(self):
        s = make_space("s", 3)
        assert s.d == s.d0 == 3

    def test_octonionic_plane(self):
        s = make_space("op", 2)
        assert (s.d, s.d0, s.m) == (16, 8, 27)

    def test_octonionic_only_plane(self):
        with pytest.raises(UnsupportedSpaceError):
            make_space("op", 3)

    def test_catalog_dimensions(self):
        for s in catalog():
            if s.family is Family.SPHERE:
                assert s.d == s.d0
            else:
                assert s.d == s.n * s.d0 and s.d > s.d0
                assert s.m == (s.n + 1) * (s.d + 2) // 2

    def test_parse_roundtrip(self):
        for code in ALL_CODES:
            assert parse_space(code).code == code


class TestGeodesic:
    def test_same_point(self):
        s2 = parse_space("s2")
        x = Point(s2, np.array([0.0, 0.0, 1.0]))
        assert geodesic(s2, x, x) == 0.0

    def test_antipodal_poles(self):
        s2 = parse_space("s2")
        x = Point(s2, np.array([0.0, 0.0, 1.0]))
        y = Point(s2, np.array([0.0, 0.0, -1.0]))
        assert geodesic(s2, x, y) == pytest.approx(math.pi, abs=1e-15)

    def test_complex_projective_perpendicular(self):
        cp2 = parse_space("cp2")
        x = Point(cp2, np.array([[1, 0], [0, 0], [0, 0]], float))
        y = Point(cp2, np.array([[1, 0], [1, 0], [0, 0]], float) / math.sqrt(2))
        assert geodesic(cp2, x, y) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_phase_invariance(self):
        # representatives differing by a unit scalar on the right are the same
        # class; on the quaternions a unit scalar on the left gives another one
        rng = np.random.default_rng(3)
        for code in ("cp2", "hp2"):
            space = parse_space(code)
            v = rng.standard_normal((3, space.d0))
            v /= np.linalg.norm(v)
            u = rng.standard_normal(space.d0)
            u /= np.linalg.norm(u)
            x = Point(space, v)
            right = Point(space, algebra.cd_mul(v, u))
            assert geodesic(space, x, right) == pytest.approx(0.0, abs=3e-8)
            if code == "hp2":
                left = Point(space, algebra.cd_mul(u, v))
                assert geodesic(space, x, left) > 0.1

    def test_mismatched_space(self):
        s2, s3 = parse_space("s2"), parse_space("s3")
        x = Point(s2, np.array([0.0, 0.0, 1.0]))
        y = Point(s3, np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            geodesic(s2, x, y)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_metric_axioms_random_triples(self, code):
        space = parse_space(code)
        rng = np.random.default_rng(11)
        pts = _random_points(space, 30, rng)
        theta = np.arccos(cos_geodesic_matrix(space, pts.points, pts.points))
        assert np.max(np.abs(theta - theta.T)) <= 1e-12
        assert np.all(np.diag(theta) <= 1e-6)
        tau = np.sin(theta / 2)
        for mat in (theta, tau):
            for i in range(10):
                for j in range(10):
                    for k in range(10):
                        assert mat[i, k] <= mat[i, j] + mat[j, k] + 1e-12


class TestKernel:
    @pytest.mark.parametrize("code", ["rp2", "cp2", "hp2", "op2"])
    def test_matches_independent_reference(self, code):
        space = parse_space(code)
        rng = np.random.default_rng(29)
        X = _random_points(space, 40, rng).points
        Y = np.concatenate([X[:10], _random_points(space, 20, rng).points])
        if space.family is Family.OCT_PROJ:
            # trace form 2 <P, Q> - 1 of the Jordan idempotents, flattened
            P, Q = _oct_idempotent(X), _oct_idempotent(Y)
            ref = 2.0 * (P.reshape(len(X), -1) @ Q.reshape(len(Y), -1).T) - 1.0
        else:
            # components of <x, y> = sum_i conj(x_i) y_i from the multiplication table
            T = algebra.sesquilinear_tensor(space.d0)
            comps = np.einsum("cab,nia,mib->cnm", T, X, Y)
            ref = 2.0 * np.sum(comps**2, axis=0) - 1.0
        c = cos_geodesic_matrix(space, X, Y)
        assert c.shape == (40, 30)
        assert np.max(np.abs(c - ref)) <= 1e-14
        pairs = cos_geodesic_pairs(space, X[:30], Y)
        assert np.max(np.abs(pairs - np.diag(c))) <= 1e-14


class TestChordal:
    def test_endpoints(self):
        s1 = parse_space("s1")
        x = Point(s1, np.array([1.0, 0.0]))
        y = Point(s1, np.array([-1.0, 0.0]))
        assert chordal(s1, x, x) == 0.0
        assert chordal(s1, x, y) == pytest.approx(1.0, rel=1e-15)

    def test_half_euclidean_chord_on_spheres(self):
        s3 = parse_space("s3")
        rng = np.random.default_rng(5)
        pts = sample_uniform(s3, 40, rng)
        for i in range(0, 40, 2):
            x, y = pts.points[i], pts.points[i + 1]
            assert chordal(s3, Point(s3, x), Point(s3, y)) == pytest.approx(
                np.linalg.norm(x - y) / 2, rel=1e-12)


class TestEmbed:
    def test_rank_one_projection_unit(self):
        cp1 = make_space("cp", 1)
        x = Point(cp1, np.array([[1.0, 0.0], [0.0, 0.0]]))
        vec = embed(cp1, x)
        assert vec.shape == (cp1.m,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert vec[0] == pytest.approx(1.0)

    def test_sphere_identity(self):
        s2 = parse_space("s2")
        x = np.array([0.6, 0.0, 0.8])
        assert np.allclose(embed(s2, Point(s2, x)), x)

    def test_oct_diag_idempotent(self):
        # the row e_0, whose idempotent is diag(1, 0, 0)
        op2 = parse_space("op2")
        x = np.zeros((3, 8))
        x[0, 0] = 1.0
        vec = embed(op2, Point(op2, x))
        assert vec.shape == (27,)
        assert vec[0] == 1.0 and not np.any(vec[1:])

    def test_oct_real_entry_in_each_slot(self):
        # every point of OP^2 has a row x = P e_k / sqrt(P_kk), whose entry k
        # is real; each of the three embeds as the idempotent P does
        op2 = parse_space("op2")
        rng = np.random.default_rng(37)
        chart = np.stack([chart_point_oct(rng.standard_normal(8), rng.standard_normal(8)).data
                          for _ in range(200)])
        P = _oct_idempotent(chart)
        ref = _idempotent_embedding(P)
        for k in range(3):
            rows = P[:, :, k] / np.sqrt(P[:, k, k, :1, None])
            assert np.max(np.abs(rows[:, k, 1:])) <= 1e-15
            E = spaces._embedding(op2, PointSet(op2, rows).points)
            assert np.max(np.abs(E - ref)) <= 4.4e-16

    @pytest.mark.parametrize("code", ["rp2", "cp2", "hp2", "op2"])
    def test_isometry(self, code):
        space = parse_space(code)
        rng = np.random.default_rng(17)
        pts = _random_points(space, 200 if code != "op2" else 60, rng)
        n = len(pts)
        vecs = np.stack([embed(space, pts[i]) for i in range(n)])
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
        theta = np.arccos(cos_geodesic_matrix(space, pts.points, pts.points))
        tau = np.sin(theta / 2)
        d_embed = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=2) / math.sqrt(2)
        off = ~np.eye(n, dtype=bool)  # arccos near 1 is noisy at the diagonal
        assert np.max(np.abs(tau - d_embed)[off]) <= 1e-10


def _doubling_mul(x, y):
    """The Cayley-Dickson doubling rule, recursive on the last axis."""
    dim = x.shape[-1]
    if dim == 1:
        return x * y
    h = dim // 2
    a, b, c, d = x[..., :h], x[..., h:], y[..., :h], y[..., h:]
    real = _doubling_mul(a, c) - _doubling_mul(_doubling_conj(d), b)
    imag = _doubling_mul(d, a) + _doubling_mul(b, _doubling_conj(c))
    return np.concatenate([real, imag], axis=-1)


def _doubling_conj(x):
    out = np.array(x, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def _reference_embedding(X):
    """The rp/cp/hp embedding as one array formula: the diagonal |x_i|^2,
    then sqrt(2) x_i conj(x_j) for i < j."""
    i, j = np.triu_indices(X.shape[1], 1)
    upper = _doubling_mul(X[:, i], _doubling_conj(X[:, j]))
    upper = upper.reshape(len(X), math.prod(upper.shape[1:]))
    return np.concatenate([np.sum(X**2, axis=2), math.sqrt(2.0) * upper], axis=1)


class TestEmbeddingBits:
    """The component-major embedding has the bits of the array formula."""

    @pytest.mark.parametrize("family", ["rp", "cp", "hp"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical(self, family, n):
        space = make_space(family, n)
        for count in (0, 1, 7, 4097):
            X = sample_uniform(space, count, np.random.default_rng(count + n)).points
            E, ref = spaces._embedding(space, X), _reference_embedding(X)
            assert E.shape == ref.shape == (count, space.m)
            assert E.flags.c_contiguous and E.tobytes() == ref.tobytes()
            # the coordinate-major array the Monte Carlo block multiplies by
            cols = spaces._embedding_cols(space, X)
            assert cols.flags.c_contiguous and cols.tobytes() == ref.T.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_cd_mul_is_doubling_rule(self, dim):
        rng = np.random.default_rng(dim)
        for xs, ys in [((dim,), (dim,)), ((5, dim), (5, dim)),
                       ((3, 1, dim), (1, 4, dim)), ((2, 3, dim), (dim,))]:
            x, y = rng.standard_normal(xs), rng.standard_normal(ys)
            got, ref = algebra.cd_mul(x, y), _doubling_mul(x, y)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("code", ["rp2", "rp3", "cp2", "cp3", "hp2", "hp3"])
    def test_signed_sums_match_doubling_rule(self, code):
        # the embedding rebuilt from the doubling rule as written: sqrt(2)
        # times mul_parts on the component arrays, on raw Gaussian rows like
        # the Monte Carlo block's centres
        space = parse_space(code)
        G = spaces._gaussian_rows(space, 4096, np.random.default_rng(20))
        comps = np.ascontiguousarray(np.moveaxis(G, 0, 2))
        n1 = space.n + 1
        rows = [np.sum(comps[k] ** 2, axis=0) for k in range(n1)]
        for a, b in zip(*np.triu_indices(n1, 1)):
            prod = algebra.mul_parts(list(comps[a]), algebra.conj_parts(list(comps[b])))
            rows += [part * math.sqrt(2.0) for part in prod]
        assert spaces._embedding_cols(space, G).tobytes() == np.stack(rows).tobytes()

    def test_peak_memory(self):
        # on these points the array formula's temporaries peak at 8.64 MB
        # (so the bound is 7.78 MB) and the component-major form, with the
        # arrays mul_parts returns, at 6.88 MB; both are measured here, since
        # a fixed bound sat too close to the first to tell them apart
        hp2 = parse_space("hp2")
        X = sample_uniform(hp2, 20_000, np.random.default_rng(0)).points

        def peak(embedding):
            tracemalloc.start()
            try:
                embedding()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak(lambda: spaces._embedding(hp2, X))
                <= 0.9 * peak(lambda: _reference_embedding(X)))


class TestBallVolume:
    def test_full_ball(self):
        for s in catalog():
            assert ball_volume(s, math.pi) == pytest.approx(1.0, abs=1e-14)
            assert ball_volume(s, 0.0) == 0.0

    def test_circle_linear(self):
        s1 = parse_space("s1")
        assert ball_volume(s1, math.pi / 2) == pytest.approx(0.5, abs=1e-13)
        rs = np.linspace(0, math.pi, 50)
        assert np.allclose(ball_volume(s1, rs), rs / math.pi, atol=1e-12)

    def test_two_sphere_cap_fraction(self):
        s2 = parse_space("s2")
        rs = np.linspace(0, math.pi, 50)
        assert np.allclose(ball_volume(s2, rs), np.sin(rs / 2) ** 2, atol=1e-13)
        assert np.allclose(ball_volume(s2, rs), (1 - np.cos(rs)) / 2, atol=1e-13)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_monotone(self, code):
        space = parse_space(code)
        rs = np.linspace(0, math.pi, 1000)
        vs = ball_volume(space, rs)
        assert np.all(np.diff(vs) >= -1e-15)

    @pytest.mark.parametrize("code", ALL_CODES + ["s4", "s6", "s16"])
    def test_against_mpmath(self, code):
        """ball_volume(r) against I_{sin^2(r/2)}(d/2, d0/2) in mpmath at 40 digits.

        The bound is the error of reg_inc_beta (1e-15 on the finite sum, 2e-15
        on the half-integer forms) plus that of the float sin^2(r/2), at most
        5 ulp relative, carried through x I'(x).
        """
        space = parse_space(code)
        a, b = space.d / 2, space.d0 / 2
        rs = [0.0, 1e-8, 1e-4, 0.01, math.pi / 2, math.pi - 1e-4, math.pi - 1e-8,
              math.pi] + [float(r) for r in np.linspace(0, math.pi, 65)[1:-1]]
        vals = ball_volume(space, np.array(rs))
        for r, v in zip(rs, vals):
            assert ball_volume(space, r) == v
            with mpmath.workdps(40):
                x = mpmath.sin(mpmath.mpf(r) / 2) ** 2
                exact = mpmath.betainc(a, b, 0, x, regularized=True)
                slope = 0 if x in (0, 1) else (x ** a * (1 - x) ** (b - 1)
                                               / mpmath.beta(a, b))
                err = float(abs(mpmath.mpf(v) - exact))
                bound = float((1e-15 if b == int(b) else 2e-15) * exact
                              + slope * 5 * 2.0**-52) + 2.0**-1074
            assert err <= bound, (code, r)

    @pytest.mark.parametrize("code", ["rp2", "s1"])
    def test_near_pi_without_slope_allowance(self, code):
        """On d0 = 1 the volume has an unbounded slope at r = pi, where
        sin^2(r/2) rounds to 1; ball_volume takes 1 - sin^2(r/2) from
        cos^2(r/2), so these radii meet the 2e-15 bound of reg_inc_beta alone."""
        space = parse_space(code)
        a, b = space.d / 2, space.d0 / 2
        for r in (math.pi - 1e-8, math.pi - 1e-6, math.pi - 1e-4):
            with mpmath.workdps(40):
                x = mpmath.sin(mpmath.mpf(r) / 2) ** 2
                exact = mpmath.betainc(a, b, 0, x, regularized=True)
                err = float(abs(mpmath.mpf(ball_volume(space, r)) - exact) / exact)
            assert err <= 2e-15, (code, r)

    def test_domain(self):
        with pytest.raises(DomainError):
            ball_volume(parse_space("s2"), 3.5)

    @pytest.mark.parametrize("r", [math.nan, np.array([0.5, math.nan])])
    def test_nan_rejected(self, r):
        with pytest.raises(DomainError):
            ball_volume(parse_space("s2"), r)


class TestConstants:
    @pytest.mark.parametrize("code,expected", [
        ("s2", 2.0), ("s1", math.pi / 2), ("cp2", 3.0),
        ("s3", 3 * math.pi / 4), ("rp2", 3 * math.pi / 4), ("hp2", 4.0),
    ])
    def test_gamma_values(self, code, expected):
        assert gamma_const(parse_space(code)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("code,expected", [
        ("s1", 2 / math.pi), ("s2", 2 / 3), ("cp2", 4 / 5),
    ])
    def test_avg_chordal_values(self, code, expected):
        assert avg_chordal(parse_space(code)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_mean_ratio_is_gamma(self, code):
        space = parse_space(code)
        ratio = avg_chordal(space) / harmonic.avg_symdiff(space)
        assert abs(ratio - gamma_const(space)) <= 1e-9

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_diameter_ratio_is_gamma(self, code):
        space = parse_space(code)
        diam_sym = harmonic.symdiff_series(space, math.pi, tol=1e-10)
        assert 1.0 / diam_sym == pytest.approx(gamma_const(space), abs=1e-8)


class TestSampling:
    def test_pole_symmetry(self):
        s2 = parse_space("s2")
        rng = np.random.default_rng(123)
        pts = sample_uniform(s2, 100_000, rng)
        mean_cos = float(pts.points[:, 2].mean())
        assert abs(mean_cos) <= 3 / math.sqrt(100_000)

    def test_radial_law_matches_volume(self):
        cp2 = parse_space("cp2")
        rng = np.random.default_rng(7)
        pts = sample_uniform(cp2, 100_000, rng)
        pole = np.zeros((1, 3, 2))
        pole[0, 0, 0] = 1.0
        theta = np.arccos(cos_geodesic_matrix(cp2, pts.points, pole))[:, 0]
        stat = scipy.stats.ks_1samp(theta, lambda r: ball_volume(cp2, r)).statistic
        assert stat < 0.01

    def test_empty(self):
        s2 = parse_space("s2")
        pts = sample_uniform(s2, 0, np.random.default_rng(0))
        assert len(pts) == 0

    def test_octonionic_unsupported(self):
        with pytest.raises(UnsupportedSpaceError):
            sample_uniform(parse_space("op2"), 5, np.random.default_rng(0))


class TestOctonions:
    def test_alternative_and_multiplicative_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.integers(-9, 10, 8).astype(float)
            y = rng.integers(-9, 10, 8).astype(float)
            xy = algebra.cd_mul(x, y)
            # alternativity: x(xy) = (xx)y, exact in integer arithmetic
            assert np.array_equal(algebra.cd_mul(x, xy),
                                  algebra.cd_mul(algebra.cd_mul(x, x), y))
            # norm multiplicativity, exact on integer squares
            assert float(np.dot(xy, xy)) == float(np.dot(x, x)) * float(np.dot(y, y))

    def test_non_associative_but_alternative(self):
        e1 = np.zeros(8); e1[1] = 1
        e2 = np.zeros(8); e2[2] = 1
        e4 = np.zeros(8); e4[4] = 1
        lhs = algebra.cd_mul(e1, algebra.cd_mul(e2, e4))
        rhs = algebra.cd_mul(algebra.cd_mul(e1, e2), e4)
        assert not np.array_equal(lhs, rhs)

    def test_chart_origin(self):
        p = chart_point_oct(0, 0)
        expected = np.zeros((3, 8))
        expected[2, 0] = 1.0
        assert np.array_equal(p.data, expected)
        diag = np.zeros((3, 3, 8))
        diag[2, 2, 0] = 1.0
        assert np.array_equal(_oct_idempotent(p.data), diag)

    def test_chart_unit(self):
        p = chart_point_oct(1, 0)
        assert p.data.shape == (3, 8)
        assert p.data[0, 0] == p.data[2, 0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert np.count_nonzero(p.data) == 2
        P = _oct_idempotent(p.data)
        assert P[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert P[2, 2, 0] == pytest.approx(0.5, abs=1e-15)
        assert P[0, 2, 0] == pytest.approx(0.5, abs=1e-15)
        assert P[0, 0, 0] + P[1, 1, 0] + P[2, 2, 0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("coord", [[0.0] * 9, [[1.0, 2.0]], [[1.0], [2.0, 3.0]], "abc",
                                       "1", True, [1j], 10**400],
                             ids=["nine", "nested", "ragged", "word", "numeric-string",
                                  "bool", "complex", "huge-int"])
    def test_chart_rejects_what_is_not_an_octonion(self, coord):
        for c1, c2 in ((coord, 0), (0, coord)):
            with pytest.raises(DomainError):
                chart_point_oct(c1, c2)

    def test_chart_trace_form_range(self):
        rng = np.random.default_rng(4)
        op2 = parse_space("op2")
        for _ in range(50):
            p1 = chart_point_oct(rng.standard_normal(8), rng.standard_normal(8))
            p2 = chart_point_oct(rng.standard_normal(8), rng.standard_normal(8))
            P1, P2 = _oct_idempotent(p1.data), _oct_idempotent(p2.data)
            # x x* is idempotent: the last entry of the row is real
            assert np.max(np.abs(_oct_square(P1) - P1)) <= 1e-15
            tf = float(np.sum(P1 * P2))
            assert -1e-12 <= tf <= 1 + 1e-12
            theta = geodesic(op2, p1, p2)
            assert 0.0 <= theta <= math.pi
            assert math.cos(theta) == pytest.approx(2 * tf - 1, abs=1e-14)


class TestPointValidation:
    def test_sphere_not_unit(self):
        s2 = parse_space("s2")
        with pytest.raises(DomainError):
            Point(s2, np.array([1.0, 1.0, 0.0]))

    def test_oct_not_idempotent(self):
        # a unit row with no real entry: its x x* is not idempotent, though
        # it embeds to a unit vector, so only the real-entry check sees it
        op2 = parse_space("op2")
        x = np.random.default_rng(8).standard_normal((3, 8))
        x /= np.linalg.norm(x)
        P = _oct_idempotent(x)
        assert np.max(np.abs(_oct_square(P) - P)) > 1e-3
        assert np.linalg.norm(spaces._embedding(op2, x[None])) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DomainError, match="real entry"):
            Point(op2, x)
        x[1, 1:] = 5e-13
        x /= np.linalg.norm(x)  # entry 1 stays within the 1e-12 bound of real
        assert Point(op2, x).data.shape == (3, 8)

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            Point(parse_space("s2"), np.array([math.nan, 0.0, 0.0]))

    def test_nan_point_set_rejected(self):
        with pytest.raises(DomainError):
            PointSet(parse_space("s2"), np.array([[math.nan, 0.0, 0.0], [3.0, 0.0, 0.0]]))

    def test_point_set_rows_must_be_points(self):
        s2 = parse_space("s2")
        with pytest.raises(DomainError):
            PointSet(s2, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(DomainError):
            PointSet(parse_space("hp2"), np.ones((2, 3, 4)))
        rep = np.zeros((2, 3, 2))
        rep[:, 0, 0] = 1.0
        rep[1, 1, 1] = 1e-3
        with pytest.raises(DomainError):
            PointSet(parse_space("cp2"), rep)
        rep[1] /= np.linalg.norm(rep[1])
        assert len(PointSet(parse_space("cp2"), rep)) == 2

    def test_octonionic_point_set_rows_checked(self):
        op2 = parse_space("op2")
        good = np.stack([chart_point_oct(0, 0).data,
                         chart_point_oct([0, 1], [0.3, 0, 0, 0.2]).data])
        assert len(PointSet(op2, good)) == 2
        no_real = good[1].copy()
        no_real[2, 3] = 1e-3
        no_real /= np.linalg.norm(no_real)
        not_unit = 2 * good[0]
        not_finite = good[1].copy()
        not_finite[0, 5] = math.inf
        for bad, why in ((no_real, "real entry"), (not_unit, "unit norm"),
                         (not_finite, "finite")):
            with pytest.raises(DomainError, match=why):
                PointSet(op2, np.stack([good[0], bad, good[1]]))
        with pytest.raises(DomainError, match="shape"):
            PointSet(op2, _oct_idempotent(good))

    def test_caller_array_stays_writable(self):
        s2 = parse_space("s2")
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pts = PointSet(s2, a)
        x = np.array([0.0, 1.0, 0.0])
        p = Point(s2, x)
        a[0, 0] = 0.5
        x[1] = 0.5
        assert pts.points[0, 0] == 1.0 and p.data[1] == 1.0
        for stored in (pts.points, p.data, pts[1].data):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 0.0
        # a view into the caller's array is copied too, not frozen
        view = a[1:]
        PointSet(s2, view)
        view[0, 2] = 1.0

    def test_mixed_spaces_rejected(self):
        s2 = parse_space("s2")
        s3 = parse_space("s3")
        x3 = Point(s3, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            PointSet.from_points(s2, [x3])

    def test_foreign_point_named(self):
        # from_points takes each point through _as_data, whose error names
        # the point's own space
        s2 = parse_space("s2")
        rp2_point = Point(parse_space("rp2"), np.array([[1.0], [0.0], [0.0]]))
        with pytest.raises(DomainError, match="belongs to rp2, expected s2"):
            PointSet.from_points(s2, [np.array([0.0, 0.0, 1.0]), rp2_point])
