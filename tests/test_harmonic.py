"""Zonal expansions, coefficient identities, closed forms, series engines."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from crosp import harmonic
from crosp.errors import ConvergenceError, DomainError
from crosp.harmonic import (
    SERIES_CAP,
    avg_symdiff,
    chordal_coeff,
    coeff_tail,
    expansion_coeffs,
    jacobi_sq_integral,
    leibniz_closed,
    leibniz_sum,
    level_weight,
    poch_ratio,
    radial_weight,
    symdiff_series,
)
from crosp.spaces import avg_chordal, gamma_const, parse_space
from crosp.specfun import (_JacobiRecurrence, _jacobi_row, beta, gauss_jacobi, jacobi_at_one,
                           rising)

ALL_CODES = ["s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"]


def zonal_phi(space, l, theta):
    """phi_l(theta) = P_l(cos theta) / P_l(1), the normalization the series
    engine applies to each row of the recurrence."""
    a, b = space.d / 2 - 1, space.d0 / 2 - 1
    return float(_jacobi_row(l, a, b, np.array([math.cos(theta)]))[0]) / jacobi_at_one(l, a)


class TestZonal:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_unit_at_zero(self, code):
        space = parse_space(code)
        for l in (0, 1, 2, 7):
            assert zonal_phi(space, l, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_sphere_is_legendre(self):
        s2 = parse_space("s2")
        for theta in np.linspace(0, math.pi, 7):
            assert zonal_phi(s2, 1, theta) == pytest.approx(math.cos(theta), abs=1e-14)

    def test_complex_projective_level_one(self):
        cp2 = parse_space("cp2")
        for theta in np.linspace(0, math.pi, 7):
            expected = (3 * math.cos(theta) + 1) / 4
            assert zonal_phi(cp2, 1, theta) == pytest.approx(expected, abs=1e-14)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for code in ALL_CODES:
            space = parse_space(code)
            for _ in range(50):
                l = int(rng.integers(0, 30))
                theta = float(rng.uniform(0, math.pi))
                assert abs(zonal_phi(space, l, theta)) <= 1.0


@pytest.mark.parametrize("fn", [
    level_weight, chordal_coeff, radial_weight,
    *(lambda space, l, f=f: f(l, 0.5, 0.5)
      for f in (poch_ratio, leibniz_sum, leibniz_closed, jacobi_sq_integral)),
], ids=["level_weight", "chordal_coeff", "radial_weight",
        "poch_ratio", "leibniz_sum", "leibniz_closed", "jacobi_sq_integral"])
@pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf, 2.5])
def test_order_domain(fn, l):
    with pytest.raises(DomainError):
        fn(parse_space("s2"), l)


class TestLevelWeight:
    def test_sphere_odd_integers(self):
        s2 = parse_space("s2")
        assert level_weight(s2, 1) == pytest.approx(3.0, rel=1e-13)
        assert level_weight(s2, 2) == pytest.approx(5.0, rel=1e-13)
        for l in range(1, 30):
            assert level_weight(s2, l) == pytest.approx(2 * l + 1, rel=1e-12)

    def test_complex_projective(self):
        cp2 = parse_space("cp2")
        assert level_weight(cp2, 1) == pytest.approx(4.0, rel=1e-13)

    @pytest.mark.parametrize("code,offset", [("s2", 1.0), ("rp2", 0.5), ("cp2", 2.0)])
    @pytest.mark.parametrize("l", [160, 2000, 10_000])
    def test_exact_at_large_level(self, code, offset, l):
        # m_l = 2l + offset exactly; the lgamma terms of size l log l cancel
        space = parse_space(code)
        expected = 2 * l + offset
        assert level_weight(space, l) == pytest.approx(expected, rel=1e-14)
        assert expansion_coeffs(space).m_l[l - 1] == pytest.approx(expected, rel=1e-14)


class TestChordalCoeff:
    def test_two_sphere_level_one(self):
        s2 = parse_space("s2")
        assert chordal_coeff(s2, 1) == pytest.approx(4 / 15, rel=1e-13)

    def test_two_sphere_closed_sequence(self):
        # the coefficient chain collapses to 4 / ((2l+3)(2l+1)(2l-1)) here
        s2 = parse_space("s2")
        for l in range(1, 40):
            expected = 4 / ((2 * l + 3) * (2 * l + 1) * (2 * l - 1))
            assert chordal_coeff(s2, l) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("l", [1, 2, 5, 12])
    def test_projection_oracle(self, code, l):
        # expand sqrt((1-t)/2) against the zonal Jacobi basis by exact
        # quadrature: sqrt(1-t) merges into the weight, making the
        # integrand polynomial
        space = parse_space(code)
        a, b = space.d / 2 - 1, space.d0 / 2 - 1
        rule_num = gauss_jacobi(l + 3, a + 0.5, b)
        num = float(np.dot(rule_num.weights,
                           _jacobi_row(l, a, b, rule_num.nodes))) / math.sqrt(2)
        rule_den = gauss_jacobi(l + 2, a, b)
        den = float(np.dot(rule_den.weights, _jacobi_row(l, a, b, rule_den.nodes) ** 2))
        coeff_hat = num / den  # Fourier-Jacobi coefficient of sqrt((1-t)/2)
        expected = -2 * coeff_hat * jacobi_at_one(l, a) / level_weight(space, l)
        assert chordal_coeff(space, l) == pytest.approx(expected, rel=1e-11)


class TestLargeLevelOracle:
    """m_l and c_l at large l against gamma products in mpmath at 40 digits.

    Each gamma ratio is one ``specfun._lgamma_diff``, which never forms
    lgamma values of size l log l; the worst relative error measured over
    l <= 10^4 is 9e-15 for m_l and 3.7e-14 for c_l (op2).
    """

    @staticmethod
    def exact(space, l):
        with mpmath.workdps(40):
            d, d0, l = mpmath.mpf(space.d), mpmath.mpf(space.d0), mpmath.mpf(l)
            half = mpmath.mpf(1) / 2
            s = (d + d0) / 2
            m_l = (2 * l - 1 + s) * mpmath.gammaprod([l + 1, l - 1 + s],
                                                     [l + d / 2, l + d0 / 2])
            c_l = mpmath.gammaprod([(d + 1) / 2, l + d0 / 2, l - half, d / 2 + l],
                                   [l + (d + d0 + 1) / 2, half, l + 1, l + 1, d / 2])
            # canonical radial weight: 2 Gamma(l-1/2) / (Gamma(1/2) Gamma(l)^2)
            # B-factor and Pochhammer quotient (a+1)_{l-1} (b+1)_{l-1} / (a+b+3/2)_{l-1}
            a, b = d / 2, d0 / 2
            a_l = (2 * mpmath.gammaprod([l - half, d + 1, d0 + 1], [half, l, l, d + d0 + 2])
                   * mpmath.rf(a + 1, l - 1) * mpmath.rf(b + 1, l - 1)
                   / mpmath.rf(a + b + 1.5, l - 1))
            return m_l, mpmath.log(c_l), a_l

    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("l", [2000, 5000, 10_000])
    def test_against_mpmath(self, code, l):
        space = parse_space(code)
        m_l, log_c, a_l = self.exact(space, l)
        ls = np.array([l])
        assert float(harmonic._level_weight(space, ls)[0]) == pytest.approx(float(m_l),
                                                                         rel=1e-13)
        # an absolute error of log c_l is the relative error of c_l
        assert float(harmonic._log_chordal_coeff(space, ls)[0]) == pytest.approx(
            float(log_c), rel=0, abs=1e-13)
        assert radial_weight(space, l) == pytest.approx(float(a_l), rel=1e-13)


class TestRadialWeight:
    def test_two_sphere_level_one(self):
        s2 = parse_space("s2")
        assert radial_weight(s2, 1) == pytest.approx(1 / 15, rel=1e-13)

    @pytest.mark.parametrize("code,l", [("s3", 3), ("s2", 1), ("cp2", 4), ("op2", 2)])
    def test_closed_vs_quadrature(self, code, l):
        # direct Gauss-Jacobi integration of the squared polynomial against
        # the geometric weight, mapped from radius to t = cos(r)
        space = parse_space(code)
        d, d0 = space.d, space.d0
        rule = gauss_jacobi(l + 2, float(d), float(d0))
        integral = float(np.dot(rule.weights,
                                _jacobi_row(l - 1, d / 2, d0 / 2, rule.nodes) ** 2))
        expected = 2.0 ** (-d - d0) * integral
        assert radial_weight(space, l) == pytest.approx(expected, rel=1e-10)


class TestPochRatio:
    def test_values(self):
        assert poch_ratio(0, 1.0, 2.0) == 1
        assert poch_ratio(1, 0, 0) == Fraction(2, 3)
        assert poch_ratio(1, 2, 1) == Fraction(4, 3)

    def test_matches_gamma_quotient(self):
        from scipy.special import gammaln
        n, a, b = 7, 1.25, 0.5
        logt = (gammaln(a + n + 1) - gammaln(a + 1) + gammaln(b + n + 1)
                - gammaln(b + 1) - gammaln(a + b + 1.5 + n) + gammaln(a + b + 1.5))
        assert float(poch_ratio(n, a, b)) == pytest.approx(float(np.exp(logt)), rel=1e-12)


class TestLeibnizReduction:
    def test_trivial_order(self):
        assert leibniz_sum(0, Fraction(1, 3), Fraction(2, 7)) == 1
        assert leibniz_closed(0, Fraction(1, 3), Fraction(2, 7)) == 1

    def test_first_order_at_origin(self):
        # only the k=1 term survives; the corrected closed form agrees
        assert leibniz_sum(1, 0, 0) == 2
        assert leibniz_closed(1, 0, 0) == 2
        assert leibniz_closed(1, 0, 0, corrected=False) == 4

    def test_half_half(self):
        s = leibniz_sum(1, Fraction(1, 2), Fraction(1, 2))
        assert s == leibniz_closed(1, Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("a,b", [
        (Fraction(1, 3), Fraction(2, 5)), (Fraction(-1, 4), Fraction(3, 7)),
        (Fraction(5, 4), Fraction(-2, 7)), (Fraction(-3, 5), Fraction(-5, 7)),
    ])
    def test_exact_equality_to_order_eight(self, a, b):
        for n in range(9):
            assert leibniz_sum(n, a, b) == leibniz_closed(n, a, b)

    def test_ratio_identity(self):
        # closed / (2a+2b+2)_{2n} = (1/2)_n * poch_ratio, exactly
        for a, b in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-1, 4), Fraction(1, 2))):
            for n in range(7):
                lhs = Fraction(leibniz_closed(n, a, b), rising(2 * a + 2 * b + 2, 2 * n))
                rhs = rising(Fraction(1, 2), n) * poch_ratio(n, a, b)
                assert lhs == rhs


class TestJacobiSqIntegral:
    def test_order_zero_euler(self):
        for a, b in ((0.0, 0.0), (0.5, 1.0), (2.0, 0.25)):
            expected = 2.0 ** (2 * a + 2 * b + 1) * beta(2 * a + 1, 2 * b + 1)
            assert jacobi_sq_integral(0, a, b) == pytest.approx(expected, rel=1e-13)

    def test_legendre_first(self):
        assert jacobi_sq_integral(1, 0, 0) == pytest.approx(2 / 3, rel=1e-14)
        assert jacobi_sq_integral(1, 0, 0, route="quadrature") == pytest.approx(
            2 / 3, rel=1e-14)

    def test_routes_agree(self):
        val_c = jacobi_sq_integral(3, 1.0, 0.5, route="closed")
        val_q = jacobi_sq_integral(3, 1.0, 0.5, route="quadrature")
        assert val_q == pytest.approx(val_c, rel=1e-11)

    def test_grid_agreement(self):
        grid = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
        worst = 0.0
        for n in range(13):
            for a in grid:
                for b in grid:
                    c = jacobi_sq_integral(n, a, b, route="closed")
                    q = jacobi_sq_integral(n, a, b, route="quadrature")
                    worst = max(worst, abs(c - q) / abs(c))
        assert worst <= 1e-10

    def test_sum_route_consistency(self):
        # integral via the alternating-sum representation
        for n in range(9):
            for a, b in ((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)):
                q = jacobi_sq_integral(n, a, b, route="quadrature")
                w = leibniz_sum(n, Fraction(a), Fraction(b))
                ratio = Fraction(w, rising(2 * Fraction(a) + 2 * Fraction(b) + 2, 2 * n))
                via = (2.0 ** (2 * a + 2 * b + 1) / math.gamma(n + 1) ** 2
                       * beta(2 * a + 1, 2 * b + 1) * float(ratio))
                assert q == pytest.approx(via, rel=1e-10)

    def test_quadrature_domain(self):
        with pytest.raises(DomainError):
            jacobi_sq_integral(2, -0.5, 0.0, route="quadrature")


def _chordal_coeffs(space):
    """t_l = m_l c_l / 2 for l = 1 .. SERIES_CAP, from the library's formulas:
    the coefficients of sin(theta / 2) = sum_l t_l (1 - phi_l(theta))."""
    ls = np.arange(1, SERIES_CAP + 1, dtype=float)
    return 0.5 * harmonic._level_weight(space, ls) * np.exp(harmonic._log_chordal_coeff(space, ls))


def _chordal_head(space, theta):
    """sum_{l <= SERIES_CAP} m_l c_l (1 - phi_l(theta)), degree by degree."""
    a, b = space.d / 2 - 1, space.d0 / 2 - 1
    rec = _JacobiRecurrence(a, b, np.array([math.cos(theta)]))
    rows = [rec.p_cur]
    while rec.degree < SERIES_CAP:
        rows.extend(rec.advance(SERIES_CAP))
    phi = np.array([row[0] / jacobi_at_one(l, a) for l, row in enumerate(rows, 1)])
    return math.fsum(2 * _chordal_coeffs(space) * (1 - phi))


class TestSeries:
    # the chordal expansion sums to 2 sin(theta / 2); its coefficient tail
    # beyond the cap is coeff_tail, and the oscillating part of that tail is
    # at most about 1e-8 at these angles
    def test_chordal_two_sphere_diameter(self):
        s2 = parse_space("s2")
        val = 0.5 * (_chordal_head(s2, math.pi) + coeff_tail(s2, SERIES_CAP + 1))
        assert abs(val - 1.0) <= 1e-7

    def test_chordal_complex_projective(self):
        cp2 = parse_space("cp2")
        val = 0.5 * (_chordal_head(cp2, math.pi / 2) + coeff_tail(cp2, SERIES_CAP + 1))
        assert val == pytest.approx(math.sin(math.pi / 4), abs=1e-8)

    def test_symdiff_zero(self):
        assert symdiff_series(parse_space("cp2"), 0.0) == 0.0

    def test_symdiff_circle_diameter(self):
        val = symdiff_series(parse_space("s1"), math.pi, tol=1e-9)
        assert val == pytest.approx(2 / math.pi, abs=1e-8)

    def test_symdiff_two_sphere_right_angle(self):
        val = symdiff_series(parse_space("s2"), math.pi / 2, tol=1e-9)
        assert val == pytest.approx(math.sin(math.pi / 4) / 2, abs=1e-8)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_pointwise_identity_grid(self, code):
        space = parse_space(code)
        gam = gamma_const(space)
        thetas = np.linspace(0, math.pi, 181)
        vals = symdiff_series(space, thetas, tol=1e-8 / gam)
        assert np.max(np.abs(np.sin(thetas / 2) - gam * vals)) <= 1e-8

    def test_vector_scalar_agree(self, monkeypatch):
        space = parse_space("s3")
        th = 1.234
        assert symdiff_series(space, np.array([th]))[0] == symdiff_series(space, th)
        # each value depends on its own angle only: 600 angles on [0.05, pi]
        # and 120 small ones, whose windows span thousands of degrees, are
        # shuffled together.  With 256 angles a chunk they fill three chunks,
        # and every value must equal, bit for bit, the angle evaluated alone.
        # Every tenth of the 600 asks for 1e-5, which the tail cannot certify
        # within the cap, so the stable-refinement path is exercised as well
        # as the tail path.
        space = parse_space("cp2")
        rng = np.random.default_rng(7)
        perm = rng.permutation(720)
        thetas = np.concatenate([np.linspace(0.05, math.pi, 600),
                                 np.geomspace(1.2e-3, 4e-3, 120)])[perm]
        tols = np.concatenate([np.where(np.arange(600) % 10 == 0, 1e-5, 1e-3),
                               np.full(120, 1e-3)])[perm]
        monkeypatch.setattr(harmonic, "_SERIES_MAX_ANGLES", 256)
        together = symdiff_series(space, thetas, tols)
        alone = [symdiff_series(space, th, tol) for th, tol in zip(thetas, tols)]
        assert np.array_equal(together, alone)

    def test_memory_linear_in_angles(self):
        # 200 small angles, whose windows span thousands of degrees, hold two
        # running sums each and one block of Jacobi rows, not a history of
        # partial sums (a 5000-row one would take 8 MB)
        space = parse_space("s2")
        thetas = np.geomspace(1.2e-3, 4e-3, 200)
        symdiff_series(space, thetas[:1], tol=1e-3)  # builds the cached table
        tracemalloc.start()
        try:
            symdiff_series(space, thetas, tol=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_windows_stay_past_the_previous_checkpoint(self):
        # a window at checkpoint c spans at most c // 2 degrees, so the one
        # running window sum per angle needs it to open after the checkpoint
        # before c
        checkpoints = (0,) + harmonic._CHECKPOINTS
        for prev, c in zip(checkpoints, checkpoints[1:]):
            assert c - c // 2 >= prev

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError):
            symdiff_series(parse_space("s1"), 0.02, tol=1e-13)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            symdiff_series(parse_space("s1"), 4.0)
        with pytest.raises(DomainError):
            symdiff_series(parse_space("s1"), 1.0, tol=0.0)
        with pytest.raises(DomainError):
            symdiff_series(parse_space("s2"), math.nan)
        with pytest.raises(DomainError):
            symdiff_series(parse_space("s2"), np.array([0.5, math.nan]))
        with pytest.raises(DomainError):
            symdiff_series(parse_space("s2"), 1.0, tol=math.nan)


# ---------------------------------------------------------------------------
# the series engine against a per-degree reference loop
#
# Every degree is one step of the generator below and one update of the
# running sums of every angle, open or not, and each window is defined
# directly: the sum of the partial sums of the W degrees that end on its
# checkpoint.  The engine advances the recurrence in blocks, drops accepted
# angles at each checkpoint and adds to the window sums of a prefix of the
# sorted angles only; it must reproduce this loop bit for bit, because each
# kept angle sees the same elementwise operations in the same order.  Values
# are compared against the loop run on the same CPU, not against stored
# hashes, since numpy's cos may round differently by one ulp on another CPU.


def _reference_jacobi_rows(alpha, beta_, t):
    p_prev = np.ones_like(t, dtype=float) if np.ndim(t) else 1.0
    yield p_prev
    p_cur = (alpha + 1) + (alpha + beta_ + 2) * (t - 1) / 2
    yield p_cur
    ab = alpha + beta_
    c4 = alpha * alpha - beta_ * beta_
    for m in itertools.count(2):
        c1 = 2 * m * (m + ab) * (2 * m + ab - 2)
        c2 = 2 * m + ab - 1
        c3 = (2 * m + ab) * (2 * m + ab - 2)
        c5 = 2 * (m + alpha - 1) * (m + beta_ - 1) * (2 * m + ab)
        p_prev, p_cur = p_cur, (c2 * (c3 * t + c4) * p_cur - c5 * p_prev) / c1
        yield p_cur


def _recurrence_rows(alpha, beta_, t):
    """P_0, P_1, P_2, ... from ``_JacobiRecurrence``, a block of degrees at a time."""
    rec = _JacobiRecurrence(alpha, beta_, t)
    yield rec.p_prev
    yield rec.p_cur
    while True:
        yield from rec.advance()


def _reference_series_chunk(th, t_l, H, tail_fn, tols, a, b):
    cap = SERIES_CAP
    n = th.size
    winfull = harmonic._full_windows(th)
    osc_floor = 6.0 * 2 * math.pi / th
    psum = np.zeros(n)
    is_open = np.ones(n, dtype=bool)
    vals = np.empty(n)
    consec = np.zeros(n, dtype=int)
    prev_vhat = np.full(n, np.nan)
    rows = _reference_jacobi_rows(a, b, np.cos(th))
    next(rows)
    pone = 1.0
    checkpoints = iter(harmonic._CHECKPOINTS)
    checkpoint = 0
    for l, p in zip(range(1, cap + 1), rows):
        if l > checkpoint:
            # the window of the next checkpoint: the partial sums of its last W degrees
            checkpoint = next(checkpoints)
            W = np.maximum(np.minimum(winfull, checkpoint // 2), 1)
            wsum = np.zeros(n)
        pone = pone * (a + l) / l
        psum = psum + t_l[l - 1] * (p / pone)
        wsum = np.where(l > checkpoint - W, wsum + psum, wsum)
        if l < checkpoint:
            continue
        j = np.flatnonzero(is_open)
        tol = tols[j]
        vhat = H[l - 1] + tail_fn(l) - wsum[j] / W[j]
        step = np.abs(vhat - prev_vhat[j])
        stable = (step < tol / 4) & (l >= 625) & (l >= osc_floor[j])
        consec[j] = np.where(stable, consec[j] + 1, 0)
        accept = (tail_fn(np.maximum(1, l - W[j])) < tol) | (stable & (consec[j] >= 2))
        if l == cap:
            accept |= step / 4 < tol / 2
            if not accept.all():
                k = np.flatnonzero(~accept)[0]
                raise ConvergenceError(
                    f"series did not certify tolerance {tol[k]:g} at theta="
                    f"{th[j[k]]:.6g} within {cap} terms"
                )
        vals[j[accept]] = vhat[accept]
        is_open[j[accept]] = False
        prev_vhat[j] = vhat
        if not is_open.any():
            break
    return vals


def _with_reference_loop(monkeypatch, series, *args, **kwargs):
    """(engine value, reference value) of one series call."""
    value = series(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(harmonic, "_series_chunk", _reference_series_chunk)
        return value, series(*args, **kwargs)


GRID = np.linspace(0, math.pi, 181)


class TestSeriesMatchesPerDegreeLoop:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_symdiff_grid_canonical(self, monkeypatch, code):
        space = parse_space(code)
        value, reference = _with_reference_loop(
            monkeypatch, symdiff_series, space, GRID, tol=1e-8 / gamma_const(space))
        assert np.array_equal(value, reference)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_chordal_grid(self, monkeypatch, code):
        # the engine takes its coefficients as arguments: here the chordal
        # ones, with their exact tail, on the nonzero angles of the grid
        space = parse_space(code)
        t_l = _chordal_coeffs(space)

        def chordal_by_engine():
            return harmonic._series_chunk(
                GRID[1:], t_l, np.cumsum(t_l), lambda L: 0.5 * coeff_tail(space, L + 1),
                np.full(GRID.size - 1, 1e-8), space.d / 2 - 1, space.d0 / 2 - 1)

        value, reference = _with_reference_loop(monkeypatch, chordal_by_engine)
        assert np.array_equal(value, reference)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_antipode_runs_to_the_cap(self, monkeypatch, code):
        value, reference = _with_reference_loop(
            monkeypatch, symdiff_series, parse_space(code), math.pi, tol=1e-10)
        assert value == reference

    def test_shuffled_angles_over_chunks(self, monkeypatch):
        # 1800 angles at 1e-8 and 200 small ones at 1e-3, whose windows span
        # thousands of degrees, over eight chunks of 256 angles
        rng = np.random.default_rng(11)
        perm = rng.permutation(2000)
        thetas = np.concatenate([rng.uniform(0.05, math.pi, 1800),
                                 np.geomspace(1.2e-3, 4e-3, 200)])[perm]
        tols = np.concatenate([np.full(1800, 1e-8), np.full(200, 1e-3)])[perm]
        monkeypatch.setattr(harmonic, "_SERIES_MAX_ANGLES", 256)
        value, reference = _with_reference_loop(
            monkeypatch, symdiff_series, parse_space("s2"), thetas, tol=tols)
        assert np.array_equal(value, reference)

    @pytest.mark.parametrize("alpha, beta_", [(1.5, 0.5), (0, 0), (1, 2), (-0.5, 0.0),
                                              (7.0, 3.5)])
    def test_jacobi_rows(self, alpha, beta_):
        # an array and single points against the scalar reference, integer
        # and half-integer parameters, across several blocks of degrees
        ts = np.linspace(-1, 1, 37)
        for row, ref in zip(itertools.islice(_recurrence_rows(alpha, beta_, ts), 300),
                            _reference_jacobi_rows(alpha, beta_, ts)):
            assert np.array_equal(row, ref)
        for t in ts[::6]:
            rows = itertools.islice(_recurrence_rows(alpha, beta_, np.array([t])), 140)
            assert [float(row[0]) for row in rows] == list(itertools.islice(
                _reference_jacobi_rows(alpha, beta_, float(t)), 140))


class TestAvgSymdiff:
    def test_circle(self):
        assert avg_symdiff(parse_space("s1")) == pytest.approx(4 / math.pi**2, abs=1e-13)

    def test_two_sphere(self):
        assert avg_symdiff(parse_space("s2")) == pytest.approx(1 / 3, abs=1e-13)

    def test_sine_rule_total_mass(self):
        # sin(r) dr has mass 2 on [0, pi]; the rule's nodes lie inside it
        nodes, weights = harmonic._sine_rule()
        assert math.fsum(weights) == pytest.approx(2.0, rel=1e-14)
        assert np.all((nodes > 0) & (nodes < math.pi))


class TestCoefficientTable:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_mean_identity(self, code):
        # half the total coefficient mass equals the mean chordal distance
        space = parse_space(code)
        total = float(np.sum(_chordal_coeffs(space))) + 0.5 * coeff_tail(space, SERIES_CAP + 1)
        assert total == pytest.approx(avg_chordal(space), abs=1e-12)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_telescoped_tail(self, code):
        # coeff_tail(l) - coeff_tail(l+1) reproduces each term exactly
        space = parse_space(code)
        for l in (1, 2, 17, 300, 5000):
            term = level_weight(space, l) * chordal_coeff(space, l)
            assert coeff_tail(space, l) - coeff_tail(space, l + 1) == pytest.approx(
                term, rel=1e-10)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_tail_bound_dominates(self, code):
        space = parse_space(code)
        partial = 2 * float(np.sum(_chordal_coeffs(space)[5000:]))
        assert coeff_tail(space, 5001) >= partial
        assert coeff_tail(space, SERIES_CAP + 1) >= 0.0

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_symdiff_chain_at_large_level(self, code):
        # the symmetric-difference coefficients telescope through the same
        # antidifference after scaling by 2 gamma(Q)
        space = parse_space(code)
        gam = gamma_const(space)
        inv_b = 1.0 / beta(space.d / 2, space.d0 / 2)
        for l in (3, 50, 2000):
            t_sym = inv_b * level_weight(space, l) * radial_weight(space, l) / l**2
            expected = (coeff_tail(space, l) - coeff_tail(space, l + 1)) / (2 * gam)
            assert t_sym == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_table_matches_scalar_functions(self, code):
        # the table the series engine sums and the scalar exports share one
        # formula each; l = 159/160 straddles the chordal cross-check cutoff
        space = parse_space(code)
        table = expansion_coeffs(space)
        for l in (1, 2, 17, 159, 160, 2000):
            assert table.m_l[l - 1] == pytest.approx(level_weight(space, l), rel=1e-12)
            assert table.a_l[l - 1] == pytest.approx(radial_weight(space, l), rel=1e-12)

    def test_cache_identity(self):
        s2 = parse_space("s2")
        assert expansion_coeffs(s2) is expansion_coeffs(s2)

    def test_positive_finite(self):
        for code in ALL_CODES:
            table = expansion_coeffs(parse_space(code))
            for arr in (table.m_l, table.a_l):
                assert np.all(np.isfinite(arr))
            assert np.all(_chordal_coeffs(parse_space(code)) > 0)
            assert np.all(table.a_l >= 0)
