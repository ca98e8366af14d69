"""Gamma machinery, Pochhammer symbols, Jacobi polynomials, quadrature, 3F2."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import sympy

from crosp import specfun
from crosp.errors import DomainError
from crosp.specfun import (
    Hyp3F2Params,
    beta,
    falling,
    gauss_jacobi,
    hyp3f2_unit,
    jacobi_at_one,
    reg_inc_beta,
    rising,
    signed_log_gamma,
    watson_rhs,
    _JACOBI_BLOCK,
    _JacobiRecurrence,
    _jacobi_row,
)

SQRT_PI = math.sqrt(math.pi)


def log_gamma(x):
    """log Gamma(x) for x > 0: the magnitude part of ``signed_log_gamma``."""
    lg, sign = signed_log_gamma(x)
    assert sign == 1.0
    return lg


def jacobi_eval(n, alpha, beta_, t):
    """P_n^{(alpha, beta)}(t) at one point, by ``_jacobi_row``."""
    return float(_jacobi_row(n, alpha, beta_, np.array([t], dtype=float))[0])


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-15)

    def test_recursion_from_half(self):
        # Gamma(7.5) built by the product recursion Gamma(x+1) = x Gamma(x)
        value = SQRT_PI
        for k in range(7):
            value *= 0.5 + k
        assert log_gamma(7.5) == pytest.approx(math.log(value), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 0.02, 0.7, 1.5, 33.0, 420.0, 1e3])
    def test_accuracy_against_symbolic(self, x):
        exact = float(sympy.loggamma(sympy.Rational(x).limit_denominator(10**6)).evalf(30))
        assert log_gamma(x) == pytest.approx(exact, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_domain(self, x):
        # the poles and NaN; signed_log_gamma takes the other negative x
        with pytest.raises(DomainError):
            signed_log_gamma(x)


class TestSignedLogGamma:
    @pytest.mark.parametrize("x,sign", [(-0.5, -1), (-1.5, 1), (-2.5, -1), (0.3, 1)])
    def test_signs(self, x, sign):
        _, s = signed_log_gamma(x)
        assert s == sign

    def test_reflection_formulas(self):
        # Gamma(1-z) Gamma(z) = pi / sin(pi z) and the half-shifted variant
        for z in (0.3, 0.75, 1.6, 2.2, -0.7, 3.45):
            lg1, s1 = signed_log_gamma(1 - z)
            lg2, s2 = signed_log_gamma(z)
            lhs = s1 * s2 * math.exp(lg1 + lg2)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * z), rel=1e-12)
            lg3, s3 = signed_log_gamma(0.5 - z)
            lg4, s4 = signed_log_gamma(0.5 + z)
            lhs2 = s3 * s4 * math.exp(lg3 + lg4)
            assert lhs2 == pytest.approx(math.pi / math.cos(math.pi * z), rel=1e-12)

    def test_pole(self):
        with pytest.raises(DomainError):
            signed_log_gamma(-3)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            signed_log_gamma(math.nan)


class TestBeta:
    def test_unit(self):
        assert beta(1, 1) == pytest.approx(1.0, rel=1e-15)

    def test_half_half(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_five_halves(self):
        # Gamma(5/2) Gamma(1) / Gamma(7/2) = 2/5 by the recursion
        assert beta(2.5, 1.0) == pytest.approx(0.4, rel=1e-14)

    def test_duplication_formula(self):
        for z in (0.3, 1.0, 2.7, 10.0):
            lhs = log_gamma(2 * z)
            rhs = (log_gamma(z) + log_gamma(z + 0.5)
                   + (2 * z - 1) * math.log(2) - 0.5 * math.log(math.pi))
            assert abs(lhs - rhs) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0, 1)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_rejected(self, a, b):
        with pytest.raises(DomainError):
            beta(a, b)


class TestRegIncBeta:
    def test_uniform_case(self):
        assert reg_inc_beta(0.3, 1, 1) == pytest.approx(0.3, abs=1e-15)

    def test_symmetry_half(self):
        assert reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_against_quadrature(self):
        a, b, x = 1.0, 0.5, 0.25
        integral, _ = scipy.integrate.quad(
            lambda s: s ** (a - 1) * (1 - s) ** (b - 1), 0, x)
        assert reg_inc_beta(x, a, b) == pytest.approx(integral / beta(a, b), abs=1e-12)

    def test_monotone_and_endpoints(self):
        xs = np.linspace(0, 1, 101)
        vals = reg_inc_beta(xs, 2.5, 0.75)
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(vals) >= 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.2, 1, 1)

    def test_without_scipy_names_the_extra(self, monkeypatch):
        # (0.7, 0.4) lies outside 1/2 N, the one case that needs betainc;
        # scipy.special is blocked too, since an imported submodule is found
        # without its parent
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        with pytest.raises(DomainError, match=r"crosp\[scipy\]"):
            reg_inc_beta(0.3, 0.7, 0.4)

    @pytest.mark.parametrize("x,a,b", [
        (math.nan, 1.0, 1.0),
        (np.array([0.2, math.nan]), 1.0, 1.0),
        (0.5, math.nan, 1.0),
        (0.5, 1.0, math.nan),
        (np.array([0.5]), math.nan, 1.0),
    ])
    def test_nan_rejected(self, x, a, b):
        with pytest.raises(DomainError):
            reg_inc_beta(x, a, b)


class TestLgammaDiff:
    """log(Gamma(x + h1) / Gamma(x + h2)) against mpmath at 40 digits, on both
    sides of the switch to the Stirling difference at x + min(h) = 12, with
    the offsets of the catalog's coefficient formulas."""

    XS = [0.5, 3.0, 11.0, 11.5, 12.0, 12.5, 13.0, 20.0, 37.0, 100.0, 1e3, 1e4, 1e6]
    OFFSETS = [(1, 8), (11, 4), (-0.5, 1), (0.5, 12.5), (-0.5, 0), (4, 12.5), (1.5, 1)]

    @pytest.mark.parametrize("h1,h2", OFFSETS)
    def test_against_mpmath(self, h1, h2):
        # the Stirling difference is held to the size of the result (worst
        # measured: 2.4e-14 on a value of 166, x = 1e6); below the switch the
        # two math.lgamma values each carry an ulp or so of their own size
        xs = [x for x in self.XS if x + min(h1, h2) > 0]
        vals = specfun._lgamma_diff(np.array(xs), h1, h2)
        for x, v in zip(xs, vals):
            assert specfun._lgamma_diff(x, h1, h2) == v
            with mpmath.workdps(40):
                lg1, lg2 = mpmath.loggamma(x + h1), mpmath.loggamma(x + h2)
                size = abs(lg1 - lg2) if x + min(h1, h2) >= 12 else max(abs(lg1), abs(lg2))
                assert abs(v - (lg1 - lg2)) <= 2e-15 + 4e-16 * size, (x, h1, h2)

    def test_exact_antisymmetry(self):
        # swapped offsets give the exact negative, equal offsets exactly 0: so
        # m_l is exactly 2l + 1 on s2, where its two ratios cancel
        for h1, h2 in self.OFFSETS:
            xs = np.array([x for x in self.XS if x + min(h1, h2) > 0])
            assert np.array_equal(specfun._lgamma_diff(xs, h2, h1),
                                  -specfun._lgamma_diff(xs, h1, h2))
        assert not np.any(specfun._lgamma_diff(np.array(self.XS), 1.5, 1.5))


# (a, b) = (d/2, d0/2) of the catalog spaces s1, s2, s3, rp2, cp2, hp2, op2,
# the even spheres s4 and s6, s16, whose b = 8 is the finite sum's cap, and
# past the catalog rp3, rp5, s5, s18 and two pairs beyond the cap
ORACLE_AB = [(0.5, 0.5), (1, 1), (1.5, 1.5), (1, 0.5), (2, 1), (4, 2), (8, 4),
             (2, 2), (3, 3), (8, 8), (1.5, 0.5), (2.5, 0.5), (2.5, 2.5), (9, 9),
             (1, 9), (0.5, 9)]
ORACLE_X = ([0.0, 0.5, 1.0, 1e-300, 1e-30, 1e-12, 2.0**-30, 1e-6, 1e-3, 0.1, 1 / 3,
             0.9, 0.999, 1 - 1e-6, 1 - 1e-12, 1 - 2.0**-52, 1 - 2.0**-53]
            + [float(x) for x in np.linspace(0, 1, 129)[1:-1]])
# smallest normal double: a value below it is compared absolutely
TINY = 2.0**-1022


def exact_inc_beta(x, a, b):
    """I_x(a, b) in mpmath at 40 digits, x taken as the exact double."""
    with mpmath.workdps(40):
        return mpmath.betainc(a, b, 0, mpmath.mpf(x), regularized=True)


def inc_beta_error(value, exact):
    """Relative error of value, or its absolute error below TINY."""
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(value) - exact)
        return float(err / exact) if exact >= TINY else float(err) / TINY


class TestRegIncBetaOracle:
    """I_x(a, b) against mpmath at 40 digits.

    An integer b <= 8 takes the finite sum, held to 1e-15 relative (worst
    measured 4.3e-16).  Other (a, b) in 1/2 N take the elementary forms and
    the power series, held to 2e-15 everywhere, x near 1 included (worst
    measured 1.05e-15, at (3/2, 1/2)); scipy's betainc, which served them before,
    lost 2.8e-9 on (1/2, 1/2) at x = 1 - 2^-53.
    """

    @pytest.mark.parametrize("a,b", ORACLE_AB)
    def test_against_mpmath(self, a, b):
        finite = b == int(b) and b <= specfun._FINITE_SUM_MAX_B
        vals = [reg_inc_beta(x, a, b) for x in ORACLE_X]
        assert vals == list(reg_inc_beta(np.array(ORACLE_X), a, b))
        bound = 1e-15 if finite else 2e-15
        for x, v in zip(ORACLE_X, vals):
            assert inc_beta_error(v, exact_inc_beta(x, a, b)) <= bound, (a, b, x)

    def test_endpoints_exact(self):
        for a, b in ORACLE_AB:
            assert reg_inc_beta(0.0, a, b) == 0.0
            assert reg_inc_beta(1.0, a, b) == 1.0

    def test_finite_sum_cap(self):
        # the oracle covers the cap itself and b = cap + 1 past it (the finite
        # sum reached 1.2e-15 at b = 12), where the half-integer forms take
        # over; betainc serves, bit for bit, only (a, b) outside 1/2 N and
        # past _HALF_INTEGER_MAX
        cap = specfun._FINITE_SUM_MAX_B
        assert {(cap, cap), (1, cap + 1), (cap + 1, cap + 1)} <= set(ORACLE_AB)
        xs = np.array(ORACLE_X)
        big = specfun._HALF_INTEGER_MAX + 0.5
        for a, b in ((1, 0.3), (0.7, 2.5), (1.25, cap + 1), (1, big), (big, 0.5)):
            assert np.array_equal(reg_inc_beta(xs, a, b), scipy.special.betainc(a, b, xs))

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1, 0.5), (1.5, 1.5), (2.5, 0.5)])
    def test_value_independent_of_the_array(self, a, b):
        # the power series sums until its largest x converges; a value must
        # not depend on which other x share the call
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.random(300) ** 3, [0.01, 0.2, 0.43, 0.6]])
        whole = reg_inc_beta(xs, a, b)
        for part in (xs[:1], xs[::7], xs[-4:], rng.permutation(xs)):
            got = reg_inc_beta(part, a, b)
            assert np.array_equal(got, [whole[np.flatnonzero(xs == x)[0]] for x in part])


class TestPochhammer:
    def test_rising_empty(self):
        assert rising(3.7, 0) == 1

    def test_rising_integer(self):
        assert rising(3, 4) == 360

    def test_rising_half(self):
        assert rising(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_falling(self):
        assert falling(5, 2) == 20
        assert falling(2, 3) == 0
        assert falling(1.0, 0) == 1

    @pytest.mark.parametrize("fn", [rising, falling])
    @pytest.mark.parametrize("k", [math.nan, math.inf, -1, 1.5])
    def test_order_domain(self, fn, k):
        with pytest.raises(DomainError):
            fn(1.0, k)

    @pytest.mark.parametrize("a", [Fraction(2, 3), Fraction(-7, 4), 5, Fraction(0)])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_duality_exact(self, a, k):
        assert falling(a, k) == (-1) ** k * rising(-a, k)

    def test_product_identity_exact(self):
        # (2a+2b+2)_{2n} = 2^{2n} (a+b+1)_n (a+b+3/2)_n
        grid = [Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(-1, 4), Fraction(2)]
        for a in grid:
            for b in grid:
                for n in range(9):
                    lhs = rising(2 * a + 2 * b + 2, 2 * n)
                    rhs = (4**n * rising(a + b + 1, n)
                           * rising(a + b + Fraction(3, 2), n))
                    assert lhs == rhs


def _rodrigues_poly(n, a, b):
    """Symbolic Jacobi polynomial from the derivative formula."""
    t = sympy.Symbol("t")
    inner = (1 - t) ** (n + a) * (1 + t) ** (n + b)
    expr = ((-1) ** n / (2**n * sympy.factorial(n))
            * (1 - t) ** (-a) * (1 + t) ** (-b) * sympy.diff(inner, t, n))
    return sympy.Poly(sympy.expand(sympy.simplify(expr)), t)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_eval(0, 0.3, 0.7, -0.2) == 1.0

    def test_degree_one_legendre(self):
        assert jacobi_eval(1, 0, 0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_value_at_one_binomial(self):
        assert jacobi_eval(2, 1, 1, 1.0) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("a", [0, sympy.Rational(1, 2), 1, 2])
    @pytest.mark.parametrize("b", [0, sympy.Rational(1, 2), 1, 2])
    def test_against_rodrigues(self, a, b):
        ts = np.cos(np.pi * np.arange(21) / 20)
        for n in range(7):
            poly = _rodrigues_poly(n, a, b)
            for t in ts:
                expected = float(poly.eval(sympy.Float(t, 25)))
                assert abs(jacobi_eval(n, float(a), float(b), t) - expected) <= 1e-11

    def test_bound_by_value_at_one(self):
        # holds for alpha >= beta >= 0, which covers every catalog space
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = float(rng.uniform(0, 4))
            a = b + float(rng.uniform(0, 3))
            n = int(rng.integers(0, 12))
            t = float(rng.uniform(-1, 1))
            assert abs(jacobi_eval(n, a, b, t)) <= jacobi_at_one(n, a) * (1 + 1e-12)

    def test_rows_elementwise(self):
        # the array recurrence reproduces a one-point recurrence entry by entry
        ts = np.linspace(-1, 1, 9)
        rec = _JacobiRecurrence(1.5, 0.5, ts)
        rows = [rec.p_prev, rec.p_cur, *rec.advance(29)]
        for n, row in enumerate(rows):
            assert np.array_equal(row, [jacobi_eval(n, 1.5, 0.5, t) for t in ts])

    def test_compacted_recurrence_equals_fresh_one(self):
        # after a checkpoint drops some elements of t, the rows of the kept
        # ones are those of a recurrence started on the kept elements alone
        ts = np.cos(np.linspace(0.01, np.pi, 50))
        keep = np.array([1, 2, 7, 30, 49])
        rec = _JacobiRecurrence(1.5, 0.5, ts)
        while rec.degree < 156:
            rec.advance(156)
        rec.compact(keep)
        fresh = _JacobiRecurrence(1.5, 0.5, ts[keep])
        while fresh.degree < 156:
            fresh.advance(156)
        assert np.array_equal(rec.t, fresh.t)
        assert np.array_equal(rec.p_prev, fresh.p_prev)
        assert np.array_equal(rec.p_cur, fresh.p_cur)
        while rec.degree < 312:
            assert np.array_equal(rec.advance(312), fresh.advance(312))
        assert fresh.degree == 312

    def test_blocks_end_at_the_limit(self):
        rec = _JacobiRecurrence(0.5, 0.0, np.linspace(-1, 1, 4))
        sizes = []
        while rec.degree < 156:
            sizes.append(len(rec.advance(156)))
        assert sizes == [_JACOBI_BLOCK, _JACOBI_BLOCK, 155 - 2 * _JACOBI_BLOCK]
        # a limit at or below the current degree would leave the state behind
        with pytest.raises(ValueError):
            rec.advance(156)
        assert rec.degree == 156

    def test_bound_can_fail_with_swapped_parameters(self):
        # with beta > alpha the magnitude peaks at t = -1; degree 1 at (0, 1/2)
        assert abs(jacobi_eval(1, 0.0, 0.5, -1.0)) > jacobi_at_one(1, 0.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
    def test_degree_domain(self, n):
        # P_n(1), which normalises every zonal function, checks the degree
        with pytest.raises(DomainError):
            jacobi_at_one(n, 0.5)


class TestJacobiAtOne:
    def test_trivial(self):
        assert jacobi_at_one(0, 2.3) == pytest.approx(1.0)

    def test_integer(self):
        assert jacobi_at_one(2, 1) == pytest.approx(3.0, rel=1e-14)

    def test_half(self):
        assert jacobi_at_one(3, 0.5) == pytest.approx(35 / 16, rel=1e-13)

    def test_negative_alpha_product_form(self):
        # (-0.5)(0.5)(1.5) / 3! between the gamma poles
        assert jacobi_at_one(3, -1.5) == pytest.approx(-0.0625, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi_at_one(1, -2.5)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            jacobi_at_one(2, math.nan)
        with pytest.raises(DomainError):
            jacobi_at_one(math.nan, 0.5)


def _moment(alpha, beta_, j):
    """Integral of (1-t)^alpha (1+t)^beta t^j over [-1, 1].

    Binomial-beta expansion evaluated in exact arithmetic (the alternating
    sum cancels catastrophically in floats for larger j).
    """
    a = sympy.nsimplify(alpha)
    b = sympy.nsimplify(beta_)
    total = sum(
        sympy.binomial(j, i) * (-2) ** i * sympy.beta(a + i + 1, b + 1)
        for i in range(j + 1)
    )
    return float((2 ** (a + b + 1) * total).evalf(40))


class TestGaussJacobi:
    def test_one_node_legendre(self):
        rule = gauss_jacobi(1, 0, 0)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-14)

    def test_one_node_shifted(self):
        rule = gauss_jacobi(1, 1, 0)
        assert rule.nodes[0] == pytest.approx(-1 / 3, rel=1e-14)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-14)

    def test_monomial_legendre(self):
        rule = gauss_jacobi(5, 0, 0)
        assert np.dot(rule.weights, rule.nodes**8) == pytest.approx(2 / 9, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta_", [(0, 0), (1, 0), (0.5, 1.5), (2, 3), (-0.5, -0.5)])
    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_moment_exactness(self, alpha, beta_, m):
        rule = gauss_jacobi(m, alpha, beta_)
        for j in range(2 * m):
            quad = np.dot(rule.weights, rule.nodes**j)
            assert quad == pytest.approx(_moment(alpha, beta_, j), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("alpha,beta_", [(0, 0), (1.5, 0.5), (3, 1)])
    def test_total_mass(self, alpha, beta_):
        rule = gauss_jacobi(9, alpha, beta_)
        expected = 2 ** (alpha + beta_ + 1) * beta(alpha + 1, beta_ + 1)
        assert rule.weights.sum() == pytest.approx(expected, rel=1e-13)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_against_scipy(self):
        rule = gauss_jacobi(12, 1.25, 0.75)
        nodes, weights = scipy.special.roots_jacobi(12, 1.25, 0.75)
        assert np.allclose(rule.nodes, nodes, atol=1e-12)
        assert np.allclose(rule.weights, weights, atol=1e-12)

    def test_orthogonality(self):
        for alpha, beta_ in ((0, 0), (1, 0.5), (2.5, 1)):
            rule = gauss_jacobi(12, alpha, beta_)
            for n in range(9):
                for m in range(n + 1, 9):
                    val = float(np.dot(
                        rule.weights,
                        [jacobi_eval(n, alpha, beta_, t) * jacobi_eval(m, alpha, beta_, t)
                         for t in rule.nodes],
                    ))
                    assert abs(val) <= 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_jacobi(0, 0, 0)
        with pytest.raises(DomainError):
            gauss_jacobi(3, -1, 0)
        with pytest.raises(DomainError):
            gauss_jacobi(math.inf, 0, 0)

    @pytest.mark.parametrize("alpha,beta_", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_rejected(self, alpha, beta_):
        with pytest.raises(DomainError):
            gauss_jacobi(3, alpha, beta_)


class TestHyp3F2:
    def test_zero_numerator(self):
        assert hyp3f2_unit(Hyp3F2Params(0, 0.4, 1.2, 0.7, 2.4)) == 1.0

    def test_two_term(self):
        assert hyp3f2_unit(Hyp3F2Params(-1, 1, 1, 2, 2)) == pytest.approx(0.75, rel=1e-15)

    def test_three_term_float(self):
        # hand-computed terminating sum: 1 - 24/7 + 9/14 = -25/14
        p = Hyp3F2Params(-2, 2.4, -1.3, 0.7, -2.6)
        assert hyp3f2_unit(p) == pytest.approx(-25 / 14, rel=1e-14)

    def test_three_term_exact(self):
        p = Hyp3F2Params(Fraction(-2), Fraction(12, 5), Fraction(-13, 10),
                         Fraction(7, 10), Fraction(-13, 5))
        assert hyp3f2_unit(p, mode="exact") == Fraction(-25, 14)

    def test_denominator_hits_zero(self):
        with pytest.raises(DomainError):
            hyp3f2_unit(Hyp3F2Params(-3, 1.0, 1.0, -2, 2.0))

    def test_deep_negative_denominator_allowed(self):
        # terminates at K=1 before the denominator pole at -3 is reached
        val = hyp3f2_unit(Hyp3F2Params(-1, 1.0, 1.0, -3, 2.0))
        assert val == pytest.approx(1 + 1 / 6, rel=1e-14)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            hyp3f2_unit(Hyp3F2Params(1.0, 1.0, 1.0, 1.0, 1.5))

    def test_exact_requires_terminating(self):
        with pytest.raises(DomainError):
            hyp3f2_unit(Hyp3F2Params(1, 1, 1, 3, 3), mode="exact")

    def test_nonterminating_converges(self):
        # gentle case: terms decay like k^{-3.5}
        val = hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 0.5, 2.0, 2.0))
        ref = float(sympy.hyper((sympy.Rational(1, 2),) * 3, (2, 2), 1).evalf(25))
        assert val == pytest.approx(ref, rel=1e-12)


    # nonterminating sums with a closed form: Watson's theorem,
    # 3F2(a, b, c; (a+b+1)/2, 2c; 1), and Dixon's, 3F2(a, b, c; 1+a-b, 1+a-c; 1)
    @staticmethod
    def watson(a, b, c):
        return ((a, b, c, (a + b + 1) / 2, 2 * c),
                ([0.5, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2],
                 [(a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2, c - (b - 1) / 2]))

    @staticmethod
    def dixon(a, b, c):
        return ((a, b, c, 1 + a - b, 1 + a - c),
                ([1 + a / 2, 1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                 [1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c]))

    @pytest.mark.parametrize("family,abc", [
        ("watson", (0.3, 0.6, 2.5)), ("watson", (-0.4, 0.7, 2.3)),
        ("watson", (0.5, 1.5, 3.5)), ("watson", (1.2, 0.4, 3.2)),
        ("dixon", (2.5, 0.25, -0.5)), ("dixon", (1.3, -0.4, -0.2)),
        ("dixon", (3.0, 0.5, 0.25)), ("dixon", (0.7, -0.6, 0.1)),
    ])
    def test_nonterminating_against_mpmath(self, family, abc):
        # the sum stops once a term is below 1e-16 of it and adds the tail
        # estimate t_k (k / s - 1/2) (s = d + e - a - b - c, here 2.55 to 5):
        # measured worst 1.5e-16
        params, (num, den) = getattr(self, family)(*abc)
        with mpmath.workdps(40):
            exact = mpmath.gammaprod(num, den)
            err = abs(mpmath.mpf(hyp3f2_unit(Hyp3F2Params(*params))) / exact - 1)
        assert err <= 1e-15


class TestWatson:
    # generic (a, b, c) with 2c - a - b + 1 > 0 and no gamma argument of the
    # closed form at a pole
    ORACLE = [(a, b, c) for a in (-2.5, -0.83, 0.45, 1.7) for b in (-0.37, 0.6, 2.2)
              for c in (-0.21, 0.45, 1.3, 3.1) if 2 * c - a - b + 1 > 0]

    @pytest.mark.parametrize("a,b,c", ORACLE)
    def test_against_mpmath(self, a, b, c):
        # eight lgamma values, each within an ulp or so: measured worst 3e-15
        with mpmath.workdps(40):
            exact = mpmath.gammaprod([0.5, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2],
                                     [(a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2,
                                      c - (b - 1) / 2])
            err = abs(mpmath.mpf(watson_rhs(a, b, c)) / exact - 1)
        assert err <= 1e-14

    def test_unit_series_cancellation(self):
        # at a = 0 the series is 1; the gamma quotient must cancel to 1
        assert watson_rhs(0, 0.4, 1.2) == pytest.approx(1.0, rel=1e-13)

    def test_terminating_match(self):
        # n=1, alpha=-0.7, beta=-0.6 -> (a,b,c) = (-2, -0.2, -0.3)
        a, b, c = -2, -0.2, -0.3
        series = hyp3f2_unit(Hyp3F2Params(a, b, c, (a + b + 1) / 2, 2 * c))
        assert watson_rhs(a, b, c) == pytest.approx(series, rel=1e-12)
        assert series == pytest.approx(1.25, rel=1e-13)  # hand-computed

    def test_equal_upper_parameters(self):
        a = b = 0.3
        c = 1.0
        series = hyp3f2_unit(Hyp3F2Params(a, b, c, (a + b + 1) / 2, 2 * c))
        # the series adds its tail estimate, which leaves 1.2e-16 against
        # mpmath (terms decay like k^{-2.2}); watson_rhs is within 3e-15
        assert watson_rhs(a, b, c) == pytest.approx(series, rel=1e-14)

    def test_convergence_condition_enforced(self):
        # terminating instance violating 2c - a - b + 1 > 0: the closed form
        # is rejected even though the series itself is a finite sum
        with pytest.raises(DomainError):
            watson_rhs(-2, 2.4, -1.3)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            watson_rhs(-1.0, 0.5, -0.25)  # c + 1/2 = 1/4 > 0, but (a+1)/2 = 0
