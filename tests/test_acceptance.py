"""Acceptance gate: every headline identity at its contract tolerance.

Each test prints one PASS line (visible with ``pytest -s``); the test names
index the criteria.  Monte Carlo checks use fixed seeds and three-sigma
bounds; everything else is deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from crosp.discrepancy import discrepancy_closed, discrepancy_mc, invariance_residual
from crosp.harmonic import (
    avg_symdiff,
    jacobi_sq_integral,
    leibniz_closed,
    leibniz_sum,
    symdiff_series,
)
from crosp.spaces import (
    PointSet,
    avg_chordal,
    gamma_const,
    parse_space,
    sample_uniform,
)
from crosp.specfun import Hyp3F2Params, hyp3f2_unit, watson_rhs
from crosp.verify import _WATSON_PAIRS

ALL_CODES = ["s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"]
MC_CODES = ["s2", "s3", "rp2", "cp2", "hp2"]


@pytest.mark.parametrize("code", MC_CODES)
def test_criterion_1_invariance_identity_monte_carlo(code):
    """gamma(Q) lambda_mc + tau[D_N] = <tau> N^2 within 3 standard errors."""
    space = parse_space(code)
    rng = np.random.default_rng(2024)
    pts = sample_uniform(space, 100, rng)
    t0 = time.monotonic()
    res = invariance_residual(space, pts, route="mc", samples=1_000_000, seed=2024)
    elapsed = time.monotonic() - t0
    sigmas = abs(res.value) / res.stderr
    assert sigmas <= 3.0, f"{code}: residual {res.value} is {sigmas:.2f} sigma"
    assert elapsed <= 60.0, f"{code}: took {elapsed:.1f}s"
    print(f"PASS criterion 1 [{code}]: residual {res.value:+.4f} "
          f"({sigmas:.2f} sigma, {elapsed:.1f}s)")


def test_criterion_2_pointwise_metric_identity():
    """max over the 181-angle grid of |tau - gamma * symdiff| <= 1e-8, all spaces."""
    thetas = np.linspace(0.0, math.pi, 181)
    t0 = time.monotonic()
    worst = {}
    for code in ALL_CODES:
        space = parse_space(code)
        gam = gamma_const(space)
        vals = symdiff_series(space, thetas, tol=1e-8 / gam)
        worst[code] = float(np.max(np.abs(np.sin(thetas / 2) - gam * vals)))
    elapsed = time.monotonic() - t0
    assert all(err <= 1e-8 for err in worst.values()), worst
    assert elapsed <= 10.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 2: worst error {max(worst.values()):.2e} "
          f"over {len(ALL_CODES)} spaces in {elapsed:.1f}s")


def test_criterion_3_squared_jacobi_closed_form():
    """Quadrature vs closed form, n <= 12, (alpha, beta) on the 6x6 grid."""
    grid = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for n in range(13):
        for a in grid:
            for b in grid:
                closed = jacobi_sq_integral(n, a, b, route="closed")
                quad = jacobi_sq_integral(n, a, b, route="quadrature")
                worst = max(worst, abs(closed - quad) / abs(closed))
    assert worst <= 1e-10
    print(f"PASS criterion 3: max relative error {worst:.2e}")


def test_criterion_4_exact_reduction_with_erratum_flag():
    """Exact rational identity for the by-parts sum; the unscaled form fails."""
    grid = [(Fraction(1, 3), Fraction(2, 5)), (Fraction(-1, 4), Fraction(3, 7)),
            (Fraction(5, 4), Fraction(-2, 7)), (Fraction(-3, 5), Fraction(-5, 7)),
            (Fraction(7, 3), Fraction(1, 2)), (Fraction(9, 4), Fraction(11, 6))]
    for n in range(9):
        for a, b in grid:
            s = leibniz_sum(n, a, b)
            assert s == leibniz_closed(n, a, b)
            expected_unscaled = leibniz_closed(n, a, b, corrected=False)
            if n >= 1:
                assert s != expected_unscaled
    # the specific regression: 2 vs 4 at n=1, alpha=beta=0
    assert leibniz_sum(1, 0, 0) == 2
    assert leibniz_closed(1, 0, 0, corrected=False) == 4
    print("PASS criterion 4: exact equality for n <= 8; "
          "unscaled closed form rejected (2 vs 4 at n=1, origin)")


def test_criterion_5_watson_closed_form():
    """Terminating 3F2 vs the gamma quotient at 20 generic points, n <= 6."""
    assert len(_WATSON_PAIRS) == 20
    worst = 0.0
    for n in range(7):
        for alpha, beta_ in _WATSON_PAIRS:
            assert alpha + beta_ < 0
            a, b, c = -2 * n, 2 * beta_ + 1, -alpha - n
            series = hyp3f2_unit(Hyp3F2Params(a, b, c, (a + b + 1) / 2, 2 * c))
            closed = watson_rhs(a, b, c)
            worst = max(worst, abs(series - closed) / abs(closed))
    assert worst <= 1e-11
    print(f"PASS criterion 5: max relative error {worst:.2e}")


def test_criterion_6_coefficient_chain():
    """Radial weights against chordal coefficients, l <= 20, every space."""
    from crosp.harmonic import chordal_coeff, level_weight, radial_weight
    from crosp.specfun import beta as beta_fn

    worst = 0.0
    for code in ALL_CODES:
        space = parse_space(code)
        gam = gamma_const(space)
        inv_b = 1.0 / beta_fn(space.d / 2, space.d0 / 2)
        for l in range(1, 21):
            lhs = gam * radial_weight(space, l) * inv_b / l**2
            rhs = chordal_coeff(space, l) / 2
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
            closed = jacobi_sq_integral(l - 1, space.d / 2, space.d0 / 2, "closed")
            quad = jacobi_sq_integral(l - 1, space.d / 2, space.d0 / 2, "quadrature")
            worst = max(worst, abs(closed - quad) / abs(closed))
            assert level_weight(space, l) > 0
    assert worst <= 1e-9
    print(f"PASS criterion 6: max relative error {worst:.2e}")


def test_criterion_7_constants():
    """Closed-form constants to 1e-12."""
    checks = [
        (gamma_const(parse_space("s2")), 2.0, "gamma(s2)"),
        (gamma_const(parse_space("s1")), math.pi / 2, "gamma(s1)"),
        (gamma_const(parse_space("cp2")), 3.0, "gamma(cp2)"),
        (avg_chordal(parse_space("s1")), 2 / math.pi, "avg chordal s1"),
        (avg_chordal(parse_space("s2")), 2 / 3, "avg chordal s2"),
        (avg_chordal(parse_space("cp2")), 4 / 5, "avg chordal cp2"),
        (avg_symdiff(parse_space("s1")), 4 / math.pi**2, "avg symdiff s1"),
    ]
    for value, expected, label in checks:
        assert abs(value - expected) <= 1e-12, f"{label}: {value} vs {expected}"
    print("PASS criterion 7: all seven constants within 1e-12")


def test_criterion_8_antipodal_benchmark():
    """S^1 antipodal pair: lambda = 16/pi^2 - 4/pi by closed and MC routes."""
    s1 = parse_space("s1")
    pts = PointSet.from_points(s1, [np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    exact = 16 / math.pi**2 - 4 / math.pi
    lam = discrepancy_closed(s1, pts)
    assert abs(lam - exact) <= 1e-12
    est = discrepancy_mc(s1, pts, 1_000_000, seed=8)
    sigmas = abs(est.value - exact) / est.stderr
    assert sigmas <= 3.0, f"{sigmas:.2f} sigma"
    print(f"PASS criterion 8: closed error {abs(lam - exact):.1e}, "
          f"mc within {sigmas:.2f} sigma")
