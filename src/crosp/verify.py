"""Identity-certification suites producing verification reports.

Each suite sweeps a parameter grid, compares two independent evaluation
routes, and reports the worst absolute and relative errors against a fixed
tolerance.  A failing sub-check never aborts a suite; failures aggregate
into the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import discrepancy as disc
from . import harmonic, spaces
from .errors import CrospError
from .spaces import RadiusMeasure, SpaceSpec, catalog, make_space
from .specfun import Hyp3F2Params, beta, hyp3f2_unit, rising, watson_rhs

__all__ = [
    "VerificationReport",
    "verify_pointwise",
    "verify_coeff_chain",
    "verify_sq_integral",
    "verify_poly_reduction",
    "verify_watson",
    "verify_constants",
    "verify_invariance",
    "SUITES",
    "run_suite",
]


@dataclass
class VerificationReport:
    """Outcome of one identity-certification suite."""

    identity: str
    grid: str
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool
    notes: str = ""
    failures: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "grid": self.grid,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "notes": self.notes,
            "failures": list(self.failures),
        }


def _finish(identity, grid, abs_errs, rel_errs, tol, notes, failures,
            rel_gate=True) -> VerificationReport:
    max_abs = max(abs_errs) if abs_errs else 0.0
    max_rel = max(rel_errs) if rel_errs else 0.0
    measured = max_rel if rel_gate else max_abs
    passed = (not failures) and measured <= tol
    return VerificationReport(identity, grid, max_abs, max_rel, tol,
                              passed, notes, failures)


# the tolerance of the diameter ratio's series at theta = pi in verify_constants
_DIAMETER_TOL = 1e-10


def verify_pointwise(space: SpaceSpec, grid_size: int = 181,
                     tol: float = 1e-8, series=None) -> VerificationReport:
    """Chordal metric vs gamma(Q) times the symmetric-difference expansion.

    ``series``, when the caller has it, is symdiff_series on the grid.
    """
    thetas = np.linspace(0.0, math.pi, grid_size)
    gam = spaces.gamma_const(space)
    abs_errs, rel_errs, failures = [], [], []
    try:
        if series is None:
            series = harmonic.symdiff_series(space, thetas, tol=tol / gam)
        errs = np.abs(np.sin(thetas / 2) - gam * series)
        abs_errs = [float(e) for e in errs]
        rel_errs = abs_errs  # both metrics are normalized to diameter 1
    except CrospError as exc:
        failures.append(f"series evaluation failed: {exc}")
    return _finish(
        "pointwise-metric-identity",
        f"space={space}, {grid_size} angles on [0, pi]",
        abs_errs, rel_errs, tol,
        "max |sin(theta/2) - gamma * symdiff(theta)| over the grid",
        failures, rel_gate=False,
    )


def verify_coeff_chain(space: SpaceSpec, l_max: int = 20,
                       tol: float = 1e-9) -> VerificationReport:
    """Radial-weight closed form vs quadrature, and the coefficient chain.

    Checks, for 1 <= l <= l_max, that the squared-Jacobi integral with the
    doubled geometric weight matches its Pochhammer closed form, and that
    gamma(Q) l^-2 B(d/2, d0/2)^-1 A_l equals C_l / 2.
    """
    d, d0 = space.d, space.d0
    gam = spaces.gamma_const(space)
    inv_b = 1.0 / beta(d / 2, d0 / 2)
    abs_errs, rel_errs, failures = [], [], []
    measure = RadiusMeasure.canonical()
    for l in range(1, l_max + 1):
        try:
            closed = harmonic.jacobi_sq_integral(l - 1, d / 2, d0 / 2, route="closed")
            quad = harmonic.jacobi_sq_integral(l - 1, d / 2, d0 / 2, route="quadrature")
            rel_errs.append(abs(closed - quad) / abs(closed))
            abs_errs.append(abs(closed - quad))
            a_l = harmonic.radial_weight(space, l, measure)
            lhs = gam * a_l * inv_b / l**2
            rhs = harmonic.chordal_coeff(space, l) / 2
            rel_errs.append(abs(lhs - rhs) / abs(rhs))
            abs_errs.append(abs(lhs - rhs))
        except CrospError as exc:
            failures.append(f"l={l}: {exc}")
    return _finish(
        "coefficient-chain",
        f"space={space}, 1 <= l <= {l_max}",
        abs_errs, rel_errs, tol,
        "squared-Jacobi integral closed vs quadrature, and the chain linking "
        "radial weights to chordal coefficients",
        failures,
    )


def verify_sq_integral(n_max: int = 12, params=(0.0, 0.25, 0.5, 1.0, 2.0, 4.0),
                       tol: float = 1e-10) -> VerificationReport:
    """Squared-Jacobi integral: Pochhammer closed form vs Gauss quadrature."""
    abs_errs, rel_errs, failures = [], [], []
    for n in range(n_max + 1):
        for a in params:
            for b in params:
                try:
                    closed = harmonic.jacobi_sq_integral(n, a, b, route="closed")
                    quad = harmonic.jacobi_sq_integral(n, a, b, route="quadrature")
                    rel_errs.append(abs(closed - quad) / abs(closed))
                    abs_errs.append(abs(closed - quad))
                except CrospError as exc:
                    failures.append(f"(n,a,b)=({n},{a},{b}): {exc}")
    # the quadrature route must refuse parameters with a non-integrable weight
    restriction_ok = True
    try:
        harmonic.jacobi_sq_integral(1, -0.5, 0.0, route="quadrature")
        restriction_ok = False
    except CrospError:
        pass
    if not restriction_ok:
        failures.append("quadrature route accepted alpha = -1/2")
    return _finish(
        "squared-jacobi-integral",
        f"n <= {n_max}, alpha, beta in {sorted(set(params))}",
        abs_errs, rel_errs, tol,
        "closed form vs (n+2)-node Gauss rule for the doubled weight; the "
        "quadrature route must reject exponents <= -1/2",
        failures,
    )


_RATIONAL_GRID = (
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(-1, 4), Fraction(3, 7)),
    (Fraction(5, 4), Fraction(-2, 7)),
    (Fraction(7, 3), Fraction(1, 2)),
    (Fraction(-3, 5), Fraction(-5, 7)),
    (Fraction(9, 4), Fraction(11, 6)),
)


def verify_poly_reduction(n_max: int = 8, grid=_RATIONAL_GRID,
                          use_uncorrected: bool = False) -> VerificationReport:
    """Alternating by-parts sum vs its closed form, exactly in rationals.

    Also cross-checks the float quadrature route against the sum-based
    integral formula, and demonstrates that the closed form without the
    leading (1/2)_n factor fails at n=1, alpha=beta=0 (2 vs 4).
    """
    failures = []
    abs_errs, rel_errs = [], []
    for n in range(n_max + 1):
        for a, b in grid:
            s = harmonic.leibniz_sum(n, a, b)
            c = harmonic.leibniz_closed(n, a, b, corrected=not use_uncorrected)
            if s != c:
                failures.append(f"(n,a,b)=({n},{a},{b}): sum {s} != closed {c}")
    # float-level consistency: quadrature integral vs the sum-based formula
    for n in range(min(n_max, 6) + 1):
        for a, b in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.5), (2.0, 1.0)):
            quad = harmonic.jacobi_sq_integral(n, a, b, route="quadrature")
            fa, fb = Fraction(a), Fraction(b)
            ratio = harmonic.leibniz_sum(n, fa, fb) / rising(2 * fa + 2 * fb + 2, 2 * n)
            via_sum = (2.0 ** (2 * a + 2 * b + 1) / math.gamma(n + 1) ** 2
                       * math.exp(math.lgamma(2 * a + 1) + math.lgamma(2 * b + 1)
                                  - math.lgamma(2 * a + 2 * b + 2))
                       * float(ratio))
            rel_errs.append(abs(quad - via_sum) / abs(via_sum))
            abs_errs.append(abs(quad - via_sum))
    wrong = harmonic.leibniz_closed(1, 0, 0, corrected=False)
    right = harmonic.leibniz_sum(1, 0, 0)
    notes = (
        "closed form carries a leading (1/2)_n factor; the variant without it "
        f"evaluates to {wrong} at n=1, alpha=beta=0 while the direct sum gives "
        f"{right}, so that variant is rejected as an erratum"
    )
    if rel_errs and max(rel_errs) > 1e-10:
        failures.append("sum-based integral formula vs quadrature exceeded 1e-10")
    return _finish(
        "alternating-sum-closed-form",
        f"n <= {n_max}, {len(grid)} generic rational (alpha, beta) pairs",
        abs_errs, rel_errs, 1e-10, notes, failures,
    )


_WATSON_PAIRS = (
    (-0.83, -0.37), (-0.41, -0.29), (-1.07, -0.13), (-0.59, -0.61),
    (-0.23, -0.97), (-0.71, -0.19), (-0.93, -0.47), (-0.17, -0.53),
    (-0.67, -0.73), (-1.13, -0.31), (-0.49, -0.11), (-0.87, -0.79),
    (-0.33, -0.43), (-1.01, -0.57), (-0.77, -0.07), (-0.21, -0.89),
    (-0.63, -0.27), (-0.39, -1.09), (-0.91, -0.23), (-0.53, -0.69),
)


def verify_watson(n_max: int = 6, pairs=_WATSON_PAIRS,
                  tol: float = 1e-11) -> VerificationReport:
    """Terminating 3F2 at unit argument vs the Watson gamma quotient.

    Parameters (a, b, c) = (-2n, 2 beta + 1, -alpha - n) on generic
    non-integer (alpha, beta) with alpha + beta < 0, which places every
    grid point inside the validity region of the closed form.
    """
    abs_errs, rel_errs, failures = [], [], []
    for n in range(n_max + 1):
        for alpha, beta_ in pairs:
            if alpha + beta_ >= 0:
                failures.append(f"grid point ({alpha}, {beta_}) violates alpha+beta<0")
                continue
            a, b, c = -2 * n, 2 * beta_ + 1, -alpha - n
            try:
                series = hyp3f2_unit(
                    Hyp3F2Params(a, b, c, (a + b + 1) / 2, 2 * c), mode="float")
                closed = watson_rhs(a, b, c)
                abs_errs.append(abs(series - closed))
                rel_errs.append(abs(series - closed) / max(abs(closed), 1e-300))
            except CrospError as exc:
                failures.append(f"(n,alpha,beta)=({n},{alpha},{beta_}): {exc}")
    return _finish(
        "watson-3f2",
        f"n <= {n_max}, {len(pairs)} generic (alpha, beta) with alpha+beta<0",
        abs_errs, rel_errs, tol,
        "terminating series summed term-by-term vs the gamma-quotient closed form",
        failures,
    )


def verify_constants(space: SpaceSpec, tol: float = 1e-9, with_mc: bool = True,
                     mc_pairs: int = 20_000, seed: int = 0,
                     diameter: float = None) -> VerificationReport:
    """Mean and diameter ratios of the two metrics against gamma(Q).

    ``diameter``, when the caller has it, is symdiff_series at pi.
    """
    gam = spaces.gamma_const(space)
    abs_errs, rel_errs, failures = [], [], []
    notes_extra = ""
    try:
        ratio = spaces.avg_chordal(space) / harmonic.avg_symdiff(space)
        rel_errs.append(abs(ratio - gam) / gam)
        abs_errs.append(abs(ratio - gam))
        if diameter is None:
            diameter = harmonic.symdiff_series(space, math.pi, tol=_DIAMETER_TOL)
        diam_ratio = 1.0 / diameter
        rel_errs.append(abs(diam_ratio - gam) / gam)
        abs_errs.append(abs(diam_ratio - gam))
    except CrospError as exc:
        failures.append(str(exc))
    if with_mc and space.family is not spaces.Family.OCT_PROJ:
        rng = np.random.default_rng(seed)
        xs = spaces.sample_uniform(space, mc_pairs, rng).points
        ys = spaces.sample_uniform(space, mc_pairs, rng).points
        cosd = spaces.cos_geodesic_pairs(space, xs, ys)
        taus = np.sin(np.arccos(cosd) / 2)
        mean = float(taus.mean())
        sigma = float(taus.std(ddof=1) / math.sqrt(mc_pairs))
        diff = abs(mean - spaces.avg_chordal(space))
        notes_extra = (f"; Monte Carlo mean chordal {mean:.6f} vs exact "
                       f"{spaces.avg_chordal(space):.6f} ({diff / sigma:.2f} sigma)")
        if diff > 3 * sigma:
            failures.append(
                f"Monte Carlo mean chordal off by {diff / sigma:.2f} sigma"
            )
    return _finish(
        "constants-ratio",
        f"space={space}",
        abs_errs, rel_errs, tol,
        "mean ratio and diameter ratio of chordal to symmetric-difference "
        "metrics against gamma(Q)" + notes_extra,
        failures,
    )


def verify_invariance(space: SpaceSpec, n_points: int = 100,
                      samples: int = 200_000, seed: int = 0,
                      tol_sigma: float = 3.0) -> VerificationReport:
    """Monte Carlo discrepancy vs the closed form on a random point set."""
    failures = []
    abs_errs, rel_errs = [], []
    notes = ""
    try:
        rng = np.random.default_rng(seed)
        pts = spaces.sample_uniform(space, n_points, rng)
        est = disc.discrepancy_mc(space, pts, samples, seed=seed + 1)
        lam = disc.discrepancy_closed(space, pts)
        diff = abs(est.value - lam)
        abs_errs.append(diff)
        rel_errs.append(diff / max(tol_sigma * est.stderr, 1e-300))
        notes = (f"closed {lam:.8f}, mc {est.value:.8f} +- {est.stderr:.8f} "
                 f"({diff / est.stderr:.2f} sigma at {samples} samples)")
        if diff > tol_sigma * est.stderr:
            failures.append(f"difference exceeds {tol_sigma} standard errors")
    except CrospError as exc:
        failures.append(str(exc))
    return _finish(
        "invariance-principle",
        f"space={space}, N={n_points}, samples={samples}, seed={seed}",
        abs_errs, rel_errs, 1.0, notes, failures,
    )


def _grid_and_diameter(space, grid_size=181, tol=1e-8):
    """symdiff_series on verify_pointwise's grid and at pi in one pass.

    Each angle keeps the tolerance of its own report (tol / gamma on the
    grid, _DIAMETER_TOL at pi), and the series engine gives every angle the
    bits it has when summed alone, so both reports equal those of the
    separate suites.  If the pass fails, (None, None): each report then
    evaluates, and reports, its own series.
    """
    thetas = np.append(np.linspace(0.0, math.pi, grid_size), math.pi)
    tols = np.full(thetas.size, tol / spaces.gamma_const(space))
    tols[-1] = _DIAMETER_TOL
    try:
        values = harmonic.symdiff_series(space, thetas, tol=tols)
    except CrospError:
        return None, None
    return values[:-1], float(values[-1])


def _all_suite(seed=0, **_):
    reports = []
    series = {space: _grid_and_diameter(space) for space in catalog()}
    for space, (grid, _) in series.items():
        reports.append(verify_pointwise(space, series=grid))
    for space in catalog():
        reports.append(verify_coeff_chain(space))
    reports.append(verify_sq_integral())
    reports.append(verify_poly_reduction())
    reports.append(verify_watson())
    for space, (_, diameter) in series.items():
        reports.append(verify_constants(space, seed=seed, diameter=diameter))
    for space in (make_space("s", 2), make_space("rp", 3)):
        reports.append(verify_invariance(space, n_points=50, samples=100_000, seed=seed))
    return reports


SUITES = {
    "pointwise": lambda space=None, tol=1e-8, **kw: [
        verify_pointwise(s, tol=tol) for s in ([space] if space else catalog())
    ],
    "chain": lambda space=None, tol=1e-9, **kw: [
        verify_coeff_chain(s, tol=tol) for s in ([space] if space else catalog())
    ],
    "integral": lambda tol=1e-10, **kw: [verify_sq_integral(tol=tol)],
    "polysum": lambda **kw: [verify_poly_reduction()],
    "watson": lambda tol=1e-11, **kw: [verify_watson(tol=tol)],
    "constants": lambda space=None, seed=0, **kw: [
        verify_constants(s, seed=seed) for s in ([space] if space else catalog())
    ],
    "invariance": lambda space=None, seed=0, samples=200_000, **kw: [
        verify_invariance(s, samples=samples, seed=seed)
        for s in ([space] if space else [make_space("s", 2)])
    ],
    "all": _all_suite,
}


def run_suite(name: str, **kwargs) -> list[VerificationReport]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)


def render_reports(reports) -> str:
    """Human-readable fixed-width table."""
    lines = []
    header = f"{'identity':32s} {'verdict':7s} {'max_abs':>12s} {'max_rel':>12s} {'tol':>9s}  grid"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        lines.append(
            f"{r.identity:32s} {r.verdict:7s} {r.max_abs_err:12.3e} "
            f"{r.max_rel_err:12.3e} {r.tolerance:9.1e}  {r.grid}"
        )
        for f in r.failures:
            lines.append(f"    ! {f}")
    return "\n".join(lines)
