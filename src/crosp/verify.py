"""Identity-certification suites producing verification reports.

Each suite sweeps a parameter grid, compares two independent evaluation
routes, and reports the worst absolute and relative errors against a fixed
tolerance.  Every comparison and every failure goes into one tally, and the
report comes from that tally.  A failing sub-check never aborts a suite;
failures aggregate into the verdict.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import discrepancy as disc
from . import harmonic, spaces
from .errors import CrospError, DomainError
from .spaces import SpaceSpec, catalog, make_space
from .specfun import Hyp3F2Params, beta, check_order, hyp3f2_unit, rising, watson_rhs

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


class _Tally:
    """The errors and failures of one suite, in the order they were recorded."""

    def __init__(self):
        self.abs_errs, self.rel_errs, self.failures = [], [], []

    def compare(self, got, want, scale=None):
        """Record |got - want| and its ratio to scale (default |want|); return the first."""
        err = abs(float(got) - float(want))
        self.abs_errs.append(err)
        self.rel_errs.append(err / (abs(want) if scale is None else scale))
        return err

    @contextmanager
    def item(self, label):
        """A CrospError inside becomes a failure: label, then the message."""
        try:
            yield
        except CrospError as exc:
            self.failures.append(f"{label}{exc}")

    def report(self, identity, grid, tol, notes) -> VerificationReport:
        """Passed when nothing failed and the worst relative error is <= tol."""
        max_abs = max(self.abs_errs) if self.abs_errs else 0.0
        max_rel = max(self.rel_errs) if self.rel_errs else 0.0
        passed = (not self.failures) and max_rel <= tol
        return VerificationReport(identity, grid, max_abs, max_rel, tol,
                                  passed, notes, self.failures)


# the fixed grids and bounds of the suites
_GRID_SIZE = 181  # verify_pointwise's angles on [0, pi]
_POINTWISE_TOL = 1e-8  # its default tolerance, which verify all's series keeps
_DIAMETER_TOL = 1e-10  # of the series at theta = pi in verify_constants
_CHAIN_L_MAX = 20
_SQ_N_MAX = 12
_SQ_PARAMS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
_POLY_N_MAX = 8
_WATSON_N_MAX = 6
_MC_PAIRS = 20_000  # verify_constants' Monte Carlo pairs
_TOL_SIGMA = 3.0  # both Monte Carlo checks' bound, in standard errors


def verify_pointwise(space: SpaceSpec, tol: float = _POINTWISE_TOL,
                     series=None) -> VerificationReport:
    """Chordal metric vs gamma(Q) times the symmetric-difference expansion.

    ``series``, when the caller has it, is symdiff_series on the grid.
    """
    thetas = np.linspace(0.0, math.pi, _GRID_SIZE)
    gam = spaces.gamma_const(space)
    tally = _Tally()
    with tally.item("series evaluation failed: "):
        if series is None:
            series = harmonic.symdiff_series(space, thetas, tol=tol / gam)
        # both metrics are normalized to diameter 1
        for got, want in zip(gam * series, np.sin(thetas / 2)):
            tally.compare(got, want, scale=1.0)
    return tally.report(
        "pointwise-metric-identity",
        f"space={space}, {_GRID_SIZE} angles on [0, pi]", tol,
        "max |sin(theta/2) - gamma * symdiff(theta)| over the grid",
    )


def verify_coeff_chain(space: SpaceSpec, tol: float = 1e-9) -> VerificationReport:
    """Radial-weight closed form vs quadrature, and the coefficient chain.

    Checks, for 1 <= l <= 20, that the squared-Jacobi integral with the
    doubled geometric weight matches its Pochhammer closed form, and that
    gamma(Q) l^-2 B(d/2, d0/2)^-1 A_l equals C_l / 2.
    """
    d, d0 = space.d, space.d0
    gam = spaces.gamma_const(space)
    inv_b = 1.0 / beta(d / 2, d0 / 2)
    tally = _Tally()
    for l in range(1, _CHAIN_L_MAX + 1):
        with tally.item(f"l={l}: "):
            closed = harmonic.jacobi_sq_integral(l - 1, d / 2, d0 / 2, route="closed")
            quad = harmonic.jacobi_sq_integral(l - 1, d / 2, d0 / 2, route="quadrature")
            tally.compare(quad, closed)
            a_l = harmonic.radial_weight(space, l)
            tally.compare(gam * a_l * inv_b / l**2, harmonic.chordal_coeff(space, l) / 2)
    return tally.report(
        "coefficient-chain", f"space={space}, 1 <= l <= {_CHAIN_L_MAX}", tol,
        "squared-Jacobi integral closed vs quadrature, and the chain linking "
        "radial weights to chordal coefficients",
    )


def verify_sq_integral(tol: float = 1e-10) -> VerificationReport:
    """Squared-Jacobi integral: Pochhammer closed form vs Gauss quadrature."""
    tally = _Tally()
    for n in range(_SQ_N_MAX + 1):
        for a in _SQ_PARAMS:
            for b in _SQ_PARAMS:
                with tally.item(f"(n,a,b)=({n},{a},{b}): "):
                    closed = harmonic.jacobi_sq_integral(n, a, b, route="closed")
                    quad = harmonic.jacobi_sq_integral(n, a, b, route="quadrature")
                    tally.compare(quad, closed)
    # the quadrature route must refuse parameters with a non-integrable weight
    try:
        harmonic.jacobi_sq_integral(1, -0.5, 0.0, route="quadrature")
    except CrospError:
        pass
    else:
        tally.failures.append("quadrature route accepted alpha = -1/2")
    return tally.report(
        "squared-jacobi-integral",
        f"n <= {_SQ_N_MAX}, alpha, beta in {sorted(set(_SQ_PARAMS))}", tol,
        "closed form vs (n+2)-node Gauss rule for the doubled weight; the "
        "quadrature route must reject exponents <= -1/2",
    )


_RATIONAL_GRID = (
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(-1, 4), Fraction(3, 7)),
    (Fraction(5, 4), Fraction(-2, 7)),
    (Fraction(7, 3), Fraction(1, 2)),
    (Fraction(-3, 5), Fraction(-5, 7)),
    (Fraction(9, 4), Fraction(11, 6)),
)


def verify_poly_reduction() -> VerificationReport:
    """Alternating by-parts sum vs its closed form, exactly in rationals.

    Also cross-checks the float quadrature route against the sum-based
    integral formula, and demonstrates that the closed form without the
    leading (1/2)_n factor fails at n=1, alpha=beta=0 (2 vs 4).
    """
    tally = _Tally()
    for n in range(_POLY_N_MAX + 1):
        for a, b in _RATIONAL_GRID:
            s = harmonic.leibniz_sum(n, a, b)
            c = harmonic.leibniz_closed(n, a, b)
            if s != c:
                tally.failures.append(f"(n,a,b)=({n},{a},{b}): sum {s} != closed {c}")
    # float-level consistency: quadrature integral vs the sum-based formula
    for n in range(min(_POLY_N_MAX, 6) + 1):
        for a, b in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.5), (2.0, 1.0)):
            quad = harmonic.jacobi_sq_integral(n, a, b, route="quadrature")
            fa, fb = Fraction(a), Fraction(b)
            ratio = harmonic.leibniz_sum(n, fa, fb) / rising(2 * fa + 2 * fb + 2, 2 * n)
            via_sum = (2.0 ** (2 * a + 2 * b + 1) / math.gamma(n + 1) ** 2
                       * math.exp(math.lgamma(2 * a + 1) + math.lgamma(2 * b + 1)
                                  - math.lgamma(2 * a + 2 * b + 2))
                       * float(ratio))
            tally.compare(quad, via_sum)
    wrong = harmonic.leibniz_closed(1, 0, 0, corrected=False)
    right = harmonic.leibniz_sum(1, 0, 0)
    notes = (
        "closed form carries a leading (1/2)_n factor; the variant without it "
        f"evaluates to {wrong} at n=1, alpha=beta=0 while the direct sum gives "
        f"{right}, so that variant is rejected as an erratum"
    )
    if tally.rel_errs and max(tally.rel_errs) > 1e-10:
        tally.failures.append("sum-based integral formula vs quadrature exceeded 1e-10")
    return tally.report(
        "alternating-sum-closed-form",
        f"n <= {_POLY_N_MAX}, {len(_RATIONAL_GRID)} generic rational (alpha, beta) pairs",
        1e-10, notes,
    )


_WATSON_PAIRS = (
    (-0.83, -0.37), (-0.41, -0.29), (-1.07, -0.13), (-0.59, -0.61),
    (-0.23, -0.97), (-0.71, -0.19), (-0.93, -0.47), (-0.17, -0.53),
    (-0.67, -0.73), (-1.13, -0.31), (-0.49, -0.11), (-0.87, -0.79),
    (-0.33, -0.43), (-1.01, -0.57), (-0.77, -0.07), (-0.21, -0.89),
    (-0.63, -0.27), (-0.39, -1.09), (-0.91, -0.23), (-0.53, -0.69),
)


def verify_watson(tol: float = 1e-11) -> VerificationReport:
    """Terminating 3F2 at unit argument vs the Watson gamma quotient.

    Parameters (a, b, c) = (-2n, 2 beta + 1, -alpha - n) on generic
    non-integer (alpha, beta) with alpha + beta < 0, which places every
    grid point inside the validity region of the closed form.
    """
    tally = _Tally()
    for n in range(_WATSON_N_MAX + 1):
        for alpha, beta_ in _WATSON_PAIRS:
            if alpha + beta_ >= 0:
                tally.failures.append(f"grid point ({alpha}, {beta_}) violates alpha+beta<0")
                continue
            a, b, c = -2 * n, 2 * beta_ + 1, -alpha - n
            with tally.item(f"(n,alpha,beta)=({n},{alpha},{beta_}): "):
                series = hyp3f2_unit(
                    Hyp3F2Params(a, b, c, (a + b + 1) / 2, 2 * c), mode="float")
                closed = watson_rhs(a, b, c)
                tally.compare(series, closed, scale=max(abs(closed), 1e-300))
    return tally.report(
        "watson-3f2",
        f"n <= {_WATSON_N_MAX}, {len(_WATSON_PAIRS)} generic (alpha, beta) with alpha+beta<0",
        tol, "terminating series summed term-by-term vs the gamma-quotient closed form",
    )


def verify_constants(space: SpaceSpec, tol: float = 1e-9, seed: int = 0,
                     diameter: float = None) -> VerificationReport:
    """Mean and diameter ratios of the two metrics against gamma(Q).

    ``diameter``, when the caller has it, is symdiff_series at pi.
    """
    gam = spaces.gamma_const(space)
    tally = _Tally()
    notes_extra = ""
    with tally.item(""):
        tally.compare(spaces.avg_chordal(space) / harmonic.avg_symdiff(space), gam)
        if diameter is None:
            diameter = harmonic.symdiff_series(space, math.pi, tol=_DIAMETER_TOL)
        tally.compare(1.0 / diameter, gam)
    if space.family is not spaces.Family.OCT_PROJ:
        def block_values(stream, count):
            xs = spaces.sample_uniform(space, count, stream).points
            ys = spaces.sample_uniform(space, count, stream).points
            return disc._distances_of_cos(spaces.cos_geodesic_pairs(space, xs, ys), "chordal")

        mean, sigma = disc._mc_mean(block_values, _MC_PAIRS, seed)
        diff = abs(mean - spaces.avg_chordal(space))
        notes_extra = (f"; Monte Carlo mean chordal {mean:.6f} vs exact "
                       f"{spaces.avg_chordal(space):.6f} ({diff / sigma:.2f} sigma)")
        if diff > _TOL_SIGMA * sigma:
            tally.failures.append(f"Monte Carlo mean chordal off by {diff / sigma:.2f} sigma")
    return tally.report(
        "constants-ratio", f"space={space}", tol,
        "mean ratio and diameter ratio of chordal to symmetric-difference "
        "metrics against gamma(Q)" + notes_extra,
    )


def verify_invariance(space: SpaceSpec, n_points: int = 100,
                      samples: int = 200_000, seed: int = 0) -> VerificationReport:
    """Monte Carlo invariance residual on a random point set, in standard errors."""
    # outside the tally: a space it cannot be drawn on (op2) is no failed identity
    pts = spaces.sample_uniform(space, n_points, np.random.default_rng(seed))
    tally = _Tally()
    notes = ""
    with tally.item(""):
        res = disc.invariance_residual(space, pts, route="mc", samples=samples, seed=seed + 1)
        err = tally.compare(res.value, 0.0, scale=max(_TOL_SIGMA * res.stderr, 1e-300))
        notes = (f"residual gamma * lambda + tau[D] - <tau> N^2 = {res.value:.8f} "
                 f"+- {res.stderr:.8f} ({err / res.stderr:.2f} sigma at {samples} samples)")
        if err > _TOL_SIGMA * res.stderr:
            tally.failures.append(f"residual exceeds {_TOL_SIGMA} standard errors")
    return tally.report(
        "invariance-principle",
        f"space={space}, N={n_points}, samples={samples}, seed={seed}", 1.0, notes,
    )


def _grid_and_diameter(space):
    """symdiff_series on verify_pointwise's grid and at pi in one pass.

    Each angle keeps the tolerance of its own report (tol / gamma on the
    grid, _DIAMETER_TOL at pi), and the series engine gives every angle the
    bits it has when summed alone, so both reports equal those of the
    separate suites.  If the pass fails, (None, None): each report then
    evaluates, and reports, its own series.
    """
    thetas = np.append(np.linspace(0.0, math.pi, _GRID_SIZE), math.pi)
    tols = np.full(thetas.size, _POINTWISE_TOL / spaces.gamma_const(space))
    tols[-1] = _DIAMETER_TOL
    try:
        values = harmonic.symdiff_series(space, thetas, tol=tols)
    except CrospError:
        return None, None
    return values[:-1], float(values[-1])


def _all_suite(seed):
    series = {space: _grid_and_diameter(space) for space in catalog()}
    reports = [verify_pointwise(space, series=grid) for space, (grid, _) in series.items()]
    for name in ("chain", "integral", "polysum", "watson"):
        reports += run_suite(name)
    reports += [verify_constants(space, seed=seed, diameter=diameter)
                for space, (_, diameter) in series.items()]
    reports += [verify_invariance(space, n_points=50, samples=100_000, seed=seed)
                for space in (make_space("s", 2), make_space("rp", 3))]
    return reports


def _per_space(fn_name, seeded=False, default_spaces=catalog):
    """The runner of a suite with one report per space: --space, or each default."""
    def run(seed, space=None, **opts):
        if seeded:
            opts["seed"] = seed
        fn = globals()[fn_name]
        return [fn(s, **opts) for s in ([space] if space else default_spaces())]
    return run


# name: (the options the suite takes besides the seed, its reports given the
# seed and those options).  The verify_* functions are looked up by name at
# each call, so that a wrapper put on one of them is the one that runs.
SUITES = {
    "pointwise": (("space", "tol"), _per_space("verify_pointwise")),
    "chain": (("space", "tol"), _per_space("verify_coeff_chain")),
    "integral": (("tol",), lambda seed, **opts: [verify_sq_integral(**opts)]),
    "polysum": ((), lambda seed: [verify_poly_reduction()]),
    "watson": (("tol",), lambda seed, **opts: [verify_watson(**opts)]),
    "constants": (("space", "tol"), _per_space("verify_constants", True)),
    "invariance": (("space", "samples"),
                   _per_space("verify_invariance", True, lambda: [make_space("s", 2)])),
    "all": ((), _all_suite),
}


def run_suite(name: str, seed: int = 0, **options) -> list[VerificationReport]:
    """The reports of one suite; any option it does not take is a DomainError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    takes, run = SUITES[name]
    for key in options:
        if key not in takes:
            raise DomainError(f"suite {name!r} takes no {key!r} option; it takes "
                              f"{', '.join((*takes, 'seed'))}")
    if "tol" in options:
        harmonic.check_tol(options["tol"])
    if "samples" in options:
        options["samples"] = check_order(options["samples"], 2, "samples")
    return run(seed, **options)


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
