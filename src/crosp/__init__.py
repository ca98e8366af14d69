"""Discrepancy and metric-energy computations on compact rank-one symmetric
spaces: spheres and the projective spaces over the reals, complexes,
quaternions and octonions.

The library evaluates ball quadratic discrepancies by closed-form, zonal
series, and Monte Carlo routes, and certifies numerically that all three
agree -- the invariance principle tying discrepancy to pairwise chordal
distance sums -- together with every supporting special-function identity.
"""

from .discrepancy import (
    McEstimate,
    discrepancy_closed,
    discrepancy_mc,
    discrepancy_series,
    invariance_residual,
    pair_sum,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    CrospError,
    DomainError,
    UnsupportedSpaceError,
)
from .harmonic import (
    ExpansionCoeffs,
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
from .spaces import (
    Family,
    Point,
    PointSet,
    SpaceSpec,
    avg_chordal,
    ball_volume,
    catalog,
    chart_point_oct,
    chordal,
    embed,
    gamma_const,
    geodesic,
    make_space,
    parse_space,
    sample_uniform,
)
from .specfun import (
    Hyp3F2Params,
    QuadratureRule,
    beta,
    falling,
    gauss_jacobi,
    hyp3f2_unit,
    jacobi_at_one,
    reg_inc_beta,
    rising,
    watson_rhs,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
