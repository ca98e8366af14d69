"""The public names of ``crosp``: a change to them is a deliberate edit here."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import crosp

PUBLIC_NAMES = {
    # discrepancy
    "McEstimate", "discrepancy_closed", "discrepancy_mc", "discrepancy_series",
    "invariance_residual", "pair_sum",
    # errors
    "ConsistencyError", "ConvergenceError", "CrospError", "DomainError",
    "UnsupportedSpaceError",
    # harmonic
    "ExpansionCoeffs", "avg_symdiff", "chordal_coeff", "coeff_tail", "expansion_coeffs",
    "jacobi_sq_integral", "leibniz_closed", "leibniz_sum", "level_weight", "poch_ratio",
    "radial_weight", "symdiff_series",
    # spaces
    "Family", "Point", "PointSet", "SpaceSpec", "avg_chordal", "ball_volume", "catalog",
    "chart_point_oct", "chordal", "embed", "gamma_const", "geodesic", "make_space",
    "parse_space", "sample_uniform",
    # specfun
    "Hyp3F2Params", "QuadratureRule", "beta", "falling", "gauss_jacobi", "hyp3f2_unit",
    "jacobi_at_one", "reg_inc_beta", "rising", "watson_rhs",
    # verify
    "VerificationReport", "run_suite",
}


def test_public_names():
    # submodules become attributes of the package once imported, so they
    # are not part of what __init__ exports
    exported = {name for name, value in vars(crosp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_radius_measure_is_fixed():
    # every radius integral is against sin(r) dr, the measure of the
    # invariance principle: no entry point takes another
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (crosp.symdiff_series, crosp.discrepancy_series, crosp.avg_symdiff,
                         crosp.expansion_coeffs, crosp.radial_weight)}
    assert params == {
        "symdiff_series": ["space", "theta", "tol"],
        "discrepancy_series": ["space", "pts", "tol"],
        "avg_symdiff": ["space"],
        "expansion_coeffs": ["space"],
        "radial_weight": ["space", "l"],
    }


def test_every_all_entry_resolves():
    # a stale __all__ entry breaks ``from crosp.<module> import *``
    for info in pkgutil.iter_modules(crosp.__path__):
        module = importlib.import_module(f"crosp.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_expansion_coeffs_fields():
    # the table holds what the series engine sums, and nothing else
    assert [f.name for f in dataclasses.fields(crosp.ExpansionCoeffs)] == ["m_l", "a_l"]
