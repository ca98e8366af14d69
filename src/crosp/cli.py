"""Command-line front end.

Subcommands: ``spaces``, ``constants``, ``gen``, ``energy``, ``discrepancy``,
``verify``.  Each returns the body of its document; ``main`` alone resolves
the seed, adds ``config`` and ``meta`` and writes every document.  Exit
codes: 0 success/pass, 1 verification failure (JSON or CSV), 2 usage error,
3 numeric or domain error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import discrepancy as disc
from . import harmonic, io, spaces, verify
from .errors import CrospError
from .specfun import check_order

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NUMERIC = 3


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("CROSP_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise CrospError(f"CROSP_SEED must be an integer, got {env!r}") from None
    return check_order(seed, 0, "the seed")


def _config_dict(args, seed) -> dict:
    # the options the command read: --threads is read by nothing, --out only
    # names where the document goes (reported under meta), and --no-meta
    # only drops meta; an option left at None was not read
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "threads", "out", "no_meta") and v is not None}
    cfg["seed"] = seed
    return cfg


def _write(args, doc: dict) -> None:
    """The document as JSON, or for ``verify --format csv`` its reports' CSV."""
    if getattr(args, "format", "json") == "csv":
        lines = ["identity,verdict,max_abs_err,max_rel_err,tolerance"]
        for r in doc["reports"]:
            errs = (r["max_abs_err"], r["max_rel_err"], r["tolerance"])
            lines.append(",".join([r["identity"], r["verdict"], *map(io.format_float, errs)]))
        text = "\n".join(lines) + "\n"
    else:
        text = io.dumps_stable(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_input(args):
    """Point set or distance matrix from --in; returns (space, payload)."""
    space = spaces.parse_space(args.space) if args.space is not None else None
    path = args.infile
    if path.endswith(".csv"):
        if space is None:
            raise CrospError("distance-matrix input requires --space")
        return space, io.load_distance_matrix(path)
    pts = io.load_pointset(path)
    if space is not None and pts.space != space:
        raise CrospError(f"point set is on {pts.space}, but --space says {space}")
    return pts.space, pts


def _cmd_spaces(args, seed):
    return {"spaces": [
        {"code": s.code, "family": s.family.value, "n": s.n,
         "d": s.d, "d0": s.d0, "m": s.m}
        for s in spaces.catalog()
    ]}


def _cmd_constants(args, seed):
    space = spaces.parse_space(args.space)
    return {
        "space": space.code,
        "gamma": spaces.gamma_const(space),
        "avg_chordal": spaces.avg_chordal(space),
        "avg_symdiff": harmonic.avg_symdiff(space),
    }


def _cmd_gen(args, seed):
    space = spaces.parse_space(args.space)
    pts = spaces.sample_uniform(space, args.n, np.random.default_rng(seed),
                                label=args.label or f"{space.code}-uniform-{args.n}")
    return io.pointset_to_dict(pts)


def _cmd_energy(args, seed):
    space, payload = _load_input(args)
    return {
        "quantity": "pair_sum",
        "metric": args.metric,
        "value": disc.pair_sum(space, payload, metric=args.metric),
        "route": "direct",
        "space": space.code,
        "n_points": len(payload),
    }


# the options each route reads, with their defaults
_ROUTE_OPTIONS = {"closed": {}, "series": {"tol": 1e-8}, "mc": {"samples": 1_000_000}}


def _cmd_discrepancy(args, seed):
    takes = _ROUTE_OPTIONS[args.route]
    for key in ("samples", "tol"):
        if getattr(args, key) is None:
            setattr(args, key, takes.get(key))
        elif key not in takes:
            raise CrospError(f"route {args.route!r} takes no --{key}")
    space, payload = _load_input(args)
    mc = {}
    if args.route == "closed":
        value = disc.discrepancy_closed(space, payload)
    elif args.route == "series":
        value = disc.discrepancy_series(space, payload, tol=args.tol)
    else:  # "mc"; argparse restricts the choices
        est = disc.discrepancy_mc(space, payload, args.samples, seed=seed)
        value, mc = est.value, {"stderr": est.stderr, "samples": args.samples}
    return {
        "quantity": "ball_discrepancy",
        "value": value,
        "route": args.route,
        "space": space.code,
        "n_points": len(payload),
        **mc,
    }


def _cmd_verify(args, seed):
    options = {"space": spaces.parse_space(args.space) if args.space is not None else None,
               "tol": args.tol, "samples": args.samples}
    reports = verify.run_suite(args.suite, seed=seed,
                               **{k: v for k, v in options.items() if v is not None})
    sys.stderr.write(verify.render_reports(reports) + "\n")
    return {
        "suite": args.suite,
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (falls back to CROSP_SEED, then 0)")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility and read by nothing (Monte "
                             "Carlo blocks run on the calling thread)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path")
    common.add_argument("--no-meta", action="store_true", default=argparse.SUPPRESS,
                        help="omit timestamps so outputs are byte-reproducible")

    ap = argparse.ArgumentParser(
        prog="crosp",
        description="Discrepancy, energy, and identity certification on "
                    "compact rank-one symmetric spaces",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(func=func)
        return p

    command("spaces", _cmd_spaces, "list the space catalog")

    p = command("constants", _cmd_constants, "print gamma, mean chordal, mean symdiff")
    p.add_argument("--space", required=True)

    p = command("gen", _cmd_gen, "generate a uniform point set (JSON)")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"number of points, at most {spaces._MAX_POINTS}")
    p.add_argument("--label", default=None)

    p = command("energy", _cmd_energy, "sum of pairwise distances")
    p.add_argument("--in", dest="infile", required=True,
                   help="point-set JSON or distance-matrix CSV")
    p.add_argument("--space", default=None, help="required for CSV input")
    p.add_argument("--metric", choices=("chordal", "geodesic"), default="chordal")

    p = command("discrepancy", _cmd_discrepancy, "ball quadratic discrepancy")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--route", choices=("closed", "series", "mc"), default="closed")
    p.add_argument("--samples", type=int, default=None,
                   help="Monte Carlo samples, --route mc only [1000000]")
    p.add_argument("--tol", type=float, default=None,
                   help="series tolerance, --route series only [1e-8]")

    p = command("verify", _cmd_verify, "run an identity-certification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--space", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


def main(argv=None) -> int:
    # the global flags' defaults; each flag is taken before or after the subcommand
    args = build_parser().parse_args(argv, argparse.Namespace(seed=None, out=None,
                                                               no_meta=False))
    try:
        seed = _resolve_seed(args)
        body = args.func(args, seed)
        # config after the command, which fills in the defaults it read
        doc = {"config": _config_dict(args, seed), **body}
        if not args.no_meta:
            doc["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
            if args.out:
                doc["meta"]["out"] = args.out
        _write(args, doc)
    except (CrospError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    return EXIT_VERIFY_FAIL if doc.get("all_passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
