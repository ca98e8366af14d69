"""In-process tracing of crosp's layers from outside the library.

``Tracer.install`` replaces the public functions that each crosp module
imports from the layer below it with wrappers that record a span per call,
then puts the originals back.  No library file changes.  A span's self time
is its duration minus the spans it caused on the same thread; the Monte
Carlo route runs batches on a thread pool, so every thread keeps its own
span stack and a worker's spans are roots of that thread.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_kernel(t, args, kwargs):
    X, Y = _arg(args, kwargs, 1, "X"), _arg(args, kwargs, 2, "Y")

    def done(out):
        t.add("spaces.cos_geodesic_matrix.entries", out.size)
        # computed from array sizes: both inputs read, the result written once
        t.add("spaces.cos_geodesic_matrix.bytes_computed", X.nbytes + Y.nbytes + out.nbytes)
    return done


def _count_points(t, args, kwargs):
    count = int(_arg(args, kwargs, 1, "count"))
    return lambda out: t.add("spaces.sample_uniform.points", count)


def _count_pairs(t, args, kwargs):
    def done(out):
        pts = _arg(args, kwargs, 1, "pts")
        n = pts.shape[0] if hasattr(pts, "shape") else len(pts)
        t.add("discrepancy.pair_sum.pairs", n * (n - 1))
    return done


def _count_mc(t, args, kwargs):
    # the Monte Carlo loop draws one batch of centres per sample_uniform call
    before = t.calls["spaces.sample_uniform"]

    def done(out):
        t.add("discrepancy.discrepancy_mc.samples", int(_arg(args, kwargs, 2, "samples")))
        t.add("discrepancy.discrepancy_mc.batches", t.calls["spaces.sample_uniform"] - before)
    return done


def _count_angles(t, args, kwargs):
    theta = _arg(args, kwargs, 1, "theta")
    return lambda out: t.add("harmonic.symdiff_series.angles", getattr(theta, "size", 1))


def _count_cache(orig):
    info = orig.cache_info

    def hook(t, args, kwargs):
        before = info()

        def done(out):
            after = info()
            t.add("harmonic.expansion_coeffs.builds", after.misses - before.misses)
            t.add("harmonic.expansion_coeffs.hits", after.hits - before.hits)
        return done
    return hook


def _count_bytes_read(t, args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return lambda out: t.add("io.bytes_read", os.path.getsize(path))


def _count_bytes_written(t, args, kwargs):
    return lambda out: t.add("io.bytes_written", len(out.encode("utf-8")))


VERIFY_SUITES = {
    "pointwise": "verify_pointwise", "chain": "verify_coeff_chain",
    "integral": "verify_sq_integral", "polysum": "verify_poly_reduction",
    "watson": "verify_watson", "constants": "verify_constants",
    "invariance": "verify_invariance",
}

PACKAGE = "crosp"
# top-level packages whose import time is reported
IMPORT_ROOTS = ("crosp", "scipy", "numpy")
# (module, function, hook factory) of every traced function; the span name is
# "<module>.<function>".  A missing function is an error: removing or renaming
# one means updating this list and BENCHMARK.json.
TARGETS = [
    ("spaces", "cos_geodesic_matrix", _count_kernel),
    ("spaces", "cos_geodesic_pairs", None),
    ("spaces", "sample_uniform", _count_points),
    ("spaces", "ball_volume", None),
    ("specfun", "reg_inc_beta", None),
    ("specfun", "hyp3f2_unit", None),
    ("specfun", "gauss_jacobi", None),
    ("algebra", "sesquilinear_tensor", None),
    ("discrepancy", "pair_sum", _count_pairs),
    ("discrepancy", "discrepancy_closed", None),
    ("discrepancy", "discrepancy_mc", _count_mc),
    ("discrepancy", "discrepancy_series", None),
    ("harmonic", "symdiff_series", _count_angles),
    ("harmonic", "expansion_coeffs", "cache"),
    ("io", "load_pointset", _count_bytes_read),
    ("io", "load_distance_matrix", _count_bytes_read),
    ("io", "dumps_stable", _count_bytes_written),
    *(("verify", fn_name, None) for fn_name in VERIFY_SUITES.values()),
]
# every count a hook adds, so that one no command touches reads 0
COUNTS = [
    "spaces.cos_geodesic_matrix.entries", "spaces.cos_geodesic_matrix.bytes_computed",
    "spaces.sample_uniform.points", "discrepancy.pair_sum.pairs",
    "discrepancy.discrepancy_mc.samples", "discrepancy.discrepancy_mc.batches",
    "harmonic.symdiff_series.angles", "harmonic.expansion_coeffs.builds",
    "harmonic.expansion_coeffs.hits", "io.bytes_read", "io.bytes_written",
]


class Tracer:
    """Spans and counts gathered while the wrappers are installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter(dict.fromkeys(COUNTS, 0))

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(self, args, kwargs) if hook else None
            stack = self._stack()
            frame = [time.perf_counter(), 0.0]  # start, time inside child spans
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += dur - frame[1]
                    self.total_s[name] += dur
            if done:
                done(out)
            return out
        return wrapper

    def install(self) -> list:
        """Wrap every target in every module of crosp that refers to it.

        Returns the (module, attribute, original) triples to restore.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        # look every target up first: one that no longer exists raises
        # AttributeError before anything is wrapped
        found = [(mod_name, fn_name, hook,
                  getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name))
                 for mod_name, fn_name, hook in TARGETS]
        patched = []
        for mod_name, fn_name, hook, orig in found:
            if hook == "cache":
                hook = _count_cache(orig)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
        return patched

    @staticmethod
    def uninstall(patched: list) -> None:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)

    def metrics(self) -> dict:
        """Per-layer metrics named as in BENCHMARK.json."""
        m = {}
        for mod_name, fn_name, _ in TARGETS:
            span = f"{mod_name}.{fn_name}"
            m[f"{span}.calls"] = self.calls[span]
            m[f"{span}.self_s"] = self.self_s[span]
        m.update(self.counts)
        for suite, fn_name in VERIFY_SUITES.items():
            m[f"verify.{suite}.s"] = self.total_s[f"verify.{fn_name}"]
        calls = self.calls["harmonic.expansion_coeffs"]
        m["harmonic.expansion_coeffs.cache_hit_ratio"] = (
            self.counts["harmonic.expansion_coeffs.hits"] / calls if calls else 0.0)
        return m


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per top-level package from ``-X importtime``.

    A package's time is the sum of the cumulative times of its outermost
    entries, those not nested inside another entry of the same package.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        rows.append((name.rstrip()[1:], int(cumulative)))
    totals = dict.fromkeys(IMPORT_ROOTS, 0)  # microseconds
    ancestors = []  # package roots of the enclosing entries, outermost first
    # entries are printed after their children, so walk them in reverse
    for name, cumulative in reversed(rows):
        depth = (len(name) - len(name.lstrip())) // 2
        pkg = name.strip().split(".")[0]
        del ancestors[depth:]
        if pkg in totals and pkg not in ancestors:
            totals[pkg] += cumulative
        ancestors.append(pkg)
    return {pkg: us / 1e6 for pkg, us in totals.items()}
