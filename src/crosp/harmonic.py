"""Zonal spherical functions and metric expansions on Q(d, d0).

The chordal and symmetric-difference metrics expand in the zonal functions
phi_l -- normalized Jacobi polynomials of cos(theta) -- with positive
coefficients decaying like 1/l^2.  The series engine sums the
symmetric-difference expansion, whose coefficients are m_l a_l / l^2 up to
a constant; the chordal coefficients c_l enter through the coefficient
lemma that ties the two (checked by ``verify chain``) and through the exact
tail ``coeff_tail``.  Each ingredient is coded once:

* the Jacobi three-term recurrence (``specfun._JacobiRecurrence``);
* one vectorized log-formula each for the level weights m_l, the chordal
  coefficients c_l and the radial weights a_l against the one radius
  measure sin(r) dr, shared by the scalar functions and, for m_l and a_l,
  the cached table ``expansion_coeffs``;
* the radius quadrature rule of that measure (``_sine_rule``).

The series engine sums sum_l t_l (1 - phi_l(theta)) for many angles at
once as [head + tail] - [window average of the oscillatory partial sums
over one Jacobi oscillation period in the degree].  At fixed checkpoints
every open angle is tested, with array masks, for three acceptance paths:
a coefficient-tail certificate, two consecutive stable refinements, or a
relaxed check at the hard cap of 10^4 terms.  The tail is exact (a
telescoped antidifference), so the first path is a certificate.
A window spans at most half the degrees up to its checkpoint, and each
checkpoint at least doubles the one before, so no window reaches back past
the previous checkpoint: each angle needs only its running partial sum and
a running sum of the partial sums in its window, reset at each checkpoint.
The recurrence steps the scaled rows q_l = t_l phi_l directly, three array
operations per degree, for every open angle of a call at once, the angles
of several spaces included (``_symdiff_batch``, which ``symdiff_series``
and ``verify all`` call).  The degrees between two checkpoints go through
in blocks of at most ``specfun._BLOCK_ENTRIES`` entries, and each block is
added to the running sums in one pass.  At each checkpoint the accepted
angles are dropped from the recurrence and every per-angle array, so they
cost nothing after it.  Each angle sees the same elementwise operations in
the same order whichever other angles share the call, and the row sums add
row after row, never pairwise, so every value is bit-identical to the angle
summed alone.

The coefficient formulas are products of gamma-function ratios
Gamma(l + h1) / Gamma(l + h2), each taken as one ``specfun._lgamma_diff``,
which never forms lgamma values of size l log l; no scipy is needed.

Also houses the squared-Jacobi weighted integrals and their alternating-sum
and Pochhammer-quotient closed forms, including the corrected form of the
closed-form reduction (see ``leibniz_closed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConsistencyError, ConvergenceError, DomainError
from .spaces import SpaceSpec, ball_volume, gamma_const
from .specfun import (_JacobiRecurrence, _jacobi_row, _lgamma_diff, beta, check_order,
                      gauss_jacobi, jacobi_at_one, rising, falling)

__all__ = [
    "ExpansionCoeffs",
    "level_weight",
    "chordal_coeff",
    "radial_weight",
    "expansion_coeffs",
    "symdiff_series",
    "avg_symdiff",
    "poch_ratio",
    "leibniz_sum",
    "leibniz_closed",
    "jacobi_sq_integral",
    "coeff_tail",
    "SERIES_CAP",
]

SERIES_CAP = 10_000
# each at least twice the one before, as the running window sum of
# _series_values needs
_CHECKPOINTS = (156, 312, 625, 1250, 2500, 5000, SERIES_CAP)


# ---------------------------------------------------------------------------
# expansion coefficients: one formula each, elementwise in the level


def _level_weight(space, ls):
    """m_l: weight of the degree-l eigenspace in the chordal expansion."""
    d, d0 = space.d, space.d0
    s = (d + d0) / 2
    return (2 * ls - 1 + s) * np.exp(_lgamma_diff(ls, 1, d / 2)
                                     + _lgamma_diff(ls, s - 1, d0 / 2))


def _log_chordal_coeff(space, ls):
    """log c_l: degree-l coefficient of the chordal metric (gamma quotient)."""
    d, d0 = space.d, space.d0
    return (math.lgamma((d + 1) / 2) - math.lgamma(0.5) - math.lgamma(d / 2)
            + _lgamma_diff(ls, d0 / 2, (d + d0 + 1) / 2)
            + _lgamma_diff(ls, -0.5, 1) + _lgamma_diff(ls, d / 2, 1))


def _radial_weights(space, L):
    """a_1, ..., a_L: squared-Jacobi integrals against sin(r) dr.

    With (a, b) = (d/2, d0/2), a_l = 2 Gamma(l - 1/2) / (Gamma(1/2) Gamma(l)^2)
    * Gamma(d+1) Gamma(d0+1) / Gamma(d+d0+2) * (a+1)_{l-1} (b+1)_{l-1}
    / (a+b+3/2)_{l-1}, whose gamma functions of l pair up into three ratios.
    """
    d, d0 = space.d, space.d0
    a, b = d / 2, d0 / 2
    ls = np.arange(1, L + 1, dtype=float)
    const = (math.log(2.0) - math.lgamma(0.5) + math.lgamma(d + 1) + math.lgamma(d0 + 1)
             - math.lgamma(d + d0 + 2) - math.lgamma(a + 1) - math.lgamma(b + 1)
             + math.lgamma(a + b + 1.5))
    return np.exp(const + _lgamma_diff(ls, -0.5, 0) + _lgamma_diff(ls, a, 0)
                  + _lgamma_diff(ls, b, a + b + 0.5))


def level_weight(space: SpaceSpec, l: int) -> float:
    """Weight of the degree-l eigenspace in the chordal expansion."""
    return float(_level_weight(space, check_order(l, 1, "level")))


def chordal_coeff(space: SpaceSpec, l: int) -> float:
    """Degree-l coefficient of the chordal-metric expansion.

    Below l = 160 an independent beta-function product is evaluated as
    well and must agree with the gamma quotient; disagreement raises a
    consistency error.
    """
    l = check_order(l, 1, "level")
    value = float(np.exp(_log_chordal_coeff(space, l)))
    if l < 160:
        d, d0 = space.d, space.d0
        route_a = (beta((d + 1) / 2, l + d0 / 2)
                   * math.exp(math.lgamma(l - 0.5) - math.lgamma(0.5))
                   * jacobi_at_one(l, d / 2 - 1) / math.gamma(l + 1))
        if abs(route_a - value) > 1e-11 * abs(value):
            raise ConsistencyError(
                f"chordal coefficient routes disagree at l={l}: {route_a} vs {value}"
            )
    return value


def radial_weight(space: SpaceSpec, l: int) -> float:
    """Radial weight of degree l: squared-Jacobi integral against sin(r) dr."""
    return float(_radial_weights(space, check_order(l, 1, "level"))[-1])


# ---------------------------------------------------------------------------
# coefficient tables and exact tails


@dataclass(frozen=True)
class ExpansionCoeffs:
    """The level weights m_l and radial weights a_l for l = 1 .. SERIES_CAP,
    read-only."""

    m_l: np.ndarray
    a_l: np.ndarray


def coeff_tail(space: SpaceSpec, l):
    """Exact value of sum_{j >= l} m_j c_j via a telescoping antidifference.

    Elementwise for an array of levels ``l``.
    """
    d, d0 = space.d, space.d0
    s = (d + d0) / 2
    log_kappa = math.lgamma((d + 1) / 2) - math.lgamma(0.5) - math.lgamma(d / 2)
    return 2.0 * np.exp(log_kappa + _lgamma_diff(l, s - 1, s - 0.5) + _lgamma_diff(l, -0.5, 0))


@lru_cache(maxsize=64)
def expansion_coeffs(space: SpaceSpec) -> ExpansionCoeffs:
    """The coefficient table of a space up to the series cap, cached."""
    m_l = _level_weight(space, np.arange(1, SERIES_CAP + 1, dtype=float))
    a_l = _radial_weights(space, SERIES_CAP)
    for arr in (m_l, a_l):
        arr.setflags(write=False)
    return ExpansionCoeffs(m_l, a_l)


# ---------------------------------------------------------------------------
# adaptive series engine


def check_tol(tol) -> np.ndarray:
    """``tol`` as a float array; DomainError unless every entry is finite and
    positive.  The series entry points call it before any other work."""
    tols = np.asarray(tol, dtype=float)
    # written so that a NaN fails the check
    if not np.all((tols > 0) & (tols < np.inf)):
        raise DomainError("tol must be finite and positive")
    return tols


def _full_windows(th):
    """Degrees in one oscillation period of the Jacobi rows at each angle, capped."""
    return np.minimum(np.ceil(2 * math.pi / th), SERIES_CAP).astype(int)


class _Expansion(NamedTuple):
    """An expansion sum_l t_l (1 - phi_l(theta)), l = 1 .. SERIES_CAP, as the
    series engine reads it (built by ``_expansion``)."""

    ratio: Callable  # ratio(lo, hi): s_l / s_{l-1} for l = lo .. hi, s_l = t_l / P_l(1)
    totals: dict  # checkpoint l: H_l + tail(l), H_l = t_1 + ... + t_l
    tail: Callable  # tail(L) = sum_{l > L} t_l, elementwise for an array of L
    a: float  # the Jacobi parameters of phi_l
    b: float


def _expansion(coef, tail, a, b) -> _Expansion:
    """The ``_Expansion`` of the coefficients ``coef(lo, hi)`` = t_lo .. t_hi
    (1 <= lo <= hi <= SERIES_CAP) with exact tail ``tail``.

    The scales s_l = t_l / P_l(1) (s_0 = 1, t_0 = 1) step by
    s_l / s_{l-1} = (t_l / t_{l-1}) l / (a + l), since
    P_l(1) / P_{l-1}(1) = (a + l) / l.  The ratios are formed from ``coef``
    for the degrees the recurrence asks for, so an expansion keeps no array
    of them while the angles of several expansions step together.
    """
    H = np.cumsum(coef(1, SERIES_CAP))

    def ratio(lo, hi):
        t = coef(max(lo - 1, 1), hi)
        if lo == 1:
            t = np.concatenate(([1.0], t))
        ls = np.arange(lo, hi + 1, dtype=float)
        return t[1:] / t[:-1] * (ls / (a + ls))

    return _Expansion(ratio, {c: H[c - 1] + tail(c) for c in _CHECKPOINTS}, tail, a, b)


def _sum_rows(block):
    """The sum of the rows of a C-ordered 2-D block, added row after row in
    every column.

    np.add.reduce over axis 0 does that, except over a single column (or an
    F-ordered block), which it sums pairwise.
    """
    if block.shape[1] == 1:
        return np.add.accumulate(block[:, 0])[-1:]
    return np.add.reduce(block, axis=0)


def _add_rows(rows, lo, psum, wsum, first):
    """Add the rows q_lo .. q_hi of a block to the running sums of the open
    angles, in place, and return hi; ``first`` is the first degree of each
    angle's window.

    Both sums add the rows in order of degree, as one addition per degree
    would: the block's row sums start from psum, and the angles whose window
    holds a degree of the block (a prefix, since ``first`` ascends) form
    their partial sums row by row, zero them before the window and add them
    to wsum.
    """
    hi = lo + len(rows) - 1
    rows[0] += psum
    k = int(np.searchsorted(first, hi, side="right"))
    if k:
        head = rows[:, :k]
        for prev, row in zip(head, head[1:]):
            row += prev
        psum[:k] = head[-1]
        np.copyto(head, 0.0, where=np.arange(lo, hi + 1)[:, None] < first[:k])
        head[0] += wsum[:k]
        wsum[:k] = _sum_rows(head)
    psum[k:] = _sum_rows(rows[:, k:])
    return hi


def _series_values(th, tols, group, terms):
    """Series values at the ascending angles ``th``, by ``symdiff_series``'s
    rules; NaN where an angle is not certified at the cap.

    The angle ``th[i]`` sums the ``_Expansion`` ``terms[group[i]]``;
    ``group`` is None for one expansion.

    The recurrence steps q_l = t_l phi_l = s_l P_l, s_l = t_l / P_l(1), for
    every open angle at once, in blocks of degrees that end at each
    checkpoint.  Each open angle keeps two running sums: ``psum``, its
    partial sum sum_{k <= m} q_k, and ``wsum``, the sum of the partial sums
    in the window of the next checkpoint l, degrees l - W + 1 .. l with
    W <= l // 2.  Each checkpoint at least doubles the one before, so every
    window opens after the previous checkpoint, where ``wsum`` was reset.
    The angles ascend, so their windows narrow and open later: the angles
    whose window holds a degree of a block are a prefix of the open ones.
    Both sums are updated once per block (``_add_rows``).
    """
    cap = SERIES_CAP
    winfull = _full_windows(th)
    osc_floor = 6.0 * 2 * math.pi / th
    psum = np.zeros(th.size)
    wsum = np.zeros(th.size)
    cols = np.arange(th.size)  # position in ``th`` of each open angle
    vals = np.full(th.size, np.nan)
    consec = np.zeros(th.size, dtype=int)
    # NaN compares false, so no refinement counts as stable at the first checkpoint
    prev_vhat = np.full(th.size, np.nan)
    if group is None:
        (term,) = terms
        rec = _JacobiRecurrence(term.a, term.b, np.cos(th), term.ratio)
    else:
        rec = _JacobiRecurrence([e.a for e in terms], [e.b for e in terms], np.cos(th),
                                [e.ratio for e in terms], group)

    def per_angle(fn, L):
        """fn(expansion, L) of each open angle, for L a scalar or one per angle."""
        if group is None:
            return fn(terms[0], L)
        out = np.empty(group.size)
        for g, term in enumerate(terms):
            sel = group == g
            out[sel] = fn(term, L if np.ndim(L) == 0 else L[sel])
        return out

    l = 0  # the last degree summed
    for checkpoint in _CHECKPOINTS:
        W = np.maximum(np.minimum(winfull, checkpoint // 2), 1)
        first = checkpoint - W + 1  # ascending, since W does not grow with theta
        while l < checkpoint:
            # phi_0 = 1 drops out of 1 - phi_l, so the sum starts at degree 1,
            # where the recurrence starts
            l = _add_rows(rec.advance(checkpoint) if l else rec.p_cur[None].copy(),
                          l + 1, psum, wsum, first)
        vhat = per_angle(lambda e, L: e.totals[L], l) - wsum / W
        step = np.abs(vhat - prev_vhat)
        stable = (step < tols / 4) & (l >= 625) & (l >= osc_floor)
        consec = np.where(stable, consec + 1, 0)
        tail = per_angle(lambda e, L: e.tail(L), np.maximum(1, l - W))
        accept = (tail < tols) | (stable & (consec >= 2))
        if l == cap:
            accept |= step / 4 < tols / 2
        vals[cols[accept]] = vhat[accept]
        keep = np.flatnonzero(~accept)
        if not keep.size or l == cap:
            break
        # accepted angles cost nothing from here on: the recurrence and every
        # per-angle array keep the open angles only, still in ascending order
        rec.compact(keep)
        psum, wsum = psum[keep], np.zeros(keep.size)
        th, winfull, osc_floor, tols, cols = (th[keep], winfull[keep], osc_floor[keep],
                                              tols[keep], cols[keep])
        consec, prev_vhat = consec[keep], vhat[keep]
        if group is not None:
            group = group[keep]
    return vals


def _symdiff_expansion(space) -> _Expansion:
    """The symmetric-difference expansion of ``space``."""
    table = expansion_coeffs(space)
    inv_b = 1.0 / beta(space.d / 2, space.d0 / 2)
    two_gamma = 2.0 * gamma_const(space)

    def coef(lo, hi):  # t_l = m_l a_l / (l^2 B(d/2, d0/2))
        ls = np.arange(lo, hi + 1, dtype=float)
        return inv_b * table.m_l[lo - 1:hi] * table.a_l[lo - 1:hi] / ls**2

    def tail(L):
        return coeff_tail(space, L + 1) / two_gamma

    return _expansion(coef, tail, space.d / 2 - 1, space.d0 / 2 - 1)


def _symdiff_batch(jobs):
    """``symdiff_series`` of several (space, theta, tol) jobs in one pass.

    ``theta`` is a validated 1-D array of angles and ``tol`` an array of its
    shape.  The nonzero angles of every job go through one
    ``_series_values`` call in ascending order; each angle's value has the
    bits it has when summed alone.  Returns, per job, its array of values,
    or the ConvergenceError of its smallest angle not certified at the cap.
    """
    thetas = [theta for _, theta, _ in jobs]
    group = np.concatenate([np.full(theta.size, g) for g, theta in enumerate(thetas)])
    flat = np.concatenate(thetas)
    tols = np.concatenate([tol for _, _, tol in jobs])
    values = np.zeros_like(flat)
    active = np.flatnonzero(flat > 0)
    order = active[np.argsort(flat[active], kind="stable")]
    if order.size:
        terms = [_symdiff_expansion(space) for space, _, _ in jobs]
        values[order] = _series_values(flat[order], tols[order],
                                       None if len(jobs) == 1 else group[order], terms)
    out = []
    for g in range(len(jobs)):
        mine = order[group[order] == g]  # the job's nonzero angles, ascending
        failed = mine[np.isnan(values[mine])]
        if failed.size:
            k = failed[0]
            out.append(ConvergenceError(
                f"series did not certify tolerance {tols[k]:g} at theta="
                f"{flat[k]:.6g} within {SERIES_CAP} terms"))
        else:
            out.append(values[group == g])
    return out


def symdiff_series(space: SpaceSpec, theta, tol=1e-8):
    """Symmetric-difference metric by its zonal expansion.

    Sums sum_l t_l (1 - phi_l(theta)), t_l = m_l a_l / (l^2 B(d/2, d0/2)),
    rearranged as [head + tail] - [window-averaged oscillatory part].
    Accepts a scalar or an array of angles of any shape, and gives a float or
    an array of that shape; ``tol`` may be an array of per-angle absolute
    tolerances that broadcasts to it (checked by ``check_tol``).  Each angle
    is accepted by one of three paths: a tail certificate (the coefficient
    tail beyond the averaging window is below ``tol``), two consecutive
    stable refinements past the oscillation floor, or a relaxed stability
    check at the hard term cap; otherwise ``ConvergenceError`` is raised.
    The radius measure is the canonical sin(r) dr, whose coefficient tail is
    exact, so the first path certifies ``tol``.  Near theta = 0 the
    attainable absolute accuracy at the cap degrades like 1/theta^2, so very
    small angles need a correspondingly relaxed tolerance.  The angles go
    through ``_symdiff_batch`` as one job.
    """
    tols = check_tol(tol)
    thetas = np.asarray(theta, dtype=float)
    if not np.all((thetas >= 0) & (thetas <= math.pi + 1e-12)):
        raise DomainError("theta must lie in [0, pi]")
    try:
        tols = np.broadcast_to(tols, thetas.shape)
    except ValueError:
        raise DomainError(f"tol of shape {tols.shape} does not broadcast to theta's "
                          f"shape {thetas.shape}") from None
    (values,) = _symdiff_batch([(space, thetas.ravel(), tols.ravel())])
    if isinstance(values, ConvergenceError):
        raise values
    if thetas.ndim == 0:
        return float(values[0])
    return values.reshape(thetas.shape)


@cache
def _sine_rule():
    """(nodes, weights) integrating f(r) against sin(r) dr on [0, pi]: a
    64-node Gauss-Legendre rule mapped to [0, pi], read-only.  Built on first
    use, since it imports numpy.polynomial, which no other code path needs."""
    x, w = np.polynomial.legendre.leggauss(64)
    r = (x + 1) * (math.pi / 2)
    rule = (r, (math.pi / 2) * w * np.sin(r))
    for arr in rule:
        arr.setflags(write=False)
    return rule


def avg_symdiff(space: SpaceSpec) -> float:
    """Mean symmetric-difference distance: integral of v - v^2 against sin(r) dr."""
    r, w = _sine_rule()
    v = ball_volume(space, r)
    return float(np.dot(w, v - v**2))


# ---------------------------------------------------------------------------
# squared-Jacobi integrals and their closed forms


def _exactable(*xs):
    return all(isinstance(x, (int, Fraction)) for x in xs)


def poch_ratio(n: int, alpha, beta_):
    """(alpha+1)_n (beta+1)_n / (alpha+beta+3/2)_n; exact for exact inputs."""
    n = check_order(n, 0, "n")
    three_half = Fraction(3, 2) if _exactable(alpha, beta_) else 1.5
    num = rising(alpha + 1, n) * rising(beta_ + 1, n)
    den = rising(alpha + beta_ + three_half, n)
    return num / den


def leibniz_sum(n: int, alpha, beta_):
    """Alternating cross-term sum from 2n-fold differentiation by parts.

    Exact in rational arithmetic for rational inputs.
    """
    n = check_order(n, 0, "n")
    exact = _exactable(alpha, beta_)
    total = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    kfac = 1
    for k in range(2 * n + 1):
        if k > 0:
            kfac *= k
        term = (falling(2 * n, k) * falling(alpha + n, k)
                * falling(beta_ + n, 2 * n - k)
                * rising(2 * alpha + 1, 2 * n - k) * rising(2 * beta_ + 1, k))
        total += (-1) ** (n + k) * (one * term) / kfac
    return total


def leibniz_closed(n: int, alpha, beta_, corrected: bool = True):
    """Closed form of ``leibniz_sum``: (1/2)_n 4^n (a+1)_n (b+1)_n (a+b+1)_n.

    The variant without the leading (1/2)_n factor (``corrected=False``) is
    inconsistent with the sum itself -- e.g. it gives 4 instead of 2 at
    n=1, alpha=beta=0 -- and is kept only so the verification suite can
    demonstrate the failure.
    """
    n = check_order(n, 0, "n")
    half = Fraction(1, 2) if _exactable(alpha, beta_) else 0.5
    out = 4**n * rising(alpha + 1, n) * rising(beta_ + 1, n) * rising(alpha + beta_ + 1, n)
    if corrected:
        out = out * rising(half, n)
    return out


def jacobi_sq_integral(n: int, alpha, beta_, route: str = "closed") -> float:
    """Integral of (P_n^{(a,b)})^2 (1-t)^{2a} (1+t)^{2b} over [-1, 1].

    route='closed' uses the Pochhammer-quotient reduction; route='quadrature'
    integrates exactly with an (n+2)-node Gauss rule for the doubled weight
    (requires alpha, beta > -1/2 so the weight is integrable).
    """
    n = check_order(n, 0, "n")
    alpha = float(alpha)
    beta_ = float(beta_)
    if route == "closed":
        return (2.0 ** (2 * alpha + 2 * beta_ + 1) * float(rising(0.5, n))
                / math.gamma(n + 1) ** 2
                * beta(2 * alpha + 1, 2 * beta_ + 1)
                * float(poch_ratio(n, alpha, beta_)))
    if route == "quadrature":
        if alpha <= -0.5 or beta_ <= -0.5:
            raise DomainError(
                "quadrature route requires alpha, beta > -1/2 for an integrable weight"
            )
        rule = gauss_jacobi(n + 2, 2 * alpha, 2 * beta_)
        p = _jacobi_row(n, alpha, beta_, rule.nodes)
        return float(np.dot(rule.weights, p**2))
    raise DomainError(f"unknown route {route!r}")
