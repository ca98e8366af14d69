"""Scalar special functions and quadrature.

Gamma/beta machinery, Pochhammer symbols, Jacobi polynomials, Gauss-Jacobi
rules, and generalized hypergeometric series at unit argument together with
Watson's closed form.  Everything here is pure and re-entrant.

Gamma-function ratios at large arguments (``_lgamma_diff``), the incomplete
beta on 1/2 N and Gauss-Jacobi rules are computed here with numpy.  scipy, an
optional extra (``crosp[scipy]``), is imported only by the incomplete beta,
and only for an (a, b) outside 1/2 N or above _HALF_INTEGER_MAX; no catalog
space reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "Hyp3F2Params",
    "QuadratureRule",
    "signed_log_gamma",
    "beta",
    "reg_inc_beta",
    "rising",
    "falling",
    "jacobi_at_one",
    "gauss_jacobi",
    "hyp3f2_unit",
    "watson_rhs",
]


def check_order(k, least: int, what: str) -> int:
    """k as an int if it is an integer >= least; DomainError otherwise.

    A NaN k fails the comparison; ``int`` of an infinite one raises
    OverflowError, which is turned into the DomainError too.
    """
    try:
        ok = k >= least and k == int(k)
    except OverflowError:
        ok = False
    if not ok:
        raise DomainError(f"{what} must be an integer >= {least}, got {k}")
    return int(k)


def _is_nonpositive_int(x) -> bool:
    if isinstance(x, Fraction):
        return x.denominator == 1 and x <= 0
    return x <= 0 and float(x) == int(x)


def signed_log_gamma(x):
    """(log |Gamma(x)|, sign) for any non-pole real x.

    Nonpositive integers are poles and raise a domain error.
    """
    if math.isnan(x):
        raise DomainError("signed_log_gamma requires a real argument, got nan")
    if _is_nonpositive_int(x):
        raise DomainError(f"Gamma pole at {x}")
    x = float(x)
    if x > 0:
        return math.lgamma(x), 1.0
    # Gamma alternates sign between consecutive nonpositive integers.
    sign = -1.0 if math.floor(-x) % 2 == 0 else 1.0
    return math.lgamma(x), sign


def beta(a, b):
    """Euler beta B(a, b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# B_2k / (2k (2k - 1)) for k = 1..7: the Stirling series of
# lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2, whose next term is below
# 3e-18 for z >= _STIRLING_MIN
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN = 12.0


def _stirling_tail(z):
    w = 1.0 / (z * z)
    s = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        s = s * w + c
    return s / z


def _lgamma_diff(x, h1, h2):
    """log(Gamma(x + h1) / Gamma(x + h2)), elementwise for an array x.

    Where x + min(h1, h2) >= 12 the two Stirling expansions are differenced
    term by term (Tricomi & Erdelyi 1951): with log(x + h) = log x +
    log1p(h / x), the large parts (h1 - h2) log x, (x - 1/2) (log1p(h1/x) -
    log1p(h2/x)), h1 log1p(h1/x) - h2 log1p(h2/x) and h2 - h1 never form
    lgamma values of size x log x, so the difference keeps its relative
    accuracy as x grows.  Smaller x go through ``math.lgamma``.  Swapping
    h1 and h2 negates the result exactly, and h1 == h2 gives 0.  The caller
    keeps x > 0 and x + min(h1, h2) > 0.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape)
    big = arr + min(h1, h2) >= _STIRLING_MIN
    xb = arr[big]
    l1, l2 = np.log1p(h1 / xb), np.log1p(h2 / xb)
    out[big] = ((h1 - h2) * np.log(xb) + (xb - 0.5) * (l1 - l2) + (h1 * l1 - h2 * l2)
                - (h1 - h2) + (_stirling_tail(xb + h1) - _stirling_tail(xb + h2)))
    for i in np.flatnonzero(~big):
        xi = float(arr.flat[i])
        out.flat[i] = math.lgamma(xi + h1) - math.lgamma(xi + h2)
    return out if out.ndim else float(out)


# The finite sum of reg_inc_beta is used for integer b up to this value.  Its
# worst relative error, against mpmath, grows with b: 5.2e-16 at b = 8 and
# 1.2e-15 at b = 12 (tests/test_specfun.py holds b <= 8 to 1e-15).
_FINITE_SUM_MAX_B = 8
# an elementary form that subtracts loses about eps / I of relative accuracy;
# where it falls below this value the power series replaces it
_SERIES_BELOW = 0.25
# a and b in 1/2 N up to this value take the elementary forms, whose sums have
# about a + b terms (against mpmath: 1.05e-15 on the tested pairs, 4.1e-15 on
# a grid of pairs up to 32, where betainc reached 1.6e-14); larger ones call
# betainc
_HALF_INTEGER_MAX = 32


def _is_half_integer(v) -> bool:
    return v == int(2 * v) / 2


def _horner(coeffs, z):
    """coeffs[0] + coeffs[1] z + coeffs[2] z^2 + ..., by Horner's rule."""
    total = coeffs[-1]
    for c in coeffs[-2::-1]:
        total = total * z + c
    return total


def _finite_sum(x, y, a, b):
    """I_x(a, b) = x^a sum_{j<b} (a)_j / j! y^j for an integer b, y = 1 - x.

    Positive terms, summed by Horner's rule in y.
    """
    coeffs = [1.0]
    for j in range(1, int(b)):
        coeffs.append(coeffs[-1] * (a + j - 1) / j)
    return np.power(x, float(a)) * _horner(coeffs, y)


def _gamma_over_sqrt_pi(v):
    """Gamma(v) for v in N, or Gamma(v) / sqrt(pi) for v in N - 1/2, exactly."""
    k = int(v)
    if v == k:
        return Fraction(math.factorial(k - 1))
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))


def _half_integer_beta(a, b):
    """B(a, b) for a, b in 1/2 N, from the exact rational part (two roundings)."""
    ratio = (_gamma_over_sqrt_pi(a) * _gamma_over_sqrt_pi(b)
             / _gamma_over_sqrt_pi(a + b))
    return float(ratio) * math.pi if a != int(a) and b != int(b) else float(ratio)


def _inc_beta_series(x, y, a, b):
    """I_x(a, b) = x^a y^b / (a B(a, b)) sum_n (a+b)_n / (a+1)_n x^n for x < 1.

    Every term is positive, so the sum keeps its relative accuracy as x -> 0.
    Summation stops once every term is below 2^-60 of its sum.  A term
    that small no longer changes its sum, and the terms after it are smaller
    still (the term ratio only decreases once it is below 1), so each value
    is the same whichever other x share the array.
    """
    term = np.ones_like(x)
    total = term.copy()
    n = 0
    while np.any(term >= 2.0**-60 * total):
        term *= x * ((a + b + n) / (a + 1 + n))
        total += term
        n += 1
    return np.power(x, a) * np.power(y, b) / (a * _half_integer_beta(a, b)) * total


def _inc_beta_lower(x, y, a, b):
    """I_x(a, b) for (a, b) in 1/2 N and x <= a / (a + b), with y = 1 - x.

    An integer b is the finite sum x^a sum_{j<b} (a)_j / j! y^j.  Otherwise b
    is a half-integer n + 1/2, and the forms step the recurrences
    I_x(a, b+1) = I_x(a, b) + x^a y^b / (b B(a, b)) and
    I_x(a+1, b) = I_x(a, b) - x^a y^b / (a B(a, b)) (DLMF 8.17.20-21):
    from I_x(1/2, 1/2) = (2/pi) arcsin sqrt(x) for a half-integer a, and
    from the complement 1 - I_y(b, a), a finite sum, for an integer a.  Only
    a = 1/2 adds terms alone; for a >= 1 the forms subtract, and where they
    fall below _SERIES_BELOW the power series takes over.
    """
    if b == int(b):
        return _finite_sum(x, y, a, b)
    if a == int(a):
        out = 1.0 - _finite_sum(y, x, b, a)
    else:
        n, m = int(b), int(a)
        # the added terms x^(1/2) y^(j+1/2) / ((j+1/2) B(1/2, j+1/2)), j < n
        up = [1.0]
        for j in range(n - 1):
            up.append(up[-1] * (j + 1) / (j + 1.5))
        out = np.arcsin(np.sqrt(x))
        if n:
            out = out + np.sqrt(x * y) * _horner(up, y)
        out = out * (2 / math.pi)
        if not m:
            return out
        # the subtracted terms x^(i+1/2) y^b / ((i+1/2) B(i+1/2, b)), i < m
        down = [2 / _half_integer_beta(0.5, b)]
        for i in range(m - 1):
            down.append(down[-1] * (i + 0.5 + b) / (i + 1.5))
        out = out - np.sqrt(x) * np.power(y, b) * _horner(down, x)
    low = out < _SERIES_BELOW
    if low.any():
        out[low] = _inc_beta_series(x[low], y[low], a, b)
    return out


def _inc_beta(x, a, b, y=None):
    """I_x(a, b) for validated x, a and b; ``y`` is 1 - x when the caller has
    it to full relative accuracy (``spaces.ball_volume`` near r = pi).

    An integer b <= _FINITE_SUM_MAX_B takes the finite sum in 1 - x (its
    slope at x = 1 is bounded, so it never reads y).  Other (a, b) in 1/2 N
    evaluate x up to the mean a / (a + b) directly and larger x as
    1 - I_y(b, a), so the value a form computes is never close to 1.  Any
    other (a, b) calls scipy's ``betainc``.
    """
    if b <= _FINITE_SUM_MAX_B and b == int(b):
        return _finite_sum(x, 1.0 - np.asarray(x, dtype=float), a, b)
    if not (a <= _HALF_INTEGER_MAX and b <= _HALF_INTEGER_MAX
            and _is_half_integer(a) and _is_half_integer(b)):
        try:
            from scipy.special import betainc
        except ImportError:
            raise DomainError(f"the incomplete beta at (a, b) = ({a}, {b}) needs scipy; "
                              "install crosp[scipy]") from None
        return betainc(a, b, x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = 1.0 - xs if y is None else np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty(xs.shape)
    lower = xs <= a / (a + b)
    out[lower] = _inc_beta_lower(xs[lower], ys[lower], a, b)
    out[~lower] = 1.0 - _inc_beta_lower(ys[~lower], xs[~lower], b, a)
    return out.reshape(np.shape(x))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) on [0, 1].

    For an integer b <= _FINITE_SUM_MAX_B (the ball volumes of cp, hp, op
    and the even spheres up to s16) this is the finite sum
    I_x(a, b) = x^a sum_{j<b} (a)_j / j! (1 - x)^j of positive terms, by
    Horner's rule in 1 - x.  Other a and b in 1/2 N (every other ball volume)
    take elementary forms and a power series (``_inc_beta``); any other
    (a, b) calls scipy's ``betainc``, a DomainError without scipy.
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"reg_inc_beta requires positive a, b, got ({a}, {b})")
    if not np.all((x >= 0) & (x <= 1)):  # written so that a NaN fails the check
        raise DomainError("reg_inc_beta requires x in [0, 1]")
    out = _inc_beta(x, a, b)
    return out if isinstance(x, np.ndarray) else float(out)


def rising(a, k):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); exact for exact inputs."""
    k = check_order(k, 0, "rising: k")
    out = 1
    for i in range(k):
        out = out * (a + i)
    return out


def falling(a, k):
    """Falling factorial a (a-1) ... (a-k+1) = (-1)^k (-a)_k."""
    k = check_order(k, 0, "falling: k")
    out = 1
    for i in range(k):
        out = out * (a - i)
    return out


# entries (degrees times elements of t) one _JacobiRecurrence block holds at
# most; a block also has at most 64 degrees.  64 x 2048 float64 entries are
# 1 MB, which stays in a 2 MB L2 cache
_BLOCK_ENTRIES = 64 * 2048


def _scaled_coeffs(alpha, beta_, ratio, lo, hi):
    """(A_n, B_n, C_n) of the scaled recurrence for degrees n = lo .. hi >= 2.

    c1 .. c5 are the integer-valued coefficients of the recurrence
    c1 P_n = c2 (c3 t + c4) P_{n-1} - c5 P_{n-2} (DLMF 18.9.2), exact in
    float64 for alpha, beta in 1/2 N while they stay below 2^53 (up to degree
    ~10^5); ``ratio(lo, hi)`` gives r_n = s_n / s_{n-1} for n = lo .. hi, and
    None stands for s_n = 1.  With g = r_n / c1: A_n = g (c2 c3),
    B_n = g (c2 c4), C_n = g r_{n-1} c5.
    """
    ab = alpha + beta_
    m = np.arange(lo, hi + 1, dtype=float)
    u = 2 * m + ab
    v = u - 2
    c1 = 2 * m * (m + ab) * v
    c2 = u - 1
    c5 = 2 * (m + alpha - 1) * (m + beta_ - 1) * u
    if ratio is None:
        g, r_prev = 1.0 / c1, 1.0
    else:
        r = ratio(lo - 1, hi)
        g, r_prev = r[1:] / c1, r[:-1]
    return g * (c2 * (u * v)), g * (c2 * (alpha * alpha - beta_ * beta_)), g * r_prev * c5


class _JacobiRecurrence:
    """Scaled Jacobi rows q_n = s_n P_n^{(alpha, beta)}(t) for an array t, a
    block of degrees at a time.

    The one three-term recurrence in crosp.  With r_n = s_n / s_{n-1}
    (s_0 = 1), q_n = (A_n t + B_n) q_{n-1} - C_n q_{n-2}, with the per-degree
    scalars of ``_scaled_coeffs``; B_n = 0 when alpha = beta, and its pass is
    then skipped.  ``ratio`` is the function ``ratio(lo, hi)`` of
    ``_scaled_coeffs``, or None for s_n = 1, the plain P_n.  The elements of
    t may belong to several groups, each with its own alpha, beta and ratio:
    ``group`` then gives the group of each element, and alpha, beta_ and
    ratio hold one entry per group.  The state is the last two rows,
    ``p_prev`` = q_{degree-1} and ``p_cur`` = q_degree, one entry per element
    of ``t`` (an array of at least one dimension, of one dimension with
    groups); it starts at degree 1.  Every operation is elementwise, so each
    element's rows have the bits of a recurrence over that element alone.
    ``compact`` keeps only some elements of t.  The caller checks the domain.

    The coefficients are no longer exact: for the given ratios, A_n and B_n
    are rounded twice and C_n at most three times, so each lies within 3u
    of its exact value, u = 2^-53.  A row of degree n then carries an error
    of order n u relative to the largest |q_n| on [-1, 1], as the forward
    recurrence does in the oscillatory range (Gautschi, SIAM Rev. 9, 1967):
    against mpmath, phi_l = q_l / t_l of the series is within 1.3e-12 up to
    l = 10^4 on every catalog space (tests/test_harmonic.py).
    """

    def __init__(self, alpha, beta_, t, ratio=None, group=None):
        self.t = np.asarray(t, dtype=float)
        if group is None:
            alpha, beta_, ratio = [alpha], [beta_], [ratio]
        self.params = list(zip(alpha, beta_, ratio))
        self.group = group
        self.skip_b = all(a == b for a, b, _ in self.params)
        self.degree = 1
        self._table = None
        self.p_prev = np.ones_like(self.t)
        # q_1 = r_1 P_1, P_1 = (alpha + 1) + (alpha + beta + 2) (t - 1) / 2
        alphas, betas, ratios = zip(*self.params)
        a, b = self._per_element(alphas), self._per_element(betas)
        self.p_cur = (a + 1) + (a + b + 2) * (self.t - 1) / 2
        if any(r is not None for r in ratios):
            self.p_cur *= self._per_element([1.0 if r is None else r(1, 1)[0] for r in ratios])

    def _per_element(self, values):
        """One value per group, as a scalar (one group) or an array over t."""
        if self.group is None:
            return values[0]
        return np.asarray(values, dtype=float)[self.group]

    def _coeffs(self, lo, hi, stop):
        """A, B, C of degrees lo .. hi, one column per group, from a table of
        degrees lo .. stop kept until a block leaves it."""
        if self._table is None or not (self._table[0] <= lo and hi <= self._table[1]):
            stop = min(stop, lo + 1023)  # a table spans at most 1024 degrees
            cols = [_scaled_coeffs(a, b, r, lo, stop) for a, b, r in self.params]
            self._table = (lo, stop, [np.stack(c, axis=1) for c in zip(*cols)])
        first, _, tabs = self._table
        return [tab[lo - first:hi - first + 1] for tab in tabs]

    def advance(self, limit=None):
        """Rows q_{degree+1} .. q_stop, one per degree, stacked along a new axis 0.

        stop is the last degree of a block of at most 64 degrees and
        _BLOCK_ENTRIES entries, or ``limit`` if that comes first; a limit at
        or below the current degree is an error.  The row A_n t + B_n of
        every degree is formed at once; each degree then multiplies it in
        place by q_{n-1} and subtracts C_n q_{n-2}, formed in a kept buffer.
        With groups, each element reads the coefficients of its group.  The
        returned rows belong to the caller.
        """
        lo = self.degree + 1
        # with groups, a block also holds B and C per element
        entries = self.t.size * (1 if self.group is None else 3)
        hi = lo + max(1, min(64, _BLOCK_ENTRIES // max(entries, 1))) - 1
        if limit is not None:
            if limit < lo:
                raise ValueError(f"advance: limit {limit} is not above degree {self.degree}")
            hi = min(hi, limit)
        A, B, C = self._coeffs(lo, hi, hi if limit is None else limit)
        if self.group is None:
            shape = (-1,) + (1,) * self.t.ndim
            rows = A.reshape(shape) * self.t
            if not self.skip_b:
                rows += B.reshape(shape)
            C = C[:, 0].tolist()
        else:
            # np.take keeps the rows C-ordered, as the callers' row sums need
            rows = np.take(A, self.group, axis=1)
            rows *= self.t
            if not self.skip_b:
                rows += np.take(B, self.group, axis=1)
            C = np.take(C, self.group, axis=1)
        tmp = np.empty_like(self.p_cur)
        # each row is a view, stepped in place
        p_prev, p_cur = self.p_prev, self.p_cur
        for row, c in zip(rows, C):
            row *= p_cur
            np.multiply(p_prev, c, out=tmp)
            row -= tmp
            p_prev, p_cur = p_cur, row
        self.degree = hi
        self.p_prev, self.p_cur = p_prev.copy(), p_cur.copy()
        return rows

    def compact(self, keep):
        """Keep the elements ``keep`` (an index along axis 0 of t) and drop the rest."""
        self.t = self.t[keep]
        self.p_prev = self.p_prev[keep]
        self.p_cur = self.p_cur[keep]
        if self.group is not None:
            self.group = self.group[keep]


def _jacobi_row(n, alpha, beta_, t):
    """P_n^{(alpha, beta)}(t) for an array t, by ``_JacobiRecurrence``."""
    rec = _JacobiRecurrence(alpha, beta_, t)
    if n == 0:
        return rec.p_prev
    while rec.degree < n:
        rec.advance(n)
    return rec.p_cur


def jacobi_at_one(n, alpha):
    """P_n^{(alpha, beta)}(1) = Gamma(alpha+n+1) / (Gamma(n+1) Gamma(alpha+1)), any beta."""
    n = check_order(n, 0, "jacobi_at_one: n")
    if not alpha + n + 1 > 0:
        raise DomainError(f"jacobi_at_one requires alpha + n + 1 > 0, got alpha={alpha}")
    if alpha + 1 <= 0:
        # alpha in (-n-1, -1]: use a pole-free product form
        out = 1.0
        for i in range(1, n + 1):
            out *= (alpha + i) / i
        return out
    return math.exp(math.lgamma(alpha + n + 1) - math.lgamma(n + 1) - math.lgamma(alpha + 1))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-t)^alpha (1+t)^beta on [-1, 1], read-only."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_jacobi(m, alpha, beta_):
    """m-node Gauss-Jacobi rule, exact on polynomials of degree <= 2m - 1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the recurrence coefficients, and each weight is mu0
    times the squared first component of its unit eigenvector.  The matrix
    is m x m and dense (``numpy.linalg.eigh``); callers use a few dozen nodes
    at most.
    """
    m = check_order(m, 1, "gauss_jacobi: m")
    if not (alpha > -1 and beta_ > -1):
        raise DomainError(f"gauss_jacobi requires alpha, beta > -1, got ({alpha}, {beta_})")
    ab = alpha + beta_
    k = np.arange(m, dtype=float)
    diag = np.empty(m)
    diag[0] = (beta_ - alpha) / (ab + 2)
    if m > 1:
        kk = k[1:]
        diag[1:] = (beta_**2 - alpha**2) / ((2 * kk + ab) * (2 * kk + ab + 2))
    off = np.empty(max(m - 1, 0))
    if m > 1:
        off[0] = math.sqrt(4 * (alpha + 1) * (beta_ + 1) / ((ab + 2) ** 2 * (ab + 3)))
        kk = k[2:]
        off[1:] = np.sqrt(
            4 * kk * (kk + alpha) * (kk + beta_) * (kk + ab)
            / ((2 * kk + ab) ** 2 * ((2 * kk + ab) ** 2 - 1))
        )
    mu0 = 2 ** (ab + 1) * beta(alpha + 1, beta_ + 1)
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = mu0 * vecs[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


@dataclass(frozen=True)
class Hyp3F2Params:
    """Parameters of a 3F2 series at unit argument: a, b, c over d, e."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def terminating_order(self):
        """Smallest K with a numerator parameter equal to -K, or None."""
        ks = [int(-p) for p in (self.a, self.b, self.c) if _is_nonpositive_int(p)]
        return min(ks) if ks else None

    def validate(self):
        K = self.terminating_order()
        for q in (self.d, self.e):
            if _is_nonpositive_int(q):
                if K is None or -int(q) < K:
                    raise DomainError(
                        f"denominator parameter {q} hits zero before the series terminates"
                    )
        if K is None:
            s = self.d + self.e - self.a - self.b - self.c
            if s <= 0:
                raise DomainError(
                    f"nonterminating series requires d + e - a - b - c > 0, got {s}"
                )


def hyp3f2_unit(params: Hyp3F2Params, mode: str = "float"):
    """Sum of the 3F2 series at z = 1.

    Terminating series are summed term by term (exactly, in rational
    arithmetic, when ``mode='exact'`` and all parameters are rational).
    Nonterminating series are summed in blocks of 1024 terms, doubling up to
    10^5, each added to the total with one ``math.fsum``, until a block's
    last term t_k falls below 1e-16 of the total; the terms then decay like
    k^-(1+s), s = d + e - a - b - c, so the tail t_k (k / s - 1/2) of the
    integral estimate is added.
    """
    params.validate()
    K = params.terminating_order()
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "exact" and K is None:
        raise DomainError("exact mode requires a terminating series")
    num = Fraction if mode == "exact" else float
    a, b, c, d, e = (num(p) for p in (params.a, params.b, params.c, params.d, params.e))
    if K is not None:
        terms = [num(1)]
        for k in range(K):
            terms.append(terms[-1] * (a + k) * (b + k) * (c + k) / ((d + k) * (e + k) * (k + 1)))
        return sum(terms) if mode == "exact" else math.fsum(terms)
    s = d + e - a - b - c
    total = term = 1.0
    k, block = 0, 1024
    while k < 200_000_000:
        j = np.arange(k, k + block, dtype=float)
        ratios = (a + j) * (b + j) * (c + j) / ((d + j) * (e + j) * (j + 1))
        terms = term * np.cumprod(ratios)
        total = math.fsum(np.append(terms, total))
        term = terms[-1]
        k += block
        if abs(term) < 1e-16 * abs(total):
            return total + term * (k / s - 0.5)
        block = min(2 * block, 100_000)
    raise DomainError("3F2 series converges too slowly to sum reliably")


def watson_rhs(a, b, c):
    """Gamma-quotient closed form for 3F2(a, b, c; (a+b+1)/2, 2c; 1).

    Requires 2c - a - b + 1 > 0; with the convergence condition violated the
    closed form is not valid even for terminating series.
    """
    if 2 * c - a - b + 1 <= 0:
        raise DomainError(
            f"watson_rhs requires 2c - a - b + 1 > 0, got {2 * c - a - b + 1}"
        )
    num = (0.5, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2)
    den = ((a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2, c - (b - 1) / 2)
    log_total = 0.0
    sign = 1.0
    for x in num:
        lg, s = signed_log_gamma(x)
        log_total += lg
        sign *= s
    for x in den:
        lg, s = signed_log_gamma(x)
        log_total -= lg
        sign *= s
    return sign * math.exp(log_total)
