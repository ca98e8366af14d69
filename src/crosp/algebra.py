"""Real division-algebra arithmetic via the Cayley-Dickson construction.

Elements of R, C, H, O are ndarrays whose last axis has length 1, 2, 4 or 8.
A single doubling rule generates all products, so the quaternion and octonion
multiplication tables share one source of truth.  The rule is written once,
on lists of components (``mul_parts``): ``cd_mul`` splits the last axis into
that list and stacks the result, and the distance kernel's embedding calls it
on the component arrays of two coordinates to form x conj(y).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["cd_mul", "cd_conj", "sesquilinear_tensor"]


def cd_conj(x):
    """Conjugate: negate every nonreal component."""
    out = np.array(x, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def conj_parts(x):
    """Conjugate of an element given as a list of components."""
    return x[:1] + [-p for p in x[1:]]


def mul_parts(x, y):
    """Product of two elements given as equal-length lists of components.

    Doubling rule: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)).  The
    components may be arrays of any broadcastable shapes; the result is a
    list of fresh arrays.
    """
    if len(x) == 1:
        return [x[0] * y[0]]
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    real = [p - q for p, q in zip(mul_parts(a, c), mul_parts(conj_parts(d), b))]
    imag = [p + q for p, q in zip(mul_parts(d, a), mul_parts(b, conj_parts(c)))]
    return real + imag


def cd_mul(x, y):
    """Product of two elements (broadcasts over leading axes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = x.shape[-1]
    if y.shape[-1] != dim:
        raise ValueError("operands must have the same algebra dimension")
    parts = mul_parts([x[..., k] for k in range(dim)], [y[..., k] for k in range(dim)])
    return np.stack(parts, axis=-1)


@lru_cache(maxsize=None)
def sesquilinear_tensor(dim):
    """T with (conj(x) y)_c = sum_{a,b} T[c,a,b] x_a y_b; cached, read-only."""
    basis = np.eye(dim)
    T = np.empty((dim, dim, dim))
    for a in range(dim):
        ea_conj = cd_conj(basis[a])
        for b in range(dim):
            T[:, a, b] = cd_mul(ea_conj, basis[b])
    T.setflags(write=False)
    return T
