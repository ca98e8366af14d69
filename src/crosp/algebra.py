"""Real division-algebra arithmetic via the Cayley-Dickson construction.

Elements of R, C, H, O are ndarrays whose last axis has length 1, 2, 4 or 8.
A single doubling rule generates all products, so the quaternion and octonion
multiplication tables share one source of truth.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["cd_mul", "cd_conj", "sesquilinear_tensor", "as_element"]


def as_element(x, dim):
    """Coerce x (scalar or sequence of <= dim reals) to a length-dim element."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size > dim:
        raise ValueError(f"cannot interpret {x!r} as an element of dimension {dim}")
    out = np.zeros(dim)
    out[: arr.size] = arr
    return out


def cd_conj(x):
    """Conjugate: negate every nonreal component."""
    out = np.array(x, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def cd_mul(x, y):
    """Product of two elements (broadcasts over leading axes).

    Doubling rule: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = x.shape[-1]
    if y.shape[-1] != dim:
        raise ValueError("operands must have the same algebra dimension")
    if dim == 1:
        return x * y
    h = dim // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    real = cd_mul(a, c) - cd_mul(cd_conj(d), b)
    imag = cd_mul(d, a) + cd_mul(b, cd_conj(c))
    return np.concatenate([real, imag], axis=-1)


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
