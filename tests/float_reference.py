"""Reference float kernels: the zero paths as written before they were fused.

``rootfind`` gets the Jacobi-matrix eigenvalues from numpy's ``eigvalsh``
and polishes each zero in one inlined loop.  The routes it replaced are kept
here, so tests can assert that the fused kernels give the same zeros bit for
bit:

* ``zeros_orthogonal``: scipy's ``eigh_tridiagonal`` (LAPACK ``?stevd``) on
  ``float(Fraction)`` entries, then ``newton_polish`` with
  ``recurrence_pair`` as the value function, bound |p| / |p'|;
* ``zeros_general``: ``np.roots`` on ``to_float()`` coefficients, then
  ``newton_polish`` with ``horner_pair`` (the bound differs: see
  ``companion_bound``).

A zero set's bound is ``set_bound`` of its per-zero bounds: the largest, or
inf when some zero has no finite bound.  scipy is needed by the tests only.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from interlace.families import recurrence_coeffs
from interlace.rootfind import REALITY_THRESHOLD

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def horner_pair(coeffs, x):
    """Value and derivative of the ascending-coefficient polynomial at x."""
    acc = 0.0
    dacc = 0.0
    for c in reversed(coeffs):
        dacc = dacc * x + acc
        acc = acc * x + c
    return acc, dacc


def recurrence_pair(cs, ls, x):
    """Value and derivative of the monic recurrence polynomial at x."""
    p_prev, p_cur = 0.0, 1.0
    d_prev, d_cur = 0.0, 0.0
    for c, l in zip(cs, ls):
        p_next = (x - c) * p_cur - l * p_prev
        d_next = p_cur + (x - c) * d_cur - l * d_prev
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return p_cur, d_cur


def newton_polish(x, value_fn, steps=3):
    """Up to ``steps`` Newton corrections; returns (zero, |p| / |p'| there)."""
    for _ in range(steps):
        p, dp = value_fn(x)
        if dp == 0.0 or not math.isfinite(p) or not math.isfinite(dp):
            break
        step = p / dp
        if not math.isfinite(step):
            break
        x -= step
        if abs(step) <= 4 * EPS * max(1.0, abs(x)):
            break
    p, dp = value_fn(x)
    return x, abs(p) / max(abs(dp), TINY)


def a_priori_bound(coeffs, x):
    """The earlier companion bound: (|p| + (2n+1) eps sum |c_k||x|^k) / |p'|."""
    acc = 0.0
    dacc = 0.0
    mag = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        dacc = dacc * x + acc
        acc = acc * x + c
        mag = mag * ax + abs(c)
    rounding = (2 * len(coeffs) + 1) * EPS * mag
    return (abs(acc) + rounding) / max(abs(dacc), TINY)


def companion_bound(coeffs, x):
    """(|p| + eps (2 mu - |p|)) / |p'| with Higham's running bound mu."""
    acc = 0.0
    dacc = 0.0
    mu = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        dacc = dacc * x + acc
        acc = acc * x + c
        mu = mu * ax + abs(acc)
    return (abs(acc) + EPS * (2 * mu - abs(acc))) / max(abs(dacc), TINY)


def set_bound(bounds):
    """The largest bound, or inf when any bound is NaN or inf."""
    if any(math.isnan(b) or math.isinf(b) for b in bounds):
        return math.inf
    return max(bounds)


def zeros_orthogonal(spec):
    """(zeros, bound) of a recurrence family member by the reference route."""
    rc = recurrence_coeffs(spec)
    if spec.n == 0:
        return (), 0.0
    diag = [float(c) for c in rc.c]
    if spec.n == 1:
        raw = [diag[0]]
    else:
        off = [math.sqrt(float(l)) for l in rc.lam[1:]]
        raw = list(eigh_tridiagonal(diag, off, eigvals_only=True))
    ls = [float(l) for l in rc.lam]
    polished = [
        newton_polish(float(x), lambda x: recurrence_pair(diag, ls, x)) for x in sorted(raw)
    ]
    return tuple(z for z, _ in polished), set_bound([b for _, b in polished])


def zeros_general(p, bound_fn=companion_bound):
    """(zeros, bound) of ``p`` by the reference companion route."""
    coeffs = p.to_float().coeffs
    deg = len(coeffs) - 1
    if deg < 1:
        return (), 0.0
    if deg == 1:
        raw = [-coeffs[0] / coeffs[1]]
    else:
        raw = []
        for z in np.roots(list(reversed(coeffs))):
            assert abs(z.imag) <= REALITY_THRESHOLD * max(1.0, abs(z.real)), z
            raw.append(float(z.real))
    zeros = tuple(newton_polish(x, lambda x: horner_pair(coeffs, x))[0] for x in sorted(raw))
    return zeros, set_bound([bound_fn(coeffs, z) for z in zeros])
