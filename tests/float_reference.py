"""Reference float kernels: the zero paths as written before they were fused.

``rootfind`` gets the Jacobi-matrix eigenvalues from numpy's ``eigvalsh``
and polishes each zero in one inlined loop.  The routes it replaced are kept
here, so tests can assert that the fused kernels give the same zeros bit for
bit:

* ``zeros_orthogonal``: scipy's ``eigh_tridiagonal`` (LAPACK ``?stevd``) on
  ``float(Fraction)`` entries, then ``newton_polish`` with
  ``recurrence_pair`` as the value function, bound |p| / |p'|;
* ``zeros_general``: ``np.roots`` on ``float_coeffs()``, then
  ``newton_polish`` with ``horner_pair`` (the bound differs: see
  ``companion_bound``).

A zero set's bound is ``set_bound`` of its per-zero bounds: the largest, or
inf when some zero has no finite bound.  ``sign_at_zeros`` is the float sign
test with an a-priori Horner error bound that the program used before its
polynomials became exact only.  scipy is needed by the tests only.

``solve_alone`` is the zero path as the program ran it one set at a time,
before ``rootfind.zero_sets`` solved a batch by degree: the same dispatch
(exact roots, tridiagonal, companion), one LAPACK call per set, the scalar
polish above, and the same exceptions with the same messages.

The interlacing verdicts as they were before their single-pass form are kept
too: ``alternates`` and ``interlaces_down`` build one tagged (value, set,
index) chain and scan it, and ``locate_point`` tests e against every zero and
then walks the slots.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from interlace.families import (
    ORTHOGONAL_KINDS,
    InvalidParameterError,
    monic_by_recurrence,
    recurrence_coeffs,
)
from interlace.interlacing import (
    ALTERNATE,
    DEFAULT_FLOOR,
    FAIL,
    INCONCLUSIVE,
    INTERLACE_DOWN,
    Verdict,
)
from interlace.rootfind import REALITY_THRESHOLD, RootComputationError, ZeroSet

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


def horner_with_errbound(coeffs, x):
    """Horner value of the ascending float coefficients at x, and a running
    a-priori bound (2n+1) eps sum |c_k||x|^k on its rounding error."""
    acc = 0.0
    mag = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        acc = acc * x + c
        mag = mag * ax + abs(c)
    return acc, (2 * len(coeffs) + 1) * EPS * mag


def sign_at_zeros(p, zs):
    """Sign of ``p`` on its float coefficients at each zero of ``zs``:
    -1, 0 within four times the Horner error bound, or +1."""
    signs = []
    for z in zs.zeros:
        value, errbound = horner_with_errbound(p.float_coeffs(), z)
        if abs(value) <= 4 * errbound:
            signs.append(0)
        elif value > 0:
            signs.append(1)
        else:
            signs.append(-1)
    return signs


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
    coeffs = p.float_coeffs()
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


def _solve_orthogonal_alone(spec):
    rc = recurrence_coeffs(spec)
    for k, l in enumerate(rc.lam[1:], start=1):
        if l <= 0:
            raise InvalidParameterError(
                f"off-diagonal recurrence term {k + 1} is not positive ({l}); "
                f"parameters outside the orthogonality region"
            )
    n = spec.n
    if n == 0:
        return ZeroSet((), 0.0, "JacobiMatrix", spec)
    diag = [float(c) for c in rc.c]
    ls = [float(l) for l in rc.lam]
    if n == 1:
        raw = [diag[0]]
    else:
        matrix = np.zeros((n, n))
        matrix.flat[:: n + 1] = diag
        matrix.flat[n :: n + 1] = [math.sqrt(l) for l in ls[1:]]
        try:
            raw = np.linalg.eigvalsh(matrix).tolist()
        except np.linalg.LinAlgError as exc:
            raise RootComputationError(
                f"LAPACK ?syevd failed ({exc}) on the Jacobi matrix of {spec.kind} n={n}"
            ) from exc
    polished = [newton_polish(x, lambda x: recurrence_pair(diag, ls, x)) for x in raw]
    zeros = tuple(z for z, _ in polished)
    return ZeroSet(zeros, set_bound([b for _, b in polished]), "JacobiMatrix", spec)


def _solve_companion_alone(p):
    coeffs = p.float_coeffs()
    deg = len(coeffs) - 1
    if deg < 0:
        raise RootComputationError("zero polynomial has no well-defined zero set")
    if deg == 0:
        return ZeroSet((), 0.0, "Companion", p)
    if deg == 1:
        raw = [-coeffs[0] / coeffs[1]]
    else:
        raw = []
        for z in np.roots(coeffs[::-1]).tolist():
            if abs(z.imag) > REALITY_THRESHOLD * max(1.0, abs(z.real)):
                raise RootComputationError(
                    f"companion eigenvalue {z} is not real within threshold "
                    f"{REALITY_THRESHOLD}; expected an all-real zero set"
                )
            raw.append(z.real)
    zeros = tuple(newton_polish(x, lambda x: horner_pair(coeffs, x))[0] for x in sorted(raw))
    return ZeroSet(zeros, set_bound([companion_bound(coeffs, z) for z in zeros]), "Companion", p)


def solve_alone(term):
    """The ``ZeroSet`` of one ``rootfind.Term`` solved by itself, or the exception that raised."""
    try:
        if term.roots is not None:
            nums, den = term.roots
            zeros = tuple(sorted(x / den for x in nums))
            bound = max((math.ulp(z) / 2 for z in zeros), default=0.0)
            return ZeroSet(zeros, bound, "Exact", term.roots)
        if term.spec is not None and term.spec.kind in ORTHOGONAL_KINDS:
            return _solve_orthogonal_alone(term.spec)
        return _solve_companion_alone(
            term.poly if term.poly is not None else monic_by_recurrence(term.spec)
        )
    except Exception as exc:
        return exc


def _scan_chain(chain):
    """The first adjacent pair of (value, set label, index) entries not apart by
    more than the floor, as a Fail or Inconclusive verdict; None if there is none."""
    for (v1, lab1, i1), (v2, lab2, i2) in zip(chain, chain[1:]):
        gap = v2 - v1
        if gap > DEFAULT_FLOOR:
            continue
        witness = (i1, i2) if lab1 == "p" else (i2, i1)
        if abs(gap) <= DEFAULT_FLOOR:
            return Verdict(INCONCLUSIVE, witness=witness, gap=gap)
        return Verdict(FAIL, witness=witness, gap=gap)
    return None


def alternates(p, q):
    """p1 < q1 < ... < pn < qn on a tagged chain; p and q are float lists of one size."""
    chain = []
    for i in range(len(p)):
        chain.append((p[i], "p", i))
        chain.append((q[i], "q", i))
    bad = _scan_chain(chain)
    return bad if bad is not None else Verdict(ALTERNATE)


def interlaces_down(p, q):
    """p1 < q1 < ... < q_{n-1} < pn on a tagged chain; len(p) == len(q) + 1."""
    chain = []
    for i in range(len(q)):
        chain.append((p[i], "p", i))
        chain.append((q[i], "q", i))
    if p:
        chain.append((p[-1], "p", len(p) - 1))
    bad = _scan_chain(chain)
    return bad if bad is not None else Verdict(INTERLACE_DOWN)


def locate_point(e, g):
    """Position of e against the float list g, testing every member, then every slot."""
    if not g:
        return "unknown", None
    if any(abs(e - x) <= DEFAULT_FLOOR for x in g):
        return "unknown", None
    if e < g[0]:
        return "below", None
    if e > g[-1]:
        return "above", None
    for j in range(len(g) - 1):
        if g[j] < e < g[j + 1]:
            return "interior", j + 1
    return "unknown", None
