"""Real zeros of the constructed polynomials, with certified ordering.

Two numerical paths: a symmetric tridiagonal eigensolve for families with a
classical three-term recurrence (zeros are the eigenvalues of the Jacobi
matrix built from the recurrence coefficients), and a balanced
companion-matrix eigensolve for everything else.  Both finish with a short
Newton polish and report a residual-based accuracy bound per zero set.  A
polynomial built from known rational zeros skips both: its zero set is those
zeros rounded to floats, bounded by half an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .families import (
    FamilySpec,
    InvalidParameterError,
    ORTHOGONAL_KINDS,
    recurrence_coeffs,
)
from .poly import FLOAT, Polynomial

#: companion eigenvalues with |Im| <= REALITY_THRESHOLD * max(1, |Re|) count as real.
REALITY_THRESHOLD = 1e-8

#: double-precision constants for the Newton stop test and residual bounds
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

METHOD_JACOBI = "JacobiMatrix"
METHOD_COMPANION = "Companion"
METHOD_EXACT = "Exact"


class RootComputationError(RuntimeError):
    """The zero computation failed an invariant (reality, count, ordering)."""


@dataclass(frozen=True)
class ZeroSet:
    """Strictly increasing real zeros plus a residual accuracy bound."""

    zeros: tuple[float, ...]
    bound: float
    method: str
    source: object = None

    def __post_init__(self):
        for a, b in zip(self.zeros, self.zeros[1:]):
            if not (a < b):
                raise RootComputationError(
                    f"zeros not strictly increasing: {a} then {b}"
                )

    def __len__(self) -> int:
        return len(self.zeros)

    @property
    def min(self) -> float:
        return self.zeros[0]

    @property
    def max(self) -> float:
        return self.zeros[-1]

    def to_json(self) -> dict:
        return {"zeros": list(self.zeros), "bound": self.bound, "method": self.method}


def _horner_pair(coeffs: tuple[float, ...], x: float) -> tuple[float, float]:
    """Value and derivative of the ascending-coefficient polynomial at x."""
    acc = 0.0
    dacc = 0.0
    for c in reversed(coeffs):
        dacc = dacc * x + acc
        acc = acc * x + c
    return acc, dacc


def _horner_with_errbound(coeffs: tuple[float, ...], x: float) -> tuple[float, float]:
    """Horner value plus a running floating-point error bound for it."""
    acc = 0.0
    mag = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        acc = acc * x + c
        mag = mag * ax + abs(c)
    return acc, (2 * len(coeffs) + 1) * _EPS * mag


def _recurrence_pair(cs: list[float], ls: list[float], x: float) -> tuple[float, float]:
    """Value and derivative of the monic recurrence polynomial at x."""
    p_prev, p_cur = 0.0, 1.0
    d_prev, d_cur = 0.0, 0.0
    for c, l in zip(cs, ls):
        p_next = (x - c) * p_cur - l * p_prev
        d_next = p_cur + (x - c) * d_cur - l * d_prev
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return p_cur, d_cur


def _horner_bound(coeffs: tuple[float, ...], x: float) -> float:
    """Newton bound (|p(x)| + Horner's rounding bound) / |p'(x)| at x."""
    acc = 0.0
    dacc = 0.0
    mag = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        dacc = dacc * x + acc
        acc = acc * x + c
        mag = mag * ax + abs(c)
    rounding = (2 * len(coeffs) + 1) * _EPS * mag
    return (abs(acc) + rounding) / max(abs(dacc), _TINY)


def _newton_polish(x: float, value_fn, bound_fn=None, steps: int = 3) -> tuple[float, float]:
    """Up to ``steps`` Newton corrections; returns (zero, residual bound).

    The bound is ``bound_fn(zero)`` if given, else |p| / |p'| at the zero.
    """
    for _ in range(steps):
        p, dp = value_fn(x)
        if dp == 0.0 or not math.isfinite(p) or not math.isfinite(dp):
            break
        step = p / dp
        if not math.isfinite(step):
            break
        x -= step
        if abs(step) <= 4 * _EPS * max(1.0, abs(x)):
            break
    if bound_fn is not None:
        return x, bound_fn(x)
    p, dp = value_fn(x)
    bound = abs(p) / max(abs(dp), _TINY)
    return x, bound


def zeros_orthogonal(spec: FamilySpec) -> ZeroSet:
    """All n zeros of the recurrence family member, via its Jacobi matrix."""
    if spec.kind not in ORTHOGONAL_KINDS:
        raise InvalidParameterError(
            f"zeros_orthogonal needs a recurrence family, not {spec.kind}"
        )
    rc = recurrence_coeffs(spec)
    for k, lam in enumerate(rc.lam):
        if k > 0 and lam <= 0:
            raise InvalidParameterError(
                f"off-diagonal recurrence term {k + 1} is not positive ({lam}); "
                f"parameters outside the orthogonality region"
            )
    n = spec.n
    if n == 0:
        return ZeroSet((), 0.0, METHOD_JACOBI, spec)
    diag = [float(c) for c in rc.c]
    if n == 1:
        raw = [diag[0]]
    else:
        off = [math.sqrt(float(l)) for l in rc.lam[1:]]
        raw = list(eigh_tridiagonal(diag, off, eigvals_only=True))
    ls = [float(l) for l in rc.lam]
    value_fn = lambda x: _recurrence_pair(diag, ls, x)
    polished = [_newton_polish(float(x), value_fn) for x in sorted(raw)]
    zeros = tuple(z for z, _ in polished)
    bound = max((b for _, b in polished), default=0.0)
    return ZeroSet(zeros, bound, METHOD_JACOBI, spec)


def zeros_general(p: Polynomial) -> ZeroSet:
    """All real zeros of ``p`` via a balanced companion eigensolve.

    The families fed through this path are real rooted, so an eigenvalue with
    imaginary part above the reality threshold is an error, not data to drop.
    """
    pf = p.to_float()
    deg = pf.degree
    if deg < 0:
        raise RootComputationError("zero polynomial has no well-defined zero set")
    if deg == 0:
        return ZeroSet((), 0.0, METHOD_COMPANION, p)
    if deg == 1:
        raw = [-pf.coeffs[0] / pf.coeffs[1]]
    else:
        raw_complex = np.roots(list(reversed(pf.coeffs)))
        raw = []
        for z in raw_complex:
            if abs(z.imag) <= REALITY_THRESHOLD * max(1.0, abs(z.real)):
                raw.append(float(z.real))
            else:
                raise RootComputationError(
                    f"companion eigenvalue {z} is not real within threshold "
                    f"{REALITY_THRESHOLD}; expected an all-real zero set"
                )
    if len(raw) != deg:
        raise RootComputationError(
            f"found {len(raw)} real zeros for a degree {deg} polynomial"
        )
    value_fn = lambda x: _horner_pair(pf.coeffs, x)
    # The value at a zero is mostly rounding error, so the bound counts it.
    bound_fn = lambda x: _horner_bound(pf.coeffs, x)
    polished = [_newton_polish(x, value_fn, bound_fn) for x in sorted(raw)]
    zeros = tuple(z for z, _ in polished)
    bound = max((b for _, b in polished), default=0.0)
    return ZeroSet(zeros, bound, METHOD_COMPANION, p)


def zeros_exact(roots) -> ZeroSet:
    """The zero set of a polynomial whose zeros are known as exact rationals.

    Each zero is ``float(r)``, which is correctly rounded, so the exact zero
    is within half an ulp of it; the largest such half ulp is the bound.
    """
    # numerator / denominator is float(r), without the generic Rational path
    zeros = tuple(sorted(r.numerator / r.denominator for r in roots))
    bound = max((math.ulp(z) / 2 for z in zeros), default=0.0)
    return ZeroSet(zeros, bound, METHOD_EXACT, roots)


def sign_at_zeros(p: Polynomial, zs: ZeroSet) -> list[int]:
    """Sign of ``p`` at each zero of ``zs``: -1, 0 within tolerance, or +1."""
    if p.mode != FLOAT:
        raise InvalidParameterError("sign_at_zeros expects a float-mode polynomial")
    signs = []
    for z in zs.zeros:
        value, errbound = _horner_with_errbound(p.coeffs, z)
        if abs(value) <= 4 * errbound:
            signs.append(0)
        elif value > 0:
            signs.append(1)
        else:
            signs.append(-1)
    return signs
