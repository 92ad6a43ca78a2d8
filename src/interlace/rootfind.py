"""Real zeros of the constructed polynomials, with certified ordering.

Two numerical paths, each one eigensolve and one inlined Newton loop per
zero, at most three steps:

* Families with a classical three-term recurrence: the zeros are the
  eigenvalues of the Jacobi matrix built from the recurrence coefficients
  (Golub-Welsch), found by numpy's ``eigvalsh`` (LAPACK ``?syevd``) on the
  dense matrix with its lower triangle filled, bit for bit those of the
  tridiagonal solver ``?stevd``.  Each polish step runs the recurrence for
  p and p'; the bound is |p(z)| / |p'(z)| at the zero.
* Everything else: the eigenvalues of the balanced companion matrix
  (``np.roots``), polished by Horner's scheme.  The bound is
  (|p(z)| + eps (2 mu - |p(z)|)) / |p'(z)|, where mu is Higham's running
  error bound for the final Horner pass (mu <- mu |z| + |acc|).

A zero set's bound is the largest of its zeros' bounds, or inf when one of
them is not finite.  A polynomial built from known rational zeros skips both
paths: its zero set is those zeros rounded to floats, bounded by half an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import (
    FamilySpec,
    InvalidParameterError,
    ORTHOGONAL_KINDS,
    recurrence_steps,
)

# recurrence_coeffs is not called here, but the benchmark's span tracer
# (perfbench/tracer.py) wraps it under this module's name.
from .families import recurrence_coeffs  # noqa: F401
from .poly import Polynomial

#: companion eigenvalues with |Im| <= REALITY_THRESHOLD * max(1, |Re|) count as real.
REALITY_THRESHOLD = 1e-8

#: double-precision constants for the Newton stop test and residual bounds
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Newton corrections per zero, and the step size below which they stop
_STEPS = 3
_STEP_TOL = 4 * _EPS

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


def _polish_recurrence(cl: tuple[tuple[float, float], ...], x: float) -> tuple[float, float]:
    """Newton-polish the eigenvalue ``x`` of a Jacobi matrix; returns (zero, bound).

    ``cl`` holds the step pairs (c_k, l_k) of the monic recurrence
    p_{k+1} = (x - c_k) p_k - l_k p_{k-1}, which runs inline for p and p'.
    At most ``_STEPS`` corrections are taken.  The bound is |p| / |p'| at the
    zero, from the evaluation after the last step, or from the last
    evaluation when no step was taken.
    """
    isfinite = math.isfinite
    converged = False
    for steps_left in range(_STEPS, -1, -1):
        p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
        for c, l in cl:
            t = x - c
            d_prev, d = d, p + t * d - l * d_prev
            p_prev, p = p, t * p - l * p_prev
        if converged or not steps_left or d == 0.0 or not isfinite(p) or not isfinite(d):
            break
        step = p / d
        if not isfinite(step):
            break
        x -= step
        converged = abs(step) <= _STEP_TOL * max(1.0, abs(x))
    return x, abs(p) / max(abs(d), _TINY)


def _polish_horner(desc: tuple[float, ...], x: float) -> tuple[float, float]:
    """Newton-polish the companion eigenvalue ``x``; returns (zero, bound).

    ``desc`` holds the coefficients from the leading one down; Horner's
    scheme runs inline for p and p'.  At most ``_STEPS`` corrections are
    taken, then one more pass carries Higham's running error bound
    mu <- mu |x| + |p|, so |p(x) - p| <= eps (2 mu - |p|).  The bound is
    (|p| + eps (2 mu - |p|)) / |p'| at the zero: the value there is mostly
    rounding error, so the bound counts it.
    """
    isfinite = math.isfinite
    for _ in range(_STEPS):
        acc = dacc = 0.0
        for c in desc:
            dacc = dacc * x + acc
            acc = acc * x + c
        if dacc == 0.0 or not isfinite(acc) or not isfinite(dacc):
            break
        step = acc / dacc
        if not isfinite(step):
            break
        x -= step
        if abs(step) <= _STEP_TOL * max(1.0, abs(x)):
            break
    acc = dacc = mu = 0.0
    ax = abs(x)
    for c in desc:
        dacc = dacc * x + acc
        acc = acc * x + c
        mu = mu * ax + abs(acc)
    size = abs(acc)
    return x, (size + _EPS * (2 * mu - size)) / max(abs(dacc), _TINY)


def _tridiagonal_eigenvalues(diag: list[float], off: list[float]) -> list[float]:
    """Ascending eigenvalues of the symmetric tridiagonal matrix (diag, off).

    numpy's ``eigvalsh`` runs LAPACK ``?syevd`` on the dense matrix, reading
    its lower triangle.  ``?syevd`` reduces it by ``?sytrd``, whose
    reflectors are all the identity (tau = 0) on a tridiagonal input, then
    hands the same diagonal and subdiagonal to ``?sterf`` after the same
    scaling test as ``?stevd``: the eigenvalues are bit for bit those of
    ``?stevd``.  The one exception seen is a -0.0 on the diagonal, which
    ``zeros_orthogonal`` never builds.  Raises ``np.linalg.LinAlgError``
    when ``?sterf`` fails.
    """
    n = len(diag)
    matrix = np.zeros((n, n))
    matrix.flat[:: n + 1] = diag
    matrix.flat[n :: n + 1] = off
    return np.linalg.eigvalsh(matrix).tolist()


def _set_bound(bounds: list[float]) -> float:
    """The largest per-zero bound, or inf when some zero has no finite bound.

    ``max`` alone would drop a NaN bound that is not first.
    """
    if all(map(math.isfinite, bounds)):
        return max(bounds)
    return math.inf


def zeros_orthogonal(spec: FamilySpec) -> ZeroSet:
    """All n zeros of the recurrence family member, via its Jacobi matrix."""
    if spec.kind not in ORTHOGONAL_KINDS:
        raise InvalidParameterError(
            f"zeros_orthogonal needs a recurrence family, not {spec.kind}"
        )
    steps = recurrence_steps(spec)
    for k, (_, _, u, v) in enumerate(steps[1:], start=1):
        # a step's denominator is positive, so its numerator carries the sign
        if u <= 0:
            raise InvalidParameterError(
                f"off-diagonal recurrence term {k + 1} is not positive ({Fraction(u, v)}); "
                f"parameters outside the orthogonality region"
            )
    n = spec.n
    if n == 0:
        return ZeroSet((), 0.0, METHOD_JACOBI, spec)
    # int / int rounds correctly: each double is bit for bit float(Fraction(a, b))
    cl = tuple((a / b, u / v) for a, b, u, v in steps)
    if n == 1:
        raw = [cl[0][0]]
    else:
        try:
            raw = _tridiagonal_eigenvalues(
                [c for c, _ in cl], [math.sqrt(l) for _, l in cl[1:]]
            )
        except np.linalg.LinAlgError as exc:
            raise RootComputationError(
                f"LAPACK ?syevd failed ({exc}) on the Jacobi matrix of "
                f"{spec.kind} n={n}"
            ) from exc
    polished = [_polish_recurrence(cl, x) for x in raw]
    zeros = tuple(z for z, _ in polished)
    return ZeroSet(zeros, _set_bound([b for _, b in polished]), METHOD_JACOBI, spec)


def zeros_general(p: Polynomial) -> ZeroSet:
    """All real zeros of ``p`` via a balanced companion eigensolve.

    The families fed through this path are real rooted, so an eigenvalue with
    imaginary part above the reality threshold is an error, not data to drop.
    """
    coeffs = p.float_coeffs()
    deg = len(coeffs) - 1
    if deg < 0:
        raise RootComputationError("zero polynomial has no well-defined zero set")
    if deg == 0:
        return ZeroSet((), 0.0, METHOD_COMPANION, p)
    desc = coeffs[::-1]
    if deg == 1:
        raw = [-coeffs[0] / coeffs[1]]
    else:
        raw = []
        for z in np.roots(desc).tolist():
            if abs(z.imag) <= REALITY_THRESHOLD * max(1.0, abs(z.real)):
                raw.append(z.real)
            else:
                raise RootComputationError(
                    f"companion eigenvalue {z} is not real within threshold "
                    f"{REALITY_THRESHOLD}; expected an all-real zero set"
                )
    if len(raw) != deg:
        raise RootComputationError(
            f"found {len(raw)} real zeros for a degree {deg} polynomial"
        )
    polished = [_polish_horner(desc, x) for x in sorted(raw)]
    zeros = tuple(z for z, _ in polished)
    return ZeroSet(zeros, _set_bound([b for _, b in polished]), METHOD_COMPANION, p)


def zeros_exact(nums, den: int) -> ZeroSet:
    """The zero set of a polynomial whose zeros are the exact rationals nums[i] / den.

    Each zero is ``nums[i] / den``, which is correctly rounded, so the exact
    zero is within half an ulp of it; the largest such half ulp is the bound.
    """
    zeros = tuple(sorted(x / den for x in nums))
    bound = max((math.ulp(z) / 2 for z in zeros), default=0.0)
    return ZeroSet(zeros, bound, METHOD_EXACT, (nums, den))
