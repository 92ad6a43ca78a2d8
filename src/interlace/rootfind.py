"""Real zeros of the constructed polynomials, for the displays.

No check reads a zero set: ``zeros`` and ``table2`` print them, each
through the one entry ``zero_set(spec)``, which solves one family member's
set alone by the path its kind takes:

* Families with a classical three-term recurrence: the zeros are the
  eigenvalues of the Jacobi matrix J built from the recurrence coefficients
  (Golub-Welsch), found by numpy's ``eigvalsh`` (LAPACK ``?syevd``) on the
  dense matrix with its lower triangle filled, bit for bit those of the
  tridiagonal solver ``?stevd``.  The zeros are those eigenvalues as LAPACK
  returns them, with no polish.  The bound is n eps ||J||_inf, the largest
  absolute row sum of the float matrix: by Weyl's inequality a backward
  stable eigensolver is off by at most p(n) eps ||J||_2 <= p(n) eps
  ||J||_inf, and n stands in for LAPACK's modest p(n).
* The reduced Narayana polynomial R_n and the raw one, x R_n: the
  eigenvalues t of the Jacobi matrix of P^(1,1)_(n-1), found as above, each
  mapped to x = (t - 1) / (t + 1); R_n is (1 - x)^(n-1) P^(1,1)_(n-1)(t) up
  to a positive factor (``families.chain_reading``).  The bound is the image
  of each bracket [t - b, t + b] (``_mapped``).
* Everything else: the eigenvalues of the companion matrix as ``np.roots``
  forms it (numpy's ``eigvals``, LAPACK ``?geev``, which balances it),
  each then taking at most three Newton steps by Horner's scheme, on its
  own.  The bound is (|p(z)| + eps (2 mu - |p(z)|)) / |p'(z)|, where mu is
  Higham's running error bound for the final Horner pass
  (mu <- mu |z| + |acc|); a companion set's bound is the largest of its
  zeros' bounds, or inf when one of them is not finite.

``zeros_orthogonal(spec)`` and ``zeros_general(p)`` call the first and the
last path's solver directly, the latter on any polynomial.  numpy is
imported by the kernels that call LAPACK, when they run, and not by this
module, so a process that solves no zero set never loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .families import (
    FamilySpec,
    InvalidParameterError,
    ORTHOGONAL_KINDS,
    monic_by_recurrence,
    narayana_jacobi,
    orthogonal_steps,
    recurrence_steps,
)

# recurrence_coeffs is not called here, but the benchmark's span tracer
# (perfbench/tracer.py) wraps it under this module's name.
from .families import recurrence_coeffs  # noqa: F401
from .poly import Polynomial

if TYPE_CHECKING:
    import numpy as np

#: companion eigenvalues with |Im| <= REALITY_THRESHOLD * max(1, |Re|) count as real.
REALITY_THRESHOLD = 1e-8

#: double-precision constants for the bounds and the Newton stop test, the
#: bits of numpy's ``finfo(float).eps`` and ``.tiny``
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

#: Newton corrections per companion zero, and the step size below which they stop
_STEPS = 3
_STEP_TOL = 4 * _EPS

METHOD_JACOBI = "JacobiMatrix"
METHOD_COMPANION = "Companion"
METHOD_MAPPED = "MappedJacobiMatrix"

#: the Narayana kinds whose zeros are mapped from those of P^(1,1) (module docstring)
MAPPED_KINDS = ("narayana", "narayana-reduced")


class RootComputationError(RuntimeError):
    """The zero computation failed an invariant (reality, count, ordering)."""


@dataclass(frozen=True)
class ZeroSet:
    """Strictly increasing real zeros plus an accuracy bound.

    ``bound`` is n eps ||J||_inf on the Jacobi-matrix path and the largest
    Horner residual bound on the companion path (module docstring); inf
    when some zero has no finite bound.
    """

    zeros: tuple[float, ...]
    bound: float
    method: str

    def __post_init__(self):
        for a, b in zip(self.zeros, self.zeros[1:]):
            if not (a < b):
                raise RootComputationError(
                    f"zeros not strictly increasing: {a} then {b}"
                )


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


def _jacobi_matrix(diag: list, off: list) -> np.ndarray:
    """The dense symmetric tridiagonal matrix (diag, off), lower triangle filled.

    numpy's ``eigvalsh`` runs LAPACK ``?syevd`` on it, reading its lower
    triangle.  ``?syevd`` reduces it by ``?sytrd``, whose reflectors are all
    the identity (tau = 0) on a tridiagonal input, then hands the same
    diagonal and subdiagonal to ``?sterf`` after the same scaling test as
    ``?stevd``: the eigenvalues are bit for bit those of ``?stevd``.  The
    one exception seen is a -0.0 on the diagonal, which the tridiagonal path
    never builds.
    """
    import numpy as np

    n = len(diag)
    matrix = np.zeros((n, n))
    flat = matrix.reshape(n * n)
    flat[:: n + 1] = diag
    flat[n :: n + 1] = off
    return matrix


def _set_bound(bounds: list[float]) -> float:
    """The largest per-zero bound, or inf when some zero has no finite bound.

    ``max`` alone would drop a NaN bound that is not first.
    """
    if all(map(math.isfinite, bounds)):
        return max(bounds)
    return math.inf


def _solve_tridiagonal(spec: FamilySpec) -> ZeroSet:
    """The zeros of an orthogonal family's member: the ascending eigenvalues
    ``eigvalsh`` returns for its Jacobi matrix, with the bound n eps ||J||_inf
    (module docstring)."""
    steps = orthogonal_steps(recurrence_steps(spec))
    n = spec.n
    if n == 0:
        return ZeroSet((), 0.0, METHOD_JACOBI)
    import numpy as np

    # int / int rounds correctly: each double is bit for bit float(Fraction(a, b))
    diag = [a / b for a, b, _, _ in steps]
    off = [math.sqrt(u / v) for _, _, u, v in steps[1:]]
    try:
        raw = np.linalg.eigvalsh(_jacobi_matrix(diag, off))
    except np.linalg.LinAlgError as exc:
        raise RootComputationError(
            f"LAPACK ?syevd failed ({exc}) on the Jacobi matrix of {spec.kind} n={n}"
        ) from exc
    # row i of J is (off[i-1], diag[i], off[i]), off entries being nonnegative
    norm = max(abs(d) + lo + hi for d, lo, hi in zip(diag, [0.0, *off], [*off, 0.0]))
    return ZeroSet(tuple(raw.tolist()), n * _EPS * norm, METHOD_JACOBI)


def _solve_companion(p: Polynomial) -> ZeroSet:
    """The zeros of ``p``: the eigenvalues ``np.roots`` finds, each real within
    ``REALITY_THRESHOLD`` and then polished on its own (``_polish_horner``)."""
    coeffs = p.float_coeffs()
    deg = len(coeffs) - 1
    if deg < 0:
        raise RootComputationError("zero polynomial has no well-defined zero set")
    if deg == 0:
        return ZeroSet((), 0.0, METHOD_COMPANION)
    desc = coeffs[::-1]
    if deg == 1:
        # 0.0 - y, not -y: a zero at the origin is +0.0, as np.roots gives it
        values = [0.0 - desc[1] / desc[0]]
    else:
        import numpy as np

        try:
            values = np.roots(desc).tolist()
        except np.linalg.LinAlgError as exc:
            raise RootComputationError(
                f"LAPACK ?geev failed ({exc}) on the companion matrix of a degree-{deg} polynomial"
            ) from exc
    raw = []
    for z in values:
        if abs(z.imag) > REALITY_THRESHOLD * max(1.0, abs(z.real)):
            raise RootComputationError(
                f"companion eigenvalue {z} is not real within threshold "
                f"{REALITY_THRESHOLD}; expected an all-real zero set"
            )
        raw.append(z.real)
    zeros, bounds = zip(*[_polish_horner(desc, x) for x in sorted(raw)])
    return ZeroSet(zeros, _set_bound(bounds), METHOD_COMPANION)


def _mapped(zs: ZeroSet, spec: FamilySpec) -> ZeroSet:
    """The zeros of R_n, or of x R_n, from the zero set ``zs`` of P^(1,1)_(n-1).

    Each zero t maps to x = (t - 1) / (t + 1).  The map increases on t > -1,
    so the bracket [t - b, t + b], b being ``zs``'s bound, maps to the bracket
    between its ends' images while t - b > -1.  The bound is the largest
    distance from a mapped zero to an end of its bracket, or inf when a
    bracket reaches -1.  Every zero of R_n is negative, so x R_n's zero 0 is
    the largest.
    """
    b = zs.bound
    zeros, bound = [], 0.0
    for t in zs.zeros:
        x = (t - 1.0) / (t + 1.0)
        if t - b > -1.0:
            low, high = (t - b - 1.0) / (t - b + 1.0), (t + b - 1.0) / (t + b + 1.0)
            bound = max(bound, x - low, high - x)
        else:
            bound = math.inf
        zeros.append(x)
    if spec.kind == "narayana":
        zeros.append(0.0)
    return ZeroSet(tuple(zeros), bound, METHOD_MAPPED)


def zero_set(spec: FamilySpec) -> ZeroSet:
    """The zero set of the member ``spec``, by the path its kind takes (module docstring)."""
    if spec.kind in MAPPED_KINDS:
        return _mapped(_solve_tridiagonal(narayana_jacobi(spec.n)), spec)
    if spec.kind in ORTHOGONAL_KINDS:
        return _solve_tridiagonal(spec)
    return _solve_companion(monic_by_recurrence(spec))


def zeros_orthogonal(spec: FamilySpec) -> ZeroSet:
    """All n zeros of the recurrence family member, via its Jacobi matrix."""
    if spec.kind not in ORTHOGONAL_KINDS:
        raise InvalidParameterError(
            f"zeros_orthogonal needs a recurrence family, not {spec.kind}"
        )
    return _solve_tridiagonal(spec)


def zeros_general(p: Polynomial) -> ZeroSet:
    """All real zeros of ``p`` via a balanced companion eigensolve.

    The families fed through this path are real rooted, so an eigenvalue with
    imaginary part above the reality threshold is an error, not data to drop.
    """
    return _solve_companion(p)
