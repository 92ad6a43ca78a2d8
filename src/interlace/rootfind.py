"""Real zeros of the constructed polynomials, with certified ordering.

Every zero set is found through one batch entry, ``zero_sets``.  It takes
the terms that a unit of work needs (one check's G, Q and P, or every term
of every point in a sweep run), solves equal terms once, and solves the
rest by path and degree.  A term takes one of three paths:

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

All matrices of one order go to LAPACK in one stacked call, at most
``_STACK_ENTRIES`` matrix entries per call.  A zero set does not depend on
which others it was solved with.

numpy is imported by the kernels that call LAPACK, when they run, and not
by this module: the named checks and the oracle solve no zero set, so a
process that runs only those never loads it.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

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

#: matrix entries per stacked LAPACK call (128 KiB of doubles); a group of
#: larger total is split between whole matrices
_STACK_ENTRIES = 1 << 14

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
        """The JSON form; a bound that is not finite is null (JSON has no inf)."""
        bound = self.bound if math.isfinite(self.bound) else None
        return {"zeros": list(self.zeros), "bound": bound, "method": self.method}


class Term(NamedTuple):
    """What one zero set is found from.

    A ``spec`` of an orthogonal kind takes the tridiagonal path; else
    ``poly``, or the member built from ``spec``, takes the companion path.
    """

    spec: FamilySpec | None = None
    poly: Polynomial | None = None


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


def _jacobi_matrices(diag: list, off: list) -> np.ndarray:
    """The dense symmetric tridiagonal matrices (diag, off), lower triangle filled.

    ``diag`` holds k rows of n entries and ``off`` k rows of n - 1; the
    result is (k, n, n).

    numpy's ``eigvalsh`` runs LAPACK ``?syevd`` on each, reading its lower
    triangle.  ``?syevd`` reduces it by ``?sytrd``, whose reflectors are all
    the identity (tau = 0) on a tridiagonal input, then hands the same
    diagonal and subdiagonal to ``?sterf`` after the same scaling test as
    ``?stevd``: the eigenvalues are bit for bit those of ``?stevd``.  The
    one exception seen is a -0.0 on the diagonal, which the tridiagonal path
    never builds.
    """
    import numpy as np

    count, n = len(diag), len(diag[0])
    matrices = np.zeros((count, n, n))
    flat = matrices.reshape(count, n * n)
    flat[:, :: n + 1] = diag
    flat[:, n :: n + 1] = off
    return matrices


def _set_bound(bounds: list[float]) -> float:
    """The largest per-zero bound, or inf when some zero has no finite bound.

    ``max`` alone would drop a NaN bound that is not first.
    """
    if all(map(math.isfinite, bounds)):
        return max(bounds)
    return math.inf


def _stacked(solve, blocks: np.ndarray) -> list:
    """``solve`` on each matrix of ``blocks``, in calls of at most ``_STACK_ENTRIES`` entries.

    Returns each matrix's result, or the ``np.linalg.LinAlgError`` it raised.
    A call that fails is repeated matrix by matrix, so a failure is charged
    to its own matrix alone.
    """
    import numpy as np

    count, order = len(blocks), blocks.shape[-1]
    per_call = max(1, _STACK_ENTRIES // (order * order))
    out = []
    for lo in range(0, count, per_call):
        chunk = blocks[lo : lo + per_call]
        try:
            out.extend(solve(chunk))
        except np.linalg.LinAlgError:
            for matrix in chunk:
                try:
                    out.append(solve(matrix))
                except np.linalg.LinAlgError as exc:
                    out.append(exc)
    return out


def _solve_tridiagonal(n: int, group: list, found: dict) -> None:
    """Every (key, spec, diag, off) of ``group``, whose members all have degree n >= 1.

    A set's zeros are the ascending eigenvalues ``eigvalsh`` returns, and
    its bound is n eps ||J||_inf (module docstring).
    """
    import numpy as np

    eig = _stacked(
        np.linalg.eigvalsh,
        _jacobi_matrices([diag for _, _, diag, _ in group], [off for _, _, _, off in group]),
    )
    for (key, spec, diag, off), raw in zip(group, eig):
        if isinstance(raw, Exception):
            err = RootComputationError(
                f"LAPACK ?syevd failed ({raw}) on the Jacobi matrix of {spec.kind} n={n}"
            )
            err.__cause__ = raw
            found[key] = err
            continue
        # row i of J is (off[i-1], diag[i], off[i]), off entries being nonnegative
        norm = max(abs(d) + lo + hi for d, lo, hi in zip(diag, [0.0, *off], [*off, 0.0]))
        try:
            found[key] = ZeroSet(tuple(raw.tolist()), n * _EPS * norm, METHOD_JACOBI, spec)
        except RootComputationError as exc:
            found[key] = exc


def _companion_eigenvalues(group: list, deg: int) -> list:
    """The eigenvalues ``np.roots`` finds for each (key, poly, desc) of ``group``, all of degree deg >= 2.

    As in ``np.roots``, a polynomial with t trailing zero coefficients gets
    the eigenvalues of its companion of order deg - t, then t zeros.  Each
    entry is a list of floats or complex numbers, or the exception its
    eigensolve raised.
    """
    import numpy as np

    by_order = defaultdict(list)
    for i, (_, _, desc) in enumerate(group):
        t = 0
        while desc[-1 - t] == 0.0:
            t += 1
        by_order[deg - t].append(i)
    out = [None] * len(group)
    for order, members in by_order.items():
        tail = [0.0] * (deg - order)
        if order == 0:
            for i in members:
                out[i] = tail
            continue
        desc = np.array([group[i][2][: order + 1] for i in members])
        matrices = np.zeros((len(members), order, order))
        matrices.reshape(len(members), order * order)[:, order :: order + 1] = 1.0
        matrices[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        eig = _stacked(np.linalg.eigvals, matrices)
        for i, values in zip(members, eig):
            out[i] = values if isinstance(values, Exception) else values.tolist() + tail
    return out


def _solve_companion(deg: int, group: list, found: dict) -> None:
    """Every (key, poly, desc) of ``group``, whose polynomials all have degree deg >= 1."""
    if deg == 1:
        # 0.0 - y, not -y: a zero at the origin is +0.0, as np.roots gives it
        eig = [[0.0 - desc[1] / desc[0]] for _, _, desc in group]
    else:
        eig = _companion_eigenvalues(group, deg)
    for (key, poly, desc), values in zip(group, eig):
        if isinstance(values, Exception):
            err = RootComputationError(
                f"LAPACK ?geev failed ({values}) on the companion matrix of a degree-{deg} polynomial"
            )
            err.__cause__ = values
            found[key] = err
            continue
        raw = []
        for z in values:
            if abs(z.imag) <= REALITY_THRESHOLD * max(1.0, abs(z.real)):
                raw.append(z.real)
            else:
                found[key] = RootComputationError(
                    f"companion eigenvalue {z} is not real within threshold "
                    f"{REALITY_THRESHOLD}; expected an all-real zero set"
                )
                break
        else:
            zeros, bounds = zip(*[_polish_horner(desc, x) for x in sorted(raw)])
            try:
                found[key] = ZeroSet(zeros, _set_bound(bounds), METHOD_COMPANION, poly)
            except RootComputationError as exc:
                found[key] = exc


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
    return ZeroSet(tuple(zeros), bound, METHOD_MAPPED, spec)


def _key(term: Term) -> tuple:
    spec = term.spec
    if spec is not None and spec.kind in ORTHOGONAL_KINDS:
        return ("tridiagonal", spec.param_key, spec.n)
    if spec is not None and spec.kind in MAPPED_KINDS:
        return ("mapped", spec.kind, spec.n)
    return ("companion", spec if term.poly is None else term.poly)


def zero_sets(terms) -> list:
    """The zero set of each ``Term``, or the exception its solve raised, in input order.

    Equal terms are solved once and share one result.  The rest are solved
    by path and degree, as the module docstring says.  A failure is kept as
    its term's result, the same exception that term raises when solved
    alone, and never stops another term; ``unwrap`` raises it.
    """
    found: dict = {}
    keys = []
    tridiagonal = defaultdict(list)
    companion = defaultdict(list)
    mapped = []
    for term in terms:
        key = _key(term)
        keys.append(key)
        if key in found:
            continue
        found[key] = None
        try:
            if key[0] == "mapped":
                mapped.append((key, term.spec))
            elif key[0] == "tridiagonal":
                spec = term.spec
                steps = orthogonal_steps(recurrence_steps(spec))
                if spec.n == 0:
                    found[key] = ZeroSet((), 0.0, METHOD_JACOBI, spec)
                else:
                    # int / int rounds correctly: each double is bit for bit float(Fraction(a, b))
                    diag = [a / b for a, b, _, _ in steps]
                    off = [math.sqrt(u / v) for _, _, u, v in steps[1:]]
                    tridiagonal[spec.n].append((key, spec, diag, off))
            else:
                p = term.poly if term.poly is not None else monic_by_recurrence(term.spec)
                coeffs = p.float_coeffs()
                deg = len(coeffs) - 1
                if deg < 0:
                    raise RootComputationError("zero polynomial has no well-defined zero set")
                if deg == 0:
                    found[key] = ZeroSet((), 0.0, METHOD_COMPANION, p)
                else:
                    companion[deg].append((key, p, coeffs[::-1]))
        except Exception as exc:  # kept as this term's result; unwrap raises it
            found[key] = exc
    for n, group in tridiagonal.items():
        _solve_tridiagonal(n, group, found)
    for deg, group in companion.items():
        _solve_companion(deg, group, found)
    if mapped:
        inner = zero_sets([Term(spec=narayana_jacobi(spec.n)) for _, spec in mapped])
        for (key, spec), result in zip(mapped, inner):
            try:
                found[key] = result if isinstance(result, Exception) else _mapped(result, spec)
            except RootComputationError as exc:
                found[key] = exc
    return [found[key] for key in keys]


def unwrap(result) -> ZeroSet:
    """The zero set ``zero_sets`` gave, or raise the exception it kept in its place."""
    if isinstance(result, Exception):
        raise result
    return result


def zero_set(term: Term) -> ZeroSet:
    """The zero set of one ``Term``; raises what its solve raised."""
    return unwrap(zero_sets([term])[0])


def zeros_orthogonal(spec: FamilySpec) -> ZeroSet:
    """All n zeros of the recurrence family member, via its Jacobi matrix."""
    if spec.kind not in ORTHOGONAL_KINDS:
        raise InvalidParameterError(
            f"zeros_orthogonal needs a recurrence family, not {spec.kind}"
        )
    return zero_set(Term(spec=spec))


def zeros_general(p: Polynomial) -> ZeroSet:
    """All real zeros of ``p`` via a balanced companion eigensolve.

    The families fed through this path are real rooted, so an eigenvalue with
    imaginary part above the reality threshold is an error, not data to drop.
    """
    return zero_set(Term(poly=p))
