"""Real zeros of the constructed polynomials, with certified ordering.

Every zero set is found through one batch entry, ``zero_sets``.  It takes
the terms that a unit of work needs (one check's G, Q and P, or every term
of every point in a sweep run), solves equal terms once, and solves the
rest by path and degree.  A term takes one of three paths:

* Known rational zeros: those zeros rounded to floats, bounded by half an ulp.
* Families with a classical three-term recurrence: the zeros are the
  eigenvalues of the Jacobi matrix built from the recurrence coefficients
  (Golub-Welsch), found by numpy's ``eigvalsh`` (LAPACK ``?syevd``) on the
  dense matrix with its lower triangle filled, bit for bit those of the
  tridiagonal solver ``?stevd``.  Each polish step runs the recurrence for
  p and p'; the bound is |p(z)| / |p'(z)| at the zero.
* Everything else: the eigenvalues of the companion matrix as ``np.roots``
  forms it (numpy's ``eigvals``, LAPACK ``?geev``, which balances it),
  polished by Horner's scheme.  The bound is
  (|p(z)| + eps (2 mu - |p(z)|)) / |p'(z)|, where mu is Higham's running
  error bound for the final Horner pass (mu <- mu |z| + |acc|).

All matrices of one order go to LAPACK in one stacked call, at most
``_STACK_ENTRIES`` matrix entries per call.  Each zero then takes at most
three Newton steps.  A degree group of at least ``_VECTOR_ZEROS`` zeros is
polished by one NumPy loop over all of them, which does the scalar loop's
float operations in the same order with the same stop rules per zero; a
smaller group runs the scalar loop, which is faster there, and so do the
zeros still stepping once fewer than ``_VECTOR_ZEROS`` of a group are.  Both
give the same bits, so a zero set does not depend on what it was solved
with.

A zero set's bound is the largest of its zeros' bounds, or inf when one of
them is not finite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .families import (
    FamilySpec,
    InvalidParameterError,
    ORTHOGONAL_KINDS,
    monic_by_recurrence,
    param_key,
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

#: matrix entries per stacked LAPACK call (128 KiB of doubles); a group of
#: larger total is split between whole matrices
_STACK_ENTRIES = 1 << 14

#: the fewest zeros in one degree group that the NumPy polish takes; below
#: it the per-call cost of NumPy outweighs the scalar loop (the crossover
#: measured in BENCH_20.json)
_VECTOR_ZEROS = 64

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
        """The JSON form; a bound that is not finite is null (JSON has no inf)."""
        bound = self.bound if math.isfinite(self.bound) else None
        return {"zeros": list(self.zeros), "bound": bound, "method": self.method}


class Term(NamedTuple):
    """What one zero set is found from.

    Exact ``roots`` (nums, den), the zeros nums[i] / den, come first; else a
    ``spec`` of an orthogonal kind takes the tridiagonal path; else ``poly``,
    or the member built from ``spec``, takes the companion path.
    """

    spec: FamilySpec | None = None
    poly: Polynomial | None = None
    roots: tuple | None = None


def _polish_recurrence(
    cl: list[tuple[float, float]], x: float, steps: int = _STEPS, converged: bool = False
) -> tuple[float, float]:
    """Newton-polish the eigenvalue ``x`` of a Jacobi matrix; returns (zero, bound).

    ``cl`` holds the step pairs (c_k, l_k) of the monic recurrence
    p_{k+1} = (x - c_k) p_k - l_k p_{k-1}, which runs inline for p and p'.
    At most ``steps`` corrections are taken, and none once ``converged``
    (a zero resumed after that many steps of ``_polish_recurrence_rows``).
    The bound is |p| / |p'| at the zero, from the evaluation after the last
    step, or from the last evaluation when no step was taken.
    """
    isfinite = math.isfinite
    for steps_left in range(steps, -1, -1):
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


def _polish_horner(desc: tuple[float, ...], x: float, steps: int = _STEPS) -> tuple[float, float]:
    """Newton-polish the companion eigenvalue ``x``; returns (zero, bound).

    ``desc`` holds the coefficients from the leading one down; Horner's
    scheme runs inline for p and p'.  At most ``steps`` corrections are
    taken, then one more pass carries Higham's running error bound
    mu <- mu |x| + |p|, so |p(x) - p| <= eps (2 mu - |p|).  The bound is
    (|p| + eps (2 mu - |p|)) / |p'| at the zero: the value there is mostly
    rounding error, so the bound counts it.
    """
    isfinite = math.isfinite
    for _ in range(steps):
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


# The NumPy polishes below repeat the scalar ones on arrays: row r of ``x``
# holds the zeros of polynomial r, and ``rows[r]`` its coefficients.  Each
# elementwise operation is the scalar one, correctly rounded alike, on the
# same operands in the same order (a sum's two terms may swap: float
# addition commutes).  p and p' are stacked as pd[0] and pd[1], so one
# operation serves both where the scalar loop applies the same one to each.
# A zero that the scalar loop would leave keeps its x from then on, so
# evaluating it again gives its last p and p' again.  Once fewer than
# ``_VECTOR_ZEROS`` zeros are still stepping, the scalar loop finishes them
# from where they are.  Python's max(a, b) is b if b > a else a, NaN
# included, so it is written out.


def _recurrence_rows(steps: list, x: np.ndarray) -> np.ndarray:
    """p and p' at every zero, stacked, by the recurrence of ``_polish_recurrence``."""
    pd = np.zeros((2,) + x.shape)
    pd[0] = 1.0
    prev = np.zeros_like(pd)
    for c, l in steps:
        nxt = (x - c) * pd  # t p and t p'
        nxt[1] += pd[0]  # p + t p'
        nxt -= l * prev
        prev, pd = pd, nxt
    return pd


def _polish_recurrence_rows(rows: list, raws: list) -> tuple[list, list]:
    """``_polish_recurrence`` on every zero; ``rows[r]`` is row r's (c_k, l_k) pairs.

    Returns the zeros and their bounds, as lists of rows.
    """
    x = np.array(raws)
    cl = np.array(rows)
    steps = list(zip(cl[:, :, 0].T[:, :, None], cl[:, :, 1].T[:, :, None]))
    live = np.ones(x.shape, bool)
    converged = np.zeros(x.shape, bool)
    bounds = np.zeros(x.shape)
    with np.errstate(all="ignore"):
        for steps_left in range(_STEPS, -1, -1):
            if np.count_nonzero(live) < _VECTOR_ZEROS:
                break
            p, d = _recurrence_rows(steps, x)
            ad = np.abs(d)
            bounds = np.abs(p) / np.where(_TINY > ad, _TINY, ad)
            live &= ~(converged | (d == 0.0) | ~np.isfinite(p) | ~np.isfinite(d))
            if not steps_left:
                live[...] = False
                break
            step = p / d
            live &= np.isfinite(step)
            x = np.where(live, x - step, x)
            ax = np.abs(x)
            converged = np.abs(step) <= _STEP_TOL * np.where(ax > 1.0, ax, 1.0)
    zeros, bounds = x.tolist(), bounds.tolist()
    for r, j in zip(*np.nonzero(live)):
        zeros[r][j], bounds[r][j] = _polish_recurrence(
            rows[r], zeros[r][j], steps_left, bool(converged[r, j])
        )
    return zeros, bounds


def _horner_rows(coeffs: np.ndarray, x: np.ndarray, mu: np.ndarray | None = None) -> np.ndarray:
    """p and p' at every zero, stacked, by the Horner loop of ``_polish_horner``.

    Given ``mu`` (zeros like ``x``), it also runs mu <- mu |x| + |p| in place.
    """
    pd = np.zeros((2,) + x.shape)
    ax = None if mu is None else np.abs(x)
    for c in coeffs:
        nxt = pd * x  # p x and p' x
        nxt[0] += c
        nxt[1] += pd[0]  # p' x + p, with the p before this step
        pd = nxt
        if mu is not None:
            mu *= ax
            mu += np.abs(pd[0])
    return pd


def _polish_horner_rows(rows: list, raws: list) -> tuple[list, list]:
    """``_polish_horner`` on every zero; ``rows[r]`` is row r's ``desc``.

    Returns the zeros and their bounds, as lists of rows.
    """
    x = np.array(raws)
    coeffs = np.array(rows).T[:, :, None]
    live = np.ones(x.shape, bool)
    steps_left = _STEPS
    with np.errstate(all="ignore"):
        while steps_left and np.count_nonzero(live) >= _VECTOR_ZEROS:
            steps_left -= 1
            acc, dacc = _horner_rows(coeffs, x)
            live &= ~((dacc == 0.0) | ~np.isfinite(acc) | ~np.isfinite(dacc))
            step = acc / dacc
            live &= np.isfinite(step)
            x = np.where(live, x - step, x)
            ax = np.abs(x)
            live &= ~(np.abs(step) <= _STEP_TOL * np.where(ax > 1.0, ax, 1.0))
        mu = np.zeros_like(x)
        acc, dacc = _horner_rows(coeffs, x, mu)
        size = np.abs(acc)
        ad = np.abs(dacc)
        bounds = (size + _EPS * (2 * mu - size)) / np.where(_TINY > ad, _TINY, ad)
    zeros, bounds = x.tolist(), bounds.tolist()
    if steps_left:  # with no step left, the final pass above was the last one
        for r, j in zip(*np.nonzero(live)):
            zeros[r][j], bounds[r][j] = _polish_horner(rows[r], zeros[r][j], steps_left)
    return zeros, bounds


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


def _finish(found: dict, solved: list, vector, scalar, method: str) -> None:
    """Polish each (key, source, row, raw zeros) of ``solved``, one degree, and keep its ``ZeroSet``.

    ``vector`` polishes the whole group at once, or ``scalar`` zero by zero
    a group of fewer than ``_VECTOR_ZEROS`` zeros.
    """
    if not solved:
        return
    keys, sources, rows, raws = zip(*solved)
    if len(raws) * len(raws[0]) >= _VECTOR_ZEROS:
        zeros, bounds = vector(rows, raws)
    else:
        polished = [[scalar(row, x) for x in raw] for row, raw in zip(rows, raws)]
        zeros = [[z for z, _ in row] for row in polished]
        bounds = [[b for _, b in row] for row in polished]
    for key, source, row, row_bounds in zip(keys, sources, zeros, bounds):
        try:
            found[key] = ZeroSet(tuple(row), _set_bound(row_bounds), method, source)
        except RootComputationError as exc:
            found[key] = exc


def _solve_tridiagonal(n: int, group: list, found: dict) -> None:
    """Every (key, spec, cl) of ``group``, whose members all have degree n >= 1."""
    if n == 1:
        eig = [[cl[0][0]] for _, _, cl in group]
    else:
        diag = [[c for c, _ in cl] for _, _, cl in group]
        off = [[math.sqrt(l) for _, l in cl[1:]] for _, _, cl in group]
        eig = [
            raw if isinstance(raw, Exception) else raw.tolist()
            for raw in _stacked(np.linalg.eigvalsh, _jacobi_matrices(diag, off))
        ]
    solved = []
    for (key, spec, cl), raw in zip(group, eig):
        if isinstance(raw, Exception):
            err = RootComputationError(
                f"LAPACK ?syevd failed ({raw}) on the Jacobi matrix of {spec.kind} n={n}"
            )
            err.__cause__ = raw
            found[key] = err
        else:
            solved.append((key, spec, cl, raw))
    _finish(found, solved, _polish_recurrence_rows, _polish_recurrence, METHOD_JACOBI)


def _companion_eigenvalues(group: list, deg: int) -> list:
    """The eigenvalues ``np.roots`` finds for each (key, poly, desc) of ``group``, all of degree deg >= 2.

    As in ``np.roots``, a polynomial with t trailing zero coefficients gets
    the eigenvalues of its companion of order deg - t, then t zeros.  Each
    entry is a list of floats or complex numbers, or the exception its
    eigensolve raised.
    """
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
        eig = [[-desc[1] / desc[0]] for _, _, desc in group]
    else:
        eig = _companion_eigenvalues(group, deg)
    solved = []
    for (key, poly, desc), values in zip(group, eig):
        if isinstance(values, Exception):
            found[key] = values
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
            solved.append((key, poly, desc, sorted(raw)))
    _finish(found, solved, _polish_horner_rows, _polish_horner, METHOD_COMPANION)


def _key(term: Term) -> tuple:
    if term.roots is not None:
        nums, den = term.roots
        return ("exact", tuple(nums), den)
    spec = term.spec
    if spec is not None and spec.kind in ORTHOGONAL_KINDS:
        return ("tridiagonal", param_key(spec), spec.n)
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
    for term in terms:
        key = _key(term)
        keys.append(key)
        if key in found:
            continue
        found[key] = None
        try:
            if key[0] == "exact":
                found[key] = zeros_exact(*term.roots)
            elif key[0] == "tridiagonal":
                spec = term.spec
                steps = recurrence_steps(spec)
                for k, (_, _, u, v) in enumerate(steps[1:], start=1):
                    # a step's denominator is positive, so its numerator carries the sign
                    if u <= 0:
                        raise InvalidParameterError(
                            f"off-diagonal recurrence term {k + 1} is not positive "
                            f"({Fraction(u, v)}); parameters outside the orthogonality region"
                        )
                if spec.n == 0:
                    found[key] = ZeroSet((), 0.0, METHOD_JACOBI, spec)
                else:
                    # int / int rounds correctly: each double is bit for bit float(Fraction(a, b))
                    cl = [(a / b, u / v) for a, b, u, v in steps]
                    tridiagonal[spec.n].append((key, spec, cl))
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


def zeros_exact(nums, den: int) -> ZeroSet:
    """The zero set of a polynomial whose zeros are the exact rationals nums[i] / den.

    Each zero is ``nums[i] / den``, which is correctly rounded, so the exact
    zero is within half an ulp of it; the largest such half ulp is the bound.
    """
    zeros = tuple(sorted(x / den for x in nums))
    bound = max((math.ulp(z) / 2 for z in zeros), default=0.0)
    return ZeroSet(zeros, bound, METHOD_EXACT, (nums, den))
