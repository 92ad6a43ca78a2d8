"""Reference float kernels: the zero paths as written before they were fused.

``rootfind`` gets the Jacobi-matrix eigenvalues from numpy's ``eigvalsh``
and polishes each companion zero in one inlined loop.  The routes it
replaced are kept here, so tests can assert that the fused kernels give the
same zeros bit for bit:

* ``zeros_orthogonal``: scipy's ``eigh_tridiagonal`` (LAPACK ``?stevd``) on
  ``float(Fraction)`` entries, unpolished, with the bound n eps ||J||_inf
  from ``inf_norm``, the largest absolute row sum of the dense matrix;
* ``zeros_general``: ``np.roots`` on ``float_coeffs()``, then
  ``newton_polish`` with ``horner_pair`` (the bound differs: see
  ``companion_bound``).

A companion set's bound is ``set_bound`` of its per-zero bounds: the
largest, or inf when some zero has no finite bound.  ``sign_at_zeros`` is
the float sign test with an a-priori Horner error bound that the program
used before its polynomials became exact only.  scipy is needed by the
tests only.

A term is a ``FamilySpec`` or a ``Polynomial``; ``solve`` sends a spec
through ``rootfind.zero_set`` and a polynomial through
``rootfind.zeros_general``.  ``solve_alone`` is that zero path written out
from these kernels: the same dispatch (tridiagonal, companion), one LAPACK
call per set on the matrix built the reference way, the scalar polish
above, and the same exceptions with the same messages, which ``solve`` must
give bit for bit.

The interlacing verdicts as they were before their single-pass form are kept
too: ``alternates`` and ``interlaces_down`` build one tagged (value, set,
index) chain and scan it, and ``locate_point`` tests e against every zero and
then walks the slots.

``FloatOrders`` is the float order source the shape checkers read before
every order was decided exactly: the float zero sets of G, Q and P, held to
``DEFAULT_FLOOR``, with an order the floor leaves undecided reported as such.
``float_report`` runs a relation's shape checker on it, so the tests compare
the exact sources (``relations._DrawnOrders``, ``relations._ChainOrders``)
with it on the same relations; ``relation_terms`` names the zero sets it reads.
``refuse_zero_sets`` makes both of ``rootfind``'s solvers raise, so every
route to a zero set does, for the tests that show a command solves none.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from interlace.families import (
    ORTHOGONAL_KINDS,
    FamilySpec,
    InvalidParameterError,
    monic_by_recurrence,
    recurrence_coeffs,
)
from interlace import interlacing, rootfind
from interlace.interlacing import (
    ADDED_OK_KINDS,
    ALTERNATE,
    DEFAULT_FLOOR,
    FAIL,
    INCONCLUSIVE,
    INTERLACE_DOWN,
    Verdict,
)
from interlace.relations import SHAPE_CHECKERS
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


def jacobi_matrix(spec):
    """The dense float Jacobi matrix of a recurrence family member of degree n >= 1."""
    rc = recurrence_coeffs(spec)
    off = [math.sqrt(float(l)) for l in rc.lam[1:]]
    return np.diag([float(c) for c in rc.c]) + np.diag(off, -1) + np.diag(off, 1)


def inf_norm(matrix):
    """The largest absolute row sum, each row summed from its first column on."""
    norm = 0.0
    for row in matrix.tolist():
        total = 0.0
        for x in row:
            total += abs(x)
        norm = max(norm, total)
    return norm


def zeros_orthogonal(spec):
    """(zeros, bound) of a recurrence family member by the reference route."""
    if spec.n == 0:
        return (), 0.0
    matrix = jacobi_matrix(spec)
    raw = eigh_tridiagonal(np.diag(matrix), np.diag(matrix, -1), eigvals_only=True)
    return tuple(raw.tolist()), spec.n * EPS * inf_norm(matrix)


def zeros_general(p, bound_fn=companion_bound):
    """(zeros, bound) of ``p`` by the reference companion route."""
    coeffs = p.float_coeffs()
    deg = len(coeffs) - 1
    if deg < 1:
        return (), 0.0
    if deg == 1:
        raw = [0.0 - coeffs[0] / coeffs[1]]  # not -y: a zero at the origin is +0.0
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
        return ZeroSet((), 0.0, "JacobiMatrix")
    matrix = jacobi_matrix(spec)
    try:
        zeros = tuple(np.linalg.eigvalsh(matrix).tolist())
    except np.linalg.LinAlgError as exc:
        raise RootComputationError(
            f"LAPACK ?syevd failed ({exc}) on the Jacobi matrix of {spec.kind} n={n}"
        ) from exc
    return ZeroSet(zeros, n * EPS * inf_norm(matrix), "JacobiMatrix")


def _solve_companion_alone(p):
    coeffs = p.float_coeffs()
    deg = len(coeffs) - 1
    if deg < 0:
        raise RootComputationError("zero polynomial has no well-defined zero set")
    if deg == 0:
        return ZeroSet((), 0.0, "Companion")
    if deg == 1:
        raw = [0.0 - coeffs[0] / coeffs[1]]  # not -y: a zero at the origin is +0.0
    else:
        raw = []
        try:
            eig = np.roots(coeffs[::-1]).tolist()
        except np.linalg.LinAlgError as exc:
            raise RootComputationError(
                f"LAPACK ?geev failed ({exc}) on the companion matrix of a degree-{deg} polynomial"
            ) from exc
        for z in eig:
            if abs(z.imag) > REALITY_THRESHOLD * max(1.0, abs(z.real)):
                raise RootComputationError(
                    f"companion eigenvalue {z} is not real within threshold "
                    f"{REALITY_THRESHOLD}; expected an all-real zero set"
                )
            raw.append(z.real)
    zeros = tuple(newton_polish(x, lambda x: horner_pair(coeffs, x))[0] for x in sorted(raw))
    return ZeroSet(zeros, set_bound([companion_bound(coeffs, z) for z in zeros]), "Companion")


def solve(term):
    """The ``ZeroSet`` of a spec by ``rootfind.zero_set``, or of a polynomial
    by ``rootfind.zeros_general``."""
    return rootfind.zero_set(term) if isinstance(term, FamilySpec) else rootfind.zeros_general(term)


def solve_alone(term):
    """The ``ZeroSet`` of one spec or polynomial solved by itself, or the
    exception that raised."""
    try:
        if not isinstance(term, FamilySpec):
            return _solve_companion_alone(term)
        if term.kind in ORTHOGONAL_KINDS:
            return _solve_orthogonal_alone(term)
        return _solve_companion_alone(monic_by_recurrence(term))
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



# -- the float order source ----------------------------------------------------


def relation_terms(rel):
    """The terms of G, Q and P, in the order ``FloatOrders`` reads them: each
    one's spec when the relation has one, else its polynomial."""
    return tuple(rel.specs.get(name) or getattr(rel, name) for name in "GQP")


def min_cross_gap(za, zb):
    """Smallest |a - b| over a zero a of ``za`` and b of ``zb``; inf if one is empty.

    One merge of the two ascending sets: the smaller head is taken next and
    its gap to the other head is a candidate.  Every pair that is adjacent in
    the merged order is among the candidates, and float subtraction is
    monotone, so the result is the float the all-pairs minimum gives.
    """
    a, b = za.zeros, zb.zeros
    best = float("inf")
    i = j = 0
    while i < len(a) and j < len(b):
        gap = b[j] - a[i]  # exact in sign, so gap >= 0 means a[i] <= b[j]
        if gap >= 0:
            i += 1
        else:
            gap, j = -gap, j + 1
        if gap < best:
            best = gap
    return best


def float_order(lower, upper):
    """Strict interlacing, ``lower``'s zero first; ``alternates`` or ``interlaces_down`` by size."""
    same = len(lower.zeros) == len(upper.zeros)
    verdict = interlacing.alternates if same else interlacing.interlaces_down
    return verdict(lower, upper)


def holds(verdict):
    """Whether a float order holds; None when the floor leaves it undecided."""
    return None if verdict.kind == INCONCLUSIVE else verdict.kind != FAIL


class FloatOrders:
    """The orders ``relations.check_relation`` names, on the float zero sets
    ``found`` of G, Q and P, each held to ``DEFAULT_FLOOR``; one it leaves
    undecided is None (a side of 0, an Inconclusive premise, E "unknown")."""

    def __init__(self, rel, found):
        zg, zq, zp = found
        self.zeros = {"G": zg, "Q": zq, "P": zp}
        self.e = e = float(rel.E)
        self.position, self.slot = interlacing.locate_point(e, zg)
        self.no_common_zeros_g_p = min_cross_gap(zg, zp) > DEFAULT_FLOOR
        self.e_on_q = any(abs(e - q) <= DEFAULT_FLOOR for q in zq.zeros)

    def premise(self, lower, upper):
        return float_order(self.zeros[lower], self.zeros[upper])

    def extreme(self, top):
        zg = self.zeros["G"].zeros
        above = sum(g > self.e for g in zg)
        side = self.e - (zg[-1] if top else zg[0])
        side = 0 if abs(side) <= DEFAULT_FLOOR else 1 if side > 0 else -1
        return f"{above} of {len(zg)} zeros of G lie above E", side

    def order(self, subject, first):
        zg, zp = self.zeros["G"], self.zeros["P"]
        if subject == "EP":
            # added_point_interlace's first gap under the floor, and its flip to
            # G's zero first, decide SKIPPED against FAIL near the floor.
            verdict = interlacing.added_point_interlace(zp, self.e, zg)
            if verdict.kind == INCONCLUSIVE:
                return None
            want = "G_below_P" if first == "G" else "P_below_G"
            return verdict.kind in ADDED_OK_KINDS and verdict.orientation == want
        return holds(float_order(*((zg, zp) if first == "G" else (zp, zg))))


def float_report(rel, found=None):
    """The shape checker's report on ``rel`` from ``FloatOrders``.

    ``found`` holds the zero sets of G, Q and P; by default each term of
    ``relation_terms(rel)`` is solved by ``solve``, G's first, so a failed
    solve raises G's error before Q's before P's.
    """
    if found is None:
        found = [solve(term) for term in relation_terms(rel)]
    return SHAPE_CHECKERS[rel.shape](rel, FloatOrders(rel, found))


def refuse_zero_sets(monkeypatch):
    """Make ``rootfind``'s two solvers raise: every zero set, by ``zero_set``,
    ``zeros_orthogonal`` or ``zeros_general``, is solved by one of them."""

    def refused(term):
        raise AssertionError(f"a zero set was asked for: {term}")

    for name in ("_solve_tridiagonal", "_solve_companion"):
        monkeypatch.setattr(rootfind, name, refused)
