"""Mixed recurrence relations A*P = B*G +- (x-E)*Q and their checkers.

A relation is stored with all polynomials exact (integer vectors over one
denominator) so the identity itself can be certified exactly (coefficientwise
zero residual).  The checkers then move to floats: they compute the zero
sets, test the stated hypotheses, and evaluate every conclusion clause of the
matching interlacing statement, producing a witness-carrying report.

Two relation shapes are supported, named by the degrees of G and Q
relative to deg P = n:

* ``pair_up``:  deg G = deg Q = n + 1, sign +
* ``down_one``: deg G = n, deg Q = n - 1, sign -

Seed-deterministic random generators build synthetic instances of both
shapes from scratch (interlaced rational zero draws), giving a constructive
property-test oracle for the checkers.  The points are drawn as integer
numerators over one denominator, every term is formed on integers over it,
and the drawn zeros of G and Q are kept, which the checkers round to floats
in place of solving for them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import families
from .families import (
    InvalidParameterError,
    exact_rational,
    monic_by_recurrence,
)
from .interlacing import (
    ADDED_OK_KINDS,
    ALTERNATE,
    DEFAULT_FLOOR,
    INCONCLUSIVE,
    INTERLACE_DOWN,
    Verdict,
    added_point_interlace,
    alternates,
    interlaces_down,
    locate_point,
)
from .poly import (
    Polynomial,
    _combination,
    _integer_form,
    monic_linear,
    products_cancel,
    root_product,
)
from .rootfind import Term, ZeroSet, unwrap, zero_sets

# zeros_orthogonal and zeros_general are not called here, but the benchmark's
# span tracer (perfbench/tracer.py) wraps them under this module's name.
from .rootfind import zeros_general, zeros_orthogonal  # noqa: F401

PAIR_UP = "pair_up"
DOWN_ONE = "down_one"

#: shape -> (sign, deg G - deg P, deg Q - deg P)
SHAPES = {PAIR_UP: (1, 1, 1), DOWN_ONE: (-1, 0, -1)}

PASS = "pass"
FAIL_CLAUSE = "fail"
SKIPPED = "skipped"

# Every row name a check can write, in the order its rows come.
#: the rows of every report, ahead of its clauses (``CheckReport.csv_rows``)
REPORT_ROWS = ("identity", "hypotheses", "premise")
PAIR_UP_CLAUSES = ("e_position", "added_point", "full_iff")
DOWN_ONE_CLAUSES = ("added_point", "full_when_e_above", "full_when_e_below")
#: narayana-3.4 at even n (``check_narayana_even_quotient``)
EVEN_QUOTIENT_CHECK = "narayana-3.4"
EVEN_QUOTIENT_CLAUSES = ("common_zero_at_minus_one", "quotient_interlace")
#: the one row of a sweep point that raised, in place of its report
BUILD_ROW = "build"


class IdentityError(RuntimeError):
    """A transcribed relation failed its exact identity check (fatal)."""


class DegenerateDrawError(RuntimeError):
    """The random generator exhausted its retries without a valid instance."""


@dataclass(frozen=True)
class MixedRelation:
    """One concrete relation A*P = B*G + sign*(x-E)*Q, all rational.

    A frozen value: ``dataclasses.replace`` gives a copy with other terms,
    which is certified afresh and carries no zeros.
    """

    rel_id: str
    shape: str
    sign: int
    A: Polynomial
    B: Polynomial
    E: Fraction
    P: Polynomial
    G: Polynomial
    Q: Polynomial
    specs: dict = field(default_factory=dict)
    support: tuple = (None, None)
    params: dict = field(default_factory=dict)
    #: exact identity verdict, reached once at construction
    certified: bool = field(init=False, repr=False, compare=False)
    #: term name ("G", "Q") -> (nums, den): its exact zeros nums[i] / den
    roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.P.degree
        _, dg, dq = SHAPES[self.shape]
        want = (n + dg, n + dq)
        got = (self.G.degree, self.Q.degree)
        if got != want:
            raise IdentityError(
                f"{self.rel_id}: degrees {got} do not match shape {self.shape} "
                f"with deg P = {n} (expected {want})"
            )
        object.__setattr__(self, "certified", verify_identity(self))

    @property
    def H(self) -> Polynomial:
        """The factor x - E."""
        return monic_linear(self.E)


def verify_identity(rel: MixedRelation) -> bool:
    """True iff A*P - B*G - sign*(x-E)*Q is exactly the zero polynomial."""
    return products_cancel(((1, rel.A, rel.P), (-1, rel.B, rel.G), (-rel.sign, rel.H, rel.Q)))


# ---------------------------------------------------------------------------
# The named relations, one table entry per transcribed display
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    """The relation behind one named check, as a function of n and its parameters.

    Every callable is called as ``f(n, **params)``, with the parameters that
    ``families.PARAM_NAMES`` lists for ``family`` as Fractions.  ``P``, ``G``
    and ``Q`` give the member specs, ``A`` and ``B`` coefficient lists, and
    ``check`` raises ``InvalidParameterError``, naming the check id, on
    parameters the relation excludes.  With ``min_n`` None the members' own check on the degree index
    applies.
    """

    shape: str
    family: str
    P: Callable
    G: Callable
    Q: Callable
    A: Callable
    B: Callable
    E: Callable
    #: float interval the members' weight lives on; None marks an open end
    support: Callable = lambda n, **_: (None, None)
    min_n: int | None = None
    check: Callable | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return families.PARAM_NAMES[self.family]


# Every scalar and shifted parameter below is formed from the parameters'
# integer numerators over their common denominator, one Fraction per stored
# value, as ``families._step_rule`` forms the recurrence steps; the comment
# beside each gives the display it transcribes.


def _shift(x: Fraction, k: int) -> Fraction:
    """The shifted parameter x + k."""
    return Fraction(x.numerator + k * x.denominator, x.denominator)


def _krawtchouk_check(n, p, N):
    if N.denominator != 1 or N.numerator < 1:
        raise InvalidParameterError(f"krawtchouk-3.1 needs integer N >= 1 (got N={N})")
    if n + 1 > N.numerator:
        raise InvalidParameterError(
            f"krawtchouk-3.1 needs n + 1 <= N so both parameter columns exist "
            f"(got n={n}, N={N})"
        )


def _krawtchouk_a(n, p, N):
    # p (1 - p) (n + 1) (N + 1 - n), with p = u/v
    u, v = p.numerator, p.denominator
    return [Fraction(u * (v - u) * (n + 1) * (N.numerator + 1 - n), v * v)]


def _krawtchouk_e(n, p, N):
    # N + 1 - p (n + 1)
    u, v = p.numerator, p.denominator
    return Fraction((N.numerator + 1) * v - u * (n + 1), v)


def _meixner_a(n, t, w):
    # w (n + 1) (n + t) / (1 - w)^2, with t = a/d and w = u/v
    a, d, u, v = t.numerator, t.denominator, w.numerator, w.denominator
    return [Fraction(u * v * (n + 1) * (n * d + a), d * (v - u) ** 2)]


def _meixner_e(n, t, w):
    # -t + w (n + 1) / (1 - w)
    a, d, u, v = t.numerator, t.denominator, w.numerator, w.denominator
    return Fraction(d * u * (n + 1) - a * (v - u), d * (v - u))


def _jacobi_beta_check(n, alpha, beta):
    if beta.numerator <= 0:
        raise InvalidParameterError(
            f"jacobi-3.5 needs beta > 0 so the lowered parameter stays valid "
            f"(got beta={beta})"
        )


def _jacobi_beta_a(n, alpha, beta):
    # Scalar normalizer for monic members; the added point E and the root
    # of A follow the usual display of this relation, whose own scalars
    # belong to a non-monic normalization and fail the exact residual here.
    # M = 2 (n + 1) (n + alpha + 1) / ((2n + alpha + beta + 1) (2n + alpha + beta + 2)),
    # A = [M (1 + 2 beta / (2n + alpha + beta + 3)), M];
    # alpha = a/d, beta = b/d and s = d (2n + alpha + beta)
    (a, b), d = _integer_form((alpha, beta))
    s = 2 * n * d + a + b
    m_num, m_den = 2 * d * (n + 1) * (n * d + a + d), (s + d) * (s + 2 * d)
    return [Fraction(m_num * (s + 3 * d + 2 * b), m_den * (s + 3 * d)), Fraction(m_num, m_den)]


def _jacobi_beta_e(n, alpha, beta):
    # -1 + 2 (n + 1) (n + alpha + 1) / ((2n + alpha + beta + 2) (2n + alpha + beta + 3))
    (a, b), d = _integer_form((alpha, beta))
    s = 2 * n * d + a + b
    den = (s + 2 * d) * (s + 3 * d)
    return Fraction(2 * d * (n + 1) * (n * d + a + d) - den, den)


def _jacobi_shift_a(n, alpha, beta):
    # (n + alpha + beta + 1) / n
    (a, b), d = _integer_form((alpha, beta))
    return [Fraction(n * d + a + b + d, n * d)]


def _jacobi_shift_b(n, alpha, beta):
    # (2n + alpha + beta + 1) / n
    (a, b), d = _integer_form((alpha, beta))
    return [Fraction(2 * n * d + a + b + d, n * d)]


def _jacobi_shift_e(n, alpha, beta):
    # (alpha - beta) / (2n + alpha + beta + 2)
    (a, b), d = _integer_form((alpha, beta))
    return Fraction(a - b, 2 * n * d + a + b + 2 * d)


def _laguerre_a(n, alpha):
    # (n + 1) (n + alpha + 1)
    a, d = alpha.numerator, alpha.denominator
    return [Fraction((n + 1) * (n * d + a + d), d)]


_HALF_LINE = lambda n, **_: (0.0, None)  # noqa: E731
_JACOBI_INTERVAL = lambda n, **_: (-1.0, 1.0)  # noqa: E731

#: check id -> its relation, in the paper's order
CHECKS = {
    "krawtchouk-3.1": CheckEntry(
        shape=PAIR_UP,
        family="krawtchouk",
        check=_krawtchouk_check,
        P=lambda n, p, N: families.krawtchouk(p, N.numerator + 1, n),
        G=lambda n, p, N: families.krawtchouk(p, N, n + 1),
        Q=lambda n, p, N: families.krawtchouk(p, N.numerator + 1, n + 1),
        A=_krawtchouk_a,
        B=lambda n, p, N: [N.numerator + 1, -1],
        E=_krawtchouk_e,
        support=lambda n, p, N: (0.0, float(N.numerator + 1)),
    ),
    "meixner-3.2": CheckEntry(
        shape=PAIR_UP,
        family="meixner",
        P=lambda n, t, w: families.meixner(t, w, n),
        G=lambda n, t, w: families.meixner(_shift(t, 1), w, n + 1),
        Q=lambda n, t, w: families.meixner(t, w, n + 1),
        A=_meixner_a,
        B=lambda n, t, w: [-t, -1],
        E=_meixner_e,
        support=_HALF_LINE,
    ),
    "narayana-3.3": CheckEntry(
        shape=DOWN_ONE,
        family="narayana-christoffel",
        min_n=2,
        P=lambda n: families.narayana_spec("narayana-christoffel", n),
        G=lambda n: families.narayana_spec("narayana-reduced", n),
        Q=lambda n: families.narayana_spec("narayana-reduced", n - 1),
        A=lambda n: [Fraction(n + 2, n - 1)],
        B=lambda n: [Fraction(2 * n + 1, n - 1)],
        E=lambda n: Fraction(1),
    ),
    "narayana-3.4": CheckEntry(
        shape=DOWN_ONE,
        family="narayana-perturbed",
        min_n=2,
        P=lambda n: families.narayana_spec("narayana-perturbed", n),
        G=lambda n: families.narayana_spec("narayana-reduced", n),
        Q=lambda n: families.narayana_spec("narayana-reduced", n - 1),
        A=lambda n: [Fraction(1, n - 1)],
        B=lambda n: [Fraction(n, n - 1)],
        E=lambda n: Fraction(-1),
    ),
    "jacobi-3.5": CheckEntry(
        shape=PAIR_UP,
        family="jacobi",
        min_n=1,
        check=_jacobi_beta_check,
        P=lambda n, alpha, beta: families.jacobi(alpha, beta, n),
        G=lambda n, alpha, beta: families.jacobi(alpha, _shift(beta, 1), n + 1),
        Q=lambda n, alpha, beta: families.jacobi(alpha, _shift(beta, -1), n + 1),
        A=_jacobi_beta_a,
        B=lambda n, alpha, beta: [-1, -1],
        E=_jacobi_beta_e,
        support=_JACOBI_INTERVAL,
    ),
    "jacobi-3.6": CheckEntry(
        shape=DOWN_ONE,
        family="jacobi",
        min_n=1,
        P=lambda n, alpha, beta: families.jacobi(alpha, beta, n),
        G=lambda n, alpha, beta: families.jacobi(_shift(alpha, 1), _shift(beta, 1), n),
        Q=lambda n, alpha, beta: families.jacobi(_shift(alpha, 1), _shift(beta, 1), n - 1),
        A=_jacobi_shift_a,
        B=_jacobi_shift_b,
        E=_jacobi_shift_e,
        support=_JACOBI_INTERVAL,
    ),
    "laguerre-3.7": CheckEntry(
        shape=PAIR_UP,
        family="laguerre",
        P=lambda n, alpha: families.laguerre(alpha, n),
        G=lambda n, alpha: families.laguerre(_shift(alpha, 1), n + 1),
        Q=lambda n, alpha: families.laguerre(alpha, n + 1),
        A=_laguerre_a,
        B=lambda n, alpha: [0, -1],
        E=lambda n, alpha: Fraction(n + 1),
        support=_HALF_LINE,
    ),
}

CHECK_IDS = tuple(CHECKS)


def build_relation(check_id: str, n: int, params: dict | None = None) -> MixedRelation:
    """Construct and exactly verify the relation of a named check at one grid point."""
    entry = CHECKS.get(check_id)
    if entry is None:
        raise InvalidParameterError(f"unknown check id {check_id!r}")
    names = entry.param_names
    params = dict(params or {})
    if set(params) != set(names):
        raise InvalidParameterError(
            f"{check_id} expects parameters {names}, got {tuple(sorted(params))}"
        )
    kw = {name: exact_rational(params[name]) for name in names}
    if entry.min_n is not None and n < entry.min_n:
        raise InvalidParameterError(f"{check_id} needs n >= {entry.min_n} (got n={n})")
    if entry.check is not None:
        entry.check(n, **kw)
    p_spec, g_spec, q_spec = entry.P(n, **kw), entry.G(n, **kw), entry.Q(n, **kw)
    rel = MixedRelation(
        rel_id=check_id,
        shape=entry.shape,
        sign=SHAPES[entry.shape][0],
        A=Polynomial(entry.A(n, **kw)),
        B=Polynomial(entry.B(n, **kw)),
        E=entry.E(n, **kw),
        P=monic_by_recurrence(p_spec),
        G=monic_by_recurrence(g_spec),
        Q=monic_by_recurrence(q_spec),
        specs={"P": p_spec, "G": g_spec, "Q": q_spec},
        support=entry.support(n, **kw),
        params={"n": n, **kw},
    )
    if not rel.certified:
        raise IdentityError(f"{rel.rel_id}: exact identity failed for {rel.params}")
    return rel


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Machine-checkable outcome of one relation check."""

    check_id: str
    shape: str
    params: dict
    e_value: Fraction
    identity_ok: bool = False
    hypotheses: dict = field(default_factory=dict)
    premise_kind: str | None = None
    premise: Verdict | None = None
    e_position: str = "unknown"
    clauses: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def passed(self) -> bool:
        """Every applicable clause holds.

        A violated hypothesis (say, a common zero of G and P in a symmetric
        degenerate case) puts the conclusions out of scope: the checker skips
        them and the violation is reported distinctly, but nothing the
        relation claims has been falsified.  A failed premise with intact
        hypotheses, or any failing clause, is a real failure.
        """
        if not self.identity_ok or FAIL_CLAUSE in self.clauses.values():
            return False
        if not self.hypotheses_ok:
            return True
        return self.premise_kind is not None

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "shape": self.shape,
            "params": {k: str(v) for k, v in self.params.items()},
            "E": str(self.e_value),
            "E_float": float(self.e_value),
            "identity_ok": self.identity_ok,
            "hypotheses": dict(self.hypotheses),
            "premise": self.premise.to_json() if self.premise else None,
            "premise_kind": self.premise_kind,
            "e_position": self.e_position,
            "clauses": dict(self.clauses),
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def csv_rows(self, extra: dict | None = None) -> list[dict]:
        """One flat row per clause, plus identity and premise pseudo-clauses.

        A violated hypothesis on an otherwise clean point is recorded as
        "degenerate" rather than "fail": the statement does not apply there.
        """
        base = dict(extra or {})
        base.update({k: str(v) for k, v in self.params.items()})
        if self.hypotheses_ok:
            hyp_result = PASS
        else:
            hyp_result = "degenerate" if self.passed else FAIL_CLAUSE
        if self.premise_kind is not None:
            prem_result = PASS
        else:
            prem_result = SKIPPED if not self.hypotheses_ok else FAIL_CLAUSE
        results = (PASS if self.identity_ok else FAIL_CLAUSE, hyp_result, prem_result)
        rows = [
            {**base, "clause": name, "result": result}
            for name, result in zip(REPORT_ROWS, results)
        ]
        for name, result in self.clauses.items():
            rows.append({**base, "clause": name, "result": result})
        return rows


def _min_cross_gap(za: ZeroSet, zb: ZeroSet) -> float:
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


def _sample_interval(rel: MixedRelation, zg: ZeroSet) -> tuple[float, float]:
    lo, hi = rel.support
    anchors = list(zg.zeros) + [float(rel.E)]
    span_lo, span_hi = min(anchors), max(anchors)
    pad = 0.05 * (span_hi - span_lo) + 0.5
    if lo is None:
        lo = span_lo - pad
    if hi is None:
        hi = span_hi + pad
    return float(lo), float(hi)


def _a_positive(rel: MixedRelation, zg: ZeroSet, grid_points: int = 32) -> bool:
    """A > 0 at every zero of G plus a fixed grid over the working interval; a constant A by its sign."""
    if len(rel.A.nums) == 1:
        return rel.A.nums[0] > 0
    desc = rel.A.float_coeffs()[::-1]
    lo, hi = _sample_interval(rel, zg)
    margin = (hi - lo) / (4 * grid_points)
    lo, hi = lo + margin, hi - margin
    samples = [lo + (hi - lo) * i / (grid_points - 1) for i in range(grid_points)]
    for x in (*zg.zeros, *samples):
        acc = 0.0
        for c in desc:  # Horner's scheme on the float coefficients
            acc = acc * x + c
        if acc <= 0:
            return False
    return True


def _new_report(rel: MixedRelation) -> CheckReport:
    return CheckReport(
        check_id=rel.rel_id,
        shape=rel.shape,
        params=dict(rel.params),
        e_value=rel.E,
        identity_ok=rel.certified,
    )


def relation_terms(rel: MixedRelation) -> tuple[Term, Term, Term]:
    """The zero-set terms of G, Q and P, in the order the checkers read them.

    A term carries the exact zeros it was built from, when it has them, its
    member spec and its polynomial; ``rootfind`` picks the path.
    """
    return tuple(Term(rel.specs.get(name), getattr(rel, name), rel.roots.get(name)) for name in "GQP")


def _base_report(rel: MixedRelation, found) -> tuple[CheckReport, ZeroSet, ZeroSet, ZeroSet]:
    """The report's shared rows, from ``found``: the ``zero_sets`` results of
    ``relation_terms(rel)``, solved here when None.  A failed solve raises,
    G's before Q's before P's."""
    report = _new_report(rel)
    if found is None:
        found = zero_sets(relation_terms(rel))
    zg, zq, zp = map(unwrap, found)
    e_float = float(rel.E)
    # E's one position among the zeros of G; "unknown" means within the floor of one.
    position, slot = locate_point(e_float, zg)
    report.e_position = position if slot is None else f"{position}({slot})"
    report.hypotheses["b_at_e_nonzero"] = rel.B.evaluate(rel.E) != 0
    report.hypotheses["e_not_on_g_zero"] = position != "unknown"
    report.hypotheses["no_common_zeros_g_p"] = _min_cross_gap(zg, zp) > DEFAULT_FLOOR
    report.hypotheses["a_positive"] = _a_positive(rel, zg)
    if any(abs(e_float - q) <= DEFAULT_FLOOR for q in zq.zeros):
        report.notes.append("E sits on a zero of Q (permitted, logged)")
    if not report.hypotheses_ok:
        violated = sorted(k for k, v in report.hypotheses.items() if not v)
        report.notes.append(
            "hypotheses violated, conclusions out of scope: " + ", ".join(violated)
        )
    return report, zg, zq, zp


def _verdict_clause(verdict: Verdict, want_kind) -> str:
    if verdict.kind == INCONCLUSIVE:
        return SKIPPED
    kinds = want_kind if isinstance(want_kind, (set, frozenset)) else {want_kind}
    return PASS if verdict.kind in kinds else FAIL_CLAUSE


def _skip_rest(report: CheckReport, names) -> CheckReport:
    """Mark each clause in ``names`` that is not yet decided as skipped."""
    for name in names:
        report.clauses.setdefault(name, SKIPPED)
    return report


def check_pair_up(rel: MixedRelation, found=None) -> CheckReport:
    """Checker for the shape with G and Q one degree above P.

    The premise is alternation of Q and G in either orientation; the clauses
    are the E-position bound, the added-point interlacing statement, and the
    two-directional full-interlacing iff.  ``found`` is as for ``_base_report``.
    """
    if rel.shape != PAIR_UP:
        raise InvalidParameterError(f"check_pair_up got shape {rel.shape}")
    report, zg, zq, zp = _base_report(rel, found)
    e_float = float(rel.E)

    prem_qg = alternates(zq, zg)
    if prem_qg.kind == ALTERNATE:
        report.premise_kind, report.premise = "q_below_g", prem_qg
    else:
        prem_gq = alternates(zg, zq)
        if prem_gq.kind == ALTERNATE:
            report.premise_kind, report.premise = "g_below_q", prem_gq
        else:
            report.premise = prem_qg if prem_qg.kind == INCONCLUSIVE else prem_gq
            report.notes.append("premise failed: zero sets of Q and G do not alternate")
            return _skip_rest(report, PAIR_UP_CLAUSES)

    case_low = report.premise_kind == "q_below_g"

    # E-position bound: below the largest zero of G (case 1) or above the
    # smallest (case 2).  Evaluated regardless of the other hypotheses; the
    # impossible-region property rests on this clause.
    bound = zg.max if case_low else zg.min
    delta = (bound - e_float) if case_low else (e_float - bound)
    if abs(delta) <= DEFAULT_FLOOR:
        report.clauses["e_position"] = SKIPPED
    else:
        report.clauses["e_position"] = PASS if delta > 0 else FAIL_CLAUSE
    report.notes.append(
        f"extreme zero of G {'above' if case_low else 'below'} E: "
        f"{bound:.9g} vs E = {e_float:.9g}"
    )

    if not report.hypotheses_ok:
        return _skip_rest(report, PAIR_UP_CLAUSES)

    # e_not_on_g_zero holds here, on the floats and floor that
    # added_point_interlace tests, so it raises no CommonPointError.
    ap = added_point_interlace(zp, rel.E, zg)
    want = "P_below_G" if case_low else "G_below_P"
    if ap.kind == INCONCLUSIVE:
        report.clauses["added_point"] = SKIPPED
    else:
        report.clauses["added_point"] = (
            PASS if ap.kind in ADDED_OK_KINDS and ap.orientation == want else FAIL_CLAUSE
        )

    # Full interlacing of G (degree n+1) onto P (degree n) holds iff E lies
    # outside the zero range of G on the case's side.
    full = interlaces_down(zg, zp)
    if full.kind == INCONCLUSIVE:
        report.clauses["full_iff"] = SKIPPED
    else:
        outside = report.e_position == ("below" if case_low else "above")
        report.clauses["full_iff"] = (
            PASS if outside == (full.kind == INTERLACE_DOWN) else FAIL_CLAUSE
        )
    return report


def check_down_one(rel: MixedRelation, found=None) -> CheckReport:
    """Checker for the shape with G at P's degree and Q one degree below.

    ``found`` is as for ``_base_report``.
    """
    if rel.shape != DOWN_ONE:
        raise InvalidParameterError(f"check_down_one got shape {rel.shape}")
    report, zg, zq, zp = _base_report(rel, found)

    premise = interlaces_down(zg, zq)
    if premise.kind != INTERLACE_DOWN:
        report.premise = premise
        report.notes.append("premise failed: zeros of Q do not interlace below G")
        return _skip_rest(report, DOWN_ONE_CLAUSES)
    report.premise_kind, report.premise = "g_then_q", premise

    if not report.hypotheses_ok:
        return _skip_rest(report, DOWN_ONE_CLAUSES)

    ap = added_point_interlace(zp, rel.E, zg)  # no CommonPointError, as in check_pair_up
    report.clauses["added_point"] = _verdict_clause(ap, ADDED_OK_KINDS)

    if report.e_position == "above":
        report.clauses["full_when_e_above"] = _verdict_clause(alternates(zp, zg), ALTERNATE)
    else:
        report.clauses["full_when_e_above"] = SKIPPED
    if report.e_position == "below":
        report.clauses["full_when_e_below"] = _verdict_clause(alternates(zg, zp), ALTERNATE)
    else:
        report.clauses["full_when_e_below"] = SKIPPED
    return report


SHAPE_CHECKERS = {
    PAIR_UP: check_pair_up,
    DOWN_ONE: check_down_one,
}
SHAPE_CLAUSES = {PAIR_UP: PAIR_UP_CLAUSES, DOWN_ONE: DOWN_ONE_CLAUSES}


def check_relation(rel: MixedRelation, found=None) -> CheckReport:
    """The shape checker's report on ``rel``; ``found`` is as for ``_base_report``."""
    return SHAPE_CHECKERS[rel.shape](rel, found)


# ---------------------------------------------------------------------------
# Named checks (the CLI surface)
# ---------------------------------------------------------------------------


def _plan_even_quotient(n: int, params: dict | None):
    """The even branch's plan (see ``plan_check``): the zero sets of P and of
    G / (x + 1), none when (x + 1) does not divide G."""
    rel = build_relation(EVEN_QUOTIENT_CHECK, n, params)
    quotient, remainder = rel.G.divide_linear(Fraction(-1))
    terms = (Term(poly=rel.P), Term(poly=quotient)) if remainder == 0 else ()
    return terms, partial(_even_quotient_report, rel)


def _even_quotient_report(rel: MixedRelation, found) -> CheckReport:
    report = _new_report(rel)
    report.premise_kind = "even-quotient"
    shared = rel.P.evaluate(Fraction(-1)) == 0 and rel.G.evaluate(Fraction(-1)) == 0
    report.clauses["common_zero_at_minus_one"] = PASS if shared else FAIL_CLAUSE
    if not found:
        report.clauses["quotient_interlace"] = FAIL_CLAUSE
        report.notes.append("reference polynomial not divisible by (x + 1)")
        return report
    zp, zq = map(unwrap, found)
    report.clauses["quotient_interlace"] = _verdict_clause(interlaces_down(zp, zq), INTERLACE_DOWN)
    report.notes.append("even branch: zeros of P against zeros of G/(x+1)")
    return report


def check_narayana_even_quotient(n: int, params: dict | None = None) -> CheckReport:
    """Even-index branch: P and G share the zero -1, so the reference set is
    the exact quotient of G by (x + 1) and the claim is plain interlacing."""
    terms, report = _plan_even_quotient(n, params)
    return report(zero_sets(terms))


def plan_check(check_id: str, n: int, params: dict | None = None):
    """What a named check needs solved, and what reports on it.

    Returns (terms, report): the ``Term``s of the zero sets the check reads,
    and a function that takes their ``zero_sets`` results, in order, and
    returns the check's report.  Building the relation happens here, so a
    caller can solve the terms of many checks in one batch.
    """
    if check_id == EVEN_QUOTIENT_CHECK and n % 2 == 0:
        return _plan_even_quotient(n, params)
    rel = build_relation(check_id, n, params)
    return relation_terms(rel), partial(check_relation, rel)


def run_check(check_id: str, n: int, params: dict | None = None) -> CheckReport:
    """Build the relation behind a named check and run its shape checker."""
    if check_id == EVEN_QUOTIENT_CHECK and n % 2 == 0:
        return check_narayana_even_quotient(n, params)
    return check_relation(build_relation(check_id, n, params))


def clause_names(check_id: str) -> tuple[str, ...]:
    """Every row name a sweep of ``check_id`` can write, in row order."""
    names = REPORT_ROWS + SHAPE_CLAUSES[CHECKS[check_id].shape]
    if check_id == EVEN_QUOTIENT_CHECK:
        names += EVEN_QUOTIENT_CLAUSES
    return names + (BUILD_ROW,)


# ---------------------------------------------------------------------------
# Constructive random oracles
# ---------------------------------------------------------------------------


def _rational_uniform(rng: random.Random, lo: Fraction, hi: Fraction, denom: int = 4096) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(denom + 1), denom)


def _draw_chain(rng: random.Random, total: int) -> tuple[list[int], int]:
    """Strictly increasing rational points: uniform slots in (-1, 1), jittered.

    Point i is -1 + 2(i+1)/(total+1) plus a jitter uniform on 4097 levels of
    [-1/J, 1/J], where 1/J = min(1/100, step/4) and step = 2/(total+1).
    Returns the points' integer numerators over their common denominator
    lcm(total+1, 2048 J).
    """
    slots = total + 1
    J = max(100, 2 * slots)
    den = math.lcm(slots, 2048 * J)
    slot, tick = den // slots, den // (2048 * J)
    nums = [-den + 2 * (i + 1) * slot + (rng.randrange(4097) - 2048) * tick for i in range(total)]
    return nums, den


class _Draw(NamedTuple):
    """Drawn zeros of G and Q and the added point E over their common denominator D.

    With y = D x, G = g(y) / D^deg G and Q = q(y) / D^deg Q, where g and q
    are the root products of the numerators ``g`` and ``q``.
    """

    g: tuple[int, ...]  # D times each drawn zero of G
    q: tuple[int, ...]  # D times each drawn zero of Q
    de: int  # D E
    den: int  # D


def _scaled_draw(g_nums, q_nums, den: int, e: Fraction) -> _Draw:
    """The draw with zeros g_nums / den and q_nums / den, brought over lcm(den, den of E)."""
    big = math.lcm(den, e.denominator)
    scale = big // den
    return _Draw(
        g=tuple(x * scale for x in g_nums),
        q=tuple(x * scale for x in q_nums),
        de=e.numerator * (big // e.denominator),
        den=big,
    )


def _top_two(zeros) -> tuple[int, int]:
    """The coefficients of y^(m-1) and y^(m-2) in the product of (y - z) over m ``zeros``.

    They are -e1 and e2, the first two elementary symmetric sums with signs,
    and need no product: 2 e2 = e1^2 - (sum of squares).
    """
    e1 = sum(zeros)
    return -e1, (e1 * e1 - sum(z * z for z in zeros)) // 2


def _oracle_relation(shape, A, B, e, c, draw: _Draw, g, q) -> MixedRelation:
    """A synthetic relation whose monic P is c(D x) up to scale; g, q are the root products."""
    hull = (*draw.g, *draw.q, draw.de)
    rel = MixedRelation(
        rel_id="oracle-" + shape.replace("_", "-"),
        shape=shape,
        sign=SHAPES[shape][0],
        A=A,
        B=B,
        E=e,
        P=Polynomial.from_scaled(c, draw.den, c[-1]),
        G=Polynomial.from_scaled(g, draw.den),
        Q=Polynomial.from_scaled(q, draw.den),
        support=(min(hull) / draw.den - 1.0, max(hull) / draw.den + 1.0),
        params={"n": len(c) - 1},
    )
    object.__setattr__(rel, "roots", {"G": (draw.g, draw.den), "Q": (draw.q, draw.den)})
    return rel


def assemble_pair_up(
    g_nums, q_nums, den: int, e: Fraction, require_positive_a: bool = True
) -> MixedRelation | None:
    """Build a pair-up relation from the zeros g_nums / den and q_nums / den and E.

    B is the monic-negative linear polynomial whose constant kills the top
    two coefficients of B*G + (x-E)*Q, leaving a degree-n combination; its
    leading coefficient becomes the constant A and P is the monic quotient.
    Returns None on a degenerate draw (B(E) = 0, degree collapse, or A of
    the wrong sign when one is required).

    Over y = D x, B = (b - y) / D with b = D (G_n - Q_n + E), and the
    combination is c(y) / D^(n+2) with c = (b - y) g + (y - D E) q, so
    A = c_n / D^2 and P_k = c_k / (c_n D^(n-k)).  b and c_n need only the
    top two coefficients of g and q, so a draw is refused before the root
    products are formed.
    """
    n = len(g_nums) - 1
    draw = _scaled_draw(g_nums, q_nums, den, e)
    de, den = draw.de, draw.den
    g_n, g_n1 = _top_two(draw.g)
    q_n, q_n1 = _top_two(draw.q)
    b = g_n - q_n + de
    if b == de:  # B(E) = 0
        return None
    c_n = b * g_n - g_n1 + q_n1 - de * q_n
    if c_n == 0 or (require_positive_a and c_n < 0):  # degree collapse, or A <= 0
        return None
    g, q = root_product(draw.g), root_product(draw.q)
    c = _combination(([b, -1], g), ([-de, 1], q))
    A = Polynomial.from_ints([c_n], den * den)
    return _oracle_relation(PAIR_UP, A, Polynomial.from_ints([b, -den], den), e, c, draw, g, q)


#: the lowest degree n each oracle draws at: deg G = deg Q = n + 1 for pair-up,
#: deg G = n and deg Q = n - 1 for down-one
ORACLE_MIN_N = {"down-one": 1, "pair-up": 0}


def check_oracle_degree(mode: str, n: int) -> None:
    """Refuse a degree below ``mode``'s lowest, where every draw would be retried in vain."""
    low = ORACLE_MIN_N[mode]
    if n < low:
        raise InvalidParameterError(f"{mode} oracle needs n >= {low} (got n={n})")


def oracle_pair_up(
    n: int,
    seed: int,
    orientation: str | None = None,
    force_e: str | None = None,
    max_tries: int = 64,
) -> MixedRelation:
    """Random verified pair-up instance; seed-deterministic.

    ``orientation`` pins which of the two alternation directions the G and Q
    draws satisfy ("q_below_g" or "g_below_q"); ``force_e="above_max"``
    places E above every zero of G and disables the positive-A resample,
    which is how the impossible-region property is exercised.
    """
    check_oracle_degree("pair-up", n)
    rng = random.Random(f"pair-up:{n}:{seed}:{orientation}:{force_e}")
    for _ in range(max_tries):
        orient = orientation or rng.choice(("q_below_g", "g_below_q"))
        pts, den = _draw_chain(rng, 2 * (n + 1))
        if orient == "q_below_g":
            q_nums, g_nums = pts[0::2], pts[1::2]
        else:
            g_nums, q_nums = pts[0::2], pts[1::2]
        e = _draw_e(rng, g_nums, den, "above" if force_e == "above_max" else None)
        if e is None:
            continue
        rel = assemble_pair_up(g_nums, q_nums, den, e, require_positive_a=force_e is None)
        if rel is not None:
            rel.params.update({"seed": seed, "orientation": orient, "forced": force_e})
            return rel
    raise DegenerateDrawError(f"pair-up oracle exhausted retries at n={n}, seed={seed}")


def assemble_down_one(
    g_nums, q_nums, den: int, e: Fraction, b_const: Fraction
) -> MixedRelation | None:
    """Build a down-one relation with a constant B from the zeros g_nums / den and q_nums / den.

    With B = u / v and y = D x, B G - (x - E) Q = c(y) / (v D^n) where
    c = u g - v (y - D E) q, so A = c_n / v and P_k = c_k / (c_n D^(n-k)).
    """
    n = len(g_nums)
    draw = _scaled_draw(g_nums, q_nums, den, e)
    u, v = b_const.numerator, b_const.denominator
    g, q = root_product(draw.g), root_product(draw.q)
    c = _combination(([u], g), ([v * draw.de, -v], q))
    if len(c) != n + 1 or c[-1] <= 0:
        return None
    A = Polynomial.from_ints([c[-1]], v)
    return _oracle_relation(DOWN_ONE, A, Polynomial([b_const]), e, c, draw, g, q)


#: the default added point E = -6/5 + (12/5) r / 4096, r uniform on 0..4096,
#: is (12 r - 24576) / _E_DEN
_E_DEN = 20480


def _draw_e(rng: random.Random, g_nums, den: int, e_region: str | None) -> Fraction | None:
    """An added point for G, whose zeros are g_nums / den in ascending order.

    ``e_region`` pins E below every zero, inside a gap or above every zero.
    Otherwise E is drawn on (-6/5, 6/5) and refused (None) within 1/100 of a
    zero of G.
    """

    def zero(k: int) -> Fraction:
        return Fraction(g_nums[k], den)

    if e_region == "below":
        return zero(0) - _rational_uniform(rng, Fraction(1, 20), Fraction(1, 2))
    if e_region == "above":
        return zero(-1) + _rational_uniform(rng, Fraction(1, 20), Fraction(1, 2))
    if e_region == "interior":
        if len(g_nums) < 2:
            return None
        k = rng.randrange(len(g_nums) - 1)
        return zero(k) + (zero(k + 1) - zero(k)) * _rational_uniform(
            rng, Fraction(1, 4), Fraction(3, 4)
        )
    u = 12 * rng.randrange(4097) - 24576
    # The zeros ascend, so the nearest one to E is a neighbour of its slot:
    # the first zero with g / den >= u / _E_DEN, and the one before.
    k = bisect_left(g_nums, -(-u * den // _E_DEN))
    for g in g_nums[max(k - 1, 0) : k + 1]:
        if 100 * abs(u * den - g * _E_DEN) < _E_DEN * den:  # |E - g / den| < 1/100
            return None
    return Fraction(u, _E_DEN)


def oracle_down_one(
    n: int,
    seed: int,
    e_region: str | None = None,
    max_tries: int = 64,
) -> MixedRelation:
    """Random verified down-one instance; seed-deterministic.

    ``e_region`` pins E below all zeros of G, inside a gap, or above all.
    """
    check_oracle_degree("down-one", n)
    rng = random.Random(f"down-one:{n}:{seed}:{e_region}")
    for _ in range(max_tries):
        pts, den = _draw_chain(rng, 2 * n - 1)
        g_nums, q_nums = pts[0::2], pts[1::2]
        e = _draw_e(rng, g_nums, den, e_region)
        if e is None:
            continue
        b_const = _rational_uniform(rng, Fraction(6, 5), Fraction(3))
        rel = assemble_down_one(g_nums, q_nums, den, e, b_const)
        if rel is not None:
            rel.params.update({"seed": seed, "e_region": e_region})
            return rel
    raise DegenerateDrawError(f"down-one oracle exhausted retries at n={n}, seed={seed}")
