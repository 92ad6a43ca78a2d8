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
from typing import NamedTuple

from . import families
from .families import (
    FamilySpec,
    InvalidParameterError,
    ORTHOGONAL_KINDS,
    exact_rational,
    monic_by_recurrence,
)
from .interlacing import (
    ADDED_OK_KINDS,
    ALTERNATE,
    DEFAULT_FLOOR,
    INCONCLUSIVE,
    INTERLACE_DOWN,
    CommonPointError,
    Verdict,
    added_point_interlace,
    alternates,
    interlaces_down,
    locate_point,
)
from .poly import (
    Polynomial,
    _convolve,
    monic_linear,
    products_cancel,
    root_product,
)
from .rootfind import ZeroSet, zeros_exact, zeros_general, zeros_orthogonal

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


_IDENTITY_TERMS = frozenset(("sign", "A", "B", "E", "P", "G", "Q"))


@dataclass
class MixedRelation:
    """One concrete relation A*P = B*G + sign*(x-E)*Q, all rational."""

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
    #: exact identity verdict for the current terms; None until it is run
    certified: bool | None = field(default=None, init=False, repr=False, compare=False)
    #: term name ("G", "Q") -> (nums, den): its exact zeros nums[i] / den
    roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        # Replacing a term voids the verdict reached for the old one, and the
        # zeros the old one was built from.
        if name in _IDENTITY_TERMS:
            object.__setattr__(self, "certified", None)
            roots = self.__dict__.get("roots")
            if roots and name in roots:
                object.__setattr__(self, "roots", {k: v for k, v in roots.items() if k != name})
        object.__setattr__(self, name, value)

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

    @property
    def H(self) -> Polynomial:
        """The factor x - E."""
        return monic_linear(self.E)


def verify_identity(rel: MixedRelation) -> bool:
    """True iff A*P - B*G - sign*(x-E)*Q is exactly the zero polynomial."""
    return products_cancel(((1, rel.A, rel.P), (-1, rel.B, rel.G), (-rel.sign, rel.H, rel.Q)))


def identity_certified(rel: MixedRelation) -> bool:
    """The exact identity verdict for ``rel``, computed once per set of terms."""
    if rel.certified is None:
        rel.certified = verify_identity(rel)
    return rel.certified


# ---------------------------------------------------------------------------
# The named relations, one table entry per transcribed display
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairEntry:
    """One named relation as a function of the degree index n and its parameters.

    Every callable is called as ``f(n, **params)``, with the parameters that
    ``families.PARAM_NAMES`` lists for ``family`` as Fractions.  ``P``, ``G``
    and ``Q`` give the member specs, ``A`` and ``B`` coefficient lists, and
    ``check`` raises ``InvalidParameterError`` on parameters the relation
    excludes.  With ``min_n`` None the members' own check on the degree index
    applies.
    """

    #: the named check this relation serves
    check_id: str
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


def _krawtchouk_check(n, p, N):
    if N.denominator != 1 or N < 1:
        raise InvalidParameterError(f"krawtchouk relation needs integer N >= 1 (got N={N})")
    if n + 1 > N:
        raise InvalidParameterError(
            f"krawtchouk relation needs n + 1 <= N so both parameter columns exist "
            f"(got n={n}, N={N})"
        )


def _jacobi_beta_check(n, alpha, beta):
    if beta <= 0:
        raise InvalidParameterError(
            f"jacobi-beta relation needs beta > 0 so the lowered parameter stays valid "
            f"(got beta={beta})"
        )


def _jacobi_beta_a(n, alpha, beta):
    # Scalar normalizer for monic members; the added point E and the root
    # of A follow the usual display of this relation, whose own scalars
    # belong to a non-monic normalization and fail the exact residual here.
    s = alpha + beta
    M = 2 * (n + 1) * (n + alpha + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
    return [M * (1 + 2 * beta / (2 * n + s + 3)), M]


def _jacobi_beta_e(n, alpha, beta):
    s = alpha + beta
    return -1 + 2 * (n + 1) * (n + alpha + 1) / ((2 * n + s + 2) * (2 * n + s + 3))


def _jacobi_shift_e(n, alpha, beta):
    return (alpha - beta) / (2 * n + alpha + beta + 2)


_HALF_LINE = lambda n, **_: (0.0, None)  # noqa: E731
_JACOBI_INTERVAL = lambda n, **_: (-1.0, 1.0)  # noqa: E731

#: pair id -> relation, in the order of the named checks
PAIRS = {
    "krawtchouk": PairEntry(
        check_id="krawtchouk-3.1",
        shape=PAIR_UP,
        family="krawtchouk",
        check=_krawtchouk_check,
        P=lambda n, p, N: families.krawtchouk(p, N + 1, n),
        G=lambda n, p, N: families.krawtchouk(p, N, n + 1),
        Q=lambda n, p, N: families.krawtchouk(p, N + 1, n + 1),
        A=lambda n, p, N: [p * (1 - p) * (n + 1) * (N + 1 - n)],
        B=lambda n, p, N: [N + 1, -1],
        E=lambda n, p, N: N + 1 - p * (n + 1),
        support=lambda n, p, N: (0.0, float(N + 1)),
    ),
    "meixner": PairEntry(
        check_id="meixner-3.2",
        shape=PAIR_UP,
        family="meixner",
        P=lambda n, t, w: families.meixner(t, w, n),
        G=lambda n, t, w: families.meixner(t + 1, w, n + 1),
        Q=lambda n, t, w: families.meixner(t, w, n + 1),
        A=lambda n, t, w: [w * (n + 1) * (n + t) / (1 - w) ** 2],
        B=lambda n, t, w: [-t, -1],
        E=lambda n, t, w: -t + w * (n + 1) / (1 - w),
        support=_HALF_LINE,
    ),
    "narayana-christoffel": PairEntry(
        check_id="narayana-3.3",
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
    "narayana-perturbed": PairEntry(
        check_id="narayana-3.4",
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
    "jacobi-beta": PairEntry(
        check_id="jacobi-3.5",
        shape=PAIR_UP,
        family="jacobi",
        min_n=1,
        check=_jacobi_beta_check,
        P=lambda n, alpha, beta: families.jacobi(alpha, beta, n),
        G=lambda n, alpha, beta: families.jacobi(alpha, beta + 1, n + 1),
        Q=lambda n, alpha, beta: families.jacobi(alpha, beta - 1, n + 1),
        A=_jacobi_beta_a,
        B=lambda n, alpha, beta: [-1, -1],
        E=_jacobi_beta_e,
        support=_JACOBI_INTERVAL,
    ),
    "jacobi-shift": PairEntry(
        check_id="jacobi-3.6",
        shape=DOWN_ONE,
        family="jacobi",
        min_n=1,
        P=lambda n, alpha, beta: families.jacobi(alpha, beta, n),
        G=lambda n, alpha, beta: families.jacobi(alpha + 1, beta + 1, n),
        Q=lambda n, alpha, beta: families.jacobi(alpha + 1, beta + 1, n - 1),
        A=lambda n, alpha, beta: [(n + alpha + beta + 1) / n],
        B=lambda n, alpha, beta: [(2 * n + alpha + beta + 1) / n],
        E=_jacobi_shift_e,
        support=_JACOBI_INTERVAL,
    ),
    "laguerre": PairEntry(
        check_id="laguerre-3.7",
        shape=PAIR_UP,
        family="laguerre",
        P=lambda n, alpha: families.laguerre(alpha, n),
        G=lambda n, alpha: families.laguerre(alpha + 1, n + 1),
        Q=lambda n, alpha: families.laguerre(alpha, n + 1),
        A=lambda n, alpha: [(n + 1) * (n + alpha + 1)],
        B=lambda n, alpha: [0, -1],
        E=lambda n, alpha: Fraction(n + 1),
        support=_HALF_LINE,
    ),
}

#: named check id -> pair id
CHECK_TO_PAIR = {entry.check_id: pair_id for pair_id, entry in PAIRS.items()}
CHECK_IDS = tuple(CHECK_TO_PAIR)


def build_relation(pair_id: str, n: int, params: dict | None = None) -> MixedRelation:
    """Construct and exactly verify the named relation at one grid point."""
    entry = PAIRS.get(pair_id)
    if entry is None:
        raise InvalidParameterError(f"unknown relation pair {pair_id!r}")
    names = entry.param_names
    params = dict(params or {})
    if set(params) != set(names):
        raise InvalidParameterError(
            f"{pair_id} expects parameters {names}, got {tuple(sorted(params))}"
        )
    kw = {name: exact_rational(params[name]) for name in names}
    if entry.min_n is not None and n < entry.min_n:
        raise InvalidParameterError(f"{pair_id} relation needs n >= {entry.min_n} (got n={n})")
    if entry.check is not None:
        entry.check(n, **kw)
    p_spec, g_spec, q_spec = entry.P(n, **kw), entry.G(n, **kw), entry.Q(n, **kw)
    rel = MixedRelation(
        rel_id=pair_id,
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
    if not identity_certified(rel):
        raise IdentityError(f"{rel.rel_id}: exact identity failed for {rel.params}")
    return rel


def zero_set(spec: FamilySpec | None, poly: Polynomial | None = None) -> ZeroSet:
    """Real zeros of a family member, of ``poly`` when given.

    Orthogonal kinds take the tridiagonal path; everything else the companion
    path, on ``poly`` or else on the member built from ``spec``.
    """
    if spec is not None and spec.kind in ORTHOGONAL_KINDS:
        return zeros_orthogonal(spec)
    return zeros_general(monic_by_recurrence(spec) if poly is None else poly)


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

    The closest cross pair is adjacent in the merged order of the two sets,
    and float subtraction is monotone, so the neighbours from different sets
    give the same float the all-pairs minimum gives.
    """
    merged = sorted([(a, 0) for a in za.zeros] + [(b, 1) for b in zb.zeros])
    return min(
        (y - x for (x, s), (y, t) in zip(merged, merged[1:]) if s != t),
        default=float("inf"),
    )


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
    """A > 0 at every zero of G plus a fixed grid over the working interval."""
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


def _new_report(rel: MixedRelation, check_id: str) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        shape=rel.shape,
        params=dict(rel.params),
        e_value=rel.E,
        identity_ok=identity_certified(rel),
    )


def _term_zeros(rel: MixedRelation, name: str) -> ZeroSet:
    """Zeros of term ``name``: the exact ones it was built from, else by its zero path."""
    roots = rel.roots.get(name)
    if roots is not None:
        return zeros_exact(*roots)
    return zero_set(rel.specs.get(name), getattr(rel, name))


def _base_report(rel: MixedRelation, floor: float) -> tuple[CheckReport, ZeroSet, ZeroSet, ZeroSet]:
    report = _new_report(rel, rel.rel_id)
    zg = _term_zeros(rel, "G")
    zq = _term_zeros(rel, "Q")
    zp = _term_zeros(rel, "P")
    e_float = float(rel.E)
    report.hypotheses["b_at_e_nonzero"] = rel.B.evaluate(rel.E) != 0
    report.hypotheses["e_not_on_g_zero"] = all(abs(e_float - g) > floor for g in zg.zeros)
    report.hypotheses["no_common_zeros_g_p"] = _min_cross_gap(zg, zp) > floor
    report.hypotheses["a_positive"] = _a_positive(rel, zg)
    position, slot = locate_point(e_float, zg, floor)
    report.e_position = position if slot is None else f"{position}({slot})"
    if any(abs(e_float - q) <= floor for q in zq.zeros):
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


def check_pair_up(rel: MixedRelation, floor: float = DEFAULT_FLOOR) -> CheckReport:
    """Checker for the shape with G and Q one degree above P.

    The premise is alternation of Q and G in either orientation; the clauses
    are the E-position bound, the added-point interlacing statement, and the
    two-directional full-interlacing iff.
    """
    if rel.shape != PAIR_UP:
        raise InvalidParameterError(f"check_pair_up got shape {rel.shape}")
    report, zg, zq, zp = _base_report(rel, floor)
    e_float = float(rel.E)

    prem_qg = alternates(zq, zg, floor)
    if prem_qg.kind == ALTERNATE:
        report.premise_kind, report.premise = "q_below_g", prem_qg
    else:
        prem_gq = alternates(zg, zq, floor)
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
    if abs(delta) <= floor:
        report.clauses["e_position"] = SKIPPED
    else:
        report.clauses["e_position"] = PASS if delta > 0 else FAIL_CLAUSE
    report.notes.append(
        f"extreme zero of G {'above' if case_low else 'below'} E: "
        f"{bound:.9g} vs E = {e_float:.9g}"
    )

    if not report.hypotheses_ok:
        return _skip_rest(report, PAIR_UP_CLAUSES)

    try:
        ap = added_point_interlace(zp, rel.E, zg, floor)
    except CommonPointError:
        report.hypotheses["e_not_on_g_zero"] = False
        return _skip_rest(report, PAIR_UP_CLAUSES)
    want = "P_below_G" if case_low else "G_below_P"
    if ap.kind == INCONCLUSIVE:
        report.clauses["added_point"] = SKIPPED
    else:
        report.clauses["added_point"] = (
            PASS if ap.kind in ADDED_OK_KINDS and ap.orientation == want else FAIL_CLAUSE
        )

    # Full interlacing of G (degree n+1) onto P (degree n) holds iff E lies
    # outside the zero range of G on the case's side.
    side_bound = zg.min if case_low else zg.max
    side_gap = (side_bound - e_float) if case_low else (e_float - side_bound)
    full = interlaces_down(zg, zp, floor)
    if abs(side_gap) <= floor or full.kind == INCONCLUSIVE:
        report.clauses["full_iff"] = SKIPPED
    else:
        report.clauses["full_iff"] = (
            PASS if (side_gap > 0) == (full.kind == INTERLACE_DOWN) else FAIL_CLAUSE
        )
    return report


def check_down_one(rel: MixedRelation, floor: float = DEFAULT_FLOOR) -> CheckReport:
    """Checker for the shape with G at P's degree and Q one degree below."""
    if rel.shape != DOWN_ONE:
        raise InvalidParameterError(f"check_down_one got shape {rel.shape}")
    report, zg, zq, zp = _base_report(rel, floor)
    e_float = float(rel.E)

    premise = interlaces_down(zg, zq, floor)
    if premise.kind != INTERLACE_DOWN:
        report.premise = premise
        report.notes.append("premise failed: zeros of Q do not interlace below G")
        return _skip_rest(report, DOWN_ONE_CLAUSES)
    report.premise_kind, report.premise = "g_then_q", premise

    if not report.hypotheses_ok:
        return _skip_rest(report, DOWN_ONE_CLAUSES)

    try:
        ap = added_point_interlace(zp, rel.E, zg, floor)
    except CommonPointError:
        report.hypotheses["e_not_on_g_zero"] = False
        return report
    report.clauses["added_point"] = _verdict_clause(ap, ADDED_OK_KINDS)

    if zg.zeros and e_float > zg.max + floor:
        report.clauses["full_when_e_above"] = _verdict_clause(
            alternates(zp, zg, floor), ALTERNATE
        )
    else:
        report.clauses["full_when_e_above"] = SKIPPED
    if zg.zeros and e_float < zg.min - floor:
        report.clauses["full_when_e_below"] = _verdict_clause(
            alternates(zg, zp, floor), ALTERNATE
        )
    else:
        report.clauses["full_when_e_below"] = SKIPPED
    return report


SHAPE_CHECKERS = {
    PAIR_UP: check_pair_up,
    DOWN_ONE: check_down_one,
}
SHAPE_CLAUSES = {PAIR_UP: PAIR_UP_CLAUSES, DOWN_ONE: DOWN_ONE_CLAUSES}


def check_relation(rel: MixedRelation, floor: float = DEFAULT_FLOOR) -> CheckReport:
    return SHAPE_CHECKERS[rel.shape](rel, floor)


# ---------------------------------------------------------------------------
# Named checks (the CLI surface)
# ---------------------------------------------------------------------------


def check_narayana_even_quotient(n: int, floor: float = DEFAULT_FLOOR) -> CheckReport:
    """Even-index branch: P and G share the zero -1, so the reference set is
    the exact quotient of G by (x + 1) and the claim is plain interlacing."""
    rel = build_relation("narayana-perturbed", n)
    report = _new_report(rel, EVEN_QUOTIENT_CHECK)
    report.premise_kind = "even-quotient"
    shared = rel.P.evaluate(Fraction(-1)) == 0 and rel.G.evaluate(Fraction(-1)) == 0
    report.clauses["common_zero_at_minus_one"] = PASS if shared else FAIL_CLAUSE
    quotient, remainder = rel.G.divide_linear(Fraction(-1))
    if remainder != 0:
        report.clauses["quotient_interlace"] = FAIL_CLAUSE
        report.notes.append("reference polynomial not divisible by (x + 1)")
        return report
    zp = zeros_general(rel.P)
    zq = zeros_general(quotient)
    report.clauses["quotient_interlace"] = _verdict_clause(
        interlaces_down(zp, zq, floor), INTERLACE_DOWN
    )
    report.notes.append("even branch: zeros of P against zeros of G/(x+1)")
    return report


def run_check(
    check_id: str, n: int, params: dict | None = None, floor: float = DEFAULT_FLOOR
) -> CheckReport:
    """Build the relation behind a named check and run its shape checker."""
    if check_id not in CHECK_TO_PAIR:
        raise InvalidParameterError(f"unknown check id {check_id!r}")
    if check_id == EVEN_QUOTIENT_CHECK and n % 2 == 0:
        return check_narayana_even_quotient(n, floor)
    rel = build_relation(CHECK_TO_PAIR[check_id], n, params)
    report = check_relation(rel, floor)
    report.check_id = check_id
    return report


def clause_names(check_id: str) -> tuple[str, ...]:
    """Every row name a sweep of ``check_id`` can write, in row order."""
    names = REPORT_ROWS + SHAPE_CLAUSES[PAIRS[CHECK_TO_PAIR[check_id]].shape]
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

    With y = D x, G = g(y) / D^deg G and Q = q(y) / D^deg Q.
    """

    g: list[int]
    q: list[int]
    de: int  # D E
    den: int  # D
    roots: dict  # term name -> (numerators of its drawn zeros, D)
    support: tuple[float, float]  # hull of the zeros and E, widened by 1


def _scaled_draw(g_nums, q_nums, den: int, e: Fraction) -> _Draw:
    """The draw with zeros g_nums / den and q_nums / den, brought over lcm(den, den of E)."""
    big = math.lcm(den, e.denominator)
    if big != den:
        scale = big // den
        g_nums = [x * scale for x in g_nums]
        q_nums = [x * scale for x in q_nums]
    de = e.numerator * (big // e.denominator)
    hull = (*g_nums, *q_nums, de)
    return _Draw(
        g=root_product(g_nums),
        q=root_product(q_nums),
        de=de,
        den=big,
        roots={"G": (tuple(g_nums), big), "Q": (tuple(q_nums), big)},
        support=(min(hull) / big - 1.0, max(hull) / big + 1.0),
    )


def _combination(*pairs) -> list[int]:
    """The integer coefficients of the sum of the products f g over ``pairs``, trimmed."""
    out: list[int] = []
    for f, g in pairs:
        product = _convolve(f, g)
        out += [0] * (len(product) - len(out))
        for k, c in enumerate(product):
            out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _oracle_relation(shape, A, B, e, c, draw: _Draw) -> MixedRelation:
    """A synthetic relation whose monic P is c(D x) up to scale."""
    rel = MixedRelation(
        rel_id="oracle-" + shape.replace("_", "-"),
        shape=shape,
        sign=SHAPES[shape][0],
        A=A,
        B=B,
        E=e,
        P=Polynomial.from_scaled(c, draw.den, c[-1]),
        G=Polynomial.from_scaled(draw.g, draw.den),
        Q=Polynomial.from_scaled(draw.q, draw.den),
        support=draw.support,
        params={"n": len(c) - 1},
    )
    rel.roots = draw.roots
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
    A = c_n / D^2 and P_k = c_k / (c_n D^(n-k)).
    """
    n = len(g_nums) - 1
    draw = _scaled_draw(g_nums, q_nums, den, e)
    g, q, de, den = draw.g, draw.q, draw.de, draw.den
    b = g[n] - q[n] + de
    if b == de:  # B(E) = 0
        return None
    c = _combination(([b, -1], g), ([-de, 1], q))
    if len(c) != n + 1:
        return None
    if require_positive_a and c[-1] <= 0:
        return None
    A = Polynomial.from_ints([c[-1]], den * den)
    return _oracle_relation(PAIR_UP, A, Polynomial.from_ints([b, -den], den), e, c, draw)


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
    c = _combination(([u], draw.g), ([v * draw.de, -v], draw.q))
    if len(c) != n + 1 or c[-1] <= 0:
        return None
    A = Polynomial.from_ints([c[-1]], v)
    return _oracle_relation(DOWN_ONE, A, Polynomial([b_const]), e, c, draw)


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
    if n < 1:
        raise InvalidParameterError("down-one oracle needs n >= 1")
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
