"""Mixed recurrence relations A*P = B*G +- (x-E)*Q and their checkers.

A relation is stored with all polynomials exact (integer vectors over one
denominator) so the identity itself can be certified exactly (coefficientwise
zero residual).  Each shape has one checker, the only code that states its
clauses: it tests the stated hypotheses and decides every conclusion clause
of the matching interlacing statement, producing a witness-carrying report.
The checker reads each clause as one order of zeros, and ``check_relation``
gives it the one source that decides those orders for the relation: the
exact drawn zeros of G and Q (``_DrawnOrders``, integer bisections and signs;
the random oracles), or the recurrence chain G is read on (``_ChainOrders``,
integer counts along a three-term recurrence; every named check, the
Narayana ones along the chain of P^(1,1)).  A source places points among
the zeros of G and gives Q's signs there; one core (``_Orders``) reads the
premise, E's place, P's signs through the identity and every order from
those.  Neither source solves a zero set or holds anything to a floor.

Two relation shapes are supported, named by the degrees of G and Q
relative to deg P = n:

* ``pair_up``:  deg G = deg Q = n + 1, sign +
* ``down_one``: deg G = n, deg Q = n - 1, sign -

Seed-deterministic random generators build synthetic instances of both
shapes from scratch (interlaced rational zero draws), giving a constructive
property-test oracle for the checkers.  The points are drawn as integer
numerators over one denominator, every term is formed on integers over it,
and the drawn zeros of G and Q are kept (``MixedRelation.roots``).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import certify, families
from .families import (
    InvalidParameterError,
    exact_rational,
    monic_by_recurrence,
)
from .interlacing import ALTERNATE, FAIL, INCONCLUSIVE, INTERLACE_DOWN, Verdict
from .poly import (
    Polynomial,
    _combination,
    _integer_form,
    monic_linear,
    products_cancel,
    root_product,
)

# The four interlacing predicates, zeros_orthogonal and zeros_general are not
# called here, but the benchmark's span tracer (perfbench/tracer.py) wraps
# them under this module's name.
from .interlacing import added_point_interlace, alternates, interlaces_down, locate_point  # noqa: F401
from .rootfind import zeros_general, zeros_orthogonal  # noqa: F401

PAIR_UP = "pair_up"
DOWN_ONE = "down_one"

#: shape -> (sign, deg G - deg P, deg Q - deg P)
SHAPES = {PAIR_UP: (1, 1, 1), DOWN_ONE: (-1, 0, -1)}

PASS = "pass"
FAIL_CLAUSE = "fail"
SKIPPED = "skipped"

# Every row name a check can write, in the order its rows come.
#: the rows of every report, ahead of its clauses (``CheckReport.row_results``)
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
    #: exact ends (int or Fraction) of the weight's interval; None marks an open end
    support: tuple = (None, None)
    params: dict = field(default_factory=dict)
    #: exact identity verdict, reached once at construction
    certified: bool = field(init=False, repr=False, compare=False)
    #: term name ("G", "Q") -> (nums, den): its exact zeros nums[i] / den, over
    #: one den for both
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
    #: interval the members' weight lives on, exact ends (int or Fraction);
    #: None marks an open end
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


_HALF_LINE = lambda n, **_: (0, None)  # noqa: E731
_JACOBI_INTERVAL = lambda n, **_: (-1, 1)  # noqa: E731

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
        support=lambda n, p, N: (0, N.numerator + 1),
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

    @property
    def e_float(self) -> float | None:
        """E as a double, or None when E lies outside the double range."""
        try:
            return float(self.e_value)
        except OverflowError:
            return None

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "shape": self.shape,
            "params": {k: str(v) for k, v in self.params.items()},
            "E": str(self.e_value),
            "E_float": self.e_float,
            "identity_ok": self.identity_ok,
            "hypotheses": dict(self.hypotheses),
            "premise": self.premise.to_json() if self.premise else None,
            "premise_kind": self.premise_kind,
            "e_position": self.e_position,
            "clauses": dict(self.clauses),
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def row_results(self) -> list[tuple[str, str]]:
        """(row name, result) of the identity, hypotheses and premise
        pseudo-clauses, then of every clause, in row order.

        A violated hypothesis on an otherwise clean point is recorded as
        "degenerate" rather than "fail": the statement does not apply there.
        """
        if self.hypotheses_ok:
            hyp_result = PASS
        else:
            hyp_result = "degenerate" if self.passed else FAIL_CLAUSE
        if self.premise_kind is not None:
            prem_result = PASS
        else:
            prem_result = SKIPPED if not self.hypotheses_ok else FAIL_CLAUSE
        results = (PASS if self.identity_ok else FAIL_CLAUSE, hyp_result, prem_result)
        return [*zip(REPORT_ROWS, results), *self.clauses.items()]

    def csv_rows(self, extra: dict | None = None) -> list[dict]:
        """One flat row per ``row_results`` entry: ``extra``, the parameters,
        then the clause and its result."""
        base = dict(extra or {})
        base.update({k: str(v) for k, v in self.params.items()})
        return [{**base, "clause": name, "result": result} for name, result in self.row_results()]


def _a_positive(rel: MixedRelation) -> bool:
    """A > 0 inside the support, decided exactly; A has degree <= 1.

    A constant A is decided by its sign.  A linear A is smallest at one end of
    the support, and is positive inside it iff its value there is >= 0; an
    open end (None) is -inf or +inf, where a linear A is unbounded below.
    """
    nums = rel.A.nums
    if len(nums) > 2:
        raise InvalidParameterError(
            f"{rel.rel_id}: a_positive decides A of degree <= 1 only (got degree {len(nums) - 1})"
        )
    if len(nums) < 2:
        return bool(nums) and nums[0] > 0
    end = rel.support[0 if nums[1] > 0 else 1]
    return end is not None and rel.A.evaluate(end) >= 0


def _new_report(rel: MixedRelation) -> CheckReport:
    return CheckReport(
        check_id=rel.rel_id,
        shape=rel.shape,
        params=dict(rel.params),
        e_value=rel.E,
        identity_ok=rel.certified,
    )


class _Orders:
    """The one core of both exact order sources: the premise and the orders
    ``check_relation`` names, read from signs at the m ascending zeros of G.

    A source places a rational x among those zeros (``_place(x)``: how many
    lie above x, and whether x is one of them), gives Q's sign at each, and
    words the extreme note.  From those the core reads the premise, Q's
    zeros against G's, as one pattern of sign changes of Q, and places E
    and A's root (deg A <= 1).  It reads P's sign at each zero g by fact 1:
    A(g) P(g) = s (g - E) Q(g) by the identity, s the relation's ``sign``,
    so sign P(g) = s sign A(g) sign(g - E) sign Q(g), which is 0 at g = E,
    as P(E) is.  Only at A's root does that read nothing of P(g), so P's
    sign there is taken directly, as is Q's at E (``e_on_q``).  Every order
    of P is then one pattern of sign changes too (``_sign_order``).
    """

    def __init__(self, rel: MixedRelation, q_signs: list[int]):
        m = len(q_signs)
        above, on = self._place(rel.E)
        self.m, self.above = m, above
        self.position = (
            "unknown" if on else "below" if above == m else "above" if above == 0 else "interior"
        )
        self.slot = m - above if self.position == "interior" else None
        self.e_sides = _sides(above, on, m)
        a_nums = rel.A.nums  # one of degree 2 or more is refused as _open_report reads a_positive
        if not a_nums:
            raise InvalidParameterError(f"{rel.rel_id}: A is 0, so the identity reads no sign of P")
        a_on = False
        if len(a_nums) == 2:
            a_root = Fraction(-a_nums[0], a_nums[1])
            a_above, a_on = self._place(a_root)
            a_signs = [_sign(a_nums[1]) * x for x in _sides(a_above, a_on, m)]
        else:
            a_signs = [_sign(a_nums[0])] * m
        signs = [rel.sign * a * e * q for a, e, q in zip(a_signs, self.e_sides, q_signs)]
        if a_on:  # A(g) = 0 at that zero of G
            signs[m - a_above - 1] = certify.signs_at(
                rel.P.nums, (a_root.numerator,), a_root.denominator
            )[0]
        self.p_signs = signs
        self.no_common_zeros_g_p = all(signs)
        self.lead, self.n = _sign(rel.P.nums[-1]), rel.P.degree
        Q = rel.Q
        self.q_signs, self.q_lead, self.q_degree = q_signs, _sign(Q.nums[-1]), Q.degree
        self.e_on_q = not certify.signs_at(Q.nums, (rel.E.numerator,), rel.E.denominator)[0]

    def premise(self, lower: str, upper: str) -> Verdict:
        """The Verdict on the zeros of ``lower`` ("G" or "Q") interlacing those
        of the other, ``upper``, lowest first: one pattern of sign changes of
        Q along G's zeros (``_sign_order``).  A failure's witness indexes
        G's zeros: (k, k) for the first zero of G that Q shares, else
        (k - 1, k) for the first gap of G across which Q keeps its sign,
        else (0, 0), where the zero that comes first is not ``lower``'s.
        """
        signs, m = self.q_signs, self.m
        if _sign_order(signs, None, self.q_lead, self.q_degree, "Q", lower):
            return Verdict(ALTERNATE if self.q_degree == m else INTERLACE_DOWN)
        if 0 in signs:
            k = signs.index(0)
            return Verdict(FAIL, witness=(k, k))
        k = next((k for k in range(1, m) if signs[k - 1] == signs[k]), None)
        return Verdict(FAIL, witness=(0, 0) if k is None else (k - 1, k))

    def extreme(self, top: bool) -> tuple[str, int]:
        """The note's evidence, and the sign of E minus G's largest (``top``) or smallest zero."""
        return self._extreme_note(top), -self.e_sides[-1 if top else 0]

    def order(self, subject: str, first: str) -> bool:
        return _sign_order(self.p_signs, self.e_sides, self.lead, self.n, subject, first)


class _DrawnOrders(_Orders):
    """The order core on the drawn zeros of G and Q (``rel.roots``), integer
    numerators over one denominator D: a point x is placed among those of G
    by bisection on the floor of x D, and Q's sign at each zero of G by
    bisection among those of Q.  P's signs come through the identity, so it
    raises on a relation that is not certified.
    """

    def __init__(self, rel: MixedRelation):
        if not rel.certified:
            raise ValueError(f"{rel.rel_id}: the drawn zeros decide only a certified relation")
        g_nums, self.den = rel.roots["G"]
        g, q = sorted(g_nums), sorted(rel.roots["Q"][0])
        self.g = g
        self.e = rel.E
        # Q's sign at x: its leading sign, flipped once for each zero of Q above x
        q_lead, top = _sign(rel.Q.nums[-1]), len(q)
        q_signs = []
        for x in g:
            k = bisect_left(q, x)
            q_signs.append(0 if k < top and q[k] == x else -q_lead if (top - k) % 2 else q_lead)
        super().__init__(rel, q_signs)

    def _place(self, x: Fraction) -> tuple[int, bool]:
        g = self.g
        k, r = divmod(x.numerator * self.den, x.denominator)  # x D is k, or between k and k + 1
        j = bisect_right(g, k)
        return len(g) - j, not r and j > 0 and g[j - 1] == k

    def _extreme_note(self, top: bool) -> str:
        return _bound_evidence(self.g[-1 if top else 0] / self.den, float(self.e))


def _bound_evidence(bound: float, e: float) -> str:
    """The note's evidence for an extreme zero of G that a source holds as a number."""
    return f"{bound:.9g} vs E = {e:.9g}"


def _sign_order(p_signs, e_sides, lead: int, degree: int, subject: str, first: str) -> bool:
    """Whether the zeros of ``subject`` interlace G's with ``first``'s lowest, read from signs.

    ``p_signs`` are P's signs at the ascending zeros of G, ``lead`` the sign
    of its leading coefficient and ``degree`` its degree.  For the subject
    "EP", (x - E) P, ``e_sides`` are the signs of each of those zeros minus
    E.  Each merged order is one pattern of sign changes along -inf, the
    zeros of G, +inf (``certify.sign_changes``).
    """
    signs = p_signs
    if subject == "EP":
        # (x - E) P: P's leading coefficient, one degree up
        signs = [s * e for s, e in zip(signs, e_sides)]
        degree += 1
    # one zero of the subject below G's lowest iff it comes first, one
    # between each two neighbouring zeros of G, and the rest above G's highest
    lowest = int(first == subject)
    m = len(signs)
    if not m:  # one interval, the whole line, holding that one zero or none
        return degree == lowest
    changes = certify.sign_changes(signs, lead, degree)
    return changes == (lowest, *(1,) * (m - 1), degree - m + 1 - lowest)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _alternating(s: int, m: int) -> list[int]:
    """s (-1)^(m-1-i) for i = 0, ..., m - 1: s at the last entry."""
    return ([s, -s] * m)[m - 1 : 2 * m - 1]


def _sides(above: int, on: bool, m: int) -> list[int]:
    """The sign of g - x at each of the m ascending zeros g of G, for a point x
    with ``above`` zeros of G above it, which is (``on``) or is not one of them."""
    return [-1] * (m - above - on) + [0] * on + [1] * above


class _ChainOrders(_Orders):
    """The order core along the recurrence chain G is read on
    (``families.chain_reading``): an orthogonal family's member p_m along its
    own chain, or the reduced Narayana polynomial along the chain of P^(1,1)
    seen through t = (1 + x) / (1 - x).  No zero set is solved and none is
    undecided.

    A point is placed among the zeros of G by one count along the chain
    (``certify.zeros_above``).  Q = t G + c1 G1 + c2 G2 exactly, G1 and G2
    being the chain's members of degree m - 1 and m - 2
    (``certify.chain_coefficients``; on the Narayana chain, Q = c1 G1 is
    certified with G).  Since G = (x - c_m) G1 - l_m G2, Q(g) = L(g) G1(g)
    at each zero g of G, with L = c1 + c2 (x - c_m) / l_m, and G1 alternates
    in sign on the zeros of G: Q's signs there are L's times G1's.

    The identity and the chain are all it reads, so it decides only a
    certified relation whose G is its spec's chain member, and raises on any
    other.
    """

    def __init__(self, rel: MixedRelation):
        reading = families.chain_reading(rel.specs["G"])
        m = reading.m
        member, coeffs = reading.link(rel.G, rel.Q) if rel.certified else (False, None)
        if not member:
            raise ValueError(
                f"{rel.rel_id}: the chain decides only a certified relation whose G "
                f"is the degree-{m} member of its spec's chain"
            )
        if coeffs is None:
            raise InvalidParameterError(
                f"{rel.rel_id}: Q is not t G + c1 G1 + c2 G2 on the recurrence chain of G"
            )
        self._zeros_above = reading.zeros_above

        (c1, d1), (c2, d2) = (*coeffs[1:], (0, 1), (0, 1))[:2]
        # Q's sign at each zero of G, L's times G1's: G1 is monic with one
        # zero in each gap between G's, so its sign at zero i is (-1)^(m-1-i).
        # c2 is nonzero on an orthogonal member's own chain only, whose steps
        # are in x.
        self._l_root = None
        if c2:
            a, b, u, v = reading.steps[m - 1]
            root = Fraction(a * d1 * v * c2 - b * c1 * u * d2, b * d1 * v * c2)  # c_m - c1 l_m / c2
            self._l_root, self._l_at = root, reading.zeros_above(root)
            l_sides = _sides(*self._l_at, m)
            q_signs = [x * g for x, g in zip(l_sides, _alternating(_sign(c2 * d2), m))]
        else:
            q_signs = _alternating(_sign(c1 * d1), m)
        super().__init__(rel, q_signs)

    def _place(self, x: Fraction) -> tuple[int, bool]:
        # A's root is L's in jacobi-3.5: one count places both
        return self._l_at if x == self._l_root else self._zeros_above(x)

    def _extreme_note(self, top: bool) -> str:
        return f"{self.above} of {self.m} zeros of G lie above E"


def _open_report(rel: MixedRelation, orders) -> CheckReport:
    """A report with E's one position among the zeros of G, read from the
    order source ``orders``, and the four hypotheses in report order and
    their notes."""
    report = _new_report(rel)
    position, slot = orders.position, orders.slot
    report.e_position = position if slot is None else f"{position}({slot})"
    report.hypotheses["b_at_e_nonzero"] = rel.B.evaluate(rel.E) != 0
    report.hypotheses["e_not_on_g_zero"] = position != "unknown"
    report.hypotheses["no_common_zeros_g_p"] = orders.no_common_zeros_g_p
    report.hypotheses["a_positive"] = _a_positive(rel)
    if orders.e_on_q:
        report.notes.append("E sits on a zero of Q (permitted, logged)")
    if not report.hypotheses_ok:
        violated = sorted(k for k, v in report.hypotheses.items() if not v)
        report.notes.append(
            "hypotheses violated, conclusions out of scope: " + ", ".join(violated)
        )
    return report


def _clause_result(holds: bool | None) -> str:
    return SKIPPED if holds is None else PASS if holds else FAIL_CLAUSE


def _skip_rest(report: CheckReport, names) -> CheckReport:
    """Mark each clause in ``names`` that is not yet decided as skipped."""
    for name in names:
        report.clauses.setdefault(name, SKIPPED)
    return report


_PREMISE_NOTES = {
    PAIR_UP: "premise failed: zero sets of Q and G do not alternate",
    DOWN_ONE: "premise failed: zeros of Q do not interlace below G",
}


def _premise_failed(report: CheckReport, verdict: Verdict) -> CheckReport:
    """Record the failed premise and skip every clause of the shape."""
    report.premise = verdict
    report.notes.append(_PREMISE_NOTES[report.shape])
    return _skip_rest(report, SHAPE_CLAUSES[report.shape])


def check_pair_up(rel: MixedRelation, orders) -> CheckReport:
    """Checker for the shape with G and Q one degree above P.

    The premise is alternation of Q and G in either orientation; the clauses
    are the E-position bound, the added-point interlacing statement, and the
    two-directional full-interlacing iff, each read from the order source
    ``orders`` (``check_relation``).
    """
    if rel.shape != PAIR_UP:
        raise InvalidParameterError(f"check_pair_up got shape {rel.shape}")
    report = _open_report(rel, orders)

    premise = orders.premise("Q", "G")
    if premise.kind == ALTERNATE:
        report.premise_kind = "q_below_g"
    else:
        flipped = orders.premise("G", "Q")
        if flipped.kind != ALTERNATE:
            return _premise_failed(report, premise if premise.kind == INCONCLUSIVE else flipped)
        report.premise_kind, premise = "g_below_q", flipped
    report.premise = premise

    # The E-position bound: E below the largest zero of G (case 1) or above
    # the smallest (case 2).  Evaluated regardless of the other hypotheses;
    # the impossible-region property rests on this clause.
    case_low = report.premise_kind == "q_below_g"
    evidence, side = orders.extreme(top=case_low)
    want = -1 if case_low else 1  # the side of that zero E must be on
    report.clauses["e_position"] = _clause_result(side == want if side else None)
    report.notes.append(f"extreme zero of G {'above' if case_low else 'below'} E: {evidence}")

    if not report.hypotheses_ok:
        return _skip_rest(report, PAIR_UP_CLAUSES)

    # (x - E) P alternates with G, its extra zero below G's (case 1) or above.
    report.clauses["added_point"] = _clause_result(orders.order("EP", "EP" if case_low else "G"))

    # Full interlacing of G (degree n+1) onto P (degree n) holds iff E lies
    # outside the zero range of G on the case's side.
    full = orders.order("P", "G")
    outside = orders.position == ("below" if case_low else "above")
    report.clauses["full_iff"] = _clause_result(None if full is None else outside == full)
    return report


def check_down_one(rel: MixedRelation, orders) -> CheckReport:
    """Checker for G at P's degree and Q one below, on the order source ``orders``."""
    if rel.shape != DOWN_ONE:
        raise InvalidParameterError(f"check_down_one got shape {rel.shape}")
    report = _open_report(rel, orders)

    premise = orders.premise("G", "Q")
    if premise.kind != INTERLACE_DOWN:
        return _premise_failed(report, premise)
    report.premise_kind, report.premise = "g_then_q", premise

    if not report.hypotheses_ok:
        return _skip_rest(report, DOWN_ONE_CLAUSES)

    # (x - E) P interlaces one degree down onto G; P alternates with G, its
    # zero first (E above) or G's first (E below).
    report.clauses["added_point"] = _clause_result(orders.order("EP", "EP"))
    above, below = orders.position == "above", orders.position == "below"
    report.clauses["full_when_e_above"] = _clause_result(orders.order("P", "P")) if above else SKIPPED
    report.clauses["full_when_e_below"] = _clause_result(orders.order("P", "G")) if below else SKIPPED
    return report


SHAPE_CHECKERS = {PAIR_UP: check_pair_up, DOWN_ONE: check_down_one}
SHAPE_CLAUSES = {PAIR_UP: PAIR_UP_CLAUSES, DOWN_ONE: DOWN_ONE_CLAUSES}


def check_relation(rel: MixedRelation) -> CheckReport:
    """The shape checker's report on ``rel``, its orders read from one exact source.

    A relation that carries drawn zeros is decided on them (``_DrawnOrders``),
    else along the recurrence chain its G is read on (``_ChainOrders``),
    which G's spec must name (``families.CHAIN_KINDS``).  Either gives only
    its placement of a point among the zeros of G, Q's signs there and the
    extreme note's wording; the core both subclass (``_Orders``) reads the
    rest.

    A checker reads from its order source E's ``position`` and ``slot``
    among the zeros of G, ``no_common_zeros_g_p`` and ``e_on_q``, and asks
    it ``premise(lower, upper)``, the Verdict on the zeros of ``lower`` ("G"
    or "Q") interlacing those of ``upper``, lowest first; ``extreme(top)``,
    the evidence the report's note prints and the sign of E minus G's
    largest (or smallest) zero; and ``order(subject, first)``, whether the
    zeros of ``subject`` ("P", or "EP" for (x - E) P) interlace G's with
    ``first``'s lowest.

    The checkers also take a source that leaves an order undecided (an
    Inconclusive premise, a side of 0, an order of None), and skip what it
    leaves; the exact sources leave nothing.
    """
    spec = rel.specs.get("G")
    if rel.roots:
        orders = _DrawnOrders(rel)
    elif spec is not None and spec.kind in families.CHAIN_KINDS:
        orders = _ChainOrders(rel)
    else:
        raise ValueError(f"{rel.rel_id}: no drawn zeros or recurrence chain to decide on")
    return SHAPE_CHECKERS[rel.shape](rel, orders)


# ---------------------------------------------------------------------------
# Named checks (the CLI surface)
# ---------------------------------------------------------------------------


def check_narayana_even_quotient(rel: MixedRelation) -> CheckReport:
    """Report on narayana-3.4 at even n: P and G share the zero E = -1, and the
    claim is that the zeros of P interlace those of the exact quotient
    G / (x - E).

    Decided along G's chain (``_ChainOrders``), with no zero set solved: the
    zeros of that quotient are those of G other than E, and P's signs there
    come from the identity, so the claim is one pattern of sign changes
    (``_sign_order``), P's zero first.
    """
    report = _new_report(rel)
    report.premise_kind = "even-quotient"
    orders = _ChainOrders(rel)
    on = orders.position == "unknown"  # E is a zero of G
    k = orders.m - 1 - orders.above  # and then its index among them
    report.clauses["common_zero_at_minus_one"] = (
        PASS if on and orders.p_signs[k] == 0 else FAIL_CLAUSE
    )
    if not on:
        report.clauses["quotient_interlace"] = FAIL_CLAUSE
        report.notes.append("reference polynomial not divisible by (x + 1)")
        return report
    others = orders.p_signs[:k] + orders.p_signs[k + 1 :]
    holds = _sign_order(others, None, orders.lead, orders.n, "P", "P")
    report.clauses["quotient_interlace"] = _clause_result(holds)
    report.notes.append("even branch: zeros of P against zeros of G/(x+1)")
    return report


def decide(rel: MixedRelation) -> CheckReport:
    """The report on a named check's built relation: decided along G's chain
    (``check_relation``), or at even n for narayana-3.4 on P against
    G / (x - E) (``check_narayana_even_quotient``)."""
    if rel.rel_id == EVEN_QUOTIENT_CHECK and rel.params["n"] % 2 == 0:
        return check_narayana_even_quotient(rel)
    return check_relation(rel)


def run_check(check_id: str, n: int, params: dict | None = None) -> CheckReport:
    """The report of a named check: its relation built, then decided (``decide``)."""
    return decide(build_relation(check_id, n, params))


def clause_names(check_id: str) -> tuple[str, ...]:
    """Every row name a sweep of ``check_id`` can write, in row order."""
    names = REPORT_ROWS + SHAPE_CLAUSES[CHECKS[check_id].shape]
    if check_id == EVEN_QUOTIENT_CHECK:
        names += EVEN_QUOTIENT_CLAUSES
    return names + (BUILD_ROW,)


# ---------------------------------------------------------------------------
# Constructive random oracles
# ---------------------------------------------------------------------------


#: draws an oracle makes before it gives up on a degree and seed
_ORACLE_TRIES = 64

#: ``_rational_uniform`` draws from this many equal steps of its interval
_UNIFORM_STEPS = 4096


def _rational_uniform(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(_UNIFORM_STEPS + 1), _UNIFORM_STEPS)


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
) -> MixedRelation:
    """Random verified pair-up instance; seed-deterministic.

    ``orientation`` pins which of the two alternation directions the G and Q
    draws satisfy ("q_below_g" or "g_below_q"); ``force_e="above_max"``
    places E above every zero of G and disables the positive-A resample,
    which is how the impossible-region property is exercised.
    """
    check_oracle_degree("pair-up", n)
    rng = random.Random(f"pair-up:{n}:{seed}:{orientation}:{force_e}")
    for _ in range(_ORACLE_TRIES):
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


def oracle_down_one(n: int, seed: int, e_region: str | None = None) -> MixedRelation:
    """Random verified down-one instance; seed-deterministic.

    ``e_region`` pins E below all zeros of G, inside a gap, or above all.
    """
    check_oracle_degree("down-one", n)
    rng = random.Random(f"down-one:{n}:{seed}:{e_region}")
    for _ in range(_ORACLE_TRIES):
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
