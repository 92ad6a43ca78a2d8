"""Constructors for the polynomial families under study.

Each member is built monic with exact rational coefficients, one route per
kind: the orthogonal families and the raw Narayana polynomial from their
three-term recurrences, the reduced and perturbed Narayana polynomials from
their closed-form coefficients.  The Christoffel variant is built two
independent ways that must agree exactly.

An orthogonal family's recurrence coefficients depend on the step and the
parameters only, so one forward run per (kind, parameters) yields every
member and every coefficient prefix.  Inside ``chain_scope()`` that run is
kept and extended on demand; outside one, each call runs it afresh.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial, _integer_form

ORTHOGONAL_KINDS = ("jacobi", "laguerre", "krawtchouk", "meixner")
NARAYANA_KINDS = (
    "narayana",
    "narayana-reduced",
    "narayana-christoffel",
    "narayana-perturbed",
)
ALL_KINDS = ORTHOGONAL_KINDS + NARAYANA_KINDS

# Parameter names accepted per family kind.
PARAM_NAMES = {
    "jacobi": ("alpha", "beta"),
    "laguerre": ("alpha",),
    "krawtchouk": ("p", "N"),
    "meixner": ("t", "w"),
    "narayana": (),
    "narayana-reduced": (),
    "narayana-christoffel": (),
    "narayana-perturbed": (),
}


class InvalidParameterError(ValueError):
    """A family parameter violates the family's validity constraints."""


class ConstructionError(RuntimeError):
    """Two independent construction routes for one polynomial disagree."""


def exact_rational(value) -> Fraction:
    """``Fraction(value)``, refusing binary floats rather than reading their exact value.

    A ``Fraction`` is already exact and comes back as the same object.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise InvalidParameterError(
            f"parameters must be exact rationals, got float {value!r}"
        )
    return Fraction(value)


@dataclass(frozen=True)
class FamilySpec:
    """One concrete family member: kind, exact rational parameters, degree index."""

    kind: str
    params: tuple[tuple[str, Fraction], ...]
    n: int

    @classmethod
    def make(cls, kind: str, n: int, **params) -> "FamilySpec":
        if kind not in ALL_KINDS:
            raise InvalidParameterError(f"unknown family kind {kind!r}")
        names = PARAM_NAMES[kind]
        if set(params) != set(names):
            raise InvalidParameterError(
                f"{kind} expects parameters {names}, got {tuple(sorted(params))}"
            )
        as_fracs = tuple((name, exact_rational(params[name])) for name in names)
        spec = cls(kind, as_fracs, int(n))
        spec.validate()
        return spec

    def param(self, name: str) -> Fraction:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def validate(self) -> None:
        # Each bound is tested on a parameter's numerator against its positive
        # denominator: x > -1 iff num > -den, and 0 < x < 1 iff 0 < num < den.
        n = self.n
        if n < 0:
            raise InvalidParameterError(f"degree index must be nonnegative, got n={n}")
        kind = self.kind
        if kind == "jacobi":
            alpha, beta = self.param("alpha"), self.param("beta")
            if alpha.numerator <= -alpha.denominator:
                raise InvalidParameterError(f"jacobi requires alpha > -1 (got alpha={alpha})")
            if beta.numerator <= -beta.denominator:
                raise InvalidParameterError(f"jacobi requires beta > -1 (got beta={beta})")
        elif kind == "laguerre":
            alpha = self.param("alpha")
            if alpha.numerator <= -alpha.denominator:
                raise InvalidParameterError(f"laguerre requires alpha > -1 (got alpha={alpha})")
        elif kind == "krawtchouk":
            p, N = self.param("p"), self.param("N")
            if not (0 < p.numerator < p.denominator):
                raise InvalidParameterError(f"krawtchouk requires 0 < p < 1 (got p={p})")
            if N.denominator != 1 or N.numerator < 1:
                raise InvalidParameterError(f"krawtchouk requires integer N >= 1 (got N={N})")
            if n > N.numerator:
                raise InvalidParameterError(f"krawtchouk requires n <= N (got n={n}, N={N})")
        elif kind == "meixner":
            t, w = self.param("t"), self.param("w")
            if t.numerator <= 0:
                raise InvalidParameterError(f"meixner requires t > 0 (got t={t})")
            if not (0 < w.numerator < w.denominator):
                raise InvalidParameterError(f"meixner requires 0 < w < 1 (got w={w})")
        elif kind == "narayana" or kind == "narayana-reduced":
            if n < 1:
                raise InvalidParameterError(f"{kind} requires n >= 1 (got n={n})")
        elif kind in ("narayana-christoffel", "narayana-perturbed"):
            if n < 2:
                raise InvalidParameterError(f"{kind} requires n >= 2 (got n={n})")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": {name: str(value) for name, value in self.params},
            "n": self.n,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        params = {name: Fraction(value) for name, value in obj.get("params", {}).items()}
        return cls.make(obj["kind"], obj["n"], **params)


def jacobi(alpha, beta, n: int) -> FamilySpec:
    return FamilySpec.make("jacobi", n, alpha=alpha, beta=beta)


def laguerre(alpha, n: int) -> FamilySpec:
    return FamilySpec.make("laguerre", n, alpha=alpha)


def krawtchouk(p, N, n: int) -> FamilySpec:
    return FamilySpec.make("krawtchouk", n, p=p, N=N)


def meixner(t, w, n: int) -> FamilySpec:
    return FamilySpec.make("meixner", n, t=t, w=w)


def narayana_spec(kind: str, n: int) -> FamilySpec:
    return FamilySpec.make(kind, n)


# ---------------------------------------------------------------------------
# Three-term recurrence: P_{k+1} = (x - c_{k+1}) P_k - l_{k+1} P_{k-1}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Diagonal (c) and off-diagonal (lam) recurrence terms, step-indexed.

    ``c[k]`` and ``lam[k]`` drive the step producing degree k+1; ``lam[0]``
    multiplies P_{-1} = 0 and is stored as 0.
    """

    c: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]


#: one recurrence step (a, b, u, v): c_k = a / b and l_k = u / v, each in lowest
#: terms over a positive denominator
Step = tuple[int, int, int, int]


def _step(a: int, b: int, u: int, v: int) -> Step:
    """The step c = a / b, l = u / v in its stored form, as ``Fraction`` would reduce it."""
    g, h = math.gcd(a, b), math.gcd(u, v)
    if b < 0:
        g = -g
    if v < 0:
        h = -h
    return a // g, b // g, u // h, v // h


def _jacobi_step(a: int, b: int, d: int, k: int) -> Step:
    # alpha = a/d, beta = b/d; s = d (2k + alpha + beta)
    if k == 0:
        return _step(b - a, a + b + 2 * d, 0, 1)
    s = 2 * k * d + a + b
    if k == 1:
        e = a + b + 2 * d
        return _step(b * b - a * a, s * (s + 2 * d), 4 * d * (d + a) * (d + b), e * e * (e + d))
    kd = k * d
    l_num = 4 * kd * (kd + a) * (kd + b) * (kd + a + b)
    return _step(b * b - a * a, s * (s + 2 * d), l_num, s * s * (s + d) * (s - d))


def _step_rule(spec: FamilySpec) -> Callable[[int], Step]:
    """The map k -> step k of ``spec``'s recurrence.

    Every step is formed from integer numerators of the parameters; it
    depends on k and the parameters only, never on the degree n.
    """
    kind = spec.kind
    if kind == "jacobi":
        (a, b), d = _integer_form((spec.param("alpha"), spec.param("beta")))
        return functools.partial(_jacobi_step, a, b, d)
    if kind == "laguerre":
        # alpha = a/d: c = 2k + alpha + 1, l = k (k + alpha)
        alpha = spec.param("alpha")
        a, d = alpha.numerator, alpha.denominator
        return lambda k: _step(2 * k * d + a + d, d, k * (k * d + a), d)
    if kind == "krawtchouk":
        # p = u/v: c = p (N - k) + k (1 - p), l = k p (1 - p) (N + 1 - k)
        p, N = spec.param("p"), spec.param("N").numerator
        u, v = p.numerator, p.denominator
        return lambda k: _step(u * (N - k) + k * (v - u), v, k * u * (v - u) * (N + 1 - k), v * v)
    if kind == "meixner":
        # t = a/d, w = u/v: c = (k + w (k + t)) / (1 - w),
        # l = w k (k + t - 1) / (1 - w)^2
        t, w = spec.param("t"), spec.param("w")
        a, d = t.numerator, t.denominator
        u, v = w.numerator, w.denominator
        c_den = d * (v - u)
        return lambda k: _step(
            k * v * d + u * (k * d + a), c_den, u * v * k * (k * d + a - d), c_den * (v - u)
        )
    raise InvalidParameterError(f"{kind} has no classical three-term recurrence coefficients")


class _Chain:
    """The recurrence of one (kind, parameters), run forward as far as asked.

    ``steps[k]`` drives the step to degree k + 1 and ``members[k]`` is the
    monic member of degree k.  Both only grow, so the member and the
    coefficients of any degree are prefixes of one run.
    """

    __slots__ = ("rule", "steps", "members")

    def __init__(self, rule: Callable[[int], Step]):
        self.rule = rule
        self.steps: list[Step] = []
        self.members = [Polynomial._of((1,), 1)]

    def steps_to(self, n: int) -> list[Step]:
        """The first n steps."""
        steps = self.steps
        while len(steps) < n:
            steps.append(self.rule(len(steps)))
        return steps[:n]

    def member(self, n: int) -> Polynomial:
        """The monic member of degree n.

        The recurrence runs on integer numerators.  Each member is kept as an
        integer vector over one common denominator; members are monic, so
        that denominator is the leading entry and needs no storage of its
        own.  A step brings both terms over the lcm of their denominators and
        divides out the content, so the vector stays primitive: it is the
        polynomial's stored form as it stands, with the leading entry as its
        denominator.
        """
        members = self.members
        built = len(members) - 1
        if n > built:
            prev = members[-2].nums if built else ()
            cur = members[-1].nums
            for a, b, u, v in self.steps_to(n)[built:]:
                cur_den = b * cur[-1]  # (x - a/b) P_k = (b x - a) cur / cur_den
                den = math.lcm(cur_den, v * prev[-1]) if u else cur_den
                scale = den // cur_den
                bs, as_ = b * scale, a * scale
                nxt = [-as_ * cur[0]]
                nxt += [bs * hi - as_ * lo for hi, lo in zip(cur, cur[1:])]
                nxt.append(bs * cur[-1])
                if u:
                    up = u * (den // (v * prev[-1]))
                    for i, q in enumerate(prev):
                        nxt[i] -= up * q
                g = math.gcd(*nxt)
                prev, cur = cur, tuple(x // g for x in nxt) if g > 1 else tuple(nxt)
                members.append(Polynomial._of(cur, cur[-1]))
        return members[n]


#: (kind, numerator, denominator, ... of each parameter) -> its chain, while a
#: chain scope is open.  A context variable, so a thread that opens no scope of
#: its own shares no chain.
_CHAINS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("chains", default=None)


@contextlib.contextmanager
def chain_scope():
    """Share one recurrence chain per (kind, parameters) among the calls inside.

    Outside a scope every call runs its recurrence afresh, so no chain
    outlives the block that opened the scope; a scope opened inside another
    starts empty, and the outer one is back on exit.  A forked child inherits
    the open scope and fills its own copy.
    """
    token = _CHAINS.set({})
    try:
        yield
    finally:
        _CHAINS.reset(token)


def param_key(spec: FamilySpec) -> tuple:
    """``spec``'s kind and each parameter's numerator and denominator.

    Equal for specs of equal kind and parameters, whatever their degree.  A
    key of integers: a Fraction hashes through a modular inverse on every call.
    """
    return (spec.kind, *[x for _, v in spec.params for x in (v.numerator, v.denominator)])


def _chain(spec: FamilySpec) -> _Chain:
    chains = _CHAINS.get()
    if chains is None:
        return _Chain(_step_rule(spec))
    key = param_key(spec)
    chain = chains.get(key)
    if chain is None:
        chain = chains[key] = _Chain(_step_rule(spec))
    return chain


def recurrence_steps(spec: FamilySpec) -> list[Step]:
    """The integer steps (a, b, u, v) of c_1..c_n and l_1..l_n for ``spec``."""
    return _chain(spec).steps_to(spec.n)


def recurrence_coeffs(spec: FamilySpec) -> RecurrenceCoeffs:
    """Exact recurrence coefficients c_1..c_n and l_1..l_n for ``spec``, as Fractions."""
    steps = recurrence_steps(spec)
    return RecurrenceCoeffs(
        tuple(Fraction(a, b) for a, b, _, _ in steps),
        tuple(Fraction(u, v) for _, _, u, v in steps),
    )


def monic_by_recurrence(spec: FamilySpec) -> Polynomial:
    """Build the degree-n member of ``spec`` exactly.

    The orthogonal kinds take their member from the chain of their
    parameters, and the raw Narayana polynomial runs its own forward
    recurrence; the other Narayana kinds take their closed forms.
    """
    if spec.kind in ORTHOGONAL_KINDS:
        return _chain(spec).member(spec.n)
    if spec.kind == "narayana":
        return _narayana_raw(spec.n)
    if spec.kind == "narayana-reduced":
        return narayana_reduced(spec.n)
    if spec.kind == "narayana-christoffel":
        return narayana_christoffel(spec.n)
    if spec.kind == "narayana-perturbed":
        return narayana_perturbed(spec.n)
    raise InvalidParameterError(f"unknown family kind {spec.kind!r}")


def _narayana_step(m: int, cur: Polynomial, prev: Polynomial) -> Polynomial:
    # (m+2) T_{m+1} = (2m+1)(x+1) T_m - (m-1)(x-1)^2 T_{m-1}
    sq = Polynomial([1, -2, 1])
    lhs = cur.mul_linear(-1).scale(Fraction(2 * m + 1, m + 2))
    rhs = (prev * sq).scale(Fraction(m - 1, m + 2))
    return lhs - rhs


def _narayana_raw(n: int) -> Polynomial:
    prev = Polynomial.zero()  # N_0, the empty sum
    cur = Polynomial([0, 1])  # N_1 = x
    if n == 1:
        return cur
    for m in range(1, n):
        prev, cur = cur, _narayana_step(m, cur, prev)
    return cur


def _narayana_nums(n: int) -> list[int]:
    """n times each triangle entry c_{n,k} = C(n,k) C(n,k-1) / n, k = 1..n."""
    return [math.comb(n, k) * math.comb(n, k - 1) for k in range(1, n + 1)]


def narayana_reduced(n: int) -> Polynomial:
    """Degree n-1 polynomial with coefficient of x^j equal to c_{n,j+1}."""
    if n < 1:
        raise InvalidParameterError(f"narayana_reduced requires n >= 1 (got n={n})")
    return Polynomial.from_ints(_narayana_nums(n), n)


def narayana_rho(n: int, reduced: tuple[Polynomial, Polynomial] | None = None) -> Fraction:
    """Ratio of reduced-polynomial values at x = 1 for indices n+1 and n.

    ``reduced`` is the pair (narayana_reduced(n), narayana_reduced(n + 1))
    when the caller has built it already.
    """
    low, high = reduced or (narayana_reduced(n), narayana_reduced(n + 1))
    closed = Fraction(2 * (2 * n + 1), n + 2)
    direct = high.evaluate(1) / low.evaluate(1)
    if closed != direct:
        raise ConstructionError(f"rho closed form disagrees with its definition at n={n}")
    return closed


def narayana_christoffel(n: int) -> Polynomial:
    """Kernel-style perturbation of the reduced polynomial at the point 1.

    Built two independent ways that must match exactly: synthetic division of
    the combination vanishing at 1, and the closed-form coefficient scaling
    (3n - 2j)/(n + 2) applied to the reduced coefficients.
    """
    if n < 2:
        raise InvalidParameterError(f"narayana_christoffel requires n >= 2 (got n={n})")
    low, high = narayana_reduced(n), narayana_reduced(n + 1)
    rho = narayana_rho(n, (low, high))
    numer = high - low.scale(rho)
    if numer.evaluate(1) != 0:
        raise ConstructionError(f"combination does not vanish at 1 for n={n}")
    by_division, remainder = numer.divide_linear(1)
    if remainder != 0:
        raise ConstructionError(f"nonzero remainder dividing out (x - 1) at n={n}")
    # (3n - 2j) / (n + 2) times c_{n,j+1}
    by_formula = Polynomial.from_ints(
        [(3 * n - 2 * j) * c for j, c in enumerate(_narayana_nums(n))], n * (n + 2)
    )
    if by_division != by_formula:
        raise ConstructionError(
            f"division route and coefficient formula disagree at n={n}"
        )
    return by_formula


def narayana_perturbed(n: int) -> Polynomial:
    """Degree n-1 polynomial with coefficient C(n-1,j)^2 + C(n-1,j+1) C(n-1,j-1)."""
    if n < 2:
        raise InvalidParameterError(f"narayana_perturbed requires n >= 2 (got n={n})")

    def comb0(m: int, r: int) -> int:
        return math.comb(m, r) if 0 <= r <= m else 0

    return Polynomial.from_ints(
        [comb0(n - 1, j) ** 2 + comb0(n - 1, j + 1) * comb0(n - 1, j - 1) for j in range(n)]
    )
