"""Constructors for the polynomial families under study.

Each member is built monic with exact rational coefficients, one route per
kind: the orthogonal families from their three-term recurrences, the raw,
reduced and perturbed Narayana polynomials from their closed-form
coefficients.  The Christoffel variant is built two independent ways that
must agree exactly.

An orthogonal family's recurrence coefficients depend on the step and the
parameters only, so one forward run per (kind, parameters) yields every
member and every coefficient prefix.  Inside ``chain_scope()`` that run is
kept and extended on demand; outside one, each call runs it afresh.

``chain_reading`` reads a member along a chain with no zero solved: an
orthogonal member along its own, and the reduced Narayana polynomial along
the chain of the Jacobi polynomial P^(1,1), through t = (1 + x) / (1 - x).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from . import certify
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
    #: the kind and each parameter's numerator and denominator, formed once per
    #: spec: equal for specs of equal kind and parameters, whatever their degree.
    #: A key of integers: a Fraction hashes through a modular inverse on every call.
    param_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = (self.kind, *[x for _, v in self.params for x in (v.numerator, v.denominator)])
        object.__setattr__(self, "param_key", key)

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

        The content is taken with the leading entry first.  ``math.gcd``
        stops its work once the running gcd is 1.  Along Laguerre, Meixner
        and Krawtchouk chains the leading entry, the member's denominator,
        is usually coprime to the constant term, so the gcd is 1 after two
        entries; the other entries share factors among themselves through
        about half the vector (51 of 101 entries at degree 100), so with the
        leading entry last the gcd would take that many multi-limb steps.
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
                up = u * (den // (v * prev[-1])) if u else 0
                nxt = [
                    bs * hi - as_ * lo - up * q
                    for hi, lo, q in zip((0, *cur), (*cur, 0), (*prev, 0, 0))
                ]
                g = math.gcd(nxt[-1], *nxt)
                prev, cur = cur, tuple([x // g for x in nxt]) if g > 1 else tuple(nxt)
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


def _chain(spec: FamilySpec) -> _Chain:
    chains = _CHAINS.get()
    if chains is None:
        return _Chain(_step_rule(spec))
    key = spec.param_key
    chain = chains.get(key)
    if chain is None:
        chain = chains[key] = _Chain(_step_rule(spec))
    return chain


def recurrence_steps(spec: FamilySpec) -> list[Step]:
    """The integer steps (a, b, u, v) of c_1..c_n and l_1..l_n for ``spec``."""
    return _chain(spec).steps_to(spec.n)


def orthogonal_steps(steps: list[Step]) -> list[Step]:
    """``steps``, once every l_k past the first is seen positive.

    That is the region where a chain's members are orthogonal, with real,
    simple zeros that interlace those of the next member.  A step's
    denominator is positive, so its numerator carries the sign.
    """
    for k, (_, _, u, v) in enumerate(steps[1:], start=1):
        if u <= 0:
            raise InvalidParameterError(
                f"off-diagonal recurrence term {k + 1} is not positive "
                f"({Fraction(u, v)}); parameters outside the orthogonality region"
            )
    return steps


# ---------------------------------------------------------------------------
# Reading a member along a recurrence chain
# ---------------------------------------------------------------------------


class _OwnChain:
    """An orthogonal family's member p_m, read along its own recurrence chain."""

    def __init__(self, spec: FamilySpec):
        self.m = spec.n
        self.chain = _chain(spec)
        #: the chain's first m steps, once every l_k is seen positive
        self.steps = orthogonal_steps(self.chain.steps_to(spec.n))

    def zeros_above(self, x: Fraction) -> tuple[int, bool]:
        """How many zeros of p_m lie above x, and whether x is one of them."""
        return certify.zeros_above(self.steps, x.numerator, x.denominator)

    def link(self, g: Polynomial, q: Polynomial) -> tuple[bool, list | None]:
        """Whether g is p_m, and the (t, c1, c2) with q = t p_m + c1 p_(m-1) + c2 p_(m-2)
        (``certify.chain_coefficients``; None when there are none)."""
        member, m = self.chain.member, self.m
        if g != member(m):
            return False, None
        basis = [member(k) for k in range(m, max(m - 3, -1), -1)]
        return True, certify.chain_coefficients((q.nums, q.den), [(p.nums, p.den) for p in basis])


def narayana_jacobi(n: int) -> FamilySpec:
    """The Jacobi member P^(1,1)_(n-1), whose image under t = (1 + x) / (1 - x) is R_n."""
    return jacobi(1, 1, n - 1)


class _NarayanaChain:
    """The reduced Narayana polynomial R_n, of degree m = n - 1, read along the
    chain of the Jacobi member p_m = P^(1,1)_m.

    The recurrence (k + 1) R_k = (2k - 1)(1 + x) R_(k-1) - (k - 2)(1 - x)^2 R_(k-2),
    from R_1 = 1 and R_2 = 1 + x, is that chain seen through t = (1 + x) / (1 - x).
    Since 1 + x = t (1 - x), it makes R_k = kappa_k (1 - x)^(k-1) p_(k-1)(t), with
    kappa_k = (2k - 1) kappa_(k-1) / (k + 1) > 0, for the monic p_k whose step j
    has c = 0 and l = j (j + 2) / ((2j + 1)(2j + 3)): the steps of P^(1,1), which
    the constructor compares.  The map increases on x < 1, where
    (1 - x)^(k-1) > 0, so a point x < 1 has as many zeros of R_n above it as t
    has zeros of p_m, and no zero of R_n lies at or above 1.  That R_n and
    R_(n-1) are the closed forms is ``link``'s certificate, made for each
    relation it reads.
    """

    def __init__(self, spec: FamilySpec):
        self.n = spec.n
        self.m = spec.n - 1
        self.steps = orthogonal_steps(recurrence_steps(narayana_jacobi(spec.n)))
        for j, (a, _, u, v) in enumerate(self.steps):
            if a or u * (2 * j + 1) * (2 * j + 3) != v * j * (j + 2):
                raise ConstructionError(
                    f"step {j + 1} of P^(1,1) is not the one the Narayana recurrence gives"
                )

    def zeros_above(self, x: Fraction) -> tuple[int, bool]:
        """How many zeros of R_n lie above x, and whether x is one of them."""
        if x >= 1:
            return 0, False
        p, q = x.numerator, x.denominator
        return certify.zeros_above(self.steps, q + p, q - p)  # t = (q + p) / (q - p)

    def link(self, g: Polynomial, q: Polynomial) -> tuple[bool, list | None]:
        """Whether g is R_n, and (t, c1) = (0, lc q) when q = c1 R_(n-1) (None when not).

        Both are decided by one run of the recurrence (``_narayana_multiples``).
        """
        g_ok, q_ok = _narayana_multiples(self.n, g.nums, q.nums)
        return g_ok and g.is_monic, [(0, 1), (q.nums[-1], q.den)] if q_ok else None


def _narayana_multiples(n: int, g_nums, q_nums) -> tuple[bool, bool]:
    """Whether the integer vectors g_nums and q_nums are multiples of R_n and
    R_(n-1), with R_k run by the recurrence of ``_NarayanaChain``; n >= 2.

    On integers the recurrence runs as W_k = c_k R_k, c_k = (k + 1)! / 2:
    W_1 = 1, W_2 = 3 (1 + x) and
    W_k = (2k - 1)(1 + x) W_(k-1) - k (k - 2)(1 - x)^2 W_(k-2).  A vector
    nums is a multiple of R_k iff F = c_k nums - nums[-1] W_k is the zero
    polynomial, and that is decided at one point X = 2^B, with B so large
    that X exceeds a bound h on every |coefficient| of F: if F(X) = 0 and F
    is not zero, X divides F's lowest nonzero coefficient, which is smaller
    than X.  h comes from the l1 norms, ||W_k||_1 <= N_k with N_1 = 1,
    N_2 = 6 and N_k = 2 (2k - 1) N_(k-1) + 4 k (k - 2) N_(k-2).  The
    recurrence then runs on the values W_k(X) alone, by shifts and adds,
    never on coefficient vectors.
    """
    c_low, c_high, n_low, n_high = 1, 3, 1, 6  # c_(k-1), c_k, N_(k-1), N_k at k = 2
    for k in range(3, n + 1):
        c_low, c_high = c_high, c_high * (k + 1)
        n_low, n_high = n_high, 2 * (2 * k - 1) * n_high + 4 * k * (k - 2) * n_low
    wanted = ((c_high, n_high, g_nums), (c_low, n_low, q_nums))
    b = max(c * sum(map(abs, nums)) + abs(nums[-1]) * bound for c, bound, nums in wanted).bit_length()
    low, high = 1, 3 + (3 << b)  # W_1(X), W_2(X)
    for k in range(3, n + 1):
        low, high = high, (
            (2 * k - 1) * (high + (high << b))
            - k * (k - 2) * (low - (low << (b + 1)) + (low << (2 * b)))
        )
    out = []
    for (c, _, nums), value in zip(wanted, (high, low)):
        at = 0  # nums at X
        for x in reversed(nums):
            at = (at << b) + x
        out.append(c * at == nums[-1] * value)
    return out[0], out[1]


#: the kinds whose members are read along a recurrence chain (``chain_reading``)
CHAIN_KINDS = ORTHOGONAL_KINDS + ("narayana-reduced",)


def chain_reading(spec: FamilySpec) -> _OwnChain | _NarayanaChain:
    """``spec``'s member read along a recurrence chain, with no zero solved.

    The reading's ``m`` is the member's degree; ``zeros_above(x)`` places a
    rational x among its zeros by one integer count along the chain
    (``certify.zeros_above``), and ``link(g, q)`` says whether g is the
    member and gives q's coefficients on it and the chain members below it.
    An orthogonal member is read along its own chain, and R_n along P^(1,1)'s.
    """
    if spec.kind in ORTHOGONAL_KINDS:
        return _OwnChain(spec)
    if spec.kind == "narayana-reduced":
        return _NarayanaChain(spec)
    raise InvalidParameterError(f"{spec.kind} has no recurrence chain to read along")


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
    parameters; the Narayana kinds take their closed forms, the raw
    polynomial being x times the reduced one.
    """
    if spec.kind in ORTHOGONAL_KINDS:
        return _chain(spec).member(spec.n)
    if spec.kind == "narayana":
        return Polynomial.from_ints([0, *_narayana_nums(spec.n)], spec.n)
    if spec.kind == "narayana-reduced":
        return narayana_reduced(spec.n)
    if spec.kind == "narayana-christoffel":
        return narayana_christoffel(spec.n)
    if spec.kind == "narayana-perturbed":
        return narayana_perturbed(spec.n)
    raise InvalidParameterError(f"unknown family kind {spec.kind!r}")


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
