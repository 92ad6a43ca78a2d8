"""Constructors for the polynomial families under study.

Each member is built monic with exact rational coefficients, one route per
kind: the orthogonal families and the raw Narayana polynomial from their
three-term recurrences, the reduced and perturbed Narayana polynomials from
their closed-form coefficients.  The Christoffel variant is built two
independent ways that must agree exactly.
"""

from __future__ import annotations

import functools
import math
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
    """``Fraction(value)``, refusing binary floats rather than reading their exact value."""
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
        n = self.n
        if n < 0:
            raise InvalidParameterError(f"degree index must be nonnegative, got n={n}")
        kind = self.kind
        if kind == "jacobi":
            alpha, beta = self.param("alpha"), self.param("beta")
            if alpha <= -1:
                raise InvalidParameterError(f"jacobi requires alpha > -1 (got alpha={alpha})")
            if beta <= -1:
                raise InvalidParameterError(f"jacobi requires beta > -1 (got beta={beta})")
        elif kind == "laguerre":
            alpha = self.param("alpha")
            if alpha <= -1:
                raise InvalidParameterError(f"laguerre requires alpha > -1 (got alpha={alpha})")
        elif kind == "krawtchouk":
            p, N = self.param("p"), self.param("N")
            if not (0 < p < 1):
                raise InvalidParameterError(f"krawtchouk requires 0 < p < 1 (got p={p})")
            if N.denominator != 1 or N < 1:
                raise InvalidParameterError(f"krawtchouk requires integer N >= 1 (got N={N})")
            if n > N:
                raise InvalidParameterError(f"krawtchouk requires n <= N (got n={n}, N={N})")
        elif kind == "meixner":
            t, w = self.param("t"), self.param("w")
            if t <= 0:
                raise InvalidParameterError(f"meixner requires t > 0 (got t={t})")
            if not (0 < w < 1):
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
# Three-term recurrence coefficients: P_{k+1} = (x - c_{k+1}) P_k - l_{k+1} P_{k-1}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Diagonal (c) and off-diagonal (lam) recurrence terms, step-indexed.

    ``c[k]`` and ``lam[k]`` drive the step producing degree k+1; ``lam[0]``
    multiplies P_{-1} = 0 and is stored as 0.
    """

    c: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]


def _jacobi_step(a: int, b: int, d: int, k: int) -> tuple[Fraction, Fraction]:
    # alpha = a/d, beta = b/d; s = d (2k + alpha + beta)
    if k == 0:
        return Fraction(b - a, a + b + 2 * d), Fraction(0)
    s = 2 * k * d + a + b
    ck = Fraction(b * b - a * a, s * (s + 2 * d))
    if k == 1:
        e = a + b + 2 * d
        return ck, Fraction(4 * d * (d + a) * (d + b), e * e * (e + d))
    kd = k * d
    return ck, Fraction(4 * kd * (kd + a) * (kd + b) * (kd + a + b), s * s * (s + d) * (s - d))


# A check builds at most three specs and then solves each; a sweep runs a few
# checks at once.  The bound only has to cover that reuse.
@functools.lru_cache(maxsize=32)
def recurrence_coeffs(spec: FamilySpec) -> RecurrenceCoeffs:
    """Exact recurrence coefficients c_1..c_n and l_1..l_n for ``spec``.

    Every coefficient is formed as one Fraction from integer numerators of the
    parameters, never by Fraction arithmetic.  Memoised per spec: construction
    and the eigensolve share one computation.
    """
    kind, n = spec.kind, spec.n
    if kind == "jacobi":
        (a, b), d = _integer_form((spec.param("alpha"), spec.param("beta")))
        steps = [_jacobi_step(a, b, d, k) for k in range(n)]
        cs = [c for c, _ in steps]
        ls = [lam for _, lam in steps]
    elif kind == "laguerre":
        # alpha = a/d: c = 2k + alpha + 1, l = k (k + alpha)
        alpha = spec.param("alpha")
        a, d = alpha.numerator, alpha.denominator
        cs = [Fraction(2 * k * d + a + d, d) for k in range(n)]
        ls = [Fraction(k * (k * d + a), d) for k in range(n)]
    elif kind == "krawtchouk":
        # p = u/v: c = p (N - k) + k (1 - p), l = k p (1 - p) (N + 1 - k)
        p, N = spec.param("p"), spec.param("N").numerator
        u, v = p.numerator, p.denominator
        cs = [Fraction(u * (N - k) + k * (v - u), v) for k in range(n)]
        ls = [Fraction(k * u * (v - u) * (N + 1 - k), v * v) for k in range(n)]
    elif kind == "meixner":
        # t = a/d, w = u/v: c = (k + w (k + t)) / (1 - w),
        # l = w k (k + t - 1) / (1 - w)^2
        t, w = spec.param("t"), spec.param("w")
        a, d = t.numerator, t.denominator
        u, v = w.numerator, w.denominator
        c_den = d * (v - u)
        cs = [Fraction(k * v * d + u * (k * d + a), c_den) for k in range(n)]
        ls = [Fraction(u * v * k * (k * d + a - d), c_den * (v - u)) for k in range(n)]
    else:
        raise InvalidParameterError(
            f"{kind} has no classical three-term recurrence coefficients"
        )
    return RecurrenceCoeffs(tuple(cs), tuple(ls))


def monic_by_recurrence(spec: FamilySpec) -> Polynomial:
    """Build the degree-n member of ``spec`` exactly.

    The orthogonal kinds and the raw Narayana polynomial run their forward
    recurrences; the other Narayana kinds take their closed forms.
    """
    if spec.kind in ORTHOGONAL_KINDS:
        return _monic_orthogonal(recurrence_coeffs(spec))
    if spec.kind == "narayana":
        return _narayana_raw(spec.n)
    if spec.kind == "narayana-reduced":
        return narayana_reduced(spec.n)
    if spec.kind == "narayana-christoffel":
        return narayana_christoffel(spec.n)
    if spec.kind == "narayana-perturbed":
        return narayana_perturbed(spec.n)
    raise InvalidParameterError(f"unknown family kind {spec.kind!r}")


def _monic_orthogonal(rc: RecurrenceCoeffs) -> Polynomial:
    """Run P_{k+1} = (x - c_k) P_k - l_k P_{k-1} on integer numerators.

    Each member is kept as an integer vector over one common denominator.
    Members are monic, so that denominator is the leading entry and needs no
    storage of its own.  A step brings both terms over the lcm of their
    denominators and divides out the content, so the vector stays primitive:
    it is the polynomial's stored form as it stands, with the leading entry
    as its denominator.
    """
    prev: list[int] = []
    cur = [1]
    for c, lam in zip(rc.c, rc.lam):
        a, b = c.numerator, c.denominator
        u, v = lam.numerator, lam.denominator
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
        prev, cur = cur, [x // g for x in nxt] if g > 1 else nxt
    return Polynomial._of(tuple(cur), cur[-1])


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


def narayana_coeff(n: int, k: int) -> Fraction:
    """The triangle entry C(n,k) C(n,k-1) / n for 1 <= k <= n."""
    if not (1 <= k <= n):
        raise InvalidParameterError(f"narayana_coeff needs 1 <= k <= n (got n={n}, k={k})")
    return Fraction(math.comb(n, k) * math.comb(n, k - 1), n)


def narayana_reduced(n: int) -> Polynomial:
    """Degree n-1 polynomial with coefficient of x^j equal to c_{n,j+1}."""
    if n < 1:
        raise InvalidParameterError(f"narayana_reduced requires n >= 1 (got n={n})")
    return Polynomial([narayana_coeff(n, j + 1) for j in range(n)])


def narayana_rho(n: int) -> Fraction:
    """Ratio of reduced-polynomial values at x = 1 for indices n+1 and n."""
    closed = Fraction(2 * (2 * n + 1), n + 2)
    direct = narayana_reduced(n + 1).evaluate(1) / narayana_reduced(n).evaluate(1)
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
    rho = narayana_rho(n)
    numer = narayana_reduced(n + 1) - narayana_reduced(n).scale(rho)
    if numer.evaluate(1) != 0:
        raise ConstructionError(f"combination does not vanish at 1 for n={n}")
    by_division, remainder = numer.divide_linear(1)
    if remainder != 0:
        raise ConstructionError(f"nonzero remainder dividing out (x - 1) at n={n}")
    by_formula = Polynomial(
        [Fraction(3 * n - 2 * j, n + 2) * narayana_coeff(n, j + 1) for j in range(n)]
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

    coeffs = [
        Fraction(comb0(n - 1, j) ** 2 + comb0(n - 1, j + 1) * comb0(n - 1, j - 1))
        for j in range(n)
    ]
    return Polynomial(coeffs)
