"""Exact reference routes that only the tests use.

The program builds every Krawtchouk and Meixner member by its three-term
recurrence.  The terminating 2F1 sums below are a second, independent route
to the same monic polynomials, and ``hypergeometric_check`` asserts that the
two agree.  The discrete weights and the closed-form value of a Krawtchouk
member at its support edge give further exact facts to test the recurrence
members against.  ``CHECKS_REFERENCE`` transcribes each named relation's
displays in ``Fraction`` arithmetic, the form the program's integer table
must reproduce.  The Narayana closed forms are kept here as the program
built them with one ``Fraction`` per coefficient, the form its integer
vectors must reproduce, and the raw Narayana polynomial by its three-term
recurrence, a second route to x times the reduced one.  ``mul_linear``
multiplies by one linear factor, which the program no longer needs.
"""

import math
from fractions import Fraction

from interlace import families
from interlace.families import (
    ConstructionError,
    FamilySpec,
    InvalidParameterError,
    monic_by_recurrence,
)
from interlace.poly import Polynomial, Scalar, _as_rational

def mul_linear(p: Polynomial, root: Scalar) -> Polynomial:
    """``(x - root) * p``; the degree grows by one for nonzero p."""
    r = _as_rational(root)
    a, b = r.numerator, r.denominator
    out = [0] * (len(p.nums) + 1)
    for i, c in enumerate(p.nums):  # (b x - a) N over den b
        out[i + 1] += b * c
        out[i] -= a * c
    return Polynomial.from_ints(out, p.den * b)


# ---------------------------------------------------------------------------
# Narayana closed forms, one Fraction per coefficient
# ---------------------------------------------------------------------------


def narayana_coeff(n: int, k: int) -> Fraction:
    """The triangle entry C(n,k) C(n,k-1) / n for 1 <= k <= n."""
    if not (1 <= k <= n):
        raise InvalidParameterError(f"narayana_coeff needs 1 <= k <= n (got n={n}, k={k})")
    return Fraction(math.comb(n, k) * math.comb(n, k - 1), n)


def narayana_reduced(n: int) -> Polynomial:
    """Coefficient of x^j equal to c_{n,j+1}, n >= 1."""
    return Polynomial([narayana_coeff(n, j + 1) for j in range(n)])


def narayana_christoffel(n: int) -> Polynomial:
    """The coefficient-formula route: (3n - 2j) / (n + 2) times c_{n,j+1}, n >= 2."""
    return Polynomial([Fraction(3 * n - 2 * j, n + 2) * narayana_coeff(n, j + 1) for j in range(n)])


def narayana_perturbed(n: int) -> Polynomial:
    """Coefficient of x^j equal to C(n-1,j)^2 + C(n-1,j+1) C(n-1,j-1), n >= 2."""

    def comb0(m: int, r: int) -> int:
        return math.comb(m, r) if 0 <= r <= m else 0

    return Polynomial(
        [Fraction(comb0(n - 1, j) ** 2 + comb0(n - 1, j + 1) * comb0(n - 1, j - 1)) for j in range(n)]
    )


def _narayana_step(m: int, cur: Polynomial, prev: Polynomial) -> Polynomial:
    # (m+2) T_{m+1} = (2m+1)(x+1) T_m - (m-1)(x-1)^2 T_{m-1}
    sq = Polynomial([1, -2, 1])
    lhs = mul_linear(cur, -1).scale(Fraction(2 * m + 1, m + 2))
    rhs = (prev * sq).scale(Fraction(m - 1, m + 2))
    return lhs - rhs


def narayana_raw(n: int) -> Polynomial:
    """The raw Narayana polynomial by its three-term recurrence, n >= 1."""
    prev = Polynomial.zero()  # N_0, the empty sum
    cur = Polynomial([0, 1])  # N_1 = x
    for m in range(1, n):
        prev, cur = cur, _narayana_step(m, cur, prev)
    return cur


# ---------------------------------------------------------------------------
# Hypergeometric cross-check route
# ---------------------------------------------------------------------------


def pochhammer(a: Fraction, k: int) -> Fraction:
    """Rising product a (a+1) ... (a+k-1); the k = 0 product is 1."""
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def hypergeometric_poly(spec: FamilySpec) -> Polynomial:
    """Expand the terminating 2F1 sum for the spec into powers of x."""
    n = spec.n
    if spec.kind == "krawtchouk":
        p, N = spec.param("p"), spec.param("N")
        prefactor = pochhammer(Fraction(-N), n) * p**n
        z = 1 / p
        lower = Fraction(-N)
    elif spec.kind == "meixner":
        t, w = spec.param("t"), spec.param("w")
        prefactor = pochhammer(t, n) * w**n / (w - 1) ** n
        z = (w - 1) / w
        lower = t
    else:
        raise InvalidParameterError(
            f"hypergeometric route applies to krawtchouk/meixner, not {spec.kind}"
        )
    acc = Polynomial.zero()
    falling = Polynomial.constant(1)  # product of (i - x) over i < k
    coef = Fraction(1)
    for k in range(n + 1):
        if k > 0:
            coef *= Fraction(-n + k - 1) * z / ((lower + k - 1) * k)
        acc = acc + falling.scale(coef)
        falling = falling * Polynomial([k, -1])
    return acc.scale(prefactor)


def hypergeometric_check(spec: FamilySpec) -> Polynomial:
    """Hypergeometric route; raises if it differs from the recurrence route."""
    via_sum = hypergeometric_poly(spec)
    via_recurrence = monic_by_recurrence(spec)
    if via_sum != via_recurrence:
        raise ConstructionError(
            f"hypergeometric and recurrence routes disagree for {spec}"
        )
    return via_sum


# ---------------------------------------------------------------------------
# Discrete weights
# ---------------------------------------------------------------------------


def weight_at(spec: FamilySpec, x: int) -> Fraction:
    """Exact weight value at the integer support point x."""
    if spec.kind == "krawtchouk":
        p, N = spec.param("p"), spec.param("N")
        Ni = int(N)
        if not (0 <= x <= Ni):
            raise InvalidParameterError(f"krawtchouk weight support is 0..{Ni} (got x={x})")
        return math.comb(Ni, x) * p**x * (1 - p) ** (Ni - x)
    if spec.kind == "meixner":
        t, w = spec.param("t"), spec.param("w")
        if x < 0:
            raise InvalidParameterError(f"meixner weight support is x >= 0 (got x={x})")
        return pochhammer(t, x) * w**x / math.factorial(x)
    raise InvalidParameterError(f"no discrete weight for family {spec.kind}")


def krawtchouk_edge_value(k: int, p: Fraction, M: int) -> Fraction:
    """Value of the degree-k member with parameter M evaluated at x = M."""
    return Fraction(math.factorial(k)) * math.comb(M, k) * (1 - p) ** k


# ---------------------------------------------------------------------------
# The relation table in Fraction arithmetic
# ---------------------------------------------------------------------------


def _jacobi_beta_a(n, alpha, beta):
    s = alpha + beta
    M = 2 * (n + 1) * (n + alpha + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
    return [M * (1 + 2 * beta / (2 * n + s + 3)), M]


def _jacobi_beta_e(n, alpha, beta):
    s = alpha + beta
    return -1 + 2 * (n + 1) * (n + alpha + 1) / ((2 * n + s + 2) * (2 * n + s + 3))


#: check id -> {term: f(n, **params)}: the member specs P, G and Q, the
#: coefficient lists A and B, the added point E and a support that depends on
#: the parameters, each display written directly in Fraction arithmetic
CHECKS_REFERENCE = {
    "krawtchouk-3.1": dict(
        P=lambda n, p, N: families.krawtchouk(p, N + 1, n),
        G=lambda n, p, N: families.krawtchouk(p, N, n + 1),
        Q=lambda n, p, N: families.krawtchouk(p, N + 1, n + 1),
        A=lambda n, p, N: [p * (1 - p) * (n + 1) * (N + 1 - n)],
        B=lambda n, p, N: [N + 1, -1],
        E=lambda n, p, N: N + 1 - p * (n + 1),
        support=lambda n, p, N: (0.0, float(N + 1)),
    ),
    "meixner-3.2": dict(
        P=lambda n, t, w: families.meixner(t, w, n),
        G=lambda n, t, w: families.meixner(t + 1, w, n + 1),
        Q=lambda n, t, w: families.meixner(t, w, n + 1),
        A=lambda n, t, w: [w * (n + 1) * (n + t) / (1 - w) ** 2],
        B=lambda n, t, w: [-t, -1],
        E=lambda n, t, w: -t + w * (n + 1) / (1 - w),
    ),
    "narayana-3.3": dict(
        P=lambda n: families.narayana_spec("narayana-christoffel", n),
        G=lambda n: families.narayana_spec("narayana-reduced", n),
        Q=lambda n: families.narayana_spec("narayana-reduced", n - 1),
        A=lambda n: [Fraction(n + 2, n - 1)],
        B=lambda n: [Fraction(2 * n + 1, n - 1)],
        E=lambda n: Fraction(1),
    ),
    "narayana-3.4": dict(
        P=lambda n: families.narayana_spec("narayana-perturbed", n),
        G=lambda n: families.narayana_spec("narayana-reduced", n),
        Q=lambda n: families.narayana_spec("narayana-reduced", n - 1),
        A=lambda n: [Fraction(1, n - 1)],
        B=lambda n: [Fraction(n, n - 1)],
        E=lambda n: Fraction(-1),
    ),
    "jacobi-3.5": dict(
        P=lambda n, alpha, beta: families.jacobi(alpha, beta, n),
        G=lambda n, alpha, beta: families.jacobi(alpha, beta + 1, n + 1),
        Q=lambda n, alpha, beta: families.jacobi(alpha, beta - 1, n + 1),
        A=_jacobi_beta_a,
        B=lambda n, alpha, beta: [-1, -1],
        E=_jacobi_beta_e,
    ),
    "jacobi-3.6": dict(
        P=lambda n, alpha, beta: families.jacobi(alpha, beta, n),
        G=lambda n, alpha, beta: families.jacobi(alpha + 1, beta + 1, n),
        Q=lambda n, alpha, beta: families.jacobi(alpha + 1, beta + 1, n - 1),
        A=lambda n, alpha, beta: [(n + alpha + beta + 1) / n],
        B=lambda n, alpha, beta: [(2 * n + alpha + beta + 1) / n],
        E=lambda n, alpha, beta: (alpha - beta) / (2 * n + alpha + beta + 2),
    ),
    "laguerre-3.7": dict(
        P=lambda n, alpha: families.laguerre(alpha, n),
        G=lambda n, alpha: families.laguerre(alpha + 1, n + 1),
        Q=lambda n, alpha: families.laguerre(alpha, n + 1),
        A=lambda n, alpha: [(n + 1) * (n + alpha + 1)],
        B=lambda n, alpha: [0, -1],
        E=lambda n, alpha: Fraction(n + 1),
    ),
}
