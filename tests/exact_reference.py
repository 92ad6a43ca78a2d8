"""Exact reference routes that only the tests use.

The program builds every Krawtchouk and Meixner member by its three-term
recurrence.  The terminating 2F1 sums below are a second, independent route
to the same monic polynomials, and ``hypergeometric_check`` asserts that the
two agree.  The discrete weights and the closed-form value of a Krawtchouk
member at its support edge give further exact facts to test the recurrence
members against.
"""

import math
from fractions import Fraction

from interlace.families import (
    ConstructionError,
    FamilySpec,
    InvalidParameterError,
    monic_by_recurrence,
)
from interlace.poly import Polynomial

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
