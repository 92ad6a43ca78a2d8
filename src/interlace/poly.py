"""Dense univariate polynomial arithmetic over exact rationals or floats.

Coefficients are stored ascending by degree, with trailing zeros stripped so
the leading coefficient of a nonzero polynomial is never zero (the empty
coefficient vector is the zero polynomial).  Every polynomial carries one of
two scalar modes:

* ``"rational"``: arbitrary-precision ``fractions.Fraction`` coefficients,
  used wherever an identity has to hold exactly.
* ``"float"``: binary doubles, used on the numerical side (zero finding,
  sign evaluation).

The two modes never mix silently.  Combining a rational value with a float
value raises ``ModeMismatchError``; crossing the boundary is always an
explicit ``to_float()`` call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[int, float, Fraction]


class ModeMismatchError(TypeError):
    """Exact and float scalars met without an explicit demotion."""


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ModeMismatchError(
        f"rational mode cannot absorb {type(value).__name__} {value!r}"
    )


def _as_float(value) -> float:
    if isinstance(value, Fraction):
        raise ModeMismatchError(
            f"float mode cannot absorb Fraction {value!r}; call to_float() explicitly"
        )
    if isinstance(value, (int, float)):
        return float(value)
    raise ModeMismatchError(
        f"float mode cannot absorb {type(value).__name__} {value!r}"
    )


def _integer_form(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def root_product(nums: Sequence[int]) -> list[int]:
    """Ascending integer coefficients of the product of (y - a) over ``nums``."""
    c = [1]
    for a in nums:  # c <- (y - a) c
        c = [-a * c[0]] + [lo - a * hi for lo, hi in zip(c, c[1:])] + [1]
    return c


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer coefficient vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _stripped(coeffs: tuple) -> tuple:
    """``coeffs`` without its trailing zeros."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def coerce_scalar(value: Scalar, mode: str):
    """Coerce ``value`` into the scalar type of ``mode`` or raise on a mix."""
    if mode == RATIONAL:
        return _as_rational(value)
    if mode == FLOAT:
        return _as_float(value)
    raise ValueError(f"unknown scalar mode {mode!r}")


class Polynomial:
    """Immutable dense polynomial; ``coeffs[k]`` is the coefficient of x^k."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs: Iterable[Scalar] = (), mode: str | None = None):
        items = list(coeffs)
        if mode is None:
            mode = FLOAT if any(isinstance(c, float) for c in items) else RATIONAL
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        norm = tuple(coerce_scalar(c, mode) for c in items)
        object.__setattr__(self, "coeffs", _stripped(norm))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _of(cls, coeffs: tuple, mode: str) -> "Polynomial":
        """Store ``coeffs`` as they are, only stripping trailing zeros.

        For coefficients the caller has just formed in ``mode``'s scalar type
        (``Fraction`` in rational mode, ``float`` in float mode), so they skip
        the per-value checks of the public constructor.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", _stripped(coeffs))
        object.__setattr__(self, "mode", mode)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode: str = RATIONAL) -> "Polynomial":
        return cls((), mode)

    @classmethod
    def constant(cls, value: Scalar, mode: str | None = None) -> "Polynomial":
        return cls([value], mode)

    @classmethod
    def from_roots(cls, roots: Sequence[Scalar], mode: str = RATIONAL) -> "Polynomial":
        """Monic polynomial with the given roots, built by linear factors.

        In rational mode the roots are scaled to integers a_i over their
        common denominator D, the product of (D x - a_i) is formed over
        ``int``, and coefficient k is that product's c_k over D^(n-k).
        """
        if mode != RATIONAL:
            p = cls([1], mode)
            for r in roots:
                p = p.mul_linear(r)
            return p
        nums, den = _integer_form([_as_rational(r) for r in roots])
        return cls.from_scaled(root_product(nums), den)

    @classmethod
    def from_scaled(cls, c: Sequence[int], den: int, lead: int = 1) -> "Polynomial":
        """The rational polynomial c(den x) / (lead den^m), m = len(c) - 1.

        Coefficient k is c_k / (lead den^(m-k)), one ``Fraction`` of integers
        each.  With ``c`` the root product of integers a_i and lead 1 this is
        the monic polynomial with roots a_i / den.
        """
        out = []
        scale = lead
        for ck in reversed(c):
            out.append(Fraction(ck, scale))
            scale *= den
        return cls._of(tuple(out[::-1]), RATIONAL)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: Scalar):
        """Evaluate at ``x`` by Horner's scheme; exact in rational mode."""
        xv = coerce_scalar(x, self.mode)
        acc = coerce_scalar(0, self.mode)
        for c in reversed(self.coeffs):
            acc = acc * xv + c
        return acc

    __call__ = evaluate

    # -- arithmetic --------------------------------------------------------

    def _require_same_mode(self, other: "Polynomial") -> None:
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"cannot combine {self.mode} and {other.mode} polynomials"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_mode(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out, self.mode)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs], self.mode)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_mode(other)
            if self.is_zero or other.is_zero:
                return Polynomial.zero(self.mode)
            if self.mode == RATIONAL:
                a, da = _integer_form(self.coeffs)
                b, db = _integer_form(other.coeffs)
                den = da * db
                return Polynomial._of(tuple(Fraction(c, den) for c in _convolve(a, b)), RATIONAL)
            out = [coerce_scalar(0, self.mode)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out, self.mode)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor: Scalar) -> "Polynomial":
        f = coerce_scalar(factor, self.mode)
        return Polynomial([c * f for c in self.coeffs], self.mode)

    def mul_linear(self, root: Scalar) -> "Polynomial":
        """Return ``(x - root) * self``; degree grows by one for nonzero self."""
        r = coerce_scalar(root, self.mode)
        if self.is_zero:
            return self
        zero = coerce_scalar(0, self.mode)
        out = [zero] * (len(self.coeffs) + 1)
        for i, c in enumerate(self.coeffs):
            out[i + 1] = out[i + 1] + c
            out[i] = out[i] - r * c
        return Polynomial(out, self.mode)

    def divide_linear(self, root: Scalar) -> tuple["Polynomial", Scalar]:
        """Synthetic division by ``(x - root)``; returns (quotient, remainder).

        Exact in rational mode, so ``remainder == 0`` certifies divisibility.
        """
        r = coerce_scalar(root, self.mode)
        if self.is_zero:
            return self, coerce_scalar(0, self.mode)
        n = self.degree
        q = [coerce_scalar(0, self.mode)] * n
        carry = self.coeffs[-1]
        for i in range(n - 1, -1, -1):
            q[i] = carry
            carry = self.coeffs[i] + r * carry
        return Polynomial(q, self.mode), carry

    # -- mode boundary -----------------------------------------------------

    def to_float(self) -> "Polynomial":
        """Demote to float mode; the single sanctioned exact-to-float crossing."""
        if self.mode == FLOAT:
            return self
        return Polynomial._of(self.float_coeffs(), FLOAT)

    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients of ``to_float()``, without building the polynomial.

        A rational coefficient becomes ``numerator / denominator``, which is
        ``float(c)`` without the generic ``Rational`` path; one too small for
        a double rounds to zero and is stripped if it leads.
        """
        if self.mode == FLOAT:
            return self.coeffs
        return _stripped(tuple(c.numerator / c.denominator for c in self.coeffs))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        if self.mode == RATIONAL:
            return {"mode": RATIONAL, "coeffs": [str(c) for c in self.coeffs]}
        return {"mode": FLOAT, "coeffs": [float(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        mode = obj["mode"]
        if mode == RATIONAL:
            return cls([Fraction(c) for c in obj["coeffs"]], RATIONAL)
        if mode == FLOAT:
            return cls([float(c) for c in obj["coeffs"]], FLOAT)
        raise ValueError(f"unknown scalar mode {mode!r}")

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.mode, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r}, mode={self.mode!r})"


def monic_linear(root: Scalar, mode: str = RATIONAL) -> Polynomial:
    """The monic linear polynomial ``x - root``."""
    r = coerce_scalar(root, mode)
    one = coerce_scalar(1, mode)
    return Polynomial([-r, one], mode)


def linear_combine(a: Scalar, p: Polynomial, b, q: Polynomial) -> Polynomial:
    """Return ``a*p + b*q`` where ``b`` may be a scalar or a Polynomial."""
    left = p.scale(a)
    right = b * q if isinstance(b, Polynomial) else q.scale(b)
    return left + right


def is_identically_zero(p: Polynomial) -> bool:
    """True iff every coefficient is exactly zero.  Rational mode only."""
    if p.mode != RATIONAL:
        raise ModeMismatchError("identity checks require rational mode")
    return p.is_zero


def products_cancel(terms: Iterable[tuple[int, Polynomial, Polynomial]]) -> bool:
    """True iff the sum of ``weight * left * right`` is exactly zero.

    Rational mode only.  Each product is formed on integer numerators over
    its own denominator and the products are compared over the lcm of those,
    so the verdict is exact and no ``Fraction`` is built.
    """
    products = []
    for weight, left, right in terms:
        if left.mode != RATIONAL or right.mode != RATIONAL:
            raise ModeMismatchError("identity checks require rational mode")
        a, da = _integer_form(left.coeffs)
        b, db = _integer_form(right.coeffs)
        products.append((weight, _convolve(a, b), da * db))
    den = math.lcm(*(d for _, _, d in products))
    total = [0] * max((len(c) for _, c, _ in products), default=0)
    for weight, coeffs, d in products:
        factor = weight * (den // d)
        for k, c in enumerate(coeffs):
            total[k] += factor * c
    return not any(total)
