"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as one canonical integer vector: numerators ``nums``,
ascending by degree with trailing zeros stripped, over one positive
denominator ``den``, with gcd(nums..., den) = 1.  The zero polynomial is ``()``
over 1.  Each rational polynomial so has exactly one stored form, equality
compares vectors, and every kernel (products, Horner's scheme, the identity
certificate) runs on integers.  ``den`` times the polynomial has the
integer coefficients ``nums``, so its content is gcd(nums)/den and its
primitive part nums/gcd(nums) (Knuth, TAOCP Vol. 2, 4.6.1).

``coeffs`` is the tuple of reduced ``Fraction`` coefficients, formed on first
use and kept, for serialization and for readers that want them one by one.
``float_coeffs`` gives the correctly rounded doubles the numerical side works
on.  Values enter only as ``int`` or ``Fraction``; a binary float raises
``ModeMismatchError``, so nothing rounded reaches an exact identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

#: the ``mode`` tag of the JSON form
RATIONAL = "rational"

Scalar = Union[int, Fraction]


class ModeMismatchError(TypeError):
    """A binary float was offered where only exact values are allowed."""


def _as_rational(value) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise ModeMismatchError(f"exact polynomials cannot absorb {type(value).__name__} {value!r}")


def _integer_form(values: Sequence[Scalar]) -> tuple[list[int], int]:
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


def _stripped(coeffs: tuple) -> tuple:
    """``coeffs`` without its trailing zeros."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class Polynomial:
    """Immutable dense polynomial: coefficient k is ``nums[k] / den``."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        nums, den = _integer_form([_as_rational(c) for c in coeffs])
        # Reduced coefficients over the lcm of their denominators share no
        # factor with it, so the vector is already canonical.
        self._set(_stripped(tuple(nums)), den)

    def _set(self, nums: tuple, den: int) -> None:
        setter = object.__setattr__
        setter(self, "nums", nums)
        setter(self, "den", den)
        setter(self, "_coeffs", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _of(cls, nums: tuple, den: int) -> "Polynomial":
        """Store a vector the caller has formed canonical, as it is."""
        self = object.__new__(cls)
        self._set(nums, den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, nums: Sequence[int], den: int = 1) -> "Polynomial":
        """The polynomial with coefficients ``nums[k] / den``, for any nonzero ``den``."""
        nums = list(_stripped(tuple(nums)))
        if not nums:
            return cls.zero()
        if den < 0:
            nums, den = [-x for x in nums], -den
        g = math.gcd(den, *nums)
        if g > 1:
            nums, den = [x // g for x in nums], den // g
        return cls._of(tuple(nums), den)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of((), 1)

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls([value])

    @classmethod
    def from_roots(cls, roots: Sequence[Scalar]) -> "Polynomial":
        """Monic polynomial with the given roots.

        The roots are scaled to integers a_i over their common denominator D
        and the product of (y - a_i) is formed over ``int``; see
        ``from_scaled``.
        """
        nums, den = _integer_form([_as_rational(r) for r in roots])
        return cls.from_scaled(root_product(nums), den)

    @classmethod
    def from_scaled(cls, c: Sequence[int], den: int, lead: int = 1) -> "Polynomial":
        """The rational polynomial c(den x) / (lead den^m), m = len(c) - 1.

        Coefficient k is c_k den^k / (lead den^m), so the integer vector is
        formed directly.  With ``c`` the root product of integers a_i and
        lead 1 this is the monic polynomial with roots a_i / den.
        """
        nums = []
        power = 1
        for ck in c:
            nums.append(ck * power)
            power *= den
        return cls.from_ints(nums, lead * (power // den))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced ``Fraction``s, ascending by degree."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self.den
            coeffs = tuple(Fraction(x, den) for x in self.nums)
            object.__setattr__(self, "_coeffs", coeffs)
        return coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: Scalar) -> Fraction:
        """The exact value at ``x``, by Horner's scheme on integers.

        With x = a/b and degree m the scheme forms
        sum nums_k a^k b^(m-k), and the value is that over den b^m.
        """
        x = _as_rational(x)
        a, b = x.numerator, x.denominator
        acc = 0
        power = 1  # b^(m-k) at step k
        for c in reversed(self.nums):
            acc = acc * a + c * power
            power *= b
        return Fraction(acc * b, self.den * power)  # power = b^(m+1) here

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        out = [x * sa for x in self.nums]
        out += [0] * (len(other.nums) - len(out))
        for k, y in enumerate(other.nums):
            out[k] += y * sb
        return Polynomial.from_ints(out, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            return Polynomial.from_ints(_convolve(self.nums, other.nums), self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor: Scalar) -> "Polynomial":
        f = _as_rational(factor)
        return Polynomial.from_ints([x * f.numerator for x in self.nums], self.den * f.denominator)

    def divide_linear(self, root: Scalar) -> tuple["Polynomial", Fraction]:
        """Synthetic division by ``(x - root)``; returns (quotient, remainder).

        Exact, so ``remainder == 0`` certifies divisibility.  With root a/b and
        degree n the scheme runs on the integer carries Q_i = q_i den b^(n-1-i):
        Q_(n-1) = nums_n and Q_(i-1) = nums_i b^(n-i) + a Q_i.  So q_i is
        Q_i b^i over den b^(n-1), and the remainder is Q_(-1) over den b^n.
        """
        r = _as_rational(root)
        if self.is_zero:
            return self, Fraction(0)
        a, b = r.numerator, r.denominator
        nums = self.nums
        n = len(nums) - 1
        q = [0] * n
        carry = nums[-1]
        power = 1  # b^(n-1-i) for carry i
        for i in range(n - 1, -1, -1):
            q[i] = carry
            power *= b
            carry = nums[i] * power + a * carry
        quotient = Polynomial.from_ints([c * b**i for i, c in enumerate(q)], self.den * (power // b))
        return quotient, Fraction(carry, self.den * power)

    # -- numerical side ----------------------------------------------------

    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients as correctly rounded doubles.

        ``int / int`` is correctly rounded, so each is bit for bit
        ``float(c)`` of the reduced coefficient; one too small for a double
        rounds to zero and is stripped if it leads.  One too large raises
        ``OverflowError`` naming its power of x.
        """
        den = self.den
        out = []
        for k, x in enumerate(self.nums):
            try:
                out.append(x / den)
            except OverflowError:
                raise OverflowError(f"the coefficient of x^{k} does not fit in a double") from None
        return _stripped(tuple(out))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"mode": RATIONAL, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        if obj["mode"] != RATIONAL:
            raise ValueError(f"unknown scalar mode {obj['mode']!r}")
        return cls([Fraction(c) for c in obj["coeffs"]])

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def monic_linear(root: Scalar) -> Polynomial:
    """The monic linear polynomial ``x - root``."""
    r = _as_rational(root)
    return Polynomial._of((-r.numerator, r.denominator), r.denominator)


def products_cancel(terms: Iterable[tuple[int, Polynomial, Polynomial]]) -> bool:
    """True iff the sum of ``weight * left * right`` is exactly zero.

    Each left factor's numerators are scaled by its weight and brought over
    the lcm of the products' denominators, so one integer combination of the
    stored vectors decides it exactly and no ``Fraction`` is built.
    """
    terms = tuple(terms)
    den = math.lcm(*(left.den * right.den for _, left, right in terms))
    return not _combination(
        *(
            ([weight * (den // (left.den * right.den)) * c for c in left.nums], right.nums)
            for weight, left, right in terms
        )
    )
