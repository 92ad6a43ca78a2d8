"""Core polynomial arithmetic: exactness, no floats, frozen small cases."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace.families import jacobi, monic_by_recurrence
from interlace.poly import ModeMismatchError, Polynomial, monic_linear

small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=9)
coeff_lists = st.lists(small_fraction, min_size=0, max_size=13)


def linear_combine(a, p: Polynomial, b, q: Polynomial) -> Polynomial:
    """a p + b q, where b is a scalar or a polynomial."""
    return p.scale(a) + b * q


def eval_powersum(p: Polynomial, x: F) -> F:
    """Independent oracle: term-by-term power sum, no Horner."""
    return sum((c * x**i for i, c in enumerate(p.coeffs)), F(0))


class TestEvaluate:
    def test_root_by_construction(self):
        assert Polynomial([-1, 1]).evaluate(F(1)) == 0

    def test_reduced_cubic_at_one(self):
        # coefficients 1, 3, 1; value at 1 is their sum
        assert Polynomial([1, 3, 1]).evaluate(F(1)) == 5

    def test_degree_one_discrete_member(self):
        # x - N p with p = 1/2, N = 4 vanishes at 2
        assert Polynomial([-2, 1]).evaluate(F(2)) == 0

    @given(coeff_lists, small_fraction)
    @settings(max_examples=150)
    def test_horner_matches_power_sum(self, coeffs, x):
        p = Polynomial(coeffs)
        assert p.evaluate(x) == eval_powersum(p, x)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            Polynomial([1, 2]).evaluate(0.5)
        with pytest.raises(ModeMismatchError):
            Polynomial([1.0])


class TestMulLinear:
    def test_constant_times_x(self):
        assert Polynomial([1]).mul_linear(F(0)) == Polynomial([0, 1])

    def test_difference_of_squares(self):
        assert Polynomial([1, 1]).mul_linear(F(1)) == Polynomial([-1, 0, 1])

    def test_reduced_cubic_times_linear(self):
        # (1 + 3x + x^2)(x - 1) = -1 - 2x + 2x^2 + x^3, by hand
        got = Polynomial([1, 3, 1]).mul_linear(F(1))
        assert got == Polynomial([-1, -2, 2, 1])

    @given(coeff_lists, small_fraction)
    @settings(max_examples=150)
    def test_divide_linear_inverts(self, coeffs, root):
        p = Polynomial(coeffs)
        q, r = p.mul_linear(root).divide_linear(root)
        assert q == p
        assert r == 0

    def test_degree_grows_by_one(self):
        p = Polynomial([2, 0, 5])
        assert p.mul_linear(F(3)).degree == p.degree + 1


class TestLinearCombine:
    def test_cancellation(self):
        x = Polynomial([0, 1])
        assert linear_combine(F(1), x, F(-1), x).is_zero

    def test_polynomial_weight(self):
        # x^2 * 1 + (x - 1) * x = 2x^2 - x, by hand
        got = linear_combine(F(1), Polynomial([0, 0, 1]), Polynomial([-1, 1]), Polynomial([0, 1]))
        assert got == Polynomial([0, -1, 2])

    def test_perturbed_reduced_combination(self):
        # frozen hand expansion at index 3:
        # (1/2)(1 + 5x + x^2) equals (3/2)(1 + 3x + x^2) - (x + 1)(1 + x)
        lhs = Polynomial([1, 5, 1]).scale(F(1, 2))
        rhs = linear_combine(
            F(3, 2), Polynomial([1, 3, 1]), -Polynomial([1, 1]), Polynomial([1, 1])
        )
        assert lhs == rhs

    @given(small_fraction, small_fraction, small_fraction, small_fraction, coeff_lists, coeff_lists)
    @settings(max_examples=100)
    def test_bilinear_in_both_scalars(self, a1, a2, b1, b2, pc, qc):
        p, q = Polynomial(pc), Polynomial(qc)
        left = linear_combine(a1, p, b1, q) + linear_combine(a2, p, b2, q)
        right = linear_combine(a1 + a2, p, b1 + b2, q)
        assert left == right


class TestIdenticallyZero:
    def test_zero_polynomial(self):
        assert Polynomial.zero().is_zero

    def test_tiny_rational_is_not_zero(self):
        # exactness means no thresholding
        assert not Polynomial([0, F(1, 10**30)]).is_zero

    def test_float_mode_rejected(self):
        with pytest.raises(ModeMismatchError):
            Polynomial([0.0])

    def test_discrete_relation_residual(self):
        # frozen hand expansion of the N -> N+1 mixed relation at
        # n=2, p=1/2, N=4 (see the relation suite for the general case):
        # A*P - B*G - H*Q with all pieces written out longhand.
        A = F(9, 4)
        P = Polynomial([5, -5, 1])  # degree-2 member, parameter 5
        G = Polynomial([-3, F(19, 2), -6, 1])  # degree-3 member, parameter 4
        Q = Polynomial([F(-15, 2), F(31, 2), F(-15, 2), 1])  # degree-3, parameter 5
        B = Polynomial([5, -1])
        H = Polynomial([F(-7, 2), 1])
        residual = P.scale(A) - B * G - H * Q
        assert residual.is_zero


class TestModeDiscipline:
    def test_no_silent_promotion_on_construction(self):
        with pytest.raises(ModeMismatchError):
            Polynomial([0.5])
        with pytest.raises(ModeMismatchError):
            Polynomial.from_roots([0.5])

    def test_no_cross_mode_arithmetic(self):
        with pytest.raises(ModeMismatchError):
            Polynomial([1]).mul_linear(0.5)
        with pytest.raises(ModeMismatchError):
            Polynomial([1]).scale(0.5)

    def test_explicit_demotion(self):
        assert Polynomial([F(1, 2), 3]).float_coeffs() == (0.5, 3.0)


class TestStructure:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 1

    def test_zero_polynomial_degree(self):
        assert Polynomial.zero().degree == -1
        assert Polynomial([0, 0]).is_zero

    def test_monic_and_leading(self):
        assert Polynomial([3, 1]).is_monic
        assert Polynomial([1, 2]).leading_coefficient == 2
        with pytest.raises(ValueError):
            Polynomial.zero().leading_coefficient

    def test_from_roots(self):
        p = Polynomial.from_roots([F(1), F(-2)])
        assert p == Polynomial([-2, 1, 1])
        assert p.evaluate(F(1)) == 0 and p.evaluate(F(-2)) == 0

    def test_monic_linear(self):
        assert monic_linear(F(1, 2)) == Polynomial([F(-1, 2), 1])


class TestTrustedConstructor:
    """``Polynomial._of`` stores a canonical vector formed in-module as it is;
    ``Polynomial.from_ints`` brings any integer vector to that form."""

    @given(coeff_lists, st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_equal_to_public_route(self, coeffs, zeros):
        padded = coeffs + [F(0)] * zeros  # trailing zeros are still stripped
        public = Polynomial(padded)
        trusted = Polynomial._of(public.nums, public.den)
        assert trusted == public and hash(trusted) == hash(public)
        assert trusted.coeffs == public.coeffs
        den = 6 * public.den
        scaled = Polynomial.from_ints([c.numerator * (den // c.denominator) for c in padded], den)
        assert scaled == public and scaled.coeffs == public.coeffs

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_constructing_callers_match_public_route(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        product = pa * pb
        assert product == Polynomial(list(product.coeffs))
        assert pa.float_coeffs() == tuple(float(c) for c in pa.coeffs)

    def test_from_scaled_and_recurrence_match_public_route(self):
        scaled = Polynomial.from_scaled([1, -3, 2], 5, lead=7)
        assert scaled == Polynomial([F(1, 7 * 25), F(-3, 7 * 5), F(2, 7)])
        assert hash(scaled) == hash(Polynomial(list(scaled.coeffs)))
        member = monic_by_recurrence(jacobi(F(1, 2), F(-1, 3), 6))
        assert member == Polynomial(list(member.coeffs))
        assert hash(member) == hash(Polynomial(list(member.coeffs)))

    def test_float_coeffs_strips_a_leading_underflow(self):
        p = Polynomial([1, F(1, 10**400)])
        assert p.degree == 1
        assert p.float_coeffs() == (1.0,)

    def test_public_constructor_still_refuses_mixed_input(self):
        with pytest.raises(ModeMismatchError):
            Polynomial([F(1, 2), 0.5])
        with pytest.raises(ModeMismatchError):
            Polynomial.constant(0.5)


class TestSerialization:
    def test_rational_roundtrip(self):
        p = Polynomial([F(1, 2), -3, F(7, 5)])
        obj = p.to_json()
        assert obj == {"mode": "rational", "coeffs": ["1/2", "-3", "7/5"]}
        assert Polynomial.from_json(obj) == p

    def test_only_the_rational_form_is_read(self):
        with pytest.raises(ValueError, match="unknown scalar mode 'float'"):
            Polynomial.from_json({"mode": "float", "coeffs": [0.5, -3.0]})

    def test_integer_coefficients_render_without_denominator(self):
        assert Polynomial([1, 3, 1]).to_json()["coeffs"] == ["1", "3", "1"]
