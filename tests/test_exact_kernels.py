"""The integer kernels of the exact layer against plain Fraction references.

A ``Polynomial`` is stored as integer numerators over one denominator.
``Polynomial.from_roots``, ``Polynomial.__mul__``, the exact cancellation
test ``products_cancel`` behind the identity certificate
``verify_identity``, and the oracle point draw all run on integers.  Each
is checked here against the straightforward per-coefficient ``Fraction``
computation it replaces, written out inside the test, and every operation
is checked to leave the stored vector in its one canonical form.
"""

import dataclasses
import math
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace.poly import ModeMismatchError, Polynomial, products_cancel
from interlace.relations import _draw_chain, oracle_pair_up, verify_identity

# Mixed denominators, zero and negative values; integers as plain ints too.
fractions = st.fractions(min_value=-7, max_value=7, max_denominator=60)
roots = st.one_of(fractions, st.integers(min_value=-5, max_value=5))
root_lists = st.lists(roots, max_size=12).flatmap(
    # repeat a prefix of the list, so repeated roots are common
    lambda rs: st.integers(min_value=0, max_value=len(rs)).map(lambda k: rs + rs[:k])
)
coeff_lists = st.lists(fractions, max_size=10)


def reference_from_roots(rs) -> list[F]:
    """Monic product of (x - r) by one Fraction multiply-add per coefficient."""
    out = [F(1)]
    for r in rs:
        nxt = [F(0)] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i + 1] += c
            nxt[i] -= F(r) * c
        out = nxt
    return out


def reference_mul(a, b) -> list[F]:
    """Schoolbook product of two Fraction coefficient lists."""
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


class TestFromRoots:
    @given(root_lists)
    @settings(max_examples=200)
    def test_matches_fraction_reference(self, rs):
        p = Polynomial.from_roots(rs)
        assert list(p.coeffs) == reference_from_roots(rs)
        assert all(type(c) is F for c in p.coeffs)

    def test_empty_roots_give_one(self):
        assert Polynomial.from_roots([]) == Polynomial([1])

    def test_zero_and_repeated_roots(self):
        # x^2 (x + 1/2)^2 = x^4 + x^3 + x^2/4
        p = Polynomial.from_roots([0, F(-1, 2), 0, F(-1, 2)])
        assert p.coeffs == (0, 0, F(1, 4), 1, 1)

    def test_coefficients_are_in_lowest_terms(self):
        p = Polynomial.from_roots([F(1, 6), F(1, 10), F(-1, 15)])
        assert list(p.coeffs) == reference_from_roots([F(1, 6), F(1, 10), F(-1, 15)])
        assert all(math.gcd(c.numerator, c.denominator) == 1 for c in p.coeffs)

    def test_float_root_in_rational_mode_is_refused(self):
        with pytest.raises(ModeMismatchError):
            Polynomial.from_roots([F(1, 2), 0.5])


class TestMul:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=200)
    def test_matches_fraction_reference(self, a, b):
        got = Polynomial(a) * Polynomial(b)
        want = reference_mul(Polynomial(a).coeffs, Polynomial(b).coeffs)
        assert list(got.coeffs) == want

    def test_zero_polynomial_annihilates(self):
        p = Polynomial([F(1, 3), 2, F(-5, 7)])
        assert (p * Polynomial.zero()).is_zero
        assert (Polynomial.zero() * p).is_zero

    def test_constants(self):
        p = Polynomial([F(1, 3), 2, F(-5, 7)])
        assert p * Polynomial.constant(F(3, 2)) == p.scale(F(3, 2))
        assert Polynomial.constant(F(2, 9)) * Polynomial.constant(F(3, 4)) == Polynomial(
            [F(1, 6)]
        )

    def test_mode_mix_refused(self):
        # A float enters neither as a factor nor as a coefficient.
        with pytest.raises(ModeMismatchError):
            Polynomial([1, 2]) * 0.5
        with pytest.raises(ModeMismatchError):
            Polynomial([1, 2]) * Polynomial([1.0])


def assert_canonical(p: Polynomial) -> None:
    """``p`` is stored in its one form: trailing zeros stripped, a positive
    denominator, no factor common to it and every numerator."""
    assert type(p.nums) is tuple and all(type(x) is int for x in p.nums)
    assert type(p.den) is int and p.den > 0
    if p.nums:
        assert p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1
    else:
        assert p.den == 1
    assert p.coeffs == tuple(F(x, p.den) for x in p.nums)


class TestIntegerVector:
    @given(coeff_lists, coeff_lists, fractions)
    @settings(max_examples=100)
    def test_every_operation_stores_the_canonical_form(self, a, b, r):
        pa, pb = Polynomial(a), Polynomial(b)
        quotient, remainder = pa.divide_linear(r)
        results = (
            pa, pa + pb, pa - pb, -pa, pa * pb, pa.scale(r), pa.mul_linear(r), quotient,
            Polynomial.from_roots(a), Polynomial.from_json(pa.to_json()),
        )
        for p in results:
            assert_canonical(p)
        assert remainder == pa.evaluate(r)
        assert quotient.mul_linear(r) + Polynomial([remainder]) == pa

    @given(coeff_lists, st.integers(min_value=-50, max_value=50).filter(bool), st.integers(0, 3))
    @settings(max_examples=100)
    def test_from_ints_takes_any_scaled_vector(self, a, k, zeros):
        p = Polynomial(a)
        scaled = Polynomial.from_ints([x * k for x in p.nums] + [0] * zeros, p.den * k)
        assert_canonical(scaled)
        assert scaled == p and hash(scaled) == hash(p)

    @given(coeff_lists, fractions)
    @settings(max_examples=100)
    def test_evaluate_is_the_fraction_horner(self, a, x):
        want = F(0)
        for c in reversed(Polynomial(a).coeffs):
            want = want * x + c
        assert Polynomial(a).evaluate(x) == want
        assert type(Polynomial(a).evaluate(x)) is F

    @given(coeff_lists)
    @settings(max_examples=100)
    def test_float_coeffs_are_the_rounded_fractions(self, a):
        p = Polynomial(a)
        assert p.float_coeffs() == tuple(float(c) for c in p.coeffs)

    def test_monic_member_is_stored_over_its_leading_entry(self):
        p = Polynomial.from_roots([F(1, 6), F(-1, 10)])
        # (x - 1/6)(x + 1/10) = x^2 - x/15 - 1/60
        assert p.nums == (-1, -4, 60) and p.den == 60 and p.is_monic


class TestProductsCancel:
    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=100)
    def test_matches_fraction_reference(self, a, b, c):
        pa, pb, pc = (Polynomial(x) for x in (a, b, c))
        want = reference_mul(pa.coeffs, pb.coeffs) == reference_mul(pb.coeffs, pc.coeffs)
        assert products_cancel([(1, pa, pb), (-1, pb, pc)]) is want

    @given(coeff_lists, coeff_lists)
    def test_commuted_product_cancels(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        assert products_cancel([(1, pa, pb), (-1, pb, pa)])
        assert products_cancel([(2, pa, pb), (-1, pb, pa), (-1, pa, pb)])

    def test_zero_polynomials_and_no_terms(self):
        p = Polynomial([F(1, 3), 2])
        assert products_cancel([])
        assert products_cancel([(1, Polynomial.zero(), p), (3, p, Polynomial.zero())])
        assert not products_cancel([(1, Polynomial.zero(), p), (1, p, p)])


@lru_cache(maxsize=None)
def _relation_n24():
    return oracle_pair_up(24, 0)


def _float_term(rel, term: str) -> tuple:
    """The field to replace, and ``term`` rounded to floats to put in it.

    H is derived as x - E, so a float H comes from a float E.  A polynomial
    refuses float coefficients, so a float P, say, is refused here already.
    """
    if term == "H":
        return "E", float(rel.E)
    return term, Polynomial(getattr(rel, term).float_coeffs())


def _perturb(p: Polynomial, index: int, delta: F) -> Polynomial:
    coeffs = list(p.coeffs)
    coeffs[index] += delta
    return Polynomial(coeffs)


class TestVerifyIdentity:
    def test_oracle_relation_certifies(self):
        assert verify_identity(_relation_n24())

    @given(
        st.sampled_from("ABPGQ"),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=3),
        st.sampled_from((1, -1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_coefficient_off_by_one_over_d_to_the_k(self, term, index, k, sign):
        rel = _relation_n24()
        poly = getattr(rel, term)
        index %= len(poly.coeffs)
        den = math.lcm(*(c.denominator for c in poly.coeffs))
        bad = dataclasses.replace(rel, **{term: _perturb(poly, index, F(sign, den**k))})
        assert not verify_identity(bad)

    def test_sign_matters(self):
        rel = _relation_n24()
        assert not verify_identity(dataclasses.replace(rel, sign=-rel.sign))

    @pytest.mark.parametrize("term", ["A", "B", "H", "P", "G", "Q"])
    def test_float_term_refused(self, term):
        rel = _relation_n24()
        with pytest.raises(ModeMismatchError):
            verify_identity(dataclasses.replace(rel, **dict([_float_term(rel, term)])))

    def test_all_float_terms_refused(self):
        rel = _relation_n24()
        with pytest.raises(ModeMismatchError):
            floats = dict(_float_term(rel, t) for t in ("A", "B", "H", "P", "G", "Q"))
            verify_identity(dataclasses.replace(rel, **floats))


def reference_draw_chain(rng: random.Random, total: int) -> list[F]:
    """Slot centres plus a Fraction jitter, one randrange(4097) per point."""
    lo, hi = F(-1), F(1)
    step = (hi - lo) / (total + 1)
    jitter = min(F(1, 100), step / 4)
    return [
        lo + step * (i + 1) + (-jitter + 2 * jitter * F(rng.randrange(4097), 4096))
        for i in range(total)
    ]


@pytest.mark.parametrize("total", [1, 2, 3, 4, 17, 48, 49, 50, 51, 52, 62, 99])
def test_draw_chain_matches_fraction_reference(total):
    for seed in range(4):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        nums, den = _draw_chain(got_rng, total)
        assert [F(x, den) for x in nums] == reference_draw_chain(want_rng, total)
        # the same number of draws, so every later draw is unchanged too
        assert got_rng.random() == want_rng.random()
