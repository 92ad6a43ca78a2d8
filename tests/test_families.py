"""Family constructors: recurrences, cross-check routes, weights, added points."""

import math
from fractions import Fraction as F

import pytest

from interlace import families
from interlace.relations import CHECKS
from interlace.families import (
    ConstructionError,
    FamilySpec,
    InvalidParameterError,
    chain_scope,
    jacobi,
    krawtchouk,
    laguerre,
    meixner,
    monic_by_recurrence,
    narayana_christoffel,
    narayana_perturbed,
    narayana_reduced,
    narayana_rho,
    narayana_spec,
    recurrence_coeffs,
)
from interlace.rootfind import zeros_orthogonal
from interlace.poly import Polynomial, _integer_form

import exact_reference
from exact_reference import (
    hypergeometric_check,
    hypergeometric_poly,
    krawtchouk_edge_value,
    mul_linear,
    narayana_coeff,
    pochhammer,
    weight_at,
)

JACOBI_GRID = [F(-1, 2), F(0), F(1), F(5, 2), F(14)]


class TestRecurrence:
    def test_laguerre_degree_one(self):
        assert monic_by_recurrence(laguerre(0, 1)) == Polynomial([-1, 1])

    def test_krawtchouk_degree_one(self):
        assert monic_by_recurrence(krawtchouk(F(1, 2), 4, 1)) == Polynomial([-2, 1])

    @pytest.mark.parametrize("alpha", [F(0), F(3, 2), F(-1, 2)])
    def test_jacobi_symmetric_degree_one(self, alpha):
        assert monic_by_recurrence(jacobi(alpha, alpha, 1)) == Polynomial([0, 1])

    def test_jacobi_chebyshev_case(self):
        # alpha = beta = -1/2 gives the monic Chebyshev member x^2 - 1/2;
        # exercises the cancelled off-diagonal form at the second step
        got = monic_by_recurrence(jacobi(F(-1, 2), F(-1, 2), 2))
        assert got == Polynomial([F(-1, 2), 0, 1])

    def test_laguerre_degree_two(self):
        # (x - 3)(x - 1) - 1 = x^2 - 4x + 2, by hand from c2 = 3, l2 = 1
        assert monic_by_recurrence(laguerre(0, 2)) == Polynomial([2, -4, 1])

    def test_meixner_degree_one(self):
        # x - t w / (1 - w) at t = 1, w = 1/2
        assert monic_by_recurrence(meixner(1, F(1, 2), 1)) == Polynomial([-1, 1])

    @pytest.mark.parametrize(
        "spec",
        [
            jacobi(F(5, 2), F(-1, 2), 8),
            laguerre(F(-1, 2), 8),
            krawtchouk(F(3, 4), 9, 8),
            meixner(F(1, 2), F(3, 4), 8),
        ],
    )
    def test_monic_everywhere(self, spec):
        for n in range(spec.n + 1):
            member = monic_by_recurrence(FamilySpec.make(spec.kind, n, **dict(spec.params)))
            if n == 0:
                assert member == Polynomial([1])
            assert member.is_monic
            assert member.degree == n

    def test_offdiagonal_positivity_on_grids(self):
        specs = [jacobi(a, b, 10) for a in JACOBI_GRID for b in JACOBI_GRID]
        specs += [laguerre(a, 10) for a in JACOBI_GRID]
        specs += [krawtchouk(p, 10, 10) for p in (F(1, 10), F(1, 2), F(9, 10))]
        specs += [meixner(t, w, 10) for t in (F(1, 2), 1, 3) for w in (F(1, 4), F(3, 4))]
        for spec in specs:
            rc = recurrence_coeffs(spec)
            assert all(l > 0 for l in rc.lam[1:]), spec

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError, match="0 < p < 1"):
            krawtchouk(F(3, 2), 4, 1)
        with pytest.raises(InvalidParameterError, match="n <= N"):
            krawtchouk(F(1, 2), 4, 5)
        with pytest.raises(InvalidParameterError, match="alpha > -1"):
            jacobi(-2, 0, 3)
        with pytest.raises(InvalidParameterError, match="t > 0"):
            meixner(0, F(1, 2), 3)
        with pytest.raises(InvalidParameterError, match="0 < w < 1"):
            meixner(1, 1, 3)


BOUND_VALUES = [F(x) for x in ("-2", "-7/5", "-1", "-5/7", "-1/2", "0", "1/3", "1", "4/3", "5", "11/2")]


def _accepted(make) -> bool:
    try:
        make()
    except InvalidParameterError:
        return False
    return True


class TestValidateBounds:
    """``FamilySpec.validate`` tests each bound on integers; Fraction comparisons decide the same."""

    @pytest.mark.parametrize("x", BOUND_VALUES)
    def test_jacobi_laguerre_meixner(self, x):
        assert _accepted(lambda: laguerre(x, 2)) == (x > -1)
        for y in BOUND_VALUES:
            assert _accepted(lambda: jacobi(x, y, 2)) == (x > -1 and y > -1), y
            assert _accepted(lambda: meixner(x, y, 2)) == (x > 0 and 0 < y < 1), y

    @pytest.mark.parametrize("p", BOUND_VALUES)
    def test_krawtchouk(self, p):
        for N in BOUND_VALUES:
            for n in (0, 1, 5, 6):
                want = 0 < p < 1 and N.denominator == 1 and N >= 1 and n <= N
                assert _accepted(lambda: krawtchouk(p, N, n)) == want, (N, n)


def _reference_jacobi_step(alpha, beta, k):
    """Fraction transcription of the Jacobi (c_{k+1}, l_{k+1}), cancelled at k = 0, 1."""
    if k == 0:
        return (beta - alpha) / (alpha + beta + 2), F(0)
    s = 2 * k + alpha + beta
    ck = (beta * beta - alpha * alpha) / (s * (s + 2))
    if k == 1:
        lk = 4 * (1 + alpha) * (1 + beta) / ((alpha + beta + 2) ** 2 * (alpha + beta + 3))
    else:
        lk = 4 * k * (k + alpha) * (k + beta) * (k + alpha + beta) / (s * s * (s + 1) * (s - 1))
    return ck, lk


def _reference_coeffs(spec):
    """The recurrence coefficients by plain Fraction arithmetic, as (c, lam) lists."""
    par = dict(spec.params)
    ks = range(spec.n)
    if spec.kind == "jacobi":
        steps = [_reference_jacobi_step(par["alpha"], par["beta"], k) for k in ks]
        return [c for c, _ in steps], [lam for _, lam in steps]
    if spec.kind == "laguerre":
        alpha = par["alpha"]
        return [2 * k + alpha + 1 for k in ks], [F(k) * (k + alpha) for k in ks]
    if spec.kind == "krawtchouk":
        p, N = par["p"], par["N"]
        return (
            [p * (N - k) + k * (1 - p) for k in ks],
            [k * p * (1 - p) * (N + 1 - k) for k in ks],
        )
    t, w = par["t"], par["w"]
    return (
        [(k + w * (k + t)) / (1 - w) for k in ks],
        [w * k * (k + t - 1) / (1 - w) ** 2 for k in ks],
    )


def _reference_monic(spec):
    """Plain Fraction run of P_{k+1} = (x - c_k) P_k - l_k P_{k-1}, ascending."""
    prev, cur = [], [F(1)]
    for c, lam in zip(*_reference_coeffs(spec)):
        nxt = [F(0)] + cur
        for i, a in enumerate(cur):
            nxt[i] -= c * a
        for i, a in enumerate(prev):
            nxt[i] -= lam * a
        prev, cur = cur, nxt
    return Polynomial(cur)


COEFF_SPECS = [
    # alpha + beta = -1 and alpha + beta = 0 take the cancelled k = 0, 1 steps
    lambda n: jacobi(F(-1, 2), F(-1, 2), n),
    lambda n: jacobi(F(-2, 3), F(-1, 3), n),
    lambda n: jacobi(F(1, 3), F(-1, 3), n),
    lambda n: jacobi(F(-3, 4), F(3, 4), n),
    lambda n: jacobi(F(-1, 2), F(5, 3), n),
    lambda n: jacobi(14, 14, n),
    lambda n: jacobi(2, 14, n),
    lambda n: jacobi(F(-99, 100), F(7, 10), n),
    lambda n: laguerre(F(-1, 2), n),
    lambda n: laguerre(0, n),
    lambda n: laguerre(F(-99, 100), n),
    lambda n: laguerre(F(5, 2), n),
    lambda n: krawtchouk(F(1, 3), max(n, 1), n),  # n = N: last member
    lambda n: krawtchouk(F(1, 2), n + 1, n),
    lambda n: krawtchouk(F(99, 100), n + 7, n),
    lambda n: krawtchouk(F(2, 7), 80, n),
    lambda n: meixner(1, F(1, 2), n),
    lambda n: meixner(F(1, 2), F(3, 4), n),
    lambda n: meixner(F(1, 100), F(99, 100), n),  # w near 1
    lambda n: meixner(F(7, 3), F(999, 1000), n),
    lambda n: meixner(3, F(1, 1000), n),
]


class TestRecurrenceCoeffs:
    """The integer-numerator coefficients against the Fraction transcription."""

    @pytest.mark.parametrize("make", COEFF_SPECS)
    def test_match_fraction_reference(self, make):
        for n in range(61):
            spec = make(n)
            rc = recurrence_coeffs(spec)
            ref_c, ref_lam = _reference_coeffs(spec)
            assert list(rc.c) == ref_c and list(rc.lam) == ref_lam, spec
            assert all(type(x) is F for x in rc.c + rc.lam), spec

    @pytest.mark.parametrize(
        "alpha, beta",
        [(F(-1, 2), F(-1, 2)), (F(1, 3), F(-1, 3)), (F(-1, 2), F(5, 3)), (F(14), F(14))],
    )
    def test_jacobi_step_coeffs_match_fraction_reference(self, alpha, beta):
        (a, b), d = _integer_form((alpha, beta))
        for k in range(61):
            got = families._jacobi_step(a, b, d, k)
            assert all(type(x) is int for x in got)
            c_num, c_den, l_num, l_den = got
            # each ratio in lowest terms over a positive denominator
            assert c_den > 0 and l_den > 0
            assert math.gcd(c_num, c_den) == 1 and math.gcd(l_num, l_den) == 1
            assert (F(c_num, c_den), F(l_num, l_den)) == _reference_jacobi_step(alpha, beta, k)


KERNEL_NS = (0, 1, 2, 3, 20, 60, 200)
KERNEL_SPECS = [
    # alpha + beta + 1 = 0 and alpha + beta = 0 hit the cancelled low steps
    lambda n: jacobi(F(-1, 2), F(-1, 2), n),
    lambda n: jacobi(F(1, 3), F(-1, 3), n),
    lambda n: jacobi(2, 14, n),
    lambda n: laguerre(F(-1, 2), n),
    lambda n: laguerre(F(5, 2), n),
    lambda n: krawtchouk(F(1, 3), max(n, 1), n),  # n = N: last member
    lambda n: krawtchouk(F(3, 4), n + 3, n),
    lambda n: meixner(1, F(1, 2), n),
    lambda n: meixner(F(1, 2), F(3, 4), n),
]


class TestExactKernel:
    """The integer common-denominator recurrence against a Fraction reference."""

    @pytest.mark.parametrize("n", KERNEL_NS)
    @pytest.mark.parametrize("make", KERNEL_SPECS)
    def test_matches_fraction_reference(self, make, n):
        spec = make(n)
        got = monic_by_recurrence(spec)
        assert got == _reference_monic(spec)
        assert got.degree == n and got.is_monic
        assert all(type(c) is F for c in got.coeffs)

    @pytest.mark.parametrize(
        "spec",
        [
            krawtchouk(F(1, 3), 43, 40),
            krawtchouk(F(2, 5), 40, 40),
            meixner(1, F(1, 2), 40),
            meixner(F(1, 2), F(3, 4), 40),
        ],
    )
    def test_hypergeometric_route_agrees_at_degree_40(self, spec):
        assert hypergeometric_check(spec) == monic_by_recurrence(spec)


#: degrees asked of one chain out of order: it extends, answers from its
#: prefix, then extends again
OUT_OF_ORDER = (40, 8, 41)


class TestChain:
    """Members and coefficients shared through ``chain_scope`` against fresh runs."""

    def test_members_shared_within_a_scope_only(self):
        with chain_scope():
            first = monic_by_recurrence(jacobi(2, 14, 12))
            assert monic_by_recurrence(jacobi(2, 14, 12)) is first
            assert monic_by_recurrence(jacobi(2, 14, 13)) is not first
            assert families._CHAINS.get() is not None
        assert families._CHAINS.get() is None
        assert monic_by_recurrence(jacobi(2, 14, 12)) is not first
        assert monic_by_recurrence(jacobi(2, 14, 12)) == first
        rc = recurrence_coeffs(jacobi(2, 14, 12))
        assert isinstance(rc.c, tuple) and isinstance(rc.lam, tuple)

    def test_one_chain_per_kind_and_parameters(self):
        with chain_scope():
            monic_by_recurrence(jacobi(2, 14, 5))
            monic_by_recurrence(jacobi(3, 15, 4))
            recurrence_coeffs(jacobi(2, 14, 9))
            zeros_orthogonal(laguerre(F(1, 2), 3))
            chains = families._CHAINS.get()
            # keyed on each parameter's numerator and denominator, in order
            assert set(chains) == {
                ("jacobi", 2, 1, 14, 1),
                ("jacobi", 3, 1, 15, 1),
                ("laguerre", 1, 2),
            }
            longest = chains["jacobi", 2, 1, 14, 1]
            assert (len(longest.steps), len(longest.members)) == (9, 6)
            # members past the built ones run on the steps already formed
            assert monic_by_recurrence(jacobi(2, 14, 9)) == _reference_monic(jacobi(2, 14, 9))
            assert (len(longest.steps), len(longest.members)) == (9, 10)

    def test_nested_scope_starts_empty_and_restores(self):
        with chain_scope():
            monic_by_recurrence(jacobi(2, 14, 5))
            outer = families._CHAINS.get()
            with chain_scope():
                assert families._CHAINS.get() == {}
                monic_by_recurrence(laguerre(0, 3))
            assert families._CHAINS.get() is outer and len(outer) == 1

    @pytest.mark.parametrize("make", COEFF_SPECS)
    def test_members_out_of_order_match_fresh_builds(self, make):
        with chain_scope():
            shared = [monic_by_recurrence(make(n)) for n in OUT_OF_ORDER]
        for n, member in zip(OUT_OF_ORDER, shared):
            fresh = monic_by_recurrence(make(n))
            assert (member.nums, member.den) == (fresh.nums, fresh.den), make(n)
            assert member.degree == n and member.is_monic

    @pytest.mark.parametrize("make", COEFF_SPECS)
    def test_coefficient_prefixes_match_fraction_reference(self, make):
        with chain_scope():
            for n in (*OUT_OF_ORDER, 0, 60):
                spec = make(n)
                rc = recurrence_coeffs(spec)
                ref_c, ref_lam = _reference_coeffs(spec)
                assert list(rc.c) == ref_c and list(rc.lam) == ref_lam, spec

    @pytest.mark.parametrize("make", COEFF_SPECS)
    def test_zeros_out_of_order_match_fresh_solves(self, make):
        with chain_scope():
            shared = [zeros_orthogonal(make(n)) for n in OUT_OF_ORDER]
        assert shared == [zeros_orthogonal(make(n)) for n in OUT_OF_ORDER]


class TestNarayana:
    def test_coeff_values(self):
        assert narayana_coeff(3, 2) == 3
        assert narayana_coeff(1, 1) == 1
        assert narayana_coeff(4, 2) == 6

    def test_coeff_range(self):
        with pytest.raises(InvalidParameterError):
            narayana_coeff(3, 0)
        with pytest.raises(InvalidParameterError):
            narayana_coeff(3, 4)

    def test_closed_forms_equal_their_fraction_forms(self):
        # Each is formed as one integer vector over one denominator; the
        # Christoffel member still passes its division route and rho check.
        for n in range(1, 201):
            assert narayana_reduced(n) == exact_reference.narayana_reduced(n)
            if n >= 2:
                assert narayana_christoffel(n) == exact_reference.narayana_christoffel(n)
                assert narayana_perturbed(n) == exact_reference.narayana_perturbed(n)

    def test_reduced_small_members(self):
        assert narayana_reduced(1) == Polynomial([1])
        assert narayana_reduced(2) == Polynomial([1, 1])
        assert narayana_reduced(3) == Polynomial([1, 3, 1])

    def test_reduced_zero_at_minus_one_for_even(self):
        assert narayana_reduced(2).evaluate(F(-1)) == 0

    def test_raw_equals_x_times_reduced(self):
        # The closed form against the three-term recurrence it replaced.
        x = Polynomial([0, 1])
        for n in range(1, 41):
            raw = monic_by_recurrence(narayana_spec("narayana", n))
            assert raw == x * narayana_reduced(n)
            assert raw == exact_reference.narayana_raw(n)

    def test_recurrence_matches_closed_form(self):
        # The reduced member has one route, the closed form, whichever
        # entry point builds it.
        for n in range(1, 16):
            assert monic_by_recurrence(narayana_spec("narayana-reduced", n)) == narayana_reduced(n)

    def test_palindromic_coefficients(self):
        # reciprocal identity: coefficient vector reads the same reversed
        for n in range(1, 16):
            coeffs = narayana_reduced(n).coeffs
            assert coeffs == tuple(reversed(coeffs))

    def test_minus_one_zero_iff_even(self):
        for n in range(1, 16):
            value = narayana_reduced(n).evaluate(F(-1))
            assert (value == 0) == (n % 2 == 0)

    def test_rho_closed_form(self):
        assert narayana_rho(2) == F(5, 2)
        for n in range(2, 13):
            narayana_rho(n)  # raises on disagreement with the definition

    def test_christoffel_small_members(self):
        assert narayana_christoffel(2) == Polynomial([F(3, 2), 1])
        # by hand from the coefficient scaling at index 3:
        # (9/5)*1, (7/5)*3, (5/5)*1
        assert narayana_christoffel(3) == Polynomial([F(9, 5), F(21, 5), 1])

    def test_christoffel_division_route_recomputed(self):
        # independent re-derivation: combination vanishing at 1, then
        # synthetic division, compared against the constructor output
        for n in range(2, 13):
            rho = F(2 * (2 * n + 1), n + 2)
            numer = narayana_reduced(n + 1) - narayana_reduced(n).scale(rho)
            assert numer.evaluate(F(1)) == 0
            quotient, remainder = numer.divide_linear(F(1))
            assert remainder == 0
            assert quotient == narayana_christoffel(n)

    def test_christoffel_is_monic_degree_n_minus_one(self):
        for n in range(2, 13):
            member = narayana_christoffel(n)
            assert member.is_monic and member.degree == n - 1

    def test_perturbed_small_members(self):
        assert narayana_perturbed(2) == Polynomial([1, 1])
        assert narayana_perturbed(3) == Polynomial([1, 5, 1])
        assert narayana_perturbed(4) == Polynomial([1, 12, 12, 1])

    def test_perturbed_matches_direct_binomials(self):
        def comb0(m, r):
            return math.comb(m, r) if 0 <= r <= m else 0

        for n in range(2, 13):
            expected = [
                F(comb0(n - 1, j) ** 2 + comb0(n - 1, j + 1) * comb0(n - 1, j - 1))
                for j in range(n)
            ]
            assert narayana_perturbed(n) == Polynomial(expected)

    def test_pre_rearrangement_identity(self):
        # n * reduced_n = perturbed_n + (1 + x)(n - 1) reduced_{n-1}, exactly
        for n in range(2, 13):
            lhs = narayana_reduced(n).scale(n)
            rhs = narayana_perturbed(n) + mul_linear(narayana_reduced(n - 1), -1).scale(n - 1)
            assert lhs == rhs


class TestHypergeometricRoute:
    def test_trivial_degree_zero(self):
        assert hypergeometric_poly(krawtchouk(F(1, 2), 4, 0)) == Polynomial([1])

    def test_degree_one(self):
        assert hypergeometric_poly(krawtchouk(F(1, 2), 4, 1)) == Polynomial([-2, 1])

    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(3, 4)])
    @pytest.mark.parametrize("N", [7, 10])
    def test_krawtchouk_grid(self, p, N):
        for n in range(min(N, 10) + 1):
            assert hypergeometric_check(krawtchouk(p, N, n)).is_monic

    @pytest.mark.parametrize("t", [F(1, 2), F(1), F(3)])
    @pytest.mark.parametrize("w", [F(1, 4), F(1, 2), F(3, 4)])
    def test_meixner_grid(self, t, w):
        for n in range(11):
            assert hypergeometric_check(meixner(t, w, n)).is_monic

    def test_non_applicable_family(self):
        with pytest.raises(InvalidParameterError):
            hypergeometric_poly(laguerre(0, 3))


class TestWeights:
    def test_krawtchouk_at_zero(self):
        assert weight_at(krawtchouk(F(1, 2), 2, 0), 0) == F(1, 4)

    def test_meixner_at_zero(self):
        assert weight_at(meixner(2, F(1, 2), 0), 0) == 1

    def test_meixner_shift_ratio(self):
        # t * rho(x; t+1, w) = (x + t) * rho(x; t, w) at x=3, t=2, w=1/2;
        # both sides equal 5/2 by direct evaluation
        lhs = 2 * weight_at(meixner(3, F(1, 2), 0), 3)
        rhs = (3 + 2) * weight_at(meixner(2, F(1, 2), 0), 3)
        assert lhs == rhs == F(5, 2)

    def test_out_of_support(self):
        with pytest.raises(InvalidParameterError):
            weight_at(krawtchouk(F(1, 2), 2, 0), 3)
        with pytest.raises(InvalidParameterError):
            weight_at(meixner(1, F(1, 2), 0), -1)

    def test_krawtchouk_edge_evaluation(self):
        # closed form k! C(M,k) (1-p)^k against direct evaluation at x = M
        for M in (3, 5, 8):
            for p in (F(1, 4), F(2, 3)):
                for k in range(M + 1):
                    member = monic_by_recurrence(krawtchouk(p, M, k))
                    assert member.evaluate(F(M)) == krawtchouk_edge_value(k, p, M)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(7, 3), 0) == 1

    def test_small_products(self):
        assert pochhammer(F(2), 3) == 24
        assert pochhammer(F(-4), 2) == 12


class TestExtraPoint:
    """The added point E of each named relation, read from the relation table."""

    @staticmethod
    def extra_point(check_id, n, **params):
        return CHECKS[check_id].E(n, **{k: F(v) for k, v in params.items()})

    def test_jacobi_shift_values(self):
        assert self.extra_point("jacobi-3.6", 6, alpha=2, beta=14) == F(-2, 5)
        assert self.extra_point("jacobi-3.6", 7, alpha=14, beta=2) == F(3, 8)

    def test_laguerre_value(self):
        assert self.extra_point("laguerre-3.7", 5, alpha=0) == 6

    def test_krawtchouk_value(self):
        assert self.extra_point("krawtchouk-3.1", 2, p=F(1, 2), N=4) == F(7, 2)

    def test_meixner_value(self):
        got = self.extra_point("meixner-3.2", 0, t=1, w=F(1, 2))
        assert got == 0

    def test_narayana_values(self):
        assert self.extra_point("narayana-3.3", 4) == 1
        assert self.extra_point("narayana-3.4", 4) == -1


class TestSpecSerialization:
    def test_roundtrip(self):
        spec = krawtchouk(F(1, 2), 4, 2)
        obj = spec.to_json()
        assert obj == {"kind": "krawtchouk", "params": {"p": "1/2", "N": "4"}, "n": 2}
        assert FamilySpec.from_json(obj) == spec

    def test_float_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            FamilySpec.make("laguerre", 2, alpha=0.5)


class TestExactRational:
    def test_fraction_comes_back_as_the_same_object(self):
        value = F(-7, 3)
        assert families.exact_rational(value) is value

    @pytest.mark.parametrize("value, want", [(3, F(3)), ("2/5", F(2, 5)), ("0.4", F(2, 5))])
    def test_other_exact_input_becomes_a_fraction(self, value, want):
        got = families.exact_rational(value)
        assert type(got) is F and got == want

    @pytest.mark.parametrize("value", [0.5, 2.0, float("nan")])
    def test_float_refused(self, value):
        with pytest.raises(InvalidParameterError, match="exact rationals, got float"):
            families.exact_rational(value)
