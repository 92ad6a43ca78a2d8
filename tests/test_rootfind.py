"""Zero computation: spectral and companion paths, bounds, sign evaluation."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from interlace import families
from interlace.families import (
    InvalidParameterError,
    jacobi,
    krawtchouk,
    laguerre,
    meixner,
    monic_by_recurrence,
    narayana_reduced,
)
from interlace.interlacing import INTERLACE_DOWN, interlaces_down
from interlace.poly import Polynomial
from interlace.relations import DOWN_ONE, MixedRelation, check_relation
from interlace.rootfind import (
    RootComputationError,
    ZeroSet,
    zeros_general,
    zeros_orthogonal,
)

from float_reference import sign_at_zeros

def _chain_relation(spec):
    """A certified down-one relation on G = the member of ``spec``, Q the one below.

    With E = 0, A = 1 and B = 2, P = 2 G - x Q is monic of G's degree.
    """
    G = monic_by_recurrence(spec)
    Q = monic_by_recurrence(families.FamilySpec(spec.kind, spec.params, spec.n - 1))
    P = G.scale(2) - Polynomial([0, 1]) * Q
    rel = MixedRelation(
        "chain", DOWN_ONE, -1, Polynomial([1]), Polynomial([2]), F(0), P, G, Q, specs={"G": spec}
    )
    assert rel.certified
    return rel


# reference zero table, frozen values (abs tol 1e-5)
BLOCK1_X = [-0.203565, 0.101387, 0.369625, 0.59992, 0.785274, 0.918787]
BLOCK1_Z = [-0.212298, 0.0784816, 0.335892, 0.560588, 0.747193, 0.890144]
BLOCK2_X = [-0.931498, -0.818611, -0.661375, -0.465388, -0.237196, 0.017114, 0.296953]
BLOCK2_Z = [-0.906419, -0.784335, -0.624494, -0.431566, -0.210968, 0.032615, 0.300166]


def assert_close_lists(got, want, tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol, (g, w)


class TestSpectralPath:
    def test_laguerre_degree_one(self):
        zs = zeros_orthogonal(laguerre(0, 1))
        assert zs.zeros == (1.0,)
        assert zs.method == "JacobiMatrix"

    def test_published_zero_table(self):
        assert_close_lists(zeros_orthogonal(jacobi(2, 14, 6)).zeros, BLOCK1_X, 1e-5)
        assert_close_lists(zeros_orthogonal(jacobi(3, 15, 6)).zeros, BLOCK1_Z, 1e-5)
        assert_close_lists(zeros_orthogonal(jacobi(14, 2, 7)).zeros, BLOCK2_X, 1e-5)
        assert_close_lists(zeros_orthogonal(jacobi(15, 3, 7)).zeros, BLOCK2_Z, 1e-5)

    def test_degree_zero(self):
        assert zeros_orthogonal(laguerre(0, 0)).zeros == ()

    def test_residual_bound_is_small(self):
        zs = zeros_orthogonal(jacobi(2, 14, 6))
        assert 0 <= zs.bound < 1e-12

    def test_rejects_narayana_kind(self):
        with pytest.raises(InvalidParameterError):
            zeros_orthogonal(families.narayana_spec("narayana-reduced", 3))

    @pytest.mark.parametrize("caller", ["zero_sets", "chain"])
    @pytest.mark.parametrize(
        "kind, params, message",
        [
            # l_2 = 1 (1 - 3) = -2
            ("laguerre", (("alpha", F(-3)),), "term 2 is not positive (-2)"),
            # l_2 = 16 / -48: the formula puts the sign in the denominator
            ("jacobi", (("alpha", F(-3)), ("beta", F(-3))), "term 2 is not positive (-1/3)"),
        ],
    )
    def test_rejects_a_nonpositive_offdiagonal_term(self, kind, params, message, caller):
        # Both users of a chain's steps refuse it with one message: the
        # Jacobi-matrix path, and the chain order source of a relation.
        spec = families.FamilySpec(kind, params, 2)  # unvalidated, outside the region
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            if caller == "zero_sets":
                zeros_orthogonal(spec)
            else:
                check_relation(_chain_relation(spec), ())

    @pytest.mark.parametrize("n", [1, 5, 12, 25])
    def test_zeros_inside_family_support(self, n):
        for a, b in ((F(-1, 2), F(14)), (F(1), F(1))):
            zs = zeros_orthogonal(jacobi(a, b, n))
            assert all(-1 < z < 1 for z in zs.zeros)
        for a in (F(-1, 2), F(5, 2)):
            zs = zeros_orthogonal(laguerre(a, n))
            assert all(z > 0 for z in zs.zeros)
        N = max(n, 25)
        zs = zeros_orthogonal(krawtchouk(F(1, 3), N, n))
        assert all(0 < z < N for z in zs.zeros)
        zs = zeros_orthogonal(meixner(F(3, 2), F(1, 2), n))
        assert all(z > 0 for z in zs.zeros)

    @pytest.mark.parametrize(
        "spec_fn",
        [
            lambda n: jacobi(F(5, 2), F(-1, 2), n),
            lambda n: laguerre(F(1), n),
            lambda n: krawtchouk(F(2, 5), 20, n),
            lambda n: meixner(F(2), F(1, 3), n),
        ],
    )
    def test_consecutive_degree_interlacing(self, spec_fn):
        # classical within-family fact; a free sanity oracle for the solver
        for n in range(2, 9):
            upper = zeros_orthogonal(spec_fn(n))
            lower = zeros_orthogonal(spec_fn(n - 1))
            assert interlaces_down(upper, lower).kind == INTERLACE_DOWN


class TestCompanionPath:
    def test_difference_of_squares(self):
        zs = zeros_general(Polynomial([-1, 0, 1]))
        assert_close_lists(zs.zeros, [-1.0, 1.0], 1e-12)
        assert zs.method == "Companion"

    def test_reduced_cubic_against_quadratic_formula(self):
        # roots of 1 + 3x + x^2 from the quadratic formula, computed here
        lo = (-3 - math.sqrt(5)) / 2
        hi = (-3 + math.sqrt(5)) / 2
        zs = zeros_general(narayana_reduced(3))
        assert_close_lists(zs.zeros, [lo, hi], 1e-12)

    def test_reduced_quartic_zeros_negative(self):
        assert all(z < 0 for z in zeros_general(narayana_reduced(4)).zeros)

    @pytest.mark.parametrize("lead", [1, 3, -3])
    def test_zero_at_the_origin_is_positive_zero(self, lead):
        # -c0 / c1 is -0.0 for c0 = 0 and c1 > 0; np.roots and every higher
        # degree give 0.0
        (zero,) = zeros_general(Polynomial([0, lead])).zeros
        assert math.copysign(1.0, zero) == 1.0

    def test_degree_zero_and_zero_polynomial(self):
        assert zeros_general(Polynomial([5])).zeros == ()
        with pytest.raises(RootComputationError):
            zeros_general(Polynomial.zero())

    def test_complex_pair_is_an_error(self):
        with pytest.raises(RootComputationError):
            zeros_general(Polynomial([1, 0, 1]))

    def test_rational_root_recovery(self):
        # known rational roots, separation >= 1e-3, recovered to 1e-10 relative
        rng = random.Random(20240810)
        for _ in range(25):
            degree = rng.randint(2, 10)
            roots = []
            while len(roots) < degree:
                cand = F(rng.randint(-5000, 5000), 1000)
                if all(abs(cand - r) >= F(1, 1000) for r in roots):
                    roots.append(cand)
            roots.sort()
            zs = zeros_general(Polynomial.from_roots(roots))
            for got, want in zip(zs.zeros, [float(r) for r in roots]):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_two_paths_agree(self):
        # spectral vs companion, scaled agreement at 1e-9
        for n in range(1, 13):
            specs = [krawtchouk(p, 12, n) for p in (F(1, 4), F(1, 2), F(3, 4))]
            specs += [meixner(t, w, n) for t, w in ((F(1, 2), F(1, 4)), (1, F(1, 2)), (3, F(3, 4)))]
            for spec in specs:
                spectral = zeros_orthogonal(spec).zeros
                companion = zeros_general(monic_by_recurrence(spec)).zeros
                for a, b in zip(spectral, companion):
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (spec, a, b)


class TestZeroSet:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(RootComputationError):
            ZeroSet((0.0, 0.0), 0.0, "Companion")

    def test_json_shape(self):
        zs = ZeroSet((1.0, 2.0), 1e-15, "JacobiMatrix")
        assert zs.to_json() == {"zeros": [1.0, 2.0], "bound": 1e-15, "method": "JacobiMatrix"}

    def test_len_min_max(self):
        zs = ZeroSet((-1.0, 3.0), 0.0, "Companion")
        assert len(zs) == 2 and zs.min == -1.0 and zs.max == 3.0


class TestSignAtZeros:
    def test_identity_polynomial(self):
        zs = ZeroSet((-1.0, 1.0), 0.0, "Companion")
        assert sign_at_zeros(Polynomial([0, 1]), zs) == [-1, 1]

    def test_own_zeros_give_zero_sign(self):
        spec = laguerre(0, 5)
        zs = zeros_orthogonal(spec)
        p = monic_by_recurrence(spec)
        assert sign_at_zeros(p, zs) == [0] * 5

    def test_alternation_across_interlaced_zeros(self):
        # the shifted-parameter member alternates in sign at the base zeros
        zg = zeros_orthogonal(laguerre(1, 5))
        q = monic_by_recurrence(laguerre(0, 5))
        signs = sign_at_zeros(q, zg)
        assert 0 not in signs
        assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
