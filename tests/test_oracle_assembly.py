"""The oracle assemblers against their Fraction reference, and the drawn
zeros an oracle keeps against the zero sets the companion path finds.

``assemble_pair_up`` and ``assemble_down_one`` take the drawn zeros as
integer numerators over one denominator and form their terms on integer root
products over it.  The references below are the straightforward
``Polynomial``-level sums they replace, written with per-coefficient
``Fraction`` arithmetic only (``exact_reference.mul_linear``, ``scale``,
``+``), so they share
no kernel with the code under test.  Each reference returns the reason for a
rejected draw, so the tests can tell that every rejection branch is reached.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace import relations
from interlace.poly import Polynomial, _integer_form
from interlace.relations import (
    _draw_chain,
    _draw_e,
    assemble_down_one,
    assemble_pair_up,
    check_pair_up,
    oracle_down_one,
    oracle_pair_up,
)
from interlace.rootfind import zero_sets, zeros_general

from exact_reference import mul_linear
from float_reference import horner_pair, horner_with_errbound

# -- the reference ----------------------------------------------------------


def _from_roots(zeros) -> Polynomial:
    p = Polynomial([1])
    for z in zeros:
        p = mul_linear(p, z)
    return p


def _coeff(p: Polynomial, k: int) -> F:
    return p.coeffs[k] if 0 <= k < len(p.coeffs) else F(0)


def reference_pair_up(g_zeros, q_zeros, e, require_positive_a=True):
    n = len(g_zeros) - 1
    G, Q = _from_roots(g_zeros), _from_roots(q_zeros)
    b = _coeff(G, n) - _coeff(Q, n) + e
    B = Polynomial([b, -1])
    if B.evaluate(e) == 0:
        return "B(E) = 0"
    combo = -mul_linear(G, b) + mul_linear(Q, e)  # (b - x) G + (x - E) Q
    if combo.degree != n:
        return "degree"
    a = combo.leading_coefficient
    if require_positive_a and a <= 0:
        return "sign of A"
    return Polynomial([a]), B, combo.scale(1 / a), G, Q


def reference_down_one(g_zeros, q_zeros, e, b):
    n = len(g_zeros)
    G, Q = _from_roots(g_zeros), _from_roots(q_zeros)
    combo = G.scale(b) - mul_linear(Q, e)
    if combo.degree != n:
        return "degree"
    a = combo.leading_coefficient
    if a <= 0:
        return "sign of A"
    return Polynomial([a]), Polynomial([b]), combo.scale(1 / a), G, Q


def _over_one_den(g_zeros, q_zeros) -> tuple[list[int], list[int], int]:
    """The zeros as the assemblers take them: numerators over one denominator."""
    nums, den = _integer_form([*g_zeros, *q_zeros])
    return nums[: len(g_zeros)], nums[len(g_zeros) :], den


def _as_fractions(roots) -> tuple:
    nums, den = roots
    return tuple(F(x, den) for x in nums)


def _agrees(rel, want, g_zeros, q_zeros, e) -> None:
    """``rel`` is None exactly when ``want`` is a rejection, else equal term by term."""
    if isinstance(want, str):
        assert rel is None, want
        return
    assert rel is not None
    assert (rel.A, rel.B, rel.P, rel.G, rel.Q) == want
    assert rel.E == e
    assert rel.params == {"n": want[2].degree}
    assert {term: _as_fractions(roots) for term, roots in rel.roots.items()} == {
        "G": tuple(g_zeros),
        "Q": tuple(q_zeros),
    }
    hull = [float(z) for z in (*g_zeros, *q_zeros, e)]
    assert rel.support == (min(hull) - 1.0, max(hull) + 1.0)
    for term in (*rel.A.coeffs, *rel.B.coeffs, *rel.P.coeffs, *rel.G.coeffs, *rel.Q.coeffs):
        assert type(term) is F


# -- draws ------------------------------------------------------------------

# Few values, so coincidences that must be rejected (B(E) = 0, a collapsed
# degree, A <= 0) come up often.
small = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@st.composite
def small_draws(draw, n_g, n_q):
    n = draw(st.integers(0, 4))
    g = draw(st.lists(small, min_size=n + n_g, max_size=n + n_g))
    q = draw(st.lists(small, min_size=n + n_q, max_size=n + n_q))
    return g, q, draw(small)


@st.composite
def chain_draws(draw, n_g, n_q):
    """Interlaced zeros and an added point drawn the way the oracles draw them."""
    n = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nums, den = _draw_chain(rng, 2 * n + n_g + n_q)
    pts = [F(x, den) for x in nums]
    first, second = (pts[0::2], pts[1::2]) if draw(st.booleans()) else (pts[1::2], pts[0::2])
    g, q = (first, second) if len(first) == n + n_g else (second, first)
    return g, q, draw(st.sampled_from((F(-6, 5), F(0), F(6, 5)))) + F(draw(st.integers(-99, 99)), 4096)


b_consts = st.one_of(st.sampled_from((F(1), F(-1), F(0))), st.fractions(-3, 3, max_denominator=4096))


class TestPairUp:
    @given(st.one_of(small_draws(1, 1), chain_draws(1, 1)), st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(([F(0)], [F(0)], F(1)), True)  # B(E) = 0
    @example(([F(1)], [F(0)], F(1)), True)  # the combination drops a degree
    @example(([F(0)], [F(1)], F(-1)), True)  # A < 0
    @example(([F(0)], [F(1)], F(-1)), False)  # A < 0 allowed
    def test_matches_reference(self, draw, positive):
        g, q, e = draw
        want = reference_pair_up(g, q, e, positive)
        _agrees(assemble_pair_up(*_over_one_den(g, q), e, require_positive_a=positive), want, g, q, e)

    def test_every_rejection_reached(self):
        reasons = set()
        pool = (F(-1), F(0), F(1))
        for g in itertools.product(pool, repeat=2):
            for q in itertools.product(pool, repeat=2):
                for e in pool:
                    want = reference_pair_up(list(g), list(q), e)
                    _agrees(assemble_pair_up(*_over_one_den(g, q), e), want, g, q, e)
                    reasons.add(want if isinstance(want, str) else "accepted")
        assert reasons == {"B(E) = 0", "degree", "sign of A", "accepted"}

    def test_oracle_draws_decided_as_the_full_assembly(self, monkeypatch):
        # Every draw the benchmark's oracle pass makes (n = 1..24, seeds
        # 0..19): the early refusal, taken on the top two coefficients of the
        # root products alone, refuses exactly the draws the full assembly
        # refuses, and for the same reason, and the RNG draws stay the same.
        real = relations.assemble_pair_up
        reasons = []

        def checked(g_nums, q_nums, den, e, require_positive_a=True):
            rel = real(g_nums, q_nums, den, e, require_positive_a)
            g, q = ([F(x, den) for x in nums] for nums in (g_nums, q_nums))
            want = reference_pair_up(g, q, e, require_positive_a)
            _agrees(rel, want, g, q, e)
            reasons.append(want if isinstance(want, str) else "accepted")
            return rel

        monkeypatch.setattr(relations, "assemble_pair_up", checked)
        for n in range(1, 25):
            for seed in range(20):
                oracle_pair_up(n, seed)
        assert reasons.count("accepted") == 480
        assert len(reasons) == 726 and reasons.count("sign of A") == 246


class TestDownOne:
    @given(st.one_of(small_draws(1, 0), chain_draws(1, 0)), b_consts)
    @settings(max_examples=300, deadline=None)
    @example(([F(0)], [], F(1)), F(1))  # the combination drops a degree
    @example(([F(0)], [], F(1)), F(1, 2))  # A < 0
    def test_matches_reference(self, draw, b):
        g, q, e = draw
        _agrees(assemble_down_one(*_over_one_den(g, q), e, b), reference_down_one(g, q, e, b), g, q, e)

    def test_every_rejection_reached(self):
        reasons = set()
        pool = (F(-1), F(0), F(1))
        for g in itertools.product(pool, repeat=2):
            for q, e, b in itertools.product(pool, pool, (F(1, 2), F(1), F(3, 2))):
                want = reference_down_one(list(g), [q], e, b)
                _agrees(assemble_down_one(*_over_one_den(g, [q]), e, b), want, g, (q,), e)
                reasons.add(want if isinstance(want, str) else "accepted")
        assert reasons == {"degree", "sign of A", "accepted"}


def reference_draw_e(rng, g_zeros):
    e = rng.randrange(4097)
    e = F(-6, 5) + F(12, 5) * F(e, 4096)
    return None if min(abs(e - g) for g in g_zeros) < F(1, 100) else e


@pytest.mark.parametrize("total", [1, 3, 9, 49])
def test_draw_e_matches_nearest_zero_reference(total):
    for seed in range(200):
        nums, den = _draw_chain(random.Random(-seed), total)
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        want = reference_draw_e(want_rng, [F(x, den) for x in nums])
        assert _draw_e(got_rng, nums, den, None) == want
        assert got_rng.random() == want_rng.random()


# -- zero sets of drawn terms -----------------------------------------------


def _rounded(roots) -> list[float]:
    """The drawn zeros nums[i] / den, each correctly rounded, ascending."""
    nums, den = roots
    return sorted(x / den for x in nums)


class TestZerosExact:
    @pytest.mark.parametrize("n", [1, 12, 24, 40])
    def test_agrees_with_companion_path_on_oracle_terms(self, n):
        # Per zero, the first-order bound that adds Horner's rounding error to
        # |p(z)| holds.
        for seed in range(3):
            rel = oracle_pair_up(n, seed)
            for term in ("G", "Q"):
                exact = _rounded(rel.roots[term])
                companion = zeros_general(getattr(rel, term))
                assert len(exact) == len(companion) == n + 1
                coeffs = getattr(rel, term).float_coeffs()
                for x, z in zip(exact, companion.zeros):
                    value, rounding = horner_with_errbound(coeffs, z)
                    _, slope = horner_pair(coeffs, z)
                    bound = (abs(value) + rounding) / abs(slope)
                    assert abs(x - z) <= bound + math.ulp(z), (term, seed, x, z)

    @pytest.mark.parametrize("n", [1, 12, 24, 40])
    def test_companion_bound_covers_exact_zeros(self, n):
        # The companion set's bound counts Horner's rounding error at each
        # polished zero, so the drawn zeros lie within the set's own bound.
        for seed in range(3):
            rel = oracle_pair_up(n, seed)
            for term in ("G", "Q"):
                exact = _rounded(rel.roots[term])
                companion = zeros_general(getattr(rel, term))
                for x, z in zip(exact, companion.zeros):
                    assert abs(x - z) <= companion.bound, (term, seed, x, z, companion.bound)

    def test_every_oracle_draws_its_roots(self):
        for rel in (oracle_pair_up(5, 0), oracle_down_one(5, 0)):
            assert set(rel.roots) == {"G", "Q"}
            for term in ("G", "Q"):
                assert _from_roots(_as_fractions(rel.roots[term])) == getattr(rel, term)


class TestReplacedTerms:
    def test_reassigned_g_uses_the_new_zeros(self):
        # The drawn relation is decided on its drawn zeros; a copy with
        # another G carries none, so it needs zero sets, solved from its own terms.
        rel, other = oracle_pair_up(4, 0), oracle_pair_up(4, 1)
        copy = dataclasses.replace(rel, G=other.G)
        assert check_pair_up(rel, ()).passed
        assert copy.roots == {}
        with pytest.raises(ValueError, match="oracle-pair-up: no zero sets given"):
            check_pair_up(copy, ())
        terms = relations.relation_terms(copy)
        assert [term.poly for term in terms] == [other.G, rel.Q, rel.P]
        report = check_pair_up(copy, zero_sets(terms))
        assert report.identity_ok is False

    def test_terms_cannot_be_reassigned(self):
        rel = oracle_pair_up(4, 0)
        roots = dict(rel.roots)
        for term in ("sign", "A", "B", "E", "P", "G", "Q", "certified", "roots"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rel, term, getattr(oracle_pair_up(4, 1), term))
        assert rel.roots == roots and rel.certified is True

    def test_replaced_copy_carries_no_roots(self):
        rel = oracle_pair_up(4, 0)
        copy = dataclasses.replace(rel, G=oracle_pair_up(4, 1).G)
        assert copy.roots == {}
        assert rel.roots.keys() == {"G", "Q"}
