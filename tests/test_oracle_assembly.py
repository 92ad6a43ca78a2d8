"""The oracle assemblers against their Fraction reference, and the zero sets
of the terms an oracle builds from drawn zeros.

``assemble_pair_up``, ``assemble_down_one`` and ``assemble_up_one`` take
the drawn zeros as integer numerators over one denominator and form their
terms on integer root products over it.  The
references below are the straightforward ``Polynomial``-level sums they
replace, written with per-coefficient ``Fraction`` arithmetic only
(``mul_linear``, ``scale``, ``+``), so they share no kernel with the code
under test.  Each reference returns the reason for a rejected draw, so the
tests can tell that every rejection branch is reached.
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
    assemble_up_one,
    check_pair_up,
    oracle_down_one,
    oracle_pair_up,
    oracle_up_one,
)
from interlace.rootfind import (
    METHOD_EXACT,
    RootComputationError,
    zeros_exact,
    zeros_general,
)

from float_reference import horner_pair, horner_with_errbound

# -- the reference ----------------------------------------------------------


def _from_roots(zeros) -> Polynomial:
    p = Polynomial([1])
    for z in zeros:
        p = p.mul_linear(z)
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
    combo = -G.mul_linear(b) + Q.mul_linear(e)  # (b - x) G + (x - E) Q
    if combo.degree != n:
        return "degree"
    a = combo.leading_coefficient
    if require_positive_a and a <= 0:
        return "sign of A"
    return Polynomial([a]), B, combo.scale(1 / a), G, Q


def reference_down_one(g_zeros, q_zeros, e, b):
    n = len(g_zeros)
    G, Q = _from_roots(g_zeros), _from_roots(q_zeros)
    combo = G.scale(b) - Q.mul_linear(e)
    if combo.degree != n:
        return "degree"
    a = combo.leading_coefficient
    if a <= 0:
        return "sign of A"
    return Polynomial([a]), Polynomial([b]), combo.scale(1 / a), G, Q


def reference_up_one(g_zeros, q_zeros, e):
    n = len(g_zeros)
    G, Q = _from_roots(g_zeros), _from_roots(q_zeros)
    g1, g2 = _coeff(G, n - 1), _coeff(G, n - 2)
    q1, q2 = _coeff(Q, n), _coeff(Q, n - 1)
    b1 = q1 - e - g1
    b0 = 1 - g2 - b1 * g1 + q2 - e * q1
    B = Polynomial([b0, b1, 1])
    if B.evaluate(e) == 0:
        return "B(E) = 0"
    # B G = x^2 G + b1 x G + b0 G
    xg = G.mul_linear(0)
    combo = xg.mul_linear(0) + xg.scale(b1) + G.scale(b0) - Q.mul_linear(e)
    if combo.degree != n or combo.leading_coefficient != 1:
        return "degree"
    return Polynomial([1]), B, combo, G, Q


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


class TestUpOne:
    @given(st.one_of(small_draws(1, 2), chain_draws(1, 2)))
    @settings(max_examples=300, deadline=None)
    @example(([F(0)], [F(0), F(0)], F(0)))  # B(E) = 0
    def test_matches_reference(self, draw):
        g, q, e = draw
        _agrees(assemble_up_one(*_over_one_den(g, q), e), reference_up_one(g, q, e), g, q, e)

    def test_every_rejection_reached(self):
        reasons = set()
        pool = (F(-1), F(0), F(1))
        for g, q1, q2, e in itertools.product(pool, repeat=4):
            want = reference_up_one([g], [q1, q2], e)
            _agrees(assemble_up_one(*_over_one_den([g], [q1, q2]), e), want, (g,), (q1, q2), e)
            reasons.add(want if isinstance(want, str) else "accepted")
        # B G - (x - E) Q keeps degree n and leading coefficient 1 by construction
        assert reasons == {"B(E) = 0", "accepted"}


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


class TestZerosExact:
    def test_each_zero_is_the_rounded_rational(self):
        roots = (F(1, 3), F(-2, 7), 5, F(10**30 + 1, 10**30))
        zs = zeros_exact(*_integer_form(roots))
        assert zs.zeros == tuple(sorted(float(r) for r in roots))
        assert zs.bound == max(math.ulp(float(r)) / 2 for r in roots)
        assert zs.method == METHOD_EXACT

    def test_empty(self):
        zs = zeros_exact((), 1)
        assert (zs.zeros, zs.bound) == ((), 0.0)

    def test_zeros_that_round_together_are_refused(self):
        with pytest.raises(RootComputationError):
            zeros_exact(*_integer_form((F(1), F(10**20 + 1, 10**20))))

    @pytest.mark.parametrize("n", [1, 12, 24, 40])
    def test_agrees_with_companion_path_on_oracle_terms(self, n):
        # Per zero, the first-order bound that adds Horner's rounding error to
        # |p(z)| holds.
        for seed in range(3):
            rel = oracle_pair_up(n, seed)
            for term in ("G", "Q"):
                exact = zeros_exact(*rel.roots[term])
                companion = zeros_general(getattr(rel, term))
                assert len(exact) == len(companion) == n + 1
                coeffs = getattr(rel, term).float_coeffs()
                for x, z in zip(exact.zeros, companion.zeros):
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
                exact = zeros_exact(*rel.roots[term])
                companion = zeros_general(getattr(rel, term))
                for x, z in zip(exact.zeros, companion.zeros):
                    assert abs(x - z) <= companion.bound, (term, seed, x, z, companion.bound)

    def test_every_oracle_draws_its_roots(self):
        for rel in (oracle_pair_up(5, 0), oracle_down_one(5, 0), oracle_up_one(5, 0)):
            assert set(rel.roots) == {"G", "Q"}
            for term in ("G", "Q"):
                assert _from_roots(_as_fractions(rel.roots[term])) == getattr(rel, term)


class TestReplacedTerms:
    @staticmethod
    def _record(monkeypatch):
        calls = []
        exact, general = relations.zeros_exact, relations.zeros_general

        def spy_exact(nums, den):
            calls.append(("exact", (nums, den)))
            return exact(nums, den)

        def spy_general(p):
            calls.append(("general", p))
            return general(p)

        monkeypatch.setattr(relations, "zeros_exact", spy_exact)
        monkeypatch.setattr(relations, "zeros_general", spy_general)
        return calls

    def test_reassigned_g_uses_the_new_zeros(self, monkeypatch):
        rel, other = oracle_pair_up(4, 0), oracle_pair_up(4, 1)
        rel.G = other.G
        assert set(rel.roots) == {"Q"}
        calls = self._record(monkeypatch)
        report = check_pair_up(rel)
        assert calls == [("general", other.G), ("exact", rel.roots["Q"]), ("general", rel.P)]
        assert report.identity_ok is False

    def test_reassigned_q_drops_only_its_roots(self):
        rel = oracle_pair_up(4, 0)
        g_roots = rel.roots["G"]
        rel.Q = oracle_pair_up(4, 1).Q
        assert rel.roots == {"G": g_roots}
        rel.P = rel.P  # P carries no roots
        assert rel.roots == {"G": g_roots}

    def test_replaced_copy_carries_no_roots(self):
        rel = oracle_pair_up(4, 0)
        copy = dataclasses.replace(rel, G=oracle_pair_up(4, 1).G)
        assert copy.roots == {}
        assert rel.roots.keys() == {"G", "Q"}
