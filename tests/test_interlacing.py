"""Interlacing verdicts: strictness, witnesses, the added point, invariance."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import float_reference as ref

from interlace.families import jacobi, laguerre, narayana_spec
from interlace.interlacing import (
    ADDED_INTERIOR,
    ADDED_LEFT,
    ADDED_RIGHT,
    ALTERNATE,
    DEFAULT_FLOOR,
    FAIL,
    INCONCLUSIVE,
    INTERLACE_DOWN,
    CommonPointError,
    added_point_interlace,
    alternates,
    interlaces_down,
    locate_point,
)
from interlace.rootfind import zeros_general, zeros_orthogonal
from interlace.families import monic_by_recurrence


class TestAlternates:
    def test_singletons(self):
        assert alternates([0.0], [1.0]).kind == ALTERNATE

    def test_constructed_violation(self):
        v = alternates([0.0, 2.0], [1.0, 1.5])
        assert v.kind == FAIL
        assert v.witness == (1, 1)

    def test_empty_sets(self):
        assert alternates([], []).kind == ALTERNATE

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            alternates([0.0], [1.0, 2.0])

    def test_laguerre_shift_premise(self):
        # zeros of consecutive-parameter members of equal degree alternate
        zq = zeros_orthogonal(laguerre(0, 5))
        zg = zeros_orthogonal(laguerre(1, 5))
        assert alternates(zq, zg).kind == ALTERNATE

    def test_antisymmetric_on_strict_data(self):
        zp, zq = [0.0, 2.0], [1.0, 3.0]
        assert alternates(zp, zq).kind == ALTERNATE
        assert alternates(zq, zp).kind == FAIL

    def test_irreflexive(self):
        # a set against itself has zero gaps everywhere: never Alternate
        zs = [0.0, 1.0, 2.0]
        assert alternates(zs, zs).kind == INCONCLUSIVE

    def test_inconclusive_below_floor(self):
        v = alternates([0.0, 1.0], [5e-10, 2.0])
        assert v.kind == INCONCLUSIVE
        assert v.gap == pytest.approx(5e-10)
        assert v.witness == (0, 0)


class TestInterlacesDown:
    def test_small(self):
        assert interlaces_down([0.0, 2.0], [1.0]).kind == INTERLACE_DOWN

    def test_fail(self):
        v = interlaces_down([0.0, 1.0], [2.0])
        assert v.kind == FAIL
        assert v.witness == (1, 0)

    def test_vacuous(self):
        assert interlaces_down([0.5], []).kind == INTERLACE_DOWN

    def test_reduced_family_consecutive(self):
        z6 = zeros_general(monic_by_recurrence(narayana_spec("narayana-reduced", 6)))
        z5 = zeros_general(monic_by_recurrence(narayana_spec("narayana-reduced", 5)))
        assert interlaces_down(z6, z5).kind == INTERLACE_DOWN

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            interlaces_down([0.0], [1.0, 2.0])


class TestLocatePoint:
    def test_positions(self):
        zs = [0.0, 1.0, 2.0]
        assert locate_point(-0.5, zs) == ("below", None)
        assert locate_point(2.5, zs) == ("above", None)
        assert locate_point(1.5, zs) == ("interior", 2)

    def test_on_a_zero(self):
        assert locate_point(1.0, [0.0, 1.0, 2.0]) == ("unknown", None)


# Neighbouring gaps at and around the floor, ties, negative gaps and wide ones.
# From 0.0 the first gap is exact; later ones are whatever the sum rounds to.
EDGE = math.nextafter(DEFAULT_FLOOR, math.inf)
gaps = st.one_of(
    st.sampled_from((DEFAULT_FLOOR, -DEFAULT_FLOOR, EDGE, -EDGE, 0.0, 2 * DEFAULT_FLOOR, 0.5, -0.5)),
    st.floats(-2.0, 2.0),
)


@st.composite
def chains(draw, extra):
    """Float lists p, q with len(p) == len(q) + extra, interleaved p1, q1, p2, ... on drawn gaps."""
    n = draw(st.integers(0, 8))
    x, values = 0.0, []
    for gap in draw(st.lists(gaps, min_size=2 * n + extra, max_size=2 * n + extra)):
        x += gap
        values.append(x)
    return values[0::2], values[1::2]


class TestAgainstTaggedChain:
    """The single-pass verdicts equal the tagged-chain scan, witness and gap included."""

    @given(chains(0))
    @settings(max_examples=400, deadline=None)
    @example(([0.0], [DEFAULT_FLOOR]))  # a gap of exactly the floor
    @example(([DEFAULT_FLOOR], [0.0]))  # exactly minus the floor
    @example(([0.0], [EDGE]))  # the first gap above the floor
    @example(([0.0, 1.0], [1.0, 2.0]))  # a tie
    def test_alternates(self, pq):
        p, q = pq
        assert alternates(p, q) == ref.alternates(p, q)
        assert alternates(q, p) == ref.alternates(q, p)

    @given(chains(1))
    @settings(max_examples=400, deadline=None)
    @example(([0.0, 1.0], [DEFAULT_FLOOR]))
    @example(([0.0, 1.0], [1.0 - DEFAULT_FLOOR]))
    @example(([0.0, 0.0], [0.0]))
    def test_interlaces_down(self, pq):
        p, q = pq
        assert interlaces_down(p, q) == ref.interlaces_down(p, q)

    @given(
        st.lists(st.sampled_from((0.0, 0.5, 1.0, -1.0, 3.0)) | st.floats(-4.0, 4.0), max_size=8),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_locate_point(self, g, data):
        g.sort()
        shifts = st.sampled_from((0.0, DEFAULT_FLOOR, -DEFAULT_FLOOR, EDGE, -EDGE, 0.25))
        if g and data.draw(st.booleans()):
            e = data.draw(st.sampled_from(g)) + data.draw(shifts)
        else:
            e = data.draw(st.floats(-5.0, 5.0))
        assert locate_point(e, g) == ref.locate_point(e, g)


class TestAddedPoint:
    def test_left_of_everything(self):
        v = added_point_interlace([0.5], -1.0, [0.0, 1.0])
        assert v.kind == ADDED_LEFT
        assert v.orientation == "P_below_G"
        assert v.e_position == "below"

    def test_interior_slot(self):
        v = added_point_interlace([0.5, 2.5], 1.5, [0.0, 1.0, 2.0])
        assert v.kind == ADDED_INTERIOR
        assert v.gap_index == 2  # between the second and third reference zeros

    def test_right_side_equal_shape(self):
        # equal sizes: merged set interlaces one degree down onto the reference
        v = added_point_interlace([0.5, 1.5], 3.0, [0.0, 1.0, 2.0])
        assert v.kind == ADDED_RIGHT

    def test_flipped_orientation(self):
        v = added_point_interlace([0.5], 2.5, [0.0, 1.0])
        assert v.kind == ADDED_RIGHT
        assert v.orientation == "G_below_P"

    def test_merged_failure(self):
        v = added_point_interlace([0.1, 0.2], 0.3, [1.0, 2.0, 3.0])
        assert v.kind == FAIL

    def test_point_on_reference_zero(self):
        with pytest.raises(CommonPointError):
            added_point_interlace([0.5], 1.0, [0.0, 1.0])

    def test_point_too_close_to_own_zero_is_inconclusive(self):
        v = added_point_interlace([0.5], 0.5 + 1e-10, [0.0, 1.0])
        assert v.kind == INCONCLUSIVE

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            added_point_interlace([0.5, 0.6, 0.7], 1.0, [0.0])

    def test_jacobi_shift_block(self):
        # the added point completes interlacing of the shifted pair; the
        # point sits below every zero of the shifted member
        zp = zeros_orthogonal(jacobi(2, 14, 6))
        zg = zeros_orthogonal(jacobi(3, 15, 6))
        v = added_point_interlace(zp, F(-2, 5), zg)
        assert v.kind == ADDED_LEFT
        assert v.orientation == "P_below_G"

    def test_laguerre_added_point(self):
        zp = zeros_orthogonal(laguerre(0, 4))
        zg = zeros_orthogonal(laguerre(1, 5))
        v = added_point_interlace(zp, 5.0, zg)
        assert v.kind in (ADDED_LEFT, ADDED_INTERIOR, ADDED_RIGHT)
        assert v.orientation == "P_below_G"


class TestAffineInvariance:
    def test_verdicts_stable_under_rescaling(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            pts = sorted(rng.uniform(-1, 1) for _ in range(2 * n))
            zp, zq = pts[0::2], pts[1::2]
            a, b = 2.0, 1.0 / 3.0
            before = alternates(zp, zq)
            after = alternates([a * z + b for z in zp], [a * z + b for z in zq])
            assert before.kind == after.kind
            assert before.witness == after.witness

    def test_added_point_stable_under_rescaling(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            pts = sorted(rng.uniform(-1, 1) for _ in range(2 * n + 1))
            zg = pts[0::2]
            zp = pts[1::2]
            e = rng.uniform(-1.5, 1.5)
            if min(abs(e - g) for g in zg) < 1e-6:
                continue
            a, b = 3.0, -0.25
            before = added_point_interlace(zp, e, zg)
            after = added_point_interlace(
                [a * z + b for z in zp], a * e + b, [a * g + b for g in zg]
            )
            assert before.kind == after.kind
            assert before.gap_index == after.gap_index
            assert before.witness == after.witness


class TestSerialization:
    def test_json_fields(self):
        v = added_point_interlace([0.5], -1.0, [0.0, 1.0])
        obj = v.to_json()
        assert set(obj) == {"kind", "E", "witness", "gap", "orientation"}
        assert obj["kind"] == ADDED_LEFT
        assert obj["E"] == -1.0
