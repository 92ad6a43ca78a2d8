"""The exact route of the random oracles: ``certify``'s integer kernels, and
the shape checkers on drawn zeros against the same checkers on float zero sets.

The kernels are checked against ``Fraction`` arithmetic: the sign of a
polynomial at a / b against the sign of ``Polynomial.evaluate``, the first
break of an alternation against a sort of the tagged entries, and the sign
changes along a set of points against a count of the known zeros in each
interval.  A checker given no zero sets reads its orders from the drawn
zeros (``relations._DrawnOrders``); its report is checked, row by row and
field by field, against the report it gives on the zero sets the oracle path
solved before it was exact (``relations._FloatOrders``): each drawn zero
correctly rounded, and P by the companion path.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace import cli, relations
from interlace.certify import first_break, sign_changes, signs_at
from interlace.poly import Polynomial, _integer_form
from interlace.relations import check_relation, oracle_down_one, oracle_pair_up
from interlace.rootfind import Term, ZeroSet, zero_sets


def _sign(x) -> int:
    return (x > 0) - (x < 0)


small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
coeff_lists = st.lists(small, max_size=9)
dens = st.integers(min_value=1, max_value=40)
points = st.integers(min_value=-200, max_value=200)

# -- signs_at ----------------------------------------------------------------


@given(coeff_lists, st.lists(points, max_size=6), dens)
@settings(max_examples=300)
@example([], [-3, 0, 5], 7)  # the zero polynomial
@example([F(-2, 3)], [-3, 0, 5], 7)  # a constant
@example([F(5)], [], 1)
def test_sign_is_the_sign_of_the_exact_value(coeffs, at, den):
    p = Polynomial(coeffs)
    want = [_sign(p.evaluate(F(a, den))) for a in at]
    assert signs_at(p.nums, at, den) == want


@given(st.lists(points, min_size=1, max_size=6), dens, coeff_lists, st.data())
@settings(max_examples=200)
def test_sign_at_an_exact_rational_zero_is_zero(zeros, den, cofactor, data):
    p = Polynomial.from_roots([F(z, den) for z in zeros]) * Polynomial(cofactor)
    z = data.draw(st.sampled_from(zeros))
    assert signs_at(p.nums, [z], den) == [0]
    assert p.evaluate(F(z, den)) == 0


# -- first_break -------------------------------------------------------------


def _reference_break(p, q):
    """The first neighbouring pair of p1, q1, p2, q2, ... out of strict order."""
    tagged = []
    for i in range(len(p)):
        tagged.append(("p", i, p[i]))
        if i < len(q):
            tagged.append(("q", i, q[i]))
    for (ta, ia, a), (tb, ib, b) in zip(tagged, tagged[1:]):
        if not a < b:
            i, j = (ia, ib) if ta == "p" else (ib, ia)
            return i, j, b - a
    return None


@st.composite
def alternation_pairs(draw):
    """Two integer lists of sizes k and k or k - 1, often out of order."""
    p = draw(st.lists(st.integers(-30, 30), max_size=8))
    size = len(p) - draw(st.integers(0, min(1, len(p))))
    return p, draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size))


@given(alternation_pairs())
@settings(max_examples=300)
@example(([1, 3], [2]))
@example(([1, 3], [3]))
def test_first_break_matches_the_reference(pair):
    p, q = pair
    assert first_break(p, q) == _reference_break(p, q)


def test_first_break_on_sorted_chains():
    chain = list(range(0, 20, 2))
    assert first_break(chain[0::2], chain[1::2]) is None
    assert first_break(chain[1::2], chain[0::2]) == (0, 0, -2)
    assert first_break([1, 5], [5]) == (1, 0, 0)
    assert first_break([], []) is None


# -- sign_changes ------------------------------------------------------------


@given(
    st.lists(st.integers(-12, 12), max_size=7),
    st.lists(st.integers(-14, 14), max_size=6, unique=True),
    st.sampled_from((1, -1)),
)
@settings(max_examples=300)
def test_changes_count_the_zeros_in_each_interval_mod_two(zeros, at, lead):
    p = Polynomial.from_roots(zeros).scale(lead)
    at = sorted(at)
    changes = sign_changes(signs_at(p.nums, at, 1), lead, p.degree)
    if set(zeros) & set(at):
        assert changes is None
        return
    edges = [-100, *at, 100]
    counts = [sum(lo < z < hi for z in zeros) for lo, hi in zip(edges, edges[1:])]
    assert changes == tuple(c % 2 for c in counts)


# -- the drawn-zero report against the float checkers ------------------------


def _float_reports(rels) -> list:
    """The checker's report on each relation, given the zero sets the oracle
    path used to solve: the drawn zeros of G and Q correctly rounded, and P's
    zeros by the companion path, all P's solved in one batch."""
    found_p = zero_sets([Term(poly=rel.P) for rel in rels])
    out = []
    for rel, zp in zip(rels, found_p):
        rounded = []
        for name in "GQ":
            nums, den = rel.roots[name]
            rounded.append(ZeroSet(tuple(sorted(x / den for x in nums)), 0.0, "drawn"))
        out.append(check_relation(rel, [*rounded, zp]))
    return out


def _assert_same_reports(rels) -> None:
    for rel, want in zip(rels, _float_reports(rels)):
        got = check_relation(rel, ())
        assert got.csv_rows() == want.csv_rows(), rel.params
        assert got.to_json() == want.to_json(), rel.params
        assert (got.premise, got.hypotheses, got.notes) == (want.premise, want.hypotheses, want.notes)


SEEDS = range(20)


@pytest.mark.parametrize("force_e", [None, "above_max"])
def test_pair_up_report_agrees_with_the_float_checker(force_e):
    orientation = "q_below_g" if force_e else None
    rels = [
        oracle_pair_up(n, seed, orientation=orientation, force_e=force_e)
        for n in range(1 if force_e else 0, 25)
        for seed in SEEDS
    ]
    if force_e:
        assert all(not check_relation(rel, ()).passed for rel in rels)
    _assert_same_reports(rels)


@pytest.mark.parametrize("e_region", [None, "below", "interior", "above"])
def test_down_one_report_agrees_with_the_float_checker(e_region):
    # "interior" needs two zeros of G, so it starts at n = 2.
    low = 2 if e_region == "interior" else 1
    rels = [oracle_down_one(n, seed, e_region=e_region) for n in range(low, 25) for seed in SEEDS]
    _assert_same_reports(rels)


def _assemble(g, q, e):
    """A pair-up relation on the drawn zeros g of G and q of Q, any sign of A."""
    nums, den = _integer_form([*g, *q])
    return relations.assemble_pair_up(nums[: len(g)], nums[len(g) :], den, e, False)


def test_a_broken_premise_and_e_on_a_zero_of_q_agree_with_the_float_checker():
    # Hand-made draws whose orderings are far apart, so the floor decides
    # nothing differently.
    assemble = _assemble
    broken = assemble([F(-1), F(1, 4), F(1)], [F(-1, 2), F(1, 2), F(3, 4)], F(2))
    report = check_relation(broken, ())
    assert report.premise_kind is None and report.premise.kind == "Fail"
    assert set(report.clauses.values()) == {"skipped"}
    _assert_same_reports([broken])
    # E on a zero of Q: P(E) = B(E) G(E) / A, the note is logged
    on_q = assemble([F(-1), F(1)], [F(-3, 2), F(0)], F(0))
    assert "E sits on a zero of Q (permitted, logged)" in check_relation(on_q, ()).notes
    _assert_same_reports([on_q])


def test_zeros_closer_than_the_floor_are_decided_exactly():
    # G's top zero is 2^-40 above Q's: the float checker finds the premise
    # inconclusive and the G/P gap under the floor, so it skips every clause
    # (a vacuous pass); the drawn zeros decide every clause.
    rel = _assemble([F(-1), F(1, 2**40)], [F(-2), F(0)], F(-3, 2))
    (floats,) = _float_reports([rel])
    assert floats.premise.kind == "Inconclusive"
    assert set(floats.clauses.values()) == {"skipped"}
    report = check_relation(rel, ())
    assert report.premise_kind == "q_below_g" and report.hypotheses_ok
    assert report.clauses == {"e_position": "pass", "added_point": "pass", "full_iff": "pass"}


# -- the oracle sweeps -------------------------------------------------------


def _sweep(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("mode", ["pair-up", "down-one"])
def test_oracle_sweep_solves_no_zero_set(monkeypatch, mode):
    handed = []
    for owner in (cli, relations):
        batch = owner.zero_sets

        def spy(terms, batch=batch):
            terms = list(terms)
            handed.extend(terms)
            return batch(terms)

        monkeypatch.setattr(owner, "zero_sets", spy)
    code, out = _sweep(["sweep", "--oracle", mode, "--n", "1..12", "--seeds", "5", "--workers", "1"])
    assert code == 0 and out.count(",pass") == 60
    assert handed == []


def test_pair_up_oracle_passes_at_degrees_40_to_48():
    # 7 of these 27 instances raised while P's zeros were solved: 6 complex
    # companion pairs and 1 zero set that was not increasing.
    code, out = _sweep(["sweep", "--oracle", "pair-up", "--n", "40..48", "--seeds", "3", "--workers", "1"])
    rows = out.splitlines()[1:]
    assert code == 0
    assert len(rows) == 27 and all(row.endswith(",pass") for row in rows)
