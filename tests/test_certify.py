"""The exact routes: ``certify``'s integer kernels, the shape checkers on
drawn zeros against the same checkers on float zero sets, and the named
checks decided along G's recurrence chain against the float checkers.

The kernels are checked against ``Fraction`` arithmetic: the sign of a
polynomial at a / b against the sign of ``Polynomial.evaluate``, the first
break of an alternation against a sort of the tagged entries, and the sign
changes along a set of points against a count of the known zeros in each
interval.  ``zeros_above`` is checked against the eigenvalues of the Jacobi
matrix, and exactly at points that are zeros of G.  ``check_relation`` reads
its orders from the drawn zeros (``relations._DrawnOrders``), or for a named
check from G's chain (``relations._ChainOrders``); its report is checked,
row by row and field by field, against the report the same checker gives on
float zero sets (``float_reference.FloatOrders``): for an oracle, the zero
sets its path solved before it was exact (each drawn zero correctly rounded,
and P by the companion path); for a named check, the zero sets
``float_reference.relation_terms`` names.  On drawn zeros, P's signs read
through the identity are also checked against its own vector's signs there.
The Narayana checks read G, the reduced Narayana polynomial R_n, along the
chain of P^(1,1) through t = (1 + x) / (1 - x): their reports are checked
against the float route where every float bound is under the floor, at high
degree, and against a copy whose G is not R_n; the certificate tying R_n and
R_(n-1) to that chain is checked against bumped coefficients and an altered
step, and its counts against the float zeros.
"""

import dataclasses
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from interlace import cli, families, relations
from interlace.certify import chain_coefficients, first_break, sign_changes, signs_at, zeros_above
from interlace.families import (
    InvalidParameterError,
    jacobi,
    krawtchouk,
    laguerre,
    meixner,
    narayana_reduced,
    narayana_spec,
    recurrence_steps,
)
from interlace.interlacing import interlaces_down
from interlace.poly import Polynomial, _integer_form
from interlace.relations import (
    build_relation,
    check_relation,
    oracle_down_one,
    oracle_pair_up,
)
from interlace.rootfind import Term, ZeroSet, zero_set, zeros_general, zeros_orthogonal

import float_reference as ref


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
    zeros by the companion path."""
    out = []
    for rel in rels:
        rounded = []
        for name in "GQ":
            nums, den = rel.roots[name]
            rounded.append(ZeroSet(tuple(sorted(x / den for x in nums)), 0.0, "drawn"))
        out.append(ref.float_report(rel, [*rounded, zero_set(Term(poly=rel.P))]))
    return out


def _assert_same_reports(rels) -> None:
    _assert_identity_signs(rels)
    for rel, want in zip(rels, _float_reports(rels)):
        got = check_relation(rel)
        assert got.csv_rows() == want.csv_rows(), rel.params
        assert got.to_json() == want.to_json(), rel.params
        assert (got.premise, got.hypotheses, got.notes) == (want.premise, want.hypotheses, want.notes)


def _assert_identity_signs(rels) -> None:
    """P's signs at the drawn zeros of G, read through the identity, are
    those P's own vector gives there."""
    for rel in rels:
        nums, den = rel.roots["G"]
        assert relations._DrawnOrders(rel).p_signs == signs_at(rel.P.nums, sorted(nums), den), rel.params


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
        assert all(not check_relation(rel).passed for rel in rels)
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
    report = check_relation(broken)
    assert report.premise_kind is None and report.premise.kind == "Fail"
    assert set(report.clauses.values()) == {"skipped"}
    _assert_same_reports([broken])
    # E on a zero of Q: P(E) = B(E) G(E) / A, the note is logged
    on_q = assemble([F(-1), F(1)], [F(-3, 2), F(0)], F(0))
    assert "E sits on a zero of Q (permitted, logged)" in check_relation(on_q).notes
    _assert_same_reports([on_q])
    # a zero 0 that G and Q share: A(0) P(0) = s (0 - E) Q(0) = 0, so P(0) =
    # 0 (the float checker finds that premise inconclusive, so only the signs
    # are compared)
    shared = assemble([F(-1), F(0), F(1)], [F(-1, 2), F(0), F(3, 4)], F(2))
    assert relations._DrawnOrders(shared).p_signs[1] == 0
    report = check_relation(shared)
    assert report.premise.kind == "Fail" and not report.hypotheses["no_common_zeros_g_p"]
    _assert_identity_signs([shared])


def test_the_drawn_zeros_decide_only_a_certified_relation():
    rel = oracle_pair_up(5, 0)
    assert check_relation(rel).passed
    uncertified = dataclasses.replace(rel, P=rel.P + Polynomial([1]))
    object.__setattr__(uncertified, "roots", rel.roots)
    assert not uncertified.certified
    with pytest.raises(ValueError, match="oracle-pair-up: the drawn zeros decide only a certified relation"):
        check_relation(uncertified)


def test_zeros_closer_than_the_floor_are_decided_exactly():
    # G's top zero is 2^-40 above Q's: the float checker finds the premise
    # inconclusive and the G/P gap under the floor, so it skips every clause
    # (a vacuous pass); the drawn zeros decide every clause.
    rel = _assemble([F(-1), F(1, 2**40)], [F(-2), F(0)], F(-3, 2))
    (floats,) = _float_reports([rel])
    assert floats.premise.kind == "Inconclusive"
    assert set(floats.clauses.values()) == {"skipped"}
    report = check_relation(rel)
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
    ref.refuse_zero_sets(monkeypatch)
    code, out = _sweep(["sweep", "--oracle", mode, "--n", "1..12", "--seeds", "5", "--workers", "1"])
    assert code == 0 and out.count(",pass") == 60


def test_pair_up_oracle_passes_at_degrees_40_to_48():
    # 7 of these 27 instances raised while P's zeros were solved: 6 complex
    # companion pairs and 1 zero set that was not increasing.
    code, out = _sweep(["sweep", "--oracle", "pair-up", "--n", "40..48", "--seeds", "3", "--workers", "1"])
    rows = out.splitlines()[1:]
    assert code == 0
    assert len(rows) == 27 and all(row.endswith(",pass") for row in rows)


# -- zeros_above: counts along a recurrence chain --------------------------------

above_minus_one = st.fractions(min_value=F(-99, 100), max_value=20, max_denominator=100)
positive = st.fractions(min_value=F(1, 100), max_value=20, max_denominator=100)
open_unit = st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000)
up_to_40 = st.integers(min_value=0, max_value=40)


@st.composite
def krawtchouk_specs(draw):
    n = draw(up_to_40)
    return krawtchouk(draw(open_unit), draw(st.integers(min_value=max(n, 1), max_value=120)), n)


orthogonal_specs = st.one_of(
    st.builds(jacobi, above_minus_one, above_minus_one, up_to_40),
    st.builds(laguerre, above_minus_one, up_to_40),
    krawtchouk_specs(),
    st.builds(meixner, positive, open_unit, up_to_40),
)


@given(orthogonal_specs, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
@example(jacobi(2, 14, 40), 10**6)  # above every zero
@example(meixner(F(1, 3), F(999, 1000), 40), 0)  # below every zero
def test_zeros_above_counts_the_eigenvalues_above_a_point(spec, k):
    zeros = zeros_orthogonal(spec).zeros
    lo, hi = (F(zeros[0]) - 1, F(zeros[-1]) + 1) if zeros else (F(-1), F(1))
    x = lo + (hi - lo) * F(k, 10**6)
    assume(all(abs(z - x) >= F(1, 10**6) for z in zeros))
    assert zeros_above(recurrence_steps(spec), x.numerator, x.denominator) == (
        sum(z > x for z in zeros),
        False,
    )


@pytest.mark.parametrize("n", range(1, 12))
def test_zeros_above_skips_a_zero_term(n):
    # The Legendre members alternate in parity, so every odd one vanishes at
    # 0: p_m(0) = 0 for odd m, and p_(m-1)(0) = 0 for even m.
    steps = recurrence_steps(jacobi(0, 0, n))
    assert zeros_above(steps, 0, 1) == (n // 2, n % 2 == 1)


#: the acceptance grid of the five orthogonal checks, n = 1..8 (the grid
#: sweeps of the benchmark's seed 0)
GRID_JACOBI = [F(-1, 2), F(0), F(1), F(5, 2), F(14)]


def _grid_points():
    for n in range(1, 9):
        for alpha in GRID_JACOBI:
            yield "laguerre-3.7", n, {"alpha": alpha}
            for beta in GRID_JACOBI:
                yield "jacobi-3.6", n, {"alpha": alpha, "beta": beta}
                if beta > 0:
                    yield "jacobi-3.5", n, {"alpha": alpha, "beta": beta}
        for t in (F(1, 2), F(1), F(3)):
            for w in (F(1, 4), F(1, 2), F(3, 4)):
                yield "meixner-3.2", n, {"t": t, "w": w}
        for p in (F(1, 4), F(1, 2), F(3, 4)):
            for N in (F(9), F(10)):
                yield "krawtchouk-3.1", n, {"p": p, "N": N}


#: the meixner-3.2 points where E is a zero of G that the float checker
#: reported with a failed premise (defect C)
C_POINTS = [(61, F(1)), (99, F(1)), (101, F(1)), (60, F(2))]


def _common_zero_relations():
    with families.chain_scope():
        rels = [build_relation(*point) for point in _grid_points()]
        rels = [rel for rel in rels if rel.G.evaluate(rel.E) == 0]
        rels += [build_relation("meixner-3.2", n, {"t": t, "w": F(1, 2)}) for n, t in C_POINTS]
    return rels


def test_zeros_above_at_a_zero_of_g():
    rels = _common_zero_relations()
    assert len(rels) > len(C_POINTS)
    for rel in rels:
        zeros, e = zeros_orthogonal(rel.specs["G"]).zeros, rel.E
        near = [z for z in zeros if abs(z - e) < F(1, 10**6)]
        assert len(near) == 1, (rel.rel_id, rel.params)
        want = sum(z - e >= F(1, 10**6) for z in zeros)
        assert zeros_above(recurrence_steps(rel.specs["G"]), e.numerator, e.denominator) == (want, True)


# -- fact 2: every premise is a relation on G's chain --------------------------

#: the grid pools every benchmark seed draws from
POOL_JACOBI = [F(x) for x in ("-1/2", "-1/3", "0", "1", "2", "5/2", "3/2", "7/2", "14", "13", "15")]
POOL_MEIXNER_T = [F(x) for x in ("1/2", "1/3", "1", "2", "3", "4")]
POOL_MEIXNER_W = [F(x) for x in ("1/4", "1/5", "1/2", "1/3", "3/4", "2/3")]
POOL_KRAWTCHOUK_P = [F(x) for x in ("1/4", "1/5", "1/2", "2/5", "3/4", "4/5")]


def _pool_params(check_id: str, n: int):
    if check_id == "laguerre-3.7":
        return [{"alpha": a} for a in POOL_JACOBI]
    if check_id == "jacobi-3.6":
        return [{"alpha": a, "beta": b} for a in POOL_JACOBI for b in POOL_JACOBI]
    if check_id == "jacobi-3.5":
        return [{"alpha": a, "beta": b} for a in POOL_JACOBI for b in POOL_JACOBI if b > 0]
    if check_id == "meixner-3.2":
        return [{"t": t, "w": w} for t in POOL_MEIXNER_T for w in POOL_MEIXNER_W]
    sizes = (9, 10, 11) if n < 9 else (n + 3, n + 4)
    return [{"p": p, "N": F(N)} for p in POOL_KRAWTCHOUK_P for N in sizes]


def _pair_sign(pair) -> int:
    num, den = pair
    return _sign(num * den)


#: check id -> the signs of (t, c1, c2) in Q = t G + c1 G1 + c2 G2
SIGN_TABLE = {
    "jacobi-3.6": (0, 1, 0),  # Q = G1
    "laguerre-3.7": (1, 1, 0),
    "meixner-3.2": (1, 1, 0),
    "krawtchouk-3.1": (1, -1, 0),
    "jacobi-3.5": (1, 1, 1),
}


@pytest.mark.parametrize("check_id", SIGN_TABLE)
def test_every_premise_is_a_relation_on_the_chain_of_g(check_id):
    with families.chain_scope():
        for n in (1, 2, 3, 5, 8, 20, 60):
            for params in _pool_params(check_id, n):
                rel = build_relation(check_id, n, params)
                spec = rel.specs["G"]
                chain, m = families._chain(spec), spec.n
                basis = [chain.member(k) for k in (m, m - 1, m - 2)]
                coeffs = chain_coefficients((rel.Q.nums, rel.Q.den), [(p.nums, p.den) for p in basis])
                assert tuple(map(_pair_sign, coeffs)) == SIGN_TABLE[check_id], (n, params)
                if check_id == "jacobi-3.6":
                    assert rel.Q == basis[1]


# -- the chain report against the float checkers ------------------------------


@st.composite
def named_points(draw):
    """An orthogonal named check at n = 1..12 on drawn parameters."""
    check_id = draw(st.sampled_from(sorted(SIGN_TABLE)))
    n = draw(st.integers(min_value=1, max_value=12))
    if check_id == "krawtchouk-3.1":
        params = {"p": draw(open_unit), "N": F(draw(st.integers(min_value=n + 1, max_value=n + 40)))}
    elif check_id == "meixner-3.2":
        params = {"t": draw(positive), "w": draw(open_unit)}
    elif check_id == "laguerre-3.7":
        params = {"alpha": draw(above_minus_one)}
    else:
        beta = positive if check_id == "jacobi-3.5" else above_minus_one
        params = {"alpha": draw(above_minus_one), "beta": draw(beta)}
    return check_id, n, params


def _without_evidence(notes):
    """The notes with the evidence of the extreme-zero note cut off: the float
    source prints G's extreme zero, the chain source a count."""
    return [note.split(":")[0] if note.startswith("extreme zero") else note for note in notes]


@given(named_points())
@settings(max_examples=300, deadline=None)
@example(("krawtchouk-3.1", 8, {"p": F(1, 3), "N": F(11)}))
@example(("jacobi-3.5", 8, {"alpha": F(2), "beta": F(14)}))
def test_chain_report_agrees_with_the_float_checker(point):
    rel = build_relation(*point)
    found = [zero_set(term) for term in ref.relation_terms(rel)]
    merged = sorted([*(z for zs in found for z in zs.zeros), float(rel.E)])
    assume(all(b - a > 1e-6 for a, b in zip(merged, merged[1:])))
    want, got = ref.float_report(rel, found), check_relation(rel)
    assert got.csv_rows() == want.csv_rows(), point
    assert {**got.to_json(), "notes": None} == {**want.to_json(), "notes": None}, point
    assert (got.premise, got.hypotheses) == (want.premise, want.hypotheses), point
    assert _without_evidence(got.notes) == _without_evidence(want.notes), point


def test_the_chain_decides_only_a_certified_relation_on_its_own_member():
    rel = build_relation("laguerre-3.7", 4, {"alpha": 0})
    assert check_relation(rel).passed
    uncertified = dataclasses.replace(rel, P=rel.P + Polynomial([1]))
    assert not uncertified.certified
    # the same terms, certified, with G named as a member of another chain
    renamed = dataclasses.replace(rel, specs={**rel.specs, "G": laguerre(F(1, 2), 5)})
    assert renamed.certified
    for copy in (uncertified, renamed):
        with pytest.raises(ValueError, match="laguerre-3.7: the chain decides only a certified relation"):
            check_relation(copy)


# -- the chain on hand-made relations: a failing premise, and A vanishing at E --

LEGENDRE_3 = jacobi(0, 0, 3)  # x^3 - 3/5 x, zeros -sqrt(3/5), 0, sqrt(3/5)


def _legendre(k: int) -> Polynomial:
    return families.monic_by_recurrence(jacobi(0, 0, k))


def _pair_up_on_legendre_3(Q: Polynomial, e: F) -> relations.MixedRelation:
    """A pair-up relation with G = LEGENDRE_3, the given Q and E, and B = b - x,
    b chosen so that B G + (x - E) Q drops to degree 2: A is its leading
    coefficient and P the monic rest."""
    G = _legendre(3)
    b = e + G.coeffs[2] - Q.coeffs[2]  # cancels x^3
    rest = Polynomial([b, -1]) * G + Polynomial([-e, 1]) * Q
    assert rest.degree == 2
    lead = rest.leading_coefficient
    rel = relations.MixedRelation(
        "hand", relations.PAIR_UP, 1, Polynomial([lead]), Polynomial([b, -1]), e,
        rest.scale(1 / lead), G, Q, specs={"G": LEGENDRE_3},
    )
    assert rel.certified
    return rel


@pytest.mark.parametrize(
    "c1, witness",
    [
        # L = 1/10 + (x - 0) / l_3 with l_3 = 9/35: its root -9/350 lies
        # between the zeros 0 and 1 of G
        (F(1, 10), (0, 1)),
        # L = x / l_3 vanishes at G's zero 0, which Q shares
        (F(0), (1, 1)),
    ],
)
def test_a_premise_that_fails_on_the_chain(c1, witness):
    # Q = G + c1 G1 + G2 does not alternate with G: Q(g) = L(g) G1(g)
    # changes sign, or vanishes, where L does.
    Q = _legendre(3) + _legendre(2).scale(c1) + _legendre(1)
    report = check_relation(_pair_up_on_legendre_3(Q, F(2)))
    assert report.premise_kind is None
    assert report.premise == relations.Verdict("Fail", witness=witness)
    assert set(report.clauses.values()) == {"skipped"}
    assert "premise failed: zero sets of Q and G do not alternate" in report.notes


def test_p_sign_where_a_and_g_vanish_at_e_is_read_directly():
    # A = x vanishes at E = 0, a zero of G: A(0) P(0) = 0 says nothing of
    # P(0), so the chain reads P's sign there.  P = (x + 1) G / x - G1 =
    # x^3 - 3/5 x - 4/15, nonzero at every zero of G.
    G, Q = _legendre(3), _legendre(2)
    B = Polynomial([1, 1])
    P = (B * G).divide_linear(0)[0] - Q
    rel = relations.MixedRelation(
        "hand", relations.DOWN_ONE, -1, Polynomial([0, 1]), B, F(0), P, G, Q,
        specs={"G": LEGENDRE_3},
    )
    assert rel.certified and P.evaluate(0) == F(-4, 15)
    report = check_relation(rel)
    assert not report.hypotheses["e_not_on_g_zero"]
    assert report.hypotheses["no_common_zeros_g_p"]
    orders = relations._ChainOrders(rel)
    root = F(3, 5) ** 0.5
    assert orders.p_signs == [_sign(P.evaluate(F(x))) for x in (-root, 0, root)]


def test_a_q_off_the_chain_is_refused():
    # Q = G + x^2 + 1 = G + G1 + 4/3 is no combination of G, G1 and G2 = x:
    # the chain has no premise to read, and there is no float fallback.
    rel = _pair_up_on_legendre_3(_legendre(3) + Polynomial([1, 0, 1]), F(2))
    with pytest.raises(InvalidParameterError, match="hand: Q is not t G"):
        check_relation(rel)


# -- the Narayana checks, along the chain of P^(1,1) ---------------------------


def _float_even_report(rel) -> relations.CheckReport:
    """narayana-3.4 at even n decided on float zero sets, as its report was
    before it read the chain: P's zeros against those of G / (x + 1)."""
    report = relations._new_report(rel)
    report.premise_kind = "even-quotient"
    shared = rel.P.evaluate(rel.E) == 0 and rel.G.evaluate(rel.E) == 0
    report.clauses["common_zero_at_minus_one"] = "pass" if shared else "fail"
    quotient, remainder = rel.G.divide_linear(rel.E)
    assert remainder == 0
    zp, zq = zero_set(Term(poly=rel.P)), zero_set(Term(poly=quotient))
    holds = ref.holds(interlaces_down(zp, zq))
    report.clauses["quotient_interlace"] = relations._clause_result(holds)
    report.notes.append("even branch: zeros of P against zeros of G/(x+1)")
    return report


@pytest.mark.parametrize("check_id", ["narayana-3.3", "narayana-3.4"])
def test_narayana_reports_agree_with_the_float_route(check_id):
    # Up to n = 26 every float bound of these zero sets is under the 1e-9
    # floor, so the float route decides every order it reads.
    for n in range(2, 27):
        rel = build_relation(check_id, n)
        got = relations.run_check(check_id, n)
        if check_id == "narayana-3.4" and n % 2 == 0:
            want = _float_even_report(rel)
        else:
            found = [zero_set(term) for term in ref.relation_terms(rel)]
            assert max(zs.bound for zs in found) < 1e-9, n
            want = ref.float_report(rel, found)
        assert got.to_json() == want.to_json(), n
        assert got.csv_rows() == want.csv_rows(), n
        assert (got.premise, got.notes) == (want.premise, want.notes), n
        assert got.passed, n


#: seconds a check at these degrees may take; each takes under 0.1 s on a
#: 2-CPU host, and the float route the Narayana checks replaced raised from
#: n = 51 on
HIGH_DEGREE_BUDGET = 2.0


def _ladder_params(check_id: str, n: int) -> dict:
    """The benchmark ladder's seed-0 parameters of an orthogonal check at degree n."""
    return {
        "jacobi-3.5": {"alpha": F(2), "beta": F(14)},
        "jacobi-3.6": {"alpha": F(2), "beta": F(14)},
        "laguerre-3.7": {"alpha": F(0)},
        "meixner-3.2": {"t": F(1), "w": F(1, 2)},
        "krawtchouk-3.1": {"p": F(1, 3), "N": F(n + 3)},
    }[check_id]


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize(
    "check_id", ["jacobi-3.5", "jacobi-3.6", "laguerre-3.7", "meixner-3.2", "krawtchouk-3.1"]
)
def test_orthogonal_checks_pass_at_high_degree(check_id, n):
    start = time.perf_counter()
    report = relations.run_check(check_id, n, _ladder_params(check_id, n))
    elapsed = time.perf_counter() - start
    assert report.identity_ok and report.passed
    assert report.clauses["added_point"] == "pass"
    assert elapsed < HIGH_DEGREE_BUDGET, elapsed


@pytest.mark.parametrize(
    "check_id, n",
    [("narayana-3.3", n) for n in (51, 60, 100, 200)]
    + [("narayana-3.4", n) for n in (51, 60, 61, 101, 201)],
)
def test_narayana_checks_pass_at_high_degree(check_id, n):
    start = time.perf_counter()
    report = relations.run_check(check_id, n)
    elapsed = time.perf_counter() - start
    assert report.identity_ok and report.passed
    # E = 1 lies above every zero of G; E = -1 is a zero of G at even n only
    if check_id == "narayana-3.3":
        assert report.clauses["full_when_e_above"] == "pass"
    else:
        assert report.clauses["quotient_interlace" if n % 2 == 0 else "added_point"] == "pass"
    assert elapsed < HIGH_DEGREE_BUDGET, elapsed


def test_the_narayana_chain_decides_only_a_certified_relation_on_its_own_member():
    rel = build_relation("narayana-3.3", 9)
    assert check_relation(rel).passed
    uncertified = dataclasses.replace(rel, P=rel.P + Polynomial([1]))
    assert not uncertified.certified
    # the same terms, certified, with G named as R_10 rather than R_9
    renamed = dataclasses.replace(rel, specs={**rel.specs, "G": narayana_spec("narayana-reduced", 10)})
    assert renamed.certified
    for copy in (uncertified, renamed):
        with pytest.raises(ValueError, match="narayana-3.3: the chain decides only a certified relation"):
            check_relation(copy)


@pytest.mark.parametrize("n", [2, 3, 8, 31, 60])
def test_the_link_certifies_r_n_and_its_predecessor(n):
    g, q = narayana_reduced(n).nums, narayana_reduced(n - 1).nums
    assert families._narayana_multiples(n, g, q) == (True, True)
    # a multiple is a multiple, the predecessor's place is not G's, and one
    # unit off in any coefficient is caught
    assert families._narayana_multiples(n, [3 * x for x in g], [-2 * x for x in q]) == (True, True)
    assert families._narayana_multiples(n, q, g) == (False, False)
    for i in {0, len(g) // 2, len(g) - 1}:
        bumped = list(g)
        bumped[i] += 1
        assert families._narayana_multiples(n, bumped, q) == (False, True), i


def test_the_link_refuses_a_p11_step_off_the_narayana_recurrence(monkeypatch):
    real = families._jacobi_step

    def off(a, b, d, k):
        a_, b_, u, v = real(a, b, d, k)
        return (a_, b_, u + 1, v) if k == 5 else (a_, b_, u, v)

    monkeypatch.setattr(families, "_jacobi_step", off)
    with pytest.raises(families.ConstructionError, match="step 6 of P"):
        relations.run_check("narayana-3.3", 12)
    assert relations.run_check("narayana-3.3", 6).passed  # steps 1..5 only


@pytest.mark.parametrize("n", [8, 9, 20, 21, 40])
def test_narayana_counts_agree_with_the_float_zeros(n):
    reading = families.chain_reading(narayana_spec("narayana-reduced", n))
    zeros = zeros_general(narayana_reduced(n)).zeros
    for x in (F(-1), F(-1, 3), F(-7, 2), F(-1, 50), F(1), F(7, 2)):
        above, on = reading.zeros_above(x)
        assert on == (x == -1 and n % 2 == 0), x
        assert above == sum(z > float(x) + 1e-6 for z in zeros), x
