"""Mixed relations: exact identities, shape checkers, random oracles."""

import dataclasses
import types
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace.families import InvalidParameterError
from interlace.poly import Polynomial, _integer_form
from interlace.relations import (
    DOWN_ONE,
    PAIR_UP,
    CHECKS,
    DegenerateDrawError,
    MixedRelation,
    assemble_down_one,
    assemble_pair_up,
    build_relation,
    check_pair_up,
    check_relation,
    oracle_down_one,
    oracle_pair_up,
    run_check,
    verify_identity,
)
from interlace.rootfind import zeros_general, zeros_orthogonal
from interlace import families, relations

from exact_reference import CHECKS_REFERENCE
from float_reference import float_report, sign_at_zeros

# The benchmark grid's parameter pools, with negative and fractional values
# (alpha = -1/2, beta = -1/3, t = 1/3, p = 4/5) among them.
JACOBI_POOL = [
    F(x) for x in ("-1/2", "-1/3", "0", "1", "2", "3/2", "5/2", "7/2", "13", "14", "15")
]
# Parametrized cases keep the ids they were first recorded under: each
# relation's short name rather than its check id.
CASE_IDS = {
    "krawtchouk-3.1": "krawtchouk",
    "meixner-3.2": "meixner",
    "narayana-3.3": "narayana-christoffel",
    "narayana-3.4": "narayana-perturbed",
    "jacobi-3.5": "jacobi-beta",
    "jacobi-3.6": "jacobi-shift",
    "laguerre-3.7": "laguerre",
}


def case_id(value):
    """The case id of a check id; None (pytest's own id) for any other value."""
    return CASE_IDS.get(value) if isinstance(value, str) else None


TABLE_POOLS = {
    "krawtchouk-3.1": {
        "p": [F(x) for x in ("1/4", "1/5", "1/2", "2/5", "3/4", "4/5")],
        "N": [F(9), F(10), F(11), F(13)],
    },
    "meixner-3.2": {
        "t": [F(x) for x in ("1/2", "1/3", "1", "2", "3", "4")],
        "w": [F(x) for x in ("1/4", "1/5", "1/2", "1/3", "3/4", "2/3")],
    },
    "narayana-3.3": {},
    "narayana-3.4": {},
    "jacobi-3.5": {"alpha": JACOBI_POOL, "beta": [b for b in JACOBI_POOL if b > 0]},
    "jacobi-3.6": {"alpha": JACOBI_POOL, "beta": JACOBI_POOL},
    "laguerre-3.7": {"alpha": JACOBI_POOL},
}


class TestBuildRelation:
    def test_krawtchouk_transcription(self):
        rel = build_relation("krawtchouk-3.1", 2, {"p": F(1, 2), "N": 4})
        assert verify_identity(rel)
        assert rel.A == Polynomial([F(9, 4)])  # p(1-p)(n+1)(N+1-n)
        assert rel.B == Polynomial([5, -1])
        assert rel.E == F(7, 2)
        assert rel.shape == PAIR_UP

    def test_laguerre_transcription(self):
        rel = build_relation("laguerre-3.7", 1, {"alpha": 0})
        assert verify_identity(rel)
        # the scalar multiplier is (n+1)(n+alpha+1) = 4 here; hand expansion
        # of the right side gives 4x - 4 = 4 * (x - 1)
        assert rel.A == Polynomial([4])
        rhs = rel.B * rel.G + (rel.H * rel.Q).scale(rel.sign)
        assert rhs == Polynomial([-4, 4])

    def test_meixner_transcription(self):
        rel = build_relation("meixner-3.2", 3, {"t": 2, "w": F(1, 3)})
        assert verify_identity(rel)
        assert rel.E == -2 + F(1, 3) * 4 / F(2, 3)

    def test_narayana_christoffel_small(self):
        # (5/2) * perturbed = (7/2) * reduced_3 - (x - 1) * reduced_2 at n = 3
        rel = build_relation("narayana-3.3", 3, {})
        assert rel.A == Polynomial([F(5, 2)])
        assert rel.B == Polynomial([F(7, 2)])
        assert verify_identity(rel)

    def test_unknown_pair(self):
        with pytest.raises(InvalidParameterError, match="unknown check id 'nope'"):
            build_relation("nope", 3, {})

    def test_wrong_parameters(self):
        with pytest.raises(InvalidParameterError):
            build_relation("laguerre-3.7", 3, {"p": F(1, 2)})

    def test_krawtchouk_degree_room(self):
        with pytest.raises(InvalidParameterError, match="n \\+ 1 <= N"):
            build_relation("krawtchouk-3.1", 4, {"p": F(1, 2), "N": 4})

    def test_jacobi_beta_needs_positive_beta(self):
        with pytest.raises(InvalidParameterError, match="beta > 0"):
            build_relation("jacobi-3.5", 3, {"alpha": 0, "beta": 0})

    @pytest.mark.parametrize(
        "check_id, params",
        [
            ("laguerre-3.7", {"alpha": 0.1}),
            ("krawtchouk-3.1", {"p": F(1, 2), "N": 8.0}),
            ("jacobi-3.6", {"alpha": F(1, 2), "beta": 0.5}),
        ],
        ids=case_id,
    )
    def test_float_parameters_refused(self, check_id, params):
        # a binary float is never read as the rational it approximates,
        # the same rule the family constructors apply
        with pytest.raises(InvalidParameterError, match="exact rationals, got float"):
            build_relation(check_id, 3, params)

    @pytest.mark.parametrize("check_id", ["jacobi-3.5", "jacobi-3.6"], ids=case_id)
    def test_member_parameters_checked_before_scalars(self, check_id):
        # alpha + beta = -4 puts a zero in the denominators of A, B or E at
        # n = 1; the invalid member must be named before any of them is formed.
        with pytest.raises(InvalidParameterError, match="alpha > -1"):
            build_relation(check_id, 1, {"alpha": -5, "beta": 1})

    @pytest.mark.parametrize("n", [4, 5])
    def test_stray_parameters_refused_at_either_parity(self, n):
        # narayana-3.4 takes its even-n branch at n = 4; both branches build
        # the same table row, so both refuse a parameter it does not take
        with pytest.raises(InvalidParameterError, match=r"narayana-3\.4 expects parameters \(\)"):
            run_check("narayana-3.4", n, {"alpha": 1})


class TestIntegerTable:
    """Each ``CHECKS`` entry, formed on integer numerators, against its Fraction display."""

    def test_pools_cover_every_entry(self):
        assert list(TABLE_POOLS) == list(CHECKS) == list(CHECKS_REFERENCE)

    @pytest.mark.parametrize("check_id", list(CHECKS), ids=case_id)
    def test_terms_equal_fraction_reference(self, check_id):
        entry, ref = CHECKS[check_id], CHECKS_REFERENCE[check_id]
        grid = [{}]
        for name, values in TABLE_POOLS[check_id].items():
            grid = [{**point, name: v} for point in grid for v in values]
        compared = 0
        for params in grid:
            for n in range(entry.min_n or 1, 13):
                if entry.check is not None:
                    try:
                        entry.check(n, **params)
                    except InvalidParameterError:
                        continue
                for term in ("P", "G", "Q", "A", "B", "support"):
                    if term in ref:
                        got, want = getattr(entry, term)(n, **params), ref[term](n, **params)
                        assert got == want, (term, n, params)
                e = entry.E(n, **params)
                assert type(e) is F and e == ref["E"](n, **params), (n, params)
                compared += 1
        assert compared >= 11


class TestVerifyIdentity:
    def test_perturbation_breaks_identity(self):
        rel = build_relation("meixner-3.2", 3, {"t": 2, "w": F(1, 3)})
        assert verify_identity(rel)
        bumped = list(rel.P.coeffs)
        bumped[0] += F(1, 10**6)
        bad = dataclasses.replace(rel, P=Polynomial(bumped))
        assert bad.certified is False and rel.certified is True
        assert not verify_identity(bad)

    @pytest.mark.parametrize(
        "check_id,n,params",
        [
            ("krawtchouk-3.1", 5, {"p": F(3, 4), "N": 8}),
            ("meixner-3.2", 5, {"t": F(1, 2), "w": F(3, 4)}),
            ("laguerre-3.7", 5, {"alpha": F(5, 2)}),
            ("jacobi-3.6", 5, {"alpha": F(-1, 2), "beta": F(14)}),
            ("jacobi-3.5", 5, {"alpha": F(-1, 2), "beta": F(5, 2)}),
            ("jacobi-3.6", 7, {"alpha": F(14), "beta": F(2)}),  # Table 2, block 2
            ("narayana-3.3", 7, {}),
            ("narayana-3.4", 7, {}),
        ],
        ids=case_id,
    )
    def test_sample_points_exact(self, check_id, n, params):
        assert verify_identity(build_relation(check_id, n, params))

    def test_report_describes_reassigned_polynomial(self):
        rel = build_relation("meixner-3.2", 3, {"t": 2, "w": F(1, 3)})
        bumped = list(rel.P.coeffs)
        bumped[0] += F(1, 10**6)
        copy = dataclasses.replace(rel, P=Polynomial(bumped))
        report = float_report(copy)
        assert not report.identity_ok
        assert not report.passed

    def test_a_relation_without_zero_sets_is_refused(self):
        # No check solves a zero set.  A relation that carries no drawn zeros
        # and names no spec for G has no recurrence chain to decide on.
        rel = dataclasses.replace(build_relation("narayana-3.3", 4), specs={})
        with pytest.raises(ValueError, match="narayana-3.3: no drawn zeros or recurrence chain"):
            check_relation(rel)


class TestCertifiedOnce:
    """Each relation runs the exact identity test once, when it is constructed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(rel):
            seen.append(rel.rel_id)
            return verify_identity(rel)

        monkeypatch.setattr(relations, "verify_identity", counting)
        return seen

    @pytest.mark.parametrize(
        "check_id,n,params",
        [
            ("jacobi-3.6", 6, {"alpha": 2, "beta": 14}),
            ("krawtchouk-3.1", 4, {"p": F(1, 3), "N": 7}),
            ("narayana-3.4", 4, {}),
            ("narayana-3.4", 5, {}),
        ],
    )
    def test_named_check(self, calls, check_id, n, params):
        report = run_check(check_id, n, params)
        assert report.identity_ok
        assert len(calls) == 1

    def test_oracle_relation(self, calls):
        rel = oracle_pair_up(4, 0)
        assert calls == ["oracle-pair-up"]
        report = check_relation(rel)
        assert report.identity_ok
        assert calls == ["oracle-pair-up"]


class TestPairUpChecker:
    def test_laguerre_low_orientation(self):
        report = run_check("laguerre-3.7", 4, {"alpha": 0})
        assert report.passed
        assert report.premise_kind == "q_below_g"
        assert set(report.clauses.values()) == {"pass"}

    def test_krawtchouk_high_orientation(self):
        report = run_check("krawtchouk-3.1", 3, {"p": F(1, 2), "N": 6})
        assert report.passed
        assert report.premise_kind == "g_below_q"
        assert set(report.clauses.values()) == {"pass"}

    def test_degree_zero_member(self):
        rel = build_relation("laguerre-3.7", 0, {"alpha": F(-1, 2)})
        assert check_relation(rel).passed
        assert float_report(rel).passed

    def test_wrong_shape_rejected(self):
        rel = build_relation("jacobi-3.6", 3, {"alpha": 0, "beta": 1})
        with pytest.raises(InvalidParameterError):
            check_pair_up(rel, relations._ChainOrders(rel))


class TestDownOneChecker:
    def test_jacobi_shift_block_one(self):
        report = run_check("jacobi-3.6", 6, {"alpha": 2, "beta": 14})
        assert report.passed
        assert report.e_value == F(-2, 5)
        assert report.e_position == "below"
        assert report.clauses["full_when_e_below"] == "pass"
        assert report.clauses["full_when_e_above"] == "skipped"

    def test_jacobi_shift_block_two(self):
        report = run_check("jacobi-3.6", 7, {"alpha": 14, "beta": 2})
        assert report.passed
        assert report.e_value == F(3, 8)
        assert report.e_position == "above"
        assert report.clauses["full_when_e_above"] == "pass"

    def test_narayana_christoffel_full_interlace(self):
        # E = 1 sits above every zero, so the full statement must fire
        report = run_check("narayana-3.3", 5, {})
        assert report.passed
        assert report.e_position == "above"
        assert report.clauses["full_when_e_above"] == "pass"

    def test_narayana_perturbed_odd(self):
        report = run_check("narayana-3.4", 5, {})
        assert report.passed
        assert report.e_position.startswith("interior")
        assert report.clauses["added_point"] == "pass"

    def test_degenerate_symmetric_jacobi(self):
        # alpha = beta with odd n: E = 0 is a shared zero of P and G, the
        # no-common-zeros hypothesis fails, conclusions are out of scope
        report = run_check("jacobi-3.6", 5, {"alpha": 1, "beta": 1})
        assert report.passed
        assert not report.hypotheses_ok
        assert not report.hypotheses["no_common_zeros_g_p"]
        assert set(report.clauses.values()) == {"skipped"}


class TestNarayanaEvenBranch:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_even_quotient(self, n):
        report = run_check("narayana-3.4", n)
        assert report.identity_ok
        assert report.clauses["common_zero_at_minus_one"] == "pass"
        assert report.clauses["quotient_interlace"] == "pass"
        assert report.passed

    def test_run_check_dispatches_even(self):
        report = run_check("narayana-3.4", 4, {})
        assert report.premise_kind == "even-quotient"
        assert report.passed


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
open_unit = st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000)


@st.composite
def supports(draw):
    """(lo, hi) with lo < hi; None marks an open end."""
    lo = draw(st.one_of(st.none(), small))
    if draw(st.booleans()):
        return lo, None
    if lo is None:
        return None, draw(small)
    return lo, lo + draw(st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12))


def _inside(support, x):
    lo, hi = support
    return (lo is None or lo < x) and (hi is None or x < hi)


def _point_at(support, t):
    """A rational strictly inside ``support`` for each t in (0, 1), onto its whole interior."""
    lo, hi = support
    if lo is not None and hi is not None:
        return lo + (hi - lo) * t
    if lo is not None:
        return lo + (1 - t) / t
    if hi is not None:
        return hi - (1 - t) / t
    return (2 * t - 1) / (t * (1 - t))


def _landmarks(a, support):
    """0, the ends +- 1, the midpoint and, for a linear A, its root, the root
    +- 1 and halfway from the root to each end: those strictly inside."""
    lo, hi = support
    ends = [e for e in support if e is not None]
    points = [F(0)] + [e + d for e in ends for d in (-1, 1)]
    if len(ends) == 2:
        points.append((lo + hi) / 2)
    if len(a) == 2 and a[1] != 0:
        root = -a[0] / a[1]
        points += [root, root - 1, root + 1] + [(root + e) / 2 for e in ends]
    return [x for x in points if _inside(support, x)]


CHECK_PARAMS = {
    "jacobi-3.5": {"alpha": F(2), "beta": F(14)},
    "jacobi-3.6": {"alpha": F(-1, 2), "beta": F(5, 2)},
    "krawtchouk-3.1": {"p": F(1, 3), "N": F(12)},
    "laguerre-3.7": {"alpha": F(1, 2)},
    "meixner-3.2": {"t": F(1), "w": F(1, 2)},
}


class TestAPositive:
    """``_a_positive`` against the exact values of A at points of the support."""

    @given(st.lists(small, max_size=2), supports(), st.lists(open_unit, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    @example([F(1), F(1)], (F(-1), F(1)), [F(1, 2)])  # A = 0 at the closed lower end
    @example([F(1), F(1)], (None, F(1)), [F(1, 2)])  # unbounded below the open end
    @example([F(1), F(-1)], (F(-1), None), [F(1, 2)])
    @example([F(0), F(0)], (None, None), [F(1, 2)])  # A = 0
    def test_verdict_is_positivity_inside_the_support(self, a, support, ts):
        # A = a[0] + a[1] x, valued exactly on Fractions.
        rel = types.SimpleNamespace(rel_id="test", A=Polynomial(a), support=support)
        points = [_point_at(support, t) for t in ts] + _landmarks(a, support)
        values = [sum(c * x**k for k, c in enumerate(a)) for x in points]
        if relations._a_positive(rel):
            assert all(v > 0 for v in values), (points, values)
        else:
            assert any(v <= 0 for v in values), (points, values)

    def test_degree_two_refused(self):
        rel = types.SimpleNamespace(rel_id="made-up", A=Polynomial([1, 0, 1]), support=(None, None))
        with pytest.raises(InvalidParameterError, match="made-up: a_positive decides A of degree <= 1"):
            relations._a_positive(rel)

    @pytest.mark.parametrize("check_id", relations.CHECK_IDS)
    def test_support_ends_are_exact(self, check_id):
        for n in (2, 5, 9):
            support = build_relation(check_id, n, CHECK_PARAMS.get(check_id)).support
            assert all(end is None or type(end) in (int, F) for end in support), support

    @pytest.mark.parametrize("check_id", relations.CHECK_IDS)
    def test_holds_on_every_check(self, check_id):
        for n in (2, 5, 9):
            assert relations._a_positive(build_relation(check_id, n, CHECK_PARAMS.get(check_id)))


class TestOracles:
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("orientation", ["q_below_g", "g_below_q"])
    def test_pair_up_passes(self, n, orientation):
        for seed in range(15):
            rel = oracle_pair_up(n, seed, orientation=orientation)
            assert verify_identity(rel)
            report = check_relation(rel)
            assert report.passed, (n, seed, report.to_json())
            assert report.premise_kind == orientation

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_down_one_passes(self, n):
        for seed in range(15):
            rel = oracle_down_one(n, seed)
            assert verify_identity(rel)
            report = check_relation(rel)
            assert report.passed, (n, seed, report.to_json())

    def test_down_one_region_control(self):
        for seed in range(15):
            above = check_relation(oracle_down_one(5, seed, e_region="above"))
            assert above.clauses["full_when_e_above"] == "pass"
            below = check_relation(oracle_down_one(5, seed, e_region="below"))
            assert below.clauses["full_when_e_below"] == "pass"
            interior = check_relation(oracle_down_one(5, seed, e_region="interior"))
            assert interior.clauses["added_point"] == "pass"

    def test_sign_alternation_engine(self):
        # with Q below G, the sign of Q at consecutive zeros of G alternates
        for seed in range(10):
            rel = oracle_pair_up(4, seed, orientation="q_below_g")
            zg = zeros_general(rel.G)
            signs = sign_at_zeros(rel.Q, zg)
            assert 0 not in signs
            assert all(a * b < 0 for a, b in zip(signs, signs[1:]))

    def test_impossible_region(self):
        # forcing E above every zero of G under the low orientation can
        # never produce a positive A; the checker flags the position clause
        for n in (1, 2, 4, 6):
            for seed in range(15):
                rel = oracle_pair_up(n, seed, orientation="q_below_g", force_e="above_max")
                assert verify_identity(rel)
                assert rel.A.coeffs[0] <= 0
                report = check_relation(rel)
                assert not report.hypotheses["a_positive"]
                assert report.clauses["e_position"] == "fail"
                assert not report.passed

    @pytest.mark.parametrize("oracle, n", [(oracle_pair_up, -1), (oracle_down_one, 0)])
    def test_degree_below_the_minimum_refused(self, oracle, n):
        # pair-up used to retry all 64 draws and raise DegenerateDrawError
        with pytest.raises(InvalidParameterError, match=r"oracle needs n >= \d \(got n="):
            oracle(n, 0)

    def test_determinism(self):
        a = oracle_pair_up(4, 123)
        b = oracle_pair_up(4, 123)
        assert a.P == b.P and a.G == b.G and a.Q == b.Q and a.E == b.E


class TestAffineInvariance:
    def _transform(self, zeros, a, b):
        return [a * z + b for z in zeros]

    @staticmethod
    def _assemble(assemble, g_zeros, q_zeros, *rest):
        """``assemble`` on the zeros brought to numerators over one denominator."""
        nums, den = _integer_form([*g_zeros, *q_zeros])
        return assemble(nums[: len(g_zeros)], nums[len(g_zeros) :], den, *rest)

    def test_pair_up_reports_match(self):
        a, b = F(2), F(1, 3)
        g_zeros = [F(-3, 4), F(-1, 4), F(1, 4), F(3, 4)]
        q_zeros = [F(-7, 8), F(-3, 8), F(1, 8), F(5, 8)]
        e = F(1, 16)
        first = self._assemble(assemble_pair_up, g_zeros, q_zeros, e)
        assert first is not None and verify_identity(first)
        report_one = check_relation(first)
        second = self._assemble(
            assemble_pair_up,
            self._transform(g_zeros, a, b),
            self._transform(q_zeros, a, b),
            a * e + b,
        )
        assert second is not None and verify_identity(second)
        report_two = check_relation(second)
        assert report_one.clauses == report_two.clauses
        assert report_one.premise_kind == report_two.premise_kind
        assert report_one.e_position == report_two.e_position

    def test_down_one_reports_match(self):
        a, b = F(2), F(1, 3)
        g_zeros = [F(-2, 3), F(-1, 6), F(1, 2)]
        q_zeros = [F(-1, 3), F(1, 6)]
        e = F(7, 8)
        first = self._assemble(assemble_down_one, g_zeros, q_zeros, e, F(2))
        second = self._assemble(
            assemble_down_one,
            self._transform(g_zeros, a, b),
            self._transform(q_zeros, a, b),
            a * e + b,
            F(2),
        )
        report_one = check_relation(first)
        report_two = check_relation(second)
        assert report_one.clauses == report_two.clauses
        assert report_one.e_position == report_two.e_position


class TestReportSerialization:
    def test_json_shape(self):
        report = run_check("laguerre-3.7", 4, {"alpha": 0})
        obj = report.to_json()
        assert obj["check"] == "laguerre-3.7"
        assert obj["passed"] is True
        assert obj["E"] == "5"
        assert obj["clauses"]["added_point"] == "pass"
        assert obj["premise"]["kind"] == "Alternate"

    def test_row_results(self):
        report = run_check("laguerre-3.7", 4, {"alpha": 0})
        rows = report.row_results()
        clause_names = {name for name, _ in rows}
        assert {"identity", "hypotheses", "premise", "added_point"} <= clause_names
        assert all(result in ("pass", "fail", "skipped") for _, result in rows)

    def test_unknown_check_id(self):
        with pytest.raises(InvalidParameterError):
            run_check("lagrange-9.9", 4, {})


def _is_subsequence(names, of):
    rest = iter(of)
    return all(name in rest for name in names)


class TestClauseNames:
    """``clause_names`` lists every row a check writes, in row order."""

    @pytest.mark.parametrize(
        "check_id, n, params",
        [
            ("krawtchouk-3.1", 3, {"p": F(1, 2), "N": 6}),
            ("meixner-3.2", 3, {"t": 1, "w": F(1, 2)}),
            ("narayana-3.3", 5, {}),
            ("narayana-3.4", 4, {}),  # even: the quotient branch
            ("narayana-3.4", 5, {}),
            ("jacobi-3.5", 4, {"alpha": 1, "beta": 2}),
            ("jacobi-3.6", 4, {"alpha": 2, "beta": 14}),
            ("jacobi-3.6", 3, {"alpha": 2, "beta": 2}),  # E a common zero of G and P
            ("laguerre-3.7", 3, {"alpha": 0}),
            ("laguerre-3.7", 8, {"alpha": F(-1, 2)}),
        ],
    )
    def test_every_row_is_listed_in_order(self, check_id, n, params):
        rows = [name for name, _ in run_check(check_id, n, params).row_results()]
        assert rows[:3] == list(relations.REPORT_ROWS)
        assert _is_subsequence(rows, relations.clause_names(check_id)), rows

    def test_build_row_ends_every_list(self):
        for check_id in relations.CHECK_IDS:
            assert relations.clause_names(check_id)[-1] == relations.BUILD_ROW
