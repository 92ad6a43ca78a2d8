"""Mixed relations: exact identities, shape checkers, random oracles."""

from fractions import Fraction as F

import pytest

from interlace.families import InvalidParameterError
from interlace.poly import Polynomial, _integer_form
from interlace.relations import (
    DOWN_ONE,
    PAIR_UP,
    DegenerateDrawError,
    MixedRelation,
    assemble_down_one,
    assemble_pair_up,
    build_relation,
    check_down_one,
    check_narayana_even_quotient,
    check_pair_up,
    check_relation,
    oracle_down_one,
    oracle_pair_up,
    run_check,
    verify_identity,
)
from interlace.rootfind import zeros_general, zeros_orthogonal
from interlace import families, relations

from float_reference import sign_at_zeros


class TestBuildRelation:
    def test_krawtchouk_transcription(self):
        rel = build_relation("krawtchouk", 2, {"p": F(1, 2), "N": 4})
        assert verify_identity(rel)
        assert rel.A == Polynomial([F(9, 4)])  # p(1-p)(n+1)(N+1-n)
        assert rel.B == Polynomial([5, -1])
        assert rel.E == F(7, 2)
        assert rel.shape == PAIR_UP

    def test_laguerre_transcription(self):
        rel = build_relation("laguerre", 1, {"alpha": 0})
        assert verify_identity(rel)
        # the scalar multiplier is (n+1)(n+alpha+1) = 4 here; hand expansion
        # of the right side gives 4x - 4 = 4 * (x - 1)
        assert rel.A == Polynomial([4])
        rhs = rel.B * rel.G + (rel.H * rel.Q).scale(rel.sign)
        assert rhs == Polynomial([-4, 4])

    def test_meixner_transcription(self):
        rel = build_relation("meixner", 3, {"t": 2, "w": F(1, 3)})
        assert verify_identity(rel)
        assert rel.E == -2 + F(1, 3) * 4 / F(2, 3)

    def test_narayana_christoffel_small(self):
        # (5/2) * perturbed = (7/2) * reduced_3 - (x - 1) * reduced_2 at n = 3
        rel = build_relation("narayana-christoffel", 3, {})
        assert rel.A == Polynomial([F(5, 2)])
        assert rel.B == Polynomial([F(7, 2)])
        assert verify_identity(rel)

    def test_unknown_pair(self):
        with pytest.raises(InvalidParameterError):
            build_relation("nope", 3, {})

    def test_wrong_parameters(self):
        with pytest.raises(InvalidParameterError):
            build_relation("laguerre", 3, {"p": F(1, 2)})

    def test_krawtchouk_degree_room(self):
        with pytest.raises(InvalidParameterError, match="n \\+ 1 <= N"):
            build_relation("krawtchouk", 4, {"p": F(1, 2), "N": 4})

    def test_jacobi_beta_needs_positive_beta(self):
        with pytest.raises(InvalidParameterError, match="beta > 0"):
            build_relation("jacobi-beta", 3, {"alpha": 0, "beta": 0})

    @pytest.mark.parametrize(
        "pair_id, params",
        [
            ("laguerre", {"alpha": 0.1}),
            ("krawtchouk", {"p": F(1, 2), "N": 8.0}),
            ("jacobi-shift", {"alpha": F(1, 2), "beta": 0.5}),
        ],
    )
    def test_float_parameters_refused(self, pair_id, params):
        # a binary float is never read as the rational it approximates,
        # the same rule the family constructors apply
        with pytest.raises(InvalidParameterError, match="exact rationals, got float"):
            build_relation(pair_id, 3, params)

    @pytest.mark.parametrize("pair_id", ["jacobi-beta", "jacobi-shift"])
    def test_member_parameters_checked_before_scalars(self, pair_id):
        # alpha + beta = -4 puts a zero in the denominators of A, B or E at
        # n = 1; the invalid member must be named before any of them is formed.
        with pytest.raises(InvalidParameterError, match="alpha > -1"):
            build_relation(pair_id, 1, {"alpha": -5, "beta": 1})


class TestVerifyIdentity:
    def test_perturbation_breaks_identity(self):
        rel = build_relation("meixner", 3, {"t": 2, "w": F(1, 3)})
        assert verify_identity(rel)
        bumped = list(rel.P.coeffs)
        bumped[0] += F(1, 10**6)
        rel.P = Polynomial(bumped)
        assert not verify_identity(rel)

    @pytest.mark.parametrize(
        "pair,n,params",
        [
            ("krawtchouk", 5, {"p": F(3, 4), "N": 8}),
            ("meixner", 5, {"t": F(1, 2), "w": F(3, 4)}),
            ("laguerre", 5, {"alpha": F(5, 2)}),
            ("jacobi-shift", 5, {"alpha": F(-1, 2), "beta": F(14)}),
            ("jacobi-beta", 5, {"alpha": F(-1, 2), "beta": F(5, 2)}),
            ("jacobi-shift", 7, {"alpha": F(14), "beta": F(2)}),  # Table 2, block 2
            ("narayana-christoffel", 7, {}),
            ("narayana-perturbed", 7, {}),
        ],
    )
    def test_sample_points_exact(self, pair, n, params):
        assert verify_identity(build_relation(pair, n, params))

    def test_report_describes_reassigned_polynomial(self):
        rel = build_relation("meixner", 3, {"t": 2, "w": F(1, 3)})
        bumped = list(rel.P.coeffs)
        bumped[0] += F(1, 10**6)
        rel.P = Polynomial(bumped)
        report = check_relation(rel)
        assert not report.identity_ok
        assert not report.passed


class TestCertifiedOnce:
    """Each check runs the exact identity test once, at build time or in the report."""

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
        assert calls == []
        report = check_pair_up(rel)
        assert report.identity_ok
        assert calls == ["oracle-pair-up"]


class TestPairUpChecker:
    def test_laguerre_low_orientation(self):
        rel = build_relation("laguerre", 4, {"alpha": 0})
        report = check_pair_up(rel)
        assert report.passed
        assert report.premise_kind == "q_below_g"
        assert set(report.clauses.values()) == {"pass"}

    def test_krawtchouk_high_orientation(self):
        rel = build_relation("krawtchouk", 3, {"p": F(1, 2), "N": 6})
        report = check_pair_up(rel)
        assert report.passed
        assert report.premise_kind == "g_below_q"
        assert set(report.clauses.values()) == {"pass"}

    def test_degree_zero_member(self):
        rel = build_relation("laguerre", 0, {"alpha": F(-1, 2)})
        report = check_pair_up(rel)
        assert report.passed

    def test_wrong_shape_rejected(self):
        rel = build_relation("jacobi-shift", 3, {"alpha": 0, "beta": 1})
        with pytest.raises(InvalidParameterError):
            check_pair_up(rel)


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
        report = check_narayana_even_quotient(n)
        assert report.identity_ok
        assert report.clauses["common_zero_at_minus_one"] == "pass"
        assert report.clauses["quotient_interlace"] == "pass"
        assert report.passed

    def test_run_check_dispatches_even(self):
        report = run_check("narayana-3.4", 4, {})
        assert report.premise_kind == "even-quotient"
        assert report.passed


class TestOracles:
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("orientation", ["q_below_g", "g_below_q"])
    def test_pair_up_passes(self, n, orientation):
        for seed in range(15):
            rel = oracle_pair_up(n, seed, orientation=orientation)
            assert verify_identity(rel)
            report = check_pair_up(rel)
            assert report.passed, (n, seed, report.to_json())
            assert report.premise_kind == orientation

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_down_one_passes(self, n):
        for seed in range(15):
            rel = oracle_down_one(n, seed)
            assert verify_identity(rel)
            report = check_down_one(rel)
            assert report.passed, (n, seed, report.to_json())

    def test_down_one_region_control(self):
        for seed in range(15):
            above = check_down_one(oracle_down_one(5, seed, e_region="above"))
            assert above.clauses["full_when_e_above"] == "pass"
            below = check_down_one(oracle_down_one(5, seed, e_region="below"))
            assert below.clauses["full_when_e_below"] == "pass"
            interior = check_down_one(oracle_down_one(5, seed, e_region="interior"))
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
                report = check_pair_up(rel)
                assert not report.hypotheses["a_positive"]
                assert report.clauses["e_position"] == "fail"
                assert not report.passed

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
        report_one = check_pair_up(first)
        second = self._assemble(
            assemble_pair_up,
            self._transform(g_zeros, a, b),
            self._transform(q_zeros, a, b),
            a * e + b,
        )
        assert second is not None and verify_identity(second)
        report_two = check_pair_up(second)
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
        report_one = check_down_one(first)
        report_two = check_down_one(second)
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

    def test_csv_rows(self):
        report = run_check("laguerre-3.7", 4, {"alpha": 0})
        rows = report.csv_rows({"check": "laguerre-3.7", "n": 4})
        clause_names = {row["clause"] for row in rows}
        assert {"identity", "hypotheses", "premise", "added_point"} <= clause_names
        assert all(row["result"] in ("pass", "fail", "skipped") for row in rows)

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
        rows = [row["clause"] for row in run_check(check_id, n, params).csv_rows()]
        assert rows[:3] == list(relations.REPORT_ROWS)
        assert _is_subsequence(rows, relations.clause_names(check_id)), rows

    def test_build_row_ends_every_list(self):
        for check_id in relations.CHECK_IDS:
            assert relations.clause_names(check_id)[-1] == relations.BUILD_ROW
