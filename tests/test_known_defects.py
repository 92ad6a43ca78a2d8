"""Open defects, pinned as strict expected failures, and the mended ones.

Each test asserts the outcome the exact verdict engine and the certified zero
sets are meant to give, and names the failure seen today with ``raises=``.
``xfail_strict`` is on (``pyproject.toml``), so a fix that leaves its marker
in place fails the suite: drop the marker with the fix, and keep the test.

A, B and C were float verdicts held to the 1e-9 floor on the orthogonal
named checks; those checks are now decided along G's recurrence chain, on
integers, with no zero set solved.  D was a failed companion eigensolve in
the Narayana checks, which are now decided along the chain of P^(1,1).
"""

from fractions import Fraction as F

import pytest

from interlace.cli import main
from interlace.families import ORTHOGONAL_KINDS
from interlace.relations import CHECKS, SKIPPED, CheckReport, run_check

import float_reference as ref

MEIXNER = {"t": F(1), "w": F(1, 2)}


def test_a_krawtchouk_premise_holds_at_n_27():
    # Mended: the smallest Q/G float gap was 8.55e-10, under the floor, and
    # the premise was reported FAILED.
    report = run_check("krawtchouk-3.1", 27, {"p": F(1, 3), "N": F(30)})
    assert report.premise_kind is not None
    assert report.passed


@pytest.mark.parametrize("n, p", [(56, F(1, 3)), (59, F(2, 3))])
def test_a_krawtchouk_premise_holds_at_n_81(n, p):
    report = run_check("krawtchouk-3.1", n, {"p": p, "N": F(81)})
    assert report.premise_kind == "g_below_q"
    assert report.hypotheses_ok and report.passed
    assert SKIPPED not in report.clauses.values()


def test_b_meixner_has_no_common_zero_at_n_40():
    # Mended: a float G/P gap under the floor set no_common_zeros_g_p=NO and
    # every clause was skipped (a vacuous PASS).
    report = run_check("meixner-3.2", 40, MEIXNER)
    assert report.hypotheses["no_common_zeros_g_p"]
    assert report.clauses and SKIPPED not in report.clauses.values()


@pytest.mark.parametrize(
    "check_id, n, params",
    [
        ("meixner-3.2", 100, MEIXNER),
        ("meixner-3.2", 200, MEIXNER),
        ("krawtchouk-3.1", 200, {"p": F(1, 3), "N": F(300)}),
    ],
)
def test_b_no_common_zero_at_high_degree(check_id, n, params):
    report = run_check(check_id, n, params)
    assert report.hypotheses_ok and report.passed
    assert report.clauses and SKIPPED not in report.clauses.values()


def test_c_meixner_degenerate_point_has_no_premise_note_at_n_61():
    # Mended: E is exactly a common zero of G and P, but Q and G do
    # alternate; the report used to note a failed premise.
    report = run_check("meixner-3.2", 61, MEIXNER)
    assert not any(note.startswith("premise failed") for note in report.notes)


def test_c_meixner_premise_holds_at_its_degenerate_point_n_60():
    report = run_check("meixner-3.2", 60, {"t": F(2), "w": F(1, 2)})
    assert report.premise_kind == "q_below_g"
    assert not report.hypotheses["e_not_on_g_zero"]
    assert not any(note.startswith("premise failed") for note in report.notes)


@pytest.mark.parametrize(
    "t, n", [(F(2), 40), (F(1), 61), (F(1), 99), (F(1), 101)], ids=["2-40", "1-61", "1-99", "1-101"]
)
def test_degenerate_controls_stay_degenerate(t, n):
    # E is exactly a zero of G and P here: the point stays out of scope.
    report = run_check("meixner-3.2", n, {"t": t, "w": F(1, 2)})
    assert not report.hypotheses["e_not_on_g_zero"]
    assert report.passed and not report.hypotheses_ok
    assert not any(note.startswith("premise failed") for note in report.notes)
    rows = dict(report.row_results())
    assert rows["hypotheses"] == "degenerate"


def test_d_narayana_check_at_n_60_returns_a_report():
    # Mended: from n = 51 the companion eigensolve of G (narayana-reduced)
    # returned a complex pair and the check raised RootComputationError.
    assert isinstance(run_check("narayana-3.3", 60), CheckReport)


def test_e_oracle_sweep_at_n_47_has_no_error_row(capsys):
    # Mended: the oracle is decided on its drawn zeros, and P's zeros are
    # never solved.
    code = main(["sweep", "--oracle", "pair-up", "--n", "47", "--seeds", "2", "--workers", "1"])
    out = capsys.readouterr().out
    assert ",error" not in out
    assert code == 0


#: one parameter set per check id whose G is an orthogonal family's member
ORTHOGONAL_POINTS = {
    "krawtchouk-3.1": {"p": F(1, 3), "N": F(12)},
    "meixner-3.2": MEIXNER,
    "jacobi-3.5": {"alpha": F(2), "beta": F(14)},
    "jacobi-3.6": {"alpha": F(2), "beta": F(14)},
    "laguerre-3.7": {"alpha": F(0)},
}


def test_orthogonal_checks_read_no_float_zero_set(monkeypatch, capsys, tmp_path):
    assert sorted(ORTHOGONAL_POINTS) == sorted(
        check_id for check_id, entry in CHECKS.items() if entry.family in ORTHOGONAL_KINDS
    )
    ref.refuse_zero_sets(monkeypatch)
    for check_id, params in ORTHOGONAL_POINTS.items():
        for n in (1, 8, 11):
            assert run_check(check_id, n, params).passed
        spec = tmp_path / f"{check_id}.json"
        columns = ", ".join(f'"{k}": ["{v}"]' for k, v in params.items())
        spec.write_text(f'{{"check": "{check_id}", "n": "1..11", "params": {{{columns}}}}}')
        assert main(["sweep", str(spec), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert ",error" not in out and ",fail" not in out


#: the ladder's parameters of every check id (``perfbench/workloads.py``, seed 0)
LADDER_POINTS = {
    **ORTHOGONAL_POINTS,
    "jacobi-3.5": {"alpha": F(2), "beta": F(14)},
    "laguerre-3.7": {"alpha": F(0)},
    "narayana-3.3": {},
    "narayana-3.4": {},
}


def test_no_named_check_reads_a_float_zero_set(monkeypatch):
    # The Narayana checks are decided along the chain of P^(1,1), so no
    # named check solves a zero set, at any degree.
    assert sorted(LADDER_POINTS) == sorted(CHECKS)
    ref.refuse_zero_sets(monkeypatch)
    for check_id, params in LADDER_POINTS.items():
        for n in (8, 20, 40, 60):
            if check_id == "krawtchouk-3.1":
                params = {"p": F(1, 3), "N": F(n + 3)}
            assert run_check(check_id, n, params).passed, (check_id, n)
