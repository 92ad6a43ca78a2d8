"""Open defects, pinned as strict expected failures, and the mended ones.

Each test asserts the outcome the exact verdict engine and the certified zero
sets are meant to give, and names the failure seen today with ``raises=``.
``xfail_strict`` is on (``pyproject.toml``), so a fix that leaves its marker
in place fails the suite: drop the marker with the fix, and keep the test.
"""

from fractions import Fraction as F

import pytest

from interlace.cli import main
from interlace.relations import SKIPPED, CheckReport, run_check
from interlace.rootfind import RootComputationError

MEIXNER = {"t": F(1), "w": F(1, 2)}


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="defect A: the smallest Q/G float gap is 8.55e-10, under the 1e-9 floor, "
    "so the premise is reported FAILED and the check FAILs",
)
def test_a_krawtchouk_premise_holds_at_n_27():
    report = run_check("krawtchouk-3.1", 27, {"p": F(1, 3), "N": F(30)})
    assert report.premise_kind is not None
    assert report.passed


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="defect B: a float G/P gap under the floor sets no_common_zeros_g_p=NO "
    "and every clause is skipped (a vacuous PASS)",
)
def test_b_meixner_has_no_common_zero_at_n_40():
    report = run_check("meixner-3.2", 40, MEIXNER)
    assert report.hypotheses["no_common_zeros_g_p"]
    assert report.clauses and SKIPPED not in report.clauses.values()


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="defect C: E is exactly a common zero of G and P, but Q and G do "
    "alternate; the report still notes a failed premise",
)
def test_c_meixner_degenerate_point_has_no_premise_note_at_n_61():
    report = run_check("meixner-3.2", 61, MEIXNER)
    assert not any(note.startswith("premise failed") for note in report.notes)


@pytest.mark.xfail(
    raises=RootComputationError,
    strict=True,
    reason="defect D: the companion eigensolve of the Narayana P at n >= 51 "
    "returns a complex pair",
)
def test_d_narayana_check_at_n_60_returns_a_report():
    assert isinstance(run_check("narayana-3.3", 60), CheckReport)


def test_e_oracle_sweep_at_n_47_has_no_error_row(capsys):
    # Mended: the oracle is decided on its drawn zeros, and P's zeros are
    # never solved.
    code = main(["sweep", "--oracle", "pair-up", "--n", "47", "--seeds", "2", "--workers", "1"])
    out = capsys.readouterr().out
    assert ",error" not in out
    assert code == 0
