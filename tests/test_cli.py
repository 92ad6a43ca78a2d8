"""Command line behavior: outputs, exit codes, determinism, the fixed floor."""

import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from itertools import starmap
from pathlib import Path

import pytest

import interlace

from interlace import cli, families, relations
from interlace.cli import build_parser, main, parse_fraction, table2_data
from interlace.families import InvalidParameterError
from interlace.rootfind import RootComputationError

from fractions import Fraction as F


def _raising_past_50(monkeypatch, phase):
    """Make every sweep point past n = 50 raise in one phase of its run,
    ``relations.build_relation`` or ``relations.decide``, as Narayana points
    did while the check solved their zero sets on the companion path."""
    real = getattr(relations, phase)

    def raising(*args):
        n = args[0].params["n"] if phase == "decide" else args[1]
        if n > 50:
            raise RootComputationError(f"companion eigenvalue at n={n} is not real")
        return real(*args)

    monkeypatch.setattr(relations, phase, raising)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """Exit code, stdout and stderr of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _interrupt():
    raise KeyboardInterrupt("stop")


def _exit_in_child(func, how):
    """``func``, except that in a forked child it ends the process by ``how``
    (an exit code, or a callable that ends the process or raises)."""
    parent = os.getpid()

    def point(*args, **kwargs):
        if os.getpid() != parent:
            if callable(how):
                how()
            os._exit(how)
        return func(*args, **kwargs)

    return point


class TestParseFraction:
    def test_slash_form(self):
        assert parse_fraction("1/2") == F(1, 2)

    def test_decimal_is_exact(self):
        assert parse_fraction("0.4") == F(2, 5)

    def test_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_fraction("one half")


class TestPolyCommand:
    def test_reduced_family(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "narayana-reduced", "--n", "3")
        assert code == 0
        assert json.loads(out) == {"mode": "rational", "coeffs": ["1", "3", "1"]}

    def test_laguerre(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "laguerre", "--alpha", "0", "--n", "1"
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == ["-1", "1"]

    def test_constraint_violation_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "poly", "--family", "krawtchouk", "--p", "1/2", "--N", "4", "--n", "5"
        )
        assert code == 2
        assert "n <= N" in err

    def test_missing_parameter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "poly", "--family", "laguerre", "--n", "1")
        assert code == 2
        assert "--alpha" in err

    def test_float_demotion(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "laguerre", "--alpha", "0", "--n", "1", "--float"
        )
        assert json.loads(out) == {"mode": "float", "coeffs": [-1.0, 1.0]}

    def test_float_overflow_exits_two(self, capsys):
        # The constant term of the monic Laguerre member at n = 200 is 200!,
        # beyond the largest double; it left the CLI as an OverflowError.
        argv = ("poly", "--family", "laguerre", "--alpha", "0", "--n", "200")
        code, out, err = run_cli(capsys, *argv, "--float")
        assert (code, out) == (2, "")
        assert err == "error: poly --float: the coefficient of x^0 does not fit in a double\n"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["coeffs"][0] == str(math.factorial(200))


class TestZerosCommand:
    def test_table_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--family", "jacobi", "--alpha", "2", "--beta", "14", "--n", "6"
        )
        assert code == 0
        payload = json.loads(out)
        want = [-0.203565, 0.101387, 0.369625, 0.59992, 0.785274, 0.918787]
        assert payload["method"] == "JacobiMatrix"
        for got, expect in zip(payload["zeros"], want):
            assert abs(got - expect) <= 1e-5

    def test_reduced_member(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--family", "narayana-reduced", "--n", "2")
        assert code == 0
        assert json.loads(out)["zeros"] == [-1.0]

    def test_zero_at_the_origin_prints_without_a_sign(self, capsys):
        # x R_1 = x: R_1 has no zero, and x R_n's zero 0 is appended to the
        # mapped zeros of R_n
        code, out, _ = run_cli(capsys, "zeros", "--family", "narayana", "--n", "1")
        assert code == 0
        assert out == '{"zeros": [0.0], "bound": 0.0, "method": "MappedJacobiMatrix"}\n'
        assert math.copysign(1.0, json.loads(out)["zeros"][0]) == 1.0
        code, out, _ = run_cli(capsys, "zeros", "--family", "narayana", "--n", "1", "--plot-data")
        assert (code, out) == (0, "x,family\n0.0,narayana;n=1\n")

    def test_plot_data(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "zeros", "--family", "laguerre", "--alpha", "0", "--n", "2", "--plot-data",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,family"
        assert len(lines) == 3
        assert lines[1].endswith("laguerre;alpha=0;n=2")

    def test_byte_determinism(self, capsys):
        args = ("zeros", "--family", "jacobi", "--alpha", "15", "--beta", "3", "--n", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_failed_zero_computation_exits_three(self, capsys, monkeypatch):
        # An internal error, which must not share exit 1 with a clause failure
        def fail(term):
            raise RootComputationError("companion eigenvalue 1j is not real")

        monkeypatch.setattr(cli, "zero_set", fail)
        code, out, err = run_cli(capsys, "zeros", "--family", "narayana-reduced", "--n", "5")
        assert (code, out) == (3, "")
        assert err == "error: zeros: companion eigenvalue 1j is not real\n"

    def test_coefficient_beyond_a_double_exits_two(self, capsys):
        # the Christoffel variant stays on the companion path, which needs
        # every coefficient as a double; the reduced member is solved on the
        # Jacobi matrix of P^(1,1) and reads no coefficient
        code, out, err = run_cli(capsys, "zeros", "--family", "narayana-christoffel", "--n", "600")
        assert (code, out) == (2, "")
        assert err == "error: zeros: the coefficient of x^174 does not fit in a double\n"

    @pytest.mark.parametrize("digits", ["0", "-1"])
    def test_digits_below_one_exits_two(self, capsys, digits):
        # -1 exited 2 with "Format specifier missing precision"; 0 printed one digit
        code, out, err = run_cli(
            capsys, "zeros", "--family", "laguerre", "--alpha", "0", "--n", "4", "--digits", digits
        )
        assert (code, out, err) == (2, "", f"error: --digits must be >= 1 (got {digits})\n")

    def test_one_digit_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--family", "laguerre", "--alpha", "0", "--n", "2", "--digits", "1"
        )
        assert code == 0
        assert json.loads(out)["zeros"] == [0.6, 3.0]


class TestCheckCommand:
    def test_jacobi_shift_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "jacobi-3.6", "--n", "6", "--alpha", "2", "--beta", "14"
        )
        assert code == 0
        assert "E = -2/5" in out
        assert "result: PASS" in out

    def test_laguerre_reports_extreme_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "laguerre-3.7", "--n", "4", "--alpha", "0")
        assert code == 0
        assert "E = 5" in out
        assert "extreme zero of G above E" in out

    def test_narayana_even_branch(self, capsys):
        code, out, _ = run_cli(capsys, "check", "narayana-3.4", "--n", "4")
        assert code == 0
        assert "quotient_interlace: PASS" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "meixner-3.2", "--n", "3", "--t", "2", "--w", "1/3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["clauses"]["added_point"] == "pass"

    def test_invalid_input_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "krawtchouk-3.1", "--n", "9", "--p", "1/2", "--N", "6")
        assert code == 2
        assert "n + 1 <= N" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("jacobi-3.5", "--n", "0", "--alpha", "2", "--beta", "14"),
            ("jacobi-3.6", "--n", "0", "--alpha", "2", "--beta", "14"),
            ("narayana-3.3", "--n", "1"),
            ("narayana-3.4", "--n", "1"),
            ("krawtchouk-3.1", "--n", "5", "--p", "1/3", "--N", "5"),
            ("jacobi-3.5", "--n", "3", "--alpha", "2", "--beta", "0"),
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_refusal_names_the_check_id(self, capsys, argv):
        # these messages once named the relation's internal table key
        # ("jacobi-shift relation needs n >= 1"), which no user types
        code, out, err = run_cli(capsys, "check", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {argv[0]} needs ") and err.count("\n") == 1

    def test_floor_env_ignored(self, capsys, monkeypatch):
        # the separation floor is fixed: a floor of 1 from the environment
        # once made the premise inconclusive and printed "premise: FAILED"
        argv = ("check", "laguerre-3.7", "--n", "4", "--alpha", "0")
        monkeypatch.delenv("INTERLACE_FLOOR", raising=False)
        plain = run_cli(capsys, *argv)
        monkeypatch.setenv("INTERLACE_FLOOR", "1.0")
        assert run_cli(capsys, *argv) == plain
        assert plain[0] == 0 and "premise: q_below_g" in plain[1]

    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf", "-1", "-1e-12", "1e-9"])
    def test_unusable_floor_flag_exits_two(self, capsys, floor):
        # the separation floor is fixed: --floor is no option, in either
        # form, even with the fixed floor's own value
        check = ("check", "jacobi-3.6", "--n", "8", "--alpha", "2", "--beta", "14")
        for flag in ([f"--floor={floor}"], ["--floor", floor]):
            code, out, err = run_refused(capsys, *check, *flag)
            assert code == 2 and out == ""
            assert f"error: unrecognized arguments: {' '.join(flag)}" in err

    def test_check_past_the_double_range_is_decided_exactly(self, capsys):
        # the coefficient of x^210 of the degree-540 reduced Narayana member
        # is beyond the largest double, which exited 2 while the check solved
        # float zero sets; along the chain of P^(1,1) it reads none
        code, out, err = run_cli(capsys, "check", "narayana-3.4", "--n", "541", "--json")
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert report["passed"] and report["premise_kind"] == "g_then_q"
        assert report["e_position"] == "interior(270)"

    # at t = 1e400, E is about -t: the check is decided exactly, but E is
    # past the largest double, and its float once ended both forms of the
    # report in an OverflowError traceback
    HUGE_E = ("check", "meixner-3.2", "--n", "1", "--t", "1e400", "--w", "1/2")

    def test_e_past_the_double_range_prints_a_note(self, capsys):
        code, out, err = run_cli(capsys, *self.HUGE_E)
        assert (code, err) == (0, "")
        (line,) = [line for line in out.splitlines() if line.startswith("E = ")]
        value, note = line[len("E = "):].split(" ", 1)
        assert note == "(outside the double range)"
        assert -F(10) ** 401 < F(value) < -F(10) ** 399
        assert out.endswith("result: PASS\n")

    def test_e_past_the_double_range_is_null_in_json(self, capsys):
        code, out, err = run_cli(capsys, *self.HUGE_E, "--json")
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert -F(10) ** 401 < F(report["E"]) < -F(10) ** 399
        assert report["E_float"] is None and report["passed"] is True


class TestUnusedParameterFlags:
    """A parameter flag the check or family does not take was silently dropped."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["check", "laguerre-3.7", "--n", "3", "--alpha", "0", "--beta", "7", "--p", "1/3"],
                "error: check laguerre-3.7 does not take --beta, --p\n",
            ),
            (
                ["check", "narayana-3.3", "--n", "3", "--alpha", "2"],
                "error: check narayana-3.3 does not take --alpha\n",
            ),
            (
                ["poly", "--family", "laguerre", "--n", "2", "--alpha", "0", "--t", "5"],
                "error: laguerre does not take --t\n",
            ),
            (
                ["zeros", "--family", "jacobi", "--n", "3", "--alpha", "0", "--beta", "1", "--N", "4"],
                "error: jacobi does not take --N\n",
            ),
        ],
        ids=["check-laguerre", "check-narayana", "poly", "zeros"],
    )
    def test_refused_with_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", message)


class TestTable2Command:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "block", "n", "alpha", "beta", "E", "k", "x", "z",
            "left_occupied", "right_occupied",
        ]
        assert len(lines) == 1 + 6 + 7
        first = dict(zip(header, lines[1].split(",")))
        assert first["E"] == "-2/5"
        assert abs(float(first["x"]) - (-0.203565)) <= 1e-5
        assert first["left_occupied"] == "true" and first["right_occupied"] == "false"
        last = dict(zip(header, lines[-1].split(",")))
        assert last["E"] == "3/8"
        assert abs(float(last["z"]) - 0.300166) <= 1e-5
        assert last["left_occupied"] == "false" and last["right_occupied"] == "true"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table2", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("block,")

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "table2", "--output", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --output {target}: No such file or directory\n"

    @pytest.mark.parametrize("digits", ["0", "-1"])
    def test_digits_below_one_exits_two_before_writing(self, capsys, tmp_path, digits):
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, "table2", "--digits", digits, "--output", str(target))
        assert (code, out, err) == (2, "", f"error: --digits must be >= 1 (got {digits})\n")
        assert not target.exists()

    def test_data_helper(self):
        blocks = table2_data()
        assert blocks[0]["left_occupied"] and not blocks[0]["right_occupied"]
        assert not blocks[1]["left_occupied"] and blocks[1]["right_occupied"]


#: one or two parameter sets of every check, each valid at n = 2..5
SWEEP_PARAMS = {
    "jacobi-3.5": {"alpha": ["2", "-1/2"], "beta": ["14"]},
    "jacobi-3.6": {"alpha": ["2"], "beta": ["14", "-1/3"]},
    "krawtchouk-3.1": {"p": ["1/3", "2/3"], "N": ["9"]},
    "laguerre-3.7": {"alpha": ["0", "5/2"]},
    "meixner-3.2": {"t": ["1"], "w": ["1/2"]},
    "narayana-3.3": {},
    "narayana-3.4": {},
}


class TestSweepCommand:
    def test_grid_sweep(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "check": "krawtchouk-3.1",
                    "n": [1, 3],
                    "params": {"p": ["1/4", "3/4"], "N": [5]},
                }
            )
        )
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,n,p,N,clause,result"
        allowed = (",pass", ",skipped", ",degenerate")
        assert all(line.endswith(allowed) for line in lines[1:])
        assert "0 fail" in err

    def test_clause_filter_keeps_the_named_rows(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {"check": "narayana-3.4", "n": "2..5", "clauses": ["premise", "quotient_interlace"]}
            )
        )
        code, out, err = run_cli(capsys, "sweep", str(spec), "--workers", "1")
        assert code == 0
        # odd n takes the shape checker, which has no quotient_interlace clause
        assert out.splitlines() == [
            "check,n,clause,result",
            "narayana-3.4,2,premise,pass",
            "narayana-3.4,2,quotient_interlace,pass",
            "narayana-3.4,3,premise,pass",
            "narayana-3.4,4,premise,pass",
            "narayana-3.4,4,quotient_interlace,pass",
            "narayana-3.4,5,premise,pass",
        ]
        assert err == "sweep: 6 pass, 0 fail, 0 error, 6 rows\n"

    def test_clause_filter_that_keeps_no_row_prints_the_header(self, capsys, tmp_path):
        # No point of this grid fails to build, so no build row is kept.
        # The header was taken from the kept rows, and a bare line ending
        # was printed.
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "check": "jacobi-3.6",
                    "n": "1..3",
                    "params": {"alpha": [2], "beta": [14]},
                    "clauses": ["build"],
                }
            )
        )
        code, out, err = run_cli(capsys, "sweep", str(spec), "--workers", "1")
        assert (code, out) == (0, "check,n,alpha,beta,clause,result\r\n")
        assert err == "sweep: 0 pass, 0 fail, 0 error, 0 rows\n"

    def test_grid_point_errors_recorded_in_row(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "check": "krawtchouk-3.1",
                    "n": [4, 5],
                    "params": {"p": ["1/2"], "N": [5]},
                }
            )
        )
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3  # build errors are recorded, not fatal, and not passes
        assert "error: krawtchouk-3.1 needs n + 1 <= N" in out
        assert "1 error" in err

    @pytest.mark.parametrize("ns", [[1, 5], [5]], ids=["first-point-raises", "every-point-builds"])
    def test_header_follows_the_checks_parameter_order(self, capsys, tmp_path, ns):
        # The header came from the first row, and an error row listed the
        # parameters sorted by name: with N = 1 first it read check,n,N,p.
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps({"check": "krawtchouk-3.1", "n": "1..2", "params": {"p": ["1/3"], "N": ns}})
        )
        code, out, _ = run_cli(capsys, "sweep", str(spec), "--workers", "1")
        assert out.splitlines()[0] == "check,n,p,N,clause,result"
        assert code == (3 if 1 in ns else 0)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("check_id", sorted(SWEEP_PARAMS))
    def test_rows_are_each_points_report_rows(self, capsys, tmp_path, check_id, workers):
        spec = {"check": check_id, "n": "2..5", "params": SWEEP_PARAMS[check_id]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "sweep", str(path), "--workers", workers)
        want = [
            row
            for n, params in cli._sweep_grid(spec)
            for row in relations.run_check(check_id, n, params).csv_rows({"check": check_id, "n": n})
        ]
        got = list(csv.DictReader(io.StringIO(out)))
        assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
        assert code == 0

    @pytest.mark.parametrize("kind", ["grid-with-errors-and-filter", "oracle"])
    def test_summary_identical_across_worker_counts(self, capsys, tmp_path, kind):
        if kind == "oracle":
            argv = ["--oracle", "down-one", "--n", "1..4", "--seeds", "3"]
        else:
            # N = 2 builds at n = 1 only: the other points give build rows,
            # which the filter keeps.
            spec = tmp_path / "sweep.json"
            spec.write_text(
                json.dumps(
                    {
                        "check": "krawtchouk-3.1",
                        "n": "1..3",
                        "params": {"p": ["1/3", "2/3"], "N": [2, 5]},
                        "clauses": ["premise", "added_point"],
                    }
                )
            )
            argv = [str(spec)]
        runs = [run_cli(capsys, "sweep", *argv, "--workers", w) for w in ("1", "2", "3")]
        assert [err for _, _, err in runs] == [runs[0][2]] * 3
        results = [row["result"] for row in csv.DictReader(io.StringIO(runs[0][1]))]
        errors = sum(result.startswith("error") for result in results)
        assert runs[0][2] == (
            f"sweep: {results.count('pass')} pass, {results.count('fail')} fail, "
            f"{errors} error, {len(results)} rows\n"
        )
        assert (errors > 0) == (kind != "oracle")

    @pytest.mark.parametrize("oracle", [False, True])
    def test_unusable_floor_exits_two(self, capsys, monkeypatch, tmp_path, oracle):
        # the separation floor is fixed: --floor is no option and
        # INTERLACE_FLOOR is not read
        if oracle:
            argv = ["sweep", "--oracle", "pair-up", "--n", "1..2", "--seeds", "2"]
        else:
            spec = tmp_path / "sweep.json"
            spec.write_text(
                json.dumps({"check": "laguerre-3.7", "n": "2", "params": {"alpha": [0]}})
            )
            argv = ["sweep", str(spec), "--workers", "1"]
        monkeypatch.delenv("INTERLACE_FLOOR", raising=False)
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        for flag in (["--floor=nan"], ["--floor", "1e-9"]):
            code, out, err = run_refused(capsys, *argv, *flag)
            assert (code, out) == (2, "")
            assert "error: unrecognized arguments: --floor" in err
        monkeypatch.setenv("INTERLACE_FLOOR", "nan")
        assert run_cli(capsys, *argv) == plain

    @pytest.mark.parametrize(
        "check_id, params, message",
        [
            ("laguerre-3.7", {"beta": [1]}, "names beta, but laguerre-3.7 takes alpha"),
            ("laguerre-3.7", None, "names no parameter, but laguerre-3.7 takes alpha"),
            ("narayana-3.3", {"alpha": [1]}, "names alpha, but narayana-3.3 takes no parameter"),
            ("narayana-3.4", {"alpha": [1]}, "names alpha, but narayana-3.4 takes no parameter"),
            ("jacobi-3.6", {"alpha": [1]}, "names alpha, but jacobi-3.6 takes alpha, beta"),
        ],
        ids=["beta-for-alpha", "none-for-alpha", "alpha-for-none", "alpha-for-none-even", "short"],
    )
    def test_wrong_parameter_names_exit_two(self, capsys, tmp_path, check_id, params, message):
        # each point used to fail on its own: an error row per point and
        # exit 3 (narayana-3.4 passed its even points, ignoring the names)
        spec = {"check": check_id, "n": "2..3"}
        if params is not None:
            spec["params"] = params
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "sweep", str(path), "--workers", "1")
        assert (code, out) == (2, "")
        assert err == f"error: sweep spec 'params' {message}\n"

    def test_malformed_spec_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code, _, err = run_cli(capsys, "sweep", str(spec))
        assert code == 2
        assert "sweep spec" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--oracle", "pair-up"], "error: sweep takes a spec file or --oracle, not both\n"),
            (
                ["--n", "5", "--seeds", "3"],
                "error: a spec-file sweep does not take --n, --seeds (oracle degrees and seeds)\n",
            ),
            (
                ["--seeds", "100"],
                "error: a spec-file sweep does not take --seeds (oracle degrees and seeds)\n",
            ),
        ],
        ids=["oracle", "n-and-seeds", "seeds-at-default-value"],
    )
    def test_other_modes_inputs_exit_two(self, capsys, tmp_path, extra, message):
        # The oracle ran and ignored the spec; a spec sweep ignored --n and --seeds.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"check": "laguerre-3.7", "n": [1, 2], "params": {"alpha": [0]}}))
        code, out, err = run_cli(capsys, "sweep", str(path), "--workers", "1", *extra)
        assert (code, out, err) == (2, "", message)

    def test_oracle_seeds_default_to_one_hundred(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--oracle", "down-one", "--n", "2", "--workers", "1")
        assert code == 0
        assert sorted(int(row["seed"]) for row in csv.DictReader(io.StringIO(out))) == list(range(100))

    def test_missing_input_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 2
        assert "spec file or --oracle" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "1..2", "--seeds", "0"], "error: --seeds must be >= 1 (got 0)\n"),
            (["--n", "1..2", "--seeds", "-1"], "error: --seeds must be >= 1 (got -1)\n"),
            (["--n", "3..1"], "error: degree range '3..1' is empty\n"),
            (["--n", "2", "--workers", "0"], "error: --workers must be >= 1 (got 0)\n"),
            (["--n", "2", "--workers", "-3"], "error: --workers must be >= 1 (got -3)\n"),
            (["--n", "x"], "error: degree range must be N or lo..hi with integers (got 'x')\n"),
            (["--n", "1..x"], "error: degree range must be N or lo..hi with integers (got '1..x')\n"),
        ],
    )
    def test_empty_or_malformed_oracle_sweep_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "sweep", "--oracle", "pair-up", *argv)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "oracle, degrees, message",
        [
            # pair-up used up all 64 draws at each n < 0 and printed error rows (exit 3)
            ("pair-up", "--n=-2..0", "error: pair-up oracle needs n >= 0 (got n=-2)\n"),
            ("pair-up", "--n=-1", "error: pair-up oracle needs n >= 0 (got n=-1)\n"),
            ("down-one", "--n=0..2", "error: down-one oracle needs n >= 1 (got n=0)\n"),
        ],
    )
    def test_oracle_degree_below_the_mode_minimum_exits_two(
        self, capsys, monkeypatch, oracle, degrees, message
    ):
        monkeypatch.setattr(cli, "_run_oracle_run", lambda *a, **k: pytest.fail("a point ran"))
        code, out, err = run_cli(
            capsys, "sweep", "--oracle", oracle, degrees, "--seeds", "1", "--workers", "1"
        )
        assert (code, out, err) == (2, "", message)

    def test_pair_up_oracle_sweeps_degree_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--oracle", "pair-up", "--n", "0", "--seeds", "3", "--workers", "1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["result"] for row in rows] == ["pass"] * 3

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n": "3..1", "params": {"alpha": [0]}}, "error: degree range '3..1' is empty\n"),
            ({"n": [3, 1], "params": {"alpha": [0]}}, "error: degree range [3, 1] is empty\n"),
            (
                {"n": "1..3", "params": {"alpha": []}},
                "error: sweep spec parameter 'alpha' lists no values\n",
            ),
            (
                {"n": [3], "params": {"alpha": [0]}},
                "error: degree range must be N or lo..hi with integers (got [3])\n",
            ),
            # A string of clauses was split into characters and a number
            # matched no clause: every row was filtered out and the sweep
            # exited 0.
            (
                {"n": "2", "params": {"alpha": [0]}, "clauses": "premise"},
                "error: sweep spec 'clauses' must be a list of clause names (got 'premise')\n",
            ),
            (
                {"n": "2", "params": {"alpha": [0]}, "clauses": [1]},
                "error: sweep spec 'clauses' must be a list of clause names (got [1])\n",
            ),
            # A misspelt clause matched no row: the sweep checked nothing and
            # exited 0.
            (
                {"n": "2", "params": {"alpha": [0]}, "clauses": ["added_piont", "premise"]},
                "error: sweep spec 'clauses' names 'added_piont', not a clause of laguerre-3.7 "
                "(its clauses: identity, hypotheses, premise, e_position, added_point, "
                "full_iff, build)\n",
            ),
            # int() truncated a fractional bound and read true as 1: these
            # swept n = 1..2 and 1..3.
            (
                {"n": [1.9, 2], "params": {"alpha": [0]}},
                "error: degree range must be N or lo..hi with integers (got [1.9, 2])\n",
            ),
            (
                {"n": [True, 3], "params": {"alpha": [0]}},
                "error: degree range must be N or lo..hi with integers (got [True, 3])\n",
            ),
            (
                {"n": ["1", "3"], "params": {"alpha": [0]}},
                "error: degree range must be N or lo..hi with integers (got ['1', '3'])\n",
            ),
        ],
    )
    def test_empty_or_malformed_grid_sweep_exits_two(self, capsys, tmp_path, spec, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"check": "laguerre-3.7", **spec}))
        code, out, err = run_cli(capsys, "sweep", str(path), "--workers", "1")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "params, message",
        [
            (
                {"beta": [], "alpha": ["0", "1/x"]},
                "error: cannot parse rational '1/x': Invalid literal for Fraction: '1/x'\n",
            ),
            ({"beta": ["1/x"], "alpha": []}, "error: sweep spec parameter 'alpha' lists no values\n"),
        ],
        ids=["bad-alpha-before-empty-beta", "empty-alpha-before-bad-beta"],
    )
    def test_first_fault_in_name_order(self, capsys, tmp_path, params, message):
        # With two faults the first parameter in sorted-name order is named,
        # whatever the spec's key order.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"check": "jacobi-3.6", "n": "2", "params": params}))
        code, out, err = run_cli(capsys, "sweep", str(path), "--workers", "1")
        assert (code, out, err) == (2, "", message)

    def test_grid_points_in_parameter_then_degree_order(self):
        spec = {"n": "1..2", "params": {"beta": ["1", "-1/2"], "alpha": ["3", "0"]}}
        points = [(n, {k: str(v) for k, v in params.items()}) for n, params in cli._sweep_grid(spec)]
        assert points == [
            (n, {"alpha": alpha, "beta": beta})
            for alpha in ("0", "3")
            for beta in ("-1/2", "1")
            for n in (1, 2)
        ]

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"alpha": "14"}, "error: sweep spec parameter 'alpha' must be a list of values (got '14')\n"),
            ({"alpha": 3}, "error: sweep spec parameter 'alpha' must be a list of values (got 3)\n"),
            (["alpha"], "error: sweep spec 'params' must map each parameter to a list of values (got ['alpha'])\n"),
        ],
        ids=["string", "number", "list-of-names"],
    )
    def test_parameter_values_must_be_a_list(self, capsys, tmp_path, params, message):
        # A string was iterated character by character (alpha = 1 and 4);
        # a number or a list of names ended in a TypeError traceback.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"check": "laguerre-3.7", "n": "2", "params": params}))
        code, out, err = run_cli(capsys, "sweep", str(path), "--workers", "1")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("spec", [3, ["check", "n"]], ids=["number", "list"])
    def test_spec_must_be_a_json_object(self, capsys, tmp_path, spec):
        # Anything but an object ended in a TypeError traceback.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "sweep", str(path), "--workers", "1")
        assert (code, out) == (2, "")
        assert err == f"error: sweep spec must be a JSON object (got {spec!r})\n"

    @pytest.mark.parametrize("oracle", [False, True])
    def test_unwritable_output_exits_two_before_the_work(self, capsys, monkeypatch, tmp_path, oracle):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "_run_oracle_run", refuse)
        monkeypatch.setattr(cli, "_run_sweep_run", refuse)
        if oracle:
            argv = ["sweep", "--oracle", "pair-up", "--n", "1..2", "--seeds", "2", "--workers", "1"]
        else:
            spec = tmp_path / "sweep.json"
            spec.write_text(json.dumps({"check": "laguerre-3.7", "n": "2", "params": {"alpha": [0]}}))
            argv = ["sweep", str(spec), "--workers", "1"]
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --output {target}: No such file or directory\n"

    def test_workers_default_is_two(self):
        args = build_parser().parse_args(["sweep", "--oracle", "pair-up"])
        assert args.workers == 2

    def test_oracle_mode(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--oracle", "pair-up", "--n", "1..2", "--seeds", "4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "oracle,n,seed,orientation,result"
        assert len(lines) == 1 + 8
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_oracle_mode_down_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--oracle", "down-one", "--n", "2..3", "--seeds", "3"
        )
        assert code == 0
        assert all(line.endswith(",pass") for line in out.strip().splitlines()[1:])

    def test_sweep_determinism(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {"check": "laguerre-3.7", "n": [1, 3], "params": {"alpha": ["0", "5/2"]}}
            )
        )
        _, first, _ = run_cli(capsys, "sweep", str(spec), "--workers", "4")
        _, second, _ = run_cli(capsys, "sweep", str(spec), "--workers", "1")
        assert first == second

    def test_point_exception_becomes_error_row(self, capsys, tmp_path, monkeypatch):
        # A point that raises, in either phase of its run, must become a row,
        # not end the sweep.
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"check": "narayana-3.3", "n": [50, 52]}))
        for phase in ("build_relation", "decide"):
            with monkeypatch.context() as patch:
                _raising_past_50(patch, phase)
                code, out, err = run_cli(capsys, "sweep", str(spec), "--workers", "1")
            rows = out.strip().splitlines()[1:]
            assert {row.split(",")[1] for row in rows} == {"50", "51", "52"}
            assert any(row.startswith("narayana-3.3,50,identity,") for row in rows)
            errors = [row for row in rows if ",error: " in row]
            assert errors and all(",build,error: RootComputationError: " in row for row in errors)
            assert f"{len(errors)} error" in err
            assert code == 3

    def test_oracle_exception_becomes_error_row(self, capsys, monkeypatch):
        from interlace import cli
        from interlace.relations import DegenerateDrawError

        real = cli.oracle_pair_up

        def flaky(n, seed, *args, **kwargs):
            if seed == 1:
                raise DegenerateDrawError(f"no draw at n={n}, seed={seed}")
            return real(n, seed, *args, **kwargs)

        monkeypatch.setattr(cli, "oracle_pair_up", flaky)
        code, out, err = run_cli(
            capsys, "sweep", "--oracle", "pair-up", "--n", "2", "--seeds", "3"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["result"] for row in rows] == [
            "pass",
            "error: DegenerateDrawError: no draw at n=2, seed=1",
            "pass",
        ]
        assert rows[1]["orientation"] == ""
        assert "1 error" in err
        assert code == 3

    @pytest.mark.parametrize(
        "kind, counts",
        # The grid has 3 points, so 4 and 5 workers ask for more processes than points.
        [
            ("grid", ("1", "2", "3", "4", "5")),
            ("oracle", ("1", "2", "3", "4")),
            ("one-set", ("1", "2", "3")),
        ],
        ids=["grid-with-errors", "oracle", "one-parameter-set"],
    )
    def test_output_identical_across_worker_counts(self, capsys, tmp_path, monkeypatch, kind, counts):
        spec = tmp_path / "sweep.json"
        if kind == "oracle":
            argv = ["--oracle", "pair-up", "--n", "1..6", "--seeds", "5"]
        elif kind == "grid":
            # narayana-3.3 is made to raise RootComputationError at n = 51 and
            # 52, so error rows are built in the workers and must cross the
            # process boundary.
            _raising_past_50(monkeypatch, "build_relation")
            spec.write_text(json.dumps({"check": "narayana-3.3", "n": [50, 52]}))
            argv = [str(spec)]
        else:
            # One parameter set: a cut splits its chain, and every process
            # builds the members its run needs.
            spec.write_text(json.dumps({"check": "laguerre-3.7", "n": "1..40", "params": {"alpha": [0]}}))
            argv = [str(spec)]
        runs = [run_cli(capsys, "sweep", *argv, "--workers", w) for w in counts]
        for run in runs[1:]:
            assert run == runs[0]
        assert runs[0][0] == (3 if kind == "grid" else 0) and runs[0][1].count("\n") > 2

    def test_pooled_sweep_reaps_every_child(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--oracle", "pair-up", "--n", "1..3", "--seeds", "4", "--workers", "3"
        )
        assert code == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
    @pytest.mark.parametrize("dead", [False, True], ids=["clean", "dead-worker"])
    def test_pooled_sweep_leaks_no_descriptor(self, capsys, monkeypatch, dead):
        from interlace import cli

        if dead:
            monkeypatch.setattr(cli, "_run_oracle_run", _exit_in_child(cli._run_oracle_run, 7))
        argv = ["sweep", "--oracle", "pair-up", "--n", "1..3", "--seeds", "4", "--workers", "4"]
        run_cli(capsys, *argv)  # warm up: imports and caches may open descriptors once
        before = len(list(Path("/proc/self/fd").iterdir()))
        code, _, _ = run_cli(capsys, *argv)
        assert code == (3 if dead else 0)
        assert len(list(Path("/proc/self/fd").iterdir())) == before

    @pytest.mark.parametrize(
        "how, message",
        [
            (lambda: os._exit(7), "exited with code 7"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
            (_interrupt, "exited with code 1"),
        ],
        ids=["exit-7", "sigkill", "interrupt"],
    )
    def test_dead_worker_exits_three(self, capsys, monkeypatch, how, message):
        from interlace import cli

        monkeypatch.setattr(cli, "_run_oracle_run", _exit_in_child(cli._run_oracle_run, how))
        code, out, err = run_cli(
            capsys, "sweep", "--oracle", "pair-up", "--n", "1..4", "--seeds", "3", "--workers", "3"
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: sweep worker ") and message in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_truncated_results_are_refused(self, monkeypatch):
        from interlace import cli

        real_dumps = cli.pickle.dumps
        parent = os.getpid()

        def truncating(obj, *args):
            data = real_dumps(obj, *args)
            return data[: len(data) // 2] if os.getpid() != parent else data

        monkeypatch.setattr(cli.pickle, "dumps", truncating)
        with pytest.raises(cli.SweepWorkerError, match="sweep worker 1 sent unreadable results"):
            cli._map_runs(lambda run: list(starmap(pow, run)), [(2, k) for k in range(6)], [1] * 6, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_sweep_emits_no_warnings(self, capsys):
        # Recorded rather than raised: Python 3.12 issues its "fork() in a
        # multi-threaded process" DeprecationWarning after the fork, where an
        # "error" filter does not stop the call, and a ResourceWarning from a
        # finalizer only reaches sys.unraisablehook.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(
                capsys, "sweep", "--oracle", "pair-up", "--n", "1..4", "--seeds", "3", "--workers", "2"
            )
        assert code == 0
        assert [f"{w.category.__name__}: {w.message}" for w in caught] == []

    def test_import_leaves_process_pool_unloaded(self):
        # A fresh interpreter runs a two-worker sweep; had any path to a
        # multiprocessing pool survived, its modules would now be loaded.
        probe = textwrap.dedent(
            """
            import contextlib, io, sys
            from interlace.cli import main
            argv = ["sweep", "--oracle", "pair-up", "--n", "1..3", "--seeds", "3", "--workers", "2"]
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            pools = ("multiprocessing", "concurrent.futures.process")
            print(code, out.getvalue().count("pass"), sorted(m for m in pools if m in sys.modules))
            """
        )
        src = Path(interlace.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=src,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == "0 9 []\n"


class TestStartUp:
    """numpy loads on the first zero-set solve, and nothing else loads it.

    The named checks and the oracle are decided exactly, so a fresh
    interpreter that runs one ends with numpy unloaded; ``zeros`` solves a
    zero set and loads it.  Sweeps run at one worker, so every point runs in
    the probed process.
    """

    PROBE = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from interlace.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(json.loads(sys.argv[1]))
        print(code, "numpy" in sys.modules)
        """
    )

    @staticmethod
    def _probe(argv):
        src = Path(interlace.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", TestStartUp.PROBE, json.dumps(argv)],
            cwd=src,
            capture_output=True,
            text=True,
            check=True,
        )
        return result.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "jacobi-3.6", "--n", "8", "--alpha", "2", "--beta", "14"],
            ["check", "narayana-3.3", "--n", "8"],
            ["sweep", "--oracle", "pair-up", "--n", "1..4", "--seeds", "3", "--workers", "1"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_exact_commands_leave_numpy_unloaded(self, argv):
        assert self._probe(argv) == "0 False\n"

    def test_grid_sweep_leaves_numpy_unloaded(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"check": "laguerre-3.7", "n": "1..6", "params": {"alpha": [0, "1/2"]}}))
        assert self._probe(["sweep", str(spec), "--workers", "1"]) == "0 False\n"

    def test_zeros_loads_numpy(self):
        argv = ["zeros", "--family", "jacobi", "--n", "4", "--alpha", "2", "--beta", "14"]
        assert self._probe(argv) == "0 True\n"

    def test_double_constants_have_numpy_bits(self):
        # every bound, and every line of tests/golden/zeros.txt, is computed
        # from these two
        import numpy as np

        from interlace import rootfind

        assert rootfind._EPS == np.finfo(float).eps and type(rootfind._EPS) is float
        assert rootfind._TINY == np.finfo(float).tiny and type(rootfind._TINY) is float


class TestCutRuns:
    """``cli._cut_runs``: contiguous runs of near-equal weight, none empty."""

    @staticmethod
    def _runs(weights, workers):
        cuts = cli._cut_runs(weights, workers)
        assert cuts[0] == 0 and cuts[-1] == len(weights)
        return [weights[a:b] for a, b in zip(cuts, cuts[1:])], cuts

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize(
        "degrees",
        [
            [1, 100],
            [5],
            list(range(1, 9)) * 5,
            list(range(1, 41)),
            [0] * 6,
            [60, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1, 60],
            [-2, -2, 3],
        ],
        ids=["n-1-100", "one-point", "grid-like", "one-set", "degree-zero", "heavy-first", "heavy-last", "zero-weight"],
    )
    def test_runs(self, degrees, workers):
        weights = [(n + 2) ** 2 for n in degrees]
        runs, cuts = self._runs(weights, workers)
        assert cuts == sorted(cuts)  # contiguous and ordered
        assert len(runs) == min(workers, len(weights))
        assert all(runs)
        total, heaviest = sum(weights), max(weights)
        assert all(sum(run) <= total / len(runs) + heaviest for run in runs)

    def test_equal_weights_split_evenly(self):
        assert cli._cut_runs([1] * 20, 2) == [0, 10, 20]
        assert cli._cut_runs([1] * 9, 3) == [0, 3, 6, 9]

    def test_a_run_holds_whole_parameter_sets(self):
        # Two parameter sets of 8 degrees at 2 workers: each process gets one set.
        spec = {"check": "laguerre-3.7", "n": "1..8", "params": {"alpha": [0, 1]}}
        points = cli._sweep_grid(spec)
        cuts = cli._cut_runs([(n + 2) ** 2 for n, _ in points], 2)
        assert cuts == [0, 8, 16]
        assert {p["alpha"] for _, p in points[:8]} == {0}


class TestChainScope:
    """Each command shares its recurrence chains, and none outlives it."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("check", "jacobi-3.6", "--n", "6", "--alpha", "2", "--beta", "14"), 0),
            (("zeros", "--family", "laguerre", "--alpha", "0", "--n", "4"), 0),
            (("poly", "--family", "jacobi", "--alpha", "-2", "--beta", "0", "--n", "3"), 2),
        ],
    )
    def test_no_chain_held_after_main(self, capsys, monkeypatch, argv, code):
        seen = []
        build = families.monic_by_recurrence

        def watched(spec):
            seen.append(families._CHAINS.get() is not None)
            return build(spec)

        monkeypatch.setattr(families, "monic_by_recurrence", watched)
        monkeypatch.setattr(relations, "monic_by_recurrence", watched)
        assert families._CHAINS.get() is None
        assert run_cli(capsys, *argv)[0] == code
        assert families._CHAINS.get() is None
        assert all(seen)

    def test_check_builds_each_shared_member_once(self, capsys, monkeypatch):
        # jacobi-3.6: G and Q come from one chain, P from another
        made = []
        rule = families._step_rule

        def counted(spec):
            made.append((spec.kind, spec.params))
            return rule(spec)

        monkeypatch.setattr(families, "_step_rule", counted)
        code, _, _ = run_cli(capsys, "check", "jacobi-3.6", "--n", "6", "--alpha", "2", "--beta", "14")
        assert code == 0
        assert sorted(made) == sorted(
            [
                ("jacobi", (("alpha", F(2)), ("beta", F(14)))),
                ("jacobi", (("alpha", F(3)), ("beta", F(15)))),
            ]
        )


class TestSharedParser:
    """One parser serves every ``main`` call of a process and carries nothing
    from one command to the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    @staticmethod
    def _outcome(capsys, argv, target):
        """Exit code, stdout, stderr and the --output file of one ``main(argv)``."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = None
        if target.exists():
            written = target.read_bytes().decode()
            target.unlink()
        return code, captured.out, captured.err, written

    def test_reuse_leaks_nothing_between_commands(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        jacobi = ("check", "jacobi-3.6", "--n", "6", "--alpha", "2", "--beta", "14")
        laguerre = ("zeros", "--family", "laguerre", "--alpha", "0", "--n", "3")
        oracle = ("sweep", "--oracle", "pair-up", "--n", "1..2", "--seeds", "2", "--workers", "1")
        sequence = [
            jacobi,
            (*jacobi, "--json"),
            ("check", "jacobi-3.6", "--n", "6", "--alpha", "1/2", "--beta", "-1/3"),
            jacobi,
            (*oracle, "--output", str(target)),
            oracle,
            (*laguerre, "--plot-data"),
            laguerre,
            ("check", "no-such-check", "--n", "3"),
            (*jacobi, "--json"),
            ("zeros", "--family", "laguerre", "--n", "3"),
            laguerre,
        ]
        alone = []
        for argv in sequence:
            build_parser.cache_clear()
            alone.append(self._outcome(capsys, argv, target))
        shared = build_parser()
        reused = [self._outcome(capsys, argv, target) for argv in sequence]
        assert build_parser() is shared
        assert reused == alone
        # every option in the sequence changes what its command prints
        assert [code for code, *_ in alone] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0]
        assert len({alone[0][1], alone[1][1], alone[2][1]}) == 3
        assert "alpha=1/2 beta=-1/3" in alone[2][1] and "alpha=2 beta=14" in alone[3][1]
        assert alone[4][1] == "" and alone[4][3] == alone[5][1] and alone[5][3] is None
        assert alone[6][1].startswith("x,family\n") and alone[7][1].startswith('{"zeros"')
        assert "invalid choice: 'no-such-check'" in alone[8][2]
        assert alone[10][2] == "error: laguerre requires --alpha\n"


class TestNegativeRationals:
    def test_space_separated_negative_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "jacobi-3.6", "--n", "6", "--alpha", "-1/2", "--beta", "14", "--json"
        )
        assert code == 0
        assert json.loads(out)["params"]["alpha"] == "-1/2"

    def test_same_as_joined_and_decimal_forms(self, capsys):
        outs = set()
        for alpha in (["--alpha", "-1/2"], ["--alpha=-1/2"], ["--alpha", "-0.5"]):
            code, out, _ = run_cli(
                capsys, "zeros", "--family", "jacobi", *alpha, "--beta", "-1/3", "--n", "5"
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize("alpha", ["-5e-1", "-5E-1", "-0.05e1", "-.5"])
    def test_negative_exponent_and_decimal_forms(self, capsys, alpha):
        # "--alpha -5e-1" failed in argparse: "expected one argument"
        argv = ("check", "jacobi-3.6", "--n", "4", "--beta", "2", "--json")
        code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["alpha"] == "-1/2"
        assert run_cli(capsys, *argv, f"--alpha={alpha}") == (code, out, err)

    def test_negative_fraction_still_validated(self, capsys):
        code, _, err = run_cli(
            capsys, "poly", "--family", "laguerre", "--alpha", "-3/2", "--n", "2"
        )
        assert code == 2
        assert "alpha > -1" in err
