"""Command line front end: construct, solve, check, sweep, and tabulate.

Exit codes are a stable contract: 0 all requested checks pass, 1 a clause or
check failed, 2 invalid input (a coefficient beyond the largest double
included), 3 a sweep point raised and no clause failed, a sweep worker process
died, or ``zeros`` could not compute a zero set.
Each command builds every recurrence chain it needs once (``families.chain_scope``).
The argparse parser is built once per process, on first use, and shared by
every ``main`` call (``build_parser``).
Rational parameters are given as "num/den" strings; plain decimals are parsed
as exact decimal fractions (0.4 becomes 2/5), never as binary floats.
Every check and sweep point is decided exactly, with no separation floor
and no zero set solved (``relations.decide``, ``relations.check_relation``),
and no flag or environment variable sets a floor.  Only ``zeros`` and
``table2`` solve zero sets, one family member at a time, both through
``rootfind.zero_set(spec)``; ``cmd_zeros`` is the one JSON encoder of a set.
A sweep cuts its points into contiguous runs, one per worker process.  A
spec-file run builds the relation of every point, then decides each, then
writes its own CSV lines; an oracle run draws and decides each instance in
turn.  The parent prints the header, which the spec or the oracle mode fixes,
then each run's lines in order, and sums the runs' counts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import pickle
import signal
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, product

from . import families, relations
from .families import FamilySpec, InvalidParameterError
from .relations import (
    BUILD_ROW,
    CHECK_IDS,
    CHECKS,
    FAIL_CLAUSE,
    ORACLE_MIN_N,
    PASS,
    CheckReport,
    clause_names,
    run_check,
    check_oracle_degree,
    oracle_down_one,
    oracle_pair_up,
    check_relation,
)

# check_pair_up is not called here, but the benchmark's span tracer
# (perfbench/tracer.py) wraps it under this module's name.
from .relations import check_pair_up  # noqa: F401
from .rootfind import RootComputationError, zero_set

# zeros_general and zeros_orthogonal are not called here, but the benchmark's
# span tracer (perfbench/tracer.py) wraps them under this module's name.
from .rootfind import zeros_general, zeros_orthogonal  # noqa: F401

#: every family's parameter flags, each once, in ``families.PARAM_NAMES`` order
PARAM_FLAGS = tuple(
    dict.fromkeys(f"--{name}" for names in families.PARAM_NAMES.values() for name in names)
)
ORACLE_MODES = tuple(ORACLE_MIN_N)
ORACLE_SEEDS = 100


def parse_fraction(text: str) -> Fraction:
    """Exact rational from "num/den" or decimal text (0.4 -> 2/5)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse rational {text!r}: {exc}") from exc


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, choices=families.ALL_KINDS)
    sub.add_argument("--n", required=True, type=int)
    for flag in PARAM_FLAGS:
        sub.add_argument(flag, default=None)


def _params_from_args(args, names: tuple[str, ...], what: str) -> dict:
    """The parameters ``names`` from their flags; a flag ``what`` does not take is refused."""
    unused = [
        flag
        for flag in PARAM_FLAGS
        if flag[2:] not in names and getattr(args, flag[2:]) is not None
    ]
    if unused:
        raise InvalidParameterError(f"{what} does not take {', '.join(unused)}")
    params = {}
    for name in names:
        raw = getattr(args, name)
        if raw is None:
            raise InvalidParameterError(f"{what} requires --{name}")
        params[name] = parse_fraction(raw)
    return params


def _spec_from_args(args) -> FamilySpec:
    params = _params_from_args(args, families.PARAM_NAMES[args.family], args.family)
    return FamilySpec.make(args.family, args.n, **params)


def _round_float(value: float, digits: int) -> float:
    return float(f"{value:.{digits}g}")


def _digits(args) -> int:
    """``--digits``, refused below 1: "{:.0g}" prints one digit and "{:.-1g}" is no format."""
    if args.digits < 1:
        raise InvalidParameterError(f"--digits must be >= 1 (got {args.digits})")
    return args.digits


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output, or ``path`` opened for writing before the work starts."""
    if not path:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write --output {path}: {exc.strerror}") from None
    with handle:
        yield handle


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_poly(args) -> int:
    spec = _spec_from_args(args)
    poly = families.monic_by_recurrence(spec)
    if args.float:
        try:
            coeffs = poly.float_coeffs()
        except OverflowError as exc:
            raise InvalidParameterError(f"poly --float: {exc}") from None
        print(json.dumps({"mode": "float", "coeffs": list(coeffs)}))
    else:
        print(json.dumps(poly.to_json()))
    return 0


def _family_label(spec: FamilySpec) -> str:
    bits = [spec.kind] + [f"{k}={v}" for k, v in spec.params] + [f"n={spec.n}"]
    return ";".join(bits)


def cmd_zeros(args) -> int:
    spec = _spec_from_args(args)
    digits = _digits(args)
    try:
        zs = zero_set(spec)
    except OverflowError as exc:
        raise InvalidParameterError(f"zeros: {exc}") from None
    except RootComputationError as exc:
        print(f"error: zeros: {exc}", file=sys.stderr)
        return 3
    if args.plot_data:
        label = _family_label(spec)
        lines = [f"{_round_float(z, digits)},{label}" for z in zs.zeros]
        print("\n".join(["x,family"] + lines))
        return 0
    payload = {
        "zeros": [_round_float(z, digits) for z in zs.zeros],
        # JSON has no inf: a bound that is not finite prints as null
        "bound": _round_float(zs.bound, 3) if math.isfinite(zs.bound) else None,
        "method": zs.method,
    }
    print(json.dumps(payload))
    return 0


def _report_text(report: CheckReport) -> str:
    lines = [f"check {report.check_id}  shape={report.shape}"]
    lines.append(
        "params: " + " ".join(f"{k}={v}" for k, v in report.params.items())
    )
    e = report.e_float
    shown = "outside the double range" if e is None else f"{e:.6g}"
    lines.append(f"E = {report.e_value} ({shown})")
    lines.append(f"identity: {'PASS' if report.identity_ok else 'FAIL'}")
    hyp = " ".join(f"{k}={'yes' if v else 'NO'}" for k, v in report.hypotheses.items())
    if hyp:
        lines.append(f"hypotheses: {hyp}")
    lines.append(f"premise: {report.premise_kind or 'FAILED'}")
    lines.append(f"E position: {report.e_position}")
    for clause, result in report.clauses.items():
        lines.append(f"clause {clause}: {result.upper()}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    names = CHECKS[args.check_id].param_names
    params = _params_from_args(args, names, f"check {args.check_id}")
    try:
        report = run_check(args.check_id, args.n, params)
    except OverflowError as exc:
        raise InvalidParameterError(f"check: {exc}") from None
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        sys.stdout.write(_report_text(report))
    return 0 if report.passed else 1


TABLE2_BLOCKS = (
    {"block": 1, "n": 6, "alpha": Fraction(2), "beta": Fraction(14)},
    {"block": 2, "n": 7, "alpha": Fraction(14), "beta": Fraction(2)},
)


def table2_data() -> list[dict]:
    """Both comparison blocks: zeros of the base and shifted families plus
    the occupancy of the two extreme intervals by shifted-family zeros."""
    out = []
    for blk in TABLE2_BLOCKS:
        n, alpha, beta = blk["n"], blk["alpha"], blk["beta"]
        base = zero_set(families.jacobi(alpha, beta, n))
        shifted = zero_set(families.jacobi(alpha + 1, beta + 1, n))
        e = CHECKS["jacobi-3.6"].E(n, alpha=alpha, beta=beta)
        out.append(
            {
                "block": blk["block"],
                "n": n,
                "alpha": alpha,
                "beta": beta,
                "E": e,
                "x": list(base.zeros),
                "z": list(shifted.zeros),
                "left_occupied": shifted.zeros[0] < base.zeros[0],
                "right_occupied": shifted.zeros[-1] > base.zeros[-1],
            }
        )
    return out


TABLE2_HEADER = (
    "block", "n", "alpha", "beta", "E", "k", "x", "z", "left_occupied", "right_occupied"
)


def cmd_table2(args) -> int:
    digits = _digits(args)
    with _output(args.output) as out:
        out.write(_csv_text([TABLE2_HEADER, *_table2_rows(digits)]))
    return 0


def _table2_rows(digits: int) -> list[list]:
    """One row per zero pair, its cells in ``TABLE2_HEADER`` order."""
    rows = []
    for blk in table2_data():
        head = [blk["block"], blk["n"], blk["alpha"], blk["beta"], blk["E"]]
        flags = [str(blk["left_occupied"]).lower(), str(blk["right_occupied"]).lower()]
        for k, (x, z) in enumerate(zip(blk["x"], blk["z"]), start=1):
            rows.append([*head, k, f"{x:.{digits}g}", f"{z:.{digits}g}", *flags])
    return rows


def _parse_n_range(text) -> list[int]:
    """Degrees from "N", "lo..hi" or a [lo, hi] pair; an empty range is refused.

    A pair's bounds must be JSON integers: ``int`` would truncate 1.9 and read
    true as 1.
    """
    malformed = InvalidParameterError(
        f"degree range must be N or lo..hi with integers (got {text!r})"
    )
    if isinstance(text, list):
        if len(text) != 2 or not all(type(b) is int for b in text):
            raise malformed
        lo, hi = text
    else:
        bounds = str(text).split("..", 1)
        if len(bounds) == 1:  # "N" is the range N..N
            bounds *= 2
        try:
            lo, hi = (int(b) for b in bounds)
        except ValueError:
            raise malformed from None
    if lo > hi:
        raise InvalidParameterError(f"degree range {text!r} is empty")
    return list(range(lo, hi + 1))


def _sweep_grid(spec: dict) -> list[tuple[int, dict]]:
    ns = _parse_n_range(spec["n"])
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise InvalidParameterError(
            f"sweep spec 'params' must map each parameter to a list of values (got {params!r})"
        )
    for name, values in params.items():
        if not isinstance(values, list):
            raise InvalidParameterError(
                f"sweep spec parameter {name!r} must be a list of values (got {values!r})"
            )
    names = sorted(params)
    columns = []
    for name in names:
        if not params[name]:
            raise InvalidParameterError(f"sweep spec parameter {name!r} lists no values")
        columns.append([parse_fraction(str(raw)) for raw in params[name]])
    points = [(n, dict(zip(names, values))) for values in product(*columns) for n in ns]
    points.sort(key=lambda item: (sorted(item[1].items()), item[0]))
    return points


def _error_result(exc: Exception) -> str:
    """Result cell for a point that raised; invalid input is named by its message."""
    if isinstance(exc, InvalidParameterError):
        return f"error: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


def _csv_text(rows) -> str:
    """``rows``, each a sequence of cells, as CSV lines."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _run_result(rows: list[list]) -> tuple[str, tuple[int, int, int, int]]:
    """A run's CSV lines and its pass, fail, error and row counts; each row's
    result is its last cell."""
    results = [row[-1] for row in rows]
    errored = sum(1 for result in results if result.startswith("error"))
    return _csv_text(rows), (results.count(PASS), results.count(FAIL_CLAUSE), errored, len(rows))


def _attempt(func, *args):
    """``func(*args)``, or the exception it raised."""
    try:
        return func(*args)
    except Exception as exc:
        return exc


def _run_sweep_run(check_id: str, keep: set | None, points: list[tuple]) -> tuple:
    """The CSV lines and counts (``_run_result``) of one contiguous run of
    (n, params) points.

    The run builds the relation of every point first, then decides each
    (``relations.decide``) and writes its rows: the check, n, the check's
    parameters in ``param_names`` order, the clause and its result.  A point
    that raises in either phase gives one ``build`` row with the exception.
    With ``keep`` given, only the rows of the clauses it names are written.
    """
    names = CHECKS[check_id].param_names
    built = [_attempt(relations.build_relation, check_id, n, params) for n, params in points]
    rows = []
    for (n, params), rel in zip(points, built):
        report = rel if isinstance(rel, Exception) else _attempt(relations.decide, rel)
        if isinstance(report, Exception):
            results = [(BUILD_ROW, _error_result(report))]
        else:
            results = report.row_results()
        head = [check_id, n, *[str(params[name]) for name in names]]
        rows += [[*head, clause, result] for clause, result in results if not keep or clause in keep]
    return _run_result(rows)


def _run_oracle_run(mode: str, points: list[tuple]) -> tuple:
    """The CSV lines and counts (``_run_result``) of one contiguous run of
    (n, seed) points, each drawn and then decided on its drawn zeros
    (``relations.check_relation``) before the next is drawn."""
    draw = oracle_pair_up if mode == "pair-up" else oracle_down_one
    rows = []
    for n, seed in points:
        try:
            report = check_relation(draw(n, seed))
        except Exception as exc:
            rows.append([mode, n, seed, "", _error_result(exc)])
            continue
        params = report.params
        orientation = params.get("orientation") or params.get("e_region") or ""
        rows.append([mode, n, seed, orientation, PASS if report.passed else FAIL_CLAUSE])
    return _run_result(rows)


class SweepWorkerError(RuntimeError):
    """A forked sweep worker died or sent back no readable results."""


def _cut_runs(weights: list[int], workers: int) -> list[int]:
    """Cuts 0 = c_0 < c_1 < ... < c_k = len(weights) into k = min(workers, len) runs.

    Cut i sits where the running weight comes nearest to i/k of the total,
    moved only as far as it takes to leave every run at least one point.  No
    run then weighs more than total/k plus the largest single weight.
    """
    count = min(workers, len(weights))
    prefix = list(accumulate(weights, initial=0))
    cuts = [0]
    for i in range(1, count):
        target = prefix[-1] * i / count
        j = bisect_left(prefix, target)  # prefix[j - 1] < target <= prefix[j]
        if target - prefix[j - 1] < prefix[j] - target:
            j -= 1
        cuts.append(min(max(j, cuts[-1] + 1), len(weights) - count + i))
    cuts.append(len(weights))
    return cuts


def _fork_share(func, share: list[tuple]) -> tuple[int, int]:
    """Fork a child that runs ``func(share)`` and pickles its results to a pipe.

    Returns the child's pid and the read end of its pipe.  The child leaves
    through ``os._exit`` whatever happens, so it never runs the parent's exit
    handlers or flushes the stdio buffers it inherited.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1  # kept if anything below raises; the parent reports the exit code
    try:
        os.close(read_fd)
        payload = pickle.dumps(func(share))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _join_share(number: int, pid: int, read_fd: int) -> object:
    """Read a child's results to EOF, reap it, and refuse a death or a bad payload."""
    try:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise SweepWorkerError(f"sweep worker {number} was killed by signal {-code}")
    if code:
        raise SweepWorkerError(f"sweep worker {number} exited with code {code}")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # bad data raises UnpicklingError, EOFError, IndexError, ...
        raise SweepWorkerError(
            f"sweep worker {number} sent unreadable results ({len(payload)} bytes): {exc}"
        ) from None


def _map_runs(func, points: list[tuple], weights: list[int], workers: int) -> list:
    """``func(run)`` for every contiguous run of points, the results in input order.

    ``func`` takes a list of points and returns one result for the run.
    ``workers`` N means N processes: this one plus N - 1 forked children
    (POSIX ``fork``).  The points are cut into min(N, points) contiguous runs
    of near-equal total ``weights`` (``_cut_runs``); this process runs the
    first run while each child runs one other, then collects the children's
    pickled results.  One worker, or fewer than two points, runs everything
    here as one run.  A child that dies raises ``SweepWorkerError`` once
    every child is reaped.
    """
    cuts = _cut_runs(weights, workers)
    if len(cuts) < 3:
        return [func(points)]
    runs = [points[a:b] for a, b in zip(cuts, cuts[1:])]
    children: list[tuple[int, int]] = []
    try:
        for run in runs[1:]:
            children.append(_fork_share(func, run))
        results = [func(runs[0])]
        for number in range(1, len(runs)):
            pid, read_fd = children.pop(0)
            results.append(_join_share(number, pid, read_fd))
    finally:
        # Only left on an error: stop and reap the children not yet joined.
        # An unreaped child keeps its pid, so the kill cannot hit another process.
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def cmd_sweep(args) -> int:
    workers = args.workers
    if workers < 1:
        raise InvalidParameterError(f"--workers must be >= 1 (got {workers})")
    if args.oracle:
        if args.spec_file:
            raise InvalidParameterError("sweep takes a spec file or --oracle, not both")
        seeds = ORACLE_SEEDS if args.seeds is None else args.seeds
        if seeds < 1:
            raise InvalidParameterError(f"--seeds must be >= 1 (got {seeds})")
        ns = _parse_n_range(args.n or "1..8")
        check_oracle_degree(args.oracle, ns[0])
        points = [(n, seed) for n in ns for seed in range(seeds)]
        run = partial(_run_oracle_run, args.oracle)
        header = ["oracle", "n", "seed", "orientation", "result"]
    else:
        if not args.spec_file:
            raise InvalidParameterError("sweep needs a spec file or --oracle")
        given = [flag for flag in ("--n", "--seeds") if getattr(args, flag[2:]) is not None]
        if given:
            raise InvalidParameterError(
                f"a spec-file sweep does not take {', '.join(given)} (oracle degrees and seeds)"
            )
        try:
            with open(args.spec_file, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"cannot read sweep spec: {exc}") from exc
        if not isinstance(spec, dict):
            raise InvalidParameterError(f"sweep spec must be a JSON object (got {spec!r})")
        if "check" not in spec or "n" not in spec:
            raise InvalidParameterError("sweep spec needs 'check' and 'n' fields")
        check_id = spec["check"]
        if check_id not in CHECK_IDS:
            raise InvalidParameterError(f"unknown check id {check_id!r} in sweep spec")
        wanted = spec.get("clauses", [])
        if not (isinstance(wanted, list) and all(isinstance(c, str) for c in wanted)):
            raise InvalidParameterError(
                f"sweep spec 'clauses' must be a list of clause names (got {wanted!r})"
            )
        names = clause_names(check_id)
        unknown = [c for c in wanted if c not in names]
        if unknown:
            raise InvalidParameterError(
                f"sweep spec 'clauses' names {', '.join(map(repr, unknown))}, not a clause of "
                f"{check_id} (its clauses: {', '.join(names)})"
            )
        points = _sweep_grid(spec)
        takes = CHECKS[check_id].param_names
        named = sorted(spec.get("params", {}))
        if set(named) != set(takes):
            raise InvalidParameterError(
                f"sweep spec 'params' names {', '.join(named) or 'no parameter'}, but "
                f"{check_id} takes {', '.join(takes) or 'no parameter'}"
            )
        run = partial(_run_sweep_run, check_id, {*wanted, BUILD_ROW} if wanted else None)
        header = ["check", "n", *takes, "clause", "result"]
    # A spec-file sweep's points come sorted by parameter set and then degree,
    # so a contiguous run builds each set's recurrence chain in one process.
    # A point of degree n weighs (n + 2)^2, a rough model of its cost.
    weights = [(n + 2) ** 2 for n, _ in points]
    with _output(args.output) as out:
        texts, counts = zip(*_map_runs(run, points, weights, workers))
        # Each run wrote its own lines; a filter that keeps no row still prints the header.
        out.write(_csv_text([header]) + "".join(texts))
    passed, failed, errored, rows = map(sum, zip(*counts))
    print(f"sweep: {passed} pass, {failed} fail, {errored} error, {rows} rows", file=sys.stderr)
    if failed:
        return 1
    return 3 if errored else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first call and shared.

    Parsing reads the parser and never changes it, so one build serves the
    whole process; it must not be mutated (no ``add_argument`` or
    ``set_defaults`` on it or its subparsers).  Each subparser binds its
    ``cmd_*`` function at that first build, and those functions look up
    ``run_check``, ``oracle_pair_up`` and the rest as module globals when
    they run, so a later patch of those names still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="interlace",
        description="Polynomial families, real zeros, and interlacing checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print a family member's coefficients")
    _add_family_flags(p_poly)
    p_poly.add_argument(
        "--float", action="store_true", help="print the coefficients as correctly rounded doubles"
    )
    p_poly.set_defaults(func=cmd_poly)

    p_zeros = sub.add_parser("zeros", help="print a family member's real zeros")
    _add_family_flags(p_zeros)
    p_zeros.add_argument("--digits", type=int, default=6)
    p_zeros.add_argument("--plot-data", action="store_true", dest="plot_data")
    p_zeros.set_defaults(func=cmd_zeros)

    p_check = sub.add_parser("check", help="run one named interlacing check")
    p_check.add_argument("check_id", choices=sorted(CHECK_IDS))
    p_check.add_argument("--n", required=True, type=int)
    for flag in PARAM_FLAGS:
        p_check.add_argument(flag, default=None)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table2", help="emit the two-block zero comparison table")
    p_table.add_argument("--digits", type=int, default=6)
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(func=cmd_table2)

    p_sweep = sub.add_parser("sweep", help="run a check over a parameter grid")
    p_sweep.add_argument("spec_file", nargs="?", default=None)
    p_sweep.add_argument("--oracle", choices=ORACLE_MODES, default=None)
    p_sweep.add_argument("--n", default=None, help="range like 1..8 (oracle mode)")
    p_sweep.add_argument(
        "--seeds", type=int, default=None, help=f"oracle seeds per degree (default {ORACLE_SEEDS})"
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=2,
        help="N processes: this one plus N - 1 forked children (POSIX fork; "
        "default 2); 1 runs the points in this process; row order does not "
        "depend on it",
    )
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _is_negative_rational(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        parse_fraction(token)
    except InvalidParameterError:
        return False
    return True


def _join_negative_fractions(argv: list[str]) -> list[str]:
    """Rewrite "--alpha -1/2" as "--alpha=-1/2", and so every negative rational.

    argparse takes a token starting with "-" for an option unless it looks
    like a negative integer or plain decimal, so a separate "-1/2" or "-5e-1"
    would be read as a missing argument.  Every negative token that
    ``parse_fraction`` accepts is joined to the parameter flag before it.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in PARAM_FLAGS and _is_negative_rational(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_fractions(sys.argv[1:] if argv is None else argv))
    try:
        with families.chain_scope():
            return args.func(args)
    except ValueError as exc:  # InvalidParameterError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
