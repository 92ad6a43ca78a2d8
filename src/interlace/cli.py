"""Command line front end: construct, solve, check, sweep, and tabulate.

Exit codes are a stable contract: 0 all requested checks pass, 1 a clause or
check failed, 2 invalid input, 3 a sweep point raised and no clause failed, a
sweep worker process died, or ``zeros`` could not compute a zero set.
Each command builds every recurrence chain it needs once (``families.chain_scope``).
Rational parameters are given as "num/den" strings; plain decimals are parsed
as exact decimal fractions (0.4 becomes 2/5), never as binary floats.  The
environment variable INTERLACE_FLOOR overrides the default separation floor
of 1e-9; a floor, from there or from --floor, must be finite and >= 0.
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
import re
import signal
import sys
from fractions import Fraction
from functools import partial
from itertools import starmap

from . import families
from .families import FamilySpec, InvalidParameterError
from .interlacing import DEFAULT_FLOOR
from .relations import (
    BUILD_ROW,
    CHECK_IDS,
    CHECK_TO_PAIR,
    PAIRS,
    CheckReport,
    clause_names,
    run_check,
    oracle_down_one,
    oracle_pair_up,
    check_relation,
    check_pair_up,
    zero_set,
)

from .rootfind import RootComputationError

# zeros_general is not called here, but the benchmark's span tracer
# (perfbench/tracer.py) wraps it under this module's name.
from .rootfind import zeros_general, zeros_orthogonal  # noqa: F401

PARAM_FLAGS = tuple(f"--{name}" for name in ("alpha", "beta", "p", "N", "t", "w"))
NEGATIVE_FRACTION = re.compile(r"-\d+/\d+")
ORACLE_MODES = ("down-one", "pair-up")


def parse_fraction(text: str) -> Fraction:
    """Exact rational from "num/den" or decimal text (0.4 -> 2/5)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse rational {text!r}: {exc}") from exc


def resolve_floor(value: float | None) -> float:
    """The separation floor from ``--floor``, else INTERLACE_FLOOR, else the default.

    NaN or infinity would make every gap test vacuous and a negative floor
    would decide gaps the floats cannot see, so only finite floors >= 0 pass.
    """
    source = "--floor"
    if value is None:
        env = os.environ.get("INTERLACE_FLOOR")
        if not env:
            return DEFAULT_FLOOR
        source = "INTERLACE_FLOOR"
        try:
            value = float(env)
        except ValueError as exc:
            raise InvalidParameterError(f"bad INTERLACE_FLOOR {env!r}") from exc
    if not (math.isfinite(value) and value >= 0):
        raise InvalidParameterError(f"{source} must be finite and >= 0 (got {value!r})")
    return value


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, choices=families.ALL_KINDS)
    sub.add_argument("--n", required=True, type=int)
    for flag in PARAM_FLAGS:
        sub.add_argument(flag, default=None)


def _params_from_args(args, names: tuple[str, ...], what: str) -> dict:
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
    try:
        zs = zero_set(spec)
    except OverflowError as exc:
        raise InvalidParameterError(f"zeros: {exc}") from None
    except RootComputationError as exc:
        print(f"error: zeros: {exc}", file=sys.stderr)
        return 3
    digits = args.digits
    if args.plot_data:
        label = _family_label(spec)
        lines = [f"{_round_float(z, digits)},{label}" for z in zs.zeros]
        print("\n".join(["x,family"] + lines))
        return 0
    payload = {
        "zeros": [_round_float(z, digits) for z in zs.zeros],
        "bound": _round_float(zs.bound, 3) if zs.bound else 0.0,
        "method": zs.method,
    }
    print(json.dumps(payload))
    return 0


def _report_text(report: CheckReport) -> str:
    lines = [f"check {report.check_id}  shape={report.shape}"]
    lines.append(
        "params: " + " ".join(f"{k}={v}" for k, v in report.params.items())
    )
    lines.append(f"E = {report.e_value} ({float(report.e_value):.6g})")
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
    floor = resolve_floor(args.floor)
    names = PAIRS[CHECK_TO_PAIR[args.check_id]].param_names
    params = _params_from_args(args, names, f"check {args.check_id}")
    report = run_check(args.check_id, args.n, params, floor)
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
        base = zeros_orthogonal(families.jacobi(alpha, beta, n))
        shifted = zeros_orthogonal(families.jacobi(alpha + 1, beta + 1, n))
        e = PAIRS["jacobi-shift"].E(n, alpha=alpha, beta=beta)
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


def cmd_table2(args) -> int:
    with _output(args.output) as out:
        out.write(_rows_to_csv(_table2_rows(args.digits)))
    return 0


def _table2_rows(digits: int) -> list[dict]:
    rows = []
    for blk in table2_data():
        for k, (x, z) in enumerate(zip(blk["x"], blk["z"]), start=1):
            rows.append(
                {
                    "block": blk["block"],
                    "n": blk["n"],
                    "alpha": str(blk["alpha"]),
                    "beta": str(blk["beta"]),
                    "E": str(blk["E"]),
                    "k": k,
                    "x": f"{x:.{digits}g}",
                    "z": f"{z:.{digits}g}",
                    "left_occupied": str(blk["left_occupied"]).lower(),
                    "right_occupied": str(blk["right_occupied"]).lower(),
                }
            )
    return rows


def _parse_n_range(text) -> list[int]:
    """Degrees from "N", "lo..hi" or a [lo, hi] pair; an empty range is refused."""
    if isinstance(text, list):
        bounds = text
    else:
        bounds = str(text).split("..", 1)
        if len(bounds) == 1:  # "N" is the range N..N
            bounds *= 2
    try:
        lo, hi = (int(b) for b in bounds)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"degree range must be N or lo..hi with integers (got {text!r})"
        ) from None
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
    points: list[tuple[int, dict]] = []

    def expand(prefix: dict, remaining: list[str]):
        if not remaining:
            for n in ns:
                points.append((n, dict(prefix)))
            return
        name = remaining[0]
        if not params[name]:
            raise InvalidParameterError(f"sweep spec parameter {name!r} lists no values")
        for raw in params[name]:
            expand({**prefix, name: parse_fraction(str(raw))}, remaining[1:])

    expand({}, names)
    points.sort(key=lambda item: (sorted(item[1].items()), item[0]))
    return points


def _error_result(exc: Exception) -> str:
    """Result cell for a point that raised; invalid input is named by its message."""
    if isinstance(exc, InvalidParameterError):
        return f"error: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


def _run_sweep_point(check_id: str, n: int, params: dict, floor: float) -> list[dict]:
    base = {"check": check_id, "n": n}
    try:
        report = run_check(check_id, n, params, floor)
    except Exception as exc:
        row = dict(base)
        row.update({k: str(v) for k, v in params.items()})
        row.update({"clause": BUILD_ROW, "result": _error_result(exc)})
        return [row]
    return report.csv_rows(base)


def _run_oracle_point(mode: str, n: int, seed: int, floor: float) -> list[dict]:
    row = {"oracle": mode, "n": n, "seed": seed, "orientation": ""}
    try:
        if mode == "pair-up":
            rel = oracle_pair_up(n, seed)
            report = check_pair_up(rel, floor)
        else:
            rel = oracle_down_one(n, seed)
            report = check_relation(rel, floor)
    except Exception as exc:
        return [{**row, "result": _error_result(exc)}]
    row["orientation"] = rel.params.get("orientation") or rel.params.get("e_region") or ""
    row["result"] = "pass" if report.passed else "fail"
    return [row]


def _rows_to_csv(rows: list[dict]) -> str:
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


class SweepWorkerError(RuntimeError):
    """A forked sweep worker died or sent back no readable results."""


def _share_of(i: int, workers: int) -> int:
    """The share that point ``i`` goes to: a snake deal 0, 1, .., w-1, w-1, .., 0, 0, ...

    Sweeps list degrees in increasing order inside each parameter set and a
    point costs more the higher its degree; dealing back and forth gives every
    share the same mix of cheap and costly points, where round-robin would hand
    the last share the costliest point of every w.
    """
    turn, k = divmod(i, workers)
    return workers - 1 - k if turn % 2 else k


def _fork_share(func, share: list[tuple]) -> tuple[int, int]:
    """Fork a child that runs ``share`` and pickles its results to a pipe.

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
        payload = pickle.dumps(list(starmap(func, share)))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _join_share(number: int, pid: int, read_fd: int) -> list:
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


def _map_points(func, points: list[tuple], workers: int) -> list:
    """``func(*point)`` for every point, in input order.

    ``workers`` N means N processes: this one plus N - 1 forked children
    (POSIX ``fork``).  The points are dealt into min(N, points) shares; this
    process runs share 0 while each child runs one other share, then collects
    the children's pickled results.  One worker, or fewer than two points,
    runs everything here.  A child that dies raises ``SweepWorkerError`` once
    every child is reaped.
    """
    workers = min(workers, len(points))
    if workers < 2:
        return list(starmap(func, points))
    owner = [_share_of(i, workers) for i in range(len(points))]
    shares: list[list[tuple]] = [[] for _ in range(workers)]
    for point, k in zip(points, owner):
        shares[k].append(point)
    children: list[tuple[int, int]] = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(func, share))
        results = [list(starmap(func, shares[0]))]
        while children:
            pid, read_fd = children.pop(0)
            results.append(_join_share(len(results), pid, read_fd))
    finally:
        # Only left on an error: stop and reap the children not yet joined.
        # An unreaped child keeps its pid, so the kill cannot hit another process.
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    dealt = [iter(rows) for rows in results]
    return [next(dealt[k]) for k in owner]


def cmd_sweep(args) -> int:
    floor = resolve_floor(args.floor)
    workers = args.workers
    if workers < 1:
        raise InvalidParameterError(f"--workers must be >= 1 (got {workers})")
    keep = None
    if args.oracle:
        if args.seeds < 1:
            raise InvalidParameterError(f"--seeds must be >= 1 (got {args.seeds})")
        ns = _parse_n_range(args.n or "1..8")
        points = [(n, seed) for n in ns for seed in range(args.seeds)]
        run = partial(_run_oracle_point, args.oracle, floor=floor)
    else:
        if not args.spec_file:
            raise InvalidParameterError("sweep needs a spec file or --oracle")
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
        run = partial(_run_sweep_point, check_id, floor=floor)
        if wanted:
            keep = {*wanted, BUILD_ROW}
    with _output(args.output) as out:
        chunks = _map_points(run, points, workers)
        if keep:
            chunks = [[row for row in rows if row["clause"] in keep] for rows in chunks]
        rows = [row for rows in chunks for row in rows]
        out.write(_rows_to_csv(rows))
    passed = sum(1 for row in rows if row["result"] == "pass")
    failed = sum(1 for row in rows if row["result"] == "fail")
    errored = sum(1 for row in rows if str(row["result"]).startswith("error"))
    print(
        f"sweep: {passed} pass, {failed} fail, {errored} error, {len(rows)} rows",
        file=sys.stderr,
    )
    if failed:
        return 1
    return 3 if errored else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_check.add_argument("--floor", type=float, default=None)
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table2", help="emit the two-block zero comparison table")
    p_table.add_argument("--digits", type=int, default=6)
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(func=cmd_table2)

    p_sweep = sub.add_parser("sweep", help="run a check over a parameter grid")
    p_sweep.add_argument("spec_file", nargs="?", default=None)
    p_sweep.add_argument("--oracle", choices=ORACLE_MODES, default=None)
    p_sweep.add_argument("--n", default=None, help="range like 1..8 (oracle mode)")
    p_sweep.add_argument("--seeds", type=int, default=100)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=2,
        help="N processes: this one plus N - 1 forked children (POSIX fork; "
        "default 2); 1 runs the points in this process; row order does not "
        "depend on it",
    )
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--floor", type=float, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _join_negative_fractions(argv: list[str]) -> list[str]:
    """Rewrite "--alpha -1/2" as "--alpha=-1/2".

    argparse takes a token starting with "-" for an option unless it looks
    like a negative decimal, so a separate negative "num/den" value would be
    read as a missing argument.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in PARAM_FLAGS and NEGATIVE_FRACTION.fullmatch(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_fractions(sys.argv[1:] if argv is None else argv))
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
