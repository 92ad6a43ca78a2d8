"""The benchmark's workloads: the CLI commands each runs and how each output is checked.

Seed 0 is the reference configuration.  Other seeds draw parameters from
pools of values vetted to give the same verdict classes at a similar cost,
and shuffle the command order, so the work per pass keeps its size.  On the
oracle workload the seed only reorders the commands: the CLI always draws
oracle seeds 0..k-1 itself, so no benchmark seed reaches the instances.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from interlace.relations import CHECK_IDS

CLASSES = ("pass", "fail", "skipped", "degenerate", "inconclusive", "error")

LADDER_NS = (8, 20, 40, 60)
GRID_NS = "1..8"
NARAYANA_GRID_NS = "2..12"
ORACLE_NS, ORACLE_SEEDS = (1, 24), 20

# Seed 0 uses the first entry of every slot; other seeds pick one per slot.
LADDER_JACOBI = (("2", "14"), ("14", "2"))
LADDER_LAGUERRE = ("0", "1")
LADDER_MEIXNER_T = ("1", "2", "3")
LADDER_KRAWTCHOUK_P = ("1/3", "2/3")
LADDER_KRAWTCHOUK_N_OFFSET = (3, 4)
GRID_JACOBI = (("-1/2", "-1/3"), ("0",), ("1", "2"), ("5/2", "3/2", "7/2"), ("14", "13", "15"))
GRID_MEIXNER_T = (("1/2", "1/3"), ("1", "2"), ("3", "4"))
GRID_MEIXNER_W = (("1/4", "1/5"), ("1/2", "1/3"), ("3/4", "2/3"))
GRID_KRAWTCHOUK_P = (("1/4", "1/5"), ("1/2", "2/5"), ("3/4", "4/5"))
GRID_KRAWTCHOUK_N = (("9", "10"), ("10", "11"))

SMOKE_LADDER_NS = (8, 60)
SMOKE_GRID_NS = "1..2"
SMOKE_ORACLE_NS, SMOKE_ORACLE_SEEDS = (1, 3), 4


@dataclass
class Outcome:
    """What one command produced, classified per point."""

    classes: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    @property
    def errors(self) -> int:
        return self.classes["error"]


@dataclass
class Command:
    """One ``interlace`` invocation and the checker for its output."""

    argv: list[str]
    points: int
    check: Callable[[int | None, str, BaseException | None], Outcome]
    sweep: bool = False

    def args(self, workers: int) -> list[str]:
        return self.argv + ["--workers", str(workers)] if self.sweep else list(self.argv)

    @property
    def label(self) -> str:
        return " ".join(arg for arg in self.argv[:5] if arg != "--json")


def _pick(rng: random.Random | None, options):
    return options[0] if rng is None else rng.choice(options)


def _frac_key(params: dict) -> tuple:
    return tuple(sorted((k, str(Fraction(v))) for k, v in params.items()))


# ---------------------------------------------------------------------------
# ladder: every check id at n = 8, 20, 40, 60, one `check --json` each
# ---------------------------------------------------------------------------


def _classify_report(report: dict) -> str:
    if not report["passed"]:
        return "fail"
    if not all(report["hypotheses"].values()):
        return "degenerate"
    if (report.get("premise") or {}).get("kind") == "Inconclusive":
        return "inconclusive"
    if "skipped" in report["clauses"].values():
        return "skipped"
    return "pass"


def _ladder_checker(check_id: str, n: int, params: dict):
    want = {"n": str(n), **{k: str(Fraction(v)) for k, v in params.items()}}

    def check(rc, out, exc) -> Outcome:
        result = Outcome()
        if exc is not None:
            result.classes["error"] += 1
            return result
        report = json.loads(out)
        if report["check"] != check_id or report["params"] != want:
            result.problems.append(f"{check_id} n={n}: report echoes {report['params']}")
        if not report["identity_ok"]:
            result.problems.append(f"{check_id} n={n}: identity not certified")
        if rc != (0 if report["passed"] else 1):
            result.problems.append(f"{check_id} n={n}: exit {rc} disagrees with passed")
        result.classes[_classify_report(report)] += 1
        return result

    return check


def ladder(seed: int, workdir: Path, smoke: bool) -> list[Command]:
    rng = random.Random(seed) if seed else None
    alpha, beta = _pick(rng, LADDER_JACOBI)
    params = {
        "jacobi-3.5": {"alpha": alpha, "beta": beta},
        "jacobi-3.6": {"alpha": alpha, "beta": beta},
        "laguerre-3.7": {"alpha": _pick(rng, LADDER_LAGUERRE)},
        "meixner-3.2": {"t": _pick(rng, LADDER_MEIXNER_T), "w": "1/2"},
        "narayana-3.3": {},
        "narayana-3.4": {},
    }
    p, offset = _pick(rng, LADDER_KRAWTCHOUK_P), _pick(rng, LADDER_KRAWTCHOUK_N_OFFSET)
    commands = []
    for n in SMOKE_LADDER_NS if smoke else LADDER_NS:
        for check_id in CHECK_IDS:
            given = params.get(check_id, {"p": p, "N": str(n + offset)})
            argv = ["check", check_id, "--n", str(n), "--json"]
            for name, value in given.items():
                argv += [f"--{name}", value]
            commands.append(Command(argv, 1, _ladder_checker(check_id, n, given)))
    if rng is not None:
        rng.shuffle(commands)
    return commands


# ---------------------------------------------------------------------------
# grid: the acceptance parameter grids, one `sweep <spec>` per check id
# ---------------------------------------------------------------------------


def _expand(ns: str, params: dict) -> list[tuple]:
    lo, hi = (int(x) for x in ns.split(".."))
    keys = [()]
    for name, values in sorted(params.items()):
        keys = [key + ((name, str(Fraction(v))),) for key in keys for v in values]
    return [(n, key) for key in keys for n in range(lo, hi + 1)]


def _grid_checker(check_id: str, expected: list[tuple]):
    def check(rc, out, exc) -> Outcome:
        result = Outcome()
        if exc is not None:
            result.classes["error"] += len(expected)
            return result
        points: dict[tuple, list[str]] = {}
        for row in csv.DictReader(io.StringIO(out)):
            params = {k: v for k, v in row.items() if k not in ("check", "n", "clause", "result")}
            key = (int(row["n"]), _frac_key({k: v for k, v in params.items() if v}))
            points.setdefault(key, []).append(row)
        if sorted(points) != sorted(expected):
            result.problems.append(f"{check_id}: sweep covered {len(points)} of {len(expected)} points")
        for (n, _), rows in points.items():
            results = {row["clause"]: row["result"] for row in rows}
            if any(r.startswith("error") for r in results.values()):
                result.classes["error"] += 1
                continue
            if results.get("identity") != "pass":
                result.problems.append(f"{check_id} n={n}: identity not certified")
            if "fail" in results.values():
                result.problems.append(f"{check_id} n={n}: clause fail {results}")
                result.classes["fail"] += 1
            elif results.get("hypotheses") == "degenerate":
                result.classes["degenerate"] += 1
            elif "skipped" in results.values():
                result.classes["skipped"] += 1
            else:
                result.classes["pass"] += 1
        if rc != 0:
            result.problems.append(f"{check_id}: sweep exit {rc}")
        return result

    return check


def grid(seed: int, workdir: Path, smoke: bool) -> list[Command]:
    rng = random.Random(seed) if seed else None
    jacobi = [_pick(rng, slot) for slot in GRID_JACOBI]
    specs = {
        "jacobi-3.5": {"alpha": jacobi, "beta": [v for v in jacobi if Fraction(v) > 0]},
        "jacobi-3.6": {"alpha": jacobi, "beta": jacobi},
        "laguerre-3.7": {"alpha": jacobi},
        "meixner-3.2": {
            "t": [_pick(rng, slot) for slot in GRID_MEIXNER_T],
            "w": [_pick(rng, slot) for slot in GRID_MEIXNER_W],
        },
        "krawtchouk-3.1": {
            "p": [_pick(rng, slot) for slot in GRID_KRAWTCHOUK_P],
            "N": list(_pick(rng, GRID_KRAWTCHOUK_N)),
        },
        "narayana-3.3": {},
        "narayana-3.4": {},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for check_id, params in specs.items():
        ns = NARAYANA_GRID_NS if check_id.startswith("narayana") else GRID_NS
        if smoke:
            ns = SMOKE_GRID_NS if params else "2..3"
        path = workdir / f"grid-{check_id}.json"
        path.write_text(json.dumps({"check": check_id, "n": ns, "params": params}))
        expected = _expand(ns, params)
        commands.append(
            Command(["sweep", str(path)], len(expected), _grid_checker(check_id, expected), sweep=True)
        )
    if rng is not None:
        rng.shuffle(commands)
    return commands


# ---------------------------------------------------------------------------
# oracle: the pair-up oracle sweep, one `sweep --oracle` command
# ---------------------------------------------------------------------------


def _oracle_checker(n: int, seeds: int):
    def check(rc, out, exc) -> Outcome:
        result = Outcome()
        if exc is not None:
            result.classes["error"] += seeds
            return result
        rows = list(csv.DictReader(io.StringIO(out)))
        got = sorted((int(row["n"]), int(row["seed"])) for row in rows)
        if got != [(n, seed) for seed in range(seeds)]:
            result.problems.append(f"oracle n={n}: {len(rows)} rows for {seeds} instances")
        for row in rows:
            result.classes[row["result"]] += 1
            if row["result"] != "pass":
                result.problems.append(f"oracle n={n} seed={row['seed']}: {row['result']}")
        if rc != 0:
            result.problems.append(f"oracle n={n}: sweep exit {rc}")
        return result

    return check


def oracle(seed: int, workdir: Path, smoke: bool) -> list[Command]:
    """One `sweep --oracle pair-up --n k` per degree k: the instances of the
    single n = 1..24 sweep, in commands short enough to time one by one."""
    (lo, hi), seeds = (SMOKE_ORACLE_NS, SMOKE_ORACLE_SEEDS) if smoke else (ORACLE_NS, ORACLE_SEEDS)
    commands = [
        Command(
            ["sweep", "--oracle", "pair-up", "--n", str(n), "--seeds", str(seeds)],
            seeds,
            _oracle_checker(n, seeds),
            sweep=True,
        )
        for n in range(lo, hi + 1)
    ]
    if seed:
        random.Random(seed).shuffle(commands)
    return commands


WORKLOADS = {"ladder": ladder, "grid": grid, "oracle": oracle}
