"""Benchmark of the ``interlace`` CLI on the ladder, grid and oracle workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Every command goes through ``interlace.cli.main`` in this one process.  With
``--trace 0`` the end-to-end metrics are measured with nothing wrapped; with
``--trace 1`` the passes alternate between untraced and traced runs, and the
traced ones give the per-layer metrics (see ``tracer.py``).  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the three workloads one after another, each ending in its own JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKERS = 2  # sweep workers: one per CPU of the 2-CPU reference host
TRACE_WORKERS = 1  # traced sweeps run in one worker so every span nests in its command
SETUP_REPEATS = 9
MIN_PASSES = 3

# Typical time of reference_kernel() on an unloaded 2-CPU x86-64 host under
# Python 3.11.7: the host speed that end-to-end timings are scaled to.
REFERENCE_S = 0.0014

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import interlace.cli as c; "
    "c.build_parser(); print('ready', flush=True)"
)


def _import_program():
    if not (SRC / "interlace" / "__init__.py").is_file():
        sys.exit(f"error: no interlace sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import interlace

    if not Path(interlace.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported interlace from {interlace.__file__}, not {SRC}")


_import_program()

from interlace import cli  # noqa: E402
from tracer import CHECKERS, NARAYANA, VERDICTS, Tracer  # noqa: E402
from workloads import CLASSES, Outcome, WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_once() -> float:
    """Seconds from starting an interpreter until the CLI parser is built."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready\n":
        sys.exit(f"error: set-up probe exited {proc.returncode} after {line!r}")
    return elapsed


def reference_kernel() -> float:
    """Seconds for a fixed run of the exact rational arithmetic the program is made of.

    The host's speed drifts by up to a factor of two over tens of seconds,
    from load outside this process, and this kernel slows with it.  Its mean
    time over a pass measures how fast the host ran during that pass.
    """
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
    return time.perf_counter() - start


def run_pass(commands, workers: int, call) -> tuple[list[float], list[float], list[tuple]]:
    """Run every command once, each after one reference_kernel() run.

    Returns the reference times, the per-command latencies and the outputs.
    """
    argvs = [cmd.args(workers) for cmd in commands]
    references, latencies, results = [], [], []
    for argv in argvs:
        references.append(reference_kernel())
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(argv)
        except Exception as caught:  # an internal error leaving the CLI is an outcome to count
            exc = caught
        latencies.append(time.perf_counter() - start)
        results.append((rc, out.getvalue(), err.getvalue(), exc))
    return references, latencies, results


class Ledger:
    """Checks every pass's outputs and keeps the outcome counts."""

    def __init__(self, commands):
        self.commands = commands
        self.first = None
        self.attempted = self.failed = 0
        self.classes = Counter()
        self.errors = Counter()
        self.problems: list[str] = []

    def record(self, results) -> None:
        signature = []
        classes = Counter()
        for cmd, (rc, out, err, exc) in zip(self.commands, results):
            if exc is None and rc not in (0, 1):
                outcome = Outcome(Counter(error=cmd.points), [f"{cmd.label}: exit {rc}: {err.strip()}"])
            else:
                outcome = cmd.check(rc, out, exc)
            if exc is not None:
                self.errors[f"{cmd.label}: {type(exc).__name__}: {str(exc)[:70]}"] += 1
            classes += outcome.classes
            self.problems.extend(outcome.problems)
            self.attempted += cmd.points
            self.failed += outcome.errors
            signature.append((rc, out, repr(exc)))
        if self.first is None:
            self.first, self.classes = signature, classes
        elif signature != self.first:
            self.problems.append("outputs differ between passes of the same commands")

    @property
    def correct(self) -> bool:
        return self.first is not None and not self.problems


def _fits(begin: float, seconds: float, last: float) -> bool:
    """Whether one more pass as long as the last still ends within the run's seconds."""
    return time.perf_counter() - begin + last <= seconds


def slowdown(references: list[float]) -> float:
    """How much slower than the reference speed the host ran during one pass."""
    return statistics.fmean(references) / REFERENCE_S


def measure(commands, seconds: float, ledger: Ledger, smoke: bool) -> tuple[dict, dict]:
    """Untraced passes at the users' worker count, for the end-to-end metrics.

    Every latency is scaled by REFERENCE_S over the mean reference-kernel
    time of its own pass, which gives its time at the reference host speed.
    The reference runs interleaved with the commands, so it meets the same
    host speeds; medians and percentiles are then taken over the scaled
    values.  Set-up time is scaled by the run's median slowdown.
    """
    scaled, slowdowns, setups = [], [], []
    setup_repeats = 1 if smoke else SETUP_REPEATS
    setup_once()  # the first start also writes the bytecode cache
    run_pass(commands, WORKERS, cli.main)  # warm-up: lazy imports and first-call set-up
    gc.collect()
    gc.freeze()
    begin = time.perf_counter()
    last = 0.0
    while not scaled or not smoke and (len(scaled) < MIN_PASSES or _fits(begin, seconds, last)):
        gc.collect()
        start = time.perf_counter()
        refs, lat, results = run_pass(commands, WORKERS, cli.main)
        last = time.perf_counter() - start
        ledger.record(results)
        slowdowns.append(slowdown(refs))
        scaled.append([x / slowdowns[-1] for x in lat])
        # Interpreter starts are spread over the run, so they meet the same host speeds.
        if len(setups) < setup_repeats * min(1.0, (time.perf_counter() - begin) / max(seconds, 1e-9)):
            setups.append(setup_once())
    while len(setups) < setup_repeats:
        setups.append(setup_once())
    pass_s = statistics.median(sum(lat) for lat in scaled)
    samples = [x for lat in scaled for x in lat]
    return {
        # Interpreter starts slow down with the host as well.
        "setup_s": (statistics.median(setups) / statistics.median(slowdowns), "s"),
        "wall_s": (pass_s, "s"),
        "points_per_s": (sum(cmd.points for cmd in commands) / pass_s, "1/s"),
        "check_ms_p50": (statistics.median(samples) * 1000.0, "ms"),
        "check_ms_p90": (_quantile(samples, 0.9) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"passes": len(scaled), "scaled": scaled, "slowdowns": slowdowns}


def _quantile(values: list[float], q: float) -> float:
    """Inclusive quantile, so few values never extrapolate past the largest."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass."""
    t = tracer.layer_totals()

    def total(names, kind: str) -> float:
        return sum(t.get(f"{name}.{kind}", 0.0) for name in names)

    attempts = tracer.counts["oracle.attempts"]
    return {
        "families.monic_by_recurrence.calls": (t.get("families.monic_by_recurrence.calls", 0), "count"),
        "families.monic_by_recurrence.self_ms": (t.get("families.monic_by_recurrence.self_ms", 0.0), "ms"),
        "families.recurrence_coeffs.calls": (t.get("families.recurrence_coeffs.calls", 0), "count"),
        "families.narayana.self_ms": (total(NARAYANA, "self_ms"), "ms"),
        "poly.from_roots.self_ms": (t.get("poly.from_roots.self_ms", 0.0), "ms"),
        "poly.mul.self_ms": (t.get("poly.mul.self_ms", 0.0), "ms"),
        "poly.coeff_bits_max": (tracer.bits_max, "bits"),
        "relations.build_relation.self_ms": (t.get("relations.build_relation.self_ms", 0.0), "ms"),
        "relations.verify_identity.calls": (t.get("relations.verify_identity.calls", 0), "count"),
        "relations.verify_identity.self_ms": (t.get("relations.verify_identity.self_ms", 0.0), "ms"),
        "relations.check_relation.self_ms": (total(CHECKERS, "self_ms"), "ms"),
        "relations.oracle_pair_up.self_ms": (t.get("relations.oracle_pair_up.self_ms", 0.0), "ms"),
        # 0 when the workload draws no oracle instance
        "relations.oracle.accept_ratio": (tracer.counts["oracle.accepted"] / attempts if attempts else 0.0, "ratio"),
        "rootfind.zeros_orthogonal.calls": (t.get("rootfind.zeros_orthogonal.calls", 0), "count"),
        "rootfind.zeros_orthogonal.self_ms": (t.get("rootfind.zeros_orthogonal.self_ms", 0.0), "ms"),
        "rootfind.zeros_general.calls": (t.get("rootfind.zeros_general.calls", 0), "count"),
        "rootfind.zeros_general.self_ms": (t.get("rootfind.zeros_general.self_ms", 0.0), "ms"),
        "rootfind.errors": (tracer.counts["rootfind.errors"], "count"),
        "rootfind.bound_max": (tracer.bound_max, "abs"),
        "interlacing.verdict.calls": (total(VERDICTS, "calls"), "count"),
        "interlacing.verdict.self_ms": (total(VERDICTS, "self_ms"), "ms"),
        "interlacing.inconclusive": (tracer.counts["interlacing.inconclusive"], "count"),
        "cli.self_ms": (t.get("cli.main.self_ms", 0.0), "ms"),
    }


def measure_traced(name: str, commands, seconds: float, ledger: Ledger, smoke: bool) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; report per-layer medians over traced passes."""
    sweeps = any(cmd.sweep for cmd in commands)
    run_pass(commands, WORKERS, cli.main)
    gc.collect()
    gc.freeze()
    pass_s = {"w2": [], "w1": [], "traced": []}  # at the reference host speed
    per_pass: list[dict] = []
    coverage: list[float] = []
    tracers: list[Tracer] = []
    begin = cycle_start = time.perf_counter()
    while not tracers or not smoke and _fits(begin, seconds, time.perf_counter() - cycle_start):
        cycle_start = time.perf_counter()
        for key, workers in (("w2", WORKERS), ("w1", TRACE_WORKERS)) if sweeps else (("w1", WORKERS),):
            gc.collect()
            refs, lat, results = run_pass(commands, workers, cli.main)
            ledger.record(results)
            pass_s[key].append(sum(lat) / slowdown(refs))
        tracer = Tracer()
        gc.collect()
        with tracer.installed():
            refs, lat, results = run_pass(commands, TRACE_WORKERS, tracer.command)
        ledger.record(results)
        pass_s["traced"].append(sum(lat) / slowdown(refs))
        tracers.append(tracer)
        per_pass.append(layer_metrics(tracer))
        coverage.append(tracer.self_seconds() / sum(lat))
    metrics = {
        key: (statistics.median(m[key][0] for m in per_pass), unit) for key, (_, unit) in per_pass[0].items()
    }
    metrics["poly.coeff_bits_max"] = (max(m["poly.coeff_bits_max"][0] for m in per_pass), "bits")
    metrics["rootfind.bound_max"] = (max(m["rootfind.bound_max"][0] for m in per_pass), "abs")
    walls = {key: statistics.median(values) for key, values in pass_s.items() if values}
    # The ladder issues no sweep, so its worker count changes nothing.
    speedup = walls["w1"] / walls["w2"] if sweeps else 1.0
    metrics["cli.sweep.speedup_2w"] = (speedup, "ratio")
    metrics["trace.overhead_s"] = (walls["traced"] - walls["w1"], "s")
    metrics["trace.self_coverage"] = (statistics.median(coverage), "fraction")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{name}.jsonl", "w", encoding="utf-8") as handle:
        for number, tracer in enumerate(tracers):
            tracer.write(handle, f"{name}-{number}")
    return metrics, {"passes": len(tracers), "walls": walls}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> bool:
    commands = WORKLOADS[name](seed, OUT / name, smoke)
    ledger = Ledger(commands)
    points = sum(cmd.points for cmd in commands)
    if traced:
        found, info = measure_traced(name, commands, seconds, ledger, smoke)
    else:
        found, info = measure(commands, seconds, ledger, smoke)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in found.items()}

    print(f"workload {name}  seed {seed}  trace {int(traced)}  passes {info['passes']}  "
          f"commands {len(commands)}  points/pass {points}")
    for key, entry in metrics.items():
        print(f"  {key:<40} {entry['value']:>14.6g} {entry['unit']}")
    if not traced:
        print(f"  {'error_frac':<40} {ledger.failed / ledger.attempted:>14.6g} fraction "
              f"({ledger.failed} of {ledger.attempted} points)")
        print(f"  check_ms samples: {len(commands) * info['passes']} ({len(commands)} commands x {info['passes']} passes)")
        print("  host slowdown per pass, min/median/max: " + " / ".join(
            f"{f(info['slowdowns']):.3f}" for f in (min, statistics.median, max)))
        if name == "ladder":
            for idx, cmd in sorted(enumerate(commands), key=lambda item: item[1].label):
                ms = statistics.median(lat[idx] for lat in info["scaled"]) * 1000.0
                print(f"  {cmd.label:<40} {ms:9.2f} ms (median, scaled)")
    else:
        print("  median pass wall_s, scaled: " + ", ".join(f"{k} {v:.4f}" for k, v in info["walls"].items()))
    print("  outcomes per pass: " + ", ".join(f"{c} {ledger.classes[c]}" for c in CLASSES))
    for error, count in sorted(ledger.errors.items()):
        print(f"  raised x{count}: {error}")
    for problem in ledger.problems[:20]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }), flush=True)
    return ledger.correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, one measured pass")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
