"""Span tracer that wraps the program's public functions from outside.

The program has no tracing of its own yet, so the benchmark installs wrappers
around the functions that mark each layer boundary, at every place a caller
looks the name up (``relations`` and ``cli`` import names such as
``zeros_orthogonal`` directly, so patching ``rootfind`` alone would miss
them).  Each wrapped call records one span: name, start, end, parent span and
the point (one check or one oracle instance) it belongs to.  Spans stay in
memory; ``write`` dumps them when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict

from interlace import cli, families, relations, rootfind
from interlace.interlacing import INCONCLUSIVE
from interlace.poly import Polynomial

# Span name groups that make up one per-layer metric.
CHECKERS = (
    "relations.check_relation",
    "relations.check_pair_up",
    "relations.check_down_one",
    "relations.check_up_one",
    "relations.check_narayana_even_quotient",
)
VERDICTS = (
    "interlacing.alternates",
    "interlacing.interlaces_down",
    "interlacing.added_point_interlace",
    "interlacing.locate_point",
)
NARAYANA = (
    "families.narayana_reduced",
    "families.narayana_christoffel",
    "families.narayana_perturbed",
)

# (span name, namespace objects whose attribute of that name gets the wrapper)
PATCHES = (
    ("families.monic_by_recurrence", (families, relations)),
    ("families.recurrence_coeffs", (families, rootfind)),
    ("families.narayana_reduced", (families,)),
    ("families.narayana_christoffel", (families,)),
    ("families.narayana_perturbed", (families,)),
    ("relations.run_check", (relations, cli)),
    ("relations.build_relation", (relations,)),
    ("relations.verify_identity", (relations,)),
    ("relations.check_relation", (relations, cli)),
    ("relations.check_pair_up", (relations, cli)),
    ("relations.check_narayana_even_quotient", (relations,)),
    ("relations.oracle_pair_up", (relations, cli)),
    ("rootfind.zeros_orthogonal", (rootfind, relations, cli)),
    ("rootfind.zeros_general", (rootfind, relations, cli)),
    ("interlacing.alternates", (relations,)),
    ("interlacing.interlaces_down", (relations,)),
    ("interlacing.added_point_interlace", (relations,)),
    ("interlacing.locate_point", (relations,)),
)


def _coeff_bits(poly: Polynomial) -> int:
    return max(
        (c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs),
        default=0,
    )


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of the intervals its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        # (name, start, end, parent index, point); a list while the span is open
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.bound_max = 0.0
        self.bits_max = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, point) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        # A sweep worker thread starts with an empty stack; its spans belong
        # to the command span open in the calling thread.
        parent = stack[-1] if stack else self._root
        if parent is not None and self.spans[parent][4] is not None:
            point = self.spans[parent][4]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, point])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        name, start, _, parent, point = self.spans[idx]
        # A tuple of plain values drops out of the garbage collector's tracking.
        self.spans[idx] = (name, start, end, parent, point)
        self._local.stack.pop()

    def wrap(self, name: str, fn, point_of=None):
        counts_errors = name.startswith("rootfind.")

        def traced(*args, **kwargs):
            idx = self._open(name, point_of(*args) if point_of else None)
            try:
                result = fn(*args, **kwargs)
            except rootfind.RootComputationError:
                if counts_errors:
                    self.counts["rootfind.errors"] += 1
                raise
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, result) -> None:
        if name.startswith("rootfind."):
            self.bound_max = max(self.bound_max, result.bound)
        elif name.startswith("interlacing.") and getattr(result, "kind", None) == INCONCLUSIVE:
            self.counts["interlacing.inconclusive"] += 1
        elif name == "relations.verify_identity":
            rel = args[0]
            self.bits_max = max(self.bits_max, *(_coeff_bits(p) for p in (rel.P, rel.G, rel.Q)))
        elif name == "relations.oracle_pair_up":
            self.counts["oracle.accepted"] += 1

    def command(self, argv: list[str]):
        """Run ``cli.main(argv)`` as the root span of one command."""
        point = " ".join(argv[:4]) if argv[0] == "check" else None
        idx = self._open("cli.main", point)
        self._root = idx
        try:
            return cli.main(argv)
        finally:
            self._root = None
            self._close(idx)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original functions on exit."""
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        point_of = {
            "relations.run_check": lambda check_id, n, params=None, *_: (
                f"{check_id} n={n} " + " ".join(f"{k}={v}" for k, v in sorted((params or {}).items()))
            ),
            "relations.oracle_pair_up": lambda n, seed, *_: f"pair-up n={n} seed={seed}",
            "relations.check_pair_up": lambda rel, *_: (
                f"pair-up n={rel.params.get('n')} seed={rel.params.get('seed')}"
            ),
        }
        checkers = dict(relations.SHAPE_CHECKERS)
        assemble = relations.assemble_pair_up

        def counted_assemble(*args, **kwargs):
            self.counts["oracle.attempts"] += 1
            return assemble(*args, **kwargs)

        try:
            for name, owners in PATCHES:
                attr = name.split(".", 1)[1]
                for owner in owners:
                    patch(owner, attr, self.wrap(name, getattr(owner, attr), point_of.get(name)))
            for shape, fn in checkers.items():
                relations.SHAPE_CHECKERS[shape] = self.wrap(f"relations.{fn.__name__}", fn)
            from_roots = Polynomial.__dict__["from_roots"].__func__
            patch(Polynomial, "from_roots", classmethod(self.wrap("poly.from_roots", from_roots)))
            patch(Polynomial, "__mul__", self.wrap("poly.mul", Polynomial.__dict__["__mul__"]))
            patch(relations, "assemble_pair_up", counted_assemble)
            yield self
        finally:
            relations.SHAPE_CHECKERS.update(checkers)
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Per-name call counts and self milliseconds over every recorded span."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0] + ".calls"] += 1
            totals[span[0] + ".self_ms"] += own * 1000.0
        return totals

    def self_seconds(self) -> float:
        """Sum of every span's self time: how much of the run the spans cover."""
        return sum(self_times(self.spans))

    def write(self, handle, label: str) -> None:
        """One JSON line per span, times in milliseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        for idx, (name, start, end, parent, point) in enumerate(self.spans):
            record = {
                "pass": label,
                "id": idx,
                "name": name,
                "start_ms": (start - t0) * 1000.0,
                "end_ms": (end - t0) * 1000.0,
                "parent": parent,
                "point": point,
            }
            handle.write(json.dumps(record) + "\n")
