"""Strict interlacing decisions between zero sets, with witnesses.

All orderings are decided against a separation floor: a comparison whose gap
falls below the floor is reported Inconclusive rather than pushed to either
side, because strict inequalities cannot be certified below numerical
resolution.  Failures carry the first violating index pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Default separation floor shared with the zero finder.
DEFAULT_FLOOR = 1e-9

ALTERNATE = "Alternate"
INTERLACE_DOWN = "InterlaceDown"
ADDED_LEFT = "AddedPointLeft"
ADDED_INTERIOR = "AddedPointInterior"
ADDED_RIGHT = "AddedPointRight"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"

#: added_point_interlace verdict kinds that mean the merged test passed.
ADDED_OK_KINDS = frozenset({ADDED_LEFT, ADDED_INTERIOR, ADDED_RIGHT})


class CommonPointError(ValueError):
    """The added point coincides with a zero of the reference set."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one interlacing test.

    ``witness`` is the (first-set index, second-set index) pair whose strict
    ordering failed; ``gap`` is the offending sub-floor gap for Inconclusive;
    ``gap_index`` is the 1-based slot j with x_j < E < x_{j+1} for an added
    interior point; ``orientation`` records which merged ordering passed.
    """

    kind: str
    witness: tuple[int, int] | None = None
    gap: float | None = None
    gap_index: int | None = None
    e_used: float | None = None
    e_position: str | None = None
    orientation: str | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "E": self.e_used,
            "witness": list(self.witness) if self.witness else None,
            "gap": self.gap,
            "orientation": self.orientation,
        }


def _zeros_list(zs) -> list[float]:
    if hasattr(zs, "zeros"):
        return [float(z) for z in zs.zeros]
    return [float(z) for z in zs]


def _scan_chain(chain, floor):
    """Walk an interleaved chain of (value, set_label, index) entries.

    Returns None when every adjacent pair is strictly increasing beyond the
    floor, else a Fail or Inconclusive verdict for the first offending pair.
    """
    for (v1, lab1, i1), (v2, lab2, i2) in zip(chain, chain[1:]):
        gap = v2 - v1
        if gap > floor:
            continue
        witness = (i1, i2) if lab1 == "p" else (i2, i1)
        if abs(gap) <= floor:
            return Verdict(INCONCLUSIVE, witness=witness, gap=gap)
        return Verdict(FAIL, witness=witness, gap=gap)
    return None


def alternates(zp, zq, floor: float = DEFAULT_FLOOR) -> Verdict:
    """Equal-degree alternation: p1 < q1 < p2 < q2 < ... < pn < qn strictly."""
    p, q = _zeros_list(zp), _zeros_list(zq)
    if len(p) != len(q):
        raise ValueError(f"alternates needs equal sizes, got {len(p)} and {len(q)}")
    chain = []
    for i in range(len(p)):
        chain.append((p[i], "p", i))
        chain.append((q[i], "q", i))
    bad = _scan_chain(chain, floor)
    return bad if bad is not None else Verdict(ALTERNATE)


def interlaces_down(zp, zq, floor: float = DEFAULT_FLOOR) -> Verdict:
    """One-degree-down interlacing: p1 < q1 < p2 < ... < q_{n-1} < pn strictly."""
    p, q = _zeros_list(zp), _zeros_list(zq)
    if len(p) != len(q) + 1:
        raise ValueError(
            f"interlaces_down needs sizes n and n-1, got {len(p)} and {len(q)}"
        )
    chain = []
    for i in range(len(q)):
        chain.append((p[i], "p", i))
        chain.append((q[i], "q", i))
    if p:
        chain.append((p[-1], "p", len(p) - 1))
    bad = _scan_chain(chain, floor)
    return bad if bad is not None else Verdict(INTERLACE_DOWN)


def locate_point(e: float, zg, floor: float = DEFAULT_FLOOR) -> tuple[str, int | None]:
    """Position of e against a zero set: below / interior (with 1-based slot) / above.

    Returns ("unknown", None) when e sits within the floor of a set member,
    where no strict side can be certified.
    """
    g = _zeros_list(zg)
    if not g:
        return "unknown", None
    if any(abs(e - x) <= floor for x in g):
        return "unknown", None
    if e < g[0]:
        return "below", None
    if e > g[-1]:
        return "above", None
    for j in range(len(g) - 1):
        if g[j] < e < g[j + 1]:
            return "interior", j + 1
    return "unknown", None


def added_point_interlace(zp, e, zg, floor: float = DEFAULT_FLOOR) -> Verdict:
    """Merge the point e into zp's zeros and test strict interlacing with zg.

    Two admissible shapes: |zp| + 1 == |zg| (the merged set alternates with
    zg, in either orientation) and |zp| == |zg| (the merged set interlaces
    one degree down onto zg).  The verdict kind records where e landed
    relative to zg; full interlacing without the added point is the caller's
    (checker's) own test.
    """
    if isinstance(e, Fraction):
        e = float(e)
    p, g = _zeros_list(zp), _zeros_list(zg)
    if len(p) + 1 != len(g) and len(p) != len(g):
        raise ValueError(
            f"added point needs sizes (n, n+1) or (n, n), got {len(p)} and {len(g)}"
        )
    if any(abs(e - x) <= floor for x in g):
        raise CommonPointError(
            f"added point {e} coincides with a zero of the reference set"
        )
    merged = sorted(p + [e])
    for a, b in zip(merged, merged[1:]):
        if b - a <= floor:
            return Verdict(
                INCONCLUSIVE,
                gap=b - a,
                e_used=e,
                e_position=locate_point(e, g, floor)[0],
            )
    position, slot = locate_point(e, g, floor)
    if len(merged) == len(g):
        verdict = alternates(merged, g, floor)
        orientation = "P_below_G"
        if verdict.kind != ALTERNATE and verdict.kind != INCONCLUSIVE:
            flipped = alternates(g, merged, floor)
            if flipped.kind in (ALTERNATE, INCONCLUSIVE):
                verdict, orientation = flipped, "G_below_P"
    else:
        verdict = interlaces_down(merged, g, floor)
        orientation = "P_below_G"
    if verdict.kind in (FAIL, INCONCLUSIVE):
        return Verdict(
            verdict.kind,
            witness=verdict.witness,
            gap=verdict.gap,
            e_used=e,
            e_position=position,
            gap_index=slot,
            orientation=orientation,
        )
    kind = {"below": ADDED_LEFT, "interior": ADDED_INTERIOR, "above": ADDED_RIGHT}.get(
        position, ADDED_INTERIOR
    )
    return Verdict(
        kind,
        gap_index=slot,
        e_used=e,
        e_position=position,
        orientation=orientation,
    )
