"""Strict interlacing decisions between zero sets, with witnesses.

All orderings are decided against one fixed separation floor,
``DEFAULT_FLOOR``: a comparison whose gap falls below it is reported
Inconclusive rather than pushed to either side, because strict inequalities
cannot be certified below numerical resolution.  Failures carry the first
violating index pair.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

#: The one separation floor, tied to double resolution; nothing resets it.
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
    return list(map(float, zs.zeros if hasattr(zs, "zeros") else zs))


def _scan(p: list[float], q: list[float], passed: Verdict) -> Verdict:
    """``passed`` when every neighbouring gap of p1, q1, p2, q2, ... exceeds the floor.

    Otherwise a Fail or Inconclusive verdict for the first gap that does not,
    with its (p index, q index) witness: the gap after position m of the
    interleaved list joins p[(m + 1) // 2] and q[m // 2].
    """
    merged = [0.0] * (len(p) + len(q))
    merged[0::2], merged[1::2] = p, q
    if all(map(DEFAULT_FLOOR.__lt__, map(sub, merged[1:], merged))):
        return passed
    m, gap = next(
        (m, b - a) for m, (a, b) in enumerate(zip(merged, merged[1:])) if not b - a > DEFAULT_FLOOR
    )
    kind = INCONCLUSIVE if abs(gap) <= DEFAULT_FLOOR else FAIL
    return Verdict(kind, witness=((m + 1) // 2, m // 2), gap=gap)


_ALTERNATES = Verdict(ALTERNATE)
_INTERLACES_DOWN = Verdict(INTERLACE_DOWN)


def alternates(zp, zq) -> Verdict:
    """Equal-degree alternation: p1 < q1 < p2 < q2 < ... < pn < qn strictly."""
    p, q = _zeros_list(zp), _zeros_list(zq)
    if len(p) != len(q):
        raise ValueError(f"alternates needs equal sizes, got {len(p)} and {len(q)}")
    return _scan(p, q, _ALTERNATES)


def interlaces_down(zp, zq) -> Verdict:
    """One-degree-down interlacing: p1 < q1 < p2 < ... < q_{n-1} < pn strictly."""
    p, q = _zeros_list(zp), _zeros_list(zq)
    if len(p) != len(q) + 1:
        raise ValueError(
            f"interlaces_down needs sizes n and n-1, got {len(p)} and {len(q)}"
        )
    return _scan(p, q, _INTERLACES_DOWN)


def locate_point(e: float, zg) -> tuple[str, int | None]:
    """Position of e against an ascending zero set: below / interior (with 1-based slot) / above.

    Returns ("unknown", None) when e sits within the floor of a set member,
    where no strict side can be certified; only the members on either side
    of e can be that close.
    """
    g = _zeros_list(zg)
    j = bisect_right(g, e)
    if (
        not g
        or (j and e - g[j - 1] <= DEFAULT_FLOOR)
        or (j < len(g) and g[j] - e <= DEFAULT_FLOOR)
    ):
        return "unknown", None
    if j == 0:
        return "below", None
    if j == len(g):
        return "above", None
    return "interior", j


def added_point_interlace(zp, e, zg) -> Verdict:
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
    position, slot = locate_point(e, g)
    if position == "unknown" and g:
        raise CommonPointError(
            f"added point {e} coincides with a zero of the reference set"
        )
    merged = sorted(p + [e])
    for a, b in zip(merged, merged[1:]):
        if b - a <= DEFAULT_FLOOR:
            return Verdict(INCONCLUSIVE, gap=b - a, e_used=e, e_position=position)
    if len(merged) == len(g):
        verdict = alternates(merged, g)
        orientation = "P_below_G"
        if verdict.kind != ALTERNATE and verdict.kind != INCONCLUSIVE:
            flipped = alternates(g, merged)
            if flipped.kind in (ALTERNATE, INCONCLUSIVE):
                verdict, orientation = flipped, "G_below_P"
    else:
        verdict = interlaces_down(merged, g)
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
