"""Exact order decisions on integers, with no float and no floor.

Points are integer numerators over one positive denominator D, as the
random oracles draw the zeros of G and Q.  Two kernels decide everything the
relations' exact route reads:

* ``signs_at``: the sign of an integer-vector polynomial at each point a / D.
  The powers of D are folded into the coefficients once per polynomial,
  w_k = nums[k] D^(m-k), so each point costs plain integer Horner,
  sum w_k a^k = D^m p(a / D), whose sign is the sign of p(a / D).
* ``first_break``: strict alternation p1 < q1 < p2 < q2 < ... of two
  integer lists, found by one scan of the interleaved list.

``sign_changes`` reads a sign vector at the zeros of G as the number of
zeros of the polynomial in each interval between them, once the signs at
-inf and +inf are added: a polynomial of degree d whose signs change d times
along the zeros of G has exactly one simple zero in each interval where the
sign changes, and none elsewhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def signs_at(nums: Sequence[int], points: Iterable[int], den: int) -> list[int]:
    """The sign (-1, 0 or 1) of sum nums[k] x^k at each x = a / ``den``, a in ``points``.

    ``den`` must be positive; the zero polynomial (``nums`` empty) is 0 everywhere.
    """
    w = []  # descending: w_k = nums[k] den^(m-k), top coefficient first
    power = 1
    for c in reversed(nums):
        w.append(c * power)
        power *= den
    out = []
    for a in points:
        acc = 0
        for c in w:
            acc = acc * a + c
        out.append((acc > 0) - (acc < 0))
    return out


def first_break(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int] | None:
    """Where p1 < q1 < p2 < q2 < ... first fails, for len(p) - len(q) in {0, 1}.

    None when every neighbouring pair of the interleaved list strictly
    increases.  Otherwise (i, j, gap) for the first pair that does not: it
    joins p[i] and q[j] (0-based), and ``gap`` is the later entry minus the
    earlier one, <= 0.
    """
    merged = [0] * (len(p) + len(q))
    merged[0::2], merged[1::2] = p, q
    for m in range(len(merged) - 1):
        gap = merged[m + 1] - merged[m]
        if gap <= 0:
            return (m + 1) // 2, m // 2, gap
    return None


def sign_changes(signs: Sequence[int], lead: int, degree: int) -> tuple[int, ...] | None:
    """1 or 0 for each interval of -inf < z_1 < ... < z_k < +inf: does the sign change there?

    ``signs`` are a polynomial's signs at the k points z_i, ``lead`` the
    sign of its leading coefficient and ``degree`` its degree, which give
    the signs at -inf and +inf.  None when some point is a zero.
    """
    if not all(signs):
        return None
    ext = [-lead if degree % 2 else lead, *signs, lead]
    return tuple(int(a != b) for a, b in zip(ext, ext[1:]))
