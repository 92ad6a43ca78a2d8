"""Exact order decisions on integers, with no float and no floor.

The relations read each order from one of three sources; the two exact ones
rest on the kernels here.  Points are integer numerators over one positive
denominator D, as the random oracles draw the zeros of G and Q, or rationals
r / s placed among the zeros of a recurrence chain's member.

* ``signs_at``: the sign of an integer-vector polynomial at each point a / D.
  The powers of D are folded into the coefficients once per polynomial,
  w_k = nums[k] D^(m-k), so each point costs plain integer Horner,
  sum w_k a^k = D^m p(a / D), whose sign is the sign of p(a / D).
* ``first_break``: strict alternation p1 < q1 < p2 < q2 < ... of two
  integer lists, found by one scan of the interleaved list.
* ``zeros_above``: how many zeros of the chain member p_m lie above r / s,
  by the sign changes along p_0(r / s), ..., p_m(r / s), which the
  recurrence p_(k+1) = (x - c_(k+1)) p_k - l_(k+1) p_(k-1) forms on
  integers.  With every l_k > 0 this is the Sturm sequence of the Jacobi
  matrix (Wilkinson, *The Algebraic Eigenvalue Problem*, 1965): it has as
  many sign changes as p_m has zeros above the point.
* ``chain_coefficients``: the coefficients c with q = sum c_i basis_i, read
  off the top coefficients and certified by a zero remainder.

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


def zeros_above(steps: Sequence[tuple[int, int, int, int]], r: int, s: int) -> tuple[int, bool]:
    """How many zeros of p_m lie above r / s, and whether r / s is one of them.

    ``steps`` are the m steps (a, b, u, v) of a chain, c_k = a / b and
    l_k = u / v over positive denominators, every l_k past the first
    positive; p_m is the chain's monic member of degree m, and ``s`` > 0.
    Each step is scaled by s b v, so the pair of terms stays one positive
    multiple of (p_(k-1), p_k) at r / s; dividing out its gcd would keep the
    terms shorter, but costs more than it saves.  A zero term is skipped:
    where p_k = 0 for k < m its neighbours have opposite signs, and where
    p_m = 0 the changes along p_0, ..., p_(m-1) count the zeros of p_(m-1)
    above the point, which are those of p_m, by interlacing.
    """
    prev, cur = 0, 1  # one positive multiple of p_(k-1)(r / s) and p_k(r / s)
    changes, last = 0, 1  # sign changes so far, and the sign of the last nonzero term
    for a, b, u, v in steps:
        # s b v p_(k+1) = (r b - a s) v p_k - u s b p_(k-1)
        sb = s * b
        prev, cur = cur * sb * v, (r * b - a * s) * v * cur - u * sb * prev
        if cur and (cur < 0) != (last < 0):
            changes, last = changes + 1, -last
    return changes, cur == 0


def chain_coefficients(q: tuple[Sequence[int], int], basis) -> list[tuple[int, int]] | None:
    """The c with q = sum c_i basis_i exactly, or None when there are none.

    ``q`` and each member of ``basis`` are integer vectors (nums, den) with
    value nums / den; the basis descends one degree at a time from the
    first member's, and no member is zero.  Each c_i comes as an integer
    pair (num, den), den != 0 and not reduced.  It is read off the
    remainder's coefficient at its member's degree, and that member taken
    away, on integers; q is such a combination iff the remainder left at
    the end is zero.
    """
    nums, den = q
    top = len(basis[0][0])
    if len(nums) > top:
        return None
    rest = [*nums, *[0] * (top - len(nums))]  # the remainder times den
    out = []
    for b_nums, b_den in basis:
        d = len(b_nums) - 1
        lead, c = b_nums[d], rest[d]
        out.append((c * b_den, den * lead))
        if c:
            # rest / den - (c b_den / (den lead)) (b_nums / b_den)
            #   = (lead rest - c b_nums) / (den lead)
            for k in range(d + 1, top):
                rest[k] *= lead
            for k, y in enumerate(b_nums):
                rest[k] = lead * rest[k] - c * y
            den *= lead
    return None if any(rest) else out
