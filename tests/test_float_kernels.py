"""The fused float kernels against the routes they replaced, bit for bit.

``rootfind.zeros_orthogonal`` takes the Jacobi-matrix eigenvalues from
numpy's ``eigvalsh`` (LAPACK ``?syevd``) as they are, with the bound
n eps ||J||_inf; ``rootfind.zeros_general`` polishes each companion
eigenvalue by one inlined Horner loop.  The reference routes in
``float_reference`` (scipy's ``eigh_tridiagonal``, which calls ``?stevd``,
and the generic Newton polish) must give the same zeros with ``==``, and the
same bounds.  Every bound must enclose a zero, by exact signs.  The G/P gap
scan of the float order source, ``float_reference.min_cross_gap``, is checked
against its plain form.
"""

import dataclasses
import json
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from interlace import cli, relations
from interlace.families import (
    FamilySpec,
    jacobi,
    krawtchouk,
    laguerre,
    meixner,
    monic_by_recurrence,
    narayana_spec,
)
from interlace.certify import signs_at
from interlace.poly import Polynomial
from interlace.relations import build_relation
from interlace import rootfind
from interlace.rootfind import (
    RootComputationError,
    ZeroSet,
    _jacobi_matrix,
    zero_set,
    zeros_general,
    zeros_orthogonal,
)

import float_reference as ref


# -- tridiagonal path --------------------------------------------------------

degrees = st.integers(min_value=0, max_value=80)
above_minus_one = st.fractions(min_value=F(-99, 100), max_value=20, max_denominator=100)
open_unit = st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000)


@st.composite
def jacobi_specs(draw):
    n = draw(degrees)
    alpha, beta = draw(above_minus_one), draw(above_minus_one)
    # alpha + beta in {0, -1} is where the cancelled forms of the k = 0 and
    # k = 1 recurrence terms are used
    total = draw(st.sampled_from([None, F(0), F(-1)]))
    if total is not None and total - alpha > -1:
        beta = total - alpha
    return jacobi(alpha, beta, n)


@st.composite
def krawtchouk_specs(draw):
    n = draw(degrees)
    big_n = draw(st.one_of(st.just(max(n, 1)), st.integers(min_value=max(n, 1), max_value=120)))
    return krawtchouk(draw(open_unit), big_n, n)


orthogonal_specs = st.one_of(
    jacobi_specs(),
    st.builds(laguerre, above_minus_one, degrees),
    krawtchouk_specs(),
    st.builds(
        meixner,
        st.fractions(min_value=F(1, 100), max_value=20, max_denominator=100),
        st.one_of(open_unit, st.just(F(999, 1000))),
        degrees,
    ),
)


@given(orthogonal_specs)
@settings(max_examples=200, deadline=None)
@example(jacobi(F(-1, 2), F(-1, 2), 80))
@example(jacobi(F(1, 2), F(-1, 2), 80))
@example(jacobi(F(-99, 100), F(-1, 100), 1))
@example(jacobi(F(-99, 100), F(99, 100), 2))
@example(laguerre(F(-99, 100), 80))
@example(krawtchouk(F(1, 3), 80, 80))
@example(meixner(F(1, 3), F(999, 1000), 80))
def test_tridiagonal_path_matches_reference(spec):
    got = zeros_orthogonal(spec)
    zeros, bound = ref.zeros_orthogonal(spec)
    assert got.zeros == zeros
    assert got.bound == bound


def assert_bound_encloses_a_zero(p: Polynomial, zs: ZeroSet):
    """Each zero z of ``zs``, with the set's bound b, has p(z) = 0 or p(z - b) p(z + b) < 0.

    The signs are exact: ``Polynomial.evaluate`` at the rationals z +- b.
    """
    assert math.isfinite(zs.bound), zs.bound
    b = F(zs.bound)
    for z in map(F, zs.zeros):
        encloses = p.evaluate(z) == 0 or p.evaluate(z - b) * p.evaluate(z + b) < 0
        assert encloses, (float(z), zs.bound)


@given(orthogonal_specs)
@settings(max_examples=200, deadline=None)
@example(jacobi(2, 14, 1))
@example(jacobi(2, 14, 6))
@example(meixner(1, F(1, 2), 40))
@example(krawtchouk(F(1, 3), 43, 40))
@example(meixner(F(1, 3), F(999, 1000), 60))
def test_tridiagonal_bound_encloses_a_zero(spec):
    assert_bound_encloses_a_zero(monic_by_recurrence(spec), zeros_orthogonal(spec))


@pytest.mark.parametrize(
    "kind", ["narayana-reduced", "narayana-christoffel", "narayana-perturbed"]
)
def test_companion_bound_encloses_a_zero_on_narayana(kind):
    for n in range(2, 41):
        p = monic_by_recurrence(narayana_spec(kind, n))
        assert_bound_encloses_a_zero(p, zeros_general(p))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40, 60, 80, 200])
def test_mapped_narayana_bound_encloses_a_zero(n):
    # R_n and x R_n take the eigenvalues of P^(1,1)_(n-1), mapped; their
    # signs at each bracket's ends are exact, as integer Horner at the dyadic
    # ends over their common denominator
    for kind in ("narayana-reduced", "narayana"):
        p = monic_by_recurrence(narayana_spec(kind, n))
        zs = zero_set(narayana_spec(kind, n))
        assert zs.method == "MappedJacobiMatrix" and len(zs.zeros) == p.degree
        assert math.isfinite(zs.bound)
        ends = [F(z) + d * F(zs.bound) for z in zs.zeros for d in (-1, 0, 1)]
        den = max((x.denominator for x in ends), default=1)
        signs = signs_at(p.nums, [x.numerator * (den // x.denominator) for x in ends], den)
        for low, mid, high in zip(signs[0::3], signs[1::3], signs[2::3]):
            assert mid == 0 or low * high < 0, (kind, n)


def test_mapped_narayana_zeros_agree_with_the_companion_path():
    for n in range(2, 41):
        mapped = zero_set(narayana_spec("narayana-reduced", n))
        companion = zeros_general(monic_by_recurrence(narayana_spec("narayana-reduced", n)))
        slack = mapped.bound + companion.bound
        for x, z in zip(mapped.zeros, companion.zeros):
            assert abs(x - z) <= slack, (n, x, z, slack)


@st.composite
def raw_tridiagonals(draw):
    """(diag, off) at n = 2..80 with entries scaled from 1e-6 to 1e6, or
    near 1e+-155 and 1e+-300, where LAPACK scales the matrix first.

    Entries are drawn as ``zeros_orthogonal`` forms them: the diagonal never
    holds -0.0 (an int numerator over an int denominator) and the
    off-diagonal is a square root, so not negative.  A -0.0 on the diagonal
    is where the two routes part: at n = 62 with the diagonal zero but
    d[60] = -0.0 and e[59] = e[60] = 1, ``?syevd`` gives -1.4142135623730951
    where ``?stevd`` gives -1.4142135623730954.
    """
    n = draw(st.integers(min_value=2, max_value=80))
    exponent = draw(
        st.one_of(
            st.floats(min_value=-6, max_value=6),
            st.sampled_from([-300, -155, 155, 300]).flatmap(
                lambda e: st.floats(min_value=e - 2, max_value=e + 2)
            ),
        )
    )
    scale = 10.0**exponent
    unit = st.floats(min_value=-1, max_value=1)
    diag = draw(st.lists(unit, min_size=n, max_size=n))
    off = draw(st.lists(unit, min_size=n - 1, max_size=n - 1))
    return [x * scale + 0.0 for x in diag], [abs(x) * scale for x in off]


@given(raw_tridiagonals())
@settings(max_examples=300, deadline=None)
@example(([1e300, -1e300, 1e300], [1e300, 1e300]))
@example(([1e-300, 0.0, -1e-300], [1e-300, 2e-300]))
@example(([0.0] * 80, [1.0] * 79))
def test_tridiagonal_eigenvalues_match_stevd(matrix):
    diag, off = matrix
    want = eigh_tridiagonal(diag, off, eigvals_only=True).tolist()
    assert np.linalg.eigvalsh(_jacobi_matrix(diag, off)).tolist() == want


def _lapack_fails(a, UPLO="L"):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_lapack_failure_is_a_root_computation_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _lapack_fails)
    with pytest.raises(
        RootComputationError, match=r"\?syevd failed \(Eigenvalues did not converge\)"
    ) as info:
        zeros_orthogonal(jacobi(2, 14, 5))
    assert str(info.value).endswith("on the Jacobi matrix of jacobi n=5")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    monkeypatch.setattr(np, "roots", _lapack_fails)
    with pytest.raises(RootComputationError) as info:
        zeros_general(Polynomial.from_roots([F(1), F(2), F(3)]))
    assert str(info.value) == (
        "LAPACK ?geev failed (Eigenvalues did not converge) on the companion matrix "
        "of a degree-3 polynomial"
    )
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_no_sweep_reaches_lapack(monkeypatch, capsys, tmp_path):
    # A LAPACK failure once became a sweep's error row; now no named check
    # and no oracle solves a zero set, so a sweep passes with the one
    # zero-set entry refused.
    ref.refuse_zero_sets(monkeypatch)
    for check_id in ("narayana-3.3", "narayana-3.4", "laguerre-3.7"):
        params = ', "params": {"alpha": [0]}' if check_id == "laguerre-3.7" else ""
        spec = tmp_path / f"{check_id}.json"
        spec.write_text(f'{{"check": "{check_id}", "n": "2..5"{params}}}')
        assert cli.main(["sweep", str(spec), "--workers", "1"]) == 0
        assert ",error" not in capsys.readouterr().out


def test_lapack_failure_in_the_zeros_command_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvalsh", _lapack_fails)
    code = cli.main(["zeros", "--family", "laguerre", "--alpha", "1", "--n", "3"])
    assert "LAPACK ?syevd failed" in capsys.readouterr().err
    assert code == 3


def test_bound_is_inf_when_a_zero_has_none():
    # Companion path: Horner overflows at the zero 1e155.
    zs = zeros_general(Polynomial.from_roots([F(1), F(2), F(10**155)]))
    assert zs.zeros[-1] == 1e155 and zs.bound == math.inf
    # The monic recurrence overflowed at the largest zeros of this member
    # (2.2e5), so a recurrence residual had no bound there; n eps ||J||_inf
    # is finite.
    spec = meixner(F(1, 3), F(999, 1000), 60)
    zs = zeros_orthogonal(spec)
    assert math.isfinite(zs.bound) and zs.bound == ref.zeros_orthogonal(spec)[1]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_zeros_command_prints_a_null_bound(monkeypatch, capsys):
    # JSON has no Infinity: a set with no finite bound prints null.  No
    # family member's set has one, so the command is handed one.
    zs = zeros_general(Polynomial.from_roots([F(1), F(2), F(10**155)]))
    monkeypatch.setattr(cli, "zero_set", lambda spec: zs)
    argv = ["zeros", "--family", "laguerre", "--alpha", "0", "--n", "3"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert payload["bound"] is None and len(payload["zeros"]) == 3


# -- companion path ----------------------------------------------------------


def assert_companion_matches(p: Polynomial):
    got = zeros_general(p)
    zeros, bound = ref.zeros_general(p)
    assert got.zeros == zeros
    assert got.bound == bound


@pytest.mark.parametrize(
    "kind", ["narayana-reduced", "narayana-christoffel", "narayana-perturbed"]
)
def test_companion_path_matches_reference_on_narayana(kind):
    # up to n = 50, the README's ceiling for the companion path
    for n in range(2, 51):
        assert_companion_matches(monic_by_recurrence(narayana_spec(kind, n)))


@pytest.mark.parametrize("seed", [0, 1])
def test_companion_path_matches_reference_on_oracle_p(seed):
    for n in range(1, 41):
        assert_companion_matches(relations.oracle_pair_up(n, seed).P)


def test_companion_path_takes_float_polynomials():
    # The path works on the correctly rounded coefficients, each float(c).
    p = Polynomial([F(-3, 7), F(1, 5), 2, 1])
    assert p.float_coeffs() == tuple(float(c) for c in p.coeffs)
    assert_companion_matches(p)


def test_running_bound_is_tighter_than_the_a_priori_one():
    for kind in ("narayana-reduced", "narayana-christoffel", "narayana-perturbed"):
        p = monic_by_recurrence(narayana_spec(kind, 40))
        zs = zeros_general(p)
        coeffs = p.float_coeffs()
        old = max(ref.a_priori_bound(coeffs, z) for z in zs.zeros)
        assert zs.bound < old / 10, (kind, zs.bound, old)


def test_narayana_check_at_forty_has_a_tight_p_bound():
    # The a-priori Horner bound put this zero set at 7.5e-4.  The check reads
    # no zero set now; its float reference solves P on the companion path.
    rel = build_relation("narayana-3.3", 40)
    zp = ref.solve(ref.relation_terms(rel)[2])
    assert zp.zeros == zeros_general(rel.P).zeros and zp.method == "Companion"
    assert len(zp.zeros) == 39
    assert zp.bound < 1e-4


# -- one set against the reference ----------------------------------------


def assert_matches_alone(term):
    """``solve(term)`` is the set, or raises the failure, of the reference solve."""
    want = ref.solve_alone(term)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            ref.solve(term)
        assert str(info.value) == str(want), term
    else:
        got = ref.solve(term)
        # By repr, so a zero's sign (-0.0 against 0.0) and NaN compare too.
        assert repr((got.zeros, got.bound, got.method)) == repr(
            (want.zeros, want.bound, want.method)
        )


NARAYANA_KINDS = ("narayana-reduced", "narayana-christoffel", "narayana-perturbed")
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)

companion_polys = st.one_of(
    # n >= 51 gives complex companion eigenvalues
    st.builds(
        lambda kind, n: monic_by_recurrence(narayana_spec(kind, n)),
        st.sampled_from(NARAYANA_KINDS),
        st.integers(min_value=2, max_value=60),
    ),
    st.builds(
        lambda n, seed: relations.oracle_pair_up(n, seed).P,
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=3),
    ),
    # x = 0 is a zero: np.roots strips the trailing zero coefficients; a
    # repeated zero fails the strict order
    st.lists(small_fractions, max_size=5).map(lambda roots: Polynomial.from_roots([F(0), *roots])),
    # degree 1
    st.tuples(small_fractions, small_fractions.filter(bool)).map(lambda c: Polynomial(list(c))),
)

# Unvalidated members outside the orthogonality region: l_2 <= 0.
nonpositive_specs = st.builds(
    lambda a, n: FamilySpec("laguerre", (("alpha", F(-a)),), n),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=8),
)

terms = st.one_of(orthogonal_specs, companion_polys, nonpositive_specs)


@given(st.lists(terms, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
@example(
    [
        monic_by_recurrence(narayana_spec("narayana-reduced", 55)),
        monic_by_recurrence(narayana_spec("narayana-christoffel", 55)),
        monic_by_recurrence(narayana_spec("narayana-perturbed", 55)),
        Polynomial.from_roots([F(0), F(1, 2), F(-3)]),
        Polynomial.from_roots([F(0), F(0), F(2)]),
        Polynomial([F(1, 3), 2]),
        FamilySpec("laguerre", (("alpha", F(-3)),), 4),
        laguerre(F(1, 2), 4),
        meixner(F(1, 3), F(999, 1000), 60),
    ]
)
@example([Polynomial([0, 1])])  # the zero at the origin is 0.0, not -0.0
def test_each_set_matches_it_solved_alone(drawn):
    for term in drawn:
        assert_matches_alone(term)


@pytest.mark.parametrize("n", [1, 4, 8, 13])
def test_a_degree_group_polished_at_once_matches(n):
    # 16 members of one degree on each path, each set solved on its own.
    specs = [jacobi(F(i, 4) - F(1, 2), F(3 * i, 5), n) for i in range(8)]
    specs += [meixner(F(i + 1, 3), F(999, 1000), n) for i in range(8)]
    polys = [relations.oracle_pair_up(n, seed).P for seed in range(16)]
    for term in specs + polys:
        assert_matches_alone(term)


def _started_off(zeros, k):
    """Starting points off the zeros by relative 1e-2 .. 1e-16, so they stop
    after one to all three Newton steps; one row starts at inf, and one
    zero at nan."""
    if k == 0:
        return [math.inf] * len(zeros)
    start = [z * (1 + 10.0 ** -(2 + (k + 2 * j) % 15)) for j, z in enumerate(zeros)]
    if k == 1:
        start[0] = math.nan
    return start


def test_polish_from_starts_off_the_zeros_matches_the_reference():
    # Starts off the zeros reach the one-, two- and three-step stops, the
    # inf row and the NaN zero, which the eigenvalue starts of the tests
    # above do not.  Compared by repr, so NaN zeros and bounds compare too.
    polys = [relations.oracle_pair_up(9, seed).P for seed in range(7)]
    for k, p in enumerate(polys):
        coeffs = p.float_coeffs()
        for x in _started_off(zeros_general(p).zeros, k):
            zero, _ = ref.newton_polish(x, lambda x: ref.horner_pair(coeffs, x))
            want = (zero, ref.companion_bound(coeffs, zero))
            assert repr(rootfind._polish_horner(coeffs[::-1], x)) == repr(want)


def test_a_failed_term_raises_in_the_checkers_read_order():
    # Narayana at n = 55, every term on the companion path: G, Q and P each
    # fail, with their own messages; the float reference raises G's, as it
    # solves G first.  With no specs, every term is a polynomial.
    rel = dataclasses.replace(build_relation("narayana-3.3", 55), specs={})
    errors = []
    for term in ref.relation_terms(rel):
        with pytest.raises(RootComputationError) as info:
            ref.solve(term)
        errors.append(str(info.value))
    assert len(set(errors)) == 3
    with pytest.raises(RootComputationError, match=re.escape(errors[0])):
        ref.float_report(rel)


# -- hypothesis scans --------------------------------------------------------

sorted_sets = st.lists(
    st.one_of(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=-20, max_value=20).map(float),
    ),
    max_size=12,
    unique=True,
).map(lambda xs: ZeroSet(tuple(sorted(xs)), 0.0, "test"))


@given(sorted_sets, sorted_sets)
@settings(max_examples=300, deadline=None)
@example(ZeroSet((-1.0, 2.0), 0.0, "test"), ZeroSet((2.0,), 0.0, "test"))
@example(ZeroSet((), 0.0, "test"), ZeroSet((1.0,), 0.0, "test"))
def test_min_cross_gap_is_the_all_pairs_minimum(za, zb):
    want = min((abs(a - b) for a in za.zeros for b in zb.zeros), default=float("inf"))
    assert ref.min_cross_gap(za, zb) == want
    assert ref.min_cross_gap(zb, za) == want
