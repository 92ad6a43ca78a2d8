"""The fused float kernels against the routes they replaced, bit for bit.

``rootfind.zeros_orthogonal`` takes the Jacobi-matrix eigenvalues from
numpy's ``eigvalsh`` (LAPACK ``?syevd``) and polishes each eigenvalue by one
inlined recurrence loop; ``rootfind.zeros_general`` polishes each companion
eigenvalue by one inlined Horner loop.  The reference routes in
``float_reference`` (scipy's ``eigh_tridiagonal``, which calls ``?stevd``,
and the generic Newton polish) must give the same zeros with ``==``, and the
same tridiagonal bound.  The hypothesis scans of ``relations._base_report``
are checked the same way against their plain forms.
"""

import json
import math
import re
import types
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
    recurrence_steps,
)
from interlace.poly import Polynomial
from interlace.relations import CHECK_IDS, _a_positive, _min_cross_gap, build_relation
from interlace import rootfind
from interlace.rootfind import (
    RootComputationError,
    Term,
    ZeroSet,
    _jacobi_matrices,
    zero_set,
    zero_sets,
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
    assert np.linalg.eigvalsh(_jacobi_matrices([diag], [off]))[0].tolist() == want


def _eigvalsh_fails(a, UPLO="L"):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_lapack_failure_is_a_root_computation_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _eigvalsh_fails)
    with pytest.raises(
        RootComputationError, match=r"\?syevd failed \(Eigenvalues did not converge\)"
    ):
        zeros_orthogonal(jacobi(2, 14, 5))
    # n = 1 needs no eigensolve
    assert zeros_orthogonal(jacobi(2, 14, 1)).zeros == ref.zeros_orthogonal(jacobi(2, 14, 1))[0]


def test_lapack_failure_becomes_a_sweep_error_row(monkeypatch, capsys, tmp_path):
    # LinAlgError is a ValueError, which the CLI would report as invalid input.
    monkeypatch.setattr(np.linalg, "eigvalsh", _eigvalsh_fails)
    spec = tmp_path / "sweep.json"
    spec.write_text('{"check": "laguerre-3.7", "n": "2..3", "params": {"alpha": [1]}}')
    code = cli.main(["sweep", str(spec), "--workers", "1"])
    out = capsys.readouterr().out
    assert ",build,error: RootComputationError: LAPACK ?syevd failed" in out
    assert code == 3


def test_bound_is_inf_when_a_zero_has_none():
    # The monic recurrence overflows at the largest zeros (2.2e5 at n = 60),
    # where p and p' are inf and that zero's own bound is NaN.
    zs = zeros_orthogonal(meixner(F(1, 3), F(999, 1000), 60))
    assert zs.bound == math.inf
    # At n = 40 every zero has a finite bound: the set's bound is their largest.
    zs = zeros_orthogonal(meixner(F(1, 3), F(999, 1000), 40))
    _, bound = ref.zeros_orthogonal(meixner(F(1, 3), F(999, 1000), 40))
    assert math.isfinite(zs.bound) and zs.bound == bound
    # Companion path: Horner overflows at the zero 1e155.
    zs = zeros_general(Polynomial.from_roots([F(1), F(2), F(10**155)]))
    assert zs.max == 1e155 and zs.bound == math.inf


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_zeros_command_prints_a_null_bound(capsys):
    # JSON has no Infinity: a set with no finite bound prints null.
    argv = ["zeros", "--family", "meixner", "--t", "1/3", "--w", "999/1000", "--n", "60"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert payload["bound"] is None and len(payload["zeros"]) == 60
    zs = zeros_orthogonal(meixner(F(1, 3), F(999, 1000), 60))
    assert json.loads(json.dumps(zs.to_json()), parse_constant=_no_constant)["bound"] is None


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
    for n in range(2, 41):
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


def test_narayana_check_at_forty_has_a_tight_p_bound(monkeypatch, capsys):
    # The a-priori Horner bound put this zero set at 7.5e-4.
    seen = []
    real = relations.zero_sets

    def spy(terms):
        found = real(terms)
        seen.extend(found)
        return found

    monkeypatch.setattr(relations, "zero_sets", spy)
    assert cli.main(["check", "narayana-3.3", "--n", "40"]) == 0
    capsys.readouterr()
    p = build_relation("narayana-3.3", 40).P
    (zp,) = [zs for zs in seen if zs.source == p]
    assert len(zp) == 39
    assert zp.bound < 1e-4


# -- the batch entry ---------------------------------------------------------


def assert_batch_matches_alone(terms):
    """Every result of one batch is the set, or the failure, of its term solved alone."""
    found = zero_sets(terms)
    assert len(found) == len(terms)
    for term, got in zip(terms, found):
        want = ref.solve_alone(term)
        if isinstance(want, Exception):
            assert isinstance(got, Exception), (term, got)
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert isinstance(got, ZeroSet), (term, got)
            assert (got.zeros, got.bound, got.method) == (want.zeros, want.bound, want.method)


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

exact_terms = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), max_size=8, unique=True
).map(lambda nums: Term(roots=(tuple(nums), 4096)))

terms = st.one_of(
    orthogonal_specs.map(lambda spec: Term(spec=spec)),
    companion_polys.map(lambda p: Term(poly=p)),
    nonpositive_specs.map(lambda spec: Term(spec=spec)),
    exact_terms,
)


@st.composite
def batches(draw):
    """Terms with some repeated: a repeat is solved once and shares its result."""
    base = draw(st.lists(terms, min_size=1, max_size=10))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4))
    return draw(st.permutations(base + repeats))


@given(batches())
@settings(max_examples=100, deadline=None)
@example(
    [
        Term(poly=monic_by_recurrence(narayana_spec("narayana-reduced", 55))),
        Term(poly=monic_by_recurrence(narayana_spec("narayana-christoffel", 55))),
        Term(poly=monic_by_recurrence(narayana_spec("narayana-perturbed", 55))),
        Term(poly=Polynomial.from_roots([F(0), F(1, 2), F(-3)])),
        Term(poly=Polynomial.from_roots([F(0), F(0), F(2)])),
        Term(poly=Polynomial([F(1, 3), 2])),
        Term(spec=FamilySpec("laguerre", (("alpha", F(-3)),), 4)),
        Term(spec=laguerre(F(1, 2), 4)),
        Term(spec=laguerre(F(1, 2), 4)),
        Term(spec=meixner(F(1, 3), F(999, 1000), 60)),
    ]
)
def test_batch_matches_each_set_solved_alone(batch):
    assert_batch_matches_alone(batch)


@pytest.mark.parametrize("n", [1, 4, 8, 13])
def test_a_degree_group_polished_at_once_matches(n):
    # 16 members of one degree: at n >= 4 the group holds at least
    # _VECTOR_ZEROS zeros and takes the NumPy polish.
    specs = [jacobi(F(i, 4) - F(1, 2), F(3 * i, 5), n) for i in range(8)]
    specs += [meixner(F(i + 1, 3), F(999, 1000), n) for i in range(8)]
    assert_batch_matches_alone([Term(spec=spec) for spec in specs])
    polys = [relations.oracle_pair_up(n, seed).P for seed in range(16)]
    assert_batch_matches_alone([Term(poly=p) for p in polys])


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


@pytest.mark.parametrize("threshold", [1, 30, 50, 60, 10**6])
def test_numpy_polish_is_the_scalar_loop_zero_by_zero(monkeypatch, threshold):
    # Of the 63 zeros below, 53, 47 and 25 are still stepping before the
    # recurrence polish's second, third and last evaluation, and 46 and 24
    # before Horner's second and third step: the thresholds hand the
    # stragglers to the scalar loop at each of those points, at none (1) or
    # at once (10**6).  Compared by repr, so NaN bounds compare too.
    monkeypatch.setattr(rootfind, "_VECTOR_ZEROS", threshold)
    specs = [jacobi(F(i, 4) - F(1, 2), F(3 * i, 5), 9) for i in range(7)]
    rows = [[(a / b, u / v) for a, b, u, v in recurrence_steps(spec)] for spec in specs]
    raws = [_started_off(zero_set(Term(spec=spec)).zeros, k) for k, spec in enumerate(specs)]
    got = rootfind._polish_recurrence_rows(rows, raws)
    polished = [[rootfind._polish_recurrence(row, x) for x in raw] for row, raw in zip(rows, raws)]
    assert repr(got) == repr(([[z for z, _ in r] for r in polished], [[b for _, b in r] for r in polished]))
    polys = [relations.oracle_pair_up(9, seed).P for seed in range(7)]
    rows = [p.float_coeffs()[::-1] for p in polys]
    raws = [_started_off(zero_set(Term(poly=p)).zeros, k) for k, p in enumerate(polys)]
    got = rootfind._polish_horner_rows(rows, raws)
    polished = [[rootfind._polish_horner(row, x) for x in raw] for row, raw in zip(rows, raws)]
    assert repr(got) == repr(([[z for z, _ in r] for r in polished], [[b for _, b in r] for r in polished]))


def test_a_group_beyond_the_stack_budget_is_split_between_sets(monkeypatch):
    calls = []
    real_eigvalsh, real_eigvals = np.linalg.eigvalsh, np.linalg.eigvals

    def eigvalsh(a, UPLO="L"):
        calls.append(a.shape)
        return real_eigvalsh(a, UPLO)

    def eigvals(a):
        calls.append(a.shape)
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    # 80^2 entries per Jacobi matrix and 23^2 per companion matrix
    specs = [jacobi(F(i, 3), F(1, 2), 80) for i in range(7)]
    polys = [relations.oracle_pair_up(23, seed).P for seed in range(40)]
    assert_batch_matches_alone([Term(spec=spec) for spec in specs] + [Term(poly=p) for p in polys])
    stacks = [shape for shape in calls if len(shape) == 3]
    assert [shape[0] for shape in stacks if shape[1] == 80] == [2, 2, 2, 1]
    assert [shape[0] for shape in stacks if shape[1] == 23] == [30, 10]
    assert all(count * order * order <= rootfind._STACK_ENTRIES for count, order, _ in stacks)


def test_lapack_failure_is_charged_to_its_own_set(monkeypatch):
    # One Jacobi matrix of a group fails in LAPACK; the stacked call raises
    # for the group, and only that set keeps the failure.
    specs = [jacobi(F(i, 3), 2, 6) for i in range(6)]
    bad = float(ref.recurrence_coeffs(specs[2]).c[0])
    real = np.linalg.eigvalsh

    def eigvalsh(a, UPLO="L"):
        if np.any(a[..., 0, 0] == bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    found = zero_sets([Term(spec=spec) for spec in specs])
    assert [isinstance(r, RootComputationError) for r in found] == [False, False, True, False, False, False]
    assert str(found[2]) == (
        "LAPACK ?syevd failed (Eigenvalues did not converge) on the Jacobi matrix of jacobi n=6"
    )
    assert isinstance(found[2].__cause__, np.linalg.LinAlgError)
    assert_batch_matches_alone([Term(spec=spec) for spec in specs])


def test_a_failed_term_raises_in_the_checkers_read_order():
    # Narayana at n = 55: G, Q and P each fail, with their own messages; the
    # report raises G's, as it did when it solved G first.
    rel = build_relation("narayana-3.3", 55)
    found = zero_sets(relations.relation_terms(rel))
    assert all(isinstance(r, RootComputationError) for r in found)
    assert len({str(r) for r in found}) == 3
    with pytest.raises(RootComputationError, match=re.escape(str(found[0]))):
        relations.check_relation(rel)


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
    assert _min_cross_gap(za, zb) == want
    assert _min_cross_gap(zb, za) == want


def a_positive_reference(rel, zg, grid_points=32):
    """The scan by the reference Horner loop on ``A.float_coeffs()``."""
    coeffs = rel.A.float_coeffs()

    def value(x):
        return ref.horner_pair(coeffs, x)[0]

    for z in zg.zeros:
        if value(z) <= 0:
            return False
    lo, hi = relations._sample_interval(rel, zg)
    margin = (hi - lo) / (4 * grid_points)
    lo, hi = lo + margin, hi - margin
    for i in range(grid_points):
        x = lo + (hi - lo) * i / (grid_points - 1)
        if value(x) <= 0:
            return False
    return True


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
supports = st.tuples(st.one_of(st.none(), small), st.one_of(st.none(), small))


@given(st.lists(small, max_size=4), sorted_sets, small, supports)
@settings(max_examples=300, deadline=None)
def test_a_positive_matches_evaluate_loop(a_coeffs, zg, e, support):
    rel = types.SimpleNamespace(A=Polynomial(a_coeffs), E=e, support=support)
    assert _a_positive(rel, zg) == a_positive_reference(rel, zg)


CHECK_PARAMS = {
    "jacobi-3.5": {"alpha": F(2), "beta": F(14)},
    "jacobi-3.6": {"alpha": F(-1, 2), "beta": F(5, 2)},
    "krawtchouk-3.1": {"p": F(1, 3), "N": F(12)},
    "laguerre-3.7": {"alpha": F(1, 2)},
    "meixner-3.2": {"t": F(1), "w": F(1, 2)},
}


@pytest.mark.parametrize("check_id", sorted(CHECK_IDS))
def test_a_positive_matches_on_the_checks(check_id):
    for n in (2, 5, 9):
        rel = build_relation(check_id, n, CHECK_PARAMS.get(check_id))
        zg = zero_set(relations.relation_terms(rel)[0])
        assert _a_positive(rel, zg) == a_positive_reference(rel, zg)
