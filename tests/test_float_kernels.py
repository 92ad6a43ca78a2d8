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
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from interlace import cli, relations
from interlace.families import (
    jacobi,
    krawtchouk,
    laguerre,
    meixner,
    monic_by_recurrence,
    narayana_spec,
)
from interlace.poly import Polynomial
from interlace.relations import CHECK_TO_PAIR, _a_positive, _min_cross_gap, build_relation
from interlace.rootfind import (
    RootComputationError,
    ZeroSet,
    _tridiagonal_eigenvalues,
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
    assert _tridiagonal_eigenvalues(diag, off) == want


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


def test_zeros_command_prints_an_inf_bound(capsys):
    argv = ["zeros", "--family", "meixner", "--t", "1/3", "--w", "999/1000", "--n", "60"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == math.inf


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
    real = relations.zeros_general

    def spy(p):
        zs = real(p)
        seen.append(zs)
        return zs

    monkeypatch.setattr(relations, "zeros_general", spy)
    assert cli.main(["check", "narayana-3.3", "--n", "40"]) == 0
    capsys.readouterr()
    p = build_relation(CHECK_TO_PAIR["narayana-3.3"], 40).P
    (zp,) = [zs for zs in seen if zs.source == p]
    assert len(zp) == 39
    assert zp.bound < 1e-4


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


@pytest.mark.parametrize("check_id", sorted(CHECK_TO_PAIR))
def test_a_positive_matches_on_the_checks(check_id):
    for n in (2, 5, 9):
        rel = build_relation(CHECK_TO_PAIR[check_id], n, CHECK_PARAMS.get(check_id))
        zg = relations._term_zeros(rel, "G")
        assert _a_positive(rel, zg) == a_positive_reference(rel, zg)
