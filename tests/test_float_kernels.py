"""The fused float kernels against the routes they replaced, bit for bit.

``rootfind.zeros_orthogonal`` calls LAPACK ``?stevd`` directly and polishes
each eigenvalue by one inlined recurrence loop; ``rootfind.zeros_general``
polishes each companion eigenvalue by one inlined Horner loop.  The reference
routes in ``float_reference`` (scipy's ``eigh_tridiagonal`` and the generic
Newton polish) must give the same zeros with ``==``, and the same tridiagonal
bound.  The hypothesis scans of ``relations._base_report`` are checked the
same way against their plain forms.
"""

import math
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace import cli, relations, rootfind
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
from interlace.rootfind import RootComputationError, ZeroSet, zeros_general, zeros_orthogonal

import float_reference as ref


def same_float(a: float, b: float) -> bool:
    """Bitwise the same double; a NaN bound equals a NaN bound."""
    return a == b or (math.isnan(a) and math.isnan(b))


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
    assert same_float(got.bound, bound), (got.bound, bound)


def test_lapack_failure_is_a_root_computation_error(monkeypatch):
    real = rootfind._stevd

    def failing(d, e, compute_v=1):
        w, z, _ = real(d, e, compute_v=compute_v)
        return w, z, 1

    monkeypatch.setattr(rootfind, "_stevd", failing)
    with pytest.raises(RootComputationError, match=r"\?stevd failed \(info=1\)"):
        zeros_orthogonal(jacobi(2, 14, 5))
    # n = 1 needs no eigensolve
    assert zeros_orthogonal(jacobi(2, 14, 1)).zeros == ref.zeros_orthogonal(jacobi(2, 14, 1))[0]


def test_lapack_failure_becomes_a_sweep_error_row(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(rootfind, "_stevd", lambda d, e, compute_v=1: (np.zeros(len(d)), None, 1))
    spec = tmp_path / "sweep.json"
    spec.write_text('{"check": "laguerre-3.7", "n": "2..3", "params": {"alpha": [1]}}')
    code = cli.main(["sweep", str(spec), "--workers", "1"])
    out = capsys.readouterr().out
    assert ",build,error: RootComputationError: LAPACK ?stevd failed" in out
    assert code == 3


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
    p = Polynomial([F(-3, 7), F(1, 5), 2, 1])
    assert_companion_matches(p.to_float())
    assert zeros_general(p.to_float()).zeros == zeros_general(p).zeros


def test_running_bound_is_tighter_than_the_a_priori_one():
    for kind in ("narayana-reduced", "narayana-christoffel", "narayana-perturbed"):
        p = monic_by_recurrence(narayana_spec(kind, 40))
        zs = zeros_general(p)
        coeffs = p.to_float().coeffs
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
    """The scan through ``Polynomial.evaluate`` on ``A.to_float()``."""
    a_float = rel.A.to_float()
    for z in zg.zeros:
        if a_float.evaluate(z) <= 0:
            return False
    lo, hi = relations._sample_interval(rel, zg)
    margin = (hi - lo) / (4 * grid_points)
    lo, hi = lo + margin, hi - margin
    for i in range(grid_points):
        x = lo + (hi - lo) * i / (grid_points - 1)
        if a_float.evaluate(x) <= 0:
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
