"""Acceptance criteria.  One test per criterion; each prints a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else:
reference zero values at 1e-5 absolute, identity checks and the named
checks' interlacing decisions exact, root-path agreement at 1e-9 scaled by
zero magnitude, rational-root recovery at 1e-10 relative.
"""

import math
import random
import time
from fractions import Fraction as F

from interlace import families
from interlace.cli import table2_data
from interlace.families import (
    jacobi,
    krawtchouk,
    laguerre,
    meixner,
    monic_by_recurrence,
    narayana_christoffel,
    narayana_reduced,
)
from interlace.poly import Polynomial
from interlace.relations import (
    build_relation,
    check_relation,
    oracle_down_one,
    oracle_pair_up,
    run_check,
    verify_identity,
)
from interlace.rootfind import zeros_general, zeros_orthogonal

from exact_reference import narayana_coeff

JACOBI_GRID = [F(-1, 2), F(0), F(1), F(5, 2), F(14)]
KRAWTCHOUK_P = [F(1, 4), F(1, 2), F(3, 4)]
MEIXNER_T = [F(1, 2), F(1), F(3)]
MEIXNER_W = [F(1, 4), F(1, 2), F(3, 4)]

TABLE_X1 = [-0.203565, 0.101387, 0.369625, 0.59992, 0.785274, 0.918787]
TABLE_Z1 = [-0.212298, 0.0784816, 0.335892, 0.560588, 0.747193, 0.890144]
TABLE_X2 = [-0.931498, -0.818611, -0.661375, -0.465388, -0.237196, 0.017114, 0.296953]
TABLE_Z2 = [-0.906419, -0.784335, -0.624494, -0.431566, -0.210968, 0.032615, 0.300166]


def _finish(name: str, failures: list, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix} [{elapsed:.2f}s]")
    assert not failures, f"{name}: {failures[:5]}"


def _identity_grid():
    """Every transcribed relation over the acceptance parameter grid."""
    points = []
    for n in range(0, 9):
        for N in range(n + 1, 11):
            for p in KRAWTCHOUK_P:
                points.append(("krawtchouk-3.1", n, {"p": p, "N": F(N)}))
    for n in range(0, 9):
        for t in MEIXNER_T:
            for w in MEIXNER_W:
                points.append(("meixner-3.2", n, {"t": t, "w": w}))
    for n in range(0, 9):
        for alpha in JACOBI_GRID:
            points.append(("laguerre-3.7", n, {"alpha": alpha}))
    for n in range(1, 9):
        for alpha in JACOBI_GRID:
            for beta in JACOBI_GRID:
                points.append(("jacobi-3.6", n, {"alpha": alpha, "beta": beta}))
                if beta > 0:
                    points.append(("jacobi-3.5", n, {"alpha": alpha, "beta": beta}))
    for n in range(2, 13):
        points.append(("narayana-3.3", n, {}))
        points.append(("narayana-3.4", n, {}))
    return points


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    failures = []
    blocks = table2_data()
    for block, want_x, want_z, want_e in (
        (blocks[0], TABLE_X1, TABLE_Z1, F(-2, 5)),
        (blocks[1], TABLE_X2, TABLE_Z2, F(3, 8)),
    ):
        if block["E"] != want_e:
            failures.append(("E", block["E"], want_e))
        for got, want in zip(block["x"], want_x):
            if abs(got - want) > 1e-5:
                failures.append(("x", got, want))
        for got, want in zip(block["z"], want_z):
            if abs(got - want) > 1e-5:
                failures.append(("z", got, want))
    n_values = len(TABLE_X1) + len(TABLE_Z1) + len(TABLE_X2) + len(TABLE_Z2)
    _finish(
        "criterion 1: zero table reproduction",
        failures,
        started,
        f"{n_values} zeros at 1e-5, E exact",
    )


def test_criterion_2_extreme_interval_configuration():
    started = time.perf_counter()
    failures = []
    blocks = table2_data()
    if not (blocks[0]["left_occupied"] and not blocks[0]["right_occupied"]):
        failures.append(("block 1", blocks[0]))
    if not (blocks[1]["right_occupied"] and not blocks[1]["left_occupied"]):
        failures.append(("block 2", blocks[1]))
    _finish(
        "criterion 2: one extreme interval occupied per block",
        failures,
        started,
        "left for block 1, right for block 2",
    )


def test_criterion_3_exact_identity_suite():
    started = time.perf_counter()
    failures = []
    points = _identity_grid()
    for check_id, n, params in points:
        try:
            rel = build_relation(check_id, n, params)
            if not verify_identity(rel):
                failures.append((check_id, n, params))
        except Exception as exc:
            failures.append((check_id, n, params, repr(exc)))
    _finish(
        "criterion 3: exact identity suite",
        failures,
        started,
        f"{len(points)} relations, zero tolerance",
    )


def test_criterion_4_named_check_clause_suite():
    started = time.perf_counter()
    failures = []
    degenerate = []
    full_iff_sides = {True: 0, False: 0}
    checked = 0

    def run_point(check_id, n, params):
        nonlocal checked
        checked += 1
        if check_id == "narayana-3.4" and n % 2 == 0:
            report = run_check("narayana-3.4", n)
            if not report.passed:
                failures.append((check_id, n, params, report.clauses))
            return
        # as the CLI reports it: along the chain G is read on, that of G's
        # own family or, for the Narayana checks, that of P^(1,1)
        report = run_check(check_id, n, params)
        rel = build_relation(check_id, n, params)
        if not report.passed:
            failures.append((check_id, n, params, report.clauses, report.hypotheses))
            return
        if not report.hypotheses_ok:
            # accepted only when the degeneracy is certified exactly: the
            # added point is then itself a shared rational zero of P and G
            if rel.P.evaluate(rel.E) == 0 and rel.G.evaluate(rel.E) == 0:
                degenerate.append((check_id, n, {k: str(v) for k, v in params.items()}))
            else:
                failures.append((check_id, n, params, "uncertified hypothesis violation"))
            return
        if report.premise_kind is None:
            failures.append((check_id, n, params, "premise unresolved"))
        if "full_iff" in report.clauses:
            if report.clauses["full_iff"] != "pass":
                failures.append((check_id, n, params, report.clauses))
            side = (
                report.e_position == "below"
                if report.premise_kind == "q_below_g"
                else report.e_position == "above"
            )
            full_iff_sides[side] += 1

    for n in range(0, 9):
        for N in range(n + 1, 11):
            for p in KRAWTCHOUK_P:
                run_point("krawtchouk-3.1", n, {"p": p, "N": F(N)})
    for n in range(0, 9):
        for t in MEIXNER_T:
            for w in MEIXNER_W:
                run_point("meixner-3.2", n, {"t": t, "w": w})
    for n in range(0, 9):
        for alpha in JACOBI_GRID:
            run_point("laguerre-3.7", n, {"alpha": alpha})
    for n in range(1, 9):
        for alpha in JACOBI_GRID:
            for beta in JACOBI_GRID:
                run_point("jacobi-3.6", n, {"alpha": alpha, "beta": beta})
                if beta > 0:
                    run_point("jacobi-3.5", n, {"alpha": alpha, "beta": beta})
    for n in range(2, 13):
        run_point("narayana-3.3", n, {})
        run_point("narayana-3.4", n, {})

    if not (full_iff_sides[True] and full_iff_sides[False]):
        failures.append(("full-interlace iff not exercised in both directions", full_iff_sides))
    _finish(
        "criterion 4: named-check clause suite",
        failures,
        started,
        f"{checked} checks, all exact, "
        f"{len(degenerate)} certified degenerate points, "
        f"iff sides {full_iff_sides[True]}/{full_iff_sides[False]}",
    )


def test_criterion_5_oracle_property_suite():
    started = time.perf_counter()
    failures = []
    runs = 0
    for n in range(1, 9):
        for orientation in ("q_below_g", "g_below_q"):
            for seed in range(50):
                runs += 1
                rel = oracle_pair_up(n, seed, orientation=orientation)
                report = check_relation(rel)
                if not (report.passed and report.premise_kind == orientation):
                    failures.append(("pair-up", n, orientation, seed, report.clauses))
        for seed in range(100):
            runs += 1
            rel = oracle_down_one(n, seed)
            report = check_relation(rel)
            if not report.passed:
                failures.append(("down-one", n, seed, report.clauses))
    forced = 0
    for n in range(1, 9):
        for seed in range(25):
            forced += 1
            rel = oracle_pair_up(n, seed, orientation="q_below_g", force_e="above_max")
            report = check_relation(rel)
            a_const = rel.A.coeffs[0]
            if a_const > 0 or report.clauses.get("e_position") != "fail" or report.passed:
                failures.append(("forced", n, seed, a_const, report.clauses))
    _finish(
        "criterion 5: oracle property suite",
        failures,
        started,
        f"{runs} random instances all pass, {forced} forced draws all rejected",
    )


def test_criterion_6_coefficient_identities():
    started = time.perf_counter()
    failures = []
    for n in range(2, 13):
        # coefficient scaling route, written out directly
        by_formula = Polynomial(
            [F(3 * n - 2 * j, n + 2) * narayana_coeff(n, j + 1) for j in range(n)]
        )
        rho = F(2 * (2 * n + 1), n + 2)
        numer = narayana_reduced(n + 1) - narayana_reduced(n).scale(rho)
        by_division, remainder = numer.divide_linear(F(1))
        if remainder != 0 or by_formula != by_division or by_formula != narayana_christoffel(n):
            failures.append(("christoffel", n))
    for n in range(1, 16):
        coeffs = narayana_reduced(n).coeffs
        if coeffs != tuple(reversed(coeffs)):
            failures.append(("palindrome", n))
        value = narayana_reduced(n).evaluate(F(-1))
        if (value == 0) != (n % 2 == 0):
            failures.append(("minus-one-zero", n))
    _finish(
        "criterion 6: coefficient identities",
        failures,
        started,
        "scaling vs division to 12, palindromes and the -1 zero parity to 15",
    )


def test_criterion_7_root_path_equivalence():
    started = time.perf_counter()
    failures = []
    compared = 0
    for n in range(1, 13):
        specs = [krawtchouk(p, 12, n) for p in KRAWTCHOUK_P]
        specs += [meixner(t, w, n) for t in MEIXNER_T for w in MEIXNER_W]
        for spec in specs:
            spectral = zeros_orthogonal(spec).zeros
            companion = zeros_general(monic_by_recurrence(spec)).zeros
            for a, b in zip(spectral, companion):
                compared += 1
                if abs(a - b) > 1e-9 * max(1.0, abs(a)):
                    failures.append((spec.kind, n, a, b))
    rng = random.Random(1234)
    recovered = 0
    for _ in range(20):
        degree = rng.randint(2, 10)
        roots = []
        while len(roots) < degree:
            cand = F(rng.randint(-5000, 5000), 1000)
            if all(abs(cand - r) >= F(1, 1000) for r in roots):
                roots.append(cand)
        roots.sort()
        zs = zeros_general(Polynomial.from_roots(roots))
        for got, want in zip(zs.zeros, [float(r) for r in roots]):
            recovered += 1
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                failures.append(("recovery", want, got))
    _finish(
        "criterion 7: root-path equivalence",
        failures,
        started,
        f"{compared} zeros cross-checked at scaled 1e-9, "
        f"{recovered} rational roots recovered at 1e-10 relative",
    )
