"""Golden CLI transcripts: every listed command must reproduce its recorded
output byte for byte.

The transcripts under ``tests/golden/`` pin what the command line prints for
the degree ladder of ``check --json`` runs, ``zeros`` of the four orthogonal
families at n = 40 and of the reduced and raw Narayana polynomials, ``table2``, small pair-up and down-one oracle sweeps,
and the exact and float coefficients (``poly`` and ``poly --float``) of
every family kind at n = 8 and 40.  A further
file pins the oracle relations themselves, which the sweep output (pass/fail
and orientation only) cannot: one line per instance with its E and a digest
of every term.  A third pins every named relation: its shape, sign, E,
support (its exact ends shown as doubles), member specs and a digest of its
terms at a few degrees and parameter sets, and the exact error text of each
invalid point, which sweep error rows print.  Three of the commands are also run in an interpreter where
scipy cannot be imported, since the program does not depend on it.  A change
meant to leave output alone (a faster construction, a refactor) must pass this
module unchanged.  After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from interlace.cli import main
from interlace.relations import (
    CHECK_IDS,
    build_relation,
    oracle_down_one,
    oracle_pair_up,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

LADDER_NS = (8, 20, 40, 60)
LADDER_PARAMS = {
    "meixner-3.2": {"t": "1", "w": "1/2"},
    "narayana-3.3": {},
    "narayana-3.4": {},
    "jacobi-3.5": {"alpha": "2", "beta": "14"},
    "jacobi-3.6": {"alpha": "2", "beta": "14"},
    "laguerre-3.7": {"alpha": "0"},
}
def _ladder() -> list[list[str]]:
    out = []
    for n in LADDER_NS:
        for check_id in CHECK_IDS:
            params = LADDER_PARAMS.get(check_id, {"p": "1/3", "N": str(n + 3)})
            argv = ["check", check_id, "--n", str(n), "--json"]
            for name, value in params.items():
                argv += [f"--{name}", value]
            out.append(argv)
    return out


POLY_FAMILIES = (
    ["--family", "jacobi", "--alpha", "2", "--beta", "14"],
    ["--family", "laguerre", "--alpha", "0"],
    ["--family", "krawtchouk", "--p", "1/3", "--N", "43"],
    ["--family", "meixner", "--t", "1", "--w", "1/2"],
    ["--family", "narayana"],
    ["--family", "narayana-reduced"],
    ["--family", "narayana-christoffel"],
    ["--family", "narayana-perturbed"],
)


def _poly_commands() -> list[list[str]]:
    """``poly`` and ``poly --float`` for every family kind at n = 8 and 40."""
    out = []
    for family in POLY_FAMILIES:
        for n in ("8", "40"):
            out.append(["poly", *family, "--n", n])
            out.append(["poly", *family, "--n", n, "--float"])
    return out


CASES = {
    "check.txt": _ladder(),
    "zeros.txt": [
        ["zeros", "--family", "jacobi", "--alpha", "2", "--beta", "14", "--n", "40"],
        ["zeros", "--family", "laguerre", "--alpha", "0", "--n", "40"],
        ["zeros", "--family", "krawtchouk", "--p", "1/3", "--N", "43", "--n", "40"],
        ["zeros", "--family", "meixner", "--t", "1", "--w", "1/2", "--n", "40"],
        ["zeros", "--family", "narayana-reduced", "--n", "60"],
        ["zeros", "--family", "narayana", "--n", "8"],
    ],
    "table2.txt": [["table2"]],
    "sweep_oracle.txt": [
        ["sweep", "--oracle", "pair-up", "--n", "1..6", "--seeds", "5", "--workers", "2"]
    ],
    "sweep_oracle_down_one.txt": [
        ["sweep", "--oracle", "down-one", "--n", "1..8", "--seeds", "5", "--workers", "2"]
    ],
    "poly.txt": _poly_commands(),
}


def transcript(commands: list[list[str]]) -> str:
    """Each command with its standard output, standard error and exit code."""
    parts = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        parts.append(f"$ interlace {' '.join(argv)}\n{out.getvalue()}")
        if err.getvalue():
            parts.append(f"[stderr]\n{err.getvalue()}")
        parts.append(f"[exit {code}]\n")
    return "".join(parts)


# Degrees on both sides of the point where the draw jitter min(1/100, step/4)
# switches branch (n = 24 for pair-up), plus the smallest legal degrees.
ORACLE_RELATIONS = (
    ("pair-up", oracle_pair_up, (1, 2, 12, 23, 24, 25, 30)),
    ("down-one", oracle_down_one, (1, 8, 25, 26)),
)
ORACLE_SEEDS = range(5)


def _term_digest(rel) -> str:
    terms = (rel.A, rel.B, rel.P, rel.G, rel.Q)
    text = "|".join(" ".join(str(c) for c in t.coeffs) for t in terms)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def oracle_relations() -> str:
    """One line per oracle instance: mode, n, seed, E and a term digest."""
    lines = []
    for mode, draw, ns in ORACLE_RELATIONS:
        for n in ns:
            for seed in ORACLE_SEEDS:
                rel = draw(n, seed)
                lines.append(f"{mode} {n} {seed} {rel.E} {_term_digest(rel)}\n")
    return "".join(lines)


# (check id, degrees, parameter sets) for every named relation.
NAMED_RELATIONS = (
    ("krawtchouk-3.1", (0, 1, 5, 20), ({"p": "1/3", "N": "25"}, {"p": "1/2", "N": "21"})),
    ("meixner-3.2", (0, 1, 5, 20), ({"t": "1", "w": "1/2"}, {"t": "5/2", "w": "1/3"})),
    ("laguerre-3.7", (0, 1, 5, 20), ({"alpha": "0"}, {"alpha": "-1/2"}, {"alpha": "3"})),
    ("jacobi-3.5", (1, 2, 5, 20), ({"alpha": "2", "beta": "14"}, {"alpha": "-1/2", "beta": "1/2"})),
    ("jacobi-3.6", (1, 2, 5, 20), ({"alpha": "2", "beta": "14"}, {"alpha": "-1/2", "beta": "-1/2"})),
    ("narayana-3.3", (2, 3, 8, 20, 60), ({},)),
    ("narayana-3.4", (2, 3, 8, 20, 60), ({},)),
)
# (check id, n, parameters) that must be refused, in the order the checks fire:
# each entry's minimum degree, the extra parameter checks, then the members'
# own parameter checks.
INVALID_RELATIONS = (
    ("no-such-check", 3, {}),
    ("laguerre-3.7", 3, {}),
    ("laguerre-3.7", 3, {"alpha": "0", "beta": "1"}),
    ("krawtchouk-3.1", -1, {"p": "1/3", "N": "5"}),
    ("krawtchouk-3.1", -1, {"p": "1/3", "N": "5/2"}),
    ("krawtchouk-3.1", 3, {"p": "1/3", "N": "5/2"}),
    ("krawtchouk-3.1", 3, {"p": "1/3", "N": "0"}),
    ("krawtchouk-3.1", 5, {"p": "1/3", "N": "5"}),
    ("krawtchouk-3.1", 6, {"p": "1/3", "N": "5"}),
    ("krawtchouk-3.1", 3, {"p": "3/2", "N": "5"}),
    ("meixner-3.2", -1, {"t": "1", "w": "1/2"}),
    ("meixner-3.2", 3, {"t": "1", "w": "1"}),
    ("meixner-3.2", 3, {"t": "0", "w": "1/2"}),
    ("laguerre-3.7", -1, {"alpha": "0"}),
    ("laguerre-3.7", 3, {"alpha": "-1"}),
    ("jacobi-3.5", 0, {"alpha": "2", "beta": "14"}),
    ("jacobi-3.5", 0, {"alpha": "2", "beta": "0"}),
    ("jacobi-3.5", 3, {"alpha": "2", "beta": "0"}),
    ("jacobi-3.5", 3, {"alpha": "2", "beta": "-1/2"}),
    ("jacobi-3.5", 3, {"alpha": "-1", "beta": "1"}),
    ("jacobi-3.6", 0, {"alpha": "2", "beta": "14"}),
    ("jacobi-3.6", 3, {"alpha": "2", "beta": "-1"}),
    ("narayana-3.3", 1, {}),
    ("narayana-3.3", -1, {}),
    ("narayana-3.4", 1, {}),
    ("narayana-3.4", 0, {}),
)


def named_relations() -> str:
    """One line per named relation point, then one per refused point."""
    lines = []
    for check_id, ns, param_sets in NAMED_RELATIONS:
        for params in param_sets:
            for n in ns:
                rel = build_relation(check_id, n, params)
                specs = json.dumps(
                    {k: spec.to_json() for k, spec in rel.specs.items()}, sort_keys=True
                )
                shown = json.dumps({k: str(v) for k, v in rel.params.items()})
                # the exact ends shown as doubles, None for an open end
                support = tuple(None if end is None else float(end) for end in rel.support)
                lines.append(
                    f"{check_id} n={n} shape={rel.shape} sign={rel.sign} E={rel.E} "
                    f"support={support} params={shown} specs={specs} "
                    f"{_term_digest(rel)}\n"
                )
    for check_id, n, params in INVALID_RELATIONS:
        try:
            build_relation(check_id, n, params)
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        else:
            outcome = "built"
        lines.append(f"{check_id} n={n} params={json.dumps(params)} -> {outcome}\n")
    return "".join(lines)


def test_ladder_covers_the_solvable_checks():
    assert len(CASES["check.txt"]) == 28


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    want = (GOLDEN / name).read_bytes().decode("utf-8")
    assert transcript(CASES[name]) == want


def test_oracle_relations_match_golden():
    want = (GOLDEN / "oracle_relations.txt").read_bytes().decode("ascii")
    assert oracle_relations() == want


def test_named_relations_match_golden():
    want = (GOLDEN / "relations.txt").read_bytes().decode("ascii")
    assert named_relations() == want


def golden_blocks(name: str) -> dict[str, str]:
    """Each command's transcript in a golden file, keyed by its ``$`` line."""
    text = (GOLDEN / name).read_bytes().decode("utf-8")
    blocks = ["$ interlace " + part for part in text.split("$ interlace ")[1:]]
    return {block.split("\n", 1)[0]: block for block in blocks}


WITHOUT_SCIPY = (
    ("zeros.txt", ["zeros", "--family", "jacobi", "--alpha", "2", "--beta", "14", "--n", "40"]),
    ("check.txt", ["check", "jacobi-3.6", "--n", "8", "--json", "--alpha", "2", "--beta", "14"]),
    ("sweep_oracle.txt", CASES["sweep_oracle.txt"][0]),
)


def test_program_runs_without_scipy():
    # A fresh interpreter in which every scipy import raises runs a zero
    # set, a check and a forked two-worker sweep, then lists what it loaded.
    commands = [argv for _, argv in WITHOUT_SCIPY]
    probe = textwrap.dedent(
        f"""
        import json, sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_golden import transcript
        text = transcript({commands!r})
        loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
        print(json.dumps([text, loaded]))
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=src,
        capture_output=True,
        text=True,
        check=True,
    )
    text, loaded = json.loads(result.stdout)
    want = "".join(golden_blocks(name)[f"$ interlace {' '.join(argv)}"] for name, argv in WITHOUT_SCIPY)
    assert text == want
    assert loaded == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, commands in CASES.items():
        (GOLDEN / name).write_bytes(transcript(commands).encode("utf-8"))
        print(f"recorded {name}", file=sys.stderr)
    (GOLDEN / "oracle_relations.txt").write_bytes(oracle_relations().encode("ascii"))
    print("recorded oracle_relations.txt", file=sys.stderr)
    (GOLDEN / "relations.txt").write_bytes(named_relations().encode("ascii"))
    print("recorded relations.txt", file=sys.stderr)
