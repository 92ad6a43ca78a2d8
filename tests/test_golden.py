"""Golden CLI transcripts: every listed command must reproduce its recorded
output byte for byte.

The transcripts under ``tests/golden/`` pin what the command line prints for
the degree ladder of ``check --json`` runs, ``zeros`` of the four orthogonal
families at n = 40, ``table2`` and a small pair-up oracle sweep.  A further
file pins the oracle relations themselves, which the sweep output (pass/fail
and orientation only) cannot: one line per instance with its E and a digest
of every term.  A change meant to leave output alone (a faster construction,
a refactor) must pass this module unchanged.  After a deliberate output
change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from interlace.cli import main
from interlace.relations import CHECK_IDS, oracle_down_one, oracle_pair_up, oracle_up_one

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
# The companion root path cannot yet solve the Narayana relations at n = 60.
LADDER_UNSOLVED = {("narayana-3.3", 60), ("narayana-3.4", 60)}


def _ladder() -> list[list[str]]:
    out = []
    for n in LADDER_NS:
        for check_id in CHECK_IDS:
            if (check_id, n) in LADDER_UNSOLVED:
                continue
            params = LADDER_PARAMS.get(check_id, {"p": "1/3", "N": str(n + 3)})
            argv = ["check", check_id, "--n", str(n), "--json"]
            for name, value in params.items():
                argv += [f"--{name}", value]
            out.append(argv)
    return out


CASES = {
    "check.txt": _ladder(),
    "zeros.txt": [
        ["zeros", "--family", "jacobi", "--alpha", "2", "--beta", "14", "--n", "40"],
        ["zeros", "--family", "laguerre", "--alpha", "0", "--n", "40"],
        ["zeros", "--family", "krawtchouk", "--p", "1/3", "--N", "43", "--n", "40"],
        ["zeros", "--family", "meixner", "--t", "1", "--w", "1/2", "--n", "40"],
    ],
    "table2.txt": [["table2"]],
    "sweep_oracle.txt": [
        ["sweep", "--oracle", "pair-up", "--n", "1..6", "--seeds", "5", "--workers", "2"]
    ],
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
    ("up-one", oracle_up_one, (2, 8, 24, 25)),
)
ORACLE_SEEDS = range(5)


def oracle_relations() -> str:
    """One line per oracle instance: mode, n, seed, E and a term digest."""
    lines = []
    for mode, draw, ns in ORACLE_RELATIONS:
        for n in ns:
            for seed in ORACLE_SEEDS:
                rel = draw(n, seed)
                terms = (rel.A, rel.B, rel.P, rel.G, rel.Q)
                text = "|".join(" ".join(str(c) for c in t.coeffs) for t in terms)
                digest = hashlib.sha256(text.encode("ascii")).hexdigest()
                lines.append(f"{mode} {n} {seed} {rel.E} {digest}\n")
    return "".join(lines)


def test_ladder_covers_the_solvable_checks():
    assert len(CASES["check.txt"]) == 26


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    want = (GOLDEN / name).read_bytes().decode("utf-8")
    assert transcript(CASES[name]) == want


def test_oracle_relations_match_golden():
    want = (GOLDEN / "oracle_relations.txt").read_bytes().decode("ascii")
    assert oracle_relations() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, commands in CASES.items():
        (GOLDEN / name).write_bytes(transcript(commands).encode("utf-8"))
        print(f"recorded {name}", file=sys.stderr)
    (GOLDEN / "oracle_relations.txt").write_bytes(oracle_relations().encode("ascii"))
    print("recorded oracle_relations.txt", file=sys.stderr)
