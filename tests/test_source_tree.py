"""Static checks on ``src/interlace``: no dead route and no unreachable shape.

Both read the source with ``ast`` and import nothing from the package, so a
route that only the tests call, or a relation shape that no check id and no
oracle mode reaches, fails here before it is ever run.

* Every top-level ``def`` and ``class`` of ``src/interlace/*.py`` is named
  somewhere in ``src/`` outside its own definition: as a name, an attribute,
  or an imported name.  Reference routes that only the tests use live under
  ``tests/`` (``float_reference.py``, ``exact_reference.py``).
* Every key of ``relations.SHAPES`` is the shape of some ``PAIRS`` entry, each
  of which serves a named check, or of a ``cli.ORACLE_MODES`` mode (a mode is
  its shape's name with a hyphen for the underscore).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "interlace"


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _assigned(module: ast.Module, name: str) -> ast.expr:
    for stmt in module.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            return stmt.value
    raise AssertionError(f"no top-level assignment to {name}")


def _string_constants(module: ast.Module) -> dict[str, str]:
    """Top-level ``NAME = "text"`` assignments."""
    out = {}
    for stmt in module.body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt.value.value
    return out


def test_every_top_level_definition_is_used():
    modules = _modules()
    statements = [
        (name, i, stmt) for name, module in modules.items() for i, stmt in enumerate(module.body)
    ]
    used = [(name, i, _names_in(stmt)) for name, i, stmt in statements]
    unused = []
    for name, i, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names for other, j, names in used if (other, j) != (name, i)):
            unused.append(f"{name}.{stmt.name}")
    assert unused == []


def test_every_shape_is_reachable():
    relations, cli = _modules()["relations"], _modules()["cli"]
    constants = _string_constants(relations)

    def value(node: ast.expr) -> str:
        return constants[node.id] if isinstance(node, ast.Name) else node.value

    shapes = {value(key) for key in _assigned(relations, "SHAPES").keys}
    reached = set()
    for entry in _assigned(relations, "PAIRS").values:
        keywords = {kw.arg: kw.value for kw in entry.keywords}
        if "check_id" in keywords:
            reached.add(value(keywords["shape"]))
    for mode in _assigned(cli, "ORACLE_MODES").elts:
        reached.add(value(mode).replace("-", "_"))
    assert shapes - reached == set()


def test_no_cache_outlives_a_command():
    """Shared results live in ``families.chain_scope``, which each command
    opens and drops; a process-wide memo would outlive the command."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "lru_cache" not in text and "functools.cache" not in text, path.name
