"""Static checks on ``src/interlace``: no dead route and no unreachable shape.

Both read the source with ``ast`` and import nothing from the package, so a
route that only the tests call, or a relation shape that no check id and no
oracle mode reaches, fails here before it is ever run.

* Every top-level ``def`` and ``class`` of ``src/interlace/*.py`` is named
  somewhere in ``src/`` outside its own definition: as a name, an attribute,
  or an imported name.  Reference routes that only the tests use live under
  ``tests/`` (``float_reference.py``, ``exact_reference.py``).
* Every key of ``relations.SHAPES`` is the shape of some ``CHECKS`` entry or
  of an oracle mode, a key of ``relations.ORACLE_MIN_N`` (a mode is its
  shape's name with a hyphen for the underscore).
* The README's "Available check ids" sentence lists the keys of
  ``relations.CHECKS``, in their order.
* The separation floor is ``interlacing.DEFAULT_FLOOR`` alone: it is assigned
  once, no function or lambda takes a ``floor`` parameter, and nothing reads
  ``os.environ`` or ``os.getenv``.
* Every name the benchmark's span tracer (``perfbench/tracer.py``) patches in
  a module of the package, by string, is bound at that module's top level.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "interlace"


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
    relations = _modules()["relations"]
    constants = _string_constants(relations)

    def value(node: ast.expr) -> str:
        return constants[node.id] if isinstance(node, ast.Name) else node.value

    shapes = {value(key) for key in _assigned(relations, "SHAPES").keys}
    reached = set()
    for entry in _assigned(relations, "CHECKS").values:
        keywords = {kw.arg: kw.value for kw in entry.keywords}
        reached.add(value(keywords["shape"]))
    for mode in _assigned(relations, "ORACLE_MIN_N").keys:
        reached.add(value(mode).replace("-", "_"))
    assert shapes - reached == set()


def test_readme_lists_every_check_id():
    checks = [key.value for key in _assigned(_modules()["relations"], "CHECKS").keys]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Available check ids: (.*?)\.(?:\s|$)", readme, re.S)
    assert sentence is not None
    assert re.findall(r"`([^`]+)`", sentence.group(1)) == checks


MEMOS = {"cache", "lru_cache", "cached_property"}


def test_no_cache_outlives_a_command():
    """Shared results live in ``families.chain_scope``, which each command
    opens and drops; a process-wide memo would outlive the command.  The one
    process-wide cache is the argparse parser's (``cli.build_parser``), which
    holds no result and which every ``main`` call shares."""
    decorated, uses = [], 0
    for name, module in _modules().items():
        for node in ast.walk(module):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses += (node.id if isinstance(node, ast.Name) else node.attr) in MEMOS
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(_names_in(d) & MEMOS for d in node.decorator_list):
                    decorated.append(f"{name}.{node.name}")
    assert decorated == ["cli.build_parser"]
    assert uses == 1  # that decorator, and no memo applied any other way


def test_one_fixed_floor():
    floor_params, env_reads, assigned = [], [], []
    for name, module in _modules().items():
        if _names_in(module) & {"environ", "getenv"}:
            env_reads.append(name)
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                every = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                if any(arg is not None and arg.arg == "floor" for arg in every):
                    floor_params.append(f"{name}.{getattr(node, 'name', 'lambda')}")
            elif isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "DEFAULT_FLOOR" for t in node.targets):
                    assigned.append(name)
    assert floor_params == []
    assert env_reads == []
    assert assigned == ["interlacing"]


def _top_level_names(module: ast.Module) -> set[str]:
    """Every name a module binds at its top level: defs, classes, assignments, imports."""
    names = set()
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name))
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
    return names


def test_every_traced_name_is_bound():
    """A name the tracer patches and the package no longer binds fails the
    benchmark run, and ``pytest perfbench``, but nothing else; this reads
    ``PATCHES`` and each ``patch(module, "name", ...)`` call of the tracer."""
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    modules = _modules()
    patched = []
    for entry in _assigned(tracer, "PATCHES").elts:
        span, owners = entry.elts
        patched += [(owner.id, span.value.split(".", 1)[1]) for owner in owners.elts]
    for node in ast.walk(tracer):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch":
            owner, attr = node.args[:2]
            if isinstance(owner, ast.Name) and owner.id in modules and isinstance(attr, ast.Constant):
                patched.append((owner.id, attr.value))
    assert ("relations", "assemble_pair_up") in patched and len(patched) > 20
    missing = [f"{m}.{name}" for m, name in patched if name not in _top_level_names(modules[m])]
    assert missing == []
