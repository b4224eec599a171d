"""Every public top-level function and class of comclust has a caller
outside the test suite's own checks: the library itself, the acceptance
criteria (``tests/test_acceptance.py``) or a layer-trace hook of the
benchmark (``perfbench/layertrace.py``, read here, never imported). An
entry point that only unit tests reach is code no command needs; so is a
parameter that its function never reads."""

import ast
import importlib
from pathlib import Path

import comclust

SRC = Path(comclust.__file__).parent
ROOT = SRC.parents[1]

# The elementary autodiff primitives that tests/conftest.py composes into
# the reference graphs the fused nodes must match (see the autodiff module
# docstring). The library itself no longer calls them.
EXEMPT = {("comclust.autodiff", "mul"), ("comclust.autodiff", "matmul"),
          ("comclust.autodiff", "mean")}


def _module_name(path: Path) -> str:
    return "comclust" if path.stem == "__init__" else f"comclust.{path.stem}"


def _public_defs() -> set:
    return {(_module_name(path), node.name)
            for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _references(path: Path, own_module: str | None) -> set:
    """(module, name) pairs that ``path`` reaches: names it imports from a
    comclust module, attributes it reads off an imported comclust module
    and, when ``own_module`` is given, names of that module it uses outside
    their own definitions."""
    tree = ast.parse(path.read_text())
    out, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "comclust" + (f".{base}" if base else "")
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if base == "comclust" and (SRC / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = full
                elif base.startswith("comclust"):
                    out.add((base, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
    if own_module is not None:
        for stmt in tree.body:
            defined = getattr(stmt, "name", None)
            out.update((own_module, node.id) for node in ast.walk(stmt)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Load)
                       and node.id != defined)
    return out


def _hook_targets() -> set:
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    hooks = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "HOOKS"
                         for t in node.targets))
    return {tuple(target.split(":")) for targets in hooks.values()
            for target in targets}


def _resolve(pairs) -> set:
    """ids of the objects the (module, name) pairs name; a pair naming
    nothing (a local variable, a missing attribute) names no object."""
    found = set()
    for module, name in pairs:
        try:
            found.add(id(getattr(importlib.import_module(module), name)))
        except (ImportError, AttributeError):
            pass
    return found


def _unreferenced() -> set:
    pairs = _hook_targets() | _references(ROOT / "tests" / "test_acceptance.py",
                                          None)
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":     # a re-export is not a caller
            pairs |= _references(path, _module_name(path))
    called = _resolve(pairs)
    return {(module, name) for module, name in _public_defs()
            if id(getattr(importlib.import_module(module), name))
            not in called}


def test_every_public_name_has_a_caller():
    assert sorted(_unreferenced() - EXEMPT) == []


def test_exemptions_are_still_needed():
    """An exempt primitive that gains a caller, or goes, leaves the list."""
    assert EXEMPT <= _public_defs()
    assert EXEMPT <= _unreferenced()


def _unread_parameters() -> list:
    """Each parameter of a function or lambda in comclust whose body never
    reads it, as "module:line function(parameter)"."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a)]
            found.extend(f"{_module_name(path)}:{node.lineno} "
                         f"{getattr(node, 'name', '<lambda>')}({a.arg})"
                         for a in params if a.arg not in read)
    return found


def test_every_parameter_is_read():
    assert _unread_parameters() == []
