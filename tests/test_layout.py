"""Source layout: every definition in the package is used by it, and every
parameter default is overridden by some call in it.

A function, class, method or property that only the tests call belongs
in ``tests/`` (see ``oracles.py``), and so does a parameter that only the
tests pass, so the code the tests check is the code the simulator runs;
and every oracle there is used by a test.
"""
import ast
import sys
import types
from pathlib import Path

import hopsim

SRC = Path(hopsim.__file__).parent

# Entry points reached from outside the package.
ALLOWED = {
    ("cli", "main"),            # console script named in pyproject.toml
    ("cli", "_Parser.error"),   # argparse calls it on a usage error
    ("__init__", "__getattr__"),  # Python calls it to load hopsim.cli on first use
}


def _definitions(tree):
    """(qualified name, node) for each top-level function and class and for
    each method and property of those classes; dunder methods are left out,
    since Python calls them implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def unreferenced_definitions():
    """Definitions with no use in src/ outside their own body.

    A function or class is used by a bare name or an attribute access; a
    method or property only by an attribute access (``.name``), since a
    bare name of the same spelling, such as a parameter, does not reach it.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = []   # (name, node, is an attribute access) for every name and attribute
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.append((node.id, node, False))
            elif isinstance(node, ast.Attribute):
                used.append((node.attr, node, True))
    out = []
    for module, tree in trees.items():
        for qualname, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            member = "." in qualname
            if not any(name == definition.name and id(node) not in own
                       and (attribute or not member)
                       for name, node, attribute in used):
                out.append((module, qualname))
    return out


def test_every_definition_is_referenced_in_src():
    unused = [f"{m}.{name}" for m, name in unreferenced_definitions()
              if (m, name) not in ALLOWED]
    assert unused == [], f"defined in src/ but used only outside it: {unused}"


def _defaulted(function):
    """(position or None if keyword-only, name) of each parameter with a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def unpassed_parameters():
    """``module.function.parameter`` for each parameter with a default that
    no call in src/ outside the function's own body passes.

    The functions and methods are those the definition rule checks. A call
    reaches a function by its bare name or an attribute access, and a method
    only by an attribute access, whose positional arguments start after
    ``self``. A call that unpacks ``*`` or ``**`` passes every parameter.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    out = []
    for module, tree in trees.items():
        for qualname, function in _definitions(tree):
            if isinstance(function, ast.ClassDef):
                continue
            method = "." in qualname
            own = {id(node) for node in ast.walk(function)}
            reaching = []
            for call in calls:
                f = call.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if (name == function.name and id(call) not in own
                        and (isinstance(f, ast.Attribute) or not method)):
                    reaching.append(call)
            for position, param in _defaulted(function):
                shift = 1 if method and position is not None else 0
                if not any(any(isinstance(a, ast.Starred) for a in call.args)
                           or any(k.arg in (None, param) for k in call.keywords)
                           or (position is not None and position - shift < len(call.args))
                           for call in reaching):
                    out.append(f"{module}.{qualname}.{param}")
    return out


# Parameters with a default that no call in src/ passes, each with its reason.
PARAMETER_ALLOWED = {
    "cli.main.argv": "the console script calls main() with no argument; "
                     "None makes argparse read sys.argv",
}


def test_every_defaulted_parameter_is_passed_in_src():
    # A default that only a test overrides is a second form of the
    # function that the simulator never runs.
    unpassed = [p for p in unpassed_parameters() if p not in PARAMETER_ALLOWED]
    assert unpassed == [], f"parameters only tests pass: {unpassed}"


def test_parameter_allowlist_is_current():
    assert set(PARAMETER_ALLOWED) <= set(unpassed_parameters())


def private_cross_references():
    """``module:line: name`` for every use of another package module's ``_`` name.

    Covers attribute access through a module imported as
    ``from . import signal as sig`` and names imported with
    ``from .signal import _name``.
    """
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> package module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    out.append(f"{path.stem}:{node.lineno}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                out.append(f"{path.stem}:{node.lineno}: "
                           f"{modules[node.value.id]}.{node.attr}")
    return out


def test_no_module_uses_another_modules_private_names():
    # A private helper is its module's own business; a caller in another
    # module means the operation belongs behind a public function there.
    assert private_cross_references() == []


def test_benchmark_trace_sites_resolve():
    # The benchmark's tracer patches hopsim at these (module, attribute)
    # sites; a renamed function would make ``--trace 1`` fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    sys.modules["spans"] = spans  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
        sites = spans.lookup_sites(hopsim)
    finally:
        del sys.modules["spans"]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in sites if not hasattr(mod, attr)]
    assert sites and missing == []


def uncalled_oracles():
    """Each function and class of ``oracles.py`` that no ``test_*.py`` uses."""
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "oracles.py").read_text())
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    used = set()  # ``oracles.name`` accesses and ``from oracles import name``
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "oracles"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
                used.update(alias.name for alias in node.names)
    return [name for name in defined if name not in used]


def test_every_oracle_is_called_by_a_test():
    # An oracle is a reference only while a test compares against it.
    assert uncalled_oracles() == []
