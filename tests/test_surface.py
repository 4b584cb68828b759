"""Every public function, class and method of the package has a use in src/,
every public module-level constant is read in src/, and every name that a
module imports is used in that module.

A public top-level function or class, or a public method, that nothing in
``src/se2control`` names is library surface that no claim of the CLI needs.
The check is by name: a definition counts as used when its bare name occurs
as an ``ast.Name`` or an ``ast.Attribute`` anywhere in the package.
Exempt are the functions that the benchmark's tracer wraps by name
(``perfbench/tracing.py``'s ``TARGETS``, read as
``test_benchmark_contract.py`` reads them) and the short list below.

A public module-level constant is a top-level assignment to a public name.
It counts as read when its name occurs as an ``ast.Name`` that is loaded, or
as an ``ast.Attribute``'s attribute, anywhere in the package: its own
assignment does not count.

An imported name counts as used when it occurs as an ``ast.Name`` in its
module, the unused-import rule of pyflakes (F401).

A parameter with a default, of a public function or method, is passed by
at least one call in the package: a call by the function's bare name with
that parameter's position among its arguments, or with it by keyword.  A
``**`` argument does not count.  A parameter that only tests set is a
second configuration that no job runs; it belongs in a module constant.
"""
import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "se2control")

# Public definitions that may have no use in src/, one reason each.
ALLOWED = {
    "ReducedSpec.circle": "the solution circles that the exact control-set boundary builds on",
    "chord_ratio": "the paper's f, and the oracle of the acceptance tests",
    "ReachSet.representatives": "the exact reachable points that the reach tests compare against",
    "ReachSet.contains": "the membership test that the reach tests compare reference points with",
}


# Parameters with a default that no call in src/ passes, one reason each.
UNPASSED_ALLOWED = {
    "main.argv": "the entry point: the console script and python -m call main() and "
    "argparse reads sys.argv, while the benchmark and the tests pass their own argv",
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    return tracing


def _trees() -> dict:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def public_definitions(trees: dict) -> list:
    """(file, qualified name, bare name) of every public top-level function
    and class and of every public method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            out.append((fname, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [
                    (fname, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, defs[:2]) and not item.name.startswith("_")
                ]
    return out


def used_names(trees: dict) -> set:
    """Every name that occurs as an ast.Name or as an ast.Attribute's attribute."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_use_in_src(tracing):
    trees = _trees()
    exempt = {name for _, name, _, _ in tracing.TARGETS} | set(ALLOWED)
    used = used_names(trees)
    unused = [
        f"{fname}: {qualified}"
        for fname, qualified, bare in public_definitions(trees)
        if bare not in used and qualified not in exempt
    ]
    assert unused == []


def test_every_exemption_names_a_public_definition(tracing):
    defined = {qualified for _, qualified, _ in public_definitions(_trees())}
    targets = {name for _, name, _, _ in tracing.TARGETS}
    assert set(ALLOWED) | targets <= defined


def public_constants(trees: dict) -> list:
    """(file, name) of every top-level assignment to a public name."""
    return [
        (fname, t.id)
        for fname, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and not t.id.startswith("_")
    ]


def test_every_public_constant_is_read_in_src():
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{fname}: {name}" for fname, name in public_constants(trees) if name not in read]
    assert unread == []


def imported_names(tree) -> list:
    """(line, bound name) of every import in a module, except those from __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    return out


def test_every_import_is_used_in_its_module():
    unused = []
    for fname, tree in _trees().items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname}:{line}: {name}" for line, name in imported_names(tree) if name not in loaded]
    assert unused == []


def defaulted_parameters(trees: dict) -> list:
    """(file, qualified name, bare function name, parameter, position) of every
    parameter with a default of a public function or method.

    The position counts the arguments that a call passes, so a method's self
    is not counted (the package has no static or class methods); a
    keyword-only parameter has position None.
    """
    funcs = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                funcs.append((fname, node.name, node, 0))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                funcs += [
                    (fname, f"{node.name}.{item.name}", item, 1)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    out = []
    for fname, qualified, func, bound in funcs:
        if func.name.startswith("_"):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [
            (fname, f"{qualified}.{a.arg}", func.name, a.arg, i - bound)
            for i, a in enumerate(positional)
            if i >= first
        ]
        out += [
            (fname, f"{qualified}.{a.arg}", func.name, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
    return out


def passed_arguments(trees: dict) -> dict:
    """Bare callee name -> (most positional arguments of one call, keywords passed)."""
    passed = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            n_pos, keywords = passed.get(name, (0, set()))
            plain = len([a for a in node.args if not isinstance(a, ast.Starred)])
            keywords |= {k.arg for k in node.keywords if k.arg is not None}  # None is **
            passed[name] = (max(n_pos, plain), keywords)
    return passed


def test_every_defaulted_parameter_is_passed_in_src():
    trees = _trees()
    passed = passed_arguments(trees)
    unpassed = []
    for fname, qualified, func, param, position in defaulted_parameters(trees):
        n_pos, keywords = passed.get(func, (0, set()))
        by_position = position is not None and position < n_pos
        if not (by_position or param in keywords or qualified in UNPASSED_ALLOWED):
            unpassed.append(f"{fname}: {qualified}")
    assert unpassed == []


def test_every_unpassed_exemption_names_a_defaulted_parameter():
    names = {qualified for _, qualified, _, _, _ in defaulted_parameters(_trees())}
    assert set(UNPASSED_ALLOWED) <= names
