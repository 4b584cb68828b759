"""Every public function, method and property of the package runs in a CLI job, every
public module-level constant is read in src/, and every name that a module
imports is used in that module.

A public top-level function or class, or a public method or property of a
public class, that no CLI job runs is library surface that no claim of the
CLI needs.  The check runs every job of ``test_cli_goldens.JOBS`` in-process
under ``sys.setprofile`` and collects the code objects that are called; a
member counts as run when its code is among them.  A class counts as run
when the ``__init__`` it defines itself (a dataclass's generated one too)
runs, that is, when a job constructs it.  A class with no ``__init__`` of
its own, such as an exception subclass, counts as used when its name occurs
as an ``ast.Name`` or as an ``ast.Attribute``'s attribute in the package.
Exempt is only the short list below.  The functions that the benchmark's
tracer wraps by name get no exemption, so none of its counters can read 0
on every job.

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
import functools
import importlib
import inspect
import os
import pathlib
import sys

from test_cli_goldens import JOBS, run_job

import se2control
from se2control import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "se2control")

# Public members that may run in no CLI job, one reason each.
ALLOWED = {
    "system.ReducedSpec.circle": "the solution circles that the exact control-set boundary builds on",
}


# Parameters with a default that no call in src/ passes, one reason each.
UNPASSED_ALLOWED = {
    "main.argv": "the entry point: the console script and python -m call main() and "
    "argparse reads sys.argv, while the benchmark and the tests pass their own argv",
}


def _trees() -> dict:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def _code(member):
    """The code object that runs when a function, method or property is used."""
    if isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    return getattr(inspect.unwrap(member), "__code__", None)


def public_members() -> tuple:
    """(members, bare classes) of the imported package.  `members` maps
    "module.name", "module.Class" and "module.Class.name" to the code of every
    public top-level function, of the own ``__init__`` of every public class
    that defines one, and of every public method or property of a public
    class; `bare classes` lists the public classes with no ``__init__`` of
    their own as "module.Class"."""
    members, bare = {}, []
    for path in sorted(pathlib.Path(se2control.__path__[0]).glob("*.py")):
        mod = importlib.import_module(f"se2control.{path.stem}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                if "__init__" in vars(obj):
                    members[f"{path.stem}.{name}"] = _code(vars(obj)["__init__"])
                else:
                    bare.append(f"{path.stem}.{name}")
                for attr, item in vars(obj).items():
                    code = None if attr.startswith("_") else _code(item)
                    if code is not None:
                        members[f"{path.stem}.{name}.{attr}"] = code
            elif inspect.isfunction(inspect.unwrap(obj)):  # also through a decorator
                members[f"{path.stem}.{name}"] = _code(obj)
    return members, bare


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


def codes_run_by_the_cli_jobs(directory: pathlib.Path) -> dict:
    """Every code object called while the goldens' jobs run, each in its own
    directory, keyed by id: dataclasses with the same fields get equal but
    distinct ``__init__`` codes."""
    seen = {}
    # As in a fresh process, the first job builds the parser.
    cli.build_parser.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    try:
        for name, argv in JOBS:
            (directory / name).mkdir()
            run_job(argv, directory / name)
    finally:
        sys.setprofile(None)
    return seen


def test_every_public_definition_has_a_use_in_src(tmp_path):
    """Every public member runs in a CLI job, unless it is exempt."""
    members, bare = public_members()
    run = codes_run_by_the_cli_jobs(tmp_path)
    used = used_names(_trees())
    unrun = [name for name, code in members.items() if id(code) not in run]
    unused = [name for name in bare if name.rsplit(".", 1)[1] not in used]
    assert sorted(set(unrun + unused) - set(ALLOWED)) == []


def test_every_exemption_names_a_public_definition():
    members, bare = public_members()
    assert sorted(set(ALLOWED) - set(members) - set(bare)) == []


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
