"""Module boundaries: no fiolab module imports another one's private names,
and only `expressions` turns a sympy expression into a numpy function."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiolab

MODULES = sorted(Path(fiolab.__file__).parent.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_cross_module_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("fiolab"))
               for alias in node.names if _is_private(alias.name)]
    assert private == []


def _sympy_lambdify_references(tree):
    """Names of the nodes that reach sympy's lambdify: `sp.lambdify` on an
    imported sympy module, or an import of lambdify from sympy."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "sympy"}
    found = [f"{node.value.id}.lambdify" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "lambdify"
             and isinstance(node.value, ast.Name) and node.value.id in aliases]
    found += [f"from {node.module} import lambdify"
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("sympy")
              for alias in node.names if alias.name == "lambdify"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_expressions_lambdifies(path):
    """`expressions.lambdify` is the one conversion of a sympy expression
    into a numpy function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _sympy_lambdify_references(tree)
    if path.stem == "expressions":
        assert found == ["sp.lambdify"]
    else:
        assert found == []


def test_run_imports_no_numpy_star(tmp_path):
    """A scenario run leaves numpy's lazy submodules unimported: no
    lambdify runs `from numpy import *`."""
    script = (
        "import sys\n"
        "from fiolab.cli import main\n"
        f"assert main(['run', 'fourier_inversion', '--out-dir', "
        f"{str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted({'numpy.f2py', 'numpy.testing'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(fiolab.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def _definitions(tree):
    """(name, node) of each name a module defines at its top level: a
    function, a class or an assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names)


def _reads(module, tree):
    """((module, name), node) of each read in `module` of a top-level name
    of a fiolab module: a bare name, resolved through the module's
    `from .m import name [as alias]` imports and otherwise its own, or
    `m.name` on a module bound by `from . import m [as alias]`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield names.get(node.id, (module, node.id)), node
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield (modules[node.value.id], node.attr), node


def test_no_dead_private_names():
    """Every module-level private name of fiolab, and every public one of a
    module that fiolab/__init__.py does not re-export, is read in fiolab
    outside its own definition: by its own module, or by another through
    `from .module import name` or as `module.name`.  Code kept alive for
    tests alone is dead."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES}
    reads = {}
    for module, tree in trees.items():
        for target, node in _reads(module, tree):
            reads.setdefault(target, []).append(node)
    reexported = {node.module for node in ast.walk(trees["__init__"])
                  if isinstance(node, ast.ImportFrom) and node.level == 1}
    dead = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            public = not name.startswith("_")
            if not (_is_private(name) or public and module not in reexported):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside
                   for node in reads.get((module, name), [])):
                dead.append(f"{module}.{name}")
    assert dead == []
