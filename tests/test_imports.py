"""Module boundaries: no fiolab module imports another one's private names."""
import ast
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
