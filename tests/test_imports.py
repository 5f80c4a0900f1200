"""Every name a module of ``mtopt`` imports at its top level is used there."""

import ast
import os

import pytest

import mtopt

SRC = os.path.dirname(os.path.abspath(mtopt.__file__))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
