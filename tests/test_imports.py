"""Every name a package module imports is read in that module.

`__init__.py` is exempt: its names are `__all__` re-exports.  So is an
import whose line carries the note that `test_every_unused_import_is_traced`
checks: the benchmark's tracer wraps it, so the module keeps it unread.
"""

import ast
import glob
import os

import pytest

import epiplan

PACKAGE = os.path.dirname(os.path.abspath(epiplan.__file__))
TRACED = "# noqa: F401  perfbench/layers.py traces "
MODULES = sorted(p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
                 if os.path.basename(p) != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_read(path):
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                # Each name of a parenthesized import has a line of its own.
                if TRACED not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name: line for name, line in imported.items() if name not in read}
    assert not unread, f"{os.path.basename(path)}: imported but never read: {unread}"
