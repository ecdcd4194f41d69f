"""Dead names in ``src/fpbits``: unused imports and never-read locals.

An offline stand-in for a linter's unused-name checks, on the standard
library's ``ast`` alone. A module-level import counts as used when its name
is read anywhere in the module (annotations included). A name bound inside a
function counts as read when it is loaded anywhere in that function,
including its nested functions and comprehensions, or updated in place
(``x += 1``). The name ``_`` and the re-exports of ``__init__.py`` are
exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fpbits"
MODULES = sorted(SRC.glob("*.py"))


def _loaded(tree):
    """Every name read in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def unused_imports(tree):
    """``(line, name)`` of each module-level import never read in the module."""
    used = _loaded(tree)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return found


def _bound(function):
    """``(line, name)`` of each name a function binds, arguments aside."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            found.append((node.lineno, node.name))
    return found


def unread_locals(tree):
    """``(line, name)`` of each function local that is bound but never read."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            used = _loaded(node)
            found.update((line, name) for line, name in _bound(node)
                         if name != "_" and name not in used)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = [f"line {line}: unread local {name!r}" for line, name in unread_locals(tree)]
    if path.name != "__init__.py":
        problems += [f"line {line}: unused import {name!r}"
                     for line, name in unused_imports(tree)]
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_the_checks_see_dead_names():
    tree = ast.parse(
        "import os\n"
        "from typing import List, Tuple\n"
        "def f(xs: List[int]):\n"
        "    total = 0\n"
        "    stale = 1\n"
        "    count = 0\n"
        "    for x in xs:\n"
        "        count += x\n"
        "    try:\n"
        "        pass\n"
        "    except OSError as exc:\n"
        "        pass\n"
        "    _, last = xs\n"
        "    return [total for _ in xs]\n"
    )
    assert unused_imports(tree) == [(1, "os"), (2, "Tuple")]
    assert unread_locals(tree) == [(5, "stale"), (11, "exc"), (13, "last")]
