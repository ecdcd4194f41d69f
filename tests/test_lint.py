"""Dead names in ``src/fpbits``, private names read across its modules, and
Python loops over a template's minutiae.

An offline stand-in for a linter's unused-name and private-access checks, on
the standard library's ``ast`` alone. A module-level import counts as used when its name
is read anywhere in the module (annotations included). A name bound inside a
function counts as read when it is loaded anywhere in that function,
including its nested functions and comprehensions, or updated in place
(``x += 1``). The name ``_`` and the re-exports of ``__init__.py`` are
exempt.

A name with one leading underscore belongs to its module: no other package
module imports it or reads it as ``module._name``.

Only ``cli`` imports ``synth``: the fit, the request and the evaluation load
no renderer, and the synthetic data reaches them as a dataset.

A template's minutiae are one structured array, read by column. Only
``template_io``, which parses and writes them one text line each, and
``synth``, which draws them one at a time, iterate over them in Python.

A dataclass that checks its values in ``__post_init__`` is frozen, so no
assignment after construction skips the check. Each array field of a frozen
dataclass goes through ``errors.check_arrays`` in its ``__post_init__``, and
that helper is the one place that sets an array's writeable flag. A dataclass
with an array field compares by ``errors.ArrayRecord``'s one equality rule.

Every deliberate failure is typed: a ``raise`` re-raises, or raises an
``FpbitsError`` of ``errors.py``, or the type a helper is handed (``error``)
or that it caught (``type(exc)``).

Every container loader of ``model_store`` but the file reader ``load_model_file``
ends in ``return _resaves(...)`` and returns nothing else, so each file it takes
re-saves to its own bytes.

Every function the package exports with a parameter annotated ``np.ndarray``
calls ``errors.check_arrays``, or is a one-row view: its docstring and one
``return`` of a call to a function of its module that does. No function outside
``errors.py`` calls ``.ravel()`` on one of its parameters: an argument is
checked, not flattened.

Every function the package exports is called from another of its modules or
named in the benchmark's source, so the public API holds no stage that only
its own module and the tests reach. Likewise every ``SynthParams`` field is set
by a ``synth`` flag of the CLI or by the benchmark; a value nothing sets is a
constant of ``synth.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fpbits"
PERFBENCH = SRC.parents[1] / "perfbench"
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
        "    with open(xs) as handle:\n"
        "        pass\n"
        "    return [total for _ in xs]\n"
    )
    assert unused_imports(tree) == [(1, "os"), (2, "Tuple")]
    assert unread_locals(tree) == [(5, "stale"), (11, "exc"), (13, "last"), (14, "handle")]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree):
    """``(line, name)`` of each private name read from another package module.

    Flagged are ``from .module import _name`` (or ``from fpbits.module``) and
    ``module._name``, where ``module`` is bound by ``from . import module``,
    ``from fpbits import module`` or ``import fpbits.module as module``.
    """
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "fpbits"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "fpbits"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("fpbits."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_reads_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = [f"line {line}: reads private {name!r}" for line, name in private_reads(tree)]
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_the_check_sees_private_reads():
    tree = ast.parse(
        "from . import pipeline\n"
        "from .codebook import _distances, centroid_distances\n"
        "from fpbits.matching import _one_pair\n"
        "import fpbits.protocol as protocol\n"
        "from .errors import __doc__\n"
        "import numpy as np\n"
        "def f(x, _y):\n"
        "    np._NoValue\n"
        "    pipeline.split_keys(x)\n"
        "    protocol._operating_points(x, x)\n"
        "    from fpbits import codebook\n"
        "    codebook._sq_norms(x)\n"
        "    return pipeline._split_keys(x, _y)\n"
    )
    assert private_reads(tree) == [
        (2, "_distances"),
        (3, "_one_pair"),
        (10, "protocol._operating_points"),
        (12, "codebook._sq_norms"),
        (13, "pipeline._split_keys"),
    ]


def synth_imports(tree):
    """Line of each import of the package's ``synth`` module in ``tree``.

    Seen are ``from .synth import ...``, ``from . import synth``, their
    ``fpbits`` spellings and ``import fpbits.synth``, at any depth.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (".synth", "fpbits.synth") or (
                    source in (".", "fpbits") and any(a.name == "synth" for a in node.names)):
                found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "fpbits.synth" for a in node.names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_cli_imports_synth(path):
    lines = synth_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert path.name == "cli.py" or not lines, f"{path.name}: imports synth at lines {lines}"


def test_the_check_sees_synth_imports():
    tree = ast.parse(
        "from .synth import keyed_rng\n"
        "from . import codebook, synth as s\n"
        "from fpbits.synth import SynthParams\n"
        "from fpbits import synth\n"
        "import fpbits.synth\n"
        "from .config import keyed_rng, synth\n"
        "import synth\n"
        "from numpy import synth\n"
        "def f():\n"
        "    from .synth import render\n"
        "    return render\n"
    )
    # a name of another module, or another package's synth, is not the module
    assert synth_imports(tree) == [1, 2, 3, 4, 5, 10]


# builtins that iterate over an argument
_ITERATING = {"all", "any", "dict", "enumerate", "filter", "frozenset", "iter", "list",
              "map", "max", "min", "reversed", "set", "sorted", "sum", "tuple", "zip"}
MINUTIA_LOOPS_ALLOWED = {"template_io.py", "synth.py"}


def _reads_minutiae(node):
    """Whether an expression is a ``minutiae`` array or derived from one by
    attribute, index or method call: ``t.minutiae``, ``minutiae[i]``,
    ``t.minutiae["x"].tolist()``."""
    while True:
        if isinstance(node, ast.Name):
            return node.id == "minutiae"
        if isinstance(node, ast.Attribute):
            if node.attr == "minutiae":
                return True
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return False


def minutia_loops(tree):
    """Lines where Python iterates over a template's minutiae.

    That is the iterable of a ``for`` or a comprehension, or an argument of an
    iterating builtin such as ``zip`` or ``list``, that reads a minutiae array
    (see ``_reads_minutiae``).
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            iterables = [node.iter]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _ITERATING):
            iterables = node.args
        else:
            continue
        found += [iterable.lineno for iterable in iterables if _reads_minutiae(iterable)]
    return sorted(found)


COLUMN_MODULES = [p for p in MODULES if p.name not in MINUTIA_LOOPS_ALLOWED]


@pytest.mark.parametrize("path", COLUMN_MODULES, ids=[p.name for p in COLUMN_MODULES])
def test_no_python_loops_over_minutiae(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = minutia_loops(tree)
    assert not lines, f"{path.name}: loops over minutiae on lines {lines}"


def test_the_check_sees_minutia_loops():
    tree = ast.parse(
        "def f(template, minutiae, other):\n"
        "    for m in template.minutiae:\n"
        "        pass\n"
        "    rows = [m for m in minutiae]\n"
        "    pairs = list(zip(template.minutiae, other))\n"
        "    angles = {t for t in minutiae['theta'].tolist()}\n"
        "    n = len(template.minutiae) + sum(len(t.minutiae) for t in other)\n"
        "    x = template.minutiae['x'][other] + 1\n"
        "    thetas = minutiae['theta'].tolist()\n"
        "    kinds = dict(enumerate(template.minutiae['kind']))\n"
        "    return [t for t in thetas], sorted(template.minutiae[:n])\n"
    )
    assert minutia_loops(tree) == [2, 4, 5, 6, 10, 11]


def _names_dataclass(node):
    """Whether a decorator is ``dataclass`` or ``dataclasses.dataclass``, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    return ((isinstance(node, ast.Name) and node.id == "dataclass")
            or (isinstance(node, ast.Attribute) and node.attr == "dataclass"))


def _sets(decorator, keyword, value):
    """Whether a decorator call passes ``keyword=value``, ``value`` a literal True or False."""
    return isinstance(decorator, ast.Call) and any(
        kw.arg == keyword and isinstance(kw.value, ast.Constant) and kw.value.value is value
        for kw in decorator.keywords
    )


def _is_array(annotation):
    return ast.unparse(annotation).strip("'\"") in ("np.ndarray", "numpy.ndarray")


def unfrozen_checked_records(tree):
    """``(line, name)`` of each dataclass that defines ``__post_init__`` but is not frozen."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list if _names_dataclass(d)]
        checks = any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                     for item in node.body)
        if decorators and checks and not any(_sets(d, "frozen", True) for d in decorators):
            found.append((node.lineno, node.name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_checked_records_are_frozen(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    records = unfrozen_checked_records(tree)
    assert not records, f"{path.name}: __post_init__ in a record that is not frozen: {records}"


def test_the_check_sees_unfrozen_checked_records():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    def __post_init__(self): pass\n"
        "@dataclass(eq=False)\n"
        "class B:\n"
        "    def __post_init__(self): pass\n"
        "@dataclasses.dataclass(frozen=False)\n"
        "class C:\n"
        "    def __post_init__(self): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    def __post_init__(self): pass\n"
        "@dataclasses.dataclass(eq=False, frozen=True)\n"
        "class E:\n"
        "    def __post_init__(self): pass\n"
        "@dataclass\n"
        "class F:\n"
        "    x: int = 0\n"
        "class G:\n"
        "    def __post_init__(self): pass\n"
        "def f():\n"
        "    @dataclass\n"
        "    class H:\n"
        "        def __post_init__(self): pass\n"
        "@dataclass(frozen=1)\n"
        "class I:\n"
        "    def __post_init__(self): pass\n"
    )
    assert unfrozen_checked_records(tree) == [(4, "A"), (7, "B"), (10, "C"), (25, "H"),
                                              (28, "I")]


def _call_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _checked_arrays(function):
    """The fields a function names in its ``check_arrays(self, ...)`` calls."""
    return {
        keyword.arg for node in ast.walk(function)
        if isinstance(node, ast.Call) and _call_name(node) == "check_arrays"
        and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
        for keyword in node.keywords
    }


def unfrozen_array_records(tree):
    """``(line, "record.field")`` of each field annotated ``np.ndarray`` of a frozen
    dataclass whose ``__post_init__`` does not pass it to ``check_arrays``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_names_dataclass(d) and _sets(d, "frozen", True) for d in node.decorator_list):
            continue
        checked = set().union(*(_checked_arrays(item) for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and item.name == "__post_init__"))
        found += [(item.lineno, f"{node.name}.{item.target.id}") for item in node.body
                  if isinstance(item, ast.AnnAssign) and _is_array(item.annotation)
                  and item.target.id not in checked]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_frozen_records_freeze_their_arrays(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fields = unfrozen_array_records(tree)
    assert not fields, (f"{path.name}: a frozen record keeps an np.ndarray that its "
                        f"__post_init__ does not pass to check_arrays: {fields}")


def test_the_check_sees_frozen_records_with_writeable_arrays():
    tree = ast.parse(
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class B:\n"
        "    x: np.ndarray = field(init=False)\n"
        "    def __post_init__(self):\n"
        "        self.check()\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: np.ndarray\n"
        "    def __post_init__(self):\n"
        "        self.x.flags.writeable = False\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: np.ndarray\n"
        "    y: np.ndarray\n"
        "    def __post_init__(self):\n"
        "        check_arrays(self, E, x=('f', None))\n"
        "@dataclass\n"
        "class E:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class F:\n"
        "    x: int\n"
        "    y: 'np.ndarray'\n"
        "class G:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class H:\n"
        "    x: numpy.ndarray\n"
        "    def post_init(self):\n"
        "        check_arrays(self, E, x=('f', None))\n"
        "@dataclass(frozen=True)\n"
        "class I:\n"
        "    x: np.ndarray\n"
        "    def __post_init__(self):\n"
        "        errors.check_arrays(self.other, E, x=('f', None))\n"
        "@dataclass(eq=False, frozen=True)\n"
        "class J:\n"
        "    x: np.ndarray\n"
        "    y: np.ndarray = field(init=False)\n"
        "    def __post_init__(self):\n"
        "        check_arrays(self, E, x=('b', None))\n"
        "        errors.check_arrays(self, E, y=('f', 'K'))\n"
    )
    assert unfrozen_array_records(tree) == [
        (5, "A.x"), (8, "B.x"), (13, "C.x"), (19, "D.y"), (28, "F.y"), (33, "H.x"), (38, "I.x")]


def _freezes(node):
    """Whether a node assigns ``<array>.flags.writeable`` or calls ``<array>.setflags``."""
    if isinstance(node, ast.Assign):
        return any(isinstance(target, ast.Attribute) and target.attr == "writeable"
                   and isinstance(target.value, ast.Attribute) and target.value.attr == "flags"
                   for target in node.targets)
    return isinstance(node, ast.Call) and _call_name(node) == "setflags"


def array_freezes(tree):
    """``(line, function)`` of each node that sets an array's writeable flag, with
    the name of the function it is in (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if _freezes(child):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return sorted(found)


def test_check_arrays_is_the_one_place_that_freezes_arrays():
    found = {path.name: array_freezes(ast.parse(path.read_text(encoding="utf-8")))
             for path in MODULES}
    others = {name: places for name, places in found.items()
              if any(function != "check_arrays" or name != "errors.py"
                     for _, function in places)}
    assert not others, f"arrays made read-only outside errors.check_arrays: {others}"
    assert found["errors.py"], "errors.check_arrays no longer makes arrays read-only"


def test_the_check_sees_array_freezes():
    tree = ast.parse(
        "x.flags.writeable = False\n"
        "def check_arrays(record):\n"
        "    for a in record:\n"
        "        a.flags.writeable = False\n"
        "class A:\n"
        "    def __post_init__(self):\n"
        "        self.x.flags.writeable = False\n"
        "        self.x.setflags(write=False)\n"
        "        def inner():\n"
        "            y.flags.writeable = True\n"
        "        self.x.flags.aligned\n"
        "        z = self.x.flags.writeable\n"
    )
    assert array_freezes(tree) == [
        (1, None), (4, "check_arrays"), (7, "__post_init__"), (8, "__post_init__"), (10, "inner")]



def _binds(node):
    """The names a class body binds by ``def`` or by plain assignment."""
    names = set()
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            names.update(target.id for target in item.targets if isinstance(target, ast.Name))
    return names


def array_records_off_the_rule(tree):
    """``(line, name)`` of each dataclass with an ``np.ndarray`` field that does not take
    ``ArrayRecord``'s equality: it keeps the generated ``__eq__`` (no ``eq=False``),
    does not derive from ``ArrayRecord``, or defines ``__eq__`` or ``__hash__`` itself."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list if _names_dataclass(d)]
        if not decorators or not any(isinstance(item, ast.AnnAssign) and _is_array(item.annotation)
                                     for item in node.body):
            continue
        bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
        if (not any(_sets(d, "eq", False) for d in decorators) or "ArrayRecord" not in bases
                or _binds(node) & {"__eq__", "__hash__"}):
            found.append((node.lineno, node.name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_array_records_take_the_one_equality_rule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    records = array_records_off_the_rule(tree)
    assert not records, (f"{path.name}: a dataclass with an np.ndarray field compares other "
                         f"than by errors.ArrayRecord: {records}")


def test_the_check_sees_array_records_off_the_rule():
    tree = ast.parse(
        "import dataclasses\n"
        "import numpy as np\n"
        "from dataclasses import dataclass\n"
        "from .errors import ArrayRecord\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class B(ArrayRecord):\n"
        "    x: np.ndarray\n"
        "@dataclass(eq=False, frozen=True)\n"
        "class C:\n"
        "    x: np.ndarray\n"
        "@dataclass(eq=False)\n"
        "class D(ArrayRecord):\n"
        "    x: 'numpy.ndarray'\n"
        "    def __eq__(self, other):\n"
        "        return self is other\n"
        "@dataclasses.dataclass(eq=False)\n"
        "class E(errors.ArrayRecord):\n"
        "    x: np.ndarray\n"
        "    __hash__ = object.__hash__\n"
        "@dataclass(eq=False, frozen=True)\n"
        "class F(errors.ArrayRecord):\n"
        "    x: int\n"
        "    y: np.ndarray\n"
        "@dataclass\n"
        "class G:\n"
        "    x: int\n"
        "class H:\n"
        "    x: np.ndarray\n"
        "@dataclass(eq=0)\n"
        "class I(ArrayRecord):\n"
        "    x: np.ndarray\n"
        "@dataclass(eq=False)\n"
        "class J(ArrayRecord):\n"
        "    x: np.ndarray\n"
        "    def __post_init__(self):\n"
        "        pass\n"
    )
    assert array_records_off_the_rule(tree) == [(6, "A"), (9, "B"), (12, "C"), (15, "D"),
                                                 (20, "E"), (33, "I")]


def _error_types():
    """The names of ``FpbitsError`` and every class ``errors.py`` derives from it."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    typed = {"FpbitsError"}
    for node in tree.body:  # each class after its base
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base) in typed for base in node.bases):
            typed.add(node.name)
    return typed


def untyped_raises(tree, typed):
    """``(line, text)`` of each ``raise`` that is not bare and raises neither a name in
    ``typed``, called or not, nor ``error(...)`` nor ``type(exc)(...)``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Attribute):  # errors.BadMagic
            name = raised.attr
        elif isinstance(raised, ast.Name):
            name = raised.id
        elif (isinstance(raised, ast.Call) and isinstance(raised.func, ast.Name)
              and raised.func.id == "type" and len(raised.args) == 1):
            name = "type(exc)"
        else:
            name = None
        if name not in typed | {"error", "type(exc)"}:
            found.append((node.lineno, ast.unparse(node.exc)))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_raise_is_typed(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raises = untyped_raises(tree, _error_types())
    assert not raises, f"{path.name}: raises no FpbitsError: {raises}"


def test_the_check_sees_untyped_raises():
    typed = _error_types()
    assert {"FpbitsError", "MalformedHeader", "FieldOutOfRange", "ModelMissing"} <= typed
    assert "ArrayRecord" not in typed and "_RecordError" in typed
    tree = ast.parse(
        "from . import errors\n"
        "from .errors import MalformedHeader\n"
        "def f(polarity, error):\n"
        "    if polarity not in ('similarity', 'dissimilarity'):\n"
        "        raise ValueError(f'unknown polarity {polarity!r}')\n"
        "    try:\n"
        "        pass\n"
        "    except KeyError as exc:\n"
        "        raise\n"
        "    except OSError as exc:\n"
        "        raise exc\n"
        "    except (TypeError, IndexError) as exc:\n"
        "        raise type(exc)(str(exc), 3) from None\n"
        "    raise MalformedHeader('bad') from None\n"
        "    raise errors.BadMagic('bad')\n"
        "    raise error(f'{polarity} must be finite')\n"
        "    raise MalformedHeader\n"
        "    raise RuntimeError\n"
        "    raise errors.ArrayRecord()\n"
        "    raise KeyError('x') from exc\n"
        "    raise type(exc)\n"
    )
    assert untyped_raises(tree, typed) == [
        (5, "ValueError(f'unknown polarity {polarity!r}')"), (11, "exc"), (18, "RuntimeError"),
        (19, "errors.ArrayRecord()"), (20, "KeyError('x')"), (21, "type(exc)")]


def _returns_resaved(node):
    return (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
            and _call_name(node.value) == "_resaves")


def loaders_off_the_resave(tree):
    """``(line, name)`` of each module-level ``load_*`` function but ``load_model_file``
    whose last statement is not ``return _resaves(...)``, or that returns anything else."""
    found = []
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("load_")
                and node.name != "load_model_file"
                and not (_returns_resaved(node.body[-1]) and all(
                    _returns_resaved(r) for r in ast.walk(node) if isinstance(r, ast.Return)))):
            found.append((node.lineno, node.name))
    return found


def test_every_container_loader_ends_in_the_resave():
    tree = ast.parse((SRC / "model_store.py").read_text(encoding="utf-8"))
    loaders = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("load_")]
    assert {"load_model", "load_finger", "load_bitstring"} <= set(loaders)
    off = loaders_off_the_resave(tree)
    assert not off, f"model_store.py: loaders that do not return through _resaves: {off}"


def test_the_check_sees_loaders_off_the_resave():
    tree = ast.parse(
        "def load_a(data):\n"
        "    return _resaves(data, A(data), save_a)\n"
        "def load_b(data):\n"
        "    return B(data)\n"
        "def load_c(data):\n"
        "    if not data:\n"
        "        return None\n"
        "    return _resaves(data, C(data), save_c)\n"
        "def load_d(data):\n"
        "    _resaves(data, D(data), save_d)\n"
        "def load_model_file(path):\n"
        "    return load_model(read_bytes(path))\n"
        "def save_e(record):\n"
        "    return bytes(record)\n"
        "def load_f(data):\n"
        "    return store._resaves(data, F(data), save_f)\n"
        "class G:\n"
        "    def load_g(self, data):\n"
        "        return G(data)\n"
    )
    assert loaders_off_the_resave(tree) == [(3, "load_b"), (5, "load_c"), (9, "load_d")]


def _exports():
    """``{module file: exported names}`` of the package's ``from .module import`` lines."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exports = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exports.setdefault(f"{node.module}.py", set()).update(a.name for a in node.names)
    return exports


def _calls(node, name):
    return any(isinstance(n, ast.Call) and _call_name(n) == name for n in ast.walk(node))


def _takes_arrays(function):
    arguments = function.args.posonlyargs + function.args.args + function.args.kwonlyargs
    return any(a.annotation is not None and "ndarray" in ast.unparse(a.annotation)
               for a in arguments)


def unchecked_array_functions(tree, exported):
    """``(line, name)`` of each function in ``exported`` with an ``np.ndarray`` parameter that
    neither calls ``check_arrays`` nor is a one-row view of a function that does."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    checked = {name for name, node in functions.items() if _calls(node, "check_arrays")}

    def delegates(node):
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        return (len(body) == 1 and isinstance(body[0], ast.Return) and body[0].value is not None
                and any(_calls(body[0].value, name) for name in checked))

    return sorted((node.lineno, name) for name, node in functions.items()
                  if name in exported and _takes_arrays(node)
                  and name not in checked and not delegates(node))


def test_every_exported_array_function_checks_its_arrays():
    exports, seen = _exports(), []
    for module, names in sorted(exports.items()):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        off = unchecked_array_functions(tree, names)
        assert not off, f"{module}: exported functions off the argument rule: {off}"
        seen += [n.name for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name in names and _takes_arrays(n)]
    assert {"lgs_score", "mbls_matrix", "fuse", "train_finger", "kmeans_train"} <= set(seen)


def test_the_check_sees_unchecked_array_functions():
    tree = ast.parse(
        "import numpy as np\n"
        "def a(x: np.ndarray):\n"
        "    [x] = check_arrays(locals(), E, x=(float, None))\n"
        "    return x\n"
        "def b(x: np.ndarray, n: int):\n"
        "    return np.asarray(x).ravel()[:n]\n"
        "def c(x: np.ndarray):\n"
        "    \"\"\":func:`a` of one row.\"\"\"\n"
        "    return a([x])[0]\n"
        "def d(x: np.ndarray):\n"
        "    return b([x], 1)[0]\n"
        "def e(x: 'Sequence[np.ndarray] | np.ndarray'):\n"
        "    y = x[0]\n"
        "    return a(y)\n"
        "def f(n: int, *, x: np.ndarray = None):\n"
        "    return n\n"
        "def g(x: list):\n"
        "    return x\n"
        "def h(x: np.ndarray):\n"
        "    return x\n"
        "def i(x: np.ndarray):\n"
        "    errors.check_arrays({'x': x}, E, x=(bool, None))\n"
    )
    exported = set("abcdefgi")  # h is not exported
    assert unchecked_array_functions(tree, exported) == [
        (5, "b"), (10, "d"), (12, "e"), (15, "f")]


def raveled_parameters(tree):
    """``(line, function, parameter)`` of each ``.ravel()`` or ``np.ravel(...)`` in a function
    whose operand reads one of that function's parameters, as ``np.asarray(x).ravel()`` does."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None}
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and _call_name(call) == "ravel"):
                continue
            operand = call.func.value if not call.args else call.args[0]
            read = sorted({n.id for n in ast.walk(operand) if isinstance(n, ast.Name)} & params)
            if read:
                found.append((call.lineno, node.name, read[0]))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=[p.name for p in MODULES if p.name != "errors.py"])
def test_no_parameter_is_raveled(path):
    found = raveled_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: parameters flattened, not checked: {found}"


def test_the_check_sees_raveled_parameters():
    tree = ast.parse(
        "def f(x, *, y=None):\n"
        "    a = x.ravel()\n"
        "    b = np.ravel(y)\n"
        "    c = np.asarray(x).ravel()\n"
        "    z = x\n"
        "    return z.ravel(), a, b, c\n"
        "def g(img):\n"
        "    op = lambda v: v.ravel()\n"
        "    def inner(w):\n"
        "        return w.ravel(), img.ravel()\n"
        "    return op, inner\n"
    )
    assert raveled_parameters(tree) == [(2, "f", "x"), (3, "f", "y"), (4, "f", "x"),
                                        (10, "g", "img"), (10, "inner", "w")]


def _identifiers(tree):
    """Every name, attribute and string constant in ``tree``: how source can name a function."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)})


def unreached_exports(modules, exports, named):
    """``(module, name)`` of each exported function of ``modules`` (``{file: tree}``) that
    no other module calls and ``named`` does not hold."""
    called = {module: {_call_name(n) for n in ast.walk(tree) if isinstance(n, ast.Call)}
              for module, tree in modules.items()}
    return sorted(
        (module, node.name) for module, names in exports.items()
        for node in modules[module].body
        if isinstance(node, ast.FunctionDef) and node.name in names and node.name not in named
        and not any(node.name in calls for other, calls in called.items() if other != module))


def test_every_export_is_reached():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    named = set().union(*(_identifiers(ast.parse(path.read_text(encoding="utf-8")))
                          for path in sorted(PERFBENCH.glob("*.py"))))
    assert "train_finger" in named and "lgs_score" in named  # the benchmark source was read
    off = unreached_exports(modules, _exports(), named)
    assert not off, f"exported functions only their own module reaches: {off}"


def test_the_check_sees_unreached_exports():
    modules = {
        "a.py": ast.parse(
            "def used(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return x\n"
            "def benched(x):\n"
            "    return x\n"
            "def reliability(x):\n"
            "    return x\n"
            "class Record:\n"
            "    pass\n"),
        "b.py": ast.parse(
            "from .a import used\n"
            "import a\n"
            "def caller(r):\n"
            "    return used(r.reliability), a.Record()\n"
            "def passed_not_called():\n"
            "    return map(a.helper, [])\n"),
    }
    exports = {"a.py": {"used", "helper", "benched", "reliability", "Record"},
               "b.py": {"caller"}}
    # a call in its own module, a function passed uncalled and an attribute that
    # shares a function's name do not reach it
    assert unreached_exports(modules, exports, {"benched"}) == [
        ("a.py", "helper"), ("a.py", "reliability"), ("b.py", "caller")]


def synth_setters(cli, bench):
    """The fields that ``cli``'s ``_SYNTH_FLAGS`` entries (their second item) and the keywords
    of ``SynthParams(...)`` calls in the ``bench`` trees set."""
    flags = [node.value for node in cli.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "_SYNTH_FLAGS" for t in node.targets)]
    return ({entry.elts[1].value for table in flags for entry in table.elts}
            | {keyword.arg for tree in bench for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _call_name(node) == "SynthParams"
               for keyword in node.keywords})


def _fields(tree, name):
    """The annotated fields of class ``name`` in ``tree``, in order."""
    [record] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return [s.target.id for s in record.body if isinstance(s, ast.AnnAssign)]


def test_every_synth_setting_has_a_setter():
    synth, cli = (ast.parse((SRC / name).read_text(encoding="utf-8"))
                  for name in ("synth.py", "cli.py"))
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))]
    setters = synth_setters(cli, bench)
    assert {"n_subjects", "noise_std"} <= setters  # the flag table was read
    off = [name for name in _fields(synth, "SynthParams") if name not in setters]
    assert not off, f"SynthParams fields that no flag or benchmark sets: {off}"


def test_the_check_sees_unset_synth_fields():
    cli = ast.parse(
        "_SYNTH_FLAGS = (\n"
        "    ('--a', 'a', int, None),\n"
        ")\n"
        "OTHER = (('--b', 'b', int, None),)\n"
    )
    bench = [ast.parse(
        "synth.SynthParams(c=1)\n"
        "SynthParams(**{'d': 1})\n"
        "Other(e=1)\n"
    )]
    synth = ast.parse(
        "class SynthParams:\n"
        "    a: int = 1\n"
        "    b: float = 2.0\n"
        "    c: int = 0\n"
        "    d: int = 0\n"
        "    e: int = 0\n"
        "    LIMIT = 3\n"
    )
    # a table of another name, a keyword spread from a dict and another record's
    # keyword set nothing
    setters = synth_setters(cli, bench)
    assert [name for name in _fields(synth, "SynthParams") if name not in setters] == [
        "b", "d", "e"]
