"""Rules on the package source that no behaviour test would catch.

``python -O`` strips ``assert`` statements, so a check written as one
silently disappears; and no float may enter the exact computation.  The
one float allowed is the approximate slope column of the pretty slope
table, in ``cli._slope_rows_text``.  No function is memoized with
``functools.cache`` or ``lru_cache`` either: a module-level memo would
carry tables over from one call to the next, so repeated calls would no
longer each do their own work.  The one allowed is the argument parser
builder, ``cli.build_parser``.  ``decimal`` serves only to print N times
a coordinate, in ``cli._times``: there every ``Context`` traps
``Inexact`` and ``Rounded``, so no decimal step can round, and nothing
else of the module is used (no ``Decimal`` operator falls back to the
default 28-digit context).  Every name a module exports in ``__all__``,
and every non-underscore method and property of a non-underscore class,
is reached from outside the test suite: from the package itself, the
demos, the benchmark or the acceptance module; a public name that only
unit tests call is dead weight.  Inside ``schubert`` an index is a
plain ascending tuple:
``SchubertIndex`` is built only where indices come in, by ``make_index``
and ``balanced_pairs``, so no inner loop wraps and re-validates every
term.  ``families`` picks a verify suite from its table of suites and
never compares a suite name with ``==``, so a new suite is one table
entry rather than one more branch.  Likewise no module compares a
family name from ``divisors.FAMILIES`` with ``==``, and only
``divisors`` spells one out: a new family is one table entry.  No
module compares a value with the class names ``"a"``, ``"b"`` or
``"c"`` either: a class is picked by ``tautpush.TautCombo.unit``, the
one place an unknown name is refused, or by position in
``tautpush.CLASSES``.  No
``Fraction`` is made of a nonzero integer literal alone (``Fraction(0)``
may still start a sum): an integral constant stays an ``int``, so
integral table entries reach the eliminator without a ``Fraction`` to
clear.  Inside ``schubert`` a
``Fraction`` is built only by ``zeta_power_integral``, which returns the
closed form as one: the oracle path, from the closed form's (num, den)
to the table entries, stays on ints.  Likewise inside ``families``
``_forward_eliminate``, ``_solve_unique`` and ``_reconstruct`` build no
``Fraction``, nested functions included: a solution stays int
numerators over one denominator, and only the public ``reconstruct``
and the printed values of a report turn it into ``Fraction``s.
``bnslopes/__init__.py`` holds its
docstring and nothing else, so each name has one import path: the module
that defines it.  No module imports ``dataclasses``: its decorator
generates and ``exec``s every method of a record each time the package
is imported, a cost no bytecode cache saves; the records derive from
``record.Record``, whose methods are plain source.  Only
``Record.__init__`` sets a record's fields: no ``object.__setattr__``
appears outside ``record.py``, so no record writes its field list out
again as a constructor that sets one field per line, or keeps a value
computed on first use.  Every record's ``__slots__`` are its
``_fields``, so a record holds no hidden state.  A
record defines its own ``__init__`` only to validate, so every such
``__init__`` raises somewhere: one that only fills in a default is a
second constructor that no caller needs.  Only
``schubert._zeta_layers`` takes zeta steps with ``_zeta_successors``,
so no second Pieri dynamic program grows beside it, and it takes the
Grassmannian alone: its table always runs from the zero index to the
point class, so no second start beside it comes back either.
``families`` imports nothing from ``numeric``: its one binomial, the
size of the brute-force gate, is ``math.comb``.  The type hints of
every function and method resolve with ``typing.get_type_hints``:
``from __future__ import annotations`` leaves them unevaluated at run
time, so a name missing from the imports shows nowhere else.
``tautpush.castelnuovo_N`` calls no ``factorial``: it steps along the
short side of the rectangle by binomials, and a g! path would bring a
g-digit dividend and one long division back.  ``tautpush`` imports
nothing from ``functools`` or ``operator``: ``per_N_numerators`` reads
six values of each weighted bracket and sums them as plain integers, so
no chain of ``map``s over every row comes back.  Every module-level
import is read somewhere in its module, so a name that a change stops
using leaves the imports with it.
"""

import ast
import inspect
from importlib import import_module
from pathlib import Path
from typing import get_type_hints

import pytest

from bnslopes import schubert
from bnslopes.divisors import FAMILIES
from bnslopes.families import SUITES
from bnslopes.record import Record
from bnslopes.tautpush import CLASSES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bnslopes"
SOURCES = sorted(SRC.glob("*.py"))
FLOAT_ALLOWED = {("cli", "_slope_rows_text")}
CACHE_ALLOWED = {("cli", "build_parser")}
MEMOIZERS = {"cache", "lru_cache"}
DECIMAL_ALLOWED = {("cli", "_times")}
DECIMAL_NAMES = {"Context", "MAX_PREC", "MAX_EMAX", "Inexact", "Rounded"}
INDEX_BUILDERS = {"make_index", "balanced_pairs"}
FRACTION_BUILDERS = {"zeta_power_integral"}
INT_SOLVER = {"_forward_eliminate", "_solve_unique", "_reconstruct"}
STEP_ALLOWED = {("schubert", "_zeta_layers")}
FOLD_BANNED = {"functools", "operator"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _owned(tree: ast.Module, match):
    """(innermost enclosing function or None, line) of each node that
    ``match`` accepts; a function's decorators count as its own."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _float_calls(tree: ast.Module):
    return _owned(
        tree,
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "float",
    )


def _memoizer_uses(tree: ast.Module):
    """``functools.cache``/``lru_cache`` references and imports of them."""

    def match(node):
        if isinstance(node, ast.Attribute):
            return (
                node.attr in MEMOIZERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            )
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            return any(alias.name in MEMOIZERS for alias in node.names)
        return False

    return _owned(tree, match)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_float_only_in_slope_display(path):
    calls = _float_calls(_tree(path))
    stray = [(owner, line) for owner, line in calls if (path.stem, owner) not in FLOAT_ALLOWED]
    assert not stray, f"{path.name}: float called at {stray}"


def test_allowed_float_is_seen():
    # keeps the allowance from going stale and the visitor from going blind
    assert [owner for owner, _ in _float_calls(_tree(SRC / "cli.py"))] == ["_slope_rows_text"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_memoization(path):
    uses = _memoizer_uses(_tree(path))
    stray = [(owner, line) for owner, line in uses if (path.stem, owner) not in CACHE_ALLOWED]
    assert not stray, f"{path.name}: functools memoizer at {stray}"


def test_allowed_cache_is_seen():
    assert [owner for owner, _ in _memoizer_uses(_tree(SRC / "cli.py"))] == ["build_parser"]


def test_memoizer_visitor_sees_imports_and_decorators():
    tree = ast.parse(
        "from functools import lru_cache\n"
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f():\n"
        "    pass\n"
    )
    assert _memoizer_uses(tree) == [(None, 1), ("f", 3)]


def _index_constructions(tree: ast.Module):
    return _owned(
        tree,
        lambda n: isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "SchubertIndex",
    )


def test_schubert_index_built_only_at_the_boundary():
    calls = _index_constructions(_tree(SRC / "schubert.py"))
    stray = [(owner, line) for owner, line in calls if owner not in INDEX_BUILDERS]
    assert not stray, f"schubert.py: SchubertIndex built at {stray}"
    assert {owner for owner, _ in calls} == INDEX_BUILDERS


def test_index_visitor_sees_calls_in_nested_functions():
    tree = ast.parse(
        "x = SchubertIndex(s, b)\n"
        "def f():\n"
        "    def g():\n"
        "        return {SchubertIndex(s, k): v for k, v in t}\n"
        "    return SchubertIndex\n"
    )
    assert _index_constructions(tree) == [(None, 1), ("g", 4)]


def _decimal_uses(tree: ast.Module):
    """References to the ``decimal`` module, imports from it and aliased
    imports of it; a plain ``import decimal`` is not a use."""

    def match(node):
        if isinstance(node, ast.Name):
            return node.id == "decimal"
        if isinstance(node, ast.ImportFrom):
            return node.module == "decimal"
        if isinstance(node, ast.Import):
            return any(a.name == "decimal" and a.asname for a in node.names)
        return False

    return _owned(tree, match)


def _decimal_attributes(tree: ast.Module):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "decimal"
    ]


def _traps(call: ast.Call):
    for kw in call.keywords:
        if kw.arg == "traps" and isinstance(kw.value, (ast.List, ast.Tuple, ast.Set)):
            return {
                e.attr for e in kw.value.elts
                if isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name) and e.value.id == "decimal"
            }
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_decimal_only_in_exact_renderer(path):
    tree = _tree(path)
    uses = _decimal_uses(tree)
    stray = [(owner, line) for owner, line in uses if (path.stem, owner) not in DECIMAL_ALLOWED]
    assert not stray, f"{path.name}: decimal used at {stray}"
    names = {node.attr for node in _decimal_attributes(tree)}
    assert names <= DECIMAL_NAMES, f"{path.name}: decimal.{sorted(names - DECIMAL_NAMES)}"
    for node in _decimal_attributes(tree):
        if node.attr == "Context":
            call = next(
                (c for c in ast.walk(tree) if isinstance(c, ast.Call) and c.func is node), None
            )
            assert call is not None, f"{path.name}:{node.lineno}: decimal.Context not called"
            assert _traps(call) >= {"Inexact", "Rounded"}, f"{path.name}:{node.lineno}: traps"


def test_allowed_decimal_is_seen():
    tree = _tree(SRC / "cli.py")
    assert {owner for owner, _ in _decimal_uses(tree)} == {"_times"}
    contexts = [node for node in _decimal_attributes(tree) if node.attr == "Context"]
    assert len(contexts) == 1


def test_decimal_visitor_sees_imports_and_missing_traps():
    tree = ast.parse(
        "import decimal as dec\n"
        "from decimal import Decimal\n"
        "def f():\n"
        "    return decimal.Context(traps=[decimal.Inexact])\n"
    )
    assert _decimal_uses(tree) == [(None, 1), (None, 2), ("f", 4), ("f", 4)]
    (call,) = [c for c in ast.walk(tree) if isinstance(c, ast.Call)]
    assert _traps(call) == {"Inexact"}


def _referenced_names(tree: ast.Module, *, strings: bool = False) -> set:
    """Names a tree reaches as a ``Name``, an ``Attribute`` or an import
    alias, and with ``strings`` every string constant too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _exported(path: Path) -> list:
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def _reached() -> set:
    # the tracer in bench/ names the functions it wraps by string
    reached = set()
    for path in SOURCES:
        reached |= _referenced_names(_tree(path))
    for path in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        reached |= _referenced_names(_tree(path))
    for path in sorted((ROOT / "bench").glob("*.py")):
        reached |= _referenced_names(_tree(path), strings=True)
    return reached


def test_package_init_holds_only_its_docstring():
    tree = _tree(SRC / "__init__.py")
    assert ast.get_docstring(tree), "__init__.py: no docstring"
    stray = [(type(node).__name__, node.lineno) for node in tree.body[1:]]
    assert not stray, f"__init__.py: {stray} after the docstring"


def test_every_export_is_reached_outside_unit_tests():
    reached = _reached()
    unreached = [
        f"{path.stem}.{name}" for path in SOURCES for name in _exported(path) if name not in reached
    ]
    assert not unreached, f"exported but only unit tests reach: {unreached}"


def _public_members(tree: ast.Module) -> list:
    """(class, member) for each non-underscore method or property of a
    non-underscore top-level class."""
    return [
        (cls.name, member.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
    ]


def test_every_public_member_is_reached_outside_unit_tests():
    reached = _reached()
    unreached = [
        f"{path.stem}.{cls}.{name}"
        for path in SOURCES
        for cls, name in _public_members(_tree(path))
        if name not in reached
    ]
    assert not unreached, f"public members only unit tests reach: {unreached}"


def test_member_visitor_sees_methods_and_properties_of_public_classes():
    tree = ast.parse(
        "class A:\n"
        "    x: int\n"
        "    def f(self): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    @classmethod\n"
        "    def c(cls): pass\n"
        "    def _h(self): pass\n"
        "    def __str__(self): pass\n"
        "class _B:\n"
        "    def g(self): pass\n"
        "def top(): pass\n"
    )
    assert _public_members(tree) == [("A", "f"), ("A", "p"), ("A", "c")]


def test_export_visitor_sees_names_attributes_aliases_and_strings():
    tree = ast.parse("from m import a as z\nb.c\nd\nx = 'e'\n")
    assert _referenced_names(tree) == {"a", "b", "c", "d", "x"}
    assert _referenced_names(tree, strings=True) == {"a", "b", "c", "d", "x", "e"}


def _name_comparisons(tree: ast.Module, names) -> list:
    """Lines where ``==`` or ``!=`` compares something with a string
    constant from ``names``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(
            isinstance(e, ast.Constant) and isinstance(e.value, str) and e.value in names
            for e in [node.left, *node.comparators]
        )
    )


def test_suites_are_not_chosen_by_comparing_names():
    lines = _name_comparisons(_tree(SRC / "families.py"), set(SUITES))
    assert not lines, f"families.py: suite name compared with == at lines {lines}"


def test_classes_are_not_chosen_by_comparing_names():
    lines = {path.name: _name_comparisons(_tree(path), set(CLASSES)) for path in SOURCES}
    lines = {name: found for name, found in lines.items() if found}
    assert not lines, f"class name compared with == at {lines}"


def _string_constants(tree: ast.Module, names) -> list:
    """Lines of the string constants from ``names``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_families_are_not_chosen_by_comparing_names(path):
    tree = _tree(path)
    lines = _name_comparisons(tree, set(FAMILIES))
    assert not lines, f"{path.name}: family name compared with == at lines {lines}"
    if path.stem != "divisors":
        lines = _string_constants(tree, set(FAMILIES))
        assert not lines, f"{path.name}: family name spelled out at lines {lines}"


def test_allowed_family_names_are_seen():
    # keeps the allowance from going stale: the table and the constructors name each family
    lines = _string_constants(_tree(SRC / "divisors.py"), set(FAMILIES))
    assert len(lines) == 2 * len(FAMILIES), lines


def test_name_comparison_visitor_sees_both_sides_and_chains():
    tree = ast.parse(
        "if name == 'pieri': pass\n"
        "elif 'symmetry' != name: pass\n"
        "x = a < b == 'castelnuovo'\n"
        "y = name in ('pieri',)\n"
        "z = name == 'all'\n"
    )
    assert _name_comparisons(tree, {"pieri", "symmetry", "castelnuovo"}) == [1, 2, 3]


def _fraction_int_literals(tree: ast.Module):
    """``Fraction(k)`` calls, also as ``fractions.Fraction``, whose one
    argument is a nonzero integer literal, signed or not."""

    def literal(arg):
        if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, (ast.USub, ast.UAdd)):
            arg = arg.operand
        return isinstance(arg, ast.Constant) and type(arg.value) is int and arg.value != 0

    def match(node):
        if not isinstance(node, ast.Call) or len(node.args) != 1 or node.keywords:
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "Fraction" and literal(node.args[0])

    return _owned(tree, match)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_fraction_of_an_integer_literal(path):
    calls = _fraction_int_literals(_tree(path))
    assert not calls, f"{path.name}: Fraction of a nonzero int literal at {calls}"


def test_fraction_literal_visitor_sees_signs_and_skips_zero_and_ratios():
    tree = ast.parse(
        "a = Fraction(10)\n"
        "b = Fraction(-2), Fraction(0), Fraction(1, n), Fraction(n)\n"
        "def f():\n"
        "    return fractions.Fraction(+3), Fraction(2.0), Fraction('1')\n"
    )
    assert _fraction_int_literals(tree) == [(None, 1), (None, 2), ("f", 4)]


def _calls(tree: ast.Module, callee: str):
    """Calls of ``callee``, also qualified, as ``fractions.Fraction(...)``."""

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == callee

    return _owned(tree, match)


def test_schubert_builds_fractions_only_for_the_public_closed_form():
    calls = _calls(_tree(SRC / "schubert.py"), "Fraction")
    stray = [(owner, line) for owner, line in calls if owner not in FRACTION_BUILDERS]
    assert not stray, f"schubert.py: Fraction built at {stray}"
    assert {owner for owner, _ in calls} == FRACTION_BUILDERS


def test_fraction_visitor_sees_qualified_and_nested_calls():
    tree = ast.parse(
        "x = Fraction(1, 2)\n"
        "def f():\n"
        "    def g():\n"
        "        return [fractions.Fraction(n) for n in t]\n"
        "    return Fraction, y.Fraction\n"
    )
    assert _calls(tree, "Fraction") == [(None, 1), ("g", 4)]


def _calls_within(tree: ast.Module, functions, callee: str):
    """(function, line) of each call of ``callee``, as :func:`_calls`
    finds them, anywhere inside a module-level function named in
    ``functions``, its nested functions included."""
    return [
        (node.name, line)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in functions
        for _, line in _calls(node, callee)
    ]


def test_families_solver_builds_no_fraction():
    tree = _tree(SRC / "families.py")
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert INT_SOLVER <= defined
    calls = _calls_within(tree, INT_SOLVER, "Fraction")
    assert not calls, f"families.py: Fraction built at {calls}"
    assert "reconstruct" in {owner for owner, _ in _calls(tree, "Fraction")}


def test_solver_fraction_visitor_sees_nested_calls_and_skips_other_functions():
    tree = ast.parse(
        "def _solve_unique():\n"
        "    def inner():\n"
        "        return fractions.Fraction(1, 2)\n"
        "    return [Fraction(x, 3) for x in t], Fraction\n"
        "def reconstruct():\n"
        "    return Fraction(1, 2)\n"
        "class _reconstruct:\n"
        "    x = Fraction(1, 2)\n"
    )
    assert _calls_within(tree, INT_SOLVER, "Fraction") == [("_solve_unique", 3), ("_solve_unique", 4)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_the_zeta_layers_take_zeta_steps(path):
    calls = _calls(_tree(path), "_zeta_successors")
    stray = [(owner, line) for owner, line in calls if (path.stem, owner) not in STEP_ALLOWED]
    assert not stray, f"{path.name}: _zeta_successors called at {stray}"


def test_allowed_zeta_step_is_seen():
    calls = _calls(_tree(SRC / "schubert.py"), "_zeta_successors")
    assert [owner for owner, _ in calls] == ["_zeta_layers"]


def test_zeta_layers_take_only_the_spec():
    assert list(inspect.signature(schubert._zeta_layers).parameters) == ["spec"]


def _numeric_imports(tree: ast.Module):
    """Imports of the package's ``numeric`` module or of names from it."""

    def match(node):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.split(".")[-1] == "numeric" or any(a.name == "numeric" for a in node.names)
        return isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "numeric" for a in node.names)

    return _owned(tree, match)


def test_families_imports_nothing_from_numeric():
    imports = _numeric_imports(_tree(SRC / "families.py"))
    assert not imports, f"families.py: numeric imported at {imports}"


def test_numeric_import_visitor_sees_every_form():
    tree = ast.parse(
        "from .numeric import binomial\n"
        "from . import numeric\n"
        "import bnslopes.numeric\n"
        "from bnslopes.numeric import factorial\n"
        "from .numerics import x\n"
    )
    assert _numeric_imports(tree) == [(None, 1), (None, 2), (None, 3), (None, 4)]
    assert _numeric_imports(_tree(SRC / "divisors.py"))


def _castelnuovo_factorials(tree: ast.Module):
    """``factorial`` calls, also qualified, inside ``castelnuovo_N``."""
    return [(owner, line) for owner, line in _calls(tree, "factorial") if owner == "castelnuovo_N"]


def test_castelnuovo_count_takes_no_factorial():
    calls = _castelnuovo_factorials(_tree(SRC / "tautpush.py"))
    assert not calls, f"tautpush.py: castelnuovo_N calls factorial at {calls}"


def test_factorial_visitor_sees_the_g_factorial_path():
    tree = ast.parse(
        "def castelnuovo_N(g, r, d):\n"
        "    return math.factorial(g) // prod(factorial(m + i) for i in range(r + 1))\n"
        "def other(n):\n"
        "    return factorial(n)\n"
    )
    assert _castelnuovo_factorials(tree) == [("castelnuovo_N", 2), ("castelnuovo_N", 2)]


def _stdlib_imports(tree: ast.Module, modules):
    """``import m``, aliased or not, and ``from m import ...`` for each
    standard-library module name m in ``modules``; a package's own module
    of that name is not the standard library's."""

    def match(node):
        if isinstance(node, ast.Import):
            return any(alias.name in modules for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module in modules and not node.level

    return _owned(tree, match)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_dataclasses(path):
    imports = _stdlib_imports(_tree(path), {"dataclasses"})
    assert not imports, f"{path.name}: dataclasses imported at {imports}"


def test_dataclasses_visitor_sees_aliases_and_nested_imports():
    tree = ast.parse(
        "import dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "def f():\n"
        "    import os, dataclasses\n"
        "import dataclasses_json\n"
        "from .dataclasses import x\n"
    )
    assert _stdlib_imports(tree, {"dataclasses"}) == [(None, 1), (None, 2), ("f", 4)]


def test_tautpush_imports_nothing_from_functools_or_operator():
    imports = _stdlib_imports(_tree(SRC / "tautpush.py"), FOLD_BANNED)
    assert not imports, f"tautpush.py: functools or operator imported at {imports}"


def test_fold_import_visitor_sees_every_form():
    tree = ast.parse(
        "from functools import partial, reduce\n"
        "from operator import add, mul\n"
        "import functools\n"
        "import operator as op\n"
        "def f():\n"
        "    from functools import reduce\n"
        "from itertools import accumulate\n"
        "from .operator import x\n"
        "import functools_extra\n"
    )
    assert _stdlib_imports(tree, FOLD_BANNED) == [(None, 1), (None, 2), (None, 3), (None, 4), ("f", 6)]
    assert _stdlib_imports(_tree(SRC / "cli.py"), FOLD_BANNED)


def _unused_imports(tree: ast.Module) -> list:
    """(name, line) of each module-level import whose bound name no
    ``Name`` node reads; an ``Attribute`` chain ``a.b.c`` reads its root
    ``a``, and an annotation counts as a read.  ``from __future__``
    imports are exempt."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((name, node.lineno))
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name}: imported but never read: {unused}"


def test_unused_import_visitor_sees_aliases_and_annotations():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import List, Sequence as Seq\n"
        "from .m import used, unused\n"
        "def f(x: List[int]) -> Seq:\n"
        "    import sys\n"
        "    return os.path.join(used, json.dumps(x))\n"
    )
    assert _unused_imports(tree) == [("j", 3), ("unused", 5)]


def _object_setattrs(tree: ast.Module):
    """``object.__setattr__`` calls, whatever slot they name."""

    def match(node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        func = node.func
        return func.attr == "__setattr__" and isinstance(func.value, ast.Name) and func.value.id == "object"

    return _owned(tree, match)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "record"], ids=lambda p: p.stem)
def test_only_the_record_constructor_sets_fields(path):
    calls = _object_setattrs(_tree(path))
    assert not calls, f"{path.name}: object.__setattr__ at {calls}"


def test_record_constructor_is_seen():
    assert [owner for owner, _ in _object_setattrs(_tree(SRC / "record.py"))] == ["__init__"]


def test_setattr_visitor_sees_every_object_setattr():
    tree = ast.parse(
        "object.__setattr__(self, 'x', 1)\n"
        "def f(self, name):\n"
        "    object.__setattr__(self, '_x', 2)\n"
        "    object.__setattr__(self, name, 3)\n"
        "    other.__setattr__(self, 'y', 4)\n"
        "    object.__getattribute__(self, 'z')\n"
    )
    assert _object_setattrs(tree) == [(None, 1), ("f", 3), ("f", 4)]


def _record_classes():
    """Every subclass of ``record.Record`` that a module of the package defines."""
    for path in SOURCES:
        module = import_module("bnslopes" if path.stem == "__init__" else f"bnslopes.{path.stem}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, Record) and obj is not Record and obj.__module__ == module.__name__:
                yield obj


def test_record_slots_are_its_fields():
    hidden = [(cls.__name__, cls.__slots__) for cls in _record_classes() if cls.__slots__ != cls._fields]
    assert not hidden, f"records with slots beyond their fields: {hidden}"


def test_every_record_class_is_seen():
    assert {cls.__name__ for cls in _record_classes()} == {
        "CheckReport", "ChowClass", "DivisorClass", "Family", "FamilyParams", "GrassmannianSpec",
        "GrdParams", "SchubertIndex", "SlopeReport", "TautCombo",
    }


def _record_inits(tree: ast.Module):
    """(class, line, raises) of each ``__init__`` of a class that names
    ``Record`` among its bases; ``raises`` tells whether it contains a
    ``raise``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Record" not in {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                raises = any(isinstance(sub, ast.Raise) for sub in ast.walk(item))
                found.append((node.name, item.lineno, raises))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_record_constructors_only_validate(path):
    inits = [(name, line) for name, line, raises in _record_inits(_tree(path)) if not raises]
    assert not inits, f"{path.name}: record __init__ that raises nothing at {inits}"


def test_validating_record_constructors_are_seen():
    names = {name for path in SOURCES for name, _, _ in _record_inits(_tree(path))}
    assert names == {"GrdParams", "GrassmannianSpec", "SchubertIndex"}


def test_record_constructor_visitor_sees_defaults_and_skips_other_classes():
    tree = ast.parse(
        "class A(Record):\n"
        "    def __init__(self, x=''):\n"
        "        super().__init__(x)\n"
        "class B(Record):\n"
        "    def __init__(self, x):\n"
        "        super().__init__(x)\n"
        "        if x < 0:\n"
        "            raise ValueError(x)\n"
        "class C(record.Record):\n"
        "    def __init__(self, x=None):\n"
        "        super().__init__({} if x is None else x)\n"
        "class D(ValueError):\n"
        "    def __init__(self, x):\n"
        "        super().__init__(x)\n"
        "class E(Record):\n"
        "    def row(self):\n"
        "        return {}\n"
    )
    assert _record_inits(tree) == [("A", 2, False), ("B", 5, True), ("C", 10, False)]


def _functions(module):
    """The functions a module defines and the methods of its classes,
    property getters and class methods included; a getter that is not a
    function, such as an ``attrgetter``, is skipped."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, classmethod):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield member
        elif inspect.isfunction(obj):
            yield obj


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_type_hints_resolve(path):
    module = import_module("bnslopes" if path.stem == "__init__" else f"bnslopes.{path.stem}")
    broken = []
    for fn in _functions(module):
        try:
            get_type_hints(fn)
        except NameError as exc:
            broken.append(f"{fn.__qualname__}: {exc}")
    assert not broken, f"{path.name}: {broken}"


def test_function_walk_sees_methods_properties_and_class_methods():
    names = {fn.__qualname__ for fn in _functions(import_module("bnslopes.divisors"))}
    assert {"_family_grd", "SlopeReport.row", "SlopeReport.pushforward", "FamilyParams.gp"} <= names
    # SlopeReport's r, g, d and N are attrgetter properties, not functions
    assert not {"SlopeReport.r", "SlopeReport.N", "FAMILIES"} & names
