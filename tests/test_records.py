"""The records: immutable named tuples, a cold import that loads no ``dataclasses``, and one fact record per family
and per basis that no module bypasses."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import bifib
from bifib.bases import BASES, BasisFamily, BasisSpec, decompose
from bifib.coefficients import FAMILIES, Family, MethodMismatch, cross_check
from bifib.report import CheckResult
from bifib.sequences import u_poly


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    # modules the interpreter loaded before the import (site's among them) do not count
    code = "import sys; before = set(sys.modules); import bifib, bifib.cli; print(*sorted(set(sys.modules) - before))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(result.stdout.split())
    assert "bifib.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "record",
    [
        BasisSpec(BasisFamily.BU, 3),
        decompose(u_poly(5), BasisSpec(BasisFamily.BU, 2)),
        FAMILIES[Family.A].scheme,
        FAMILIES[Family.A],
        BASES[BasisFamily.BV],
        MethodMismatch(2, 1, {"closed": 3, "recurrence": 4}),
        cross_check(Family.B, 3),
        CheckResult("lemma1.det.BU", True, "det = 1"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_frozen(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert record == tuple(record)
    if isinstance(record, CheckResult):  # verify's result record, which a caller may put in a set
        assert hash(record) == hash(tuple(record))


def test_basis_spec_repr_is_pinned():
    assert repr(BasisSpec(BasisFamily.BU, 3)) == "BasisSpec(family=<BasisFamily.BU: 'BU'>, n=3)"


def _names_a_member(node):
    """Whether ``node`` is ``Family.<X>`` or ``BasisFamily.<X>``."""
    owner = node.value if isinstance(node, ast.Attribute) else None
    return isinstance(owner, ast.Name) and owner.id in {"Family", "BasisFamily"}


def decisions_by_name(source, module):
    """Where ``source`` decides on a family or a basis by name: ``is``, ``==`` or ``!=`` with a ``Family`` or
    ``BasisFamily`` member, membership in a tuple, list or set of them, or a dict literal keyed by them other than
    the ``FAMILIES`` and ``BASES`` tables and the operator rows of ``operators.family_orders``."""
    tree = ast.parse(source)
    tables = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id in ("FAMILIES", "BASES") for target in targets):
                tables.add(node.value)
        if module == "operators" and isinstance(node, ast.FunctionDef) and node.name == "family_orders":
            tables.update(inner for inner in ast.walk(node) if isinstance(inner, ast.Dict))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            compared = any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops) and any(
                map(_names_a_member, operands))
            contained = any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and any(
                isinstance(operand, (ast.Tuple, ast.List, ast.Set)) and any(map(_names_a_member, operand.elts))
                for operand in operands)
            if compared or contained:
                found.append(f"{module}:{node.lineno}")
        elif isinstance(node, ast.Dict) and node not in tables and any(map(_names_a_member, node.keys)):
            found.append(f"{module}:{node.lineno}")
    return found


def test_no_module_decides_on_a_family_or_a_basis_by_name():
    """A family's or a basis's facts live in its record in ``FAMILIES`` or ``BASES``, so changing one is one edit."""
    planted = {
        "def f(family):\n    return family is Family.E\n": ["planted:2"],
        "def f(family):\n    return family == Family.E or family != Family.A\n": ["planted:2", "planted:2"],
        "def f(b):\n    return b in (BasisFamily.BU_STAR, BasisFamily.BV_STAR)\n": ["planted:2"],
        "ROWS = {Family.A: 0, Family.B: 0}\nFAMILIES = {Family.A: 0}\n": ["planted:1"],
        "def family_orders():\n    return {Family.A: 0}\n": ["planted:2"],  # allowed in operators only
    }
    for source, expected in planted.items():
        assert decisions_by_name(source, "planted") == expected, source
    sources = sorted(Path(bifib.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    assert [where for path in sources for where in decisions_by_name(path.read_text(), path.stem)] == []


def _holds_a_letter(node):
    """Whether ``node`` is the string "U" or "V", a ``SequenceKind`` member, or a tuple, list or set literal holding
    one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_holds_a_letter, node.elts))
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "SequenceKind"
    return isinstance(node, ast.Constant) and node.value in ("U", "V")


def letter_comparisons(source, module):
    """Where ``source`` compares with the sequence letter "U" or "V": any comparison one of whose operands is that
    string, a ``SequenceKind`` member, or a tuple, list or set literal holding one."""
    return [f"{module}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and any(map(_holds_a_letter, [node.left, *node.comparators]))]


def test_only_sequences_decides_on_a_member_by_its_letter():
    """The weight rule (U_i has weight i - 1, V_i weight i) and the seeds live in ``sequences``, so no other module
    tells U from V by its letter or its ``SequenceKind``: bases, schemes and the CLI derive indices and orders from
    ``member_weight`` and its inverse, and ``evaluate_numbers`` its seeds from ``SequenceKind.seeds``."""
    planted = {
        'def f(kind, index):\n    return kind == "U" and index == 0\n': ["planted:2"],
        'def f(kind):\n    return "V" != kind\n': ["planted:2"],
        'def f(kind):\n    return kind is "U"\n': ["planted:2"],
        'def f(kind):\n    return kind in ("U", "V") or kind not in ["V"]\n': ["planted:2", "planted:2"],
        'def f(kind):\n    return kind == "T" or kind in "UV"\n': [],  # another letter, or a membership in a string
        "def f(kind):\n    return kind is SequenceKind.FIBONACCI_U\n": ["planted:2"],
        "def f(kind):\n    return kind in (SequenceKind.LUCAS_V,) or kind is Family.A\n": ["planted:2"],
        "def f(kind):\n    return kind.seeds() if kind else SequenceKind.LUCAS_V\n": [],  # no comparison
        'LETTERS = {"U": 0, "V": 1}\n': [],  # a table keyed by the letters decides nothing
    }
    for source, expected in planted.items():
        assert letter_comparisons(source, "planted") == expected, source
    sources = {path.stem: path.read_text() for path in sorted(Path(bifib.__file__).parent.glob("*.py"))}
    assert letter_comparisons(sources.pop("sequences"), "sequences") != []  # the rule's one owner
    assert [where for module, source in sources.items() for where in letter_comparisons(source, module)] == []
