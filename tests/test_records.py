"""The result records: immutable named tuples, and a cold import that loads no ``dataclasses``."""

import subprocess
import sys

import pytest

from bifib.bases import BasisFamily, BasisSpec, decompose
from bifib.coefficients import SCHEMES, Family, MethodMismatch, cross_check
from bifib.report import CheckResult
from bifib.sequences import u_poly
from bifib.specializations import CHEBYSHEV_T


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
        SCHEMES[Family.A],
        MethodMismatch(2, 1, {"closed": 3, "recurrence": 4}),
        cross_check(Family.B, 3),
        CheckResult("lemma1.det.BU", True, "det = 1"),
        CHEBYSHEV_T,
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_frozen(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_basis_spec_repr_is_pinned():
    assert repr(BasisSpec(BasisFamily.BU, 3)) == "BasisSpec(family=<BasisFamily.BU: 'BU'>, n=3)"
