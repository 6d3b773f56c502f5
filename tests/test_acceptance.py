"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers, Fractions, polynomial equality); the
stated runtime budgets are asserted on the measuring clock.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from bifib.bases import (
    BasisSpec,
    EXPECTED_DETERMINANTS,
    build_basis,
    coordinate_matrix,
    decompose,
)
from bifib.cli import main
from bifib.coefficients import Family, closed_triangle, recurrence_triangle
from bifib.operators import check_shift_law
from bifib.poly import BivarPoly
from bifib.report import all_passed, run_checks
from bifib.sequences import SequenceKind, u_poly, u_poly_closed, v_poly, v_poly_closed
from bifib.specializations import check_recurrence, check_transfer

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, title, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({title}): PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"


def run_table(family, n_max):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["table", family, str(n_max)])
    return code, buffer.getvalue()


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction", budget_seconds=1.0):
        for family, n_max in (("a", 8), ("b", 5), ("c", 5), ("d", 6), ("e", 6)):
            code, out = run_table(family, n_max)
            golden = (GOLDEN_DIR / f"table_{family}_{n_max}.txt").read_text()
            assert code == 0
            assert out == golden, f"table {family} {n_max} deviates from golden file"


def test_criterion_2_determinants():
    with criterion(2, "determinant values", budget_seconds=10.0):
        for family, expected in EXPECTED_DETERMINANTS.items():
            for n in range(1, 21):
                value = coordinate_matrix(BasisSpec(family, n)).det()
                assert value == expected, (family, n, value)


def test_criterion_3_decomposition_identities():
    with criterion(3, "decomposition identities", budget_seconds=60.0):
        results = [result for result, _ in run_checks("theorems", 30)]
        assert all_passed(results), [r.line() for r in results]


def test_criterion_4_closed_equals_recurrence():
    with criterion(4, "closed form vs recurrence", budget_seconds=10.0):
        for family in Family:
            closed = closed_triangle(family, 100).rows
            assert closed == recurrence_triangle(family, 100).rows, family
            for row in closed:
                assert all(isinstance(value, int) for value in row)


def test_criterion_5_operator_relations():
    with criterion(5, "operator relations and shift law", budget_seconds=30.0):
        assert all_passed(result for result, _ in run_checks("relations", 40))
        assert all_passed(check_shift_law(kind, 60) for kind in SequenceKind)


def test_criterion_6_sequence_closed_forms():
    with criterion(6, "sequence closed forms"):
        for n in range(1, 101):
            assert u_poly(n) == u_poly_closed(n), f"U_{n}"
            assert v_poly(n) == v_poly_closed(n), f"V_{n}"


def test_criterion_7_chebyshev_transfer():
    with criterion(7, "chebyshev correspondence and transfer"):
        assert all_passed(check_recurrence(kind, 40) for kind in "TU")
        assert all_passed(check_transfer(family, 15) for family in Family)


def test_criterion_8_property_suite():
    with criterion(8, "randomised property suite"):
        rng = random.Random(20240811)
        cases = 0

        def random_poly():
            return BivarPoly(
                [
                    ((rng.randint(0, 6), rng.randint(0, 6)), rng.randint(-9, 9))
                    for _ in range(rng.randint(0, 5))
                ]
            )

        # ring axioms on 1000 random triples
        for _ in range(1000):
            p, q, r = random_poly(), random_poly(), random_poly()
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            cases += 1

        # decomposition round trips on random coordinate vectors
        for family in EXPECTED_DETERMINANTS:
            for n in range(1, 13):
                spec = BasisSpec(family, n)
                vectors = build_basis(spec)
                for _ in range(3):
                    coords = [rng.randint(-9, 9) for _ in vectors]
                    target = BivarPoly()
                    for coeff, vector in zip(coords, vectors):
                        target = target + vector.scale(coeff)
                    assert list(decompose(target, spec).coords) == coords
                    cases += 1

        # homogeneity weights across the full range
        for n in range(101):
            assert {a + 2 * b for (a, b), _ in u_poly(n + 1).items()} == {n}
            assert {a + 2 * b for (a, b), _ in v_poly(n).items()} == {n}
            cases += 1

        # integer anchors at (1, 1)
        fib, fib_next = 0, 1
        luc, luc_next = 2, 1
        for n in range(31):
            assert u_poly(n).evaluate(1, 1) == fib
            assert v_poly(n).evaluate(1, 1) == luc
            fib, fib_next = fib_next, fib + fib_next
            luc, luc_next = luc_next, luc + luc_next
            cases += 1

        assert cases >= 1000
        print(f"property suite: {cases} randomised/property cases")
