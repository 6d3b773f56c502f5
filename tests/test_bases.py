import builtins
import random
import re
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import comb, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifib import bases
from bifib.bases import (
    BASES,
    BasisFamily,
    BasisSpec,
    EXPECTED_DETERMINANTS,
    RationalMatrix,
    ambient_degree,
    build_basis,
    coordinate_matrix,
    decompose,
    det_by_column_reduction,
)
from bifib.coefficients import DecompositionScheme, Family, oracle_triangle
from bifib.errors import (
    DimensionError,
    DomainError,
    MalformedElement,
    SingularMatrixError,
)
from bifib.poly import BivarPoly, X, Y, sum_of_products
from bifib.report import all_passed, checks, run_checks
from bifib.sequences import SequenceCache, member_weight, u_poly, v_poly

SEQUENCE_BASES = list(EXPECTED_DETERMINANTS)


# -- basis construction -------------------------------------------------------


def test_bu_order_one():
    assert build_basis(BasisSpec(BasisFamily.BU, 1)) == [
        BivarPoly({(2, 0): 1}),
        BivarPoly({(2, 0): 1, (0, 1): 1}),
    ]


def test_bvstar_order_one():
    assert build_basis(BasisSpec(BasisFamily.BV_STAR, 1)) == [BivarPoly({(1, 0): 2})]


def test_order_zero_edge_cases():
    assert [BASES[family].lowest for family in BasisFamily] == [0, 0, 1, 1]
    assert build_basis(BasisSpec(BasisFamily.BU, 0)) == [u_poly(1)]
    assert build_basis(BasisSpec(BasisFamily.BV, 0)) == [v_poly(0)]
    for family in (BasisFamily.BU_STAR, BasisFamily.BV_STAR):
        with pytest.raises(DomainError):
            build_basis(BasisSpec(family, 0))
    with pytest.raises(DomainError):
        build_basis(BasisSpec(BasisFamily.BU, -1))


def test_vector_counts_and_ambient_degrees():
    for n in range(1, 8):
        for family in SEQUENCE_BASES:
            spec = BasisSpec(family, n)
            vectors = build_basis(spec)
            degree = ambient_degree(spec)
            assert len(vectors) == degree // 2 + 1
            for vector in vectors:
                assert {a + 2 * b for (a, b), _ in vector.items()} == {degree}


# -- coordinate matrices --------------------------------------------------------


def test_coordinate_matrix_bu_one():
    matrix = coordinate_matrix(BasisSpec(BasisFamily.BU, 1))
    assert matrix.row_list() == [[1, 1], [0, 1]]


def test_coordinate_matrix_bv_one():
    matrix = coordinate_matrix(BasisSpec(BasisFamily.BV, 1))
    assert matrix.row_list() == [[1, 1], [0, 2]]


def test_coordinate_matrix_bvstar_one():
    matrix = coordinate_matrix(BasisSpec(BasisFamily.BV_STAR, 1))
    assert matrix.row_list() == [[2]]


def test_coordinate_matrix_matches_the_product_built_matrix():
    for family in SEQUENCE_BASES:
        for n in range(1, 25):
            spec = BasisSpec(family, n)
            columns = [v.canonical_coordinates(ambient_degree(spec)) for v in build_basis(spec)]
            assert coordinate_matrix(spec) == RationalMatrix(zip(*columns))
    for spec in (BasisSpec(BasisFamily.BU_STAR, 0), BasisSpec(BasisFamily.BU, -1)):
        with pytest.raises(DomainError):
            coordinate_matrix(spec)


# -- exact linear algebra ----------------------------------------------------------


def test_identity_determinant():
    assert RationalMatrix([[1 if i == j else 0 for j in range(5)] for i in range(5)]).det() == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        RationalMatrix([[1, 2, 3], [4, 5, 6]]).det()


def test_solve_dimension_checks():
    with pytest.raises(DimensionError):
        RationalMatrix([[1, 2], [3, 4]]).solve([1])


def test_singular_solve_raises():
    with pytest.raises(SingularMatrixError):
        RationalMatrix([[1, 2], [2, 4]]).solve([1, 1])


def test_singular_determinant_is_zero():
    assert RationalMatrix([[1, 2], [2, 4]]).det() == 0


def test_det_with_zero_leading_pivot():
    assert RationalMatrix([[0, 1], [1, 0]]).det() == -1


def test_det_matches_minor_expansion_on_random_matrices():
    def minor_det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j, head in enumerate(rows[0]):
            sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * head * minor_det(sub)
        return total

    rng = random.Random(7)
    divisors = set()
    for trial in range(120):
        size = rng.randint(1, 4)
        # from trial 60 on, entries and right-hand sides have denominators 1..4
        den = (lambda: rng.randint(1, 4)) if trial >= 60 else (lambda: 1)
        rows = [[Fraction(rng.randint(-6, 6), den()) for _ in range(size)] for _ in range(size)]
        if trial % 3 == 1:
            rows[0][0] = 0  # the first pivot needs a row swap, or there is none
        if trial % 5 == 2 and size > 1:
            rows[-1] = [2 * value for value in rows[0]]  # dependent rows
        matrix = RationalMatrix(rows)
        det = matrix.det()
        assert det == minor_det(rows)
        rhs = [Fraction(rng.randint(-6, 6), den()) for _ in range(size)]
        if det == 0:
            with pytest.raises(SingularMatrixError):
                matrix.solve(rhs)
        else:
            solution = matrix.solve(rhs)
            assert [sum(a * x for a, x in zip(row, solution)) for row in rows] == rhs
            eliminated = matrix.row_list()
            bases._eliminate(eliminated)
            divisors.update(abs(eliminated[k][k]) for k in range(size - 1))
    assert max(divisors) > 1  # later Bareiss steps divided by pivots other than 1


def test_elimination_leaves_exact_zeros_below_the_diagonal():
    rng = random.Random(11)
    swapped = divided = 0
    for trial in range(200):
        size = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        rows[0][0] = 0  # the first pivot needs a row swap, or there is none
        if trial % 2:
            rows[0], rows[-1] = rows[-1], rows[0]  # the zero-led row goes last; swaps come from later columns
        eliminated = [list(row) for row in rows]
        try:
            sign = bases._eliminate(eliminated)
        except SingularMatrixError:
            continue
        assert all(eliminated[i][j] == 0 and type(eliminated[i][j]) is int for i in range(size) for j in range(i))
        leibniz = sum(
            (-1) ** sum(p[b] > p[a] for a in range(size) for b in range(a)) * prod(rows[i][p[i]] for i in range(size))
            for p in permutations(range(size))
        )
        assert sign * eliminated[-1][-1] == leibniz
        swapped += sign < 0
        divided += any(abs(eliminated[k][k]) > 1 for k in range(size - 1))
    assert swapped > 20 and divided > 20


def test_inexact_bareiss_division_raises(monkeypatch):
    matrix = RationalMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])  # pivots 2, 3, 4
    assert matrix.det() == 4
    # divide by the wrong divisor: the remainder must raise, never be floored away
    def wrong_divmod(value, divisor):
        return builtins.divmod(value, divisor + 1)

    monkeypatch.setattr(bases, "divmod", wrong_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="not exact"):
        matrix.det()
    with pytest.raises(ArithmeticError, match="not exact"):
        matrix.solve([1, 0, 0])


def test_solve_returns_exact_rationals():
    matrix = RationalMatrix([[2, 1], [1, 3]])
    solution = matrix.solve([1, 1])
    assert solution == [Fraction(2, 5), Fraction(1, 5)]


# -- determinants of the sequence bases ---------------------------------------------


def test_determinant_values_up_to_10():
    for family, expected in EXPECTED_DETERMINANTS.items():
        for n in range(1, 11):
            assert coordinate_matrix(BasisSpec(family, n)).det() == expected


def test_column_reduction_agrees_with_elimination():
    # one chain from order 12 gives the determinant of every order from the lowest up
    for family in SEQUENCE_BASES:
        chain = det_by_column_reduction(BasisSpec(family, 12))
        assert len(chain) == 13 - BASES[family].lowest
        for n, det in enumerate(chain, BASES[family].lowest):
            assert det == coordinate_matrix(BasisSpec(family, n)).det()


def test_column_reduction_exercises_the_difference_identity():
    # adjacent-vector differences collapse to x^(n-j) * y * (a lower member)
    n = 5
    vectors = build_basis(BasisSpec(BasisFamily.BU, n))
    for j in range(1, n + 1):
        difference = vectors[j] - vectors[j - 1]
        expected = BivarPoly.monomial(n - j, 0) * Y * u_poly(n + j - 1)
        assert difference == expected


@pytest.mark.parametrize(
    "entry, plant, message",
    [
        (5, lambda c: [0, *c[1:]], "U_6 - x U_5 keeps an x^5 component"),  # the lead of vector 0 of BU(5)
        (7, lambda c: [c[0] + 1, *c[1:]], "U_8 - x U_7 keeps an x^7 component"),  # a second x^10 in vector 2
        (8, lambda c: [c[0], c[1] + 1, *c[2:]], "U_9 - x U_8 is not y U_7"),  # x^8 y in vector 3, an interior entry
        (10, lambda c: [*c[:-1], c[-1] + 1], "U_11 - x U_10 is not y U_9"),  # the last entry, y^5 in vector 5
        (6, lambda c: [*c, 0, 1], "U_7 - x U_6 is not y U_5"),  # y^5 in vector 1, past U_7's last entry y^3
        (5, lambda c: [*c, 1], "U_6 - x U_5 is not y U_4"),  # one past U_6, shorter than the U_7 it pairs with
        (0, lambda c: [2], "U_3 - x U_2 is not y U_1"),  # entry 0, which only the first pair reads
    ],
    ids=[
        "pivot-lost", "x10-kept", "x8-kept-one-order-down", "y5-in-the-last-column", "y5-past-a-member",
        "one-past-a-shorter-member", "entry-0",
    ],
)
def test_column_reduction_rejects_a_corrupted_basis(monkeypatch, entry, plant, message):
    # the chain's one input is the member window of BU(5), whose entry w holds U_(w+1); one entry is planted
    spec = BasisSpec(BasisFamily.BU, 5)
    window = bases.member_window(spec)
    window[entry] = plant(window[entry])
    monkeypatch.setattr(bases, "member_window", lambda _spec: window)
    with pytest.raises(ArithmeticError) as excinfo:
        det_by_column_reduction(spec)
    assert str(excinfo.value) == message


def test_lemma1_and_det_cross_check_never_build_the_product_basis(monkeypatch, run_cli):
    def forbidden(*args):
        raise AssertionError("built the product basis")

    monkeypatch.setattr(bases, "build_basis", forbidden)
    with pytest.raises(AssertionError, match="product basis"):
        bases.build_basis(BasisSpec(BasisFamily.BV, 2))
    assert all_passed(result for result, _ in run_checks("lemma1", 12))
    for family in SEQUENCE_BASES:
        assert run_cli(["det", family.value, "12", "--cross-check"]) == (0, f"{EXPECTED_DETERMINANTS[family]}\n", "")


@pytest.mark.parametrize("family, order", [(BasisFamily.BU, 1), (BasisFamily.BU_STAR, 2)])
def test_column_reduction_raises_at_a_zero_pivot(monkeypatch, family, order):
    # U_i read as y U_(i-2) from U_2 on keeps the two-term rule, so every pair checks out, but U_2 reads 0 and every
    # order above the lowest has a zero pivot
    read = SequenceCache.__getitem__

    def shifted(self, n):
        return Y * read(self, n - 2) if self.kind.value == "U" and n >= 2 else read(self, n)

    monkeypatch.setattr(SequenceCache, "__getitem__", shifted)
    with pytest.raises(ArithmeticError) as excinfo:
        det_by_column_reduction(BasisSpec(family, 6))
    assert str(excinfo.value) == f"U_2 has no x^1 component, a zero pivot at order {order}"


def full_reduction_chain(spec):
    """The reference chain: every column differenced and checked at every order, all columns compared at order
    n - 1 and column 0 below; the chain under test checks each neighbouring member pair once instead."""
    lowest, degree = BASES[spec.family].lowest, ambient_degree(spec)
    letter, first = bases.member_index(BasisSpec(spec.family, lowest), 0)
    members = bases.member_window(spec)
    columns = [v.canonical_coordinates(degree) for v in build_basis(spec)]
    pivots = []
    for order in range(spec.n, lowest - 1, -1):
        if order > lowest and columns[0][0] == 0:
            raise ArithmeticError(f"leading vector lost its x^{degree} component")
        differences = [[q - p for p, q in zip(a, b)] for a, b in zip(columns, columns[1:])]
        for j, difference in enumerate(differences, 1):
            if difference[0] != 0:
                raise ArithmeticError(f"difference column {j} keeps an x^{degree} component")
        if order < spec.n:
            checked = columns if order == spec.n - 1 else columns[:1]
            for j, (column, coords) in enumerate(zip(checked, members[order - lowest :])):
                if column[: len(coords)] != coords or any(column[len(coords) :]):
                    raise ArithmeticError(f"order {order} column {j} is not {letter}_{first + order - lowest + j}")
        pivots.append(columns[0][0])
        columns = [difference[1:] for difference in differences]
        degree -= 2
    return [prod(pivots[i:]) for i in range(len(pivots) - 1, -1, -1)]


def chain_outcome(chain, spec):
    try:
        return chain(spec)
    except Exception as exc:  # the outcome compared is the exception's type; its text must name a member
        return type(exc), str(exc)


def test_column_reduction_matches_the_full_chain_on_planted_members(monkeypatch, corrupt_member):
    # the chain under test and the reference give the same determinants, or raise the same exception type
    raised = 0

    def compare(spec, *planted):
        nonlocal raised
        outcome, reference = chain_outcome(det_by_column_reduction, spec), chain_outcome(full_reduction_chain, spec)
        if isinstance(outcome, tuple):
            raised += 1
            assert re.search(r"[UV]_\d+", outcome[1]), (outcome, *planted, spec)
            outcome, reference = outcome[0], reference[0] if isinstance(reference, tuple) else reference
        assert outcome == reference, (*planted, spec)

    specs = [BasisSpec(family, n) for family in SEQUENCE_BASES for n in range(BASES[family].lowest, 15)]
    for spec in specs:
        compare(spec)
    for letter in "UV":
        for index in range(18):
            for in_family in (False, True):
                corrupt_member(letter, index, in_family)
                for spec in specs:
                    compare(spec, letter, index, in_family)
                monkeypatch.undo()
    assert raised > 1000  # a third of the 4234 runs raise, so the chains are compared where they fail too


def test_column_reduction_costs_quadratic_element_operations(monkeypatch):
    # each member from weight 2 up is the upper member of one neighbouring pair, differenced once over its length;
    # doubling n then multiplies the count by about 4, against 8 for differencing every column of every order
    calls = []
    monkeypatch.setattr(bases, "sub", lambda a, b: calls.append(None) or a - b)

    def subtractions(spec):
        calls.clear()
        det_by_column_reduction(spec)
        return len(calls)

    for family in SEQUENCE_BASES:
        counts = {}
        for n in (40, 80):
            spec = BasisSpec(family, n)
            assert subtractions(spec) == sum(map(len, bases.member_window(spec)[2:]))
            counts[n] = len(calls)
        assert counts[80] / counts[40] <= 4.5, (family, counts)


def test_lemma1_holds_for_every_n():
    # Lemma 1 at every order n from three facts, each shown for every n:
    # - the pair step W_(w+1) - x W_w = y W_(w-1) on coordinates, at every w: the closed forms keep the recurrence
    #   (tests/test_sequences.py::test_closed_forms_keep_the_recurrence_for_every_n), so the difference of vectors
    #   k - 1 and k of order n is y times vector k - 1 of order n - 1;
    # - vector k of order n is x^(n-k) times the member of weight n + k - lowest, and (n + k - lowest) + (n - k) is
    #   2n - lowest, of degree 1 in n and in k, so vanishing on {0, 1}^2 it holds for all n and k: x^(n-k) carries
    #   the member into the ambient family and keeps every canonical index j, and column k is the member's coordinates;
    # - the pivot of order m is the j = 0 entry of the member of weight w = m - lowest: C(w, 0) = 1 for U_(w+1),
    #   w/w C(w, 0) = 1 for V_w, w >= 1, which cleared of w is w C(w, 0) - w = 0, of degree 1 in w, and 2 for V_0.
    # So det(n) = pivot(n) det(n - 1) is 1, 2, 1, 2 for BU, BV, BUstar, BVstar at every n.
    for lowest in (0, 1):
        for n, k in product(range(2), repeat=2):
            assert (n + k - lowest) + (n - k) - (2 * n - lowest) == 0, (lowest, n, k)
    assert all(w * comb(w, 0) - w == 0 for w in range(2))

    def pivot(letter, w):
        return comb(w, 0) if letter == "U" else (Fraction(w, w) * comb(w, 0) if w else 2)

    # tied to the chain for n <= 40
    for family, basis in BASES.items():
        spec = BasisSpec(family, 40)
        window, top = bases.member_window(spec), 40 - basis.lowest
        for n in range(basis.lowest, 41):
            for k in range(n + 1 - basis.lowest):
                letter, index = bases.member_index(BasisSpec(family, n), k)
                assert (letter, member_weight(letter, index)) == (basis.letter, n + k - basis.lowest)
        degree = ambient_degree(spec)
        assert degree == 2 * 40 - basis.lowest
        for k, vector in enumerate(build_basis(spec)):  # x^(40-k) keeps each coordinate's index
            coords = window[top + k]
            assert vector.canonical_coordinates(degree) == coords + [0] * (degree // 2 + 1 - len(coords))
        pivots = [pivot(basis.letter, w) for w in range(top + 1)]
        assert [coords[0] for coords in window[: top + 1]] == pivots
        assert det_by_column_reduction(spec) == list(accumulate(pivots, mul)) == [basis.determinant] * (top + 1)


def test_check_determinants_report():
    results = [result for result, _ in run_checks("lemma1", 6)]
    assert all_passed(results)
    assert {r.name for r in results} == {
        "lemma1.det.BU",
        "lemma1.det.BV",
        "lemma1.det.BUstar",
        "lemma1.det.BVstar",
        "lemma1.det-cross.BU",
        "lemma1.det-cross.BV",
        "lemma1.det-cross.BUstar",
        "lemma1.det-cross.BVstar",
    }


@pytest.mark.parametrize("n_max", [0, -1])
@pytest.mark.parametrize("check", [pytest.param(check, id=name) for name, check in checks("all")])
def test_checks_below_n_max_1_raise_the_error_of_run_checks(check, n_max):
    # Called on their own, no registered check passes vacuously (relations.c: n = 1..0 is none) or raises a domain
    # error of its own (the starred bases' lowest order).
    message = f"^{re.escape(f'n_max must be >= 1, got {n_max}')}$"
    with pytest.raises(DomainError, match=message):
        run_checks("all", n_max)
    with pytest.raises(DomainError, match=message):
        check(n_max)


def test_lemma1_runs_one_chain_per_check_and_one_elimination_per_order(monkeypatch):
    chain, det, calls = bases.det_by_column_reduction, RationalMatrix.det, []

    def counted_chain(spec):
        calls.append("chain")
        return chain(spec)

    def counted_det(matrix):
        calls.append("det")
        return det(matrix)

    monkeypatch.setattr(bases, "det_by_column_reduction", counted_chain)
    monkeypatch.setattr(RationalMatrix, "det", counted_det)
    assert all_passed(result for result, _ in run_checks("lemma1", 10))
    assert (calls.count("chain"), calls.count("det")) == (8, 40)


def test_lemma1_checks_read_the_chain_order_by_order(monkeypatch):
    chain = bases.det_by_column_reduction

    def planted(spec):  # a wrong determinant at order 3 only
        dets = chain(spec)
        dets[3 - BASES[spec.family].lowest] += 1
        return dets

    monkeypatch.setattr(bases, "det_by_column_reduction", planted)
    results = [result for result, _ in run_checks("lemma1", 6)]
    assert [result.detail for result in results] == ["fails at n = 3"] * 8


@pytest.mark.parametrize(
    "letter, index, in_family, error, messages",
    [
        ("V", 7, True, "ArithmeticError", dict.fromkeys(["BV", "BVstar"], "V_7 - x V_6 keeps an x^7 component")),
        ("U", 8, True, "ArithmeticError", dict.fromkeys(["BU", "BUstar"], "U_8 - x U_7 keeps an x^7 component")),
        ("U", 1, True, "ArithmeticError", dict.fromkeys(["BU", "BUstar"], "U_3 - x U_2 is not y U_1")),
        (
            "U",
            8,
            False,
            "MalformedElement",
            dict.fromkeys(["BU", "BUstar"], "U_8: monomial 1 lies outside the degree-7 canonical family"),
        ),
    ],
    ids=["V7-in-family", "U8-in-family", "U1-in-family", "U8"],
)
def test_lemma1_names_a_wrong_member_below_the_top_order(corrupt_member, letter, index, in_family, error, messages):
    # in_family keeps every term inside the member's family and makes its leading coordinate read 2
    corrupt_member(letter, index, in_family)
    results = {result.name: result for result, _ in run_checks("lemma1", 12)}
    for family in SEQUENCE_BASES:
        for check in ("det", "det-cross"):
            result = results[f"lemma1.{check}.{family.value}"]
            if family.value in messages:
                assert result.detail == f"raised {error}: {messages[family.value]}"
                assert not result.passed
            else:
                assert result.passed


# -- decomposition -------------------------------------------------------------------


def test_decompose_doubled_u7_over_bv():
    decomposition = decompose(u_poly(7).scale(2), BasisSpec(BasisFamily.BV, 3))
    assert list(decomposition.coords) == [1, -1, 1, 1]


def test_decompose_u8_over_bustar():
    decomposition = decompose(u_poly(8), BasisSpec(BasisFamily.BU_STAR, 4))
    assert list(decomposition.coords) == [-1, 4, -6, 4]


def test_decompose_doubled_v7_over_bvstar():
    decomposition = decompose(v_poly(7).scale(2), BasisSpec(BasisFamily.BV_STAR, 4))
    assert list(decomposition.coords) == [-1, 5, -9, 7]


def test_decompose_v7_over_bustar():
    decomposition = decompose(v_poly(7), BasisSpec(BasisFamily.BU_STAR, 4))
    assert list(decomposition.coords) == [-2, 8, -12, 7]


def test_decompose_doubled_u8_over_bvstar():
    decomposition = decompose(u_poly(8).scale(2), BasisSpec(BasisFamily.BV_STAR, 4))
    assert list(decomposition.coords) == [0, 2, -4, 4]


def test_decomposition_reconstructs_target():
    # sum_k coords[k] * vector k of the product-built basis
    target, spec = u_poly(9).scale(2), BasisSpec(BasisFamily.BV, 4)
    decomposition = decompose(target, spec)
    assert sum_of_products(zip(map(BivarPoly.constant, decomposition.coords), build_basis(spec))) == target
    assert all(isinstance(c, int) for c in decomposition.coords)


def test_decompose_raises_on_a_nonzero_residual(monkeypatch):
    solve = bases._peel_solve

    def perturbed(spec, rhs, window):
        coords = solve(spec, rhs, window)
        coords[1] += 1
        return coords

    monkeypatch.setattr(bases, "_peel_solve", perturbed)
    with pytest.raises(ArithmeticError, match="residual is not zero"):
        decompose(u_poly(8), BasisSpec(BasisFamily.BU_STAR, 4))

    # the last column and exact rationals are covered too
    def perturbed_last(spec, rhs, window):
        coords = solve(spec, rhs, window)
        coords[-1] += Fraction(1, 3)
        return coords

    monkeypatch.setattr(bases, "_peel_solve", perturbed_last)
    for target, spec in [
        (u_poly(8), BasisSpec(BasisFamily.BU_STAR, 4)),
        (u_poly(8).scale(Fraction(2, 3)), BasisSpec(BasisFamily.BU_STAR, 4)),
        (u_poly(9).scale(Fraction(-1, 5)), BasisSpec(BasisFamily.BV, 4)),
    ]:
        with pytest.raises(ArithmeticError, match="residual is not zero"):
            decompose(target, spec)

    # a change that keeps the coordinates' sum, which the x^m coordinate alone cannot see
    def perturbed_pair(spec, rhs, window):
        coords = solve(spec, rhs, window)
        coords[0] -= 1
        coords[1] += 1
        return coords

    monkeypatch.setattr(bases, "_peel_solve", perturbed_pair)
    with pytest.raises(ArithmeticError, match="residual is not zero"):
        decompose(u_poly(8), BasisSpec(BasisFamily.BU_STAR, 4))


def test_a_warm_oracle_still_meets_a_corrupted_member(corrupt_member):
    oracle_triangle(Family.A, 12)
    corrupt_member("V", 7, in_family=True)
    scheme = DecompositionScheme("U", BasisFamily.BV)
    target, spec = u_poly(17).scale(scheme.doubling), BasisSpec(scheme.basis, scheme.order(17))
    with pytest.raises(ArithmeticError, match=r"residual is not zero \(BV, n = 8\)"):
        decompose(target, spec)


@pytest.mark.parametrize("family", SEQUENCE_BASES, ids=lambda family: family.value)
def test_peel_solve_matches_bareiss(family):
    rng = random.Random(17)
    fractional = 0
    for n in range(BASES[family].lowest, 16):
        spec = BasisSpec(family, n)
        degree = ambient_degree(spec)
        matrix = coordinate_matrix(spec)
        targets = [
            [rng.randint(-99, 99) for _ in range(matrix.rows)],
            [Fraction(rng.randint(-99, 99), rng.randint(1, 6)) for _ in range(matrix.rows)],
            # both members spanning the ambient degree, never doubled: U over BV has half-integer coordinates
            u_poly(degree + 1).canonical_coordinates(degree),
            v_poly(degree).canonical_coordinates(degree),
        ]
        for rhs in targets:
            peeled, reference = bases._peel_solve(spec, rhs, bases.member_window(spec)), matrix.solve(rhs)
            assert peeled == reference, (spec, rhs)
            assert [type(c) for c in peeled] == [type(c) for c in reference], (spec, rhs)
            fractional += any(isinstance(c, Fraction) for c in reference)
    # at least the Fraction target and each member that pairs with this basis only doubled, at every order
    doubled = len(BASES[family].doubled)
    assert fractional >= (16 - BASES[family].lowest) * (1 + doubled)


def test_decompose_rejects_foreign_monomials():
    with pytest.raises(MalformedElement):
        decompose(X * Y, BasisSpec(BasisFamily.BU, 1))
    with pytest.raises(MalformedElement):
        decompose(u_poly(6), BasisSpec(BasisFamily.BU, 3))  # odd weight in even space


def test_decomposition_json_shape():
    decomposition = decompose(u_poly(7).scale(2), BasisSpec(BasisFamily.BV, 3))
    payload = decomposition.to_json_dict()
    assert payload["family"] == "BV"
    assert payload["n"] == 3
    assert payload["coords"] == ["1", "-1", "1", "1"]
    assert payload["target"][0] == {"x": 6, "y": 0, "num": "2", "den": "1"}


@settings(max_examples=60)
@given(
    st.sampled_from(SEQUENCE_BASES),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_decompose_round_trips_random_vectors(family, n, data):
    spec = BasisSpec(family, n)
    vectors = build_basis(spec)
    coords = data.draw(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=len(vectors),
            max_size=len(vectors),
        )
    )
    target = BivarPoly()
    for coeff, vector in zip(coords, vectors):
        target = target + vector.scale(coeff)
    assert list(decompose(target, spec).coords) == coords
