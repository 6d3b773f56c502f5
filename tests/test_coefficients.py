import json
import re
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from bifib import bases, coefficients, operators, specializations
from bifib.bases import BasisFamily, BasisSpec, RationalMatrix, ambient_degree
from bifib.coefficients import (
    FAMILIES,
    METHODS,
    DecompositionScheme,
    CoeffTriangle,
    Family,
    a_closed,
    b_closed,
    c_closed,
    closed_triangle,
    closed_value,
    cross_check,
    d_closed,
    e_closed,
    check_theorem,
    first_row,
    oracle_triangle,
    recurrence_triangle,
)
from bifib.errors import DomainError, IntegralityViolation
from bifib.poly import BivarPoly, sum_of_products
from bifib.report import all_passed, run_checks
from bifib.sequences import SequenceCache, u_poly, v_poly

A_TABLE = [
    [1],
    [1, 1],
    [1, 0, 1],
    [1, -1, 1, 1],
    [1, -2, 2, 0, 1],
    [1, -3, 4, -2, 1, 1],
    [1, -4, 7, -6, 3, 0, 1],
    [1, -5, 11, -13, 9, -3, 1, 1],
    [1, -6, 16, -24, 22, -12, 4, 0, 1],
]
B_TABLE = [
    [-1],
    [1, -1],
    [-1, 2, -1],
    [1, -3, 3, -1],
    [-1, 4, -6, 4, -1],
    [1, -5, 10, -10, 5, -1],
]
C_TABLE = [
    [1, -2],
    [-2, 3, -2],
    [2, -6, 5, -2],
    [-2, 8, -12, 7, -2],
    [2, -10, 20, -20, 9, -2],
]
D_TABLE = [
    [1, -2],
    [-1, 3, -2],
    [1, -4, 5, -2],
    [-1, 5, -9, 7, -2],
    [1, -6, 14, -16, 9, -2],
    [-1, 7, -20, 30, -25, 11, -2],
]
E_TABLE = [
    [1],
    [0, 2],
    [1, -2, 3],
    [0, 2, -4, 4],
    [1, -4, 8, -8, 5],
    [0, 2, -8, 14, -12, 6],
]


def plant(monkeypatch, family, **facts):
    """Replace fields of one family's record in ``FAMILIES`` for the rest of the test."""
    monkeypatch.setitem(FAMILIES, family, FAMILIES[family]._replace(**facts))


# -- closed-form spot values -----------------------------------------------------


@pytest.mark.parametrize(
    "n,k,expected",
    [(7, 3, -13), (8, 4, 22), (0, 0, 1), (5, 2, 4), (6, 5, 0)],
)
def test_a_closed_values(n, k, expected):
    assert a_closed(n, k) == expected


def test_a_closed_first_column_is_one():
    assert all(a_closed(n, 0) == 1 for n in range(9))


@pytest.mark.parametrize(
    "n,k,expected",
    [(4, 2, -6), (5, 5, -1), (0, 0, -1), (3, 1, -3)],
)
def test_b_closed_values(n, k, expected):
    assert b_closed(n, k) == expected


@pytest.mark.parametrize(
    "n,k,expected",
    [(4, 2, -12), (1, 0, 1), (5, 4, 9), (1, 1, -2), (3, 3, -2)],
)
def test_c_closed_values(n, k, expected):
    assert c_closed(n, k) == expected


@pytest.mark.parametrize(
    "n,k,expected",
    [(5, 2, 14), (6, 3, 30), (1, 1, -2), (4, 4, -2)],
)
def test_d_closed_values(n, k, expected):
    assert d_closed(n, k) == expected


@pytest.mark.parametrize(
    "n,k,expected",
    [(6, 3, 14), (2, 1, 2), (5, 0, 1), (1, 0, 1), (4, 0, 0)],
)
def test_e_closed_values(n, k, expected):
    assert e_closed(n, k) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: (Family.A, -1, 0),
        lambda: (Family.A, 2, 3),
        lambda: (Family.B, 3, -1),
        lambda: (Family.C, 0, 0),
        lambda: (Family.D, 0, 0),
        lambda: (Family.E, 3, 3),
        lambda: (Family.E, 0, 0),
    ],
)
def test_domains_raise_index_error(call):
    # closed_value is the one domain check: the five closed forms it reads check nothing themselves
    family, n, k = call()
    with pytest.raises(IndexError) as raised:
        closed_value(family, n, k)
    assert str(raised.value) == f"({n}, {k}) outside the domain of family {family.value}"


def test_a_non_integral_closed_value_is_named_with_its_exact_value(monkeypatch):
    monkeypatch.setattr(coefficients, "comb", lambda n, k: 1)
    for (n, k), value in {(3, 1): "4/3", (4, 1): "5/4", (5, 4): "9/5"}.items():
        with pytest.raises(IntegralityViolation) as raised:
            d_closed(n, k)
        assert str(raised.value) == f"d({n},{k}) evaluated to {value}"
    monkeypatch.undo()
    monkeypatch.setattr(coefficients, "a_closed", lambda n, k: 0)
    for (n, k), value in {(2, 0): "-1/2", (3, 0): "1/2", (3, 2): "5/2"}.items():
        with pytest.raises(IntegralityViolation) as raised:
            e_closed(n, k)
        assert str(raised.value) == f"e({n},{k}) evaluated to {value}"


# -- recurrence triangles reproduce the published rows ------------------------------


@pytest.mark.parametrize(
    "family,n_max,table",
    [
        (Family.A, 8, A_TABLE),
        (Family.B, 5, B_TABLE),
        (Family.C, 5, C_TABLE),
        (Family.D, 6, D_TABLE),
        (Family.E, 6, E_TABLE),
    ],
)
def test_recurrence_rows(family, n_max, table):
    triangle = recurrence_triangle(family, n_max)
    assert [list(row) for row in triangle.rows] == table


@pytest.mark.parametrize(
    "family,n_max,table",
    [
        (Family.A, 8, A_TABLE),
        (Family.B, 5, B_TABLE),
        (Family.C, 5, C_TABLE),
        (Family.D, 6, D_TABLE),
        (Family.E, 6, E_TABLE),
    ],
)
def test_closed_rows(family, n_max, table):
    triangle = closed_triangle(family, n_max)
    assert [list(row) for row in triangle.rows] == table


def test_closed_matches_recurrence_up_to_40():
    # The short triangles are the seed row alone and e at n_max 1 and 2, which reads
    # no row or one row of the a recurrence.
    for family in Family:
        for n_max in [*range(FAMILIES[family].start_row, 7), 40]:
            assert closed_triangle(family, n_max).rows == recurrence_triangle(family, n_max).rows, (family, n_max)


# Triangles b, c and d keep their recurrences for every n (ROADMAP item 8).  Off the boundary, 1 <= k <= n - 1, the
# rule f(n, k) = s (f(n-1, k) - f(n-1, k-1)) + extra, with s = -1 and no extra for b and d, has three terms f(n, k),
# s f(n-1, k) and -s f(n-1, k-1) that all carry the sign (-1)^(n-k+1).  Divided by it and by B = C(n-1, k-1), as
# C(n, k) = B n/k and C(n-1, k) = B (n-k)/k, each term is a polynomial P(n, k) over one denominator Q, not 0 there:
#   b(n, k) = (-1)^(n-k+1) C(n, k),         Q = k:         n = (n - k) + k                                    degree 1
#   d(n, k) = (-1)^(n-k+1) (n+k)/n C(n, k), Q = k(n - 1):  (n + k)(n - 1) = (n - 1 + k)(n - k) + k(n + k - 2) degree 2
# Each side is a sum of products of at most d linear forms, so of degree <= d in n and in k; vanishing on the grid
# {0..d}^2 it vanishes everywhere.  (denominator Q, the three numerators P) for each:
CLEARED = {
    Family.B: (lambda n, k: k, lambda n, k: (n, n - k, k)),
    Family.D: (lambda n, k: k * (n - 1), lambda n, k: ((n + k) * (n - 1), (n - 1 + k) * (n - k), k * (n + k - 2))),
}
CLEARED_DEGREE = {Family.B: 1, Family.D: 2}


def kronecker(t, at):
    return 1 if t == at else 0


def test_triangles_b_c_d_keep_their_recurrences_for_every_n():
    for family, (_, numerators) in CLEARED.items():
        d = CLEARED_DEGREE[family]
        for n, k in product(range(d + 1), repeat=2):
            head, *rest = numerators(n, k)
            assert Fraction(head) == sum(map(Fraction, rest)), (family, n, k)
    # c(n, k) = 2 b(n, k) - delta(n - k, 1), and c's rule has b's sign and the extra -delta(n - k, 2): its residual is
    # twice b's plus K(t), t = n - k, whose deltas fire only at t = 1 and t = 2, so K vanishes once it does on t <= 3
    for t in range(4):
        kappa = [-kronecker(t - 1, 1), -kronecker(t, 1)]  # c(n-1, k) and c(n-1, k-1) sit at t - 1 and t
        assert -kronecker(t, 1) == -(kappa[0] - kappa[1]) - kronecker(t, 2), t
    # At k = 0 and k = n the closed forms are (-1)^(n+1) or -1 times C(n, 0) = C(n, n) = 1, n/n = 1 or 2n/n = 2,
    # constants once n >= 1, with c's delta at n = 1; so from row 3 on each boundary recurrence is one statement per
    # parity of n, and rows 3 and 4 settle it.
    # Tied to the closed forms, the rules and the seeds, for n <= 40:
    for family in (Family.B, Family.C, Family.D):
        facts = FAMILIES[family]
        seed, sign, extra = facts.rule
        assert sign == -1
        assert seed == tuple(closed_value(family, facts.start_row, k) for k in range(len(seed)))
        for n in range(facts.start_row + 1, 41):
            row, prev = (
                [closed_value(family, m, k) for k in range(facts.row_length(m))] for m in (n, n - 1)
            )
            assert row == [sign * (b - a) + extra(n, k, ()) for k, (a, b) in enumerate(zip([0, *prev], [*prev, 0]))]
            for k in range(facts.row_length(n)):
                if family is Family.C:
                    assert row[k] == 2 * closed_value(Family.B, n, k) - kronecker(n - k, 1), (n, k)
                    assert extra(n, k, ()) == -kronecker(n - k, 2), (n, k)
                    continue
                assert extra(n, k, ()) == 0, (family, n, k)
                if 1 <= k <= n - 1:
                    denominator, numerators = CLEARED[family]
                    terms = (row[k], sign * prev[k], -sign * prev[k - 1])
                    scale = (-1) ** (n - k + 1) * comb(n - 1, k - 1)
                    assert [denominator(n, k) * t for t in terms] == [scale * p for p in numerators(n, k)], (n, k)


def test_recurrence_route_reads_neither_closed_forms_nor_the_oracle(monkeypatch):
    expected = {family: recurrence_triangle(family, 30).rows for family in Family}

    def forbidden(*args):
        raise AssertionError("the recurrence route called another route")

    monkeypatch.setattr(coefficients, "comb", forbidden)
    monkeypatch.setattr(coefficients, "_checked_solve", forbidden)
    for family in Family:
        plant(monkeypatch, family, closed=forbidden)
    for route in (closed_triangle, oracle_triangle):
        with pytest.raises(AssertionError, match="another route"):
            route(Family.E, 2)
    for family in Family:
        assert recurrence_triangle(family, 30).rows == expected[family], family


def test_oracle_route_reads_neither_closed_forms_nor_recurrences_nor_bareiss(monkeypatch):
    expected = {family: oracle_triangle(family, 30).rows for family in Family}

    def forbidden(*args):
        raise AssertionError("the oracle route called another route")

    class ForbiddenRule:
        def __iter__(self):
            forbidden()

    monkeypatch.setattr(coefficients, "comb", forbidden)
    monkeypatch.setattr(RationalMatrix, "solve", forbidden)
    for family in Family:
        plant(monkeypatch, family, closed=forbidden, rule=ForbiddenRule())
    for route in (closed_triangle, recurrence_triangle):
        with pytest.raises(AssertionError, match="another route"):
            route(Family.E, 2)
    with pytest.raises(AssertionError, match="another route"):
        RationalMatrix([[1, 0], [0, 1]]).solve([1, 0])
    for family in Family:
        assert oracle_triangle(family, 30).rows == expected[family], family


# -- cross-family identities ----------------------------------------------------------


def test_c_is_twice_b_minus_delta():
    for n in range(1, 61):
        for k in range(n + 1):
            assert c_closed(n, k) == 2 * b_closed(n, k) - (1 if n - 1 == k else 0)


def test_e_is_half_sum_of_a_and_d():
    for n in range(1, 61):
        for k in range(n):
            assert 2 * e_closed(n, k) == a_closed(n - 1, k) + d_closed(n, k)


def test_a_closed_matches_the_literal_alternating_sum():
    for n in range(60):
        for k in range(n + 1):
            alternating = sum((-1) ** j * comb(j, n - k) for j in range(n + 1))
            assert a_closed(n, k) == (-1) ** (k + 1) * comb(n, k) + 2 * (-1) ** (n - k) * alternating, (n, k)


def test_diagonal_values():
    for n in range(1, 61):
        assert a_closed(n, n) == 1
        assert b_closed(n, n) == -1


def test_b_rows_give_a_fibonacci_identity():
    # setting both variables to 1: F_{2n} = sum_k b(n,k) F_{n+k}
    def fib(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    for n in range(1, 21):
        assert fib(2 * n) == sum(b_closed(n, k) * fib(n + k) for k in range(n))


# -- oracle and three-way agreement ----------------------------------------------------


def test_oracle_rows_match_closed_prefixes():
    for family in Family:
        oracle = oracle_triangle(family, 8)
        closed = closed_triangle(family, 8)
        for n in range(oracle.start_row, 9):
            row = oracle.row(n)
            assert list(row) == list(closed.row(n))[: len(row)]


def test_the_oracle_reads_each_member_of_its_window_once(monkeypatch):
    """About 2 n_max reads for the window of the top order, and two per row for the target."""
    read, count = SequenceCache.__getitem__, [0]

    def counting(self, n):
        count[0] += 1
        return read(self, n)

    monkeypatch.setattr(SequenceCache, "__getitem__", counting)
    for family in Family:
        count[0] = 0
        oracle_triangle(family, 30)
        assert count[0] <= 4 * (30 + 1), family


def test_cross_check_with_oracle_passes():
    for family in Family:
        assert cross_check(family, 12).passed


def test_cross_check_lists_every_planted_mismatch(monkeypatch):
    planted = {(4, 3), (5, 5), (7, 0)}  # (5, 5) is a k = n seed, which the oracle does not produce
    plant(monkeypatch, Family.D, closed=lambda n, k: d_closed(n, k) + ((n, k) in planted))
    report = cross_check(Family.D, 8)
    assert [(m.n, m.k) for m in report.mismatches] == sorted(planted)
    assert report.mismatches[0].values == {"closed": 8, "recurrence": 7, "oracle": 7}
    assert report.mismatches[1].values == {"closed": -1, "recurrence": -2, "oracle": None}
    assert report.recurrence == recurrence_triangle(Family.D, 8)
    assert check_theorem(Family.D, 8).detail == "fails at n = 4, 5, 7"  # the k = n seed counts too


def test_pairing_gives_each_scheme_its_target():
    """The five identities as the paper lists them, with targets read without ``bases.pairing`` or ``read_members``."""
    paper = {
        Family.A: (u_poly, 1, 2, BasisFamily.BV, 0, "2*U[2n+1] over BV"),
        Family.B: (u_poly, 0, 1, BasisFamily.BU_STAR, 1, "U[2n] over BUstar"),
        Family.C: (v_poly, -1, 1, BasisFamily.BU_STAR, 1, "V[2n-1] over BUstar"),
        Family.D: (v_poly, -1, 2, BasisFamily.BV_STAR, 1, "2*V[2n-1] over BVstar"),
        Family.E: (u_poly, 0, 2, BasisFamily.BV_STAR, 1, "2*U[2n] over BVstar"),
    }
    for family, (member, shift, doubling, basis, min_n, description) in paper.items():
        scheme = FAMILIES[family].scheme
        assert (scheme.basis, scheme.min_n, scheme.doubling, scheme.description) == (basis, min_n, doubling, description)
        assert [scheme.member(n) for n in range(min_n, 9)] == [2 * n + shift for n in range(min_n, 9)]
        # the target of row n, of weight 2n - min_n, read off term by term
        expected = [[0] * (n - min_n + 1) for n in range(min_n, 9)]
        for n, coords in enumerate(expected, min_n):
            for (a, b), c in member(2 * n + shift).items():
                assert a + 2 * b == 2 * n - min_n
                coords[b] = doubling * c
        assert scheme.targets(min_n, 8) == expected, family


def test_only_the_schemes_read_the_doubling():
    """The relations and the transfers take each target's doubling and index from its scheme, so the pairing has one
    owner; a basis record is read for its member letter alone."""
    for module in (operators, specializations):
        source = Path(module.__file__).read_text()
        assert [name for name in (".doubled", ".lowest", "scheme.shift") if name in source] == [], module.__name__
        assert set(re.findall(r"BASES\[[^]]*\](\.\w+)?", source)) <= {".letter"}, module.__name__


def test_theorem_checks_pass():
    results = run_checks("theorems", 10)
    assert all_passed(results)
    assert {r.name for r in results} == {f"theorems.{f.value}" for f in Family}
    assert check_theorem(Family.A, 3).passed


@pytest.mark.parametrize("family", list(Family))
def test_theorem_check_fails_at_the_first_row_a_planted_rule_changes(monkeypatch, family):
    seed, sign, extra = FAMILIES[family].rule
    plant(monkeypatch, family, rule=(seed, sign, lambda n, k, a: extra(n, k, a) + ((n, k) == (6, 0))))
    assert check_theorem(family, 8).detail == "fails at n = 6, 7, 8"


def test_theorem_check_reads_neither_the_product_built_basis_nor_a_reconstruction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the theorem check rebuilt a row")

    monkeypatch.setattr(bases, "build_basis", forbidden)
    monkeypatch.setattr(coefficients, "build_basis", forbidden, raising=False)  # catches a re-import too
    with pytest.raises(AssertionError, match="rebuilt a row"):
        bases.build_basis(BasisSpec(BasisFamily.BV, 2))
    spec = BasisSpec(BasisFamily.BV, 1)
    coords = bases.decompose(u_poly(3).scale(2), spec).coords
    with pytest.raises(AssertionError, match="rebuilt a row"):  # a reconstruction combines the product-built vectors
        sum_of_products(zip(map(BivarPoly.constant, coords), bases.build_basis(spec)))
    for family in Family:
        assert check_theorem(family, 12).passed, family


# -- triangle container and rendering ----------------------------------------------------


def test_row_accessor_bounds():
    triangle = recurrence_triangle(Family.C, 4)
    assert list(triangle.row(1)) == [1, -2]
    assert triangle.n_max == 4
    with pytest.raises(IndexError):
        triangle.row(0)
    with pytest.raises(IndexError):
        triangle.row(5)


def test_n_max_below_first_row_rejected():
    generators = {"closed": closed_triangle, "recurrence": recurrence_triangle, "oracle": oracle_triangle}
    assert list(METHODS) == list(generators)
    for family in Family:
        for method, generate in generators.items():
            start = first_row(family, method)
            assert generate(family, start).start_row == start
            assert METHODS[method](family, start + 2) == generate(family, start + 2)
            if start > 0:
                with pytest.raises(IndexError):
                    generate(family, start - 1)
                with pytest.raises(IndexError):
                    METHODS[method](family, start - 1)
        if first_row(family, "closed") > 0:
            with pytest.raises(IndexError):
                cross_check(family, first_row(family, "closed") - 1)
    assert [first_row(family, "oracle") for family in Family] == [0, 1, 1, 1, 1]  # b's oracle starts after its table
    report = cross_check(Family.B, 0)  # so cross_check adds it from its own first row
    assert (report.methods, report.passed) == (("closed", "recurrence"), True)
    assert cross_check(Family.B, 1).methods == ("closed", "recurrence", "oracle")


def test_scheme_order_inverts_member_and_refuses_what_no_row_targets():
    for family in Family:
        scheme = FAMILIES[family].scheme
        rows = range(scheme.min_n, 20)
        assert [scheme.order(scheme.member(n)) for n in rows] == list(rows), family
        assert {scheme.member(n) - 2 * n for n in rows} == {scheme.shift}, family
    for kind, basis in product("UV", BasisFamily):
        scheme, lowest = DecompositionScheme(kind, basis), bases.BASES[basis].lowest
        for index in range(12):
            weight = index - 1 if kind == "U" else index
            if weight < 0:
                message = "U_0 is the zero polynomial; nothing to decompose"
            elif weight % 2 != lowest:
                needed = "odd" if lowest else "even"
                message = (f"{kind}_{index} spans canonical degree {weight}, "
                           f"but {basis.value} bases span {needed}-degree spaces")
            else:
                n = scheme.order(index)
                assert (scheme.member(n), ambient_degree(BasisSpec(basis, n))) == (index, weight), (kind, basis, index)
                continue
            with pytest.raises(DomainError) as raised:
                scheme.order(index)
            assert str(raised.value) == message


def test_text_rendering_is_tab_separated(golden_dir):
    assert recurrence_triangle(Family.A, 8).to_text() + "\n" == (
        golden_dir / "table_a_8.txt"
    ).read_text()


def test_csv_rendering():
    assert recurrence_triangle(Family.B, 2).to_csv() == "-1\n1,-1\n-1,2,-1"


def test_json_rendering():
    payload = recurrence_triangle(Family.E, 2).to_json_dict()
    assert payload == {
        "family": "e",
        "method": "recurrence",
        "start_row": 1,
        "rows": [["1"], ["0", "2"]],
    }
    json.dumps(payload)


def test_latex_rendering_shape():
    text = recurrence_triangle(Family.D, 2).to_latex()
    assert text.startswith("\\begin{tabular}{r|rrr}")
    assert "$n \\setminus k$ & $0$ & $1$ & $2$ \\\\" in text
    assert "$1$ & $1$ & $-2$ &  \\\\" in text
    assert text.endswith("\\end{tabular}")


def test_triangle_is_frozen():
    triangle = recurrence_triangle(Family.A, 3)
    assert isinstance(triangle, CoeffTriangle)
    with pytest.raises(AttributeError):
        triangle.rows = ()


def test_min_row_map():
    assert {family: facts.start_row for family, facts in FAMILIES.items()} == {
        Family.A: 0,
        Family.B: 0,
        Family.C: 1,
        Family.D: 1,
        Family.E: 1,
    }
    assert closed_value(Family.A, 2, 2) == 1
