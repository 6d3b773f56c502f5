"""Differential tests against sympy, an exact algebra system written independently of bifib.

Polynomial arithmetic, substitution and evaluation are compared with
``sympy.Poly``; determinants and solves with ``sympy.Matrix``; the Chebyshev
specializations and the univariate images at y0 = -1 with
``sympy.chebyshevt``/``chebyshevu``, and the images at y0 = +1 with a Pell and
Pell-Lucas recurrence stated here in sympy; U_n(1, 1), V_n(1, 1) with the
Fibonacci and Lucas numbers; and the members' coordinates with U_n and V_n
built by their recurrence in sympy, on which the four lemma 2 identities and
the shift law are checked, and from which the four bases' coordinate matrices
are built, whose Berkowitz determinants the lemma 1 determinants must equal.
The five operator families are expanded from their defining formulas in x and
E and applied to those members, and the five decomposition identities are
solved with ``sympy.linsolve`` over their coordinates, against the operator
rows and the closed-form and oracle triangles.  The module is skipped when
sympy is not installed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from bifib.bases import (  # noqa: E402
    BASES, BasisFamily, BasisSpec, RationalMatrix, coordinate_matrix, det_by_column_reduction,
)
from bifib.coefficients import Family, closed_triangle, oracle_triangle  # noqa: E402
from bifib.errors import SingularMatrixError  # noqa: E402
from bifib.operators import family_orders  # noqa: E402
from bifib.poly import BivarPoly  # noqa: E402
from bifib.sequences import member_coordinates, u_poly, v_poly  # noqa: E402
from bifib.specializations import chebyshev_t, chebyshev_u, univariate_images  # noqa: E402

x, y, E = sympy.symbols("x y E")


def to_sympy(value):
    return sympy.Rational(value.numerator, value.denominator)


def to_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def as_poly(p: BivarPoly) -> sympy.Poly:
    return sympy.Poly.from_dict({key: to_sympy(Fraction(c)) for key, c in p.items()}, x, y, domain=sympy.QQ)


# -- BivarPoly against sympy.Poly ------------------------------------------------

thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), thirds), max_size=4).map(
    lambda terms: BivarPoly([((a, b), c) for a, b, c in terms])
)
small_polys = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), thirds), max_size=3).map(
    lambda terms: BivarPoly([((a, b), c) for a, b, c in terms])
)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_sum_and_product_match_sympy(p, q):
    assert as_poly(p + q) == as_poly(p) + as_poly(q)
    assert as_poly(p - q) == as_poly(p) - as_poly(q)
    assert as_poly(p * q) == as_poly(p) * as_poly(q)


@settings(max_examples=40, deadline=None)
@given(polys, small_polys, small_polys)
def test_substitute_matches_sympy(p, x_image, y_image):
    images = {x: as_poly(x_image).as_expr(), y: as_poly(y_image).as_expr()}
    expected = sympy.Poly(as_poly(p).as_expr().xreplace(images), x, y, domain=sympy.QQ)
    assert as_poly(p.substitute(x_image, y_image)) == expected


@settings(max_examples=40, deadline=None)
@given(polys, thirds, thirds)
def test_evaluate_matches_sympy(p, x0, y0):
    assert p.evaluate(x0, y0) == to_fraction(as_poly(p).eval({x: to_sympy(x0), y: to_sympy(y0)}))


# -- RationalMatrix against sympy.Matrix -----------------------------------------


def random_matrix(rng: random.Random, size: int, fractions: bool) -> list[list]:
    """Entries mostly in -2..2, so that zero pivots (row swaps) and singular matrices are common."""

    def entry():
        value = rng.randint(-2, 2)
        return Fraction(value, rng.randint(1, 3)) if fractions else value

    return [[entry() for _ in range(size)] for _ in range(size)]


def compare_with_sympy(rows: list[list], rhs: list) -> bool:
    """Check det and solve against sympy; return whether the matrix is singular."""
    reference = sympy.Matrix([[to_sympy(Fraction(v)) for v in row] for row in rows])
    matrix = RationalMatrix(rows)
    det = reference.det(method="domain-ge")  # Gaussian elimination over QQ, not Bareiss
    assert matrix.det() == to_fraction(det)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            matrix.solve(rhs)
        return True
    solution = reference.solve(sympy.Matrix([to_sympy(Fraction(v)) for v in rhs]))
    assert matrix.solve(rhs) == [to_fraction(v) for v in solution]
    return False


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_det_and_solve_match_sympy_on_random_matrices(fractions):
    rng = random.Random(1451 + fractions)
    singular = swapped = 0
    for _ in range(50):
        size = rng.randint(1, 5)
        rows = random_matrix(rng, size, fractions)
        rhs = [rng.randint(-5, 5) for _ in range(size)]
        singular += compare_with_sympy(rows, rhs)
        swapped += rows[0][0] == 0
    assert singular and swapped  # the sample reaches both paths


def test_det_and_solve_match_sympy_on_a_forced_swap_and_a_singular_matrix():
    assert not compare_with_sympy([[0, 1, 2], [1, 0, 3], [4, -3, 8]], [1, 2, 3])
    assert not compare_with_sympy([[0, Fraction(1, 2)], [Fraction(2, 3), 5]], [1, Fraction(1, 3)])
    assert compare_with_sympy([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [1, 2, 3])


@pytest.mark.parametrize("family", list(BasisFamily), ids=lambda f: f.value)
def test_coordinate_matrices_match_sympy_to_n_20(family):
    rng = random.Random(20)
    for n in range(BASES[family].lowest, 21):
        rows = coordinate_matrix(BasisSpec(family, n)).row_list()
        assert not compare_with_sympy(rows, [rng.randint(-9, 9) for _ in rows])


# -- sequences and their specializations -----------------------------------------


def test_chebyshev_polynomials_match_sympy_to_n_40():
    for n in range(41):
        assert as_poly(chebyshev_t(n)) == sympy.Poly(sympy.chebyshevt(n, x), x, y, domain=sympy.QQ)
        assert as_poly(chebyshev_u(n)) == sympy.Poly(sympy.chebyshevu(n, x), x, y, domain=sympy.QQ)


def test_univariate_images_match_sympy_chebyshev_and_pell_to_n_40():
    # y0 = -1: V_n -> 2 T_n and U_n -> U_(n-1) of the second kind, U_0 -> 0.  y0 = +1: the Pell and Pell-Lucas
    # polynomials, P_i = 2x P_(i-1) + P_(i-2) from P_0 = 0, P_1 = 1 and Q_0 = 2, Q_1 = 2x.
    pell = {"U": [sympy.Integer(0), sympy.Integer(1)], "V": [sympy.Integer(2), 2 * x]}
    for terms in pell.values():
        while len(terms) < 41:
            terms.append(sympy.expand(2 * x * terms[-1] + terms[-2]))
    chebyshev = {
        "U": [sympy.Integer(0), *(sympy.chebyshevu(n, x) for n in range(40))],
        "V": [2 * sympy.chebyshevt(n, x) for n in range(41)],
    }
    for y0, reference in ((-1, chebyshev), (1, pell)):
        for letter in "UV":
            images = univariate_images(letter, y0, 41)
            assert len(images) == 41
            for n, (image, expected) in enumerate(zip(images, reference[letter])):
                got = sympy.Poly.from_list(image[::-1], x, domain=sympy.ZZ)
                assert got == sympy.Poly(expected, x, domain=sympy.ZZ), (letter, y0, n)


def test_u_and_v_at_one_one_are_the_fibonacci_and_lucas_numbers_to_n_40():
    for n in range(41):
        assert u_poly(n).evaluate(1, 1) == sympy.fibonacci(n)
        assert v_poly(n).evaluate(1, 1) == sympy.lucas(n)


def sympy_members(seeds, top):
    """W_0..W_top of W_n = x W_(n-1) + y W_(n-2) from the two seeds, as sympy polynomials."""
    members = [sympy.Poly(seed, x, y, domain=sympy.ZZ) for seed in seeds]
    while len(members) <= top:
        members.append(sympy.Poly(x * members[-1].as_expr() + y * members[-2].as_expr(), x, y, domain=sympy.ZZ))
    return members


@pytest.fixture(scope="module")
def uv_members():
    """U_0..U_25 and V_0..V_25, built in sympy from their seeds."""
    return {"U": sympy_members((0, 1), 25), "V": sympy_members((2, x), 25)}


def test_lemma2_identities_and_the_shift_law_hold_on_sympy_members_that_match_the_coordinates_to_n_12(uv_members):
    n_top = 12
    u, v = uv_members["U"], uv_members["V"]
    zero, x_poly, y_poly = (sympy.Poly(value, x, y, domain=sympy.ZZ) for value in (0, x, y))
    for n in range(n_top + 1):
        assert v[n] == 2 * u[n + 1] - x_poly * u[n], n
        assert n == 0 or v[n] == u[n + 1] + y_poly * u[n - 1], n
        assert sum(((-y_poly) ** (n - k) * v[2 * k] for k in range(1, n + 1)), zero) == u[2 * n + 1] - (-y_poly) ** n, n
        assert v[2 * n] == 2 * u[2 * n + 1] - x_poly * u[2 * n], n
    for letter, w in uv_members.items():
        # (x-E)^j at base m reads W_m..W_(m+j), with weights C(j, i) x^(j-i) (-1)^i
        for m in range(n_top + 1):
            for j in range(m + 1):
                applied = sum((sympy.binomial(j, i) * (-1) ** i * x_poly ** (j - i) * w[m + i] for i in range(j + 1)), zero)
                assert applied == (-y_poly) ** j * w[m - j], (letter, j, m)
        # coordinate k of a member of weight d is its coefficient of x^(d-2k) y^k; U_0 has weight -1 and none
        for i, member in enumerate(w):
            weight = i - 1 if letter == "U" else i
            expected = [int(member.coeff_monomial(x ** (weight - 2 * k) * y ** k)) for k in range(weight // 2 + 1)]
            assert member_coordinates(letter, i) == expected, (letter, i)


# The paper's four bases, as (letter, offset, lowest order): vector k of order n is x^(n-k) times member n + k + offset,
# k = 0..n inside degree 2n, or for the starred bases (lowest order 1) k = 0..n-1 inside degree 2n-1.
BASIS_MEMBERS = {
    BasisFamily.BU: ("U", 1, 0),
    BasisFamily.BV: ("V", 0, 0),
    BasisFamily.BU_STAR: ("U", 0, 1),
    BasisFamily.BV_STAR: ("V", -1, 1),
}


@pytest.mark.parametrize("family", list(BasisFamily), ids=lambda f: f.value)
def test_lemma1_determinants_match_berkowitz_on_coordinate_matrices_of_sympy_members_to_n_10(uv_members, family):
    letter, offset, lowest = BASIS_MEMBERS[family]
    x_poly = sympy.Poly(x, x, y, domain=sympy.ZZ)
    dets = []
    for n in range(lowest, 11):
        degree, size = 2 * n - lowest, n + 1 - lowest
        vectors = [x_poly ** (n - k) * uv_members[letter][n + k + offset] for k in range(size)]
        # row i holds coordinate i, the coefficient of x^(degree-2i) y^i, and column k vector k
        rows = [[int(vector.coeff_monomial(x ** (degree - 2 * i) * y ** i)) for vector in vectors] for i in range(size)]
        dets.append(int(sympy.Matrix(rows).det(method="berkowitz")))
        spec = BasisSpec(family, n)
        assert coordinate_matrix(spec).row_list() == rows, n
        assert dets[-1] == BASES[family].determinant == coordinate_matrix(spec).det(), n
        assert det_by_column_reduction(spec) == dets, n


# -- the operator relations and the decomposition identities ----------------------


def operator_families(m):
    """A_m..E_m from their defining formulas, as sympy polynomials in x and E; C, D and E from m = 1."""
    def a(m):
        return (x - E) ** m + 2 * sum((E ** k * (x - E) ** (m - k) for k in range(1, m + 1)), sympy.Integer(0))

    def d(m):
        return (E - x) ** (m - 1) * (x - 2 * E)

    b = -((E - x) ** m)
    expressions = {Family.A: a(m), Family.B: b}
    if m >= 1:
        expressions |= {Family.C: 2 * E ** m + 2 * b - x * E ** (m - 1), Family.D: d(m),
                        Family.E: (x * a(m - 1) + d(m)) / 2 + E ** m}
    return {family: sympy.Poly(expression, x, E, domain=sympy.QQ) for family, expression in expressions.items()}


# F_n is applied to the members of one letter at base n + base shift, and gives 0 or factor * (letter')_(2n + shift):
# (letter, base shift, None or (factor, letter', shift))
RELATIONS = {
    Family.A: ("V", 0, (2, "U", 1)),
    Family.B: ("U", 0, None),
    Family.C: ("U", 0, (1, "V", -1)),
    Family.D: ("V", -1, None),
    Family.E: ("V", -1, (2, "U", 0)),
}


def test_relations_hold_for_operators_expanded_from_their_definitions_that_match_the_rows_to_n_12(uv_members):
    # c x^a E^k applied to W at base b is c x^a W_(b+k).
    expanded = [operator_families(m) for m in range(13)]
    for family, (letter, base_shift, image) in RELATIONS.items():
        for n, row in family_orders(family, 12):
            operator = expanded[n][family]
            from_row = sum(c * x ** (n - k) * E ** k for k, c in enumerate(row))
            assert operator == sympy.Poly(from_row, x, E, domain=sympy.QQ), (family, n)
            base = n + base_shift
            applied = sum(c * x ** a * uv_members[letter][base + k].as_expr() for (a, k), c in operator.terms())
            expected = 0 if image is None else image[0] * uv_members[image[1]][2 * n + image[2]].as_expr()
            assert sympy.expand(applied - expected) == 0, (family, n)


# Each family's identity, factor * (letter)_(2n + shift) over a basis of BASIS_MEMBERS: (factor, letter, shift, basis)
IDENTITIES = {
    Family.A: (2, "U", 1, BasisFamily.BV),
    Family.B: (1, "U", 0, BasisFamily.BU_STAR),
    Family.C: (1, "V", -1, BasisFamily.BU_STAR),
    Family.D: (2, "V", -1, BasisFamily.BV_STAR),
    Family.E: (2, "U", 0, BasisFamily.BV_STAR),
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_theorem_coordinates_match_linsolve_over_the_coordinates_of_sympy_members_to_n_10(uv_members, family):
    factor, letter, shift, basis = IDENTITIES[family]
    basis_letter, offset, lowest = BASIS_MEMBERS[basis]
    closed, oracle = closed_triangle(family, 10), oracle_triangle(family, 10)
    x_poly = sympy.Poly(x, x, y, domain=sympy.ZZ)
    for n in range(lowest, 11):
        degree, size = 2 * n - lowest, n + 1 - lowest
        target = factor * uv_members[letter][2 * n + shift]
        vectors = [x_poly ** (n - k) * uv_members[basis_letter][n + k + offset] for k in range(size)]
        # row i holds coordinate i, the coefficient of x^(degree-2i) y^i, and column k vector k
        rows = [[int(v.coeff_monomial(x ** (degree - 2 * i) * y ** i)) for v in vectors] for i in range(size)]
        rhs = [int(target.coeff_monomial(x ** (degree - 2 * i) * y ** i)) for i in range(size)]
        unknowns = sympy.symbols(f"c0:{size}")
        (solution,) = sympy.linsolve((sympy.Matrix(rows), sympy.Matrix(rhs)), unknowns)
        assert sum((c * v for c, v in zip(solution, vectors)), 0 * target) == target, n  # no term outside coordinates
        assert list(solution) == list(closed.row(n)[:size]) == list(oracle.row(n)), n
