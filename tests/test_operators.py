from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bifib import operators as operators_module
from bifib.bases import member_weight
from bifib.coefficients import MIN_ROW, Family, closed_value
from bifib.errors import DomainError
from bifib.operators import (
    E_MINUS_X,
    OperatorPoly,
    X_MINUS_E,
    _apply_split,
    _split_members,
    build_family,
    check_relation,
    check_shift_law,
    family_orders,
)
from bifib.poly import BivarPoly, ONE, X, Y, ZERO
from bifib.report import all_passed, run_checks
from bifib.sequences import SHARED_CACHES, SequenceCache, SequenceKind


def poly_of(*terms):
    return BivarPoly([((a, b), c) for a, b, c in terms])


small_polys = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)),
    min_size=0,
    max_size=3,
).map(lambda ts: poly_of(*ts))

operators = st.lists(
    st.tuples(st.integers(0, 4), small_polys), min_size=0, max_size=3
).map(OperatorPoly)


# -- ring structure ------------------------------------------------------------


def test_square_of_x_minus_shift():
    squared = X_MINUS_E ** 2
    assert squared.coefficient(0) == poly_of((2, 0, 1))
    assert squared.coefficient(1) == poly_of((1, 0, -2))
    assert squared.coefficient(2) == ONE
    assert squared.degree == 2


def test_product_expansion():
    # (E - x)(x - 2E) = -x^2 + 3x E - 2 E^2
    product = E_MINUS_X * (OperatorPoly({0: X}) - OperatorPoly.shift() * 2)
    assert product.coefficient(0) == poly_of((2, 0, -1))
    assert product.coefficient(1) == poly_of((1, 0, 3))
    assert product.coefficient(2) == BivarPoly.constant(-2)


def test_identity_element():
    op = OperatorPoly({0: X, 2: Y})
    assert op * OperatorPoly.identity() == op


def test_zero_coefficients_are_dropped():
    op = OperatorPoly({0: X}) + OperatorPoly({0: -X, 1: ONE})
    assert op.shift_powers() == [1]
    assert OperatorPoly().is_zero()
    assert OperatorPoly().degree == -1


def test_invalid_shift_power_rejected():
    with pytest.raises(ValueError):
        OperatorPoly({-1: ONE})


@given(operators, operators)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(operators, operators, operators)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


halves = st.integers(-9, 9).map(lambda k: Fraction(k, 2))
fraction_operators = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), halves), max_size=3).map(
            lambda ts: poly_of(*ts)
        ),
    ),
    max_size=3,
).map(OperatorPoly)


@given(fraction_operators, fraction_operators)
def test_results_store_no_zero_coefficients(a, b):
    assert (a - a).is_zero() and (a - a).degree == -1
    assert (a * (b - b)).degree == -1
    for result in (a + b, a - b, a * b, -a, a * ZERO, a * 2, a ** 2, a + (-a)):
        assert all(not p.is_zero() for _, p in result.items())
        assert result == OperatorPoly(dict(result.items()))


# -- application ----------------------------------------------------------------


def test_pure_shift_application():
    u_cache = SequenceCache(SequenceKind.FIBONACCI_U)
    assert OperatorPoly.shift().apply(u_cache, 3) == u_cache[4]


def test_x_minus_shift_steps_down_with_minus_y():
    u_cache = SequenceCache(SequenceKind.FIBONACCI_U)
    assert X_MINUS_E.apply(u_cache, 5) == -Y * u_cache[4]


def test_annihilation_at_the_seed():
    v_cache = SequenceCache(SequenceKind.LUCAS_V)
    op = OperatorPoly({0: X}) - OperatorPoly.shift() * 2  # x - 2E
    assert op.apply(v_cache, 0).is_zero()


def test_negative_base_rejected():
    u_cache = SequenceCache(SequenceKind.FIBONACCI_U)
    with pytest.raises(DomainError):
        OperatorPoly.shift().apply(u_cache, -1)


# -- the five families ------------------------------------------------------------


def test_family_b_order_zero():
    op = build_family(Family.B, 0)
    assert op.coefficient(0) == BivarPoly.constant(-1)
    assert op.shift_powers() == [0]


def test_family_d_order_one():
    op = build_family(Family.D, 1)
    assert op.coefficient(0) == X
    assert op.coefficient(1) == BivarPoly.constant(-2)


def test_family_a_order_two():
    op = build_family(Family.A, 2)
    assert op.coefficient(0) == poly_of((2, 0, 1))
    assert op.coefficient(1) == ZERO
    assert op.coefficient(2) == ONE


def test_family_domains():
    for family in (Family.C, Family.D, Family.E):
        with pytest.raises(DomainError):
            build_family(family, 0)
    with pytest.raises(DomainError):
        build_family(Family.A, -1)
    build_family(Family.A, 0)
    build_family(Family.B, 0)


def test_expansions_match_closed_values_up_to_40():
    for family in Family:
        for m, op in family_orders(family, 40):
            top = m - 1 if family in (Family.C, Family.E) else m
            for k in range(top + 1):
                expected = closed_value(family, m, k)
                assert op.coefficient(k) == BivarPoly.monomial(m - k, 0, expected), (
                    family,
                    m,
                    k,
                )
            if family in (Family.C, Family.E):
                assert op.coefficient(m).is_zero()
            assert all(p.is_integral() for _, p in op.items())


def test_family_orders_match_their_defining_formulas():
    # The expected operators are the module docstring's definitions, built with ** and
    # never by a running product, so a wrong step of family_orders cannot cancel out.
    shift = OperatorPoly.shift

    def a(m):
        total = X_MINUS_E ** m
        for k in range(1, m + 1):
            total = total + shift(k) * X_MINUS_E ** (m - k) * 2
        return total

    def b(m):
        return -(E_MINUS_X ** m)

    def d(m):
        return E_MINUS_X ** (m - 1) * (OperatorPoly({0: X}) - shift() * 2)

    defined = {
        Family.A: a,
        Family.B: b,
        Family.C: lambda m: shift(m) * 2 + b(m) * 2 - shift(m - 1) * X,
        Family.D: d,
        Family.E: lambda m: (a(m - 1) * X + d(m)) * Fraction(1, 2) + shift(m),
    }
    for family, definition in defined.items():
        orders = list(family_orders(family, 12))
        assert [m for m, _ in orders] == list(range(MIN_ROW[family], 13)), family
        for m, op in orders:
            assert op == definition(m), (family, m)
        assert build_family(family, 12) == definition(12), family


def test_relations_pass_up_to_12():
    assert all_passed(run_checks("relations", 12))


def test_shift_law_passes_up_to_25():
    assert all_passed(check_shift_law(kind, 25) for kind in SequenceKind)


# The first failure of each check when member 7 of its sequence reads wrong.  The shift law
# first reads W_7 in (x-E) at base 6; a relation first fails at the lowest order whose
# operator gives W_7 a non-zero coefficient.
_FIRST_FAILURES = {
    "shift-u": (partial(check_shift_law, SequenceKind.FIBONACCI_U), "U", "(j, m) = (1, 6), (1, 7), (1, 8), (2, 5), (2, 6)"),
    "shift-v": (partial(check_shift_law, SequenceKind.LUCAS_V), "V", "(j, m) = (1, 6), (1, 7), (1, 8), (2, 5), (2, 6)"),
    "relations.a": (partial(check_relation, Family.A), "V", "n = 5, 6, 7"),
    "relations.b": (partial(check_relation, Family.B), "U", "n = 4, 5, 6, 7"),
    "relations.c": (partial(check_relation, Family.C), "U", "n = 4, 5, 6, 7"),
    "relations.d": (partial(check_relation, Family.D), "V", "n = 4, 5, 6, 7, 8"),
    "relations.e": (partial(check_relation, Family.E), "V", "n = 5, 6, 7"),
}


@pytest.mark.parametrize(
    "in_family, check, letter, detail",
    [
        pytest.param(in_family, *case, id=name + ("-in-family" if in_family else ""))
        for in_family in (False, True)
        for name, case in _FIRST_FAILURES.items()
    ],
)
def test_a_wrong_member_fails_the_check_from_its_first_use(corrupt_member, in_family, check, letter, detail):
    # Adding 1 puts the error in the member's rest, outside its canonical family; adding x^w
    # puts it in the member's coordinates.  Both must fail the same (j, m) or n.
    corrupt_member(letter, 7, in_family)
    result = check(12)
    assert not result.passed
    assert result.detail == "fails at " + detail


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_an_out_of_family_term_in_one_order_fails_that_order(monkeypatch, family):
    # x*y at shift 0 of order 5 lies outside the weight-5 coefficient family, so it reaches
    # the check only through the coefficients' rest parts.
    orders = family_orders

    def planted(f, m_max):
        return ((m, op + OperatorPoly({0: X * Y}) if m == 5 else op) for m, op in orders(f, m_max))

    monkeypatch.setattr(operators_module, "family_orders", planted)
    result = check_relation(family, 12)
    assert not result.passed
    assert result.detail == "fails at n = 5"


@given(operators, st.sampled_from(list(SequenceKind)), st.integers(0, 20), st.integers(0, 8))
@example(OperatorPoly({1: poly_of((1, 1, 3))}), SequenceKind.LUCAS_V, 4, 4)  # x*y at E^1 adds from entry 1 on
def test_coordinate_application_equals_the_split_of_apply_on_the_sequences(op, kind, base, order):
    members = _split_members(kind.value, base + 4)
    weight = order + member_weight(kind.value, base)
    seq = SHARED_CACHES[kind.value]
    assert _apply_split(op, members, base, order, weight) == op.apply(seq, base).split_canonical(weight)


@given(operators, st.lists(small_polys, min_size=9, max_size=9), st.integers(0, 4), st.integers(0, 6), st.integers(-1, 3))
def test_coordinate_application_equals_the_split_of_apply_on_any_members(op, polys, base, order, first_weight):
    # Member i is split over degree first_weight + i, so member base + k over weight - order + k.
    members = [(w, *w.split_canonical(first_weight + i)) for i, w in enumerate(polys)]
    weight = order + first_weight + base
    assert _apply_split(op, members, base, order, weight) == op.apply(polys, base).split_canonical(weight)


# -- rendering ---------------------------------------------------------------------


def test_render_ascending_and_descending():
    squared = X_MINUS_E ** 2
    assert str(squared) == "(x^2)·E^0 + (-2x)·E^1 + (1)·E^2"
    assert str(OperatorPoly()) == "0"
