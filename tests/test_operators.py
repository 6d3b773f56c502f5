import re
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bifib import operators as operators_module
from bifib import sequences as sequences_module
from bifib.coefficients import FAMILIES, Family, closed_value
from bifib.errors import DomainError, IntegralityViolation
from bifib.operators import OperatorPoly, build_family, check_shift_law, family_orders, slot_width
from bifib.poly import BivarPoly, ONE, X, Y, ZERO, combine_columns
from bifib.report import CheckResult, all_passed, run_checks
from bifib.sequences import SHARED_CACHES, SequenceCache, SequenceKind, member_coordinates, member_weight


def shift(power=1):
    """E^power."""
    return OperatorPoly({power: ONE})


X_MINUS_E = OperatorPoly({0: X}) - shift()
E_MINUS_X = -X_MINUS_E


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
    assert squared.shift_powers() == [0, 1, 2]


def test_product_expansion():
    # (E - x)(x - 2E) = -x^2 + 3x E - 2 E^2
    product = E_MINUS_X * (OperatorPoly({0: X}) - shift() * 2)
    assert product.coefficient(0) == poly_of((2, 0, -1))
    assert product.coefficient(1) == poly_of((1, 0, 3))
    assert product.coefficient(2) == BivarPoly.constant(-2)


def test_identity_element():
    op = OperatorPoly({0: X, 2: Y})
    assert op * OperatorPoly.identity() == op


def test_zero_coefficients_are_dropped():
    op = OperatorPoly({0: X}) + OperatorPoly({0: -X, 1: ONE})
    assert op.shift_powers() == [1]
    assert OperatorPoly({0: ZERO, 2: 0}) == OperatorPoly()
    assert OperatorPoly().shift_powers() == []


def test_invalid_shift_power_rejected():
    with pytest.raises(ValueError):
        OperatorPoly({-1: ONE})


@pytest.mark.parametrize("value", [1.5, "x", None])
def test_inexact_coefficients_rejected(value):
    with pytest.raises(TypeError, match="^exact rational required"):
        OperatorPoly({0: value})
    with pytest.raises(TypeError, match="^exact rational required"):
        OperatorPoly({0: ONE}) * value


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


@given(operators, operators, small_polys, halves)
def test_the_flat_product_matches_the_product_of_coefficients(p, q, poly, factor):
    # The coefficient of E^k in p * q is the sum over k1 + k2 = k, in BivarPoly arithmetic; powers run to 4 + 4.
    product = p * q
    assert set(product.shift_powers()) <= set(range(9))
    for k in range(9):
        expected = ZERO
        for k1 in range(k + 1):
            expected = expected + p.coefficient(k1) * q.coefficient(k - k1)
        assert product.coefficient(k) == expected, k
    assert OperatorPoly(dict(p.items())) == p
    for scalar in (poly, factor):
        assert p * scalar == scalar * p == OperatorPoly({k: c * scalar for k, c in p.items()})


@given(fraction_operators, fraction_operators)
def test_results_store_no_zero_coefficients(a, b):
    assert (a - a) == OperatorPoly() and (a - a).shift_powers() == []
    assert (a * (b - b)).shift_powers() == []
    for result in (a + b, a - b, a * b, -a, a * ZERO, a * 2, a ** 2, a + (-a)):
        assert all(p for _, p in result.items())
        assert result == OperatorPoly(dict(result.items()))


# -- application ----------------------------------------------------------------


def test_pure_shift_application():
    u_cache = SequenceCache(SequenceKind.FIBONACCI_U)
    assert shift().apply(u_cache, 3) == u_cache[4]


def test_x_minus_shift_steps_down_with_minus_y():
    u_cache = SequenceCache(SequenceKind.FIBONACCI_U)
    assert X_MINUS_E.apply(u_cache, 5) == -Y * u_cache[4]


def test_annihilation_at_the_seed():
    v_cache = SequenceCache(SequenceKind.LUCAS_V)
    op = OperatorPoly({0: X}) - shift() * 2  # x - 2E
    assert not op.apply(v_cache, 0)


def test_negative_base_rejected():
    u_cache = SequenceCache(SequenceKind.FIBONACCI_U)
    with pytest.raises(DomainError):
        shift().apply(u_cache, -1)


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
        for m, row in family_orders(family, 40):
            top = m - 1 if family in (Family.C, Family.E) else m
            assert row[: top + 1] == [closed_value(family, m, k) for k in range(top + 1)], (family, m)
            assert len(row) == m + 1 and all(type(c) is int for c in row), (family, m)
            if family in (Family.C, Family.E):
                assert row[m] == 0, (family, m)


def test_family_orders_are_canonical_y_free_and_end_at_build_family_up_to_40():
    # build_family wraps the last row: entry k of an order-m row is the coefficient of x^(m-k) E^k, with no y term.
    for family in Family:
        for m, row in family_orders(family, 40):
            expected = OperatorPoly({k: BivarPoly.monomial(m - k, 0, c) for k, c in enumerate(row)})
            assert build_family(family, m) == expected, (family, m)


def test_family_orders_match_their_defining_formulas():
    # The expected operators are the module docstring's definitions, built with ** and
    # never by a running product, so a wrong step of family_orders cannot cancel out.
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
        orders = [m for m, _ in family_orders(family, 12)]
        assert orders == list(range(FAMILIES[family].start_row, 13)), family
        for m in orders:
            assert build_family(family, m) == definition(m), (family, m)


def test_relations_pass_up_to_12():
    assert all_passed(run_checks("relations", 12))


def test_shift_law_passes_up_to_25():
    assert all_passed(check_shift_law(kind, 25) for kind in SequenceKind)


def _listed_shift_law(members, n_max):
    """The shift law's Horner rows on coordinate lists: the failing (j, m) and the largest entry of
    any row's difference from its expected vector (the reference for the packed rows)."""
    row, bad, largest = members, [], 0
    for j in range(n_max + 1):
        sign = (-1) ** j
        for i, coords in enumerate(members[: n_max - j + 1]):
            expected = [0] * j + [sign * c for c in coords]
            got = row[i] + [0] * (len(expected) - len(row[i]))
            expected += [0] * (len(got) - len(expected))
            largest = max([largest, *(abs(g - e) for g, e in zip(got, expected))])
            if got != expected:
                bad.append((j, j + i))
        row = [list(map(sub, p + [0] * (len(q) - len(p)), q)) for p, q in zip(row[1:], row[2:])]
    return bad, largest


@pytest.mark.parametrize("corrupted", [None, 3, 7], ids=["members", "member-3-in-family", "member-7-in-family"])
@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_the_packed_shift_law_matches_the_listed_rows(monkeypatch, corrupt_member, kind, corrupted):
    if corrupted is not None:
        corrupt_member(kind.value, corrupted, True)
    found = []
    monkeypatch.setattr(CheckResult, "over", classmethod(lambda cls, name, bad, *args, **kwargs: found.append(bad)))
    for n_max in range(1, 31):
        check_shift_law(kind, n_max)
        members = [member_coordinates(kind.value, i) for i in range(2 * n_max + 1)]
        assert found.pop() == _listed_shift_law(members, n_max)[0], n_max


@pytest.mark.parametrize("n_max", [1, 5, 30])
@pytest.mark.parametrize("top", [1, 255, 3 ** 40])
def test_the_slot_width_holds_every_horner_difference(n_max, top):
    # Alternating members double every row, the fastest growth a Horner difference allows.
    for members in ([[(-1) ** i * top] for i in range(2 * n_max + 1)],
                    [member_coordinates("V", i) for i in range(2 * n_max + 1)]):
        width = slot_width(members, n_max)
        assert width % 8 == 0
        assert _listed_shift_law(members, n_max)[1] < 2 ** (width - 1)
    assert slot_width([[top]], n_max) == -(-(top.bit_length() + n_max + 2) // 8) * 8
    assert slot_width([[1], [-top]], n_max) == slot_width([[top]], n_max)  # a negative entry is read by its size


def test_a_non_int_member_entry_fails_the_shift_law_with_a_line(monkeypatch):
    # The largest entry, so the slot width is read from it before pack rejects it.
    read, entry = sequences_module.member_coordinates, Fraction(2 ** 200 + 1, 2)
    monkeypatch.setattr(sequences_module, "member_coordinates",
                        lambda letter, i: [entry, *read(letter, i)[1:]] if i == 7 else read(letter, i))
    assert _report_line("lemma2.shift-u") == f"FAIL lemma2.shift-u: raised IntegralityViolation: only int entries pack, got {entry!r}"


def test_an_odd_coefficient_in_the_halving_of_e_is_located(monkeypatch):
    # With x - 2E for x - E in A's steps, A_1 = x and x A_1 + D_2 = 3xE - 2E^2, whose E^1 coefficient 3 does not halve.
    monkeypatch.setattr(operators_module, "_x_minus_e", lambda row, top: list(map(sub, [*row, top], [0, *(2 * c for c in row)])))
    text = "order 2, E^1: monomial x has the odd coefficient 3"
    with pytest.raises(IntegralityViolation, match=f"^{re.escape(text)}$"):
        build_family(Family.E, 4)
    assert _report_line("relations.e") == f"FAIL relations.e: raised IntegralityViolation: {text}"


# The first failure of each check when member 7 of its sequence reads wrong inside its family.
# The shift law first reads W_7 in (x-E) at base 6; a relation first fails at the lowest order
# whose operator gives W_7 a non-zero coefficient.
_FIRST_FAILURES = {
    "shift-u": ("lemma2.shift-u", "U", "fails at (j, m) = (1, 6), (1, 7), (1, 8), (2, 5), (2, 6)"),
    "shift-v": ("lemma2.shift-v", "V", "fails at (j, m) = (1, 6), (1, 7), (1, 8), (2, 5), (2, 6)"),
    "relations.a": ("relations.a", "V", "fails at n = 5, 6, 7"),
    "relations.b": ("relations.b", "U", "fails at n = 4, 5, 6, 7"),
    "relations.c": ("relations.c", "U", "fails at n = 4, 5, 6, 7"),
    "relations.d": ("relations.d", "V", "fails at n = 4, 5, 6, 7, 8"),
    "relations.e": ("relations.e", "V", "fails at n = 5, 6, 7"),
}


def _report_line(name, n_max=12):
    return next(result.line() for result in run_checks(name.split(".")[0], n_max) if result.name == name)


@pytest.mark.parametrize(
    "in_family, name, letter, detail",
    [
        pytest.param(in_family, *case, id=key + ("-in-family" if in_family else ""))
        for in_family in (False, True)
        for key, case in _FIRST_FAILURES.items()
    ],
)
def test_a_wrong_member_fails_the_check_from_its_first_use(corrupt_member, in_family, name, letter, detail):
    # Adding x^w changes the member's coordinates, so the check lists where they fail; adding 1
    # puts a term outside the member's family, and reading it raises an error that names it.
    corrupt_member(letter, 7, in_family)
    if not in_family:
        detail = f"raised MalformedElement: {letter}_7: monomial 1 lies outside the degree-{member_weight(letter, 7)} canonical family"
    assert _report_line(name) == f"FAIL {name}: {detail}"


def test_a_nonzero_u0_fails_the_checks_that_read_it(corrupt_member):
    corrupt_member("U", 0)
    for name in ("lemma2.shift-u", "relations.b"):
        assert _report_line(name) == f"FAIL {name}: raised MalformedElement: U_0: reads 1, not 0"


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_a_wrong_entry_in_one_order_fails_that_order(monkeypatch, family):
    # One more x^5 at E^0 of order 5 adds a non-zero member to that order's image and to no other.
    orders = family_orders

    def planted(f, m_max):
        return ((m, [row[0] + 1, *row[1:]] if m == 5 else row) for m, row in orders(f, m_max))

    monkeypatch.setattr(operators_module, "family_orders", planted)
    name = f"relations.{family.value}"
    assert _report_line(name) == f"FAIL {name}: fails at n = 5"


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_a_negated_order_fails_that_order(monkeypatch, family):
    # -B_5 and -D_5 still send their sequence to 0, so only their E^5 coefficient tells them from B_5 and D_5.
    orders = family_orders

    def planted(f, m_max):
        return ((m, [-c for c in row] if m == 5 else row) for m, row in orders(f, m_max))

    monkeypatch.setattr(operators_module, "family_orders", planted)
    name = f"relations.{family.value}"
    assert _report_line(name) == f"FAIL {name}: fails at n = 5"


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7), st.sampled_from(list(SequenceKind)), st.integers(0, 20))
@example([3], SequenceKind.FIBONACCI_U, 0)  # U_0 times a constant at order 0: the empty family of weight -1
def test_coordinate_application_equals_apply_on_the_sequences(row, kind, base):
    # Entry k of an order-m row is the coefficient of x^(m-k) E^k, and x^(m-k) keeps each canonical coordinate's
    # place, so the row combines the members' coordinates into those of the applied operator.
    order, letter = len(row) - 1, kind.value
    members = [member_coordinates(letter, i) for i in range(base, base + len(row))]
    weight = order + member_weight(letter, base)
    op = OperatorPoly({k: BivarPoly.monomial(order - k, 0, c) for k, c in enumerate(row)})
    applied = op.apply(SHARED_CACHES[letter], base)
    assert combine_columns(members, row) == (applied.canonical_coordinates(weight) if weight >= 0 else [])
    assert weight >= 0 or not applied


# -- rendering ---------------------------------------------------------------------


def test_render_ascending_and_descending():
    squared = X_MINUS_E ** 2
    assert str(squared) == "(x^2)·E^0 + (-2x)·E^1 + (1)·E^2"
    assert str(OperatorPoly()) == "0"
