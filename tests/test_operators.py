import re
from fractions import Fraction
from math import comb
from operator import add, sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bifib import operators as operators_module
from bifib import sequences as sequences_module
from bifib.coefficients import FAMILIES, Family, closed_value
from bifib.errors import DomainError, IntegralityViolation
from bifib.operators import build_family, check_shift_law, family_orders, slot_width
from bifib.poly import BivarPoly, combine_columns, pack, sum_of_products
from bifib.report import CheckResult, all_passed, run_checks
from bifib.sequences import SHARED_CACHES, SequenceKind, member_coordinates, member_weight, read_members


def convolve(p, q):
    """The row of the product of two operators homogeneous in x and E, from their rows."""
    product = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            product[i + j] += a * b
    return product


def binomial_row(j):
    """The row of (x-E)^j: entry k is C(j, k) (-1)^k."""
    return [comb(j, k) * (-1) ** k for k in range(j + 1)]


def shift(k):
    """The row of E^k."""
    return [0] * k + [1]


def plus(*rows):
    """The row of a sum of operators of one order."""
    return [sum(entries) for entries in zip(*rows, strict=True)]


def times(c, row):
    return [c * entry for entry in row]


X_ROW = [1, 0]


def applied(row, letter, base):
    """The row applied at ``base`` in BivarPoly arithmetic: sum_k c_k x^(m-k) W_(base+k), for an order-m row."""
    order, cache = len(row) - 1, SHARED_CACHES[letter]
    return sum_of_products((BivarPoly.monomial(order - k, 0, c), cache[base + k]) for k, c in enumerate(row))


def images(row, columns):
    """The coordinates of the row applied at each base the columns reach: base i reads columns i, i+1, ..."""
    return [combine_columns(columns[i: i + len(row)], row) for i in range(len(columns) - len(row) + 1)]


rows = st.lists(st.integers(-9, 9), min_size=1, max_size=4)


# -- products of rows ------------------------------------------------------------------


def test_square_of_x_minus_shift():
    # (x-E)^2 = x^2 - 2xE + E^2: the module's (x-E) step twice from 1, a binomial row and a product of rows
    step = operators_module._x_minus_e
    assert step(step([1], 0), 0) == binomial_row(2) == convolve([1, -1], [1, -1]) == [1, -2, 1]


def test_product_expansion():
    # (E - x)(x - 2E) = -x^2 + 3x E - 2 E^2, which is D_2
    assert convolve([-1, 1], [1, -2]) == build_family(Family.D, 2) == [-1, 3, -2]


# -- application to the members' coordinates ----------------------------------------------


def test_x_minus_shift_steps_down_with_minus_y():
    # x keeps a coordinate's place and y moves it up one, so (x-E) at base 5 reads -y U_4
    members = [member_coordinates("U", i) for i in (5, 6)]
    assert combine_columns(members, [1, -1]) == [0, *(-c for c in member_coordinates("U", 4))]


def test_annihilation_at_the_seed():
    # x - 2E, the row of D_1, at base 0: x V_0 - 2 V_1 = 2x - 2x
    assert combine_columns([member_coordinates("V", i) for i in (0, 1)], build_family(Family.D, 1)) == [0]


def test_identity_element():
    # A_0 = 1 applied at any base reads its member unchanged.
    assert build_family(Family.A, 0) == [1]
    for letter in "UV":
        for n in range(12):
            assert combine_columns([member_coordinates(letter, n)], [1]) == member_coordinates(letter, n), (letter, n)
            assert applied([1], letter, n) == SHARED_CACHES[letter][n], (letter, n)


def test_pure_shift_application():
    # E^k at base n reads member n + k, whatever the letter.
    for letter in "UV":
        members = read_members(letter, range(16))
        for k in range(4):
            for n in range(12):
                assert combine_columns(members[n: n + k + 1], shift(k)) == members[n + k], (letter, k, n)
    assert applied(shift(1), "U", 3) == SHARED_CACHES["U"][4]


def test_negative_base_rejected():
    with pytest.raises(DomainError, match="^sequence index must be >= 0, got -1$"):
        read_members("U", range(-1, 1))
    with pytest.raises(DomainError, match="^sequence index must be >= 0, got -1$"):
        applied(shift(1), "V", -1)


def test_zero_coefficients_are_dropped():
    # B_n annihilates U at base n, so its image in BivarPoly arithmetic stores no term; the zero E^n entry of C_n
    # and E_n adds none, so their images equal the sums over the entries below it.
    for n, row in family_orders(Family.B, 10):
        assert len(applied(row, "U", n)) == 0 and not applied(row, "U", n), n
    for family, letter in ((Family.C, "U"), (Family.E, "V")):
        for n, row in family_orders(family, 10):
            base = n if family is Family.C else n - 1
            assert row[n] == 0
            assert applied(row, letter, base) == sum_of_products(
                (BivarPoly.monomial(n - k, 0, c), SHARED_CACHES[letter][base + k]) for k, c in enumerate(row[:-1])
            ), (family, n)


@pytest.mark.parametrize("value", [1.5, "x", None])
def test_inexact_coefficients_rejected(value):
    # The exact reference and the packed rows of the shift law take no inexact entry.
    with pytest.raises(TypeError, match="^exact rational required"):
        applied([1, value], "U", 3)
    with pytest.raises(IntegralityViolation, match="^only int entries pack"):
        pack([1, value], 8)


@given(rows, rows, st.sampled_from("UV"), st.integers(0, 8))
def test_multiplication_commutes(p, q, letter, base):
    # Applying q and then p to the images equals applying p and then q, and equals applying the product row.
    members = read_members(letter, range(base, base + len(p) + len(q) - 1))
    product = combine_columns(members, convolve(p, q))
    assert combine_columns(images(q, members), p) == combine_columns(images(p, members), q) == product


@given(rows, st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=4),
       st.sampled_from("UV"), st.integers(0, 8))
def test_distributivity(p, qr, letter, base):
    # q and r of one order: p after (q + r) is p after q plus p after r, entry by entry.
    q, r = map(list, zip(*qr))
    members = read_members(letter, range(base, base + len(p) + len(q) - 1))
    after = [combine_columns(images(s, members), p) for s in (plus(q, r), q, r)]
    assert after[0] == list(map(add, after[1], after[2]))
    assert combine_columns(members, plus(convolve(p, q), convolve(p, r))) == after[0]


# -- the five families ------------------------------------------------------------


def test_family_b_order_zero():
    assert build_family(Family.B, 0) == [-1]


def test_family_d_order_one():
    assert build_family(Family.D, 1) == [1, -2]


def test_family_a_order_two():
    assert build_family(Family.A, 2) == [1, 0, 1]


def test_family_domains():
    for family in (Family.C, Family.D, Family.E):
        with pytest.raises(DomainError):
            build_family(family, 0)
    with pytest.raises(DomainError):
        build_family(Family.A, -1)
    build_family(Family.A, 0)
    build_family(Family.B, 0)


def test_invalid_shift_power_rejected():
    # The order is the top power of E, and each family names its first order.
    for family in Family:
        start = FAMILIES[family].start_row
        for m in (start - 1, -1):
            text = f"operator family {family.value.upper()} needs m >= {start}, got {m}"
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                build_family(family, m)


def test_expansions_match_closed_values_up_to_40():
    for family in Family:
        for m, row in family_orders(family, 40):
            top = m - 1 if family in (Family.C, Family.E) else m
            assert row[: top + 1] == [closed_value(family, m, k) for k in range(top + 1)], (family, m)
            assert len(row) == m + 1 and all(type(c) is int for c in row), (family, m)
            if family in (Family.C, Family.E):
                assert row[m] == 0, (family, m)


def test_family_orders_are_canonical_y_free_and_end_at_build_family_up_to_40():
    # Entry k of an order-m row is the coefficient of x^(m-k) E^k, so a row of ints (as the closed-value test checks)
    # has no y term; build_family gives one order's row.
    for family in Family:
        for m, row in family_orders(family, 40):
            assert build_family(family, m) == row, (family, m)


def test_family_orders_match_their_defining_formulas():
    # The expected rows are the module docstring's definitions, with binomial rows for the powers of x - E and
    # E - x and products of rows for their products, and never by a running product, so a wrong step of
    # family_orders cannot cancel out.
    def a(m):
        return plus(binomial_row(m), *(times(2, convolve(shift(k), binomial_row(m - k))) for k in range(1, m + 1)))

    def b(m):
        return times(-((-1) ** m), binomial_row(m))  # (E-x)^m = (-1)^m (x-E)^m

    def d(m):
        return convolve(times((-1) ** (m - 1), binomial_row(m - 1)), [1, -2])

    defined = {
        Family.A: a,
        Family.B: b,
        Family.C: lambda m: plus(times(2, shift(m)), times(2, b(m)), times(-1, convolve(X_ROW, shift(m - 1)))),
        Family.D: d,
        Family.E: lambda m: plus(times(Fraction(1, 2), plus(convolve(X_ROW, a(m - 1)), d(m))), shift(m)),
    }
    for family, definition in defined.items():
        orders = [m for m, _ in family_orders(family, 12)]
        assert orders == list(range(FAMILIES[family].start_row, 13)), family
        for m in orders:
            assert build_family(family, m) == definition(m), (family, m)


def test_relations_pass_up_to_12():
    assert all_passed(result for result, _ in run_checks("relations", 12))


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
    return next(result.line() for result, _ in run_checks(name.split(".")[0], n_max) if result.name == name)


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
    # place, so the row combines the members' coordinates into those of the applied operator, stated here in BivarPoly
    # arithmetic (``applied``).
    order, letter = len(row) - 1, kind.value
    members = [member_coordinates(letter, i) for i in range(base, base + len(row))]
    weight = order + member_weight(letter, base)
    image = applied(row, letter, base)
    assert combine_columns(members, row) == (image.canonical_coordinates(weight) if weight >= 0 else [])
    assert weight >= 0 or not image
