import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bifib.errors import DomainError, IntegralityViolation, MalformedElement
from bifib.poly import (
    BivarPoly,
    ONE,
    X,
    Y,
    ZERO,
    as_rational,
    canonical_monomials,
    combine_columns,
    pack,
    signed_sum,
    sum_of_products,
)
from bifib.sequences import u_poly, u_poly_closed


def poly_of(*terms):
    return BivarPoly([((a, b), c) for a, b, c in terms])


def in_canonical_family(n, coords):
    """sum coords[k] * x^(n-2k) y^k over the degree-n canonical family."""
    return BivarPoly(dict(zip(canonical_monomials(n), coords)))


def u_by_recurrence(n):
    """Independent three-line oracle for the U sequence."""
    prev, cur = ZERO, ONE
    for _ in range(n):
        prev, cur = cur, X * cur + Y * prev
    return prev


coefficients = st.integers(min_value=-9, max_value=9)
exponents = st.integers(min_value=0, max_value=6)
polys = st.lists(
    st.tuples(exponents, exponents, coefficients), min_size=0, max_size=5
).map(lambda ts: poly_of(*ts))


# -- monomials ---------------------------------------------------------------


def test_exponents_must_be_non_negative_ints():
    with pytest.raises(ValueError, match=r"^exponents must be non-negative, got x\^-1$"):
        BivarPoly({(-1, 0): 1})
    with pytest.raises(ValueError):
        BivarPoly.monomial(0, -2)
    with pytest.raises(TypeError):
        BivarPoly({(1.0, 0): 1})


# -- construction and canonical form ----------------------------------------


def test_zero_coefficients_are_never_stored():
    p = poly_of((2, 0, 1), (0, 1, 1)) + poly_of((2, 0, -1), (0, 1, 1))
    assert p == poly_of((0, 1, 2))
    assert all(c != 0 for _, c in p.items())


def test_integral_fractions_normalise_to_int():
    p = BivarPoly({(1, 0): Fraction(4, 2)})
    assert type(p.coefficient(1, 0)) is int and p.coefficient(1, 0) == 2


def test_duplicate_keys_accumulate():
    assert poly_of((1, 0, 2), (1, 0, 3)) == poly_of((1, 0, 5))
    assert not poly_of((1, 0, 2), (1, 0, -2))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        BivarPoly({(0, 0): 0.5})
    with pytest.raises(TypeError):
        as_rational(1.5)


# -- arithmetic ---------------------------------------------------------------


def test_addition_of_disjoint_supports():
    assert X + Y == poly_of((1, 0, 1), (0, 1, 1))


def test_zero_is_additive_identity():
    p = poly_of((2, 1, 3), (0, 0, -1))
    assert p + ZERO == p
    assert p + 0 == p


def test_monomial_times_binomial():
    assert X * poly_of((2, 0, 1), (0, 1, 2)) == poly_of((3, 0, 1), (1, 1, 2))


def test_one_is_multiplicative_identity():
    p = poly_of((3, 2, -4), (1, 0, 7))
    assert p * ONE == p
    assert 1 * p == p


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == poly_of((2, 0, 1), (0, 2, -1))


def test_scale_examples():
    assert poly_of((2, 0, 1), (0, 1, 2)).scale(2) == poly_of((2, 0, 2), (0, 1, 4))
    assert not poly_of((5, 1, 3)).scale(0)


def test_scale_halves_a_doubled_sequence_member():
    u3 = u_by_recurrence(3)
    assert u3 == poly_of((2, 0, 1), (0, 1, 1))
    assert u3.scale(2).scale(Fraction(1, 2)) == u3


def test_power():
    assert (X + Y) ** 0 == ONE
    assert (X + Y) ** 2 == poly_of((2, 0, 1), (1, 1, 2), (0, 2, 1))
    with pytest.raises(ValueError):
        X ** -1


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_operations_keep_canonical_form(p, q):
    for result in (p + q, p - q, p * q, -p, p.scale(3), p.scale(Fraction(1, 2))):
        for _, coeff in result.items():
            assert coeff != 0
            assert isinstance(coeff, (int, Fraction))
            if isinstance(coeff, Fraction):
                assert coeff.denominator != 1


halves = st.integers(-9, 9).map(lambda k: Fraction(k, 2))
half_polys = st.lists(st.tuples(exponents, exponents, halves), max_size=5).map(
    lambda ts: poly_of(*ts)
)


@given(half_polys, half_polys)
def test_internal_results_are_stored_canonically(p, q):
    integral_product = p * q.scale(4)  # (a/2) * (2b): Fraction arithmetic, integral result
    assert all(isinstance(c, int) for _, c in integral_product.items())
    cancelled = (p - p, p + (-p), p * (q - q), p.scale(0))
    assert not any(cancelled)
    results = (p + q, p - q, p * q, -p, p.scale(2), p.scale(Fraction(1, 3)), p ** 2)
    for result in (*results, p.substitute(X * 2, q), integral_product, *cancelled):
        for coeff in result._terms.values():
            assert coeff != 0
            assert type(coeff) is int or coeff.denominator != 1
        rebuilt = BivarPoly(dict(result.items()))
        assert result == rebuilt and str(result) == str(rebuilt)


# -- the multiply-accumulate kernel --------------------------------------------

thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)
fraction_polys = st.lists(st.tuples(exponents, exponents, thirds), max_size=4).map(
    lambda ts: poly_of(*ts)
)


@given(st.lists(st.tuples(fraction_polys, fraction_polys), max_size=4))
def test_sum_of_products_equals_the_sum_of_the_products(pairs):
    expected = ZERO
    for p, q in pairs:
        expected = expected + p * q
    result = sum_of_products(pairs)
    assert result == expected
    # the constructor accumulates repeated monomials on its own, without the kernel
    terms = [((a1 + a2, b1 + b2), c1 * c2) for p, q in pairs for (a1, b1), c1 in p.items() for (a2, b2), c2 in q.items()]
    assert result == BivarPoly(terms)
    assert all(c != 0 and (type(c) is int or c.denominator != 1) for c in result._terms.values())


def test_sum_of_products_of_no_pairs_is_zero():
    assert sum_of_products([]) == ZERO
    assert not sum_of_products([])


def test_sum_of_products_that_cancel_is_the_zero_polynomial():
    p = poly_of((2, 1, 3), (0, 0, Fraction(1, 2)))
    q = poly_of((1, 0, 1), (0, 2, -5))
    result = sum_of_products([(p, q), (-p, q), (X, Y), (Y, -X)])
    assert not result and len(result) == 0 and str(result) == "0"


def test_sum_of_products_stores_an_integral_fraction_as_int():
    half_x = poly_of((1, 0, Fraction(1, 2)))
    result = sum_of_products([(half_x, poly_of((0, 1, Fraction(2, 3)))), (half_x, poly_of((0, 1, Fraction(4, 3))))])
    assert result == X * Y
    assert type(result.coefficient(1, 1)) is int


# -- substitution --------------------------------------------------------------


def test_substitute_expands():
    p = poly_of((2, 0, 1), (0, 1, 1))  # x^2 + y
    assert p.substitute(X * 2, ONE) == poly_of((2, 0, 4), (0, 0, 1))


def test_substitute_identity():
    p = poly_of((3, 1, 2), (0, 2, -5))
    assert p.substitute(X, Y) == p


def test_substitute_scaled_lucas_member():
    v2 = poly_of((2, 0, 1), (0, 1, 2))  # x^2 + 2y
    image = v2.substitute(X * 2, ONE)
    assert image == poly_of((2, 0, 4), (0, 0, 2))
    assert image.scale(Fraction(1, 2)) == poly_of((2, 0, 2), (0, 0, 1))


@given(polys, polys)
def test_substitute_is_a_ring_homomorphism(p, q):
    x_image = poly_of((1, 0, 2))  # 2x
    y_image = poly_of((0, 0, -1), (1, 0, 1))  # x - 1
    sub = lambda t: t.substitute(x_image, y_image)
    assert sub(p * q) == sub(p) * sub(q)
    assert sub(p + q) == sub(p) + sub(q)


def test_evaluate_is_exact():
    p = poly_of((2, 0, 1), (0, 1, 2))
    assert p.evaluate(3, 4) == 17
    assert p.evaluate(Fraction(1, 2), 1) == Fraction(9, 4)


# -- canonical coordinates -----------------------------------------------------


def test_coordinates_of_weight_four_member():
    u5 = u_by_recurrence(5)
    assert u5.canonical_coordinates(4) == [1, 3, 1]


def test_coordinates_of_weight_two_member():
    v2 = poly_of((2, 0, 1), (0, 1, 2))
    assert v2.canonical_coordinates(2) == [1, 2]


def test_coordinates_of_zero_polynomial():
    assert ZERO.canonical_coordinates(6) == [0, 0, 0, 0]


def test_coordinates_reject_foreign_monomials():
    with pytest.raises(MalformedElement) as excinfo:
        (X * Y).canonical_coordinates(2)
    assert str(excinfo.value) == "monomial xy lies outside the degree-2 canonical family"
    with pytest.raises(MalformedElement, match="^monomial 1 lies outside the degree-2 canonical family$"):
        ONE.canonical_coordinates(2)
    with pytest.raises(MalformedElement):
        poly_of((2, 0, 1), (1, 0, 1)).canonical_coordinates(2)
    with pytest.raises(MalformedElement, match=r"^monomial y\^3 lies outside the degree-2 canonical family$"):
        poly_of((2, 0, 3), (0, 3, Fraction(1, 2)), (1, 1, 5), (0, 1, -1)).canonical_coordinates(2)
    with pytest.raises(DomainError):
        ONE.canonical_coordinates(-1)


@given(st.integers(0, 12), fraction_polys, st.lists(thirds, min_size=7, max_size=7))
def test_coordinates_read_the_family_or_name_the_first_term_outside(n, extra, vector):
    p = in_canonical_family(n, vector[: n // 2 + 1]) + extra
    outside = [(a, b) for (a, b), _ in p.items() if a + 2 * b != n]
    if not outside:
        coords = p.canonical_coordinates(n)
        assert len(coords) == n // 2 + 1 and in_canonical_family(n, coords) == p
        return
    # the message names the first out-of-family term in term order
    with pytest.raises(MalformedElement) as excinfo:
        p.canonical_coordinates(n)
    assert str(excinfo.value) == f"monomial {BivarPoly.monomial(*outside[0])} lies outside the degree-{n} canonical family"


def test_cached_coordinates_answer_only_their_own_degree():
    u9 = u_poly(9)
    assert u9.canonical_coordinates(8) == [1, 7, 15, 10, 1]
    with pytest.raises(MalformedElement) as excinfo:
        u9.canonical_coordinates(10)
    assert str(excinfo.value) == "monomial x^8 lies outside the degree-10 canonical family"
    with pytest.raises(DomainError):
        u9.canonical_coordinates(-1)
    assert u9.canonical_coordinates(8) == [1, 7, 15, 10, 1]


def test_mutating_returned_coordinates_leaves_the_next_call_alone():
    p = u_by_recurrence(9)
    first = p.canonical_coordinates(8)
    first[0] = 99
    first.append(5)
    second = p.canonical_coordinates(8)
    assert second == [1, 7, 15, 10, 1]
    second[-1] = -1
    assert p.canonical_coordinates(8) == [1, 7, 15, 10, 1]


def test_racing_threads_get_equal_coordinates():
    p = u_poly_closed(301)
    expected = [p.coefficient(300 - 2 * k, k) for k in range(151)]
    start = threading.Barrier(8)
    results = []

    def work():
        start.wait(timeout=10)
        results.append([p.canonical_coordinates(300) for _ in range(20)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    assert all(coords == expected for calls in results for coords in calls)


def test_combine_columns_reads_a_short_column_as_zero_and_drops_no_entry():
    assert combine_columns([[1, 2, 3], [1, -1, 1]], [2, Fraction(1, 2)]) == [Fraction(5, 2), Fraction(7, 2), Fraction(13, 2)]
    assert combine_columns([[1, 2, 3, 4], [5, 6]], [1, 10]) == [51, 62, 3, 4]
    # A longer column lengthens the result, so a caller's == sees an overrun instead of losing it.
    assert combine_columns([[1, 1], [0, 0, 7]], [1, 1]) == [1, 1, 7]
    assert combine_columns([], []) == []
    assert combine_columns([[]], [-1]) == []


@pytest.mark.parametrize("bits", [8, 16, 48])
def test_packings_collide_one_step_past_the_bound(bits):
    # 2^bits at slot 0 is 1 at slot 1, so the two unequal vectors pack alike
    assert pack([2 ** bits, -1], bits) == 0 == pack([0, 0], bits)


@pytest.mark.parametrize("bits", [8, 16, 48])
def test_pack_reads_an_entry_on_either_side_of_the_slot_range(bits):
    # [0, 2^bits) packs by its bytes alone, anything else through its carries; these vectors sit on that boundary
    for vec in ([2 ** bits - 1], [2 ** bits], [-1], [-(2 ** bits)], [0, 2 ** bits]):
        assert pack(vec, bits) == sum(v << (bits * i) for i, v in enumerate(vec)), vec


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5])
def test_pack_rejects_a_non_int_entry(entry):
    with pytest.raises(IntegralityViolation, match=f"^only int entries pack, got {re.escape(repr(entry))}$"):
        pack([1, entry, 2], 8)


slot_bits = st.sampled_from([8, 16, 48])
big_ints = st.integers(-(2 ** 70), 2 ** 70)


@given(slot_bits, st.lists(st.tuples(big_ints, big_ints), max_size=6), big_ints)
def test_pack_is_linear(bits, pairs, c):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    assert pack(u, bits) - c * pack(v, bits) == pack([a - c * b for a, b in pairs], bits)
    assert pack(u, bits) == sum(a << (bits * i) for i, a in enumerate(u))


@given(st.data(), slot_bits, st.integers(0, 6))
def test_packings_are_equal_exactly_when_vectors_under_the_bound_are(data, bits, length):
    half = 2 ** (bits - 1)
    entries = st.lists(st.integers(-half + 1, half - 1), min_size=length, max_size=length)
    u = data.draw(entries)
    v = data.draw(st.one_of(st.just(list(u)), entries))
    assert (pack(u, bits) == pack(v, bits)) == (u == v)


def test_canonical_family_shape():
    assert canonical_monomials(4) == [(4, 0), (2, 1), (0, 2)]
    assert canonical_monomials(1) == [(1, 0)]


def test_coordinates_invert_expansion_up_to_degree_40():
    rng = random.Random(2024)
    for n in range(41):
        size = n // 2 + 1
        vector = [rng.randint(-9, 9) for _ in range(size)]
        rebuilt = in_canonical_family(n, vector)
        assert rebuilt.canonical_coordinates(n) == vector


# -- inspection and rendering ----------------------------------------------------


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(BivarPoly.constant(2)) == "2"
    assert str(poly_of((4, 0, 1), (2, 1, 3), (0, 2, 1))) == "x^4 + 3x^2y + y^2"
    assert str(poly_of((3, 1, -1), (1, 2, -2))) == "-x^3y - 2xy^2"
    assert str(BivarPoly({(2, 0): Fraction(1, 2)})) == "(1/2)x^2"
    assert str(X - ONE) == "x - 1"


def test_signed_sum_keeps_zeros_and_drops_unit_coefficients():
    assert signed_sum([]) == "0"
    assert signed_sum([(0, "x^2 V_1"), (-1, "V_2"), (1, ""), (Fraction(-3, 2), "x V_3")]) == (
        "0x^2 V_1 - V_2 + 1 - (3/2)x V_3"
    )
    assert signed_sum([(-2, "y"), (0, "")]) == "-2y + 0"


def test_json_rendering():
    p = poly_of((2, 1, -3)) + BivarPoly({(0, 0): Fraction(1, 2)})
    assert p.to_json_terms() == [
        {"x": 2, "y": 1, "num": "-3", "den": "1"},
        {"x": 0, "y": 0, "num": "1", "den": "2"},
    ]


def test_repr_round_trip_text():
    assert repr(poly_of((1, 0, 1))) == "BivarPoly('x')"
