import sys
import threading
from fractions import Fraction
from math import comb, prod

import pytest

from bifib.errors import DomainError
from bifib.poly import BivarPoly, ONE, X, Y, ZERO
from bifib.report import all_passed, run_checks
from bifib.sequences import (
    SHARED_CACHES,
    SequenceCache,
    SequenceKind,
    check_alternating_v_sum,
    check_v_even_simple,
    check_v_from_u_neighbors,
    check_v_from_u_pair,
    member_of_weight,
    member_weight,
    u_poly,
    u_poly_closed,
    v_poly,
    v_poly_closed,
)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_seeds():
    assert u_poly(0) == ZERO
    assert u_poly(1) == ONE
    assert v_poly(0) == BivarPoly.constant(2)
    assert v_poly(1) == X


def test_small_members():
    assert u_poly(5) == BivarPoly({(4, 0): 1, (2, 1): 3, (0, 2): 1})
    assert v_poly(3) == BivarPoly({(3, 0): 1, (1, 1): 3})


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        u_poly(-1)


def test_cache_extends_by_the_recurrence():
    cache = SequenceCache(SequenceKind.LUCAS_V)
    cache[12]
    assert len(cache) >= 13
    for n in range(2, 13):
        assert cache[n] == X * cache[n - 1] + Y * cache[n - 2]


def test_closed_form_base_cases():
    assert u_poly_closed(1) == ONE
    assert v_poly_closed(1) == X
    with pytest.raises(DomainError):
        u_poly_closed(0)
    with pytest.raises(DomainError):
        v_poly_closed(0)


def test_closed_form_values():
    assert u_poly_closed(5) == BivarPoly({(4, 0): 1, (2, 1): 3, (0, 2): 1})
    assert u_poly_closed(7) == BivarPoly({(6, 0): 1, (4, 1): 5, (2, 2): 6, (0, 3): 1})
    assert v_poly_closed(2) == BivarPoly({(2, 0): 1, (0, 1): 2})
    assert v_poly_closed(4) == BivarPoly({(4, 0): 1, (2, 1): 4, (0, 2): 2})


def test_closed_form_matches_recurrence_up_to_40():
    for n in range(1, 41):
        assert u_poly(n) == u_poly_closed(n)
        assert v_poly(n) == v_poly_closed(n)


# Coordinate j, of x^(m-2j) y^j, of U_(m+1) (m >= 0) and of V_m (m >= 1) by the closed forms; past a member's
# last coordinate, j > m/2, both read 0
CLOSED = {"U": lambda m, j: Fraction(comb(m - j, j)), "V": lambda m, j: Fraction(m, m - j) * comb(m - j, j)}
# Entry j >= 1 of the recurrence's row m, w(m+1, j) = w(m, j) + w(m-1, j-1), divided by B = C(m-j, j-1): as
# C(m+1-j, j) = B (m+1-j)/j and C(m-j, j) = B (m-2j+1)/j, each of its three terms is a product of linear forms
# a m + b j + c, written (a, b, c), over one common denominator D, which is not 0 for 1 <= j <= (m+1)/2
RATIOS = {
    "U": ([[(1, -1, 1)], [(1, -2, 1)], [(0, 1, 0)]], [(0, 1, 0)]),
    "V": ([[(1, 0, 1), (1, -1, 0)], [(1, 0, 0), (1, -2, 1)], [(0, 1, 0), (1, 0, -1)]], [(0, 1, 0), (1, -1, 0)]),
}
DEGREE = {"U": 1, "V": 2}
FIRST_ROW = {"U": 1, "V": 2}  # the first m whose three members all have a closed form: U_m and V_(m-1) from index 1


def linear_product(factors, m, j):
    return prod((a * m + b * j + c for a, b, c in factors), start=Fraction(1))


def test_closed_coordinates_read_the_closed_forms():
    for m in range(41):
        assert u_poly_closed(m + 1).canonical_coordinates(m) == [CLOSED["U"](m, j) for j in range(m // 2 + 1)]
    for m in range(1, 41):
        assert v_poly_closed(m).canonical_coordinates(m) == [CLOSED["V"](m, j) for j in range(m // 2 + 1)]
    for letter, (numerators, denominator) in RATIOS.items():
        w = CLOSED[letter]
        for m in range(FIRST_ROW[letter], 41):
            for j in range(1, (m + 1) // 2 + 1):
                terms = (w(m + 1, j), w(m, j), w(m - 1, j - 1))
                scaled = [comb(m - j, j - 1) * linear_product(factors, m, j) for factors in numerators]
                assert [linear_product(denominator, m, j) * t for t in terms] == scaled, (letter, m, j)


def test_closed_forms_keep_the_recurrence_for_every_n():
    for letter, (numerators, _) in RATIOS.items():
        # cleared of D, entry j >= 1 of every row is P(m, j) = 0, P a sum of products of at most d linear forms, so of
        # degree <= d in m and in j; vanishing on the grid {0..d}^2 it vanishes everywhere
        d = max(map(len, numerators))
        assert d == DEGREE[letter]
        first, *rest = numerators
        for m in range(d + 1):
            for j in range(d + 1):
                assert linear_product(first, m, j) == sum(linear_product(f, m, j) for f in rest), (letter, m, j)
    # entry 0 of every row reads 1 = 1 + 0, as C(m, 0) = m/m = 1
    assert all(CLOSED[letter](m, 0) == 1 for letter in "UV" for m in range(1, 101))
    # the seeds: closed forms start where the recurrence does, U_1, U_2 and V_1, V_2 (U_0 and V_0 have none)
    assert [u_poly_closed(n) for n in (1, 2)] == [u_poly(1), u_poly(2)] == [ONE, X]
    assert [v_poly_closed(n) for n in (1, 2)] == [v_poly(1), v_poly(2)] == [X, X * X + Y * v_poly(0)]


def test_coefficients_are_non_negative_integers():
    for n in range(101):
        for poly in (u_poly(n), v_poly(n)):
            assert all(isinstance(c, int) and c > 0 for _, c in poly.items())


def test_homogeneity_weights():
    for n in range(61):
        assert {a + 2 * b for (a, b), _ in u_poly(n + 1).items()} == {n}
        assert {a + 2 * b for (a, b), _ in v_poly(n).items()} == {n}


def test_member_of_weight_inverts_the_weight_rule():
    for letter in "UV":
        assert [member_weight(letter, member_of_weight(letter, w)) for w in range(-1, 40)] == list(range(-1, 40))
        for weight in range(30):
            member = SHARED_CACHES[letter][member_of_weight(letter, weight)]
            assert {a + 2 * b for (a, b), _ in member.items()} == {weight}, (letter, weight)
    assert [member_of_weight(letter, 4) for letter in "UV"] == [5, 4]  # U_5 and V_4 span degree 4


def test_numeric_anchors_at_one_one():
    for n in range(31):
        assert u_poly(n).evaluate(1, 1) == fib(n)
        assert v_poly(n).evaluate(1, 1) == lucas(n)


def test_identity_checks_at_seed_level():
    # 2U_2 - xU_1 = 2x - x = x = V_1
    assert 2 * u_poly(2) - X * u_poly(1) == v_poly(1)
    # V_2 = U_3 + y
    assert v_poly(2) == u_poly(3) + Y
    assert check_v_from_u_pair(1).passed
    assert check_alternating_v_sum(2).passed


def test_lemma2_suite_passes_up_to_50():
    results = [
        check(50)
        for check in (
            check_v_from_u_pair,
            check_v_from_u_neighbors,
            check_alternating_v_sum,
            check_v_even_simple,
        )
    ]
    assert len(results) == 4
    assert all_passed(results)
    names = {r.name for r in results}
    assert names == {
        "lemma2.v-from-u-pair",
        "lemma2.v-from-u-neighbors",
        "lemma2.alternating-v-sum",
        "lemma2.v-even-simple",
    }


def test_the_lemma2_identities_hold_as_polynomials_up_to_60():
    # The polynomial statements the coordinate checks stand for, by BivarPoly arithmetic.
    total = ZERO
    for n in range(61):
        assert 2 * u_poly(n + 1) - X * u_poly(n) == v_poly(n)
        if n > 0:
            assert u_poly(n + 1) + Y * u_poly(n - 1) == v_poly(n)
            total = -Y * total + v_poly(2 * n)
        assert total == u_poly(2 * n + 1) - (-Y) ** n
        assert 2 * u_poly(2 * n + 1) - X * u_poly(2 * n) == v_poly(2 * n)


def _lemma2_lines(n_max=12):
    return {r.name: r.line() for r in run_checks("lemma2", n_max) if not r.name.startswith("lemma2.shift")}


# Each check's line at n_max = 12 when one member reads as itself plus x^w, w its weight, a change inside its
# family: the lines that checking the identities by BivarPoly products gives.  The two even checks read no V_7.
_IN_FAMILY_LINES = {
    ("U", 7): ("fails at n = 6, 7", "fails at n = 6, 8", "fails at n = 3", "fails at n = 3"),
    ("V", 7): ("fails at n = 7", "fails at n = 7", None, None),
    ("V", 8): ("fails at n = 8", "fails at n = 8", "fails at n = 4, 5, 6, 7, 8", "fails at n = 4"),
}
_LEMMA2 = ("v-from-u-pair", "v-from-u-neighbors", "alternating-v-sum", "v-even-simple")
_PASSED = {"v-from-u-pair": "n = 0..12", "v-from-u-neighbors": "n = 1..12",
           "alternating-v-sum": "n = 0..12", "v-even-simple": "n = 0..12"}


@pytest.mark.parametrize("letter, index", list(_IN_FAMILY_LINES), ids=lambda v: str(v))
def test_lemma2_lists_where_a_wrong_member_fails(corrupt_member, letter, index):
    corrupt_member(letter, index, in_family=True)
    lines = _lemma2_lines()
    for name, detail in zip(_LEMMA2, _IN_FAMILY_LINES[letter, index]):
        status, detail = ("FAIL", detail) if detail else ("PASS", _PASSED[name])
        assert lines[f"lemma2.{name}"] == f"{status} lemma2.{name}: {detail}"


@pytest.mark.parametrize(
    "letter, index, error, readers",
    [
        ("V", 7, "V_7: monomial 1 lies outside the degree-7 canonical family", _LEMMA2[:2]),
        ("U", 7, "U_7: monomial 1 lies outside the degree-6 canonical family", _LEMMA2),
        ("U", 0, "U_0: reads 1, not 0", ("v-from-u-pair", "v-from-u-neighbors", "v-even-simple")),
    ],
    ids=["V7", "U7", "U0"],
)
def test_lemma2_names_a_member_outside_its_family(corrupt_member, letter, index, error, readers):
    # A term outside the member's family fails every check that reads the member with the error that names it;
    # the others pass.
    corrupt_member(letter, index)
    lines = _lemma2_lines()
    for name in _LEMMA2:
        expected = (f"FAIL lemma2.{name}: raised MalformedElement: {error}" if name in readers
                    else f"PASS lemma2.{name}: {_PASSED[name]}")
        assert lines[f"lemma2.{name}"] == expected


def test_lemma2_rejects_bad_bound():
    with pytest.raises(DomainError):
        run_checks("lemma2", 0)


def test_cache_extension_is_thread_safe():
    cache = SequenceCache(SequenceKind.FIBONACCI_U)
    threads = [threading.Thread(target=cache.__getitem__, args=(150,)) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(cache) == 151
    assert cache[0] == ZERO
    assert all(cache[n] == u_poly_closed(n) for n in range(1, 151))
