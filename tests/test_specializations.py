import random
from fractions import Fraction

import pytest

from bifib.coefficients import Family
from bifib.errors import DomainError
from bifib.poly import BivarPoly, ONE, X
from bifib.report import all_passed
from bifib.sequences import SequenceKind, u_poly, v_poly
from bifib.specializations import (
    CHEBYSHEV_T,
    CHEBYSHEV_U,
    SpecializationRule,
    check_parity,
    check_recurrence,
    check_transfer,
    chebyshev_t,
    chebyshev_u,
    evaluate_numbers,
)


def univariate(*coeffs):
    """Polynomial in x alone from (exponent, coefficient) pairs."""
    return BivarPoly({(e, 0): c for e, c in coeffs})


def chebyshev_by_recurrence(kind, n):
    """Independent dense-coefficient oracle for T_n and U_n."""
    prev, cur = [1], [0, 1] if kind == "T" else [0, 2]
    if n == 0:
        return [1]
    for _ in range(n - 1):
        doubled = [0] + [2 * c for c in cur]
        nxt = [a - b for a, b in zip(doubled, prev + [0] * (len(doubled) - len(prev)))]
        prev, cur = cur, nxt
    return cur


def from_dense(coeffs):
    return BivarPoly({(e, 0): c for e, c in enumerate(coeffs) if c})


# -- the Chebyshev constructions ---------------------------------------------------


def test_first_kind_seeds():
    assert chebyshev_t(0) == ONE
    assert chebyshev_t(1) == X


def test_second_kind_seeds():
    assert chebyshev_u(0) == ONE
    assert chebyshev_u(1) == univariate((1, 2))


@pytest.mark.parametrize("n", range(9))
def test_first_kind_matches_recurrence_oracle(n):
    assert chebyshev_t(n) == from_dense(chebyshev_by_recurrence("T", n))


@pytest.mark.parametrize("n", range(9))
def test_second_kind_matches_recurrence_oracle(n):
    assert chebyshev_u(n) == from_dense(chebyshev_by_recurrence("U", n))


def test_classic_values():
    assert chebyshev_t(2) == univariate((2, 2), (0, -1))
    assert chebyshev_t(3) == univariate((3, 4), (1, -3))
    assert chebyshev_u(2) == univariate((2, 4), (0, -1))


def test_coefficients_are_integral():
    for n in range(25):
        assert chebyshev_t(n).is_integral()
        assert chebyshev_u(n).is_integral()


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        chebyshev_t(-1)
    with pytest.raises(DomainError):
        chebyshev_u(-1)


def test_remark_checks_pass():
    assert all_passed(check_recurrence(kind, 40) for kind in "TU")


def test_parity():
    assert check_parity(40).passed


def test_rules_are_reusable():
    assert CHEBYSHEV_T.apply(v_poly(4)) == chebyshev_t(4)
    assert CHEBYSHEV_U.apply(u_poly(5)) == chebyshev_u(4)
    doubling = SpecializationRule("double-x", X * 2, BivarPoly.monomial(0, 1), Fraction(1))
    assert doubling.apply(X) == univariate((1, 2))


# -- identity transfer ----------------------------------------------------------------


def test_theorem_transfer_up_to_8():
    assert all_passed(check_transfer(family, 8) for family in Family)


@pytest.mark.parametrize(
    "family, letter, first",
    [(Family.A, "V", 5), (Family.B, "U", 4), (Family.C, "U", 4), (Family.D, "V", 4), (Family.E, "V", 5)],
)
def test_a_wrong_basis_member_fails_the_transfer_from_its_first_use(corrupt_member, family, letter, first):
    # Order ``first`` is the first whose identity gives W_7 a non-zero coordinate.
    corrupt_member(letter, 7)
    result = check_transfer(family, 12)
    assert not result.passed
    assert result.detail == (
        f"fails at (n, y image) = ({first}, 1), ({first}, -1), ({first + 1}, 1), ({first + 1}, -1), ({first + 2}, 1)"
    )


# -- integer evaluation -----------------------------------------------------------------


def test_fibonacci_numbers():
    assert evaluate_numbers(SequenceKind.FIBONACCI_U, 10, 1, 1) == 55


def test_lucas_seed():
    assert evaluate_numbers(SequenceKind.LUCAS_V, 0, 1, 1) == 2


def test_jacobsthal_numbers():
    def jacobsthal(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, b + 2 * a
        return a

    for n in range(12):
        assert evaluate_numbers(SequenceKind.FIBONACCI_U, n, 1, 2) == jacobsthal(n)
    assert evaluate_numbers(SequenceKind.FIBONACCI_U, 6, 1, 2) == 21


def test_matches_polynomial_evaluation():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(0, 12)
        x0, y0 = rng.randint(-4, 4), rng.randint(-4, 4)
        assert evaluate_numbers(SequenceKind.FIBONACCI_U, n, x0, y0) == u_poly(n).evaluate(x0, y0)
        assert evaluate_numbers(SequenceKind.LUCAS_V, n, x0, y0) == v_poly(n).evaluate(x0, y0)


def test_rejects_non_integer_points():
    with pytest.raises(TypeError):
        evaluate_numbers(SequenceKind.FIBONACCI_U, 3, Fraction(1, 2), 1)
    with pytest.raises(DomainError):
        evaluate_numbers(SequenceKind.FIBONACCI_U, -1, 1, 1)
