import random
from fractions import Fraction

import pytest

from bifib import bases, specializations
from bifib.bases import BasisFamily, BasisSpec
from bifib.coefficients import FAMILIES, Family
from bifib.errors import DomainError
from bifib.poly import BivarPoly, ONE, X
from bifib.report import all_passed, run_checks
from bifib.sequences import SHARED_CACHES, SequenceCache, SequenceKind, u_poly, v_poly
from bifib.specializations import (
    check_parity,
    check_recurrence,
    check_transfer,
    chebyshev_t,
    chebyshev_u,
    evaluate_numbers,
    univariate_images,
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
        assert all(isinstance(c, int) for _, c in (*chebyshev_t(n).items(), *chebyshev_u(n).items()))


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        chebyshev_t(-1)
    with pytest.raises(DomainError):
        chebyshev_u(-1)


def test_remark_checks_pass():
    assert all_passed(check_recurrence(kind, 40) for kind in "TU")


def test_parity():
    assert check_parity(40).passed


def test_a_flipped_y0_sign_in_the_images_fails_the_recurrence_checks(monkeypatch):
    # with y0 = +1 in place of -1 the images lose the recurrence's minus sign: 2 T_2 = 4x^2 - 2 against the V image
    # 4x^2 + 2, U_2 = 4x^2 - 1 against the U image 4x^2 + 1.  The transfers run at both signs, so they still pass.
    images = univariate_images
    monkeypatch.setattr(specializations, "univariate_images", lambda letter, y0, count: images(letter, -y0, count))
    results = {result.name: result for result, _ in run_checks("chebyshev", 12)}
    assert len(results) == 8
    assert {name for name, result in results.items() if not result.passed} == {
        "chebyshev.recurrence-T",
        "chebyshev.recurrence-U",
    }
    assert results["chebyshev.recurrence-T"].detail == "fails at n = 2, 3, 4, 5, 6"
    assert results["chebyshev.recurrence-U"].detail == "fails at n = 2, 3, 4, 5, 6"


# -- identity transfer ----------------------------------------------------------------


def test_theorem_transfer_up_to_8():
    assert all_passed(check_transfer(family, 8) for family in Family)


@pytest.mark.parametrize("y0", [1, -1], ids=["pell", "chebyshev"])
@pytest.mark.parametrize("letter", ["U", "V"])
def test_univariate_images_are_the_substituted_members(letter, y0):
    images = univariate_images(letter, y0, 41)
    assert len(images) == 41
    for i, image in enumerate(images):
        assert from_dense(image) == SHARED_CACHES[letter][i].substitute(X * 2, y0), (letter, y0, i)
        assert len(image) == (max(i, 1) if letter == "U" else i + 1)  # no trailing zero
        if y0 == -1:
            chebyshev = chebyshev_t(i).scale(2) if letter == "V" else chebyshev_u(i - 1) if i else BivarPoly()
            assert from_dense(image) == chebyshev, (letter, i)


@pytest.mark.parametrize("family", list(Family))
def test_a_wrong_closed_coefficient_fails_the_transfer_at_its_row(monkeypatch, family):
    closed = FAMILIES[family].closed
    planted = FAMILIES[family]._replace(closed=lambda n, k: closed(n, k) + ((n, k) == (7, 0)))
    monkeypatch.setitem(FAMILIES, family, planted)
    assert check_transfer(family, 12).detail == "fails at (n, y image) = (7, 1), (7, -1)"


def test_the_transfer_reads_no_bivariate_member(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the transfer read a bivariate member")

    monkeypatch.setattr(BivarPoly, "substitute", forbidden)
    monkeypatch.setattr(bases, "build_basis", forbidden)
    monkeypatch.setattr(SequenceCache, "__getitem__", forbidden)
    with pytest.raises(AssertionError, match="bivariate member"):
        SHARED_CACHES["U"][3]
    with pytest.raises(AssertionError, match="bivariate member"):
        bases.build_basis(BasisSpec(BasisFamily.BV, 2))
    for family in Family:
        assert check_transfer(family, 30).passed, family


def test_the_transfer_builds_only_the_images_it_reads(monkeypatch):
    # the target's letter and the basis's, once per y0: b (U over BUstar) and d (V over BVstar) need one
    images, built = univariate_images, []
    monkeypatch.setattr(specializations, "univariate_images", lambda *args: built.append(args[:2]) or images(*args))
    for family, letters in zip(Family, ["UV", "U", "UV", "V", "UV"]):
        built.clear()
        assert check_transfer(family, 6).passed, family
        assert sorted(built) == sorted((letter, y0) for letter in letters for y0 in (1, -1)), family


@pytest.mark.parametrize("in_family", [False, True], ids=["plus-one", "in-family"])
@pytest.mark.parametrize(
    "family, letter",
    [pytest.param(family, letter, id=family.value) for family, letter in zip(Family, "VUUVV")],
)
def test_a_wrong_member_fails_the_recurrence_not_the_transfer(corrupt_member, family, letter, in_family):
    # W_7 of the letter the family's basis is built from.  V_7 is T_7's image and U_7 is
    # U_6's: the recurrence compares each member with its own univariate image, so it fails
    # at that index alone.  The transfer reads no bivariate member, so it still passes.
    corrupt_member(letter, 7, in_family)
    kind, first = ("T", 7) if letter == "V" else ("U", 6)
    assert check_recurrence(kind, 12).detail == f"fails at n = {first}"
    assert check_recurrence("U" if kind == "T" else "T", 12).passed
    assert check_transfer(family, 12).passed


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
