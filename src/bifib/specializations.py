"""Chebyshev images of the sequences and exact integer evaluation.

Substituting (x, y) -> (2x, -1) turns the shared recurrence
W_n = x W_{n-1} + y W_{n-2} into W_n = 2x W_{n-1} - W_{n-2}, the Chebyshev
recurrence.  Halving the V image gives the first-kind polynomials T_n
(seeds 1, x); the U image shifted by one index gives the second-kind
polynomials (seeds 1, 2x).  The second variable must map to -1, not +1:
with +1 the recurrence's minus sign is lost, which is exactly what
``check_recurrence`` pins down.

``univariate_images`` states that recurrence once, from the seeds in ``_SEEDS``:
the images of U and V under (x, y) -> (2x, y0), Chebyshev at y0 = -1
(U_i -> U_(i-1), V_i -> 2T_i), Pell and Pell-Lucas type at y0 = +1, built
without reading a bivariate member.  ``check_transfer`` checks each
decomposition identity on those images, and ``check_recurrence`` compares the
substituted bivariate members with them, which ties the two routes together.

``evaluate_numbers`` specialises the sequences at integer points instead:
(1, 1) yields the Fibonacci and Lucas numbers, (1, 2) the Jacobsthal-type
values, and so on.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .bases import BASES, BasisSpec, member_index
from .coefficients import FAMILIES, Family, closed_triangle
from .errors import DomainError
from .poly import X, BivarPoly, combine_columns
from .report import CheckResult, require_n_max
from .sequences import SequenceKind, u_poly, v_poly


def chebyshev_t(n: int) -> BivarPoly:
    """First-kind Chebyshev polynomial T_n as half the V_n image."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return v_poly(n).substitute(X * 2, -1).scale(Fraction(1, 2))


def chebyshev_u(n: int) -> BivarPoly:
    """Second-kind Chebyshev polynomial U_n as the image of U_{n+1}."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return u_poly(n + 1).substitute(X * 2, -1)


def evaluate_numbers(kind: SequenceKind, n: int, x0: int, y0: int) -> int:
    """Exact integer value of U_n or V_n at an integer point (x0, y0)."""
    if not isinstance(x0, int) or not isinstance(y0, int):
        raise TypeError("evaluation point must be a pair of integers")
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    previous, current = (seed.evaluate(x0, y0) for seed in kind.seeds())
    if n == 0:
        return previous
    for _ in range(n - 1):
        previous, current = current, x0 * current + y0 * previous
    return current


def check_recurrence(kind: str, n_max: int) -> CheckResult:
    """Chebyshev T_n or U_n (``kind`` "T" or "U") against the y0 = -1 images of ``univariate_images``, n = 0..n_max.

    2 T_n must equal the V image n and U_n the U image n + 1, exactly: the member is doubled, the image never halved.
    """
    require_n_max(n_max)
    member, letter, doubling, shift = (chebyshev_t, "V", 2, 0) if kind == "T" else (chebyshev_u, "U", 1, 1)
    images = univariate_images(letter, -1, n_max + 1 + shift)
    bad = [
        n
        for n in range(n_max + 1)
        if member(n).scale(doubling) != BivarPoly(((e, 0), c) for e, c in enumerate(images[n + shift]))
    ]
    return CheckResult.over(f"chebyshev.recurrence-{kind}", bad, f"seeds and recurrence, n = 0..{n_max}")


# The images of (U_0, U_1) and (V_0, V_1) under (x, y) -> (2x, y0), as coefficient lists in x.
_SEEDS = {"U": ((0,), (1,)), "V": ((2,), (0, 2))}


def univariate_images(letter: str, y0: int, count: int) -> list[list[int]]:
    """W_0..W_(count-1) of U or V under (x, y) -> (2x, y0) as dense coefficient lists in x,
    by W_i = 2x W_(i-1) + y0 W_(i-2) from the seeds, reading no bivariate member."""
    images = [list(seed) for seed in _SEEDS[letter]]
    while len(images) < count:
        images.append(list(map(add, [0, *(2 * c for c in images[-1])], [*(y0 * c for c in images[-2]), 0, 0])))
    return images


def check_transfer(family: Family, n_max: int) -> CheckResult:
    """The family's decomposition identity for the univariate images under (2x, 1) and (2x, -1).

    Row n states that the image of the target (doubled by the scheme's ``doubling``)
    equals sum_k c_k 2^(n-k) x^(n-k) W_(i_k), with the closed-form coefficients c_k and the
    images W_(i_k) of the basis members taken from ``univariate_images``.
    """
    require_n_max(n_max)
    scheme, closed = FAMILIES[family].scheme, closed_triangle(family, n_max)
    doubling = scheme.doubling
    letters = {scheme.kind, BASES[scheme.basis].letter}  # one letter for b and d
    images = {y0: {letter: univariate_images(letter, y0, 2 * n_max + 2) for letter in letters} for y0 in (1, -1)}
    bad = []
    for n in range(scheme.min_n, n_max + 1):
        letter, first = member_index(BasisSpec(scheme.basis, n), 0)
        row = closed.row(n)[: n + 1 - scheme.min_n]  # one coefficient per basis vector
        coeffs = [c << (n - k) for k, c in enumerate(row)]  # (2x)^(n-k): a scale by 2^(n-k) ...
        for y0, image in images.items():
            target = [doubling * c for c in image[scheme.kind][scheme.member(n)]]
            columns = [[0] * (n - k) + image[letter][first + k] for k in range(len(coeffs))]  # ... and a shift by n - k
            if combine_columns(columns, coeffs) != target:
                bad.append((n, y0))
    return CheckResult.over(
        f"chebyshev.transfer.{family.value}",
        bad,
        f"{scheme.description} under (2x, 1) and (2x, -1), n <= {n_max}",
        at="(n, y image)",
    )


def check_parity(n_max: int) -> CheckResult:
    """T_n contains only exponents with the parity of n."""
    require_n_max(n_max)
    bad = []
    for n in range(n_max + 1):
        for (a, b), _ in chebyshev_t(n).items():
            if b != 0 or (a - n) % 2 != 0:
                bad.append(n)
                break
    return CheckResult.over("chebyshev.parity", bad, f"n = 0..{n_max}")
