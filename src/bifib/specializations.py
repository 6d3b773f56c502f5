"""Chebyshev images of the sequences and exact integer evaluation.

Substituting (x, y) -> (2x, -1) turns the shared recurrence
W_n = x W_{n-1} + y W_{n-2} into W_n = 2x W_{n-1} - W_{n-2}, the Chebyshev
recurrence.  Halving the V image gives the first-kind polynomials T_n
(seeds 1, x); the U image shifted by one index gives the second-kind
polynomials (seeds 1, 2x).  The second variable must map to -1, not +1:
with +1 the recurrence's minus sign is lost, which is exactly what
``check_recurrence`` pins down.

``check_transfer`` confirms that a decomposition identity survives
substitution of the variables, checked here for both (2x, 1) and the
Chebyshev image (2x, -1): each side is substituted separately and the
results compared exactly.

``evaluate_numbers`` specialises the sequences at integer points instead:
(1, 1) yields the Fibonacci and Lucas numbers, (1, 2) the Jacobsthal-type
values, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bases import BasisSpec, combine, member_index
from .coefficients import SCHEMES, Family, closed_row
from .errors import DomainError
from .poly import ONE, X, BivarPoly, Rational, _power_table
from .report import CheckResult
from .sequences import SHARED_CACHES, SequenceKind, u_poly, v_poly


@dataclass(frozen=True)
class SpecializationRule:
    """A named substitution (x, y) -> (x_image, y_image) with a final scaling."""

    name: str
    x_image: BivarPoly
    y_image: BivarPoly
    post_scale: Rational

    def apply(self, poly: BivarPoly) -> BivarPoly:
        return poly.substitute(self.x_image, self.y_image).scale(self.post_scale)


CHEBYSHEV_T = SpecializationRule("chebyshev-T", X * 2, BivarPoly.constant(-1), Fraction(1, 2))
CHEBYSHEV_U = SpecializationRule("chebyshev-U", X * 2, BivarPoly.constant(-1), 1)


def chebyshev_t(n: int) -> BivarPoly:
    """First-kind Chebyshev polynomial T_n as half the V_n image."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return CHEBYSHEV_T.apply(v_poly(n))


def chebyshev_u(n: int) -> BivarPoly:
    """Second-kind Chebyshev polynomial U_n as the image of U_{n+1}."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return CHEBYSHEV_U.apply(u_poly(n + 1))


def evaluate_numbers(kind: SequenceKind, n: int, x0: int, y0: int) -> int:
    """Exact integer value of U_n or V_n at an integer point (x0, y0)."""
    if not isinstance(x0, int) or not isinstance(y0, int):
        raise TypeError("evaluation point must be a pair of integers")
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    previous, current = (0, 1) if kind is SequenceKind.FIBONACCI_U else (2, x0)
    if n == 0:
        return previous
    for _ in range(n - 1):
        previous, current = current, x0 * current + y0 * previous
    return current


def check_recurrence(kind: str, n_max: int) -> CheckResult:
    """Chebyshev T_n or U_n (``kind`` "T" or "U"): its seeds and recurrence, satisfied exactly."""
    member, seeds = (chebyshev_t, (ONE, X)) if kind == "T" else (chebyshev_u, (ONE, X * 2))
    values = [member(n) for n in range(n_max + 1)]
    bad = [
        n
        for n in range(n_max + 1)
        if values[n] != (seeds[n] if n < 2 else 2 * X * values[n - 1] - values[n - 2])
    ]
    return CheckResult.over(f"chebyshev.recurrence-{kind}", bad, f"seeds and recurrence, n = 0..{n_max}")


_TRANSFER_IMAGES = ((X * 2, 1), (X * 2, -1))


def check_transfer(family: Family, n_max: int) -> CheckResult:
    """The family's decomposition identity after substituting the variables.

    Both sides are substituted independently (the coefficients are scalars
    and stay put) and compared exactly under each image pair.  Substitution
    is a ring map, so basis vector x^(n-k) W_i maps to x_image^(n-k) times the
    image of W_i, and each member is substituted once per image pair.
    """
    scheme = SCHEMES[family]
    letter = member_index(BasisSpec(scheme.basis, n_max), 0)[0]
    members = [SHARED_CACHES[letter][i] for i in range(2 * n_max + 2)]
    images = [(x, y, _power_table(x, n_max), [w.substitute(x, y) for w in members]) for x, y in _TRANSFER_IMAGES]
    bad = []
    for n in range(scheme.min_n, n_max + 1):
        spec = BasisSpec(scheme.basis, n)
        coeffs = closed_row(family, n)
        target = scheme.target(n)
        for x_image, y_image, x_pows, member_images in images:
            vectors = [x_pows[n - k] * member_images[member_index(spec, k)[1]] for k in range(len(coeffs))]
            if target.substitute(x_image, y_image) != combine(coeffs, vectors):
                bad.append((n, y_image))
    return CheckResult.over(
        f"chebyshev.transfer.{family.value}",
        bad,
        f"{scheme.description} under (2x, 1) and (2x, -1), n <= {n_max}",
        at="(n, y image)",
    )


def check_parity(n_max: int) -> CheckResult:
    """T_n contains only exponents with the parity of n."""
    bad = []
    for n in range(n_max + 1):
        for (a, b), _ in chebyshev_t(n).items():
            if b != 0 or (a - n) % 2 != 0:
                bad.append(n)
                break
    return CheckResult.over("chebyshev.parity", bad, f"n = 0..{n_max}")
