"""The bivariate Fibonacci (U) and Lucas (V) polynomial sequences.

Both satisfy W_n = x*W_{n-1} + y*W_{n-2}; U starts 0, 1 and V starts 2, x.
``u_poly``/``v_poly`` extend shared memo caches by that recurrence, while
``u_poly_closed``/``v_poly_closed`` assemble the same polynomials term by
term from binomial coefficients, giving an independent construction the two
routes are tested against.

The ``check_*`` functions verify, by exact polynomial arithmetic, the
inter-sequence identities that the decomposition machinery leans on:

    V_n = 2*U_{n+1} - x*U_n                        (n >= 0)
    V_n = U_{n+1} + y*U_{n-1}                      (n >= 1)
    sum_{k=1..n} (-y)^(n-k) V_{2k} = U_{2n+1} - (-y)^n    (n >= 0)
    V_{2n} = 2*U_{2n+1} - x*U_{2n}                 (n >= 0)
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import DomainError, IntegralityViolation
from .poly import ONE, X, Y, ZERO, BivarPoly, sum_of_products
from .report import CheckResult


class SequenceKind(Enum):
    FIBONACCI_U = "U"
    LUCAS_V = "V"

    def seeds(self) -> tuple[BivarPoly, BivarPoly]:
        if self is SequenceKind.FIBONACCI_U:
            return ZERO, ONE
        return BivarPoly.constant(2), X


class SequenceCache:
    """Append-only list of sequence members, extended on demand.

    Safe to share across threads: extension runs under a lock, so each member
    is appended once and in order, while reading an already computed index
    takes no lock.
    """

    def __init__(self, kind: SequenceKind):
        self.kind = kind
        self._values: list[BivarPoly] = list(kind.seeds())
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> BivarPoly:
        if n < 0:
            raise DomainError(f"sequence index must be >= 0, got {n}")
        values = self._values
        if n < len(values):
            return values[n]
        with self._lock:
            while len(values) <= n:
                values.append(sum_of_products(((X, values[-1]), (Y, values[-2]))))
        return values[n]


# One process-wide cache per sequence, keyed by its letter, read by u_poly, v_poly and the identity checks.
SHARED_CACHES = {kind.value: SequenceCache(kind) for kind in SequenceKind}


def u_poly(n: int) -> BivarPoly:
    """U_n by the recurrence, memoised across calls."""
    return SHARED_CACHES["U"][n]


def v_poly(n: int) -> BivarPoly:
    """V_n by the recurrence, memoised across calls."""
    return SHARED_CACHES["V"][n]


def u_poly_closed(n: int) -> BivarPoly:
    """U_n built directly as sum_k C(n-1-k, k) x^(n-1-2k) y^k, for n >= 1."""
    if n < 1:
        raise DomainError(f"closed form for U is defined for n >= 1, got {n}")
    m = n - 1
    return BivarPoly({(m - 2 * k, k): comb(m - k, k) for k in range(m // 2 + 1)})


def v_poly_closed(n: int) -> BivarPoly:
    """V_n built directly as sum_k (n/(n-k)) C(n-k, k) x^(n-2k) y^k, for n >= 1.

    The weight n/(n-k) is a 0/0 shape at n = 0, so the seed V_0 = 2 is only
    available through ``v_poly``.  Every produced coefficient is checked to
    be an integer.
    """
    if n < 1:
        raise DomainError(f"closed form for V is defined for n >= 1, got {n}")
    terms = {}
    for k in range(n // 2 + 1):
        coeff = Fraction(n, n - k) * comb(n - k, k)
        if coeff.denominator != 1:
            raise IntegralityViolation(f"V_{n} closed-form coefficient {coeff} at k={k}")
        terms[(n - 2 * k, k)] = coeff.numerator
    return BivarPoly(terms)


def check_v_from_u_pair(n_max: int) -> CheckResult:
    """V_n == 2*U_{n+1} - x*U_n for 0 <= n <= n_max."""
    bad = [n for n in range(n_max + 1) if v_poly(n) != 2 * u_poly(n + 1) - X * u_poly(n)]
    return CheckResult.over("lemma2.v-from-u-pair", bad, f"n = 0..{n_max}")


def check_v_from_u_neighbors(n_max: int) -> CheckResult:
    """V_n == U_{n+1} + y*U_{n-1} for 1 <= n <= n_max."""
    bad = [n for n in range(1, n_max + 1) if v_poly(n) != u_poly(n + 1) + Y * u_poly(n - 1)]
    return CheckResult.over("lemma2.v-from-u-neighbors", bad, f"n = 1..{n_max}")


def check_alternating_v_sum(n_max: int) -> CheckResult:
    """sum_{k=1..n} (-y)^(n-k) V_{2k} == U_{2n+1} - (-y)^n for 0 <= n <= n_max."""
    minus_y = -Y
    total = ZERO
    sign_pow = ONE
    bad = []
    for n in range(n_max + 1):
        if n > 0:
            total = minus_y * total + v_poly(2 * n)
            sign_pow = sign_pow * minus_y
        if total != u_poly(2 * n + 1) - sign_pow:
            bad.append(n)
    return CheckResult.over("lemma2.alternating-v-sum", bad, f"n = 0..{n_max}")


def check_v_even_simple(n_max: int) -> CheckResult:
    """V_{2n} == 2*U_{2n+1} - x*U_{2n} for 0 <= n <= n_max."""
    bad = [
        n
        for n in range(n_max + 1)
        if v_poly(2 * n) != 2 * u_poly(2 * n + 1) - X * u_poly(2 * n)
    ]
    return CheckResult.over("lemma2.v-even-simple", bad, f"n = 0..{n_max}")

