"""The bivariate Fibonacci (U) and Lucas (V) polynomial sequences.

Both satisfy W_n = x*W_{n-1} + y*W_{n-2}; U starts 0, 1 and V starts 2, x.
``u_poly``/``v_poly`` extend shared memo caches by that recurrence, while
``u_poly_closed``/``v_poly_closed`` assemble the same polynomials term by
term from binomial coefficients, giving an independent construction the two
routes are tested against.

Every member is weight homogeneous: ``member_coordinates`` reads it over the
canonical family of its weight, and ``read_members`` reads a range of members
for the coordinate checks.  The ``check_*`` functions verify, entry by entry (x
keeps a coordinate in place, y moves it up one), the identities the bases use:

    V_n = 2*U_{n+1} - x*U_n                        (n >= 0)
    V_n = U_{n+1} + y*U_{n-1}                      (n >= 1)
    sum_{k=1..n} (-y)^(n-k) V_{2k} = U_{2n+1} - (-y)^n    (n >= 0)
    V_{2n} = 2*U_{2n+1} - x*U_{2n}                 (n >= 0)
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import comb

from .errors import DomainError, IntegralityViolation, MalformedElement
from .poly import ONE, X, Y, ZERO, BivarPoly, Rational, sum_of_products
from .report import CheckResult, require_n_max


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


def member_weight(letter: str, index: int) -> int:
    """The canonical degree spanned by U_index or V_index, the one weight rule: U_i has weight i - 1, V_i weight i."""
    return index - 1 if letter == "U" else index


def member_of_weight(letter: str, weight: int) -> int:
    """The index of the U or V member (``letter``) spanning canonical degree ``weight``, ``member_weight``'s inverse."""
    return weight + 1 if letter == "U" else weight


def member_coordinates(letter: str, index: int) -> list[Rational]:
    """The canonical coordinates of U_index or V_index, read through its sequence cache; U_0 reads as [].

    A member with a term outside its family raises MalformedElement led by its name ("U_8: monomial 1 ...").
    """
    member, weight = SHARED_CACHES[letter][index], member_weight(letter, index)
    try:
        if weight < 0 and member:  # U_0 spans the empty family of weight -1
            raise MalformedElement(f"reads {member}, not 0")
        return member.canonical_coordinates(weight) if weight >= 0 else []
    except MalformedElement as exc:
        raise MalformedElement(f"{letter}_{index}: {exc}") from None


def read_members(letter: str, indices: range) -> list[list[Rational]]:
    """The canonical coordinates of U_i or V_i (``letter``) for each i in ``indices``, each read once."""
    return [member_coordinates(letter, index) for index in indices]


def _v_from_u_pair_misses(n_max: int, step: int) -> list[int]:
    """The n <= n_max with V_(sn) != 2 U_(sn+1) - x U_(sn), s the step; U_i, short by one at even i, reads 0 past it."""
    u, v = read_members("U", range(step * n_max + 2)), read_members("V", range(0, step * n_max + 1, step))
    return [n for n, coords in enumerate(v)
            if coords != [2 * a - b for a, b in zip_longest(u[step * n + 1], u[step * n], fillvalue=0)]]


def check_v_from_u_pair(n_max: int) -> CheckResult:
    """V_n == 2*U_{n+1} - x*U_n for 0 <= n <= n_max."""
    require_n_max(n_max)
    return CheckResult.over("lemma2.v-from-u-pair", _v_from_u_pair_misses(n_max, 1), f"n = 0..{n_max}")


def check_v_from_u_neighbors(n_max: int) -> CheckResult:
    """V_n == U_{n+1} + y*U_{n-1} for 1 <= n <= n_max."""
    require_n_max(n_max)
    u, v = read_members("U", range(n_max + 2)), read_members("V", range(1, n_max + 1))
    bad = [n for n, coords in enumerate(v, 1) if coords != [a + b for a, b in zip(u[n + 1], [0, *u[n - 1]])]]
    return CheckResult.over("lemma2.v-from-u-neighbors", bad, f"n = 1..{n_max}")


def check_alternating_v_sum(n_max: int) -> CheckResult:
    """sum_{k=1..n} (-y)^(n-k) V_{2k} == U_{2n+1} - (-y)^n for 0 <= n <= n_max."""
    require_n_max(n_max)
    u, v = read_members("U", range(1, 2 * n_max + 2, 2)), read_members("V", range(2, 2 * n_max + 1, 2))
    # T_n = V_2n - y T_(n-1) from the empty sum T_0, of weight 0; entry n of U_(2n+1) is its y^n coefficient
    totals = accumulate(v, lambda total, v_2n: [a - b for a, b in zip(v_2n, [0, *total])], initial=[0])
    bad = [n for n, (total, u_2n1) in enumerate(zip(totals, u)) if total != [*u_2n1[:n], u_2n1[n] - (-1) ** n]]
    return CheckResult.over("lemma2.alternating-v-sum", bad, f"n = 0..{n_max}")


def check_v_even_simple(n_max: int) -> CheckResult:
    """V_{2n} == 2*U_{2n+1} - x*U_{2n} for 0 <= n <= n_max."""
    require_n_max(n_max)
    return CheckResult.over("lemma2.v-even-simple", _v_from_u_pair_misses(n_max, 2), f"n = 0..{n_max}")
