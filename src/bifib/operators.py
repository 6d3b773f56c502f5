"""Polynomials in the forward shift operator E with bivariate coefficients.

E sends a sequence (W_n) to (W_{n+1}), so an operator sum_k p_k E^k applied at index n evaluates
to sum_k p_k * W_{n+k}.  Coefficients live in Q[x, y] and commute with E, making the operator ring
a plain commutative polynomial ring over the coefficient ring.  An operator holds one non-zero BivarPoly per
power of E, {k: p_k}: sums go power by power, and a product groups the coefficient pairs by k1 + k2 and calls
``poly.sum_of_products`` once per power, as ``apply`` does for its one sum.  The families below are built on
int rows, and products are the tests' reference for them.  ``check_shift_law`` packs coordinate vectors into ints (``poly.pack``):
a Horner step is one subtraction and (-y)^j a shift by j slots, and as entries at most double per row,
``slot_width`` slots keep unequal vectors unequal; each level's prefix is compared with its expected ints as one
list, and walked for the failing (j, m) only when the two differ.  ``check_relation`` applies each order's row to
the members as one ``poly.combine_columns``, unpacked: slots wide enough for its products c * (member entry) were
slower at n = 400.

``family_orders`` yields the five operator families, defined by

    A_m = (x-E)^m + 2 sum_{k=1..m} E^k (x-E)^(m-k)        (m >= 0)
    B_m = -(E-x)^m                                        (m >= 0)
    C_m = 2 E^m + 2 B_m - x E^(m-1)                       (m >= 1)
    D_m = (E-x)^(m-1) (x-2E)                              (m >= 1)
    E_m = (x A_{m-1} + D_m) / 2 + E^m                     (m >= 1)

order by order, each from the one before, on one row of ints: F_m is homogeneous of degree m in x and E
with no y term, so entry k is its coefficient of x^(m-k) E^k and a row holds nothing else; only
``build_family`` wraps a row, the last, as an ``OperatorPoly``.  (x-E) F is [*row, 0] - [0, *row] and
(E-x) F its negation, so A_m = (x-E) A_{m-1} + 2 E^m from A_0 = 1 (Horner's rule for the defining sum),
B_m = (E-x) B_{m-1} from B_0 = -1 and D_m = (E-x) D_{m-1} from D_1 = x - 2E.  C_m is summed from B_m's
row, and E_m halves the row of x A_{m-1} + D_m with ``divmod`` before adding E^m.  Expanded, family F_m
equals sum_k f(m,k) x^(m-k) E^k with f the matching integer triangle from ``coefficients``; C_m and E_m
have zero coefficient at k = m.  Applied at the right base index the families annihilate or double-step
the two sequences:

    A_n at V, base n     -> 2 U_{2n+1}        (n >= 0)
    B_n at U, base n     -> 0                 (n >= 0)
    C_n at U, base n     -> V_{2n-1}          (n >= 1)
    D_n at V, base n-1   -> 0                 (n >= 1)
    E_n at V, base n-1   -> 2 U_{2n}          (n >= 1)

and (x-E)^j applied at base m multiplies by (-y)^j while stepping the index
back j places (the shift law checked by ``check_shift_law``).
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from operator import add, lshift, sub
from typing import Iterable, Iterator, Mapping

from .bases import BasisSpec, member_index
from .coefficients import FAMILIES, Family, closed_value
from .errors import DomainError, IntegralityViolation
from .poly import ONE, ZERO, BivarPoly, Rational, _power, _var_string, combine_columns, pack, sum_of_products
from .report import CheckResult
from .sequences import SequenceCache, SequenceKind, read_members


class OperatorPoly:
    """Immutable finite sum of powers of E with BivarPoly coefficients, stored as {power: non-zero BivarPoly}."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, BivarPoly] = {}
        for power, value in items:
            if not isinstance(power, int) or power < 0:
                raise ValueError(f"shift power must be a non-negative integer, got {power!r}")
            acc[power] = acc.get(power, ZERO) + (value if isinstance(value, BivarPoly) else BivarPoly.constant(value))
        self._coeffs = {k: p for k, p in acc.items() if p}

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> OperatorPoly:
        return cls({0: ONE})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, BivarPoly]]:
        return iter(sorted(self._coeffs.items()))

    def coefficient(self, power: int) -> BivarPoly:
        return self._coeffs.get(power, ZERO)

    def shift_powers(self) -> list[int]:
        return sorted(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    # -- ring operations ---------------------------------------------------

    def _plus(self, other: OperatorPoly, sign: int) -> OperatorPoly:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return OperatorPoly([*self._coeffs.items(), *((k, q * sign) for k, q in other._coeffs.items())])

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        return self._plus(other, 1)

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly({k: -p for k, p in self._coeffs.items()})

    def __sub__(self, other: OperatorPoly) -> OperatorPoly:
        return self._plus(other, -1)

    def __mul__(self, other: OperatorPoly | BivarPoly | Rational) -> OperatorPoly:
        if not isinstance(other, OperatorPoly):
            other = OperatorPoly({0: other})  # a scalar or a BivarPoly, as the E^0 operator it is
        groups: dict[int, list[tuple[BivarPoly, BivarPoly]]] = {}
        for k1, p in self._coeffs.items():
            for k2, q in other._coeffs.items():
                groups.setdefault(k1 + k2, []).append((p, q))
        return OperatorPoly({k: sum_of_products(pairs) for k, pairs in groups.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> OperatorPoly:
        return _power(self, exponent, OperatorPoly.identity())

    # -- action on sequences -------------------------------------------------

    def apply(self, seq: SequenceCache, base: int) -> BivarPoly:
        """Evaluate sum_k p_k * seq[base + k]."""
        if base < 0:
            raise DomainError(f"base index must be >= 0, got {base}")
        return sum_of_products((poly, seq[base + power]) for power, poly in self.items())

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        return " + ".join(f"({poly})·E^{k}" for k, poly in self.items()) or "0"

    def __repr__(self) -> str:
        return f"OperatorPoly({str(self)!r})"


def _x_minus_e(row: list[int], top: int) -> list[int]:
    """The row of (x-E) F + top E^(m+1) from the row of an order-m F: x keeps entry k at k, E moves it to k + 1."""
    return list(map(sub, [*row, top], [0, *row]))


def _e_minus_x(row: list[int], _: object = None) -> list[int]:
    """The row of (E-x) F, the (x-E) step negated."""
    return list(map(sub, [0, *row], [*row, 0]))


def _e_row(a_row: list[int], d_row: list[int], m: int) -> list[int]:
    """The row of E_m = (x A_(m-1) + D_m) / 2 + E^m, halved in ints; an odd entry raises IntegralityViolation."""
    row = []
    for k, total in enumerate(map(add, [*a_row, 0], d_row)):
        half, odd = divmod(total, 2)
        if odd:
            raise IntegralityViolation(f"order {m}, E^{k}: monomial {_var_string(m - k, 0) or '1'} "
                                       f"has the odd coefficient {total}")
        row.append(half)
    row[m] += 1
    return row


def family_orders(family: Family, m_max: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (m, row of F_m) for m from the family's ``start_row`` to m_max, each row built from the one before."""
    a = accumulate(repeat(2), _x_minus_e, initial=[1])
    b = accumulate(repeat(None), _e_minus_x, initial=[-1])
    d = accumulate(repeat(None), _e_minus_x, initial=[1, -2])
    rows = {
        Family.A: a, Family.B: b, Family.D: d,
        Family.C: ([*(2 * c for c in b_m[:-2]), 2 * b_m[-2] - 1, 2 * b_m[-1] + 2] for b_m in islice(b, 1, None)),
        Family.E: (_e_row(a_m, d_m, m) for m, (a_m, d_m) in enumerate(zip(a, d), 1)),
    }[family]
    return zip(range(FAMILIES[family].start_row, m_max + 1), rows)


def build_family(family: Family, m: int) -> OperatorPoly:
    """Construct one of the five operator families, fully expanded: the last row of ``family_orders``, wrapped."""
    start = FAMILIES[family].start_row
    if m < start:
        raise DomainError(f"operator family {family.value.upper()} needs m >= {start}, got {m}")
    row = next(row for order, row in family_orders(family, m) if order == m)
    return OperatorPoly({k: BivarPoly.monomial(m - k, 0, c) for k, c in enumerate(row)})


def slot_width(members: list[list[int]], n_max: int) -> int:
    """Bits a slot of ``check_shift_law`` needs: the largest entry's bit length + n_max + 2, in whole bytes."""
    return (int(max(map(abs, chain.from_iterable(members)), default=0)).bit_length() + n_max + 2 + 7) // 8 * 8


def check_shift_law(kind: SequenceKind, n_max: int) -> CheckResult:
    """(x-E)^j at base m equals (-y)^j times member m-j, for 0 <= j <= m <= n_max, by Horner's rule on packed rows."""
    members = read_members(kind.value, range(2 * n_max + 1))
    width = slot_width(members, n_max)
    packed = row = [pack(coords, width) for coords in members]  # row[i] = P_j(j + i) = ((x-E)^j W)_(j+i)
    signed = (packed, [-p for p in packed])  # (-y)^j's sign, by the parity of j
    bad = []
    for j in range(n_max + 1):
        expected = list(map(lshift, signed[j % 2][: n_max - j + 1], repeat(width * j)))
        if row[: len(expected)] != expected:
            bad.extend((j, j + i) for i, (got, want) in enumerate(zip(row, expected)) if got != want)
        row = list(map(sub, row[1:], row[2:]))  # P_j(m) = x P_(j-1)(m) - P_(j-1)(m+1)
    return CheckResult.over(f"lemma2.shift-{kind.value.lower()}", bad, f"0 <= j <= m <= {n_max}", at="(j, m)")


def check_relation(family: Family, n_max: int) -> CheckResult:
    """Verify one operator relation by exact application for every order.

    The order-n operator's row acts on the sequence of vector 0 of the family's order-n basis (its scheme's, in
    ``coefficients.FAMILIES``), based at that member's index: entry k weighs the coordinates of member base + k,
    and as x^(n-k) keeps a canonical coordinate's place, the image is one ``combine_columns`` over the members.
    """
    facts = FAMILIES[family]
    scheme, annihilates, start = facts.scheme, facts.annihilates, facts.start_row
    letter, top = member_index(BasisSpec(scheme.basis, n_max), n_max)  # the last member read
    members = read_members(letter, range(top + 1))
    bad = []
    for (n, row), target in zip(family_orders(family, n_max), scheme.targets(start, n_max)):
        base = member_index(BasisSpec(scheme.basis, n), 0)[1]
        if combine_columns(members[base: base + len(row)], row) != ([0] * len(target) if annihilates else target) or (
                annihilates and row[n] != closed_value(family, n, n)):  # a zero image hides the operator's sign
            bad.append(n)
    return CheckResult.over(f"relations.{family.value}", bad, f"n = {start}..{n_max}")
