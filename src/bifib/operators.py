"""The five shift-operator families as rows of ints, and the checks that apply them to the sequences.

E sends a sequence (W_n) to (W_{n+1}), so an operator sum_k p_k E^k applied at index n evaluates
to sum_k p_k * W_{n+k}, its coefficients p_k in Q[x, y] commuting with E.  Every operator applied here is
homogeneous in x and E with no y term, so it is one row of ints, the coefficients of x^(m-k) E^k (below).
``check_shift_law`` packs coordinate vectors into ints (``poly.pack``): a Horner step is one subtraction and
(-y)^j a shift by j slots, and as entries at most double per row, ``slot_width`` slots keep unequal vectors
unequal; each level's prefix is compared with its expected ints as one list, and walked for the failing (j, m)
only when the two differ.  ``check_relation`` applies each order's row to the members as one
``poly.combine_columns``, unpacked: slots wide enough for its products c * (member entry) were slower at n = 400.

``family_orders`` yields the five operator families, defined by

    A_m = (x-E)^m + 2 sum_{k=1..m} E^k (x-E)^(m-k)        (m >= 0)
    B_m = -(E-x)^m                                        (m >= 0)
    C_m = 2 E^m + 2 B_m - x E^(m-1)                       (m >= 1)
    D_m = (E-x)^(m-1) (x-2E)                              (m >= 1)
    E_m = (x A_{m-1} + D_m) / 2 + E^m                     (m >= 1)

order by order, each from the one before, on one row of ints: F_m is homogeneous of degree m in x and E
with no y term, so entry k is its coefficient of x^(m-k) E^k and a row holds nothing else;
``build_family`` returns one order's row.  (x-E) F is [*row, 0] - [0, *row] and
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
from typing import Iterator

from .bases import BasisSpec, member_index
from .coefficients import FAMILIES, Family, closed_value
from .errors import DomainError, IntegralityViolation
from .poly import _var_string, combine_columns, pack
from .report import CheckResult, require_n_max
from .sequences import SequenceKind, read_members


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


def build_family(family: Family, m: int) -> list[int]:
    """The row of F_m, the last of ``family_orders``: entry k is its coefficient of x^(m-k) E^k."""
    start = FAMILIES[family].start_row
    if m < start:
        raise DomainError(f"operator family {family.value.upper()} needs m >= {start}, got {m}")
    return next(row for order, row in family_orders(family, m) if order == m)


def slot_width(members: list[list[int]], n_max: int) -> int:
    """Bits a slot of ``check_shift_law`` needs: the largest entry's bit length + n_max + 2, in whole bytes."""
    return (int(max(map(abs, chain.from_iterable(members)), default=0)).bit_length() + n_max + 2 + 7) // 8 * 8


def check_shift_law(kind: SequenceKind, n_max: int) -> CheckResult:
    """(x-E)^j at base m equals (-y)^j times member m-j, for 0 <= j <= m <= n_max, by Horner's rule on packed rows."""
    require_n_max(n_max)
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
    require_n_max(n_max)
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
