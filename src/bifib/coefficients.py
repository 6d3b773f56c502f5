"""The five integer coefficient families a, b, c, d, e.

Each family gives the coordinates of a doubled-index sequence member over
one of the four sequence bases:

    a:  2*U_{2n+1} = sum_{k=0..n}   a(n,k) x^(n-k) V_{n+k}      (n >= 0)
    b:    U_{2n}   = sum_{k=0..n-1} b(n,k) x^(n-k) U_{n+k}      (n >= 1)
    c:    V_{2n-1} = sum_{k=0..n-1} c(n,k) x^(n-k) U_{n+k}      (n >= 1)
    d:  2*V_{2n-1} = sum_{k=0..n-1} d(n,k) x^(n-k) V_{n+k-1}    (n >= 1)
    e:  2*U_{2n}   = sum_{k=0..n-1} e(n,k) x^(n-k) V_{n+k-1}    (n >= 1)

Closed forms (delta is the Kronecker symbol):

    a(n,k) = (-1)^(k+1) C(n,k) + 2 (-1)^(n-k) sum_{j=0..n} (-1)^j C(j, n-k)
    b(n,k) = (-1)^(n-k+1) C(n,k)
    c(n,k) = 2 (-1)^(n-k+1) C(n,k) - delta(n-1,k)
    d(n,k) = (-1)^(n-k+1) (n+k)/n C(n,k)
    e(n,k) = (a(n-1,k) + d(n,k)) / 2 + delta(n,k)

Every family also satisfies a Pascal-like two-term row recurrence: after the
seed row, row n follows from row n-1 by the rule on the right, reading 0 before
and after row n-1; the column-0 values shown follow from it (e's reads a's rows):

    a(0,.) = (1)       a(n,0) = 1              a(n,k) = a(n-1,k) - a(n-1,k-1) + 2 delta(k,n)
    b(0,.) = (-1)      b(n,0) = (-1)^(n+1)     b(n,k) = -b(n-1,k) + b(n-1,k-1)
    c(1,.) = (1, -2)   c(n,0) = 2 (-1)^(n+1)   c(n,k) = -c(n-1,k) + c(n-1,k-1) - delta(n,k+2)
    d(1,.) = (1, -2)   d(n,0) = (-1)^(n+1)     d(n,k) = -d(n-1,k) + d(n-1,k-1)
    e(1,.) = (1)       e(n,0) = n mod 2        e(n,k) = -e(n-1,k) + e(n-1,k-1) + a(n-1,k)

The triangles can thus be generated three independent ways, the ``METHODS``
(closed form, recurrence, and the exact linear-solve oracle of ``bases`` on the
targets of ``DecompositionScheme``), which ``cross_check`` compares entry by
entry.  Each family's facts are one ``FamilyFacts`` record in ``FAMILIES``.

Rows of the b, c and d triangles carry a final k = n entry (for example
c(1,1) = -2).  Those values feed the recurrences and the operator
expansions but are not part of the decomposition sums above, which stop at
k = n-1.  The e family has e(n,n) = 0 by construction and its rows stop at
k = n-1.  Text renderings are tab-separated integers, one row per line.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

from .bases import BASES, BasisFamily, BasisSpec, _checked_solve, member_window
from .errors import DomainError, IntegralityViolation
from .report import CheckResult, require_n_max
from .sequences import member_of_weight, member_weight, read_members


class Family(Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    E = "e"


@lru_cache(maxsize=2)
def _alternating_sums(n: int) -> tuple[int, ...]:
    """(T(n), ..., T(0)) for T(m) = sum_{j=0..n} (-1)^j C(j, m), by T(m) = -2 T(m+1) + (-1)^n C(n+1, m+1)."""
    sums = [(-1) ** n]
    for m in range(n - 1, -1, -1):
        sums.append(-2 * sums[-1] + sums[0] * comb(n + 1, m + 1))
    return tuple(sums)


def a_closed(n: int, k: int) -> int:
    return (-1) ** (k + 1) * comb(n, k) + 2 * (-1) ** (n - k) * _alternating_sums(n)[k]


def b_closed(n: int, k: int) -> int:
    return (-1) ** (n - k + 1) * comb(n, k)


def c_closed(n: int, k: int) -> int:
    return 2 * (-1) ** (n - k + 1) * comb(n, k) - (1 if n - 1 == k else 0)


def d_closed(n: int, k: int) -> int:
    numerator = (n + k) * comb(n, k)
    value, remainder = divmod(numerator, n)
    if remainder:
        raise IntegralityViolation(f"d({n},{k}) evaluated to {Fraction(numerator, n)}")
    return (-1) ** (n - k + 1) * value


def e_closed(n: int, k: int) -> int:
    # The k = n coefficient is 0 by construction (the half-sum contributes -1
    # and the Kronecker term +1), so rows stop at k = n-1 and the delta term
    # never fires in-domain.
    total = a_closed(n - 1, k) + d_closed(n, k)
    half, odd = divmod(total, 2)
    if odd:
        raise IntegralityViolation(f"e({n},{k}) evaluated to {Fraction(total, 2)}")
    return half


def closed_value(family: Family, n: int, k: int) -> int:
    """Entry (n, k) of the family's triangle by its closed form, the closed forms' one domain check: IndexError
    outside the triangle, whose row n >= ``start_row`` holds k = 0..``row_length(n)`` - 1."""
    facts = FAMILIES[family]
    if not (n >= facts.start_row and 0 <= k < facts.row_length(n)):
        raise IndexError(f"({n}, {k}) outside the domain of family {family.value}")
    return facts.closed(n, k)


class CoeffTriangle(NamedTuple):
    """Integer triangle rows with the method that produced them."""

    family: Family
    method: str
    start_row: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def n_max(self) -> int:
        return self.start_row + len(self.rows) - 1

    def row(self, n: int) -> tuple[int, ...]:
        if not self.start_row <= n <= self.n_max:
            raise IndexError(f"row {n} not in triangle (rows {self.start_row}..{self.n_max})")
        return self.rows[n - self.start_row]

    def to_text(self) -> str:
        return "\n".join("\t".join(str(v) for v in row) for row in self.rows)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.rows)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "family": self.family.value,
            "method": self.method,
            "start_row": self.start_row,
            "rows": [[str(v) for v in row] for row in self.rows],
        }

    def to_latex(self) -> str:
        width = max(len(row) for row in self.rows)
        lines = [
            "\\begin{tabular}{r|" + "r" * width + "}",
            "$n \\setminus k$ & " + " & ".join(f"${k}$" for k in range(width)) + " \\\\",
            "\\hline",
        ]
        for offset, row in enumerate(self.rows):
            cells = [f"${v}$" for v in row] + [""] * (width - len(row))
            lines.append(f"${self.start_row + offset}$ & " + " & ".join(cells) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)


def first_row(family: Family, method: str) -> int:
    """The first row of the family's triangle by ``method``: its scheme's ``min_n`` for the oracle, else ``start_row``."""
    facts = FAMILIES[family]
    return facts.scheme.min_n if method == "oracle" else facts.start_row


def _row_range(family: Family, n_max: int, method: str) -> range:
    """Rows ``first_row``..n_max of the family's triangle by ``method``; IndexError when n_max is below them."""
    start = first_row(family, method)
    if n_max < start:
        raise IndexError(f"n_max {n_max} below first row {start} of family {family.value}")
    return range(start, n_max + 1)


def closed_triangle(family: Family, n_max: int) -> CoeffTriangle:
    """Rows built value by value from the closed form."""
    numbers, facts = _row_range(family, n_max, "closed"), FAMILIES[family]
    closed, row_length = facts.closed, facts.row_length  # rows in the domain, so no closed_value check per entry
    rows = tuple(
        tuple(closed(n, k) for k in range(row_length(n)))
        for n in numbers
    )
    return CoeffTriangle(family, "closed", numbers.start, rows)


def recurrence_triangle(family: Family, n_max: int) -> CoeffTriangle:
    """Rows built purely from the family's seed row and two-term recurrence, by its ``rule``."""
    numbers, facts = _row_range(family, n_max, "recurrence"), FAMILIES[family]
    seed, sign, extra = facts.rule
    a = recurrence_triangle(Family.A, n_max - 1).rows if facts.reads_a else ()
    rows = [seed]
    for n in numbers[1:]:
        prev = (0, *rows[-1], 0)  # entry k of row n reads entries k - 1 and k of row n - 1
        rows.append(tuple(sign * (prev[k + 1] - prev[k]) + extra(n, k, a) for k in range(facts.row_length(n))))
    return CoeffTriangle(family, "recurrence", numbers.start, tuple(rows))


class DecompositionScheme(NamedTuple):
    """One identity: the U or V member (``kind``) spanning the ambient degree of an order, over that order's basis.

    The one owner of row n's target: ``member`` gives its index (of weight 2n - ``min_n``), ``order`` inverts it,
    ``targets`` gives its coordinates and ``doubling`` (its basis's ``doubled``) its factor; ``min_n`` its first row.
    """

    kind: str
    basis: BasisFamily

    @property
    def min_n(self) -> int:
        return BASES[self.basis].lowest

    @property
    def doubling(self) -> int:
        """2 when the target is twice its member, for integer coordinates, else 1."""
        return 2 if self.kind in BASES[self.basis].doubled else 1

    def member(self, n: int) -> int:
        """The index of row n's target member, of weight 2n - ``min_n``: 2n + ``shift``."""
        return member_of_weight(self.kind, 2 * n - self.min_n)

    @property
    def shift(self) -> int:
        """The member index less twice the row, the same for every row."""
        return self.member(0)

    def order(self, index: int) -> int:
        """The row whose target is member ``index``; DomainError for U_0 and for a degree of the wrong parity."""
        weight = member_weight(self.kind, index)
        if weight < 0:
            raise DomainError(f"{self.kind}_{index} is the zero polynomial; nothing to decompose")
        if weight % 2 != self.min_n:
            needed = "odd" if self.min_n else "even"
            raise DomainError(f"{self.kind}_{index} spans canonical degree {weight}, "
                              f"but {self.basis.value} bases span {needed}-degree spaces")
        return (weight + self.min_n) // 2

    def targets(self, first: int, last: int) -> list[list[int]]:
        """The canonical coordinates of the targets of rows first..last, their ``member``s read once each."""
        doubling = self.doubling
        members = read_members(self.kind, range(self.member(first), self.member(last) + 1, 2))
        return members if doubling == 1 else [[doubling * c for c in coords] for coords in members]

    @property
    def description(self) -> str:
        """For example "2*U[2n+1] over BV"."""
        shift = f"{self.shift:+d}" if self.shift else ""
        return f"{'2*' if self.doubling == 2 else ''}{self.kind}[2n{shift}] over {self.basis.value}"


class FamilyFacts(NamedTuple):
    """One family's facts, the one record (in ``FAMILIES``) that every reader of them reads.

    Row n of the triangle, from row ``start_row`` on, holds k = 0..``row_length(n)`` - 1, and ``closed`` is its
    closed form.  ``rule`` is its recurrence: the seed row, the sign s and the extra term.  Entry k of each later
    row n is s * (prev[k+1] - prev[k]) + extra(n, k, a), where prev is row n-1 with a 0 before its start and past
    its end, and a holds the a recurrence's rows when ``reads_a``.  ``scheme`` is the decomposition identity, and
    ``annihilates`` says the family's operators send their sequence to 0.
    """

    start_row: int
    row_length: Callable[[int], int]
    closed: Callable[[int, int], int]
    rule: tuple[tuple[int, ...], int, Callable[..., int]]
    scheme: DecompositionScheme
    annihilates: bool
    reads_a: bool


FAMILIES: dict[Family, FamilyFacts] = {
    Family.A: FamilyFacts(0, lambda n: n + 1, a_closed, annihilates=False, reads_a=False,
                          scheme=DecompositionScheme("U", BasisFamily.BV),
                          rule=((1,), 1, lambda n, k, a: 2 if k == n else 0)),
    Family.B: FamilyFacts(0, lambda n: n + 1, b_closed, annihilates=True, reads_a=False,
                          scheme=DecompositionScheme("U", BasisFamily.BU_STAR),
                          rule=((-1,), -1, lambda n, k, a: 0)),
    Family.C: FamilyFacts(1, lambda n: n + 1, c_closed, annihilates=False, reads_a=False,
                          scheme=DecompositionScheme("V", BasisFamily.BU_STAR),
                          rule=((1, -2), -1, lambda n, k, a: -1 if n == k + 2 else 0)),
    Family.D: FamilyFacts(1, lambda n: n + 1, d_closed, annihilates=True, reads_a=False,
                          scheme=DecompositionScheme("V", BasisFamily.BV_STAR),
                          rule=((1, -2), -1, lambda n, k, a: 0)),
    Family.E: FamilyFacts(1, lambda n: n, e_closed, annihilates=False, reads_a=True,
                          scheme=DecompositionScheme("U", BasisFamily.BV_STAR),
                          rule=((1,), -1, lambda n, k, a: a[n - 1][k])),
}


def oracle_triangle(family: Family, n_max: int) -> CoeffTriangle:
    """Rows recovered by the exact linear-solve oracle, independent of both
    the closed forms and the recurrences.

    Row n holds the decomposition coordinates, so for families b, c, d the
    final k = n table entry has no oracle counterpart, and the b/c/d/e
    triangles start at row 1.
    """
    scheme = FAMILIES[family].scheme
    numbers = _row_range(family, n_max, "oracle")  # before the window, which raises DomainError below min_n
    rows, window = [], member_window(BasisSpec(scheme.basis, n_max))
    for n, target in zip(numbers, scheme.targets(numbers.start, n_max)):
        coords = _checked_solve(BasisSpec(scheme.basis, n), target, window)
        for value in coords:
            if not isinstance(value, int):
                raise IntegralityViolation(
                    f"oracle coordinate {value} for family {family.value}, row {n}"
                )
        rows.append(coords)
    return CoeffTriangle(family, "oracle", numbers.start, tuple(rows))


# The generation methods by name, in cross_check's order; each looks up its generator when called, so wrapping it works.
METHODS: dict[str, Callable[[Family, int], CoeffTriangle]] = {
    "closed": lambda family, n_max: closed_triangle(family, n_max),
    "recurrence": lambda family, n_max: recurrence_triangle(family, n_max),
    "oracle": lambda family, n_max: oracle_triangle(family, n_max),
}


class MethodMismatch(NamedTuple):
    """One entry where the generation methods disagree."""

    n: int
    k: int
    values: dict[str, int | None]


class CrossCheckReport(NamedTuple):
    family: Family
    n_max: int
    methods: tuple[str, ...]
    mismatches: tuple[MethodMismatch, ...]
    recurrence: CoeffTriangle

    @property
    def passed(self) -> bool:
        return not self.mismatches


def cross_check(family: Family, n_max: int) -> CrossCheckReport:
    """Compare closed form, recurrence, and the solve oracle.

    Entries a method does not produce (the k = n seeds of b, c, d, which lie
    past the oracle's coordinate vector) are skipped, not flagged.
    """
    numbers = _row_range(family, n_max, "closed")  # IndexError below the table's first row
    triangles = {method: generate(family, n_max) for method, generate in METHODS.items()
                 if n_max >= first_row(family, method)}  # the oracle from its own first row
    mismatches = []
    for n in numbers:
        rows = {
            method: triangle.row(n)
            for method, triangle in triangles.items()
            if n >= triangle.start_row
        }
        longest = max(rows.values(), key=len)
        if any(row != longest[: len(row)] for row in rows.values()):  # rows that all prefix the longest agree
            for k in range(len(longest)):
                values = {method: (row[k] if k < len(row) else None) for method, row in rows.items()}
                seen = {v for v in values.values() if v is not None}
                if len(seen) > 1:
                    mismatches.append(MethodMismatch(n, k, values))
    return CrossCheckReport(family, n_max, tuple(triangles), tuple(mismatches), triangles["recurrence"])


def check_theorem(family: Family, n_max: int) -> CheckResult:
    """Verify the family's decomposition identity exactly: fail at the rows where ``cross_check``,
    the comparison behind ``table --method all``, finds closed form, recurrence and oracle differ.

    The oracle row passed ``decompose``'s exact residual check, so agreeing with it proves the
    closed-form coefficients rebuild the target over the basis.
    """
    require_n_max(n_max)
    scheme = FAMILIES[family].scheme
    bad = sorted({mismatch.n for mismatch in cross_check(family, n_max).mismatches})
    return CheckResult.over(
        f"theorems.{family.value}", bad, f"{scheme.description}, n = {scheme.min_n}..{n_max}"
    )
