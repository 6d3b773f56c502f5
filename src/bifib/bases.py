"""The four sequence bases, exact change-of-basis matrices, and decomposition.

For an order n the package works inside the span of the degree-m canonical
monomial family (m = 2n or 2n - 1) and builds four bases out of shifted
sequence members times powers of x:

    BU(n)     = (x^(n-k) U_{n+k+1})  k = 0..n      inside degree 2n
    BV(n)     = (x^(n-k) V_{n+k})    k = 0..n      inside degree 2n
    BUstar(n) = (x^(n-k) U_{n+k})    k = 0..n-1    inside degree 2n-1
    BVstar(n) = (x^(n-k) V_{n+k-1})  k = 0..n-1    inside degree 2n-1

``BasisFamily`` names these four only; the canonical family itself is
``poly.canonical_monomials``.  ``BASES`` holds each one's facts: the member
letter, the lowest order (1 for the starred bases, else 0), the determinant
and the sequences doubled over it.  The indices above follow from the weight
rule of ``sequences``: vector k holds the member of weight n + k - lowest.

Their coordinate matrices over the canonical family are square with exact
determinant 1 (BU, BUstar) or 2 (BV, BVstar), so ``decompose`` can solve for
the coordinates of any member of the ambient space.  That solver is the
independent oracle against which the closed-form coefficient families are
checked.  It peels the basis one order at a time: adjacent vectors differ by
y times a vector of the order below, so the x^m coordinate fixes the sum of
the coordinates and the rest is the same problem one order lower, O(n^2) per
solve.  ``decompose`` then checks its residual, M * coords as one
``poly.combine_columns`` over the members.  Both read the members' coordinates
from one ``member_window``, which ``coefficients.oracle_triangle`` reads once
for all its rows and the lemma 1 chain reads for its own checks.

All linear algebra is exact, with no floating point.  ``RationalMatrix`` runs
fraction-free (Bareiss) elimination on int rows scaled by the lcm of their
denominators.  ``det_by_column_reduction`` gives the determinants of every
order up to n from one pass over the ``member_window``, on the step the peel
uses: vectors k - 1 and k differ by x^(n-k) (W_(i+1) - x W_i) = x^(n-k) y W_(i-1),
the shared recurrence read on coordinates.  The same member pair serves every
order that holds it, so the pass checks each neighbouring pair once, and the
determinants are the running products of the leading members' x^m
coordinates: O(n^2) in all.  No verb path here multiplies polynomials;
``build_basis`` is the product-built reference the tests compare with.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate, starmap, zip_longest
from math import lcm
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionError, DomainError, SingularMatrixError
from .poly import BivarPoly, Rational, as_rational, combine_columns
from .report import CheckResult, require_n_max
from .sequences import SHARED_CACHES, member_of_weight, read_members


class BasisFamily(Enum):
    BU = "BU"
    BV = "BV"
    BU_STAR = "BUstar"
    BV_STAR = "BVstar"


class BasisFacts(NamedTuple):
    """One basis family's facts: vector k of order n is x^(n-k) times the member of the ``letter`` sequence of
    weight n + k - ``lowest`` (``member_index``), orders start at ``lowest``, every order's coordinate matrix has
    determinant ``determinant``, and the U or V targets in ``doubled`` have integer coordinates over it only once
    doubled."""

    letter: str
    lowest: int
    determinant: int
    doubled: tuple[str, ...]


BASES: dict[BasisFamily, BasisFacts] = {
    BasisFamily.BU: BasisFacts("U", 0, 1, ()),
    BasisFamily.BV: BasisFacts("V", 0, 2, ("U",)),
    BasisFamily.BU_STAR: BasisFacts("U", 1, 1, ()),
    BasisFamily.BV_STAR: BasisFacts("V", 1, 2, ("U", "V")),
}

EXPECTED_DETERMINANTS = {family: basis.determinant for family, basis in BASES.items()}


class BasisSpec(NamedTuple):
    """One concrete sequence basis: a family plus its order index n."""

    family: BasisFamily
    n: int


def ambient_degree(spec: BasisSpec) -> int:
    """Degree of the canonical family the vectors live in, 2n minus the lowest order.

    Raises DomainError below the family's lowest order.
    """
    lowest = BASES[spec.family].lowest
    if spec.n < lowest:
        raise DomainError(f"{spec.family.value} is defined for n >= {lowest}, got {spec.n}")
    return 2 * spec.n - lowest


def member_index(spec: BasisSpec, k: int) -> tuple[str, int]:
    """Sequence letter and index of the member in vector k, of weight n + k - lowest, e.g. ("U", 7) for U_7."""
    basis = BASES[spec.family]
    return basis.letter, member_of_weight(basis.letter, spec.n + k - basis.lowest)


def build_basis(spec: BasisSpec) -> list[BivarPoly]:
    """Vectors k = 0.. as products x^(n-k) W: the product-built reference the tests compare with."""
    count = ambient_degree(spec) // 2 + 1
    letter, first = member_index(spec, 0)
    members = SHARED_CACHES[letter]
    return [BivarPoly.monomial(spec.n - k, 0) * members[first + k] for k in range(count)]


class RationalMatrix:
    """Dense matrix of exact rationals with exact determinant and solve."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        data = [[as_rational(entry) for entry in row] for row in rows]
        if data and any(len(row) != len(data[0]) for row in data):
            raise DimensionError("rows have differing lengths")
        self._rows = data

    @classmethod
    def _of(cls, rows: list[list[Rational]]) -> RationalMatrix:
        """Wrap rows of equal length and canonical entries without copying or checking them."""
        matrix = object.__new__(cls)
        matrix._rows = rows
        return matrix

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def row_list(self) -> list[list[Rational]]:
        return [list(row) for row in self._rows]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self._rows!r})"

    def det(self) -> Rational:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionError(f"determinant needs a square matrix, got {self.rows}x{self.cols}")
        if self.rows == 0:
            return 1
        m = self.row_list()
        try:
            factor = _eliminate(m)
        except SingularMatrixError:
            return 0
        return as_rational(factor * m[-1][-1])

    def solve(self, rhs: Sequence[Rational]) -> list[Rational]:
        """Exact solution of self * x = rhs for a square system."""
        if self.rows != self.cols:
            raise DimensionError(f"solve needs a square matrix, got {self.rows}x{self.cols}")
        if len(rhs) != self.rows:
            raise DimensionError(f"right-hand side has length {len(rhs)}, expected {self.rows}")
        n = self.rows
        aug = [row + [as_rational(value)] for row, value in zip(self._rows, rhs)]
        _eliminate(aug)
        solution: list[Rational] = [0] * n
        for i in range(n - 1, -1, -1):
            row = aug[i]
            acc = row[n] - sum(a * x for a, x in zip(row[i + 1 : n], solution[i + 1 :]))
            solution[i] = as_rational(Fraction(acc, row[i]))
        return solution


def _eliminate(rows: list[Sequence[Rational]]) -> Fraction:
    """Bareiss elimination of the leading square block, in place, carrying any
    further columns along, on int rows: each row is first multiplied by the lcm
    of its denominators.  Returns the permutation sign over the product of those
    lcms, which times the last pivot is the determinant.

    Pivots are the first non-zero entry in the column, so the result is
    bit-for-bit reproducible.  A column with no pivot raises
    SingularMatrixError; a Bareiss division with a remainder raises ArithmeticError.
    """
    n = len(rows)
    scale = 1
    for i, row in enumerate(rows):
        multiplier = lcm(*(entry.denominator for entry in row))
        if multiplier > 1:
            rows[i] = [(entry * multiplier).numerator for entry in row]
            scale *= multiplier
    sign = 1
    prev = 1
    for k in range(n):
        first = next((i for i in range(k, n) if rows[i][k]), None)
        if first is None:
            raise SingularMatrixError(f"zero pivot column {k}")
        if first != k:
            rows[k], rows[first] = rows[first], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k][k:]
        for i in range(k + 1, n):
            row = rows[i]
            factor = row[k]
            if factor == 0 and pivot == prev:
                continue  # the update would leave this row as it is
            tail = zip(row[k:], top)  # columns before k are zero below row k already
            new = [a - factor * b for a, b in tail] if pivot == 1 else [pivot * a - factor * b for a, b in tail]
            if prev != 1:
                new, remainders = zip(*(divmod(value, prev) for value in new))
                if any(remainders):
                    raise ArithmeticError(f"Bareiss division by {prev} is not exact in column {k}")
            rows[i] = [*row[:k], *new]
        prev = pivot
    return Fraction(sign, scale)


def coordinate_matrix(spec: BasisSpec) -> RationalMatrix:
    """Square matrix whose column k holds the canonical coordinates of vector k, which are its member's own, as
    x^(n-k) moves no canonical index: the order's own members, from vector 0's on, each read once (``read_members``)."""
    letter, first = member_index(spec, 0)
    columns = read_members(letter, range(first, first + ambient_degree(spec) // 2 + 1))
    return RationalMatrix._of([list(row) for row in zip_longest(*columns, fillvalue=0)])


def det_by_column_reduction(spec: BasisSpec) -> list[Rational]:
    """Determinants of orders lowest..n from one pass over the ``member_window``, independent of Bareiss.

    Entry w of the window is the member of weight w; vector k of order m is x^(m-k) times entry m - lowest + k.
    As W_(w+1) - x W_w = y W_(w-1), replacing each vector but the first by its difference with the one before
    leaves column 0 the only one with an x^(2m - lowest) entry, and the rest of column k is vector k - 1 of order
    m - 1: det(m) = entry (m - lowest)[0] * det(m - 1).  Each neighbouring pair is checked once, the same pair at
    every order that holds it, O(n^2) in all; a fault raises ArithmeticError naming its members.
    """
    basis = BASES[spec.family]
    letter, first = basis.letter, member_of_weight(basis.letter, 0)  # entry w is member first + w
    window, top = member_window(spec), spec.n - basis.lowest
    for w in range(1, 2 * top):
        head, *rest = starmap(sub, zip_longest(window[w + 1], window[w], fillvalue=0))
        if head != 0 or rest != window[w - 1]:
            fault = f"keeps an x^{w + 1} component" if head else f"is not y {letter}_{first + w - 1}"
            raise ArithmeticError(f"{letter}_{first + w + 1} - x {letter}_{first + w} {fault}")
    pivots = [coords[0] for coords in window[: top + 1]]
    if 0 in pivots[1:]:
        w = pivots.index(0, 1)
        raise ArithmeticError(f"{letter}_{first + w} has no x^{w} component, a zero pivot at order {basis.lowest + w}")
    return list(map(as_rational, accumulate(pivots, mul)))


def member_window(spec: BasisSpec) -> list[list[Rational]]:
    """The coordinates of every member the family's bases read up to order ``spec.n``, each read once (``read_members``):
    order m's vector k is entry m - lowest + k, and its peel reads entries m - lowest..0."""
    basis = BASES[spec.family]
    first = member_of_weight(basis.letter, 0)
    return read_members(basis.letter, range(first, first + ambient_degree(spec) - basis.lowest + 1))


def _peel_solve(spec: BasisSpec, rhs: Sequence[Rational], window: Sequence[list[Rational]]) -> list[Rational]:
    """Coordinates over the basis of the vector whose canonical coordinates are ``rhs``, from a ``member_window``
    of this order or a higher one.

    As v_k - v_(k-1) = y w_(k-1), sum c_k v_k = S v_0 + y sum c'_j w_j, where
    S = sum c_k, c'_j = sum_(i>j) c_i and w is the basis one order lower.  Peeling
    order after order, the level sums solve by forward substitution,
    S_j = (rhs_j - sum_(l<j) S_l lead_l[j-l]) / lead_j[0], lead_l the coordinates of the
    leading member l orders down; row j of the skewed leads holds the lead_l[j-l].
    """
    top = spec.n - BASES[spec.family].lowest
    skewed = ([0] * l + lead for l, lead in enumerate(window[top::-1]))
    sums: list[Rational] = []
    for row, value in zip(zip_longest(*skewed, fillvalue=0), rhs):
        pivot, rest = row[len(sums)], value - sum(map(mul, sums, row))
        sums.append(rest if pivot == 1 else as_rational(Fraction(rest, pivot)))  # 2 for V_0
    coords: list[Rational] = []
    for total in reversed(sums):  # c_0 = S - c'_0, c_k = c'_(k-1) - c'_k, c_last = c'_last
        coords = list(map(sub, [total, *coords], [*coords, 0]))
    return list(map(as_rational, coords))


def _checked_solve(spec: BasisSpec, rhs: list[Rational], window: Sequence[list[Rational]]) -> tuple[Rational, ...]:
    """``_peel_solve``'s coordinates once M * coords == rhs, combining the order's member columns in ``window``
    (``combine_columns``); a non-zero residual is an internal defect and raises ArithmeticError
    naming its first differing coordinate."""
    coords = _peel_solve(spec, rhs, window)
    top = spec.n - BASES[spec.family].lowest
    columns = window[top : top + len(rhs)]
    product = combine_columns(columns, coords)
    if product != rhs:
        i, got, want = next((i, *pair) for i, pair in enumerate(zip_longest(product, rhs)) if pair[0] != pair[1])
        raise ArithmeticError(f"internal error: decomposition residual is not zero ({spec.family.value}, "
                              f"n = {spec.n}): coordinate {i} reads {got}, expected {want}")
    return tuple(coords)


class Decomposition(NamedTuple):
    """Exact coordinates of a target polynomial over one sequence basis."""

    target: BivarPoly
    spec: BasisSpec
    coords: tuple[Rational, ...]

    def to_json_dict(self) -> dict[str, object]:
        return {
            "target": self.target.to_json_terms(),
            "family": self.spec.family.value,
            "n": self.spec.n,
            "coords": [str(c) for c in self.coords],
        }


def decompose(target: BivarPoly, spec: BasisSpec) -> Decomposition:
    """Solve for the exact coordinates of ``target`` over the given basis.

    Raises MalformedElement when the target has monomials outside the
    ambient canonical family.  As canonical coordinates are a linear bijection,
    M * coords == rhs means the combination rebuilds the target exactly; a
    non-zero residual would be an internal defect and raises ArithmeticError.
    The members are read once, from this order's ``member_window``.
    """
    rhs = target.canonical_coordinates(ambient_degree(spec))
    return Decomposition(target, spec, _checked_solve(spec, rhs, member_window(spec)))


def check_determinant(family: BasisFamily, n_max: int) -> CheckResult:
    """The column-reduction chain's determinants for orders 1..n_max against the known value."""
    require_n_max(n_max)
    basis = BASES[family]
    chain = det_by_column_reduction(BasisSpec(family, n_max))[1 - basis.lowest :]  # orders 1..n_max
    bad = [n for n, det in enumerate(chain, 1) if det != basis.determinant]
    return CheckResult.over(f"lemma1.det.{family.value}", bad, f"det = {basis.determinant} for n = 1..{n_max}")


def check_determinant_cross(family: BasisFamily, n_max: int) -> CheckResult:
    """The column-reduction chain and Bareiss give the same determinant for orders 1..n_max."""
    require_n_max(n_max)
    chain = det_by_column_reduction(BasisSpec(family, n_max))[1 - BASES[family].lowest :]  # orders 1..n_max
    bad = [n for n, det in enumerate(chain, 1) if det != coordinate_matrix(BasisSpec(family, n)).det()]
    return CheckResult.over(f"lemma1.det-cross.{family.value}", bad, f"matches Bareiss for n = 1..{n_max}")
