"""Exact sparse polynomials in the two variables x and y.

A polynomial is a finite map from monomials x^a y^b to non-zero exact
coefficients.  Coefficients are Python ints, or ``Fraction`` when a value is
not integral; no float ever enters, so equality of polynomials is equality
of term maps.  The representation is canonical: zero coefficients are never
stored and integral fractions are normalised back to int on construction.

The degree-n canonical family is the monomial list (x^(n-2k) y^k) for
0 <= k <= n//2.  A polynomial supported on it is weight homogeneous (every
term has x_exp + 2*y_exp = n); ``canonical_coordinates`` reads off its coordinate
vector over that family, and raises on any other polynomial.  ``combine_columns`` is the one linear
combination of coordinate vectors (a relation's row over the members, the decomposition residual, a
transfer row): one dot product per row.  ``pack`` makes an int vector one int, a ``bits``-wide slot per
entry; entries differing by under 2^bits pack equal only if equal.

A monomial x^a y^b is the plain int tuple ``(a, b)``, inside and at the API;
there is no monomial class.  ``__init__`` takes such keys (and rejects non-int
or negative exponents), and ``items`` and ``canonical_monomials`` return them.
``sum_of_products`` expands sum_i p_i * q_i into one dict: it is the one multiply-accumulate behind every product of
``BivarPoly``s.  ``BivarPoly._plus`` is the one sum or difference of two term maps.  Each ring operation canonicalises
its result once (``_canonical``) and wraps it with ``BivarPoly._of``.  ``signed_sum`` renders text.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat, zip_longest
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DomainError, IntegralityViolation, MalformedElement

Rational = Union[int, Fraction]
Key = tuple[int, int]


def as_rational(value: Rational) -> Rational:
    """Normalise an exact coefficient: int stays int, integral Fraction becomes int.

    Inexact types (float, complex, Decimal, ...) are rejected outright.
    """
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _var_string(x_exp: int, y_exp: int) -> str:
    x = "" if x_exp == 0 else ("x" if x_exp == 1 else f"x^{x_exp}")
    y = "" if y_exp == 0 else ("y" if y_exp == 1 else f"y^{y_exp}")
    return x + y


def _canonical(acc: dict[Key, Rational]) -> dict[Key, Rational]:
    """Drop zero coefficients and turn integral Fractions back into ints."""
    return {key: c if type(c) is int else as_rational(c) for key, c in acc.items() if c}


class BivarPoly:
    """Immutable sparse polynomial in x and y with exact coefficients.

    Values are never mutated after construction; operations return fresh
    polynomials, so instances can be shared freely across threads.  Each
    instance caches the canonical coordinates of the last degree asked of it.
    """

    __slots__ = ("_terms", "_coords")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Key, Rational] = {}
        for (a, b), value in items:
            if not isinstance(a, int) or not isinstance(b, int):
                raise TypeError("exponents must be integers")
            if a < 0 or b < 0:
                raise ValueError(f"exponents must be non-negative, got {_var_string(a, b) or '1'}")
            acc[a, b] = acc.get((a, b), 0) + as_rational(value)
        self._terms = _canonical(acc)

    @classmethod
    def _of(cls, terms: dict[Key, Rational]) -> BivarPoly:
        """Wrap an already canonical dict (see ``_canonical``) without copying or checking it."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Rational) -> BivarPoly:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, x_exp: int, y_exp: int, coeff: Rational = 1) -> BivarPoly:
        return cls({(x_exp, y_exp): coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Key, Rational]]:
        return iter(self._terms.items())

    def coefficient(self, x_exp: int, y_exp: int) -> Rational:
        return self._terms.get((x_exp, y_exp), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    # -- ring operations ---------------------------------------------------

    def _plus(self, other: BivarPoly | Rational, sign: int) -> BivarPoly:
        """self + sign * other: the one sum or difference of two term maps."""
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0) + sign * c
        return BivarPoly._of(_canonical(acc))

    def __add__(self, other: BivarPoly | Rational) -> BivarPoly:
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> BivarPoly:
        return BivarPoly._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: BivarPoly | Rational) -> BivarPoly:
        return self._plus(other, -1)

    def __rsub__(self, other: Rational) -> BivarPoly:
        return (-self) + other

    def __mul__(self, other: BivarPoly | Rational) -> BivarPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> BivarPoly:
        """self ** exponent by repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = ONE, self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def scale(self, factor: Rational) -> BivarPoly:
        factor = as_rational(factor)
        return BivarPoly._of(_canonical({key: c * factor for key, c in self._terms.items()}))

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, x_image: BivarPoly | Rational, y_image: BivarPoly | Rational) -> BivarPoly:
        """Simultaneously replace x and y by polynomial images, fully expanded.

        Acts as a ring homomorphism: products and sums may be substituted
        factor by factor.
        """
        x_image = x_image if isinstance(x_image, BivarPoly) else BivarPoly.constant(x_image)
        y_image = y_image if isinstance(y_image, BivarPoly) else BivarPoly.constant(y_image)
        x_pows = _power_table(x_image, max((a for a, _ in self._terms), default=0))
        y_pows = _power_table(y_image, max((b for _, b in self._terms), default=0))
        return sum_of_products((x_pows[a].scale(coeff), y_pows[b]) for (a, b), coeff in self._terms.items())

    def evaluate(self, x0: Rational, y0: Rational) -> Rational:
        """Exact value at a rational point."""
        x0 = as_rational(x0)
        y0 = as_rational(y0)
        total: Rational = 0
        for (a, b), coeff in self._terms.items():
            total += coeff * x0 ** a * y0 ** b
        return as_rational(total)

    # -- canonical-family coordinates ----------------------------------------

    def canonical_coordinates(self, n: int) -> list[Rational]:
        """Coordinates over the degree-n canonical family, entry k for x^(n-2k) y^k.

        Raises MalformedElement at the first term, in term order, outside that family.
        """
        memo = getattr(self, "_coords", None)
        if memo is not None and memo[0] == n:
            return list(memo[1])
        if n < 0:
            raise DomainError(f"canonical degree index must be >= 0, got {n}")
        coords: list[Rational] = [0] * (n // 2 + 1)
        for (a, b), coeff in self._terms.items():
            if a + 2 * b != n:
                raise MalformedElement(f"monomial {_var_string(a, b) or '1'} lies outside the degree-{n} canonical family")
            coords[b] = coeff
        self._coords = (n, tuple(coords))
        return coords

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum((self._terms[key], _var_string(*key)) for key in sorted(self._terms, reverse=True))

    def __repr__(self) -> str:
        return f"BivarPoly({str(self)!r})"

    def to_json_terms(self) -> list[dict[str, object]]:
        """Term records in display order, with string-encoded big integers."""
        records = []
        for a, b in sorted(self._terms, reverse=True):
            coeff = Fraction(self._terms[a, b])
            records.append(
                {
                    "x": a,
                    "y": b,
                    "num": str(coeff.numerator),
                    "den": str(coeff.denominator),
                }
            )
        return records


def sum_of_products(pairs: Iterable[tuple[BivarPoly, BivarPoly]]) -> BivarPoly:
    """sum_i p_i * q_i over (p_i, q_i) pairs, expanded into one accumulator and canonicalised once."""
    acc: dict[Key, Rational] = {}
    for p, q in pairs:
        for (a1, b1), c1 in p._terms.items():
            for (a2, b2), c2 in q._terms.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, 0) + c1 * c2
    return BivarPoly._of(_canonical(acc))


def combine_columns(columns: Iterable[Sequence[Rational]], coeffs: Sequence[Rational]) -> list[Rational]:
    """sum_j coeffs[j] * columns[j], one dot product per row.  A short column reads as 0 past its end, so the
    result is as long as the longest column and no entry is dropped."""
    return [sum(map(mul, row, coeffs)) for row in zip_longest(*columns, fillvalue=0)]


def pack(vec: Sequence[int], bits: int) -> int:
    """sum_i vec[i] * 2^(bits*i) in linear time, ``bits`` a multiple of 8: a vector with every entry in [0, 2^bits)
    is its slots' bytes read as one int; any other packs as its residues mod 2^bits less its carries one slot up."""
    if not all(map(isinstance, vec, repeat(int))):
        raise IntegralityViolation(f"only int entries pack, got {next(v for v in vec if not isinstance(v, int))!r}")
    mask, size = (1 << bits) - 1, bits // 8
    if vec and (min(vec) < 0 or max(vec) > mask):
        return pack([v & mask for v in vec], bits) - (pack([-(v >> bits) for v in vec], bits) << bits)
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in vec]), "little")


def _power_table(base: BivarPoly, top: int) -> list[BivarPoly]:
    powers = [ONE]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


def signed_sum(pairs: Iterable[tuple[Rational, str]]) -> str:
    """Render sum coeff * name over (coeff, name) pairs, e.g. "-x^2 + 3xy - (1/2)".

    A unit coefficient is left out before a non-empty name, a zero one is
    kept, a non-integral one is parenthesised; the empty sum is "0".
    """
    chunks: list[str] = []
    for coeff, name in pairs:
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if name and magnitude == 1:
            body = name
        else:
            body = (str(magnitude) if isinstance(magnitude, int) else f"({magnitude})") + name
        sign = (" - " if negative else " + ") if chunks else ("-" if negative else "")
        chunks.append(sign + body)
    return "".join(chunks) or "0"


def canonical_monomials(n: int) -> list[Key]:
    """The degree-n canonical family x^(n-2k) y^k for k = 0..n//2."""
    if n < 0:
        raise DomainError(f"canonical degree index must be >= 0, got {n}")
    return [(n - 2 * k, k) for k in range(n // 2 + 1)]


ZERO = BivarPoly()
ONE = BivarPoly.constant(1)
X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)
