"""Laurent polynomials in the symbol L with exact rational coefficients.

A `TatePoly` is a finite Q-linear combination of integer (possibly negative)
powers of L, stored sparsely as a dict mapping exponent to a nonzero
`Fraction`.  This is the coefficient ring for all symbolic series here;
inverted factors (L^i - 1)^-1 are never stored inside a TatePoly but tracked
as explicit denominator factors by `arczeta.ratseries.RatSeries`.

Exact division, used when expanding a series with (L^i - 1) denominator
factors, raises `NonPolynomialCoefficient` if the quotient would leave the
ring.

`_sparse_add` and `_sparse_mul` are the one sparse kernel of the series
layer: they add and multiply {exponent: nonzero coefficient} dicts, both for
the Fraction coefficients of a TatePoly and for the int coefficients of a
`RatSeries` numerator, keyed by (T-exponent, L-exponent) pairs.  `_TEXT` and
`_LATEX` hold the tokens of the two output formats; `_Style.laurent` is the
one signed-term walk that renders a TatePoly in either.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .fq import _trim

Scalar = Union[int, Fraction]


class NonPolynomialCoefficient(ArithmeticError):
    """An operation that must stay inside Q[L, L^-1] produced a remainder."""


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


_JSON_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list"}


def json_value(value, kind: type, name: str):
    """``value`` read from JSON if its type is exactly ``kind`` (int, bool, str or list), else ValueError naming ``name``.

    int() and bool() would read 2.9 as 2 and "false" as True, isinstance counts
    a bool as an int, and a string iterates as strings: only the exact type is read.
    """
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def json_rational(value, name: str) -> Fraction:
    """A rational read from JSON as a string ("3/4", "1e-400") or an exact integer, else ValueError naming ``name``.

    The parser has already rounded a JSON float (1e-400 reads as 0.0), and a bool is no number.
    """
    if type(value) not in (int, str):
        raise ValueError(f"{name} must be a string or an integer, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be a rational, got {value!r}") from exc


def json_rows(value, width: int, name: str) -> list[list]:
    """``value`` read from JSON as a list of lists of ``width`` entries each, else ValueError naming ``name``."""
    for row in json_value(value, list, name):
        if type(row) is not list or len(row) != width:
            raise ValueError(f"each {name} entry must be a list of {width} values, got {row!r}")
    return value


def _sparse_add(x: Mapping, y: Mapping) -> dict:
    """x + y over sparse {exponent: nonzero coefficient} dicts; zero sums drop.

    Keys are opaque: L-exponents of a TatePoly or (T, L)-exponent pairs of a
    series numerator.  Coefficients (Fractions or ints) are falsy exactly at zero.
    """
    out = dict(x)
    for e, v in y.items():
        s = out[e] + v if e in out else v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _sparse_mul(x: Mapping, y: Mapping, add: Callable = operator.add) -> dict:
    """x * y over sparse {exponent: nonzero coefficient} dicts; ``add`` sums two exponents (ints or pairs)."""
    out: dict = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            e = add(e1, e2)
            out[e] = out[e] + v1 * v2 if e in out else v1 * v2
    return {e: v for e, v in out.items() if v}


class _Style(NamedTuple):
    """The tokens of one output format, and the walks that only read tokens."""

    L: str  # the symbol L
    pow: str  # base^exponent, as a str.format template
    ratio: str  # a non-integer rational numerator/denominator
    times: str  # product separator
    left: str  # grouping brackets
    right: str
    frac: str  # series numerator over its denominator factors
    inline: bool  # one-line format: groups factors that would read ambiguously

    def power(self, base: str, e: int) -> str:
        return base if e == 1 else self.pow.format(base, e)

    def group(self, body: str) -> str:
        return self.left + body + self.right

    def laurent(self, p: TatePoly) -> str:
        """Signed terms of p, highest power of L first."""
        if not p.c:
            return "0"
        parts: list[str] = []
        for e, v in sorted(p.c.items(), reverse=True):
            mag = -v if v < 0 else v
            body = str(mag) if mag.denominator == 1 else self.ratio.format(mag.numerator, mag.denominator)
            if e and mag == 1:
                body = self.power(self.L, e)
            elif e:
                if self.inline and mag.denominator != 1:
                    body = self.group(body)
                body += self.times + self.power(self.L, e)
            if parts:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
            else:
                parts.append(body if v > 0 else f"-{body}")
        return " ".join(parts)


_TEXT = _Style("L", "{}^{}", "{}/{}", "*", "(", ")", "{} / [{}]", True)
_LATEX = _Style(
    "\\mathbb{L}", "{}^{{{}}}", "\\tfrac{{{}}}{{{}}}", " ", "\\left(", "\\right)", "\\frac{{{}}}{{{}}}", False
)


class TatePoly:
    """Element of Q[L, L^-1], immutable by convention."""

    __slots__ = ("c",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        c: dict[int, Fraction] = {}
        for e, v in items:
            v = _coerce(v)
            if v:
                c[int(e)] = c.get(int(e), Fraction(0)) + v
                if not c[int(e)]:
                    del c[int(e)]
        self.c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> TatePoly:
        return cls()

    @classmethod
    def one(cls) -> TatePoly:
        return cls({0: 1})

    @classmethod
    def const(cls, value: Scalar) -> TatePoly:
        return cls({0: value})

    @classmethod
    def L(cls, exponent: int = 1, coeff: Scalar = 1) -> TatePoly:
        """The monomial coeff * L^exponent."""
        return cls({exponent: coeff})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == {0: Fraction(1)}

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TatePoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == TatePoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __repr__(self) -> str:
        return f"TatePoly({self})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: TatePoly | Scalar) -> TatePoly:
        return _wrap(_sparse_add(self.c, _as_poly(other).c))

    __radd__ = __add__

    def __neg__(self) -> TatePoly:
        return _wrap({e: -v for e, v in self.c.items()})

    def __sub__(self, other: TatePoly | Scalar) -> TatePoly:
        return self + (-_as_poly(other))

    def __mul__(self, other: TatePoly | Scalar) -> TatePoly:
        return _wrap(_sparse_mul(self.c, _as_poly(other).c))

    __rmul__ = __mul__

    def shift(self, k: int) -> TatePoly:
        """Multiply by L^k."""
        return _wrap({e + k: v for e, v in self.c.items()})

    def exact_div(self, other: TatePoly) -> TatePoly:
        """Exact quotient self / other in Q[L, L^-1].

        Raises NonPolynomialCoefficient if other is zero or does not divide
        self.  Laurent division reduces to ordinary polynomial division after
        shifting both operands to valuation 0.
        """
        if other.is_zero():
            raise NonPolynomialCoefficient("division by zero polynomial")
        if self.is_zero():
            return TatePoly.zero()
        sv, ov = min(self.c), min(other.c)
        # dense coefficient lists of the shifted (ordinary) polynomials
        a = _dense(self, sv)
        b = _dense(other, ov)
        q, r = _qdivmod(a, b)
        if r:
            raise NonPolynomialCoefficient(f"{other} does not divide {self}")
        return TatePoly((i + sv - ov, v) for i, v in enumerate(q) if v)

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return _TEXT.laurent(self)

    def to_json(self) -> list[list]:
        """JSON form: ascending [L-exponent, "num/den"] pairs."""
        return [[e, str(v)] for e, v in sorted(self.c.items())]

    @classmethod
    def from_json(cls, data: list[list]) -> TatePoly:
        """Inverse of `to_json`; ValueError on a row that is not a pair, a non-integer or repeated L-exponent, or a
        coefficient that is not a rational string or an integer."""
        c: dict[int, Fraction] = {}
        for e, v in json_rows(data, 2, "L-coefficient"):
            if json_value(e, int, "L-exponent") in c:
                raise ValueError(f"coefficient lists L^{e} twice")
            c[e] = json_rational(v, f"coefficient of L^{e}")
        return cls(c)


def _wrap(c: dict[int, Fraction]) -> TatePoly:
    """A TatePoly on c, which must already hold only nonzero Fractions."""
    out = TatePoly.__new__(TatePoly)
    out.c = c
    return out


def _as_poly(value: TatePoly | Scalar) -> TatePoly:
    return value if isinstance(value, TatePoly) else TatePoly.const(value)


def _dense(p: TatePoly, base: int) -> list[Fraction]:
    out = [Fraction(0)] * (max(p.c) - base + 1)
    for e, v in p.c.items():
        out[e - base] = v
    return out


def _qdivmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and trimmed remainder of dense Q[x] polynomials (ascending coefficients)."""
    r, b = _trim(list(a)), _trim(list(b))
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    support = [(j, bv) for j, bv in enumerate(b) if bv]
    for i in range(len(r) - len(b), -1, -1):
        c = r[i + len(b) - 1] / b[-1]
        if c:
            q[i] = c
            for j, bv in support:
                r[i + j] -= c * bv
    return q, _trim(r)


def cyclotomic_unit(i: int) -> TatePoly:
    """The denominator factor L^i - 1 (i >= 1)."""
    if i < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return TatePoly({i: 1, 0: -1})

