"""Laurent polynomials in the symbol L with exact rational coefficients.

A `TatePoly` is a finite Q-linear combination of integer (possibly negative)
powers of L, stored sparsely as a dict mapping exponent to a nonzero
`Fraction`.  It is the type in which a series coefficient enters and leaves
the program: the `RatSeries` constructor and `rs_from_json` read it,
`rs_expand` writes it.  It has no arithmetic here: every series is built and
computed on the flat integer numerator of `arczeta.ratseries.RatSeries`,
which tracks inverted factors (L^i - 1)^-1 as explicit denominator factors.
`rs_expand` raises `NonPolynomialCoefficient` when such a factor does not
divide an expanded coefficient, so the coefficient would leave Q[L, L^-1].

`_sparse_add` and `_sparse_mul` are the one sparse kernel of the symbolic
side: they add and multiply {exponent: nonzero coefficient} dicts, for the
int coefficients of a `RatSeries` numerator keyed by (T-exponent,
L-exponent) pairs and for the Fraction coefficients of the index
polynomials of `arczeta.ranges`, keyed by monomials.  `_TEXT` and `_LATEX`
hold the tokens of the two output formats; `_Style.laurent` is the one
signed-term walk that renders a Laurent polynomial {L-exponent: Fraction}
in either, for `str(TatePoly)` and for each T-coefficient of a series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Union

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

    Keys are opaque: (T, L)-exponent pairs of a series numerator or monomials
    of an index polynomial.  Coefficients (ints or Fractions) are falsy exactly at zero.
    """
    out = dict(x)
    for e, v in y.items():
        s = out[e] + v if e in out else v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _sparse_mul(x: Mapping, y: Mapping, add: Callable) -> dict:
    """x * y over sparse {exponent: nonzero coefficient} dicts; ``add`` multiplies two monomials by combining
    their exponents (adding ints or pairs, merging monomial tuples)."""
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

    def laurent(self, c: Mapping[int, Fraction]) -> str:
        """Signed terms of the Laurent polynomial {L-exponent: nonzero Fraction} c, highest power of L first."""
        if not c:
            return "0"
        parts: list[str] = []
        for e, v in sorted(c.items(), reverse=True):
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
    """Element of Q[L, L^-1], immutable by convention: the type in which a
    series coefficient enters (`ratseries.rs_from_json`, the `RatSeries`
    constructor) or leaves (`ratseries.rs_expand`) the program."""

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

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TatePoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == TatePoly({0: other})
        return NotImplemented

    def __repr__(self) -> str:
        return f"TatePoly({self})"

    def __str__(self) -> str:
        return _TEXT.laurent(self.c)

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
