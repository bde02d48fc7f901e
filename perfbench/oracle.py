"""Expected values computed apart from the program.

Nothing here imports ``arczeta``.  Series coefficients come from the stratum
sums over contact orders, igusa coefficients from direct sums over order
vectors, and Presburger truth values from a brute-force evaluator over a
window of integers.  Program outputs (series JSON, QE text) are read with
this module's own evaluator and parser.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# branch data and series coefficients


def gcd_chain(beta: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(e, N) of a characteristic sequence beta = (m, beta_1, ..., beta_g)."""
    e, N = [beta[0]], [1]
    for b in beta[1:]:
        nxt = math.gcd(e[-1], b)
        N.append(N[-1] * (e[-1] // nxt))
        e.append(nxt)
    return tuple(e), tuple(N)


def par_coeff(beta: tuple[int, ...], N: tuple[int, ...], q: int, n: int) -> Fraction:
    """1 + sum_{l=1}^{n/m} (N_i(l)/m) (q-1) q^(n-lm), i(l) = max{k : l*beta_k <= n}."""
    m = beta[0]
    total = Fraction(1)
    for ell in range(1, n // m + 1):
        i = max(k for k in range(len(beta)) if ell * beta[k] <= n)
        total += Fraction(N[i], m) * (q - 1) * q ** (n - ell * m)
    return total


def pgeom_coeff(m: int, q: int, n: int) -> int:
    """1 + sum_{l=1}^{n/m} (q-1) q^(n-lm)."""
    return 1 + sum((q - 1) * q ** (n - ell * m) for ell in range(1, n // m + 1))


def window_arcs(m: int, q: int, n: int) -> int:
    """Arcs a contact-order window count enumerates: sum_l (q-1) q^(n-lm)."""
    if m == 1:
        return 0
    return sum((q - 1) * q ** (n - ell * m) for ell in range(1, n // m + 1))


def igusa_coeff(ks: tuple[int, ...], p: int, n: int) -> Fraction:
    """Haar volume of ord(x^k) = n: sum over sum(k_i v_i) = n of prod (1-1/p) p^-v_i."""
    total = Fraction(0)
    for vs in product(*(range(n // k + 1) for k in ks)):
        if sum(k * v for k, v in zip(ks, vs)) == n:
            term = Fraction(1)
            for v in vs:
                term *= (1 - Fraction(1, p)) * Fraction(1, p**v)
            total += term
    return total


def series_json_coeffs(obj: dict, q: int, order: int) -> list[Fraction]:
    """Coefficients c_0..c_order at L = q of a series given as the program's JSON.

    The JSON lists a numerator (T-power, [[L-exponent, "rational"], ...])
    and denominator factors (1 - L^a T^b)^mult and (L^i - 1)^mult.
    """
    qf = Fraction(q)
    coeffs = [Fraction(0)] * (order + 1)
    for n, poly in obj["numerator"]:
        if n <= order:
            coeffs[n] = sum((Fraction(c) * qf ** e for e, c in poly), Fraction(0))
    for a, b, mult in obj["denomGeom"]:
        for _ in range(mult):
            for n in range(b, order + 1):
                coeffs[n] += qf**a * coeffs[n - b]
    for i, mult in obj["denomCyclo"]:
        scale = (qf**i - 1) ** mult
        coeffs = [c / scale for c in coeffs]
    return coeffs


# ---------------------------------------------------------------------------
# Presburger formulas: the benchmark's own AST
#
#   ("cmp", {var: coeff}, const, rel)     sum + const REL 0
#   ("cong", {var: coeff}, const, mod)    sum + const == 0 mod mod
#   ("and", [f, ...]) ("or", [f, ...]) ("not", f)
#   ("E", var, f) ("A", var, f)


def lin_text(coeffs: dict[str, int], const: int) -> str:
    parts = []
    for v, c in coeffs.items():
        if c == 0:
            continue
        mag = abs(c)
        body = v if mag == 1 else f"{mag}*{v}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if const or not parts:
        parts.append(("- " if const < 0 else "+ ") + str(abs(const)))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def to_text(f) -> str:
    kind = f[0]
    if kind == "cmp":
        return f"{lin_text(f[1], f[2])} {f[3]} 0"
    if kind == "cong":
        return f"{lin_text(f[1], f[2])} == 0 mod {f[3]}"
    if kind == "not":
        return f"!({to_text(f[1])})"
    if kind in ("and", "or"):
        op = " & " if kind == "and" else " | "
        return "(" + op.join(to_text(g) for g in f[1]) + ")"
    return f"{kind} {f[1]}. ({to_text(f[2])})"


def free_vars(f) -> set[str]:
    kind = f[0]
    if kind in ("cmp", "cong"):
        return {v for v, c in f[1].items() if c}
    if kind == "not":
        return free_vars(f[1])
    if kind in ("and", "or"):
        return set().union(*(free_vars(g) for g in f[1]))
    return free_vars(f[2]) - {f[1]}


def _lin(coeffs, const, env) -> int:
    return const + sum(c * env[v] for v, c in coeffs.items())


_REL = {
    "<=": lambda v: v <= 0,
    "<": lambda v: v < 0,
    "=": lambda v: v == 0,
    ">=": lambda v: v >= 0,
    ">": lambda v: v > 0,
}


def holds(f, env: dict[str, int], window: int) -> bool:
    """Truth at env, with quantified variables ranging over [-window, window]."""
    kind = f[0]
    if kind == "cmp":
        return _REL[f[3]](_lin(f[1], f[2], env))
    if kind == "cong":
        return _lin(f[1], f[2], env) % f[3] == 0
    if kind == "not":
        return not holds(f[1], env, window)
    if kind == "and":
        return all(holds(g, env, window) for g in f[1])
    if kind == "or":
        return any(holds(g, env, window) for g in f[1])
    inner = (holds(f[2], {**env, f[1]: v}, window) for v in range(-window, window + 1))
    return any(inner) if kind == "E" else all(inner)


def quantifier_window(f, box: int) -> int:
    """A window wide enough that windowed quantifiers agree with Z on [-box, box].

    Every atom that changes value inside the box does so for bound values
    within max(|const| + sum|coeff| * box); the lcm of the moduli adds one
    full period of every congruence.  The formula generator only emits
    templates whose witnesses lie in that range.
    """
    bound, moduli = 1, [1]

    def walk(g) -> None:
        nonlocal bound
        if g[0] in ("cmp", "cong"):
            bound = max(bound, abs(g[2]) + sum(abs(c) for c in g[1].values()) * box)
            if g[0] == "cong":
                moduli.append(g[3])
        elif g[0] == "not":
            walk(g[1])
        elif g[0] in ("and", "or"):
            for h in g[1]:
                walk(h)
        else:
            walk(g[2])

    walk(f)
    return bound + math.lcm(*moduli) + 8


# -- reading the program's quantifier-free output ---------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z][a-z0-9_]*)|(<=|>=|==|[<>=!&|()*+\-.])|([A-Z]))")


class NotQuantifierFree(ValueError):
    """The text holds a quantifier or does not parse as a formula."""


def parse_qf(text: str):
    """Parse quantifier-free formula text into the benchmark's AST."""
    toks: list[tuple[str, str]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise NotQuantifierFree(f"cannot read {text[pos:]!r}")
        num, ident, op, upper = m.groups()
        if upper:
            raise NotQuantifierFree(f"quantifier or unknown token {upper!r}")
        if num:
            toks.append(("num", num))
        elif ident:
            toks.append(("mod", ident) if ident == "mod" else ("var", ident))
        else:
            toks.append(("op", op))
        pos = m.end()
    toks.append(("eof", ""))
    i = 0

    def peek():
        return toks[i]

    def take(kind=None, value=None):
        nonlocal i
        tok = toks[i]
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise NotQuantifierFree(f"expected {value or kind}, found {tok[1]!r}")
        i += 1
        return tok

    def linear():
        coeffs: dict[str, int] = {}
        const = 0
        sign = 1
        if peek() == ("op", "-"):
            take()
            sign = -1
        while True:
            coeff, var = 1, None
            while True:
                tok = take()
                if tok[0] == "num":
                    coeff *= int(tok[1])
                elif tok[0] == "var":
                    var = tok[1]
                else:
                    raise NotQuantifierFree(f"bad term at {tok[1]!r}")
                if peek() == ("op", "*"):
                    take()
                    continue
                break
            if var is None:
                const += sign * coeff
            else:
                coeffs[var] = coeffs.get(var, 0) + sign * coeff
            if peek() in (("op", "+"), ("op", "-")):
                sign = 1 if take()[1] == "+" else -1
                continue
            return coeffs, const

    def atom():
        lc, lk = linear()
        rel = take("op")[1]
        rc, rk = linear()
        coeffs = dict(lc)
        for v, c in rc.items():
            coeffs[v] = coeffs.get(v, 0) - c
        if rel == "==":
            take("mod")
            return ("cong", coeffs, lk - rk, int(take("num")[1]))
        if rel not in _REL:
            raise NotQuantifierFree(f"unknown relation {rel!r}")
        return ("cmp", coeffs, lk - rk, rel)

    def unary():
        if peek() == ("op", "!"):
            take()
            return ("not", unary())
        if peek() == ("op", "("):
            take()
            f = disj()
            take("op", ")")
            return f
        return atom()

    def conj():
        args = [unary()]
        while peek() == ("op", "&"):
            take()
            args.append(unary())
        return args[0] if len(args) == 1 else ("and", args)

    def disj():
        args = [conj()]
        while peek() == ("op", "|"):
            take()
            args.append(conj())
        return args[0] if len(args) == 1 else ("or", args)

    f = disj()
    take("eof")
    return f
