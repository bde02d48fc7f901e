from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.presburger import (
    FALSE,
    TRUE,
    And,
    ArityMismatch,
    Cmp,
    Cong,
    Exists,
    Forall,
    FormulaSyntaxError,
    LinTerm,
    Not,
    Or,
    UndeclaredVariable,
    _holds,
    _le_forms,
    _make_cong,
    _strictify,
    eliminate_quantifiers,
    free_vars,
    is_quantifier_free,
    membership,
    parse_linear,
    parse_presburger,
    simplify,
    to_text,
)
from helpers import brute_eval, quantifier_window

# The QE corpus: formulas exercising congruences, alternation, negation,
# coefficient rescaling, and boolean structure.  Soundness is checked
# pointwise against windowed brute-force semantics on [-30, 30]^v.
QE_CORPUS = [
    "E y. x = 2*y",
    "E y. x = 2*y & y >= 3",
    "E y. x = 3*y + 1",
    "E y. 2*y <= x & 3*y >= x",
    "E y. x = 5*y & y < 0",
    "A y. y < x | y > x - 10",
    "E y. x + y == 0 mod 4 & y == 1 mod 3 & 0 <= y & y <= 20",
    "E y. 4*y < x & x < 4*y + 4",
    "A y. !(2*y = x)",
    "E z. E y. x = 2*y + 3*z & y >= 0 & z >= 0",
    "x >= 1 & x <= 9 & x == 0 mod 2",
    "!(x == 0 mod 2) & x >= -5",
    "E y. y > x & y < x",
    "E y. y >= x & y <= x",
    "A y. y > 0 | y <= 0",
    "E y. x - 7*y == 2 mod 3 & x > y",
    "E y. (y >= 0 & x = 2*y) | (y < 0 & x = 3*y)",
    "A z. z < x | x + z == 0 mod 2 | z > x + 8",
    "E y. A z. z > y | z <= x",
    "E y. 6*y == 3 mod 9 & x = y + 1",
    "n >= 4 & n == 0 mod 4",
    "E k. n = 4 + 4*k & k >= 0",
]


def test_parse_examples():
    f = parse_presburger("E y. x = 2*y")
    assert isinstance(f, Exists) and f.var == "y"
    assert isinstance(f.body, Cmp) and f.body.rel == "="
    assert f.body.term == LinTerm.make({"x": 1, "y": -2}, 0)

    g = parse_presburger("x >= 1 & x <= n & x == 0 mod 4")
    assert isinstance(g, And) and len(g.args) == 3
    assert isinstance(g.args[2], Cong) and g.args[2].modulus == 4


def test_parse_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_presburger("x + * 3")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse_presburger("x >= ")
    with pytest.raises(FormulaSyntaxError):
        parse_presburger("x * y = 1")
    with pytest.raises(FormulaSyntaxError):
        parse_presburger("x = 1 )")


def test_parse_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        parse_presburger("x + y >= 0", declared=["x"])
    parse_presburger("x + y >= 0", declared=["x", "y"])  # fine
    parse_presburger("E y. x = 2*y", declared=["x"])  # bound y needs no declaration


def test_parse_print_parse_identity():
    for text in QE_CORPUS:
        f = parse_presburger(text)
        assert parse_presburger(to_text(f)) == f


def test_negative_and_juxtaposed_coefficients():
    # all-negative terms are re-oriented at parse time
    f = parse_presburger("-2x + 3 > 0")
    assert isinstance(f, Cmp)
    assert f.term == LinTerm.make({"x": 2}, -3) and f.rel == "<"
    g = parse_presburger("2*(x + y) - (x - y) = 0")
    assert g.term == LinTerm.make({"x": 1, "y": 3}, 0)


def test_parse_linear_uses_the_formula_grammar():
    assert parse_linear("2*n - l + 3") == LinTerm.make({"n": 2, "l": -1}, 3)
    assert parse_linear(" 0 ") == LinTerm.of_const(0)
    # every spelling the formula grammar takes for a linear term
    for text in ("2n", "n*2", "2 * n", "(n) + n", "+2n", "3n - -(-n) + 0", "2*(n - 1) + 2"):
        assert parse_linear(text) == LinTerm.make({"n": 2}), text


@pytest.mark.parametrize(
    "text,position",
    [("n n", 2), ("2*n 3", 4), ("n mod 2", 2), ("n >= 0", 2), ("n)", 1), ("n*n", 1), ("", 0), ("n +", 3), ("n@", 1)],
)
def test_parse_linear_rejects_malformed_terms(text, position):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_linear(text)
    assert err.value.position == position


def test_parse_linear_reports_trailing_input():
    with pytest.raises(FormulaSyntaxError, match=r"trailing input 'mod' \(at position 2\)"):
        parse_linear("n mod 2")


def test_power_sign_is_a_token_but_not_formula_grammar():
    # "^" is read only by polynomial text; a formula fails where it stands
    with pytest.raises(FormulaSyntaxError, match=r"expected a relation \(at position 1\)"):
        parse_presburger("x^2 >= 0")
    with pytest.raises(FormulaSyntaxError, match=r"trailing input '\^' \(at position 1\)"):
        parse_linear("n^2")


def test_membership_basics():
    f = parse_presburger("x == 0 mod 2")
    assert membership(f, {"x": 4}) is True
    assert membership(f, {"x": 7}) is False
    g = parse_presburger("x >= 1 & x <= 3")
    assert membership(g, {"x": 3}) is True
    assert membership(g, [3]) is True
    with pytest.raises(ArityMismatch):
        membership(g, {})
    with pytest.raises(ArityMismatch):
        membership(g, [1, 2])


def test_membership_refuses_quantified_input_at_every_point():
    # a true first disjunct must not hide the quantifier behind it
    f = parse_presburger("x >= 0 | E y. x = 2*y")
    for x in (1, -1):
        with pytest.raises(ValueError, match="quantifier-free"):
            membership(f, {"x": x})


def test_congruence_with_explicit_residue():
    f = parse_presburger("x == 3 mod 5")
    assert membership(f, {"x": 8}) and not membership(f, {"x": 9})


def test_qe_parity_example():
    f = eliminate_quantifiers(parse_presburger("E y. x = 2*y"))
    assert f == Cong(LinTerm.make({"x": 1}, 0), 2)
    assert to_text(f) == "x == 0 mod 2"


def test_qe_shifted_bound_example():
    f = eliminate_quantifiers(parse_presburger("E y. x = 2*y & y >= 3"))
    for x in range(-20, 21):
        expected = x % 2 == 0 and x >= 6
        assert membership(f, {"x": x}) == expected


def test_qe_idempotent_on_quantifier_free():
    f = parse_presburger("x >= 1 & x <= 9 & x == 0 mod 2")
    g = eliminate_quantifiers(f)
    assert is_quantifier_free(g)
    for x in range(-5, 15):
        assert membership(g, {"x": x}) == membership(f, {"x": x})


@pytest.mark.parametrize("text", QE_CORPUS)
def test_qe_agrees_with_windowed_brute_force(text):
    f = parse_presburger(text)
    g = eliminate_quantifiers(f)
    assert is_quantifier_free(g)
    window = quantifier_window(f)
    fv = sorted(free_vars(f))
    assert free_vars(g) <= free_vars(f)
    for pt in product(range(-30, 31), repeat=len(fv)):
        env = dict(zip(fv, pt))
        assert membership(g, env) == brute_eval(f, env, window), (text, env)


def test_qe_structure_stays_small():
    # coefficient growth is bounded by Cooper's lcm construction; the
    # two-quantifier formula below must stay well under a second
    f = parse_presburger("E z. E y. x = 2*y + 3*z & y >= 0 & z >= 0")
    g = eliminate_quantifiers(f)
    assert is_quantifier_free(g)


def test_not_rendering_round_trips():
    f = Not(parse_presburger("x >= 1 & x <= 3"))
    assert parse_presburger(to_text(f)) == f
    g = Or((parse_presburger("x = 1"), And((parse_presburger("x = 2"), parse_presburger("x = 3")))))
    assert parse_presburger(to_text(g)) == g


# --- the relation table and the atom normalisers ------------------------------

RELATIONS = ("<=", "<", "=", ">=", ">", "!=")
VARS = ("x", "y", "z")


@settings(max_examples=300)
@given(
    st.dictionaries(st.sampled_from(VARS), st.integers(-6, 6)),
    st.fixed_dictionaries({v: st.integers(-10, 10) for v in VARS}),
    st.integers(-3, 3),
    st.sampled_from(RELATIONS),
)
def test_relation_table(coeffs, point, value, rel):
    # the constant puts t at `value` on the point, near every relation's boundary
    t = LinTerm.make(coeffs, value - sum(c * point[v] for v, c in coeffs.items()))
    truth = _holds(value, rel)
    hits = [all(u.eval(point) <= 0 for u in alt) for alt in _le_forms(t, rel)]
    assert any(hits) == truth
    assert sum(hits) <= 1  # the alternatives are disjoint
    assert membership(_strictify(t, rel), point) == truth


@settings(max_examples=200)
@given(st.dictionaries(st.sampled_from(("x", "y")), st.integers(-12, 12)), st.integers(-20, 20), st.integers(1, 12))
def test_make_cong_is_false_exactly_when_unsatisfiable(coeffs, const, modulus):
    # [0, m)^v is a complete residue system, so the box decides satisfiability
    t = LinTerm.make(coeffs, const)
    names = sorted(t.vars())
    box = [dict(zip(names, pt)) for pt in product(range(modulus), repeat=len(names))]
    g = _make_cong(t, modulus)
    assert (g == FALSE) == (not any(t.eval(pt) % modulus == 0 for pt in box))
    assert all(membership(g, pt) == (t.eval(pt) % modulus == 0) for pt in box)


def test_simplify_flattens_dedupes_and_folds_constants():
    a, b = parse_presburger("x <= 3"), parse_presburger("y >= 1")
    a1, b1 = simplify(a), simplify(b)
    assert simplify(And((a, And((b, a)), TRUE))) == And((a1, b1))
    assert simplify(Or((b, FALSE, Or((a, b))))) == Or((b1, a1))
    assert simplify(And((a, FALSE, b))) == FALSE
    assert simplify(Or((a, TRUE))) == TRUE
    assert simplify(And((TRUE, TRUE))) == TRUE
    assert simplify(Or((FALSE, a))) == a1
    assert simplify(Not(TRUE)) == FALSE


def test_simplify_removes_double_negation():
    assert simplify(parse_presburger("!!(x <= 3)")) == simplify(parse_presburger("x <= 3"))
    assert simplify(parse_presburger("!!!(x <= 3)")) == Not(simplify(parse_presburger("x <= 3")))


def test_simplify_tightens_by_the_coefficient_gcd():
    assert simplify(parse_presburger("2*x + 3 <= 0")) == Cmp(LinTerm.make({"x": 1}, 2), "<=")
    assert simplify(parse_presburger("2*x + 3 <= 0")) == simplify(parse_presburger("x <= -2"))
    assert simplify(parse_presburger("4*x - 2*y > 1")) == Cmp(LinTerm.make({"x": -2, "y": 1}, 1), "<=")
    assert simplify(parse_presburger("2*x = 3")) == FALSE
    assert simplify(parse_presburger("4*x = 6*y + 2")) == Cmp(LinTerm.make({"x": 2, "y": -3}, -1), "=")
    assert simplify(parse_presburger("3 < 2")) == FALSE


def test_simplify_reduces_congruences():
    assert to_text(simplify(parse_presburger("6*x == 3 mod 9"))) == "2*x == 1 mod 3"
    assert to_text(simplify(parse_presburger("x + 10*y == 13 mod 4"))) == "x + 2*y == 1 mod 4"
    assert simplify(parse_presburger("3*x == 0 mod 3")) == TRUE
    assert simplify(parse_presburger("4*x == 1 mod 4")) == FALSE
    assert simplify(parse_presburger("4*x + 6 == 0 mod 8")) == FALSE
    assert simplify(parse_presburger("x == 0 mod 1")) == TRUE


def test_simplify_drops_a_quantifier_whose_variable_is_not_free():
    assert simplify(parse_presburger("E y. x >= 1")) == simplify(parse_presburger("x >= 1"))
    assert simplify(parse_presburger("A y. y - y = 0")) == TRUE
    kept = simplify(parse_presburger("A y. y >= 0 | x >= 1"))
    assert isinstance(kept, Forall) and kept.var == "y"


@pytest.mark.parametrize("text", QE_CORPUS)
def test_simplify_is_idempotent(text):
    f = parse_presburger(text)
    for g in (simplify(f), simplify(eliminate_quantifiers(f))):
        assert simplify(g) == g
