import math

import numpy as np
import pytest
import sympy as sp

from shellfem.expr import (Bin, Call, Const, EvalDomainError, ExprError, Num,
                           Unary, Var, differentiate, evaluate, parse,
                           simplify, to_string)

FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


def random_ast(rng, depth=0, lo=0.0):
    """A random AST whose numbers are drawn from [lo, 10]."""
    r = rng.random()
    if depth > 5 or r < 0.25:
        choice = rng.integers(0, 4)
        if choice == 0:
            return Num(float(np.round(rng.uniform(lo, 10), 3)))
        if choice == 1:
            return Var("x1")
        if choice == 2:
            return Var("x2")
        return Const("pi" if rng.random() < 0.5 else "e")
    if r < 0.35:
        return Unary(random_ast(rng, depth + 1, lo))
    if r < 0.5:
        return Call(FUNCS[rng.integers(0, len(FUNCS))],
                    random_ast(rng, depth + 1, lo))
    op = "+-*/^"[rng.integers(0, 5)]
    return Bin(op, random_ast(rng, depth + 1, lo),
               random_ast(rng, depth + 1, lo))


def test_round_trip_fuzz_1000():
    rng = np.random.default_rng(20240817)
    failures = 0
    for _ in range(1000):
        ast = random_ast(rng)
        text = to_string(ast)
        if parse(text) != ast:
            failures += 1
    assert failures == 0


def test_round_trip_keeps_the_value_of_negative_numbers():
    # the parser reads "-2" as Unary(Num(2)), so a Num(-2), which simplify
    # makes, cannot come back as the same AST; its text keeps its value,
    # also for a negative zero: exp(1 / -0) is exp(-inf) = 0
    for src, x1, want in (("(-2) ^ x1", 2.0, 4.0), ("exp(1 / -0)", 0.0, 0.0)):
        text = to_string(simplify(parse(src)))
        assert text == src and evaluate(parse(text), x1, 0.0) == want
    rng = np.random.default_rng(20241021)
    for _ in range(1000):
        ast = random_ast(rng, lo=-10.0)
        try:
            want = evaluate(ast, 0.7, 1.3)
        except EvalDomainError:
            continue
        assert evaluate(parse(to_string(ast)), 0.7, 1.3) == want, ast


@pytest.mark.parametrize("text,x1,x2,expect", [
    ("sin(pi*x1)*x2", 0.5, 2.0, 2.0),
    ("2+3*4", 0, 0, 14.0),
    ("(2+3)*4", 0, 0, 20.0),
    ("2^3^2", 0, 0, 512.0),        # right associative
    ("-2^2", 0, 0, -4.0),          # power binds tighter than unary minus
    ("2--3", 0, 0, 5.0),
    ("6/3/2", 0, 0, 1.0),          # left associative
    ("1-2-3", 0, 0, -4.0),
    ("sqrt(x1^2)", -3.0, 0, 3.0),
    ("abs(-x1)", 2.5, 0, 2.5),
    ("exp(0)+log(e)", 0, 0, 2.0),
    ("2.5e-1", 0, 0, 0.25),
    ("1E+3*x1 - 2e2", 2.0, 0, 1800.0),
])
def test_precedence_and_values(text, x1, x2, expect):
    assert evaluate(parse(text), x1, x2) == pytest.approx(expect, rel=1e-14)


def test_syntax_error_offset():
    with pytest.raises(ExprError) as exc:
        parse("x1 + * 2")
    assert "5" in str(exc.value)


@pytest.mark.parametrize("text,message,pos", [
    ("1.2.3", "bad number '1.2.3'", 0),
    ("x1 $", "unexpected character '$'", 3),
    ("sin x1", "expected '('", 4),
    ("x1 x2", "unexpected trailing input 'x2'", 3),
    ("2 +", "unexpected end of expression", 3),
    ("sin(", "unexpected end of expression", 4),
    ("", "unexpected end of expression", 0),
])
def test_parse_errors_name_the_fault_and_its_offset(text, message, pos):
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert exc.value.pos == pos
    assert str(exc.value) == f"{message} (at offset {pos})"


def test_unknown_identifier():
    with pytest.raises(ExprError):
        parse("x3 + 1")
    with pytest.raises(ExprError):
        parse("foo(x1)")


def test_domain_error():
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x1)"), -1.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1"), 0.0, 1.0)


def test_vectorized_evaluation():
    ast = parse("x1^2 + sin(x2)")
    x1 = np.linspace(0, 1, 7)
    x2 = np.linspace(-1, 1, 7)
    out = evaluate(ast, x1, x2)
    assert np.allclose(out, x1 ** 2 + np.sin(x2))


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    texts = ["sin(x1*x2)", "x1^3 - 2*x2^2 + x1*x2", "exp(x1)*cos(x2)",
             "sqrt(1 + x1^2 + x2^2)", "x1/(1+x2^2)"]
    for text in texts:
        ast = parse(text)
        for var, idx in (("x1", 0), ("x2", 1)):
            dast = differentiate(ast, var)
            pts = rng.uniform(0.2, 0.8, (20, 2))
            h = 1e-6
            step = np.zeros(2)
            step[idx] = h
            fd = (evaluate(ast, *(pts + step).T) -
                  evaluate(ast, *(pts - step).T)) / (2 * h)
            an = evaluate(dast, pts[:, 0], pts[:, 1])
            assert np.allclose(an, fd, atol=1e-8), (text, var)


@pytest.mark.parametrize("text", ["tan(x1 * x2)", "log(x1 + x2^2)",
                                  "abs(x1 - x2)", "x1^x2", "x1^(2*pi)"])
def test_derivative_matches_sympy(text):
    # at points where each expression is differentiable: x1, x2 > 0,
    # x1 != x2 and x1 x2 < pi / 2
    x = sp.symbols("x1 x2", real=True)
    want = sp.sympify(text.replace("^", "**"),
                      locals={"x1": x[0], "x2": x[1], "abs": sp.Abs})
    pts = np.random.default_rng(9).uniform(0.2, 1.2, (40, 2))
    for var, sym in zip(("x1", "x2"), x):
        got = differentiate(parse(text), var)
        exact = sp.lambdify(x, sp.diff(want, sym), "numpy")
        assert np.allclose(evaluate(got, *pts.T), exact(*pts.T),
                           rtol=1e-12, atol=1e-12), (text, var)
    if text == "x1^(2*pi)":
        # a constant exponent is differentiated as one: no log(x1) factor
        assert "log" not in to_string(differentiate(parse(text), "x1"))


def test_exponent_constant_in_the_variable_takes_the_power_rule():
    # d/dx1 x1^x2 = x2 x1^(x2 - 1), finite at x1 = 0 where the general form
    # x1^x2 (x2 / x1) is not
    got = differentiate(parse("x1^x2"), "x1")
    assert to_string(got) == "x2 * x1 ^ (x2 - 1)"
    assert evaluate(got, 0.0, 3.0) == 0.0


def test_simplify_folds_each_operator_alone():
    # a constant pair is folded by its own operator, and only to a finite
    # value: the sum is folded though the power of the same pair overflows
    assert simplify(parse("2 + 1e308")) == Num(2 + 1e308)
    assert simplify(parse("2 * 3 - 1 / 4")) == Num(5.75)
    for text in ("2 ^ 1e308", "1 / 0", "(-8) ^ (1 / 3)", "0 ^ (-1)"):
        assert isinstance(simplify(parse(text)), Bin), text


def test_simplify_folds_nothing_that_is_not_finite():
    # a zero absorbs a constant partner only where the fold is finite, so the
    # simplified text raises as the original does; it absorbs a partner that
    # holds a variable, as derivatives need, though log(x1) is -inf at 0
    for text in ("0 / 0", "0 * (1 / 0)", "0 * log(0)"):
        for ast in (parse(text), simplify(parse(text))):
            with pytest.raises(EvalDomainError):
                evaluate(ast, 0.5, 0.5)
    assert simplify(parse("0 * log(x1)")) == Num(0.0)


def test_simplify_preserves_value():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ast = random_ast(rng)
        s = simplify(ast)
        x1, x2 = rng.uniform(0.1, 0.9, 2)
        try:
            a = evaluate(ast, x1, x2)
        except EvalDomainError:
            continue
        b = evaluate(s, x1, x2)
        assert np.isclose(a, b, rtol=1e-10, atol=1e-10)


def test_constants_survive_round_trip():
    ast = parse("pi*e")
    assert to_string(ast) == "pi * e"
    assert evaluate(ast, 0, 0) == pytest.approx(math.pi * math.e)
