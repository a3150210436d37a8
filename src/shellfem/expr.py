"""Tiny math expression language used in config files and chart definitions.

Grammar (conventional precedence, ^ is right associative and binds tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x1' | 'x2' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

Supported functions: sin cos tan exp log sqrt abs.

`differentiate` takes exact partials.  `jet` takes those of a list of
expressions up to an order, each mixed partial once, and `partials`
evaluates one order of them; the built-in charts and the manufactured
solutions read their derivatives through this pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

CONSTANTS = {"pi": math.pi, "e": math.e}

_NP_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
FUNCTIONS = tuple(_NP_FUNCS)
# the binary operators, which `_eval` applies and `simplify` folds
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "^": np.power}


class ExprError(ValueError):
    """Parse error with the byte offset of the offending token."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class EvalDomainError(ValueError):
    """Raised when evaluation produces a non-finite value (log(-1), 1/0, ...)."""


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x1" or "x2"


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Unary:
    arg: object  # negation is the only unary operator


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


Node = Num | Var | Const | Unary | Bin | Call


# ---------------------------------------------------------------- tokenizer

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []  # (kind, value, pos)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            try:
                value = float(src[i:j])
            except ValueError:
                raise ExprError(f"bad number {src[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# ------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Bin(value, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value in ("x1", "x2"):
                return Var(value)
            if value in CONSTANTS:
                return Const(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ExprError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError("unexpected end of expression" if kind == "end"
                        else f"unexpected token {value!r}", pos)


def parse(src: str) -> Node:
    return _Parser(src).parse()


# ------------------------------------------------------------------ printer

# precedence levels used for minimal parenthesization
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Unary) or (isinstance(node, Num)
                                   and math.copysign(1.0, node.value) < 0):
        return 3                        # a negative number prints its "-"
    return 5


def to_string(node: Node) -> str:
    if isinstance(node, Num):
        v = node.value
        if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
            return f"{v:.0f}"                     # -0.0 keeps its sign
        return repr(v)
    if isinstance(node, Var) or isinstance(node, Const):
        return node.name
    if isinstance(node, Unary):
        s = to_string(node.arg)
        if _prec(node.arg) < 3:
            s = f"({s})"
        return f"-{s}"
    if isinstance(node, Call):
        return f"{node.func}({to_string(node.arg)})"
    if isinstance(node, Bin):
        lp, rp = _prec(node.left), _prec(node.right)
        ls, rs = to_string(node.left), to_string(node.right)
        if node.op == "^":
            # right associative; left operand must be an atom to reparse the same
            if lp <= 4:
                ls = f"({ls})"
            if rp < 3:
                rs = f"({rs})"
        else:
            if lp < _PREC[node.op]:
                ls = f"({ls})"
            # + * are associative as trees only to the left
            if rp <= _PREC[node.op]:
                rs = f"({rs})"
        return f"{ls} {node.op} {rs}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------- evaluator

def evaluate(node: Node, x1, x2):
    """Evaluate over scalars or numpy arrays; raises EvalDomainError on
    non-finite results."""
    with np.errstate(all="ignore"):
        out = _eval(node, np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("expression evaluated to a non-finite value")
    return out


def _eval(node: Node, x1, x2):
    if isinstance(node, Num):
        return np.broadcast_to(np.float64(node.value), np.broadcast(x1, x2).shape).copy()
    if isinstance(node, Var):
        return (x1 if node.name == "x1" else x2).astype(float, copy=True)
    if isinstance(node, Const):
        return np.broadcast_to(np.float64(CONSTANTS[node.name]), np.broadcast(x1, x2).shape).copy()
    if isinstance(node, Unary):
        return -_eval(node.arg, x1, x2)
    if isinstance(node, Call):
        return _NP_FUNCS[node.func](_eval(node.arg, x1, x2))
    if isinstance(node, Bin):
        return _OPS[node.op](_eval(node.left, x1, x2), _eval(node.right, x1, x2))
    raise TypeError(f"not an expression node: {node!r}")


# ----------------------------------------------------------- differentiation

def differentiate(node: Node, var: str) -> Node:
    """Symbolic partial derivative with respect to 'x1' or 'x2'."""
    d = _diff(node, var)
    return simplify(d)


def jet(components, order: int) -> dict:
    """The partials of the expressions `components` (ASTs or strings) up to
    `order`, keyed by the sorted tuple of differentiation indices (0 for x1,
    1 for x2): each mixed partial is taken once."""
    out = {(): [parse(c) if isinstance(c, str) else c for c in components]}
    for k in range(1, order + 1):
        for key in itertools.combinations_with_replacement((0, 1), k):
            out[key] = [differentiate(c, ("x1", "x2")[key[-1]])
                        for c in out[key[:-1]]]
    return out


def partials(jet, points, order: int) -> np.ndarray:
    """The partials of one order of the components of `jet` at points
    (..., 2), as (n, 2, .., 2, ...): the component axis, one axis per index,
    the batch axes."""
    keys = list(itertools.product((0, 1), repeat=order))
    values = {key: [evaluate(c, points[..., 0], points[..., 1])
                    for c in jet[key]]
              for key in set(tuple(sorted(k)) for k in keys)}
    out = np.array([values[tuple(sorted(k))] for k in keys])
    return np.moveaxis(out.reshape((2,) * order + out.shape[1:]), order, 0)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Unary):
        return Unary(_diff(node.arg, var))
    if isinstance(node, Bin):
        u, v = node.left, node.right
        du, dv = _diff(u, var), _diff(v, var)
        if node.op == "+":
            return Bin("+", du, dv)
        if node.op == "-":
            return Bin("-", du, dv)
        if node.op == "*":
            return Bin("+", Bin("*", du, v), Bin("*", u, dv))
        if node.op == "/":
            num = Bin("-", Bin("*", du, v), Bin("*", u, dv))
            return Bin("/", num, Bin("^", v, Num(2.0)))
        # u^v: general form u^v * (dv*log(u) + v*du/u); an exponent constant
        # in `var` takes the power rule
        if simplify(dv) == Num(0.0):
            body = Bin("*", v, Bin("^", u, Bin("-", v, Num(1.0))))
            return Bin("*", body, du)
        inner = Bin("+", Bin("*", dv, Call("log", u)), Bin("/", Bin("*", v, du), u))
        return Bin("*", node, inner)
    if isinstance(node, Call):
        u, du = node.arg, _diff(node.arg, var)
        f = node.func
        if f == "sin":
            outer = Call("cos", u)
        elif f == "cos":
            outer = Unary(Call("sin", u))
        elif f == "tan":
            outer = Bin("/", Num(1.0), Bin("^", Call("cos", u), Num(2.0)))
        elif f == "exp":
            outer = Call("exp", u)
        elif f == "log":
            outer = Bin("/", Num(1.0), u)
        elif f == "sqrt":
            outer = Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", u)))
        elif f == "abs":
            outer = Bin("/", u, Call("abs", u))
        else:
            raise ValueError(f"unknown function {f!r}")
        return Bin("*", outer, du)
    raise TypeError(f"not an expression node: {node!r}")


def _holds_var(node: Node) -> bool:
    return isinstance(node, Var) or any(
        _holds_var(getattr(node, f)) for f in ("arg", "left", "right")
        if hasattr(node, f))


def _zero_absorbs(op: str, node: Node) -> bool:
    """Whether the product or quotient `op` of a zero and `node` folds to
    zero: `node` holds x1 or x2, or 0 op its value is finite."""
    if _holds_var(node):
        return True
    with np.errstate(all="ignore"):
        return bool(np.isfinite(_OPS[op](0.0, _eval(node, 0.0, 0.0))))


def simplify(node: Node) -> Node:
    """Fold zeros/ones and constant subtrees; keeps derivative output readable
    and cheap to evaluate.  No fold is made to a value that is not finite,
    so 0 / 0, 0 * (1 / 0) and 0 * log(0) stay; a zero still absorbs a
    partner that holds x1 or x2, such as 0 * log(x1): derivatives need it."""
    if isinstance(node, (Num, Var, Const)):
        return node
    if isinstance(node, Unary):
        a = simplify(node.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Unary):
            return a.arg
        return Unary(a)
    if isinstance(node, Call):
        return Call(node.func, simplify(node.arg))
    a, b = simplify(node.left), simplify(node.right)
    op = node.op
    if isinstance(a, Num) and isinstance(b, Num):
        with np.errstate(all="ignore"):
            val = float(_OPS[op](a.value, b.value))
        return Num(val) if math.isfinite(val) else Bin(op, a, b)
    zero_a = isinstance(a, Num) and a.value == 0.0
    zero_b = isinstance(b, Num) and b.value == 0.0
    one_a = isinstance(a, Num) and a.value == 1.0
    one_b = isinstance(b, Num) and b.value == 1.0
    if op == "+":
        if zero_a:
            return b
        if zero_b:
            return a
    elif op == "-":
        if zero_b:
            return a
        if zero_a:
            return simplify(Unary(b))
    elif op == "*":
        if zero_a and _zero_absorbs(op, b) or zero_b and _zero_absorbs(op, a):
            return Num(0.0)
        if one_a:
            return b
        if one_b:
            return a
    elif op == "/":
        if zero_a and _zero_absorbs(op, b):
            return Num(0.0)
        if one_b:
            return a
    elif op == "^":
        if one_b:
            return a
        if zero_b:
            return Num(1.0)
    return Bin(op, a, b)
