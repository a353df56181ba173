"""Arithmetic expression language for system definitions.

Grammar (left-associative +,-,*,/; right-associative ^; unary minus
binds tighter than ^, so -x^2 means (-x)^2):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | 't' | ident '[' integer ']' | ident
            | func '(' expr (',' expr)? ')' | '(' expr ')'

Known functions: abs, sin, cos, exp, tanh, sqrt (one argument) and
min, max (two arguments).  ``t`` is the time symbol, ``x[i]``/``y[i]``
are state references, any other identifier is a parameter reference.
The pretty-printer emits a canonical form that reparses to an identical
tree and is a fixed point of print-then-parse.

Trees are compiled once into closures (``compile_map``,
``compile_expression``) that take a scalar time or a 1-D integer array of
times; ``evaluate`` compiles and calls.  Over an array of times the result
equals the scalar calls bit for bit and raises what the first failing
scalar call raises.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ParseError

__all__ = [
    "Num",
    "Time",
    "Ref",
    "Neg",
    "Call",
    "Bin",
    "parse_expression",
    "pretty",
    "evaluate",
    "compile_expression",
    "compile_map",
    "free_refs",
    "FUNCTIONS",
]

FUNCTIONS = {
    "abs": (1, abs),
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, math.exp),
    "tanh": (1, math.tanh),
    "sqrt": (1, math.sqrt),
    "min": (2, min),
    "max": (2, max),
}

_SYMBOLS = "+-*/^()[],"


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Time:
    pass


@dataclass(frozen=True)
class Ref:
    """State reference when ``index`` is set, else a parameter reference."""

    name: str
    index: Optional[int] = None


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple[object, ...]


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | symbol | end
    text: str
    line: int
    column: int


def _tokenize(src: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            start = i
            start_col = col
            while i < n and (src[i].isdigit() or src[i] == "."):
                i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    i = j
                    while i < n and src[i].isdigit():
                        i += 1
            text = src[start:i]
            if text.count(".") > 1:
                raise ParseError(f"malformed number '{text}'", line, start_col)
            tokens.append(_Token("number", text, line, start_col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(_Token("ident", src[start:i], line, start_col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("symbol", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == text:
            return self.advance()
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"expected '{text}', found {shown!r}", tok.line, tok.column)

    def at_symbol(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text in texts

    def expr(self):
        node = self.term()
        while self.at_symbol("+", "-"):
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_symbol("*", "/"):
            op = self.advance().text
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        base = self.unary()
        if self.at_symbol("^"):
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def unary(self):
        if self.at_symbol("-"):
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.at_symbol("["):
                self.advance()
                idx = self.peek()
                if idx.kind != "number" or not idx.text.isdigit():
                    shown = idx.text if idx.kind != "end" else "end of input"
                    raise ParseError(f"expected integer index, found {shown!r}", idx.line, idx.column)
                self.advance()
                self.expect("]")
                return Ref(name, int(idx.text))
            if self.at_symbol("("):
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", tok.line, tok.column)
                arity = FUNCTIONS[name][0]
                self.advance()
                args = [self.expr()]
                while self.at_symbol(","):
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != arity:
                    raise ParseError(
                        f"'{name}' expects {arity} argument(s), got {len(args)}",
                        tok.line,
                        tok.column,
                    )
                return Call(name, tuple(args))
            if name == "t":
                return Time()
            return Ref(name, None)
        if self.at_symbol("("):
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", tok.line, tok.column)


def parse_expression(src: str):
    """Parse source text into an expression tree; errors carry line/column."""
    if not src or not src.strip():
        raise ParseError("empty expression")
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.column)
    return node


def _p_expr(n) -> str:
    if isinstance(n, Bin) and n.op in "+-":
        return f"{_p_expr(n.left)}{n.op}{_p_term(n.right)}"
    return _p_term(n)


def _p_term(n) -> str:
    if isinstance(n, Bin) and n.op in "*/":
        return f"{_p_term(n.left)}{n.op}{_p_factor(n.right)}"
    return _p_factor(n)


def _p_factor(n) -> str:
    if isinstance(n, Bin) and n.op == "^":
        return f"{_p_unary(n.left)}^{_p_factor(n.right)}"
    return _p_unary(n)


def _p_unary(n) -> str:
    if isinstance(n, Neg):
        return f"-{_p_unary(n.arg)}"
    return _p_atom(n)


def _p_atom(n) -> str:
    if isinstance(n, Num):
        return repr(n.value)
    if isinstance(n, Time):
        return "t"
    if isinstance(n, Ref):
        return n.name if n.index is None else f"{n.name}[{n.index}]"
    if isinstance(n, Call):
        return f"{n.fn}({','.join(_p_expr(a) for a in n.args)})"
    return f"({_p_expr(n)})"


def pretty(node) -> str:
    """Canonical text form; reparses to a structurally identical tree."""
    return _p_expr(node)


def _each(fn, values: list) -> np.ndarray:
    """``fn`` element by element over the values that are arrays over time
    (the others repeat), called on Python floats so every result is
    rounded exactly as the scalar call rounds it."""
    n = next(len(v) for v in values if isinstance(v, np.ndarray))
    columns = [v.tolist() if isinstance(v, np.ndarray) else itertools.repeat(v, n) for v in values]
    return np.fromiter(map(fn, *columns), dtype=float, count=n)


def _varies(values) -> bool:
    return any(isinstance(v, np.ndarray) for v in values)


def _power(lhs, rhs):
    if lhs < 0.0 and not float(rhs).is_integer():
        raise ValueError(f"fractional power of a negative base in expression: {lhs!r}^{rhs!r}")
    return lhs ** rhs


def _time(t, x, y):
    return t.astype(float) if isinstance(t, np.ndarray) else float(t)


def _ref(node: Ref, params: dict):
    name, index = node.name, node.index
    if index is None:
        if name not in params:
            def unbound(t, x, y):
                raise ValueError(f"unbound parameter '{name}'")

            return unbound
        value = params[name]
        if type(value) is float:
            return lambda t, x, y: value
        return lambda t, x, y: float(value)
    if name == "x":
        return lambda t, x, y: float(x[index])
    if name == "y":
        def fast(t, x, y):
            if y is None:
                raise ValueError("expression references y but no fast state was given")
            return float(y[index])

        return fast

    def unknown(t, x, y):
        raise ValueError(f"unknown state vector '{name}'")

    return unknown


def _compile(node, params: dict):
    """Closure ``(t, x, y) -> value`` for one tree.

    Only ``+ - * /``, unary minus and references act on whole arrays (numpy
    rounds these exactly as Python floats do); ``^`` and every function run
    their scalar call element by element.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda t, x, y: value
    if isinstance(node, Time):
        return _time
    if isinstance(node, Ref):
        return _ref(node, params)
    if isinstance(node, Neg):
        arg = _compile(node.arg, params)
        return lambda t, x, y: -arg(t, x, y)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.fn][1]
        args = [_compile(a, params) for a in node.args]

        def call(t, x, y):
            values = [a(t, x, y) for a in args]
            return _each(fn, values) if _varies(values) else float(fn(*values))

        return call
    if isinstance(node, Bin):
        left, right = _compile(node.left, params), _compile(node.right, params)
        if node.op == "+":
            return lambda t, x, y: left(t, x, y) + right(t, x, y)
        if node.op == "-":
            return lambda t, x, y: left(t, x, y) - right(t, x, y)
        if node.op == "*":
            return lambda t, x, y: left(t, x, y) * right(t, x, y)
        if node.op == "/":
            def divide(t, x, y):
                lhs, rhs = left(t, x, y), right(t, x, y)
                if (rhs == 0.0).any() if isinstance(rhs, np.ndarray) else rhs == 0.0:
                    raise ZeroDivisionError("division by zero in expression")
                return lhs / rhs

            return divide

        def power(t, x, y):
            lhs, rhs = left(t, x, y), right(t, x, y)
            if not _varies((lhs, rhs)):
                return _power(lhs, rhs)
            integral = np.isfinite(rhs) & (np.floor(rhs) == rhs)
            if np.any((np.asarray(lhs) < 0.0) & ~integral):
                # _table reruns the scalar calls, whose message names the point
                raise ValueError("fractional power of a negative base in expression")
            return _each(operator.pow, [lhs, rhs])

        return power
    raise TypeError(f"not an expression node: {node!r}")


def _table(runs, t: np.ndarray, x, y) -> np.ndarray:
    """Values of the compiled trees at every time of ``t``, shape (len(t), len(runs)).

    One pass over the whole time array; if it raises, the points are run
    again one at a time, in time order and tree by tree, so the exception
    and message are the ones the scalar calls give.
    """
    out = np.empty((len(t), len(runs)))
    try:
        with np.errstate(all="ignore"):
            for j, run in enumerate(runs):
                out[:, j] = run(t, x, y)
    except Exception:
        for i, s in enumerate(t.tolist()):
            out[i] = [run(s, x, y) for run in runs]
    return out


def compile_map(nodes, params=None):
    """Compile trees once into the map ``f(t, x, y=None)``.

    A scalar ``t`` gives the vector of tree values; a 1-D integer array of
    times gives the ``(len(t), len(nodes))`` table in one call, equal bit
    for bit to the scalar calls row by row, and raising what the first
    failing scalar call raises.  Division by zero, sqrt of negatives and a
    fractional power of a negative base raise.
    """
    runs = [_compile(node, params or {}) for node in nodes]

    def f(t, x, y=None):
        if isinstance(t, np.ndarray):
            return _table(runs, t, x, y)
        return np.array([run(t, x, y) for run in runs])

    return f


def compile_expression(node, params=None):
    """Compile one tree into ``f(t, x, y=None)``: a float for a scalar
    ``t``, one value per time for a 1-D integer array (see compile_map)."""
    run = _compile(node, params or {})

    def f(t, x, y=None):
        if isinstance(t, np.ndarray):
            return _table([run], t, x, y)[:, 0]
        return run(t, x, y)

    return f


def evaluate(node, t, x, y=None, params=None) -> float:
    """Value of the tree at (t, x, y): compile, then call."""
    return compile_expression(node, params)(t, x, y)


def free_refs(node) -> set:
    """All (name, index) references in the tree; index None for parameters."""
    if isinstance(node, Ref):
        return {(node.name, node.index)}
    if isinstance(node, Neg):
        return free_refs(node.arg)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= free_refs(a)
        return out
    if isinstance(node, Bin):
        return free_refs(node.left) | free_refs(node.right)
    return set()
