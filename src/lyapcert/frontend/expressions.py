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
``compile_expression``); ``evaluate`` compiles and calls.  A closure takes
one point (a scalar time, one state) or a batch of S points: a 1-D integer
array of S times, an (S, n) array of states ``x``, an (S, m) array of fast
states ``y``, or any mix of these with the other inputs shared.  Over a
batch the result equals the scalar calls point by point, bit for bit, and
raises what the first failing scalar call raises.

Each maximal subtree that reads t but no state and holds a function call
or ``^`` (a drive such as ``0.3*cos(1.5707963267948966*t)`` or ``(-1)^t``)
is compiled to run, over an array of times, once per distinct time: the
distinct times of a call are found once and shared by all its trees, the
subtree runs on them, and its values are scattered back over the batch.
These are the scalar calls on the same times, so no bit changes.
"""

from __future__ import annotations

import itertools
import math
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


def _exp(v: float) -> float:
    """``math.exp``, with an overflowing value the IEEE inf that * gives."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _pow(lhs: float, rhs: float) -> float:
    """``lhs ** rhs``, with a power past the float range the IEEE inf of
    its sign, as * gives (negative for an odd power of a negative base)."""
    try:
        return lhs ** rhs
    except OverflowError:
        return -math.inf if lhs < 0.0 and rhs % 2.0 == 1.0 else math.inf


FUNCTIONS = {
    "abs": (1, abs),
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, _exp),
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
    """``fn`` element by element over the values that are arrays over a
    batch (the others repeat), called on Python floats so every result is
    rounded exactly as the scalar call rounds it."""
    n = next(len(v) for v in values if isinstance(v, np.ndarray))
    columns = [v.tolist() if isinstance(v, np.ndarray) else itertools.repeat(v, n) for v in values]
    return np.fromiter(map(fn, *columns), dtype=float, count=n)


def _varies(values) -> bool:
    return any(isinstance(v, np.ndarray) for v in values)


def _power(lhs, rhs):
    if lhs < 0.0 and not float(rhs).is_integer():
        raise ValueError(f"fractional power of a negative base in expression: {lhs!r}^{rhs!r}")
    return _pow(lhs, rhs)


def _time(t, x, y):
    if isinstance(t, _Times):
        t = t.array
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
        return lambda t, x, y: x[index]
    if name == "y":
        def fast(t, x, y):
            if y is None:
                raise ValueError("expression references y but no fast state was given")
            return y[index]

        return fast

    def unknown(t, x, y):
        raise ValueError(f"unknown state vector '{name}'")

    return unknown


class _Times:
    """The array of times of one batched call.  Its distinct times, with
    the inverse that scatters values at them back over the batch, are found
    when a time-only subtree first asks, once for every tree of the call.
    Integer times compare as integers, any others by the bit pattern of
    their float, so -0.0 stays apart from 0.0 and every NaN payload apart."""

    __slots__ = ("array", "_distinct")

    def __init__(self, array: np.ndarray):
        self.array = array
        self._distinct = None

    def distinct(self):
        if self._distinct is None:
            keys = self.array
            if keys.dtype.kind not in "biu":
                keys = np.asarray(keys, dtype=float).view(np.uint64)
            # the sorted distinct keys; each key's place among them is its inverse
            ordered = np.sort(keys)
            first = np.empty(len(keys), dtype=bool)
            first[:1] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            distinct = ordered[first]
            inverse = distinct.searchsorted(keys)
            self._distinct = distinct if keys is self.array else distinct.view(float), inverse
        return self._distinct


# What a subtree reads or runs, as a bit mask.  A subtree that reads t and
# runs a call or ``^`` but reads no state is _PER_TIME: it runs once per
# distinct time of a batch.
_STATE, _TIME, _SCALAR = 1, 2, 4
_PER_TIME = _TIME | _SCALAR


def _compile(node, params: dict):
    """Closure ``(t, x, y) -> value`` for one tree, over the inputs as
    :func:`_inputs` gives them.

    Only ``+ - * /``, unary minus and references act on whole arrays (numpy
    rounds these exactly as Python floats do); ``^`` and every function run
    their scalar call element by element.  Each largest subtree that reads
    t but no state and holds a call or ``^`` (such as ``a*cos(t)`` or
    ``(-1)^t``) runs, over an array of times, on the distinct times only,
    and its values are scattered back over the batch: the same scalar calls
    on the same times, so the values are bit for bit those of the full
    batch, and it raises exactly when the full batch would.
    """
    return _hoist(*_build(node, params))


def _hoist(run, reads: int):
    """``run`` as it is, or if it is ``_PER_TIME``, run on the distinct
    times of a call with an array of times and scattered back over the
    batch (at a scalar time it runs as it is)."""
    if reads != _PER_TIME:
        return run

    def hoisted(t, x, y):
        if not isinstance(t, _Times):
            return run(t, x, y)
        times, inverse = t.distinct()
        return run(times, x, y)[inverse]

    return hoisted


def _build(node, params: dict):
    """The closure of ``node`` and what its subtree reads or runs.  A node
    that reads a state hoists its ``_PER_TIME`` children."""
    if isinstance(node, Num):
        value = node.value
        return (lambda t, x, y: value), 0
    if isinstance(node, Time):
        return _time, _TIME
    if isinstance(node, Ref):
        return _ref(node, params), 0 if node.index is None else _STATE
    if isinstance(node, Neg):
        arg, reads = _build(node.arg, params)
        return (lambda t, x, y: -arg(t, x, y)), reads
    if isinstance(node, Call):
        fn = FUNCTIONS[node.fn][1]
        built = [_build(a, params) for a in node.args]
        reads = _SCALAR
        for _, r in built:
            reads |= r
        args = [_hoist(run, r) if reads & _STATE else run for run, r in built]

        def call(t, x, y):
            values = [a(t, x, y) for a in args]
            return _each(fn, values) if _varies(values) else float(fn(*values))

        return call, reads
    if isinstance(node, Bin):
        (left, lr), (right, rr) = _build(node.left, params), _build(node.right, params)
        reads = lr | rr | (_SCALAR if node.op == "^" else 0)
        if reads & _STATE:
            left, right = _hoist(left, lr), _hoist(right, rr)
        return _binary(node.op, left, right), reads
    raise TypeError(f"not an expression node: {node!r}")


def _binary(op: str, left, right):
    """The closure of a binary node over its operands' closures."""
    if op == "+":
        return lambda t, x, y: left(t, x, y) + right(t, x, y)
    if op == "-":
        return lambda t, x, y: left(t, x, y) - right(t, x, y)
    if op == "*":
        return lambda t, x, y: left(t, x, y) * right(t, x, y)
    if op == "/":
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
        # an integer exponent never fails, so only another one needs the check
        if isinstance(rhs, np.ndarray) or not float(rhs).is_integer():
            integral = np.isfinite(rhs) & (np.floor(rhs) == rhs)
            if np.any((np.asarray(lhs) < 0.0) & ~integral):
                # _table reruns the scalar calls, whose message names the point
                raise ValueError("fractional power of a negative base in expression")
        return _each(_pow, [lhs, rhs])

    return power


_FLOAT = np.dtype(float)


def _inputs(t, x, y):
    """The batch size (None for one point) and the inputs as the closures read them.

    A scalar time passes through; an array of S times becomes a
    :class:`_Times`, whose distinct times the call's trees share.  One
    state becomes a list of Python floats; an (S, n) batch of states
    becomes its (n, S) transpose, so that ``x[i]`` is component i over the
    batch.
    """
    # written out for x and y, without helper calls: this runs on every call
    size = None
    if isinstance(t, np.ndarray):
        size, t = len(t), _Times(t)
    if x.__class__ is not np.ndarray or x.dtype is not _FLOAT:
        x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        size = _same_size(size, len(x))
        x = x.T
    else:
        x = x.tolist()
    if y is not None:
        if y.__class__ is not np.ndarray or y.dtype is not _FLOAT:
            y = np.asarray(y, dtype=float)
        if y.ndim == 2:
            size = _same_size(size, len(y))
            y = y.T
        else:
            y = y.tolist()
    return size, t, x, y


def _same_size(size, other: int) -> int:
    if size is not None and size != other:
        raise ValueError(f"batch inputs of different lengths {size} and {other}")
    return other


def _points(size: int, t, x, y):
    """The points of a batch one at a time, as the scalar calls take them."""
    times = t.array.tolist() if isinstance(t, _Times) else itertools.repeat(t, size)
    xs, ys = (
        v.T.tolist() if isinstance(v, np.ndarray) else itertools.repeat(v, size) for v in (x, y)
    )
    return zip(times, xs, ys)


def _table(runs, size: int, t, x, y) -> np.ndarray:
    """Values of the compiled trees at every point of a batch, shape (size, len(runs)).

    One pass over the whole batch.  If it raises, the points are run again
    one at a time, in batch order and tree by tree, so the exception and
    message are the ones the scalar calls give.
    """
    out = np.empty((size, len(runs)))
    try:
        with np.errstate(all="ignore"):
            for j, run in enumerate(runs):
                out[:, j] = run(t, x, y)
    except Exception:
        for row, point in zip(out, _points(size, t, x, y)):
            row[:] = [run(*point) for run in runs]
    return out


def compile_map(nodes, params=None):
    """Compile trees once into the map ``f(t, x, y=None)``.

    One point (a scalar ``t``, one state ``x`` and ``y``) gives the vector
    of tree values.  A batch of S points gives the ``(S, len(nodes))``
    table in one call: ``t`` a 1-D integer array of S times, ``x`` an
    (S, n) array of states, ``y`` an (S, m) array of fast states, or any
    mix of these, the other inputs shared by every point.  The table equals
    the scalar calls row by row, bit for bit, and raises what the first
    failing scalar call raises.  Division by zero, sqrt of negatives and a
    fractional power of a negative base raise; a power or exp past the
    float range is the IEEE inf of its sign, as a product is.
    """
    runs = [_compile(node, params or {}) for node in nodes]

    def f(t, x, y=None):
        size, t, x, y = _inputs(t, x, y)
        if size is None:
            return np.array([run(t, x, y) for run in runs])
        return _table(runs, size, t, x, y)

    return f


def compile_expression(node, params=None):
    """Compile one tree into ``f(t, x, y=None)``: a float at one point, one
    value per point for a batch (see compile_map)."""
    run = _compile(node, params or {})

    def f(t, x, y=None):
        size, t, x, y = _inputs(t, x, y)
        if size is None:
            return run(t, x, y)
        return _table([run], size, t, x, y)[:, 0]

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
