"""Expression language over the series field.

Grammar (standard precedence, right-associative ``^``)::

    expr    := term (('+' | '-') term)*
    term    := power (('*' | '/') power)*
    power   := unary ('^' exponent)?          # right-associative
    exponent:= ('-')? power | '(' expr ')'
    unary   := ('-' | '+') unary | primary
    primary := NUMBER | 'eps' | 'r' | NAME '(' expr (',' expr)* ')' | '(' expr ')'

``eps`` and ``r`` both denote the distinguished infinitesimal rho.
Functions: sqrt, root(n, x), st, v, abs, sin, cos, exp, log, classify.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import closure
from .errors import DomainError, ParseError, RhoCalcError
from .series import Backend, ExtendedScalar, INF, Kind, LCNumber, format_lc, lc_sum

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d+)?) |
    (?P<name>[A-Za-z_][A-Za-z_0-9]*) |
    (?P<op>[-+*/^(),]) |
    (?P<ws>\s+) |
    (?P<bad>.)
""", re.VERBOSE)

FUNCTIONS = {"sqrt": 1, "root": 2, "st": 1, "v": 1, "abs": 1,
             "sin": 1, "cos": 1, "exp": 1, "log": 1, "classify": 1}


@dataclass(frozen=True)
class Token:
    kind: str       # num | name | op | end
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    out = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        col = m.start() - line_start + 1
        if m.lastgroup == "ws":
            nl = m.group().count("\n")
            if nl:
                line += nl
                line_start = m.start() + m.group().rindex("\n") + 1
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line=line, col=col)
        out.append(Token(m.lastgroup, m.group(), line, col))
    out.append(Token("end", "", line, len(text) - line_start + 1))
    return out


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Eps:
    pass


@dataclass(frozen=True)
class Unary:
    op: str
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple
    line: int = 0
    col: int = 0


Expr = Union[Num, Eps, Unary, BinOp, Call]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.kind == "end" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             line=t.line, col=t.col)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", line=t.line, col=t.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            op = self.next().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.power()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = BinOp(op, e, self.power())
        return e

    def power(self) -> Expr:
        base = self.unary()
        if self.peek().text == "^":
            self.next()
            return BinOp("^", base, self.exponent())
        return base

    def exponent(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Unary("-", self.exponent())
        return self.power()

    def unary(self) -> Expr:
        t = self.peek()
        if t.text in ("-", "+") and t.kind == "op":
            self.next()
            arg = self.unary()
            return arg if t.text == "+" else Unary("-", arg)
        return self.primary()

    def primary(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Num(Fraction(t.text))
        if t.kind == "name":
            if t.text in ("eps", "r", "rho"):
                return Eps()
            if t.text in FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.peek().text == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                n = FUNCTIONS[t.text]
                if len(args) != n:
                    raise ParseError(f"{t.text} takes {n} argument(s), got {len(args)}",
                                     line=t.line, col=t.col)
                return Call(t.text, tuple(args), t.line, t.col)
            raise ParseError(f"unknown name {t.text!r}", line=t.line, col=t.col)
        if t.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {t.text or 'end of input'!r}",
                         line=t.line, col=t.col)


def parse(text: str) -> Expr:
    return _Parser(tokenize(text)).parse()


# -- evaluation ---------------------------------------------------------------

@dataclass(frozen=True)
class Env:
    backend: str = "rational"
    horizon: Fraction = INF


def _const_rational(x) -> Optional[Fraction]:
    """The exact rational value of a constant LCNumber, else None."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, LCNumber):
        if x.is_zero():
            return Fraction(0)
        if len(x.terms) == 1 and x.terms[0][0] == 0:
            c = x.terms[0][1]
            if isinstance(c, Fraction):
                return c
            if isinstance(c, complex) and c.imag == 0 and float(c.real).is_integer():
                return Fraction(int(c.real))
    return None


def evaluate(node: Expr, env: Env = Env()):
    """Evaluate to LCNumber / ExtendedScalar / Fraction / Kind."""
    b = env.backend

    def ev(n):
        return evaluate(n, env)

    def as_lc(v, where=""):
        if isinstance(v, LCNumber):
            return v
        raise DomainError(f"series value required{where}")

    if isinstance(node, Num):
        c = node.value if b == "rational" else complex(node.value)
        return LCNumber({Fraction(0): c}, horizon=env.horizon, backend=b)
    if isinstance(node, Eps):
        return LCNumber.rho(backend=b).truncate(env.horizon)
    if isinstance(node, Unary):
        return -as_lc(ev(node.arg), " under unary minus")
    if isinstance(node, BinOp) and node.op in ("+", "-"):
        # a left-deep chain a + b - c + ... is summed in one pass, not
        # folded pairwise (which costs O(n^2) on n growing partial sums)
        links = []
        while isinstance(node, BinOp) and node.op in ("+", "-"):
            links.append(node)
            node = node.left
        summands = [(1, as_lc(ev(node)))]
        for link in reversed(links):
            summands.append((1 if link.op == "+" else -1, as_lc(ev(link.right))))
        return lc_sum(summands)
    if isinstance(node, BinOp):
        if node.op == "^":
            # eps^q is the monomial itself: its base is not evaluated
            base = None if isinstance(node.left, Eps) else as_lc(ev(node.left))
            e = ev(node.right)
            q = _const_rational(e)
            if q is None:
                raise DomainError("exponents must be rational constants")
            if base is None:
                c = Fraction(1) if b == "rational" else 1.0
                return LCNumber({q: c}, horizon=env.horizon, backend=b)
            if q.denominator == 1:
                return base ** int(q)
            r = closure.nth_root(base, q.denominator)
            return r ** q.numerator
        l, r = as_lc(ev(node.left)), as_lc(ev(node.right))
        if node.op == "*":
            return l * r
        return l / r
    if isinstance(node, Call):
        a = ev(node.args[0])
        try:
            if node.name == "sqrt":
                return closure.sqrt(as_lc(a))
            if node.name == "root":
                n = _const_rational(a)
                if n is None or n.denominator != 1 or n <= 0:
                    raise DomainError("root index must be a positive integer")
                return closure.nth_root(as_lc(ev(node.args[1])), int(n))
            if node.name == "st":
                return as_lc(a).standard_part()
            if node.name == "v":
                val = as_lc(a).valuation()
                return val
            if node.name == "abs":
                return as_lc(a).abs()
            if node.name == "sin":
                return closure.lc_sin(as_lc(a))
            if node.name == "cos":
                return closure.lc_cos(as_lc(a))
            if node.name == "exp":
                return closure.lc_exp(as_lc(a))
            if node.name == "log":
                return closure.lc_log(as_lc(a))
            if node.name == "classify":
                return as_lc(a).kind()
        except RhoCalcError as exc:
            raise type(exc)(f"{exc} (at line {node.line}, col {node.col})") from exc
    raise DomainError(f"cannot evaluate node {node!r}")


def render(value) -> str:
    if isinstance(value, LCNumber):
        return format_lc(value)
    if isinstance(value, ExtendedScalar):
        if value.infinite:
            return {1: "+inf", -1: "-inf", 0: "complex-inf"}[value.sign]
        v = value.value
        if isinstance(v, complex):
            return repr(v.real) if v.imag == 0 else repr(v)
        return str(v)
    if isinstance(value, Kind):
        return value.value
    return str(value)


def serialize(x: LCNumber) -> str:
    return format_lc(x)


def deserialize(text: str, backend: str = "rational") -> LCNumber:
    v = evaluate(parse(text), Env(backend=backend))
    if not isinstance(v, LCNumber):
        raise ParseError("text does not denote a series")
    return v
