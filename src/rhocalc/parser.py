"""Expression language over the series field.

Grammar (standard precedence, right-associative ``^``)::

    expr    := term (('+' | '-') term)*
    term    := power (('*' | '/') power)*
    power   := unary ('^' exponent)?          # right-associative
    exponent:= ('-')? power | '(' expr ')'
    unary   := ('-' | '+') unary | primary
    primary := NUMBER | IMAG | 'eps' | 'r' | NAME '(' expr (',' expr)* ')' | '(' expr ')'

A NUMBER such as ``12``, ``0.5`` or ``2.5e-07`` denotes its exact
rational value; an IMAG is a NUMBER followed by ``j`` and exists only on
the float backend, so that every coefficient that ``format_lc`` prints
reads back.  ``eps`` and ``r`` both denote the distinguished infinitesimal rho.
Functions: sqrt, root(n, x), st, v, abs, sin, cos, exp, log, classify.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Tuple, Union

from . import closure
from .errors import (BackendError, BudgetError, DivisionByZero, DomainError,
                     ParseError, RhoCalcError)
from .series import (INF, Backend, ExtendedScalar, Kind, LCNumber, _as_exp,
                     _coerce_backend, _int_max_str_digits, _text, _times_monomial,
                     check_budget, format_lc, lc_sum)

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d+)?([eE][-+]?\d+)?j?) |
    (?P<name>[A-Za-z_][A-Za-z_0-9]*) |
    (?P<op>[-+*/^(),]) |
    (?P<ws>\s+) |
    (?P<bad>.)
""", re.VERBOSE)

FUNCTIONS = {"sqrt": 1, "root": 2, "st": 1, "v": 1, "abs": 1,
             "sin": 1, "cos": 1, "exp": 1, "log": 1, "classify": 1}

Token = Tuple[str, str, int]    # (kind, text, offset); kind num | name | op | end


def _position(text: str, offset: int) -> Tuple[int, int]:
    """(line, col), both from 1, of a character offset into ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def tokenize(text: str) -> List[Token]:
    """The tokens of ``text``, ending with ``("end", "", len(text))``."""
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)
            if m.lastgroup != "ws"]
    for kind, tok, at in toks:
        if kind == "bad":
            line, col = _position(text, at)
            raise ParseError(f"unexpected character {tok!r}", line=line, col=col)
    toks.append(("end", "", len(text)))
    return toks


# -- AST --------------------------------------------------------------------
# Named tuples: immutable, and cheaper to build than frozen dataclasses.

class Num(NamedTuple):
    value: Union[int, Fraction]


class Imag(NamedTuple):
    value: Union[int, Fraction]     # the literal is value*1j
    text: str
    line: int = 0
    col: int = 0


class Eps(NamedTuple):
    pass


class Unary(NamedTuple):
    op: str
    arg: object


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Call(NamedTuple):
    name: str
    args: Tuple
    line: int = 0
    col: int = 0


Expr = Union[Num, Imag, Eps, Unary, BinOp, Call]
_EPS = Eps()


class _Parser:
    """Recursive descent over the token tuples.  An operator token's text
    is unique to it, so the parser tests texts, not kinds."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def error(self, message: str, tok: Token) -> ParseError:
        line, col = _position(self.text, tok[2])
        return ParseError(message, line=line, col=col)

    def expect(self, text: str) -> None:
        t = self.toks[self.i]
        if t[1] != text:
            raise self.error(f"expected {text!r}, found {t[1] or 'end of input'!r}", t)
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        t = self.toks[self.i]
        if t[0] != "end":
            raise self.error(f"unexpected {t[1]!r}", t)
        return e

    def expr(self) -> Expr:
        e = self.term()
        toks = self.toks
        while toks[self.i][1] in ("+", "-"):
            op = toks[self.i][1]
            self.i += 1
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.power()
        toks = self.toks
        while toks[self.i][1] in ("*", "/"):
            op = toks[self.i][1]
            self.i += 1
            e = BinOp(op, e, self.power())
        return e

    def power(self) -> Expr:
        base = self.unary()
        if self.toks[self.i][1] == "^":
            self.i += 1
            return BinOp("^", base, self.exponent())
        return base

    def exponent(self) -> Expr:
        if self.toks[self.i][1] == "-":
            self.i += 1
            return Unary("-", self.exponent())
        return self.power()

    def unary(self) -> Expr:
        op = self.toks[self.i][1]
        if op == "-" or op == "+":
            self.i += 1
            arg = self.unary()
            return arg if op == "+" else Unary("-", arg)
        return self.primary()

    def primary(self) -> Expr:
        t = self.toks[self.i]
        self.i += 1
        kind, text = t[0], t[1]
        if kind == "num":
            if text[-1] != "j":
                return Num(_number(text))
            line, col = _position(self.text, t[2])
            return Imag(_number(text[:-1]), text, line, col)
        if kind == "name":
            if text in ("eps", "r", "rho"):
                return _EPS
            if text in FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.toks[self.i][1] == ",":
                    self.i += 1
                    args.append(self.expr())
                self.expect(")")
                n = FUNCTIONS[text]
                line, col = _position(self.text, t[2])
                if len(args) != n:
                    raise ParseError(f"{text} takes {n} argument(s), got {len(args)}",
                                     line=line, col=col)
                return Call(text, tuple(args), line, col)
            raise self.error(f"unknown name {text!r}", t)
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise self.error(f"unexpected {text or 'end of input'!r}", t)


def _number(text: str) -> Union[int, Fraction]:
    """The exact value of an unsigned number literal: an int, or a
    Fraction if it has a point or an exponent (``1e-05`` is 1/100000).
    A mantissa or exponent of more digits than Python converts from text
    is refused."""
    limit = _int_max_str_digits()
    if limit and len(text) > limit:
        mantissa, _, exp = text.lower().partition("e")
        digits = max(len(mantissa) - ("." in mantissa), len(exp.lstrip("+-")))
        if digits > limit:
            raise BudgetError(f"work budget exceeded: a number literal of {digits} "
                              f"digits (at most {limit})")
    if "e" in text or "E" in text:
        exp = int(text.lower().partition("e")[2])
        check_budget("a number literal", bits=abs(exp) * math.log2(10))
        return Fraction(text)
    return Fraction(text) if "." in text else int(text)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# -- evaluation ---------------------------------------------------------------

@dataclass(frozen=True)
class Env:
    """Evaluation settings.  The backend is coerced to a :class:`Backend`
    once per Env, and ``zero`` is the empty series whose ``_make`` builds
    every literal and monomial."""

    backend: Backend = Backend.RATIONAL
    horizon: Fraction = INF
    zero: LCNumber = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        backend = _coerce_backend(self.backend)
        horizon = INF if self.horizon == INF else _as_exp(self.horizon)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "zero", LCNumber((), horizon, backend))


_RATIONAL = (int, Fraction)     # the values of folded constant subtrees
_ZERO = Fraction(0)
_METHODS = {"st": "standard_part", "v": "valuation", "abs": "abs", "classify": "kind"}
_LIFTS = {"sqrt": "sqrt", "sin": "lc_sin", "cos": "lc_cos", "exp": "lc_exp",
          "log": "lc_log"}


class _Evaluator:
    """One evaluation.  A constant subtree (numbers under unary minus,
    ``+ - * /`` and ``^`` with an integer exponent) evaluates to its exact
    value, an int or a Fraction; any other subtree to an LCNumber, or to
    the value of a function call.  A constant becomes a series only where
    it meets one (:meth:`lit`, :meth:`scale`), with the terms and horizon
    that the product or sum with the literal ``c + O(rho^H)`` has."""

    def __init__(self, env: Env):
        self.zero = env.zero
        self.H = env.horizon
        self.rational = env.backend is Backend.RATIONAL
        self.one = Fraction(1) if self.rational else 1 + 0j

    def value(self, node: Expr):
        v = self.ev(node)
        return self.lit(v) if type(v) in _RATIONAL and type(node) is not Call else v

    def ev(self, node: Expr):
        rule = _RULES.get(type(node))
        if rule is None:
            raise DomainError(f"cannot evaluate node {node!r}")
        return rule(self, node)

    # -- constants meeting series -----------------------------------------
    def coeff(self, c, imag: bool = False):
        """The backend coefficient of a constant, or of the imaginary
        constant c*1j; on the float backend the float nearest its exact
        value."""
        if self.rational:
            return c if type(c) is Fraction else Fraction(c)
        try:
            return complex(0.0, c) if imag else complex(c)
        except OverflowError:
            raise BackendError("constant too large for the float backend") from None

    def lit(self, c) -> LCNumber:
        """The constant c as a series: its one term, below the horizon."""
        cc = self.coeff(c)
        return self.zero._make(((_ZERO, cc),) if cc and 0 < self.H else (), self.H)

    def monomial(self, q) -> LCNumber:
        """rho^q below the horizon."""
        q = _as_exp(q)
        return self.zero._make(((q, self.one),) if self.H is INF or q < self.H else (),
                               self.H)

    def scale(self, c, x: LCNumber) -> LCNumber:
        """lit(c) * x, by one product per term of x: the horizon is the
        product's min(H + v(x), horizon(x))."""
        cc = self.coeff(c)
        if not (cc and x.terms and 0 < self.H):
            return self.lit(c) * x
        h = x.horizon if self.H is INF else min(x.horizon, self.H + x.terms[0][0])
        terms = x.terms if h == INF else tuple(t for t in x.terms if t[0] < h)
        return _times_monomial(x, terms, 0, cc, h)

    def operand(self, node: Expr, where: str = ""):
        return _checked(node, self.ev(node), where)

    def series(self, node: Expr, v) -> LCNumber:
        """v, the value of node, as a series."""
        v = _checked(node, v)
        return v if isinstance(v, LCNumber) else self.lit(v)

    # -- rules, one per node type ------------------------------------------
    def num(self, node: Num):
        return node.value

    def imag(self, node: Imag) -> LCNumber:
        if self.rational:
            raise BackendError(f"the imaginary literal {node.text!r} needs the float "
                               f"backend (at line {node.line}, col {node.col})")
        return self.lit(self.coeff(node.value, imag=True))

    def eps(self, node: Eps) -> LCNumber:
        return self.monomial(1)

    def unary(self, node: Unary):
        return -self.operand(node.arg, " under unary minus")

    def binop(self, node: BinOp):
        op = node.op
        if op == "+" or op == "-":
            return self.chain(node)
        if op == "^":
            return self.power(node)
        l, r = self.operand(node.left), self.operand(node.right)
        lc, rc = type(l) in _RATIONAL, type(r) in _RATIONAL
        if op == "*":
            if lc:
                return l * r if rc else self.scale(l, r)
            return self.scale(r, l) if rc else l * r
        if rc:
            if not r:
                raise DivisionByZero("division by zero")
            return Fraction(l, r) if lc else self.scale(Fraction(1, r), l)
        return self.scale(l, closure.inverse(r)) if lc else l / r

    def chain(self, node: BinOp):
        """A left-deep chain a + b - c + ... in one pass: its constants
        are summed exactly, its series with one lc_sum (a pairwise fold
        costs O(n^2) on n growing partial sums)."""
        links = []
        while type(node) is BinOp and (node.op == "+" or node.op == "-"):
            links.append(node)
            node = node.left
        const, seen, summands = 0, False, []
        for sign, n in [(1, node)] + [(1 if ln.op == "+" else -1, ln.right)
                                      for ln in reversed(links)]:
            v = self.operand(n)
            if isinstance(v, LCNumber):
                summands.append((sign, v))
            else:
                const, seen = (const + v if sign > 0 else const - v), True
        if not summands:
            return const
        # an exact zero adds nothing; below a finite horizon it adds that horizon
        if const or (seen and self.H is not INF):
            summands.insert(0, (1, self.lit(const)))
        return lc_sum(summands)

    def power(self, node: BinOp):
        # eps^q is the monomial itself: its base is not evaluated
        base = None if type(node.left) is Eps else self.operand(node.left)
        q = self.ev(node.right)
        if type(q) not in _RATIONAL:
            raise DomainError("exponents must be rational constants")
        if base is None:
            return self.monomial(q)
        if type(base) in _RATIONAL:
            if q.denominator == 1:
                return _fold_power(base, int(q))
            base = self.lit(base)
        if q.denominator == 1:
            return base ** int(q)
        return closure.nth_root(base, q.denominator) ** q.numerator

    def call(self, node: Call):
        a = self.ev(node.args[0])
        try:
            if node.name == "root":
                if type(a) not in _RATIONAL or a.denominator != 1 or a <= 0:
                    raise DomainError("root index must be a positive integer")
                x = node.args[1]
                return closure.nth_root(self.series(x, self.ev(x)), int(a))
            x = self.series(node.args[0], a)
            if node.name in _METHODS:
                return getattr(x, _METHODS[node.name])()
            return getattr(closure, _LIFTS[node.name])(x)
        except RhoCalcError as exc:
            raise type(exc)(f"{exc} (at line {node.line}, col {node.col})") from exc


def _checked(node: Expr, v, where: str = ""):
    """v, the value of node, if it is a constant or a series: a call's
    valuation is a rational but no constant, and its kind is neither."""
    if isinstance(v, LCNumber) or (type(v) in _RATIONAL and type(node) is not Call):
        return v
    raise DomainError(f"series value required{where}")


_RULES = {Num: _Evaluator.num, Imag: _Evaluator.imag, Eps: _Evaluator.eps,
          Unary: _Evaluator.unary, BinOp: _Evaluator.binop, Call: _Evaluator.call}


def _fold_power(c, k: int):
    """c^k for a rational constant, after a digit-budget check."""
    m = max(abs(c.numerator), c.denominator)
    check_budget("a constant power", bits=abs(k) * math.log2(m) if m > 1 else 0.0)
    if k >= 0:
        return c ** k
    if not c:
        raise DivisionByZero("zero to a negative power")
    return Fraction(c) ** k


def evaluate(node: Expr, env: Env = Env()):
    """Evaluate to LCNumber / ExtendedScalar / Fraction / Kind.

    Constant subtrees fold to one exact rational before any series is
    built; only non-constant operands reach ``series`` and ``closure``."""
    return _Evaluator(env).value(node)


def render(value) -> str:
    if isinstance(value, LCNumber):
        return format_lc(value)
    if isinstance(value, ExtendedScalar):
        if value.infinite:
            return {1: "+inf", -1: "-inf", 0: "complex-inf"}[value.sign]
        v = value.value
        if isinstance(v, complex):
            return repr(v.real) if v.imag == 0 else repr(v)
        return _text(v)
    if isinstance(value, Kind):
        return value.value
    return _text(value)


def serialize(x: LCNumber) -> str:
    return format_lc(x)


def deserialize(text: str, backend: str = "rational") -> LCNumber:
    v = evaluate(parse(text), Env(backend=backend))
    if not isinstance(v, LCNumber):
        raise ParseError("text does not denote a series")
    return v
