"""Constant folding in ``parser.evaluate``, and the work budget."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rhocalc import closure
from rhocalc.cli import main
from rhocalc.errors import (BackendError, BudgetError, DivisionByZero, DomainError,
                            RootError)
from rhocalc.parser import Env, deserialize, evaluate, parse, serialize
from rhocalc.series import INF, LCNumber, format_lc


def ev(text, **env):
    return evaluate(parse(text), Env(**env))


# float coefficient parts: zero, or of either sign with magnitude 1e-300..1e300
_float_parts = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.999999),
              st.integers(-300, 299), st.sampled_from((1.0, -1.0))))


# -- random expression trees and their reference values -----------------------
# A tree is drawn as its text together with a reference built directly with
# LCNumber operations: every number is the literal c + O(rho^H) and eps^k
# the monomial rho^k + O(rho^H), as an unfolded evaluation builds them.
# Folding must give the same terms and horizon.  Two kinds of tree are
# rejected: those that divide by zero, and products of two constant zeros
# below a finite horizon, where the literal product's horizon is 2H and the
# folded zero's is H.

class _Tree:
    def __init__(self, text, ref, const=None):
        self.text, self.ref, self.const = text, ref, const   # const: exact value

    def __repr__(self):
        return f"_Tree({self.text!r})"


@st.composite
def trees(draw, backend, H, depth=3, series_divisors=True):
    def lit(c):
        return LCNumber({Fraction(0): c if backend == "rational" else complex(c)},
                        horizon=H, backend=backend)

    def monomial(q):
        return LCNumber({q: Fraction(1) if backend == "rational" else 1.0},
                        horizon=H, backend=backend)

    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(("int", "ratio", "eps", "mono")))
        if kind == "int":
            n = Fraction(draw(st.integers(0, 9)))
            return _Tree(str(n), lit(n), n)
        if kind == "ratio":
            n, d = Fraction(draw(st.integers(1, 9))), Fraction(draw(st.integers(1, 5)))
            return _Tree(f"({n}/{d})", lit(n) / lit(d), n / d)
        if kind == "eps":
            return _Tree("eps", LCNumber.rho(backend=backend).truncate(H))
        q = Fraction(draw(st.integers(-3, 6)), draw(st.integers(1, 3)))
        return _Tree(f"eps^({q})", monomial(q))
    op = draw(st.sampled_from("+-*/^"))
    a = draw(trees(backend, H, depth - 1, series_divisors))
    if op == "^":
        k = draw(st.sampled_from((1, 2, 3, -1, -2)))
        if k < 0:
            assume(not a.ref.is_zero() and a.const != 0)
            assume(series_divisors or a.const is not None)
        assume(not (H != INF and a.const == 0 and k >= 2))
        if a.text == "eps":     # eps^k is the monomial, as in the grammar
            return _Tree(f"({a.text})^{k}", monomial(Fraction(k)))
        return _Tree(f"({a.text})^{k}", a.ref ** k,
                     None if a.const is None else a.const ** k)
    b = draw(trees(backend, H, depth - 1, series_divisors))
    if op == "/":
        assume(not b.ref.is_zero() and b.const != 0)
        assume(series_divisors or b.const is not None)
    if op == "*":
        assume(not (H != INF and a.const == 0 and b.const == 0))
    fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
          "*": lambda x, y: x * y, "/": lambda x, y: x / y}[op]
    const = None if a.const is None or b.const is None else fn(a.const, b.const)
    return _Tree(f"({a.text}) {op} ({b.text})", fn(a.ref, b.ref), const)


HORIZONS = st.sampled_from((INF, Fraction(5), Fraction(7, 2), Fraction(1, 3)))


class TestFoldingMatchesReference:
    @settings(deadline=None, max_examples=150)
    @given(st.data(), HORIZONS)
    def test_rational(self, data, H):
        t = data.draw(trees("rational", H))
        got = ev(t.text, horizon=H)
        assert got.terms == t.ref.terms and got.horizon == t.ref.horizon

    @settings(deadline=None, max_examples=150)
    @given(st.data(), HORIZONS)
    def test_float(self, data, H):
        # folded constants are rounded once, the reference rounds each
        # operation; a term that one side sweeps as dust is tiny on the other.
        # Only constants divide: an inverse would magnify such differences
        t = data.draw(trees("float", H, series_divisors=False))
        got = ev(t.text, backend="float", horizon=H)
        assert got.horizon == t.ref.horizon
        a, b = dict(got.terms), dict(t.ref.terms)
        scale = max([1.0] + [abs(c) for c in a.values()] + [abs(c) for c in b.values()])
        for q in set(a) | set(b):
            assert abs(a.get(q, 0) - b.get(q, 0)) <= 1e-9 * scale


class TestFoldingEdges:
    @pytest.mark.parametrize("text", ["1/0", "1/(2-2)", "eps/(3-3)", "0^-1", "(1-1)^-2"])
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_constant_zero_division_is_typed(self, text, backend):
        with pytest.raises(DivisionByZero):
            ev(text, backend=backend)

    def test_non_integer_constant_powers_take_the_root_path(self):
        with pytest.raises(RootError):
            ev("2^(1/2)")
        x = ev("(9/4)^(3/2)")
        assert x.terms == ((0, Fraction(27, 8)),) and x.horizon == 10
        y = ev("2^(1/2)", backend="float")
        assert y.terms[0][1] == pytest.approx(2 ** 0.5)

    def test_literals_keep_their_horizon(self):
        for text, want in (("3", 5), ("3/4", 5), ("3*eps^-2", 3), ("eps^-2/4", 3),
                           ("(-3/4)*eps^(-11/6)", 5 - Fraction(11, 6)), ("3 + eps^7", 5)):
            x = ev(text, horizon=Fraction(5))
            assert x.horizon == want, text
        assert ev("7/3", horizon=Fraction(5)).terms == ((0, Fraction(7, 3)),)
        # a constant that sums to zero still brings its horizon to the sum
        assert ev("eps*eps + (1 - 1)", horizon=Fraction(5)).horizon == 5
        # at a horizon <= 0 a literal shows no terms
        x = ev("3", horizon=Fraction(-1))
        assert x.terms == () and x.horizon == -1

    def test_float_constant_is_correctly_rounded(self):
        x = ev("2*(1/3) + 1/7", backend="float")
        assert x.terms == ((0, complex(float(Fraction(2, 3) + Fraction(1, 7)))),)

    def test_float_fractional_exponents(self):
        x = ev("3 - 2*eps^(1/2)", backend="float")
        assert x.terms == ((0, 3 + 0j), (Fraction(1, 2), -2 + 0j))

    def test_valuation_is_no_constant_in_arithmetic(self):
        assert ev("eps^(v(eps^2))").terms == ((2, 1),)
        with pytest.raises(DomainError, match="series value required"):
            ev("v(eps^2) + 1")


class TestWorkCounts:
    def test_literal_builds_one_monomial(self, monkeypatch):
        env = Env()
        calls = []
        for owner, name in ((closure, "inverse"), (LCNumber, "_make"),
                            (LCNumber, "__init__")):
            orig = getattr(owner, name)

            def counting(*args, orig=orig, name=name, **kwargs):
                calls.append(name)
                return orig(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)
        x = evaluate(parse("(-3/4)*eps^(-11/6)"), env)
        monkeypatch.undo()
        assert "inverse" not in calls and len(calls) <= 2
        assert x.terms == ((Fraction(-11, 6), Fraction(-3, 4)),) and x.horizon == INF


class TestRoundTrip:
    def test_rational_round_trip_is_identical(self):
        rng = random.Random(8)
        for _ in range(100):
            terms = {Fraction(rng.randint(-40, 80), rng.randint(1, 7)):
                     Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30)),
                              rng.randint(1, 10 ** rng.randint(0, 20)))
                     for _ in range(rng.randint(0, 40))}
            x = LCNumber(terms, backend="rational")
            for text in (serialize(x), " + ".join(f"({c})*eps^({q})" for q, c in x.terms)):
                y = deserialize(text or "0")
                assert y.terms == x.terms and y.horizon == INF

    def test_float_round_trip_is_identical(self):
        rng = random.Random(9)
        for _ in range(100):
            terms = {Fraction(rng.randint(-40, 80), rng.randint(1, 7)):
                     complex(round(rng.uniform(-50, 50), rng.randint(0, 12)))
                     for _ in range(rng.randint(0, 20))}
            x = LCNumber(terms, backend="float")
            text = serialize(x)
            y = deserialize(text, backend="float")
            assert y.terms == x.terms and format_lc(y) == text

    @pytest.mark.parametrize("terms", [{0: 1e-05, 1: 2.5}, {0: 1e20}, {1: 0.5 + 1.5j}])
    def test_exponent_and_complex_text_reads_back(self, terms):
        x = LCNumber(terms, backend="float")
        y = deserialize(serialize(x), backend="float")
        assert y.terms == x.terms and y == x

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.builds(Fraction, st.integers(-20, 40), st.integers(1, 6)),
        st.builds(complex, _float_parts, _float_parts),
        max_size=8))
    def test_float_round_trip_property(self, terms):
        x = LCNumber(terms, backend="float")
        y = deserialize(serialize(x), backend="float")
        assert y.terms == x.terms and y == x


class TestNumberLiterals:
    def test_exponent_notation_is_exact_on_the_rational_backend(self):
        assert ev("1e-05").terms == ((0, Fraction(1, 100000)),)
        assert ev("2.5E+20*eps").terms == ((1, Fraction(25 * 10 ** 19)),)
        assert ev("eps^1e1").terms == ((10, 1),)

    def test_exponent_notation_on_the_float_backend(self):
        assert ev("1e-05 + 2.5E+20*eps", backend="float").terms == \
            ((0, 1e-05 + 0j), (1, 2.5e20 + 0j))

    def test_imaginary_literal_is_float_only(self):
        assert ev("(0.5-1.5j)*eps", backend="float").terms == ((1, 0.5 - 1.5j),)
        assert ev("2e-3j", backend="float").terms == ((0, 0.002j),)
        with pytest.raises(BackendError, match="float backend"):
            ev("1.5j")

    def test_literal_exponent_is_budgeted(self):
        with pytest.raises(BudgetError):
            parse("1e1000000")
        with pytest.raises(BackendError):
            ev("1e400", backend="float")

    def test_cli_exit_codes(self, capsys):
        assert main(["eval", "1e-05"]) == 0
        assert capsys.readouterr().out.strip() == "(1/100000)"
        assert main(["eval", "1.5j"]) == 3
        assert "float backend" in capsys.readouterr().err
        assert main(["--backend", "float", "eval", "1.5j"]) == 0
        assert capsys.readouterr().out.strip() == "(0.0+1.5j)"
        assert main(["eval", "2eps"]) == 2


class TestBudget:
    @pytest.mark.parametrize("text", ["2^1000000", "(1+eps)^100000", "(2*eps)^1000000",
                                      "(1/3)^-300000"])
    def test_cli_refuses_early(self, capsys, text):
        t0 = time.perf_counter()
        code = main(["eval", text])
        dt = time.perf_counter() - t0
        out = capsys.readouterr().err.strip()
        assert code == 3 and dt < 1.0
        assert out.startswith("error: work budget exceeded: ") and "\n" not in out

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit in this interpreter")
    @pytest.mark.parametrize("text", ["1" * 5000, "1." + "1" * 5000, "1" * 4301 + "*eps",
                                      "1e" + "1" * 5000])
    def test_long_literal_is_refused_typed(self, capsys, text):
        assert main(["eval", text]) == 3
        out = capsys.readouterr().err.strip()
        assert out.startswith("error: work budget exceeded: a number literal of ")
        assert "\n" not in out

    def test_literal_at_the_digit_limit_evaluates(self):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        assert ev("1" * digits).terms == ((0, int("1" * digits)),)

    def test_power_budget_is_typed(self):
        x = LCNumber({0: 1, 1: 1}, backend="float")
        with pytest.raises(BudgetError):
            x ** 100000
        with pytest.raises(BudgetError):
            evaluate(parse("2^1000000"), Env(backend="float"))

    def test_results_inside_the_budget(self):
        x = ev("(1+eps)^40")
        assert x.terms == tuple((k, math.comb(40, k)) for k in range(41))
        assert ev("2^1000").terms == ((0, 2 ** 1000),)
        assert ev("(eps^2)^1000000000").terms == ((2000000000, 1),)
        # a finite horizon keeps a large power small
        y = ev("(1+eps)^100000", horizon=Fraction(3))
        assert y.terms == ((0, 1), (1, 100000), (2, 4999950000)) and y.horizon == 3
