import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rhocalc
from rhocalc.cli import main
from rhocalc.errors import ParseError
from rhocalc.parser import (Env, deserialize, evaluate, parse, render,
                            serialize)
from rhocalc.series import LCNumber


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, (cap.out + cap.err).strip()


class TestParser:
    def test_exact_monomial(self):
        x = evaluate(parse("3*eps^(1/2)"))
        assert x.support() == (Fraction(1, 2),)
        assert x.coefficient(Fraction(1, 2)) == 3

    def test_precedence_and_unary(self):
        x = evaluate(parse("-2 + 3*eps^2 - eps^-1"))
        assert x.coefficient(Fraction(-1)) == -1
        assert x.coefficient(Fraction(0)) == -2
        assert x.coefficient(Fraction(2)) == 3

    def test_right_assoc_power(self):
        # 2^3^2 = 2^9
        x = evaluate(parse("2^3^2"))
        assert x.coefficient(Fraction(0)) == 512

    def test_functions(self):
        assert render(evaluate(parse("st((sqrt(1+eps)-1)/eps)"))) == "1/2"
        assert render(evaluate(parse("v(3*eps^2)"))) == "2"
        assert render(evaluate(parse("classify(1/eps)"))) == "Infinite"
        assert render(evaluate(parse("st(1/eps)"))) == "+inf"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as e:
            parse("1 + * 2")
        assert e.value.line == 1 and e.value.col == 5

    def test_roundtrip_fuzz(self):
        rng = random.Random(31)
        for _ in range(200):
            terms = {Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3))):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for _ in range(rng.randint(0, 4))}
            x = LCNumber({q: c for q, c in terms.items() if c},
                         backend="rational")
            assert deserialize(serialize(x)) == x


class TestCli:
    def test_eval(self, capsys):
        code, out = run(capsys, "eval", "st((sqrt(1+eps)-1)/eps)")
        assert code == 0 and out == "1/2"

    def test_classify(self, capsys):
        code, out = run(capsys, "classify", "eps + eps^2")
        assert code == 0 and "Infinitesimal" in out

    def test_roots(self, capsys):
        # coefficients low to high: x^2 - eps
        code, out = run(capsys, "roots", "--", "0 - eps", "0", "1")
        assert code == 0 and "r^(1/2)" in out

    def test_parse_error_exit_code(self, capsys):
        code, out = run(capsys, "eval", "st(")
        assert code == 2 and "line 1" in out

    def test_domain_error_exit_code(self, capsys):
        code, out = run(capsys, "eval", "1/(eps - eps)")
        assert code == 3

    def test_filter_subcommand(self, capsys):
        code, out = run(capsys, "filter", "eq", "periodic:0,1", "const:0")
        assert code == 0 and "False" in out
        code, out = run(capsys, "filter", "eq", "sampled:1,1", "const:1")
        assert code == 0 and "Undecided" in out

    def test_pair_subcommand(self, capsys):
        code, out = run(capsys, "pair", "--f", "0 : x**2",
                        "--tau", "gauss-bump")
        assert code == 0 and out

    def test_float_backend(self, capsys):
        code, out = run(capsys, "--backend", "float", "eval", "st(exp(1+eps))")
        assert code == 0 and out.startswith("2.718281828")


def test_import_loads_no_scipy():
    src = str(Path(rhocalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rhocalc; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
