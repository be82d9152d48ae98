import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rhocalc
from rhocalc import cli
from rhocalc.cli import main
from rhocalc.errors import ParseError
from rhocalc.parser import (Env, deserialize, evaluate, parse, render,
                            serialize)
from rhocalc.series import INF, LCNumber


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

    def test_rational_literal_is_exact(self):
        x = evaluate(parse("3/5 + eps^12"))
        assert x.terms == ((0, Fraction(3, 5)), (12, 1)) and x.horizon == INF
        assert deserialize(serialize(x)).terms == x.terms

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

    def test_eval_exact_inverse_and_huge_exponent(self, capsys):
        assert run(capsys, "eval", "1/eps") == (0, "r^-1")
        assert run(capsys, "eval", "eps^1000000000") == (0, "r^1000000000")

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

    def test_horizon_inf_is_exact(self, capsys):
        assert run(capsys, "--horizon", "inf", "eval", "1") == (0, "1")
        assert run(capsys, "--horizon", "inf", "eval", "eps^40") == (0, "r^40")

    @pytest.mark.parametrize("horizon", ["1/0", "abc"])
    def test_bad_horizon_is_parse_error(self, capsys, horizon):
        code, out = run(capsys, "--horizon", horizon, "eval", "1")
        assert code == 2
        assert out.startswith("parse error: --horizon") and "\n" not in out

    def test_other_failure_is_one_line_exit_3(self, capsys, monkeypatch):
        # an exception that is no RhoCalcError still leaves as one line
        def fail(*args):
            raise ValueError("not a rhocalc error")
        monkeypatch.setattr(cli, "evaluate", fail)
        code, out = run(capsys, "eval", "1")
        assert code == 3
        assert out == "error: ValueError: not a rhocalc error"

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


def _python(*args, **kw):
    """A fresh interpreter that imports rhocalc from this source tree."""
    src = str(Path(rhocalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kw)


_RUN_MAIN = """import runpy
sys.argv = ["asym", "eval", "st((sqrt(1+eps)-1)/eps)"]
try:
    runpy.run_module("rhocalc", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code"""

_HEAVY = {"numpy", "sympy", "scipy"}

# entry point, the heavy packages it must not load, the rhocalc modules it
# must load exactly (None: any), and the packages it must load
_IMPORTS = [
    ("import rhocalc", _HEAVY, {"rhocalc"}, set()),
    ("import rhocalc.series", _HEAVY, {"rhocalc", "rhocalc.errors", "rhocalc.series"}, set()),
    (_RUN_MAIN, _HEAVY, None, set()),
    ("import rhocalc.mollify", {"sympy"}, None, {"numpy"}),
    ("from rhocalc.funcs import ExprProvider\nExprProvider('x')", set(), None, {"sympy"}),
]


def test_entry_points_load_only_what_they_run():
    for code, absent, ours, present in _IMPORTS:
        out = _python("-c", f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))",
                      check=True)
        modules = json.loads(out.stdout.splitlines()[-1])
        tops = {m.split(".")[0] for m in modules}
        assert not absent & tops, (code, absent & tops)
        assert present <= tops, (code, present - tops)
        if ours is not None:
            assert {m for m in modules if m.split(".")[0] == "rhocalc"} == ours, code


class TestCachedParser:
    CASES = [["eval", "st((sqrt(1+eps)-1)/eps)"],   # success
             ["eval", "st("],                      # expression parse error
             ["--backend", "nope", "eval", "1"],   # option parse error
             ["--help"]]

    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.CASES:
            fresh = _python("-m", "rhocalc", *argv)
            for _ in range(2):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                cap = capsys.readouterr()
                assert (code, cap.out, cap.err) == (fresh.returncode, fresh.stdout,
                                                    fresh.stderr), argv
        assert cli._parser.cache_info().currsize == 1


class TestFloatText:
    @pytest.mark.parametrize("coeffs", [["1+eps", "2.5", "1"],
                                        ["1+eps", "0.001*eps", "1"],
                                        ["1e-05+eps", "0", "1"]])
    def test_roots_output_evaluates_again(self, capsys, coeffs):
        assert main(["--backend", "float", "roots", "--", *coeffs]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        for row in rows:
            text = row.split("  ")[0].removeprefix("root=")
            assert main(["--backend", "float", "eval", text]) == 0
            assert capsys.readouterr().out.strip() == text
