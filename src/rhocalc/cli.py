"""Command-line interface and REPL.

Subcommands
    eval EXPR       evaluate a series expression (also the REPL default)
    classify EXPR   classification of an expression's value
    roots C0 C1 …   roots of C0 + C1·x + … (coefficients are expressions)
    pair --f FN --tau TAU [--probe N]
    embed KIND --moments N --rho R --tau TAU
    rate KIND --moments N --rhos R1,R2,… --tau TAU
    filter eq SEQ SEQ

Mini-grammars
    fn-spec   semicolon list of ``Q : SYMPY-EXPR-IN-x`` terms, e.g.
              "0: sin(x); 2: x**2" (Q a rational rho-exponent)
    tau-spec  "gauss-bump" | "bump(CENTER,WIDTH)"
    seq-spec  "const:V[;prefix=a,b,…]" | "periodic:a,b,…" | "nu" |
              "sampled:a,b,…"
    dist KIND "delta" | "ddelta" | "heaviside"

Global options
    --horizon H     truncation horizon: a rational, or ``inf`` for exact
                    series (the default)

Exit codes: 0 success; 2 parse error, in an expression or an option
value; 3 domain error or work-budget refusal (``error: <message>``), and
any other failure of a command, which is reported on one line as
``error: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError, RhoCalcError
from .parser import Env, deserialize, evaluate, parse, render
from .series import INF, LCNumber, format_lc

EXIT_OK, EXIT_PARSE, EXIT_DOMAIN = 0, 2, 3


def _env(args) -> Env:
    text = args.horizon
    if text is None or text.strip() == "inf":
        return Env(backend=args.backend, horizon=INF)
    try:
        horizon = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--horizon needs a rational or inf, got {text!r}")
    return Env(backend=args.backend, horizon=horizon)


def _tau(spec: str):
    from .mollify import reference_bump
    if spec in ("gauss-bump", "bump"):
        return reference_bump(1, center=0.15, width=0.7)
    if spec.startswith("bump(") and spec.endswith(")"):
        c, w = (float(s) for s in spec[5:-1].split(","))
        return reference_bump(1, center=c, width=w)
    raise ParseError(f"unknown tau-spec {spec!r}")


def _fn(spec: str):
    import sympy as sp
    from .funcs import AsymptoticFunction, Domain, ExprProvider
    terms = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"fn-spec term {part!r} needs the form Q:expr")
        q, expr = part.split(":", 1)
        terms.append((Fraction(q.strip()),
                      ExprProvider(sp.sympify(expr), symbols=[sp.Symbol("x")])))
    return AsymptoticFunction(terms, Domain.interval(-4.0, 4.0))


def _dist(kind: str):
    from .mollify import DeltaAt, DerivativeOfDelta, Heaviside
    if kind == "delta":
        return DeltaAt((0.0,))
    if kind == "ddelta":
        return DerivativeOfDelta((1,), (0.0,))
    if kind == "heaviside":
        return Heaviside()
    raise ParseError(f"unknown distribution kind {kind!r}")


def _seq(spec: str):
    from .filters import EventuallyConstant, Periodic, Sampled, canonical_nu

    def scalars(s):
        return tuple(Fraction(x) for x in s.split(",") if x.strip())

    if spec == "nu":
        return canonical_nu()
    if spec.startswith("const:"):
        body = spec[6:]
        prefix = ()
        if ";prefix=" in body:
            body, pre = body.split(";prefix=", 1)
            prefix = scalars(pre)
        return EventuallyConstant(Fraction(body), prefix)
    if spec.startswith("periodic:"):
        return Periodic(scalars(spec[9:]))
    if spec.startswith("sampled:"):
        return Sampled(scalars(spec[8:]))
    raise ParseError(f"unknown seq-spec {spec!r}")


def _emit_rows(rows, header, mode):
    if mode == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(str(x) for x in r))
    elif mode == "json":
        import json
        print(json.dumps([dict(zip(header, r)) for r in rows]))
    else:
        for r in rows:
            print("  ".join(f"{h}={x}" for h, x in zip(header, r)))


def _repl(env: Env) -> int:
    print("rhocalc REPL -- series expressions; blank line or 'quit' exits")
    while True:
        try:
            line = input("rho> ")
        except EOFError:
            return EXIT_OK
        line = line.strip()
        if not line or line in ("quit", "exit"):
            return EXIT_OK
        try:
            print(render(evaluate(parse(line), env)))
        except ParseError as exc:
            print(f"parse error: {exc}")
        except RhoCalcError as exc:
            print(f"error: {exc}")
        except Exception as exc:  # noqa: BLE001 - the session goes on
            print(f"error: {type(exc).__name__}: {exc}")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs as much as a small command."""
    ap = argparse.ArgumentParser(prog="asym", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--backend", choices=["rational", "float"], default="rational")
    ap.add_argument("--horizon", default=None,
                    help="truncation horizon: a rational, or inf (exact; the default)")
    ap.add_argument("--emit", choices=["text", "csv", "json"], default="text")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("eval")
    p.add_argument("expr")
    p = sub.add_parser("classify")
    p.add_argument("expr")
    p = sub.add_parser("roots")
    p.add_argument("coeffs", nargs="+")
    p.add_argument("--precision", type=int, default=8)
    p = sub.add_parser("pair")
    p.add_argument("--f", required=True)
    p.add_argument("--tau", default="gauss-bump")
    p.add_argument("--probe", type=int, default=6)
    p = sub.add_parser("embed")
    p.add_argument("kind")
    p.add_argument("--moments", type=int, default=2)
    p.add_argument("--rho", type=float, default=1e-2)
    p.add_argument("--tau", default="gauss-bump")
    p = sub.add_parser("rate")
    p.add_argument("kind")
    p.add_argument("--moments", type=int, default=2)
    p.add_argument("--rhos", default="1e-1,3e-2,1e-2")
    p.add_argument("--tau", default="gauss-bump")
    p = sub.add_parser("filter")
    p.add_argument("op", choices=["eq"])
    p.add_argument("a")
    p.add_argument("b")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RhoCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001 - no traceback leaves the CLI
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def _dispatch(args) -> int:
    env = _env(args)
    if args.cmd is None:
        return _repl(env)
    if args.cmd == "eval":
        print(render(evaluate(parse(args.expr), env)))
        return EXIT_OK
    if args.cmd == "classify":
        v = evaluate(parse(args.expr), env)
        if isinstance(v, LCNumber):
            print(v.kind().value)
        else:
            print(render(v))
        return EXIT_OK
    if args.cmd == "roots":
        from .closure import LCPolynomial, poly_roots
        coeffs = [deserialize(c, backend="float") for c in args.coeffs]
        poly = LCPolynomial(coeffs)
        rows = [(format_lc(r.value), r.multiplicity)
                for r in poly_roots(poly, precision=Fraction(args.precision))]
        _emit_rows(rows, ["root", "multiplicity"], args.emit)
        return EXIT_OK
    if args.cmd == "pair":
        from .funcs import pair
        val = pair(_fn(args.f), _tau(args.tau))
        print(format_lc(val.truncate(Fraction(args.probe))))
        return EXIT_OK
    if args.cmd == "embed":
        from .funcs import Domain, pair
        from .mollify import embed_distribution, reference_pairing
        dom = Domain.interval(-4.0, 4.0)
        tau = _tau(args.tau)
        emb = embed_distribution(_dist(args.kind), dom, args.rho, args.moments)
        val = complex(pair(emb, tau).coefficient(0))
        ref = complex(reference_pairing(_dist(args.kind), tau))
        _emit_rows([(args.rho, val.real, abs(val - ref))],
                   ["rho", "pairing", "error"], args.emit)
        return EXIT_OK
    if args.cmd == "rate":
        from .funcs import Domain
        from .mollify import convergence_rate
        dom = Domain.interval(-4.0, 4.0)
        rhos = [float(x) for x in args.rhos.split(",")]
        rr = convergence_rate(_dist(args.kind), _tau(args.tau), dom, rhos,
                              args.moments)
        _emit_rows([(r, e) for r, e in rr.samples], ["rho", "error"], args.emit)
        print("exact" if rr.exact else f"slope={rr.slope:.4f}")
        return EXIT_OK
    if args.cmd == "filter":
        from .filters import ae_equal
        v = ae_equal(_seq(args.a), _seq(args.b))
        print({True: "True", False: "False", None: f"Undecided ({v.note})"}[v.value])
        return EXIT_OK
    raise ParseError(f"unknown command {args.cmd!r}")


if __name__ == "__main__":
    raise SystemExit(main())
