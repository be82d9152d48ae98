"""The three benchmark workloads: input generation, operations and checks.

Each workload is a list of slots.  A slot names an operation kind and
the parameters that set its size.  Inputs come in blocks: every block
holds each slot once, in an order shuffled by the seed, so every run
sees the same mix of operation kinds and sizes and the seed only moves
the numbers.  That keeps a change of seed from moving the latency
percentiles much.

Generation uses only ``random.Random`` and plain Python data (ints,
Fractions, complex tuples, expression strings).  ``prepare`` turns one
plain input into rhocalc objects during set-up and returns the timed
operation as a closure.  ``plain`` turns its result back into plain data,
and ``check`` verifies that with the reference code in ``oracle``,
raising ``CheckFailed`` on a wrong result.

Every call into rhocalc goes through a module attribute at call time
(``closure.poly_roots(...)``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from fractions import Fraction

import numpy as np

from rhocalc import cli, closure, funcs, mollify, parser, series

import oracle


class CheckFailed(Exception):
    """A result that the reference check rejects."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _pick(rng, v):
    return rng.choice(v) if isinstance(v, list) else v


def _lc_plain(x):
    """Plain form of an LCNumber: (terms dict, horizon or None)."""
    h = None if x.horizon == series.INF else x.horizon
    return dict(x.terms), h


class Workload:
    name = ""
    block: tuple = ()
    warm: tuple = ()   # cheap slots run once before timing, to fill lazy caches

    def plan(self, seed, stream, n_ops, slots=None):
        """The first ``n_ops`` plain inputs of stream ``stream``."""
        rng = random.Random(f"{self.name}/{seed}/{stream}")
        out = []
        while len(out) < n_ops:
            block = list(slots or self.block)
            rng.shuffle(block)
            for kind, params in block:
                picked = {k: _pick(rng, v) for k, v in params.items()}
                spec = {"kind": kind, **picked}
                spec.update(getattr(self, "gen_" + kind.replace("-", "_"))(rng, **picked))
                out.append(spec)
        return out[:n_ops]

    def probe(self, seed):
        """Inputs that reproduce known defects; run outside the timed loop."""
        return []

    def prepare(self, spec):
        return getattr(self, "prep_" + spec["kind"].replace("-", "_"))(spec)

    def check(self, spec, result):
        getattr(self, "check_" + spec["kind"].replace("-", "_"))(spec, result)


# ---------------------------------------------------------------------------
# exact-series: rational backend, Fraction-keyed sparse series
# ---------------------------------------------------------------------------

def _exact_terms(rng, size, span):
    """``size`` terms with exponents in ``span``, each exponent with its
    own denominator in 1..7."""
    lo, hi = span
    terms = {}
    while len(terms) < size:
        d = rng.randint(1, 7)
        q = Fraction(rng.randint(lo * d, hi * d), d)
        terms[q] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return terms


def _unit_terms(rng, size, den):
    """A leading term at v followed by ``size - 1`` terms on v + (1/den)N.

    inverse and nth_root sum a series in the terms after the leading one
    up to relative exponent 8, so their cost grows with the lattice
    1/den; fixing den per slot keeps the cost of a slot steady."""
    v = Fraction(rng.randint(-6 * den, 6 * den), den)
    steps = rng.sample(range(1, max(size, 8 * den) + 1), size - 1)
    terms = {v: Fraction(rng.randint(1, 9), rng.randint(1, 6))}
    for k in steps:
        terms[v + Fraction(k, den)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                               rng.randint(1, 6))
    return terms


_NARROW, _WIDE = (-2, 10), (-12, 60)
# A rational literal such as 3/5 is parsed as a division, whose inverse
# carries a relative horizon of 10, so text whose exponents span 10 or
# more loses terms.  The parser workloads stay inside that span (for the
# CLI, the spans of both factors of its product add up); the defect
# probe shows the loss.
_PARSE, _CLI = (-2, 7), (0, 4)


def _rational(terms):
    return series.LCNumber(terms, backend="rational")


def _hom_check(got, want_hom, inputs, t):
    L = oracle.lattice(got, *inputs)
    _require(oracle.hom(got, t, L) == want_hom(L), "evaluation homomorphism mismatch")


class ExactSeries(Workload):
    name = "exact-series"
    # Slots are grouped by cost so that the median falls among the
    # 32-term operations and the 90th percentile on the 128-term parses,
    # each group wide enough that a few operations more or less do not
    # move a percentile onto another group.
    block = (
        # cheap: about a third of the operations
        ("chain", {"size": 8, "span": _NARROW}),
        ("chain", {"size": 8, "span": _WIDE}),
        ("pow", {"size": 8, "k": [2, 3, 4]}),
        ("cli", {"size": 8, "span": _CLI}),
        ("cli", {"size": 8, "span": _CLI}),
        ("inverse", {"size": 8, "den": 7}),
        ("inverse", {"size": 8, "den": 5}),
        # median group
        ("chain", {"size": 32, "span": _NARROW}),
        ("chain", {"size": 32, "span": _NARROW}),
        ("chain", {"size": 32, "span": _WIDE}),
        ("pow", {"size": 32, "k": 2}),
        ("root", {"size": 8, "n": 2, "den": 6, "big": False}),
        ("parse", {"size": 32, "span": _PARSE}),
        # upper group
        ("root", {"size": 32, "n": 3, "den": 3, "big": False}),
        ("root", {"size": 32, "n": 2, "den": 4, "big": True}),
        ("cli", {"size": 32, "span": _CLI}),
        ("inverse", {"size": 32, "den": 5}),
        ("inverse", {"size": 128, "den": 3}),
        # 90th-percentile group, then the largest product
        ("parse", {"size": 128, "span": _PARSE}),
        ("parse", {"size": 128, "span": _PARSE}),
        ("parse", {"size": 128, "span": _PARSE}),
        ("chain", {"size": 128, "span": _WIDE}),
    )
    warm = (("chain", {"size": 8, "span": _NARROW}), ("inverse", {"size": 8, "den": 2}),
            ("root", {"size": 8, "n": 2, "den": 2, "big": False}),
            ("parse", {"size": 8, "span": _PARSE}), ("cli", {"size": 8, "span": _CLI}))

    # -- generation (plain data only) ----------------------------------
    def gen_chain(self, rng, size, span):
        return {"xs": [_exact_terms(rng, size, span) for _ in range(4)],
                "t": rng.randrange(2, oracle.PRIME - 1)}

    def gen_inverse(self, rng, size, den):
        return {"x": _unit_terms(rng, size, den)}

    def _root_input(self, rng, size, n, den, k_range):
        x = _unit_terms(rng, size, den)
        v = min(x)
        k, j = rng.randint(*k_range), rng.randint(1, 9)
        x[v] = Fraction(k ** n, j ** n)
        return {"x": x, "n": n}

    def gen_root(self, rng, size, n, den, big):
        # big leading coefficients stay below 2^104, where the float-based
        # integer root is still exact; larger ones are in the defect probe
        return self._root_input(rng, size, n, den, (10 ** 12, 10 ** 15) if big else (1, 40))

    def gen_pow(self, rng, size, k):
        return {"x": _exact_terms(rng, size, _NARROW), "k": k,
                "t": rng.randrange(2, oracle.PRIME - 1)}

    def gen_parse(self, rng, size, span):
        x = _exact_terms(rng, size, span)
        return {"x": x, "text": oracle.format_text(x)}

    def gen_cli(self, rng, size, span):
        xs = [_exact_terms(rng, size, span) for _ in range(3)]
        a, b, c = (oracle.format_text(x) for x in xs)
        return {"xs": xs, "argv": ["eval", f"({a}) * ({b}) + ({c})"],
                "t": rng.randrange(2, oracle.PRIME - 1)}

    def probe(self, seed):
        rng = random.Random(f"{self.name}/{seed}/probe")
        # 10^400 overflows the float inside _rational_nth_root; 10^60 is
        # past the 53-bit mantissa, so the exact square is not recognised
        return [dict(kind="root", **self._root_input(rng, 8, 2, 2, (10 ** 200, 10 ** 201))),
                dict(kind="root", **self._root_input(rng, 8, 2, 2, (10 ** 30, 10 ** 31))),
                dict(kind="parse", **self.gen_parse(rng, 32, _WIDE))]

    # -- operations -----------------------------------------------------
    def prep_chain(self, spec):
        a, b, c, d = (_rational(x) for x in spec["xs"])

        def op():
            y = a * b + c - d
            return y, y < a, y.standard_part()
        return op

    def prep_inverse(self, spec):
        x = _rational(spec["x"])
        h = Fraction(8) - x.valuation()
        return lambda: closure.inverse(x, horizon=h)

    def prep_root(self, spec):
        x = _rational(spec["x"])
        h = Fraction(8) - x.valuation()
        n = spec["n"]
        if n == 2:
            return lambda: closure.sqrt(x, horizon=h)
        return lambda: closure.nth_root(x, n, horizon=h)

    def prep_pow(self, spec):
        x, k = _rational(spec["x"]), spec["k"]
        return lambda: x ** k

    def prep_parse(self, spec):
        text = spec["text"]

        def op():
            v = parser.evaluate(parser.parse(text))
            return parser.deserialize(parser.serialize(v))
        return op

    def prep_cli(self, spec):
        argv = list(spec["argv"])

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        return op

    # -- plain results and checks ----------------------------------------
    def plain(self, kind, result):
        if kind == "chain":
            y, lt, st = result
            return _lc_plain(y), lt, repr(st)
        if kind == "cli":
            return result
        return _lc_plain(result)

    def check_chain(self, spec, result):
        (y, h), lt, st = result
        _require(h is None, "exact chain got a finite horizon")
        a, b, c, d = spec["xs"]
        t = spec["t"]
        _hom_check(y, lambda L: (oracle.hom(a, t, L) * oracle.hom(b, t, L)
                                 + oracle.hom(c, t, L) - oracle.hom(d, t, L)) % oracle.PRIME,
                   spec["xs"], t)
        diff = oracle.sub(y, a)
        _require(lt == (bool(diff) and oracle.lead(diff)[1] < 0), "comparison y < a wrong")
        if not y or min(y) > 0:
            want = "ExtendedScalar(Fraction(0, 1))"
        elif min(y) < 0:
            want = "ExtendedScalar(+inf)" if oracle.lead(y)[1] > 0 else "ExtendedScalar(-inf)"
        else:
            want = f"ExtendedScalar({y[Fraction(0)]!r})"
        _require(st == want, f"standard part {st} != {want}")

    def check_inverse(self, spec, result):
        inv, _ = result
        x = spec["x"]
        prod = oracle.mul_below(x, inv, Fraction(8))
        _require(oracle.sub(prod, {Fraction(0): Fraction(1)}) == {},
                 "x * inverse(x) != 1 below rho^8")

    def check_root(self, spec, result):
        r, _ = result
        x, n = spec["x"], spec["n"]
        cut = min(x) + 8
        got = oracle.pow_below(r, n, cut)
        want = {q: c for q, c in x.items() if q < cut}
        _require(oracle.sub(got, want) == {}, f"root^{n} != x below the horizon")

    def check_pow(self, spec, result):
        y, h = result
        _require(h is None, "exact power got a finite horizon")
        x, k, t = spec["x"], spec["k"], spec["t"]
        _hom_check(y, lambda L: pow(oracle.hom(x, t, L), k, oracle.PRIME), [x], t)

    def check_parse(self, spec, result):
        # the finite horizon a rational literal brings is the defect noted
        # at _PARSE; a term lost below it is a wrong result
        y, h = result
        _require(y == spec["x"] and (h is None or h > max(y)),
                 "parse round-trip changed the number")

    def check_cli(self, spec, result):
        code, out = result
        _require(code == 0, f"cli exit code {code}")
        y = oracle.parse_format(out)
        a, b, c = spec["xs"]
        t = spec["t"]
        _hom_check(y, lambda L: (oracle.hom(a, t, L) * oracle.hom(b, t, L)
                                 + oracle.hom(c, t, L)) % oracle.PRIME, spec["xs"], t)


# ---------------------------------------------------------------------------
# puiseux-roots: float backend, Newton-polygon lifting and Newton refinement
# ---------------------------------------------------------------------------

def _cplx(rng, r):
    return (round(rng.uniform(-r, r), 6), round(rng.uniform(-r, r), 6))


def _separated(rng, d):
    """d points of the disc |z| <= 2, pairwise at least 1 apart."""
    pts = []
    while len(pts) < d:
        z = complex(*_cplx(rng, 2.0))
        if abs(z) <= 2 and all(abs(z - w) >= 1 for w in pts):
            pts.append(z)
    return pts


def _poly_mul(p, q):
    """Product of polynomials with dict-series coefficients (exact dicts)."""
    out = [{} for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            for q1, c1 in a.items():
                for q2, c2 in b.items():
                    out[i + j][q1 + q2] = out[i + j].get(q1 + q2, 0) + c1 * c2
    return out


def _as_tuples(poly):
    return [{q: (c.real, c.imag) for q, c in co.items() if c != 0} for co in poly]


def _from_tuples(poly):
    return [{q: complex(*c) for q, c in co.items()} for co in poly]


class PuiseuxRoots(Workload):
    name = "puiseux-roots"
    # grouped by cost as in exact-series: the median falls on the split
    # double roots at precision 8 (Newton polygon, Taylor shift, Newton),
    # the 90th percentile on the criterion-04 quartics
    block = (
        # cheap: ramified clusters and float round-trips
        ("roots", {"form": "ramified", "deg": 2, "prec": [8, 16]}),
        ("roots", {"form": "ramified", "deg": 3, "prec": [8, 16]}),
        ("roots", {"form": "ramified", "deg": [2, 3], "prec": [8, 16]}),
        ("roots", {"form": "cluster2", "deg": 4, "prec": 16}),
        ("roots", {"form": "cluster2", "deg": 4, "prec": 16}),
        ("inv-trip", {"h": 8, "den": 3}),
        ("inv-trip", {"h": 16, "den": 2}),
        ("inv-trip", {"h": 16, "den": 3}),
        ("root-trip", {"n": 2, "h": 16, "den": 2}),
        ("root-trip", {"n": 3, "h": 8, "den": 3}),
        # median group
        ("roots", {"form": "cluster", "deg": 3, "prec": 8}),
        ("roots", {"form": "cluster", "deg": 3, "prec": 8}),
        ("roots", {"form": "cluster", "deg": 3, "prec": 8}),
        ("roots", {"form": "cluster", "deg": 3, "prec": 8}),
        ("roots", {"form": "cluster", "deg": 3, "prec": 8}),
        # upper group
        ("roots", {"form": "exact", "deg": 2, "prec": 8}),
        ("roots", {"form": "generic", "deg": 2, "prec": 8}),
        ("roots", {"form": "cluster", "deg": 3, "prec": 16}),
        ("roots", {"form": "exact", "deg": 3, "prec": 8}),
        ("roots", {"form": "generic", "deg": 3, "prec": 8}),
        ("roots", {"form": "exact", "deg": 2, "prec": 16}),
        # 90th-percentile group, then the precision-16 cubic
        ("roots", {"form": "generic", "deg": 4, "prec": 8}),
        ("roots", {"form": "generic", "deg": 4, "prec": 8}),
        ("roots", {"form": "generic", "deg": 4, "prec": 8}),
        ("roots", {"form": "exact", "deg": 3, "prec": 16}),
    )
    warm = (("roots", {"form": "generic", "deg": 2, "prec": 8}),
            ("roots", {"form": "cluster", "deg": 3, "prec": 8}),
            ("inv-trip", {"h": 8, "den": 2}), ("root-trip", {"n": 2, "h": 8, "den": 2}))

    # -- generation ------------------------------------------------------
    def gen_roots(self, rng, form, deg, prec):
        if form == "generic":
            # criterion 04's rho^0 + rho^1 coefficients, with the rho^0
            # roots kept apart and the rho^1 parts bounded away from zero
            poly = [{Fraction(0): 1}]
            for z in _separated(rng, deg):
                poly = _poly_mul(poly, [{Fraction(0): -z}, {Fraction(0): 1}])
            for k in range(deg):
                phase = rng.uniform(0, 2 * math.pi)
                poly[k][Fraction(1)] = cmath.rect(rng.uniform(0.7, 1.4), phase)
            return {"poly": _as_tuples(poly), "prec": prec, "known": []}
        if form == "exact":
            # (x - r_i) with r_i = a_i + b_i rho: the roots are known exactly
            known = [(z, complex(*_cplx(rng, 1.0))) for z in _separated(rng, deg)]
            poly = [{Fraction(0): 1}]
            for a, b in known:
                poly = _poly_mul(poly, [{Fraction(0): -a, Fraction(1): -b}, {Fraction(0): 1}])
            return {"poly": _as_tuples(poly), "prec": prec,
                    "known": [((a.real, a.imag), (b.real, b.imag)) for a, b in known]}
        a = complex(*_cplx(rng, 1.0))
        far = a + cmath.rect(1.5, rng.uniform(0, 2 * math.pi))
        if form == "ramified":
            poly = self._cluster(rng, a, deg, rng.choice((1, 3)))
        elif form == "cluster":
            # a split double root next to a simple root that is known exactly
            b = complex(*_cplx(rng, 1.0))
            poly = _poly_mul(self._cluster(rng, a, 2, 1),
                             [{Fraction(0): -far, Fraction(1): -b}, {Fraction(0): 1}])
            return {"poly": _as_tuples(poly), "prec": prec,
                    "known": [((far.real, far.imag), (b.real, b.imag))]}
        else:
            # two split double roots, at rho^(1/2) and at rho^(3/2)
            poly = _poly_mul(self._cluster(rng, a, 2, 1), self._cluster(rng, far, 2, 3))
        return {"poly": _as_tuples(poly), "prec": prec, "known": []}

    @staticmethod
    def _cluster(rng, a, m, k):
        """(x - a)^m - b rho^k: an m-fold root at a, split at rho^(k/m)."""
        poly = [{Fraction(0): 1}]
        for _ in range(m):
            poly = _poly_mul(poly, [{Fraction(0): -a}, {Fraction(0): 1}])
        poly[0][Fraction(k)] = -cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))
        return poly

    def _unit(self, rng, den):
        # three tail terms on the lattice 1/den whose coefficients sum to
        # less than the leading one, so the series coefficients stay
        # bounded and float round-off stays small
        r = rng.uniform(1.0, 2.0)
        x = {Fraction(0): cmath.rect(r, rng.uniform(0, 2 * math.pi))}
        for k in rng.sample(range(1, 3 * den + 1), 3):
            x[Fraction(k, den)] = cmath.rect(rng.uniform(0.05, 0.3) * r,
                                             rng.uniform(0, 2 * math.pi))
        return {q: (c.real, c.imag) for q, c in x.items()}

    def gen_inv_trip(self, rng, h, den):
        return {"x": self._unit(rng, den), "h": h}

    def gen_root_trip(self, rng, n, h, den):
        return {"x": self._unit(rng, den), "n": n, "h": h}

    def probe(self, seed):
        rng = random.Random(f"{self.name}/{seed}/probe")
        out = []
        for _ in range(4):
            # criterion 04 quadratics with small rho^1 parts at precision 16:
            # the dust cut-off in _newton_refine stalls on these
            poly = [{Fraction(0): complex(*_cplx(rng, 2.0)),
                     Fraction(1): 0.25 * complex(*_cplx(rng, 1.0))} for _ in range(2)]
            poly.append({Fraction(0): 1 + 0j})
            out.append({"kind": "roots", "poly": _as_tuples(poly), "prec": 16, "known": []})
        return out

    # -- operations --------------------------------------------------------
    def prep_roots(self, spec):
        coeffs = [series.LCNumber({q: complex(*c) for q, c in co.items()}, backend="float")
                  for co in spec["poly"]]
        poly = closure.LCPolynomial(coeffs)
        prec = Fraction(spec["prec"])
        return lambda: closure.poly_roots(poly, precision=prec)

    def prep_inv_trip(self, spec):
        x = series.LCNumber({q: complex(*c) for q, c in spec["x"].items()}, backend="float")
        h = Fraction(spec["h"])
        return lambda: closure.inverse(closure.inverse(x, horizon=h), horizon=h)

    def prep_root_trip(self, spec):
        x = series.LCNumber({q: complex(*c) for q, c in spec["x"].items()}, backend="float")
        n, h = spec["n"], Fraction(spec["h"])
        return lambda: closure.nth_root(x, n, horizon=h) ** n

    def plain(self, kind, result):
        if kind == "roots":
            return [(_lc_plain(r.value), r.multiplicity) for r in result]
        return _lc_plain(result)

    def check_roots(self, spec, result):
        poly = _from_tuples(spec["poly"])
        prec = spec["prec"]
        deg = len(poly) - 1
        _require(sum(m for _, m in result) == deg,
                 f"{sum(m for _, m in result)} roots with multiplicity for degree {deg}")
        cut = Fraction(prec + 4)
        for (root, _), _m in result:
            res = oracle.float_poly_residual(poly, root, cut)
            tol = 1e-9 * oracle.poly_scale(poly, root)
            v = oracle.effective_valuation(res, tol)
            _require(v is None or v >= prec, f"residual valuation {v} < {prec}")
        for a, b in spec["known"]:
            a, b = complex(*a), complex(*b)
            _require(any(abs(r.get(Fraction(0), 0) - a) < 1e-8
                         and abs(r.get(Fraction(1), 0) - b) < 1e-8
                         for (r, _), _m in result), f"known root {a} + {b} rho missing")

    def _close(self, got, want, h):
        scale = max(abs(c) for c in want.values())
        for q in set(got) | set(want):
            if q < h:
                _require(abs(got.get(q, 0) - want.get(q, 0)) <= 1e-9 * scale,
                         f"round-trip differs at rho^{q}")

    def check_inv_trip(self, spec, result):
        got, h = result
        x = {q: complex(*c) for q, c in spec["x"].items()}
        _require(h is not None and h >= spec["h"] / 2, f"round-trip horizon {h} too low")
        self._close(got, x, h)

    def check_root_trip(self, spec, result):
        got, h = result
        x = {q: complex(*c) for q, c in spec["x"].items()}
        _require(h is not None and h >= spec["h"] / 2, f"round-trip horizon {h} too low")
        self._close(got, x, h)


# ---------------------------------------------------------------------------
# distributions: mollifiers, embeddings and asymptotic functions
# ---------------------------------------------------------------------------

# 1-D coefficient functions with closed-form derivatives for the checks
_CATALOGUE = {
    "sin": ("{a}*sin({b}*x1)", lambda a, b, k, x: a * b ** k * np.sin(b * x + k * np.pi / 2)),
    "cos": ("{a}*cos({b}*x1)", lambda a, b, k, x: a * b ** k * np.cos(b * x + k * np.pi / 2)),
    "exp": ("{a}*exp({b}*x1)", lambda a, b, k, x: a * b ** k * np.exp(b * x)),
    "quad": ("{a}*x1**2 + {b}",
             lambda a, b, k, x: (a * x * x + b, 2 * a * x, 2 * a + 0 * x)[k] if k < 3 else 0 * x),
}
# the same functions written differently, for weak equality
_REWRITE = {
    "sin": "{a2}*sin({b2}*x1)*cos({b2}*x1)",
    "cos": "{a}*(cos({b2}*x1)**2 - sin({b2}*x1)**2)",
    "exp": "{a}*exp({b2}*x1)**2",
    "quad": "{a}*(x1 - 1)**2 + {a2}*x1 - {a} + {b}",
}


def _term(rng):
    name = rng.choice(sorted(_CATALOGUE))
    return name, round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 1.5), 3)


def _fn_spec(rng, count):
    qs = rng.sample([Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 2),
                     Fraction(1), Fraction(2)], count)
    return [(q,) + _term(rng) for q in sorted(qs)]


def _expr(name, a, b, rewrite=False):
    tpl = _REWRITE[name] if rewrite else _CATALOGUE[name][0]
    return tpl.format(a=a, b=b, a2=2 * a, b2=b / 2)


def _gauss_g(a, b):
    return f"exp(-{a}*x1**2)*cos({b}*x1)", lambda x: np.exp(-a * x * x) * np.cos(b * x)


_DEFAULT_TAU = (0.15, 0.7)   # asym's "gauss-bump": reference_bump(1, 0.15, 0.7)

_DIST = {"delta": lambda: mollify.DeltaAt((0.0,)),
         "ddelta": lambda: mollify.DerivativeOfDelta((1,), (0.0,)),
         "heaviside": lambda: mollify.Heaviside()}


class Distributions(Workload):
    name = "distributions"
    # Grouped by cost.  The median falls among mollifier constructions at
    # n = 6, whose cost does not depend on the seed, and the 90th
    # percentile among the delta-square pairings at rho = 1e-3, whose cost
    # hardly does.  Each group is wide enough that a few operations more or
    # less below it do not move a percentile out of it.  One Heaviside
    # pairing tops each block; it takes about a third of the block's time,
    # so it uses the CLI's default test function and its cost does not
    # swing with the seed.
    _RHO = [1e-1, 3e-2, 1e-2]
    block = (
        (("mollifier", {"n": [0, 1, 2, 3, 4]}),) * 10
        + (("eval-at", {"monad": False}),) * 10
        # median group
        + (("mollifier", {"n": 6}),) * 12
        # upper group
        + (("mollifier", {"n": [5, 7, 8]}),)
        + (("weak-equal", {"equal": [False, True]}),) * 3
        + (("supgrid", {"n": [1, 2, 3], "rho": _RHO}),) * 3
        + (("moderate", {}),) * 3
        + (("eval-at", {"monad": True}),) * 2
        + (("embed", {"dist": "smooth", "n": [1, 2, 3, 4], "rho": _RHO}),)
        + (("embed", {"dist": "delta", "n": [1, 2, 3, 4], "rho": _RHO}),)
        + (("embed", {"dist": "ddelta", "n": [1, 2], "rho": _RHO}),)
        + (("dsquare", {"rho": 1e-2}),)
        # 90th-percentile group
        + (("dsquare", {"rho": 1e-3}),) * 5
        # heaviest
        + (("embed", {"dist": "ddelta", "n": [3, 4], "rho": _RHO}),) * 2
        + (("embed", {"dist": "heaviside", "n": 1, "rho": 1e-1, "tau": "default"}),)
    )
    warm = (("mollifier", {"n": 2}), ("embed", {"dist": "delta", "n": 1, "rho": 1e-1}),
            ("embed", {"dist": "ddelta", "n": 1, "rho": 1e-1}),
            ("supgrid", {"n": 1, "rho": 1e-1}), ("eval-at", {"monad": True}))

    # -- generation --------------------------------------------------------
    def gen_mollifier(self, rng, n):
        return {"n": n}

    def gen_embed(self, rng, dist, n, rho, tau=None):
        return {"dist": dist, "n": n, "rho": rho,
                "tau": _DEFAULT_TAU if tau == "default" else
                (round(rng.uniform(-0.2, 0.2), 3), round(rng.uniform(0.6, 0.9), 3)),
                "g": (round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(0.5, 2.0), 3))}

    def gen_supgrid(self, rng, n, rho):
        return {"n": n, "rho": rho,
                "g": (round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(0.5, 2.0), 3))}

    def gen_dsquare(self, rng, rho):
        return {"rho": rho,
                "tau": (round(rng.uniform(-0.1, 0.1), 3), round(rng.uniform(0.8, 0.9), 3))}

    def gen_eval_at(self, rng, monad):
        return {"f": _fn_spec(rng, 2), "x0": round(rng.uniform(-2.0, 2.0), 3),
                "offset": ((round(rng.uniform(-1.0, 1.0), 3), rng.choice((1, Fraction(1, 2))))
                           if monad else None)}

    def gen_moderate(self, rng):
        return {"f": _fn_spec(rng, 3)}

    def gen_weak_equal(self, rng, equal):
        f = _fn_spec(rng, 2)
        extra = None if equal else (rng.choice([q for q, *_ in f]), round(rng.uniform(0.01, 0.1), 3))
        return {"f": f, "extra": extra,
                "taus": [(round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(0.5, 0.9), 3))
                         for _ in range(2)]}

    # -- operations ----------------------------------------------------------
    @staticmethod
    def _fn(terms, rewrite=False, extra=None):
        dom = funcs.Domain.interval(-3.0, 3.0)
        parts = [(q, funcs.ExprProvider(_expr(name, a, b, rewrite), dim=1))
                 for q, name, a, b in terms]
        if extra is not None:
            parts.append((extra[0], funcs.ExprProvider(f"{extra[1]}*exp(-x1**2)", dim=1)))
        return funcs.AsymptoticFunction(parts, dom)

    def prep_mollifier(self, spec):
        n = spec["n"]
        return lambda: mollify.build_mollifier(n)

    def prep_embed(self, spec):
        dom = funcs.Domain.interval(-4.0, 4.0)
        tau = mollify.reference_bump(1, center=spec["tau"][0], width=spec["tau"][1])
        if spec["dist"] == "smooth":
            dist = mollify.LocallyIntegrableKernel(
                funcs.ExprProvider(_gauss_g(*spec["g"])[0], dim=1))
        else:
            dist = _DIST[spec["dist"]]()
        rho, n = spec["rho"], spec["n"]

        def op():
            emb = mollify.embed_distribution(dist, dom, rho, n)
            val = complex(funcs.pair(emb, tau).coefficient(0))
            return val, complex(mollify.reference_pairing(dist, tau))
        return op

    def prep_supgrid(self, spec):
        dom = funcs.Domain.interval(-3.0, 3.0)
        text, g = _gauss_g(*spec["g"])
        dist = mollify.LocallyIntegrableKernel(funcs.ExprProvider(text, dim=1))
        xs = np.linspace(-2.0, 2.0, 161)
        want = g(xs)
        rho, n = spec["rho"], spec["n"]

        def op():
            emb = mollify.embed_distribution(dist, dom, rho, n)
            got = emb.terms[0][1].evaluate(xs.reshape(-1, 1)).real
            return float(np.max(np.abs(got - want)))
        return op

    def prep_dsquare(self, spec):
        dom = funcs.Domain.interval(-3.0, 3.0)
        tau = mollify.reference_bump(1, center=spec["tau"][0], width=spec["tau"][1])
        rho = spec["rho"]

        def op():
            emb = mollify.embed_distribution(mollify.DeltaAt((0.0,)), dom, rho, 2)
            return complex(funcs.pair(funcs.fn_mul(emb, emb), tau).coefficient(Fraction(0)))
        return op

    def prep_eval_at(self, spec):
        f = self._fn(spec["f"])
        if spec["offset"] is None:
            p = funcs.AsymptoticPoint((spec["x0"],))
        else:
            c, w = spec["offset"]
            off = series.LCVector([series.LCNumber({Fraction(w): complex(c)}, backend="float")])
            p = funcs.AsymptoticPoint((spec["x0"],), off)
        return lambda: funcs.eval_at(f, p, horizon=Fraction(6))

    def prep_moderate(self, spec):
        f = self._fn(spec["f"])
        K = funcs.CompactBox((-2.0,), (2.0,))
        return lambda: funcs.is_moderate(f, K)

    def prep_weak_equal(self, spec):
        f = self._fn(spec["f"])
        g = self._fn(spec["f"], rewrite=True, extra=spec["extra"])
        taus = [mollify.reference_bump(1, center=c, width=w) for c, w in spec["taus"]]
        return lambda: funcs.weak_equal(f, g, taus)

    def plain(self, kind, result):
        if kind == "mollifier":
            return result.pieces
        if kind == "eval-at":
            return _lc_plain(result)
        if kind == "moderate":
            return result.moderate, result.witness_n
        if kind == "weak-equal":
            return result.equal
        return result

    # -- checks ----------------------------------------------------------------
    def check_mollifier(self, spec, pieces):
        mass = sum(oracle.pieces_integral((p,)) for p in pieces)
        _require(abs(mass - 1.0) < 1e-10, f"mollifier mass {mass}")
        for k in range(1, spec["n"] + 1):
            mk = sum(oracle.pieces_integral((p,), f=lambda x, k=k: x ** k) for p in pieces)
            _require(abs(mk) < 1e-10, f"moment {k} = {mk:.3e}")

    def check_embed(self, spec, result):
        val, ref = result
        tau = oracle.tau_pieces(*spec["tau"])
        c, w = spec["tau"]
        dist = spec["dist"]
        if dist == "delta":
            want = float(oracle.pieces_eval(tau, np.array([0.0]))[0])
        elif dist == "ddelta":
            want = -float(oracle.pieces_eval(tau, np.array([0.0]), order=1)[0])
        elif dist == "heaviside":
            x, wt = oracle.gauss(max(0.0, c - w), c + w)
            want = float(np.sum(wt * oracle.pieces_eval(tau, x)))
        else:
            want = oracle.pieces_integral(tau, f=_gauss_g(*spec["g"])[1])
        _require(abs(ref - want) < 1e-8, f"reference pairing {ref} != {want}")
        tol = _EMBED_TOL * spec["rho"] ** (spec["n"] + 1)
        _require(abs(val - want) < tol, f"pairing error {abs(val - want):.3e} > {tol:.3e}")

    def check_supgrid(self, spec, err):
        tol = _SUP_TOL * spec["rho"] ** (spec["n"] + 1)
        _require(err < tol, f"sup error {err:.3e} > {tol:.3e}")

    def check_dsquare(self, spec, val):
        theta = mollify.build_mollifier(2).pieces
        c2 = oracle.pieces_integral(theta, power=2)
        tau = oracle.tau_pieces(*spec["tau"])
        t0 = float(oracle.pieces_eval(tau, np.array([0.0]))[0])
        ratio = (val * spec["rho"] / (t0 * c2)).real
        _require(0.9 <= ratio <= 1.1, f"delta-square ratio {ratio:.4f}")

    def check_eval_at(self, spec, result):
        got, _ = result
        x0 = np.array([spec["x0"]])
        h = Fraction(6)
        want = {}
        for q, name, a, b in spec["f"]:
            d = _CATALOGUE[name][1]
            if spec["offset"] is None:
                want[q] = want.get(q, 0) + complex(d(a, b, 0, x0)[0])
                continue
            c, w = spec["offset"]
            k = 0
            while q + k * w < h:
                e = q + k * w
                want[e] = want.get(e, 0) + complex(d(a, b, k, x0)[0]) * c ** k / math.factorial(k)
                k += 1
        for e in set(got) | set(want):
            g, wv = got.get(e, 0), want.get(e, 0)
            _require(abs(g - wv) <= 1e-9 * max(1.0, abs(wv)), f"eval_at differs at rho^{e}")

    def check_moderate(self, spec, result):
        moderate, n = result
        want = max(0, math.ceil(-min(q for q, *_ in spec["f"])))
        _require(moderate and n == want, f"moderate={moderate}, witness {n} != {want}")

    def check_weak_equal(self, spec, equal):
        _require(equal == (spec["extra"] is None), "weak equality verdict wrong")


# pairing and sup-grid errors must fall under TOL * rho^(n+1)
_EMBED_TOL = 25.0
_SUP_TOL = 20.0


WORKLOADS = {w.name: w for w in (ExactSeries(), PuiseuxRoots(), Distributions())}
