"""Algebraic and analytic closure operations on truncated series.

Multiplicative inverses and n-th roots factor out the leading monomial,
x = c*rho^v*(1 + u), and compute (1 + u)^(-1/n) by Newton iteration,
which doubles the exponent below which the iterate is exact at each
step (Brent & Kung, "Fast algorithms for manipulating formal power
series", J. ACM 25, 1978): O(log H) products for the relative depth H.
Polynomial root finding lifts first-order (Newton polygon) data to full
series roots by Newton iteration whose working cut grows the same way,
with recentering recursion for clusters that share a leading term.
Transcendental functions are lifted through their Taylor series around
the standard part.  Cantor completeness is witnessed constructively on
nested interval chains.  Monomial scaling and the product horizon live
in ``series``; terms that are already normal are filtered through ``_make``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (BackendError, DivisionByZero, DomainError, LiftError,
                     NestingError, OrderError, RootError)
from .series import INF, Backend, Kind, LCNumber, _as_exp, _times_monomial

DEFAULT_DEPTH = Fraction(10)  # relative series depth used for exact inputs

# numpy scatters a root of multiplicity m over a disc of radius ~eps^(1/m),
# so clustering must be much coarser than machine precision
_CLUSTER_RTOL = 1e-3
_POLY_DUST = 1e-12
_MAX_RECENTER = 64


def _one(x: LCNumber) -> LCNumber:
    """The exact series 1 on x's backend."""
    one = Fraction(1) if x.backend is Backend.RATIONAL else 1 + 0j
    return x._make(((Fraction(0), one),), INF)


def _rel_horizon(x: LCNumber, horizon) -> Fraction:
    """Relative working precision: terms of 1 + u are needed below this."""
    v = x.valuation()
    h = x.horizon - v if x.horizon != INF else INF
    if horizon is not None:
        h = min(h, _as_exp(horizon) + v) if h != INF else _as_exp(horizon) + v
    return DEFAULT_DEPTH if h == INF else h


def _split_unit(x: LCNumber) -> Tuple[Fraction, object, LCNumber]:
    """Write x = c * rho^v * (1 + u) and return (v, c, u)."""
    if x.is_zero():
        raise DivisionByZero("zero has no leading monomial")
    v = x.valuation()
    c = x.leading_coefficient()
    rest = _times_monomial(x, x.terms[1:], -v, 1 / c,
                           x.horizon - v if x.horizon != INF else INF)
    return v, c, rest


def _exact(x: LCNumber) -> LCNumber:
    """x's terms as an exact series.  A Newton iterate is a number in its
    own right, not an approximation with unknown tail: a horizon on it
    would only pull the horizons of the next products down to the old
    precision."""
    return x._make(x.terms, INF)


def _inv_root(u: LCNumber, n: int, H: Fraction) -> LCNumber:
    """(1 + u)^(-1/n) for infinitesimal u, with its terms below exponent H,
    as an exact series.  Newton step z <- z + z*(1 - (1 + u)*z^n)/n: if z
    is exact below p, the residual (1 + u)*z^n - 1 starts at p and the
    new z is exact below 2p, so each product is cut at 2p."""
    z = _one(u)
    unit = z + u
    p = u.valuation()
    while p < H:
        p2 = min(2 * p, H)
        zt = z.truncate(p2)
        r = unit.truncate(p2)
        for _ in range(n):
            r = r * zt
        # r = 1 + (terms from p on); below p only float roundoff is left
        d = z._make(tuple((q, -c / n) for q, c in r.terms if q >= p), p2)
        z = _exact(z + z * d)
        p = p2
    return z.truncate(H)


def _series_in(u: LCNumber, coeffs, H: Fraction) -> LCNumber:
    """Sum coeffs[k] * u^k for infinitesimal u, truncated below exponent H
    (the Taylor lifts of exp, sin, cos and log)."""
    out = LCNumber.from_scalar(coeffs(0), backend=u.backend.value).truncate(H)
    if u.is_zero():
        return out
    w = u.valuation()
    if w <= 0:
        raise OrderError("series argument must be infinitesimal")
    term = _one(u)
    k = 0
    while (k + 1) * w < H:
        k += 1
        term = (term * u).truncate(H)
        c = coeffs(k)
        if c != 0:
            out = out + _times_monomial(term, term.terms, 0, c, term.horizon)
    return out.truncate(H)


def inverse(x: LCNumber, horizon=None) -> LCNumber:
    """1/x.  The result horizon is the soundness bound h - 2v for
    truncated input; exact input gets relative depth ``horizon``
    (default DEFAULT_DEPTH) past the leading exponent, except that an
    exact monomial c*rho^v has the exact inverse (1/c)*rho^-v when no
    ``horizon`` is asked for."""
    if horizon is None and x.horizon == INF and len(x.terms) == 1:
        (v, c), = x.terms
        return _times_monomial(x, ((Fraction(0), 1),), -v, 1 / c, INF)
    v, c, u = _split_unit(x)
    H = _rel_horizon(x, horizon)
    geom = _inv_root(u, 1, H)
    scaled = _times_monomial(x, geom.terms, -v, 1 / c, H - v)
    if x.horizon != INF:
        scaled = scaled.truncate(x.horizon - 2 * v)
    return scaled


def nth_root(x: LCNumber, n: int, branch: int = 0, horizon=None) -> LCNumber:
    """Principal (or ``branch``-rotated) n-th root.

    Rational backend: the leading coefficient must itself be an n-th
    power of a rational, and only branch 0 exists.
    """
    if n < 1:
        raise RootError("root index must be a positive integer")
    v, c, u = _split_unit(x)
    if x.backend is Backend.RATIONAL:
        if branch != 0:
            raise BackendError("rational backend carries only the principal branch")
        if c < 0:
            raise RootError("negative leading coefficient has no ordered root")
        croot = _rational_nth_root(c, n)
        if croot is None:
            raise RootError(f"leading coefficient {c} is not a rational {n}-th power")
    else:
        r, phi = abs(c), cmath.phase(c)
        croot = r ** (1.0 / n) * cmath.exp(1j * (phi + 2 * math.pi * (branch % n)) / n)
    H = _rel_horizon(x, horizon)
    alpha = Fraction(1, n)
    # (1 + u)^(1/n) = (1 + u) * z^(n-1) with z = (1 + u)^(-1/n)
    z = _inv_root(u, n, H)
    body = (u + _one(u)).truncate(H)
    for _ in range(n - 1):
        body = body * z
    return _times_monomial(x, body.terms, v * alpha, croot, H + v * alpha)


def sqrt(x: LCNumber, horizon=None) -> LCNumber:
    return nth_root(x, 2, horizon=horizon)


def _rational_nth_root(c: Fraction, n: int) -> Optional[Fraction]:
    def iroot(m: int) -> Optional[int]:
        if m == 0:
            return 0
        if n == 2:
            r = math.isqrt(m)
        else:
            # integer Newton from above: 2^ceil(bits/n) >= the root, and the
            # iterates fall monotonically to floor(m^(1/n))
            r = 1 << -(-m.bit_length() // n)
            while True:
                s = ((n - 1) * r + m // r ** (n - 1)) // n
                if s >= r:
                    break
                r = s
        return r if r ** n == m else None

    p, q = iroot(c.numerator), iroot(c.denominator)
    return Fraction(p, q) if p is not None and q is not None else None


# ---------------------------------------------------------------------------
# Transcendental lifts
# ---------------------------------------------------------------------------

def _taylor_apply(x: LCNumber, name: str, at_zero, cycle, horizon=None) -> LCNumber:
    """f(x) by the Taylor series of f around the standard part a of x.
    f(a), f'(a), ... repeat as d: ``at_zero`` (exact, a = 0) on the rational
    backend, ``cycle(a)`` on the float one. Coefficient k is d[k % len(d)] / k!;
    in floats sin and cos divide by k!, while exp, and any order past 170!
    (the largest factorial a double holds), scale by the exact 1/k! rounded once."""
    if x.kind() is Kind.INFINITE:
        raise DomainError(f"{name} of an infinite element leaves the field")
    rational = x.backend is Backend.RATIONAL
    a = x.coefficient(0) if x.kind() is Kind.FINITE else (Fraction(0) if rational else 0j)
    if rational and a != 0:
        raise BackendError(
            f"{name} at nonzero standard part {a} is irrational; use the float backend")
    try:
        d = [Fraction(c) for c in at_zero] if rational else cycle(complex(a))
    except OverflowError:
        raise BackendError(f"{name} at {a} overflows the float backend") from None
    H = x.horizon if x.horizon != INF else (
        _as_exp(horizon) if horizon is not None else DEFAULT_DEPTH)
    e = x - LCNumber.from_scalar(a, backend=x.backend.value)

    def coeff(k):
        c, f = d[k % len(d)], math.factorial(k)
        return c / f if rational or len(d) > 1 and k <= 170 else c * complex(Fraction(1, f))
    return _series_in(e.truncate(H), coeff, H)


def lc_exp(x: LCNumber, horizon=None) -> LCNumber:
    return _taylor_apply(x, "exp", (1,), lambda a: (cmath.exp(a),), horizon)


def lc_sin(x: LCNumber, horizon=None) -> LCNumber:
    return _taylor_apply(x, "sin", (0, 1, 0, -1), lambda a: (
        cmath.sin(a), cmath.cos(a), -cmath.sin(a), -cmath.cos(a)), horizon)


def lc_cos(x: LCNumber, horizon=None) -> LCNumber:
    return _taylor_apply(x, "cos", (1, 0, -1, 0), lambda a: (
        cmath.cos(a), -cmath.sin(a), -cmath.cos(a), cmath.sin(a)), horizon)


def lc_log(x: LCNumber, horizon=None) -> LCNumber:
    """log on the unit-scale group: requires valuation 0 (otherwise the
    value would involve log(rho), which is outside the field)."""
    if x.is_zero():
        raise DomainError("log of zero")
    if x.valuation() != 0:
        raise DomainError("log requires a finite non-infinitesimal argument")
    v, c, u = _split_unit(x)
    if x.backend is Backend.RATIONAL:
        if c != 1:
            raise BackendError(
                f"log of leading coefficient {c} is irrational; use the float backend")
        lc0 = Fraction(0)
    else:
        if c == 0:
            raise DomainError("log of zero")
        lc0 = cmath.log(c)
    H = _rel_horizon(x, horizon)

    def coeff(k):
        if k == 0:
            return lc0
        q = Fraction((-1) ** (k + 1), k)
        return q if x.backend is Backend.RATIONAL else complex(q)
    return _series_in(u, coeff, H)


# ---------------------------------------------------------------------------
# Polynomials and root lifting
# ---------------------------------------------------------------------------

class LCPolynomial:
    """Univariate polynomial with LCNumber coefficients, a_0 + a_1 x + ...
    Exact-zero top coefficients are trimmed; a top coefficient known to be
    zero only below a finite horizon leaves the degree unknown (``OrderError``)."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Sequence[LCNumber]):
        cs = list(coeffs)
        if not cs:
            raise OrderError("empty coefficient list")
        b = getattr(cs[0], "backend", None)
        if any(not isinstance(c, LCNumber) or c.backend is not b for c in cs):
            raise BackendError("coefficients must be LCNumbers on one backend")
        while len(cs) > 1 and cs[-1].is_zero():
            if cs[-1].horizon != INF:
                raise OrderError(f"top coefficient is 0 + O(rho^{cs[-1].horizon}): unknown degree")
            cs.pop()
        self.coeffs = tuple(cs)
        self.backend = b

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: LCNumber, below=INF) -> LCNumber:
        """p(x); with ``below``, only its terms below that exponent: each
        Horner partial sum is cut where the products still to come can
        reach, so the products stop there too.  Horner starts at a_d, which
        is 0*x + a_d: no float coefficient has a -0.0 part (``LCNumber``
        sums each into 0, and results are built as 0 + p)."""
        d = self.degree
        mu = 0 if x.is_zero() else x.valuation()
        out = self.coeffs[d]
        for j in range(d, -1, -1):
            if j < d:
                out = out * x + self.coeffs[j]
            if below != INF:
                out = out.truncate(below - j * mu)
        return out

    def derivative(self) -> "LCPolynomial":
        if self.degree == 0:
            return LCPolynomial([LCNumber.zero(backend=self.backend.value)])
        return LCPolynomial([c * k for k, c in enumerate(self.coeffs) if k >= 1])

    def shift(self, a: LCNumber) -> "LCPolynomial":
        """Taylor shift: coefficients of p(a + y) in y, by repeated
        synthetic division by y - a (Knuth, TAOCP vol. 2, §4.6.4): the
        k-th pass leaves p^(k)(a)/k! in place k, with d(d+1)/2 series
        products for degree d in all."""
        c = list(self.coeffs)
        d = self.degree
        for k in range(d):
            for j in range(d - 1, k - 1, -1):
                c[j] = c[j] + a * c[j + 1]
        return LCPolynomial(c)

    def __repr__(self):
        from .series import format_lc
        return "LCPolynomial([" + ", ".join(format_lc(c) for c in self.coeffs) + "])"


@dataclass(frozen=True)
class PuiseuxRoot:
    value: LCNumber
    multiplicity: int


def _lower_hull(points: List[Tuple[int, Fraction]]) -> List[Tuple[int, Fraction]]:
    pts = sorted(points)
    hull: List[Tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _cluster(values) -> List[Tuple[complex, int]]:
    import numpy as np
    if len(values) == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(values))))
    out: List[Tuple[complex, int]] = []
    for z in values:
        for i, (c, m) in enumerate(out):
            if abs(z - c) <= _CLUSTER_RTOL * scale:
                out[i] = ((c * m + z) / (m + 1), m + 1)
                break
        else:
            out.append((complex(z), 1))
    return out


def poly_roots(poly: LCPolynomial, precision=Fraction(8)) -> List[PuiseuxRoot]:
    """All roots of the polynomial as truncated series, counted with
    multiplicity, each accurate to residual valuation >= ``precision``.

    Float backend only: the algorithm leans on numerical root finding
    for the associated leading-coefficient polynomials.
    """
    if poly.backend is not Backend.FLOAT:
        raise BackendError("poly_roots requires the float backend")
    precision = _as_exp(precision)
    raw = _puiseux(poly, precision + 2, 0)
    out = []
    for val, mult in raw:
        out.append(PuiseuxRoot(val.truncate(precision + 2), mult))
    return out


def _refine_center(assoc, c0: complex, m: int) -> complex:
    """Sharpen a multiplicity-m cluster center: it is a simple root of the
    (m-1)-th derivative of the associated polynomial."""
    import numpy as np
    p = np.polynomial.Polynomial(assoc)
    for _ in range(m - 1):
        p = p.deriv()
    rs = p.roots()
    if len(rs) == 0:
        return c0
    return complex(rs[np.argmin(np.abs(rs - c0))])


def _depollute(poly: LCPolynomial) -> LCPolynomial:
    """Drop coefficient terms at roundoff level relative to the polynomial's
    global coefficient scale (recentering leaves such debris behind)."""
    scale = 0.0
    for c in poly.coeffs:
        for _, v in c.terms:
            scale = max(scale, abs(v))
    if scale == 0.0:
        return poly
    cut = _POLY_DUST * scale
    out = [c._make(tuple(t for t in c.terms if abs(t[1]) > cut), c.horizon)
           for c in poly.coeffs]
    return LCPolynomial(out) if any(not c.is_zero() for c in out) else poly


def _segment_roots(cs: List[LCNumber], below: Optional[Fraction]):
    """Newton-polygon data: [(mu, i1, [(lead_coeff, multiplicity), ...])]
    for the segments whose root valuation mu exceeds ``below`` (all if
    None); i1 is the index of the segment's right end."""
    import numpy as np
    hull = _lower_hull([(i, c.valuation()) for i, c in enumerate(cs) if not c.is_zero()])
    out = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        mu = Fraction(v0 - v1, i1 - i0)
        if below is not None and mu <= below:
            continue
        assoc = np.zeros(i1 - i0 + 1, dtype=complex)
        for i in range(i0, i1 + 1):
            c = cs[i]
            if not c.is_zero() and c.valuation() == v0 - mu * (i - i0):
                assoc[i - i0] = complex(c.leading_coefficient())
        zs = np.roots(assoc[::-1])
        clusters = [(c0 if m == 1 else _refine_center(assoc, c0, m), m)
                    for c0, m in _cluster(zs)]
        out.append((mu, i1, clusters))
    return out


def _zero_horizon(cs: List[LCNumber], k: int, target: Fraction) -> Fraction:
    """Horizon, capped at ``target``, of the roots that the Newton polygon
    balances against coefficient k and that are zero below ``target``: a
    coefficient i < k known only below h_i can hide a term of valuation
    h_i, which gives such a root the valuation (h_i - v(c_k)) / (k - i)."""
    v = cs[k].valuation()
    return min([target] + [(c.horizon - v) / (k - i) for i, c in enumerate(cs[:k])
                           if c.horizon != INF])


def _puiseux(poly: LCPolynomial, target: Fraction, depth: int,
             below: Optional[Fraction] = None):
    """[(root, multiplicity)] for roots of valuation > ``below``, each
    determined below exponent ``target``."""
    if depth > _MAX_RECENTER:
        raise LiftError("root lifting failed to separate a cluster")
    cs = list(poly.coeffs)
    roots: List[Tuple[LCNumber, int]] = []
    # roots at the origin: observed-zero low coefficients
    k0 = 0
    while k0 < len(cs) - 1 and cs[k0].is_zero():
        k0 += 1
    if k0:
        h = _zero_horizon(cs, k0, target)
        roots.append((LCNumber.zero(backend="float").truncate(h), k0))
    if k0 == len(cs) - 1:
        return roots
    dp = None      # p', built for the first simple root and shared by the rest
    for mu, i1, clusters in _segment_roots(cs[k0:], below):
        for c0, mult in clusters:
            lead = LCNumber({mu: c0}, backend="float")
            if mult == 1:
                if dp is None:
                    dp = poly.derivative()
                roots.append((_newton_refine(poly, dp, lead, target), 1))
            elif mu >= target:
                roots.append((lead.truncate(_zero_horizon(cs, k0 + i1, target)), mult))
            else:
                shifted = _depollute(poly.shift(lead))
                for tail, m in _puiseux(shifted, target, depth + 1, below=mu):
                    roots.append((lead + tail, m))
    return roots


def effective_valuation(x: LCNumber, tol: float) -> Fraction:
    """Least exponent whose coefficient exceeds ``tol`` in magnitude
    (INF if none): valuation up to float cancellation debris."""
    for q, c in x.terms:
        if abs(c) > tol:
            return q
    return INF


def _poly_scale(poly: LCPolynomial, x: LCNumber) -> float:
    s = max((abs(v) for c in poly.coeffs for _, v in c.terms), default=1.0)
    lead = abs(x.leading_coefficient()) if not x.is_zero() else 1.0
    return max(1.0, s) * max(1.0, lead) ** poly.degree


def _clean(x: LCNumber, tol: float) -> LCNumber:
    return x._make(tuple(t for t in x.terms if abs(t[1]) > tol), x.horizon)


def _newton_refine(poly: LCPolynomial, dp: LCPolynomial, x0: LCNumber,
                   target: Fraction) -> LCNumber:
    """Newton iteration for f = ``poly`` with f' = ``dp``, from the
    simple-root lead x0 (valuation mu) until the step f(x)/f'(x) has
    valuation >= target.

    A step of valuation s leaves an error of valuation >= 2s - mu, so each
    step is computed only below that exponent, and the next f(x) below
    the exponent the step after it can reach; x itself is held exact.
    Convergence is accepted only on an f(x) evaluated at the full cut
    target + v(f'(x)) (or at the horizon of the coefficients).  The root
    is known only below horizon(f(x)) - v(f'(x)): past that, the unknown
    tail of the coefficients can move it."""
    def derivative(x, below=INF):
        dx = dp(x, below=below)
        if dx.is_zero():
            raise LiftError("Newton derivative vanished on a presumed simple root")
        return dx

    tol = _POLY_DUST * _poly_scale(poly, x0)
    mu = x0.valuation()
    dx = derivative(x0)                      # x0 is a monomial: cheap
    x, d = x0, dx.valuation()
    # x is cleaned with tol/|f'|: a step below tol moves f(x) by f'*step,
    # which may still be above tol
    xtol = tol / max(1.0, abs(dx.leading_coefficient()))
    goal = target
    for _ in range(64):
        cut = goal + d
        fx = _clean(poly(x, below=cut), tol)
        known = min(target, fx.horizon - d)
        if fx.is_zero():
            if goal >= target or fx.horizon < cut:
                return _clean(x, xtol).truncate(known)
            goal = min(2 * goal - mu, target)    # x is exact below goal
            continue
        s = fx.valuation() - d
        if s >= target:
            return _clean(x, xtol).truncate(known)
        nxt = min(2 * s - mu, goal) if s > mu else goal
        dx = derivative(x, below=d + nxt - s)
        xtol = tol / max(1.0, abs(dx.leading_coefficient()))
        step = (fx * inverse(dx, horizon=nxt - fx.valuation())).truncate(nxt)
        x = _exact(_clean(x - step, xtol))
        d = dx.valuation()
        goal = min(2 * step.horizon - mu, target)
    raise LiftError("Newton refinement did not reach the requested precision")


# ---------------------------------------------------------------------------
# Cantor completeness on nested intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LCInterval:
    """Closed interval [lo, hi] on the rational (ordered) backend."""

    lo: LCNumber
    hi: LCNumber

    def __post_init__(self):
        if self.lo.backend is not Backend.RATIONAL or self.hi.backend is not Backend.RATIONAL:
            raise BackendError("intervals live on the ordered rational backend")
        if self.hi < self.lo:
            raise OrderError("empty interval: hi < lo")

    def width(self) -> LCNumber:
        return self.hi - self.lo

    def contains(self, x: LCNumber) -> bool:
        return self.lo <= x <= self.hi


def nested_interval_point(intervals: Sequence[LCInterval]) -> LCNumber:
    """A point in the intersection of a nested chain whose widths have
    strictly increasing valuation (the constructive content of Cantor
    completeness in the valuation topology)."""
    chain = list(intervals)
    if not chain:
        raise OrderError("no intervals given")
    prev = chain[0]
    for cur in chain[1:]:
        if not (prev.lo <= cur.lo and cur.hi <= prev.hi):
            raise NestingError("intervals are not nested")
        wp, wc = prev.width().valuation(), cur.width().valuation()
        if not (wc > wp or wc == INF):
            raise OrderError("interval widths must shrink in valuation")
        prev = cur
    last = chain[-1]
    w = last.width().valuation()
    if w == INF:
        return last.lo
    return last.lo.truncate(w)
