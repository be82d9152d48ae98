"""Reference arithmetic the benchmark checks results against.

Nothing here imports rhocalc: series are plain ``{exponent: coefficient}``
dicts, bumps are evaluated with numpy from their closed form, and
integrals use numpy Gauss-Legendre rules.  A result that passes a check
here was confirmed by code that shares no logic with the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Mersenne prime for the evaluation homomorphism of exact series.
PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# Sparse series as dicts
# ---------------------------------------------------------------------------

def mul_below(a, b, cut):
    """Product of two dict series, keeping exponents below ``cut``."""
    out = {}
    for q1, c1 in a.items():
        for q2, c2 in b.items():
            q = q1 + q2
            if q < cut:
                out[q] = out.get(q, 0) + c1 * c2
    return out


def pow_below(a, n, cut):
    """a^n below ``cut``; a partial product keeps the terms that later
    factors of negative valuation can still bring below ``cut``."""
    slack = -min(min(a), 0) if a else 0
    out = {Fraction(0): 1}
    for j in range(n):
        out = mul_below(out, a, cut + (n - 1 - j) * slack)
    return out


def sub(a, b):
    out = dict(a)
    for q, c in b.items():
        out[q] = out.get(q, 0) - c
    return {q: c for q, c in out.items() if c != 0}


def lead(a):
    """(valuation, leading coefficient) of a nonzero dict series."""
    q = min(a)
    return q, a[q]


def hom(a, t, scale):
    """Image of an exact series under rho -> t^scale in Z/PRIME.

    Exponents times ``scale`` must be integers; this map is a ring
    homomorphism on exact (untruncated) series, so it checks sums and
    products in time linear in the number of terms."""
    acc = 0
    for q, c in a.items():
        e = q * scale
        if e.denominator != 1:
            raise ValueError(f"exponent {q} is off the 1/{scale} lattice")
        c = Fraction(c)
        acc += c.numerator * pow(c.denominator, -1, PRIME) * pow(t, int(e), PRIME)
    return acc % PRIME


def lattice(*series):
    """Least common denominator of every exponent in the given dicts."""
    L = 1
    for s in series:
        for q in s:
            L = math.lcm(L, Fraction(q).denominator)
    return L


def parse_format(text):
    """{q: c} from rhocalc's canonical ``c*r^q + ...`` text (rational)."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for part in text.split(" + "):
        if "r^" in part:
            cs, _, qs = part.rpartition("r^")
            cs = cs[:-1] if cs.endswith("*") else cs
            q = Fraction(qs.strip("()"))
        else:
            cs, q = part, Fraction(0)
        c = Fraction(cs.strip("()")) if cs else Fraction(1)
        out[q] = out.get(q, 0) + c
    return out


def format_text(a):
    """Text in the expression language denoting the dict series exactly."""
    parts = []
    for q in sorted(a):
        parts.append(f"({a[q]})*eps^({q})")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Float series and polynomial residuals
# ---------------------------------------------------------------------------

def float_poly_residual(coeffs, root, cut):
    """p(root) for dict-series coefficients (low to high) below ``cut``."""
    out = {}
    for c in reversed(coeffs):
        out = mul_below(out, root, cut)
        for q, v in c.items():
            if q < cut:
                out[q] = out.get(q, 0) + v
    return out


def effective_valuation(a, tol):
    for q in sorted(a):
        if abs(a[q]) > tol:
            return q
    return None  # no coefficient above tol: the residual vanishes


def poly_scale(coeffs, root):
    s = max((abs(v) for c in coeffs for v in c.values()), default=1.0)
    lead_mag = abs(root[min(root)]) if root else 1.0
    return max(1.0, s) * max(1.0, lead_mag) ** (len(coeffs) - 1)


# ---------------------------------------------------------------------------
# Bumps, test functions and quadrature
# ---------------------------------------------------------------------------

def bump(t, order=0):
    """psi(t) = exp(1/(t^2-1)) on (-1, 1) and its first derivative."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    psi = np.exp(1.0 / (ti * ti - 1.0))
    out[inside] = psi if order == 0 else psi * (-2.0 * ti / (ti * ti - 1.0) ** 2)
    return out


def gauss(a, b, panels=16, order=32):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def pieces_eval(pieces, x, order=0):
    """Sum of coeff * psi((x - c)/w) (or its derivative) over 1-D pieces."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for coeff, (c,), w in pieces:
        out += coeff * bump((x - c) / w, order) / w ** order
    return out


def pieces_integral(pieces, f=None, power=1):
    """Integral of (sum of pieces)^power * f over the pieces' supports.

    The pieces have disjoint supports, so integrating piece by piece
    with a high-order rule is near machine precision."""
    total = 0.0
    for coeff, (c,), w in pieces:
        x, wt = gauss(c - w, c + w)
        v = coeff * bump((x - c) / w)
        g = 1.0 if f is None else f(x)
        total += float(np.sum(wt * v ** power * g))
    return total


def tau_pieces(center, width):
    """Pieces of reference_bump(1, center, width): a bump of unit mass."""
    mass = pieces_integral(((1.0, (center,), width),))
    return ((1.0 / mass, (center,), width),)
