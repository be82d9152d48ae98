"""Truncated Levi-Civita arithmetic.

An :class:`LCNumber` is a finite sparse series  sum_q  c_q * rho^q  with
rational exponents q and coefficients in an ordered backend, together
with a truncation *horizon* h: coefficients at exponents >= h are
unknown.  Exact inputs carry horizon +infinity; each arithmetic
operation propagates the tightest horizon it can soundly certify.

Two backends are provided: ``'rational'`` (exact Fractions) and
``'float'`` (complex floats with a relative dust threshold that sweeps
away roundoff terms).

Terms are kept as sorted ``(exponent, coefficient)`` tuples of Fractions,
but arithmetic runs on integers.  Sums (``+``, ``-`` and the n-ary
:func:`lc_sum`) put the operands' exponents over their common
denominator L and merge in one pass: a term that meets no other is
carried through as it is, and a new coefficient is built only where terms
meet.  Rational products also put each factor's coefficients over their
common denominator D, accumulate integer products per lattice exponent,
and build one ``Fraction(k, L)`` and one ``Fraction(n, Da*Db)`` per term
of the result.  Comparisons (``==``, the order, ``same_monad`` and
``same_galaxy``) read the leading term of x - y without building it: they
walk both term tuples to the first exponent below the joint horizon at
which they differ, so they cost what the common leading run costs.  The
normal form of a result has one owner, this module: the float rule
:func:`_kept`, the product horizon :func:`_product_horizon` (shared by
``funcs.fn_mul``) and the monomial scaling :func:`_times_monomial` (called
by ``closure`` and ``parser``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import (BackendError, BudgetError, DimensionError, DivisionByZero,
                     OrderError)

INF = math.inf         # horizon of an exact series, valuation of zero
DUST_REL = 1e-13       # float backend: relative magnitude below which a
                       # coefficient is treated as accumulated roundoff

Exponent = Fraction
Coefficient = Union[Fraction, complex, float, int]


def _as_exp(q) -> Fraction:
    """q as a Fraction; OrderError for a value that is no rational number."""
    if isinstance(q, Fraction):
        return q
    try:
        return Fraction(q)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise OrderError(f"exponent or horizon {q!r} is not a rational number") from None


# Python's int <-> str digit limit; 0 (or an interpreter without one): none
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _text(n) -> str:
    """str(n) for an int or Fraction; a number of more decimal digits than
    Python converts to text is refused with BudgetError."""
    try:
        return str(n)
    except ValueError:
        digits = math.ceil(max(abs(n.numerator), n.denominator).bit_length() * math.log10(2))
        raise BudgetError(f"work budget exceeded: a number of about {digits} digits "
                          f"to print (at most {_int_max_str_digits()})") from None


def _finite(c: complex) -> complex:
    """c, a float coefficient; BackendError if a part is inf or nan."""
    if not cmath.isfinite(c):
        raise BackendError("float overflow: a coefficient is out of the double range")
    return c


def _kept(c: complex, mag: float) -> bool:
    """The float rule: a result coefficient c, built as ``0 + p`` (no -0.0
    part) from parts of largest magnitude ``mag``, is dust unless it passes
    DUST_REL * mag.  An overflow is refused, not swept as dust."""
    return abs(_finite(c)) > DUST_REL * mag


# Ring operations run on the exponent lattice (1/L)Z: each exponent q
# becomes the integer numerator q*L (see the module docstring).

def _lattice_den(term_tuples) -> int:
    """L: the common denominator of the exponents of the term tuples."""
    return math.lcm(*(q.denominator for t in term_tuples for q, _ in t))


def _top(h, L: int):
    """ceil(h*L): the least lattice numerator at or beyond the horizon h."""
    return h if h == INF else -(-h.numerator * L // h.denominator)


# Work budget: an operation whose estimated work passes either bound is
# refused before it starts, with a BudgetError.
MAX_TERM_PAIRS = 1 << 22   # term products a power may multiply out
MAX_DIGITS = 100_000       # decimal digits of the largest integer it may build


def check_budget(what: str, pairs: int = 0, bits: float = 0.0) -> None:
    """Raise BudgetError if ``what`` is estimated to multiply more than
    MAX_TERM_PAIRS term pairs or to build integers of more than
    MAX_DIGITS digits (``bits`` bits)."""
    if pairs > MAX_TERM_PAIRS:
        raise BudgetError(f"work budget exceeded: {what} would multiply about "
                          f"{pairs} term pairs (at most {MAX_TERM_PAIRS})")
    digits = math.ceil(bits * math.log10(2))
    if digits > MAX_DIGITS:
        raise BudgetError(f"work budget exceeded: {what} would build integers of "
                          f"about {digits} digits (at most {MAX_DIGITS})")


def _lead_diff(x: "LCNumber", y: "LCNumber"):
    """(q, c): the least exponent below the joint horizon at which x - y has
    a coefficient, and that coefficient; None if there is none.  Walks the
    two sorted term tuples only up to that exponent; on the float backend
    a difference tiny relative to what was summed there is dust, as in
    :func:`lc_sum`."""
    a, b, h = x.terms, y.terms, min(x.horizon, y.horizon)
    rational = x.backend is Backend.RATIONAL
    i = j = 0
    while True:
        qa = a[i][0] if i < len(a) else INF
        qb = b[j][0] if j < len(b) else INF
        q = min(qa, qb)
        if q >= h:
            return None
        ca = cb = 0
        if qa == q:
            ca = a[i][1]
            i += 1
        if qb == q:
            cb = b[j][1]
            j += 1
        c = ca - cb
        if (c != 0) if rational else _kept(c, max(abs(ca), abs(cb))):
            return q, c


def lc_sum(summands) -> "LCNumber":
    """The sum of one or more ``(sign, x)`` pairs, sign +1 or -1, in one
    pass over one lattice.  Rational results equal the pairwise sum term
    for term; on the float backend each exponent's sum is swept for dust
    once, against the largest magnitude summed there."""
    summands = list(summands)
    x0 = summands[0][1]
    for _, x in summands:
        if x.backend is not x0.backend:
            raise BackendError(f"mixed backends: {x0.backend.value} vs {x.backend.value}")
    h = min(x.horizon for _, x in summands)
    L = _lattice_den(x.terms for _, x in summands)
    top = _top(h, L)
    acc: dict = {}
    if x0.backend is Backend.RATIONAL:
        met = []
        for sign, x in summands:
            for t in x.terms:
                q, c = t
                k = q.numerator * (L // q.denominator)
                if k >= top:
                    break
                s = acc.get(k)
                if s is None:
                    acc[k] = t if sign > 0 else (q, -c)
                else:
                    acc[k] = (s[0], s[1] + c if sign > 0 else s[1] - c)
                    met.append(k)
        for k in met:
            if k in acc and not acc[k][1]:
                del acc[k]
        return x0._make(tuple(acc[k] for k in sorted(acc)), h)
    # float backend: cancellation at an exponent leaves roundoff debris;
    # a coefficient tiny relative to what was summed there is noise
    exps: dict = {}
    mag: dict = {}
    for sign, x in summands:
        for q, c in x.terms:
            k = q.numerator * (L // q.denominator)
            if k >= top:
                break
            if sign < 0:
                c = 0 - c
            if k in acc:
                acc[k] += c
                mag[k] = max(mag[k], abs(c))
            else:
                acc[k] = 0j + c
                exps[k] = q
                mag[k] = abs(c)
    return x0._make(tuple((exps[k], acc[k]) for k in sorted(acc)
                          if _kept(acc[k], mag[k])), h)


def _product_horizon(a, b):
    """min(h1 + v2, h2 + v1) for a, b with ``.terms`` and ``.horizon``: one
    factor's unknown tail meets the other's lead, which is its horizon if
    it has no terms."""
    va = a.terms[0][0] if a.terms else a.horizon
    vb = b.terms[0][0] if b.terms else b.horizon
    return min(a.horizon + vb, b.horizon + va)


def _times_monomial(x: "LCNumber", terms, v, c, horizon) -> "LCNumber":
    """c*rho^v times the sorted ``terms`` of x, below ``horizon``, through
    ``_make``: a shift and a nonzero scale keep terms sorted and normal; a
    float product that underflows to zero is dropped."""
    if x.backend is Backend.RATIONAL:
        return x._make(tuple((q + v if v else q, p * c) for q, p in terms), horizon)
    return x._make(tuple(t for t in ((q + v if v else q, 0 + p * c) for q, p in terms)
                         if _kept(t[1], 0.0)), horizon)


class Backend(Enum):
    RATIONAL = "rational"
    FLOAT = "float"


def _coerce_backend(b) -> Backend:
    if isinstance(b, Backend):
        return b
    try:
        return Backend(b)
    except ValueError:
        raise BackendError(f"unknown backend {b!r}")


def _check_coeff(c, backend: Backend):
    if backend is Backend.RATIONAL:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise BackendError(f"rational backend needs Fraction/int coefficients, got {type(c).__name__}")
    if not isinstance(c, (int, float, complex, Fraction)):
        raise BackendError(f"float backend cannot accept {type(c).__name__} coefficients")
    try:
        return _finite(complex(c))
    except OverflowError:
        raise BackendError("coefficient too large for the float backend") from None


class Sign(Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class Kind(Enum):
    ZERO = "Zero"
    INFINITESIMAL = "Infinitesimal"
    FINITE = "FiniteNonInfinitesimal"
    INFINITE = "Infinite"


@dataclass(frozen=True)
class ExtendedScalar:
    """Value of the standard part map: a backend scalar, +/-infinity, or
    the complex-infinite marker."""

    value: Optional[Coefficient] = None
    infinite: bool = False
    sign: int = 0          # +1 / -1 for real infinities, 0 for complex infinite

    @staticmethod
    def finite(v) -> "ExtendedScalar":
        return ExtendedScalar(value=v)

    @staticmethod
    def pos_inf() -> "ExtendedScalar":
        return ExtendedScalar(infinite=True, sign=1)

    @staticmethod
    def neg_inf() -> "ExtendedScalar":
        return ExtendedScalar(infinite=True, sign=-1)

    @staticmethod
    def complex_inf() -> "ExtendedScalar":
        return ExtendedScalar(infinite=True, sign=0)

    def __repr__(self):
        if not self.infinite:
            return f"ExtendedScalar({self.value!r})"
        return {1: "ExtendedScalar(+inf)", -1: "ExtendedScalar(-inf)",
                0: "ExtendedScalar(complex-inf)"}[self.sign]


class LCNumber:
    """Sparse truncated series over the scale rho, ordered by exponent."""

    __slots__ = ("terms", "horizon", "backend")

    def __init__(self, terms: Union[Mapping, Iterable, None] = None,
                 horizon=INF, backend="float"):
        """Normalise arbitrary ``(exponent, coefficient)`` pairs: Fraction
        exponents, backend coefficients, equal exponents summed, zeros and
        terms at or past the horizon dropped, sorted.  Results of arithmetic
        are normal already and skip this through :meth:`_make`."""
        backend = _coerce_backend(backend)
        horizon = _as_exp(horizon) if horizon != INF else INF
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        acc: dict = {}
        for q, c in items:
            q = _as_exp(q)
            c = _check_coeff(c, backend)
            if q < horizon:
                acc[q] = acc.get(q, 0) + c
        # exponents are distinct, so the sort never compares coefficients
        self.terms = tuple(sorted(t for t in acc.items() if t[1]))
        self.horizon = horizon
        self.backend = backend

    # -- construction helpers ----------------------------------------
    @classmethod
    def from_scalar(cls, c, backend="float") -> "LCNumber":
        return cls({Fraction(0): c}, backend=backend)

    @classmethod
    def rho(cls, q=1, backend="float") -> "LCNumber":
        return cls({_as_exp(q): Fraction(1) if _coerce_backend(backend) is Backend.RATIONAL else 1.0},
                   backend=backend)

    @classmethod
    def zero(cls, backend="float") -> "LCNumber":
        return cls({}, backend=backend)

    def _make(self, terms: tuple, horizon) -> "LCNumber":
        """Trusted constructor for results: ``terms`` is already a sorted
        tuple of nonzero terms below ``horizon``, so nothing is re-checked."""
        x = object.__new__(LCNumber)
        x.terms, x.horizon, x.backend = terms, horizon, self.backend
        return x

    def coefficient(self, q) -> Coefficient:
        """Coefficient at exponent q; raises if q is beyond the horizon."""
        q = _as_exp(q)
        if q >= self.horizon:
            raise OrderError(f"exponent {q} is at or beyond the horizon {self.horizon}")
        for p, c in self.terms:
            if p == q:
                return c
        return Fraction(0) if self.backend is Backend.RATIONAL else 0j

    def support(self) -> Tuple[Fraction, ...]:
        return tuple(q for q, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, h) -> "LCNumber":
        h = _as_exp(h) if h != INF else INF
        h = min(h, self.horizon)
        return self._make(tuple(t for t in self.terms if t[0] < h), h)

    # -- valuation ----------------------------------------------------
    def valuation(self) -> Fraction:
        """Least support exponent; INF for (observed) zero."""
        return self.terms[0][0] if self.terms else INF

    def leading_coefficient(self) -> Coefficient:
        if not self.terms:
            raise DivisionByZero("zero series has no leading coefficient")
        return self.terms[0][1]

    def vnorm(self) -> float:
        """Valuation norm e^{-v}; 0 for zero."""
        v = self.valuation()
        return 0.0 if v == INF else math.exp(-float(v))

    # -- ring operations ----------------------------------------------
    def _join(self, other: "LCNumber") -> "LCNumber":
        if not isinstance(other, LCNumber):
            other = LCNumber.from_scalar(other, backend=self.backend)
        if other.backend is not self.backend:
            raise BackendError(f"mixed backends: {self.backend.value} vs {other.backend.value}")
        return other

    def __add__(self, other) -> "LCNumber":
        return lc_sum(((1, self), (1, self._join(other))))

    __radd__ = __add__

    def __neg__(self) -> "LCNumber":
        # 0 - c rather than -c: like every sum here it leaves no negative
        # zero in a float coefficient
        return self._make(tuple((q, 0 - c) for q, c in self.terms), self.horizon)

    def __sub__(self, other) -> "LCNumber":
        return lc_sum(((1, self), (-1, self._join(other))))

    def __rsub__(self, other) -> "LCNumber":
        return lc_sum(((-1, self), (1, self._join(other))))

    def __mul__(self, other) -> "LCNumber":
        other = self._join(other)
        h = _product_horizon(self, other)
        if self.is_zero() or other.is_zero():
            return self._make((), h)
        L = _lattice_den((self.terms, other.terms))
        top = _top(h, L)
        a = [(q.numerator * (L // q.denominator), c) for q, c in self.terms]
        b = [(q.numerator * (L // q.denominator), c) for q, c in other.terms]
        acc: dict = {}
        # both factors are sorted, so the first pair at or past the horizon
        # ends the inner loop
        if self.backend is Backend.RATIONAL:
            # integer numerators over each factor's coefficient denominator
            Da = math.lcm(*(c.denominator for _, c in a))
            Db = math.lcm(*(c.denominator for _, c in b))
            a = [(k, c.numerator * (Da // c.denominator)) for k, c in a]
            b = [(k, c.numerator * (Db // c.denominator)) for k, c in b]
            for k1, n1 in a:
                for k2, n2 in b:
                    k = k1 + k2
                    if k >= top:
                        break
                    acc[k] = acc.get(k, 0) + n1 * n2
            D = Da * Db
            return self._make(tuple((Fraction(k, L), Fraction(n, D))
                                    for k, n in sorted(acc.items()) if n), h)
        mag: dict = {}
        for k1, c1 in a:
            for k2, c2 in b:
                k = k1 + k2
                if k >= top:
                    break
                p = c1 * c2
                acc[k] = acc.get(k, 0) + p
                mag[k] = max(mag.get(k, 0.0), abs(p))
        return self._make(tuple((Fraction(k, L), c) for k, c in sorted(acc.items())
                                if _kept(c, mag[k])), h)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LCNumber":
        if not isinstance(n, int):
            raise OrderError("integer powers only; use closure.nth_root for radicals")
        if n < 0:
            from .closure import inverse
            return inverse(self) ** (-n)
        check_budget(f"power {n} of a {len(self.terms)}-term series", *self._pow_cost(n))
        out = LCNumber.from_scalar(
            Fraction(1) if self.backend is Backend.RATIONAL else 1.0, backend=self.backend)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _pow_cost(self, k: int) -> Tuple[int, float]:
        """(term pairs, bits): an upper estimate of the term products that
        ``self ** k`` multiplies out by squaring, and of the bit size of
        the largest integer in its coefficients (0 on the float backend)."""
        n = len(self.terms)
        if n == 0 or k == 0:
            return 0, 0.0
        v, top = self.terms[0][0], self.terms[-1][0]
        L = _lattice_den((self.terms,))
        span = int((top - v) * L)
        # self**j lies on the lattice (1/L)Z in [j*v, j*top], below the
        # horizon h + (j - 1)*v, and has at most C(n + j - 1, j) terms
        room = INF if self.horizon == INF else math.ceil((self.horizon - v) * L)

        def terms(j):
            t = min(j * span + 1, room)
            return min(t, math.comb(n + j - 1, j)) if min(j, n - 1) <= 64 else t

        pairs, a, b = 0, 0, 1      # out = self**a, base = self**b
        while k:
            if k & 1:
                pairs += (terms(a) if a else 1) * terms(b)
                a += b
            k >>= 1
            if k:
                pairs += terms(b) ** 2
                b *= 2
        if self.backend is not Backend.RATIONAL:
            return pairs, 0.0
        # coefficients are N_i / D; one of self**a sums at most n**a
        # products of a numerators over D**a (fewer below a horizon)
        D = math.lcm(*(c.denominator for _, c in self.terms))
        M = max(abs(c.numerator) * (D // c.denominator) for _, c in self.terms)
        count = a * math.log2(n)
        if room != INF:
            count = min(count, room * math.log2(a * n))
        return pairs, max(a * math.log2(M) + count, a * math.log2(D))

    def __truediv__(self, other) -> "LCNumber":
        from .closure import inverse
        return self * inverse(self._join(other))

    def __rtruediv__(self, other) -> "LCNumber":
        from .closure import inverse
        return self._join(other) * inverse(self)

    # -- equality and order --------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float, complex, Fraction)):
            other = LCNumber.from_scalar(other, backend=self.backend)
        if not isinstance(other, LCNumber):
            return NotImplemented
        # agreement on the joint observable window
        return _lead_diff(self, self._join(other)) is None

    # == is agreement on the joint horizon window, which is not transitive,
    # so no hash can respect it
    __hash__ = None

    def sign(self) -> Sign:
        """Sign of the leading coefficient (rational backend order)."""
        if self.backend is not Backend.RATIONAL:
            raise BackendError("ordering is defined on the rational backend only")
        if not self.terms:
            return Sign.ZERO
        return Sign.POSITIVE if self.terms[0][1] > 0 else Sign.NEGATIVE

    def _order(self, other) -> Sign:
        """Sign of self - other, read off its leading term."""
        other = self._join(other)
        if self.backend is not Backend.RATIONAL:
            raise BackendError("ordering is defined on the rational backend only")
        d = _lead_diff(self, other)
        if d is None:
            return Sign.ZERO
        return Sign.POSITIVE if d[1] > 0 else Sign.NEGATIVE

    def __lt__(self, other):
        return self._order(other) is Sign.NEGATIVE

    def __le__(self, other):
        return self._order(other) is not Sign.POSITIVE

    def __gt__(self, other):
        return self._order(other) is Sign.POSITIVE

    def __ge__(self, other):
        return self._order(other) is not Sign.NEGATIVE

    def abs(self) -> "LCNumber":
        """|x| in the ordered (rational) field sense."""
        return -self if self.sign() is Sign.NEGATIVE else self

    # -- classification -------------------------------------------------
    def kind(self) -> Kind:
        v = self.valuation()
        if v == INF:
            return Kind.ZERO
        if v > 0:
            return Kind.INFINITESIMAL
        if v == 0:
            return Kind.FINITE
        return Kind.INFINITE

    def is_infinitesimal(self) -> bool:
        return self.kind() in (Kind.ZERO, Kind.INFINITESIMAL)

    def standard_part(self) -> ExtendedScalar:
        """Coefficient at exponent 0, extended to +/-inf on infinite input."""
        k = self.kind()
        if k is Kind.INFINITE:
            if self.backend is Backend.RATIONAL:
                lead = self.leading_coefficient()
                return ExtendedScalar.pos_inf() if lead > 0 else ExtendedScalar.neg_inf()
            return ExtendedScalar.complex_inf()
        if k in (Kind.ZERO, Kind.INFINITESIMAL):
            if Fraction(0) >= self.horizon:
                raise OrderError("standard part not observable: horizon <= 0")
            z = Fraction(0) if self.backend is Backend.RATIONAL else 0j
            return ExtendedScalar.finite(z)
        return ExtendedScalar.finite(self.coefficient(0))

    def same_monad(self, other) -> bool:
        """x ~ y iff x - y is infinitesimal (finite-part equivalence)."""
        d = _lead_diff(self, self._join(other))
        return d is None or d[0] > 0

    def same_galaxy(self, other) -> bool:
        """x ~ y iff x - y is finite."""
        d = _lead_diff(self, self._join(other))
        return d is None or d[0] >= 0

    # -- presentation -----------------------------------------------------
    def __repr__(self):
        h = "inf" if self.horizon == INF else _text(self.horizon)
        return f"LCNumber({format_lc(self)!r}, horizon={h}, backend={self.backend.value!r})"


def format_lc(x: LCNumber) -> str:
    """Canonical text form: ``3*r^-2 + 1 + 5*r^(1/2)`` (ascending exponents)."""
    if not x.terms:
        return "0"
    parts = []
    for q, c in x.terms:
        if isinstance(c, complex):
            cs = repr(c.real) if c.imag == 0 else f"({c.real}{c.imag:+}j)"
        else:
            cs = f"({_text(c)})" if isinstance(c, Fraction) and c.denominator != 1 \
                else _text(c)
        if q == 0:
            parts.append(cs)
        else:
            qs = _text(q) if q.denominator == 1 else f"({_text(q)})"
            parts.append(f"r^{qs}" if cs == "1" else f"{cs}*r^{qs}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Finite-dimensional vectors over the field
# ---------------------------------------------------------------------------

class LCVector:
    """Fixed-length tuple of LCNumbers with the sup valuation norm."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[LCNumber]):
        entries = tuple(entries)
        if not entries:
            raise OrderError("empty vector")
        b = entries[0].backend
        for e in entries:
            if not isinstance(e, LCNumber) or e.backend is not b:
                raise BackendError("vector entries must be LCNumbers on one backend")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "LCVector") -> "LCVector":
        if len(other) != len(self):
            raise DimensionError("dimension mismatch")
        return LCVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "LCVector") -> "LCVector":
        if len(other) != len(self):
            raise DimensionError("dimension mismatch")
        return LCVector([a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, a: LCNumber) -> "LCVector":
        return LCVector([a * e for e in self.entries])

    def valuation(self) -> Fraction:
        return min(e.valuation() for e in self.entries)

    def vnorm(self) -> float:
        v = self.valuation()
        return 0.0 if v == INF else math.exp(-float(v))

    def __repr__(self):
        return f"LCVector([{', '.join(format_lc(e) for e in self.entries)}])"
