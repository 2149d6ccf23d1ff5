"""Exact arithmetic on truncated Laurent series over the ring Q[L^{+-1}, Z3, Z5, ...].

The coefficient ring adjoins the symbols L (the natural log of 2, with
negative powers allowed) and Z3, Z5, Z7, ... (zeta at odd integers >= 3,
non-negative powers only) to the rationals.  Every operation is exact; the
only bridge to floating point is :func:`coeff_eval`.

A :class:`TruncatedSeries` represents

    sum_{k=v}^{N} c_k z^k  +  O(z^{N+1})

with valuation v >= -1 and order N.  Arithmetic truncates results to the
minimum order that the inputs support; nothing is ever silently extended.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    MissingConstant,
    NonInvertibleLeadingCoefficient,
    NonInvertibleLinearCoefficient,
    PositiveValuationRequired,
    UnsupportedConstantTerm,
)

DEFAULT_ORDER = 10

# A monomial key is (eL, zpart) where eL is the (possibly negative) exponent
# of L and zpart is a sorted tuple of (odd index, positive exponent) pairs.
_EMPTY = (0, ())


def _as_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected int or Fraction, got {type(q).__name__}")


class ExactCoefficient:
    """Element of Q[L^{+-1}, Z3, Z5, Z7, ...], stored as monomial -> rational."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        clean = {}
        if terms:
            for key, q in terms.items():
                q = _as_fraction(q)
                if q:
                    eL, zpart = key
                    zpart = tuple(sorted((k, e) for k, e in zpart if e))
                    for k, e in zpart:
                        if k < 3 or k % 2 == 0:
                            raise ValueError(f"zeta symbol index must be odd >= 3, got {k}")
                        if e < 0:
                            raise ValueError("zeta symbols admit no negative powers")
                    nk = (eL, zpart)
                    clean[nk] = clean.get(nk, Fraction(0)) + q
                    if not clean[nk]:
                        del clean[nk]
        self._terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def rational(cls, num, den=1) -> "ExactCoefficient":
        q = Fraction(num, den)
        return cls({_EMPTY: q}) if q else cls()

    @classmethod
    def log2_power(cls, exponent=1, q=1) -> "ExactCoefficient":
        return cls({(exponent, ()): Fraction(q)})

    @classmethod
    def zeta_odd(cls, index, exponent=1, q=1) -> "ExactCoefficient":
        return cls({(0, ((index, exponent),)): Fraction(q)})

    # -- structure ------------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _EMPTY in self._terms)

    def rational_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("coefficient is not a pure rational")
        return self._terms[_EMPTY]

    def monomial_inverse(self) -> "ExactCoefficient":
        """Inverse of q*L^k; anything else leaves the ring."""
        if len(self._terms) != 1:
            raise NonInvertibleLeadingCoefficient(
                f"coefficient has {len(self._terms)} terms: {self}")
        (eL, zpart), q = next(iter(self._terms.items()))
        if zpart:
            raise NonInvertibleLeadingCoefficient(
                f"coefficient involves zeta symbols: {self}")
        return ExactCoefficient({(-eL, ()): 1 / q})

    def _key(self):
        return tuple(sorted(self._terms.items()))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactCoefficient.rational(other)
        if not isinstance(other, ExactCoefficient):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._key())

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactCoefficient.rational(other)
        if not isinstance(other, ExactCoefficient):
            return NotImplemented
        out = dict(self._terms)
        for key, q in other._terms.items():
            s = out.get(key, Fraction(0)) + q
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = ExactCoefficient.__new__(ExactCoefficient)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = ExactCoefficient.__new__(ExactCoefficient)
        res._terms = {k: -q for k, q in self._terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other if isinstance(other, ExactCoefficient)
                       else ExactCoefficient.rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                return ExactCoefficient()
            res = ExactCoefficient.__new__(ExactCoefficient)
            res._terms = {k: v * q for k, v in self._terms.items()}
            return res
        if not isinstance(other, ExactCoefficient):
            return NotImplemented
        out = {}
        for (eL1, zp1), q1 in self._terms.items():
            for (eL2, zp2), q2 in other._terms.items():
                zc = dict(zp1)
                for k, e in zp2:
                    zc[k] = zc.get(k, 0) + e
                key = (eL1 + eL2, tuple(sorted(zc.items())))
                s = out.get(key, Fraction(0)) + q1 * q2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = ExactCoefficient.__new__(ExactCoefficient)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = ExactCoefficient.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __repr__(self):
        from .pari_text import format_coefficient
        return f"ExactCoefficient({format_coefficient(self)})"

    def __str__(self):
        from .pari_text import format_coefficient
        return format_coefficient(self)


EC_ZERO = ExactCoefficient()
EC_ONE = ExactCoefficient.rational(1)
L = ExactCoefficient.log2_power(1)


def Z(index) -> ExactCoefficient:
    return ExactCoefficient.zeta_odd(index)


def coeff_eval(c: ExactCoefficient, constants: Mapping[str, float]) -> float:
    """Evaluate a ring element at numeric bindings for L and the Z symbols.

    ``constants`` maps 'L' to ln 2 and 'Z3', 'Z5', ... to zeta at odd
    integers, each accurate to <= 1e-15 absolute.  The result carries the sum
    of |rational| * |monomial value| * (relative binding error) as its error,
    i.e. first-order propagation; with 1e-15 bindings and the magnitudes in
    play this stays far below every downstream tolerance.
    """
    parts = []
    for (eL, zpart), q in c._terms.items():
        if eL and "L" not in constants:
            raise MissingConstant("no binding for L")
        val = float(q)
        if eL:
            val *= constants["L"] ** eL
        for k, e in zpart:
            name = f"Z{k}"
            if name not in constants:
                raise MissingConstant(f"no binding for {name}")
            val *= constants[name] ** e
        parts.append(val)
    return math.fsum(parts)


# -----------------------------------------------------------------------------
# truncated Laurent series
# -----------------------------------------------------------------------------

def _coerce_coeff(c) -> ExactCoefficient:
    if isinstance(c, ExactCoefficient):
        return c
    if isinstance(c, (int, Fraction)):
        return ExactCoefficient.rational(c)
    raise TypeError(f"bad coefficient type {type(c).__name__}")


class TruncatedSeries:
    """Laurent series sum_{k=v}^{N} c_k z^k + O(z^{N+1}) with exact coefficients."""

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: Iterable, order: int | None = None):
        coeffs = [_coerce_coeff(c) for c in coeffs]
        if order is None:
            order = valuation + len(coeffs) - 1
        if order < valuation or len(coeffs) != order - valuation + 1:
            raise ValueError("coefficient count does not match valuation/order")
        # normalize: a vanishing head means the series genuinely starts later
        while len(coeffs) > 1 and coeffs[0].is_zero():
            coeffs.pop(0)
            valuation += 1
        if len(coeffs) == 1 and coeffs[0].is_zero():
            valuation = order
        if valuation < -1:
            raise ValueError("valuation below -1 is not supported")
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls(0, [_coerce_coeff(c)] + [EC_ZERO] * order, order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls(order, [EC_ZERO], order)

    @classmethod
    def monomial(cls, exponent: int, c=1, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        if exponent > order:
            raise ValueError("monomial exponent beyond requested order")
        return cls(exponent, [_coerce_coeff(c)] + [EC_ZERO] * (order - exponent), order)

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls.monomial(1, 1, order)

    # -- accessors --------------------------------------------------------------

    def coefficient(self, k: int) -> ExactCoefficient:
        if k > self.order:
            raise ValueError(f"coefficient of z^{k} beyond truncation order {self.order}")
        if k < self.valuation:
            return EC_ZERO
        return self.coeffs[k - self.valuation]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.valuation == other.valuation and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.valuation, self.order, self.coeffs))

    def agrees_with(self, other: "TruncatedSeries", through: int | None = None) -> bool:
        """Coefficientwise equality up to min(orders) (or ``through``)."""
        hi = min(self.order, other.order)
        if through is not None:
            hi = min(hi, through)
        lo = min(self.valuation, other.valuation)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, hi + 1))

    def __repr__(self):
        from .pari_text import format_series
        return f"TruncatedSeries({format_series(self)})"

    def __str__(self):
        from .pari_text import format_series
        return format_series(self)

    # operator sugar (delegates to module functions)
    def __add__(self, other):
        return ps_add(self, other)

    def __sub__(self, other):
        return ps_add(self, ps_neg(other))

    def __neg__(self):
        return ps_neg(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactCoefficient)):
            return ps_scale(self, other)
        return ps_mul(self, other)

    __rmul__ = __mul__


# -- operations ------------------------------------------------------------------


def ps_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum; order = min of orders, valuation after cancellation."""
    order = min(a.order, b.order)
    v = min(a.valuation, b.valuation, order)
    coeffs = [a.coefficient(k) + b.coefficient(k) for k in range(v, order + 1)]
    return TruncatedSeries(v, coeffs, order)


def ps_neg(a: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries(a.valuation, [-c for c in a.coeffs], a.order)


def ps_sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return ps_add(a, ps_neg(b))


def ps_scale(a: TruncatedSeries, c) -> TruncatedSeries:
    c = _coerce_coeff(c)
    return TruncatedSeries(a.valuation, [c * x for x in a.coeffs], a.order)


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product; order = min(a.order + b.valuation, b.order + a.valuation)."""
    order = min(a.order + b.valuation, b.order + a.valuation)
    v = a.valuation + b.valuation
    if v < -1:
        raise ValueError(
            "product of two Laurent heads falls below z^-1, outside the "
            "supported range")
    if a.is_zero() or b.is_zero():
        return TruncatedSeries.zero(order)
    n = order - v + 1
    out = [EC_ZERO] * n
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b.coeffs):
            if i + j >= n:
                break
            if cb.is_zero():
                continue
            out[i + j] = out[i + j] + ca * cb
    return TruncatedSeries(v, out, order)


def ps_truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    """Drop knowledge beyond ``order`` (never extends)."""
    if order > a.order:
        raise ValueError("cannot extend a truncated series")
    if order == a.order:
        return a
    v = min(a.valuation, order)
    return TruncatedSeries(v, [a.coefficient(k) for k in range(v, order + 1)], order)


def ps_recip(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse: ps_mul(a, ps_recip(a)) == 1 up to truncation.

    Requires the leading coefficient to be an invertible monomial q*L^k.
    Result has valuation -a.valuation and order a.order - 2*a.valuation.
    """
    if a.is_zero():
        raise NonInvertibleLeadingCoefficient("cannot invert the zero series")
    head = a.coeffs[0]
    head_inv = head.monomial_inverse()
    v = a.valuation
    if v > 1:
        raise ValueError(
            f"reciprocal of a series with valuation {v} falls below z^-1, "
            "outside the supported Laurent range")
    m = a.order - v  # relative order of the unit part
    # a = head * z^v * (1 + u); invert the unit part by the standard recurrence
    u = [head_inv * c for c in a.coeffs]  # u[0] == 1
    r = [EC_ONE] + [EC_ZERO] * m
    for k in range(1, m + 1):
        acc = EC_ZERO
        for j in range(1, k + 1):
            if not u[j].is_zero():
                acc = acc + u[j] * r[k - j]
        r[k] = -acc
    return TruncatedSeries(-v, [head_inv * c for c in r], a.order - 2 * v)


def ps_log(a: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 2^j (j >= 0): jL + log(1 + u).

    The restriction keeps the result inside the ring: log 2^j = j*L.
    """
    if a.valuation < 0:
        raise UnsupportedConstantTerm("logarithm of a Laurent series is not supported")
    c0 = a.coefficient(0)
    if not c0.is_rational():
        raise UnsupportedConstantTerm(f"constant term {c0} is not a power of two")
    q = c0.rational_value()
    if q <= 0 or q.denominator != 1 or (q.numerator & (q.numerator - 1)) != 0:
        raise UnsupportedConstantTerm(f"constant term {q} is not a power of two")
    j = q.numerator.bit_length() - 1
    order = a.order
    c0_inv = Fraction(1, q.numerator)
    # u = a/2^j - 1, valuation >= 1
    u = TruncatedSeries(0, [a.coefficient(k) * c0_inv if k else EC_ZERO
                            for k in range(0, order + 1)], order)
    out = TruncatedSeries.constant(ExactCoefficient.log2_power(1, j) if j else EC_ZERO, order)
    power = TruncatedSeries.constant(1, order)
    for m in range(1, order + 1):
        power = ps_mul(power, u)
        if power.is_zero():
            break
        sign = Fraction(1 if m % 2 else -1, m)
        out = ps_add(out, ps_scale(power, sign))
    return ps_truncate(out, order)


def ps_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(z)), requiring inner.valuation >= 1 and outer.valuation >= 0."""
    if inner.valuation < 1 or inner.is_zero():
        raise PositiveValuationRequired(
            f"inner series must have valuation >= 1, got {inner.valuation}")
    if outer.valuation < 0:
        raise PositiveValuationRequired(
            f"outer series must have valuation >= 0, got {outer.valuation}")
    # the unknown O(z^{order+1}) tail of outer contributes O(z^{(order+1)*v_i})
    cap = (outer.order + 1) * inner.valuation - 1
    acc = TruncatedSeries.constant(outer.coefficient(0), cap)
    power = TruncatedSeries.constant(1, cap)
    for i in range(1, outer.order + 1):
        power = ps_mul(power, inner)
        ci = outer.coefficient(i)
        if not ci.is_zero():
            acc = ps_add(acc, ps_scale(power, ci))
        if power.valuation > acc.order:
            break
    return acc


def ps_revert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Lagrange inversion: compose(a, result) == z.

    With h = z/a(z), known through z^(n-1) for a of order n, the inverse has
    [z^k] a^{-1} = [z^(k-1)] h^k / k, so one chain of powers of h gives
    every coefficient.  The result has valuation 1 and order a.order.
    """
    if a.valuation != 1:
        raise PositiveValuationRequired(
            f"reversion requires valuation exactly 1, got {a.valuation}")
    n = a.order
    try:
        h = ps_recip(TruncatedSeries(0, a.coeffs, n - 1))
    except NonInvertibleLeadingCoefficient as exc:
        raise NonInvertibleLinearCoefficient(str(exc)) from None
    hk = h
    coeffs = []
    for k in range(1, n + 1):
        coeffs.append(hk.coefficient(k - 1) * Fraction(1, k))
        if k < n:
            hk = ps_mul(hk, h)
    return TruncatedSeries(1, coeffs, n)
