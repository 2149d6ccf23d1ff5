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
from array import array
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DomainError,
    MissingConstant,
    NonInvertibleLeadingCoefficient,
    NonInvertibleLinearCoefficient,
    PositiveValuationRequired,
    UnsupportedConstantTerm,
)

# A monomial L^eL * Z3^e3 * Z5^e5 * ... packs into one int, its key: eL
# (signed) sits in the low _BITS-bit field and the exponent of Z_k in field
# (k-1)/2, so the key is eL + sum_k e_k 2^(_BITS (k-1)/2).  The product of
# two monomials is the sum of their keys, and ascending keys order the
# monomials canonically.  A key decodes uniquely while every exponent lies
# within EXPONENT_MAX.
_BITS = 32
_HALF = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1

#: largest |exponent| of L, and largest exponent of a Z symbol, the ring holds
EXPONENT_MAX = _HALF - 1
#: largest zeta index; it keeps a key within 128 fields
ZETA_INDEX_MAX = 255

# one tuple object per distinct set of monomials, so coefficients over the
# same monomials share their keys and compare them by identity; for that
# reason it is never cleared, and it grows with the distinct sets made
_INTERNED: dict = {}


def _pack(eL: int, zpart) -> int:
    key = eL
    for k, e in zpart:
        key += e << (_BITS * ((k - 1) // 2))
    return key


def _unpack(key: int) -> tuple:
    """(eL, zpart), with zpart the ascending (odd index, positive exponent) pairs."""
    eL = ((key + _HALF) & _MASK) - _HALF
    rest = (key - eL) >> _BITS
    zpart = []
    k = 3
    while rest:
        if rest & _MASK:
            zpart.append((k, rest & _MASK))
        rest >>= _BITS
        k += 2
    return eL, tuple(zpart)


def _check_degree(deg: int) -> int:
    if deg > EXPONENT_MAX:
        raise DomainError(
            f"an exponent could reach {deg}, beyond the ring's bound {EXPONENT_MAX}")
    return deg


def _as_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected int or Fraction, got {type(q).__name__}")


def _compact(nums):
    """The numerators as an int64 array when they fit, a fifth of the memory
    of a tuple of ints, else as a tuple; either way a function of the values,
    so equal coefficients store equal objects."""
    try:
        return array("q", nums)
    except OverflowError:
        return tuple(nums)


def _make(keys, nums, den: int, deg: int) -> "ExactCoefficient":
    c = object.__new__(ExactCoefficient)
    c._keys, c._nums, c._den, c._deg = keys, nums, den, deg
    return c


def _normalised(acc: dict, den: int, deg: int) -> "ExactCoefficient":
    """The coefficient sum_key acc[key]/den * monomial(key): zero numerators
    dropped, keys ascending and interned, and numerators and den divided by
    their gcd, which leaves den positive."""
    keys = sorted([k for k, n in acc.items() if n])
    if not keys:
        return EC_ZERO
    nums = [acc[k] for k in keys]
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [n // g for n in nums]
    keys = tuple(keys)
    return _make(_INTERNED.setdefault(keys, keys), _compact(nums), den, deg)


def _dot(pairs) -> "ExactCoefficient":
    """sum of x * y over the (x, y) pairs, formed over one common denominator
    and normalised once."""
    dens = [x._den * y._den for x, y in pairs]
    den = math.lcm(*dens)
    acc = {}
    get = acc.get
    deg = 0
    for (x, y), d in zip(pairs, dens):
        if x._deg + y._deg > deg:
            deg = x._deg + y._deg
        if len(x._keys) > len(y._keys):  # the inner loop runs over the longer
            x, y = y, x
        if not x._keys:
            continue
        scale = den // d
        if len(y._keys) == 1:
            k = x._keys[0] + y._keys[0]
            acc[k] = get(k, 0) + x._nums[0] * y._nums[0] * scale
            continue
        ykeys, ynums = y._keys, list(y._nums)
        for kx, nx in zip(x._keys, x._nums):
            nx *= scale
            for ky, ny in zip(ykeys, ynums):
                k = kx + ky
                acc[k] = get(k, 0) + nx * ny
    return _normalised(acc, den, _check_degree(deg))


class ExactCoefficient:
    """Element of Q[L^{+-1}, Z3, Z5, Z7, ...].

    Stored fraction-free: the ascending packed monomial keys (``_keys``,
    interned), one integer numerator per key (``_nums``, all nonzero) and a
    positive common denominator ``_den`` sharing no factor with all of them.
    ``_deg`` bounds every |exponent| in the element; products add the bounds
    of their factors and are refused once the bound leaves EXPONENT_MAX.
    Instances are immutable.
    """

    __slots__ = ("_keys", "_nums", "_den", "_deg")

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        """From a mapping {(eL, ((k, e), ...)): q} with odd k >= 3 and e >= 0."""
        acc = {}
        deg = 0
        for (eL, zpart), q in (terms or {}).items():
            q = _as_fraction(q)
            if not q:
                continue
            zc = {}
            for k, e in zpart:
                if not e:
                    continue
                if k < 3 or k % 2 == 0 or k > ZETA_INDEX_MAX:
                    raise DomainError(
                        f"zeta symbol index must be odd, 3 <= k <= {ZETA_INDEX_MAX}, got {k}")
                if e < 0:
                    raise DomainError("zeta symbols admit no negative powers")
                zc[k] = zc.get(k, 0) + e
            deg = _check_degree(max(deg, abs(eL), *zc.values()))
            key = _pack(eL, zc.items())
            acc[key] = acc.get(key, 0) + q
        den = math.lcm(*(q.denominator for q in acc.values()))
        c = _normalised({k: q.numerator * (den // q.denominator) for k, q in acc.items()},
                        den, deg)
        self._keys, self._nums, self._den, self._deg = c._keys, c._nums, c._den, c._deg

    # -- constructors ---------------------------------------------------------

    @classmethod
    def rational(cls, num, den=1) -> "ExactCoefficient":
        q = Fraction(num, den)
        return _make(_ONE_KEY, _compact((q.numerator,)), q.denominator, 0) if q else EC_ZERO

    @classmethod
    def log2_power(cls, exponent=1, q=1) -> "ExactCoefficient":
        return cls({(exponent, ()): Fraction(q)})

    @classmethod
    def zeta_odd(cls, index, exponent=1, q=1) -> "ExactCoefficient":
        return cls({(0, ((index, exponent),)): Fraction(q)})

    # -- structure ------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{(eL, zpart): Fraction}, zpart the ascending (index, exponent) pairs."""
        return {_unpack(k): Fraction(n, self._den) for k, n in zip(self._keys, self._nums)}

    def is_zero(self) -> bool:
        return not self._keys

    def is_rational(self) -> bool:
        return self._keys in ((), _ONE_KEY)

    def rational_value(self) -> Fraction:
        if not self._keys:
            return Fraction(0)
        if self._keys is not _ONE_KEY:
            raise DomainError("coefficient is not a pure rational")
        return Fraction(self._nums[0], self._den)

    def monomial_inverse(self) -> "ExactCoefficient":
        """Inverse of q*L^k; anything else leaves the ring."""
        if len(self._keys) != 1:
            raise NonInvertibleLeadingCoefficient(
                f"coefficient has {len(self._keys)} terms: {self}")
        key, n = self._keys[0], self._nums[0]
        if not -_HALF <= key < _HALF:
            raise NonInvertibleLeadingCoefficient(
                f"coefficient involves zeta symbols: {self}")
        keys = (-key,)
        num = self._den if n > 0 else -self._den
        return _make(_INTERNED.setdefault(keys, keys), _compact((num,)), abs(n), self._deg)

    def __eq__(self, other):
        if type(other) is not ExactCoefficient:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        # interned keys: equal monomial sets are the same tuple
        return (self._keys is other._keys and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self._keys, tuple(self._nums), self._den))

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactCoefficient:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        if not other._keys:
            return self
        if not self._keys:
            return other
        da, db = self._den, other._den
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        acc = {k: n * sa for k, n in zip(self._keys, self._nums)}
        get = acc.get
        for k, n in zip(other._keys, other._nums):
            acc[k] = get(k, 0) + n * sb
        return _normalised(acc, da * sa, max(self._deg, other._deg))

    __radd__ = __add__

    def __neg__(self):
        return _make(self._keys, _compact([-n for n in self._nums]), self._den, self._deg)

    def __sub__(self, other):
        if type(other) is not ExactCoefficient:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is ExactCoefficient:
            return _dot(((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = _as_fraction(other)
        if not q or not self._keys:
            return EC_ZERO
        nums = [n * q.numerator for n in self._nums]
        den = self._den * q.denominator
        g = math.gcd(den, *nums)
        return _make(self._keys, _compact([n // g for n in nums]), den // g, self._deg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("only non-negative integer powers")
        _check_degree(self._deg * n)
        out = EC_ONE
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


def _as_coeff(q) -> ExactCoefficient | None:
    """q as a ring element, or None when it is not an int, Fraction or one."""
    if isinstance(q, ExactCoefficient):
        return q
    if isinstance(q, (int, Fraction)):
        return ExactCoefficient.rational(q)
    return None


_ONE_KEY = _INTERNED.setdefault((0,), (0,))
EC_ZERO = _make((), _compact(()), 1, 0)
EC_ONE = ExactCoefficient.rational(1)
L = ExactCoefficient.log2_power(1)


def Z(index) -> ExactCoefficient:
    return ExactCoefficient.zeta_odd(index)


def coeff_eval(c: ExactCoefficient, constants: Mapping[str, float]) -> float:
    """Evaluate a ring element at numeric bindings for L and the Z symbols.

    ``constants`` maps 'L' to ln 2 and 'Z3', 'Z5', ... to zeta at odd
    integers, each accurate to <= 1e-15 absolute.  Returns a bare float, the
    ``math.fsum`` of the terms rational * monomial value, each formed in
    floating point.  Note: to first order its error is the sum of |rational|
    * |monomial value| * (relative binding error); with 1e-15 bindings and
    the magnitudes in play this stays far below every downstream tolerance.
    """
    parts = []
    for key, n in zip(c._keys, c._nums):
        eL, zpart = _unpack(key)
        if eL and "L" not in constants:
            raise MissingConstant("no binding for L")
        val = n / c._den
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
    out = _as_coeff(c)
    if out is None:
        raise TypeError(f"bad coefficient type {type(c).__name__}")
    return out


class TruncatedSeries:
    """Laurent series sum_{k=v}^{N} c_k z^k + O(z^{N+1}) with exact coefficients."""

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: Iterable, order: int | None = None):
        coeffs = [_coerce_coeff(c) for c in coeffs]
        if order is None:
            order = valuation + len(coeffs) - 1
        if order < valuation or len(coeffs) != order - valuation + 1:
            raise DomainError("coefficient count does not match valuation/order")
        # normalize: a vanishing head means the series genuinely starts later
        while len(coeffs) > 1 and coeffs[0].is_zero():
            coeffs.pop(0)
            valuation += 1
        if len(coeffs) == 1 and coeffs[0].is_zero():
            valuation = order
        if valuation < -1:
            raise DomainError("valuation below -1 is not supported")
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedSeries":
        return cls(0, [_coerce_coeff(c)] + [EC_ZERO] * order, order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [EC_ZERO], order)

    @classmethod
    def monomial(cls, exponent: int, c, order: int) -> "TruncatedSeries":
        if exponent > order:
            raise DomainError("monomial exponent beyond requested order")
        return cls(exponent, [_coerce_coeff(c)] + [EC_ZERO] * (order - exponent), order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(1, 1, order)

    # -- accessors --------------------------------------------------------------

    def coefficient(self, k: int) -> ExactCoefficient:
        if k > self.order:
            raise DomainError(f"coefficient of z^{k} beyond truncation order {self.order}")
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

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficientwise equality up to min(orders)."""
        hi = min(self.order, other.order)
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


def ps_scale(a: TruncatedSeries, c) -> TruncatedSeries:
    c = _coerce_coeff(c)
    return TruncatedSeries(a.valuation, [c * x for x in a.coeffs], a.order)


def _cauchy(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """The Cauchy product of a and b through z^order, at most the order
    ps_mul gives them: one _dot per coefficient kept."""
    if order > min(a.order + b.valuation, b.order + a.valuation):
        raise DomainError("cannot extend a truncated series")
    v = a.valuation + b.valuation
    if v > order or a.is_zero() or b.is_zero():
        return TruncatedSeries.zero(order)
    ac, bc = a.coeffs, b.coeffs
    nb = len(bc)
    out = [_dot([(ac[i], bc[k - i]) for i in range(max(0, k - nb + 1), min(k + 1, len(ac)))])
           for k in range(order - v + 1)]
    return TruncatedSeries(v, out, order)


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product; order = min(a.order + b.valuation, b.order + a.valuation)."""
    if a.valuation + b.valuation < -1:
        raise DomainError(
            "product of two Laurent heads falls below z^-1, outside the "
            "supported range")
    return _cauchy(a, b, min(a.order + b.valuation, b.order + a.valuation))


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
        raise DomainError(
            f"reciprocal of a series with valuation {v} falls below z^-1, "
            "outside the supported Laurent range")
    m = a.order - v  # relative order of the unit part
    # a = head * z^v * (1 + u) with u_j = a_j / head, and the inverse's
    # coefficients obey r_0 = 1/head, r_k = -sum_{j=1..k} u_j r_{k-j}: the
    # head's inverse enters once, through neg_u[j-1] = -u_j, formed once per j
    neg_inv = -head_inv
    neg_u = [c * neg_inv for c in a.coeffs[1:]]
    r = [head_inv]
    for k in range(1, m + 1):
        r.append(_dot([(neg_u[j - 1], r[k - j]) for j in range(1, k + 1)]))
    return TruncatedSeries(-v, r, a.order - 2 * v)


def ps_log(a: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 2^j (j >= 0): jL + integral of a'/a.

    The restriction keeps the result inside the ring: log 2^j = j*L.  For a
    of order n, a'/a is one ps_recip and one product, so about n^2
    coefficient products in all (120 at n = 10), and the integral n
    scalings by 1/k.
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
    n = a.order
    coeffs = [ExactCoefficient.log2_power(1, j) if j else EC_ZERO]
    if n:
        deriv = TruncatedSeries(0, [c * k for k, c in enumerate(a.coeffs) if k], n - 1)
        quot = ps_mul(deriv, ps_recip(a))
        coeffs += [quot.coefficient(k - 1) * Fraction(1, k) for k in range(1, n + 1)]
    return TruncatedSeries(0, coeffs, n)


def ps_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(z)), requiring inner.valuation >= 1 and outer.valuation >= 0.

    With v = inner.valuation, the unknown tail of outer caps the result at
    cap = (outer.order + 1) v - 1, and the first term c_i inner^i with
    i >= 1 and c_i != 0 knows it only through inner.order + (i - 1) v; the
    result's order N is the smaller of the two (cap if there is no such
    term).  Horner's rule acc_i = c_i + inner * acc_(i+1), with acc_i cut at
    z^(N - i v), takes about N^3/(6 v) coefficient products (364 at N = 12).
    """
    if inner.valuation < 1 or inner.is_zero():
        raise PositiveValuationRequired(
            f"inner series must have valuation >= 1, got {inner.valuation}")
    if outer.valuation < 0:
        raise PositiveValuationRequired(
            f"outer series must have valuation >= 0, got {outer.valuation}")
    v = inner.valuation
    order = (outer.order + 1) * v - 1
    for i in range(1, outer.order + 1):
        if not outer.coefficient(i).is_zero():
            order = min(order, inner.order + (i - 1) * v)
            break
    top = min(outer.order, order // v)
    # acc_top is cut at z^(order - top v), and ps_mul's order rule carries
    # the cut: inner * acc_(i+1) reaches z^(order - i v) and starts at z^v,
    # so c_i only fills the constant term
    acc = TruncatedSeries.constant(outer.coefficient(top), order - top * v)
    for i in range(top - 1, -1, -1):
        prod = ps_mul(inner, acc)
        acc = TruncatedSeries(0, [outer.coefficient(i)]
                              + [prod.coefficient(k) for k in range(1, prod.order + 1)],
                              prod.order)
    return acc


def _lagrange(h: TruncatedSeries, n: int, dH: TruncatedSeries | None = None):
    """Lagrange-Buermann over one set of powers of h.

    For h with h(0) != 0 the relation w = z/h(z) has an inverse z(w), and
    for any H with H(0) = 0

        [w^k] H(z(w)) = [z^(k-1)] H'(z) h(z)^k / k,

    which for H = id reads [w^k] z(w) = [z^(k-1)] h^k / k.  Returns the list
    of [w^k] z(w) for k = 1..n, which needs h through z^(n-1), and the list
    of [w^k] H(z(w)) for k = 1..min(n, dH.order + 1), empty without dH.
    Baby steps h^1..h^m, m = isqrt(n), come from ps_mul, and giant steps
    h^(jm) split each h^k as h^(jm) h^(k-jm); dH is multiplied into each
    giant, so each coefficient of either list is one dot product.
    """
    nH = 0 if dH is None else min(n, dH.order + 1)
    m = math.isqrt(n)
    babies = [h]  # babies[r] = h^(r+1); a nonzero h(0) starts every power at z^0
    for _ in range(m - 1):
        babies.append(ps_mul(babies[-1], h))
    zc, hc = [], []
    for k in range(1, n + 1):
        j, r = divmod(k - 1, m)  # h^k = h^(jm) h^(r+1)
        baby = babies[r].coeffs
        if not r:
            if j:
                giant = babies[-1] if j == 1 else ps_mul(giant, babies[-1])
            if k <= nH:  # dH h^(jm), through the last z^(k-1) its block reads
                top = min(k + m, nH + 1) - 2
                weighted = dH if not j else _cauchy(dH, giant, top)
                weighted = [weighted.coefficient(i) for i in range(top + 1)]
        if not j:
            zc.append(baby[k - 1] * Fraction(1, k))
        else:
            zc.append(_dot([(giant.coeffs[i], baby[k - 1 - i]) for i in range(k)])
                      * Fraction(1, k))
        if k <= nH:
            hc.append(_dot([(weighted[i], baby[k - 1 - i]) for i in range(k)])
                      * Fraction(1, k))
    return zc, hc


def ps_revert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Lagrange inversion: compose(a, result) == z.

    With h = z/a(z), known through z^(n-1) for a of order n, the inverse has
    [z^k] a^{-1} = [z^(k-1)] h^k / k, read off the powers of h by _lagrange;
    with h itself that is about (m + n/m) n^2/2 coefficient products,
    m = isqrt(n) (461 at n = 12).  The result has valuation 1 and order
    a.order.
    """
    if a.valuation != 1:
        raise PositiveValuationRequired(
            f"reversion requires valuation exactly 1, got {a.valuation}")
    n = a.order
    try:
        h = ps_recip(TruncatedSeries(0, a.coeffs, n - 1))
    except NonInvertibleLeadingCoefficient as exc:
        raise NonInvertibleLinearCoefficient(str(exc)) from None
    return TruncatedSeries(1, _lagrange(h, n)[0], n)
