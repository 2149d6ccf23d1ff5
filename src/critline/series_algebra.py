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
from itertools import accumulate
from operator import add
from typing import Iterable, Mapping

from .errors import (
    DomainError,
    MissingConstant,
    NonInvertibleLeadingCoefficient,
    NonInvertibleLinearCoefficient,
    PositiveValuationRequired,
    UnsupportedConstantTerm,
    _int_in,
    _rational_in,
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
    and normalised once.

    When every pair without a zero factor multiplies two single-key
    coefficients and all their products land on one key, as on pure
    rationals, the result is one integer sum over that denominator, reduced
    by one gcd; any other dot accumulates a dict keyed by monomial."""
    dens = [x._den * y._den for x, y in pairs]
    den = math.lcm(*dens)
    deg = 0
    key = None
    num = 0
    for (x, y), d in zip(pairs, dens):
        if x._deg + y._deg > deg:
            deg = x._deg + y._deg
        kx, ky = x._keys, y._keys
        if not (kx and ky):
            continue
        if len(kx) != 1 or len(ky) != 1 or (kx[0] + ky[0] != key and key is not None):
            break
        key = kx[0] + ky[0]
        num += x._nums[0] * y._nums[0] * (den // d)
    else:
        _check_degree(deg)
        if not num:
            return EC_ZERO
        g = math.gcd(den, num)
        keys = (key,)
        return _make(_INTERNED.setdefault(keys, keys), _compact((num // g,)), den // g, deg)
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
            q = _rational_in("q", q)  # an int or a Fraction: both have numerator and denominator
            # the key as ints before packing, under a zero q too: a numpy index would
            # shift its exponent out of an int64 key
            eL = _int_in("exponent", eL, -EXPONENT_MAX, EXPONENT_MAX)
            zc = {}
            for k, e in zpart:
                e = _int_in("exponent", e, 0)
                if not e:
                    continue
                k = _int_in("index", k, 3, ZETA_INDEX_MAX)
                if k % 2 == 0:
                    raise DomainError(f"index must be odd, got {k}")
                zc[k] = zc.get(k, 0) + e
            if not q:
                continue
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
        num, den = _rational_in("num", num), _rational_in("den", den)
        if not den:
            raise DomainError(f"rational {num}/{den} has a zero denominator")
        q = Fraction(num, den)
        return _make(_ONE_KEY, _compact((q.numerator,)), q.denominator, 0) if q else EC_ZERO

    @classmethod
    def log2_power(cls, exponent=1, q=1) -> "ExactCoefficient":
        return cls({(exponent, ()): q})

    @classmethod
    def zeta_odd(cls, index, exponent=1, q=1) -> "ExactCoefficient":
        # refused here even at exponent 0, which the mapping skips; the ring refuses an even one
        index = _int_in("index", index, 3, ZETA_INDEX_MAX)
        return cls({(0, ((index, exponent),)): q})

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
        # a rational hashes as the Fraction it equals, zero as 0
        if self.is_rational():
            return hash(self.rational_value())
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
        try:
            other = _rational_in("coefficient", other)
        except DomainError:
            return NotImplemented
        if not other or not self._keys:
            return EC_ZERO
        nums = [n * other.numerator for n in self._nums]
        den = self._den * other.denominator
        g = math.gcd(den, *nums)
        return _make(self._keys, _compact([n // g for n in nums]), den // g, self._deg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _int_in("n", n, 0)
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


def _coerce_coeff(c) -> ExactCoefficient:
    """c as a ring element: itself, or a rational number by ``_rational_in``,
    which refuses anything else with a ``DomainError`` naming ``coefficient``."""
    if type(c) is ExactCoefficient:
        return c
    return ExactCoefficient.rational(_rational_in("coefficient", c))


def _as_coeff(q) -> ExactCoefficient | None:
    """q as a ring element, or None where ``_coerce_coeff`` refuses it, so that an
    operator can return NotImplemented."""
    try:
        return _coerce_coeff(q)
    except DomainError:
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
    A rational ``c`` is taken by ``_coerce_coeff``.
    """
    c = _coerce_coeff(c)
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

class TruncatedSeries:
    """Laurent series sum_{k=v}^{N} c_k z^k + O(z^{N+1}) with exact coefficients."""

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: Iterable, order: int | None = None):
        if type(valuation) is not int or not (order is None or type(order) is int):
            valuation = _int_in("valuation", valuation, -math.inf)  # its range is checked below
            order = None if order is None else _int_in("order", order, -math.inf)
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
        order = _int_in("order", order, 0)
        return cls(0, [_coerce_coeff(c)] + [EC_ZERO] * order, order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        order = _int_in("order", order, -1)
        return cls(order, [EC_ZERO], order)

    @classmethod
    def monomial(cls, exponent: int, c, order: int) -> "TruncatedSeries":
        exponent = _int_in("exponent", exponent, -math.inf)  # the series checks v >= -1
        order = _int_in("order", order, exponent)
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
        return ps_add(self, ps_scale(other, -1))

    def __neg__(self):
        return ps_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return ps_mul(self, other)
        return ps_scale(self, other)

    __rmul__ = __mul__


# -- operations ------------------------------------------------------------------


def ps_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum; order = min of orders, valuation after cancellation."""
    order = min(a.order, b.order)
    v = min(a.valuation, b.valuation, order)
    coeffs = [a.coefficient(k) + b.coefficient(k) for k in range(v, order + 1)]
    return TruncatedSeries(v, coeffs, order)


def ps_scale(a: TruncatedSeries, c) -> TruncatedSeries:
    c = _coerce_coeff(c)
    return TruncatedSeries(a.valuation, [c * x for x in a.coeffs], a.order)


def _single_key(window):
    """(key, den, numerators over den) when every nonzero coefficient of the
    window is one monomial and all share one key, else None; the scan stops
    at the first coefficient of several monomials or with a second key."""
    key = None
    for c in window:
        k = c._keys
        if k is key or not k:
            continue
        if key is not None or len(k) != 1:
            return None
        key = k
    if key is None:
        return None
    den = math.lcm(*[c._den for c in window])
    return key[0], den, [c._nums[0] * (den // c._den) if c._keys else 0 for c in window]


def _kronecker(aw, bw):
    """The n = len(aw) = len(bw) coefficients sum_{i<=k} aw[i] bw[k-i], k < n,
    as _dot forms them, when each window lies on one monomial (_single_key),
    else None.

    The numerators over each window's lcm denominator pack into one int at
    B-bit spacing, B = bits(max|alpha|) + bits(max|beta|) + bits(n) + 2, so
    that every |c_k| < 2^(B-1) and one integer product carries all the
    Cauchy sums as balanced B-bit digits; each c_k / (Da Db) is then reduced
    by one gcd.  The degree bound of c_k is _dot's, the largest
    aw[i]._deg + bw[k-i]._deg, refused past EXPONENT_MAX at the first k."""
    a = _single_key(aw)
    b = None if a is None else _single_key(bw)
    if b is None:
        return None
    (ka, da, alpha), (kb, db, beta) = a, b
    n = len(alpha)
    ga, gb = [c._deg for c in aw], [c._deg for c in bw]
    if min(ga) != max(ga):
        ga, gb = gb, ga
    if min(ga) == max(ga):  # one factor's bound is constant: a running max
        degs = [ga[0] + g for g in accumulate(gb, max)]
    else:
        degs = [max(map(add, ga[:k + 1], gb[k::-1])) for k in range(n)]
    if max(degs) > EXPONENT_MAX:
        _check_degree(next(g for g in degs if g > EXPONENT_MAX))
    B = (max(map(abs, alpha)).bit_length() + max(map(abs, beta)).bit_length()
         + n.bit_length() + 2)
    pa = pb = 0
    for x, y in zip(reversed(alpha), reversed(beta)):
        pa = (pa << B) + x
        pb = (pb << B) + y
    # half added to each of the n low digits makes it c_k + half, in [0, 2^B)
    half, mask = 1 << (B - 1), (1 << B) - 1
    prod = pa * pb + sum(half << (B * k) for k in range(n))
    keys = (ka + kb,)
    keys = _INTERNED.setdefault(keys, keys)
    den = da * db
    out = []
    for k, g in enumerate(degs):
        c = ((prod >> (B * k)) & mask) - half
        if c:
            d = math.gcd(den, c)
            out.append(_make(keys, _compact((c // d,)), den // d, g))
        else:
            out.append(EC_ZERO)
    return out


def _cauchy(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """The Cauchy product of a and b through z^order, at most the order
    ps_mul gives them.

    Only the first n = order - v + 1 coefficients of each factor reach the
    result.  When each of these windows lies on one monomial, as over pure
    rationals, the n coefficients come from one integer product
    (:func:`_kronecker`), a few big-int operations in all; otherwise each is
    one _dot over its k + 1 pairs, about n^2/2 coefficient products."""
    if order > min(a.order + b.valuation, b.order + a.valuation):
        raise DomainError("cannot extend a truncated series")
    v = a.valuation + b.valuation
    if v > order or a.is_zero() or b.is_zero():
        return TruncatedSeries.zero(order)
    n = order - v + 1
    ac, bc = a.coeffs[:n], b.coeffs[:n]
    out = _kronecker(ac, bc)
    if out is None:
        out = [_dot([(ac[i], bc[k - i]) for i in range(k + 1)]) for k in range(n)]
    return TruncatedSeries(v, out, order)


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product; order = min(a.order + b.valuation, b.order + a.valuation).

    Through :func:`_cauchy`: one integer product when each factor's
    coefficients lie on one monomial, as over Q, else one _dot per output
    coefficient, about n^2/2 coefficient products for n of them."""
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
    z^(N - i v), takes about N/v series products.  Each is one integer
    product when inner and acc_(i+1) each lie on one monomial, as over Q
    (:func:`_cauchy`); otherwise they come to about N^3/(6 v) coefficient
    products (364 at N = 12).
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
    giant, so each coefficient of either list is one dot product.  The
    baby, giant and dH products are series products (:func:`_cauchy`), one
    integer product each over one monomial, as over Q; the per-k dots go
    through _dot, at most k coefficient products each.
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
    m = isqrt(n) (461 at n = 12).  Over one monomial, as over Q, the baby
    and giant powers, fewer than m + n/m series products, are one integer
    product each (:func:`_cauchy`), and what is left for _dot is h's
    recurrence and the per-k dots, about n^2 coefficient products (149 at
    n = 12).  The result has valuation 1 and order a.order.
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
