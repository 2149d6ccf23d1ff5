"""Exception hierarchy shared by all critline modules, and the argument rules: ``_real_in``
for a real number, ``_int_in`` for an integer, ``_points`` for a real float or 1-D array."""

import math
import numbers

import numpy as np


class CritlineError(Exception):
    """Base class for all package-specific errors."""


# --- exact series algebra ---------------------------------------------------

class NonInvertibleLeadingCoefficient(CritlineError):
    """Reciprocal requested for a series whose leading coefficient is not a
    single rational multiple of a power of L (its inverse leaves the ring)."""


class NonInvertibleLinearCoefficient(CritlineError):
    """Reversion requested for a series whose linear coefficient is not an
    invertible monomial."""


class UnsupportedConstantTerm(CritlineError):
    """Logarithm requested for a series whose constant term is not a
    non-negative power of two."""


class PositiveValuationRequired(CritlineError):
    """Composition/reversion argument must vanish at the origin."""


class MissingConstant(CritlineError):
    """Numeric evaluation hit a symbol with no binding in the environment."""


class OrderTooLarge(CritlineError):
    """Coefficient pipeline order exceeds the vetted range."""


# --- numerics ----------------------------------------------------------------

class DomainError(CritlineError):
    """Argument outside the supported domain of a function, or of the exact
    series ring: an exponent or zeta index beyond its packed field, a series
    head below z^-1, a coefficient past the truncation order."""


def _real_in(name: str, value, lo: float = -math.inf, hi: float = math.inf,
             ends: str = "[]") -> float:
    """``value`` as a float, if it is a finite real number in the interval from
    lo to hi, each end closed or open as ``ends`` ("[]", "(]", "[)" or "()")
    says; an infinite end is always open.  Anything else, complex, None, a
    string, NaN or an int beyond float range included, is a ``DomainError``
    that names the argument and its interval."""
    shown = None
    try:  # a float first: the common case, on which isinstance alone costs about 1 us
        v = value if type(value) is float else (
            float(value) if isinstance(value, numbers.Real) else math.nan)
    except OverflowError:  # an int beyond float range, whose repr may be refused too
        v, shown = math.nan, "an int beyond float range"
    if (math.isfinite(v) and (lo <= v if ends[0] == "[" else lo < v)
            and (v <= hi if ends[1] == "]" else v < hi)):
        return v
    low = f" and {'>=' if ends[0] == '[' else '>'} {lo:g}" if lo > -math.inf else ""
    high = f" and {'<=' if ends[1] == ']' else '<'} {hi:g}" if hi < math.inf else ""
    raise DomainError(f"{name} must be finite{low}{high}, got {shown or repr(value)}")


def _int_in(name: str, value, lo: float, hi: float = math.inf) -> int:
    """``value`` as an int, if it is an integer (``numbers.Integral``, numpy's included) in
    [lo, hi]; anything else, an integral float included, is a ``DomainError`` that names the
    argument and its range.  An ``int`` is tested first: ``isinstance`` costs about 0.4 us."""
    if (type(value) is int or isinstance(value, numbers.Integral)) and lo <= value <= hi:
        return int(value)
    low = f" >= {lo}" if lo > -math.inf else ""
    high = f"{' and' if low else ''} <= {hi}" if hi < math.inf else ""
    big = isinstance(value, int) and value.bit_length() > 9999  # repr stops at 4300 digits
    raise DomainError(f"{name} must be an integer{low}{high}, got "
                      f"{'an int of over 3000 digits' if big else repr(value)}")


def _points(t, lo: float = -math.inf, hi: float = math.inf, name: str = "t") -> np.ndarray:
    """``t``, a real float or 1-D array, as a 1-D float array: the rule of
    ``_real_in`` for arrays.  Complex or non-numeric input and arrays of more
    dimensions are a ``DomainError``, and so is any point that is not finite
    or lies outside [lo, hi]."""
    arr = np.asarray(t)
    if arr.dtype.kind not in "biuf" or arr.ndim > 1:
        raise DomainError(f"{name} must be a real float or a 1-D array of them")
    arr = arr.astype(float, copy=False).reshape(-1)
    # the interval is convex: the rule at the least and the greatest point (or NaN) decides
    for v in arr.tolist() if len(arr) <= 2 else [float(arr.min()), float(arr.max())]:
        _real_in(name, v, lo, hi)
    return arr


def _shaped(t, out):
    """``out``, the values at the points of ``_points(t)``, as a float for a scalar t."""
    return float(out[0]) if np.ndim(t) == 0 else np.asarray(out)


class CrossCheckFailed(CritlineError):
    """Two routes to the same quantity disagree, or a stated error budget is
    not met."""


class PoleAtOne(CritlineError):
    """zeta evaluation requested at (or too close to) s = 1."""


class WindowExceeded(CritlineError):
    """zeta evaluation requested outside the supported (Re s, Im s) window."""


class NearZeroOfZeta(CritlineError):
    """Evaluation too close to a zero of zeta for the result to be meaningful."""


class PoleAtNonpositiveInteger(CritlineError):
    """digamma evaluated at a pole."""


# --- prime tables -------------------------------------------------------------

class LimitTooLarge(CritlineError):
    """Sieve limit above the configured cap."""


# --- parsing and zero tables -------------------------------------------------

class ParseError(CritlineError):
    """Malformed input text: a zero-table file (with the offending line
    number) or a Pari-dialect golden expression."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NotAscending(CritlineError):
    """Zero-table ordinates are not strictly increasing."""


class SuspiciousFirstZero(CritlineError):
    """First ordinate of a zero table is not close to 14.134725."""


class HeightExceeded(CritlineError):
    """Query height above the table's maximum ordinate."""


class InsufficientHeight(CritlineError):
    """Zero table too short for the requested evaluation point."""


class DegenerateBeta(CritlineError):
    """beta so small that the bracketing bounds blow up."""


# --- cli ----------------------------------------------------------------------

class UsageError(CritlineError):
    """Bad command-line usage (maps to exit code 2)."""
