"""Pari-flavored text for ring elements and series: printing and parsing.

The printer emits expressions like ``9/4*Z3/L`` or
``1/2*z + L*z^2 + (2*L^2 - 1)*z^3 + O(z^4)``; the parser reads the same
dialect back into exact objects, so golden outputs can be compared after
canonical simplification instead of byte-by-byte.
"""

from __future__ import annotations

import ast
import math
import re

from .errors import DomainError, NonInvertibleLeadingCoefficient, ParseError
from .series_algebra import (
    EC_ONE,
    EC_ZERO,
    ExactCoefficient,
    TruncatedSeries,
    _unpack,
)

# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _monomial_str(n: int, d: int, eL: int, zpart: tuple, ze: int = 0) -> str:
    """Render n/d * L^eL * prod Z_k^e * z^ze, n/d >= 0 in lowest terms (sign
    handled by the caller)."""
    num = []
    den = []
    if eL > 0:
        num.append("L" if eL == 1 else f"L^{eL}")
    elif eL < 0:
        den.append("L" if eL == -1 else f"L^{-eL}")
    for k, e in zpart:
        num.append(f"Z{k}" if e == 1 else f"Z{k}^{e}")
    if ze > 0:
        num.append("z" if ze == 1 else f"z^{ze}")
    elif ze < 0:
        den.append("z" if ze == -1 else f"z^{-ze}")
    tail_den = None
    if n == 1 and d > 1 and num and ze == 0:
        # golden style: unit numerators trail the symbols, as in L/2
        tail_den = d
    elif n != d or not num:
        num.insert(0, str(n) if d == 1 else f"{n}/{d}")
    out = "*".join(num)
    for x in den:
        out += f"/{x}"
    if tail_den is not None:
        out += f"/{tail_den}"
    return out


def _sorted_terms(c: ExactCoefficient) -> list:
    """(eL, zpart, n, d) per term, n/d its rational in lowest terms: Z-free
    terms first, each group by descending power of L."""
    terms = []
    for key, n in zip(c._keys, c._nums):
        g = math.gcd(n, c._den)
        terms.append((*_unpack(key), n // g, c._den // g))
    return sorted(terms, key=lambda t: (t[1], -t[0]))


def _signed(parts: list, body: str, neg: bool) -> None:
    if not parts:
        parts.append(f"-{body}" if neg else body)
    else:
        parts.append(f"- {body}" if neg else f"+ {body}")


def format_coefficient(c: ExactCoefficient) -> str:
    """Pari-like rendering, pure-L terms first (descending power), then Z terms."""
    if c.is_zero():
        return "0"
    parts = []
    for eL, zpart, n, d in _sorted_terms(c):
        _signed(parts, _monomial_str(abs(n), d, eL, zpart), n < 0)
    return " ".join(parts)


def format_series(ts: TruncatedSeries) -> str:
    parts = []
    for k in range(ts.valuation, ts.order + 1):
        c = ts.coefficient(k)
        if c.is_zero():
            continue
        terms = _sorted_terms(c)
        if len(terms) == 1:
            (eL, zpart, n, d), = terms
            _signed(parts, _monomial_str(abs(n), d, eL, zpart, ze=k), n < 0)
        else:
            body = f"({format_coefficient(c)})"
            body += "" if k == 0 else ("*z" if k == 1 else f"*z^{k}" if k > 0 else f"/z^{-k}")
            _signed(parts, body, False)
    if not parts:
        parts.append("0")
    parts.append(f"+ O(z^{ts.order + 1})")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing: Python's own parser reads the text (with ^ as **), and a whitelist
# walker maps each node onto the ring; the text is never evaluated
# ---------------------------------------------------------------------------

_O_RE = re.compile(r"\+\s*O\(\s*z\^(\d+)\s*\)\s*$")
_MINUS_ONE = {0: -EC_ONE}


def _plus(a: dict, b: dict) -> dict:
    out = {e: a.get(e, EC_ZERO) + b.get(e, EC_ZERO) for e in a | b}
    return {e: c for e, c in out.items() if not c.is_zero()}


def _times(a: dict, b: dict) -> dict:
    """a * b, where at least one factor is a single z-monomial c*z^e."""
    if len(b) != 1:
        a, b = b, a
    if len(b) != 1:
        raise ParseError("a product needs a single z-monomial factor")
    (e, c), = b.items()
    out = {k + e: v * c for k, v in a.items()}
    return {k: v for k, v in out.items() if not v.is_zero()}


def _inverse(a: dict) -> dict:
    if len(a) != 1:
        raise ParseError("only a single z-monomial can be inverted")
    (e, c), = a.items()
    try:
        return {-e: c.monomial_inverse()}
    except NonInvertibleLeadingCoefficient as exc:
        raise ParseError(f"cannot invert {format_coefficient(c)}") from exc


def _integer(node: ast.expr) -> int:
    match node:
        case ast.Constant(value=n) if type(n) is int:
            return n
        case ast.UnaryOp(op=ast.USub(), operand=ast.Constant(value=n)) if type(n) is int:
            return -n
    raise ParseError(f"exponent must be an integer, got {ast.unparse(node)!r}")


def _walk(node: ast.expr) -> dict:
    """The {z-exponent: coefficient} value of one whitelisted syntax node."""
    match node:
        case ast.Constant(value=n) if type(n) is int:
            return {0: ExactCoefficient.rational(n)}
        case ast.Name(id="L"):
            return {0: ExactCoefficient.log2_power(1)}
        case ast.Name(id="z" | "w"):
            return {1: EC_ONE}
        case ast.Name(id=name) if re.fullmatch(r"Z\d+", name):
            try:
                return {0: ExactCoefficient.zeta_odd(int(name[1:]))}
            except (DomainError, ValueError) as exc:  # int() refuses over-long digit strings
                raise ParseError(str(exc)) from None
        case ast.UnaryOp(op=ast.UAdd(), operand=x):
            return _walk(x)
        case ast.UnaryOp(op=ast.USub(), operand=x):
            return _times(_walk(x), _MINUS_ONE)
        case ast.BinOp(left=a, op=ast.Add(), right=b):
            return _plus(_walk(a), _walk(b))
        case ast.BinOp(left=a, op=ast.Sub(), right=b):
            return _plus(_walk(a), _times(_walk(b), _MINUS_ONE))
        case ast.BinOp(left=a, op=ast.Mult(), right=b):
            return _times(_walk(a), _walk(b))
        case ast.BinOp(left=a, op=ast.Div(), right=b):
            return _times(_walk(a), _inverse(_walk(b)))
        case ast.BinOp(left=a, op=ast.Pow(), right=n):
            base, k = _walk(a), _integer(n)
            out = {0: EC_ONE}
            for _ in range(abs(k)):
                out = _times(out, base)
            return out if k >= 0 else _inverse(out)
    raise ParseError(f"unsupported expression {ast.unparse(node)!r}")


def parse_laurent(text: str) -> tuple[dict, int | None]:
    """Parse a Pari-like expression; returns ({z-exponent: coefficient}, O-order).

    The O-order is the k of a trailing ``+ O(z^k)``, or None.  Anything
    outside the dialect raises ``ParseError``.
    """
    text = text.strip()
    o_order = None
    m = _O_RE.search(text)
    if m:
        o_order = int(m.group(1))
        text = text[: m.start()].strip()
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from None
    return _walk(tree.body), o_order


def parse_coefficient(text: str) -> ExactCoefficient:
    lp, _ = parse_laurent(text)
    bad = [e for e in lp if e != 0]
    if bad:
        raise ParseError(f"expression is not z-free (exponents {bad})")
    return lp.get(0, EC_ZERO)


def series_matches_text(ts: TruncatedSeries, text: str) -> bool:
    """Does the series agree with the expression, coefficient by exact coefficient?

    Comparison runs through the expression's O() order minus one when present
    (else through its highest explicit exponent, or through the series' own
    order for a text that is zero), and fails loudly if that exceeds what the
    series knows.
    """
    lp, o_order = parse_laurent(text)
    hi = (o_order - 1) if o_order is not None else max(lp, default=ts.order)
    if hi > ts.order:
        raise ParseError(f"golden text extends to z^{hi}, series only to z^{ts.order}")
    lo = min([ts.valuation] + list(lp))
    return all(ts.coefficient(k) == lp.get(k, EC_ZERO) for k in range(lo, hi + 1))
