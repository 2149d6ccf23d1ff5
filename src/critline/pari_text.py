"""Pari-flavored text for ring elements and series: printing and parsing.

The printer emits expressions like ``9/4*Z3/L`` or
``1/2*z + L*z^2 + (2*L^2 - 1)*z^3 + O(z^4)``; the parser reads the same
dialect back into exact objects, so golden outputs can be compared after
canonical simplification instead of byte-by-byte.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .series_algebra import (
    EC_ONE,
    EC_ZERO,
    ExactCoefficient,
    TruncatedSeries,
)

# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _monomial_str(q: Fraction, eL: int, zpart: tuple, ze: int = 0) -> str:
    """Render |q| * L^eL * prod Z_k^e * z^ze (sign handled by the caller)."""
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
    q = abs(q)
    tail_den = None
    if q.numerator == 1 and q.denominator > 1 and num and ze == 0:
        # golden style: unit numerators trail the symbols, as in L/2
        tail_den = q.denominator
    elif q != 1 or not num:
        head = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        num.insert(0, head)
    out = "*".join(num)
    for d in den:
        out += f"/{d}"
    if tail_den is not None:
        out += f"/{tail_den}"
    return out


def _sorted_terms(c: ExactCoefficient):
    return sorted(c.terms.items(), key=lambda kv: (kv[0][1], -kv[0][0]))


def format_coefficient(c: ExactCoefficient) -> str:
    """Pari-like rendering, pure-L terms first (descending power), then Z terms."""
    if c.is_zero():
        return "0"
    parts = []
    for (eL, zpart), q in _sorted_terms(c):
        body = _monomial_str(q, eL, zpart)
        if not parts:
            parts.append(f"-{body}" if q < 0 else body)
        else:
            parts.append(f"- {body}" if q < 0 else f"+ {body}")
    return " ".join(parts)


def format_series(ts: TruncatedSeries) -> str:
    parts = []
    for k in range(ts.valuation, ts.order + 1):
        c = ts.coefficient(k)
        if c.is_zero():
            continue
        terms = _sorted_terms(c)
        if len(terms) == 1:
            (eL, zpart), q = terms[0]
            body = _monomial_str(q, eL, zpart, ze=k)
            neg = q < 0
        else:
            body = f"({format_coefficient(c)})"
            body += "" if k == 0 else ("*z" if k == 1 else f"*z^{k}" if k > 0 else f"/z^{-k}")
            neg = False
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    if not parts:
        parts.append("0")
    parts.append(f"+ O(z^{ts.order + 1})")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")
_O_RE = re.compile(r"\+\s*O\(\s*z\^(\d+)\s*\)\s*$")


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            pos = m.end()
            if m.group(1):
                self.toks.append(("num", int(m.group(1))))
            elif m.group(2):
                self.toks.append(("name", m.group(2)))
            else:
                self.toks.append(("op", m.group(3)))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


# Laurent polynomial in z over the coefficient ring, as {exponent: coefficient}
_Laurent = dict


def _lp_add(a, b, s=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, EC_ZERO) + (c * s if s != 1 else c)
        if v.is_zero():
            out.pop(e, None)
        else:
            out[e] = v
    return out


def _lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            v = out.get(e1 + e2, EC_ZERO) + c1 * c2
            if v.is_zero():
                out.pop(e1 + e2, None)
            else:
                out[e1 + e2] = v
    return out


def _lp_div(a, b):
    if len(b) != 1:
        raise ValueError("division only by a single monomial")
    (e, c), = b.items()
    inv = {-e: c.monomial_inverse()}
    return _lp_mul(a, inv)


def _lp_pow(a, n):
    if n < 0:
        return _lp_div({0: EC_ONE}, _lp_pow(a, -n))
    out = {0: EC_ONE}
    for _ in range(n):
        out = _lp_mul(out, a)
    return out


def _parse_expr(tk: _Tokens):
    sign = 1
    kind, val = tk.peek()
    if kind == "op" and val in "+-":
        tk.next()
        sign = -1 if val == "-" else 1
    out = _lp_scale(_parse_term(tk), sign)
    while True:
        kind, val = tk.peek()
        if kind == "op" and val in "+-":
            tk.next()
            out = _lp_add(out, _parse_term(tk), -1 if val == "-" else 1)
        else:
            return out


def _lp_scale(a, s):
    return a if s == 1 else {e: -c for e, c in a.items()}


def _parse_term(tk: _Tokens):
    out = _parse_atom(tk)
    while True:
        kind, val = tk.peek()
        if kind == "op" and val in "*/":
            tk.next()
            rhs = _parse_atom(tk)
            out = _lp_mul(out, rhs) if val == "*" else _lp_div(out, rhs)
        else:
            return out


def _parse_atom(tk: _Tokens):
    base = _parse_primary(tk)
    kind, val = tk.peek()
    if kind == "op" and val == "^":
        tk.next()
        k2, v2 = tk.next()
        neg = False
        if k2 == "op" and v2 == "-":
            neg = True
            k2, v2 = tk.next()
        if k2 != "num":
            raise ValueError("exponent must be an integer")
        return _lp_pow(base, -v2 if neg else v2)
    return base


def _parse_primary(tk: _Tokens):
    kind, val = tk.next()
    if kind == "num":
        return {0: ExactCoefficient.rational(val)}
    if kind == "name":
        if val == "L":
            return {0: ExactCoefficient.log2_power(1)}
        if val in ("z", "w"):
            return {1: EC_ONE}
        m = re.fullmatch(r"Z(\d+)", val)
        if m:
            return {0: ExactCoefficient.zeta_odd(int(m.group(1)))}
        raise ValueError(f"unknown symbol {val!r}")
    if kind == "op" and val == "(":
        inner = _parse_expr(tk)
        k2, v2 = tk.next()
        if (k2, v2) != ("op", ")"):
            raise ValueError("missing closing parenthesis")
        return inner
    if kind == "op" and val == "-":
        return _lp_scale(_parse_primary(tk), -1)
    raise ValueError(f"unexpected token {val!r}")


def parse_laurent(text: str) -> tuple[dict, int | None]:
    """Parse a Pari-like expression; returns ({z-exponent: coefficient}, O-order).

    The O-order is the k of a trailing ``+ O(z^k)``, or None.
    """
    text = text.strip()
    o_order = None
    m = _O_RE.search(text)
    if m:
        o_order = int(m.group(1))
        text = text[: m.start()].strip()
    tk = _Tokens(text)
    out = _parse_expr(tk)
    if tk.peek() != (None, None):
        raise ValueError(f"trailing tokens in {text!r}")
    return out, o_order


def parse_coefficient(text: str) -> ExactCoefficient:
    lp, _ = parse_laurent(text)
    bad = [e for e in lp if e != 0]
    if bad:
        raise ValueError(f"expression is not z-free (exponents {bad})")
    return lp.get(0, EC_ZERO)


def series_matches_text(ts: TruncatedSeries, text: str) -> bool:
    """Does the series agree with the expression, coefficient by exact coefficient?

    Comparison runs through the expression's O() order minus one when present
    (else through its highest explicit exponent), and fails loudly if that
    exceeds what the series knows.
    """
    lp, o_order = parse_laurent(text)
    hi = (o_order - 1) if o_order is not None else max(lp)
    if hi > ts.order:
        raise ValueError(f"golden text extends to z^{hi}, series only to z^{ts.order}")
    lo = min([ts.valuation] + list(lp))
    return all(ts.coefficient(k) == lp.get(k, EC_ZERO) for k in range(lo, hi + 1))
