"""Tables of nontrivial-zero ordinates: reading, validation and generation.

File format: UTF-8 text, one positive decimal ordinate per line, strictly
ascending, '#' comment lines allowed.  This matches publicly distributed
zero lists; ``load_zeros`` reads it and ``write_zeros_table`` writes it.

A table feeds the explicit-formula zero sums (``explicit_formula._zero_sum``,
which needs the table to reach 10t) and the count check against the smooth
N(T) = theta(T)/pi + 1.  ``search_zeros`` finds the zeros of the oracle's
``hardy_z`` by Gram blocks; ``turing_certificate`` proves a table's count.
"""

from __future__ import annotations

import errno
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from scipy.optimize import brentq
from scipy.special import lambertw

from .errors import (
    CrossCheckFailed,
    DomainError,
    HeightExceeded,
    NotAscending,
    ParseError,
    SuspiciousFirstZero,
)
from .zeta_oracle import IM_WINDOW, hardy_z, theta, zeta_em

FIRST_ZERO = 14.134725141734693
ENV_VAR = "CRITLINE_ZEROS"


@dataclass(frozen=True, eq=False)
class ZeroTable:
    """Ascending ordinates; compared and hashed by identity, so that a table
    can key a memo (``load_zeros`` makes ``gammas`` read-only)."""
    gammas: np.ndarray
    source: str

    @property
    def max_height(self) -> float:
        return float(self.gammas[-1])

    def __len__(self):
        return len(self.gammas)

    def count_below(self, T: float) -> int:
        return int(np.searchsorted(self.gammas, T, side="right"))

    def distance_to_nearest(self, t: float) -> float:
        g = self.gammas
        i = np.searchsorted(g, t)  # the nearest is g[i - 1] or g[i]
        return float(min((abs(g[j] - t) for j in (i - 1, i) if 0 <= j < len(g)), default=math.inf))


_BLOCK_CHARS = 1 << 15  # read at a time: bounds the loader's memory


def _significant_digits(text: str) -> int:
    """The decimal digits of the mantissa, leading zeros dropped: 8 in
    '1.2345678e+05' and in '0014.134725'; an exponent counts for none."""
    mantissa = text.lower().partition("e")[0]
    return len("".join(filter(str.isdecimal, mantissa)).lstrip("0"))


def _parse_block(lines: list[str], lineno: int, last: float) -> tuple[np.ndarray, int]:
    """The ordinates on ``lines``, which follow line ``lineno`` and an
    ordinate ``last``, and how many carry fewer than 9 significant digits.
    Raises at the first offending line, as a line-by-line reading would."""
    texts = [s for s in map(str.strip, lines) if s and s[0] != "#"]
    unparsed = None
    try:
        vals = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:  # parse up to the first bad line; its predecessors are checked first
        parsed = []
        for text in texts:
            try:
                parsed.append(float(text))
            except ValueError:
                break
        unparsed, vals = len(parsed), np.array(parsed, dtype=float)
    prev = np.concatenate(([last], vals[:-1]))
    positive = np.isfinite(vals) & (vals > 0)
    bad = np.flatnonzero(~positive | (vals <= prev))
    first_bad = bad[0] if len(bad) else unparsed
    if first_bad is not None:
        kept = [i for i, s in enumerate(map(str.strip, lines)) if s and s[0] != "#"]
        line = lineno + 1 + kept[first_bad]
        text = texts[first_bad]
        if first_bad == unparsed:
            raise ParseError(f"not a decimal ordinate: {text!r}", line=line)
        if not positive[first_bad]:
            raise ParseError(f"ordinate must be a positive real, got {text!r}", line=line)
        raise NotAscending(f"line {line}: {float(vals[first_bad])} does not exceed "
                           f"previous ordinate {float(prev[first_bad])}")
    # A line of 10 or more characters that starts with 1-9 and holds no
    # exponent or underscore has at least 9 significant digits: only the
    # other lines are counted.
    joined = "\n".join(texts)
    if not ("e" in joined or "E" in joined or "_" in joined):
        texts = [s for s in texts if len(s) < 10 or s[0] not in "123456789"]
    return vals, sum(_significant_digits(s) < 9 for s in texts)


def load_zeros(path: str | os.PathLike) -> ZeroTable:
    """Parse and validate a zero-ordinate file.

    Each line, stripped of surrounding whitespace, is blank, a '#' comment or
    one ordinate in Python's ``float`` syntax; the ordinates must be finite,
    positive and strictly ascending, and the first must be the first zero
    within 1e-6.  A line that breaks a rule raises ``ParseError`` (bytes
    that are not UTF-8 included) or ``NotAscending`` with its line number.
    Ordinates with fewer than 9 significant digits (mantissa digits, leading
    zeros dropped) raise one warning with their count.

    The file is read in blocks of lines, each parsed by one ``float`` pass
    and checked by array passes: 0.25-0.5 us an ordinate on a 2-core x86
    machine, most of it in ``float``, and memory of about 16 bytes an
    ordinate beyond one block's.
    """
    arrays, low_precision, lineno, last, carry = [], 0, 0, -math.inf, ""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while True:
            chunk = fh.read(_BLOCK_CHARS)
            text = carry + chunk
            lines = text.split("\n")
            carry = lines.pop() if chunk else ""  # a line the next block completes
            undecodable = None
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:  # bytes not UTF-8, read as surrogates
                    undecodable = text.count("\n", 0, exc.start)
            vals, low = _parse_block(lines[:undecodable], lineno, last)
            if undecodable is not None:
                raise ParseError(f"{path} is not UTF-8 text", line=lineno + undecodable + 1)
            arrays.append(vals)
            low_precision += low
            lineno += len(lines)
            if len(vals):
                last = vals[-1]
            if not chunk:
                break
    gammas = np.concatenate(arrays)
    if not len(gammas):
        raise ParseError(f"{path}: no ordinates found")
    if abs(gammas[0] - FIRST_ZERO) > 1e-6:
        raise SuspiciousFirstZero(
            f"first ordinate {float(gammas[0])} is not the known first zero ~{FIRST_ZERO:.6f}")
    if low_precision:
        warnings.warn(
            f"{low_precision} ordinate(s) carry fewer than 9 significant digits; "
            "explicit-formula residuals will degrade", stacklevel=2)
    gammas.flags.writeable = False
    return ZeroTable(gammas=gammas, source=str(path))


def default_zeros_path() -> str | None:
    """The CRITLINE_ZEROS environment fallback (None when unset)."""
    return os.environ.get(ENV_VAR) or None


def zero_count_predicted(T):
    """The smooth zero count theta(T)/pi + 1 (T >= 10), for a float or an
    ndarray of heights: N(T) less its S(T) term, on the oracle's ``theta``."""
    return theta(T) / math.pi + 1


def verify_ordinates(table: ZeroTable, sample: int = 50, tol: float = 1e-5) -> float:
    """Largest |zeta(1/2 + i gamma)| over ``sample`` ordinates drawn with
    seed 0 (all of a shorter table); raises if any exceeds ``tol``.  It uses
    ``zeta_em``, independent of the ``hardy_z`` that a search finds them on.
    """
    rng = np.random.default_rng(0)
    picks = rng.choice(table.gammas, min(sample, len(table.gammas)), replace=False)
    worst = max((abs(zeta_em(complex(0.5, g))) for g in picks.tolist()), default=0.0)
    if worst > tol:
        raise CrossCheckFailed(f"an ordinate fails |zeta| <= {tol}: worst {worst:.2e}")
    return worst


@dataclass(frozen=True)
class CountCheck:
    counted: int
    predicted: float

    @property
    def gap(self) -> float:
        return abs(self.counted - self.predicted)


def zero_count_check(table: ZeroTable, T: float) -> CountCheck:
    """Counted vs predicted zeros up to T; the gap should be O(log T)."""
    if T > table.max_height:
        raise HeightExceeded(f"T={T} above table height {table.max_height}")
    counted = table.count_below(T)
    return CountCheck(counted=counted, predicted=zero_count_predicted(T))


# ---------------------------------------------------------------------------
# Gram points, the block search and Turing's method
# ---------------------------------------------------------------------------

TURING_MIN_HEIGHT = 168 * math.pi  # Brent's Theorem 3.2 is stated above it
MAX_DOUBLINGS = 12  # of the sample density in a Gram block


def gram_point(n):
    """The Gram point g_n, theta(g_n) = n pi, for an int n >= 0 or an ndarray
    of them: Newton on ``theta`` with theta'(t) ~ log(t/2pi)/2, from the
    Lambert-W solution of the main term, t/2 log(t/2pi e) = (n + 1/8) pi."""
    m = np.asarray(n, dtype=float) + 0.125
    g = 2 * np.pi * m / lambertw(m / np.e).real
    for _ in range(4):  # each step gains a factor below 1e-3 from g_0 on
        g = g - (theta(g) - np.pi * (m - 0.125)) / (0.5 * np.log(g / (2 * np.pi)))
    return g


@dataclass(frozen=True)
class GramSamples:
    """Z at the consecutive Gram points g_first, g_first+1, ...; g_n is good
    when (-1)^n Z(g_n) > 0."""
    first: int
    g: np.ndarray
    z: np.ndarray

    @property
    def good(self) -> np.ndarray:
        odd = (self.first + np.arange(len(self.z))) % 2 == 1
        return np.where(odd, -self.z, self.z) > 0


def sample_gram(first: int, last: int) -> GramSamples:
    """Z at g_first .. g_last, one ``hardy_z`` batch."""
    g = gram_point(np.arange(first, last + 1))
    return GramSamples(first, g, hardy_z(g))


def _block_brackets(ts: np.ndarray, zs: np.ndarray, quota: int) -> list:
    """Brackets (a, b, Z(a), Z(b)) of ``quota`` sign changes of Z on a Gram
    block sampled at ``ts``: the sample density doubles until they show."""
    for doublings in range(MAX_DOUBLINGS + 1):
        flips = np.flatnonzero(np.signbit(zs[:-1]) != np.signbit(zs[1:]))
        if len(flips) >= quota:
            return [(ts[i], ts[i + 1], zs[i], zs[i + 1]) for i in flips]
        if doublings < MAX_DOUBLINGS:
            mid = (ts[:-1] + ts[1:]) / 2
            ts = np.insert(ts, np.arange(1, len(ts)), mid)
            zs = np.insert(zs, np.arange(1, len(zs)), hardy_z(mid))
    raise CrossCheckFailed(
        f"Gram block [{ts[0]:.6f}, {ts[-1]:.6f}] shows {len(flips)} of its {quota} "
        f"sign changes after {MAX_DOUBLINGS} doublings")


def _refine(a: float, b: float, za: float, zb: float) -> float:
    """Brent root of Z in [a, b]; the known values at the ends are reused."""
    known = {a: za, b: zb}
    return brentq(lambda t: known[t] if t in known else hardy_z(t), a, b, xtol=1e-11)


def search_zeros(height: float) -> tuple[np.ndarray, GramSamples]:
    """The ordinates in (10, height] of the zeros of ``hardy_z``, and Z at
    g_0 .. g_N, g_N the first good Gram point above ``height``.

    Each Gram block [g_j, g_k) between consecutive good Gram points must show
    k - j sign changes (Rosser's rule); t = 10 opens the first in place of
    g_-1 = 9.667.  Each sign change is refined by ``brentq`` to 1e-11.  A
    block that does not fill raises CrossCheckFailed.
    """
    if not 10 < height <= IM_WINDOW:
        raise DomainError(f"height must lie in (10, {IM_WINDOW:g}], got {height}")
    gram = sample_gram(0, int(theta(height) // math.pi) + 1)
    while not gram.good[-1]:  # g_N is bad: its block runs on
        more = sample_gram(len(gram.z), len(gram.z))
        gram = GramSamples(0, np.append(gram.g, more.g), np.append(gram.z, more.z))
    ts = np.concatenate([[10.0], gram.g])
    zs = np.concatenate([[hardy_z(10.0)], gram.z])  # Z(10) < 0, as at g_-1
    ends = np.flatnonzero(np.concatenate([[True], gram.good]))
    gammas = np.array([_refine(*bracket) for j, k in zip(ends[:-1], ends[1:])
                       for bracket in _block_brackets(ts[j:k + 1], zs[j:k + 1], k - j)])
    return gammas[gammas <= height], gram


def turing_certificate(table: ZeroTable, gram: GramSamples) -> float | None:
    """The height below which ``table`` lists every zero, proved on the Gram
    points in ``gram`` below the table's last ordinate.

    At each good Gram point g_n among them the table must count n + 1
    ordinates, or CrossCheckFailed is raised: one ordinate missing or one too
    many below the top good point always fails.  So each Gram block between
    good points holds its quota (Rosser's rule), and by Brent's Theorem 3.2
    K >= 0.0061 log^2 g_p + 0.08 log g_p such blocks [g_n, g_p) at the top
    give N(g_n) <= n + 1: the n + 1 ordinates below g_n are all the zeros
    there.  Returns g_n, or None with fewer than K blocks or g_n below
    TURING_MIN_HEIGHT, where only the counts hold.
    """
    idx = np.flatnonzero(gram.good & (gram.g <= table.max_height))
    n = gram.first + idx
    counted = np.searchsorted(table.gammas, gram.g[idx], side="right")
    wrong = np.flatnonzero(counted != n + 1)
    if len(wrong):
        i = wrong[0]
        raise CrossCheckFailed(f"{counted[i]} ordinates below the good Gram point "
                               f"g_{n[i]} = {gram.g[idx[i]]:.6f}, not {n[i] + 1}")
    if not len(idx):
        return None
    log_top = math.log(gram.g[idx[-1]])
    blocks = math.ceil(0.0061 * log_top ** 2 + 0.08 * log_top)
    g_n = float(gram.g[idx[-1 - blocks]]) if len(idx) > blocks else 0.0
    return g_n if g_n > TURING_MIN_HEIGHT else None


def write_zeros_table(height: float, out: str | os.PathLike) -> tuple[int, float | None]:
    """Open a temporary file next to ``out``, so that an ``out`` that cannot
    be written (or is a directory) fails before the search, then
    ``search_zeros(height)`` into it,
    read it back with ``load_zeros``, run ``turing_certificate`` and a
    50-ordinate ``verify_ordinates`` sample at 1e-8, and only then move it
    onto ``out``.  Returns the number of ordinates and the certified height;
    on any failure ``out`` is left as it was.
    """
    if os.path.isdir(out):  # os.replace would refuse it only after the search
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    tmp = f"{out}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            gammas, gram = search_zeros(height)
            fh.write(f"# positive ordinates of nontrivial zeta zeros, height <= {height}, "
                     f"{len(gammas)} ordinates\n# generated by critline zeros: Gram-block "
                     "search on Hardy's Z, Brent refinement, Turing's method\n")
            fh.writelines(f"{g:.12f}\n" for g in gammas)
        table = load_zeros(tmp)
        certified = turing_certificate(table, gram)
        verify_ordinates(table, sample=50, tol=1e-8)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):  # not moved onto ``out``: it failed
            os.remove(tmp)
    return len(gammas), certified
