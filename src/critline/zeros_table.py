"""Ingestion and validation of tables of nontrivial-zero ordinates.

File format: UTF-8 text, one positive decimal ordinate per line, strictly
ascending, '#' comment lines allowed.  This matches publicly distributed
zero lists; the package never computes or downloads zeros itself.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckFailed,
    HeightExceeded,
    NotAscending,
    ParseError,
    SuspiciousFirstZero,
)
from .zeta_oracle import zeta_em

FIRST_ZERO = 14.134725141734693
ENV_VAR = "CRITLINE_ZEROS"


@dataclass(frozen=True)
class ZeroTable:
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
        i = np.searchsorted(g, t)
        best = math.inf
        if i < len(g):
            best = min(best, abs(g[i] - t))
        if i > 0:
            best = min(best, abs(t - g[i - 1]))
        return float(best)


def _significant_digits(text: str) -> int:
    mantissa = text.strip().lstrip("+-").replace(".", "").lstrip("0")
    return len(mantissa)


def load_zeros(path: str | os.PathLike) -> ZeroTable:
    """Parse and validate a zero-ordinate file."""
    gammas = []
    low_precision = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                val = float(line)
            except ValueError:
                raise ParseError(f"not a decimal ordinate: {line!r}", line=lineno) from None
            if not math.isfinite(val) or val <= 0:
                raise ParseError(f"ordinate must be a positive real, got {line!r}",
                                 line=lineno)
            if gammas and val <= gammas[-1]:
                raise NotAscending(
                    f"line {lineno}: {val} does not exceed previous ordinate {gammas[-1]}")
            if _significant_digits(line) < 9:
                low_precision += 1
            gammas.append(val)
    if not gammas:
        raise ParseError(f"{path}: no ordinates found")
    if abs(gammas[0] - FIRST_ZERO) > 1e-6:
        raise SuspiciousFirstZero(
            f"first ordinate {gammas[0]} is not the known first zero ~{FIRST_ZERO:.6f}")
    if low_precision:
        warnings.warn(
            f"{low_precision} ordinate(s) carry fewer than 9 significant digits; "
            "explicit-formula residuals will degrade", stacklevel=2)
    return ZeroTable(gammas=np.asarray(gammas, dtype=float), source=str(path))


def default_zeros_path() -> str | None:
    """The CRITLINE_ZEROS environment fallback (None when unset)."""
    return os.environ.get(ENV_VAR) or None


def zero_count_predicted(T):
    """Smooth zero-count main term (T/2pi) log(T/2pi) - T/2pi + 7/8, for a
    float or an ndarray of heights."""
    a = T / (2 * math.pi)
    return a * np.log(a) - a + 0.875


def verify_ordinates(table: ZeroTable, sample: int = 50, full: bool = False,
                     tol: float = 1e-5, seed: int = 0) -> float:
    """Largest |zeta(1/2 + i gamma)| over sampled (or, with ``full``, all)
    ordinates; raises if any exceeds ``tol``.

    The full sweep costs one zeta evaluation per ordinate and is therefore
    behind a flag.
    """
    if full:
        picks = table.gammas
    else:
        rng = np.random.default_rng(seed)
        picks = rng.choice(table.gammas, min(sample, len(table.gammas)), replace=False)
    worst = 0.0
    for g in picks:
        worst = max(worst, abs(zeta_em(complex(0.5, float(g)))))
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
