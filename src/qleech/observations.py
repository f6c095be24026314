"""Arithmetic observations on the expansion coefficients.

Two independent checks live here:

  * sums of squared coefficients of j and Delta over fixed ranges, reduced
    mod 70, which both land on residue 42;
  * the cannonball problem, the Diophantine equation
    1^2 + 2^2 + ... + n^2 = m^2, whose only solutions are (1, 1) and
    (24, 70).

Everything is computed with exact integers; the reports carry the full sums
so a caller can re-reduce them independently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt

from .modforms import SERIES
from .qseries import _integer

_SEQUENCE_VALUATIONS = {"j": -1, "delta": 1}


@dataclass(frozen=True)
class CongruenceReport:
    """Sum of squared coefficients over [lo, hi], reduced mod modulus."""

    sequence: str
    lo: int
    hi: int
    modulus: int
    sum_of_squares: int
    residue: int


def check_congruence(sequence: str, lo: int, hi: int, modulus: int) -> CongruenceReport:
    """Square-and-sum the named expansion's coefficients on [lo, hi]."""
    if sequence not in _SEQUENCE_VALUATIONS:
        raise ValueError(f"unknown sequence {sequence!r}; choose from {sorted(_SEQUENCE_VALUATIONS)}")
    try:
        lo, hi, modulus = map(operator.index, (lo, hi, modulus))
    except TypeError:
        raise ValueError("lo, hi and modulus must be integers") from None
    if lo > hi:
        raise ValueError("empty range: lo must not exceed hi")
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    if lo < _SEQUENCE_VALUATIONS[sequence]:
        raise ValueError(f"range starts below the valuation of {sequence}")
    # hi >= lo >= the valuation, so hi + 1 reaches the series' least order
    series = SERIES[sequence][0](hi + 1)
    total = 0
    for m in range(lo, hi + 1):
        c = series.coeff(m)
        total += c * c
    return CongruenceReport(sequence, lo, hi, modulus, total, total % modulus)


@dataclass(frozen=True)
class CannonballSolution:
    """n for which the first n squares stack to a perfect square m^2."""

    n: int
    m: int

    @property
    def trivial(self) -> bool:
        return self.n == 1


def cannonball(max_n: int) -> tuple[CannonballSolution, ...]:
    """All n <= max_n with 1^2 + ... + n^2 a perfect square, ascending.

    The pyramid number n(n+1)(2n+1)/6 is tested with an exact integer
    square root; no floating point is involved at any scale.
    """
    max_n = _integer(max_n, "search bounds")
    if max_n < 1:
        raise ValueError("search bound must be at least 1")
    found = []
    for n in range(1, max_n + 1):
        total = n * (n + 1) * (2 * n + 1) // 6
        r = isqrt(total)
        if r * r == total:
            found.append(CannonballSolution(n, r))
    return tuple(found)
