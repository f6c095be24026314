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

from math import isqrt

from . import _Value, _integer, _integers
from .modforms import SERIES

_SEQUENCE_VALUATIONS = {"j": -1, "delta": 1}


class CongruenceReport(_Value):
    """Sum of squared coefficients over [lo, hi], reduced mod modulus: the
    str sequence, then the ints lo, hi, modulus, sum_of_squares, residue."""

    __slots__ = ("sequence", "lo", "hi", "modulus", "sum_of_squares", "residue")


def check_congruence(sequence: str, lo: int, hi: int, modulus: int) -> CongruenceReport:
    """Square-and-sum the named expansion's coefficients on [lo, hi]."""
    if sequence not in _SEQUENCE_VALUATIONS:
        raise ValueError(f"unknown sequence {sequence!r}; choose from {sorted(_SEQUENCE_VALUATIONS)}")
    lo, hi, modulus = _integers((lo, hi, modulus), "lo, hi and modulus")
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


class CannonballSolution(_Value):
    """n for which the first n squares stack to a perfect square m^2; both ints."""

    __slots__ = ("n", "m")

    @property
    def trivial(self) -> bool:
        return self.n == 1


def cannonball(max_n: int) -> tuple[CannonballSolution, ...]:
    """All n <= max_n with 1^2 + ... + n^2 a perfect square, ascending.

    Only n = d s^2 with d in {1, 2, 3, 6} can be solutions, about
    2.7 sqrt(max_n) of them.  n, n + 1 and 2n + 1 are pairwise coprime and
    their product is 6 m^2, so a prime p >= 5 divides n to the power it
    divides 6 m^2 to, an even one: n is a square times a squarefree divisor
    of 6.  Each candidate's pyramid number n(n+1)(2n+1)/6 is tested
    with an exact integer square root; no floating point is involved at
    any scale.
    """
    max_n = _integer(max_n, "search bounds")
    if max_n < 1:
        raise ValueError("search bound must be at least 1")
    found = []
    # no n twice: d is squarefree, so n = d s^2 fixes d and s
    for n in sorted(d * s * s for d in (1, 2, 3, 6) for s in range(1, isqrt(max_n // d) + 1)):
        total = n * (n + 1) * (2 * n + 1) // 6
        r = isqrt(total)
        if r * r == total:
            found.append(CannonballSolution(n, r))
    return tuple(found)
