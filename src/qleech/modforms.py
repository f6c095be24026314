"""q-expansions of the weight-4 Eisenstein series, the discriminant cusp
form, and the elliptic modular invariant j, all with exact integer
coefficients.

The three expansions used here:

    E4(q)    = 1 + 240 sum_{n>=1} sigma_3(n) q^n
    Delta(q) = q prod_{n>=1} (1 - q^n)^24          (coefficients tau(n))
    j(q)     = E4(q)^3 / Delta(q)                  (simple pole, lead 1/q)

Single-coefficient accessors are backed by a cache of whole expansions at
power-of-two orders, so repeated coefficient queries do not recompute the
series; the cache never changes any value, only who pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .qseries import LaurentSeries, euler_product_pentagonal


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{d | n} d^k, for n >= 1."""
    if k < 1:
        raise ValueError("power must be at least 1")
    if n < 1:
        raise ValueError("divisor sums are defined for n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def eisenstein_e4(order: int) -> LaurentSeries:
    """E4 modulo q^order; constant term 1, then 240 sigma_3(n)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    coeffs = [1] + [240 * sigma(3, n) for n in range(1, order)]
    return LaurentSeries.from_coeffs(0, coeffs, order)


def delta(order: int) -> LaurentSeries:
    """The discriminant form Delta modulo q^order; valuation 1, lead 1.

    Built as q * (euler product)^24 with one extra working coefficient so
    the final window is exactly [1, order).
    """
    if order < 2:
        raise ValueError("order must be at least 2 to see the leading term")
    eta24 = euler_product_pentagonal(order) ** 24
    return eta24.shift(1).truncate(order)


def tau(m: int) -> int:
    """Ramanujan tau(m), the coefficient of q^m in Delta, for m >= 1."""
    if m < 1:
        raise ValueError("tau is indexed from 1")
    return _delta_cached(_cache_order(m + 1)).coeff(m)


def j_invariant(order: int, padding: int = 2) -> LaurentSeries:
    """The modular invariant j modulo q^order; valuation -1, lead 1.

    Computed as E4^3 * Delta^(-1).  The division costs two orders of
    truncation (Delta has valuation 1), so inputs are expanded to
    order + padding and the result re-truncated; any padding >= 2 must give
    identical coefficients, and the parameter is exposed so that invariance
    is testable.
    """
    if order < 0:
        raise ValueError("order must be at least 0 to see the pole")
    if padding < 2:
        raise ValueError("padding below 2 cannot reach the requested order")
    work = order + padding
    numerator = eisenstein_e4(work) ** 3
    return (numerator * delta(work).invert()).truncate(order)


def j_coeff(m: int) -> int:
    """Coefficient of q^m in j, for m >= -1."""
    if m < -1:
        raise ValueError("j has a simple pole: no coefficients below q^-1")
    return _j_cached(_cache_order(m + 1)).coeff(m)


@dataclass(frozen=True)
class CoefficientTable:
    """A named expansion flattened to an exponent -> coefficient map.

    The entries cover exactly the exponents [valuation, order)."""

    name: str
    valuation: int
    order: int
    entries: dict[int, int]


_SERIES_BUILDERS = {
    "j": (j_invariant, 0),
    "delta": (delta, 2),
    "e4": (eisenstein_e4, 1),
    "euler": (euler_product_pentagonal, 1),
}


def series_names() -> tuple[str, ...]:
    return tuple(_SERIES_BUILDERS)


def coefficient_table(name: str, order: int) -> CoefficientTable:
    """Expand one of the named series and list every known coefficient."""
    if name not in _SERIES_BUILDERS:
        raise ValueError(f"unknown series {name!r}; choose from {sorted(_SERIES_BUILDERS)}")
    builder, min_order = _SERIES_BUILDERS[name]
    if order < min_order:
        raise ValueError(f"series {name!r} needs order >= {min_order}")
    series = builder(order)
    return CoefficientTable(name, series.valuation, series.order, series.coefficients())


def _cache_order(order: int) -> int:
    # round up to a power of two, floor 32, so nearby queries share one entry
    n = max(order, 32)
    return 1 << (n - 1).bit_length()


@lru_cache(maxsize=8)
def _delta_cached(order: int) -> LaurentSeries:
    return delta(order)


@lru_cache(maxsize=8)
def _j_cached(order: int) -> LaurentSeries:
    return j_invariant(order)
