"""q-expansions of the weight-4 and weight-8 Eisenstein series, the
discriminant cusp form, and the elliptic modular invariant j, all with
exact integer coefficients.

The expansions used here:

    E4(q)    = 1 + 240 sum_{n>=1} sigma_3(n) q^n
    E8(q)    = 1 + 480 sum_{n>=1} sigma_7(n) q^n
    Delta(q) = q prod_{n>=1} (1 - q^n)^24          (coefficients tau(n))
    j(q)     = E4(q)^3 / Delta(q)                  (simple pole, lead 1/q)
             = q^-1 E4(q)^3 prod_{n>=1} (1 - q^n)^-24

Delta and j both come from J = P^3, P the Euler product, whose sparse
expansion is Jacobi's identity.  Delta = q ((J^2)^2)^2 is three squarings
through the one multiplication kernel, and the factor P^-24 of j is J^-8
by the series power recurrence.  The weight-8 forms for SL_2(Z) are
one-dimensional (Serre, A Course in Arithmetic, VII 3), so E4^2 = E8,
both having constant term 1, and the sieved E8 saves a product:

    j = q^-1 * E4 * E8 * J^-8

two Kronecker-substitution products, with no Delta and no dense inverse.
SERIES names the expansions that `qleech coeffs` prints.
"""

from __future__ import annotations

from math import isqrt

from .qseries import LaurentSeries, _integer, euler_product_cubed, euler_product_pentagonal


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{d | n} d^k, for n >= 1."""
    k, n = _integer(k, "power and argument"), _integer(n, "power and argument")
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


def _eisenstein(order: int, factor: int, power: int) -> LaurentSeries:
    """1 + factor sum_{n>=1} sigma_power(n) q^n modulo q^order, by one sieve:
    each d < order adds factor d^power to its multiples, O(order log order)."""
    order = _integer(order, "orders")
    if order < 1:
        raise ValueError("order must be at least 1")
    coeffs = [0] * order
    for d in range(1, order):
        term = factor * d**power
        for n in range(d, order, d):
            coeffs[n] += term
    coeffs[0] = 1
    return LaurentSeries.from_coeffs(0, coeffs)


def eisenstein_e4(order: int) -> LaurentSeries:
    """E4 modulo q^order; constant term 1, then 240 sigma_3(n)."""
    return _eisenstein(order, 240, 3)


def eisenstein_e8(order: int) -> LaurentSeries:
    """E8 = E4^2 modulo q^order; constant term 1, then 480 sigma_7(n)."""
    return _eisenstein(order, 480, 7)


def delta(order: int) -> LaurentSeries:
    """The discriminant form Delta modulo q^order; valuation 1, lead 1.

    Built as q * ((J^2)^2)^2, J = (euler product)^3, three squarings taken
    to order - 1 so that the shifted window is exactly [1, order).
    """
    order = _integer(order, "orders")
    if order < 2:
        raise ValueError("order must be at least 2 to see the leading term")
    power = euler_product_cubed(order - 1)
    for _ in range(3):
        power = power * power
    return power.shift(1)


def j_invariant(order: int) -> LaurentSeries:
    """The modular invariant j modulo q^order; valuation -1, lead 1.

    Computed as q^-1 * E4 * E8 * J^-8, J = (euler product)^3, with every
    factor taken to order + 1, so that the shifted window is exactly
    [-1, order).
    """
    order = _integer(order, "orders")
    if order < 0:
        raise ValueError("order must be at least 0 to see the pole")
    work = order + 1
    e4e8 = eisenstein_e4(work) * eisenstein_e8(work)
    return (e4e8 * euler_product_cubed(work) ** -8).shift(-1)


def j_coeff(m: int) -> int:
    """Coefficient of q^m in j, for m >= -1."""
    m = _integer(m, "exponents")
    if m < -1:
        raise ValueError("j has a simple pole: no coefficients below q^-1")
    return j_invariant(m + 1).coeff(m)


# the series that `qleech coeffs` expands: name -> (builder, the least
# order at which the series shows its leading term)
SERIES = {
    "j": (j_invariant, 0),
    "delta": (delta, 2),
    "e4": (eisenstein_e4, 1),
    "euler": (euler_product_pentagonal, 1),
}
