"""q-expansions of the weight-4 Eisenstein series, the discriminant cusp
form, and the elliptic modular invariant j, all with exact integer
coefficients.

The expansions used here:

    E4(q)    = 1 + 240 sum_{n>=1} sigma_3(n) q^n
    E12(q)   = 1 + 65520/691 sum_{n>=1} sigma_11(n) q^n
    Delta(q) = q prod_{n>=1} (1 - q^n)^24          (coefficients tau(n))
    j(q)     = E4(q)^3 / Delta(q)                  (simple pole, lead 1/q)

Delta and j both come from J = P^3, P the Euler product, whose sparse
expansion is Jacobi's identity.  Delta = q ((J^2)^2)^2 is three squarings
through the one multiplication kernel, and 1/Delta = q^-1 J^-8 by the
series power recurrence.  E12 and Delta span the weight-12 forms for
SL_2(Z) (Serre, A Course in Arithmetic, VII 3-4), and their q^0 and q^1
coefficients give E4^3 = E12 + 432000/691 Delta, so

    691 j = 691 E12 * q^-1 J^-8 + 432000

is one sieve and one product of nonnegative series, divided exactly by 691.
SERIES names the expansions that `qleech coeffs` prints.
"""

from __future__ import annotations

from math import isqrt

from . import _integer, _integers
from .qseries import LaurentSeries, _order, _product, euler_product_cubed, euler_product_pentagonal


class DivisibilityError(ArithmeticError):
    """691 does not divide a coefficient of 691 j: the product is wrong."""


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{d | n} d^k, for n >= 1."""
    k, n = _integers((k, n), "power and argument")
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


def _eisenstein(order: int, constant: int, factor: int, power: int) -> LaurentSeries:
    """constant + factor sum_{n>=1} sigma_power(n) q^n modulo q^order, by one
    sieve: each d < order adds factor d^power to its multiples, O(order log order)."""
    order = _order(order, 1)
    coeffs = [0] * order
    for d in range(1, order):
        term = factor * d**power
        for n in range(d, order, d):
            coeffs[n] += term
    coeffs[0] = constant
    return LaurentSeries.from_coeffs(0, coeffs)


def eisenstein_e4(order: int) -> LaurentSeries:
    """E4 modulo q^order; constant term 1, then 240 sigma_3(n)."""
    return _eisenstein(order, 1, 240, 3)


def delta(order: int) -> LaurentSeries:
    """The discriminant form Delta modulo q^order; valuation 1, lead 1.

    Built as q * ((J^2)^2)^2, J = (euler product)^3, three squarings taken
    to order - 1 so that the shifted window is exactly [1, order).
    """
    order = _order(order, 2, " to see the leading term")
    power = euler_product_cubed(order - 1)
    for _ in range(3):
        power = power * power
    return power.shift(1)


def j_invariant(order: int) -> LaurentSeries:
    """The modular invariant j modulo q^order; valuation -1, lead 1.

    Computed as (691 E12 * q^-1 J^-8 + 432000) / 691, J = (euler product)^3,
    both factors to order + 1 so that the shifted window is [-1, order).  A
    remainder means a wrong product coefficient and raises DivisibilityError.
    """
    order = _order(order, 0, " to see the pole")
    work = order + 1
    e12 = _eisenstein(work, 691, 65520, 11)  # 691 E12
    c = list(_product(e12.coeffs, (euler_product_cubed(work) ** -8).coeffs))
    if order:
        c[1] += 432000
    quotients, remainders = zip(*[divmod(v, 691) for v in c])
    if any(remainders):
        raise DivisibilityError("691 does not divide a coefficient of 691 j")
    return LaurentSeries(-1, order, quotients)


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
