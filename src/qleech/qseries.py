"""Exact truncated Laurent series in the nome q, with integer coefficients.

A series is a finite window of coefficients: everything from q^valuation up
to (but excluding) q^order is known exactly, everything at q^order and beyond
is unknown.  Coefficients are plain Python ints, so all arithmetic here is
exact.  Asking for a coefficient at or past the truncation order raises
instead of silently returning zero; that silent zero is the classic source
of wrong q-expansion identities.

Truncation orders propagate pessimistically but tightly:

    add:  order = min(a.order, b.order)
    mul:  order = min(a.order + b.valuation, b.order + a.valuation)
    pow:  valuation = k v, order = k v + a.order - v  (k < 0: unit lead)

so invert(), the power k = -1, has valuation -v and order a.order - 2 v, and
a product of series each correct to N relative terms is again correct to
N relative terms.

There is one multiplication kernel: Kronecker substitution packs each
coefficient window into one exact Decimal, one signed slot of decimal digits
per coefficient, and multiplies once (libmpdec uses a number-theoretic
transform for large operands).  The slot width comes from the operands and
the decimal context traps any rounding, so no setting can lose a digit.
A series times itself packs once, so libmpdec squares.  Other powers,
inverses included, come from J.C.P. Miller's recurrence.

The Euler product P = prod (1 - q^n) has two sparse expansions here, by
Euler's pentagonal number theorem, and of its cube by Jacobi's identity.
"""

from __future__ import annotations

import decimal
import sys
from collections.abc import Iterable, Sequence
from itertools import count

from . import _Value, _integer, _integers


class TruncationError(LookupError):
    """A coefficient at or beyond the truncation order was requested."""


class NonUnitError(ValueError):
    """Inversion needs a leading coefficient of +1 or -1 over the integers."""


class SlotWidthError(ArithmeticError):
    """A product slot is wider than the interpreter's int-to-str digit limit."""


# Exact integers in libmpdec: a rounding would trap.  The kernel passes this
# context explicitly, never the thread's own (28 digits by default).
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
_str_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


class LaurentSeries(_Value):
    """Truncation of sum_m c_m q^m, known exactly for valuation <= m < order:
    the ints valuation and order, and coeffs, the tuple of ints c_m.

    Invariants: for a nonzero series, coeffs[0] != 0 (the valuation is tight)
    and len(coeffs) == order - valuation.  The zero series is the single
    distinguished shape with coeffs == () and valuation == order; its order
    still records how far the series is known to vanish.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __post_init__(self) -> None:
        valuation, order = _integers((self.valuation, self.order), "valuation and order")
        coeffs = _integers(self.coeffs, "coefficients")
        if len(coeffs) != order - valuation:
            raise ValueError("coefficient window does not match order - valuation")
        if coeffs and coeffs[0] == 0:
            raise ValueError("valuation is not tight")
        for name, value in zip(self.__slots__, (valuation, order, coeffs)):
            object.__setattr__(self, name, value)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, valuation: int, coeffs: Sequence[int]) -> "LaurentSeries":
        """Build a series from the window starting at q^valuation, known
        below q^(valuation + len(coeffs)).

        Leading zeros are stripped (tightening the valuation); an all-zero
        window yields the zero series at the same order.  Valuation and
        coefficients must be integers (operator.index): nothing is rounded.
        """
        valuation = _integer(valuation, "valuation and order")
        order = valuation + len(coeffs)
        k = 0
        while k < len(coeffs) and _integer(coeffs[k], "coefficients") == 0:
            k += 1
        return cls(valuation + k, order, coeffs[k:])

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        """The zero series, known to vanish below q^order."""
        return cls(order, order, ())

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        """The constant 1, known modulo q^order."""
        order = _integer(order, "valuation and order")
        return cls(0, order, (1,) + (0,) * (order - 1))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, m: int) -> int:
        """Coefficient of q^m.  Raises TruncationError for m >= order."""
        m = _integer(m, "exponents")
        if m >= self.order:
            raise TruncationError(
                f"coefficient of q^{m} requested but series is truncated at q^{self.order}"
            )
        if m < self.valuation:
            return 0
        return self.coeffs[m - self.valuation]

    def coefficients(self) -> dict[int, int]:
        """All known coefficients, keyed by exponent, in ascending order."""
        return {self.valuation + k: c for k, c in enumerate(self.coeffs)}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # a valuation never exceeds its order, so val <= order
        val, order = min(self.valuation, other.valuation), min(self.order, other.order)
        sums = [self.coeff(m) + other.coeff(m) for m in range(val, order)]
        return LaurentSeries.from_coeffs(val, sums)

    def __mul__(self, other):
        """Product with another series.

        A series product is one exact Decimal multiplication (Kronecker
        substitution, see _product) with slots of len(str(2 max|a| max|b| n))
        + 1 digits, n the product's relative precision; a slot wider than
        sys.get_int_max_str_digits() raises SlotWidthError.
        """
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order + other.valuation, other.order + self.valuation)
        # a zero factor's valuation is its order, so this bounds a zero product
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(order)
        val = self.valuation + other.valuation
        # leading term a0*b0 is nonzero over the integers, no re-tightening
        return LaurentSeries(val, order, _product(self.coeffs, other.coeffs))

    def __pow__(self, k: int) -> "LaurentSeries":
        """self ** k for any integer k; k < 0 needs a leading coefficient +-1."""
        k = _integer(k, "exponents")
        if k < 0 and (self.is_zero or self.coeffs[0] not in (1, -1)):
            raise NonUnitError("negative powers need a leading coefficient of +-1")
        if self.is_zero:
            if k == 0:
                return LaurentSeries.one(max(self.order, 1))
            # the product of k copies is known to vanish to k times the order
            return LaurentSeries.zero(k * self.order)
        n = self.order - self.valuation
        if k == 0:
            # empty product: the constant 1 at the base's relative precision
            return LaurentSeries.one(n)
        return LaurentSeries(k * self.valuation, k * self.valuation + n, _power(self.coeffs, k))

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; requires leading coefficient +-1.

        The result has valuation -v and order reduced by 2v, so that
        self * self.invert() is 1 at the original relative precision.
        """
        return self ** -1

    # -- reshaping -----------------------------------------------------------

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget coefficients at q^order and beyond.  Cannot extend."""
        order = _integer(order, "valuation and order")
        if order > self.order:
            raise TruncationError(
                f"cannot extend truncation from q^{self.order} to q^{order}"
            )
        # a zero series has valuation equal to its order
        if order <= self.valuation:
            return LaurentSeries.zero(order)
        return LaurentSeries(self.valuation, order, self.coeffs[: order - self.valuation])

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k (exact, shifts the whole window)."""
        k = _integer(k, "valuation and order")
        return LaurentSeries(self.valuation + k, self.order + k, self.coeffs)


def _order(order, least: int, why: str = "") -> int:
    """order through _integer, refused below least; why ends the message."""
    order = _integer(order, "orders")
    if order < least:
        raise ValueError(f"order must be at least {least}{why}")
    return order


def _product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The first n = min(len(a), len(b)) coefficients of (sum a_i q^i)(sum b_i q^i).

    Kronecker substitution (Harvey, arXiv:0712.4046): evaluate both
    polynomials at q = 10^w with one w-digit slot per coefficient, multiply
    the two Decimals once in the trapping _EXACT context, and read the
    product's coefficients back from its slots.  Each of the first n is a
    sum of at most n terms a_i b_j, below 10^(w-1) in magnitude for
    w = len(str(2 n max|a| max|b|)) + 1; w is counted on a Decimal and
    checked against sys.get_int_max_str_digits() before any str() call.

    A bias of 10^w / 2 makes each slot a nonnegative w-digit string, and the
    packed biases are subtracted before and added back after the multiply,
    which turns the first n signed, borrowing slots into digits again.  When
    the whole total is negative, str() shows its magnitude rather than its
    residue mod 10^(w n), so 10^K for K past both is added first.

    When a is b the window is packed once and the one Decimal is passed as
    both factors, which libmpdec squares: one transform fewer.
    """
    square = a is b
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    width = _EXACT.create_decimal(2 * max(map(abs, a)) * max(map(abs, b)) * n).adjusted() + 2
    limit = _str_digit_limit()
    if limit and width > limit:
        raise SlotWidthError(f"product slots need {width} digits, past the str limit {limit}")
    bias = 10**width // 2
    biases = _EXACT.create_decimal(str(bias) * n)

    def pack(c: tuple[int, ...]) -> decimal.Decimal:
        slots = "".join([str(x + bias).zfill(width) for x in reversed(c)])
        return _EXACT.subtract(_EXACT.create_decimal(slots), biases)

    packed = pack(a)
    total = _EXACT.add(_EXACT.multiply(packed, packed if square else pack(b)), biases)
    size = width * n
    if total.is_signed():
        total = _EXACT.add(total, _EXACT.scaleb(1, max(size, total.adjusted() + 1)))
    digits = str(total)[-size:].zfill(size)
    return tuple([int(digits[i - width : i]) - bias for i in range(size, 0, -width)])


def _power(f: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The first len(f) coefficients of (sum f_i q^i)^k, given f_0 != 0.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) comes from
    comparing coefficients in f p' = k f' p for p = f^k:

        m f_0 p_m = sum_{1 <= i <= m} ((k + 1) i - m) f_i p_{m-i}

    summed with one big multiplication per term, a small factor times
    p_{m-i}, and divided exactly because p has integer coefficients.  Only
    nonzero f_i enter, so a sparse base costs O(n sqrt n), not O(n^2).
    """
    f0 = f[0]
    # f0 is +-1 whenever k < 0, and then f0^k = f0^-k
    p = [f0 ** abs(k)]
    terms = [(i, c, (k + 1) * i * c) for i, c in enumerate(f) if i and c]
    for m in range(1, len(f)):
        acc = 0
        for i, c, w in terms:
            if i > m:
                break
            acc += (w - m * c) * p[m - i]
        p.append(acc // (m * f0))
    return tuple(p)


def euler_product(order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^n) as a power series modulo q^order.

    Direct expansion: factors with n >= order do not touch the window, so
    the product over n < order is already exact to this order.
    """
    order = _order(order, 1)
    out = [0] * order
    out[0] = 1
    for n in range(1, order):
        # multiply by (1 - q^n) in place, descending to reuse old values
        for m in range(order - 1, n - 1, -1):
            out[m] -= out[m - n]
    return LaurentSeries.from_coeffs(0, out)


def _sparse(order: int, terms: Iterable[tuple[int, int]]) -> LaurentSeries:
    """The power series sum c q^e modulo q^order, from (e, c) pairs in
    ascending order of e; the pairs are read up to the first e >= order."""
    order = _order(order, 1)
    out = [0] * order
    for e, c in terms:
        if e >= order:
            break
        out[e] += c
    return LaurentSeries.from_coeffs(0, out)


def euler_product_pentagonal(order: int) -> LaurentSeries:
    """Same product via the pentagonal number expansion.

    prod (1 - q^n) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}, exponents ascending
    as k(3k-1)/2, k(3k+1)/2 for k = 0, 1, ...; O(sqrt(order)) terms land in
    the window, so this route is free and independent of the direct product.
    """
    pairs = ((k * (3 * k + s) // 2, (-1) ** k) for k in count() for s in ((-1, 1) if k else (0,)))
    return _sparse(order, pairs)


def euler_product_cubed(order: int) -> LaurentSeries:
    """The cube of the same product, by Jacobi's identity.

    prod (1 - q^n)^3 = sum_{k>=0} (-1)^k (2k + 1) q^{k(k+1)/2}; about
    sqrt(2 order) terms land inside the window, fewer than the pentagonal
    series has, and none of its arithmetic is shared with that route.
    """
    return _sparse(order, ((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in count()))
