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
Powers, inverses included, come from J.C.P. Miller's recurrence.
"""

from __future__ import annotations

import decimal
import operator
import sys
from dataclasses import dataclass
from typing import Sequence


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


@dataclass(frozen=True)
class LaurentSeries:
    """Truncation of sum_m c_m q^m, known exactly for valuation <= m < order.

    Invariants: for a nonzero series, coeffs[0] != 0 (the valuation is tight)
    and len(coeffs) == order - valuation.  The zero series is the single
    distinguished shape with coeffs == () and valuation == order; its order
    still records how far the series is known to vanish.
    """

    valuation: int
    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order - self.valuation:
            raise ValueError("coefficient window does not match order - valuation")
        if self.coeffs:
            if self.coeffs[0] == 0:
                raise ValueError("valuation is not tight")
            if not all(isinstance(c, int) for c in self.coeffs):
                raise ValueError("coefficients must be integers")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeffs(
        cls, valuation: int, coeffs: Sequence[int], order: int | None = None
    ) -> "LaurentSeries":
        """Build a series from the window starting at q^valuation.

        Leading zeros are stripped (tightening the valuation); an all-zero
        window yields the zero series at the same order.  Coefficients must
        be integers (operator.index): nothing is converted.
        """
        try:
            coeffs = tuple(map(operator.index, coeffs))
        except TypeError:
            raise ValueError("coefficients must be integers") from None
        if order is None:
            order = valuation + len(coeffs)
        elif order != valuation + len(coeffs):
            raise ValueError("order must equal valuation + len(coeffs)")
        k = 0
        while k < len(coeffs) and coeffs[k] == 0:
            k += 1
        if k == len(coeffs):
            return cls(order, order, ())
        return cls(valuation + k, order, coeffs[k:])

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        """The zero series, known to vanish below q^order."""
        return cls(order, order, ())

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        """The constant 1, known modulo q^order."""
        if order <= 0:
            # below q^0 the constant term is already out of the window
            return cls.zero(order)
        return cls(0, order, (1,) + (0,) * (order - 1))

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "LaurentSeries":
        """coefficient * q^exponent, known modulo q^order."""
        if coefficient == 0:
            return cls.zero(order)
        if order <= exponent:
            return cls.zero(order)
        return cls(exponent, order, (coefficient,) + (0,) * (order - exponent - 1))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, m: int) -> int:
        """Coefficient of q^m.  Raises TruncationError for m >= order."""
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

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.valuation, self.order, tuple(-c for c in self.coeffs))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        if self.is_zero and other.is_zero:
            return LaurentSeries.zero(order)
        val = min(self.valuation, other.valuation, order)
        out = [0] * (order - val)
        for src in (self, other):
            base = src.valuation - val
            for k, c in enumerate(src.coeffs):
                if src.valuation + k >= order:
                    break
                out[base + k] += c
        return LaurentSeries.from_coeffs(val, out, order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product with an integer scalar or with another series.

        A series product is one exact Decimal multiplication (Kronecker
        substitution, see _product) with slots of len(str(2 max|a| max|b| n))
        + 1 digits, n the product's relative precision; a slot wider than
        sys.get_int_max_str_digits() raises SlotWidthError.
        """
        if isinstance(other, int):
            return self._scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # a zero factor: its order acts as the valuation bound, so the
        # product is known to vanish to order zero.order + other.valuation
        if self.is_zero or other.is_zero:
            a_val = self.order if self.is_zero else self.valuation
            b_val = other.order if other.is_zero else other.valuation
            return LaurentSeries.zero(min(self.order + b_val, other.order + a_val))
        order = min(self.order + other.valuation, other.order + self.valuation)
        val = self.valuation + other.valuation
        # leading term a0*b0 is nonzero over the integers, no re-tightening
        return LaurentSeries(val, order, _product(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        return NotImplemented

    def _scale(self, c: int) -> "LaurentSeries":
        if c == 0:
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.valuation, self.order, tuple(c * a for a in self.coeffs))

    def __pow__(self, k: int) -> "LaurentSeries":
        """self ** k for any integer k; k < 0 needs a leading coefficient +-1."""
        if not isinstance(k, int):
            return NotImplemented
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
        if order > self.order:
            raise TruncationError(
                f"cannot extend truncation from q^{self.order} to q^{order}"
            )
        if order == self.order:
            return self
        if self.is_zero or order <= self.valuation:
            return LaurentSeries.zero(order)
        return LaurentSeries(self.valuation, order, self.coeffs[: order - self.valuation])

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k (exact, shifts the whole window)."""
        return LaurentSeries(self.valuation + k, self.order + k, self.coeffs)


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
    """
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

    total = _EXACT.add(_EXACT.multiply(pack(a), pack(b)), biases)
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

    The division is exact because p has integer coefficients.  Only the
    nonzero f_i enter the sums, so a sparse base such as the pentagonal
    series costs O(n sqrt n) instead of O(n^2).
    """
    f0 = f[0]
    # f0 is +-1 whenever k < 0, and then f0^k = f0^-k
    p = [f0 ** abs(k)]
    terms = [(i, c, (k + 1) * i * c) for i, c in enumerate(f) if i and c]
    for m in range(1, len(f)):
        weighted = plain = 0
        for i, c, w in terms:
            if i > m:
                break
            q = p[m - i]
            weighted += w * q
            plain += c * q
        p.append((weighted - m * plain) // (m * f0))
    return tuple(p)


def euler_product(order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^n) as a power series modulo q^order.

    Direct expansion: factors with n >= order do not touch the window, so
    the product over n < order is already exact to this order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    out = [0] * order
    out[0] = 1
    for n in range(1, order):
        # multiply by (1 - q^n) in place, descending to reuse old values
        for m in range(order - 1, n - 1, -1):
            out[m] -= out[m - n]
    return LaurentSeries.from_coeffs(0, out, order)


def euler_product_pentagonal(order: int) -> LaurentSeries:
    """Same product via the pentagonal number expansion.

    prod (1 - q^n) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}; only O(sqrt(order))
    terms land inside the window, so this route is effectively free and is
    arithmetically independent of the term-by-term product.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    out = [0] * order
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e < order:
                out[e] += -1 if kk % 2 else 1
                hit = True
        if not hit:
            break
        k += 1
    return LaurentSeries.from_coeffs(0, out, order)
