"""Series arithmetic: explicit examples plus randomized ring axioms."""

import decimal
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qleech import qseries
from qleech.qseries import (
    LaurentSeries,
    NonUnitError,
    SlotWidthError,
    TruncationError,
    euler_product,
    euler_product_cubed,
    euler_product_pentagonal,
)

coeffs_st = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6)


def oracle_mul(a, b):
    """a * b by the schoolbook double loop, with the library's truncation
    rules; the reference for the Kronecker-substitution kernel."""
    if a.is_zero or b.is_zero:
        a_val = a.order if a.is_zero else a.valuation
        b_val = b.order if b.is_zero else b.valuation
        return LaurentSeries.zero(min(a.order + b_val, b.order + a_val))
    order = min(a.order + b.valuation, b.order + a.valuation)
    val = a.valuation + b.valuation
    n = order - val
    out = [0] * n
    for i in range(min(n, len(a.coeffs))):
        for j in range(min(n - i, len(b.coeffs))):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return LaurentSeries(val, order, tuple(out))


def assert_square(a):
    """a * a, which passes one window as both operands of the kernel, is
    the schoolbook square and the kernel's product of the window with a
    distinct copy of it."""
    copy = tuple(list(a.coeffs))
    assert copy is not a.coeffs or not copy
    assert a * a == oracle_mul(a, a)
    if not a.is_zero:
        assert qseries._product(a.coeffs, a.coeffs) == qseries._product(a.coeffs, copy)


# magnitudes up to 2^300 of both signs, with the binary and decimal
# boundary values +-(2^k - 1), -2^k, +-(10^k - 1) and -10^k drawn often
wide_int_st = st.one_of(
    st.integers(min_value=-(2**300), max_value=2**300),
    st.integers(min_value=0, max_value=300).flatmap(
        lambda k: st.sampled_from((2**k - 1, -(2**k - 1), -(2**k)))
    ),
    st.integers(min_value=0, max_value=90).flatmap(
        lambda k: st.sampled_from((10**k - 1, -(10**k - 1), -(10**k)))
    ),
)
# a window is a run of segments: random values, one value repeated (zero
# runs among them), or all negative
segment_st = st.one_of(
    st.lists(wide_int_st, min_size=1, max_size=20),
    st.tuples(st.one_of(st.just(0), wide_int_st), st.integers(min_value=1, max_value=63)).map(
        lambda run: [run[0]] * run[1]
    ),
    st.lists(st.integers(min_value=-(2**300), max_value=-1), min_size=1, max_size=20),
)


@st.composite
def wide_series_st(draw):
    valuation = draw(st.integers(min_value=-6, max_value=6))
    window = [c for segment in draw(st.lists(segment_st, max_size=8)) for c in segment]
    # leading zeros are stripped, so lengths 1..80 and zero series both occur
    return LaurentSeries.from_coeffs(valuation, window[:80])


@st.composite
def series_st(draw):
    valuation = draw(st.integers(min_value=-4, max_value=4))
    return LaurentSeries.from_coeffs(valuation, draw(coeffs_st))


@st.composite
def unit_series_st(draw):
    valuation = draw(st.integers(min_value=-4, max_value=4))
    lead = draw(st.sampled_from((1, -1)))
    tail = draw(st.lists(st.integers(min_value=-9, max_value=9), max_size=5))
    return LaurentSeries.from_coeffs(valuation, [lead] + tail)


def test_coeff_values():
    s = LaurentSeries.from_coeffs(0, [1, -1])
    assert s.coeff(0) == 1
    assert s.coeff(1) == -1
    assert s.coeff(-3) == 0


def test_coeff_beyond_truncation_raises():
    s = LaurentSeries.from_coeffs(0, [1, -1])
    with pytest.raises(TruncationError):
        s.coeff(2)
    with pytest.raises(TruncationError):
        LaurentSeries.zero(5).coeff(5)


@pytest.mark.parametrize("bad", [1.9, 2.0, Fraction(3), "7", decimal.Decimal(7)])
def test_from_coeffs_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="coefficients must be integers"):
        LaurentSeries.from_coeffs(0, [1, bad])
    with pytest.raises(ValueError, match="coefficients must be integers"):
        LaurentSeries.from_coeffs(0, [bad])


@pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2), Fraction(2), decimal.Decimal(2)])
def test_non_integer_valuation_or_order_refused(bad):
    # a series with exponents 0.5, 1.5, 2.5 or a zero known below q^2.5 is no
    # truncated Laurent series
    s = LaurentSeries.from_coeffs(1, [1, 2, 3])
    for build in (
        lambda: s.shift(bad),
        lambda: LaurentSeries.zero(bad),
        lambda: LaurentSeries.from_coeffs(bad, [1, 2]),
        lambda: LaurentSeries(0, bad, (1, 2)),
        lambda: LaurentSeries(bad, 2, (1, 2)),
    ):
        with pytest.raises(ValueError, match="valuation and order must be integers"):
            build()
    # truncate and one refuse it too, before any slice or repeat
    for build in (
        lambda: s.truncate(bad),
        lambda: s.truncate(bad - 1),
        lambda: LaurentSeries.one(bad),
    ):
        with pytest.raises(ValueError, match="valuation and order must be integers"):
            build()


@pytest.mark.parametrize(
    "bad", [-0.5, 0.5, 1.5, 2.0, Fraction(1, 2), decimal.Decimal(2), "1", None]
)
def test_non_integer_exponent_or_order_is_value_error(bad):
    # a coefficient at q^-0.5 is no zero, and a truncation at q^1.5 no
    # TypeError from a slice: every exponent and order goes through
    # operator.index, and anything else is refused as a ValueError
    s = LaurentSeries.from_coeffs(0, [1, 2, 3])
    for call in (
        lambda: s.coeff(bad),
        lambda: s.truncate(bad),
        lambda: s.shift(bad),
        lambda: LaurentSeries.one(bad),
        lambda: LaurentSeries.from_coeffs(bad, [1, 2]),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            call()


def test_bool_and_int_subclass_exponents_accepted():
    class Exponent(int):
        pass

    s = LaurentSeries.from_coeffs(0, [1, 2, 3])
    assert s.coeff(True) == 2 and s.coeff(Exponent(2)) == 3 and s.coeff(Exponent(-1)) == 0
    assert s.truncate(Exponent(2)) == LaurentSeries.from_coeffs(0, [1, 2])
    assert s.shift(True) == LaurentSeries.from_coeffs(1, [1, 2, 3])
    assert LaurentSeries.one(Exponent(2)) == LaurentSeries.from_coeffs(0, [1, 0])
    assert LaurentSeries.from_coeffs(Exponent(-1), [0, 5]) == LaurentSeries.from_coeffs(0, [5])


def test_zero_series_shape():
    z = LaurentSeries.from_coeffs(2, [0, 0, 0])
    assert z.is_zero
    assert z.order == 5
    assert z.coeff(4) == 0


def test_valuation_tightening_on_build():
    s = LaurentSeries.from_coeffs(-2, [0, 0, 3, 1])
    assert s.valuation == 0
    assert s.order == 2
    assert s.coeffs == (3, 1)


def test_add_simple():
    a = LaurentSeries.from_coeffs(0, [1, 1])
    b = LaurentSeries.from_coeffs(0, [1, -1])
    s = a + b
    assert s.coeff(0) == 2 and s.coeff(1) == 0
    assert s.order == 2


def test_add_keeps_pole_and_positive_part():
    a = LaurentSeries.from_coeffs(-1, [1, 0, 0])
    b = LaurentSeries.from_coeffs(1, [1])
    s = a + b
    assert s.valuation == -1
    assert (s.coeff(-1), s.coeff(0), s.coeff(1)) == (1, 0, 1)


def test_add_cancellation_retightens_valuation():
    a = LaurentSeries.from_coeffs(0, [1, 2])
    b = LaurentSeries.from_coeffs(0, [-1, 5])
    s = a + b
    assert s.valuation == 1
    assert s.coeffs == (7,)


def test_add_full_cancellation_gives_zero():
    a = LaurentSeries.from_coeffs(1, [1, -24, 252])
    s = a + LaurentSeries.from_coeffs(1, [-1, 24, -252])
    assert s.is_zero
    assert s.order == a.order


def test_mul_geometric_inverse():
    one_minus_q = LaurentSeries.from_coeffs(0, [1, -1] + [0] * 8)
    geometric = LaurentSeries.from_coeffs(0, [1] * 10)
    assert one_minus_q * geometric == LaurentSeries.one(10)


def test_mul_order_and_valuation_rule():
    a = LaurentSeries.from_coeffs(-1, [1, 2, 3])  # order 2
    b = LaurentSeries.from_coeffs(1, [4, 5])  # order 3
    p = a * b
    assert p.valuation == 0
    assert p.order == min(a.order + b.valuation, b.order + a.valuation)
    assert p.coeff(0) == 4
    assert p.coeff(1) == 13


@pytest.mark.parametrize(
    "k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17, 31, 32, 63, 64, 127, 128, 299, 300]
)
def test_mul_slot_boundaries(k):
    # n (2^k - 1)^2 with n = 2^m - 1 terms sits just under the slot bound
    edges = (2**k - 1, -(2**k - 1), -(2**k))
    for x in edges:
        for y in edges:
            for length in (1, 2, 3, 63):
                a = LaurentSeries.from_coeffs(0, [x] * length)
                b = LaurentSeries.from_coeffs(-1, [y] * length)
                assert a * b == oracle_mul(a, b)
            # single-term series
            p = LaurentSeries.from_coeffs(3, [x]) * LaurentSeries.from_coeffs(-2, [y])
            assert (p.valuation, p.order, p.coeffs) == (1, 2, (x * y,))


@pytest.mark.parametrize("k", range(1, 301))
def test_mul_decimal_slot_boundaries(k):
    # the slot width is a digit count, so 10^k - 1 and -10^k sit on its edges
    edges = (10**k - 1, -(10**k - 1), -(10**k))
    for x in edges:
        for y in edges:
            for length in (1, 2, 3):
                a = LaurentSeries.from_coeffs(0, [x] * length)
                b = LaurentSeries.from_coeffs(-1, [y] * length)
                assert a * b == oracle_mul(a, b)
    # 99 terms, each edge on both sides and both signs of product: the
    # q^(m-1) coefficient of the product is (m + 1) x y
    for x, y in zip(edges, edges[1:] + edges[:1]):
        a = LaurentSeries.from_coeffs(0, [x] * 99)
        b = LaurentSeries.from_coeffs(-1, [y] * 99)
        assert a * b == LaurentSeries.from_coeffs(-1, [(m + 1) * x * y for m in range(99)])
    # the same windows squared: one tuple as both operands
    for x in edges:
        for length in (1, 2, 3):
            assert_square(LaurentSeries.from_coeffs(-1, [x] * length))
        a = LaurentSeries.from_coeffs(1, [x] * 99)
        assert_square(a)
        assert a * a == LaurentSeries.from_coeffs(2, [(m + 1) * x * x for m in range(99)])


@pytest.mark.parametrize("k", [1, 2, 9, 10, 99, 100, 299, 300])
def test_mul_decimal_zero_runs_and_negative_windows(k):
    edges = [10**k - 1, -(10**k - 1), -(10**k)]
    for x in edges:
        runs = LaurentSeries.from_coeffs(0, [x] + [0] * 40 + [-x] + [0] * 7 + [x])
        negative = LaurentSeries.from_coeffs(1, [-(10**k), -(10**k - 1), -1] * 17)
        for a, b in ((runs, runs), (runs, negative), (negative, negative)):
            assert a * b == oracle_mul(a, b)
        assert_square(runs)
        assert_square(negative)


def test_mul_negative_total():
    # the full packed product 1 + 2 q + 3 q^2 times 1 - 5 q^2 has a negative
    # top coefficient, so the packed total is negative and str() shows its
    # magnitude; its low slots must still read back as residues
    a = LaurentSeries.from_coeffs(0, [1, 2, 3])
    b = LaurentSeries.from_coeffs(0, [1, 0, -5])
    assert (a * b).coeffs == (1, 2, -2)
    a = LaurentSeries.from_coeffs(0, [10**50, -(10**50), -(10**60)] * 9)
    b = LaurentSeries.from_coeffs(0, [-1] + [0] * 25 + [-(10**70)])
    assert a * b == oracle_mul(a, b)
    assert (a * b) * b == a * (b * b)


def test_square_passes_one_decimal_twice(monkeypatch):
    # a window times itself is packed once and libmpdec gets one Decimal as
    # both factors; an equal copy of the window takes the general path
    exact, factors = qseries._EXACT, []

    class Spy:
        def __getattr__(self, name):
            return getattr(exact, name)

        def multiply(self, x, y):
            factors.append(x is y)
            return exact.multiply(x, y)

    monkeypatch.setattr(qseries, "_EXACT", Spy())
    a = LaurentSeries.from_coeffs(0, [3, -(10**40), 0, 7] * 5)
    copy = LaurentSeries(a.valuation, a.order, tuple(list(a.coeffs)))
    assert a * a == a * copy
    assert factors == [True, False]


def test_mul_ignores_callers_decimal_context():
    a = LaurentSeries.from_coeffs(0, [10**80 + 7, -(10**90), 3] * 10)
    b = LaurentSeries.from_coeffs(-2, [-(10**70) - 1, 10**75] * 15)
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        ctx.clear_traps()
        assert a * b == oracle_mul(a, b)


def test_kernel_context_is_exact_and_trapping():
    ctx = qseries._EXACT
    assert (ctx.prec, ctx.Emax, ctx.Emin) == (decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN)
    for signal in (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow):
        assert ctx.traps[signal]
    # the same traps at a small precision turn a rounding into an error
    small = ctx.copy()
    small.prec = 5
    with pytest.raises(decimal.Inexact):
        small.multiply(123456, 7)
    with pytest.raises(decimal.Rounded):
        small.multiply(100000, 10)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str limit")
def test_slot_wider_than_str_limit_raises():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        # the width is len(str(2 * 2 * x^2)) + 1 digits for x = max |a_i|:
        # 640 for x = 5 * 10^318, just at the limit
        a = LaurentSeries.from_coeffs(0, [5 * 10**318, -1])
        assert a * a == oracle_mul(a, a)
        # 641 for x = 2 * 10^319, and 802 for x = 10^400
        for x in (2 * 10**319, 10**400):
            b = LaurentSeries.from_coeffs(0, [x, -1])
            with pytest.raises(SlotWidthError):
                b * b
    finally:
        sys.set_int_max_str_digits(old)


def test_mul_all_negative_windows():
    a = LaurentSeries.from_coeffs(0, [-(2**64 - 1)] * 40)
    b = LaurentSeries.from_coeffs(2, [-1, -(2**7), -(2**200)] * 10)
    assert a * b == oracle_mul(a, b)
    assert all(c > 0 for c in (a * b).coeffs)
    minus_b = LaurentSeries.from_coeffs(2, [-c for c in b.coeffs])
    assert a * minus_b == oracle_mul(a, minus_b)
    assert all(c < 0 for c in (a * minus_b).coeffs)


def test_mul_by_zero_series():
    z = LaurentSeries.zero(3)
    b = LaurentSeries.from_coeffs(1, [2, 7])
    p = z * b
    assert p.is_zero
    assert p.order == 3 + b.valuation


def test_pow_square():
    a = LaurentSeries.from_coeffs(0, [1, -1, 0])
    sq = a**2
    assert (sq.coeff(0), sq.coeff(1), sq.coeff(2)) == (1, -2, 1)


def test_pow_zero_is_one():
    a = LaurentSeries.from_coeffs(2, [5, 1, 1])
    assert a**0 == LaurentSeries.one(a.order - a.valuation)


def test_pow_negative_needs_unit_lead():
    for k in (-1, -3):
        with pytest.raises(NonUnitError):
            LaurentSeries.from_coeffs(0, [2, 1]) ** k
        with pytest.raises(NonUnitError):
            LaurentSeries.zero(4) ** k


def test_invert_one():
    assert LaurentSeries.one(5).invert() == LaurentSeries.one(5)


def test_invert_geometric():
    a = LaurentSeries.from_coeffs(0, [1, -1, 0, 0])
    assert a.invert().coeffs == (1, 1, 1, 1)


def test_invert_negative_unit():
    a = LaurentSeries.from_coeffs(0, [-1, 3])
    inv = a.invert()
    assert (a * inv) == LaurentSeries.one(2)


def test_invert_shifts_valuation():
    a = LaurentSeries.from_coeffs(1, [1, -24, 252])
    inv = a.invert()
    assert inv.valuation == -1
    assert inv.coeff(-1) == 1
    assert a * inv == LaurentSeries.one(3)


def test_invert_non_unit_rejected():
    with pytest.raises(NonUnitError):
        LaurentSeries.from_coeffs(0, [2, 1]).invert()
    with pytest.raises(NonUnitError):
        LaurentSeries.zero(4).invert()


def test_truncate_and_extend():
    a = LaurentSeries.from_coeffs(0, [1, 2, 3, 4])
    t = a.truncate(2)
    assert t.coeffs == (1, 2)
    with pytest.raises(TruncationError):
        t.truncate(3)


def test_truncate_below_valuation_gives_zero():
    a = LaurentSeries.from_coeffs(3, [7])
    t = a.truncate(1)
    assert t.is_zero and t.order == 1


def test_shift():
    a = LaurentSeries.from_coeffs(0, [1, -24])
    s = a.shift(1)
    assert s.valuation == 1 and s.order == 3
    assert s.coeff(1) == 1


# -- the two Euler product routes ---------------------------------------------


def test_euler_product_order_two():
    assert euler_product(2).coeffs == (1, -1)
    assert euler_product_pentagonal(2).coeffs == (1, -1)


def test_euler_product_first_terms():
    # direct product expansion: 1 - q - q^2 + q^5 + q^7 - q^12 ...
    e = euler_product(13)
    assert e.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_pentagonal_exponents_below_16():
    e = euler_product_pentagonal(16)
    support = {m for m, c in e.coefficients().items() if c != 0}
    assert support == {0, 1, 2, 5, 7, 12, 15}


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        euler_product(0)
    with pytest.raises(ValueError):
        euler_product_pentagonal(-3)
    with pytest.raises(ValueError, match="at least 1"):
        euler_product_cubed(0)


# every order up to 40 puts each pentagonal and Jacobi exponent boundary
# (1, 2, 5, 7, 12, 15, ... and 1, 3, 6, 10, 15, ...) at the end of a window
@pytest.mark.parametrize("order", [*range(1, 41), 50, 200, 500])
def test_euler_routes_agree(order):
    assert euler_product(order) == euler_product_pentagonal(order)


@pytest.mark.parametrize("order", [*range(1, 41), 5000])
def test_jacobi_cube_is_pentagonal_cube(order):
    # Jacobi's identity against the power recurrence on the pentagonal route
    assert euler_product_cubed(order) == euler_product_pentagonal(order) ** 3


# -- randomized algebraic properties ------------------------------------------


@given(series_st(), series_st())
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(deadline=None, max_examples=200)
@given(wide_series_st(), wide_series_st())
def test_mul_matches_schoolbook_oracle(a, b):
    assert a * b == oracle_mul(a, b)


@settings(deadline=None, max_examples=200)
@given(wide_series_st())
def test_square_matches_schoolbook_oracle(a):
    assert_square(a)


@given(series_st(), series_st())
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(deadline=None)
@given(series_st(), series_st(), series_st())
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(deadline=None)
@given(series_st(), series_st(), series_st())
def test_mul_distributes_to_common_truncation(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    order = min(lhs.order, rhs.order)
    assert lhs.truncate(order) == rhs.truncate(order)


@given(series_st(), series_st())
def test_add_truncation_monotone(a, b):
    order = min(a.order, b.order) - 2
    assert (a + b).truncate(order) == a.truncate(order) + b.truncate(order)


@settings(deadline=None)
@given(series_st(), series_st(), st.integers(min_value=0, max_value=3))
def test_mul_truncation_monotone(a, b, drop):
    assume(not a.is_zero and not b.is_zero)
    order = (a * b).order - drop
    at = a.truncate(order - b.valuation)
    bt = b.truncate(order - a.valuation)
    assume(not at.is_zero and not bt.is_zero)
    assert at * bt == (a * b).truncate(order)


@settings(deadline=None)
@given(series_st(), st.integers(min_value=1, max_value=8))
def test_pow_matches_repeated_mul(a, k):
    by_mul = a
    for _ in range(k - 1):
        by_mul = by_mul * a
    assert a**k == by_mul


@settings(deadline=None)
@given(unit_series_st(), st.integers(min_value=1, max_value=4))
def test_pow_negative_matches_invert(a, k):
    inv = a.invert()
    by_mul = inv
    for _ in range(k - 1):
        by_mul = by_mul * inv
    assert a**-k == by_mul
    assert a**-k * a**k == LaurentSeries.one(a.order - a.valuation)


@given(unit_series_st())
def test_invert_roundtrip(a):
    assert a * a.invert() == LaurentSeries.one(a.order - a.valuation)
