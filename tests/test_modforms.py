"""Modular form coefficients checked against slow in-test recomputations."""

import decimal
from fractions import Fraction

import pytest

from qleech.cli import main
from qleech.modforms import (
    SERIES,
    delta,
    eisenstein_e4,
    eisenstein_e8,
    j_coeff,
    j_invariant,
    sigma,
)
from qleech.qseries import (
    LaurentSeries,
    euler_product,
    euler_product_cubed,
    euler_product_pentagonal,
)
from test_qseries import oracle_mul


def sigma3_by_enumeration(n):
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def oracle_pow(a, k):
    """a ** k for k >= 1 by binary powering with the schoolbook oracle_mul.

    Starting the product at the lowest set bit of k keeps the truncation
    orders identical to repeated multiplication.
    """
    square = a
    while not k & 1:
        square = oracle_mul(square, square)
        k >>= 1
    result = square
    k >>= 1
    while k:
        square = oracle_mul(square, square)
        if k & 1:
            result = oracle_mul(result, square)
        k >>= 1
    return result


def oracle_delta(order):
    """Delta modulo q^order from the term-by-term product and oracle_pow."""
    return oracle_pow(euler_product(order - 1), 24).shift(1)


def j_by_long_division(order):
    """j modulo q^order, solving the defining product relation coefficient
    by coefficient.

    Avoids the library's series products and powers entirely: with d the
    oracle Delta coefficients and e the E4^3 coefficients (schoolbook
    products), the q^n coefficient of j * Delta = E4^3 forces c[n-1] once
    c[-1..n-2] are known.
    """
    e4 = eisenstein_e4(order + 1)
    e = oracle_mul(oracle_mul(e4, e4), e4).coeffs  # e[n] is the coefficient of q^n
    d = oracle_delta(order + 2).coeffs  # d[s] is the coefficient of q^(s+1)
    c = []  # c[i] is the coefficient of q^(i-1)
    for n in range(order + 1):
        acc = e[n]
        for i in range(n):
            acc -= c[i] * d[n - i]
        c.append(acc)  # d[0] == 1, no division needed
    return LaurentSeries.from_coeffs(-1, c)


@pytest.mark.parametrize(
    "build, args",
    [
        (euler_product, (2.0,)),
        (euler_product_pentagonal, (2.0,)),
        (euler_product_cubed, (2.0,)),
        (euler_product_cubed, (Fraction(2),)),
        (eisenstein_e4, (2.0,)),
        (eisenstein_e8, (2.5,)),
        (delta, (3.0,)),
        (delta, (decimal.Decimal(3),)),
        (j_invariant, (1.0,)),
        (j_invariant, ("1",)),
        (j_coeff, (0.0,)),
        (sigma, (3, 4.0)),
        (sigma, (2.5, 4)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_builders_refuse_non_integer_orders(build, args):
    # a series known below q^2.0 is no truncation: the order goes through
    # operator.index, and anything else is a ValueError, not Python's own
    # TypeError from a list repeat or a range
    with pytest.raises(ValueError, match="must be integers"):
        build(*args)


def test_builders_accept_bool_and_int_subclass_orders():
    class Order(int):
        pass

    assert euler_product(True) == euler_product_pentagonal(True) == euler_product_cubed(True)
    assert euler_product_cubed(Order(5)) == euler_product_cubed(5)
    assert eisenstein_e4(Order(4)) == eisenstein_e4(4)
    assert eisenstein_e8(Order(4)) == eisenstein_e8(4)
    assert delta(Order(6)) == delta(6)
    assert j_invariant(Order(3)) == j_invariant(3)
    assert j_coeff(Order(1)) == j_coeff(True) == 196884
    assert sigma(Order(3), Order(6)) == sigma(3, 6) and sigma(True, True) == 1


def test_sigma_examples():
    assert sigma(3, 1) == 1
    assert sigma(3, 4) == 73
    assert sigma(3, 6) == 252


@pytest.mark.parametrize("n", list(range(1, 201)))
def test_sigma_against_enumeration(n):
    assert sigma(3, n) == sigma3_by_enumeration(n)


def test_sigma_domain():
    with pytest.raises(ValueError):
        sigma(3, 0)
    with pytest.raises(ValueError):
        sigma(0, 5)
    with pytest.raises(ValueError):
        sigma(3, -4)


def test_e4_first_coefficients():
    e4 = eisenstein_e4(3)
    assert (e4.coeff(0), e4.coeff(1), e4.coeff(2)) == (1, 240, 2160)


def test_e4_sieve_matches_trial_division():
    e4 = eisenstein_e4(2000)
    assert [e4.coeff(n) for n in range(1, 2000)] == [240 * sigma(3, n) for n in range(1, 2000)]


def test_e4_matches_divisor_sums():
    e4 = eisenstein_e4(201)
    for n in range(1, 201):
        assert e4.coeff(n) == 240 * sigma3_by_enumeration(n)


def test_e4_order_domain():
    with pytest.raises(ValueError):
        eisenstein_e4(0)
    with pytest.raises(ValueError):
        eisenstein_e8(0)


def test_e8_matches_divisor_sums():
    e8 = eisenstein_e8(300)
    assert e8.coeff(0) == 1
    assert [e8.coeff(n) for n in range(1, 300)] == [480 * sigma(7, n) for n in range(1, 300)]


def test_e4_squared_is_e8():
    # dim M_8 = 1, so E4^2 = E8 coefficient by coefficient
    e4 = eisenstein_e4(2000)
    assert e4 * e4 == eisenstein_e8(2000)


def test_delta_first_coefficients():
    d = delta(6)
    assert d.valuation == 1
    assert [d.coeff(n) for n in range(1, 6)] == [1, -24, 252, -1472, 4830]


def test_delta_order_domain():
    with pytest.raises(ValueError):
        delta(1)


def test_delta_against_naive_euler_route():
    # same 24th power built from the term-by-term product and binary powering
    assert delta(1000) == oracle_pow(euler_product(999), 24).shift(1)


def test_delta_against_pentagonal_power():
    # the route delta took before the squarings of Jacobi's cube: Miller's
    # recurrence on the pentagonal series
    assert delta(5000) == (euler_product_pentagonal(4999) ** 24).shift(1)


def tau(m):
    # Ramanujan tau(m), the coefficient of q^m in Delta
    return delta(m + 1).coeff(m)


def test_tau_values():
    assert tau(1) == 1
    assert tau(4) == -1472
    assert tau(6) == -6048
    assert tau(24) == 21288960


def test_tau_against_naive_euler_route():
    naive = oracle_delta(26)
    for m in (6, 12, 24):
        assert tau(m) == naive.coeff(m)


def test_j_first_coefficients():
    j = j_invariant(3)
    assert j.valuation == -1
    assert [j.coeff(n) for n in range(-1, 3)] == [1, 744, 196884, 21493760]


def test_j_against_long_division():
    j = j_by_long_division(1000)
    assert j_invariant(1000) == j
    assert j.coeff(3) == 864299970


def test_j_against_pentagonal_power():
    # the factor P^-24 by Miller's recurrence on the pentagonal series, the
    # route j_invariant took before J^-8
    work = 2001
    e4e8 = eisenstein_e4(work) * eisenstein_e8(work)
    assert j_invariant(2000) == (e4e8 * euler_product_pentagonal(work) ** -24).shift(-1)


def test_j_delta_product_is_e4_cubed():
    order = 300
    lhs = j_invariant(order) * delta(order + 1)
    assert lhs == eisenstein_e4(order) ** 3


def test_j_truncation_stability():
    assert j_invariant(80).truncate(30) == j_invariant(30)


def test_j_order_domain():
    with pytest.raises(ValueError):
        j_invariant(-1)


def test_j_order_zero():
    j = j_invariant(0)
    assert j.valuation == -1 and j.order == 0
    assert j.coeff(-1) == 1


def test_j_coeff_large_value_stable_across_orders():
    want = 35307453186561427099877376
    assert j_coeff(24) == want
    assert j_invariant(25).coeff(24) == want
    assert j_invariant(75).coeff(24) == want


def test_j_coeff_domain():
    assert j_coeff(-1) == 1
    with pytest.raises(ValueError):
        j_coeff(-2)


def test_j_coefficients_positive_in_observed_range():
    j = j_invariant(25)
    for m in range(1, 25):
        assert j.coeff(m) > 0


def test_accessors_match_longer_series():
    assert tau(5) == delta(40).coeff(5)
    assert j_coeff(1) == j_invariant(40).coeff(1)


def test_truncation_stability_other_series():
    assert delta(100).truncate(40) == delta(40)
    assert eisenstein_e4(90).truncate(15) == eisenstein_e4(15)
    assert euler_product(120).truncate(60) == euler_product(60)


# -- coefficient tables --------------------------------------------------------


def table(name, order):
    """The named series as the coeffs command builds it."""
    builder, least = SERIES[name]
    assert order >= least
    return builder(order)


def test_series_names():
    assert set(SERIES) == {"j", "delta", "e4", "euler"}


def test_table_for_j():
    t = table("j", 3)
    assert t.valuation == -1 and t.order == 3
    assert t.coefficients() == {-1: 1, 0: 744, 1: 196884, 2: 21493760}
    assert t.coefficients()[2] == 21493760


def test_table_covers_full_window():
    t = table("delta", 9)
    assert sorted(t.coefficients()) == list(range(1, 9))
    assert t.coefficients()[5] == 4830


def test_table_euler_valuation_zero():
    t = table("euler", 2)
    assert t.coefficients() == {0: 1, 1: -1}


def test_table_least_orders_show_the_leading_term():
    for builder, least in SERIES.values():
        s = builder(least)
        assert not s.is_zero and s.coeff(s.valuation) == 1
        with pytest.raises(ValueError):
            builder(least - 1)


def test_table_rejects_bad_input(capsys):
    # the coeffs command checks the name, and the least order from SERIES
    assert main(["coeffs", "--series", "nope", "--order", "5"]) == 2
    assert main(["coeffs", "--series", "delta", "--order", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_table_lookup_outside_window():
    t = table("e4", 4)
    with pytest.raises(KeyError):
        t.coefficients()[4]
