"""Modular form coefficients checked against slow in-test recomputations."""

import pytest

from qleech.modforms import (
    CoefficientTable,
    coefficient_table,
    delta,
    eisenstein_e4,
    eisenstein_e8,
    j_coeff,
    j_invariant,
    series_names,
    sigma,
    tau,
)
from qleech.qseries import LaurentSeries, euler_product
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


def test_tau_values():
    assert tau(1) == 1
    assert tau(4) == -1472
    assert tau(6) == -6048
    assert tau(24) == 21288960


def test_tau_against_naive_euler_route():
    naive = oracle_delta(26)
    for m in (6, 12, 24):
        assert tau(m) == naive.coeff(m)


def test_tau_domain():
    with pytest.raises(ValueError):
        tau(0)


def test_j_first_coefficients():
    j = j_invariant(3)
    assert j.valuation == -1
    assert [j.coeff(n) for n in range(-1, 3)] == [1, 744, 196884, 21493760]


def test_j_against_long_division():
    j = j_by_long_division(1000)
    assert j_invariant(1000) == j
    assert j.coeff(3) == 864299970


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


def test_series_names():
    assert set(series_names()) == {"j", "delta", "e4", "euler"}


def test_table_for_j():
    t = coefficient_table("j", 3)
    assert isinstance(t, CoefficientTable)
    assert t.name == "j" and t.valuation == -1 and t.order == 3
    assert t.entries == {-1: 1, 0: 744, 1: 196884, 2: 21493760}
    assert t.entries[2] == 21493760


def test_table_covers_full_window():
    t = coefficient_table("delta", 9)
    assert sorted(t.entries) == list(range(1, 9))
    assert t.entries[5] == 4830


def test_table_euler_valuation_zero():
    t = coefficient_table("euler", 2)
    assert t.entries == {0: 1, 1: -1}


def test_table_rejects_bad_input():
    with pytest.raises(ValueError):
        coefficient_table("nope", 5)
    with pytest.raises(ValueError):
        coefficient_table("delta", 1)


def test_table_lookup_outside_window():
    t = coefficient_table("e4", 4)
    with pytest.raises(KeyError):
        t.entries[4]
