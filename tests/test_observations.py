"""Congruence windows and the cannonball search."""

from fractions import Fraction

import pytest

from qleech.observations import (
    CannonballSolution,
    cannonball,
    check_congruence,
)
from qleech.qseries import euler_product

JM_SUM = 1354122807420479577276982518165534609358397061559942
YHH_SUM = 1205975842063062


def test_single_term_window():
    r = check_congruence("delta", 1, 1, 5)
    assert r.sum_of_squares == 1
    assert r.residue == 1


def test_j_window_mod_70():
    r = check_congruence("j", 1, 24, 70)
    assert r.sequence == "j"
    assert (r.lo, r.hi, r.modulus) == (1, 24, 70)
    assert r.sum_of_squares == JM_SUM
    assert r.residue == 42


def test_delta_window_mod_70():
    r = check_congruence("delta", 1, 24, 70)
    assert r.sum_of_squares == YHH_SUM
    assert r.residue == 42


def test_delta_sum_against_naive_euler_route():
    series = (euler_product(25) ** 24).shift(1)
    total = sum(series.coeff(m) ** 2 for m in range(1, 25))
    assert total == YHH_SUM


def test_window_splits_additively():
    whole = check_congruence("j", 1, 24, 70)
    left = check_congruence("j", 1, 12, 70)
    right = check_congruence("j", 13, 24, 70)
    assert whole.sum_of_squares == left.sum_of_squares + right.sum_of_squares
    assert whole.residue == (left.sum_of_squares + right.sum_of_squares) % 70


def test_window_can_start_at_pole():
    r = check_congruence("j", -1, 1, 7)
    assert r.sum_of_squares == 1 + 744**2 + 196884**2


def test_congruence_input_validation():
    with pytest.raises(ValueError):
        check_congruence("zeta", 1, 5, 7)
    with pytest.raises(ValueError):
        check_congruence("j", 5, 1, 7)
    with pytest.raises(ValueError):
        check_congruence("j", 1, 5, 0)
    with pytest.raises(ValueError):
        check_congruence("j", -2, 5, 7)
    with pytest.raises(ValueError):
        check_congruence("delta", 0, 5, 7)


@pytest.mark.parametrize("kind", [float, Fraction, str])
def test_congruence_refuses_non_integer_bounds(kind):
    # total % 70.0 would turn the 52-digit sum into a float, residue 4.0
    for args in ((kind(1), 24, 70), (1, kind(24), 70), (1, 24, kind(70))):
        with pytest.raises(ValueError, match="lo, hi and modulus must be integers"):
            check_congruence("j", *args)


def test_congruence_takes_bools_and_int_subclasses_as_ints():
    class Int(int):
        pass

    r = check_congruence("j", True, Int(24), Int(70))
    assert (r.lo, r.hi, r.modulus, r.residue) == (1, 24, 70, 42)
    assert {type(x) for x in (r.lo, r.hi, r.modulus, r.residue)} == {int}


# -- square pyramids that are squares ------------------------------------------


def test_cannonball_small():
    assert [(s.n, s.m) for s in cannonball(10)] == [(1, 1)]
    assert [(s.n, s.m) for s in cannonball(23)] == [(1, 1)]


def test_cannonball_finds_both_solutions():
    sols = cannonball(100)
    assert [(s.n, s.m) for s in sols] == [(1, 1), (24, 70)]
    assert sols[0].trivial and not sols[1].trivial


def test_cannonball_solutions_satisfy_sum():
    for s in cannonball(100):
        assert sum(i * i for i in range(1, s.n + 1)) == s.m * s.m


def test_cannonball_prefix_stability():
    assert cannonball(30) == cannonball(5000)[:2][: len(cannonball(30))]
    assert cannonball(100) == cannonball(5000)


def test_cannonball_domain():
    class Bound(int):
        pass

    with pytest.raises(ValueError):
        cannonball(0)
    with pytest.raises(ValueError):
        cannonball(-3)
    # a float bound is refused before range() sees it; bools and int
    # subclasses pass through operator.index
    for bad in (10.0, 24.5, Fraction(30), "100"):
        with pytest.raises(ValueError, match="search bounds must be integers"):
            cannonball(bad)
    assert cannonball(True) == cannonball(1)
    assert cannonball(Bound(30)) == cannonball(30)


def test_cannonball_solution_type():
    s = CannonballSolution(24, 70)
    assert not s.trivial
