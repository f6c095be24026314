"""Even unimodular Lorentzian lattice, exact linear algebra, Leech quotient.

Determinants and ranks asserted here are recomputed with a plain
fraction-based Gaussian elimination so the library's Bareiss/HNF code is
never its own witness.  Two slow routes live here as oracles: a rational
Gauss-Jordan solver for coordinates, and a congruence diagonalization for
inertia that eliminates without recording multipliers.
"""

import random
from fractions import Fraction

import pytest

from qleech.lorentz import (
    DIM,
    SPACELIKE_DIM,
    ConstructionError,
    GramMatrix,
    LorentzVector,
    _hermite,
    bareiss_determinant,
    coordinates_in_basis,
    gram_of,
    hermite_normal_form,
    inertia,
    inner_product,
    is_member,
    lattice_basis,
    leech_gram,
    orthogonal_complement_basis,
    quotient_representatives,
    raw_form,
    weyl_vector,
    xgcd,
)


def fraction_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for c in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(len(m)):
            if r != row and m[r][c] != 0:
                f = m[r][c] / m[row][c]
                for k in range(cols):
                    m[r][k] -= f * m[row][k]
        rank += 1
        row += 1
    return rank


def solve_linear_exact(rows, rhs):
    """The unique rational solution of (rows) x = rhs, by Gauss-Jordan.

    Accepts overdetermined systems; raises if the solution is not unique
    (column rank deficit) or the system is inconsistent.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    if any(len(row) != n + 1 for row in a):
        raise ValueError("ragged matrix")
    pivots = []
    dead_columns = False
    r = 0
    for c in range(n):
        hit = next((i for i in range(r, m) if a[i][c] != 0), None)
        if hit is None:
            dead_columns = True
            continue
        a[r], a[hit] = a[hit], a[r]
        p = a[r][c]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c] / p
                for j in range(c, n + 1):
                    a[i][j] -= f * a[r][j]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if a[i][n] != 0:
            raise ValueError("inconsistent system")
    if dead_columns:
        raise ValueError("solution is not unique")
    return tuple(a[i][n] / a[i][pivots[i]] for i in range(n))


def oracle_inertia(rows):
    """(positive, negative, zero) counts by symmetric congruence
    diagonalization, with the same swap and fold for zero pivots as the
    library but no multipliers kept."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                for j in range(k, n):
                    a[k][j], a[swap][j] = a[swap][j], a[k][j]
                for i in range(k, n):
                    a[i][k], a[i][swap] = a[i][swap], a[i][k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for j in range(k, n):
                    a[k][j] += a[off][j]
                for i in range(k, n):
                    a[i][k] += a[i][off]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
                a[i][k] = Fraction(0)
    return pos, neg, zero


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def assert_inverse_transpose(m):
    """_hermite agrees with hermite_normal_form and U V^T = I."""
    h, u, v = _hermite(m)
    assert (h, u) == hermite_normal_form(m)
    eye = [[int(i == j) for j in range(len(u))] for i in range(len(u))]
    assert matmul(u, list(zip(*v))) == eye
    assert matmul(list(zip(*v)), h) == [list(r) for r in m]


def unit_doubled(i, value=2):
    d = [0] * DIM
    d[i] = value
    return tuple(d)


# -- membership and the form ---------------------------------------------------


def test_member_examples():
    assert is_member(tuple(range(0, 50, 2)) + (140,))
    assert is_member((1,) * DIM)
    assert is_member((0,) * DIM)


def test_member_rejects_mixed_parity():
    bad = (1,) * (DIM - 1) + (2,)
    assert not is_member(bad)


def test_member_rejects_bad_residue():
    # even parity but coordinate sum 2 mod 4
    assert not is_member(unit_doubled(0))
    assert not is_member(unit_doubled(DIM - 1))


def test_member_rejects_wrong_length():
    assert not is_member((2, 2))


def test_vector_constructor_enforces_membership():
    with pytest.raises(ValueError):
        LorentzVector(unit_doubled(0))
    v = LorentzVector.from_true_coords([1] + [0] * 24, 1)
    assert v.doubled[0] == 2 and v.doubled[-1] == 2


def test_from_true_coords_length_check():
    with pytest.raises(ValueError):
        LorentzVector.from_true_coords([0, 1, 2], 5)


def test_form_sign_convention():
    # spacelike directions count positive, the last coordinate negative
    assert raw_form(unit_doubled(0), unit_doubled(0)) == 1
    assert raw_form(unit_doubled(DIM - 1), unit_doubled(DIM - 1)) == -1
    assert raw_form(unit_doubled(0), unit_doubled(1)) == 0


def test_form_on_members():
    v = LorentzVector.from_true_coords([1, -1] + [0] * 23, 0)
    assert v.norm() == 2
    w = LorentzVector.from_true_coords([2] + [0] * 24, 0)
    assert w.norm() == 4
    assert inner_product(v, w) == 2


def test_form_can_be_half_integral_off_members():
    assert raw_form(unit_doubled(0, 1), unit_doubled(0, 1)) == Fraction(1, 4)


def test_half_coordinate_member_norm():
    ones = LorentzVector((1,) * DIM)
    assert ones.norm() == 6


def test_vector_arithmetic():
    v = LorentzVector.from_true_coords([1, -1] + [0] * 23, 0)
    w = v + v
    assert w.doubled[0] == 4
    assert (w - v) == v
    assert (-v).norm() == 2
    assert (3 * v).norm() == 18


def test_weyl_vector_is_isotropic():
    w = weyl_vector()
    assert w.doubled == tuple(range(0, 50, 2)) + (140,)
    assert w.norm() == 0
    assert raw_form(w.doubled, w.doubled) == 0


# -- exact linear algebra helpers ----------------------------------------------


def test_xgcd_identity():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_identity_fixed_point():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    h, u = hermite_normal_form(eye)
    assert h == tuple(tuple(r) for r in eye)
    assert u == tuple(tuple(r) for r in eye)


def test_hnf_small_example():
    m = [[2, 0], [1, 1]]
    h, u = hermite_normal_form(m)
    assert h == ((1, 1), (0, 2))
    product = [
        [sum(u[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)
    ]
    assert tuple(tuple(r) for r in product) == h
    assert abs(fraction_det(u)) == 1


def _staircase_ok(h):
    pivots = []
    for row in h:
        nz = [c for c, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        assert not pivots or pivots[-1] is not None, "zero rows must sink"
        pivots.append(nz[0])
    live = [p for p in pivots if p is not None]
    assert live == sorted(live) and len(set(live)) == len(live)
    for r, p in enumerate(pivots):
        if p is None:
            continue
        assert h[r][p] > 0
        for above in range(r):
            assert 0 <= h[above][p] < h[r][p]


def test_hnf_random_square():
    rng = random.Random(11)
    for _ in range(25):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        h, u = hermite_normal_form(m)
        product = [
            [sum(u[i][k] * m[k][j] for k in range(5)) for j in range(5)]
            for i in range(5)
        ]
        assert tuple(tuple(r) for r in product) == h
        assert abs(fraction_det(u)) == 1
        assert abs(fraction_det(h)) == abs(fraction_det(m))
        _staircase_ok(h)
        assert_inverse_transpose(m)


def test_hnf_rectangular_and_rank_deficient():
    m = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    h, u = hermite_normal_form(m)
    _staircase_ok(h)
    assert h[-1] == (0, 0, 0)
    assert abs(fraction_det(u)) == 1
    assert_inverse_transpose(m)
    rng = random.Random(13)
    for rows, cols in ((3, 5), (5, 3), (5, 1), (1, 4)):
        for _ in range(5):
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            _staircase_ok(hermite_normal_form(m)[0])
            assert_inverse_transpose(m)


def test_bareiss_matches_fraction_gauss():
    rng = random.Random(23)
    for _ in range(25):
        m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        assert bareiss_determinant(m) == fraction_det(m)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert bareiss_determinant(singular) == 0


def test_inertia_examples():
    assert inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    eye4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert inertia(eye4) == (4, 0, 0)
    # a zero diagonal takes the fold step; singular and empty matrices too
    assert inertia([[0, 1, 0], [1, 0, 2], [0, 2, 0]]) == (1, 1, 1)
    assert inertia([[1, 2], [2, 4]]) == (1, 0, 1)
    assert inertia([]) == (0, 0, 0)
    with pytest.raises(ValueError, match="symmetric"):
        inertia([[1, 2], [3, 4]])


def test_inertia_random_congruence_invariance():
    # congruent matrices share inertia; conjugate by unimodular shears
    rng = random.Random(5)
    base = [[2, 1, 0], [1, 2, 1], [0, 1, -4]]
    want = inertia(base)
    assert want == oracle_inertia(base) == (2, 1, 0)
    for _ in range(10):
        t = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            for k in range(3):
                t[i][k] += c * t[j][k]
        m = [
            [
                sum(t[i][a] * base[a][b] * t[j][b] for a in range(3) for b in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert inertia(m) == want
    # random symmetric matrices: indefinite, singular (rank-deficient
    # products B^T D B) and with zeros on the diagonal, against the oracle
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            s = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    s[i][j] = s[j][i] = rng.choice((0, 0, rng.randint(-5, 5)))
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
            diag = [rng.choice((-1, 0, 2)) for _ in range(n - 1)]
            low = [
                [sum(b[k][i] * diag[k] * b[k][j] for k in range(n - 1)) for j in range(n)]
                for i in range(n)
            ]
            for m in (s, low):
                assert inertia(m) == oracle_inertia(m)
                assert sum(inertia(m)[:2]) == fraction_rank(m)


def test_solve_linear_exact():
    x = solve_linear_exact([[2, 1], [1, 3]], [5, 5])
    assert x == (Fraction(2), Fraction(1))
    with pytest.raises(ValueError, match="inconsistent"):
        solve_linear_exact([[1, 1], [2, 2]], [1, 3])
    with pytest.raises(ValueError, match="unique"):
        solve_linear_exact([[1, 1], [2, 2]], [1, 2])
    # overdetermined but consistent is fine
    x = solve_linear_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert x == (Fraction(2), Fraction(3))


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        GramMatrix(2, ((1, 0),))
    g = GramMatrix.from_rows([[2, 1], [1, 2]])
    assert g.is_even and g.determinant() == 3
    assert g.is_positive_definite
    assert g.to_jsonable() == {"dim": "2", "entries": [["2", "1"], ["1", "2"]]}


# -- the rank-26 lattice -------------------------------------------------------


def test_lattice_basis_certificate():
    basis, gram = lattice_basis()
    assert len(basis) == DIM
    assert all(is_member(b.doubled) for b in basis)
    assert gram.dim == DIM
    assert gram.is_even
    assert fraction_det(gram.entries) == -1
    assert gram.inertia() == (SPACELIKE_DIM, 1, 0)
    assert oracle_inertia(gram.entries) == (SPACELIKE_DIM, 1, 0)


def test_lattice_basis_spans_sample_members():
    basis, _ = lattice_basis()
    cols = [[b.doubled[k] for b in basis] for k in range(DIM)]
    for v in (weyl_vector(), LorentzVector((1,) * DIM), *quotient_representatives()):
        coords = coordinates_in_basis(v)
        assert all(isinstance(c, int) for c in coords)
        assert coords == solve_linear_exact(cols, v.doubled)
        acc = [0] * DIM
        for c, b in zip(coords, basis):
            acc = [x + c * y for x, y in zip(acc, b.doubled)]
        assert tuple(acc) == v.doubled


def test_complement_of_weyl_vector():
    w = weyl_vector()
    comp = orthogonal_complement_basis(w)
    assert len(comp) == SPACELIKE_DIM
    for v in comp:
        assert is_member(v.doubled)
        assert inner_product(v, w) == 0
    assert fraction_rank([v.doubled for v in comp]) == SPACELIKE_DIM


def test_weyl_vector_in_complement_span():
    # w and the 24 representatives have integer coordinates in the
    # complement basis, and together they form another basis of it
    comp = orthogonal_complement_basis(weyl_vector())
    cols = [[Fraction(v.doubled[i]) for v in comp] for i in range(DIM)]
    coords = [
        solve_linear_exact(cols, [Fraction(c) for c in v.doubled])
        for v in (weyl_vector(), *quotient_representatives())
    ]
    assert all(x.denominator == 1 for row in coords for x in row)
    assert abs(fraction_det(coords)) == 1


def test_complement_rejects_bad_input():
    with pytest.raises(ValueError):
        orthogonal_complement_basis(LorentzVector((0,) * DIM))
    with pytest.raises(ValueError, match="non-primitive"):
        orthogonal_complement_basis(2 * weyl_vector())


def test_quotient_representatives():
    reps = quotient_representatives()
    w = weyl_vector()
    assert len(reps) == 24
    for r in reps:
        assert is_member(r.doubled)
        assert inner_product(r, w) == 0
    # representatives plus the isotropic vector still sit inside its complement
    assert fraction_rank([w.doubled] + [r.doubled for r in reps]) == SPACELIKE_DIM


def test_leech_gram_certificate():
    gram = leech_gram()
    assert gram.dim == 24
    assert gram.is_even
    assert fraction_det(gram.entries) == 1
    # Sylvester: all leading principal minors positive
    for k in range(1, 25):
        minor = [row[:k] for row in gram.entries[:k]]
        assert fraction_det(minor) > 0
    assert gram.inertia() == (24, 0, 0)


def test_leech_gram_matches_representatives():
    reps = quotient_representatives()
    assert gram_of(reps).entries == leech_gram().entries


def test_quotient_gram_ignores_representative_choice():
    # shifting any representative along the isotropic direction is invisible
    reps = list(quotient_representatives())
    w = weyl_vector()
    shifted = [r + w for r in reps]
    shifted[0] = reps[0] - w
    shifted[7] = reps[7] + (3 * w)
    assert gram_of(shifted).entries == leech_gram().entries


def test_gram_of_mixed_vectors():
    w = weyl_vector()
    ones = LorentzVector((1,) * DIM)
    g = gram_of([w, ones])
    assert g.entries[0][0] == 0
    assert g.entries[1][1] == 6
    assert g.entries[0][1] == g.entries[1][0]
