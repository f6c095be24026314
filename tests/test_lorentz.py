"""Even unimodular Lorentzian lattice, exact linear algebra, Leech quotient.

Determinants and ranks asserted here are recomputed with a plain
fraction-based Gaussian elimination so the library's LDL^T/HNF code is
never its own witness.  Slow routes live here as oracles: a rational
Gauss-Jordan solver for coordinates, a congruence diagonalization for
inertia that eliminates without recording multipliers, and the HNF route to
the Leech quotient representatives that the rule in quotient_representatives
replaced: an HNF that also keeps the inverse of its transform, the
complement of the Weyl vector, and coordinates by forward substitution.
"""

import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

import qleech.lattices as lattices
import qleech.lorentz as lorentz
from qleech.lattices import e8_gram
from qleech.lorentz import (
    DIM,
    SPACELIKE_DIM,
    ConstructionError,
    GramMatrix,
    LorentzVector,
    _certify,
    bareiss_determinant,
    gram_of,
    hermite_normal_form,
    inertia,
    inner_product,
    is_member,
    lattice_basis,
    ldl,
    leech_gram,
    quotient_representatives,
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


def hermite_with_inverse(rows):
    """Oracle: row-style Hermite normal form with both transforms, (H, U, V)
    with H = U M, U unimodular and V the transpose of U^-1, so M = V^T H.

    V is kept in step with U: each 2x2 step E = [[s, t], [-p_i, p_r]] on
    rows (r, i) of U applies E^-T = [[p_r, p_i], [-t, s]] to the same rows
    of V, a negation of U[r] negates V[r], and subtracting q U[r] from U[i]
    adds q V[i] to V[r].
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [row[:] for row in u]

    def mix(a, r, i, s, t, p, q):
        # rows (r, i) of a become (s a_r + t a_i, p a_r + q a_i)
        a[r], a[i] = (
            [s * x + t * y for x, y in zip(a[r], a[i])],
            [p * x + q * y for x, y in zip(a[r], a[i])],
        )

    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            g, s, t = xgcd(h[r][c], h[i][c])
            pr, pi = h[r][c] // g, h[i][c] // g
            mix(h, r, i, s, t, -pi, pr)
            mix(u, r, i, s, t, -pi, pr)
            mix(v, r, i, pr, pi, -t, s)
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            for a in (h, u, v):
                a[r] = [-x for x in a[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                v[r] = [x + q * y for x, y in zip(v[r], v[i])]
        r += 1
    return tuple(tuple(tuple(row) for row in a) for a in (h, u, v))


def combine(coefs, vectors):
    """sum_k coefs[k] vectors[k], a lattice member."""
    return LorentzVector(
        tuple(sum(c * v.doubled[k] for c, v in zip(coefs, vectors)) for k in range(DIM))
    )


def coordinates_in_basis(v):
    """Oracle: integer coordinates of a member in lattice_basis(), by
    forward substitution down the staircase with exact division."""
    basis, _ = lattice_basis()
    coords = []
    for k, b in enumerate(basis):
        rest = v.doubled[k] - sum(c * e.doubled[k] for c, e in zip(coords, basis))
        c, r = divmod(rest, b.doubled[k])
        assert r == 0, "member has non-integer basis coordinates"
        coords.append(c)
    return tuple(coords)


def complement(w):
    """Oracle: (complement basis, V) from the HNF U P = H of the column P of
    pairings <b_k, w>: the complement is U[1:] applied to the basis, and V
    is the transpose of U^-1."""
    basis, _ = lattice_basis()
    h, u, v = hermite_with_inverse([[inner_product(b, w)] for b in basis])
    # the lattice is unimodular, so w is primitive iff its pairings are coprime
    if h[0][0] != 1:
        raise ValueError("non-primitive vector")
    comp = tuple(combine(row, basis) for row in u[1:])
    assert not any(inner_product(vec, w) for vec in comp)
    return comp, v


def hnf_quotient_representatives():
    """Oracle: the 24 representatives by the HNF route.  V from the HNF of
    w's coordinates in the complement, taken as a column, has them as its
    first row; its other 24 rows, mapped back to lattice vectors, represent
    the quotient classes."""
    w = weyl_vector()
    comp, v = complement(w)
    # w = c . basis = (c U^-1) . (U basis); row 0 of U basis pairs with w to
    # 1, so entry 0 is <w, w> = 0 and the rest are w's coordinates in comp
    c = coordinates_in_basis(w)
    wcoords = tuple(sum(x * y for x, y in zip(c, row)) for row in v)
    assert wcoords[0] == 0
    h, _, completion = hermite_with_inverse([[x] for x in wcoords[1:]])
    assert h[0][0] == 1 and completion[0] == wcoords[1:]
    return tuple(combine(row, comp) for row in completion[1:])


def assert_inverse_transpose(m):
    """The oracle agrees with hermite_normal_form and U V^T = I."""
    h, u, v = hermite_with_inverse(m)
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
    v = LorentzVector((2,) + (0,) * 24 + (2,))
    assert v.doubled[0] == 2 and v.doubled[-1] == 2


def test_form_on_members():
    v = LorentzVector((2, -2) + (0,) * 24)
    assert v.norm() == 2
    w = LorentzVector(unit_doubled(0, 4))
    assert w.norm() == 4
    assert inner_product(v, w) == 2


def test_half_coordinate_member_norm():
    ones = LorentzVector((1,) * DIM)
    assert ones.norm() == 6


def test_vector_arithmetic():
    v = LorentzVector((2, -2) + (0,) * 24)
    w = v + v
    assert w.doubled[0] == 4
    assert (w - v) == v


def test_weyl_vector_is_isotropic():
    w = weyl_vector()
    assert w.doubled == tuple(range(0, 50, 2)) + (140,)
    assert w.norm() == 0
    assert inner_product(w, w) == 0


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
    # the determinant is ldl's last minor: random symmetric forms, forms with
    # zeros on the diagonal (the swap and fold steps), singular products
    # B^T D B, the empty matrix and the three certified Grams, each against
    # Gauss elimination on Fractions
    rng = random.Random(23)
    forms = [[], [[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 2], [0, 2, 0]], [[1, 2], [2, 4]]]
    for n in range(1, 7):
        for _ in range(10):
            full, sparse, hollow = ([[0] * n for _ in range(n)] for _ in range(3))
            for i in range(n):
                for j in range(i, n):
                    full[i][j] = full[j][i] = rng.randint(-9, 9)
                    sparse[i][j] = sparse[j][i] = rng.choice((0, 0, rng.randint(-9, 9)))
                    hollow[i][j] = hollow[j][i] = rng.randint(-9, 9) if i != j else 0
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            diag = [rng.choice((-1, 2)) for _ in range(n - 1)]
            low = [
                [sum(b[k][i] * diag[k] * b[k][j] for k in range(n - 1)) for j in range(n)]
                for i in range(n)
            ]
            forms += [full, sparse, hollow, low]
    forms += [lattice_basis()[1].entries, leech_gram().entries, e8_gram().entries]
    for m in forms:
        assert bareiss_determinant(m) == fraction_det(m)
    assert [bareiss_determinant(g) for g in forms[-3:]] == [-1, 1, 1]
    assert bareiss_determinant([]) == 1 and bareiss_determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError, match="symmetric"):
        bareiss_determinant([[1, 2], [3, 4]])


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


@pytest.mark.parametrize("bad", [2.0, 2.9, Fraction(2), Fraction(5, 2), "2"])
def test_inexact_entries_are_refused(bad):
    # entries go through operator.index: a float, a Fraction or a string is
    # refused, never truncated or parsed
    with pytest.raises(ValueError, match="must be integers"):
        GramMatrix.from_rows([[bad, 1], [1, 2]])
    with pytest.raises(ValueError, match="must be integers"):
        LorentzVector((bad,) + (0,) * 24 + (2,))
    for routine in (hermite_normal_form, bareiss_determinant, ldl):
        with pytest.raises(TypeError):
            routine([[bad, 1], [1, 2]])


@pytest.mark.parametrize("bad", [2.0, Fraction(2), "2", None])
def test_non_integer_gram_dim_is_refused(bad):
    # the dim goes through operator.index too: no TypeError from a range
    with pytest.raises(ValueError, match="must be integers"):
        GramMatrix(bad, ((2, 1), (1, 2)))


def test_bool_gram_dim_is_a_plain_int():
    g = GramMatrix(True, [[2]])
    assert type(g.dim) is int and g == GramMatrix(1, ((2,),))
    assert repr(g) == "GramMatrix(dim=1, entries=((2,),))"


def test_bool_and_int_subclass_entries_are_plain_ints():
    class Int(int):
        pass

    rows, plain = [[Int(2), True], [True, Int(2)]], [[2, 1], [1, 2]]
    g = GramMatrix.from_rows(rows)
    assert g == GramMatrix.from_rows(plain) and {type(x) for row in g.entries for x in row} == {int}
    assert g.to_jsonable() == {"dim": "2", "entries": [["2", "1"], ["1", "2"]]}
    v = LorentzVector((Int(2),) + (False,) * 24 + (True + True,))
    assert v.doubled == (2,) + (0,) * 24 + (2,) and {type(c) for c in v.doubled} == {int}
    assert bareiss_determinant(rows) == 3
    assert ldl(rows) == ldl(plain) and hermite_normal_form(rows) == hermite_normal_form(plain)


# -- the certificates ----------------------------------------------------------


def test_certificate_refuses_each_failure():
    # the Leech Gram passes as itself and fails on an odd diagonal entry, a
    # wrong determinant and a wrong signature
    leech = leech_gram()
    _certify(leech, 1, (24, 0, 0), "quotient")
    odd = [list(row) for row in leech.entries]
    odd[0][0] += 1
    with pytest.raises(ConstructionError, match="quotient Gram has an odd diagonal entry"):
        _certify(GramMatrix.from_rows(odd), 1, (24, 0, 0), "quotient")
    got = re.escape("(det, inertia) (1, (24, 0, 0))")
    with pytest.raises(ConstructionError, match=got + re.escape(", not (-1, (24, 0, 0))")):
        _certify(leech, -1, (24, 0, 0), "quotient")
    with pytest.raises(ConstructionError, match=got + re.escape(", not (1, (23, 1, 0))")):
        _certify(leech, 1, (23, 1, 0), "quotient")
    basis_gram = lattice_basis()[1]
    with pytest.raises(ConstructionError, match=re.escape("basis Gram has (det, inertia) (-1,")):
        _certify(basis_gram, -1, (26, 0, 0), "basis")


def test_each_certificate_is_one_ldl_call(monkeypatch):
    # fresh, cold caches stand in for the four cached builders, and
    # monkeypatch puts the warm ones back afterwards
    for module, name in (
        (lorentz, "lattice_basis"),
        (lorentz, "quotient_representatives"),
        (lorentz, "leech_gram"),
        (lattices, "e8_gram"),
    ):
        monkeypatch.setattr(module, name, lru_cache(maxsize=1)(getattr(module, name).__wrapped__))
    sizes = []
    real = lorentz.ldl

    def spy(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(lorentz, "ldl", spy)
    assert lorentz.lattice_basis()[1].entries == lattice_basis()[1].entries
    assert sizes == [26]
    assert lorentz.leech_gram() == leech_gram()
    assert sizes == [26, 24]
    assert lattices.e8_gram() == e8_gram()
    assert sizes == [26, 24, 8]


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


def test_lattice_basis_is_the_hermite_form_of_its_generators():
    # oracle: the 27 generators, in doubled coordinates 2 e_i + 2 e_t for
    # each spacelike i, the timelike 4 e_t and the all-ones vector, reduced
    # to Hermite normal form; its nonzero rows are the staircase basis
    gens = []
    for i in range(SPACELIKE_DIM):
        row = [0] * DIM
        row[i] = row[-1] = 2
        gens.append(row)
    gens.append([0] * SPACELIKE_DIM + [4])
    gens.append([1] * DIM)
    h, _ = hermite_normal_form(gens)
    rows = [row for row in h if any(row)]
    assert len(rows) == DIM
    assert rows == [b.doubled for b in lattice_basis()[0]]


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
    comp = complement(w)[0]
    assert len(comp) == SPACELIKE_DIM
    for v in comp:
        assert is_member(v.doubled)
        assert inner_product(v, w) == 0
    assert fraction_rank([v.doubled for v in comp]) == SPACELIKE_DIM


def test_weyl_vector_in_complement_span():
    # w and the 24 representatives have integer coordinates in the
    # complement basis, and together they form another basis of it
    comp = complement(weyl_vector())[0]
    cols = [[Fraction(v.doubled[i]) for v in comp] for i in range(DIM)]
    coords = [
        solve_linear_exact(cols, [Fraction(c) for c in v.doubled])
        for v in (weyl_vector(), *quotient_representatives())
    ]
    assert all(x.denominator == 1 for row in coords for x in row)
    assert abs(fraction_det(coords)) == 1


def test_complement_rejects_bad_input():
    with pytest.raises(ValueError):
        complement(LorentzVector((0,) * DIM))
    with pytest.raises(ValueError, match="non-primitive"):
        complement(weyl_vector() + weyl_vector())


def test_quotient_representatives():
    reps = quotient_representatives()
    w = weyl_vector()
    assert len(reps) == 24
    for r in reps:
        assert is_member(r.doubled)
        assert inner_product(r, w) == 0
    # representatives plus the isotropic vector still sit inside its complement
    assert fraction_rank([w.doubled] + [r.doubled for r in reps]) == SPACELIKE_DIM


def test_quotient_representatives_match_the_hnf_route():
    # the rule writes down, entry for entry, the 24 vectors the HNF route
    # reaches, and so the same Leech Gram
    oracle = hnf_quotient_representatives()
    assert [r.doubled for r in quotient_representatives()] == [r.doubled for r in oracle]
    assert gram_of(oracle).entries == leech_gram().entries


def test_quotient_rule_refuses_z_off_one(monkeypatch):
    # 2w is an isotropic member too, but z pairs with it to 2; the check is
    # a ConstructionError, not an assert, so python -O keeps it
    w = weyl_vector()
    monkeypatch.setattr(lorentz, "weyl_vector", lambda: w + w)
    with pytest.raises(ConstructionError, match="pair with w to 1"):
        lorentz.quotient_representatives.__wrapped__()


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
    shifted[7] = reps[7] + (w + w + w)
    assert gram_of(shifted).entries == leech_gram().entries


def test_gram_of_mixed_vectors():
    w = weyl_vector()
    ones = LorentzVector((1,) * DIM)
    g = gram_of([w, ones])
    assert g.entries[0][0] == 0
    assert g.entries[1][1] == 6
    assert g.entries[0][1] == g.entries[1][0]
