"""LLL reduction, short-vector enumeration, and the two theta cross-checks.

Enumeration counts in low dimension are verified against a dumb box search
that bounds each coordinate through the inverse Gram diagonal, and in every
dimension against a plain Fincke-Pohst walk kept here as an oracle (one
lcm(L^3) scale for every level, every centre recomputed at every node).  The LLL check is
compared with a Gram-Schmidt recomputed entry by entry.
"""

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

import qleech.lattices as lattices
from qleech.lattices import (
    DEFAULT_DELTA,
    ShortVectorCount,
    e8_gram,
    is_lll_reduced,
    lll,
    short_vectors,
    theta_check_e8,
    theta_check_leech,
)
from qleech.lorentz import GramMatrix, ldl, leech_gram
from qleech.modforms import sigma


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


def fraction_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                for k in range(2 * n):
                    a[r][k] -= f * a[c][k]
    return [row[n:] for row in a]


def brute_counts(gram, max_norm):
    """Box search: x_i^2 <= max_norm * (G^-1)_ii bounds every coordinate."""
    n = gram.dim
    inv = fraction_inverse(gram.entries)
    bounds = [isqrt(int(max_norm * inv[i][i])) for i in range(n)]
    counts = {m: 0 for m in range(1, max_norm + 1)}

    def rec(i, x):
        if i == n:
            if all(v == 0 for v in x):
                return
            q = sum(
                x[a] * gram.entries[a][b] * x[b] for a in range(n) for b in range(n)
            )
            if 1 <= q <= max_norm:
                counts[q] += 1
            return
        for v in range(-bounds[i], bounds[i] + 1):
            rec(i + 1, x + [v])

    rec(0, [])
    return counts


def oracle_tables(entries):
    """The plain scaling: L_i clears the denominators of d_i and of row i,
    and one total scale lcm(L_i^3) serves every level."""
    d, q = ldl(entries)
    line_scale, diag, rows = [], [], []
    for i, p in enumerate(d):
        l = lcm(p.denominator, *(x.denominator for x in q[i][i + 1 :]))
        line_scale.append(l)
        diag.append(int(p * l))
        rows.append([int(x * l) for x in q[i]])
    total_scale = lcm(*(l**3 for l in line_scale))
    level_scale = [total_scale // l**3 for l in line_scale]
    return diag, rows, line_scale, level_scale, total_scale


def oracle_count(gram, max_norm):
    """A plain serial enumeration of the LLL-reduced form: the whole top
    range in one walk, every centre recomputed in full at every node."""
    tables = oracle_tables(lll(gram).gram.entries)
    diag, rows, line_scale, level_scale, total_scale = tables
    n = len(diag)
    budget = max_norm * total_scale
    step_scale = [level_scale[i] * diag[i] for i in range(n)]
    counts = {m: 0 for m in range(1, max_norm + 1)}
    x = [0] * n
    remaining = [0] * n
    offset = [0] * n
    hi = [0] * n
    zero_prefix = [False] * n
    top = n - 1
    remaining[top] = budget
    zero_prefix[top] = True
    hi[top] = isqrt(budget // step_scale[top]) // line_scale[top]
    x[top] = -1
    level = top
    while True:
        x[level] += 1
        if x[level] > hi[level]:
            level += 1
            if level == n:
                return counts
            continue
        xi = x[level]
        y = line_scale[level] * xi + offset[level]
        rem = remaining[level] - step_scale[level] * y * y
        if level == 0:
            used = budget - rem
            if used > 0:
                norm, r = divmod(used, total_scale)
                assert r == 0
                counts[norm] += 2
            continue
        nxt = level - 1
        remaining[nxt] = rem
        zero_prefix[nxt] = zero_prefix[level] and xi == 0
        acc = sum(rows[nxt][j] * x[j] for j in range(level, n))
        offset[nxt] = acc
        ymax = isqrt(rem // step_scale[nxt])
        l = line_scale[nxt]
        low = -((ymax + acc) // l)
        if zero_prefix[nxt] and low < 0:
            low = 0
        hi[nxt] = (ymax - acc) // l
        x[nxt] = low - 1
        level = nxt


def oracle_is_lll_reduced(gram, delta=DEFAULT_DELTA):
    """Size reduction and the Lovasz condition from a Gram-Schmidt
    orthogonalization built one inner product at a time."""
    n = gram.dim
    g = gram.entries
    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n
    for k in range(n):
        for j in range(k + 1):
            s = Fraction(g[k][j])
            for i in range(j):
                s -= mu[j][i] * mu[k][i] * big_b[i]
            if j < k:
                mu[k][j] = s / big_b[j]
            else:
                if s <= 0:
                    return False
                big_b[k] = s
    for ki in range(1, n):
        for j in range(ki):
            if 2 * abs(mu[ki][j]) > 1:
                return False
        if big_b[ki] < (delta - mu[ki][ki - 1] ** 2) * big_b[ki - 1]:
            return False
    return True


def random_spd_gram(rng, n, spread=4):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        if fraction_det(b) != 0:
            break
    rows = [[sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return GramMatrix.from_rows(rows)


def random_unimodular(rng, n, shears=8):
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            t[i][k] += c * t[j][k]
    return t


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(row)] = row
        at += len(b)
    return GramMatrix.from_rows(rows)


def conjugate(gram, t):
    n = gram.dim
    rows = [
        [
            sum(t[i][a] * gram.entries[a][b] * t[j][b] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return GramMatrix.from_rows(rows)


# -- LLL -----------------------------------------------------------------------


def test_lll_identity_is_fixed_point():
    g = GramMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red = lll(g)
    assert red.gram == g
    assert red.transform == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_lll_one_dimensional():
    g = GramMatrix.from_rows([[4]])
    assert lll(g).gram == g


def test_lll_sorts_weighted_diagonal():
    red = lll(GramMatrix.from_rows([[4, 0], [0, 1]]))
    assert red.gram.entries == ((1, 0), (0, 4))


def test_lll_rejects_non_positive_definite():
    for rows in ([[0]], [[-2, 0], [0, 3]], [[2, 3], [3, 2]]):
        with pytest.raises(ValueError, match="not positive definite"):
            lll(GramMatrix.from_rows(rows))


def test_lll_delta_domain():
    g = GramMatrix.from_rows([[2, 1], [1, 2]])
    for bad in (Fraction(1, 4), Fraction(1), Fraction(5, 4), Fraction(0)):
        with pytest.raises(ValueError):
            lll(g, delta=bad)
    assert lll(g, delta=Fraction(99, 100)).gram.determinant() == 3


def test_is_lll_reduced_flags_unordered_diagonal():
    assert not is_lll_reduced(GramMatrix.from_rows([[4, 0], [0, 1]]))
    assert is_lll_reduced(GramMatrix.from_rows([[1, 0], [0, 4]]))
    # forms that are not positive definite are never reduced: indefinite,
    # singular, and with a zero diagonal that takes the LDL^T fold step
    rng = random.Random(31)
    cases = [[[0, 1, 0], [1, 0, 2], [0, 2, 0]], [[1, 1], [1, 1]], [[2, 3], [3, 2]]]
    for n in (2, 3, 4):
        for _ in range(10):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            cases.append(rows)
    tight = Fraction(99, 100)
    for rows in cases:
        g = GramMatrix.from_rows(rows)
        assert is_lll_reduced(g) == oracle_is_lll_reduced(g)
        assert is_lll_reduced(g, tight) == oracle_is_lll_reduced(g, tight)
    assert not is_lll_reduced(GramMatrix.from_rows(cases[0]))


def test_lll_random_spd_certificates():
    rng = random.Random(42)
    for n in (2, 3, 4, 5, 6):
        for _ in range(6):
            g = random_spd_gram(rng, n)
            red = lll(g)
            assert conjugate(g, red.transform) == red.gram
            assert abs(fraction_det(red.transform)) == 1
            assert fraction_det(red.gram.entries) == fraction_det(g.entries)
            assert is_lll_reduced(red.gram)
            assert red.gram.is_positive_definite
            for h in (g, red.gram):
                assert is_lll_reduced(h) == oracle_is_lll_reduced(h)
                assert h.inertia() == (n, 0, 0)


def test_lll_recovers_identity_from_sheared_basis():
    # skewed bases of Z^n reduce back to the identity Gram, so the first
    # diagonal entry drops to the original minimum or below
    rng = random.Random(3)
    eye = GramMatrix.from_rows([[int(i == j) for j in range(6)] for i in range(6)])
    for _ in range(5):
        g = conjugate(eye, random_unimodular(rng, 6, shears=12))
        red = lll(g)
        assert red.gram == eye
        assert red.gram.entries[0][0] <= min(g.entries[i][i] for i in range(6))


def test_lll_first_vector_against_brute_minimum():
    rng = random.Random(9)
    for n in (2, 3, 4):
        for _ in range(4):
            g = random_spd_gram(rng, n, spread=3)
            red = lll(g)
            minimum = min(
                m for m, c in brute_counts(g, g.entries[0][0] + 1).items() if c
            )
            first = red.gram.entries[0][0]
            assert minimum <= first <= 2 ** (n - 1) * minimum


# -- enumeration ---------------------------------------------------------------


def test_short_vectors_square_lattice():
    g = GramMatrix.from_rows([[1, 0], [0, 1]])
    found = short_vectors(g, 1)
    assert found.counts == {1: 4}
    assert sum(found.counts.values()) == 4
    assert short_vectors(g, 2).counts == {1: 4, 2: 4}


def test_short_vectors_hexagonal():
    g = GramMatrix.from_rows([[2, 1], [1, 2]])
    found = short_vectors(g, 2)
    assert found.counts == {1: 0, 2: 6}


def test_short_vectors_counts_are_even():
    g = GramMatrix.from_rows([[2, 1], [1, 4]])
    found = short_vectors(g, 12)
    assert all(c % 2 == 0 for c in found.counts.values())


def test_short_vectors_against_box_search():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(4):
            g = random_spd_gram(rng, n, spread=3)
            max_norm = min(g.entries[i][i] for i in range(n)) + 3
            assert short_vectors(g, max_norm).counts == brute_counts(g, max_norm)


def test_short_vectors_basis_invariance():
    rng = random.Random(29)
    g = GramMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 4]])
    want = short_vectors(g, 8).counts
    for _ in range(5):
        h = conjugate(g, random_unimodular(rng, 3))
        assert short_vectors(h, 8).counts == want


def test_short_vectors_jobs_agree():
    g = e8_gram()
    lone = short_vectors(g, 4)
    split = short_vectors(g, 4, jobs=3)
    assert lone.counts == split.counts
    assert short_vectors(g, 2, jobs=2).counts == short_vectors(g, 2).counts


def oracle_cases():
    """(gram, max_norm) pairs: random forms of dimension 5 to 8, E8, Leech at
    norm 2, and forms whose top coordinate range is {0}, so the +-v rule
    decides on a lower level, across the subtree split as well."""
    rng = random.Random(47)
    cases = []
    for n in (5, 6, 7, 8):
        for _ in range(2):
            g = random_spd_gram(rng, n, spread=2)
            cases.append((g, lll(g).gram.entries[0][0] + 2))
    a2 = [[2, 1], [1, 2]]
    cases += [
        (e8_gram(), 6),
        (leech_gram(), 2),
        (GramMatrix.from_rows([[3]]), 2),
        (GramMatrix.from_rows([[3]]), 7),
        (block_diagonal(a2, [[40]]), 6),
        (block_diagonal(a2, a2, a2, [[40]]), 4),
    ]
    return cases


def test_tables_scale_identity():
    # every level step is an integer and T Q(x) is the sum of the level
    # terms exactly; T divides the lcm(den(d_i) L_i^2) of the plain formula
    rng = random.Random(53)
    for n in (1, 2, 3, 5, 8):
        for _ in range(5):
            g = random_spd_gram(rng, n)
            rows, step, scale = lattices._fincke_pohst_tables(g.entries)
            d, q = ldl(g.entries)
            for i in range(n):
                l = rows[i][i]
                assert l == lcm(1, *(v.denominator for v in q[i][i + 1 :]))
                assert all(rows[i][j] == l * q[i][j] for j in range(i + 1, n))
                assert isinstance(step[i], int) and step[i] == scale * d[i] / l**2
            assert lcm(*(d[i].denominator * rows[i][i] ** 2 for i in range(n))) % scale == 0
            for _ in range(10):
                x = [rng.randint(-6, 6) for _ in range(n)]
                norm = sum(x[a] * g.entries[a][b] * x[b] for a in range(n) for b in range(n))
                terms = sum(
                    step[i] * sum(rows[i][j] * x[j] for j in range(i, n)) ** 2
                    for i in range(n)
                )
                assert terms == scale * norm


def test_tables_scale_smaller_than_oracle():
    entries = lll(leech_gram()).gram.entries
    scale = lattices._fincke_pohst_tables(entries)[2]
    assert scale.bit_length() < oracle_tables(entries)[4].bit_length()


def test_walk_subtree_shares_cover_the_count():
    # the shares of 1..4 workers add up to the serial count, every share
    # sees the same subtrees, and an index outside 0..workers-1 walks only
    # the levels above the split
    for g, max_norm in oracle_cases():
        rows, step, scale = lattices._fincke_pohst_tables(lll(g).gram.entries)
        budget = max_norm * scale
        whole, subtrees = lattices._walk((rows, step, scale, budget, 1, 0))
        assert lattices._walk((rows, step, scale, budget, 1, -1)) == ({}, subtrees)
        for workers in (2, 3, 4):
            merged = {}
            for index in range(workers):
                part, seen = lattices._walk((rows, step, scale, budget, workers, index))
                assert seen == subtrees
                for norm, cnt in part.items():
                    merged[norm] = merged.get(norm, 0) + cnt
            assert merged == whole


def test_short_vectors_against_oracle_walk():
    for g, max_norm in oracle_cases():
        want = oracle_count(g, max_norm)
        for jobs in (1, 2, 3):
            assert short_vectors(g, max_norm, jobs=jobs).counts == want


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records how many workers were
    asked for and maps in this process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_short_vectors_starts_at_most_one_worker_per_subtree(monkeypatch):
    started = []
    monkeypatch.setattr(
        lattices, "ProcessPoolExecutor", lambda max_workers: RecordingPool(started, max_workers)
    )
    line = GramMatrix.from_rows([[2]])
    # norm <= 8 on the line: x = 0, 1, 2 are the three subtrees
    want = {1: 0, 2: 2, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 2}
    assert short_vectors(line, 8, jobs=5).counts == want
    assert short_vectors(line, 8, jobs=2).counts == short_vectors(line, 8).counts
    # a single subtree needs no pool
    assert short_vectors(line, 1, jobs=4).counts == {1: 0}
    assert started == [3, 2]


def test_short_vectors_domain(monkeypatch):
    started = []
    monkeypatch.setattr(
        lattices, "ProcessPoolExecutor", lambda max_workers: RecordingPool(started, max_workers)
    )

    def no_walk(args):
        raise RuntimeError("walk started")

    monkeypatch.setattr(lattices, "_walk", no_walk)
    g = GramMatrix.from_rows([[2]])
    with pytest.raises(ValueError):
        short_vectors(g, 0)
    with pytest.raises(ValueError):
        short_vectors(g, 2, jobs=0)
    # above the ceiling neither the subtree count nor a pool starts
    with pytest.raises(ValueError, match=f"between 1 and {lattices.MAX_JOBS}"):
        short_vectors(g, 2, jobs=lattices.MAX_JOBS + 1)
    assert started == []
    # the ceiling itself passes the check and reaches the walk
    with pytest.raises(RuntimeError, match="walk started"):
        short_vectors(g, 2, jobs=lattices.MAX_JOBS)
    with pytest.raises(ValueError, match="not positive definite"):
        short_vectors(GramMatrix.from_rows([[2, 3], [3, 2]]), 2)


def test_short_vector_count_accessors():
    c = ShortVectorCount(3, {1: 0, 2: 6, 3: 0})
    assert c.max_norm == 3
    assert c.counts[2] == 6
    with pytest.raises(KeyError):
        c.counts[4]


# -- the two root systems ------------------------------------------------------


def test_e8_gram_certificate():
    g = e8_gram()
    assert g.dim == 8
    assert all(g.entries[i][i] == 2 for i in range(8))
    assert g.is_even
    assert fraction_det(g.entries) == 1
    assert g.is_positive_definite


def test_e8_theta_counts():
    check = theta_check_e8(6)
    assert check.lattice == "e8"
    assert check.combination is None
    assert [(r.norm, r.enumerated, r.series_coefficient) for r in check.rows] == [
        (2, 240, 240),
        (4, 2160, 2160),
        (6, 6720, 6720),
    ]
    assert all(r.matches for r in check.rows)
    assert check.ok


def test_e8_counts_match_divisor_sums():
    found = short_vectors(e8_gram(), 6)
    for n in (1, 2, 3):
        assert found.counts[2 * n] == 240 * sigma(3, n)


def test_e8_theta_domain():
    # the command layer adds a ceiling; the library only requires even >= 2
    with pytest.raises(ValueError):
        theta_check_e8(3)
    with pytest.raises(ValueError):
        theta_check_e8(0)


def test_leech_has_no_roots():
    found = short_vectors(leech_gram(), 2)
    assert found.counts == {1: 0, 2: 0}


def test_leech_theta_norm_two_window():
    check = theta_check_leech(2)
    assert check.lattice == "leech"
    assert check.combination == (1, -720)
    assert [(r.norm, r.enumerated, r.series_coefficient) for r in check.rows] == [
        (2, 0, 0)
    ]
    assert check.ok


def test_leech_theta_domain():
    with pytest.raises(ValueError):
        theta_check_leech(3)
    with pytest.raises(ValueError):
        theta_check_leech(8)
