"""LLL reduction, short-vector enumeration, and the two theta cross-checks.

Enumeration counts in low dimension are verified against a dumb box search
that bounds each coordinate through the inverse Gram diagonal, and in every
dimension against a plain Fincke-Pohst walk kept here as an oracle (one
lcm(L^3) scale for every level, every centre recomputed at every node).
The generated walker is compared with `oracle_walk`, the table-driven
loop it replaced, state by state at every cut.  The LLL check is
compared with a Gram-Schmidt recomputed entry by entry.  The integral
`lll` is compared with `oracle_lll`, the same deep-insertion loop over the
rationals on a Gram-Schmidt of its own, and the fraction-free `ldl` with
`oracle_ldl`, the rational routine it replaced; the output of
`lll` is pinned by a digest.  The coset keys, built for every level in
one pass, are checked by what they mean: constant on cosets, onto the sum
of their cyclic groups, and with as many components as the group has
rank, computed over F_p and never more than `oracle_coset_key` has, the
block-by-block key with its transform in a second matrix.  The state and
node pins of the walk are those of `oracle_fold_walk`.
"""

import ast
import hashlib
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qleech.lattices as lattices
from qleech.cli import main
from qleech.lattices import (
    ShortVectorCount,
    e8_gram,
    is_lll_reduced,
    lll,
    short_vectors,
    theta_check_e8,
    theta_check_leech,
)
from qleech.lorentz import (
    ConstructionError,
    GramMatrix,
    _certify,
    hermite_normal_form,
    lattice_basis,
    ldl,
    leech_gram,
)
from qleech.modforms import delta, eisenstein_e4, sigma

DELTA = Fraction(3, 4)
DEEP_DELTA = Fraction(99, 100)


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


def oracle_ldl(rows):
    """Symmetric LDL^T over the rationals: pivots d and multipliers q (q[k][j]
    for j > k, zero elsewhere) with x^T A x = sum_k d[k] (x_k + sum_{j>k}
    q[k][j] x_j)^2, with the same swap and fold for zero pivots as ldl and a
    pivot that stays zero recorded as 0."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    d = [Fraction(0)] * n
    q = [[Fraction(0)] * n for _ in range(n)]
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
                    continue
                for j in range(k, n):
                    a[k][j] += a[off][j]
                for i in range(k, n):
                    a[i][k] += a[i][off]
        pivot = d[k] = a[k][k]
        for i in range(k + 1, n):
            f = q[k][i] = a[k][i] / pivot
            if f:
                for j in range(i, n):
                    a[i][j] = a[j][i] = a[i][j] - f * a[k][j]
    return d, q


def oracle_lll(gram):
    """Deep-insertion LLL over the rationals (Schnorr and Euchner, 1994) on
    a Gram matrix kept current, the Gram-Schmidt data of a row computed
    afresh from the Gram matrix whenever the loop reaches it, so nothing is
    patched through a swap; the same ties as lll: a size reduction only at
    2|mu| > 1, rounding half up, and row k inserted at the first i with
    |pi_i(b_k)|^2 < 99/100 B_i."""
    n = gram.dim
    if n == 0:
        raise ValueError("empty Gram matrix")
    g = [list(row) for row in gram.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n

    def orthogonalize(k):
        # mu[k][j] and B_k from the Gram matrix and the rows below k
        for j in range(k + 1):
            s = Fraction(g[k][j])
            for i in range(j):
                s -= mu[j][i] * mu[k][i] * big_b[i]
            if j < k:
                mu[k][j] = s / big_b[j]
            elif s <= 0:
                raise ValueError("not positive definite")
            else:
                big_b[k] = s

    def red(k, l):
        m = mu[k][l]
        if 2 * abs(m) <= 1:
            return
        q = (2 * m.numerator + m.denominator) // (2 * m.denominator)
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        g[k] = [x - q * y for x, y in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    orthogonalize(0)
    k = 1
    while k < n:
        orthogonalize(k)
        for l in range(k - 1, -1, -1):
            red(k, l)
        proj, i = Fraction(g[k][k]), 0
        while i < k and proj >= DEEP_DELTA * big_b[i]:
            proj -= mu[k][i] ** 2 * big_b[i]
            i += 1
        if i < k:
            u.insert(i, u.pop(k))
            g.insert(i, g.pop(k))
            for row in g:
                row.insert(i, row.pop(k))
            k = max(i, 1)
            for j in range(i, k):
                orthogonalize(j)
        else:
            k += 1
    return lattices.ReducedBasis(GramMatrix.from_rows(g), tuple(tuple(row) for row in u))


def replay_on_gram(gram, steps):
    """The Gram matrix of the rows after _lll's logged steps, kept current
    step by step: a size reduction (k, l, q) subtracts q times row l and
    then q times column l, a swap (k, k - 1, 0) exchanges two rows and two
    columns."""
    g = [list(row) for row in gram.entries]
    for k, l, q in steps:
        if q:
            g[k] = [x - q * y for x, y in zip(g[k], g[l])]
            for row in g:
                row[k] -= q * row[l]
        else:
            g[k], g[l] = g[l], g[k]
            for row in g:
                row[k], row[l] = row[l], row[k]
    return GramMatrix.from_rows(g)


def tables(entries):
    """The Fincke-Pohst tables of a form, from its own LDL^T."""
    return lattices._fincke_pohst_tables(*ldl(entries))


def oracle_fincke_pohst_tables(entries):
    """The tables from the rational LDL^T: L_i is the lcm of the
    denominators of q_ij (j > i), rows[i][j] = L_i q_ij, and the scale is
    the lcm of the denominators of d_i / L_i^2."""
    d, q = oracle_ldl(entries)
    rows = []
    for i in range(len(d)):
        l = lcm(1, *(x.denominator for x in q[i][i + 1 :]))
        rows.append([l if j == i else int(x * l) for j, x in enumerate(q[i])])
    weights = [p / rows[i][i] ** 2 for i, p in enumerate(d)]
    scale = lcm(*(w.denominator for w in weights))
    return rows, [int(scale * w) for w in weights], scale


def oracle_tables(entries):
    """The plain scaling: L_i clears the denominators of d_i and of row i,
    and one total scale lcm(L_i^3) serves every level."""
    d, q = oracle_ldl(entries)
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


def oracle_walk(rows, step, scale, budget, start=None):
    """The table-driven single-phase walk over the tables of
    _fincke_pohst_tables: one loop over level-indexed lists, and
    Schnorr-Euchner partial sums refreshed lazily, sig[i][j] = sum_{k>=j}
    rows[i][k] x_k being stale above stale[i].  It counts the whole tree by
    norm, or with start = (R, t_K, ..., t_0) only levels K..0 below a node
    with R of the budget left and partial sums t_k = sig[k][K+1]."""
    n = len(rows)
    rest, *t = start or (budget,) + (0,) * n
    top = len(t) - 1
    line = [row[i] for i, row in enumerate(rows)]
    sig = [[0] * (n + 1) for _ in range(n)]
    for k, v in enumerate(reversed(t)):
        sig[k][top + 1] = v
    stale = [top] * n
    counts = {}
    x = [0] * n
    remaining = [0] * n
    centre = [0] * n
    hi = [0] * n
    zero_prefix = [False] * n

    remaining[top] = rest
    zero_prefix[top] = rest == budget
    c = centre[top] = sig[top][top + 1]
    ymax = isqrt(rest // step[top])
    low = -((ymax + c) // line[top])
    if zero_prefix[top] and low < 0:
        low = 0
    hi[top] = (ymax - c) // line[top]
    x[top] = low - 1
    level = top
    while True:
        xi = x[level] + 1
        if xi > hi[level]:
            level += 1
            if level > top:
                break
            stale[level - 1] = level
            continue
        x[level] = xi
        y = line[level] * xi + centre[level]
        rem = remaining[level] - step[level] * y * y
        if level == 0:
            used = budget - rem
            if used > 0:
                norm, r = divmod(used, scale)
                if r:
                    raise ConstructionError("scaled norm is not a multiple of the scale")
                counts[norm] = counts.get(norm, 0) + 2
            continue
        nxt = level - 1
        remaining[nxt] = rem
        zero_prefix[nxt] = zero_prefix[level] and xi == 0
        s = stale[nxt]
        if stale[nxt - 1] < s:
            # at nxt == 0 this writes stale[n - 1], which no descent reads
            stale[nxt - 1] = s
        row = rows[nxt]
        sig_row = sig[nxt]
        for j in range(s, nxt, -1):
            sig_row[j] = sig_row[j + 1] + row[j] * x[j]
        c = centre[nxt] = sig_row[level]
        ymax = isqrt(rem // step[nxt])
        l = line[nxt]
        low = -((ymax + c) // l)
        if zero_prefix[nxt] and low < 0:
            low = 0
        hi[nxt] = (ymax - c) // l
        x[nxt] = low - 1
        level = nxt
    return counts


def oracle_is_lll_reduced(gram):
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
        if big_b[ki] < (DELTA - mu[ki][ki - 1] ** 2) * big_b[ki - 1]:
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
    # |b_1|^2 = 99/100 |b_0|^2 is a tie, and an insertion needs strictly less
    tie = GramMatrix.from_rows([[100, 0], [0, 99]])
    assert lll(tie).gram == tie == oracle_lll(tie).gram


def test_lll_rejects_an_empty_gram_matrix():
    empty = GramMatrix.from_rows([])
    for reduce in (lll, lattices._lll, lambda g: short_vectors(g, 2)):
        with pytest.raises(ValueError, match="^empty Gram matrix$"):
            reduce(empty)


def test_lll_rejects_non_positive_definite():
    # indefinite, a zero or negative diagonal, and singular positive
    # semidefinite forms, whose zero minor the integral route must not
    # divide by; the last one is size reduced
    singular = ([[1, 1], [1, 1]], [[4, 2], [2, 1]])
    for rows in ([[0]], [[-2, 0], [0, 3]], [[2, 3], [3, 2]], *singular):
        g = GramMatrix.from_rows(rows)
        for reduce in (lll, oracle_lll):
            with pytest.raises(ValueError, match="not positive definite"):
                reduce(g)
    for rows in singular:
        assert is_lll_reduced(GramMatrix.from_rows(rows)) is False
        with pytest.raises(ValueError, match="not positive definite"):
            lattices._fincke_pohst_tables(*ldl(rows))


def pinned_forms():
    """Leech, E8 and 300 seeded nonsingular forms b b^T of dimension 1 to 9."""
    forms = [leech_gram(), e8_gram()]
    rng = random.Random(2026)
    while len(forms) < 302:
        n = rng.randint(1, 9)
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if fraction_det(b):
            forms.append(GramMatrix.from_rows([[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]))
    return forms


def test_lll_output_is_pinned():
    # the reduced Gram matrices and transforms, ties included: a size
    # reduction only at 2|mu| > 1, rounding half up, and an insertion only
    # at a level i where |pi_i(b_k)|^2 < 99/100 B_i strictly; oracle_lll's
    # output has the same digest
    text = "".join(repr(lll(g)) for g in pinned_forms())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "fea9c21ac08974b5c25c51bf5a2d3bdd7cc1e8df48870b03608fc2c1cd4d5ed7"


def test_lll_matches_oracle_lll():
    for g in pinned_forms():
        assert lll(g) == oracle_lll(g)


def test_lll_step_log_is_pinned_and_replays_to_the_reduced_gram():
    # with lll == oracle_lll, the counts show that D taken downward from
    # d[k+1] chose the insertions the upward Bareiss steps chose
    for g, want in ((leech_gram(), (1226, 321)), (e8_gram(), (6, 3))):
        steps = lattices._lll(g)[2]
        assert (sum(1 for s in steps if s[2]), sum(1 for s in steps if not s[2])) == want
    for g in pinned_forms():
        steps = lattices._lll(g)[2]
        assert all(q or l == k - 1 for k, l, q in steps)
        assert replay_on_gram(g, steps) == lll(g).gram


def test_lll_reaches_minimal_vectors_on_leech_and_e8():
    # deep insertion leaves a basis of minimal vectors, which is what keeps
    # the Fincke-Pohst scale small
    leech = lll(leech_gram()).gram.entries
    assert [leech[i][i] for i in range(24)] == [4] * 24
    e8 = lll(e8_gram()).gram.entries
    assert [e8[i][i] for i in range(8)] == [2] * 8


def test_ldl_matches_oracle_ldl():
    # the minors give the rational pivots d[k+1] / d[k], less the pivots
    # that stay zero, through every swap and fold; on a positive definite
    # form lam[i][k] = d[k+1] q_ki
    rng = random.Random(61)
    cases = [[], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 2], [0, 2, 0]]]
    for n in range(1, 7):
        for _ in range(20):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice((0, 0, rng.randint(-4, 4)))
            cases.append(rows)
    cases += [g.entries for g in (lattice_basis()[1], leech_gram(), e8_gram())]
    cases += [random_spd_gram(rng, n).entries for n in range(1, 9)]
    for rows in cases:
        n = len(rows)
        d, lam = ldl(rows)
        want, q = oracle_ldl(rows)
        assert d[0] == 1
        assert [Fraction(b, a) for a, b in zip(d, d[1:])] == [p for p in want if p]
        if len(d) > n and min(d) > 0:
            assert all(lam[i][k] == d[k + 1] * q[k][i] for k in range(n) for i in range(k + 1, n))


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
    for rows in cases:
        g = GramMatrix.from_rows(rows)
        assert is_lll_reduced(g) == oracle_is_lll_reduced(g)
    assert not is_lll_reduced(GramMatrix.from_rows(cases[0]))
    # size reduced (mu = 1/4) but short of Lovasz at 3/4: 7/4 < (3/4 - 1/16) 4
    tight = GramMatrix.from_rows([[4, 1], [1, 2]])
    assert not is_lll_reduced(tight)
    assert is_lll_reduced(tight) == oracle_is_lll_reduced(tight)


def test_lll_random_spd_certificates():
    # the seeded random forms and the pinned ones, Leech and E8 among them:
    # the output of lll is LLL-reduced at 3/4
    rng = random.Random(42)
    forms = [random_spd_gram(rng, n) for n in (2, 3, 4, 5, 6) for _ in range(6)]
    for g in forms + pinned_forms():
        n = g.dim
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
    # the tables are those of the rational LDL^T: L_i is the lcm of the
    # denominators of q_ij (j > i), rows[i][j] = L_i q_ij, and T is the lcm
    # of the denominators of d_i / L_i^2, so every level step is an integer
    # and T Q(x) is the sum of the level terms exactly; T divides the
    # lcm(den(d_i) L_i^2) of the plain formula
    def check(g, rng):
        n = g.dim
        rows, step, scale = tables(g.entries)
        d, q = oracle_ldl(g.entries)
        for i in range(n):
            l = rows[i][i]
            assert l == lcm(1, *(v.denominator for v in q[i][i + 1 :]))
            assert rows[i][:i] == [0] * i
            assert all(rows[i][j] == l * q[i][j] for j in range(i + 1, n))
            assert isinstance(step[i], int) and step[i] == scale * d[i] / l**2
        assert scale == lcm(*((d[i] / rows[i][i] ** 2).denominator for i in range(n)))
        assert lcm(*(d[i].denominator * rows[i][i] ** 2 for i in range(n))) % scale == 0
        for _ in range(10):
            x = [rng.randint(-6, 6) for _ in range(n)]
            norm = sum(x[a] * g.entries[a][b] * x[b] for a in range(n) for b in range(n))
            terms = sum(
                step[i] * sum(rows[i][j] * x[j] for j in range(i, n)) ** 2
                for i in range(n)
            )
            assert terms == scale * norm

    rng = random.Random(53)
    for n in (1, 2, 3, 5, 8):
        for _ in range(5):
            check(random_spd_gram(rng, n), rng)
    for g in pinned_forms():
        check(g, rng)
        check(lll(g).gram, rng)


def test_tables_scale_smaller_than_oracle():
    entries = lll(leech_gram()).gram.entries
    scale = tables(entries)[2]
    assert scale.bit_length() < oracle_tables(entries)[4].bit_length()


def test_tables_from_lll_match_ldl_of_the_reduced_form():
    # short_vectors takes d and lam from the LLL run instead of a second
    # elimination: they are the minors and multipliers of the reduced rows
    for g in pinned_forms():
        d, lam = lattices._lll(g)[:2]
        reduced = lll(g)
        rows, u = reduced.gram.entries, reduced.transform
        want_d, want_lam = ldl(rows)
        n = g.dim
        assert d == want_d
        assert all(lam[i][k] == want_lam[i][k] for i in range(n) for k in range(i))
        assert lattices._fincke_pohst_tables(d, lam) == tables(rows)
        assert lll(g) == lattices.ReducedBasis(GramMatrix.from_rows(rows), tuple(map(tuple, u)))


def phases_for(rows, step, scale, budget):
    """The phases of the walker for these tables up to budget, compiled once."""
    return lattices._walker(rows, step, lattices._cut_levels(len(rows), budget // scale))


def walk(phases, budget, scale, states):
    """The counts by norm of the walk of the phases from (state, times)
    pairs, read from the last tally as short_vectors reads it: its entry
    [times, (R,)] gives 2 times vectors of norm (budget - R) / scale, and
    norm 0, the zero vector, is left out."""
    tally = lattices._walk(phases, budget, {k: [times, state] for k, (state, times) in enumerate(states)})
    counts = {}
    for key, (times, state) in tally.items():
        norm, r = divmod(budget - state[0], scale)
        assert key == state == (state[0],) and not r
        if norm:
            counts[norm] = 2 * times
    return counts


def states_per_cut(phases, budget):
    """The distinct (state, times) at each cut, from the top phase down, as
    _walk hands them one by one to the phase below the cut."""
    found = [[] for _ in phases[1:]]

    def recording(phase, states):
        def run(budget, tally, times, *state):
            states.append((state, times))
            phase(budget, tally, times, *state)

        return run

    lattices._walk([phases[0], *map(recording, phases[1:], found)], budget, {(budget,): [1, (budget,)]})
    return found


def serial_walk(rows, step, scale, budget):
    """The counts by norm of the whole walk, every phase in turn."""
    return walk(phases_for(rows, step, scale, budget), budget, scale, [((budget,), 1)])


def test_walk_runs_each_distinct_entry_once_per_phase():
    # stand-in phases that record their calls: an entry stored under two
    # keys is walked once, with its times, each phase starts from the tally
    # of the phase above, and the last phase's tally is returned
    calls = []

    def top(budget, tally, times, *state):
        calls.append(("top", budget, times, state))
        tally[(budget - 1, 1)] = tally[(budget - 1, 2)] = [3 * times, (budget - 1, 5)]
        tally[(budget - 2,)] = [times, (budget - 2, 0)]

    def bottom(budget, tally, times, *state):
        calls.append(("bottom", budget, times, state))
        tally[state[0]] = tally.get(state[0], 0) + 2 * times

    assert lattices._walk([top, bottom], 9, {(9,): [2, (9,)]}) == {8: 12, 7: 4}
    assert calls == [("top", 9, 2, (9,)), ("bottom", 9, 6, (8, 5)), ("bottom", 9, 2, (7, 0))]


def test_walk_counts_match_oracle_walk_on_pinned_forms():
    # raw and reduced tables of the 302 forms at three norms each: _walk
    # through every phase counts what the single-phase oracle counts, and so
    # does short_vectors, once per form: test_short_vectors_jobs_agree and
    # test_short_vectors_against_oracle_walk check that jobs leaves counts
    # alone.  Each table compiles its walker once per cut schedule.  Leech
    # runs reduced at norm 2 only: its raw Gram has diagonal entries up to
    # 1.3 M, a tree far too big for the oracle
    for g in pinned_forms():
        reduced = lll(g).gram
        first = reduced.entries[0][0]
        leech = g == leech_gram()
        norms = (2,) if leech else (first, first + 1, first + 3)
        for entries in (reduced.entries,) if leech else (g.entries, reduced.entries):
            rows, step, scale = tables(entries)
            phases = {}
            for max_norm in norms:
                cuts = lattices._cut_levels(len(rows), max_norm)
                if cuts not in phases:
                    phases[cuts] = lattices._walker(rows, step, cuts)
                budget = max_norm * scale
                want = oracle_walk(rows, step, scale, budget)
                assert walk(phases[cuts], budget, scale, [((budget,), 1)]) == want
        # want is the count of the reduced form at the largest norm
        want = {m: want.get(m, 0) for m in range(1, max_norm + 1)}
        assert short_vectors(g, max_norm).counts == want


def test_each_state_at_each_cut_matches_oracle_walk():
    # at every cut, every state walked alone through the phases below it
    # counts what the single-phase oracle counts below that node, and the
    # states weighted by their tallies add up to the whole count; on the
    # oracle cases, E8 at norm 8 and Leech at norm 4 (three and eight cuts),
    # and at norm 2, one cut of its own, on forms deep enough for
    # _cut_levels to add a cut every 20 levels: diagonal ones (Z^70 is cut
    # at 49, 42, 22 and 2), Leech + [[4]], Leech + E8, whose bottom phase
    # has exactly 20 levels and whose dense rows pass partial sums over the
    # cut, and Z^36 + Leech, cut at 39, 36 and 16, where the state stored at
    # 36 sums the coordinates of the two phases above it
    leech = leech_gram().entries
    cases = oracle_cases() + [(e8_gram(), 8), (leech_gram(), 4)]
    cases += [(identity_gram(n), 2) for n in (19, 20, 21, 26, 45, 60, 70)]
    cases += [(block_diagonal(leech, [[4]]), 2), (block_diagonal(leech, e8_gram().entries), 2)]
    cases += [(block_diagonal(identity_gram(36).entries, leech), 2)]
    for g, max_norm in cases:
        rows, step, scale = tables(lll(g).gram.entries)
        budget = max_norm * scale
        phases = phases_for(rows, step, scale, budget)
        # on Leech at norm 4 the kissing number stands in for a 3 s oracle
        # walk, and every 8th state, the zero state first, for all of them
        leech4 = (g, max_norm) == (leech_gram(), 4)
        whole = {4: 196560} if leech4 else oracle_walk(rows, step, scale, budget)
        for p, states in enumerate(states_per_cut(phases, budget)):
            assert len({key for key, _ in states}) == len(states)
            assert walk(phases[p + 1 :], budget, scale, states) == whole, (g.dim, p)
            for key, times in states[:: 8 if leech4 else 1]:
                alone = walk(phases[p + 1 :], budget, scale, [(key, times)])
                below = oracle_walk(rows, step, scale, budget, start=key)
                assert alone == {norm: times * cnt for norm, cnt in below.items()}, (g.dim, p, key)
        assert walk(phases, budget, scale, [((budget,), 1)]) == whole


# the distinct states at each cut of the walk of reduced Leech and E8, by
# max_norm, and the nodes of each phase of the Leech walk, as
# oracle_fold_walk counts them; it runs at norm 6 too, in about twice the
# time of norm 4, which test_pins_match_the_oracle_fold_walk leaves out
STATES_PER_CUT = {
    ("leech", 2): [266],
    ("leech", 4): [77, 255, 508, 935, 1007, 676, 386, 157],
    ("leech", 6): [116, 381, 796, 1519, 1657, 1164, 682, 285],
    ("e8", 8): [5, 12, 13],
}
NODES_PER_PHASE = {
    2: [3467, 6198],
    4: [431, 1269, 3082, 5487, 7596, 5807, 3768, 1555, 2757],
    6: [939, 2599, 6835, 13010, 18421, 15096, 10074, 4454, 14172],
}


def reduced_tables(name):
    return tables(lll(leech_gram() if name == "leech" else e8_gram()).gram.entries)


def test_state_counts_per_cut_are_pinned():
    # a key that is exact but not canonical, or not folded with its
    # negation, gives more states, and a cut moved by a level other ones;
    # below norm 4 one cut at 3n // 5, from norm 4 up a cut every two
    # levels from 4n // 5 down to n // 5, and a cut every 20 levels beyond
    # them where a phase would be taller
    for (name, max_norm), want in STATES_PER_CUT.items():
        rows, step, scale = reduced_tables(name)
        budget = max_norm * scale
        found = states_per_cut(phases_for(rows, step, scale, budget), budget)
        assert [len(states) for states in found] == want
    schedules = {n: [lattices._cut_levels(n, m) for m in range(1, 9)] for n in (1, 2, 8, 24, 60)}
    assert schedules == {
        1: [(0,)] * 8,
        2: [(1,)] * 8,
        8: [(4,)] * 3 + [(6, 4, 2)] * 5,
        24: [(14,)] * 3 + [(19, 17, 15, 13, 11, 9, 7, 5)] * 5,
        60: [(39, 36, 16)] * 3 + [tuple(range(48, 11, -2))] * 5,
    }


def old_cut_levels(n, max_norm):
    """The schedule before _cut_levels kept each phase to 20 levels."""
    return (3 * n // 5,) if max_norm < 4 else tuple(range(4 * n // 5, n // 5 - 1, -2))


def phase_heights(n, cuts):
    """The levels each phase walks, from the top phase down."""
    bounds = [n - 1, *cuts, -1]
    return [a - b for a, b in zip(bounds, bounds[1:])]


def test_cut_levels_keep_each_phase_to_20_levels():
    # the cuts strictly decrease inside 0..n-1 (the top phase may be
    # empty), no phase is taller than the 20 nested loops CPython compiles
    # in one function, the old cuts all stay, and a schedule whose phases
    # all fit is the old one: for n <= 33 below norm 4 and n <= 94 from 4 up
    for n in range(1, 121):
        for max_norm in range(1, 9):
            cuts, old = lattices._cut_levels(n, max_norm), old_cut_levels(n, max_norm)
            top, *below = phase_heights(n, cuts)
            assert 0 <= top <= 20 and all(0 < h <= 20 for h in below), (n, max_norm)
            assert set(old) <= set(cuts)
            assert (cuts == old) == (max(phase_heights(n, old)) <= 20), (n, max_norm)
            if n <= (33 if max_norm < 4 else 94):
                assert cuts == old


def test_deep_forms_walk_one_function_per_phase():
    # 2 I_100 at norm 2 and 2 I_120 at norm 4 (sqrt(2) Z^n, whose norm 2
    # holds the 2n vectors +-e_i and norm 4 the 4 C(n, 2) vectors +-e_i +-e_j)
    # need cuts every 20 levels; each phase is one function _p{p} of at most
    # 20 nested loops that calls no other phase and nothing but range,
    # isqrt and tally.get
    for n, max_norm, want in ((100, 2, {1: 0, 2: 200}), (120, 4, {1: 0, 2: 240, 3: 0, 4: 28560})):
        g = GramMatrix.from_rows([[2 * int(i == j) for j in range(n)] for i in range(n)])
        assert short_vectors(g, max_norm).counts == want
        rows, step, scale = tables(lll(g).gram.entries)
        cuts = lattices._cut_levels(n, max_norm)
        for p, source in enumerate(lattices._walker_sources(rows, step, cuts)):
            (function,) = ast.parse(source).body
            assert function.name == f"_p{p}"
            loops = [node for node in ast.walk(function) if isinstance(node, ast.For)]
            assert len(loops) == phase_heights(n, cuts)[p] <= 20
            calls = {ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)}
            assert calls <= {"range", "isqrt", "tally.get"}


def oracle_coset_key(rows, cut):
    """The coset key of one block, rows[0..cut][0..cut], by the route before
    lattices._coset_keys: the transform U kept in a matrix of its own, each
    row operation on the block repeated on it, entries of U kept in [0, D)."""
    n = cut + 1
    order = prod(rows[k][k] for k in range(n))
    half = order // 2
    a, u = [list(row[:n]) for row in rows[:n]], [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        while any(a[i][k] for i in range(k + 1, n)) or any(a[k][k + 1 :]):
            if any(a[i][k] for i in range(k + 1, n)):
                p = min((i for i in range(k, n) if a[i][k]), key=lambda i: abs(a[i][k]))
                a[k], a[p], u[k], u[p] = a[p], a[k], u[p], u[k]
                for i in range(k + 1, n):
                    if q := a[i][k] // a[k][k]:
                        a[i] = [(x - q * y + half) % order - half for x, y in zip(a[i], a[k])]
                        u[i] = [(x - q * y) % order for x, y in zip(u[i], u[k])]
            else:
                p = min((j for j in range(k, n) if a[k][j]), key=lambda j: abs(a[k][j]))
                for row in a[k:]:
                    row[k], row[p] = row[p], row[k]
                qs = [(j, q) for j in range(k + 1, n) if (q := a[k][j] // a[k][k])]
                for row in a[k:]:
                    for j, q in qs:
                        row[j] = (row[j] - q * row[k] + half) % order - half
    moduli = [gcd(a[k][k], order) for k in range(n)]
    if prod(moduli) != order:
        raise ConstructionError("coset key does not match the order of the block group")
    return [([v % e for v in row], e) for row, e in zip(u, moduli) if e > 1]


def rank_mod(q, matrix):
    """(rank, 1), the rank of an integer matrix over Z/q by a Gauss-Jordan
    elimination whose pivots are all units mod q, which is then its rank
    over F_p for every prime p dividing q; or (None, g) at the first pivot
    that is not a unit, g its gcd with q, a proper divisor of q."""
    m = [[x % q for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        if (g := gcd(m[pivot][c], q)) > 1:
            return None, g
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, q)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inv % q
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, 1


def prime_ranks(factors, *matrices):
    """The ranks of the matrices over F_p for every prime p dividing one of
    the factors, without factoring them: a tuple of ranks for each divisor q
    of a factor that rank_mod eliminates with unit pivots, as every prime
    dividing q gives those ranks; a divisor whose pivot is not a unit splits
    at it."""
    todo, found = set(factors), []
    while todo:
        q = todo.pop()
        if q > 1:
            ranks = [rank_mod(q, m) for m in matrices]
            g = max(g for _, g in ranks)
            todo |= {g, q // g} if g > 1 else set()
            found += [] if g > 1 else [tuple(r for r, _ in ranks)]
    return found


def block_group_rank(rows, level):
    """The rank of Z^{K+1} / B Z^{K+1}, B = rows[0..K][0..K], K = level: the
    largest dimension of its quotient by p, K + 1 less the rank of B over
    F_p, for a prime p dividing its order prod L_j."""
    block = [row[: level + 1] for row in rows[: level + 1]]
    diagonal = [rows[k][k] for k in range(level + 1)]
    return max((level + 1 - r for r, in prime_ranks(diagonal, block)), default=0)


def test_coset_keys_are_exact_at_every_level():
    # at every level K of these forms: each pair (u, e) of the key has u . t
    # = 0 mod e on every column t of the block rows[0..K][0..K], so the key
    # is constant on cosets; the moduli multiply to prod L_j, the order of
    # the block group; and the key maps onto the sum of the Z/e, as the
    # images of the unit vectors and the e times unit vectors have rank m
    # over F_p for every p, so its kernel is the block lattice and it
    # parts t as the oracle's key does.  It has as many pairs as the group
    # has rank, never more than the oracle's.  The forms: the tables of
    # reduced Leech (norms 2, 4 and 6 cut at levels among these), E8, the
    # 302 pinned forms raw and reduced, and Z^70
    forms = [lll(g).gram for g in (leech_gram(), e8_gram())] + [identity_gram(70)]
    forms += [h for g in pinned_forms() for h in (g, lll(g).gram)]
    for g in forms:
        rows = tables(g.entries)[0]
        for level, key in enumerate(lattices._coset_keys(rows, g.dim - 1)):
            order = prod(rows[k][k] for k in range(level + 1))
            assert all(e > 1 and len(u) == level + 1 for u, e in key)
            for j in range(level + 1):
                assert all(sum(u[k] * rows[k][j] for k in range(j + 1)) % e == 0 for u, e in key)
            assert prod(e for _, e in key) == order
            # row c: the c-th component of the image of each unit vector, then e_c at c
            m = len(key)
            onto = [[*u, *(e * (c == i) for i in range(m))] for c, (u, e) in enumerate(key)]
            assert all(r == m for r, in prime_ranks([rows[k][k] for k in range(level + 1)], onto))
            assert m == block_group_rank(rows, level) <= len(oracle_coset_key(rows, level)), (g.dim, level)


def test_coset_key_components_are_pinned_on_leech():
    # the rank of the block group at each cut of norm 4, from rank_mod
    rows = tables(lll(leech_gram()).gram.entries)[0]
    cuts = lattices._cut_levels(24, 4)
    keys = lattices._coset_keys(rows, cuts[0])
    assert [len(keys[cut]) for cut in cuts] == [13, 12, 11, 9, 7, 6, 6, 6]
    assert [block_group_rank(rows, cut) for cut in cuts] == [13, 12, 11, 9, 7, 6, 6, 6]


def test_coset_key_rejects_a_block_that_is_not_triangular():
    # with an entry below the diagonal the block no longer has order prod L_j
    rows = tables(lll(leech_gram()).gram.entries)[0]
    for cut in (1, 6, 18):
        bad = [list(row) for row in rows]
        bad[cut][0] += 1
        with pytest.raises(ConstructionError, match="order of the block group"):
            lattices._coset_keys(bad, cut)


def counting_phases(rows, step, cuts, nodes):
    """The phases _p{p} of the walker for these tables and cut levels,
    compiled here from a copy of the generated source with `nodes[p] += 1`
    as the first statement of every loop body of phase p."""
    namespace = {"isqrt": isqrt, "nodes": nodes}
    for phase, source in enumerate(lattices._walker_sources(rows, step, cuts)):
        lines = []
        for line in source.splitlines():
            lines.append(line)
            if line.lstrip().startswith("for x"):
                lines.append(f"{' ' * (len(line) - len(line.lstrip()) + 4)}nodes[{phase}] += 1")
        exec(compile("\n".join(lines) + "\n", f"<counting phase {phase}>", "exec"), namespace)
    return [namespace[f"_p{p}"] for p in range(len(cuts) + 1)]


def test_nodes_per_phase_are_pinned():
    # the nodes each phase visits, counted on every loop iteration: a new
    # label for the states at a cut moves none of them, and a key that
    # splits or merges cosets moves the phases below
    pins = ((2, {}), (4, {4: 196560}), (6, {4: 196560, 6: 16773120}))
    rows, step, scale = reduced_tables("leech")
    for max_norm, counts in pins:
        want = NODES_PER_PHASE[max_norm]
        nodes = [0] * len(want)
        phases = counting_phases(rows, step, lattices._cut_levels(len(rows), max_norm), nodes)
        budget = max_norm * scale
        assert walk(phases, budget, scale, [((budget,), 1)]) == counts
        assert nodes == want


def oracle_fold_walk(rows, step, scale, budget, cuts):
    """The counts of distinct states at each cut and of nodes in each
    phase, by a plain recursive walk: it folds the nodes that reach a cut by
    the budget they leave and the class of their partial sums, or of the
    negated sums, whichever oracle_canon orders first, walks on from the
    first node of each fold, and counts each coordinate it tries as a node."""
    n = len(rows)
    states, per_cut, per_phase = [(budget, [0] * n)], [], []
    for first, last in zip([n - 1, *cuts], [cut + 1 for cut in cuts] + [0]):
        folds, nodes = {}, 0

        def descend(i, rest, t):
            nonlocal nodes
            ymax, c, l = isqrt(rest // step[i]), t[i], rows[i][i]
            low = -((ymax + c) // l)
            for x in range(max(low, 0) if rest == budget else low, (ymax - c) // l + 1):
                nodes += 1
                below = rest - step[i] * (c + l * x) ** 2
                sums = [v + rows[k][i] * x if k < i else v for k, v in enumerate(t)]
                if i and i == last:
                    tail = sums[i - 1 :: -1]
                    canon = min(oracle_canon(rows, tail), oracle_canon(rows, [-v for v in tail]))
                    folds.setdefault((below, canon) if below < budget else (below,), (below, sums))
                elif i:
                    descend(i - 1, below, sums)

        for rest, t in states:
            descend(first, rest, t)
        per_phase.append(nodes)
        if last:
            per_cut.append(len(folds))
            states = list(folds.values())
    return per_cut, per_phase


def test_pins_match_the_oracle_fold_walk():
    # the state and node pins at norms 2 and 4, and E8's, re-derived by a
    # walk that shares no code with the generated walker or its keys
    for (name, max_norm), want in STATES_PER_CUT.items():
        if max_norm < 6:
            rows, step, scale = reduced_tables(name)
            cuts = lattices._cut_levels(len(rows), max_norm)
            states, nodes = oracle_fold_walk(rows, step, scale, max_norm * scale, cuts)
            assert states == want
            assert name == "e8" or nodes == NODES_PER_PHASE[max_norm]


@lru_cache(maxsize=None)
def invariance_states(name):
    """Tables, budget, the compiled phases, and for each cut the folded
    states with R < budget."""
    if name == "raw":
        g, max_norm = random_spd_gram(random.Random(71), 7, spread=3), 12
    else:
        g, max_norm = (e8_gram(), 8) if name == "e8" else (leech_gram(), 4)
        g = lll(g).gram
    rows, step, scale = tables(g.entries)
    budget = max_norm * scale
    phases = phases_for(rows, step, scale, budget)
    keys = [[key for key, _ in states if key[0] < budget] for states in states_per_cut(phases, budget)]
    return rows, step, scale, budget, phases, keys


def oracle_canon(rows, t):
    """The canonical representative of the partial sums t = (t_K, ..., t_0)
    modulo the lattice of the block rows[0..K][0..K], by back substitution:
    for j = K down to 0, z_j, r_j = divmod(t_j, L_j), then t_k -= rows[k][j]
    z_j for k < j; so 0 <= r_j < L_j."""
    r = list(t[::-1])
    for j in range(len(r) - 1, -1, -1):
        z, r[j] = divmod(r[j], rows[j][j])
        for k in range(j):
            r[k] -= rows[k][j] * z
    return tuple(r[::-1])


def coset_key(rows, t):
    """The key of the partial sums t = (t_K, ..., t_0) by the level-K key of
    _coset_keys: u . t mod e for each of its pairs (u, e)."""
    pairs = lattices._coset_keys(rows, len(t) - 1)[-1]
    return tuple(sum(x * v for x, v in zip(u, t[::-1])) % e for u, e in pairs)


@pytest.mark.parametrize("name", ["e8", "leech", "raw"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_state_counts_are_invariant_under_the_block_lattice_and_negation(name, data):
    # at every cut K, translating the partial sums t of a state by a vector
    # of the block lattice rows[0..K][0..K], or negating them, leaves its
    # counts below unchanged (R < budget, so no +-v clamp); the cut's key is
    # the same on the translate, negated mod e on the negation, and equal on
    # two drawn sums exactly when oracle_canon reduces them alike
    rows, step, scale, budget, phases, keys = invariance_states(name)
    cuts = lattices._cut_levels(len(rows), budget // scale)
    p = data.draw(st.sampled_from([p for p, found in enumerate(keys) if found]))
    cut, moduli = cuts[p], [e for _, e in lattices._coset_keys(rows, cuts[p])[-1]]
    rest, *t = data.draw(st.sampled_from(keys[p]))
    z = data.draw(st.lists(st.integers(-3, 3), min_size=cut + 1, max_size=cut + 1))
    # t holds t_k for k = cut down to 0; moved is t + M z
    moved = [t[cut - k] + sum(rows[k][j] * z[j] for j in range(k, cut + 1)) for k in range(cut, -1, -1)]

    def below(sums):
        return walk(phases[p + 1 :], budget, scale, [((rest, *sums), 1)])

    want = below(t)
    assert want == oracle_walk(rows, step, scale, budget, start=(rest, *t))
    assert below(moved) == want
    assert below([-v for v in moved]) == want
    key = coset_key(rows, t)
    assert coset_key(rows, moved) == key
    assert coset_key(rows, [-v for v in moved]) == tuple(-v % e for v, e in zip(key, moduli))
    _, *other = data.draw(st.sampled_from(keys[p]))
    sign = data.draw(st.sampled_from([1, -1]))
    other = [sign * v for v in other]
    same = coset_key(rows, moved) == coset_key(rows, other)
    assert same == (oracle_canon(rows, moved) == oracle_canon(rows, other))


def identity_gram(n):
    return GramMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def short_vectors_on(monkeypatch, tables, max_norm):
    """short_vectors up to max_norm on the given (rows, step, scale), with
    _fincke_pohst_tables patched to return them for a one-dimensional Gram."""
    monkeypatch.setattr(lattices, "_fincke_pohst_tables", lambda d, lam: tables)
    return short_vectors(identity_gram(1), max_norm)


def test_walk_checks_that_norms_are_multiples_of_the_scale(monkeypatch):
    # inconsistent tables: the leaf at x = 1 uses 3 of a budget scaled by 2;
    # short_vectors reads each leaf's norm from the last tally and raises
    rows, step, scale, budget = [[1]], [3], 2, 14
    with pytest.raises(ConstructionError, match="not a multiple of the scale"):
        short_vectors_on(monkeypatch, (rows, step, scale), budget // scale)
    with pytest.raises(ConstructionError, match="not a multiple of the scale"):
        oracle_walk(rows, step, scale, budget)


def large_scale_tables():
    """Tables with a 28-bit scale, far above the scale lll gives Leech or
    E8, and a nonzero path near the top that uses less of the budget than
    any step below it.

    The form is 3 I_24 + [[p, 1], [1, 1]], p = 2^27 + 1, left unreduced so
    that the block with scale p sits on the top two levels.  Every step
    below it is 3p; at norm 5 the budget is 5p, and the top vector
    (0, ..., 0, 1) of norm 1 uses p."""
    p = 2**27 + 1
    g = block_diagonal([[3 * int(i == j) for j in range(24)] for i in range(24)], [[p, 1], [1, 1]])
    rows, step, scale = tables(g.entries)
    return rows, step, scale, 5 * scale


def test_walk_on_a_large_scale_matches_oracle_walk():
    rows, step, scale, budget = large_scale_tables()
    assert scale == 2**27 + 1 < min(step[:-2])
    want = oracle_walk(rows, step, scale, budget)
    # norm 1: (0, +-1) on the block; 3: the 48 units of 3 I_24; 4: (0, +-2),
    # and a unit with (0, +-1)
    assert want == {1: 2, 3: 48, 4: 2 + 48 * 2}
    assert serial_walk(rows, step, scale, budget) == want


def test_walk_on_a_large_scale_checks_that_norms_are_multiples_of_the_scale(monkeypatch):
    # a step one too large on the top level, in the top phase, on the
    # first level of each later phase, or on level 0: a leaf that uses it
    # is off the scale, which short_vectors finds in the last tally
    rows, step, scale, budget = large_scale_tables()
    cuts = lattices._cut_levels(len(rows), budget // scale)
    assert cuts == (20, 18, 16, 14, 12, 10, 8, 6)
    want = {1: 2, 2: 0, 3: 48, 4: 2 + 48 * 2, 5: 0}
    assert short_vectors_on(monkeypatch, (rows, step, scale), budget // scale).counts == want
    for level in (len(step) - 1, *cuts, 0):
        wrong = list(step)
        wrong[level] += 1
        with pytest.raises(ConstructionError, match="not a multiple of the scale"):
            short_vectors_on(monkeypatch, (rows, wrong, scale), budget // scale)
        with pytest.raises(ConstructionError, match="not a multiple of the scale"):
            oracle_walk(rows, wrong, scale, budget)


def test_reduced_tables_keep_the_budget_to_one_digit():
    # with lll's basis of minimal vectors the whole budget, at most
    # max_norm * scale, fits one int digit: Leech up to norm 6, E8 up to 8
    for g, max_norm in ((leech_gram(), 6), (e8_gram(), 8)):
        scale = tables(lll(g).gram.entries)[2]
        assert max_norm * scale < 2**sys.int_info.bits_per_digit


def test_short_vectors_against_oracle_walk():
    for g, max_norm in oracle_cases():
        want = oracle_count(g, max_norm)
        for jobs in (1, 2, 3):
            assert short_vectors(g, max_norm, jobs=jobs).counts == want


def test_short_vectors_builds_the_walker_once(monkeypatch):
    # one walk compiles the walker once for all its phases
    built = []

    def sources(*tables):
        built.append(tables)
        return walker_sources(*tables)

    walker_sources = lattices._walker_sources
    monkeypatch.setattr(lattices, "_walker_sources", sources)
    assert short_vectors(e8_gram(), 4, jobs=3).counts == {1: 0, 2: 240, 3: 0, 4: 2160}
    assert len(built) == 1


def test_short_vectors_domain(monkeypatch):
    def no_walk(*args):
        raise RuntimeError("walk started")

    monkeypatch.setattr(lattices, "_walk", no_walk)
    g = GramMatrix.from_rows([[2]])
    with pytest.raises(ValueError):
        short_vectors(g, 0)
    with pytest.raises(ValueError):
        short_vectors(g, 2, jobs=0)
    # above the ceiling no walk starts
    with pytest.raises(ValueError, match=f"between 1 and {lattices.MAX_JOBS}"):
        short_vectors(g, 2, jobs=lattices.MAX_JOBS + 1)
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


# the simple roots of E8 in doubled coordinates: the half-integer root
# first, then e_0 + e_1 and the differences e_{i+1} - e_i
E8_SIMPLE_ROOTS_DOUBLED = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)


def test_e8_gram_is_the_gram_of_its_simple_roots():
    # the Dynkin diagram's Cartan matrix against the inner products of the
    # simple roots themselves, each a multiple of 4 in doubled coordinates
    roots = E8_SIMPLE_ROOTS_DOUBLED
    products = [[sum(x * y for x, y in zip(a, b)) for b in roots] for a in roots]
    assert all(p % 4 == 0 for row in products for p in row)
    assert e8_gram().entries == tuple(tuple(p // 4 for p in row) for row in products)


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


def glued_root_lattice(blocks):
    """The Gram of the sum of the lattices D_n^+, n in blocks (D_8^+ is E8):
    the hermite_normal_form of generators in doubled coordinates, the simple
    roots 2(e_i - e_{i+1}) and 2(e_{n-2} + e_{n-1}) of each D_n and its glue
    (1, ..., 1), the vector (1/2, ..., 1/2).  For n a multiple of 8 each
    D_n^+ is even unimodular, and _certify proves the sum so."""
    dim, generators, at = sum(blocks), [], 0
    for n in blocks:
        for i, j, c in [(i, i + 1, -2) for i in range(n - 1)] + [(n - 2, n - 1, 2)]:
            generators.append([2 * (k == at + i) + c * (k == at + j) for k in range(dim)])
        generators.append([int(at <= k < at + n) for k in range(dim)])
        at += n
    basis = [row for row in hermite_normal_form(generators)[0] if any(row)]
    products = [[sum(x * y for x, y in zip(a, b)) for b in basis] for a in basis]
    assert all(p % 4 == 0 for row in products for p in row)
    gram = GramMatrix.from_rows([[p // 4 for p in row] for row in products])
    _certify(gram, 1, (dim, 0, 0), "glued root lattice")
    return gram


@pytest.mark.parametrize(
    "blocks, counts",
    [
        ((8, 8, 8), (720, 179280, 16954560)),  # E8^3
        ((16, 8), (720, 179280, 16954560)),  # D16^+ + E8
        ((24,), (1104, 170064, 17051328)),  # D24^+
    ],
)
def test_rank_24_lattices_with_roots_match_their_theta_series(blocks, counts):
    # an even unimodular lattice of rank 24 has theta series E4^3 + (N_2 -
    # 720) Delta, N_2 its roots: series the walk does not touch.  Unlike
    # Leech these have roots, and D16^+ + E8 and D24^+ are not sums of E8s
    # but hold glue; each walks at norms 2 (one cut), 4 and 6 (the cascade)
    gram = glued_root_lattice(blocks)
    e4_cubed, disc = eisenstein_e4(4) ** 3, delta(4)
    series = [e4_cubed.coeff(k) + (counts[0] - 720) * disc.coeff(k) for k in (1, 2, 3)]
    assert series == list(counts)
    for max_norm in (2, 4, 6):
        want = {m: 0 if m % 2 else counts[m // 2 - 1] for m in range(1, max_norm + 1)}
        assert short_vectors(gram, max_norm).counts == want, max_norm


def test_leech_theta_norm_two_window():
    check = theta_check_leech(2)
    assert check.lattice == "leech"
    assert check.combination == (1, -720)
    assert [(r.norm, r.enumerated, r.series_coefficient) for r in check.rows] == [
        (2, 0, 0)
    ]
    assert check.ok


@pytest.mark.parametrize(
    "check, argv, even",
    [
        (theta_check_e8, ["e8", "--max-norm", "4"], {2: 240, 4: 2160}),
        (theta_check_leech, ["leech", "kissing", "--max-norm", "4"], {2: 0, 4: 196560}),
    ],
)
def test_theta_checks_fail_on_an_odd_norm(monkeypatch, capsys, check, argv, even):
    # counts that match the series at every even norm, with and without one
    # vector pair of norm 3: the odd count alone decides ok and the exit code
    for odd in (0, 2):
        counts = {1: 0, 2: even[2], 3: odd, 4: even[4]}
        monkeypatch.setattr(
            lattices, "short_vectors", lambda gram, max_norm: ShortVectorCount(4, counts)
        )
        result = check(4)
        assert all(r.matches for r in result.rows)
        assert result.ok == (not odd)
        assert main(argv) == (1 if odd else 0)
        assert json.loads(capsys.readouterr().out)["ok"] == (not odd)


def test_leech_theta_domain():
    with pytest.raises(ValueError):
        theta_check_leech(3)
    with pytest.raises(ValueError):
        theta_check_leech(8)


class Index:
    """An integer in the sense of operator.index, and of nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_lattices_follow_the_package_integer_rule():
    # max_norm and jobs pass operator.index, as every integer input of the
    # package does: an __index__ object counts, a bool is a plain int, and a
    # float is refused, not compared
    assert short_vectors(e8_gram(), Index(2)).counts == {1: 0, 2: 240}
    found = short_vectors(e8_gram(), True)
    assert type(found.max_norm) is int and found.max_norm == 1
    assert short_vectors(e8_gram(), 2, jobs=Index(2)).counts == {1: 0, 2: 240}
    g = GramMatrix.from_rows([[2]])
    with pytest.raises(ValueError, match="must be integers"):
        short_vectors(g, 2.0)
    with pytest.raises(ValueError, match="must be integers"):
        short_vectors(g, 2, jobs=2.0)
    e8 = theta_check_e8(Index(2))
    assert e8.ok and type(e8.counts.max_norm) is int and e8.counts.max_norm == 2
    leech = theta_check_leech(Index(2))
    assert leech.ok and type(leech.counts.max_norm) is int and leech.counts.max_norm == 2
    for check in (theta_check_e8, theta_check_leech):
        with pytest.raises(ValueError, match="must be integers"):
            check(Fraction(2))
