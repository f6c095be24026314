"""Exact lattice certification: LLL reduction on Gram matrices, short
vector enumeration, and theta-series cross checks.

Everything operates on Gram matrices only; no basis embedding and no
floating point arithmetic anywhere.  LLL runs over Fractions and returns
both the reduced Gram matrix and the unimodular transform that produced it.
Short vectors are counted with a scaled integer Fincke-Pohst search whose
hot loop touches nothing but Python ints, which keeps a 24-dimensional
norm-4 sweep in the low millions of nodes.  Each level's centre is kept up
to date incrementally from Schnorr-Euchner partial sums, and parallel runs
deal the subtrees a few levels below the top out to the workers.

The theta checks compare enumerated counts per norm with coefficients of
weight-12 modular forms computed independently in the series modules; for
the quotient lattice the matching combination of E4^3 and Delta is derived
on the spot from the first two coefficients rather than hardcoded.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Sequence

from .modforms import delta, eisenstein_e4, sigma
from .lorentz import (
    ConstructionError,
    GramMatrix,
    bareiss_determinant,
    inertia,
    ldl,
    leech_gram,
)

DEFAULT_DELTA = Fraction(3, 4)
# the enumeration splits into subtrees this many levels below the top: deep
# enough that Leech at norm 4 deals 1,483 subtrees out to the workers, shallow
# enough that each worker walks the levels above the split in milliseconds
SPLIT_DEPTH = 4
# jobs N starts up to N worker processes (one per subtree at most)
MAX_JOBS = 64


@dataclass(frozen=True)
class ReducedBasis:
    """LLL output: the reduced Gram matrix and the unimodular row transform
    such that transform . original . transform^T == gram."""

    gram: GramMatrix
    transform: tuple[tuple[int, ...], ...]


def _round_half_up(m: Fraction) -> int:
    # nearest integer, ties toward +infinity: floor(m + 1/2)
    return (2 * m.numerator + m.denominator) // (2 * m.denominator)


def lll(gram: GramMatrix, delta: Fraction = DEFAULT_DELTA) -> ReducedBasis:
    """LLL-reduce a positive definite Gram matrix with exact arithmetic.

    Raises ValueError for a form that is not positive definite or a
    reduction parameter outside (1/4, 1).
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("reduction parameter must lie strictly between 1/4 and 1")
    n = gram.dim
    if n == 0:
        raise ValueError("empty Gram matrix")
    g0 = gram.entries
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def ip(i: int, j: int) -> int:
        # <b_i, b_j> for the current rows, straight from the original form
        row_j = u[j]
        acc = 0
        for a in range(n):
            uia = u[i][a]
            if uia:
                g0a = g0[a]
                acc += uia * sum(g0a[b] * row_j[b] for b in range(n) if row_j[b])
        return acc

    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n
    big_b[0] = Fraction(ip(0, 0))
    if big_b[0] <= 0:
        raise ValueError("not positive definite")

    def red(k: int, l: int) -> None:
        m = mu[k][l]
        if 2 * abs(m) <= 1:
            return
        q = _round_half_up(m)
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                s = Fraction(ip(k, j))
                for i in range(j):
                    s -= mu[j][i] * mu[k][i] * big_b[i]
                if j < k:
                    mu[k][j] = s / big_b[j]
                else:
                    if s <= 0:
                        raise ValueError("not positive definite")
                    big_b[k] = s
        red(k, k - 1)
        if big_b[k] < (delta - mu[k][k - 1] ** 2) * big_b[k - 1]:
            # swap rows k-1 and k, then patch the GSO data in place
            u[k], u[k - 1] = u[k - 1], u[k]
            m = mu[k][k - 1]
            bp = big_b[k] + m * m * big_b[k - 1]
            mu[k][k - 1] = m * big_b[k - 1] / bp
            big_b[k] = big_b[k - 1] * big_b[k] / bp
            big_b[k - 1] = bp
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, kmax + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1

    reduced = [[ip(i, j) for j in range(n)] for i in range(n)]
    return ReducedBasis(
        gram=GramMatrix.from_rows(reduced),
        transform=tuple(tuple(row) for row in u),
    )


def is_lll_reduced(gram: GramMatrix, delta: Fraction = DEFAULT_DELTA) -> bool:
    """Check size reduction and the Lovasz condition directly on a Gram
    matrix, recomputing the orthogonalization from scratch: with
    d, q = ldl(G), the squared lengths are d[k] and mu_kj = q[j][k]."""
    delta = Fraction(delta)
    d, q = ldl(gram.entries)
    n = gram.dim
    return (
        all(b > 0 for b in d)
        and all(2 * abs(q[j][k]) <= 1 for k in range(n) for j in range(k))
        and all(d[k] >= (delta - q[k - 1][k] ** 2) * d[k - 1] for k in range(1, n))
    )


@dataclass(frozen=True)
class ShortVectorCount:
    """Vector counts per exact norm value, 1 through max_norm inclusive.

    Counts include both members of each +-v pair; the zero vector is
    excluded.  Norms that do not occur are present with count 0.
    """

    max_norm: int
    counts: dict[int, int]


def _fincke_pohst_tables(entries: Sequence[Sequence[int]]):
    """Quadratic-completion tables for Q(x) = sum_i d_i (x_i + sum_{j>i} q_ij x_j)^2,
    the d, q = ldl(entries) form, scaled to pure integers.

    Returns (rows, step, scale).  L_i = rows[i][i] is the lcm of the
    denominators of q_ij (j > i), so rows[i][j] = L_i q_ij are integers; the
    scale T is the lcm of the denominators of d_i / L_i^2 (a divisor of
    lcm_i(den(d_i) L_i^2)), so every step[i] = T d_i / L_i^2 is an integer,
    and T Q(x) = sum_i step[i] (sum_{j>=i} rows[i][j] x_j)^2.
    """
    d, q = ldl(entries)
    if any(p <= 0 for p in d):
        raise ValueError("not positive definite")
    rows = []
    for i in range(len(d)):
        l = lcm(1, *(x.denominator for x in q[i][i + 1 :]))
        rows.append([l if j == i else int(x * l) for j, x in enumerate(q[i])])
    weights = [p / rows[i][i] ** 2 for i, p in enumerate(d)]
    scale = lcm(*(w.denominator for w in weights))
    step = [int(scale * w) for w in weights]
    return rows, step, scale


def _walk(args) -> tuple[dict[int, int], int]:
    """Count the vectors with T Q(x) <= budget, walking the completion
    levels from last to first.  Each vector found stands for its +-v pair
    (the one whose last nonzero coordinate is positive), so leaves add 2.

    The nodes at level SPLIT_DEPTH below the top (level 0 at the least) root
    the subtrees, numbered in walk order.  The walk descends only into
    subtree k with k % workers == index, so indices 0..workers-1 share the
    count out and an index outside that range walks only the levels above
    the split.  Returns the counts by norm and the number of subtrees.

    Centres are kept incrementally: sig[i][j] = sum_{k>=j} rows[i][k] x_k,
    and no x_j with j > stale[i] has changed since row i was last brought up
    to date, so a descent refreshes only sig[i][stale[i]] down to
    sig[i][i+1] (Schnorr-Euchner partial sums).
    """
    rows, step, scale, budget, workers, index = args
    n = len(rows)
    top = n - 1
    split = max(top - SPLIT_DEPTH, 0)
    line = [row[i] for i, row in enumerate(rows)]
    sig = [[0] * (n + 1) for _ in range(n)]
    stale = [top] * n
    counts: dict[int, int] = {}
    subtrees = 0
    x = [0] * n
    remaining = [0] * n
    centre = [0] * n
    hi = [0] * n
    zero_prefix = [False] * n

    remaining[top] = budget
    zero_prefix[top] = True
    hi[top] = isqrt(budget // step[top]) // line[top]
    x[top] = -1
    level = top
    while True:
        xi = x[level] + 1
        if xi > hi[level]:
            level += 1
            if level == n:
                break
            stale[level - 1] = level
            continue
        x[level] = xi
        y = line[level] * xi + centre[level]
        rem = remaining[level] - step[level] * y * y
        if level == split:
            subtrees += 1
            if (subtrees - 1) % workers != index:
                continue
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
            # at nxt == 0 this writes stale[top], which no descent reads
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
    return counts, subtrees


def short_vectors(gram: GramMatrix, max_norm: int, jobs: int = 1) -> ShortVectorCount:
    """Count all lattice vectors of each norm 1..max_norm.

    The Gram matrix is LLL-reduced first; the enumeration then works on the
    reduced form, which leaves counts unchanged.  jobs > 1 deals the
    subtrees SPLIT_DEPTH levels below the top out to min(jobs, subtrees)
    worker processes; the counts are merged in worker order, so they do not
    depend on jobs.  jobs must lie in 1..MAX_JOBS.
    """
    if not isinstance(max_norm, int) or max_norm < 1:
        raise ValueError("max_norm must be a positive integer")
    if not isinstance(jobs, int) or not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be an integer between 1 and {MAX_JOBS}")
    reduced = lll(gram)
    rows, step, scale = _fincke_pohst_tables(reduced.gram.entries)
    budget = max_norm * scale
    workers = 1
    if jobs > 1:
        # index -1 owns no subtree: this walk only counts them
        _, subtrees = _walk((rows, step, scale, budget, 1, -1))
        workers = min(jobs, subtrees)
    arglist = [(rows, step, scale, budget, workers, i) for i in range(workers)]
    if workers == 1:
        parts = [_walk(arglist[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_walk, arglist))
    merged: dict[int, int] = {}
    for part, _ in parts:
        for norm, cnt in part.items():
            merged[norm] = merged.get(norm, 0) + cnt
    counts = {m: merged.get(m, 0) for m in range(1, max_norm + 1)}
    return ShortVectorCount(max_norm=max_norm, counts=counts)


# -- reference lattices and theta checks --------------------------------------

# simple roots in doubled coordinates: the half-integer root first, then
# e_0 + e_1 and the differences e_{i+1} - e_i
_E8_SIMPLE_ROOTS = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)


@lru_cache(maxsize=1)
def e8_gram() -> GramMatrix:
    """Gram matrix of the E8 root lattice from its simple roots; checked to
    be even with determinant 1."""
    n = len(_E8_SIMPLE_ROOTS)
    entries = []
    for a in _E8_SIMPLE_ROOTS:
        row = []
        for b in _E8_SIMPLE_ROOTS:
            s = sum(x * y for x, y in zip(a, b))
            if s % 4:
                raise ConstructionError("root coordinates are not on the doubled grid")
            row.append(s // 4)
        entries.append(row)
    gram = GramMatrix.from_rows(entries)
    if not gram.is_even:
        raise ConstructionError("E8 Gram must be even")
    if bareiss_determinant(gram.entries) != 1:
        raise ConstructionError("E8 Gram determinant must be 1")
    if inertia(gram.entries) != (n, 0, 0):
        raise ConstructionError("E8 Gram must be positive definite")
    return gram


@dataclass(frozen=True)
class ThetaRow:
    """One norm compared between enumeration and a series coefficient."""

    norm: int
    enumerated: int
    series_coefficient: int
    matches: bool


@dataclass(frozen=True)
class ThetaCheck:
    """Enumerated counts against independently computed theta coefficients.

    combination is (a, b) for the weight-12 form a E4^3 + b Delta when one
    is derived, None when the expected counts come from a closed formula.
    counts carries the full enumeration result; ok also requires every odd
    norm count to vanish.
    """

    lattice: str
    max_norm: int
    combination: tuple[int, int] | None
    counts: ShortVectorCount
    rows: tuple[ThetaRow, ...]
    ok: bool


def _odd_norms_vanish(found: ShortVectorCount) -> bool:
    return all(found.counts[m] == 0 for m in range(1, found.max_norm + 1, 2))


def theta_check_leech(max_norm: int = 4, jobs: int = 1) -> ThetaCheck:
    """Compare quotient-lattice counts with the weight-12 combination of
    E4^3 and Delta whose expansion starts 1 + 0 q.

    The combination is solved for at run time from the first two
    coefficients of the two forms; nothing about the answer is assumed.
    """
    if max_norm not in (2, 4, 6):
        raise ValueError("max_norm must be 2, 4 or 6")
    found = short_vectors(leech_gram(), max_norm, jobs=jobs)
    half = max_norm // 2
    order = max(half + 1, 2)
    e4_cubed = eisenstein_e4(order) ** 3
    disc = delta(order)
    system = [
        [e4_cubed.coeff(0), disc.coeff(0)],
        [e4_cubed.coeff(1), disc.coeff(1)],
    ]
    # Cramer's rule for system . (a, b) = (1, 0)
    det = bareiss_determinant(system)
    num_a = bareiss_determinant([[1, system[0][1]], [0, system[1][1]]])
    num_b = bareiss_determinant([[system[0][0], 1], [system[1][0], 0]])
    if det == 0 or num_a % det or num_b % det:
        raise ConstructionError("weight-12 combination is not integral")
    a, b = num_a // det, num_b // det
    rows = []
    for nn in range(1, half + 1):
        coeff = a * e4_cubed.coeff(nn) + b * disc.coeff(nn)
        enum = found.counts[2 * nn]
        rows.append(ThetaRow(2 * nn, enum, coeff, enum == coeff))
    ok = all(r.matches for r in rows) and _odd_norms_vanish(found)
    return ThetaCheck("leech", max_norm, (a, b), found, tuple(rows), ok)


def theta_check_e8(max_norm: int = 4, jobs: int = 1) -> ThetaCheck:
    """Compare E8 counts with the classical formula: 240 sigma_3(n) vectors
    of norm 2n."""
    if max_norm < 2 or max_norm % 2:
        raise ValueError("max_norm must be a positive even integer")
    found = short_vectors(e8_gram(), max_norm, jobs=jobs)
    rows = []
    for nn in range(1, max_norm // 2 + 1):
        expected = 240 * sigma(3, nn)
        enum = found.counts[2 * nn]
        rows.append(ThetaRow(2 * nn, enum, expected, enum == expected))
    ok = all(r.matches for r in rows) and _odd_norms_vanish(found)
    return ThetaCheck("e8", max_norm, None, found, tuple(rows), ok)
