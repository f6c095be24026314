"""Exact lattice certification: LLL reduction on Gram matrices, short
vector enumeration, and theta-series cross checks.

Everything operates on Gram matrices only; no basis embedding and no
floating point arithmetic anywhere.  LLL with deep insertions (delta =
99/100) runs in integers on the leading minors and multipliers of the
fraction-free LDL^T, keeps the Gram matrix current through each step, and
returns both the reduced Gram matrix and the unimodular transform that
produced it.
Short vectors are counted with a scaled integer Fincke-Pohst search whose
hot loop touches nothing but Python ints, which keeps a 24-dimensional
norm-4 sweep in the low millions of nodes.  The search runs as Python
source generated for the form: one nested loop per level with the table
entries written in as literals, each level's centre kept up to date from
Schnorr-Euchner partial sums held in plain locals.  CPython compiles at
most 20 nested loops in one function, so the loops are cut into a chain of
functions, and each link is compiled on its own to keep the compiler's
peak memory at the size of one link.  Parallel runs deal the subtrees a
few levels below the top out to the workers.

The two theta checks share one comparison: enumerated counts per even norm
against independently computed series coefficients, and zero at every odd
norm.  For E8 the coefficients are 240 sigma_3(n); for the quotient lattice
the matching combination of E4^3 and Delta is derived on the spot from the
first two coefficients rather than hardcoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Sequence

from . import MAX_JOBS
from .modforms import delta, eisenstein_e4, sigma
from .lorentz import (
    ConstructionError,
    GramMatrix,
    bareiss_determinant,
    ldl,
    leech_gram,
)

# the enumeration splits into subtrees this many levels below the top: deep
# enough that Leech at norm 4 deals 1,043 subtrees out to the workers, shallow
# enough that each worker walks the levels above the split in milliseconds
SPLIT_DEPTH = 4


@dataclass(frozen=True)
class ReducedBasis:
    """LLL output: the reduced Gram matrix and the unimodular row transform
    such that transform . original . transform^T == gram."""

    gram: GramMatrix
    transform: tuple[tuple[int, ...], ...]


def lll(gram: GramMatrix) -> ReducedBasis:
    """LLL-reduce a positive definite Gram matrix with exact arithmetic.

    Cohen's integral LLL (GTM 138, Alg. 2.6.7) with the deep insertions of
    Schnorr and Euchner (Math. Programming 66, 1994) at delta = 99/100 keeps
    the leading minors d and the multipliers lam[k][j] = d[j+1] mu_kj of
    one ldl call, all integers, and the Gram matrix of the current rows up
    to date: a size reduction subtracts q times row l and then q times
    column l, a swap exchanges two rows and two columns.  Row k, size
    reduced against rows k-1 down to 0, moves to the first level i with
    |pi_i(b_k)|^2 < 99/100 B_i, as k - i swaps of neighbours.

    The loop ends: an insertion at level i leaves d[1..i] as they were and
    lowers d[i+1] by a factor below 99/100, so it lowers the tuple of
    positive ints (d[1], ..., d[n]) in lexicographic order, which is a
    well-order; between insertions k only grows.  The output is also
    LLL-reduced at 3/4 (is_lll_reduced).  Raises ValueError for a form that
    is not positive definite."""
    n = gram.dim
    if n == 0:
        raise ValueError("empty Gram matrix")
    g = [list(row) for row in gram.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d, lam = ldl(g)
    if len(d) <= n or min(d) <= 0:
        raise ValueError("not positive definite")

    def red(k: int, l: int) -> None:
        m, dl = lam[k][l], d[l + 1]
        if 2 * abs(m) <= dl:
            return
        # nearest integer to mu = m / dl, ties toward +infinity
        q = (2 * m + dl) // (2 * dl)
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        g[k] = [x - q * y for x, y in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        # exchange rows k-1 and k, then patch the minors and multipliers
        m = lam[k][k - 1]
        u[k], u[k - 1] = u[k - 1], u[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]  # the new d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        for l in range(k - 1, -1, -1):
            red(k, l)
        # D = d[i] |pi_i(b_k)|^2 from i = 0 up, one exact Bareiss step a level
        D, i = g[k][k], 0
        while i < k and 100 * D >= 99 * d[i + 1]:
            D = (D * d[i + 1] - lam[k][i] ** 2) // d[i]
            i += 1
        if i < k:
            # deep insertion: row k moves to row i, rows i..k-1 move up one
            for j in range(k, i, -1):
                swap(j)
            k = max(i, 1)
        else:
            k += 1

    return ReducedBasis(
        gram=GramMatrix.from_rows(g),
        transform=tuple(tuple(row) for row in u),
    )


def is_lll_reduced(gram: GramMatrix) -> bool:
    """Check size reduction and the Lovasz condition at 3/4 directly on a
    Gram matrix, recomputing the orthogonalization from scratch with d, lam
    = ldl(G).  These are the classical LLL conditions; the output of lll
    meets them, since its deep-insertion test at 99/100 on the level just
    below k is a Lovasz test stronger than 3/4."""
    d, lam = ldl(gram.entries)
    n = gram.dim
    return (
        len(d) > n
        and min(d) > 0
        and all(2 * abs(lam[k][j]) <= d[j + 1] for k in range(n) for j in range(k))
        and all(
            4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2 for k in range(1, n)
        )
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
    """Quadratic-completion tables for Q(x) = sum_i B_i (x_i + sum_{j>i} mu_ji x_j)^2,
    B_i = d[i+1] / d[i] and mu_ji = lam[j][i] / d[i+1] from d, lam =
    ldl(entries), scaled to pure integers.

    Returns (rows, step, scale).  L_i = rows[i][i] is the lcm of the reduced
    denominators d[i+1] / gcd(lam[j][i], d[i+1]) of mu_ji (j > i), so
    rows[i][j] = L_i mu_ji are integers; the scale T is the lcm of the
    reduced denominators of B_i / L_i^2, so every step[i] = T B_i / L_i^2 is
    an integer, and T Q(x) = sum_i step[i] (sum_{j>=i} rows[i][j] x_j)^2.
    """
    d, lam = ldl(entries)
    n = len(entries)
    if len(d) <= n or min(d) <= 0:
        raise ValueError("not positive definite")
    rows, dens = [], []
    for i in range(n):
        p = d[i + 1]
        l = lcm(1, *(p // gcd(lam[j][i], p) for j in range(i + 1, n)))
        rows.append([0] * i + [l] + [lam[j][i] * l // p for j in range(i + 1, n)])
        dens.append(d[i] * l * l)
    # B_i / L_i^2 = d[i+1] / dens[i]
    scale = lcm(*(q // gcd(p, q) for p, q in zip(d[1:], dens)))
    return rows, [scale * p // q for p, q in zip(d[1:], dens)], scale


def _plus(expr: str | None, coeff: int, name: str) -> str | None:
    # source for expr + coeff * name, where None stands for 0
    if not coeff:
        return expr
    return f"{coeff} * {name}" if expr is None else f"{expr} + {coeff} * {name}"


def _walker_links(rows, step, scale) -> list[str]:
    """Python source of the walker for these tables: one chain link per
    string, link 0 first.  The source is a pure function of the tables.

    Every level is one `for x_i in range(lo, hi + 1)` loop with the table
    entries written in as literals.  A node at level i computes only its
    child's centre and range, and skips an empty range; a descent also
    brings the lower rows' partial sums s{k}_{i} = sum_{j>=i} rows[k][j] x_j
    up to date (Schnorr-Euchner), all of them plain locals.  CPython
    compiles at most 20 nested loops in one function, so the levels are cut
    into links: link 0 runs from the top down to the split level, and below
    it the links hold at most 20 levels, the lowest one full, so a call from
    one link to the next happens at a descent high up, where nodes are few.
    """
    n = len(rows)
    top = n - 1
    split = max(top - SPLIT_DEPTH, 0)
    line = [row[i] for i, row in enumerate(rows)]
    # the levels that start a link below link 0
    heads = {i for i in range(split) if i == split - 1 or i % 20 == 19}
    # isqrt=isqrt makes isqrt a local of every link
    out = [
        "def _link0(budget, workers, index, isqrt=isqrt):",
        "    counts = {}",
        "    subtrees = 0",
        f"    hi = isqrt(budget // {step[top]}) // {line[top]}",
        f"    for x{top} in range(hi + 1):",
    ]
    links = [out]
    pad = " " * 8
    remaining, centre = "budget", None
    # sums[k]: the name of sum_{j>i} rows[k][j] x_j at level i, None for 0
    sums: list[str | None] = [None] * n
    for i in range(top, -1, -1):
        if i in heads:
            params = ", ".join(
                dict.fromkeys(
                    ["budget", "counts", "lo", "hi", remaining]
                    + [name for name in [centre, *sums[:i]] if name]
                )
            )
            out.append(f"{pad}_link{len(links)}({params})")
            out = [f"def _link{len(links)}({params}, isqrt=isqrt):"]
            links.append(out)
            pad = "    "
        if i < top:
            out.append(f"{pad}for x{i} in range(lo, hi + 1):")
            pad += "    "
        if i == split:
            out += [
                f"{pad}subtrees += 1",
                f"{pad}if (subtrees - 1) % workers != index:",
                f"{pad}    continue",
            ]
        out.append(f"{pad}y = {_plus(centre, line[i], f'x{i}')}")
        rest = f"{remaining} - {step[i]} * (y * y)"
        if i == 0:
            out += [
                f"{pad}used = budget - ({rest})",
                f"{pad}if used > 0:",
                f"{pad}    norm, r = divmod(used, {scale})",
                f"{pad}    if r:",
                f'{pad}        raise ConstructionError("scaled norm is not a multiple of the scale")',
                f"{pad}    counts[norm] = counts.get(norm, 0) + 2",
            ]
            break
        remaining = f"R{i - 1}"
        out.append(f"{pad}{remaining} = {rest}")
        centre = _plus(sums[i - 1], rows[i - 1][i], f"x{i}")
        if centre is not None and not centre.isidentifier():
            out.append(f"{pad}c{i - 1} = {centre}")
            centre = f"c{i - 1}"
        low, high = (f"m + {centre}", f"m - {centre}") if centre else ("m", "m")
        out += [
            f"{pad}m = isqrt({remaining} // {step[i - 1]})",
            f"{pad}lo = -(({low}) // {line[i - 1]})",
            f"{pad}hi = ({high}) // {line[i - 1]}",
            f"{pad}if lo > hi:",
            f"{pad}    continue",
            # every step is positive, so the coordinates above are all zero
            # exactly when none of the budget is used: the +-v rule
            f"{pad}if {remaining} == budget and lo < 0:",
            f"{pad}    lo = 0",
        ]
        for k in range(i - 1):
            if rows[k][i]:
                out.append(f"{pad}s{k}_{i} = {_plus(sums[k], rows[k][i], f'x{i}')}")
                sums[k] = f"s{k}_{i}"
    links[0].append("    return counts, subtrees")
    return ["\n".join(link) + "\n" for link in links]


@lru_cache(maxsize=1)
def _walker(rows, step, scale):
    """The walker for these tables (as tuples, the cache key), compiled once
    per process: the counting walk of short_vectors builds it before the
    pool starts, so forked workers inherit it.  Each chain link is compiled
    on its own, so the compiler never holds the syntax tree of the whole
    walker at once."""
    namespace = {"isqrt": isqrt, "ConstructionError": ConstructionError}
    for k, source in enumerate(_walker_links(rows, step, scale)):
        exec(compile(source, f"<walker link {k}>", "exec"), namespace)
    return namespace["_link0"]


def _walk(args) -> tuple[dict[int, int], int]:
    """Count the vectors with T Q(x) <= budget, walking the completion
    levels from last to first.  Each vector found stands for its +-v pair
    (the one whose last nonzero coordinate is positive, so a level whose
    higher coordinates are all zero starts at 0), so leaves add 2.

    The nodes at level SPLIT_DEPTH below the top (level 0 at the least) root
    the subtrees, numbered in walk order.  The walk descends only into
    subtree k with k % workers == index, so indices 0..workers-1 share the
    count out and an index outside that range walks only the levels above
    the split.  Returns the counts by norm and the number of subtrees.

    The walk runs as nested loops generated for these tables by
    _walker_links, which saves the interpreter the list lookups of a
    table-driven loop.
    """
    rows, step, scale, budget, workers, index = args
    link0 = _walker(tuple(map(tuple, rows)), tuple(step), scale)
    return link0(budget, workers, index)


def _pool(workers: int):
    """A pool of that many worker processes; its module is imported only
    here, so that serial runs never load multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


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
        with _pool(workers) as pool:
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
    if not gram.is_positive_definite:
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
    counts carries the full enumeration result, max_norm included; ok also
    requires every odd norm count to vanish.
    """

    lattice: str
    combination: tuple[int, int] | None
    counts: ShortVectorCount
    rows: tuple[ThetaRow, ...]
    ok: bool


def _theta(lattice: str, found: ShortVectorCount, combination, expected) -> ThetaCheck:
    """The check of found against expected(n), the series count of norm 2n,
    for every even norm up to found.max_norm; ok also needs every odd norm
    count to vanish."""
    rows = []
    for nn in range(1, found.max_norm // 2 + 1):
        want = expected(nn)
        enum = found.counts[2 * nn]
        rows.append(ThetaRow(2 * nn, enum, want, enum == want))
    odd = (found.counts[m] for m in range(1, found.max_norm + 1, 2))
    ok = all(r.matches for r in rows) and not any(odd)
    return ThetaCheck(lattice, combination, found, tuple(rows), ok)


def theta_check_leech(max_norm: int = 4, jobs: int = 1) -> ThetaCheck:
    """Compare quotient-lattice counts with the weight-12 combination of
    E4^3 and Delta whose expansion starts 1 + 0 q.

    The combination is solved for at run time from the first two
    coefficients of the two forms; nothing about the answer is assumed.
    """
    if max_norm not in (2, 4, 6):
        raise ValueError("max_norm must be 2, 4 or 6")
    found = short_vectors(leech_gram(), max_norm, jobs=jobs)
    order = max(max_norm // 2 + 1, 2)
    e4_cubed = eisenstein_e4(order) ** 3
    disc = delta(order)
    system = [
        [e4_cubed.coeff(0), disc.coeff(0)],
        [e4_cubed.coeff(1), disc.coeff(1)],
    ]
    # Cramer's rule for system . (a, b) = (1, 0): the numerators are cofactors
    det = bareiss_determinant(system)
    num_a, num_b = system[1][1], -system[1][0]
    if det == 0 or num_a % det or num_b % det:
        raise ConstructionError("weight-12 combination is not integral")
    a, b = num_a // det, num_b // det
    return _theta("leech", found, (a, b), lambda nn: a * e4_cubed.coeff(nn) + b * disc.coeff(nn))


def theta_check_e8(max_norm: int = 4, jobs: int = 1) -> ThetaCheck:
    """Compare E8 counts with the classical formula: 240 sigma_3(n) vectors
    of norm 2n."""
    if max_norm < 2 or max_norm % 2:
        raise ValueError("max_norm must be a positive even integer")
    found = short_vectors(e8_gram(), max_norm, jobs=jobs)
    return _theta("e8", found, None, lambda nn: 240 * sigma(3, nn))
