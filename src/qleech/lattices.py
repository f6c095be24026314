"""Exact lattice certification: LLL reduction on Gram matrices, short
vector enumeration, and theta-series cross checks.

Everything operates on Gram matrices only; no basis embedding and no
floating point arithmetic anywhere.  LLL with deep insertions (delta =
99/100) runs in integers on the leading minors and multipliers of the
fraction-free LDL^T alone and logs its steps, from which it rebuilds both
the reduced Gram matrix and the unimodular transform that produced it.
Short vectors are counted with a scaled integer Fincke-Pohst search whose
hot loop touches nothing but Python ints.  It runs as a cascade of phases
split at cut levels, every two levels from norm 4 up: each phase walks the
distinct states (remaining budget, coset of the partial sums, named by a
linear key, built for every level in one pass) that the phase above
tallied, each once and weighted by its tally, and tallies the states at
the next cut: about 32,000 nodes for a 24-dimensional norm-4 sweep.
Every phase runs as one function of Python source generated for the
form: one nested loop per level, table entries written in as literals,
Schnorr-Euchner partial sums in plain locals, each phase compiled on its
own.  The cut levels keep a phase to 20 levels, the most nested loops
CPython compiles in one function.  The whole walk runs in one process.

The two theta checks share one comparison: enumerated counts per even norm
against independently computed series coefficients, and zero at every odd
norm.  For E8 the coefficients are 240 sigma_3(n); for the quotient lattice
the matching combination of E4^3 and Delta is derived on the spot from the
first two coefficients rather than hardcoded.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt, lcm, prod
from operator import mul

from . import MAX_JOBS, _Value, _integer, _integers
from .modforms import delta, eisenstein_e4, sigma
from .lorentz import (
    ConstructionError,
    GramMatrix,
    _certify,
    ldl,
    leech_gram,
    xgcd,
)


class ReducedBasis(_Value):
    """LLL output: the reduced GramMatrix gram and the unimodular row transform,
    a tuple of tuples of ints, such that transform . original . transform^T == gram."""

    __slots__ = ("gram", "transform")


def lll(gram: GramMatrix) -> ReducedBasis:
    """LLL-reduce a positive definite Gram matrix with exact arithmetic.

    Cohen's integral LLL (GTM 138, Alg. 2.6.7) with the deep insertions of
    Schnorr and Euchner (Math. Programming 66, 1994) at delta = 99/100 keeps
    only the leading minors d and the multipliers lam[k][j] = d[j+1] mu_kj
    of one ldl call, all integers.  Row k, size reduced against rows k-1
    down to 0, moves to the first level i with |pi_i(b_k)|^2 < 99/100 B_i,
    as k - i swaps of neighbours; D_i = d[i] |pi_i(b_k)|^2 runs downward
    from D_k = d[k+1], one exact Bareiss step a level taken backwards.  The
    loop logs its unimodular steps, and lll replays the log onto the
    identity to get the transform U and forms the reduced Gram as U G U^T.

    The loop ends: an insertion at level i leaves d[1..i] as they were and
    lowers d[i+1] by a factor below 99/100, so it lowers the tuple of
    positive ints (d[1], ..., d[n]) in lexicographic order, which is a
    well-order; between insertions k only grows.  The output is also
    LLL-reduced at 3/4 (is_lll_reduced).  Raises ValueError for a form that
    is not positive definite."""
    u = [[int(i == j) for j in range(gram.dim)] for i in range(gram.dim)]
    for k, l, q in _lll(gram)[2]:
        if q:
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        else:
            u[k], u[l] = u[l], u[k]
    # G is symmetric, so its rows are its columns
    ug = [[sum(map(mul, row, col)) for col in gram.entries] for row in u]
    reduced = [[sum(map(mul, a, b)) for b in u] for a in ug]
    return ReducedBasis(GramMatrix.from_rows(reduced), tuple(map(tuple, u)))


def _lll(gram: GramMatrix):
    """lll's loop on d and lam alone: the minors and multipliers it ends
    with, those of ldl on the reduced rows, and the log of its steps, (k, l,
    q) for row k less q times row l and (k, k - 1, 0) for the swap of rows
    k - 1 and k."""
    n = gram.dim
    if n == 0:
        raise ValueError("empty Gram matrix")
    d, lam = ldl(gram.entries)
    if len(d) <= n or min(d) <= 0:
        raise ValueError("not positive definite")
    steps = []

    def red(k: int, l: int) -> None:
        m, dl = lam[k][l], d[l + 1]
        if 2 * abs(m) <= dl:
            return
        # nearest integer to mu = m / dl, ties toward +infinity
        q = (2 * m + dl) // (2 * dl)
        steps.append((k, l, q))
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        # exchange rows k-1 and k, then patch the minors and multipliers
        m = lam[k][k - 1]
        steps.append((k, k - 1, 0))
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
        # D = d[j] |pi_j(b_k)|^2 from D_k = d[k+1] down, the exact Bareiss
        # step run backwards; i is the lowest level where 100 D < 99 d[i+1]
        D, i, row = d[k + 1], k, lam[k]
        for j in range(k - 1, -1, -1):
            D = (D * d[j] + row[j] * row[j]) // d[j + 1]
            if 100 * D < 99 * d[j + 1]:
                i = j
        if i < k:
            # deep insertion: row k moves to row i, rows i..k-1 move up one
            for j in range(k, i, -1):
                swap(j)
            k = max(i, 1)
        else:
            k += 1
    return d, lam, steps


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


class ShortVectorCount(_Value):
    """Vector counts per exact norm value, 1 through the int max_norm
    inclusive, in counts, a dict from int norms to int counts.

    Counts include both members of each +-v pair; the zero vector is
    excluded.  Norms that do not occur are present with count 0.
    """

    __slots__ = ("max_norm", "counts")


def _fincke_pohst_tables(d: Sequence[int], lam: Sequence[Sequence[int]]):
    """Quadratic-completion tables for Q(x) = sum_i B_i (x_i + sum_{j>i} mu_ji x_j)^2,
    B_i = d[i+1] / d[i] and mu_ji = lam[j][i] / d[i+1], scaled to pure
    integers, from the minors d and multipliers lam that ldl or _lll gives.

    Returns (rows, step, scale).  L_i = rows[i][i] is the lcm of the reduced
    denominators d[i+1] / gcd(lam[j][i], d[i+1]) of mu_ji (j > i), so
    rows[i][j] = L_i mu_ji are integers; the scale T is the lcm of the
    reduced denominators of B_i / L_i^2, so every step[i] = T B_i / L_i^2 is
    an integer, and T Q(x) = sum_i step[i] (sum_{j>=i} rows[i][j] x_j)^2.
    """
    n = len(lam)
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


def _cut_levels(n: int, max_norm: int) -> tuple[int, ...]:
    """The levels, from the top down, at which the walk of an n-dimensional
    form up to max_norm changes phase, in 0..n-1 (the top phase is empty
    when the first is n-1).  From norm 4 up a cut every two levels from
    4n // 5 down to n // 5: 19, 17, ..., 5 on Leech, which visit a sixteenth
    of the nodes of one cut at 14.  Below norm 4 the states repeat too
    little for a cut to pay for its tallies, and one cut at 3n // 5 (14 on
    Leech) walks fastest.  Cuts every 20 levels, from n - 21 down above
    these and from the last of them - 20 down below, keep each phase within
    the 20 nested loops CPython compiles in one function."""
    cuts = (3 * n // 5,) if max_norm < 4 else range(4 * n // 5, n // 5 - 1, -2)
    return (*range(n - 21, cuts[0], -20), *cuts, *range(cuts[-1] - 20, -1, -20))


def _plus(expr: str | None, coeff: int, name: str) -> str | None:
    # source for expr + coeff * name, where None stands for 0
    if not coeff:
        return expr
    return f"{coeff} * {name}" if expr is None else f"{expr} + {coeff} * {name}"


def _coset_keys(rows, top: int) -> list[list[tuple[list[int], int]]]:
    """For K = 0..top, a key of G_K = Z^{K+1} / B Z^{K+1}, B = rows[0..K][0..K]:
    pairs (u, e), e > 1, as many as G_K's rank, with t, t' in one coset
    exactly when u . (t - t') = 0 mod e for each.  From level K-1's key,
    row operations on [A | U], A = [[diag(e), w], [0, L_K]], w_c = u_c .
    rows[0..K-1][K] mod e_c, U's rows [u_c, 0] and [0, 1], and column
    operations on A make A diagonal in plain integers (Cohen, GTM 138,
    2.4.4); they keep |det A| = D = prod L_j, so e_c = gcd(A[c][c], D) =
    |A[c][c]| for a triangular table.  Then moduli x, y (y later, x not
    dividing y) become g = gcd(x, y) = s x + t y and l = lcm(x, y), keyed by
    s u_x + t u_y and ((x - l t) u_y - (y + l s) u_x) / g: a divisor chain.  Raises
    ConstructionError for an entry below the diagonal or prod e_c != D."""
    keys, key, order, columns = [], [], 1, list(zip(*rows))
    for level in range(top + 1):
        order *= rows[level][level]
        n = len(key) + 1
        w = [sum(map(mul, u, columns[level])) % e for u, e in key]
        a = [[e * (c == j) for j in range(n - 1)] + [w[c], *u, 0] for c, (u, e) in enumerate(key)]
        a.append([0] * (n - 1) + [rows[level][level]] + [0] * level + [1])
        for k in range(n):
            while any(a[i][k] for i in range(k + 1, n)) or any(a[k][k + 1 : n]):
                if any(a[i][k] for i in range(k + 1, n)):
                    p = min((i for i in range(k, n) if a[i][k]), key=lambda i: abs(a[i][k]))
                    a[k], a[p] = a[p], a[k]
                    for i in range(k + 1, n):
                        if q := a[i][k] // a[k][k]:
                            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                else:
                    p = min((j for j in range(k, n) if a[k][j]), key=lambda j: abs(a[k][j]))
                    for row in a[k:]:
                        row[k], row[p] = row[p], row[k]
                    qs = [(j, q) for j in range(k + 1, n) if (q := a[k][j] // a[k][k])]
                    for row in a[k:]:
                        for j, q in qs:
                            row[j] -= q * row[k]
        moduli = [gcd(a[k][k], order) for k in range(n)]
        if any(rows[level][:level]) or prod(moduli) != order:
            raise ConstructionError("coset key does not match the order of the block group")
        key = [([v % e for v in row[n:]], e) for row, e in zip(a, moduli) if e > 1]
        for k in range(len(key)):
            for i in range(k + 1, len(key)):
                (u, x), (v, y) = key[k], key[i]
                if y % x:
                    (g, s, t), l = xgcd(x, y), lcm(x, y)
                    key[k] = ([(s * p + t * q) % g for p, q in zip(u, v)], g)
                    key[i] = ([((x - l * t) * q - (y + l * s) * p) // g % l for p, q in zip(u, v)], l)
        keys.append(key := [(u, e) for u, e in key if e > 1])
    return keys


def _walker_sources(rows, step, cuts) -> list[str]:
    """Python source of the walker for these tables and cut levels, one
    phase per string; the source is a pure function of its inputs.

    The walk runs in phases split at the cut levels.  Below a cut K the
    count of a subtree depends only on the remaining budget R and on the
    coset of the partial sums t_k = sum_{j>K} rows[k][j] x_j (k <= K)
    modulo the lattice of the block rows[0..K][0..K], as moving x_0..x_K by
    a vector of Z^{K+1} is a bijection of subtrees.  So each phase walks
    the distinct states its input holds, one at a time:
    _p{p}(budget, tally, times, R, t_a, ..., t_0) walks levels a..K+1
    below the state (R, t) at level a, its first level (the top phase has
    a = n-1 and no t), and at each descent into its cut K adds times to
    tally[(R, w)] = [times, (R, t_K, ..., t_0)], w the key of t by the
    level-K pairs of _coset_keys.  The state first seen with a key is
    stored, in one entry under both (R, w) and (R, -w mod e): x -> -x maps
    the subtree of (R, t) onto that of (R, -t), so the two count alike, and
    a later descent of either sign finds the entry by one lookup.  The last
    phase walks levels K..0 into the cut -1, whose key is empty: each leaf
    adds times to tally[(R,)] = [times, (R,)], R the budget it leaves, and
    short_vectors reads the norms from that tally.

    One per-level emitter writes every phase: m = isqrt(R_{i+1} // step_i),
    R_{i+1} the budget left above level i, then a `for x_i in range(...)`
    loop whose range, the +-v clamp included, sits in its header, with the
    table entries written in as literals.  Every node has one shape: y, the
    budget left below it, the partial sums of the phase's lower rows
    (Schnorr-Euchner) and of the key brought up to date in plain locals,
    then its child's loop, whose range is empty at a dead end.  Each key
    component is reduced once, mod e at the cut.  _cut_levels keeps a phase
    to 20 levels, the most nested loops CPython compiles in one function,
    so no phase calls another.
    """
    n = len(rows)

    def level(pad, i, centre):
        # x_i's loop, its range in the header and empty at a dead end.  Every
        # step is positive, so R_{i+1} == budget only on the zero prefix,
        # where the centre is 0 and the +-v rule starts x_i at 0; m has its
        # own line, as the upper end needs it on both branches.
        low, high = (f"(m + {centre})", f"(m - {centre})") if centre else ("m", "m")
        return [
            f"{pad}m = isqrt(R{i + 1} // {step[i]})",
            f"{pad}for x{i} in range(-({low} // {rows[i][i]}) if R{i + 1} < budget else 0, {high} // {rows[i][i]} + 1):",
        ]

    def phase(p, first, last, sums, key):
        # levels first down to last, then a tally at the cut last - 1 keyed
        # by key's pairs (u, e), none in the last phase; R{i} names the
        # budget left below level i, sums[k] sum_{j>i} table[k][j] x_j at
        # level i, None for 0 (rows k < last keep their input t_k), sums[n +
        # c] u_c . t plus the key's terms
        params = ["budget", "tally", "times", f"R{first + 1}", *filter(None, sums[::-1])]
        out = [f"def _p{p}({', '.join(params)}, isqrt=isqrt):"]
        pad = "    "
        levels = range(last, first + 1)
        table = [*rows, *({j: sum(x * r[j] for x, r in zip(u, rows)) % e for j in levels} for u, e in key)]
        for c, (u, e) in enumerate(key):
            expr = " + ".join(f"{u[k]} * {sums[k]}" for k in range(last) if u[k] and sums[k])
            sums.append(f"s{n + c}" if expr else None)
            out += [f"{pad}s{n + c} = {expr}"] * bool(expr)
        for i in range(first, last - 1, -1):
            out += level(pad, i, sums[i])
            pad += "    "
            out += [f"{pad}y = {_plus(sums[i], rows[i][i], f'x{i}')}", f"{pad}R{i} = R{i + 1} - {step[i]} * (y * y)"]
            for k in [*range(last, i), *range(n, len(sums))]:
                if table[k][i]:
                    out.append(f"{pad}s{k}_{i} = {_plus(sums[k], table[k][i], f'x{i}')}")
                    sums[k] = f"s{k}_{i}"
        # the key, and on its first sighting the state: input t_k plus the walked levels
        state = sums[:last]
        for j in range(first, last - 1, -1):
            state = [_plus(v, rows[k][j], f"x{j}") for k, v in enumerate(state)]
        kept = [(v, e) for v, (_, e) in zip(sums[n:], key) if v]  # a component left at 0 is no key
        own, neg = (", ".join([f"R{last}", *(f"{s}({v}) % {e}" for v, e in kept)]) for s in ("", "-"))
        held = ", ".join([f"R{last}", *(v or "0" for v in state[::-1])])
        out += [f"{pad}key = ({own},)", f"{pad}seen = tally.get(key)"]
        out += [f"{pad}if seen is None:", f"{pad}    tally[key] = tally[({neg},)] = [times, ({held},)]"]
        return out + [f"{pad}else:", f"{pad}    seen[0] += times"]

    sources, keys = [], [*_coset_keys(rows, cuts[0]), []]  # [] for the last phase, cut -1
    for p, (first, cut) in enumerate(zip([n - 1, *cuts], [*cuts, -1])):
        out = phase(p, first, cut + 1, [f"t{k}" if p and k <= first else None for k in range(n)], keys[cut])
        sources.append("\n".join(out) + "\n")
    return sources


def _walker(rows, step, cuts):
    """The phases _p{p} of the walker for these tables and cut levels,
    compiled afresh for each walk: every CLI command walks once.  Each phase
    compiles on its own, so the compiler never holds the whole walker at
    once, and runs in a namespace that holds isqrt alone."""
    namespace = {"isqrt": isqrt}
    for p, source in enumerate(_walker_sources(rows, step, cuts)):
        exec(compile(source, f"<walker phase {p}>", "exec"), namespace)
    return [namespace[f"_p{p}"] for p in range(len(cuts) + 1)]


def _walk(phases, budget, tally):
    """Run the compiled phases in turn from tally and return the last
    phase's tally, which ends the walk with one entry [times, (R,)] under
    (R,) per budget R left at the leaves.  A tally maps keys to entries
    [times, state]; each phase walks each distinct entry once into a fresh
    tally, weighted by its times.  A tally holds each entry under a key and
    its negation, which count alike while R < budget; the zero-prefix state
    R == budget has t = 0, its own negation, and keeps the +-v clamp."""
    for phase in phases:
        # each entry sits under its key and that key's negation, maybe the same
        entries = {id(entry): entry for entry in tally.values()}
        tally = {}
        for times, state in entries.values():
            phase(budget, tally, times, *state)
    return tally


def short_vectors(gram: GramMatrix, max_norm: int, jobs: int = 1) -> ShortVectorCount:
    """Count all lattice vectors of each norm 1..max_norm.

    The Gram matrix is LLL-reduced first; the enumeration then works on the
    reduced form, which leaves counts unchanged.  Every phase of the walk
    runs in this process, and its last tally gives the norms: a leaf left
    with R of the budget has norm (budget - R) / scale, else
    ConstructionError; norm 0 is the zero vector, and each other leaf
    stands for its +-v pair.  jobs must lie in 1..MAX_JOBS and is otherwise
    ignored: it stays only for bench/layers.py, which calls
    short_vectors(gram, 4, jobs=2), as --jobs stays for the kissing-jobs2
    workload.
    """
    max_norm, jobs = _integers((max_norm, jobs), "max_norm and jobs")
    if max_norm < 1:
        raise ValueError("max_norm must be a positive integer")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be an integer between 1 and {MAX_JOBS}")
    rows, step, scale = _fincke_pohst_tables(*_lll(gram)[:2])
    budget = max_norm * scale
    phases = _walker(rows, step, _cut_levels(len(rows), max_norm))
    found = {}
    for (rest,), (times, _) in _walk(phases, budget, {(budget,): [1, (budget,)]}).items():
        norm, r = divmod(budget - rest, scale)
        if r:
            raise ConstructionError("scaled norm is not a multiple of the scale")
        found[norm] = 2 * times
    return ShortVectorCount(max_norm, {m: found.get(m, 0) for m in range(1, max_norm + 1)})


# -- reference lattices and theta checks --------------------------------------

def e8_gram() -> GramMatrix:
    """Gram matrix of E8: the Cartan matrix of its Dynkin diagram (Bourbaki's
    nodes 0..7, the chain 0-2-3-4-5-6-7 with node 1 joined to node 3), checked
    even, positive definite and unimodular, which fixes E8 (Serre, V.2)."""
    entries = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
        entries[i][j] = entries[j][i] = -1
    gram = GramMatrix.from_rows(entries)
    _certify(gram, 1, (gram.dim, 0, 0), "E8")
    return gram


class ThetaRow(_Value):
    """One norm compared between enumeration and a series coefficient: the
    ints norm, enumerated and series_coefficient, and the bool matches."""

    __slots__ = ("norm", "enumerated", "series_coefficient", "matches")


class ThetaCheck(_Value):
    """Enumerated counts against independently computed theta coefficients.

    lattice is a str; combination is the int pair (a, b) of the weight-12 form
    a E4^3 + b Delta when one is derived, None when the expected counts come
    from a closed formula.  counts, a ShortVectorCount, carries the full
    enumeration result, max_norm included; rows is a tuple of ThetaRow; the
    bool ok also requires every odd norm count to vanish.
    """

    __slots__ = ("lattice", "combination", "counts", "rows", "ok")


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


def theta_check_leech(max_norm: int = 4) -> ThetaCheck:
    """Compare quotient-lattice counts with the weight-12 combination of
    E4^3 and Delta whose expansion starts 1 + 0 q.

    The combination is solved for at run time from the first two
    coefficients of the two forms; nothing about the answer is assumed.
    """
    max_norm = _integer(max_norm, "max_norm")
    if max_norm not in (2, 4, 6):
        raise ValueError("max_norm must be 2, 4 or 6")
    found = short_vectors(leech_gram(), max_norm)
    order = max(max_norm // 2 + 1, 2)
    e4_cubed = eisenstein_e4(order) ** 3
    disc = delta(order)
    e0, e1 = e4_cubed.coeff(0), e4_cubed.coeff(1)
    d0, d1 = disc.coeff(0), disc.coeff(1)
    # Cramer's rule for a (e0, e1) + b (d0, d1) = (1, 0)
    det = e0 * d1 - d0 * e1
    if det == 0 or d1 % det or e1 % det:
        raise ConstructionError("weight-12 combination is not integral")
    a, b = d1 // det, -e1 // det
    return _theta("leech", found, (a, b), lambda nn: a * e4_cubed.coeff(nn) + b * disc.coeff(nn))


def theta_check_e8(max_norm: int = 4) -> ThetaCheck:
    """Compare E8 counts with the classical formula: 240 sigma_3(n) vectors
    of norm 2n."""
    max_norm = _integer(max_norm, "max_norm")
    if max_norm < 2 or max_norm % 2:
        raise ValueError("max_norm must be a positive even integer")
    found = short_vectors(e8_gram(), max_norm)
    return _theta("e8", found, None, lambda nn: 240 * sigma(3, nn))
