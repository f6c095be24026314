"""The even unimodular Lorentzian lattice of signature (25, 1) and the
quotient construction of the Leech lattice inside it.

Vectors are stored in doubled coordinates: 26 integers, the 25 spacelike
entries first and the single timelike entry last, each equal to twice the
true coordinate.  That makes the half-integer vectors of the lattice
representable exactly.  A doubled tuple d belongs to the lattice iff all
entries share one parity and sum(d[:25]) - d[25] is divisible by 4; the
bilinear form is

    <a, b> = (sum_i a_i b_i - a_25 b_25) / 4

with the mostly-plus sign convention (spacelike squares count positive),
and it is integer valued and even on lattice members.

The Leech lattice appears as w_perp / w for the isotropic Weyl vector
w = (0, 1, 2, ..., 24 | 70): the lattice basis is a staircase certified by
its Gram, and 24 representatives of w_perp / w follow from a rule in that
staircase, a projection onto w_perp along a member that pairs with w to 1.
Their Gram, even, positive definite and of determinant 1, proves them a
basis of the quotient.

The exact linear algebra lives here too, as two elimination routines.  A
row-style Hermite normal form returns its unimodular transform U.
One fraction-free symmetric LDL^T gives every determinant and inertia, both
read from one pass, and the lattice module reuses its integers for LLL, the
LLL check and the Fincke-Pohst tables.
Everything is plain int; nothing here ever rounds.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from functools import lru_cache

from . import _Value, _integer, _integers

SPACELIKE_DIM = 25
DIM = 26


class ConstructionError(RuntimeError):
    """A construction self-check failed; the library state is unusable."""


# -- bilinear form and membership -------------------------------------------


def is_member(doubled: Sequence[int]) -> bool:
    """Lattice membership test on doubled coordinates."""
    if len(doubled) != DIM:
        return False
    try:
        doubled = _integers(doubled, "doubled coordinates")
    except ValueError:
        return False
    parity = doubled[0] & 1
    if any((c & 1) != parity for c in doubled):
        return False
    return (sum(doubled[:SPACELIKE_DIM]) - doubled[-1]) % 4 == 0


class LorentzVector(_Value):
    """A member of the lattice, held in doubled coordinates, a tuple of ints."""

    __slots__ = ("doubled",)

    def __post_init__(self) -> None:
        coords = _integers(self.doubled, "doubled coordinates")
        object.__setattr__(self, "doubled", coords)
        if not is_member(coords):
            raise ValueError("doubled coordinates are not a lattice member")

    def norm(self) -> int:
        return inner_product(self, self)

    def __add__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(tuple(x + y for x, y in zip(self.doubled, other.doubled)))

    def __sub__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(tuple(x - y for x, y in zip(self.doubled, other.doubled)))


def inner_product(a: LorentzVector, b: LorentzVector) -> int:
    """The form on two lattice members; always an integer."""
    x, y = a.doubled, b.doubled
    value, r = divmod(sum(map(operator.mul, x, y)) - 2 * x[-1] * y[-1], 4)
    if r:
        raise ConstructionError("form is not integral on claimed members")
    return value


def weyl_vector() -> LorentzVector:
    """The isotropic vector (0, 1, 2, ..., 24 | 70)."""
    return LorentzVector(tuple(range(0, 2 * SPACELIKE_DIM, 2)) + (140,))


# -- exact integer linear algebra -------------------------------------------


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a x + b y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hermite_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row-style Hermite normal form H of an integer matrix M.

    Returns (H, U) with H = U M, U unimodular.  Pivots are positive and
    strictly step right going down, entries above each pivot are reduced
    into [0, pivot), and zero rows sink to the bottom.  The row operations
    take one augmented matrix [M | I] to [H | U] (Cohen, GTM 138, 2.4).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    h = [
        [operator.index(x) for x in r] + [int(i == j) for j in range(m)]
        for i, r in enumerate(rows)
    ]
    r = 0
    for c in range(n):
        if r == m:
            break
        # clear the column below row r with unimodular two-row transforms
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            g, s, t = xgcd(h[r][c], h[i][c])
            pr, pi = h[r][c] // g, h[i][c] // g
            h[r], h[i] = (
                [s * x + t * y for x, y in zip(h[r], h[i])],
                [pr * y - pi * x for x, y in zip(h[r], h[i])],
            )
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
    return tuple(tuple(row[:n]) for row in h), tuple(tuple(row[n:]) for row in h)


def ldl(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Fraction-free symmetric LDL^T of a symmetric integer matrix A in the
    style of Bareiss (Math. Comp. 22, 1968): each step divides exactly by
    the previous pivot.

    Returns the leading minors d, d[0] = 1, and a matrix lam holding
    lam[i][k] = d[k+1] q_ik below the diagonal, where x^T A x = sum_k
    (d[k+1] / d[k]) (x_k + sum_{i>k} q_ik x_i)^2.  A zero pivot is first
    replaced by a symmetric swap with a later nonzero diagonal entry or, when
    the whole trailing diagonal vanishes, by folding a later row and column
    into row k; a row and column that stay zero are dropped, with no minor.
    Both steps are unimodular congruences, so the signs of d[k] d[k+1] give
    the inertia, a dropped row being a zero eigenvalue, and d[n] is det A (0
    if a row was dropped).  A positive definite input never takes either
    step, so there d[k+1] / d[k] = |b_k*|^2 and q_ik = mu_ik.
    """
    n = len(rows)
    a = [[operator.index(x) for x in r] for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    d = [1]
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue
                # all trailing diagonal entries vanish; fold row/col `off`
                # into k to manufacture the pivot 2 a[k][off]
                for j in range(k, n):
                    a[k][j] += a[off][j]
                for i in range(k, n):
                    a[i][k] += a[i][off]
        pivot, prev = a[k][k], d[-1]
        d.append(pivot)
        for i in range(k + 1, n):
            f = a[i][k]
            # update the lower half and mirror it: the block stays symmetric
            for j in range(k + 1, i + 1):
                a[i][j] = a[j][i] = (pivot * a[i][j] - f * a[j][k]) // prev
    return d, a


def _invariants(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[int, int, int]]:
    """(determinant, inertia) of a symmetric integer matrix from one ldl pass."""
    d, _ = ldl(rows)
    n, pos = len(rows), sum(1 for p, q in zip(d, d[1:]) if p * q > 0)
    return (d[n] if len(d) > n else 0), (pos, len(d) - 1 - pos, n + 1 - len(d))


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a symmetric integer matrix, read from ldl."""
    return _invariants(rows)[0]


def inertia(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, read from ldl."""
    return _invariants(rows)[1]


# -- Gram matrices -----------------------------------------------------------


class GramMatrix(_Value):
    """A symmetric integer matrix of pairwise inner products: dim, an int,
    and entries, a tuple of dim rows, each a tuple of dim ints."""

    __slots__ = ("dim", "entries")

    def __post_init__(self) -> None:
        what = "Gram dim and entries"
        # entries that are not iterable, None say, are refused as one bad row
        rows = self.entries if isinstance(self.entries, Iterable) else (self.entries,)
        dim, entries = _integer(self.dim, what), tuple(_integers(row, what) for row in rows)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise ValueError("entries must form a dim x dim square")
        for i in range(dim):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GramMatrix":
        return cls(len(rows), rows)

    @property
    def is_even(self) -> bool:
        return all(self.entries[i][i] % 2 == 0 for i in range(self.dim))

    def determinant(self) -> int:
        return bareiss_determinant(self.entries)

    def inertia(self) -> tuple[int, int, int]:
        return inertia(self.entries)

    @property
    def is_positive_definite(self) -> bool:
        return self.inertia() == (self.dim, 0, 0)


def gram_of(vectors: Sequence[LorentzVector]) -> GramMatrix:
    """The Gram matrix of the vectors, each pair i <= j paired once and mirrored."""
    rows = [[0] * len(vectors) for _ in vectors]
    for i, a in enumerate(vectors):
        for j in range(i, len(vectors)):
            rows[i][j] = rows[j][i] = inner_product(a, vectors[j])
    return GramMatrix.from_rows(rows)


def _certify(gram: GramMatrix, det: int, signature: tuple[int, int, int], what: str) -> None:
    """Raise ConstructionError unless gram is even, with determinant det and
    inertia signature, both read from one ldl pass."""
    if not gram.is_even:
        raise ConstructionError(f"{what} Gram has an odd diagonal entry")
    got = _invariants(gram.entries)
    if got != (det, signature):
        raise ConstructionError(f"{what} Gram has (det, inertia) {got}, not {(det, signature)}")


# -- the lattice and its Leech quotient ---------------------------------------


@lru_cache(maxsize=1)
def lattice_basis() -> tuple[tuple[LorentzVector, ...], GramMatrix]:
    """A basis of the full rank-26 lattice with its Gram matrix.

    A staircase in doubled coordinates: row 0 is the all-ones vector and row
    k = 1..25 is 2 e_k + 2 e_25, so row 25 is 4 e_25.  LorentzVector refuses
    non-members and the lattice is unimodular, so the certificate, an even
    Gram of determinant -1 and inertia (25, 1), proves the rows a basis: a
    full-rank sublattice of determinant -1 has index 1 (Serre, V).
    """
    rows = [(1,) * DIM] + [
        tuple(2 * (j == k) + 2 * (j == SPACELIKE_DIM) for j in range(DIM)) for k in range(1, DIM)
    ]
    basis = tuple(LorentzVector(row) for row in rows)
    gram = gram_of(basis)
    _certify(gram, -1, (SPACELIKE_DIM, 1, 0), "basis")
    return basis, gram


def _combination(coefs: Sequence[int], vectors: Sequence[LorentzVector]) -> LorentzVector:
    """sum_k coefs[k] vectors[k]."""
    d = [0] * DIM
    for coef, b in zip(coefs, vectors):
        if coef:
            for k in range(DIM):
                d[k] += coef * b.doubled[k]
    return LorentzVector(tuple(d))


@lru_cache(maxsize=1)
def quotient_representatives() -> tuple[LorentzVector, ...]:
    """24 members of w_perp descending to a basis of w_perp / w.

    In the staircase basis b, a = b_0 + 2 b_1 pairs with w to -23 and
    z = b_2 - 3a pairs with it to 1, so x -> x - <x, w> z maps the lattice
    onto w_perp.  The representatives are the images of -a, b_3, ..., b_25.
    They lie in w_perp, so their Gram is that of their classes in w_perp / w,
    and leech_gram's certificate, an even Gram of determinant 1, proves them
    a basis: a sublattice of index i has determinant i^2.
    """
    basis, _ = lattice_basis()
    w = weyl_vector()
    a = _combination((1, 2), basis)
    z = _combination((1, -3), (basis[2], a))
    if inner_product(z, w) != 1:
        raise ConstructionError("z does not pair with w to 1")
    lifts = (_combination((-1,), (a,)), *basis[3:])
    return tuple(_combination((1, -inner_product(x, w)), (x, z)) for x in lifts)


@lru_cache(maxsize=1)
def leech_gram() -> GramMatrix:
    """Gram matrix of the quotient w_perp / w: even, positive definite,
    determinant 1.  The self-checks run once; failures are fatal."""
    reps = quotient_representatives()
    gram = gram_of(reps)
    _certify(gram, 1, (gram.dim, 0, 0), "quotient")
    return gram
