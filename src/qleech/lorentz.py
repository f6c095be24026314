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
w = (0, 1, 2, ..., 24 | 70): a basis of the sublattice orthogonal to w is
extracted with integer row reduction, and 24 representatives spanning a
complement of w inside it give an even positive definite Gram matrix of
determinant 1.

The exact linear algebra lives here too, as two elimination routines and a
determinant.  A row-style Hermite normal form returns its unimodular
transform U together with the transpose of U^-1, built step by step; it
yields the lattice basis, the complement of w, the coordinates of w in that
complement and the unimodular completion.  One symmetric LDL^T over the
rationals gives the inertia, and the lattice module reuses it for the LLL
check and the Fincke-Pohst tables.  Fraction-free Bareiss elimination gives
determinants by an independent integer route.  Everything is plain int or
Fraction; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

SPACELIKE_DIM = 25
DIM = 26


class ConstructionError(RuntimeError):
    """A construction self-check failed; the library state is unusable."""


# -- bilinear form and membership -------------------------------------------


def raw_form(a: Sequence[int], b: Sequence[int]) -> Fraction:
    """The Lorentzian form on raw doubled coordinates.

    Defined for any pair of doubled 26-tuples, member or not, so sign
    conventions can be exhibited on unit vectors; the value may be a
    quarter-integer off the lattice.
    """
    if len(a) != DIM or len(b) != DIM:
        raise ValueError(f"doubled coordinate vectors must have length {DIM}")
    s = sum(a[i] * b[i] for i in range(SPACELIKE_DIM)) - a[-1] * b[-1]
    return Fraction(s, 4)


def is_member(doubled: Sequence[int]) -> bool:
    """Lattice membership test on doubled coordinates."""
    if len(doubled) != DIM:
        return False
    if not all(isinstance(c, int) for c in doubled):
        return False
    parity = doubled[0] & 1
    if any((c & 1) != parity for c in doubled):
        return False
    return (sum(doubled[:SPACELIKE_DIM]) - doubled[-1]) % 4 == 0


@dataclass(frozen=True)
class LorentzVector:
    """A member of the lattice, held in doubled coordinates."""

    doubled: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.doubled)
        object.__setattr__(self, "doubled", coords)
        if not is_member(coords):
            raise ValueError("doubled coordinates are not a lattice member")

    @classmethod
    def from_true_coords(cls, spacelike: Sequence[int], timelike: int) -> "LorentzVector":
        """Build from integer true coordinates (doubling is internal)."""
        if len(spacelike) != SPACELIKE_DIM:
            raise ValueError(f"expected {SPACELIKE_DIM} spacelike coordinates")
        return cls(tuple(2 * int(c) for c in spacelike) + (2 * int(timelike),))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.doubled)

    def norm(self) -> int:
        return inner_product(self, self)

    def __add__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(tuple(x + y for x, y in zip(self.doubled, other.doubled)))

    def __sub__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(tuple(x - y for x, y in zip(self.doubled, other.doubled)))

    def __neg__(self) -> "LorentzVector":
        return LorentzVector(tuple(-x for x in self.doubled))

    def __rmul__(self, k: int) -> "LorentzVector":
        if not isinstance(k, int):
            return NotImplemented
        return LorentzVector(tuple(k * x for x in self.doubled))


def inner_product(a: LorentzVector, b: LorentzVector) -> int:
    """The form on two lattice members; always an integer."""
    value = raw_form(a.doubled, b.doubled)
    if value.denominator != 1:
        raise ConstructionError("form is not integral on claimed members")
    return value.numerator


def weyl_vector() -> LorentzVector:
    """The isotropic vector (0, 1, 2, ..., 24 | 70)."""
    return LorentzVector.from_true_coords(tuple(range(SPACELIKE_DIM)), 70)


# -- exact integer and rational linear algebra -------------------------------


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


def _hermite(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Row-style Hermite normal form with both transforms: (H, U, V) with
    H = U M, U unimodular and V the transpose of U^-1, so M = V^T H.

    V is kept in step with U: each 2x2 step E = [[s, t], [-p_i, p_r]] on
    rows (r, i) of U applies E^-T = [[p_r, p_i], [-t, s]] to the same rows
    of V, a negation of U[r] negates V[r], and subtracting q U[r] from U[i]
    adds q V[i] to V[r].
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    h = [list(map(int, r)) for r in rows]
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
        # clear the column below row r with unimodular two-row transforms
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


def hermite_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row-style Hermite normal form H of an integer matrix M.

    Returns (H, U) with H = U M, U unimodular.  Pivots are positive and
    strictly step right going down, entries above each pivot are reduced
    into [0, pivot), and zero rows sink to the bottom.
    """
    h, u, _ = _hermite(rows)
    return h, u


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def ldl(rows: Sequence[Sequence[int]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Symmetric LDL^T of a symmetric integer matrix A over the rationals.

    Returns pivots d and multipliers q (q[k][j] for j > k, zero elsewhere)
    with x^T A x = sum_k d[k] (x_k + sum_{j>k} q[k][j] x_j)^2.  A zero
    pivot is first replaced by a symmetric swap with a later nonzero
    diagonal entry or, when the whole trailing diagonal vanishes, by folding
    a later row and column into row k; a pivot that stays zero is recorded
    as 0.  Both steps are congruences, so the signs of d always give the
    inertia.  A positive definite input never takes either step, so there d
    and q are its Gram-Schmidt data: d[k] = |b_k*|^2 and q[k][j] = mu_jk.
    """
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
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
                # all trailing diagonal entries vanish; fold row/col `off`
                # into k to manufacture the pivot 2 a[k][off]
                for j in range(k, n):
                    a[k][j] += a[off][j]
                for i in range(k, n):
                    a[i][k] += a[i][off]
        pivot = d[k] = a[k][k]
        for i in range(k + 1, n):
            f = q[k][i] = a[k][i] / pivot
            if f:
                # update the upper half and mirror it: the block stays symmetric
                for j in range(i, n):
                    a[i][j] = a[j][i] = a[i][j] - f * a[k][j]
    return d, q


def inertia(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix: the signs of its LDL^T pivots."""
    d, _ = ldl(rows)
    pos = sum(1 for p in d if p > 0)
    neg = sum(1 for p in d if p < 0)
    return pos, neg, len(d) - pos - neg


# -- Gram matrices -----------------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """A symmetric integer matrix of pairwise inner products."""

    dim: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.dim or any(len(r) != self.dim for r in entries):
            raise ValueError("entries must form a dim x dim square")
        for i in range(self.dim):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GramMatrix":
        return cls(len(rows), tuple(tuple(r) for r in rows))

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

    def to_jsonable(self) -> dict:
        """Exchange form: all integers rendered as decimal strings."""
        return {
            "dim": str(self.dim),
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def gram_of(vectors: Sequence[LorentzVector]) -> GramMatrix:
    rows = [[inner_product(a, b) for b in vectors] for a in vectors]
    return GramMatrix.from_rows(rows)


# -- the lattice and its Leech quotient ---------------------------------------


@lru_cache(maxsize=1)
def lattice_basis() -> tuple[tuple[LorentzVector, ...], GramMatrix]:
    """A basis of the full rank-26 lattice with its Gram matrix.

    Generators, in doubled coordinates: 2 e_i + 2 e_t for each spacelike i,
    the purely timelike 4 e_t, and the all-ones vector (the half-integer
    coset representative).  Hermite reduction of the 27 generators yields 26
    independent rows; determinant -1 and inertia (25, 1) are checked before
    the basis is released.
    """
    gens: list[tuple[int, ...]] = []
    for i in range(SPACELIKE_DIM):
        row = [0] * DIM
        row[i] = 2
        row[-1] = 2
        gens.append(tuple(row))
    gens.append((0,) * SPACELIKE_DIM + (4,))
    gens.append((1,) * DIM)
    h, _ = hermite_normal_form(gens)
    rows = [row for row in h if any(row)]
    if len(rows) != DIM:
        raise ConstructionError(f"expected rank {DIM}, got {len(rows)}")
    basis = tuple(LorentzVector(row) for row in rows)
    gram = gram_of(basis)
    if bareiss_determinant(gram.entries) != -1:
        raise ConstructionError("basis Gram determinant is not -1")
    if not gram.is_even:
        raise ConstructionError("basis Gram has an odd diagonal entry")
    if inertia(gram.entries) != (SPACELIKE_DIM, 1, 0):
        raise ConstructionError("basis Gram has the wrong signature")
    return basis, gram


def _combination(coefs: Sequence[int], vectors: Sequence[LorentzVector]) -> LorentzVector:
    """sum_k coefs[k] vectors[k]."""
    d = [0] * DIM
    for coef, b in zip(coefs, vectors):
        if coef:
            for k in range(DIM):
                d[k] += coef * b.doubled[k]
    return LorentzVector(tuple(d))


def coordinates_in_basis(v: LorentzVector) -> tuple[int, ...]:
    """Integer coordinates of a member with respect to lattice_basis().

    The basis is a full-rank Hermite staircase: row k has its pivot in
    column k and zeros to the left of it, so the coordinates follow by
    forward substitution with exact division.
    """
    basis, _ = lattice_basis()
    coords: list[int] = []
    for k, b in enumerate(basis):
        rest = v.doubled[k] - sum(c * e.doubled[k] for c, e in zip(coords, basis))
        c, r = divmod(rest, b.doubled[k])
        if r:
            raise ConstructionError("member has non-integer basis coordinates")
        coords.append(c)
    return tuple(coords)


def _complement(w: LorentzVector):
    """(complement basis, V) from the HNF U P = H of the column P of
    pairings <b_k, w>: the complement is U[1:] applied to the basis, and V
    is the transpose of U^-1."""
    if w.is_zero:
        raise ValueError("the zero vector has no orthogonal complement basis")
    basis, _ = lattice_basis()
    h, u, v = _hermite([[inner_product(b, w)] for b in basis])
    # the lattice is unimodular, so w is primitive iff its pairings are coprime
    if h[0][0] != 1:
        raise ValueError("non-primitive vector")
    comp = tuple(_combination(row, basis) for row in u[1:])
    if any(inner_product(vec, w) for vec in comp):
        raise ConstructionError("complement vector is not orthogonal to w")
    return comp, v


def orthogonal_complement_basis(w: LorentzVector) -> tuple[LorentzVector, ...]:
    """A basis of the rank-25 sublattice of vectors orthogonal to w.

    w must be nonzero and primitive (its pairings with the lattice coprime,
    which in a unimodular lattice is the same as coprime basis coordinates).
    """
    return _complement(w)[0]


@lru_cache(maxsize=1)
def quotient_representatives() -> tuple[LorentzVector, ...]:
    """24 members of w_perp descending to a basis of w_perp / w.

    Extends the coordinate vector of w (primitive inside w_perp) to a
    unimodular basis of the coordinate space: V from the HNF of that vector
    as a column has it as its first row.  The other 24 rows, mapped back to
    lattice vectors, represent the quotient classes.
    """
    w = weyl_vector()
    comp, v = _complement(w)
    # w = c . basis = (c U^-1) . (U basis); row 0 of U basis pairs with w to
    # 1, so entry 0 is <w, w> = 0 and the rest are w's coordinates in comp
    c = coordinates_in_basis(w)
    wcoords = tuple(sum(x * y for x, y in zip(c, row)) for row in v)
    if wcoords[0] != 0:
        raise ConstructionError("w does not lie in its orthogonal complement")
    h, _, completion = _hermite([[x] for x in wcoords[1:]])
    if h[0][0] != 1 or completion[0] != wcoords[1:]:
        raise ConstructionError("w is imprimitive inside its complement")
    return tuple(_combination(row, comp) for row in completion[1:])


@lru_cache(maxsize=1)
def leech_gram() -> GramMatrix:
    """Gram matrix of the quotient w_perp / w: even, positive definite,
    determinant 1.  The self-checks run once; failures are fatal."""
    reps = quotient_representatives()
    gram = gram_of(reps)
    if not gram.is_even:
        raise ConstructionError("quotient Gram has an odd diagonal entry")
    if bareiss_determinant(gram.entries) != 1:
        raise ConstructionError("quotient Gram determinant is not 1")
    if inertia(gram.entries) != (gram.dim, 0, 0):
        raise ConstructionError("quotient Gram is not positive definite")
    return gram
