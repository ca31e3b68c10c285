"""Subgroups of Z^n as integer lattices in lower-triangular Hermite form.

Rows of the stored basis are generators.  The canonical form is lower
triangular with positive diagonal and every below-diagonal entry reduced into
``[0, diagonal of its column)``; it is unique for a given axis ordering, so
two lattices are equal iff their matrices (and orderings) agree.

An ``ordering`` permutes the coordinate axes before triangularization: the
stored matrix is the Hermite form in the permuted coordinates.  Queries
(membership, axis periods) always take vectors in the original coordinates.

Rank-deficient generating sets are representable (the echelon rows are kept)
but flagged: they have no finite index and no coset enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InfiniteIndexError, InputError, NoPeriodWithinBoundError

Vec = tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def _upper_echelon(rows: list[list[int]], n: int) -> list[list[int]]:
    # Integer row echelon with pivots at strictly increasing columns,
    # positive pivots, and entries above each pivot reduced into [0, pivot).
    basis: list[list[int]] = []  # kept sorted by pivot column

    def pivot_col(row):
        for j, v in enumerate(row):
            if v:
                return j
        return None

    for vec in rows:
        vec = list(vec)
        while True:
            j = pivot_col(vec)
            if j is None:
                break
            hit = None
            for row in basis:
                if pivot_col(row) == j:
                    hit = row
                    break
            if hit is None:
                basis.append(vec)
                basis.sort(key=pivot_col)
                break
            a, b = hit[j], vec[j]
            if b % a == 0:
                q = b // a
                for t in range(j, n):
                    vec[t] -= q * hit[t]
            else:
                x, y, g = _xgcd(a, b)
                new_hit = [x * hit[t] + y * vec[t] for t in range(n)]
                new_vec = [(a // g) * vec[t] - (b // g) * hit[t] for t in range(n)]
                hit[:] = new_hit
                vec = new_vec
    for row in basis:
        j = pivot_col(row)
        if row[j] < 0:
            row[:] = [-v for v in row]
    # Reduce entries above pivots.
    for k, row in enumerate(basis):
        j = pivot_col(row)
        for i in range(k):
            q = basis[i][j] // row[j]
            if q:
                basis[i] = [basis[i][t] - q * row[t] for t in range(n)]
    return basis


def _lower_hnf(rows: list[Vec], n: int) -> tuple[Vec, ...]:
    flipped = [list(reversed(r)) for r in rows]
    ech = _upper_echelon(flipped, n)
    return tuple(tuple(reversed(r)) for r in reversed(ech))


@dataclass(frozen=True)
class Lattice:
    n: int
    rows: tuple[Vec, ...]       # Hermite rows in permuted coordinates
    ordering: tuple[int, ...]   # permuted[p] = original[ordering[p]]

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_generators(
        gens, n: int | None = None, ordering: tuple[int, ...] | None = None
    ) -> "Lattice":
        gens = [tuple(int(x) for x in g) for g in gens]
        if not gens:
            raise InputError("generator list must be nonempty")
        if n is None:
            n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise InputError("generators have inconsistent length")
        if ordering is None:
            ordering = tuple(range(n))
        if sorted(ordering) != list(range(n)):
            raise InputError("ordering must be a permutation of the axes")
        permuted = [tuple(g[ordering[p]] for p in range(n)) for g in gens]
        rows = _lower_hnf(permuted, n)
        return Lattice(n=n, rows=rows, ordering=ordering)

    # -- structure ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def full_rank(self) -> bool:
        return self.rank == self.n

    @property
    def index(self) -> int | None:
        """[Z^n : Γ]; None means infinite (rank-deficient)."""
        if not self.full_rank:
            return None
        det = 1
        for i, row in enumerate(self.rows):
            det *= row[i]
        return abs(det)

    def _permute(self, vec) -> list[int]:
        return [int(vec[self.ordering[p]]) for p in range(self.n)]

    def contains(self, vec) -> bool:
        """Membership of an original-coordinate integer vector."""
        if len(vec) != self.n:
            raise InputError("vector has wrong length", expected=self.n)
        v = self._permute(vec)
        # The rows' last nonzero columns increase strictly, so from the last
        # row up each row clears its own column and touches none to its right.
        for row in reversed(self.rows):
            j = self.n - 1
            while not row[j]:
                j -= 1
            c, r = divmod(v[j], row[j])
            if r:
                return False
            if c:
                for t in range(j + 1):
                    v[t] -= c * row[t]
        return not any(v)

    def axis_period(self, axis: int, bound: int) -> int:
        """Minimal t in [1, bound] with t·e_axis in the lattice."""
        e = [0] * self.n
        for t in range(1, bound + 1):
            e[axis] = t
            if self.contains(e):
                return t
        raise NoPeriodWithinBoundError(
            "no axis period within bound", axis=axis, bound=bound
        )

    def coset_reps(self) -> list[Vec]:
        """Lex-minimal representative per coset, inside the box ∏[0, rᵢ)."""
        p = self.index
        if p is None:
            raise InfiniteIndexError("coset enumeration needs a full-rank lattice")
        periods = [self.axis_period(i, p) for i in range(self.n)]
        reps: list[Vec] = []
        for point in itertools.product(*(range(r) for r in periods)):
            if not any(
                self.contains([a - b for a, b in zip(point, rep)]) for rep in reps
            ):
                reps.append(point)
        if len(reps) != p:
            raise ArithmeticError("coset enumeration inconsistent with index")
        return reps

    def generators_original(self) -> list[Vec]:
        """Basis rows mapped back to the original coordinates."""
        out = []
        for row in self.rows:
            orig = [0] * self.n
            for p in range(self.n):
                orig[self.ordering[p]] = row[p]
            out.append(tuple(orig))
        return out

    def sublattice_of(self, other: "Lattice") -> bool:
        return all(other.contains(g) for g in self.generators_original())

    def same_subgroup(self, other: "Lattice") -> bool:
        """Equality as subgroups of Z^n, independent of axis ordering."""
        if self.n != other.n:
            return False
        a = Lattice.from_generators(self.generators_original(), n=self.n)
        b = Lattice.from_generators(other.generators_original(), n=other.n)
        return a.rows == b.rows


def from_generators(gens, n=None, ordering=None) -> Lattice:
    return Lattice.from_generators(gens, n=n, ordering=ordering)
