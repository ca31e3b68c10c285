"""Subgroups of Z^n as integer lattices in lower-triangular Hermite form.

Rows of the stored basis are generators.  The canonical form is lower
triangular with positive diagonal and every below-diagonal entry reduced into
``[0, diagonal of its column)``; it is unique for a given axis ordering, so
two lattices are equal iff their matrices (and orderings) agree.

An ``ordering`` permutes the coordinate axes before triangularization: the
stored matrix is the Hermite form in the permuted coordinates.  Queries
(membership, axis periods) always take vectors in the original coordinates.

``residue(v)`` is the canonical representative of the coset ``v + Γ``, in
permuted coordinates: ``v`` reduced by the rows from the last up, each row
bringing its pivot entry into ``[0, pivot)``.  Two vectors share a coset iff
their residues are equal, so membership (residue zero), the coset
representatives and per-coset bookkeeping all go through it.

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


def _hnf(gens, n: int) -> tuple[Vec, ...]:
    """Hermite rows of the span of ``gens``, ordered by pivot, the last
    nonzero column of a row.  Each generator is cleared from its last column
    down, one extended-gcd step against the row holding that pivot; then, from
    the largest pivot down, each pivot is made positive and its column reduced
    into ``[0, pivot)`` in every row with a larger pivot."""
    rows: dict[int, list[int]] = {}  # pivot column -> row
    for gen in gens:
        vec = list(gen)
        j = n - 1
        while j >= 0:
            if vec[j]:
                row = rows.get(j)
                if row is None:
                    rows[j] = vec
                    break
                a, b = row[j], vec[j]
                x, y, g = _xgcd(a, b)
                rows[j] = [x * r + y * v for r, v in zip(row, vec)]
                vec = [(a // g) * v - (b // g) * r for r, v in zip(row, vec)]
            j -= 1
    pivots = sorted(rows, reverse=True)
    for k, j in enumerate(pivots):
        row = rows[j]
        if row[j] < 0:
            row[:] = [-v for v in row]
        for i in pivots[:k]:
            q = rows[i][j] // row[j]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], row)]
    return tuple(tuple(rows[j]) for j in reversed(pivots))


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
        return Lattice(n=n, rows=_hnf(permuted, n), ordering=ordering)

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

    def residue(self, vec) -> Vec:
        """The canonical representative of ``vec + Γ``, in permuted
        coordinates, for an original-coordinate integer vector: two vectors
        share a coset iff their residues are equal."""
        if len(vec) != self.n:
            raise InputError("vector has wrong length", expected=self.n)
        v = self._permute(vec)
        # The rows' last nonzero columns increase strictly, so from the last
        # row up each row reduces its own column and touches none to its right.
        for row in reversed(self.rows):
            j = self.n - 1
            while not row[j]:
                j -= 1
            c = v[j] // row[j]
            if c:
                for t in range(j + 1):
                    v[t] -= c * row[t]
        return tuple(v)

    def contains(self, vec) -> bool:
        """Membership of an original-coordinate integer vector."""
        return not any(self.residue(vec))

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
        reps: dict[Vec, Vec] = {}  # residue -> first box point with it
        for point in itertools.product(*(range(r) for r in periods)):
            reps.setdefault(self.residue(point), point)
        if len(reps) != p:
            raise ArithmeticError("coset enumeration inconsistent with index")
        return list(reps.values())

    def generators_original(self) -> list[Vec]:
        """Basis rows mapped back to the original coordinates."""
        out = []
        for row in self.rows:
            orig = [0] * self.n
            for p in range(self.n):
                orig[self.ordering[p]] = row[p]
            out.append(tuple(orig))
        return out

