"""Evaluation data (λ, a) for graded highest-weight modules and its support.

A :class:`PsiSpec` holds a weight table ``λ_I`` indexed over ``∏[1..Nᵢ]``, one
tuple of pairwise-distinct nonzero evaluation scalars per loop axis, and the
rational grading shifts ``ϱ``.  The degree-``m`` functional is

    v(m) = Σ_I a_I^m · λ_I,      a_I^m = ∏ᵢ a_{i,Iᵢ}^{mᵢ},

a vector of cyclotomic-field coefficients in the fundamental-weight basis.
The support ``Γ = {m : v(m) ≠ 0}`` of a nontrivial table with dominant weights
is a full-rank subgroup of Z^n; it is computed from the axis periods
``rᵢ = min{t ≥ 1 : v(t·eᵢ) ≠ 0}`` by scanning the box ``∏[0, rᵢ)`` — the
support is a union of cosets of ``⊕ rᵢZeᵢ``, so the scan is exhaustive — and
audited for subgroup closure afterwards.  ``nonvanishing_support`` does this
for any nonvanishing predicate; the twisted support calls it with the
restricted functional.

``verify_support`` is the independent oracle: it rechecks membership against
direct evaluation on a cube of degrees, scanning in order of increasing
max-norm (ties broken componentwise descending) and reporting the first
mismatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cyclotomic import CycScalar, CycVector
from .errors import (
    InputError,
    NoPeriodWithinBoundError,
    SupportNotSubgroupError,
    TrivialModuleError,
)
from .lattice import Lattice
from .liealg import SimpleLieAlgebra, Weight, is_dominant

Index = tuple[int, ...]


def table_indices(dims: tuple[int, ...]) -> list[Index]:
    """All table indices I with 1 ≤ Iᵢ ≤ Nᵢ, in lexicographic order."""
    return [tuple(i) for i in itertools.product(*(range(1, n + 1) for n in dims))]


@dataclass(frozen=True)
class PsiSpec:
    algebra: SimpleLieAlgebra
    n: int
    dims: tuple[int, ...]
    weights: dict[Index, Weight]
    evals: tuple[tuple[CycScalar, ...], ...]
    rho: tuple[Fraction, ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise InputError("need at least one loop variable", n=self.n)
        if len(self.dims) != self.n or any(d < 1 for d in self.dims):
            raise InputError("dims must list one positive size per axis")
        if not self.rho:
            object.__setattr__(self, "rho", (Fraction(0),) * self.n)
        if len(self.rho) != self.n:
            raise InputError("rho must have one entry per axis")
        if len(self.evals) != self.n:
            raise InputError("evals must list one tuple per axis")
        orders = {a.order for axis in self.evals for a in axis}
        if len(orders) > 1:
            raise InputError(
                "evaluation scalars must share one cyclotomic order", orders=orders
            )
        for i, axis in enumerate(self.evals):
            if len(axis) != self.dims[i]:
                raise InputError("evaluation tuple has wrong length", axis=i + 1)
            if len(set(axis)) != len(axis):
                raise InputError(
                    "evaluation scalars must be distinct on each axis", axis=i + 1
                )
        expected = table_indices(self.dims)
        missing = [I for I in expected if I not in self.weights]
        if missing:
            raise InputError("weight table is incomplete", missing=missing[:5])
        if len(self.weights) != len(expected):
            raise InputError("weight table has extraneous entries")
        d = self.algebra.rank
        for I, w in self.weights.items():
            if len(w) != d:
                raise InputError("weight has wrong length", index=I, expected=d)
            if not is_dominant(w):
                raise InputError("weights must be dominant integral", index=I)

    @property
    def field_order(self) -> int:
        return self.evals[0][0].order

    @property
    def table_size(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def is_trivial(self) -> bool:
        return all(not any(w) for w in self.weights.values())

    def with_field_order(self, order: int) -> "PsiSpec":
        if order == self.field_order:
            return self
        evals = tuple(
            tuple(a.with_order(order) for a in axis) for axis in self.evals
        )
        return PsiSpec(
            algebra=self.algebra,
            n=self.n,
            dims=self.dims,
            weights=dict(self.weights),
            evals=evals,
            rho=self.rho,
        )


def common_field_order(*specs: PsiSpec) -> int:
    return lcm(*(s.field_order for s in specs))


class Evaluator:
    """Caches per-axis scalar powers and evaluates v(m) coordinatewise."""

    def __init__(self, spec: PsiSpec):
        self.spec = spec
        self.order = spec.field_order
        self._pows: dict[tuple[int, int, int], CycScalar] = {}
        self._indices = table_indices(spec.dims)

    def _pow(self, axis: int, j: int, m: int) -> CycScalar:
        key = (axis, j, m)
        hit = self._pows.get(key)
        if hit is None:
            hit = self.spec.evals[axis][j - 1] ** m
            self._pows[key] = hit
        return hit

    def coefficient(self, I: Index, m) -> CycScalar:
        out = self._pow(0, I[0], m[0])
        for axis in range(1, self.spec.n):
            out = out * self._pow(axis, I[axis], m[axis])
        return out

    def functional(self, m) -> list[CycVector]:
        """v(m) as one cyclotomic vector per fundamental-weight coordinate."""
        terms = [[] for _ in range(self.spec.algebra.rank)]
        for I in self._indices:
            w = self.spec.weights[I]
            if not any(w):
                continue
            a = self.coefficient(I, m)
            for c, x in enumerate(w):
                if x:
                    terms[c].append((a.e, a.q * x))
        return [CycVector.from_terms(self.order, t) for t in terms]

    def is_nonzero(self, m) -> bool:
        return any(not v.is_zero() for v in self.functional(m))


def eval_functional(spec: PsiSpec, m) -> list[CycVector]:
    return Evaluator(spec).functional(m)


@dataclass(frozen=True)
class SupportLattice:
    lattice: Lattice
    periods: tuple[int, ...]
    index: int

    def coset_reps(self):
        return self.lattice.coset_reps()


def nonvanishing_support(is_nonzero, n: int, bounds, ordering=None) -> SupportLattice:
    """The set ``{m : is_nonzero(m)}`` as a full-rank lattice.

    Each axis period ``rᵢ`` is searched up to ``boundsᵢ``; the members of the
    box ``∏[0, rᵢ)`` and the ``rᵢeᵢ`` generate the lattice (in ``ordering``,
    see ``Lattice.from_generators``).  The box determines the lattice only if
    the nonvanishing set is a subgroup; isolated cancellations (possible for
    exactly tuned weights) surface as mismatches on a wider window, so the
    cube of radii ``max(6, 2·max(rᵢ, boundsᵢ))`` is audited before the result
    is trusted.
    """
    periods = []
    for i in range(n):
        m = [0] * n
        for t in range(1, bounds[i] + 1):
            m[i] = t
            if is_nonzero(m):
                periods.append(t)
                break
        else:
            raise NoPeriodWithinBoundError(
                "axis functional vanishes on the whole search range",
                axis=i + 1,
                bound=bounds[i],
            )
    gens = [m for m in itertools.product(*(range(r) for r in periods)) if is_nonzero(m)]
    for i, r in enumerate(periods):
        e = [0] * n
        e[i] = r
        gens.append(tuple(e))
    lat = Lattice.from_generators(gens, n=n, ordering=ordering)
    radii = [max(6, 2 * max(r, b)) for r, b in zip(periods, bounds)]
    for m in itertools.product(*(range(-a, a + 1) for a in radii)):
        if lat.contains(m) != is_nonzero(m):
            raise SupportNotSubgroupError(
                "nonvanishing degrees are not closed under the group operations",
                witness=m,
            )
    index = lat.index
    assert index is not None  # rᵢ·eᵢ generators force full rank
    return SupportLattice(lattice=lat, periods=tuple(periods), index=index)


def support_lattice(spec: PsiSpec) -> SupportLattice:
    """Support Γ = {m : v(m) ≠ 0} with axis periods and index.

    Valid only when the nonvanishing set is a subgroup; exactly tuned weight
    tables can produce isolated cancellations inside the generated subgroup
    (the algebra image is then strictly larger), and these raise
    SupportNotSubgroupError instead of returning a lattice.
    """
    if spec.is_trivial():
        raise TrivialModuleError("all weights are zero")
    return nonvanishing_support(Evaluator(spec).is_nonzero, spec.n, spec.dims)


def box_scan_order(n: int, radius: int) -> list[tuple[int, ...]]:
    """Degrees with |mᵢ| ≤ radius: increasing max-norm, ties reverse-lex."""
    pts = itertools.product(*(range(-radius, radius + 1) for _ in range(n)))
    return sorted(pts, key=lambda m: (max(abs(x) for x in m), tuple(-x for x in m)))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_support(spec: PsiSpec, support: SupportLattice, radius: int) -> VerifyResult:
    """Audit: membership in Γ must match direct nonvanishing on the cube."""
    ev = Evaluator(spec)
    for m in box_scan_order(spec.n, radius):
        if support.lattice.contains(m) != ev.is_nonzero(m):
            return VerifyResult(ok=False, counterexample=m)
    return VerifyResult(ok=True)
