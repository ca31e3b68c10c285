"""Evaluation data (λ, a, ϱ) for graded highest-weight modules, with its checks.

A :class:`PsiSpec` holds a weight table ``λ_I`` indexed over ``∏[1..Nᵢ]``, one
tuple of pairwise-distinct nonzero evaluation scalars per loop axis, and the
rational grading shifts ``ϱ``.  A :class:`TwistedSpec` adds a diagram
automorphism of order k acting on loop axis 1.  ``PsiSpec.coefficients`` gives
the slot coefficients ``a_I^m = ∏ᵢ a_{i,Iᵢ}^{mᵢ}`` that both the engine's
direct evaluation and the realizer's loop action read.

This module is data only: it imports ``cyclotomic``, ``liealg`` and
``errors`` and nothing of the engine (``psi``, ``twisted``, ``classify``) or
of the realizer, so that the oracles can read a spec without importing the
code they check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cyclotomic import CycScalar
from .errors import InputError
from .liealg import DiagramAut, SimpleLieAlgebra, Weight, is_dominant

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
        # The first five missing indices, found without listing the table.
        indices = itertools.product(*(range(1, d + 1) for d in self.dims))
        missing = list(itertools.islice((I for I in indices if I not in self.weights), 5))
        if missing:
            raise InputError("weight table is incomplete", missing=missing)
        if len(self.weights) != self.table_size:
            raise InputError("weight table has extraneous entries")
        d = self.algebra.rank
        for I, w in self.weights.items():
            if len(w) != d:
                raise InputError("weight has wrong length", index=I, expected=d)
            if not is_dominant(w):
                raise InputError("weights must be dominant integral", index=I)

    @classmethod
    def unchecked(cls, algebra, n, dims, weights, evals, rho) -> "PsiSpec":
        """A spec from data derived from a checked spec (lifted to another
        field, or summed over an axis), which still passes every
        ``__post_init__`` check; the checks are not run again.  ``rho`` has
        one entry per axis."""
        spec = object.__new__(cls)
        spec.__dict__.update(
            algebra=algebra, n=n, dims=dims, weights=weights, evals=evals, rho=rho
        )
        return spec

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
        return PsiSpec.unchecked(
            self.algebra, self.n, self.dims, dict(self.weights), evals, self.rho
        )

    def coefficients(self, m) -> list[CycScalar]:
        """The products ``a_I^m = ∏ᵢ a_{i,Iᵢ}^{mᵢ}``, one per index in table
        order (``table_indices``); each scalar power is taken once."""
        out = [a ** m[0] for a in self.evals[0]]
        for axis, x in zip(self.evals[1:], m[1:]):
            pows = [a ** x for a in axis]
            out = [c * p for c in out for p in pows]
        return out


def common_field_order(*specs: PsiSpec) -> int:
    return lcm(*(s.field_order for s in specs))


@dataclass(frozen=True)
class TwistedSpec:
    base: PsiSpec
    aut: DiagramAut

    def __post_init__(self):
        k = self.aut.order
        if k not in (1, 2, 3):
            raise InputError("twist order must be 1, 2 or 3", k=k)
        if len(self.aut.sigma) != self.base.algebra.rank:
            raise InputError("automorphism rank does not match the algebra")
        if self.base.field_order % k:
            object.__setattr__(
                self, "base", self.base.with_field_order(lcm(self.base.field_order, k))
            )

    @property
    def order(self) -> int:
        return self.aut.order
