"""Finite-dimensional simple Lie algebra data.

Cartan matrices follow the convention ``C[i][j] = 2(αᵢ, αⱼ)/(αᵢ, αᵢ)``, i.e.
row ``i`` evaluates the coroot ``αᵢ^∨`` on the simple roots.  Weights are
integer tuples in the fundamental-weight basis; roots are integer tuples in
the simple-root basis.  Positive roots are generated from the simple roots by
the root-string closure.  The Weyl dimension formula is evaluated exactly in
integers over the positive coroots, the positive roots of the dual system,
whose Cartan matrix is the transpose: ``⟨ωᵢ, αⱼ^∨⟩ = δᵢⱼ``, so a coroot
``β^∨ = Σ cᵢαᵢ^∨`` pairs with ``λ + ρ`` to ``Σ cᵢ(λᵢ + 1)`` (Humphreys,
*Introduction to Lie Algebras and Representation Theory*, §9.2 and §24.3).

Diagram automorphisms are node permutations preserving the Cartan matrix, of
order 1, 2 or 3.  ``restrict_weight`` evaluates a weight on a fixed eigenbasis
of the Cartan subalgebra: for each node orbit ``O`` with base ``b`` the vector
``v_j(O) = Σ_t ε^{−jt} h_{σ^t(b)}`` spans the ``ε^j``-eigenspace contribution
of ``O`` (ε a primitive k-th root of unity); orbits are taken with minimal
base node first, so the basis, and hence the restricted components, are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction

from .cyclotomic import CycScalar, CycVector
from .errors import InputError, UnsupportedError

Weight = tuple[int, ...]
Root = tuple[int, ...]

_SERIES = ("A", "B", "C", "D", "E", "F", "G")


def _cartan_matrix(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    d = rank
    C = [[2 if i == j else 0 for j in range(d)] for i in range(d)]

    def bond(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if series == "A":
        if d < 1:
            raise UnsupportedError("A series needs rank >= 1")
        for i in range(d - 1):
            bond(i, i + 1)
    elif series == "B":
        if d < 2:
            raise UnsupportedError("B series needs rank >= 2")
        for i in range(d - 2):
            bond(i, i + 1)
        bond(d - 2, d - 1, -1, -2)  # last node short
    elif series == "C":
        if d < 2:
            raise UnsupportedError("C series needs rank >= 2")
        for i in range(d - 2):
            bond(i, i + 1)
        bond(d - 2, d - 1, -2, -1)  # last node long
    elif series == "D":
        if d < 3:
            raise UnsupportedError("D series needs rank >= 3")
        for i in range(d - 3):
            bond(i, i + 1)
        bond(d - 3, d - 2)
        bond(d - 3, d - 1)
    elif series == "E":
        if d not in (6, 7, 8):
            raise UnsupportedError("E series needs rank 6, 7 or 8")
        chain = [0, 2, 3, 4, 5, 6, 7][: d - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif series == "F":
        if d != 4:
            raise UnsupportedError("F series needs rank 4")
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    else:  # G: ``build_algebra`` refuses a series outside ``_SERIES`` first
        if d != 2:
            raise UnsupportedError("G series needs rank 2")
        bond(0, 1, -3, -1)
    return tuple(tuple(r) for r in C)


def _positive_roots(cartan) -> tuple[Root, ...]:
    d = len(cartan)
    roots: set[Root] = set()
    level = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    roots.update(level)
    while level:
        nxt: set[Root] = set()
        for beta in level:
            for i in range(d):
                r = sum(cartan[i][j] * beta[j] for j in range(d))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) in roots:
                        p += 1
                    else:
                        break
                if p - r > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        nxt.add(cand)
        roots.update(nxt)
        level = sorted(nxt)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


@dataclass(frozen=True)
class SimpleLieAlgebra:
    series: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]

    def __repr__(self) -> str:
        return f"SimpleLieAlgebra({self.series}{self.rank})"

    # Only Weyl dimensions read these; A_n has n(n+1)/2 of them, so they are
    # built on first use, not with every spec.
    @cached_property
    def positive_coroots(self) -> tuple[Root, ...]:
        """The positive roots of the dual system, in the simple-coroot basis."""
        return _positive_roots(tuple(zip(*self.cartan)))


# One instance per (series, rank), so its coroots are built once for every
# spec that names it; bounded, so a batch over many ranks does not keep every
# Cartan matrix.
@lru_cache(maxsize=16)
def build_algebra(series: str, rank: int) -> SimpleLieAlgebra:
    if series not in _SERIES:
        raise UnsupportedError("unknown series", series=series)
    cartan = _cartan_matrix(series, rank)
    return SimpleLieAlgebra(series=series, rank=rank, cartan=cartan)


def is_dominant(weight: Weight) -> bool:
    return all(c >= 0 for c in weight)


def weyl_dim(algebra: SimpleLieAlgebra, weight: Weight) -> int:
    """dim V(λ) = ∏_{β^∨>0} ⟨λ+ρ, β^∨⟩/⟨ρ, β^∨⟩ over the positive coroots
    β^∨ = Σ cᵢαᵢ^∨, that is ∏ Σ cᵢ(λᵢ+1) / Σ cᵢ: the integer numerators and
    denominators are multiplied out and divided once."""
    if len(weight) != algebra.rank:
        raise InputError("weight has wrong length", expected=algebra.rank)
    if not is_dominant(weight):
        raise InputError("weight is not dominant", weight=weight)
    num = den = 1
    for beta in algebra.positive_coroots:
        num *= sum(c * (w + 1) for c, w in zip(beta, weight))
        den *= sum(beta)
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("Weyl dimension did not come out integral")
    return dim


@dataclass(frozen=True)
class DiagramAut:
    sigma: tuple[int, ...]  # node permutation, 0-based
    order: int


def build_aut(algebra: SimpleLieAlgebra, sigma) -> DiagramAut:
    sigma = tuple(int(x) for x in sigma)
    d = algebra.rank
    if sorted(sigma) != list(range(d)):
        raise InputError("automorphism must be a permutation of the nodes")
    C = algebra.cartan
    for i in range(d):
        for j in range(d):
            if C[sigma[i]][sigma[j]] != C[i][j]:
                raise InputError(
                    "permutation does not preserve the Cartan matrix", i=i, j=j
                )
    order = 1
    power = sigma
    while power != tuple(range(d)):
        power = tuple(sigma[p] for p in power)
        order += 1
        if order > 3:
            raise UnsupportedError("diagram automorphisms of order > 3", order=order)
    return DiagramAut(sigma=sigma, order=order)


def apply_aut(aut: DiagramAut, weight: Weight) -> Weight:
    out = [0] * len(weight)
    for i, c in enumerate(weight):
        out[aut.sigma[i]] = c
    return tuple(out)


def node_orbits(aut: DiagramAut) -> list[tuple[int, ...]]:
    """σ-orbits of the nodes, each starting at its minimal node, sorted."""
    seen: set[int] = set()
    orbits = []
    for b in range(len(aut.sigma)):
        if b in seen:
            continue
        orbit = [b]
        seen.add(b)
        nxt = aut.sigma[b]
        while nxt != b:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = aut.sigma[nxt]
        orbits.append(tuple(orbit))
    return orbits


@dataclass(frozen=True)
class RestrictedWeight:
    """Values of a weight on the fixed eigenbasis of the Cartan subalgebra.

    ``comp0[o]`` is the (rational) value on ``v_0(O)`` for every orbit, in the
    orbit order of :func:`node_orbits`.  ``higher[j-1][t]`` is the value on
    ``v_j(O)`` for the t-th full orbit (size = automorphism order); these live
    in the cyclotomic field since the eigenvectors carry roots of unity.
    """

    comp0: tuple[Fraction, ...]
    higher: tuple[tuple[CycVector, ...], ...]


def restrict_weight(aut: DiagramAut, weight: Weight, field_order: int) -> RestrictedWeight:
    k = aut.order
    if field_order % k:
        raise InputError(
            "cyclotomic order must be divisible by the automorphism order",
            order=field_order,
            k=k,
        )
    orbits = node_orbits(aut)
    comp0 = tuple(Fraction(sum(weight[i] for i in orbit)) for orbit in orbits)
    higher: list[tuple[CycVector, ...]] = []
    full = [o for o in orbits if len(o) == k] if k > 1 else []
    step = field_order // k
    for j in range(1, k):
        comps = []
        for orbit in full:
            terms = [(-j * t * step, weight[node]) for t, node in enumerate(orbit)]
            comps.append(CycVector.from_terms(field_order, terms))
        higher.append(tuple(comps))
    return RestrictedWeight(comp0=comp0, higher=tuple(higher))


def primitive_root_of_unity(order_k: int, field_order: int) -> CycScalar:
    """A primitive k-th root of unity as a scalar of the ambient field."""
    if order_k == 1:
        return CycScalar.one(field_order)
    if order_k == 2:
        return CycScalar(-1, 0, field_order)
    if field_order % order_k:
        raise InputError(
            "field order does not contain the requested root of unity",
            k=order_k,
            order=field_order,
        )
    return CycScalar.zeta(field_order, field_order // order_k)
