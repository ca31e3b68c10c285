"""Block structure of classified evaluation data and the isomorphism decision.

For a support with axis periods ``rᵢ``, the evaluation scalars of axis ``i``
fall into complete orbits of size ``rᵢ`` under multiplication by a primitive
``rᵢ``-th root of unity: scalars sharing an ``rᵢ``-th power form one block,
and a block with exactly ``rᵢ`` distinct members is automatically the full
solution set of ``x^{rᵢ} = c^{rᵢ}``.  Any deviation is a structure violation.

``classify`` combines support, the orbit check and the partition of the
weight table into equality classes (each class size must be a multiple of the
index ``p``).  It checks the blocks but never builds them: each axis is
grouped by the integer key ``(|num|, den, g·rᵢ mod 2L)`` of ``a^{rᵢ}``, with
``g = cyclotomic.phase(a)`` the exponent of ``a/|a| = ζ_{2L}^g``.  A
descriptor builds its ``blocks`` with ``detect_blocks`` on first read, which
of the reports only ``classify`` does, so ``iso`` builds none.
``decide_iso`` searches for a witness (per-axis permutations τᵢ, per-axis
scalings 𝔰ᵢ, and a grading shift in Γ) relating two classified descriptors.
The search itself is ``find_witness``, which the twisted decision runs too;
the untwisted search is its k = 1 case.

The permutation search uses per-axis value distinctness: fixing the partner
``a_{i,j₀}`` of the first scalar ``b_{i,1}`` determines the scaling
``𝔰ᵢ = b_{i,1}/a_{i,j₀}`` and with it at most one value bijection, so each
axis contributes at most ``Nᵢ`` candidates.  Candidate tuples are tried in
lexicographic order of the ``j₀`` choices and the first full witness wins.
A witness relates the tables by ``ξ_I = λ_{τ(I)}`` and the scalars by
``b_{i,j} = 𝔰ᵢ · a_{i,τᵢ(j)}`` (indices of the second spec map through τ to
the first), and requires ``ς − ϱ ∈ Γ``.

Under a twist σ of order k, axis 1 also carries per-index k-th roots of
unity: ``b_j = ε_j·℘·a_{τ(j)}`` with ``ε_j = ω^{u_j}``, the axis-1
candidates being those of the k-th powers.  The k-th root ℘ of the
power-level scaling is fixed only up to a gauge ω^g, and the tables relate
by ``ξ_I = σ^{u_I+g}(λ_{τ(I)})``.  This is the twisted criterion (equal 𝔥₀
components, components on the m₁ ≡ j eigenbasis equal up to ε^{−j}; see
``liealg.restrict_weight``) read on the integer weights: k ∈ {2, 3} is
prime, so every σ-orbit has size 1 or k.  On a fixed node σ acts trivially
and the one component is the value.  On a full orbit the components are the
discrete Fourier coefficients of the values around it (Kac,
*Infinite-dimensional Lie Algebras*, §8.3); multiplying the j-th by
ε^{−j} = ω^{−ju} rotates the values by u, and the transform is invertible.
σ-fixed tables are unmoved by every rotation, so they hit at g = 0, and at
k = 1 the test is equality of the tables.

A witness also fixes the second module's classification, so the search needs
only the first support.  From ``b_{i,j} = 𝔰ᵢ · a_{i,τᵢ(j)}`` and
``ξ_I = λ_{τ(I)}``, ``v_B(m) = ∏ᵢ 𝔰ᵢ^{mᵢ} · v_A(m)`` with every 𝔰ᵢ nonzero:
the two functionals vanish at the same degrees, so they have the same Γ and
the same axis periods; r-th powers scale by 𝔰ᵢ^r, so the blocks agree; and
τ carries each weight class onto one of the same size.  The second spec
therefore classifies exactly when the first does, with the same Γ.  A search
that fails only at the grading shift has found such a (τ, 𝔰) all the same,
so that hit fixes the second classification too.  ``loopmod iso`` therefore
classifies the second spec only when the search found no hit (for its
errors, which come before a refutation): never after a witness or a
``grading-shift`` refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .cyclotomic import CycScalar, phase, phase_order
from .errors import StructureViolationError
from .lattice import Lattice
from .liealg import DiagramAut, Weight, apply_aut, primitive_root_of_unity
from .psi import SupportLattice, support_lattice
from .spec import Index, PsiSpec, common_field_order, table_indices


def scalar_sort_key(a: CycScalar):
    """Deterministic total order on canonical scalars: by exponent, then
    ``|q|``, positives first.  ``|q|`` is an ``int`` unless ``den > 1``."""
    size = abs(a.num) if a.den == 1 else Fraction(abs(a.num), a.den)
    return (a.e, size, a.num < 0)


@dataclass(frozen=True)
class AxisBlocks:
    axis: int                       # 0-based
    period: int                     # rᵢ
    block_count: int                # ℓᵢ = Nᵢ / rᵢ
    bases: tuple[CycScalar, ...]    # c_{iℓ}, one per block, sorted
    epsilon: CycScalar              # primitive rᵢ-th root of unity used
    assignment: tuple[tuple[int, int], ...]  # per j (0-based): (block, phase)


@dataclass(frozen=True)
class BlockStructure:
    axes: tuple[AxisBlocks, ...]


def _orbits(spec: PsiSpec, support: SupportLattice) -> list[list[list[int]]]:
    """Per axis, its indices grouped by the rᵢ-th power of their scalars, or
    the first structure violation, axis by axis: rᵢ must divide Nᵢ, and each
    group must be a complete orbit of rᵢ members.

    ``a^r`` is keyed ``(|num|, den, g·r mod 2L)``, ``g = phase(a)``: ``a`` is
    ``|num|/den`` times ``ζ_{2L}^g``, and scalars of one order are equal
    exactly when these agree.  Groups are in the order of their first
    member."""
    full = 2 * spec.field_order
    out = []
    for i in range(spec.n):
        r = support.periods[i]
        n_i = spec.dims[i]
        if n_i % r:
            raise StructureViolationError(
                "axis period does not divide the axis size",
                axis=i + 1,
                period=r,
                size=n_i,
            )
        groups: dict[tuple[int, int, int], list[int]] = {}
        for j, a in enumerate(spec.evals[i]):
            groups.setdefault((abs(a.num), a.den, phase(a) * r % full), []).append(j)
        for members in groups.values():
            if len(members) != r:
                raise StructureViolationError(
                    "scalars sharing an r-th power do not form a complete orbit",
                    axis=i + 1,
                    period=r,
                    group=[j + 1 for j in members],
                )
        out.append(list(groups.values()))
    return out


def detect_blocks(spec: PsiSpec, support: SupportLattice) -> BlockStructure:
    """Group each axis into complete ε-orbits of size rᵢ (``_orbits``).

    A block's base is its least member by ``scalar_sort_key``, and blocks
    are in the order of their bases.  The members of a block share
    ``|a|``, so each is its base times ``ζ_{2L}^Δ``, Δ their phase
    difference.  ε is the least primitive rᵢ-th root of unity among the
    first block's ratios, those with ``phase_order(Δ) = rᵢ``, and a member
    sits at the position ``p`` with ``p·phase(ε) ≡ Δ (mod 2L)``."""
    order = spec.field_order
    full = 2 * order
    axes = []
    for i, groups in enumerate(_orbits(spec, support)):
        r = support.periods[i]
        values = spec.evals[i]
        phases = [phase(a) for a in values]
        # Each group by its least member, as (key, j): keys are distinct.
        keys = [scalar_sort_key(a) for a in values]
        least = sorted((min((keys[j], j) for j in g), g) for g in groups)
        bases = tuple(values[j] for (_, j), _ in least)
        (_, head), first = least[0]
        eps = min(
            (values[j] / bases[0] for j in first if phase_order(phases[j] - phases[head], order) == r),
            key=scalar_sort_key,
        )
        position = {p * phase(eps) % full: p for p in range(r)}
        assignment: list[tuple[int, int]] = [(-1, -1)] * len(values)
        for ell, ((_, base), g) in enumerate(least):
            for j in g:
                assignment[j] = (ell, position[(phases[j] - phases[base]) % full])
        axes.append(
            AxisBlocks(
                axis=i,
                period=r,
                block_count=len(values) // r,
                bases=bases,
                epsilon=eps,
                assignment=tuple(assignment),
            )
        )
    return BlockStructure(axes=tuple(axes))


@dataclass(frozen=True)
class ModuleDescriptor:
    """A classified spec.  ``classify`` has checked its orbits; ``blocks``
    builds them on first read (``detect_blocks``) and keeps them.  Of the
    reports only ``classify`` reads them, so ``iso`` never builds them."""

    spec: PsiSpec
    support: SupportLattice
    p: int
    classes: tuple[tuple[Weight, int], ...]      # (weight value, class size)
    realization: tuple[tuple[Weight, int], ...]  # (weight value, size // p)

    @cached_property
    def blocks(self) -> BlockStructure:
        return detect_blocks(self.spec, self.support)

    @property
    def realization_statement(self) -> str:
        return f"irreducible component of ({tensor_factors(self.realization)})^⊗{self.p} ⊗ A"


def tensor_factors(realization) -> str:
    """``V(λ)^c ⊗ …`` for (weight, count) pairs; a count of 1 is left out."""
    return " ⊗ ".join(
        "V(" + ",".join(str(x) for x in w) + ")" + (f"^{c}" if c > 1 else "") for w, c in realization
    )


def weight_classes(spec: PsiSpec) -> tuple[tuple[Weight, int], ...]:
    counts: dict[Weight, int] = {}
    for I in table_indices(spec.dims):
        w = spec.weights[I]
        counts[w] = counts.get(w, 0) + 1
    return tuple(sorted(counts.items()))


def classify(spec: PsiSpec) -> ModuleDescriptor:
    support = support_lattice(spec)
    p = support.index
    _orbits(spec, support)
    classes = weight_classes(spec)
    for w, size in classes:
        if size % p:
            raise StructureViolationError(
                "weight class size is not a multiple of the support index",
                weight=w,
                size=size,
                index=p,
            )
    realization = tuple((w, size // p) for w, size in classes)
    return ModuleDescriptor(
        spec=spec,
        support=support,
        p=p,
        classes=classes,
        realization=realization,
    )


@dataclass(frozen=True)
class Witness:
    taus: tuple[tuple[int, ...], ...]      # per axis, 0-based: j ↦ τ(j)
    scalings: tuple[CycScalar, ...]        # 𝔰ᵢ per axis
    shift: tuple[int, ...]                 # m with ϱ + m = ς


@dataclass(frozen=True)
class TwistedWitness(Witness):
    epsilons: tuple[CycScalar, ...]  # axis-1 per-index roots of unity


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    witness: Witness | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def axis_candidates(
    a_values: tuple[CycScalar, ...],
    b_values: tuple[CycScalar, ...],
    roots: tuple[CycScalar, ...] = (),
) -> list[tuple[CycScalar, tuple[int, ...], tuple[int, ...]]]:
    """All (𝔰, τ, u) with b_j = ω^{u_j}·𝔰·a_{τ(j)} and u₁ = 0, ordered by the
    partner of b₁.  ``roots`` lists ω, …, ω^{k−1} for a primitive k-th root
    of unity ω; with none (k = 1) every u_j is 0.

    These are the candidates of the k-th powers, b_j^k = 𝔰^k·a_{τ(j)}^k with
    𝔰 = b₁/a_{τ(1)}: a ratio whose k-th power is 1 is a power of ω.  The
    k-th powers of ``a_values`` are pairwise distinct (the values themselves
    at k = 1, image equality of a twisted module), so the ω^u·a_j are too
    and each b_j/𝔰 names at most one (j, u).  Two b_j can still name the
    same j when their own k-th powers collide (``b_values`` failing image
    equality); such a τ is no permutation and is dropped.  At k = 1 that
    never happens: the b_j are distinct, so the a_j they name are too.

    The values share one order L and are matched on integer keys
    ``(|num|, den, g)``, ``g = phase(x)`` in [0, 2L), which are equal
    exactly when the scalars are: ``ω^u·a`` is keyed by its phase sum, and
    ``b/𝔰 = b·a_{j₀}/b₁`` by the reduced product of magnitudes and the phase
    ``g_b + g_{a_{j₀}} − g_{b₁}``.  Only a candidate's 𝔰 is a scalar."""
    full = 2 * a_values[0].order
    keys = [(abs(a.num), a.den, phase(a)) for a in a_values]
    lookup = {}
    for u, turn in enumerate([0] + [phase(r) for r in roots]):
        lookup.update({(num, den, (g + turn) % full): (j, u) for j, (num, den, g) in enumerate(keys)})
    b_keys = [(abs(b.num), b.den, phase(b)) for b in b_values]
    num1, den1, g1 = b_keys[0]
    out = []
    for j0, (num0, den0, g0) in enumerate(keys):
        up, down, turn = num0 * den1, den0 * num1, g0 - g1
        hits = []
        for num, den, g in b_keys:
            x, y = num * up, den * down
            c = gcd(x, y)
            hit = lookup.get((x // c, y // c, (g + turn) % full))
            if hit is None:
                break
            hits.append(hit)
        else:
            tau, us = zip(*hits)
            if len(set(tau)) == len(tau):
                out.append((b_values[0] / a_values[j0], tau, us))
    return out


def tau_image(taus, I: Index) -> Index:
    """The first spec's index that a witness's taus pair with ``I``."""
    return tuple(t[i - 1] + 1 for t, i in zip(taus, I))


def find_witness(
    s1: PsiSpec,
    s2: PsiSpec,
    gamma: Lattice,
    aut: DiagramAut | None = None,
    same_algebra: bool = True,
) -> IsoResult:
    """The witness search of both isomorphism decisions, or its first failure.

    ``aut`` is the twist σ of order k (none: untwisted, k = 1).  After the
    dimension and algebra checks both specs are lifted to a common field
    holding ω, a primitive k-th root of unity.  Each axis takes the
    candidates of ``axis_candidates``, axis 1 with the powers of ω, and
    candidate tuples are tried in lexicographic order.  A tuple hits when,
    for the least gauge g in [0, k), every index ``I`` of ``s2`` has
    ``ξ_I = σ^{u_I+g}(λ_{τ(I)})``, with ω^{u_I} the root of its axis-1
    entry; it is recorded as ℘/ω^g and, twisted, the roots ω^{u_j+g}.  The first hit must also see an integral grading shift in
    ``gamma``, the support of ``s1``.

    ``s2`` needs no support of its own: a hit gives
    ``v_B(m) = ∏ᵢ 𝔰ᵢ^{mᵢ}·v_A(m)``, so ``s2`` classifies exactly when ``s1``
    does, with the same Γ (module docstring; for Γ^μ, ``twisted``).
    """
    if s1.n != s2.n or s1.dims != s2.dims:
        return IsoResult(False, reason="dimension-mismatch")
    if s1.algebra.cartan != s2.algebra.cartan or not same_algebra:
        return IsoResult(False, reason="algebra-mismatch")
    order = common_field_order(s1, s2)
    s1 = s1.with_field_order(order)
    s2 = s2.with_field_order(order)
    k = 1 if aut is None else aut.order
    root = primitive_root_of_unity(k, order)
    roots = tuple(root ** u for u in range(k))

    per_axis = [axis_candidates(s1.evals[0], s2.evals[0], roots[1:])]
    per_axis += [axis_candidates(s1.evals[i], s2.evals[i]) for i in range(1, s1.n)]
    if any(not c for c in per_axis):
        return IsoResult(False, reason="no-scaling-permutation")

    rotated = [s1.weights]  # rotated[u][J] = σ^u(λ_J)
    for _ in range(1, k):
        rotated.append({J: apply_aut(aut, w) for J, w in rotated[-1].items()})
    indices = table_indices(s1.dims)

    def gauge(taus, us) -> int | None:
        for g in range(k):
            tables = [rotated[(u + g) % k] for u in us]
            if all(s2.weights[I] == tables[I[0] - 1][tau_image(taus, I)] for I in indices):
                return g
        return None

    for combo in itertools.product(*per_axis):
        taus = tuple(c[1] for c in combo)
        us = combo[0][2]
        g = gauge(taus, us)
        if g is not None:
            break
    else:
        return IsoResult(False, reason="weight-mismatch")
    scalings = (combo[0][0] / roots[g],) + tuple(c[0] for c in combo[1:])

    delta = [b - a for a, b in zip(s1.rho, s2.rho)]
    if any(x.denominator != 1 for x in delta):
        return IsoResult(False, reason="grading-shift")
    shift = tuple(int(x) for x in delta)
    if not gamma.contains(shift):
        return IsoResult(False, reason="grading-shift")
    if aut is None:
        return IsoResult(True, witness=Witness(taus, scalings, shift))
    epsilons = tuple(roots[(u + g) % k] for u in us)
    return IsoResult(True, witness=TwistedWitness(taus, scalings, shift, epsilons))


def decide_iso(d1: ModuleDescriptor, d2: ModuleDescriptor | PsiSpec) -> IsoResult:
    """Witness search of ``d2`` against ``d1``, or the first failure.  ``d2``
    is the second descriptor or only its spec: a witness fixes the second
    support (``find_witness``), so the spec need not be classified first."""
    s2 = d2.spec if isinstance(d2, ModuleDescriptor) else d2
    return find_witness(d1.spec, s2, d1.support.lattice)
