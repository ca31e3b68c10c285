"""Twisted classification: restricted support, types, and isomorphism criteria.

The twist is a diagram automorphism μ of order k acting on loop axis 1: the
degree-m piece of the fixed-point Cartan data is ``𝔥_{m₁ mod k} ⊗ t^m``, so
the restricted functional at degree m is the full functional evaluated on the
eigenbasis of ``𝔥_{m₁ mod k}``.  The twisted support ``Γ^μ`` collects the
degrees where that restriction is nonzero; it is computed with the same box
scan as the untwisted support, but in the axis ordering (2, …, n, 1), so the
last diagonal entry of its triangular basis is the axis-1 projection
generator ``m̂ₙ``.  Axis-period bounds are ``Nᵢ`` on axes ≥ 2 and ``k·N₁`` on
axis 1 (the restricted support can be coarser there by a factor dividing k).

A table fixed pointwise by μ gives a *second type* module (all restricted
components beyond 𝔥₀ vanish, forcing ``k | m̂ₙ``); otherwise the module is of
*first type* and ``m̂ₙ = 1``.  ``decide_twisted_iso`` mirrors the untwisted
witness search on axes ≥ 2; on axis 1 scalars are matched through their k-th
powers, each ratio must be a k-th root of unity ε, and the weight conditions
compare restricted components twisted by ε^{−j}.  The k-th root of the
power-level scaling is only determined up to a k-th root of unity, so the
search ranges over that finite gauge as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Literal

from .classify import IsoResult, Witness, axis_candidates, weight_classes
from .cyclotomic import CycScalar, CycVector, root_of_unity_order_divides
from .errors import (
    ImageMismatchError,
    InputError,
    StructureViolationError,
    TrivialModuleError,
)
from .liealg import (
    DiagramAut,
    apply_aut,
    node_orbits,
    primitive_root_of_unity,
    restrict_weight,
)
from .psi import (
    Evaluator,
    PsiSpec,
    SupportLattice,
    _axis_periods,
    _support_from_membership,
    support_lattice,
    table_indices,
)

Index = tuple[int, ...]
ModuleType = Literal["first", "second"]


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


def image_equality(spec: TwistedSpec) -> bool:
    """True iff the k-th powers of the axis-1 scalars are pairwise distinct."""
    k = spec.order
    powers = [a ** k for a in spec.base.evals[0]]
    return len(set(powers)) == len(powers)


def classify_type(spec: TwistedSpec) -> ModuleType:
    fixed = all(
        apply_aut(spec.aut, w) == w for w in spec.base.weights.values()
    )
    return "second" if fixed else "first"


class TwistedEvaluator:
    """Restricted functional: v(m) paired against the 𝔥_{m₁ mod k} eigenbasis."""

    def __init__(self, spec: TwistedSpec):
        self.spec = spec
        self.base = Evaluator(spec.base)
        self.k = spec.order
        L = spec.base.field_order
        restricted = [
            (I, restrict_weight(spec.aut, spec.base.weights[I], L))
            for I in self.base._indices
        ]
        orbits = node_orbits(spec.aut)
        self.orbit_count = len(orbits)
        self.full_count = sum(1 for o in orbits if len(o) == self.k)
        # _terms[j]: for each index whose components on the m₁ ≡ j eigenbasis
        # do not all vanish, its components as (exponent, rational) pairs.
        self._terms: list[list[tuple[Index, list]]] = []
        for j in range(self.k):
            rows = []
            for I, rw in restricted:
                if j == 0:
                    comps = [[(0, c)] if c else [] for c in rw.comp0]
                else:
                    comps = [
                        [(e, c) for e, c in enumerate(v.coeffs) if c]
                        for v in rw.higher[j - 1]
                    ]
                if any(comps):
                    rows.append((I, comps))
            self._terms.append(rows)

    def restricted_values(self, m) -> list[CycVector]:
        j = m[0] % self.k
        slots = self.orbit_count if j == 0 else self.full_count
        acc = [[] for _ in range(slots)]
        for I, comps in self._terms[j]:
            a = self.base.coefficient(I, m)
            for t, terms in enumerate(comps):
                acc[t].extend((e + a.e, a.q * c) for e, c in terms)
        return [CycVector.from_terms(self.base.order, t) for t in acc]

    def is_nonzero(self, m) -> bool:
        return any(not v.is_zero() for v in self.restricted_values(m))


def twisted_support(spec: TwistedSpec) -> SupportLattice:
    """Support of the restricted functional, in the ordering (2, …, n, 1)."""
    if spec.base.is_trivial():
        raise TrivialModuleError("all weights are zero")
    ev = TwistedEvaluator(spec)
    n = spec.base.n
    bounds = [spec.order * spec.base.dims[0]] + list(spec.base.dims[1:])
    periods = _axis_periods(ev.is_nonzero, n, bounds)
    ordering = tuple(range(1, n)) + (0,)
    audit = tuple(max(6, 2 * max(r, b)) for r, b in zip(periods, bounds))
    return _support_from_membership(
        ev.is_nonzero, n, periods, ordering=ordering, audit_radii=audit
    )


def m_hat(support: SupportLattice) -> int:
    """Last diagonal entry of the reordered triangular basis."""
    rows = support.lattice.rows
    return rows[-1][-1]


@dataclass(frozen=True)
class TwistedDescriptor:
    spec: TwistedSpec
    module_type: ModuleType
    gamma_mu: SupportLattice
    m_hat_n: int
    exponent: int
    marginal_index: int
    classes: tuple
    realization: tuple

    @property
    def realization_statement(self) -> str:
        factors = " ⊗ ".join(
            "V(" + ",".join(str(x) for x in w) + ")" + (f"^{c}" if c > 1 else "") for w, c in self.realization
        )
        return (
            f"irreducible twisted-loop submodule of ({factors})^⊗{self.exponent} ⊗ A"
        )


def marginal_spec(spec: PsiSpec) -> PsiSpec:
    """The spec seen by axes 2..n: axis-1 summed out of the weight table."""
    if spec.n < 2:
        raise InputError("marginal spec needs at least two axes")
    dims = spec.dims[1:]
    weights: dict[Index, tuple[int, ...]] = {}
    for J in table_indices(dims):
        total = [0] * spec.algebra.rank
        for i1 in range(1, spec.dims[0] + 1):
            w = spec.weights[(i1,) + J]
            for c in range(len(total)):
                total[c] += w[c]
        weights[J] = tuple(total)
    return PsiSpec(
        algebra=spec.algebra,
        n=spec.n - 1,
        dims=dims,
        weights=weights,
        evals=spec.evals[1:],
        rho=spec.rho[1:],
    )


def twisted_classify(spec: TwistedSpec) -> TwistedDescriptor:
    if not image_equality(spec):
        raise ImageMismatchError(
            "axis-1 k-th powers collide; the restriction is completely reducible "
            "along a smaller image and is outside the classification path"
        )
    module_type = classify_type(spec)
    gamma_mu = twisted_support(spec)
    mh = m_hat(gamma_mu)
    k = spec.order
    if module_type == "first" and mh != 1:
        raise StructureViolationError(
            "first-type data must have axis-1 projection generator 1", m_hat=mh
        )
    if module_type == "second" and mh % k:
        raise StructureViolationError(
            "second-type data must have k dividing the axis-1 projection generator",
            m_hat=mh,
            k=k,
        )
    if spec.base.n == 1:
        marginal_index = 1
    else:
        marginal_index = support_lattice(marginal_spec(spec.base)).index
    exponent = marginal_index if module_type == "first" else marginal_index * mh // k
    classes = weight_classes(spec.base)
    if all(size % exponent == 0 for _, size in classes) and exponent > 0:
        realization = tuple((w, size // exponent) for w, size in classes)
    else:
        realization = classes
    return TwistedDescriptor(
        spec=spec,
        module_type=module_type,
        gamma_mu=gamma_mu,
        m_hat_n=mh,
        exponent=exponent,
        marginal_index=marginal_index,
        classes=classes,
        realization=realization,
    )


def check_complete_reducibility(spec: TwistedSpec) -> tuple[bool, str | None]:
    """Restriction of the untwisted module decomposes iff one of two clauses."""
    if image_equality(spec):
        return True, "image-equality"
    support = support_lattice(spec.base)
    if support.index == 1:
        return True, "full-image"
    return False, None


@dataclass(frozen=True)
class TwistedWitness(Witness):
    epsilons: tuple[CycScalar, ...]  # axis-1 per-index roots of unity


def _axis1_candidates(spec: TwistedSpec, a_values, b_values):
    """(℘₁, τ₁, ε-list) with b_j = ε_j·℘₁·a_{τ₁(j)} and ε_j^k = 1."""
    k = spec.order
    out = []
    power_lookup = {a ** k: j for j, a in enumerate(a_values)}
    for j0 in range(len(a_values)):
        wp = b_values[0] / a_values[j0]
        wpk = wp ** k
        tau = []
        eps = []
        ok = True
        for b in b_values:
            j = power_lookup.get((b ** k) / wpk)
            if j is None:
                ok = False
                break
            ratio = b / (wp * a_values[j])
            if not root_of_unity_order_divides(ratio, k):
                ok = False
                break
            tau.append(j)
            eps.append(ratio)
        if ok:
            out.append((wp, tuple(tau), tuple(eps)))
    return out


def decide_twisted_iso(d1: TwistedDescriptor, d2: TwistedDescriptor) -> IsoResult:
    """Witness search per the twisted criteria, or the first failed clause."""
    if d1.module_type != d2.module_type:
        return IsoResult(False, reason="type-mismatch")
    s1, s2 = d1.spec.base, d2.spec.base
    if s1.n != s2.n or s1.dims != s2.dims:
        return IsoResult(False, reason="dimension-mismatch")
    if s1.algebra.cartan != s2.algebra.cartan or d1.spec.aut != d2.spec.aut:
        return IsoResult(False, reason="algebra-mismatch")
    k = d1.spec.order
    order = lcm(s1.field_order, s2.field_order)
    s1 = s1.with_field_order(order)
    s2 = s2.with_field_order(order)
    aut = d1.spec.aut

    axis1 = _axis1_candidates(d1.spec, s1.evals[0], s2.evals[0])
    rest = [axis_candidates(s1.evals[i], s2.evals[i]) for i in range(1, s1.n)]
    if not axis1 or any(not c for c in rest):
        return IsoResult(False, reason="no-scaling-permutation")

    indices = table_indices(s1.dims)
    second = d1.module_type == "second"
    r1 = {I: restrict_weight(aut, w, order) for I, w in s1.weights.items()}
    r2 = {I: restrict_weight(aut, w, order) for I, w in s2.weights.items()}
    eps_prim = primitive_root_of_unity(k, order)

    def tau_image(taus, I):
        return tuple(t[i - 1] + 1 for t, i in zip(taus, I))

    hit = None
    for cand1 in axis1:
        wp, tau1, eps_list = cand1
        for combo in itertools.product(*rest):
            taus = (tau1,) + tuple(tau for _, tau in combo)
            if second:
                if all(
                    s2.weights[I] == s1.weights[tau_image(taus, I)] for I in indices
                ):
                    hit = (wp, taus, eps_list, tuple(s for s, _ in combo))
                    break
            else:
                # The k-th root of the power-level scaling is only fixed up
                # to a k-th root of unity; range over that gauge.
                for g in range(k):
                    gauge = eps_prim ** g
                    ok = True
                    for I in indices:
                        J = tau_image(taus, I)
                        if r2[I].comp0 != r1[J].comp0:
                            ok = False
                            break
                        eps = eps_list[I[0] - 1] * gauge
                        for j in range(1, k):
                            twistf = eps ** (-j)
                            for v2, v1 in zip(r2[I].higher[j - 1], r1[J].higher[j - 1]):
                                if v2 != v1.scale(twistf):
                                    ok = False
                                    break
                            if not ok:
                                break
                        if not ok:
                            break
                    if ok:
                        eff = tuple(e * gauge for e in eps_list)
                        hit = (wp / gauge, taus, eff, tuple(s for s, _ in combo))
                        break
                if hit:
                    break
        if hit:
            break
    if hit is None:
        return IsoResult(False, reason="weight-mismatch")
    wp, taus, eps_list, rest_scalings = hit

    if not d1.gamma_mu.lattice.same_subgroup(d2.gamma_mu.lattice):
        return IsoResult(False, reason="support-mismatch")
    delta = [b - a for a, b in zip(s1.rho, s2.rho)]
    if any(x.denominator != 1 for x in delta):
        return IsoResult(False, reason="grading-shift")
    shift = tuple(int(x) for x in delta)
    if not d1.gamma_mu.lattice.contains(shift):
        return IsoResult(False, reason="grading-shift")
    witness = TwistedWitness(
        taus=taus,
        scalings=(wp,) + rest_scalings,
        shift=shift,
        epsilons=eps_list,
    )
    return IsoResult(True, witness=witness)
