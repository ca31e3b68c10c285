"""Twisted classification: restricted support, types, and isomorphism criteria.

The twist is a diagram automorphism μ of order k acting on loop axis 1: the
degree-m piece of the fixed-point Cartan data is ``𝔥_{m₁ mod k} ⊗ t^m``, so
the restricted functional at degree m is the full functional evaluated on the
eigenbasis of ``𝔥_{m₁ mod k}``.  The twisted support ``Γ^μ`` collects the
degrees where that restriction is nonzero; it is computed with the same
certificate ladder as the untwisted support (``psi.nonvanishing_support``),
but in the axis ordering (2, …, n, 1), so the last diagonal entry of its
triangular basis is the axis-1 projection generator ``m̂ₙ``.  The restricted
functional supplies its own term table, one per residue of m₁ mod k, so its
cosets are taken modulo ``lcm(M₁, k)`` on axis 1; its components are not
positive sums of roots of unity, so the Lam–Leung rung is skipped, and
``gamma_mu`` reports the rung that settled it as its ``certificate``.
Axis-period bounds are ``Nᵢ`` on axes ≥ 2 and ``k·N₁`` on axis 1 (the
restricted support can be coarser there by a factor dividing k).

A table fixed pointwise by μ gives a *second type* module: all restricted
components beyond 𝔥₀ vanish, so the restricted term tables of the residues
j ≠ 0 are empty, every nonvanishing degree has ``k | m₁``, and so do the
generators of ``Γ^μ`` (its axis periods and the nonvanishing degrees of its
box), forcing ``k | m̂ₙ``.  Otherwise the module is of *first type* and
``m̂ₙ = 1``.

The spec itself, ``TwistedSpec``, is data in ``spec``.  Both the support
and the isomorphism search are the untwisted routines run on twisted inputs;
what is the twisted path's own is the restricted term table and the
realizer's twist-compatible generator list.  ``restricted_values`` evaluates
the restricted functional directly, from the base spec's ``coefficients``.
``twisted_support`` hands the restricted evaluator, the bounds and the
ordering to ``psi.nonvanishing_support``.  ``decide_twisted_iso`` runs
``classify.find_witness`` with the twist σ: axis 1 takes the candidates of
the k-th powers of its scalars (b_j^k = ℘₁^k·a_{τ₁(j)}^k), so each ratio
ε_j = b_j/(℘₁·a_{τ₁(j)}) is a k-th root of unity ω^{u_j}, and the tables
compare as ξ_I = σ^{u_I+g}(λ_{τ(I)}) for some gauge g.  On first-type data
that is the restricted-weight criterion, m₁ ≡ j components equal up to
ε^{−j}, by the discrete Fourier argument in ``classify``; second-type
tables are σ-fixed, so they compare for equality.

A witness fixes the second module's twisted classification, so the search
needs only the first Γ^μ.  Its axis-1 factor is ε_j·℘₁ with ε_j^k = 1.  On
first-type data the rotated tables match the m₁ ≡ j components up to ε^{−j};
on second-type data the weights are σ-fixed and the j ≠ 0 components vanish.
Either way the second restricted functional is ℘₁^{m₁}·∏_{i≥2} 𝔰ᵢ^{mᵢ}
times the first, so Γ^μ, m̂ₙ and the marginal index agree, and image
equality agrees because b_j^k = ℘₁^k·a_{τ₁(j)}^k.  A hit that fails only at
the grading shift has the same factors, so it fixes Γ^μ too.  ``loopmod
twisted-iso`` therefore compares the second spec's type alone
(``classify_type``) and classifies it only when the search found no hit,
for its errors: never after a witness or a ``grading-shift`` refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .classify import IsoResult, find_witness, tensor_factors, weight_classes
from .cyclotomic import CycVector
from .errors import (
    ImageMismatchError,
    InputError,
    StructureViolationError,
    TrivialModuleError,
)
from .liealg import apply_aut, node_orbits, restrict_weight
from .psi import SupportLattice, nonvanishing_support, support_lattice
from .spec import Index, PsiSpec, TwistedSpec, table_indices

ModuleType = Literal["first", "second"]


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
    """Restricted functional: v(m) paired against the 𝔥_{m₁ mod k} eigenbasis.

    Its term table (see ``psi.Evaluator``) holds the restricted components,
    which are not sums of roots of unity with positive weights, so the
    Lam–Leung rung is skipped.  The support reads only the term table;
    ``restricted_values`` and ``is_nonzero`` evaluate directly, as an oracle."""

    lam_leung = False

    def __init__(self, spec: TwistedSpec):
        self.spec = spec
        self.k = spec.order
        self.order = spec.base.field_order
        self.evals = spec.base.evals
        self._indices = table_indices(spec.base.dims)
        restricted = [
            (I, restrict_weight(spec.aut, spec.base.weights[I], self.order))
            for I in self._indices
        ]
        orbits = node_orbits(spec.aut)
        self.orbit_count = len(orbits)
        self.full_count = sum(1 for o in orbits if len(o) == self.k)
        # terms[j]: for each index whose components on the m₁ ≡ j eigenbasis
        # do not all vanish, its components as (exponent, integer) pairs: the
        # orbit sums at j = 0, the integer numerators of ``restrict_weight``
        # beyond, built from the integer weights.
        self.terms: list[list[tuple[Index, list]]] = []
        for j in range(self.k):
            rows = []
            for I, rw in restricted:
                if j == 0:
                    comps = [[(0, c.numerator)] if c else [] for c in rw.comp0]
                else:
                    comps = [[(e, x) for e, x in enumerate(v.num) if x] for v in rw.higher[j - 1]]
                if any(comps):
                    rows.append((I, comps))
            self.terms.append(rows)

    def restricted_values(self, m) -> list[CycVector]:
        j = m[0] % self.k
        slots = self.orbit_count if j == 0 else self.full_count
        acc = [[] for _ in range(slots)]
        coeffs = dict(zip(self._indices, self.spec.base.coefficients(m)))
        for I, comps in self.terms[j]:
            a = coeffs[I]
            for t, terms in enumerate(comps):
                acc[t].extend((e + a.e, a.q * c) for e, c in terms)
        return [CycVector.from_terms(self.order, t) for t in acc]

    def is_nonzero(self, m) -> bool:
        return any(not v.is_zero() for v in self.restricted_values(m))


def twisted_support(spec: TwistedSpec) -> SupportLattice:
    """Support of the restricted functional, in the ordering (2, …, n, 1)."""
    if spec.base.is_trivial():
        raise TrivialModuleError("all weights are zero")
    n = spec.base.n
    bounds = [spec.order * spec.base.dims[0]] + list(spec.base.dims[1:])
    ordering = tuple(range(1, n)) + (0,)
    return nonvanishing_support(TwistedEvaluator(spec), bounds, ordering)


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
        factors = tensor_factors(self.realization)
        return f"irreducible twisted-loop submodule of ({factors})^⊗{self.exponent} ⊗ A"


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
    return PsiSpec.unchecked(
        spec.algebra, spec.n - 1, dims, weights, spec.evals[1:], spec.rho[1:]
    )


def twisted_classify(spec: TwistedSpec) -> TwistedDescriptor:
    if not image_equality(spec):
        raise ImageMismatchError(
            "axis-1 k-th powers collide; the restriction is completely reducible "
            "along a smaller image and is outside the classification path"
        )
    module_type = classify_type(spec)
    gamma_mu = twisted_support(spec)
    mh = gamma_mu.lattice.rows[-1][-1]  # m̂ₙ, the last diagonal entry
    k = spec.order
    if module_type == "first" and mh != 1:
        raise StructureViolationError(
            "first-type data must have axis-1 projection generator 1", m_hat=mh
        )
    if spec.base.n == 1:
        marginal_index = 1
    else:
        marginal_index = support_lattice(marginal_spec(spec.base)).index
    # Second type: k | m̂ₙ (module docstring).
    exponent = marginal_index if module_type == "first" else marginal_index * mh // k
    classes = weight_classes(spec.base)
    for w, size in classes:
        if size % exponent:
            raise StructureViolationError(
                "weight class size is not a multiple of the exponent",
                weight=w,
                size=size,
                exponent=exponent,
            )
    realization = tuple((w, size // exponent) for w, size in classes)
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


def decide_twisted_iso(d1: TwistedDescriptor, d2: TwistedDescriptor | TwistedSpec) -> IsoResult:
    """Witness search of ``d2`` against ``d1`` per the twisted criteria, or
    the first failed clause.  ``d2`` is the second descriptor or only its
    spec: a witness fixes the second Γ^μ (module docstring), so the spec need
    not be classified first; only its type is compared."""
    t2 = d2.spec if isinstance(d2, TwistedDescriptor) else d2
    if d1.module_type != classify_type(t2):
        return IsoResult(False, reason="type-mismatch")
    return find_witness(
        d1.spec.base,
        t2.base,
        d1.gamma_mu.lattice,
        aut=d1.spec.aut,
        same_algebra=d1.spec.aut == t2.aut,
    )
