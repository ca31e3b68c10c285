"""Shared builders for the test suite: quick scalars, random spec generators,
canonical block-form constructions with a prescribed support, full-length
views of a realizer closure's fibers, the plain closure as the oracle of the
realizer's PBW-ordered one, dense class sums as the oracle of the support's
sparse ones, the per-class decomposition audit as the oracle of the
realizer's, the Weyl dimension over the roots with symmetrizers as the
oracle of the one over the coroots, the power loop as the oracle of the
closed-form multiplicative order, the block detection and witness candidates
on scalar arithmetic as the oracles of the ones on integer phases, a spec as
a document, a grading shift moved off a lattice, the monomial
substitution t ↦ t^B and the Galois conjugation ζ ↦ ζ^u of a spec
document, and small conveniences that only tests need (a spec's
tensor module, subgroup comparison, a scalar as a vector, vanishing of the
higher restricted components)."""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd, lcm, prod

from loopmod.classify import AxisBlocks, BlockStructure, scalar_sort_key
from loopmod.cyclotomic import CycScalar, CycVector, _reduce, cyclotomic_polynomial
from loopmod.errors import StructureViolationError
from loopmod.jsonio import parse_spec, scalar_to_json
from loopmod.lattice import Lattice
from loopmod.liealg import _positive_roots, build_algebra, build_aut, node_orbits
from loopmod.realizer import (
    MARGIN, DecompositionAudit, FieldEchelon, FinModule, GradedBox, build_tensor,
)
from loopmod.spec import PsiSpec, TwistedSpec, table_indices

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
D4 = build_algebra("D", 4)
A2_FLIP = build_aut(A2, (1, 0))
D4_TRIALITY = build_aut(D4, (2, 1, 3, 0))


def sc(q, e: int = 0, order: int = 1) -> CycScalar:
    return CycScalar(Fraction(q), e, order)


def vector_from_scalar(s: CycScalar, weight=1) -> CycVector:
    """``weight·s`` as a ``CycVector``."""
    return CycVector.from_terms(s.order, [(s.e, Fraction(weight) * s.num / s.den)])


def higher_vanish(rw) -> bool:
    """Every component of a ``RestrictedWeight`` beyond 𝔥₀ is zero."""
    return all(v.is_zero() for comp in rw.higher for v in comp)


def symmetrizers(cartan) -> tuple[int, ...]:
    """Positive integers d_i with d_i·C[i][j] = d_j·C[j][i]: propagated along
    the Dynkin graph as fractions, then scaled by their denominators' lcm."""
    d = len(cartan)
    sym: list = [None] * d
    for start in range(d):
        if sym[start] is not None:
            continue
        sym[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(d):
                if i != j and cartan[i][j] and sym[j] is None:
                    sym[j] = sym[i] * Fraction(cartan[i][j], cartan[j][i])
                    stack.append(j)
    scale = lcm(*(x.denominator for x in sym))
    return tuple(int(x * scale) for x in sym)


def root_weyl_dim(algebra, weight) -> int:
    """dim V(λ) = ∏_{α>0} (λ+ρ, α)/(ρ, α) over the positive roots
    α = Σ cᵢαᵢ, with the invariant form scaled so that (ωᵢ, αⱼ) = δᵢⱼ·dⱼ
    for the symmetrizers dⱼ: the oracle of ``liealg.weyl_dim``, which
    sums over the positive coroots instead."""
    num = den = 1
    sym = symmetrizers(algebra.cartan)
    for alpha in _positive_roots(algebra.cartan):
        num *= sum(c * s * (w + 1) for c, s, w in zip(alpha, sym, weight))
        den *= sum(c * s for c, s in zip(alpha, sym))
    assert num % den == 0
    return num // den


def sublattice_of(a: Lattice, b: Lattice) -> bool:
    return all(b.contains(g) for g in a.generators_original())


def same_subgroup(a: Lattice, b: Lattice) -> bool:
    """Equality as subgroups of Z^n, independent of axis ordering."""
    return a.n == b.n and sublattice_of(a, b) and sublattice_of(b, a)


def fin_for_spec(spec: PsiSpec, cap: int = 64) -> FinModule:
    """The realizer's tensor of the spec's weights, in table order."""
    return build_tensor(spec.algebra, [spec.weights[I] for I in table_indices(spec.dims)], cap=cap)


def spec(algebra, dims, weights, evals, rho=None) -> PsiSpec:
    """Build a PsiSpec from plain data; evals entries may be rationals,
    (q, e) pairs, or CycScalar; all are lifted to one common order."""
    order = 1
    flat = []
    for axis in evals:
        row = []
        for a in axis:
            if isinstance(a, CycScalar):
                row.append(a)
                order = lcm(order, a.order)
            elif isinstance(a, tuple):
                q, e, o = a
                row.append(CycScalar(Fraction(q), e, o))
                order = lcm(order, o)
            else:
                row.append(CycScalar(Fraction(a), 0, 1))
        flat.append(row)
    lifted = tuple(
        tuple(a.with_order(order) for a in row) for row in flat
    )
    dims = tuple(dims)
    table = {tuple(idx): tuple(w) for idx, w in weights.items()}
    rho_t = tuple(Fraction(x) for x in rho) if rho is not None else None
    return PsiSpec(
        algebra=algebra,
        n=len(dims),
        dims=dims,
        weights=table,
        evals=lifted,
        rho=rho_t if rho_t is not None else (Fraction(0),) * len(dims),
    )


# A pool of exactly representable scalars: ±1, ±2, ±3 and ζ₃/ζ₄ multiples.
def scalar_pool(order: int = 12):
    pool = []
    for q in (1, -1, 2, -2, 3, -3, Fraction(1, 2)):
        pool.append(CycScalar(q, 0, order))
    for q in (1, 2):
        pool.append(CycScalar(q, order // 3, order))   # q·ζ₃
        pool.append(CycScalar(q, order // 4, order))   # q·ζ₄
        pool.append(CycScalar(q, 2 * order // 3, order))
    return pool


def random_spec(rng: random.Random, twisted_ok: bool = False) -> PsiSpec:
    """Random valid spec: n ≤ 3, Nᵢ ≤ 4, algebras A₁/A₂, coords ≤ 3."""
    n = rng.choices((1, 2, 3), weights=(5, 4, 2))[0]
    algebra = rng.choice((A1, A2))
    if n == 3:
        dims = tuple(rng.choice((1, 2)) for _ in range(n))
    else:
        dims = tuple(rng.randint(1, 4) for _ in range(n))
    pool = scalar_pool()
    evals = []
    for d in dims:
        evals.append(tuple(rng.sample(pool, d)))
    weights = {}
    indices = table_indices(dims)
    # Arrange some repetition so nontrivial supports appear.
    values = []
    while not any(any(w) for w in values):
        distinct = [
            tuple(rng.randint(0, 3) for _ in range(algebra.rank))
            for _ in range(max(1, len(indices) // 2))
        ]
        values = [rng.choice(distinct) for _ in indices]
    for I, w in zip(indices, values):
        weights[I] = w
    return PsiSpec(
        algebra=algebra,
        n=n,
        dims=dims,
        weights=weights,
        evals=tuple(evals),
        rho=(Fraction(0),) * n,
    )


def orthogonal_block_spec(rng: random.Random, algebra=A1):
    """Canonical block form with Γ = ⊕ rᵢZeᵢ: per axis, complete ε-orbits on
    positive rational bases; one distinct weight per block combination.
    Returns (spec, expected periods, expected index p)."""
    n = rng.choice((1, 2))
    periods = tuple(rng.choice((1, 2, 3)) for _ in range(n))
    blocks = tuple(rng.choice((1, 2)) for _ in range(n))
    dims = tuple(r * b for r, b in zip(periods, blocks))
    order = lcm(1, *periods)
    bases = ((1, 2, 3), (2, 3, 5))
    evals = []
    for i in range(n):
        r = periods[i]
        axis = []
        for ell in range(blocks[i]):
            c = Fraction(bases[i][ell])
            for t in range(r):
                axis.append(CycScalar(c, t * (order // r), order))
        evals.append(tuple(axis))
    indices = table_indices(dims)
    p = 1
    for r in periods:
        p *= r
    # Block combination of an index: which orbit each axis coordinate sits in.
    def block_of(I):
        return tuple((I[i] - 1) // periods[i] for i in range(n))

    combos = sorted({block_of(I) for I in indices})
    wt = {combo: (2 + k,) + (0,) * (algebra.rank - 1) for k, combo in enumerate(combos)}
    weights = {I: wt[block_of(I)] for I in indices}
    spec_ = PsiSpec(
        algebra=algebra,
        n=n,
        dims=dims,
        weights=weights,
        evals=tuple(evals),
        rho=(Fraction(0),) * n,
    )
    return spec_, periods, p


def skew_block_spec(rng: random.Random, algebra=A1):
    """Canonical block form with a non-orthogonal target support: one block
    per axis (a_{ij} = εᵢ^j) and weights constant on annihilator cosets with
    geometric (power-of-two) values, which keeps every character sum nonzero.
    Returns (spec, target lattice)."""
    n = 2
    r = tuple(rng.choice((2, 3, 4)) for _ in range(n))
    extra = tuple(rng.randrange(r[i]) for i in range(n))
    target = Lattice.from_generators([(r[0], 0), (0, r[1]), extra], n=2)
    # The extra generator may have shortened an axis; use the true periods.
    r = tuple(target.axis_period(i, r[i]) for i in range(n))
    order = lcm(*r)
    evals = []
    for i in range(n):
        evals.append(
            tuple(CycScalar(1, (j * (order // r[i])) % order, order) for j in range(r[i]))
        )
    group = list(itertools.product(range(r[0]), range(r[1])))
    # Annihilator of S = target/(⊕rᵢZeᵢ) under φ·m = Σ φᵢmᵢ/rᵢ mod 1.
    s_image = [m for m in group if target.contains(m)]
    annihilator = [
        phi
        for phi in group
        if all(
            (phi[0] * m[0] * r[1] + phi[1] * m[1] * r[0]) % (r[0] * r[1]) == 0
            for m in s_image
        )
    ]
    ann_set = set(annihilator)
    cosets: list[set] = []
    for phi in group:
        hit = None
        for c in cosets:
            rep = next(iter(c))
            d = ((phi[0] - rep[0]) % r[0], (phi[1] - rep[1]) % r[1])
            if d in ann_set:
                hit = c
                break
        if hit is None:
            cosets.append({phi})
        else:
            hit.add(phi)
    coset_of = {}
    for k, c in enumerate(cosets):
        for phi in c:
            coset_of[phi] = k
    weights = {}
    for I in table_indices(r):
        phi = (I[0] - 1, I[1] - 1)
        weights[I] = (2 ** coset_of[phi],) + (0,) * (algebra.rank - 1)
    spec_ = PsiSpec(
        algebra=algebra,
        n=n,
        dims=r,
        weights=weights,
        evals=tuple(evals),
        rho=(Fraction(0), Fraction(0)),
    )
    return spec_, target


def transformed_spec(rng: random.Random, base: PsiSpec, shift_support=None):
    """Axis permutations, per-axis scalings and a support shift of rho."""
    order = lcm(base.field_order, 12)
    base = base.with_field_order(order)
    scalings = []
    perms = []
    for i in range(base.n):
        scalings.append(rng.choice(scalar_pool(order)).with_order(order))
        perm = list(range(base.dims[i]))
        rng.shuffle(perm)
        perms.append(tuple(perm))
    evals = []
    for i in range(base.n):
        evals.append(
            tuple(scalings[i] * base.evals[i][perms[i][j]] for j in range(base.dims[i]))
        )
    weights = {}
    for I in table_indices(base.dims):
        J = tuple(perms[i][I[i] - 1] + 1 for i in range(base.n))
        weights[I] = base.weights[J]
    rho = list(base.rho)
    if shift_support is not None:
        gens = shift_support.lattice.generators_original()
        g = rng.choice(gens)
        sign = rng.choice((1, -1))
        rho = [x + sign * y for x, y in zip(rho, g)]
    return PsiSpec(
        algebra=base.algebra,
        n=base.n,
        dims=base.dims,
        weights=weights,
        evals=tuple(evals),
        rho=tuple(rho),
    ), perms, scalings


def off_support_shift(rng: random.Random, s: PsiSpec, lattice: Lattice, integral: bool) -> PsiSpec:
    """``s`` with its grading shift ϱ moved by a vector outside ``lattice``:
    when ``integral`` is set, a nonzero one of [−2, 2]ⁿ if ``lattice`` leaves
    one out, and otherwise 1/2 on one axis."""
    outside = [v for v in itertools.product(range(-2, 3), repeat=s.n)
               if any(v) and not lattice.contains(v)] if integral else []
    if outside:
        delta = rng.choice(outside)
    else:
        axis = rng.randrange(s.n)
        delta = [Fraction(1, 2) if i == axis else 0 for i in range(s.n)]
    rho = tuple(x + y for x, y in zip(s.rho, delta))
    return PsiSpec(algebra=s.algebra, n=s.n, dims=s.dims, weights=dict(s.weights),
                   evals=s.evals, rho=rho)


def spec_doc(s: PsiSpec) -> dict:
    """The document of ``s``, as ``parse_spec`` reads it."""
    return {
        "schema": 1,
        "algebra": {"series": s.algebra.series, "rank": s.algebra.rank},
        "n": s.n,
        "dims": list(s.dims),
        "weights": [{"index": list(I), "coords": list(w)} for I, w in sorted(s.weights.items())],
        "evals": [[scalar_to_json(a) for a in axis] for axis in s.evals],
        "rho": [str(x) for x in s.rho],
    }


def galois_spec(doc: dict, u: int) -> dict:
    """The spec document ``doc`` under the Galois automorphism ζ_L ↦ ζ_L^u of
    its field Q(ζ_L), gcd(u, L) = 1: every scalar's ``zeta_pow`` becomes
    u·``zeta_pow`` modulo its own ``zeta_order``.  ψ(m) is conjugated
    coordinate by coordinate, so its zero set does not move."""
    orders = [a.get("zeta_order", 1) for axis in doc["evals"] for a in axis if isinstance(a, dict)]
    assert gcd(u, lcm(1, *orders)) == 1, "u must be prime to the field order"

    def conjugate(a):
        if not isinstance(a, dict):
            return a
        return dict(a, zeta_pow=u * a.get("zeta_pow", 0) % a.get("zeta_order", 1))

    return dict(doc, evals=[[conjugate(a) for a in axis] for axis in doc["evals"]])


def substituted_spec(doc: dict, B) -> dict:
    """The untwisted spec document ``doc`` under the monomial substitution
    t ↦ t^B, B an n × n integer matrix in GL_n(Z): index I's point a_I
    becomes the point whose coordinate i is ∏ₖ a_{I,k}^{B_{k,i}}, so that
    ψ'(m) = ψ(Bm) and supp ψ' = B⁻¹·supp ψ.  Each new axis lists its
    coordinates in the order the table first meets them, and the grid they
    span is padded with zero weights.  ``doc``'s rho must be zero."""
    base = parse_spec(doc)
    assert not any(base.rho), "a substitution moves rho; only rho = 0 is supported"
    one = CycScalar.one(base.field_order)
    points = {}
    for I in table_indices(base.dims):
        a = [base.evals[k][j - 1] for k, j in enumerate(I)]
        points[I] = tuple(
            prod((a[k] ** B[k][i] for k in range(base.n)), start=one) for i in range(base.n)
        )
    axes = [list(dict.fromkeys(point[i] for point in points.values())) for i in range(base.n)]
    weights = {
        tuple(axis.index(x) + 1 for axis, x in zip(axes, point)): base.weights[I]
        for I, point in points.items()
    }
    dims = [len(axis) for axis in axes]
    zero = (0,) * base.algebra.rank
    return dict(
        doc,
        dims=dims,
        weights=[{"index": list(J), "coords": list(weights.get(J, zero))} for J in table_indices(dims)],
        evals=[[scalar_to_json(x) for x in axis] for axis in axes],
    )


def random_twisted_spec(rng: random.Random, algebra, aut) -> TwistedSpec:
    """Random twisted spec with image_equality guaranteed."""
    k = aut.order
    n = rng.choice((1, 2))
    dims = tuple(rng.randint(1, 3) if i == 0 else rng.randint(1, 2) for i in range(n))
    order = lcm(12, k)
    pool = scalar_pool(order)
    while True:
        axis1 = tuple(rng.sample(pool, dims[0]))
        powers = [a ** k for a in axis1]
        if len(set(powers)) == len(powers):
            break
    evals = [axis1]
    for i in range(1, n):
        evals.append(tuple(rng.sample(pool, dims[i])))
    d = algebra.rank
    indices = table_indices(dims)
    weights = {}
    symmetric_run = rng.random() < 0.5
    orbits = node_orbits(aut)
    while True:
        for I in indices:
            if symmetric_run:
                # constant on each node orbit, hence fixed by the twist
                w = [0] * d
                for orbit in orbits:
                    val = rng.randint(0, 2)
                    for node in orbit:
                        w[node] = val
                weights[I] = tuple(w)
            else:
                weights[I] = tuple(rng.randint(0, 2) for _ in range(d))
        if any(any(w) for w in weights.values()):
            break
    base = PsiSpec(
        algebra=algebra,
        n=n,
        dims=dims,
        weights=weights,
        evals=tuple(evals),
        rho=(Fraction(0),) * n,
    )
    return TwistedSpec(base=base, aut=aut)


def fiber_rows(box, deg) -> list[list[int]]:
    """The rows of ``box``'s fiber at ``deg`` as full-length integer rows
    (φ(L) numerators per basis vector), weight class by weight class: each
    class's echelon rows, zero outside the class.  ``len`` is the fiber's
    rank."""
    total = box.fin.total
    w = len(cyclotomic_polynomial(box.order)) - 1
    out = []
    for cls, gs in box.grading.members.items():
        ech = box.parts.get((tuple(deg), cls))
        for short in ech.int_rows if ech else ():
            row = [0] * (total * w)
            for i, g in enumerate(gs):
                row[g * w:g * w + w] = short[i * w:i * w + w]
            out.append(row)
    return out


def fiber_span(box, deg) -> FieldEchelon:
    """One full-length ``FieldEchelon`` holding ``fiber_rows(box, deg)``,
    for membership tests."""
    ech = FieldEchelon(box.order)
    for row in fiber_rows(box, deg):
        ech.add(row)
    return ech


def reference_close(tables, seed_degree, radius: int) -> GradedBox:
    """``tables.close`` (``realizer._ClosureTables``) as a plain closure:
    every move on every row, raised or not, in queue order, with the target
    echelon made before the image is computed, so a zero image leaves an
    empty echelon."""
    module = tables.module
    fin, grading, order, w = module.fin, module.grading, module.order, module.width
    work = radius + MARGIN
    seed_degree = tuple(seed_degree)
    seed_cls = module.class_map(fin.basis_weights[fin.hw_index])
    seed_vec = [0] * (len(grading.members[seed_cls]) * w)
    seed_vec[grading.local[fin.hw_index] * w] = 1
    parts = {(seed_degree, seed_cls): FieldEchelon(order)}
    queue = deque([(seed_degree, seed_cls, parts[seed_degree, seed_cls].add(seed_vec))])
    while queue:
        deg, cls, row = queue.popleft()
        _, every_move = tables.moves[cls]
        for plan, tcls, size, sid, _ in every_move:
            tgt = tuple(a + b for a, b in zip(deg, module.steps[sid]))
            if max(abs(x) for x in tgt) > work:
                continue
            ech = parts.setdefault((tgt, tcls), FieldEchelon(order))
            nonzero = [i for i, x in enumerate(row) if x]
            added = ech.add(plan.image(row, nonzero, size * w, order, w))
            if added is not None:
                queue.append((tgt, tcls, added))
    return GradedBox(parts=parts, fin=fin, grading=grading, radius=radius,
                     seed=seed_degree, order=order)


def reference_audit(boxes) -> DecompositionAudit:
    """``realizer.audit_decomposition`` walked class by class: at every degree
    of the box and every weight class, the rows of the components that reach
    it go into one combined echelon, and a refused row is an overlap."""
    box0 = boxes[0]
    members, order = box0.grading.members, box0.order
    dims = [box.dims() for box in boxes]
    audit = DecompositionAudit([], [], {})
    for deg in itertools.product(*(range(-box0.radius, box0.radius + 1) for _ in box0.seed)):
        ranks = tuple(d.get(deg, 0) for d in dims)
        audit.fiber_dims.append((deg, ranks))
        combined_rank = 0
        overlap = False
        for cls in members:
            combined = FieldEchelon(order)
            for box in boxes:
                ech = box.parts.get((deg, cls))
                for row in ech.int_rows if ech else ():
                    if combined.add(row) is None:
                        overlap = True
            combined_rank += combined.rank
        if overlap:
            audit.overlaps.append(deg)
        if combined_rank != box0.fin.total or combined_rank != sum(ranks):
            audit.shortfalls[deg] = combined_rank
    return audit


def reference_multiplicative_order(a: CycScalar, bound: int) -> int | None:
    """Smallest ``t`` in [1, bound] with ``a^t = 1``, or None, by trying
    every power in turn."""
    for t in range(1, bound + 1):
        if (a ** t).is_one:
            return t
    return None


def reference_detect_blocks(spec: PsiSpec, support) -> BlockStructure:
    """``classify.detect_blocks`` on ``CycScalar`` arithmetic: groups keyed
    by the scalars' r-th powers, ε tested by the power loop, positions read
    from a table of ε^p·base per block.  This is the former implementation,
    with ``reference_multiplicative_order`` for the closed form it called."""
    axes = []
    one = CycScalar.one(spec.field_order)
    for i in range(spec.n):
        r = support.periods[i]
        values = spec.evals[i]
        n_i = spec.dims[i]
        if n_i % r:
            raise StructureViolationError(
                "axis period does not divide the axis size",
                axis=i + 1,
                period=r,
                size=n_i,
            )
        groups: dict[CycScalar, list[int]] = {}
        for j, a in enumerate(values):
            groups.setdefault(a ** r, []).append(j)
        for members in groups.values():
            if len(members) != r:
                raise StructureViolationError(
                    "scalars sharing an r-th power do not form a complete orbit",
                    axis=i + 1,
                    period=r,
                    group=[j + 1 for j in members],
                )
        # Each group by its least member, as (key, j): keys are distinct.
        keys = [scalar_sort_key(a) for a in values]
        least = sorted((min((keys[j], j) for j in g), g) for g in groups.values())
        ordered = [g for _, g in least]
        bases = tuple(values[j] for (_, j), _ in least)
        if r == 1:
            eps = one
        else:
            ratios = [values[j] / bases[0] for j in ordered[0]]
            primitive = [x for x in ratios if reference_multiplicative_order(x, r) == r]
            eps = min(primitive, key=scalar_sort_key)
        assignment: list[tuple[int, int]] = [(-1, -1)] * n_i
        for ell, g in enumerate(ordered):
            table, x = {}, bases[ell]
            for p in range(r):
                table[x], x = p, eps * x
            for j in g:
                assignment[j] = (ell, table[values[j]])
        axes.append(
            AxisBlocks(
                axis=i,
                period=r,
                block_count=n_i // r,
                bases=bases,
                epsilon=eps,
                assignment=tuple(assignment),
            )
        )
    return BlockStructure(axes=tuple(axes))


def reference_axis_candidates(a_values, b_values, roots=()):
    """``classify.axis_candidates`` on ``CycScalar`` arithmetic: ω^u·a_j
    looked up by value, and b/𝔰 divided out for every b.  This is the former
    implementation."""
    lookup = {a: (j, 0) for j, a in enumerate(a_values)}
    for u, r in enumerate(roots, 1):
        lookup.update({r * a: (j, u) for j, a in enumerate(a_values)})
    out = []
    for j0 in range(len(a_values)):
        s = b_values[0] / a_values[j0]
        hits = []
        for b in b_values:
            hit = lookup.get(b / s)
            if hit is None:
                break
            hits.append(hit)
        else:
            tau, us = zip(*hits)
            if len(set(tau)) == len(tau):
                out.append((s, tau, us))
    return out


def dense_coset_sums(form, r) -> list[tuple[int, list[int]]]:
    """The class sums ``u_K(r)`` of a ``psi._CosetSums``, built densely: one
    ``[0] * L`` list per class and slot, filled from the table's flat
    ``(slot offset, ζ-exponent, integer)`` terms and each reduced modulo Φ_L.
    An axis phase ``ζ_{2L}^g`` is ``ζ^{g/2}`` for even g and ``−ζ^{(g+L)/2}``
    for odd g, and the phase at ``r`` is their product.  Returns ``(K, row)``
    for every class with a nonzero row, the row being the numerators of each
    slot in turn, φ(L) per slot."""
    L, width = form.order, form.width
    groups = form.table[r[0] % form.k]
    slots = 1 + max((base // width for _, rows in groups for _, terms in rows
                     for base, _, _ in terms), default=0)
    out = []
    for K, rows in groups:
        polys = [[0] * L for _ in range(slots)]
        for phases, terms in rows:
            q, e = 1, 0
            for g, x in zip(phases, r):
                s, f = (-1, (g + L) // 2) if g % 2 else (1, g // 2)
                q, e = q * s ** (x % 2), e + f * x
            for base, f, c in terms:
                polys[base // width][(e + f) % L] += q * c
        row = [x for poly in polys for x in _reduce(L, poly)]
        if any(row):
            out.append((K, row))
    return out


def dense_coset_status(form, r):
    """``psi._coset_status`` read from the dense rows of ``dense_coset_sums``:
    the columns are those of the rows where some row is nonzero."""
    sums = dense_coset_sums(form, r)
    rows = [u for _, u in sums]
    if len(rows) < 2:
        return bool(rows)
    cols = [c for c in zip(*rows) if any(c)]
    for vals in cols:
        if min(vals) >= 0 < max(vals) or max(vals) <= 0 > min(vals):
            return True
    if Lattice.from_generators(zip(*cols)).rank == len(rows):
        return True
    return [K for K, _ in sums], cols
