"""Brute-force oracle: explicit tensor modules with the graded loop action.

Each factor V(λ) is built exactly, one weight space at a time going down
from its highest-weight vector: the candidates at a weight are ``f_i·b`` for
the basis vectors b one level up, and each is known by its images under every
``e_j``, which come from columns already built.  In V(λ) only the
highest-weight line is killed by every ``e_j``, so one rational echelon of the
images per weight gives the basis, the ``f_i`` and the ``e_j`` columns.

``generate_component`` closes the seeded vector ``v(m̃)`` inside a degree
box under a generating set of the loop algebra, which ``_closure_tables``
builds from the node orbits of a diagram automorphism σ of order k
(singleton orbits and k = 1 when untwisted): the orbit sums ``f_O`` and
``e_O`` at step 0, the vector ``Σ_u ω^{∓u}·e_{σ^u i}`` of ``g_{±1}`` over
one orbit of size k at ``±e₁`` (ω = ζ_L^{L/k}), and ``e_{O₀}`` at each step
``±e_j``, j ≥ 2.  Untwisted, that is ``e_i`` and ``f_i`` at step 0 and
``e₁`` alone at each step ``±e_j``.  That closure is also closed under
every ``x⊗t^s``.  The x with ``(x⊗t^s)·W(m) ⊂ W(m+s)`` for all in-box
``m, m+s`` form a subspace that ``ad(g₀)`` preserves, because each fiber
``W(m)`` is ``g₀⊗1``-stable; it contains the step generator, so it is all
of the eigenspace ``g_j`` that the step serves, because g₀ is simple and
each ``g_j`` is an irreducible g₀-module (Kac, *Infinite-dimensional Lie
Algebras*, 3rd ed., Prop. 7.9 and 8.3; untwisted, g₀ = g).  A generator is
a sum of ``(per-slot columns, ζ-exponent)`` terms, so no column has
cyclotomic entries.  Every generator moves a weight by one fixed shift, so
each degree fiber splits into weight classes, the weight's values on the
orbit sums of the nodes (``h0_weight_map``; the weight itself when
untwisted).  The closure, a ``GradedBox``, maps each (degree, weight class)
it reaches to one ``FieldEchelon``, with rows only as long as the class.  A row
matters only up to a nonzero scalar, so it is an integer list, the
power-basis numerators over Z[ζ_L] of its entries, kept with the pivot it
came with (times a unit when that is a·ζ^e, so that a is the pivot) and
eliminated fraction-free, with no pivot inverse.  An echelon keeps each
row's pivot offset and pivot numerators, and the pivot's integer value when
it is rational; where that pivot and the vector's entry at it are both
rational, a reduction is one integer pass ``x·vec − y·row``, x and y read
off one two-int gcd.  Each generator is made integer once, when its
module's tables are built: per term and slot, with every slot
coefficient 1, the columns go over one positive denominator
(``_integer_terms``).  A term plan re-indexes those columns to the members
of one class, one plan per move from a source class to a target class, as
``(target, slot, ζ-exponent, integer)`` entries per source position, and
scales slot k by its coefficient, given as (integer, ζ-exponent) over a
denominator the slots share: 1 at step 0, and the spec's a_I^s at a step
s ≠ 0 (``_step_scales``).  Per source numerator it has read, a plan keeps
the (target numerator, integer) pairs that numerator adds to, so an image is
a scatter-add over the row's nonzero numerators.  The closure takes rows in PBW order, U(g₀) = U(n₀⁻)U(h₀)U(n₀⁺)
(Humphreys, *Introduction to Lie Algebras and Representation Theory*,
§17.3): a row is raised when it is the seed or the image of a degree step or
of a raising generator at step 0 (``e_i``, or ``e_O`` when twisted), and the
raising generators at step 0 act on raised rows only, since e·f·y =
f·(e·y) + [e, f]·y, and every other move acts on every row, so the span is
that of every move on every row (see ``_ClosureTables.close``).  The closure
works out each degree's in-box target per step once, skips a move into a
target class that is already full before anything else, since the image
lies in its span, lists a row's nonzero numerators only when some move
computes an image, and makes a class's echelon only for a nonzero image, so
every echelon in a ``GradedBox`` has a row and a class it lacks has rank 0.
The box is widened by one degree (``MARGIN``) during the sweep and cropped
on return, so reported fibers do not suffer boundary truncation.  Closure
terminates because in-box fiber ranks grow monotonically.  What a closure
needs besides its seed comes in two parts, each built whole, so a closure
reads its plans and builds none.  The module part, ``_ModuleTables``, holds
the tensor, the grading, each generator's class shift, and the moves between
classes with their plans, those at s ≠ 0 unscaled; the reduced powers of ζ
that a plan reads come from ``cyclotomic.zeta_terms``.  It reads the
algebra, the ordered tensor factors, n, the twist's node orbits and order, L
and the cap, and nothing of the evaluation points or ϱ, so
``_module_tables`` keeps it in a bounded cache keyed on exactly those, and
the specs of one module share it.  The per-spec part, ``_ClosureTables``,
holds every move with its plan: the module's at step 0, and at the steps
s ≠ 0 the module's terms with the spec's scales, so a spec makes nothing
integer and plans nothing; ``component_decomposition`` builds it once and
closes every seed from it.

The realizer is an oracle for the engine, so it imports none of it: only the
spec data (``spec``), ``cyclotomic``, ``liealg`` and ``errors``.  It never
computes a support.  ``component_decomposition`` and ``count_components``
close one seed degree per coset of the Γ under test, and the caller chooses
the seeds; ``loopmod verify`` passes the engine's coset representatives.

``audit_decomposition`` checks the components of a decomposition against
each other in one pass over each component's ``parts`` on the reported box,
with ranks read off the stored rows and one combined echelon per degree and
weight class that two or more components reach, grown from a copy of the
largest component echelon; ``verify`` and ``count_components`` both use it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm, prod
from operator import add, itemgetter

from .cyclotomic import (
    CycScalar, cyclotomic_polynomial, from_numerators, mul_mod, to_numerators, zeta_terms,
)
from .errors import CapExceededError, InputError, RealizationMismatchError, UnsupportedError
from .liealg import SimpleLieAlgebra, Weight, build_algebra, is_dominant, node_orbits, weyl_dim
from .spec import PsiSpec, TwistedSpec, table_indices

_F0 = Fraction(0)
_F1 = Fraction(1)
MARGIN = 1  # degrees the closure sweeps beyond the reported box


# ---------------------------------------------------------------------------
# irreducible highest-weight factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotModule:
    top: Weight
    dim: int
    weights: tuple[Weight, ...]                 # per basis vector
    # Columns of f_i and e_i, one tuple per simple root: per column, its
    # nonzero (row, entry) pairs in row order.
    lower: tuple
    raiser: tuple


@lru_cache(maxsize=None)
def _irrep_cached(series: str, rank: int, top: Weight) -> SlotModule:
    """V(λ), one depth below λ at a time.  The candidates at depth k+1 are
    ``f_i·b`` for the basis vectors b at depth k, in the order (b, i).  Their
    images ``e_j f_i b = f_i(e_j b) + δ_ij·⟨wt b, α_i^∨⟩·b`` come from columns
    already built.  In V(λ) a vector of weight ν ≠ λ that every e_j kills is
    zero, so the candidates of one weight satisfy exactly the linear relations
    of their images.  One greedy echelon of the images per weight therefore
    picks the basis, numbered in candidate order; a dependent candidate's
    expression in the chosen ones is its ``f_i`` column, and the images are
    the ``e_j`` columns (Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, §20–21)."""
    cartan = build_algebra(series, rank).cartan
    weights = [top]
    lower: list[list[dict]] = [[] for _ in range(rank)]    # f_i columns {row: entry}
    raiser: list[list[dict]] = [[{}] for _ in range(rank)]  # e_j columns
    level = range(1)  # the highest-weight vector
    while level:
        # Per weight, echelon rows (pivot, row, row as a combination of basis vectors).
        echelons: dict[Weight, list] = {}
        for b in level:
            for i in range(rank):
                image: dict = {}
                for j in range(rank):
                    for r, c in raiser[j][b].items():
                        for s, x in lower[i][r].items():
                            image[j, s] = image.get((j, s), _F0) + c * x
                if weights[b][i]:
                    image[i, b] = image.get((i, b), _F0) + weights[b][i]
                wt = tuple(x - cartan[j][i] for j, x in enumerate(weights[b]))
                rows = echelons.setdefault(wt, [])
                rest, expr = dict(image), {}
                for piv, row, comb in rows:
                    c = rest.get(piv)
                    if c:
                        for key, x in row.items():
                            rest[key] = rest.get(key, _F0) - c * x
                        for s, x in comb.items():
                            expr[s] = expr.get(s, _F0) + c * x
                piv = next((key for key, x in rest.items() if x), None)
                if piv is None:
                    lower[i].append({s: x for s, x in expr.items() if x})
                    continue
                new = len(weights)
                weights.append(wt)
                for j in range(rank):
                    raiser[j].append({s: x for (jj, s), x in image.items() if jj == j and x})
                lower[i].append({new: _F1})
                p = rest[piv]
                comb = {s: -x / p for s, x in expr.items() if x}
                comb[new] = 1 / p
                rows.append((piv, {key: x / p for key, x in rest.items() if x}, comb))
        level = range(level.stop, len(weights))

    return SlotModule(
        top=top,
        dim=len(weights),
        weights=tuple(weights),
        lower=tuple(tuple(tuple(sorted(col.items())) for col in cols) for cols in lower),
        raiser=tuple(tuple(tuple(sorted(col.items())) for col in cols) for cols in raiser),
    )


def irreducible_module(algebra: SimpleLieAlgebra, top: Weight) -> SlotModule:
    if not is_dominant(top):
        raise InputError("highest weight must be dominant", weight=top)
    return _irrep_cached(algebra.series, algebra.rank, tuple(top))


# ---------------------------------------------------------------------------
# tensor modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinModule:
    algebra: SimpleLieAlgebra
    slots: tuple[SlotModule, ...]
    strides: tuple[int, ...]
    total: int
    basis_weights: tuple[Weight, ...]
    hw_index: int = 0


def check_tensor(algebra: SimpleLieAlgebra, tops, cap: int = 64) -> int:
    """The Weyl dimension of the tensor of the V(λ) for the ``tops``, in their
    order; raises unless every top is dominant and that dimension is at most
    ``cap``.  No V(λ) is built."""
    for top in tops:
        if not is_dominant(top):
            raise InputError("highest weight must be dominant", weight=top)
    total = 1
    for top in tops:
        total *= weyl_dim(algebra, top)
        if total > cap:
            raise CapExceededError(
                "tensor dimension exceeds the cap", dimension=total, cap=cap
            )
    return total


def build_tensor(algebra: SimpleLieAlgebra, tops, cap: int = 64) -> FinModule:
    tops = [tuple(t) for t in tops]
    total = check_tensor(algebra, tops, cap)
    slots = tuple(irreducible_module(algebra, top) for top in tops)
    strides = tuple(prod(s.dim for s in slots[k + 1:]) for k in range(len(slots)))
    basis_weights = tuple(
        tuple(sum(s.weights[(g // st) % s.dim][j] for s, st in zip(slots, strides))
              for j in range(algebra.rank))
        for g in range(total)
    )
    return FinModule(algebra, slots, strides, total, basis_weights)


# ---------------------------------------------------------------------------
# echelon bases over the cyclotomic field
# ---------------------------------------------------------------------------

def _zeta_power(order: int, m: int, w: int) -> list[int]:
    """The ``w`` = φ(L) power-basis numerators of ζ^m, ``0 ≤ m < order``."""
    out = [0] * w
    for k, c in zeta_terms(order, m):
        out[k] = c
    return out


def _times(order: int, m, x) -> list[int]:
    """Numerators of ``m·x`` for numerators ``m`` and ``x`` of Z[ζ_L]."""
    if not any(m[1:]):
        return [m[0] * y for y in x]
    return mul_mod(order, x, m) if any(x) else x


class FieldEchelon:
    """Row space over Q(ζ_L), for rank and membership, by fraction-free
    elimination over Z[ζ_L].  A row is one integer list, ``width`` = φ(L)
    power-basis numerators per entry; ``int_rows`` holds each stored row with
    its integer content divided out and whatever pivot entry α ∈ Z[ζ_L] it
    has, except that a pivot a·ζ^e is made the rational a by the unit
    ζ^{L−e}.  ``heads`` keeps, per stored row, the offset of its pivot entry,
    that entry's numerators, and the integer a when the entry is rational
    (else None).  A vector is reduced by ``vec ← α·vec − vec[piv]·row`` for
    each row in pivot order, both divided by the gcd of their numerators.
    When α and ``vec[piv]`` are both rational that is one integer pass over
    the row, read off the cached head and one two-int gcd.  Z[ζ_L] is an
    integral domain, so that clears entry ``piv`` for any nonzero α and no
    pivot is ever inverted (Bareiss, *Math. Comp.* 22, 1968)."""

    def __init__(self, order: int):
        self.order = order
        self.width = len(cyclotomic_polynomial(order)) - 1
        self.int_rows: list[list[int]] = []
        self.heads: list[tuple[int, list[int], int | None]] = []

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    def copy(self) -> "FieldEchelon":
        """An echelon of the same rows that ``add`` can grow on its own; the
        rows are shared, since no method changes a stored row."""
        out = FieldEchelon(self.order)
        out.int_rows, out.heads = list(self.int_rows), list(self.heads)
        return out

    def _reduce(self, vec: list[int]) -> list[int]:
        w, order = self.width, self.order
        for (o, a, a0), row in zip(self.heads, self.int_rows):
            if a0 is not None and not any(vec[o + 1:o + w]):
                c0 = vec[o]
                if c0:  # rational α and multiplier
                    g = gcd(a0, c0)
                    a0, c0 = a0 // g, c0 // g
                    vec = [a0 * x - c0 * y for x, y in zip(vec, row)]
                continue
            c = vec[o:o + w]
            if not any(c):
                continue
            g = gcd(*a, *c)
            if g != 1:
                a, c = [x // g for x in a], [x // g for x in c]
            # Entry piv cancels, and the row is zero before it.
            head = [x for k in range(0, o, w) for x in _times(order, a, vec[k:k + w])]
            vec = head + [0] * w + [
                x - y
                for k in range(o + w, len(vec), w)
                for x, y in zip(_times(order, a, vec[k:k + w]), _times(order, c, row[k:k + w]))
            ]
        return vec

    def add(self, vec: list[int]) -> list[int] | None:
        """Insert the integer row ``vec`` if independent; returns None, or the
        row as stored."""
        row = self._reduce(vec) if self.int_rows else vec
        first = next(compress(count(), row), None)
        if first is None:
            return None
        w, order = self.width, self.order
        o = first - first % w
        lead = row[o:o + w]
        if not lead[0] and lead.count(0) == w - 1:  # a·ζ^e, e > 0: times the unit ζ^{L−e}
            e = lead.index(max(lead) or min(lead))  # a is the max or the min
            m = _zeta_power(order, order - e, w)
            row = [x for k in range(0, len(row), w) for x in _times(order, m, row[k:k + w])]
        g = gcd(*row)
        if g != 1:
            row = [x // g for x in row]
        lead = row[o:o + w]
        at = bisect_left(self.heads, o, key=itemgetter(0))
        self.int_rows.insert(at, row)
        self.heads.insert(at, (o, lead, None if any(lead[1:]) else lead[0]))
        return row

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))


# ---------------------------------------------------------------------------
# weight-graded closure
# ---------------------------------------------------------------------------

class Grading:
    """The tensor basis split into classes by a linear map on weights:
    ``members`` lists each class's basis vectors, ``local`` gives each basis
    vector's position in its class."""

    def __init__(self, fin: FinModule, class_map):
        members: dict = {}
        for g, wt in enumerate(fin.basis_weights):
            members.setdefault(class_map(wt), []).append(g)
        self.members: dict = {c: tuple(gs) for c, gs in sorted(members.items())}
        self.local = [0] * fin.total
        for gs in self.members.values():
            for i, g in enumerate(gs):
                self.local[g] = i


@dataclass
class GradedBox:
    """A closure on its box ``[-radius, radius]ⁿ``: ``parts`` maps each
    (degree, weight class) where it has a nonzero vector to that class's
    ``FieldEchelon``, over the class's members in ``grading``; an absent
    class has rank 0.  The sweep's ``MARGIN`` degrees stay
    in ``parts``; ``dims`` crops them."""

    parts: dict
    fin: FinModule
    grading: Grading
    radius: int
    seed: tuple[int, ...]
    order: int

    def dims(self) -> dict[tuple[int, ...], int]:
        ranks: dict = {}
        for (deg, _), ech in self.parts.items():
            ranks[deg] = ranks.get(deg, 0) + ech.rank
        return {
            deg: rank
            for deg, rank in sorted(ranks.items())
            if rank and max(abs(x) for x in deg) <= self.radius
        }


class _Plan:
    """One generator at one step from one weight class, as integer data.
    ``terms`` maps each source position the generator reads to its ``(target
    position, slot k, ζ-exponent e, integer)`` entries, read with every slot
    coefficient 1, and ``scales`` gives slot k's coefficient q·ζ^f as the pair
    (integer, f) over a positive denominator that the slots share.
    ``columns`` maps each source numerator ``s = i·φ(L) + j`` read so far to
    the ``(target numerator, integer)`` pairs it adds to, built on first use
    from the numerators of ``ζ^{(j+e+f) mod L}`` (``cyclotomic.zeta_terms``),
    so entries with one target merge there."""

    __slots__ = ("terms", "scales", "columns")

    def __init__(self, terms: dict, scales):
        self.terms = terms
        self.scales = scales
        self.columns: dict = {}

    def _column(self, s: int, order: int, w: int) -> list:
        i, j = divmod(s, w)
        out: dict = {}
        scales = self.scales
        for t, k, e, v in self.terms.get(i, ()):
            m, f = scales[k]
            base, v = t * w, m * v
            for pos, c in zeta_terms(order, (j + e + f) % order):
                out[base + pos] = out.get(base + pos, 0) + v * c
        return [(pos, c) for pos, c in out.items() if c]

    def image(self, row, nonzero, length: int, order: int, w: int) -> list[int]:
        """The integer row of length ``length`` that the plan maps ``row`` to;
        ``nonzero`` lists the positions of the nonzero numerators of ``row``."""
        out = [0] * length
        columns = self.columns
        for s in nonzero:
            col = columns.get(s)
            if col is None:
                col = columns[s] = self._column(s, order, w)
            x = row[s]
            for k, c in col:
                out[k] += x * c
        return out


def _integer_terms(terms, coeffs_per_slot) -> tuple[int, list]:
    """One generator at one step as integer data: a positive integer ``den``
    and, per ``(per-slot columns, ζ-exponent)`` term of the generator, per
    slot the pair (ζ-exponent, columns of ``den`` times the slot's part).  A
    term's exponent adds to the exponent of the slot's coefficient q·ζ^e, and
    q is folded into the slot's columns, as integers over ``den``, the lcm of
    ``c.den · x.denominator`` over the slot coefficients c and the column
    entries x."""
    den = lcm(*(
        c.den * x.denominator
        for cols_per_slot, _ in terms
        for c, cols in zip(coeffs_per_slot, cols_per_slot)
        for col in cols
        for _, x in col
    ))
    out = []
    for cols_per_slot, e in terms:
        slots = []
        for cols, c in zip(cols_per_slot, coeffs_per_slot):
            slots.append(((c.e + e) % c.order, [
                [(r, c.num * x.numerator * (den // (c.den * x.denominator))) for r, x in col]
                for col in cols
            ]))
        out.append(slots)
    return den, out


def _plan(fin: FinModule, int_terms, members, local) -> dict:
    """The ``_Plan`` terms from the basis vectors ``members`` of ``den`` times
    one generator at one step, given as its ``_integer_terms``: per source
    position that the generator reads, its ``(target position, slot,
    ζ-exponent, integer)`` entries."""
    acc: list[dict] = [{} for _ in members]  # per source: {(target, slot, ζ-exponent): integer}
    for slots in int_terms:
        for k, (e, cols) in enumerate(slots):
            stride, dim = fin.strides[k], fin.slots[k].dim
            for out, g in zip(acc, members):
                comp = (g // stride) % dim
                for r, v in cols[comp]:
                    key = local[g + (r - comp) * stride], k, e
                    out[key] = out.get(key, 0) + v
    plan = {i: [(t, k, e, v) for (t, k, e), v in out.items() if v] for i, out in enumerate(acc)}
    return {i: entries for i, entries in plan.items() if entries}


def _step_scales(spec: PsiSpec, step) -> list[tuple[int, int]]:
    """The slot coefficients ``a_I^step`` of ``spec`` in table order, as
    ``(integer, ζ-exponent)`` pairs over their common positive denominator."""
    coeffs = spec.coefficients(step)
    den = lcm(*(c.den for c in coeffs))
    return [(c.num * (den // c.den), c.e) for c in coeffs]


def _class_shift(slot_classes, terms):
    """The one class shift of all the nonzero slot entries of a generator's
    ``(per-slot columns, ζ-exponent)`` terms, or None when it acts as zero;
    ``slot_classes`` gives each slot basis vector's class.  Raises if the
    generator is not homogeneous.  The closure generators are root vectors,
    or sums of root vectors with one class shift (see ``_closure_tables``),
    so none of them is diagonal."""
    shifts = set()
    for classes, *per_term in zip(slot_classes, *(cols for cols, _ in terms)):
        for cols in per_term:
            for c, col in enumerate(cols):
                for r, _ in col:
                    shifts.add(tuple(p - q for p, q in zip(classes[r], classes[c])))
    if len(shifts) > 1:
        raise UnsupportedError("closure generator does not preserve the weight grading")
    return shifts.pop() if shifts else None


class _ModuleTables:
    """The part of the closure tables that depends on the module alone: the
    grading, each generator's class shift at each step, and the moves between
    classes, each with its plan read with every slot coefficient a_I^s set to
    1: the ``_Plan`` at step 0, where that is the coefficient, and at a step
    s ≠ 0 the ``_Plan`` terms that each spec scales by its own a_I^s.  Each
    generator is made integer once and planned once per move, when the
    tables are built.  A move also carries whether its generator is a
    raising one at step 0, which the closure applies to raised rows only.

    ``generators`` need only generate the loop algebra, as a Lie algebra, on
    the steps they are given: ``x⊗1`` for x in a generating set of g₀ (all of
    g when untwisted) and one nonzero ``x⊗t^s`` per step s ≠ 0, with x in the
    eigenspace g_j of the twist that serves the degrees with ``s₁ ≡ j``.
    Each fiber is then stable under ``g₀⊗1``, and the x whose ``x⊗t^s`` keeps
    the in-box fibers form a g₀-stable subspace of g_j that contains the step
    generator: all of g_j, because g₀ is simple and each g_j is an irreducible
    g₀-module (Kac, *Infinite-dimensional Lie Algebras*, 3rd ed., Prop. 7.9
    and 8.3).  So the box-truncated closure equals the closure under every
    ``x⊗t^s``."""

    def __init__(self, fin: FinModule, order: int, generators, class_map):
        # generators: list of (terms, list of step degrees), where the terms
        # are (per-slot columns, ζ-exponent) pairs that the generator sums,
        # with a third entry True for a raising generator at step 0.
        self.fin = fin
        self.order = order
        self.width = len(cyclotomic_polynomial(order)) - 1
        self.class_map = class_map
        self.grading = grading = Grading(fin, class_map)
        members, local = grading.members, grading.local
        slot_classes = [[class_map(w) for w in slot.weights] for slot in fin.slots]
        ones = [CycScalar.one(order)] * len(fin.slots)
        units = [(1, 0)] * len(fin.slots)
        self.gens = []  # (terms, class shift, step)
        sids: dict = {}  # step -> its index in steps
        # Per source class, the moves into classes that have basis vectors:
        # (plan, target class, its size, index of the step in steps, raising).
        # The plan is a _Plan at step 0, and at s ≠ 0 the _Plan terms that
        # each spec scales by its a_I^s.
        self.moves: dict = {cls: [] for cls in members}
        for terms, steps, *raising in generators:
            shift = _class_shift(slot_classes, terms)
            if shift is None or not steps:
                continue
            int_terms = _integer_terms(terms, ones)[1]
            for step in map(tuple, steps):
                self.gens.append((terms, shift, step))
                sid = sids.setdefault(step, len(sids))
                for cls, out in self.moves.items():
                    tcls = tuple(a + b for a, b in zip(cls, shift))
                    if tcls in members:
                        plan = _plan(fin, int_terms, members[cls], local)
                        if not any(step):
                            plan = _Plan(plan, units)
                        out.append((plan, tcls, len(members[tcls]), sid, any(raising)))
        self.steps = list(sids)


class _ClosureTables:
    """The seed-independent part of one spec's closure, built whole: its
    module's ``_ModuleTables``, and ``moves``, per source class, two lists of
    ``(term plan, target class, its size, index of the step, raised)`` moves:
    those a closure makes from a row that is not raised, then those it makes
    from a raised one, ``raised`` being the tag of the image row (see
    ``close``).  A move at step 0 carries the module's plan; one at s ≠ 0
    carries a plan of the module's terms scaled by the spec's slot
    coefficients a_I^s, so the spec plans nothing."""

    def __init__(self, module: _ModuleTables, spec: PsiSpec):
        self.module = module
        scales = [_step_scales(spec, step) if any(step) else None for step in module.steps]
        self.moves = {}
        for cls, out in module.moves.items():
            lowered, raised = [], []
            for plan, tcls, size, sid, raising in out:
                stepped = scales[sid] is not None
                if stepped:
                    plan = _Plan(plan, scales[sid])
                move = plan, tcls, size, sid, raising or stepped
                raised.append(move)
                if not raising:
                    lowered.append(move)
            self.moves[cls] = lowered, raised

    def close(self, seed_degree, radius: int) -> GradedBox:
        """Closure of the highest-weight vector placed at ``seed_degree``.

        Rows are taken in PBW order, U(g₀) = U(n₀⁻)U(h₀)U(n₀⁺) (Humphreys,
        *Introduction to Lie Algebras and Representation Theory*, §17.3): a
        raising generator e at step 0 is applied to raised rows only, and
        every other move to every row.  The span is that of the closure under
        every move on every row.  By induction on the order rows are stored
        in, e·x lies in the final span for every row x: for a raised row it
        is computed; any other row is α·f·y minus earlier rows of its echelon,
        for a lowering generator f at step 0 and an earlier row y, and
        e·f·y = f·(e·y) + [e, f]·y, where [e, f] is 0 or an h that scales the
        weight vector y, and the final span is stable under f.  An image that
        is zero, or whose target weight space is full, adds nothing, and no
        echelon is made for it."""
        module, moves = self.module, self.moves
        fin, grading, order, w = module.fin, module.grading, module.order, module.width
        steps = module.steps
        work = radius + MARGIN
        seed_degree = tuple(int(x) for x in seed_degree)
        if any(abs(x) > work for x in seed_degree):
            raise InputError("seed degree outside the working box", seed=seed_degree)
        parts: dict = {}  # (degree, class) -> FieldEchelon
        members = grading.members
        seed_cls = module.class_map(fin.basis_weights[fin.hw_index])
        seed_vec = [0] * (len(members[seed_cls]) * w)
        seed_vec[grading.local[fin.hw_index] * w] = 1
        ech = parts[seed_degree, seed_cls] = FieldEchelon(order)
        queue: deque = deque([(seed_degree, seed_cls, ech.add(seed_vec), True)])
        targets_at: dict = {}  # degree -> per step, the target degree, or None outside the box
        while queue:
            deg, cls, row, raised = queue.popleft()
            targets = targets_at.get(deg)
            if targets is None:
                targets = targets_at[deg] = [
                    None if max(tgt) > work or min(tgt) < -work else tgt
                    for tgt in (tuple(map(add, deg, step)) for step in steps)
                ]
            nonzero = None
            for plan, tcls, size, sid, tag in moves[cls][raised]:
                tgt = targets[sid]
                if tgt is None:
                    continue
                key = tgt, tcls
                ech = parts.get(key)
                if ech is not None and len(ech.int_rows) == size:
                    continue  # the image lies in a full weight space
                if nonzero is None:
                    nonzero = list(compress(count(), row))
                image = plan.image(row, nonzero, size * w, order, w)
                if not any(image):
                    continue
                if ech is None:
                    ech = parts[key] = FieldEchelon(order)
                added = ech.add(image)
                if added is not None:
                    queue.append((tgt, tcls, added, tag))
        return GradedBox(
            parts=parts, fin=fin, grading=grading, radius=radius, seed=seed_degree, order=order
        )


def _slot_columns(fin: FinModule, kind: str, i: int) -> list:
    """Per-slot columns of ``e_i``, ``f_i`` or ``h_i`` (``kind`` 'e', 'f', 'h')."""
    if kind == "e":
        return [slot.raiser[i] for slot in fin.slots]
    if kind == "f":
        return [slot.lower[i] for slot in fin.slots]
    if kind == "h":
        return [[[(c, Fraction(w[i]))] if w[i] else [] for c, w in enumerate(slot.weights)]
                for slot in fin.slots]
    raise InputError("unknown generator kind", kind=kind)


def _steps(n: int, axes, zero: bool = True):
    """The zero step when ``zero``, then ``+eᵢ`` and ``−eᵢ`` for each axis."""
    out = [(0,) * n] if zero else []
    return out + [tuple(sgn if j == i else 0 for j in range(n)) for i in axes for sgn in (1, -1)]


@lru_cache(maxsize=64)
def _module_tables(
    series: str, rank: int, tops, n: int, orbits, k: int, order: int, cap: int
) -> _ModuleTables:
    """The ``_ModuleTables`` of the tensor of the ``tops`` (in table order)
    under a twist of order ``k`` whose node orbits are ``orbits``, with ``n``
    loop variables, over Q(ζ_order), built once per key.  The
    generators are the orbit sums f_O and e_O at step 0, which generate g₀;
    at ±e₁, over the first orbit of size k, the vector Σ_u ω^{∓u}·e_{σ^u i}
    of g_{±1}, with ω = ζ_L^{L/k} (``liealg.restrict_weight`` pairs the
    degrees with m₁ ≡ j against Σ_t ω^{−jt}·h_{σ^t b}, the same eigenspace);
    and e_{O₀} at ±e_j for j ≥ 2.  For k = 1 that is f_i and e_i at step 0
    and e₁ at every step ±e_j.  A key whose module fails the dominance or cap
    check, or whose generators mix classes, raises, and nothing is kept."""
    fin = build_tensor(build_algebra(series, rank), tops, cap=cap)

    def orbit_sum(kind, orbit, sign=0):
        # Σ_u ω^{sign·u}·x_{σ^u i} as (per-slot columns, ζ-exponent) terms.
        return [(_slot_columns(fin, kind, i), sign * u * (order // k) % order)
                for u, i in enumerate(orbit)]

    zero = _steps(n, ())
    generators = [(orbit_sum(kind, o), zero, kind == "e") for o in orbits for kind in "fe"]
    full = next(o for o in orbits if len(o) == k)
    generators += [
        (orbit_sum("e", full, -sgn), [step])
        for sgn, step in zip((1, -1), _steps(n, (0,), zero=False))
    ]
    generators.append((orbit_sum("e", orbits[0]), _steps(n, range(1, n), zero=False)))
    return _ModuleTables(fin, order, generators, h0_weight_map(orbits))


def _closure_tables(spec: PsiSpec, orbits, k: int, cap: int) -> _ClosureTables:
    """The closure tables of ``spec`` under a twist of order ``k`` whose node
    orbits are ``orbits``; untwisted, they are singletons and k = 1.  The
    module part comes from ``_module_tables``, keyed by everything it reads
    and nothing of the evaluation points."""
    tops = tuple(tuple(spec.weights[I]) for I in table_indices(spec.dims))
    module = _module_tables(
        spec.algebra.series, spec.algebra.rank, tops, spec.n,
        tuple(map(tuple, orbits)), k, spec.field_order, cap,
    )
    return _ClosureTables(module, spec)


def generate_component(
    spec: PsiSpec, radius: int, cap: int = 64, seed_degree=None, tables=None
) -> GradedBox:
    """Closure of v(m̃) under the loop algebra, fibers per degree.

    ``tables`` are the seed-independent closure tables of ``spec`` at ``cap``
    when the caller closes several seeds of one spec (see
    ``component_decomposition``); they are built here otherwise."""
    if tables is None:
        tables = _closure_tables(spec, [(i,) for i in range(spec.algebra.rank)], 1, cap)
    seed = seed_degree if seed_degree is not None else (0,) * spec.n
    return tables.close(seed, radius)


def loop_action(fin: FinModule, spec: PsiSpec, gen: tuple[str, int], step, vec, degree=None):
    """One graded generator applied to a vector: kind 'f'/'e'/'h' plus index,
    or ('d', axis) acting by the scalar degreeₐ + ϱₐ."""
    kind, idx = gen
    order = spec.field_order
    if kind == "d":
        if degree is None:
            raise InputError("the derivation action needs the vector's degree")
        factor = Fraction(degree[idx]) + spec.rho[idx]
        return [v.scale_rational(factor) for v in vec]
    everything = range(fin.total)
    scale, int_terms = _integer_terms(
        [(_slot_columns(fin, kind, idx), 0)], spec.coefficients(step)
    )
    plan = _Plan(_plan(fin, int_terms, everything, everything), [(1, 0)] * len(fin.slots))
    den, row = to_numerators(vec)
    w = len(cyclotomic_polynomial(order)) - 1
    image = plan.image(row, list(compress(count(), row)), len(row), order, w)
    return from_numerators(order, image, den * scale)


def component_decomposition(spec: PsiSpec, seeds, radius: int, cap: int = 64) -> list[GradedBox]:
    """One closure per seed degree, all sharing one set of closure tables.
    The caller gives one seed per coset of the support Γ it is checking, from
    wherever that Γ came; each must lie in the working box."""
    tables = _closure_tables(spec, [(i,) for i in range(spec.algebra.rank)], 1, cap)
    return [
        generate_component(spec, radius, cap=cap, seed_degree=seed, tables=tables)
        for seed in seeds
    ]


@dataclass
class DecompositionAudit:
    """Per-degree audit of components on their box ``[-radius, radius]ⁿ``."""

    fiber_dims: list  # (degree, rank of each component's fiber), in degree order
    overlaps: list  # degrees where two components share a nonzero vector
    shortfalls: dict  # degree -> combined rank, where the fibers do not fill the module


def audit_decomposition(boxes: list[GradedBox]) -> DecompositionAudit:
    """Fiber-disjointness and degree sums of closures over one grading and
    box, reading each component's ``parts`` once, on the box.  A combined
    echelon is built only for a (degree, weight class) that two or more
    components reach: the rows of one echelon are independent, so elsewhere
    the combined rank is the sum of the components' ranks, and each row a
    combined echelon refuses lowers it by one.  A combined echelon starts as
    a copy of the largest component echelon and takes the others' rows."""
    box0 = boxes[0]
    degrees = list(itertools.product(*(range(-box0.radius, box0.radius + 1) for _ in box0.seed)))
    ranks: dict = {deg: [0] * len(boxes) for deg in degrees}  # per component, its fiber rank
    reached: dict = {}  # (degree, class) -> the component echelons with rows there
    for b, box in enumerate(boxes):
        for key, ech in box.parts.items():
            fiber, rank = ranks.get(key[0]), len(ech.int_rows)
            if fiber is not None and rank:
                fiber[b] += rank
                reached.setdefault(key, []).append(ech)
    shared: dict = {}  # degree -> per class that 2+ components reach, their echelons
    for (deg, _), parts in reached.items():
        if len(parts) > 1:
            shared.setdefault(deg, []).append(parts)
    audit = DecompositionAudit([], [], {})
    for deg in degrees:
        fiber = tuple(ranks[deg])
        audit.fiber_dims.append((deg, fiber))
        combined_rank = total = sum(fiber)
        for parts in shared.get(deg, ()):
            parts.sort(key=lambda ech: len(ech.int_rows), reverse=True)
            combined = parts[0].copy()
            for ech in parts[1:]:
                for row in ech.int_rows:
                    if combined.add(row) is None:
                        combined_rank -= 1
        if combined_rank != total:
            audit.overlaps.append(deg)
        if combined_rank != box0.fin.total or combined_rank != total:
            audit.shortfalls[deg] = combined_rank
    return audit


def count_components(spec: PsiSpec, seeds, radius: int, cap: int = 64) -> int:
    """Number of graded components seeded at ``seeds`` (one degree per coset
    of a support Γ), verified disjoint and jointly exhaustive."""
    boxes = component_decomposition(spec, seeds, radius, cap=cap)
    audit = audit_decomposition(boxes)
    for deg, _ in audit.fiber_dims:
        if deg in audit.overlaps:
            raise RealizationMismatchError("components are not fiber-disjoint", degree=deg)
        if deg in audit.shortfalls:
            raise RealizationMismatchError(
                "component fibers do not fill the module at a degree",
                degree=deg,
                rank=audit.shortfalls[deg],
                expected=boxes[0].fin.total,
            )
    return len(boxes)


def fiber_character(box: GradedBox, deg):
    """The fiber at ``deg`` as its ``(class, rank)`` pairs, in class order: a
    class is the weight when untwisted and its values on the node orbit sums
    (``h0_weight_map``) when twisted, and its rank is the multiplicity of
    that class in the fiber."""
    deg = tuple(deg)
    return tuple(
        (cls, ech.rank)
        for cls in box.grading.members
        if (ech := box.parts.get((deg, cls))) is not None and ech.rank
    )


def graded_character(spec: PsiSpec, radius: int, cap: int = 64, box: GradedBox | None = None):
    """Per-degree ``fiber_character`` of the v(0̃)-component, or of ``box``
    when given, over the degrees of its box whose fiber is nonzero."""
    if box is None:
        box = generate_component(spec, radius, cap=cap)
    out = {}
    for deg in itertools.product(*(range(-radius, radius + 1) for _ in range(spec.n))):
        char = fiber_character(box, deg)
        if char:
            out[deg] = char
    return out


# ---------------------------------------------------------------------------
# twisted closure
# ---------------------------------------------------------------------------

def twisted_generate_component(
    tspec: TwistedSpec, radius: int, cap: int = 64, seed_degree=None
) -> GradedBox:
    """Closure under the twist-compatible generators only (see
    ``_closure_tables``), from the node orbits of the automorphism."""
    tables = _closure_tables(tspec.base, node_orbits(tspec.aut), tspec.order, cap)
    seed = seed_degree if seed_degree is not None else (0,) * tspec.base.n
    return tables.close(seed, radius)


def h0_weight_map(aut_orbits):
    """Project a Cartan weight to its values on the orbit-sum basis."""

    def project(wt):
        return tuple(sum(wt[i] for i in orbit) for orbit in aut_orbits)

    return project
