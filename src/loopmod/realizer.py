"""Brute-force oracle: explicit tensor modules with the graded loop action.

Each factor V(λ) is built exactly from its highest-weight vector: candidate
vectors are lowering words ``f_{i₁}…f_{iₖ}·v``, filtered for linear
independence through the contravariant form (⟨f_i x, y⟩ = ⟨x, e_i y⟩ with
⟨v, v⟩ = 1), which is positive definite on the irreducible quotient, so a
candidate is dependent exactly when its Gram residual vanishes.  Raising and
lowering matrices come out of the same Gram solves; everything is rational.

``generate_component`` closes the seeded vector ``v(m̃)`` under the degree
``{0, ±e₁, …, ±eₙ}`` generators inside a degree box, keeping one echelon
basis per degree over the cyclotomic field (row reduction with exact
field-element pivots).  The box is widened by ``margin`` during the sweep and
cropped on return, so reported fibers do not suffer boundary truncation.
Closure terminates because in-box fiber ranks grow monotonically.

The twisted closure is supported for the rank-2 A series with a twist of
order 2: the fixed and anti-fixed parts of the algebra are spanned by
``{e₁+e₂, f₁+f₂, h₁+h₂}`` and ``{h₁−h₂, e₁−e₂, f₁−f₂, [e₁,e₂], [f₁,f₂]}``,
and each part only steps the first loop degree by its own parity.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycVector
from .errors import CapExceededError, InputError, RealizationMismatchError, UnsupportedError
from .liealg import SimpleLieAlgebra, Weight, build_algebra, is_dominant
from .psi import Evaluator, PsiSpec, support_lattice, table_indices
from .twisted import TwistedSpec

Matrix = list[list[Fraction]]
_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# rational linear algebra helpers
# ---------------------------------------------------------------------------

def _solve(gram: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Solve G·x = rhs for an invertible (Gram) matrix, exact elimination.
    k = len(gram)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col] / pval
                for c in range(col, k + 1):
                    aug[r][c] -= f * aug[col][c]
    return [aug[i][k] / aug[i][i] for i in range(k)]


# ---------------------------------------------------------------------------
# irreducible highest-weight factors
# ---------------------------------------------------------------------------

class _WordSpace:
    """Lowering-word calculus for one V(λ): weights, raising, inner products."""

    def __init__(self, algebra: SimpleLieAlgebra, top: Weight):
        self.cartan = algebra.cartan
        self.rank = algebra.rank
        self.top = top
        self._raise_memo: dict[tuple[int, tuple[int, ...]], dict] = {}
        self._ip_memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}

    def weight(self, word: tuple[int, ...]) -> Weight:
        out = list(self.top)
        for i in word:
            for j in range(self.rank):
                out[j] -= self.cartan[j][i]
        return tuple(out)

    def raise_word(self, j: int, word: tuple[int, ...]) -> dict:
        """e_j applied to f_word·v, as a combination of shorter words."""
        key = (j, word)
        hit = self._raise_memo.get(key)
        if hit is not None:
            return hit
        if not word:
            out: dict = {}
        else:
            head, i = word[:-1], word[-1]
            out = {u + (i,): c for u, c in self.raise_word(j, head).items()}
            if i == j:
                hval = Fraction(self.weight(head)[j])
                if hval:
                    out[head] = out.get(head, _F0) + hval
            out = {u: c for u, c in out.items() if c}
        self._raise_memo[key] = out
        return out

    def ip(self, w1: tuple[int, ...], w2: tuple[int, ...]) -> Fraction:
        if len(w1) != len(w2) or self.weight(w1) != self.weight(w2):
            return _F0
        if not w1:
            return _F1
        key = (w1, w2)
        hit = self._ip_memo.get(key)
        if hit is not None:
            return hit
        head, i = w1[:-1], w1[-1]
        total = _F0
        for u, c in self.raise_word(i, w2).items():
            total += c * self.ip(head, u)
        self._ip_memo[key] = total
        return total


@dataclass(frozen=True)
class SlotModule:
    top: Weight
    dim: int
    weights: tuple[Weight, ...]                 # per basis vector
    lower: tuple[Matrix, ...]                   # f_i, one per simple root
    raiser: tuple[Matrix, ...]                  # e_i


@lru_cache(maxsize=None)
def _irrep_cached(series: str, rank: int, top: Weight) -> SlotModule:
    algebra = build_algebra(series, rank)
    ws = _WordSpace(algebra, top)
    d = algebra.rank

    levels: list[list[tuple[int, ...]]] = [[()]]
    # Per weight, the selected words and the (PD) Gram matrix of them.
    groups: dict[Weight, tuple[list[tuple[int, ...]], list[list[Fraction]]]] = {
        top: ([()], [[_F1]])
    }
    while levels[-1]:
        nxt: list[tuple[int, ...]] = []
        for b in levels[-1]:
            for i in range(d):
                cand = b + (i,)
                wt = ws.weight(cand)
                sel, gram = groups.setdefault(wt, ([], []))
                cross = [ws.ip(cand, s) for s in sel]
                resid = ws.ip(cand, cand)
                if sel:
                    x = _solve(gram, cross)
                    resid -= sum(c * xi for c, xi in zip(cross, x))
                if resid != 0:
                    for row, c in zip(gram, cross):
                        row.append(c)
                    gram.append(cross + [ws.ip(cand, cand)])
                    sel.append(cand)
                    nxt.append(cand)
        levels.append(nxt)

    basis: list[tuple[int, ...]] = [w for level in levels for w in level]
    position = {w: k for k, w in enumerate(basis)}
    weights = tuple(ws.weight(w) for w in basis)
    dim = len(basis)

    def coords(combo: dict) -> dict[int, Fraction]:
        # Express a word combination in the selected basis via Gram solves.
        out: dict[int, Fraction] = {}
        by_wt: dict[Weight, dict] = {}
        for word, c in combo.items():
            by_wt.setdefault(ws.weight(word), {})[word] = c
        for wt, part in by_wt.items():
            sel, gram = groups.get(wt, ([], []))
            if not sel:
                continue
            cross = [
                sum(c * ws.ip(word, s) for word, c in part.items()) for s in sel
            ]
            for s, xi in zip(sel, _solve(gram, cross)):
                if xi:
                    out[position[s]] = out.get(position[s], _F0) + xi
        return out

    lower = [[[_F0] * dim for _ in range(dim)] for _ in range(d)]
    raiser = [[[_F0] * dim for _ in range(dim)] for _ in range(d)]
    for c, word in enumerate(basis):
        for i in range(d):
            for r, val in coords({word + (i,): _F1}).items():
                lower[i][r][c] = val
            for r, val in coords(ws.raise_word(i, word)).items():
                raiser[i][r][c] = val

    return SlotModule(
        top=top,
        dim=dim,
        weights=weights,
        lower=tuple(lower),
        raiser=tuple(raiser),
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

    def slot_component(self, g: int, k: int) -> int:
        return (g // self.strides[k]) % self.slots[k].dim


def build_tensor(algebra: SimpleLieAlgebra, tops, cap: int = 64) -> FinModule:
    slots = tuple(irreducible_module(algebra, tuple(t)) for t in tops)
    total = 1
    for s in slots:
        total *= s.dim
        if total > cap:
            raise CapExceededError(
                "tensor dimension exceeds the cap", dimension=total, cap=cap
            )
    strides = []
    acc = 1
    for s in reversed(slots):
        strides.append(acc)
        acc *= s.dim
    strides = tuple(reversed(strides))
    d = algebra.rank
    basis_weights = []
    for g in range(total):
        wt = [0] * d
        for k, s in enumerate(slots):
            comp = (g // strides[k]) % s.dim
            for j in range(d):
                wt[j] += s.weights[comp][j]
        basis_weights.append(tuple(wt))
    return FinModule(
        algebra=algebra,
        slots=slots,
        strides=strides,
        total=total,
        basis_weights=tuple(basis_weights),
    )


def _columns(mat: Matrix) -> list[list[tuple[int, Fraction]]]:
    dim = len(mat)
    return [[(r, mat[r][c]) for r in range(dim) if mat[r][c]] for c in range(dim)]


def _mat_add(a: Matrix, b: Matrix, sign: int = 1) -> Matrix:
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = [[_F0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                aik = a[i][k]
                for j in range(n):
                    if b[k][j]:
                        out[i][j] += aik * b[k][j]
    return out


def _commutator(a: Matrix, b: Matrix) -> Matrix:
    return _mat_add(_mat_mul(a, b), _mat_mul(b, a), sign=-1)


def _diag_matrix(values) -> Matrix:
    n = len(values)
    return [[Fraction(values[i]) if i == j else _F0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# echelon bases over the cyclotomic field
# ---------------------------------------------------------------------------

class FieldEchelon:
    """Row space over Q(ζ_L) with normalized pivots, for rank and membership."""

    def __init__(self, length: int, order: int):
        self.length = length
        self.order = order
        self.rows: list[list[CycVector]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[CycVector]) -> list[CycVector]:
        vec = list(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = vec[piv]
            if not c.is_zero():
                for t in range(self.length):
                    if not row[t].is_zero():
                        vec[t] = vec[t] - c * row[t]
        return vec

    def add(self, vec) -> list[CycVector] | None:
        """Insert if independent; returns the stored normalized row."""
        vec = self._reduce(vec)
        piv = None
        for t, entry in enumerate(vec):
            if not entry.is_zero():
                piv = t
                break
        if piv is None:
            return None
        inv = vec[piv].inverse()
        row = [entry if entry.is_zero() else inv * entry for entry in vec]
        row[piv] = CycVector.from_rational(1, self.order)
        at = 0
        while at < len(self.pivots) and self.pivots[at] < piv:
            at += 1
        self.pivots.insert(at, piv)
        self.rows.insert(at, row)
        return row

    def contains(self, vec) -> bool:
        return all(e.is_zero() for e in self._reduce(vec))


# ---------------------------------------------------------------------------
# graded closure
# ---------------------------------------------------------------------------

@dataclass
class GradedBox:
    radius: int
    fibers: dict[tuple[int, ...], FieldEchelon]
    fin: FinModule
    seed: tuple[int, ...]

    def dims(self) -> dict[tuple[int, ...], int]:
        return {
            deg: ech.rank
            for deg, ech in sorted(self.fibers.items())
            if ech.rank and max(abs(x) for x in deg) <= self.radius
        }

    def fiber(self, degree) -> FieldEchelon | None:
        return self.fibers.get(tuple(degree))


def _apply(fin: FinModule, cols_per_slot, coeffs_per_slot, vec, order: int):
    out = [CycVector.zero(order)] * fin.total
    hitset = set()
    for k, cols in enumerate(cols_per_slot):
        coeff = coeffs_per_slot[k]
        stride = fin.strides[k]
        dim = fin.slots[k].dim
        for g, val in enumerate(vec):
            if val.is_zero():
                continue
            comp = (g // stride) % dim
            for r, x in cols[comp]:
                tgt = g + (r - comp) * stride
                out[tgt] = out[tgt] + val.scale(coeff, x)
                hitset.add(tgt)
    if not hitset:
        return None
    return out


def _closure(
    fin: FinModule,
    ev: Evaluator,
    generators,  # list of (per-slot matrices, list of step degrees)
    seed_degree,
    radius: int,
    margin: int,
) -> GradedBox:
    n = ev.spec.n
    order = ev.order
    work = radius + margin
    seed_degree = tuple(int(x) for x in seed_degree)
    if any(abs(x) > work for x in seed_degree):
        raise InputError("seed degree outside the working box", seed=seed_degree)
    indices = table_indices(ev.spec.dims)
    gens = []
    for mats, steps in generators:
        cols = [_columns(m) for m in mats]
        for s in steps:
            coeffs = [ev.coefficient(I, s) for I in indices]
            gens.append((cols, coeffs, tuple(s)))

    fibers: dict[tuple[int, ...], FieldEchelon] = {}

    def fiber(deg):
        ech = fibers.get(deg)
        if ech is None:
            ech = FieldEchelon(fin.total, order)
            fibers[deg] = ech
        return ech

    seed_vec = [CycVector.zero(order)] * fin.total
    seed_vec[fin.hw_index] = CycVector.from_rational(1, order)
    stored = fiber(seed_degree).add(seed_vec)
    queue: deque = deque([(seed_degree, stored)])
    while queue:
        deg, row = queue.popleft()
        for cols, coeffs, step in gens:
            tgt = tuple(a + b for a, b in zip(deg, step))
            if any(abs(x) > work for x in tgt):
                continue
            image = _apply(fin, cols, coeffs, row, order)
            if image is None:
                continue
            added = fiber(tgt).add(image)
            if added is not None:
                queue.append((tgt, added))
    return GradedBox(radius=radius, fibers=fibers, fin=fin, seed=seed_degree)


def _untwisted_generators(fin: FinModule):
    d = fin.algebra.rank
    gens = []
    for i in range(d):
        gens.append([slot.lower[i] for slot in fin.slots])
        gens.append([slot.raiser[i] for slot in fin.slots])
    for j in range(d):
        gens.append([_diag_matrix([w[j] for w in slot.weights]) for slot in fin.slots])
    return gens


def _steps(n: int):
    out = [tuple(0 for _ in range(n))]
    for i in range(n):
        for sgn in (1, -1):
            s = [0] * n
            s[i] = sgn
            out.append(tuple(s))
    return out


def fin_for_spec(spec: PsiSpec, cap: int = 64) -> FinModule:
    tops = [spec.weights[I] for I in table_indices(spec.dims)]
    return build_tensor(spec.algebra, tops, cap=cap)


def generate_component(
    spec: PsiSpec,
    radius: int,
    cap: int = 64,
    margin: int = 1,
    seed_degree=None,
) -> GradedBox:
    """Closure of v(m̃) under all simple-generator steps, fibers per degree."""
    fin = fin_for_spec(spec, cap=cap)
    ev = Evaluator(spec)
    steps = _steps(spec.n)
    generators = [(mats, steps) for mats in _untwisted_generators(fin)]
    seed = seed_degree if seed_degree is not None else (0,) * spec.n
    return _closure(fin, ev, generators, seed, radius, margin)


def loop_action(fin: FinModule, spec: PsiSpec, gen: tuple[str, int], step, vec, degree=None):
    """One graded generator applied to a vector: kind 'f'/'e'/'h' plus index,
    or ('d', axis) acting by the scalar degreeₐ + ϱₐ."""
    kind, idx = gen
    ev = Evaluator(spec)
    order = ev.order
    if kind == "d":
        if degree is None:
            raise InputError("the derivation action needs the vector's degree")
        factor = Fraction(degree[idx]) + spec.rho[idx]
        return [v.scale_rational(factor) for v in vec]
    if kind == "f":
        mats = [slot.lower[idx] for slot in fin.slots]
    elif kind == "e":
        mats = [slot.raiser[idx] for slot in fin.slots]
    elif kind == "h":
        mats = [_diag_matrix([w[idx] for w in slot.weights]) for slot in fin.slots]
    else:
        raise InputError("unknown generator kind", kind=kind)
    cols = [_columns(m) for m in mats]
    coeffs = [ev.coefficient(I, step) for I in table_indices(spec.dims)]
    image = _apply(fin, cols, coeffs, vec, order)
    if image is None:
        return [CycVector.zero(order)] * fin.total
    return image


def component_decomposition(
    spec: PsiSpec, radius: int, cap: int = 64, margin: int = 1
) -> list[GradedBox]:
    """One closure per coset representative of the support."""
    support = support_lattice(spec)
    return [
        generate_component(spec, radius, cap=cap, margin=margin, seed_degree=rep)
        for rep in support.coset_reps()
    ]


def count_components(spec: PsiSpec, radius: int, cap: int = 64, margin: int = 1) -> int:
    """Number of graded components, verified disjoint and jointly exhaustive."""
    boxes = component_decomposition(spec, radius, cap=cap, margin=margin)
    fin = boxes[0].fin
    order = boxes[0].fibers[boxes[0].seed].order
    for deg in itertools.product(*(range(-radius, radius + 1) for _ in range(spec.n))):
        combined = FieldEchelon(fin.total, order)
        total_rank = 0
        for box in boxes:
            ech = box.fibers.get(deg)
            if ech is None:
                continue
            total_rank += ech.rank
            for row in ech.rows:
                if combined.add(row) is None:
                    raise RealizationMismatchError(
                        "components are not fiber-disjoint", degree=deg
                    )
        if combined.rank != total_rank or combined.rank != fin.total:
            raise RealizationMismatchError(
                "component fibers do not fill the module at a degree",
                degree=deg,
                rank=combined.rank,
                expected=fin.total,
            )
    return len(boxes)


def fiber_character(box: GradedBox, deg, weight_map):
    ech = box.fibers.get(tuple(deg))
    if ech is None or ech.rank == 0:
        return ()
    fin = box.fin
    groups: dict = {}
    for g in range(fin.total):
        groups.setdefault(weight_map(fin.basis_weights[g]), []).append(g)
    out = []
    for wt, cols in sorted(groups.items()):
        sub = FieldEchelon(len(cols), ech.order)
        mult = 0
        for row in ech.rows:
            if sub.add([row[c] for c in cols]) is not None:
                mult += 1
        if mult:
            out.append((wt, mult))
    return tuple(out)


def graded_character(
    spec: PsiSpec,
    radius: int,
    cap: int = 64,
    margin: int = 1,
    weight_map=None,
    box: GradedBox | None = None,
):
    """Per-degree multiset of Cartan weights of the v(0̃)-component fibers."""
    if box is None:
        box = generate_component(spec, radius, cap=cap, margin=margin)
    if weight_map is None:
        weight_map = lambda wt: wt  # noqa: E731
    out = {}
    for deg in itertools.product(*(range(-radius, radius + 1) for _ in range(spec.n))):
        char = fiber_character(box, deg, weight_map)
        if char:
            out[deg] = char
    return out


# ---------------------------------------------------------------------------
# twisted closure (rank-2 A series, twist order 2)
# ---------------------------------------------------------------------------

def _twisted_generators(fin: FinModule):
    e = [[slot.raiser[i] for slot in fin.slots] for i in range(2)]
    f = [[slot.lower[i] for slot in fin.slots] for i in range(2)]
    h = [
        [_diag_matrix([w[i] for w in slot.weights]) for slot in fin.slots]
        for i in range(2)
    ]

    def comb(a, b, sign):
        return [_mat_add(x, y, sign) for x, y in zip(a, b)]

    def brkt(a, b):
        return [_commutator(x, y) for x, y in zip(a, b)]

    fixed = [comb(e[0], e[1], 1), comb(f[0], f[1], 1), comb(h[0], h[1], 1)]
    anti = [
        comb(h[0], h[1], -1),
        comb(e[0], e[1], -1),
        comb(f[0], f[1], -1),
        brkt(e[0], e[1]),
        brkt(f[0], f[1]),
    ]
    return fixed, anti


def twisted_generate_component(
    tspec: TwistedSpec,
    radius: int,
    cap: int = 64,
    margin: int = 1,
    seed_degree=None,
) -> GradedBox:
    """Closure under the twist-compatible generators only."""
    base = tspec.base
    if tspec.order == 1:
        return generate_component(
            base, radius, cap=cap, margin=margin, seed_degree=seed_degree
        )
    if not (base.algebra.series == "A" and base.algebra.rank == 2 and tspec.order == 2):
        raise UnsupportedError(
            "twisted realization is supported for the rank-2 A series, twist order 2",
            series=base.algebra.series,
            rank=base.algebra.rank,
            k=tspec.order,
        )
    fin = fin_for_spec(base, cap=cap)
    ev = Evaluator(base)
    n = base.n
    fixed, anti = _twisted_generators(fin)
    zero = tuple(0 for _ in range(n))
    fixed_steps = [zero]
    for i in range(1, n):
        for sgn in (1, -1):
            s = [0] * n
            s[i] = sgn
            fixed_steps.append(tuple(s))
    anti_steps = []
    for sgn in (1, -1):
        s = [0] * n
        s[0] = sgn
        anti_steps.append(tuple(s))
    generators = [(mats, fixed_steps) for mats in fixed]
    generators += [(mats, anti_steps) for mats in anti]
    seed = seed_degree if seed_degree is not None else zero
    return _closure(fin, ev, generators, seed, radius, margin)


def h0_weight_map(aut_orbits):
    """Project a Cartan weight to its values on the orbit-sum basis."""

    def project(wt):
        return tuple(sum(wt[i] for i in orbit) for orbit in aut_orbits)

    return project
