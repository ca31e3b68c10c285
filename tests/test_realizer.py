import dataclasses
import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    A1, A2, A2_FLIP, D4, D4_TRIALITY, fiber_rows, fiber_span, fin_for_spec, random_twisted_spec,
    reference_audit, reference_close, sc, scalar_pool, spec,
)
import loopmod
from loopmod import realizer
from loopmod.cli import main
from loopmod.cyclotomic import CycVector, from_numerators, to_numerators
from loopmod.errors import CapExceededError, InputError, UnsupportedError
from loopmod.liealg import build_algebra, build_aut, node_orbits, restrict_weight, weyl_dim
from loopmod.psi import support_lattice
from loopmod.realizer import (
    FieldEchelon,
    build_tensor,
    fiber_character,
    generate_component,
    graded_character,
    h0_weight_map,
    irreducible_module,
    loop_action,
    twisted_generate_component,
)
from loopmod.twisted import TwistedSpec
from test_acceptance import _acceptance3_specs


def test_irreducible_module_sl2():
    m = irreducible_module(A1, (2,))
    assert m.dim == 3
    assert [w[0] for w in m.weights] == [2, 0, -2]
    m1 = irreducible_module(A1, (1,))
    assert m1.dim == 2
    m0 = irreducible_module(A1, (0,))
    assert m0.dim == 1


# Every series at every rank up to 4, whose coroots differ from the roots
# for B, C, F and G, and E₆.
_SMALL_ALGEBRAS = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3),
    ("D", 3), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("E", 6),
)


@functools.lru_cache(maxsize=None)
def _small_irreps(bound=80):
    # Every (algebra, λ) of _SMALL_ALGEBRAS with dim V(λ) <= bound: the E₆
    # adjoint, F₄ V(ω₄) and the G₂, B₃ and D₄ adjoints among them.  The
    # dimension grows with each fundamental weight added to λ, so the search
    # stops at the first weight over the bound.
    out = []
    for series, rank in _SMALL_ALGEBRAS:
        algebra = build_algebra(series, rank)
        found, todo = {(0,) * rank}, [(0,) * rank]
        while todo:
            lam = todo.pop()
            for i in range(rank):
                mu = tuple(x + (j == i) for j, x in enumerate(lam))
                if mu not in found and weyl_dim(algebra, mu) <= bound:
                    found.add(mu)
                    todo.append(mu)
        out += [(algebra, lam) for lam in sorted(found)]
    return out


def _sparse(cols):
    return {(r, c): x for c, col in enumerate(cols) for r, x in col}


def _dense(cols, dim):
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for c, col in enumerate(cols):
        for r, x in col:
            mat[r][c] = x
    return mat


def _sparse_commutator(a, b):
    def mul(x, y):
        rows = {}
        for (k, c), v in y.items():
            rows.setdefault(k, []).append((c, v))
        out = {}
        for (r, k), u in x.items():
            for c, v in rows.get(k, ()):
                out[r, c] = out.get((r, c), 0) + u * v
        return out

    out = mul(a, b)
    for key, x in mul(b, a).items():
        out[key] = out.get(key, 0) - x
    return {key: x for key, x in out.items() if x}


def test_irreducible_module_dims_match_weyl():
    assert {(a.series, a.rank) for a, _ in _small_irreps()} == set(_SMALL_ALGEBRAS)
    for algebra, lam in _small_irreps():
        m = irreducible_module(algebra, lam)
        assert m.dim == weyl_dim(algebra, lam) == len(m.weights)
        assert m.weights[0] == lam


def test_irreducible_module_bracket_identity():
    # [e_i, f_j] = δ_ij·h_i and the Serre relations (ad x_i)^{1−C_ij}(x_j) = 0
    # for x = e and x = f, on every module of _small_irreps.
    for algebra, lam in _small_irreps():
        m = irreducible_module(algebra, lam)
        for cols in m.raiser + m.lower:
            assert len(cols) == m.dim
            for col in cols:
                assert all(x for _, x in col)
                assert all(p[0] < q[0] for p, q in zip(col, col[1:]))
        e, f = [_sparse(x) for x in m.raiser], [_sparse(x) for x in m.lower]
        for i in range(algebra.rank):
            h = {(r, r): Fraction(w[i]) for r, w in enumerate(m.weights) if w[i]}
            for j in range(algebra.rank):
                assert _sparse_commutator(e[i], f[j]) == (h if i == j else {})
                if i == j:
                    continue
                for x in (e, f):
                    y = x[j]
                    for _ in range(1 - algebra.cartan[i][j]):
                        y = _sparse_commutator(x[i], y)
                    assert y == {}, (algebra.series, lam, i, j)


@pytest.mark.parametrize("series, rank, lam, digest", [
    ("A", 2, (2, 1), "eb720faaa85e8312c776aec11e51fe3226af48223940f7605352a2722e7bc19a"),
    ("G", 2, (1, 1), "5b379f9c26dcb16465acfeb3d58ed0903350124315997d2b2e82fc11f65d3a59"),
    ("E", 6, (0, 1, 0, 0, 0, 0),
     "0a28389bb8445d492c1c732eda4b7ce3154bdd89e361e669c5fc829820515529"),
], ids=["A2", "G2", "E6-adjoint"])
def test_irreducible_module_basis_is_pinned(series, rank, lam, digest):
    # The basis (which f_word·v, in which order) fixes every closure row, so
    # it is pinned: the digests were recorded from the lowering-word search
    # through the contravariant form, which built the same vectors.  They
    # hash the text of the module with dense f_i and e_i matrices.
    m = irreducible_module(build_algebra(series, rank), lam)
    text = (
        f"SlotModule(top={m.top!r}, dim={m.dim!r}, weights={m.weights!r}, "
        f"lower={tuple(_dense(c, m.dim) for c in m.lower)!r}, "
        f"raiser={tuple(_dense(c, m.dim) for c in m.raiser)!r})"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("series, rank, lam, dim", [
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
    ("F", 4, (0, 0, 0, 1), 26),
], ids=["E7", "F4"])
def test_verify_realizes_exceptional_fundamental_modules(tmp_path, capsys, series, rank, lam, dim):
    # One evaluation point, so one component; the tensor is V(λ) itself,
    # within the default --cap 64.
    doc = {
        "schema": 1,
        "algebra": {"series": series, "rank": rank},
        "n": 1,
        "dims": [1],
        "weights": [{"index": [1], "coords": list(lam)}],
        "evals": [[2]],
        "rho": [0],
    }
    assert weyl_dim(build_algebra(series, rank), lam) == dim
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--box", "1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["ok"] and all(result["checks"].values())
    assert result["components"] == 1


def test_build_tensor_dims_and_cap():
    fin = build_tensor(A1, [(1,), (1,)])
    assert fin.total == 4
    assert fin.basis_weights[fin.hw_index] == (2,)
    with pytest.raises(CapExceededError) as info:
        build_tensor(A1, [(3,)] * 4, cap=64)
    assert info.value.data["dimension"] == 256


def test_build_tensor_checks_the_cap_before_building_a_module(monkeypatch):
    # V(6,6,6) of A₃ has dimension 117,649; building it takes minutes.
    def refuse(*args):
        raise AssertionError("irreducible_module called over the cap")

    monkeypatch.setattr(realizer, "irreducible_module", refuse)
    with pytest.raises(CapExceededError) as info:
        build_tensor(build_algebra("A", 3), [(6, 6, 6)])
    assert info.value.data["dimension"] == 117_649


def test_loop_action_antisymmetric_image():
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    fin = fin_for_spec(s)
    order = s.field_order
    vec = [CycVector.zero(order)] * fin.total
    vec[fin.hw_index] = CycVector.from_rational(1, order)
    out = loop_action(fin, s, ("f", 0), (1,), vec)
    # v⊗v lowered with weights (1, −1): fv⊗v − v⊗fv (indices 2 and 1)
    assert out[2] == CycVector.from_rational(1, order)
    assert out[1] == CycVector.from_rational(-1, order)
    assert out[0].is_zero() and out[3].is_zero()


def test_loop_action_bracket_on_vectors():
    # [e(s), f(t)] acts like h(s+t) on arbitrary fiber vectors.
    s = spec(A1, (2,), {(1,): (1,), (2,): (2,)}, [(1, -1)])
    fin = fin_for_spec(s)
    order = s.field_order
    rng = random.Random(4)
    for _ in range(5):
        vec = [
            CycVector.from_rational(rng.randint(-2, 2), order)
            for _ in range(fin.total)
        ]
        for st, tt in (((1,), (0,)), ((1,), (-1,)), ((0,), (1,))):
            ef = loop_action(fin, s, ("e", 0), st, loop_action(fin, s, ("f", 0), tt, vec))
            fe = loop_action(fin, s, ("f", 0), tt, loop_action(fin, s, ("e", 0), st, vec))
            hsum = loop_action(
                fin, s, ("h", 0), tuple(a + b for a, b in zip(st, tt)), vec
            )
            for a, b, c in zip(ef, fe, hsum):
                assert (a - b) == c


def _reference_action(fin, s, kind, idx, step, vec):
    # Each slot's e_i or f_i columns applied with CycVector arithmetic: the
    # entry x at row r of column c sends basis vector g (slot component c)
    # to g + (r − c)·stride, times the slot's coefficient at ``step``.
    out = [CycVector.zero(s.field_order)] * fin.total
    for k, (slot, coeff) in enumerate(zip(fin.slots, s.coefficients(step))):
        cols = (slot.raiser if kind == "e" else slot.lower)[idx]
        stride = fin.strides[k]
        for g in range(fin.total):
            c = (g // stride) % slot.dim
            for r, x in cols[c]:
                t = g + (r - c) * stride
                out[t] = out[t] + vec[g].scale(coeff, x)
    return out


@pytest.mark.parametrize("order", [5, 12, 60, 105])
def test_loop_action_bracket_on_vectors_at_wrapping_orders(order):
    # Evaluation points ζ^{L−1} and (2/3)·ζ^{L−2}: their powers' exponents
    # plus a random entry's power-basis exponents pass φ(L) and L, so every
    # image needs reduced powers of ζ.  loop_action matches the reference,
    # and [e(s), f(t)] acts like h(s+t).
    s = spec(A2, (2,), {(1,): (1, 0), (2,): (1, 1)},
             [((1, order - 1, order), (Fraction(2, 3), order - 2, order))])
    fin = fin_for_spec(s)
    rng = random.Random(order)
    for _ in range(2):
        vec = [
            CycVector(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)])
            for _ in range(fin.total)
        ]
        for kind, idx in (("e", 0), ("f", 1)):
            for st_ in ((1,), (-1,), (2,), (0,)):
                assert loop_action(fin, s, (kind, idx), st_, vec) == _reference_action(
                    fin, s, kind, idx, st_, vec
                )
        for st_, tt in (((1,), (0,)), ((1,), (-1,)), ((2,), (1,))):
            ef = loop_action(fin, s, ("e", 0), st_, loop_action(fin, s, ("f", 0), tt, vec))
            fe = loop_action(fin, s, ("f", 0), tt, loop_action(fin, s, ("e", 0), st_, vec))
            hsum = loop_action(fin, s, ("h", 0), tuple(a + b for a, b in zip(st_, tt)), vec)
            assert [a - b for a, b in zip(ef, fe)] == hsum


def test_loop_action_derivation():
    s = spec(A1, (1,), {(1,): (1,)}, [(2,)], rho=(Fraction(1, 2),))
    fin = fin_for_spec(s)
    order = s.field_order
    vec = [CycVector.from_rational(1, order)] * fin.total
    out = loop_action(fin, s, ("d", 0), (0,), vec, degree=(3,))
    assert out[0] == CycVector.from_rational(Fraction(7, 2), order)


def test_generate_component_full_when_index_one():
    s = spec(A1, (1,), {(1,): (1,)}, [(1,)])
    box = generate_component(s, 3)
    assert box.dims() == {(m,): 2 for m in range(-3, 4)}


def test_generate_component_trivial_weight():
    s = spec(A1, (1,), {(1,): (0,)}, [(1,)])
    box = generate_component(s, 3)
    assert box.dims() == {(0,): 1}


def _sym_antisym_expected(order):
    # Independent oracle for V(1)⊗V(1) with evaluation (1, −1): even-degree
    # fibers are the symmetric square, odd-degree fibers the alternating part.
    one = lambda k: CycVector.from_rational(k, order)  # noqa: E731
    zero = CycVector.zero(order)
    sym = [
        [one(1), zero, zero, zero],
        [zero, one(1), one(1), zero],
        [zero, zero, zero, one(1)],
    ]
    anti = [[zero, one(1), one(-1), zero]]
    return sym, anti


def test_generate_component_splits_by_parity():
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    box = generate_component(s, 3)
    order = s.field_order
    sym, anti = _sym_antisym_expected(order)
    assert box.dims() == {(m,): (3 if m % 2 == 0 else 1) for m in range(-3, 4)}
    for m in range(-3, 4):
        span = fiber_span(box, (m,))
        expected = sym if m % 2 == 0 else anti
        for v in expected:
            assert span.contains(to_numerators(v)[1])
        assert len(fiber_rows(box, (m,))) == len(expected)


def _audited_count(s, radius) -> int:
    # The number of closures, one seed per coset of the support, after the
    # audit finds them fiber-disjoint and filling the module at every degree.
    boxes = realizer.component_decomposition(s, support_lattice(s).lattice.coset_reps(), radius)
    audit = realizer.audit_decomposition(boxes)
    assert not audit.overlaps and not audit.shortfalls
    return len(boxes)


def test_count_components_examples():
    s2 = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    assert _audited_count(s2, 3) == 2
    s1 = spec(A1, (2,), {(1,): (1,), (2,): (2,)}, [(1, 2)])
    assert _audited_count(s1, 3) == 1
    u, w = (1,), (0,)
    cb = spec(
        A1,
        (2, 2),
        {(1, 1): u, (1, 2): w, (2, 1): w, (2, 2): u},
        [(1, -1), (1, -1)],
    )
    assert support_lattice(cb).lattice.rows == ((2, 0), (1, 1))
    assert _audited_count(cb, 2) == 2


def test_graded_character_scaling_invariance():
    ca = graded_character(spec(A1, (1,), {(1,): (1,)}, [(2,)]), 2)
    cb = graded_character(spec(A1, (1,), {(1,): (1,)}, [(6,)]), 2)
    assert ca == cb


def test_graded_character_parity_split():
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    char = graded_character(s, 3)
    for m in range(-3, 4):
        if m % 2 == 0:
            assert char[(m,)] == (((-2,), 1), ((0,), 1), ((2,), 1))
        else:
            assert char[(m,)] == (((0,), 1),)


def _involution_on(module):
    """The diagram involution realized on a flip-fixed A2 module: the unique
    T with T·e_i = e_{σi}·T, T·f_i = f_{σi}·T and T(hw) = hw."""
    dim = module.dim
    rows = []
    rhs = []
    for i, j in ((0, 1), (1, 0)):
        for cols in (module.raiser, module.lower):
            a, b = _dense(cols[i], dim), _dense(cols[j], dim)
            # T·a − b·T = 0  (entries of T are the unknowns, row per (r, c))
            for r in range(dim):
                for c in range(dim):
                    row = [Fraction(0)] * (dim * dim)
                    for k in range(dim):
                        row[r * dim + k] += a[k][c]
                        row[k * dim + c] -= b[r][k]
                    rows.append(row)
                    rhs.append(Fraction(0))
    norm = [Fraction(0)] * (dim * dim)
    norm[0] = Fraction(1)
    rows.append(norm)
    rhs.append(Fraction(1))
    # Solve the overdetermined system by elimination.
    cols = dim * dim
    aug = [row + [val] for row, val in zip(rows, rhs)]
    piv_cols = []
    r0 = 0
    for c in range(cols):
        piv = next((r for r in range(r0, len(aug)) if aug[r][c] != 0), None)
        if piv is None:
            continue
        aug[r0], aug[piv] = aug[piv], aug[r0]
        pv = aug[r0][c]
        aug[r0] = [x / pv for x in aug[r0]]
        for r in range(len(aug)):
            if r != r0 and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[r0])]
        piv_cols.append(c)
        r0 += 1
    sol = [Fraction(0)] * cols
    for r, c in enumerate(piv_cols):
        sol[c] = aug[r][cols]
    for r in range(r0, len(aug)):
        assert aug[r][cols] == 0
    return [[sol[r * dim + c] for c in range(dim)] for r in range(dim)]


def test_twisted_component_matches_involution_eigenspaces():
    s = spec(A2, (1,), {(1,): (1, 1)}, [(1,)])
    t = TwistedSpec(base=s, aut=A2_FLIP)
    box = twisted_generate_component(t, 2)
    module = irreducible_module(A2, (1, 1))
    T = _involution_on(module)
    order = t.base.field_order
    # Eigenspace bases of T (as field vectors).
    eig = {1: [], -1: []}
    for sign in (1, -1):
        mat = [
            [T[r][c] - (Fraction(sign) if r == c else Fraction(0)) for c in range(8)]
            for r in range(8)
        ]
        # nullspace by elimination
        aug = [row[:] for row in mat]
        piv_of_col = {}
        r0 = 0
        for c in range(8):
            piv = next((r for r in range(r0, 8) if aug[r][c] != 0), None)
            if piv is None:
                continue
            aug[r0], aug[piv] = aug[piv], aug[r0]
            pv = aug[r0][c]
            aug[r0] = [x / pv for x in aug[r0]]
            for r in range(8):
                if r != r0 and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[r0])]
            piv_of_col[c] = r0
            r0 += 1
        for c in range(8):
            if c in piv_of_col:
                continue
            v = [Fraction(0)] * 8
            v[c] = Fraction(1)
            for pc, pr in piv_of_col.items():
                v[pc] = -aug[pr][c]
            eig[sign].append(v)
    assert len(eig[1]) == 5 and len(eig[-1]) == 3
    for m in range(-2, 3):
        span = fiber_span(box, (m,))
        expect = eig[1] if m % 2 == 0 else eig[-1]
        assert len(fiber_rows(box, (m,))) == len(expect)
        for v in expect:
            assert span.contains(to_numerators([CycVector.from_rational(x, order) for x in v])[1])


def test_twisted_component_contained_in_untwisted():
    s = spec(A2, (1,), {(1,): (1, 1)}, [(1,)])
    t = TwistedSpec(base=s, aut=A2_FLIP)
    tb = twisted_generate_component(t, 2)
    ub = generate_component(t.base, 2)
    for deg in {deg for deg, _ in tb.parts}:
        if max(abs(x) for x in deg) <= 2:
            span = fiber_span(ub, deg)
            for row in fiber_rows(tb, deg):
                assert span.contains(row)


def test_twisted_first_type_fills_all_degrees():
    s = spec(A2, (1,), {(1,): (1, 0)}, [(1,)])
    t = TwistedSpec(base=s, aut=A2_FLIP)
    assert twisted_generate_component(t, 2).dims() == {(m,): 3 for m in range(-2, 3)}


def test_twisted_identity_aut_equals_untwisted():
    ident = build_aut(A2, (0, 1))
    s = spec(A2, (1,), {(1,): (1, 0)}, [(2,)])
    t = TwistedSpec(base=s, aut=ident)
    assert twisted_generate_component(t, 2).dims() == generate_component(s, 2).dims()


def test_twisted_triality_first_type_fills_all_degrees():
    # V(ω₁) of D₄ is not fixed by triality: one component, the whole module
    # at every degree.
    s = spec(D4, (1,), {(1,): (1, 0, 0, 0)}, [(1,)])
    t = TwistedSpec(base=s, aut=D4_TRIALITY)
    assert twisted_generate_component(t, 2).dims() == {(m,): 8 for m in range(-2, 3)}


@pytest.mark.parametrize(
    "series, rank, sigma, lam, ranks",
    [
        ("A", 3, (2, 1, 0), (0, 1, 0), (5, 1)),
        ("A", 3, (2, 1, 0), (1, 0, 1), (10, 5)),
        ("D", 4, (0, 1, 3, 2), (1, 0, 0, 0), (7, 1)),
        ("D", 4, (2, 1, 3, 0), (0, 1, 0, 0), (14, 7, 7)),
    ],
    ids=["A3-flip-w2", "A3-flip-adjoint", "D4-flip-w1", "D4-triality-adjoint"],
)
def test_twisted_fiber_ranks_are_the_twist_eigenspaces(series, rank, sigma, lam, ranks):
    # For σ-fixed λ at a = (1), the fiber at degree m is the eigenspace of μ
    # on V(λ) for the residue of m mod k: the triality adjoint is G₂ plus its
    # two 7-dimensional modules.
    algebra = build_algebra(series, rank)
    aut = build_aut(algebra, sigma)
    t = TwistedSpec(base=spec(algebra, (1,), {(1,): lam}, [(1,)]), aut=aut)
    assert sum(ranks) == weyl_dim(algebra, lam)
    box = twisted_generate_component(t, 2)
    assert box.dims() == {(m,): ranks[m % aut.order] for m in range(-2, 3)}


def test_twisted_step_generator_matches_restrict_weight():
    # At +e₁ the generator is Σ_u ω^{−u}·e_{σ^u b}; restrict_weight pairs the
    # degrees with m₁ ≡ 1 against v₁ = Σ_u ω^{−u}·h_{σ^u b}.  So the
    # coefficient of e_{σ^u b} is the value of ω_{σ^u b} on v₁.
    s = spec(D4, (1,), {(1,): (1, 0, 0, 0)}, [(1,)])
    t = TwistedSpec(base=s, aut=D4_TRIALITY)
    order = t.base.field_order
    (orbit,) = [o for o in node_orbits(D4_TRIALITY) if len(o) == 3]
    tables = realizer._closure_tables(t.base, node_orbits(D4_TRIALITY), 3, 64)
    (gid,) = [gid for gid, (*_, step) in enumerate(tables.module.gens) if step == (1,)]
    gen_terms, _, step = tables.module.gens[gid]
    den, terms = realizer._integer_terms(gen_terms)
    assert den == 1 and len(terms) == 3
    assert realizer._step_scales(t.base, step) == (1, [(1, 0)])
    # One slot, whose coefficient at a = (1) is 1: each term holds e_{σ^u b}'s
    # columns as they are, since they are integers.
    for ((e, int_cols),), node in zip(terms, orbit):
        (mat_cols,) = realizer._slot_columns(tables.module.fin, "e", node)
        assert int_cols == [list(col) for col in mat_cols]
        fundamental = tuple(int(i == node) for i in range(4))
        (value,) = restrict_weight(D4_TRIALITY, fundamental, order).higher[0]
        assert value == CycVector.from_terms(order, [(e, 1)])


@pytest.mark.parametrize("series, rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E", 6)])
def test_realizer_accepts_every_automorphism_that_build_aut_accepts(series, rank):
    # The classifier and the realizer accept the same automorphisms: each
    # builds its closure tables on a small σ-fixed spec, the orbit sum of
    # fundamental weights with the smallest module.
    algebra = build_algebra(series, rank)
    accepted = 0
    for sigma in itertools.permutations(range(rank)):
        try:
            aut = build_aut(algebra, sigma)
        except (InputError, UnsupportedError):
            continue
        orbits = node_orbits(aut)
        lam = min(
            (tuple(int(i in o) for i in range(rank)) for o in orbits),
            key=lambda w: weyl_dim(algebra, w),
        )
        t = TwistedSpec(base=spec(algebra, (1,), {(1,): lam}, [(1,)]), aut=aut)
        cap = weyl_dim(algebra, lam)
        tables = realizer._closure_tables(t.base, orbits, aut.order, cap)
        assert tables.module.gens and tables.module.fin.total == cap
        accepted += 1
    assert accepted == {"A": 2, "D": 6, "E": 2}[series]


def test_twisted_h0_character():
    s = spec(A2, (1,), {(1,): (1, 1)}, [(1,)])
    t = TwistedSpec(base=s, aut=A2_FLIP)
    box = twisted_generate_component(t, 2)
    from loopmod.liealg import node_orbits

    # The box's classes are the orbit-sum values, so its character is in them.
    h0 = h0_weight_map(node_orbits(A2_FLIP))
    assert box.grading.members == realizer.Grading(box.fin, h0).members
    char = {deg: fiber_character(box, deg) for deg in box.dims()}
    # top orbit-sum weight 2 present at every even degree of the component
    assert ((2,), 1) in char[(0,)]
    assert ((2,), 1) in char[(2,)]


# ---------------------------------------------------------------------------
# weight-graded fibers
# ---------------------------------------------------------------------------

_H0 = h0_weight_map(node_orbits(A2_FLIP))


def _identity(wt):
    return wt


def _graded_boxes():
    """(box, map from a basis weight to its closure class) for the
    acceptance-3 specs and for twisted A₂ specs."""
    out = [(generate_component(s, 2), _identity) for s in _acceptance3_specs()]
    for s in (
        spec(A2, (1,), {(1,): (1, 1)}, [(1,)]),
        spec(A2, (1,), {(1,): (1, 0)}, [(1,)]),
        spec(A2, (2,), {(1,): (1, 0), (2,): (0, 1)}, [(1, -1)]),
    ):
        out.append((twisted_generate_component(TwistedSpec(base=s, aut=A2_FLIP), 2), _H0))
    return out


@pytest.fixture(scope="module")
def graded_boxes():
    return _graded_boxes()


def test_graded_rows_vanish_outside_their_class(graded_boxes):
    for box, class_map in graded_boxes:
        weights = box.fin.basis_weights
        for deg in {deg for deg, _ in box.parts}:
            for row in (from_numerators(box.order, r, 1) for r in fiber_rows(box, deg)):
                assert len(row) == box.fin.total
                classes = {class_map(weights[g]) for g, x in enumerate(row) if not x.is_zero()}
                assert len(classes) == 1


def test_graded_rows_reinsert_to_the_fiber_rank(graded_boxes):
    for box, _ in graded_boxes:
        for deg in {deg for deg, _ in box.parts}:
            full = FieldEchelon(box.order)
            span = fiber_span(box, deg)
            for row in fiber_rows(box, deg):
                assert full.add(row) is not None, deg
                assert span.contains(row)
            assert full.rank == sum(ech.rank for (d, _), ech in box.parts.items() if d == deg)


def test_graded_fiber_rejects_vectors_outside_it():
    # V(1)⊗V(1) at (1, −1): odd fibers are the alternating line only.
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    span = fiber_span(generate_component(s, 2), (1,))
    order = s.field_order
    one, zero = CycVector.from_rational(1, order), CycVector.zero(order)
    assert span.contains(to_numerators([zero, one, -one, zero])[1])
    assert not span.contains(to_numerators([zero, one, one, zero])[1])
    assert not span.contains(to_numerators([one, zero, zero, zero])[1])


def _character_from_rows(box, deg, class_map):
    # Independent rebuild: rank of the fiber's full rows projected onto the
    # coordinates of each class_map value.
    rows = [from_numerators(box.order, r, 1) for r in fiber_rows(box, deg)]
    groups = {}
    for g, wt in enumerate(box.fin.basis_weights):
        groups.setdefault(class_map(wt), []).append(g)
    out = []
    for wt, cols in sorted(groups.items()):
        sub = FieldEchelon(box.order)
        mult = sum(
            1 for row in rows if sub.add(to_numerators([row[c] for c in cols])[1]) is not None
        )
        if mult:
            out.append((wt, mult))
    return tuple(out)


def test_fiber_character_matches_a_rebuild_from_rows(graded_boxes):
    # The per-class ranks are the ranks of the full rows projected onto each
    # class, and the fiber splits along the classes.
    for box, class_map in graded_boxes:
        for deg in {deg for deg, _ in box.parts}:
            char = fiber_character(box, deg)
            assert char == _character_from_rows(box, deg, class_map)
            assert sum(m for _, m in char) == len(fiber_rows(box, deg))


def test_top_weight_is_its_own_class():
    # λ = Σλ_I has multiplicity one in the tensor, so its class in an
    # untwisted closure is the highest-weight vector alone; verify's
    # top_weight_support check reads its multiplicity as that class's rank.
    for s in _acceptance3_specs():
        box = generate_component(s, 1)
        fin, members = box.fin, box.grading.members
        assert members[fin.basis_weights[fin.hw_index]] == (fin.hw_index,)


_SPEC_ZETA12 = {
    "schema": 1,
    "algebra": {"series": "A", "rank": 1},
    "n": 1,
    "dims": [2],
    "weights": [{"index": [1], "coords": [1]}, {"index": [2], "coords": [2]}],
    "evals": [[1, {"num": 1, "zeta_order": 12, "zeta_pow": 1}]],
    "rho": [0],
}


def _ints(vec):
    # A CycVector row as the integer row FieldEchelon takes: a nonzero
    # rational multiple of it.
    return to_numerators(vec)[1]


def test_echelon_never_inverts_a_pivot(monkeypatch, tmp_path, capsys):
    # Rows keep their pivots in Z[ζ_L], so no insert, membership test or
    # realization check calls the field inverse, whatever the pivots are.
    def no_inverse(self):
        raise AssertionError("inverse() called")

    monkeypatch.setattr(CycVector, "inverse", no_inverse)
    order = 3
    z = CycVector.zero(order)
    zeta = CycVector(order, [0, 5, 0])
    one = CycVector.from_rational(1, order)
    ech = FieldEchelon(order)
    assert ech.add(_ints([z, zeta, z])) is not None
    assert ech.add(_ints([one, one, one])) is not None
    # Reduces to one entry against the stored rows.
    assert ech.add(_ints([one, one + zeta, CycVector.from_rational(2, order)])) is not None
    assert ech.rank == 3

    def el(*terms):
        return CycVector.from_terms(12, terms)

    a, b = el((0, 1), (1, 2), (3, -1)), el((0, 1), (1, 1))  # 1 + 2ζ − ζ³, 1 + ζ
    r1, r2 = [a, b, el((2, 1))], [b, a, el((0, 3))]
    ech = FieldEchelon(12)
    assert ech.add(_ints(r1)) is not None and ech.add(_ints(r2)) is not None
    combo = _ints([b * x - a * y for x, y in zip(r1, r2)])
    assert ech.contains(combo) and ech.add(combo) is None
    assert not ech.contains(_ints([el((0, 1)), el(), el()]))
    assert ech.rank == 2

    # A₁, λ = (1),(2), a = (1, ζ₁₂): its closure meets pivots that are not a
    # single power of ζ.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_SPEC_ZETA12))
    assert main(["verify", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["ok"] and all(result["checks"].values())


def test_echelon_stores_a_power_of_zeta_lead_with_a_rational_pivot():
    # A lead a·ζ^e is multiplied by the unit ζ^{L−e}, so the stored pivot is
    # the rational a and reductions against the row stay integer passes.
    def el(*terms):
        return CycVector.from_terms(12, terms)

    lead, rest = el((3, -2)), el((0, 1), (1, 1))  # −2ζ³, 1 + ζ
    ech = FieldEchelon(12)
    row = ech.add(_ints([lead, rest]))
    assert from_numerators(12, row, 1) == [el((0, -2)), rest * el((9, 1))]
    pivot = ech.int_rows[0][:ech.width]
    assert pivot[0] == -2 and not any(pivot[1:])
    assert ech.contains(_ints([lead * el((5, 3)), rest * el((5, 3))]))
    assert not ech.contains(_ints([lead, el((0, 1))]))


def test_echelon_at_large_order_is_bounded():
    # A two-entry row whose lead 1 + 2ζ − ζ³ is not a power of ζ, at
    # L = 10⁵ (φ(L) = 40,000): inserting it and testing membership cost a
    # few multiplications by the lead, in a fresh interpreter under a 1 GiB
    # address-space cap.
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from loopmod.cyclotomic import CycVector, to_numerators\n"
        "from loopmod.realizer import FieldEchelon\n"
        "L = 10 ** 5\n"
        "lead = CycVector.from_terms(L, [(0, 1), (1, 2), (3, -1)])\n"
        "tail = CycVector.from_terms(L, [(7, 1), (50001, -4)])\n"
        "shift = CycVector.from_terms(L, [(5, 3)])\n"
        "ech = FieldEchelon(L)\n"
        "assert ech.add(to_numerators([lead, tail])[1]) is not None\n"
        "assert ech.contains(to_numerators([lead * shift, tail * shift])[1])\n"
        "assert not ech.contains(to_numerators([lead, tail + shift])[1])\n"
        "print(ech.rank)\n"
    )
    src = os.path.dirname(os.path.dirname(loopmod.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1"]


def _reference_echelon(vectors):
    """Plain elimination in ``CycVector`` arithmetic (+, −, *, inverse): each
    vector is reduced by the kept rows in pivot order, then divided by its
    first nonzero entry.  Returns the accept flags and the rows by pivot."""
    rows: dict = {}
    accepted = []
    for vec in vectors:
        for piv in sorted(rows):
            c = vec[piv]
            vec = [x - c * y for x, y in zip(vec, rows[piv])]
        live = [t for t, x in enumerate(vec) if not x.is_zero()]
        accepted.append(bool(live))
        if live:
            inv = vec[live[0]].inverse()
            rows[live[0]] = [inv * x for x in vec]
    return accepted, [rows[p] for p in sorted(rows)]


@st.composite
def _echelon_inputs(draw):
    order = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 9, 12, 60, 105)))
    small = order <= 12  # φ(60) = 16 and φ(105) = 48: fewer, shorter vectors
    length = draw(st.integers(1, 4 if small else 3))
    zero = CycVector.zero(order)
    pairs = st.tuples(st.integers(0, order - 1), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    term_lists = {k: st.lists(pairs, max_size=k) for k in (1, 2)}

    def element(terms, nonzero=False):
        while True:
            x = CycVector.from_terms(order, draw(term_lists[terms]))
            if not (nonzero and x.is_zero()):
                return x

    vectors = []
    for _ in range(draw(st.integers(1, 6 if small else 3))):
        kind = draw(st.sampled_from(
            ("general", "one-entry", "one-coordinate", "combination", "rational")
        ))
        if kind == "rational":  # rational pivots, met by rational and cyclotomic entries
            vec = [CycVector.from_rational(draw(st.integers(-3, 3)), order) for _ in range(length)]
        elif kind == "one-entry":
            vec = [zero] * length
            vec[draw(st.integers(0, length - 1))] = element(2, nonzero=True)
        elif kind == "combination" and vectors:
            vec = [zero] * length
            for old in vectors:
                c = element(1)
                vec = [x + c * y for x, y in zip(vec, old)]
        elif kind == "one-coordinate":  # a·ζ^e leads
            at = draw(st.integers(0, length - 1))
            e = draw(st.integers(0, len(zero.num) - 1))
            vec = [zero] * at + [CycVector.from_terms(order, [(e, draw(pairs)[1])])]
            vec += [element(2, nonzero=True) for _ in range(length - at - 1)]
        else:
            vec = [element(2) for _ in range(length)]
        vectors.append(vec)
    probes = [[element(2) for _ in range(length)]]
    probes += [[x + y for x, y in zip(a, b)] for a, b in zip(vectors, vectors[1:])]
    return order, length, vectors, probes


@given(_echelon_inputs())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_plain_elimination(case):
    order, length, vectors, probes = case
    accepted, rows = _reference_echelon(vectors)
    ech = FieldEchelon(order)
    for vec, ok in zip(vectors, accepted):
        stored = ech.add(_ints(vec))
        assert (stored is not None) == ok
        if ok:
            assert stored in ech.int_rows
    assert ech.rank == len(rows)
    # Each stored row is its reference row times the stored pivot entry.
    for stored, ref in zip((from_numerators(order, r, 1) for r in ech.int_rows), rows):
        piv = next(t for t, x in enumerate(ref) if not x.is_zero())
        assert all(x.is_zero() for x in stored[:piv])
        inv = stored[piv].inverse()
        assert [inv * x for x in stored] == ref
    for vec in vectors + probes:
        assert ech.contains(_ints(vec)) == (not _reference_echelon(rows + [vec])[0][-1])


def test_closure_rejects_a_generator_that_mixes_classes():
    # e₁ + e₂ moves weights by α₁ or α₂, which the identity grading separates.
    s = spec(A2, (1,), {(1,): (1, 1)}, [(1,)])
    fin = fin_for_spec(s)
    e_sum = [(realizer._slot_columns(fin, "e", i), 0) for i in range(2)]
    with pytest.raises(UnsupportedError):
        module = realizer._ModuleTables(fin, s.field_order, [(e_sum, [(1,)])], _identity)
        realizer._ClosureTables(module, s).close((0,), 1)


_CLOSURE_ALGEBRAS = (A1, A2, build_algebra("B", 2), build_algebra("G", 2))


def _slot_matrices(fin, kind, i):
    # Per-slot dense matrices of e_i, f_i or h_i, from their columns.
    return [_dense(cols, len(cols)) for cols in realizer._slot_columns(fin, kind, i)]


def _bracket(a, b):
    # Per-slot commutators [x, y] of two generators' slot matrices.
    def mul(x, y):
        out = [[0] * len(x) for _ in x]
        for r, row in enumerate(x):
            for k, p in enumerate(row):
                for c, q in enumerate(y[k] if p else ()):
                    out[r][c] += p * q
        return out

    return [
        [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(mul(x, y), mul(y, x))]
        for x, y in zip(a, b)
    ]


def _columns(mats):
    # Per-slot columns of dense matrices: each column's nonzero (row, entry)
    # pairs in row order.
    return [[[(r, m[r][c]) for r in range(len(m)) if m[r][c]] for c in range(len(m))]
            for m in mats]


def _comb(a, b, sign):
    return [[[p + sign * q for p, q in zip(r1, r2)] for r1, r2 in zip(x, y)] for x, y in zip(a, b)]


def _assert_same_closure(new, old, n, radius):
    # Equal ranks and new rows inside the old fiber: the spans are equal.
    work = radius + realizer.MARGIN
    for deg in itertools.product(range(-work, work + 1), repeat=n):
        rows = fiber_rows(new, deg)
        assert len(rows) == len(fiber_rows(old, deg)), deg
        span = fiber_span(old, deg)
        for row in rows:
            assert span.contains(row), deg


def _capped_weights(rng, algebra, indices, cap=64):
    # Dominant slot weights whose tensor dimension stays within ``cap``; at
    # least one is nonzero.
    while True:
        total, weights = 1, {}
        for I in indices:
            lam = tuple(rng.randint(0, 2) for _ in range(algebra.rank))
            if total * weyl_dim(algebra, lam) > cap:
                lam = (0,) * algebra.rank
            total *= weyl_dim(algebra, lam)
            weights[I] = lam
        if any(any(w) for w in weights.values()):
            return weights


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_generating_set_closure_equals_full_set_closure(seed):
    # The closure on g⊗1 plus e₁ at each step ±e_j spans what the closure on
    # every e_i, f_i, h_i at every step spans, at every degree of the box.
    rng = random.Random(seed)
    algebra = rng.choice(_CLOSURE_ALGEBRAS)
    n = rng.choice((1, 2))
    dims = tuple(rng.randint(1, 3 if n == 1 else 2) for _ in range(n))
    indices = list(itertools.product(*(range(1, d + 1) for d in dims)))
    pool = [sc(1), sc(-1), sc(2), sc(-2), sc(3), sc(1, 4, 12), sc(2, 4, 12), sc(1, 3, 12)]
    evals = [tuple(rng.sample(pool, d)) for d in dims]
    s = spec(algebra, dims, _capped_weights(rng, algebra, indices), evals)
    radius = 1
    seed_degree = tuple(rng.randint(-1, 1) for _ in range(n))
    fin = fin_for_spec(s)
    steps = realizer._steps(n, range(n))
    full = [
        ([(realizer._slot_columns(fin, kind, i), 0)], steps)
        for i in range(algebra.rank) for kind in "efh"
    ]
    module = realizer._ModuleTables(fin, s.field_order, full, _identity)
    tables = realizer._ClosureTables(module, s)
    old = tables.close(seed_degree, radius)
    new = generate_component(s, radius, seed_degree=seed_degree)
    _assert_same_closure(new, old, n, radius)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_twisted_generating_set_closure_equals_full_set_closure(seed):
    # A₂ flip: e₁+e₂, f₁+f₂ at step 0, e₁+e₂ at ±e_j (j ≥ 2) and e₁−e₂ at ±e₁
    # span what every fixed and anti-fixed basis element spans.
    rng = random.Random(seed)
    while True:
        t = random_twisted_spec(rng, A2, A2_FLIP)
        if prod(weyl_dim(A2, w) for w in t.base.weights.values()) <= 64:
            break
    s, n = t.base, t.base.n
    fin = fin_for_spec(s)
    e, f, h = ([_slot_matrices(fin, kind, i) for i in range(2)] for kind in "efh")
    fixed = [_comb(e[0], e[1], 1), _comb(f[0], f[1], 1), _comb(h[0], h[1], 1)]
    anti = [
        _comb(h[0], h[1], -1), _comb(e[0], e[1], -1), _comb(f[0], f[1], -1),
        _bracket(e[0], e[1]), _bracket(f[0], f[1]),
    ]
    full = [([(_columns(m), 0)], realizer._steps(n, range(1, n))) for m in fixed]
    full += [([(_columns(m), 0)], realizer._steps(n, (0,), zero=False)) for m in anti]
    radius = 1
    class_map = h0_weight_map(node_orbits(A2_FLIP))
    module = realizer._ModuleTables(fin, s.field_order, full, class_map)
    old = realizer._ClosureTables(module, s).close((0,) * n, radius)
    new = twisted_generate_component(t, radius)
    _assert_same_closure(new, old, n, radius)


_A4 = build_algebra("A", 4)
# The twists the PBW-ordered closure is checked on: the A₂ flip, the A₄ flip
# (its orbit {2, 3} is two adjacent nodes), and D₄ of orders 2 and 3.
_TWISTS = (
    (A2, A2_FLIP), (_A4, build_aut(_A4, (3, 2, 1, 0))),
    (D4, build_aut(D4, (0, 1, 3, 2))), (D4, D4_TRIALITY),
)


def _ranks(box):
    return {key: ech.rank for key, ech in box.parts.items() if ech.rank}


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_pbw_closure_ranks_equal_the_plain_closure(seed):
    # Raising at step 0 only from raised rows, and no echelon for a zero
    # image, give the ranks per (degree, class) that every move on every row
    # gives (helpers.reference_close), untwisted and twisted.
    rng = random.Random(seed)
    case = rng.randrange(len(_CLOSURE_ALGEBRAS) + len(_TWISTS))
    if case < len(_CLOSURE_ALGEBRAS):
        algebra = _CLOSURE_ALGEBRAS[case]
        orbits, k = [(i,) for i in range(algebra.rank)], 1
    else:
        algebra, aut = _TWISTS[case - len(_CLOSURE_ALGEBRAS)]
        orbits, k = node_orbits(aut), aut.order
    n = rng.choice((1, 2))
    dims = tuple(rng.randint(1, 3 if n == 1 else 2) for _ in range(n))
    indices = list(itertools.product(*(range(1, d + 1) for d in dims)))
    pool = scalar_pool(12)
    evals = [tuple(rng.sample(pool, d)) for d in dims]
    s = spec(algebra, dims, _capped_weights(rng, algebra, indices), evals)
    tables = realizer._closure_tables(s, orbits, k, 64)
    seed_degree = tuple(rng.randint(-1, 1) for _ in range(n))
    new = tables.close(seed_degree, 1)
    assert _ranks(new) == _ranks(reference_close(tables, seed_degree, 1))
    assert all(ech.rank for ech in new.parts.values())


def test_closure_keeps_no_empty_echelon(tmp_path, capsys):
    # A zero image makes no echelon, so every (degree, class) in parts holds
    # a row; an unreached class reads as rank 0, in fiber_character and in
    # verify's top-weight check.
    boxes = [generate_component(s, 2) for s in _acceptance3_specs()]
    t = TwistedSpec(base=spec(A2, (2,), {(1,): (1, 0), (2,): (0, 1)}, [(1, -1)]), aut=A2_FLIP)
    boxes.append(twisted_generate_component(t, 2))
    for box in boxes:
        assert box.parts and all(ech.rank >= 1 for ech in box.parts.values())
    # Γ = 2Z: the component of degree 0 has no top-weight vector at odd
    # degrees, and the class has no key there.
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    b0, _ = realizer.component_decomposition(s, support_lattice(s).lattice.coset_reps(), 2)
    top = b0.fin.basis_weights[b0.fin.hw_index]
    for m in range(-2, 3):
        assert (((m,), top) in b0.parts) == (m % 2 == 0)
        assert any(cls == top for cls, _ in fiber_character(b0, (m,))) == (m % 2 == 0)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "schema": 1, "algebra": {"series": "A", "rank": 1}, "n": 1, "dims": [2],
        "weights": [{"index": [1], "coords": [1]}, {"index": [2], "coords": [1]}],
        "evals": [[1, -1]],
    }))
    assert main(["verify", str(path), "--box", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["checks"]["top_weight_support"]


def test_audit_flags_shared_and_missing_fiber_vectors():
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    boxes = realizer.component_decomposition(s, support_lattice(s).lattice.coset_reps(), 2)
    good = realizer.audit_decomposition(boxes)
    assert not good.overlaps and not good.shortfalls
    assert [deg for deg, _ in good.fiber_dims] == [(m,) for m in range(-2, 3)]
    assert all(sum(ranks) == 4 for _, ranks in good.fiber_dims)
    # One of the two components alone misses vectors at every degree.
    alone = realizer.audit_decomposition(boxes[:1])
    assert not alone.overlaps
    assert alone.shortfalls == {(m,): 3 if m % 2 == 0 else 1 for m in range(-2, 3)}
    # A component counted twice shares every vector with itself.
    twice = realizer.audit_decomposition([boxes[0], boxes[0]])
    assert twice.overlaps == [(m,) for m in range(-2, 3)]
    # The audit checks whatever seeds it is given: seeds 0 and 2 lie in one
    # coset of Γ = 2Z, so their closures share every vector.
    three = realizer.audit_decomposition(realizer.component_decomposition(s, [(0,), (1,), (2,)], 2))
    assert three.overlaps == [(m,) for m in range(-2, 3)]
    assert _audited_count(s, 2) == 2


def _echelon(order, rows):
    ech = FieldEchelon(order)
    for row in rows:
        ech.add(row)
    return ech


def test_audit_matches_the_per_class_reference():
    # The audit builds combined echelons only where two components share a
    # (degree, class); the reference builds one for every class.
    def same(boxes):
        new, ref = realizer.audit_decomposition(boxes), reference_audit(boxes)
        assert (new.fiber_dims, new.overlaps, new.shortfalls) == (
            ref.fiber_dims, ref.overlaps, ref.shortfalls)
        return new

    for s in _acceptance3_specs():
        reps = support_lattice(s).lattice.coset_reps()
        if len(reps) > 1:
            same(realizer.component_decomposition(s, reps, 2))
    # Γ = 2Z: inject a row of W₀ at degree 0 into W₁, and drop a row of W₀
    # at degree 1.
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    b0, b1 = realizer.component_decomposition(s, support_lattice(s).lattice.coset_reps(), 2)
    order = s.field_order
    shared = next(key for key, ech in b0.parts.items() if key[0] == (0,) and ech.rank)
    dropped = next(key for key, ech in b0.parts.items() if key[0] == (1,) and ech.rank)
    kept = b1.parts.get(shared)
    parts0 = dict(b0.parts)
    parts0[dropped] = _echelon(order, b0.parts[dropped].int_rows[:-1])
    parts1 = dict(b1.parts)
    parts1[shared] = _echelon(order, (kept.int_rows if kept else []) + b0.parts[shared].int_rows[:1])
    faulty = [dataclasses.replace(b0, parts=parts0), dataclasses.replace(b1, parts=parts1)]
    audit = same(faulty)
    assert audit.overlaps == [(0,)] and set(audit.shortfalls) == {(0,), (1,)}
    for boxes in ([b0], [b0, b0], faulty[:1], faulty[::-1]):
        same(boxes)


def test_component_decomposition_builds_its_closure_tables_once(monkeypatch):
    # Γ = 2Z, so two closures; they share the module, the generators and the
    # term plans, and give the fibers that separate closures give.  The
    # tensor is built once per module.  The module makes each generator
    # integer once, with every slot coefficient 1, and plans it once per
    # move: a plan at step 0, and at a step s ≠ 0 the terms that a spec
    # scales by its a_I^s.  A spec's tables make nothing integer and plan
    # nothing, and closing a seed builds nothing.  A second spec on the same
    # module carries the module's step-0 plans and its own plans at s ≠ 0.
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    sup = support_lattice(s)
    realizer._module_tables.cache_clear()
    built = {"build_tensor": 0, "_plan": 0, "_integer_terms": 0}
    for name in built:
        original = getattr(realizer, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            built[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(realizer, name, counting)
    tables, at_close = [], []

    def keeping(*args, _original=realizer._closure_tables, **kwargs):
        tables.append(_original(*args, **kwargs))
        return tables[-1]

    def closing(*args, _original=realizer.generate_component, **kwargs):
        at_close.append(dict(built))
        return _original(*args, **kwargs)

    monkeypatch.setattr(realizer, "_closure_tables", keeping)
    monkeypatch.setattr(realizer, "generate_component", closing)
    boxes = realizer.component_decomposition(s, sup.lattice.coset_reps(), 2)
    assert len(boxes) == 2 and built["build_tensor"] == 1
    assert at_close == [built, built]
    (shared_tables,) = tables
    module = shared_tables.module
    moves = [move for out in module.moves.values() for move in out]
    stepped = [move for move in moves if any(module.steps[move[3]])]
    assert stepped and len(stepped) < len(moves)
    assert built["_integer_terms"] == len({id(terms) for terms, *_ in module.gens})
    assert built["_plan"] == len(moves)
    plans = {id(plan) for out in shared_tables.moves.values() for plan, *_ in out[1]}
    assert len(plans) == len(moves)
    separate = [generate_component(s, 2, seed_degree=rep) for rep in sup.lattice.coset_reps()]
    assert built["build_tensor"] == 1
    assert [b.dims() for b in boxes] == [b.dims() for b in separate]

    other = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, 2)])
    before = dict(built)
    realizer.component_decomposition(other, support_lattice(other).lattice.coset_reps(), 2)
    second = tables[-1]
    assert second.module is module and built == before
    for cls, out in module.moves.items():
        pairs = zip(out, second.moves[cls][1], shared_tables.moves[cls][1])
        for (plan, _, _, sid, _), (own, *_), (first, *_) in pairs:
            if any(module.steps[sid]):
                assert own is not first and own.terms is plan is first.terms
            else:
                assert own is plan is first


def _rows(boxes):
    return [
        (box.dims(), {key: ([h[0] for h in ech.heads], ech.int_rows)
                      for key, ech in box.parts.items()})
        for box in boxes
    ]


def _two_seeds(s):
    return [generate_component(s, 2, seed_degree=(m,)) for m in (0, 1)]


def test_module_table_cache_keeps_specs_apart():
    # Specs on one tensor module that differ in their evaluation points or in
    # the twist, closed in interleaved order through the module-table cache,
    # give the rows and ranks that tables built on an empty cache give.
    weights = {(1,): (1,), (2,): (1,)}
    untwisted = [
        spec(A1, (2,), weights, [(1, a)]) for a in (-1, 2, sc(1, 1, 4), sc(-1, 0, 4))
    ]
    t = TwistedSpec(
        base=spec(A2, (2,), {(1,): (1, 1), (2,): (1, 1)}, [(1, -1)]), aut=A2_FLIP
    )
    cases = [functools.partial(_two_seeds, s) for s in untwisted]
    cases += [lambda: [twisted_generate_component(t, 1)], lambda: [generate_component(t.base, 1)]]
    # Two n = 2 specs whose tops agree in table order, with dims [2, 1] and
    # [1, 2]: the module reads n and not the dims, so they share one entry.
    stacked = [
        spec(A1, (2, 1), {(1, 1): (1,), (2, 1): (2,)}, [(1, -1), (1,)]),
        spec(A1, (1, 2), {(1, 1): (1,), (1, 2): (2,)}, [(1,), (1, 2)]),
    ]
    cases += [lambda s=s: [generate_component(s, 1)] for s in stacked]
    shared = [_rows(close()) for _ in range(2) for close in cases]
    fresh = []
    for close in cases:
        realizer._module_tables.cache_clear()
        fresh.append(_rows(close()))
    assert shared == fresh + fresh
    assert realizer._module_tables.cache_info().maxsize is not None
    assert len({repr(rows) for rows in fresh}) == len(fresh)
    realizer._module_tables.cache_clear()
    for close in cases[-2:]:
        close()
    info = realizer._module_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "A2-flip"])
def test_closing_a_seed_builds_no_table(monkeypatch, twisted):
    # The closure tables are built whole: once _closure_tables returns, no
    # close makes a generator integer or builds a plan, and each gives the
    # rows and ranks that fresh tables give.
    if twisted:
        s = spec(A2, (2,), {(1,): (1, 1), (2,): (1, 1)}, [(1, -1)])
        orbits, k = node_orbits(A2_FLIP), A2_FLIP.order
    else:
        s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, 2)])
        orbits, k = [(0,)], 1
    closes = [(seed, radius) for seed in ((0,), (1,)) for radius in (1, 2)]
    fresh = []
    for seed, radius in closes:
        realizer._module_tables.cache_clear()
        fresh.append(_rows([realizer._closure_tables(s, orbits, k, 64).close(seed, radius)]))
    tables = realizer._closure_tables(s, orbits, k, 64)

    def refuse(*args, **kwargs):
        raise AssertionError("a close built a table")

    monkeypatch.setattr(realizer, "_integer_terms", refuse)
    monkeypatch.setattr(realizer, "_plan", refuse)
    assert [_rows([tables.close(seed, radius)]) for seed, radius in closes] == fresh


def test_over_cap_module_raises_on_every_call():
    # The cache keeps no failed entry: the cap check runs on every call.
    s = spec(A1, (4,), {(i,): (3,) for i in range(1, 5)}, [(1, -1, 2, -2)])
    for _ in range(3):
        with pytest.raises(CapExceededError) as info:
            generate_component(s, 1)
        assert (info.value.data["dimension"], info.value.data["cap"]) == (256, 64)
