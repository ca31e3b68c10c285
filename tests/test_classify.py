import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    same_subgroup,
    A1,
    galois_spec,
    off_support_shift,
    orthogonal_block_spec,
    random_spec,
    reference_axis_candidates,
    reference_detect_blocks,
    sc,
    skew_block_spec,
    spec,
    spec_doc,
    transformed_spec,
)
from loopmod.cli import main
from loopmod.classify import (
    axis_candidates,
    classify,
    decide_iso,
    detect_blocks,
    find_witness,
    scalar_sort_key,
)
from loopmod.cyclotomic import CycScalar
from loopmod.errors import (
    EngineError,
    StructureViolationError,
    SupportNotSubgroupError,
    TrivialModuleError,
)
from loopmod.jsonio import parse_spec
from loopmod.lattice import from_generators
from loopmod.liealg import primitive_root_of_unity
from loopmod.psi import SupportLattice, eval_functional, support_lattice


def test_detect_blocks_two_orbits():
    s = spec(
        A1,
        (4,),
        {(1,): (1,), (2,): (1,), (3,): (2,), (4,): (2,)},
        [(2, -2, 3, -3)],
    )
    d = classify(s)
    ab = d.blocks.axes[0]
    assert ab.period == 2
    assert ab.block_count == 2
    assert [b.q for b in ab.bases] == [2, 3]
    assert ab.epsilon == CycScalar(-1, 0, 1)
    # orbit membership: ±2 in block 0, ±3 in block 1
    assert ab.assignment == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert d.p == 2
    assert d.classes == (((1,), 2), ((2,), 2))


def _blocks_of(evals):
    doc = {
        "algebra": {"series": "A", "rank": 1},
        "n": 1,
        "dims": [len(evals)],
        "weights": [{"index": [j + 1], "coords": [1]} for j in range(len(evals))],
        "evals": [evals],
    }
    s = parse_spec(doc)
    (ab,) = detect_blocks(s, support_lattice(s)).axes
    return ab


def test_detect_blocks_rationals_with_different_denominators():
    # ±2/3 and ±5/8: 5/8 < 2/3 although 5 > 2, so 5/8 leads the blocks.
    ab = _blocks_of(["2/3", {"num": -5, "den": 8}, "-2/3", {"num": 10, "den": 16}])
    assert ab.period == 2 and ab.block_count == 2
    assert [(b.num, b.den, b.e) for b in ab.bases] == [(5, 8, 0), (2, 3, 0)]
    assert (ab.epsilon.num, ab.epsilon.den, ab.epsilon.e) == (-1, 1, 0)
    assert ab.assignment == ((1, 0), (0, 1), (1, 1), (0, 0))


def test_detect_blocks_sign_folded_scalars_at_even_order():
    # At L = 4, ζ³ = −ζ and ζ² = −1 fold into the sign: the axis is
    # (−ζ, ζ, −3, 3), and the exponent sorts before |q|.
    zeta = lambda num, e: {"num": num, "zeta_pow": e, "zeta_order": 4}
    ab = _blocks_of([zeta(1, 3), zeta(1, 1), zeta(3, 2), zeta(3, 0)])
    assert ab.period == 2 and ab.block_count == 2
    assert [(b.num, b.den, b.e, b.order) for b in ab.bases] == [(3, 1, 0, 4), (1, 1, 1, 4)]
    assert (ab.epsilon.num, ab.epsilon.e, ab.epsilon.order) == (-1, 0, 4)
    assert ab.assignment == ((1, 1), (1, 0), (0, 1), (0, 0))


def test_detect_blocks_single_orbit():
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    d = classify(s)
    ab = d.blocks.axes[0]
    assert ab.period == 2 and ab.block_count == 1
    assert ab.bases[0].q == 1


def test_detect_blocks_violation():
    s = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, 2)])
    fake = SupportLattice(lattice=from_generators([(2,)]), periods=(2,), index=2)
    with pytest.raises(StructureViolationError):
        detect_blocks(s, fake)


# Orders with and without the sign fold, odd ones whose roots of unity are
# the 2L-th, and composite ones with many orbit sizes.
_ORDERS = (1, 2, 3, 4, 5, 12, 15, 60, 105)


def _random_scalar(rng, order):
    # Either sign, |q| in 1..5 over a denominator of 1, 2 or 3, any exponent:
    # negative scalars at odd order, sign-folded ones at even order, den > 1.
    q = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3))) * rng.choice((1, -1))
    return CycScalar(q, rng.randrange(order), order)


def _unit(g, order):
    # ζ_{2L}^g as a scalar of order L: ζ_L^{g/2} for even g, and for odd g
    # (then L is odd) −ζ_L^{(g−L)/2}, since ζ_{2L}^L = −1.
    odd = g % 2
    return CycScalar(-1 if odd else 1, (g - odd * order) // 2, order)


def _orbit_axis(rng, order):
    """(scalars, period): one to three ε-orbits of a period r dividing the
    number of roots of unity of the field, on random bases, shuffled.  In
    half the draws the data is off: a scalar is dropped, or replaced by a
    random one, or the period is another one dividing the axis size."""
    roots = lcm(2, order)
    r = rng.choice([d for d in range(1, 7) if roots % d == 0])
    axis = []
    for _ in range(rng.randint(1, 3)):
        base = _random_scalar(rng, order)
        axis += [base * _unit(p * (2 * order // r), order) for p in range(r)]
    fault = rng.choice((None, None, None, "drop", "swap", "period"))
    if fault == "drop" and len(axis) > 1:
        axis.pop(rng.randrange(len(axis)))
    elif fault == "swap":
        axis[rng.randrange(len(axis))] = _random_scalar(rng, order)
    elif fault == "period":
        r = rng.choice([d for d in range(1, 7) if len(axis) % d == 0])
    axis = list(dict.fromkeys(axis))  # overlapping orbits share members
    rng.shuffle(axis)
    return axis, r


def _blocks_or_violation(detect, s, support):
    try:
        return detect(s, support)
    except StructureViolationError as exc:
        return str(exc), exc.data


@pytest.mark.parametrize("order", _ORDERS)
@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_detect_blocks_matches_the_scalar_version(order, seed):
    # The blocks on integer phases against the former ones on scalar
    # arithmetic: bases, ε and assignment per axis, or the same violation
    # with the same data.  ``classify``'s orbit check raises it too.
    rng = random.Random(seed)
    axes, periods = zip(*(_orbit_axis(rng, order) for _ in range(rng.choice((1, 2)))))
    dims = tuple(map(len, axes))
    s = spec(A1, dims, {I: (1,) for I in itertools.product(*(range(1, d + 1) for d in dims))}, axes)
    support = SupportLattice(
        lattice=from_generators([tuple(r if j == i else 0 for j in range(len(dims)))
                                 for i, r in enumerate(periods)]),
        periods=periods,
        index=prod(periods),
    )
    got = _blocks_or_violation(detect_blocks, s, support)
    expected = _blocks_or_violation(reference_detect_blocks, s, support)
    if isinstance(expected, tuple):
        assert got == expected
        return
    for a, b in zip(got.axes, expected.axes, strict=True):
        assert (a.axis, a.period, a.block_count) == (b.axis, b.period, b.block_count)
        assert a.bases == b.bases and a.epsilon == b.epsilon
        assert a.assignment == b.assignment
        for j, (ell, p) in enumerate(a.assignment):
            assert s.evals[a.axis][j] == a.bases[ell] * a.epsilon ** p


@pytest.mark.parametrize("order", _ORDERS)
@given(st.integers(0, 2 ** 32), st.sampled_from((1, 2, 3)),
       st.sampled_from(("related", "colliding", "random")))
@settings(max_examples=30, deadline=None)
def test_axis_candidates_match_the_scalar_version(order, seed, k, kind):
    # The candidates on integer keys against the former ones on scalar
    # arithmetic, over a field holding ω, a primitive k-th root of unity.
    # Related values are b_j = ω^{u_j}·𝔰·a_{π(j)}; colliding ones also have
    # two b (and at times two a) whose k-th powers agree.
    rng = random.Random(seed)
    order = lcm(order, k)
    omega = primitive_root_of_unity(k, order)
    roots = tuple(omega ** u for u in range(1, k))
    # The a_j have distinct k-th powers, as image equality gives a twisted
    # module (and distinctness an untwisted one); colliding draws break that.
    powers = {}
    for _ in range(rng.randint(1, 4)):
        a = _random_scalar(rng, order)
        powers.setdefault(a ** k, a)
    a_values = list(powers.values())
    if kind == "random":
        b_values = list(dict.fromkeys(_random_scalar(rng, order) for _ in a_values))
    else:
        s = _random_scalar(rng, order)
        perm = rng.sample(range(len(a_values)), len(a_values))
        b_values = [omega ** rng.randrange(k) * s * a_values[j] for j in perm]
    if kind == "colliding" and k > 1 and len(a_values) > 1:
        j = rng.randrange(1, len(b_values))
        b_values[j] = omega ** rng.randrange(1, k) * b_values[0]
        if rng.random() < 0.5:
            a_values[1] = omega ** rng.randrange(1, k) * a_values[0]
        a_values = list(dict.fromkeys(a_values))
        b_values = list(dict.fromkeys(b_values))
    a_values, b_values = tuple(a_values), tuple(b_values)
    got = axis_candidates(a_values, b_values, roots)
    assert got == reference_axis_candidates(a_values, b_values, roots)
    assert got or kind != "related"


def test_classify_examples():
    d = classify(spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)]))
    assert d.p == 2
    assert d.realization == (((1,), 1),)
    assert "^⊗2" in d.realization_statement

    d2 = classify(spec(A1, (2,), {(1,): (1,), (2,): (2,)}, [(1, 2)]))
    assert d2.p == 1
    assert d2.realization == (((1,), 1), ((2,), 1))

    with pytest.raises(TrivialModuleError):
        classify(spec(A1, (1,), {(1,): (0,)}, [(1,)]))


def test_classify_equal_weights_distinct_points_succeeds():
    # 1 + 2^m never vanishes, so the support is everything and p = 1.
    d = classify(spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, 2)]))
    assert d.p == 1
    assert d.classes == (((1,), 2),)
    assert d.realization == (((1,), 2),)


def test_scalar_sort_key_prefers_positive():
    vals = [sc(-2), sc(2)]
    assert min(vals, key=scalar_sort_key).q == 2
    vals = [sc(-1), sc(1)]
    assert min(vals, key=scalar_sort_key).q == 1


def _simple(weight, a, rho=None):
    return spec(A1, (1,), {(1,): weight}, [(a,)], rho=rho)


def test_decide_iso_scaling_witness():
    d1 = classify(_simple((1,), 2))
    d2 = classify(_simple((1,), 6))
    res = decide_iso(d1, d2)
    assert res
    assert res.witness.scalings[0].q == 3
    assert res.witness.taus == ((0,),)


def test_decide_iso_shift_witness():
    d1 = classify(_simple((1,), 2))
    d2 = classify(_simple((1,), 2, rho=(1,)))
    res = decide_iso(d1, d2)
    assert res
    assert res.witness.shift == (1,)


def test_decide_iso_shift_must_land_in_support():
    base = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)])
    shifted = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)], rho=(1,))
    assert decide_iso(classify(base), classify(shifted)).reason == "grading-shift"
    shifted2 = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)], rho=(2,))
    assert decide_iso(classify(base), classify(shifted2))


def test_decide_iso_weight_mismatch():
    d1 = classify(_simple((1,), 2))
    d2 = classify(_simple((2,), 2))
    res = decide_iso(d1, d2)
    assert not res and res.reason == "weight-mismatch"


def test_decide_iso_dim_mismatch():
    d1 = classify(_simple((1,), 2))
    d2 = classify(spec(A1, (2,), {(1,): (1,), (2,): (2,)}, [(1, 2)]))
    assert decide_iso(d1, d2).reason == "dimension-mismatch"


def test_decide_iso_three_cycle_slot_relabeling():
    # A pure slot relabeling by a 3-cycle is the same data and must be
    # accepted; this pins the direction convention of the table condition.
    u, v, w = (1,), (2,), (3,)
    s1 = spec(A1, (3,), {(1,): u, (2,): v, (3,): w}, [(1, 2, 4)])
    s2 = spec(A1, (3,), {(1,): v, (2,): w, (3,): u}, [(2, 4, 1)])
    res = decide_iso(classify(s1), classify(s2))
    assert res
    assert res.witness.taus == ((1, 2, 0),)
    assert res.witness.scalings[0].is_one


def test_decide_iso_is_equivalence_on_pool():
    rng = random.Random(77)
    pool = []
    while len(pool) < 8:
        s = random_spec(rng)
        try:
            pool.append(classify(s))
        except EngineError:
            continue
    for d in pool:
        assert decide_iso(d, d)
    # symmetric / transitive along constructed chains
    base = pool[0].spec
    t1, _, _ = transformed_spec(rng, base, shift_support=pool[0].support)
    t2, _, _ = transformed_spec(rng, t1, shift_support=pool[0].support)
    d0, d1, d2 = pool[0], classify(t1), classify(t2)
    assert decide_iso(d0, d1)
    assert decide_iso(d1, d0)
    assert decide_iso(d1, d2)
    assert decide_iso(d0, d2)


def test_constructed_transformations_yield_witnesses():
    rng = random.Random(99)
    found = 0
    while found < 12:
        s = random_spec(rng)
        try:
            d = classify(s)
        except EngineError:
            continue
        found += 1
        t, perms, scalings = transformed_spec(rng, s, shift_support=d.support)
        dt = classify(t)
        res = decide_iso(d, dt)
        assert res, (s.dims, res.reason)
        assert same_subgroup(d.support.lattice, dt.support.lattice)


def test_transformed_specs_classify_alike():
    # ``loopmod iso`` leaves the right spec unclassified when a witness is
    # found, because a witness fixes its classification (classify.py); specs
    # that raise must raise alike.
    rng = random.Random(2501)
    specs = [
        spec(A1, (3,), {(1,): (1,), (2,): (1,), (3,): (0,)}, [(1, -1, 5)]),
        spec(A1, (1,), {(1,): (0,)}, [(2,)]),
    ]
    specs += [orthogonal_block_spec(rng)[0] for _ in range(10)]
    specs += [random_spec(rng) for _ in range(150)]
    raised = set()
    for s in specs:
        t, _, _ = transformed_spec(rng, s)
        try:
            d = classify(s)
        except EngineError as exc:
            raised.add(type(exc))
            with pytest.raises(EngineError) as info:
                classify(t)
            assert type(info.value) is type(exc)
            continue
        res = decide_iso(d, t)
        assert res, res.reason
        dt = classify(t)
        assert same_subgroup(dt.support.lattice, d.support.lattice)
        assert (dt.support.periods, dt.p) == (d.support.periods, d.p)
        assert decide_iso(d, dt) == res
    assert raised == {StructureViolationError, SupportNotSubgroupError, TrivialModuleError}


@given(st.integers(0, 2 ** 32), st.sampled_from(("random", "orthogonal", "skew")), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_grading_shift_refutation_fixes_the_right_classification(seed, kind, integral):
    # ``loopmod iso`` leaves the right spec unclassified after a
    # ``grading-shift`` refutation: the search hit a (τ, 𝔰) and failed only
    # at the shift, so the right spec classifies, with the left one's Γ,
    # periods and index (classify.py).
    rng = random.Random(seed)
    draw = {
        "random": lambda: random_spec(rng),
        "orthogonal": lambda: orthogonal_block_spec(rng)[0],
        "skew": lambda: skew_block_spec(rng)[0],
    }[kind]
    while True:
        s = draw()
        try:
            d = classify(s)
            break
        except EngineError:
            continue
    t, _, _ = transformed_spec(rng, s)
    t = off_support_shift(rng, t, d.support.lattice, integral)
    assert find_witness(s, t, d.support.lattice).reason == "grading-shift"
    dt = classify(t)
    assert same_subgroup(dt.support.lattice, d.support.lattice)
    assert (dt.support.periods, dt.p) == (d.support.periods, d.p)


def test_orthogonal_block_roundtrip():
    rng = random.Random(2024)
    for _ in range(10):
        s, periods, p = orthogonal_block_spec(rng)
        d = classify(s)
        assert d.support.periods == periods
        assert d.p == p
        assert all(size == p for _, size in d.classes)


def test_skew_block_roundtrip():
    rng = random.Random(31)
    for _ in range(10):
        s, target = skew_block_spec(rng)
        d = classify(s)
        assert same_subgroup(d.support.lattice, target)
        assert d.p == target.index
        assert all(size == d.p for _, size in d.classes)


# ROADMAP item 6: both specs present ψ(m) = 2^m·ω₁; the second only adds the
# point 3 with the zero weight.
POINT_2 = {"algebra": {"series": "A", "rank": 1}, "n": 1, "dims": [1],
           "weights": [{"index": [1], "coords": [1]}], "evals": [[2]]}
POINT_2_AND_ZERO_AT_3 = {"algebra": {"series": "A", "rank": 1}, "n": 1, "dims": [2],
                         "weights": [{"index": [1], "coords": [1]}, {"index": [2], "coords": [0]}],
                         "evals": [[2, 3]]}


def test_a_zero_weight_point_leaves_the_functional_unchanged():
    # By Artin's independence of characters ψ determines the module, so the
    # two specs present one module.
    s1, s2 = parse_spec(POINT_2), parse_spec(POINT_2_AND_ZERO_AT_3)
    for m in range(-3, 4):
        assert eval_functional(s1, (m,)) == eval_functional(s2, (m,)), m


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: iso exits 1 with dimension-mismatch, counting the "
    "zero-weight point"))
def test_iso_ignores_a_zero_weight_point(tmp_path, capsys):
    paths = []
    for name, doc in (("one", POINT_2), ("two", POINT_2_AND_ZERO_AT_3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code = main(["iso", *paths])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["result"]["isomorphic"]) == (0, True)


def _outcome(call, *args):
    # ``call(*args)``, or the name of the engine error it raises.
    try:
        return call(*args)
    except EngineError as exc:
        return type(exc).__name__


def _galois_invariants(doc, partner):
    # support's basis, periods and index; classify's index and classes; the
    # iso decision against ``partner``.  A refused step stands as its error.
    s = parse_spec(doc)
    sup = _outcome(support_lattice, s)
    if not isinstance(sup, str):
        sup = (sup.lattice.rows, sup.lattice.ordering, sup.periods, sup.index)
    d = _outcome(classify, s)
    if isinstance(d, str):
        return sup, d
    return sup, (d.p, d.classes), decide_iso(d, parse_spec(partner)).isomorphic


_GENERATORS = {
    "random": random_spec,
    "orthogonal-block": lambda rng: orthogonal_block_spec(rng)[0],
    "skew-block": lambda rng: skew_block_spec(rng)[0],
}


@given(
    st.integers(0, 2 ** 32),
    st.sampled_from(sorted(_GENERATORS)),
    st.sampled_from(("transformed", "random")),
    st.integers(0, 2 ** 16),
)
@settings(max_examples=100, deadline=None)
def test_galois_conjugation_keeps_support_classes_and_iso(seed, kind, partner, pick):
    # ROADMAP item 17: ζ_L ↦ ζ_L^u conjugates ψ(m) coordinate by coordinate,
    # so the zero set, Γ, the classes and every iso decision stay.  The
    # certificate label is not compared: power-basis signs move.
    rng = random.Random(seed)
    s = _GENERATORS[kind](rng)
    t = transformed_spec(rng, s)[0] if partner == "transformed" else random_spec(rng)
    L = lcm(s.field_order, t.field_order)
    units = [u for u in range(1, L + 1) if gcd(u, L) == 1]
    u = units[pick % len(units)]
    doc, other = spec_doc(s), spec_doc(t)
    assert _galois_invariants(galois_spec(doc, u), galois_spec(other, u)) == \
        _galois_invariants(doc, other), u
