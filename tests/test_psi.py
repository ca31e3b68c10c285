import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    A1, A2, A2_FLIP, D4, D4_TRIALITY, dense_coset_status, dense_coset_sums, random_spec,
    random_twisted_spec, same_subgroup, spec, substituted_spec,
)
from loopmod import cyclotomic, psi
from loopmod.cli import main
from loopmod.cyclotomic import CycScalar
from loopmod.errors import (
    EngineError, InputError, NoPeriodWithinBoundError, SupportNotSubgroupError, TrivialModuleError,
)
from loopmod.jsonio import parse_spec
from loopmod.lattice import Lattice, from_generators
from loopmod.psi import (
    Evaluator,
    PsiSpec,
    SupportLattice,
    box_scan_order,
    eval_functional,
    nonvanishing_support,
    support_lattice,
    verify_support,
)
from loopmod.twisted import TwistedEvaluator, TwistedSpec, twisted_support


def _two_point(w1, w2, a1, a2):
    return spec(A1, (2,), {(1,): w1, (2,): w2}, [(a1, a2)])


def test_eval_functional_examples():
    s = _two_point((1,), (1,), 1, -1)
    assert all(v.is_zero() for v in eval_functional(s, (1,)))
    v2 = eval_functional(s, (2,))
    assert not v2[0].is_zero()
    assert v2[0].coeffs[0] == 2
    v0 = eval_functional(s, (0,))
    assert v0[0].coeffs[0] == 2  # Σ λ_I


def test_support_even_lattice():
    s = _two_point((1,), (1,), 1, -1)
    sup = support_lattice(s)
    assert sup.lattice.rows == ((2,),)
    assert sup.periods == (2,)
    assert sup.index == 2


def test_support_full_when_weights_differ():
    s = _two_point((1,), (2,), 1, -1)
    sup = support_lattice(s)
    assert sup.lattice.rows == ((1,),)
    assert sup.index == 1


def test_trivial_module():
    s = spec(A1, (1,), {(1,): (0,)}, [(1,)])
    with pytest.raises(TrivialModuleError):
        support_lattice(s)


def test_validation_errors():
    with pytest.raises(InputError):
        _two_point((1,), (1,), 1, 1)  # repeated evaluation point
    with pytest.raises(InputError):
        spec(A1, (2,), {(1,): (1,)}, [(1, 2)])  # incomplete table
    with pytest.raises(InputError):
        spec(A1, (1,), {(1,): (-1,)}, [(1,)])  # non-dominant
    with pytest.raises(InputError):
        PsiSpec(
            algebra=A1,
            n=1,
            dims=(2,),
            weights={(1,): (1,), (2,): (1,)},
            evals=((CycScalar(1, 0, 2), CycScalar(1, 1, 4)),),
        )  # mismatched orders


def test_support_subgroup_closure_by_evaluation():
    # Whenever support_lattice returns (rather than flagging a cancellation),
    # the nonvanishing set behaves as a subgroup on a small window.
    rng = random.Random(123)
    returned = 0
    flagged = 0
    for _ in range(30):
        s = random_spec(rng)
        try:
            sup = support_lattice(s)
        except TrivialModuleError:
            continue
        except SupportNotSubgroupError:
            flagged += 1
            continue
        returned += 1
        ev = Evaluator(s)
        members = [m for m in box_scan_order(s.n, 2) if ev.is_nonzero(m)]
        for a in members[:6]:
            for b in members[:6]:
                total = tuple(x + y for x, y in zip(a, b))
                assert ev.is_nonzero(total)
            assert ev.is_nonzero(tuple(-x for x in a))
        # and the lattice matches evaluation on the small box
        for m in box_scan_order(s.n, 2):
            assert sup.lattice.contains(m) == ev.is_nonzero(m)
    assert returned >= 15


def test_isolated_cancellation_is_flagged():
    # λ=((1),(2)) with a=(2,−1): the functional vanishes exactly at m=1
    # (2 − 2 = 0), so the nonvanishing set Z∖{1} is not a subgroup; the
    # algebra image is all of A and no lattice can represent the scan.
    s = _two_point((1,), (2,), 2, -1)
    with pytest.raises(SupportNotSubgroupError):
        support_lattice(s)


def test_support_is_always_full_rank():
    rng = random.Random(5)
    for _ in range(40):
        s = random_spec(rng)
        try:
            sup = support_lattice(s)
        except (TrivialModuleError, SupportNotSubgroupError):
            continue
        assert sup.lattice.full_rank
        assert sup.index % 1 == 0
        n_total = s.table_size
        assert n_total % sup.index == 0


def test_axis_scaling_leaves_support_unchanged():
    rng = random.Random(17)
    for _ in range(15):
        s = random_spec(rng)
        order = s.field_order
        factors = [CycScalar(2, 0, order), CycScalar(1, order // 2, order) if order % 2 == 0 else CycScalar(3, 0, order)]
        scaled_evals = tuple(
            tuple(factors[i % len(factors)] * a for a in axis)
            for i, axis in enumerate(s.evals)
        )
        scaled = PsiSpec(
            algebra=s.algebra,
            n=s.n,
            dims=s.dims,
            weights=dict(s.weights),
            evals=scaled_evals,
            rho=s.rho,
        )
        try:
            sup1 = support_lattice(s)
        except (TrivialModuleError, SupportNotSubgroupError):
            continue
        sup2 = support_lattice(scaled)
        assert sup1.lattice.rows == sup2.lattice.rows


def test_rho_plays_no_role_in_support():
    s1 = _two_point((1,), (1,), 1, -1)
    s2 = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)], rho=(Fraction(7, 2),))
    assert support_lattice(s1).lattice.rows == support_lattice(s2).lattice.rows


def test_verify_support_examples():
    s = _two_point((1,), (1,), 1, -1)
    sup = support_lattice(s)
    assert verify_support(s, sup, 4)
    corrupt = SupportLattice(lattice=from_generators([(1,)]), periods=(1,), index=1)
    res = verify_support(s, corrupt, 4)
    assert not res
    assert res.counterexample == (1,)
    assert verify_support(s, sup, 0)


def test_box_scan_order_is_by_max_norm():
    order = box_scan_order(1, 2)
    assert order == [(0,), (1,), (-1,), (2,), (-2,)]


def test_far_zero_is_flagged_with_its_exact_witness(tmp_path, capsys):
    # λ=((1),(8192)), a=(2,−1): v(m) = 2^m + 8192·(−1)^m vanishes at m = 13
    # only, outside the audit cube (radius 6).  The dominance window on the
    # odd coset lists that zero, and 13 lies in the group Z that Γ generates.
    s = _two_point((1,), (8192,), 2, -1)
    with pytest.raises(SupportNotSubgroupError) as info:
        support_lattice(s)
    assert info.value.data["witness"] == (13,)
    doc = {
        "schema": 1,
        "algebra": {"series": "A", "rank": 1},
        "n": 1,
        "dims": [2],
        "weights": [{"index": [1], "coords": [1]}, {"index": [2], "coords": [8192]}],
        "evals": [[2, -1]],
        "rho": [0],
    }
    path = tmp_path / "far_zero.json"
    path.write_text(json.dumps(doc))
    assert main(["support", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"][0]["type"] == "SupportNotSubgroupError"
    assert report["diagnostics"][0]["data"]["witness"] == [13]


# ROADMAP item 2's spec: A₁, dims [2, 1], λ = (1), (8192), a₁ = (2, −1) and
# a₂ = (3).  ψ vanishes at every degree (13, k).  SHEAR is t ↦ t^B with
# c = 2, which gives dims [2, 2], a₁ = (2, −1) and a₂ = (12, 3).
FAR_ZERO_2D = {
    "schema": 1,
    "algebra": {"series": "A", "rank": 1},
    "n": 2,
    "dims": [2, 1],
    "weights": [{"index": [1, 1], "coords": [1]}, {"index": [2, 1], "coords": [8192]}],
    "evals": [[2, -1], [3]],
    "rho": [0, 0],
}
SHEAR = [[1, 2], [0, 1]]


def _sheared(m) -> tuple:
    # SHEAR·m.
    return tuple(sum(b * x for b, x in zip(row, m)) for row in SHEAR)


def test_substituted_spec_evaluates_psi_at_bm():
    # ψ'(m) = ψ(Bm) as vectors, on a box around 0 and at the far zeros.
    original = parse_spec(FAR_ZERO_2D)
    sheared = parse_spec(substituted_spec(FAR_ZERO_2D, SHEAR))
    assert sheared.dims == (2, 2)
    degrees = [*itertools.product(range(-3, 4), repeat=2), (13, 0), (13, -26), (-1, 7)]
    for m in degrees:
        assert eval_functional(sheared, m) == eval_functional(original, _sheared(m)), m


def _support_or_error(doc):
    # The support lattice of ``doc``, or the name of the error it raises.
    try:
        return support_lattice(parse_spec(doc)).lattice
    except EngineError as exc:
        return type(exc).__name__


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 2 and 15: the original exits 0 with Γ = Z² (audit) "
    "while its shear exits 3"))
def test_support_agrees_with_a_shear_of_the_far_zero_spec():
    # supp ψ' = B⁻¹·supp ψ (ROADMAP item 17): the same error on both sides,
    # or Γ = B·Γ'.
    original = _support_or_error(FAR_ZERO_2D)
    sheared = _support_or_error(substituted_spec(FAR_ZERO_2D, SHEAR))
    if isinstance(original, str) or isinstance(sheared, str):
        assert original == sheared
    else:
        image = [_sheared(g) for g in sheared.generators_original()]
        assert same_subgroup(original, Lattice.from_generators(image, n=2))


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``Evaluator.functional`` calls and of coset-sum scans."""
    calls = Counter()

    def wrap(owner, name):
        original = getattr(owner, name)

        def counting(self, *args):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, name, counting)

    wrap(Evaluator, "functional")
    wrap(psi._CosetSums, "sums")
    return calls


@pytest.mark.parametrize(
    "evals",
    [(1, (1, 1, 2003)), ((-1, 2, 2003), -1)],
    ids=["one-zeta", "minus-zeta-squared"],
)
def test_lam_leung_certifies_without_a_scan(counted, evals):
    # One torsion class (every |a| = 1) of weight 2.  For a = (−ζ², −1) the
    # phases have order 4006, but their ratio ζ² has order 2003: with the
    # ratio order the only prime is 2003 and 2 ∉ 2003ℕ, so Γ = Z; with the
    # absolute order 2 would be a prime and the test would not apply.
    s = _two_point((1,), (1,), *evals)
    sup = support_lattice(s)
    assert sup.certificate == "lam-leung"
    assert sup.lattice.rows == ((1,),) and sup.periods == (1,)
    assert counted["functional"] == 0
    assert counted["sums"] == 0


def _brute_force_not_closed(s, radius) -> bool:
    # Two nonvanishing degrees of the cube whose difference vanishes.
    ev = Evaluator(s)
    cube = box_scan_order(s.n, radius)
    members = [m for m in cube if ev.is_nonzero(m)]
    inside = set(members)
    return any(
        tuple(x - y for x, y in zip(a, b)) not in inside
        for a in members
        for b in members
        if max(abs(x - y) for x, y in zip(a, b)) <= radius
    )


def test_certified_support_agrees_with_the_oracle():
    # Every rung of the ladder against the brute-force oracle: n ≤ 2 draws
    # are checked on twice the audit cube's radius, n = 3 draws on it.
    rng = random.Random(2)
    rungs = Counter()
    for _ in range(80):
        s = random_spec(rng)
        cube = max(max(6, 2 * d) for d in s.dims)
        radius = 2 * cube if s.n <= 2 else cube
        try:
            sup = support_lattice(s)
        except TrivialModuleError:
            continue
        except SupportNotSubgroupError:
            rungs["not-a-subgroup"] += 1
            assert _brute_force_not_closed(s, min(radius, 8))
            continue
        rungs[sup.certificate] += 1
        res = verify_support(s, sup, radius)
        assert res, (sup.certificate, res.counterexample)
    assert set(rungs) == {
        "single-entry", "lam-leung", "domain", "descartes", "audit", "not-a-subgroup"
    }, rungs


# Version 1 of classify-corpus item 012: a = (−2ζ₁₂⁴ ; ½, −3) has torsion
# classes (2, ½) and (2, 3), and on the odd cosets of axis 2 their class sums
# have opposite signs and span one line, so the ladder leaves them open
# (n = 2).  Evaluating the functional there took 79 calls.
_OPEN_COSETS = spec(
    A1, (1, 2), {(1, 1): (1,), (1, 2): (1,)}, [((-2, 4, 12),), (Fraction(1, 2), -3)]
)
# a = (2, 3ζ₂₀₀₃): two torsion classes whose phase ratio has order 2003, so
# the coset scan is over the audit cube's budget and no coset is scanned
# ahead.  Evaluating the functional there took 15 calls.
_OVER_BUDGET = spec(A1, (2,), {(1,): (1,), (2,): (1,)}, [(2, (3, 1, 2003))])


def test_open_cosets_are_decided_without_the_functional(counted):
    # The degrees the audit cube reaches in open or unscanned cosets are
    # decided from the class sums, each coset's sums computed once.
    for s, rows, sums in ((_OPEN_COSETS, ((1, 0), (0, 1)), 2), (_OVER_BUDGET, ((1,),), 13)):
        counted.clear()
        sup = support_lattice(s)
        assert sup.certificate == "audit"
        assert sup.lattice.rows == rows
        assert sup.periods == (1,) * s.n and sup.index == 1
        assert counted["functional"] == 0
        assert counted["sums"] == sums
        assert verify_support(s, sup, 8)


def test_support_evaluates_nothing(monkeypatch):
    # The support reads the term table alone: direct evaluation, untwisted or
    # twisted, is left to the oracle.
    def refuse(self, m):
        raise AssertionError(f"evaluated at {m}")

    for owner, name in (
        (Evaluator, "functional"),
        (Evaluator, "is_nonzero"),
        (TwistedEvaluator, "restricted_values"),
        (TwistedEvaluator, "is_nonzero"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert support_lattice(_OVER_BUDGET).index == 1
    assert support_lattice(_OPEN_COSETS).index == 1
    t = TwistedSpec(
        base=spec(A2, (2,), {(1,): (1, 0), (2,): (2, 0)}, [(Fraction(1, 2), -3)]),
        aut=A2_FLIP,
    )
    sup = twisted_support(t)
    assert sup.certificate == "descartes" and sup.index == 1


@pytest.mark.parametrize("primes", [[2, 3], [3, 5], [2, 3, 5], [3, 5, 7]])
def test_in_semigroup_matches_brute_force(primes):
    # w ∈ ℕp₁ + … + ℕp_r by dynamic programming over w < 80, which reaches
    # below Sylvester's bound for every prime set here.
    reach = [True] + [False] * 79
    for w in range(1, 80):
        reach[w] = any(w >= p and reach[w - p] for p in primes)
    assert [psi._in_semigroup(w, primes) for w in range(80)] == reach


def _opposite_pair(rng):
    # (x, −y) with |x| ≠ |y|: on the odd coset the two torsion classes have
    # class sums of opposite signs on one line, which the ladder leaves open.
    x, y = rng.sample((Fraction(1, 2), 1, 2, 3), 2)
    return (x, -y)


def _forced_spec(rng, n):
    dims = (2,) + (1,) * (n - 1)
    weights = {I: (rng.randint(1, 3),) for I in psi.table_indices(dims)}
    others = [(rng.choice((1, -1, 2, Fraction(1, 2), (1, 4, 12))),) for _ in range(n - 1)]
    return spec(A1, dims, weights, [_opposite_pair(rng)] + others)


def _forced_twisted_spec(rng):
    # Non-symmetric A₂ weights, so the m₁ odd term table is not empty.
    s = spec(A2, (2,), {(1,): (1, 0), (2,): (rng.randint(1, 2), 0)}, [_opposite_pair(rng)])
    return TwistedSpec(base=s, aut=A2_FLIP)


def _ladder_input(rng, kind, twisted_algebras=((A2, A2_FLIP), (D4, D4_TRIALITY))):
    # (spec, evaluator, period bounds) of one draw of the given kind.
    if kind in ("random", "forced"):
        s = random_spec(rng) if kind == "random" else _forced_spec(rng, rng.randint(1, 3))
        return s, Evaluator(s), s.dims
    if kind == "twisted":
        algebra, aut = rng.choice(twisted_algebras)
        t = random_twisted_spec(rng, algebra, aut)
    else:
        t = _forced_twisted_spec(rng)
    s = t.base
    return s, TwistedEvaluator(t), (t.order * s.dims[0],) + s.dims[1:]


@given(st.integers(0, 2 ** 32), st.sampled_from(("random", "forced", "twisted", "twisted-forced")))
@settings(max_examples=150, deadline=None)
def test_certificate_membership_matches_evaluation(seed, kind):
    # Membership by coset lookup, the open cosets decided from their integer
    # class sums, against direct evaluation of the functional on a cube.
    s, ev, bounds = _ladder_input(random.Random(seed), kind)
    cert = psi._certify(ev, bounds)
    if kind == "forced":
        assert cert.label == ("audit" if s.n > 1 else "descartes"), cert.label
    if kind == "twisted-forced":
        assert cert.label == "descartes", cert.label
    for m in box_scan_order(s.n, 3 if s.n <= 2 else 2):
        assert cert.member(m) == ev.is_nonzero(m), (cert.label, m)


@given(st.integers(0, 2 ** 32), st.sampled_from(("random", "forced", "twisted", "twisted-forced")))
@settings(max_examples=150, deadline=None)
def test_every_axis_period_is_within_its_bound(seed, kind):
    # Untwisted, the bound is Nᵢ and v(t·eᵢ) = Σⱼ aᵢⱼᵗ·Λⱼ, Λⱼ the weight sum
    # of slice j: the aᵢⱼ are distinct and nonzero, so by the Vandermonde
    # determinant v(t·eᵢ) = 0 for t = 1…Nᵢ forces every Λⱼ = 0.  Twisted, the
    # bound k·N₁ works the same way through the orbit sums, since image
    # equality keeps the aⱼᵏ distinct.  So a nontrivial spec reaches a
    # period within its bounds, by direct evaluation and by the certificate.
    s, ev, bounds = _ladder_input(random.Random(seed), kind)
    cert = psi._certify(ev, bounds)
    for i, b in enumerate(bounds):
        axis = [tuple(t if j == i else 0 for j in range(s.n)) for t in range(1, b + 1)]
        assert any(map(ev.is_nonzero, axis)), (kind, i + 1)
        assert any(map(cert.member, axis)), (kind, i + 1)


def test_a_bound_below_the_period_raises():
    # v(t) = 1 + (−1)^t vanishes at t = 1, so the period 2 lies past the
    # bound 1 that a caller of the public search may give.
    s = _two_point((1,), (1,), 1, -1)
    assert support_lattice(s).periods == (2,)
    with pytest.raises(NoPeriodWithinBoundError) as info:
        nonvanishing_support(Evaluator(s), (1,))
    assert info.value.data == {"axis": 1, "bound": 1}


def _at_order(rng, s, order):
    # ``s`` with its evaluation points moved to order ``order``: each keeps its
    # rational part and takes a phase from a random subgroup of the roots of
    # unity, so that some class sums cancel; a point equal to an earlier one
    # of its axis is doubled until it is not.
    d = rng.choice([d for d in (1, 2, 3, 4, 6, 12, order) if order % d == 0])
    evals = []
    for axis in s.evals:
        row = []
        for a in axis:
            b = CycScalar(a.q, rng.randrange(d) * (order // d), order)
            while b in row:
                b = CycScalar(2 * b.q, b.e, order)
            row.append(b)
        evals.append(tuple(row))
    return PsiSpec(s.algebra, s.n, s.dims, dict(s.weights), tuple(evals), s.rho)


@pytest.mark.parametrize("order", (1, 2, 3, 12, 60, 210, 1024, 2003, 2310))
@given(st.integers(0, 2 ** 32), st.sampled_from(("random", "forced", "twisted", "twisted-forced")))
@settings(max_examples=8, deadline=None)
def test_sparse_class_sums_match_the_dense_oracle(order, seed, kind):
    # The sparse class sums are the nonzero entries of the dense ones, and
    # the coset verdicts and open-coset columns read from them are the same.
    # A twisted spec's order is raised to a multiple of k.
    rng = random.Random(seed)
    s, ev, _ = _ladder_input(rng, kind, twisted_algebras=((A2, A2_FLIP),))
    s = _at_order(rng, s, order)
    if kind.startswith("twisted"):
        ev = TwistedEvaluator(TwistedSpec(base=s, aut=ev.spec.aut))
    else:
        ev = Evaluator(s)
    form = psi._CosetSums(ev)
    for r in {tuple(rng.randrange(M) for M in form.moduli) for _ in range(3)}:
        dense = dense_coset_sums(form, r)
        assert form.sums(r) == [(K, {k: x for k, x in enumerate(u) if x}) for K, u in dense]
        assert psi._coset_status(form, r) == dense_coset_status(form, r)


def test_coset_status_tests_the_rank_with_as_many_columns_as_class_sums():
    # A₁, weight 3 throughout, axis 1 at (ζ₃, −2ζ₃, −ζ₃²) and axis 2 at
    # −3ζ₃: the coset (5, 0) has two class sums with the columns (−3, 3) and
    # (−6, 3), as many as the sums, each of mixed sign.  They are
    # independent, so no positive combination vanishes and the coset is
    # inside; only the rank test run at equal counts says so.
    s = spec(A1, (3, 1), {(1, 1): (3,), (2, 1): (3,), (3, 1): (3,)},
             [((1, 1, 3), (-2, 1, 3), (-1, 2, 3)), ((-3, 1, 3),)])
    ev = Evaluator(s)
    form = psi._CosetSums(ev)
    assert form.sums((5, 0)) == [(0, {0: -3, 1: -6}), (1, {0: 3, 1: 3})]
    assert psi._coset_status(form, (5, 0)) is True
    assert dense_coset_status(form, (5, 0)) is True
    assert ev.is_nonzero((5, 0))


# The wide-field descartes spec at L = 2003 (A₂, dims [3], rational points),
# and the same points times ζ^{−1}: a common phase keeps the ladder's cosets,
# and the class sums of the odd coset then read ζ^{2002}, past φ(2003).
_DESCARTES_2003 = [
    (-1, Fraction(1, 2), -2),
    ((-1, 2002, 2003), (Fraction(1, 2), 2002, 2003), (-2, 2002, 2003)),
]


@pytest.mark.parametrize("evals", _DESCARTES_2003, ids=["rational", "common-phase"])
def test_support_reduces_each_power_of_zeta_once(monkeypatch, evals):
    s = spec(A2, (3,), {(1,): (1, 3), (2,): (1, 3), (3,): (1, 3)}, [evals], rho=[0])
    s = s.with_field_order(2003)
    reduced = Counter()
    reduce = cyclotomic._reduce

    def counting(order, poly):
        reduced[order, len(poly) - 1] += 1
        return reduce(order, poly)

    cyclotomic.zeta_terms.cache_clear()
    monkeypatch.setattr(cyclotomic, "_reduce", counting)
    first = support_lattice(s)
    assert first.certificate == "descartes"
    assert all(order == 2003 and m >= 2002 for order, m in reduced)
    assert max(reduced.values(), default=0) <= 1
    if evals[0] != -1:
        assert reduced == {(2003, 2002): 1}
    reduced.clear()
    assert support_lattice(s) == first
    assert not reduced


def _generated(cert, n, bounds):
    # The lattice ``nonvanishing_support`` builds from the certificate, with
    # its cube radii, or None when an axis has no period within its bound.
    periods = []
    for i, b in enumerate(bounds):
        axis = [tuple(t if j == i else 0 for j in range(n)) for t in range(1, b + 1)]
        m = next(filter(cert.member, axis), None)
        if m is None:
            return None
        periods.append(m[i])
    gens = [m for m in itertools.product(*(range(r) for r in periods)) if cert.member(m)]
    gens += [tuple(r if j == i else 0 for j in range(n)) for i, r in enumerate(periods)]
    radii = [max(6, 2 * max(r, b)) for r, b in zip(periods, bounds)]
    return from_generators(gens, n=n), radii


def _perturbed(lat, cert, how, rng):
    # A super-lattice (one extra short generator), a sub-lattice (one row
    # scaled, so D may leave it), or a sub-lattice kept over D.
    rows = [list(r) for r in lat.rows]
    n = len(rows[0])
    if how == "super":
        return from_generators(rows + [[rng.randint(-2, 2) for _ in range(n)]], n=n)
    drop = rng.randrange(len(rows))
    if how == "sub":
        rows[drop] = [rng.choice((2, 3)) * x for x in rows[drop]]
        return from_generators(rows, n=n)
    return from_generators(cert.gens + rows[:drop] + rows[drop + 1:], n=n)


@given(
    st.integers(0, 2 ** 32),
    st.sampled_from(("random", "forced", "twisted", "twisted-forced")),
    st.sampled_from(("true", "super", "sub", "sub-over-D")),
)
@example(6, "random", "sub-over-D")
@example(27, "random", "sub")
@settings(max_examples=200, deadline=None)
def test_coset_search_finds_the_cube_scans_witness(seed, kind, how):
    # The coset-wise search against a plain scan of the cube in product order,
    # for the generated lattice and for lattices around it, so that
    # mismatches fall in settled and in open cosets, and D ⊄ lat occurs.  In
    # the two examples an open coset mismatches before a settled one does.
    rng = random.Random(seed)
    s, ev, bounds = _ladder_input(rng, kind, twisted_algebras=((A2, A2_FLIP),))
    cert = psi._certify(ev, bounds)
    generated = _generated(cert, s.n, bounds)
    assume(generated is not None)
    lat, radii = generated
    if how != "true":
        lat = _perturbed(lat, cert, how, rng)
    cube = itertools.product(*(range(-a, a + 1) for a in radii))
    expected = next((m for m in cube if lat.contains(m) != cert.member(m)), None)
    assert psi._first_mismatch(lat, cert, radii) == expected, (cert.label, how)


@pytest.mark.parametrize("how", ("sub", "sub-over-D"))
def test_coset_walk_runs_the_prefix_of_the_least_mismatch(how):
    # Seed 323 gives D = 4Z ⊕ 6Z on the audit rung.  The coset visited first
    # mismatches at (−6, 0), and a later one at (−6, −5), on the same prefix
    # m₁ = −6: a walk bounded by the least mismatch so far must still run
    # the prefix of that mismatch.
    rng = random.Random(323)
    s, ev, bounds = _ladder_input(rng, "random", twisted_algebras=((A2, A2_FLIP),))
    cert = psi._certify(ev, bounds)
    lat, radii = _generated(cert, s.n, bounds)
    lat = _perturbed(lat, cert, how, rng)
    assert (cert.label, cert.moduli, radii) == ("audit", (4, 6), [6, 6])
    cube = itertools.product(*(range(-a, a + 1) for a in radii))
    assert next(m for m in cube if lat.contains(m) != cert.member(m)) == (-6, -5)
    assert psi._first_mismatch(lat, cert, radii) == (-6, -5)


@given(
    st.integers(0, 2 ** 32),
    st.sampled_from(("random", "forced", "twisted", "twisted-forced")),
    st.sampled_from(("true", "super", "sub", "sub-over-D")),
)
@example(6, "random", "sub-over-D")
@example(27, "random", "sub")
@settings(max_examples=100, deadline=None)
def test_coset_search_tests_each_cube_degree_once(seed, kind, how):
    # The inputs of the test above.  Apart from the generators of D, every
    # lattice test and every degree the coset walk evaluates is a cube
    # degree, and neither tests a degree twice: the search costs at most one
    # pass over the cube.  A walk evaluates the whole last axis of each
    # prefix it yields, and a lookup through ``nonzero`` walks one degree.
    rng = random.Random(seed)
    s, ev, bounds = _ladder_input(rng, kind, twisted_algebras=((A2, A2_FLIP),))
    cert = psi._certify(ev, bounds)
    generated = _generated(cert, s.n, bounds)
    assume(generated is not None)
    lat, radii = generated
    if how != "true":
        lat = _perturbed(lat, cert, how, rng)
    calls = {"contains": Counter(), "walked": Counter()}
    contains, scan = Lattice.contains, psi._CosetSums.scan

    def counting_contains(self, m):
        calls["contains"][tuple(m)] += 1
        return contains(self, m)

    def counting_scan(self, coset, ranges, bound=None):
        for head, flags in scan(self, coset, ranges, bound):
            assert len(flags) == len(ranges[-1])
            for x in ranges[-1]:
                calls["walked"][head + (x,)] += 1
            yield head, flags

    with mock.patch.object(Lattice, "contains", counting_contains), \
            mock.patch.object(psi._CosetSums, "scan", counting_scan):
        psi._first_mismatch(lat, cert, radii)
    calls["contains"] -= Counter(cert.gens)
    for name, tested in calls.items():
        for m, times in tested.items():
            assert all(abs(x) <= a for x, a in zip(m, radii)) and times == 1, (name, m, times)


def test_audit_tests_the_lattice_once_per_coset(monkeypatch):
    # n = 3 on the audit rung: the cube has 13³ degrees, but ``Lattice.contains``
    # is called once per generator of D and once per coset.
    calls = Counter()
    contains = Lattice.contains

    def counting(self, m):
        calls["contains"] += 1
        return contains(self, m)

    monkeypatch.setattr(Lattice, "contains", counting)
    rng = random.Random(5)
    s = _forced_spec(rng, 3)
    cert = psi._certify(Evaluator(s), s.dims)
    assert cert.label == "audit"
    calls.clear()
    sup = support_lattice(s)
    assert sup.certificate == "audit"
    assert 0 < calls["contains"] <= len(cert.checks) < 13 ** 3 // 10, calls
