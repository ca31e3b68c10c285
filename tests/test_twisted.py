import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    off_support_shift,
    same_subgroup,
    sublattice_of,
    random_spec,
    transformed_spec,
    A2,
    A2_FLIP,
    D4,
    D4_TRIALITY,
    random_twisted_spec,
    sc,
    spec,
)
from loopmod.cli import main
from loopmod.classify import axis_candidates, classify, decide_iso, find_witness, tau_image
from loopmod.cyclotomic import CycScalar
from loopmod.errors import EngineError, ImageMismatchError, SupportNotSubgroupError
from loopmod.lattice import Lattice
from loopmod.liealg import apply_aut, build_aut, node_orbits, restrict_weight
from loopmod.psi import PsiSpec, support_lattice, table_indices
from loopmod.twisted import (
    TwistedSpec,
    check_complete_reducibility,
    classify_type,
    decide_twisted_iso,
    image_equality,
    marginal_spec,
    twisted_classify,
    twisted_support,
)


def tsp(weights, evals, dims=None, rho=None, aut=A2_FLIP, algebra=A2):
    dims = dims or (len(evals[0]),)
    return TwistedSpec(
        base=spec(algebra, dims, weights, evals, rho=rho), aut=aut
    )


def test_image_equality():
    assert image_equality(tsp({(1,): (1, 0), (2,): (2, 1)}, [(1, 2)]))
    assert not image_equality(tsp({(1,): (1, 0), (2,): (2, 1)}, [(1, -1)]))
    assert image_equality(tsp({(1,): (1, 0)}, [(5,)]))


def test_classify_type():
    assert classify_type(tsp({(1,): (2, 2)}, [(1,)])) == "second"
    assert classify_type(tsp({(1,): (1, 0)}, [(1,)])) == "first"
    sym = {(1,): (1, 0, 1, 1)}  # fixed by the triality orbit (1,3,4)
    t = TwistedSpec(
        base=spec(D4, (1,), sym, [(1,)]), aut=D4_TRIALITY
    )
    assert classify_type(t) == "second"


def test_twisted_support_second_type():
    t = tsp({(1,): (1, 1)}, [(1,)])
    sup = twisted_support(t)
    assert sup.lattice.rows == ((2,),)
    assert sup.periods == (2,)


def test_twisted_support_first_type():
    t = tsp({(1,): (1, 0)}, [(1,)])
    sup = twisted_support(t)
    assert sup.lattice.rows == ((1,),)


def test_twisted_support_identity_aut_equals_support():
    ident = build_aut(A2, (0, 1))
    base = spec(A2, (2,), {(1,): (1, 0), (2,): (1, 1)}, [(1, 2)])
    t = TwistedSpec(base=base, aut=ident)
    assert same_subgroup(twisted_support(t).lattice, support_lattice(base).lattice)


def _perturbed(rng: random.Random, s: PsiSpec) -> PsiSpec:
    """``s`` with its grading shift, one weight or one scalar changed."""
    rho, weights, evals = list(s.rho), dict(s.weights), [list(a) for a in s.evals]
    axis = rng.randrange(s.n)
    kind = rng.choice(("half-shift", "unit-shift", "weight", "scalar"))
    if kind == "half-shift":
        rho[axis] += Fraction(1, 2)
    elif kind == "unit-shift":
        rho[axis] += 1
    elif kind == "weight":
        I = rng.choice(sorted(weights))
        weights[I] = (weights[I][0] + 1,) + weights[I][1:]
    else:
        evals[axis][rng.randrange(s.dims[axis])] *= CycScalar(Fraction(5), 0, s.field_order)
    return PsiSpec(
        algebra=s.algebra, n=s.n, dims=s.dims, weights=weights,
        evals=tuple(tuple(a) for a in evals), rho=tuple(rho),
    )


def test_identity_twist_iso_equals_untwisted_iso():
    # Under the identity automorphism the twisted search must find the same
    # witness, or fail on the same clause, as the untwisted one it shares.
    # Each draw is paired with a witnessed transform, a perturbation of that
    # and the previous draw.
    rng = random.Random(5)

    def both(s):
        ident = build_aut(s.algebra, range(s.algebra.rank))
        try:
            return classify(s), twisted_classify(TwistedSpec(base=s, aut=ident))
        except EngineError:
            return None

    reasons = set()
    compared = 0
    previous = None
    for _ in range(60):
        s = random_spec(rng)
        d = both(s)
        if d is None:
            continue
        witnessed, _, _ = transformed_spec(rng, d[0].spec, shift_support=d[0].support)
        for other in (both(witnessed), both(_perturbed(rng, witnessed)), previous):
            if other is None:
                continue
            untwisted = decide_iso(d[0], other[0])
            twisted = decide_twisted_iso(d[1], other[1])
            compared += 1
            reasons.add(untwisted.reason)
            assert (twisted.isomorphic, twisted.reason) == (untwisted.isomorphic, untwisted.reason)
            if untwisted:
                a, b = untwisted.witness, twisted.witness
                assert (b.taus, b.scalings, b.shift) == (a.taus, a.scalings, a.shift)
        previous = d
    assert compared >= 140
    assert {None, "dimension-mismatch", "no-scaling-permutation", "weight-mismatch",
            "grading-shift"} <= reasons


def test_twisted_classify_frozen():
    d = twisted_classify(tsp({(1,): (1, 1)}, [(1,)]))
    assert (d.module_type, d.m_hat_n, d.exponent) == ("second", 2, 1)
    d2 = twisted_classify(tsp({(1,): (1, 0)}, [(1,)]))
    assert (d2.module_type, d2.m_hat_n, d2.exponent) == ("first", 1, 1)
    # n = 2: axes-2 support 2Z, second type, m̂ = 2, k = 2 → q = 2
    d3 = twisted_classify(
        tsp(
            {(1, 1): (1, 1), (1, 2): (1, 1)},
            [(1,), (1, -1)],
            dims=(1, 2),
        )
    )
    assert (d3.module_type, d3.m_hat_n, d3.marginal_index, d3.exponent) == (
        "second",
        2,
        2,
        2,
    )


def test_twisted_classify_image_mismatch():
    with pytest.raises(ImageMismatchError):
        twisted_classify(tsp({(1,): (1, 0), (2,): (1, 1)}, [(1, -1)]))


def _triality_classify(tmp_path, capsys, dims, weights, evals):
    # ``loopmod twisted-classify`` on D₄ with the triality σ = (1 3 4):
    # its exit code and report.
    doc = {
        "schema": 1,
        "algebra": {"series": "D", "rank": 4},
        "n": 1,
        "dims": dims,
        "weights": [{"index": [j + 1], "coords": w} for j, w in enumerate(weights)],
        "evals": [evals],
        "rho": [0],
        "aut": {"perm": [3, 2, 4, 1]},
    }
    path = tmp_path / "triality.json"
    path.write_text(json.dumps(doc))
    code = main(["twisted-classify", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_twisted_classify_refuses_a_class_size_the_exponent_does_not_divide(tmp_path, capsys):
    # a = (−ζ₆, −1, 3ζ₆²): second type with m̂ = 6 and exponent 2, but the
    # zero weight is a class of size 1, so no (⊗ V(λ)^{size/2})^⊗2 statement
    # exists: exit 3, as ``classify`` does for a size its index p does not
    # divide.
    minus_zeta6 = {"num": -1, "zeta_pow": 1, "zeta_order": 6}
    three_zeta3 = {"num": 3, "zeta_pow": 2, "zeta_order": 6}
    code, report = _triality_classify(
        tmp_path, capsys, [3], [[0, 2, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]],
        [minus_zeta6, -1, three_zeta3],
    )
    assert code == 3
    [diagnostic] = report["diagnostics"]
    assert diagnostic["type"] == "StructureViolationError"
    assert diagnostic["message"] == "weight class size is not a multiple of the exponent"
    assert diagnostic["data"] == {"weight": [0, 0, 0, 0], "size": 1, "exponent": 2}
    assert "result" not in report


def test_twisted_classify_refuses_first_type_data_with_m_hat_above_one(tmp_path, capsys):
    # λ = (0,2,0,2) is not σ-fixed (first type), and a = (1, −1) makes
    # Γ^μ = 2Z, so m̂ = 2 where first-type data needs m̂ = 1.
    code, report = _triality_classify(tmp_path, capsys, [2], [[0, 2, 0, 2]] * 2, [1, -1])
    assert code == 3
    [diagnostic] = report["diagnostics"]
    assert diagnostic["type"] == "StructureViolationError"
    assert diagnostic["data"] == {"m_hat": 2}


def test_marginal_spec():
    base = spec(
        A2,
        (2, 2),
        {
            (1, 1): (1, 0),
            (1, 2): (0, 1),
            (2, 1): (1, 1),
            (2, 2): (0, 0),
        },
        [(1, 2), (1, -1)],
    )
    marg = marginal_spec(base)
    assert marg.n == 1
    assert marg.dims == (2,)
    assert marg.weights[(1,)] == (2, 1)
    assert marg.weights[(2,)] == (0, 1)


def test_derived_specs_are_not_rechecked(monkeypatch):
    # Lifting to another field and summing out axis 1 keep a checked spec
    # valid, so neither runs the checks again; each equals the checked spec
    # built from the same data.
    base = spec(A2, (2, 2), {I: (1, 0) for I in table_indices((2, 2))}, [(1, 2), (1, -1)])
    check = PsiSpec.__post_init__
    checked = []
    monkeypatch.setattr(PsiSpec, "__post_init__", lambda s: checked.append(s) or check(s))
    derived = [base.with_field_order(6), marginal_spec(base), TwistedSpec(base=base, aut=A2_FLIP).base]
    assert checked == []
    for d in derived:
        fields = {f: getattr(d, f) for f in ("algebra", "n", "dims", "weights", "evals", "rho")}
        assert PsiSpec(**fields) == d
    assert len(checked) == len(derived)


def test_check_complete_reducibility_monotone_in_support():
    # Enlarging the weight data so the support becomes everything flips the
    # verdict from (False, None) to (True, "full-image").
    narrow = tsp({(1,): (1, 1), (2,): (1, 1)}, [(1, -1)])
    assert check_complete_reducibility(narrow) == (False, None)
    widened = tsp({(1,): (1, 1), (2,): (2, 2)}, [(1, -1)])
    assert check_complete_reducibility(widened) == (True, "full-image")


def test_check_complete_reducibility():
    assert check_complete_reducibility(
        tsp({(1,): (1, 0), (2,): (2, 1)}, [(1, 2)])
    ) == (True, "image-equality")
    assert check_complete_reducibility(
        tsp({(1,): (1, 0), (2,): (2, 1)}, [(1, -1)])
    ) == (True, "full-image")
    assert check_complete_reducibility(
        tsp({(1,): (1, 1), (2,): (1, 1)}, [(1, -1)])
    ) == (False, None)


def test_twisted_iso_first_type_sign_twist():
    # b = −a with ξ⁰ = λ⁰ and ξ¹ = −λ¹ (i.e. ξ = μλ is not needed here:
    # the data below realizes ε = −1 with ℘ = 1).
    d1 = twisted_classify(tsp({(1,): (1, 0)}, [(1,)]))
    d2 = twisted_classify(tsp({(1,): (0, 1)}, [(-1,)]))
    res = decide_twisted_iso(d1, d2)
    assert res
    eps = res.witness.epsilons[0]
    assert eps.q == -1
    # consistency of the recorded factorization b = ε·℘·a
    wp = res.witness.scalings[0]
    assert eps * wp * sc(1).with_order(eps.order) == sc(-1).with_order(eps.order)


def test_twisted_iso_gauge_pair():
    # Same evaluation point, weight replaced by its diagram image: isomorphic
    # through the nontrivial square root of the power-level scaling.
    d1 = twisted_classify(tsp({(1,): (1, 0)}, [(1,)]))
    d2 = twisted_classify(tsp({(1,): (0, 1)}, [(1,)]))
    assert decide_twisted_iso(d1, d2)


def test_twisted_iso_type_mismatch():
    d1 = twisted_classify(tsp({(1,): (1, 0)}, [(1,)]))
    d2 = twisted_classify(tsp({(1,): (1, 1)}, [(1,)]))
    res = decide_twisted_iso(d1, d2)
    assert res.reason == "type-mismatch"


def test_twisted_iso_second_type_shift():
    d1 = twisted_classify(tsp({(1,): (1, 1)}, [(1,)]))
    d2 = twisted_classify(tsp({(1,): (1, 1)}, [(1,)], rho=(2,)))
    assert decide_twisted_iso(d1, d2).witness.shift == (2,)
    d3 = twisted_classify(tsp({(1,): (1, 1)}, [(1,)], rho=(1,)))
    assert decide_twisted_iso(d1, d3).reason == "grading-shift"


def test_twisted_iso_weight_mismatch():
    d1 = twisted_classify(tsp({(1,): (1, 0)}, [(1,)]))
    d2 = twisted_classify(tsp({(1,): (2, 0)}, [(1,)]))
    assert decide_twisted_iso(d1, d2).reason == "weight-mismatch"


def test_twisted_iso_refuses_a_tau_that_is_no_permutation(tmp_path, capsys):
    # b₂ = −b₁, so the right spec's squares collide and b₁, b₂ both name
    # a₁ = 1 (ε = 1, −1) with matching weights: τ = (1, 1) is no witness.
    left = tsp({(1,): (1, 0), (2,): (2, 1)}, [(1, 2)])
    right = tsp({(1,): (1, 0), (2,): (0, 1)}, [(1, -1)])
    res = decide_twisted_iso(twisted_classify(left), right)
    assert res.reason == "no-scaling-permutation"
    with pytest.raises(ImageMismatchError):
        twisted_classify(right)
    paths = []
    for name, second, evals in (("left", [2, 1], [1, 2]), ("right", [0, 1], [1, -1])):
        doc = {
            "schema": 1,
            "algebra": {"series": "A", "rank": 2},
            "n": 1,
            "dims": [2],
            "weights": [{"index": [1], "coords": [1, 0]}, {"index": [2], "coords": second}],
            "evals": [evals],
            "rho": [0],
            "aut": {"perm": [2, 1], "order": 2},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    assert main(["twisted-iso", *paths]) == 3
    report = json.loads(capsys.readouterr().out)
    assert [d["type"] for d in report["diagnostics"]] == ["ImageMismatchError"]
    assert "result" not in report


def _witnessed_transform(rng, t: TwistedSpec) -> TwistedSpec:
    """A copy of ``t`` that a twisted witness relates to it: ``transformed_spec``
    on the base (axes permuted and scaled, over a field holding ζ₁₂), then
    axis-1 index j scaled by ε_j = ζ_k^{c_j} with σ^{c_j} applied to every
    weight of that index, for a random c_j per index."""
    k = t.order
    base, _, _ = transformed_spec(rng, t.base)
    eps = CycScalar.zeta(base.field_order, base.field_order // k)
    powers = [rng.randrange(k) for _ in range(base.dims[0])]
    weights = {}
    for I, w in base.weights.items():
        for _ in range(powers[I[0] - 1]):
            w = apply_aut(t.aut, w)
        weights[I] = w
    axis1 = tuple(eps ** c * b for c, b in zip(powers, base.evals[0]))
    return TwistedSpec(
        base=PsiSpec(
            algebra=base.algebra,
            n=base.n,
            dims=base.dims,
            weights=weights,
            evals=(axis1,) + base.evals[1:],
            rho=base.rho,
        ),
        aut=t.aut,
    )


def _folded(rng, t: TwistedSpec) -> TwistedSpec:
    """A right spec with axis-1 entries ω^{u_j}·a_{π(j)} and weights
    σ^{u_j}(λ_{π(j),…}), for distinct pairs (π(j), u_j) drawn at random.
    When π is not injective the entries' k-th powers collide."""
    base, k = t.base, t.order
    order = base.field_order
    root = CycScalar.zeta(order, order // k)
    pairs = rng.sample([(j, u) for j in range(base.dims[0]) for u in range(k)], base.dims[0])
    weights = {}
    for I in table_indices(base.dims):
        j, u = pairs[I[0] - 1]
        w = base.weights[(j + 1,) + I[1:]]
        for _ in range(u):
            w = apply_aut(t.aut, w)
        weights[I] = w
    axis1 = tuple(root ** u * base.evals[0][j] for j, u in pairs)
    return TwistedSpec(
        base=PsiSpec(
            algebra=base.algebra,
            n=base.n,
            dims=base.dims,
            weights=weights,
            evals=(axis1,) + base.evals[1:],
            rho=base.rho,
        ),
        aut=t.aut,
    )


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_twisted_witnesses_have_permutation_taus(seed, k, folded):
    # Right specs whose axis-1 k-th powers collide have no witness: b_j^k =
    # 𝔰^k·a_{τ(j)}^k would make them distinct.  The witnessed transforms
    # keep the property from holding vacuously.
    rng = random.Random(seed)
    algebra, aut = (A2, A2_FLIP) if k == 2 else (D4, D4_TRIALITY)
    while True:
        t = random_twisted_spec(rng, algebra, aut)
        try:
            d = twisted_classify(t)
            break
        except EngineError:
            continue
    other = _folded(rng, t) if folded else _witnessed_transform(rng, t)
    res = decide_twisted_iso(d, other)
    powers = {b ** k for b in other.base.evals[0]}
    assert not (res and len(powers) < other.base.dims[0])
    for tau in res.witness.taus if res else ():
        assert sorted(tau) == list(range(len(tau)))


def _brute_axis1(k, a_values, b_values):
    """Every (℘₁, τ₁, ε) with b_j = ε_j·℘₁·a_{τ₁(j)}, ε₁ = 1 and ε_j^k = 1,
    over all permutations τ₁ in lexicographic order."""
    out = []
    for tau in itertools.permutations(range(len(a_values))):
        wp = b_values[0] / a_values[tau[0]]
        eps = tuple(b / (wp * a_values[j]) for b, j in zip(b_values, tau))
        if all((e ** k).is_one for e in eps):
            out.append((wp, tau, eps))
    return out


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)), st.booleans())
@settings(max_examples=150, deadline=None)
def test_axis1_candidates_match_brute_force(seed, k, related):
    rng = random.Random(seed)
    algebra, aut = (A2, A2_FLIP) if k == 2 else (D4, D4_TRIALITY)
    t1 = random_twisted_spec(rng, algebra, aut)
    t2 = random_twisted_spec(rng, algebra, aut)
    while t2.base.dims[0] != t1.base.dims[0]:
        t2 = random_twisted_spec(rng, algebra, aut)
    a_values, b_values = t1.base.evals[0], t2.base.evals[0]
    order = t1.base.field_order
    root = CycScalar.zeta(order, order // k)
    if related:
        # b_j = ε_j·℘·a_{π(j)}, so at least one candidate exists.
        wp = rng.choice(a_values) / rng.choice(a_values)
        perm = rng.sample(range(len(a_values)), len(a_values))
        b_values = tuple(root ** rng.randrange(k) * wp * a_values[j] for j in perm)
    expected = _brute_axis1(k, a_values, b_values)
    roots = [root ** u for u in range(k)]
    candidates = axis_candidates(a_values, b_values, tuple(roots[1:]))
    assert [(wp, tau, tuple(roots[u] for u in us)) for wp, tau, us in candidates] == expected
    assert expected or not related


def _reference_gauge(aut, s1, s2, taus, eps_list):
    """The least gauge g under the restricted-weight comparison, or None:
    equal 𝔥₀ components, and components on the m₁ ≡ j eigenbasis equal up
    to ε^{−j}, with ε the index's axis-1 root of unity times ω^g."""
    k, order = aut.order, s1.field_order
    omega = CycScalar.zeta(order, order // k)
    r1 = {I: restrict_weight(aut, w, order) for I, w in s1.weights.items()}
    r2 = {I: restrict_weight(aut, w, order) for I, w in s2.weights.items()}
    for g in range(k):
        def matches(I):
            J = tau_image(taus, I)
            eps = eps_list[I[0] - 1] * omega ** g
            return r2[I].comp0 == r1[J].comp0 and all(
                v2 == v1.scale(eps ** (-j))
                for j in range(1, k)
                for v2, v1 in zip(r2[I].higher[j - 1], r1[J].higher[j - 1])
            )
        if all(matches(I) for I in s2.weights):
            return g
    return None


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)),
       st.sampled_from(("any", "fixed", "perturbed")))
@settings(max_examples=150, deadline=None)
def test_rotated_weights_match_restricted_weights(seed, k, kind):
    # ξ_I = σ^{u_I+g}(λ_{τ(I)}) for some gauge g iff the restricted
    # components agree up to ε^{−j}: on each σ-orbit they are the discrete
    # Fourier coefficients of the weight's values.  Axis scalars of distinct
    # prime size leave one candidate, so the search decides on its weights.
    rng = random.Random(seed)
    algebra, aut = (A2, A2_FLIP) if k == 2 else (D4, D4_TRIALITY)
    order = 12
    omega = CycScalar.zeta(order, order // k)
    n = rng.choice((1, 2))
    dims = (rng.randint(1, 3), rng.randint(1, 2))[:n]
    primes = ((2, 3, 5), (7, 11))
    evals1 = tuple(
        tuple(CycScalar(p, rng.randrange(order), order) for p in primes[i][:d])
        for i, d in enumerate(dims)
    )
    taus = tuple(tuple(rng.sample(range(d), d)) for d in dims)
    u = [rng.randrange(k) for _ in range(dims[0])]
    g = rng.randrange(k)
    wp = CycScalar(rng.choice((1, -1, 2, Fraction(1, 3))), rng.randrange(order), order)
    evals2 = (tuple(omega ** u[j] * wp * evals1[0][taus[0][j]] for j in range(dims[0])),)
    evals2 += tuple(tuple(evals1[i][t] for t in taus[i]) for i in range(1, n))

    def rotate(w, times):
        for _ in range(times % k):
            w = apply_aut(aut, w)
        return w

    orbits = node_orbits(aut)
    indices = table_indices(dims)
    lam = {}
    for J in indices:
        if kind == "fixed":
            w = [0] * algebra.rank
            for orbit in orbits:
                val = rng.randint(0, 2)
                for node in orbit:
                    w[node] = val
            lam[J] = tuple(w)
        else:
            lam[J] = tuple(rng.randint(0, 2) for _ in range(algebra.rank))
    xi = {I: rotate(lam[tau_image(taus, I)], u[I[0] - 1] + g) for I in indices}
    if kind == "perturbed":
        I = rng.choice(indices)
        if rng.random() < 0.5:
            xi[I] = rotate(xi[I], 1)
        else:
            c = rng.randrange(algebra.rank)
            xi[I] = tuple(x + (i == c) for i, x in enumerate(xi[I]))
    zero = (Fraction(0),) * n
    s1 = PsiSpec(algebra=algebra, n=n, dims=dims, weights=lam, evals=evals1, rho=zero)
    s2 = PsiSpec(algebra=algebra, n=n, dims=dims, weights=xi, evals=evals2, rho=zero)

    res = find_witness(s1, s2, Lattice.from_generators([[int(i == j) for j in range(n)] for i in range(n)]), aut=aut)
    first = evals2[0][0] / evals1[0][taus[0][0]]
    eps_list = [b / (first * evals1[0][t]) for b, t in zip(evals2[0], taus[0])]
    ref = _reference_gauge(aut, s1, s2, taus, eps_list)
    if ref is None:
        assert res.reason == "weight-mismatch"
    else:
        assert res, res.reason
        assert res.witness.taus == taus
        assert res.witness.scalings[0] == first / omega ** ref
        assert res.witness.epsilons == tuple(e * omega ** ref for e in eps_list)
    assert ref is not None or kind == "perturbed"


def test_twisted_iso_pins_a_witness_found_at_a_nonzero_gauge():
    # Two axis-1 indices with different roots of unity, and tables that
    # match only at gauge g ≠ 0: the recorded (℘, ε) absorb ω^g.
    lam = (1, 0, 0, 0)
    rot2 = apply_aut(D4_TRIALITY, apply_aut(D4_TRIALITY, lam))
    other = (0, 1, 2, 0)
    cases = [
        (tsp({(1,): (1, 0), (2,): (2, 0)}, [(1, 2)]),
         tsp({(1,): (0, 1), (2,): (2, 0)}, [(1, -2)]),
         sc(-1), (sc(-1), sc(1))),
        (TwistedSpec(base=spec(D4, (2,), {(1,): lam, (2,): other}, [(1, 2)]), aut=D4_TRIALITY),
         TwistedSpec(base=spec(D4, (2,), {(1,): rot2, (2,): other}, [(1, (2, 4, 12))]),
                     aut=D4_TRIALITY),
         sc(1, 4, 12), (sc(-1, 2, 12), sc(1))),
    ]
    for t1, t2, scaling, epsilons in cases:
        d1 = twisted_classify(t1)
        assert d1.module_type == "first"
        res = decide_twisted_iso(d1, t2)
        assert res, res.reason
        assert res.witness.taus == ((0, 1),)
        assert res.witness.scalings == (scaling,)
        assert res.witness.epsilons == epsilons


def test_twisted_constructed_transformations_yield_witnesses():
    rng = random.Random(55)
    done = 0
    while done < 10:
        t = random_twisted_spec(rng, A2, A2_FLIP)
        try:
            d = twisted_classify(t)
        except EngineError:
            continue
        if d.module_type != "first":
            continue
        done += 1
        res = decide_twisted_iso(d, twisted_classify(_witnessed_transform(rng, t)))
        assert res, res.reason


@pytest.mark.parametrize(
    "algebra, aut", [(A2, A2_FLIP), (D4, D4_TRIALITY)], ids=["A2-flip", "D4-triality"]
)
def test_witnessed_transforms_classify_alike(algebra, aut):
    # ``loopmod twisted-iso`` leaves the right spec unclassified when a
    # witness is found, because a witness fixes its type, Γ^μ, exponent and
    # marginal index (twisted.py); specs that raise must raise alike.
    rng = random.Random(2502)
    types, raised = set(), 0
    for _ in range(40):
        t = random_twisted_spec(rng, algebra, aut)
        other = _witnessed_transform(rng, t)
        try:
            d = twisted_classify(t)
        except EngineError as exc:
            raised += 1
            with pytest.raises(EngineError) as info:
                twisted_classify(other)
            assert type(info.value) is type(exc)
            continue
        res = decide_twisted_iso(d, other)
        assert res, res.reason
        d2 = twisted_classify(other)
        assert same_subgroup(d2.gamma_mu.lattice, d.gamma_mu.lattice)
        assert (d2.module_type, d2.m_hat_n, d2.exponent, d2.marginal_index) == (
            d.module_type, d.m_hat_n, d.exponent, d.marginal_index)
        assert decide_twisted_iso(d, d2) == res
        types.add(d.module_type)
    assert types == {"first", "second"} and raised


@pytest.mark.parametrize(
    "algebra, aut", [(A2, A2_FLIP), (D4, D4_TRIALITY)], ids=["A2-flip", "D4-triality"]
)
@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_grading_shift_refutation_fixes_the_right_twisted_classification(
    algebra, aut, seed, integral
):
    # ``loopmod twisted-iso`` leaves the right spec unclassified after a
    # ``grading-shift`` refutation: the search hit and failed only at the
    # shift, so the right spec classifies, with the left one's Γ^μ, type,
    # m̂ₙ, exponent and marginal index (twisted.py).
    rng = random.Random(seed)
    while True:
        t = random_twisted_spec(rng, algebra, aut)
        try:
            d = twisted_classify(t)
            break
        except EngineError:
            continue
    other = _witnessed_transform(rng, t)
    lattice = d.gamma_mu.lattice
    other = TwistedSpec(base=off_support_shift(rng, other.base, lattice, integral), aut=aut)
    assert decide_twisted_iso(d, other).reason == "grading-shift"
    d2 = twisted_classify(other)
    assert same_subgroup(d2.gamma_mu.lattice, lattice)
    assert (d2.module_type, d2.m_hat_n, d2.exponent, d2.marginal_index) == (
        d.module_type, d.m_hat_n, d.exponent, d.marginal_index)


def test_twisted_invariants_random_a2():
    rng = random.Random(8)
    done = 0
    while done < 25:
        t = random_twisted_spec(rng, A2, A2_FLIP)
        try:
            d = twisted_classify(t)
            base_sup = support_lattice(t.base)
        except EngineError:
            continue
        done += 1
        assert sublattice_of(d.gamma_mu.lattice, base_sup.lattice)
        if d.module_type == "first":
            assert d.m_hat_n == 1
        else:
            assert d.m_hat_n % 2 == 0
            assert d.exponent * 2 == d.marginal_index * d.m_hat_n


def test_twisted_invariants_random_d4():
    rng = random.Random(13)
    done = 0
    while done < 12:
        t = random_twisted_spec(rng, D4, D4_TRIALITY)
        try:
            d = twisted_classify(t)
            base_sup = support_lattice(t.base)
        except EngineError:
            continue
        done += 1
        assert sublattice_of(d.gamma_mu.lattice, base_sup.lattice)
        if d.module_type == "first":
            assert d.m_hat_n == 1
        else:
            assert d.m_hat_n % 3 == 0
            assert d.exponent * 3 == d.marginal_index * d.m_hat_n


def test_twisted_iso_triality_cube_root_twists():
    # Order-3 twist: moving the weight around the triality orbit is matched
    # by a cube-root-of-unity ε in the axis-1 factorization.
    lam = (1, 0, 0, 0)
    d1 = twisted_classify(
        TwistedSpec(base=spec(D4, (1,), {(1,): lam}, [((1, 0, 3),)]), aut=D4_TRIALITY)
    )
    assert d1.module_type == "first" and d1.m_hat_n == 1
    expected = {(0, 0, 1, 0): 1, (0, 0, 0, 1): 2}
    for cand, power in expected.items():
        d2 = twisted_classify(
            TwistedSpec(
                base=spec(D4, (1,), {(1,): cand}, [((1, 0, 3),)]), aut=D4_TRIALITY
            )
        )
        res = decide_twisted_iso(d1, d2)
        assert res, res.reason
        eps = res.witness.epsilons[0]
        assert eps == CycScalar.zeta(3, power).with_order(eps.order)
    # pure axis scaling by ζ₃ with the weight unchanged: ε = 1
    d3 = twisted_classify(
        TwistedSpec(base=spec(D4, (1,), {(1,): lam}, [((1, 1, 3),)]), aut=D4_TRIALITY)
    )
    res = decide_twisted_iso(d1, d3)
    assert res and res.witness.epsilons[0].is_one


def test_twisted_iso_is_equivalence_on_witnessed_pool():
    rng = random.Random(7071)
    pool = []
    tries = 0
    while len(pool) < 8 and tries < 200:
        tries += 1
        t = random_twisted_spec(rng, A2, A2_FLIP)
        try:
            pool.append(twisted_classify(t))
        except EngineError:
            continue
    assert len(pool) >= 8
    for d in pool:
        assert decide_twisted_iso(d, d), "reflexivity"
    # symmetry on every witnessed pair in the pool
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            fwd = decide_twisted_iso(a, b)
            bwd = decide_twisted_iso(b, a)
            assert bool(fwd) == bool(bwd)


def test_twisted_witness_pairs_share_h0_characters():
    # Realizer cross-check: a twisted witness implies equal per-degree
    # multisets of orbit-sum weights of the twisted components.  On the A₂,
    # A₃, A₄ and D₄ flips and D₄ triality, the pairs are λ against σ(λ) at
    # one point, and λ at 1 against σ(λ) at ω = ζ_k beside a shared λ at 3;
    # every tensor stays within the default cap of 64.
    from loopmod.liealg import build_algebra
    from loopmod.realizer import fiber_character, twisted_generate_component

    a3, a4 = build_algebra("A", 3), build_algebra("A", 4)
    twists = [
        (A2, A2_FLIP, (1, 0)),
        (a3, build_aut(a3, (2, 1, 0)), (1, 0, 0)),
        (a4, build_aut(a4, (3, 2, 1, 0)), (1, 0, 0, 0)),
        (D4, build_aut(D4, (0, 1, 3, 2)), (0, 0, 1, 0)),
        (D4, D4_TRIALITY, (1, 0, 0, 0)),
    ]
    for algebra, aut, lam in twists:
        mu, omega = apply_aut(aut, lam), sc(1, 1, aut.order)
        assert mu != lam
        pairs = [
            (({(1,): lam}, [(1,)]), ({(1,): mu}, [(1,)])),
            (({(1,): lam, (2,): lam}, [(1, 3)]), ({(1,): mu, (2,): lam}, [(omega, 3)])),
        ]
        for pair in pairs:
            t1, t2 = (tsp(w, ev, aut=aut, algebra=algebra) for w, ev in pair)
            assert decide_twisted_iso(twisted_classify(t1), twisted_classify(t2))
            chars = []
            for t in (t1, t2):
                box = twisted_generate_component(t, 2)
                chars.append({deg: fiber_character(box, deg) for deg in box.dims()})
            assert chars[0] == chars[1]


def test_twisted_classify_coarse_second_type():
    # a = (1, ζ₄): the squares (1, −1) stay distinct, so the twisted path is
    # well-defined even though the untwisted functional has an isolated
    # cancellation pattern.  The fixed weights kill all odd degrees and the
    # ζ₄-orbit kills degrees ≡ 2 mod 4: Γ^μ = 4Z and q = 1·4/2 = 2.
    t = tsp({(1,): (1, 1), (2,): (1, 1)}, [((1, 0, 4), (1, 1, 4))])
    assert image_equality(t)
    d = twisted_classify(t)
    assert (d.module_type, d.m_hat_n, d.exponent) == ("second", 4, 2)
    assert d.gamma_mu.lattice.rows == ((4,),)
    with pytest.raises(SupportNotSubgroupError):
        support_lattice(t.base)
