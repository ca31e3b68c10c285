import json
import random
from fractions import Fraction

import pytest

from helpers import higher_vanish, root_weyl_dim, symmetrizers
from loopmod import liealg
from loopmod.cyclotomic import CycVector
from loopmod.errors import InputError, UnsupportedError
from loopmod.jsonio import load_spec
from loopmod.liealg import (
    apply_aut,
    build_algebra,
    build_aut,
    node_orbits,
    primitive_root_of_unity,
    restrict_weight,
    weyl_dim,
)


def test_cartan_tables():
    assert build_algebra("A", 1).cartan == ((2,),)
    assert build_algebra("A", 2).cartan == ((2, -1), (-1, 2))
    B2 = build_algebra("B", 2).cartan
    assert B2 == ((2, -1), (-2, 2))
    C2 = build_algebra("C", 2).cartan
    assert C2 == ((2, -2), (-1, 2))
    G2 = build_algebra("G", 2).cartan
    assert G2[0][1] * G2[1][0] == 3


@pytest.mark.parametrize(
    "series,rank,count",
    [
        ("A", 1, 1),
        ("A", 2, 3),
        ("A", 3, 6),
        ("B", 2, 4),
        ("B", 3, 9),
        ("C", 3, 9),
        ("D", 4, 12),
        ("G", 2, 6),
        ("F", 4, 24),
        ("E", 6, 36),
    ],
)
def test_positive_root_counts(series, rank, count):
    # Φ and Φ^∨ have equally many positive roots.
    assert len(build_algebra(series, rank).positive_coroots) == count


def test_unsupported_pairs():
    with pytest.raises(UnsupportedError):
        build_algebra("E", 5)
    with pytest.raises(UnsupportedError):
        build_algebra("G", 3)
    with pytest.raises(UnsupportedError):
        build_algebra("X", 2)


def test_specs_of_one_algebra_share_its_root_system(tmp_path, monkeypatch):
    # build_algebra keeps one instance per (series, rank), so the Weyl
    # dimensions of two A₂ specs build the positive roots once.
    calls = []
    original = liealg._positive_roots
    monkeypatch.setattr(liealg, "_positive_roots", lambda cartan: calls.append(1) or original(cartan))
    build_algebra.cache_clear()
    specs = []
    for k, coords in enumerate(([1, 0], [1, 1])):
        path = tmp_path / f"a2_{k}.json"
        path.write_text(json.dumps({
            "algebra": {"series": "A", "rank": 2}, "n": 1, "dims": [1],
            "weights": [{"index": [1], "coords": coords}], "evals": [[1]],
        }))
        specs.append(load_spec(str(path)))
    assert [weyl_dim(s.algebra, s.weights[(1,)]) for s in specs] == [3, 8]
    assert specs[0].algebra is specs[1].algebra
    assert len(calls) == 1


def test_weyl_dim_sl2_string():
    A1 = build_algebra("A", 1)
    for m in range(6):
        assert weyl_dim(A1, (m,)) == m + 1


def test_weyl_dim_frozen_values():
    A2 = build_algebra("A", 2)
    assert weyl_dim(A2, (0, 0)) == 1
    assert weyl_dim(A2, (1, 0)) == 3
    assert weyl_dim(A2, (1, 1)) == 8
    assert weyl_dim(A2, (2, 0)) == 6
    assert weyl_dim(A2, (2, 2)) == 27
    B2 = build_algebra("B", 2)
    assert weyl_dim(B2, (1, 0)) == 5
    assert weyl_dim(B2, (0, 1)) == 4
    C2 = build_algebra("C", 2)
    assert {weyl_dim(C2, (1, 0)), weyl_dim(C2, (0, 1))} == {4, 5}
    G2 = build_algebra("G", 2)
    assert {weyl_dim(G2, (1, 0)), weyl_dim(G2, (0, 1))} == {7, 14}
    D4 = build_algebra("D", 4)
    assert weyl_dim(D4, (1, 0, 0, 0)) in (8, 28)


_SERIES_UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", _SERIES_UP_TO_RANK_8)
def test_weyl_dim_over_coroots_matches_the_root_form(series, rank):
    # Every series up to rank 8: the coroot form against the root form with
    # symmetrizers, on 0, ρ, 2ρ and every ωᵢ, 2ωᵢ and ωᵢ + ωⱼ.
    algebra = build_algebra(series, rank)
    assert all(type(d) is int and d > 0 for d in symmetrizers(algebra.cartan))
    unit = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    weights = [(0,) * rank, (1,) * rank, (2,) * rank] + unit
    weights += [tuple(x + y for x, y in zip(a, b)) for i, a in enumerate(unit) for b in unit[i:]]
    for lam in weights:
        assert weyl_dim(algebra, lam) == root_weyl_dim(algebra, lam), lam


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(InputError):
        weyl_dim(build_algebra("A", 2), (1, -1))


def test_build_aut_validation():
    A2 = build_algebra("A", 2)
    flip = build_aut(A2, (1, 0))
    assert flip.order == 2
    ident = build_aut(A2, (0, 1))
    assert ident.order == 1
    with pytest.raises(InputError):
        build_aut(build_algebra("A", 3), (1, 0, 2))  # breaks the Cartan matrix
    with pytest.raises(InputError):
        build_aut(A2, (0, 0))
    D4 = build_algebra("D", 4)
    tri = build_aut(D4, (2, 1, 3, 0))
    assert tri.order == 3


def test_apply_aut_examples():
    A2 = build_algebra("A", 2)
    flip = build_aut(A2, (1, 0))
    assert apply_aut(flip, (1, 2)) == (2, 1)
    assert apply_aut(flip, (5, 5)) == (5, 5)
    D4 = build_algebra("D", 4)
    tri = build_aut(D4, (2, 1, 3, 0))
    w = (1, 2, 3, 4)
    out = apply_aut(tri, w)
    assert sorted(out) == sorted(w) and out[1] == 2


def test_apply_aut_is_an_action():
    rng = random.Random(3)
    D4 = build_algebra("D", 4)
    tri = build_aut(D4, (2, 1, 3, 0))
    A2 = build_algebra("A", 2)
    flip = build_aut(A2, (1, 0))
    for aut, rank in ((tri, 4), (flip, 2)):
        for _ in range(20):
            w = tuple(rng.randint(0, 5) for _ in range(rank))
            out = w
            for _ in range(aut.order):
                out = apply_aut(aut, out)
            assert out == w


def test_restrict_weight_a2_examples():
    A2 = build_algebra("A", 2)
    flip = build_aut(A2, (1, 0))
    sym = restrict_weight(flip, (3, 3), 2)
    assert sym.comp0 == (Fraction(6),)
    assert higher_vanish(sym)
    fund = restrict_weight(flip, (1, 0), 2)
    assert fund.comp0 == (Fraction(1),)
    assert fund.higher[0][0] == CycVector.from_rational(1, 2)
    assert not higher_vanish(fund)


def test_restrict_weight_identity_aut():
    A2 = build_algebra("A", 2)
    ident = build_aut(A2, (0, 1))
    rw = restrict_weight(ident, (2, 5), 1)
    assert rw.comp0 == (Fraction(2), Fraction(5))
    assert rw.higher == ()


def test_restrict_fixed_iff_higher_vanish():
    rng = random.Random(9)
    cases = [
        (build_aut(build_algebra("A", 2), (1, 0)), 2, 2),
        (build_aut(build_algebra("D", 4), (2, 1, 3, 0)), 4, 3),
    ]
    for aut, rank, order in cases:
        for _ in range(40):
            w = tuple(rng.randint(0, 3) for _ in range(rank))
            rw = restrict_weight(aut, w, 6)
            assert higher_vanish(rw) == (apply_aut(aut, w) == w)


def test_node_orbits_deterministic():
    D4 = build_algebra("D", 4)
    tri = build_aut(D4, (2, 1, 3, 0))
    assert node_orbits(tri) == [(0, 2, 3), (1,)]


def test_primitive_root_of_unity():
    assert primitive_root_of_unity(1, 5).is_one
    m = primitive_root_of_unity(2, 5)
    assert m.q == -1 and m.e == 0
    z3 = primitive_root_of_unity(3, 6)
    assert (z3 ** 3).is_one and not z3.is_one and not (z3 ** 2).is_one
    with pytest.raises(InputError):
        primitive_root_of_unity(3, 4)
