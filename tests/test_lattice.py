import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import same_subgroup, sublattice_of
from loopmod.errors import InfiniteIndexError, NoPeriodWithinBoundError
from loopmod.lattice import Lattice


def test_hnf_example():
    lat = Lattice.from_generators([(2, 0), (1, 1)])
    assert lat.rows == ((2, 0), (1, 1))
    assert lat.index == 2
    assert lat.full_rank


def test_identity_and_diagonal():
    assert Lattice.from_generators([(1, 0), (0, 1)]).rows == ((1, 0), (0, 1))
    assert Lattice.from_generators([(1, 0), (0, 1)]).index == 1
    diag = Lattice.from_generators([(3, 0, 0), (0, 2, 0), (0, 0, 5)])
    assert diag.index == 30


def test_rank_deficient_flagged():
    lat = Lattice.from_generators([(2, 0)], n=2)
    assert not lat.full_rank
    assert lat.rank == 1
    assert lat.index is None
    with pytest.raises(InfiniteIndexError):
        lat.coset_reps()
    assert lat.contains((4, 0))
    assert not lat.contains((1, 0))
    assert not lat.contains((0, 2))


def test_contains_examples():
    lat = Lattice.from_generators([(2, 0), (1, 1)])
    assert lat.contains((1, 1))
    assert not lat.contains((1, 0))
    assert lat.contains((0, 2))
    assert lat.contains((0, 0))
    one_d = Lattice.from_generators([(2,)])
    assert not one_d.contains((3,))


def test_axis_period_examples():
    lat = Lattice.from_generators([(2, 0), (1, 1)])
    assert lat.axis_period(0, 4) == 2
    assert lat.axis_period(1, 4) == 2
    ident = Lattice.from_generators([(1, 0), (0, 1)])
    assert ident.axis_period(0, 1) == 1
    ortho = Lattice.from_generators([(3, 0), (0, 1)])
    assert ortho.axis_period(0, 3) == 3
    assert ortho.axis_period(1, 1) == 1
    with pytest.raises(NoPeriodWithinBoundError):
        ortho.axis_period(0, 2)


def test_coset_reps():
    lat = Lattice.from_generators([(2, 0), (1, 1)])
    # Lex-min representatives inside [0,2)²: (0,1) ~ (1,0), so (0,1) is kept.
    assert lat.coset_reps() == [(0, 0), (0, 1)]
    assert Lattice.from_generators([(1, 0), (0, 1)]).coset_reps() == [(0, 0)]
    assert Lattice.from_generators([(2,)]).coset_reps() == [(0,), (1,)]


def _random_gens(rng, n, count):
    return [
        tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(count)
    ]


def test_index_matches_brute_force_coset_count():
    rng = random.Random(42)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        gens = _random_gens(rng, n, rng.randint(n, n + 2))
        lat = Lattice.from_generators(gens, n=n)
        if not lat.full_rank or lat.index > 24:
            continue
        periods = [
            next(t for t in range(1, lat.index + 1) if lat.contains(
                tuple(t if j == i else 0 for j in range(n))))
            for i in range(n)
        ]
        prod = 1
        for r in periods:
            prod *= r
        if prod > 200:
            continue
        done += 1
        reps = []
        for point in itertools.product(*(range(r) for r in periods)):
            if not any(
                lat.contains(tuple(a - b for a, b in zip(point, rep)))
                for rep in reps
            ):
                reps.append(point)
        assert len(reps) == lat.index
        assert lat.coset_reps() == reps
        assert prod % lat.index == 0


def test_contains_respects_subgroup_ops():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 3)
        lat = Lattice.from_generators(_random_gens(rng, n, n + 1), n=n)
        gens = lat.generators_original()
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            v = tuple(
                sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)
            )
            assert lat.contains(v)
            assert lat.contains(tuple(-x for x in v))
            w = tuple(2 * x for x in v)
            assert lat.contains(tuple(a + b for a, b in zip(v, w)))


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_hnf_idempotent(gens):
    lat = Lattice.from_generators(gens, n=2)
    again = Lattice.from_generators(lat.rows, n=2) if lat.rows else lat
    if lat.rows:
        assert again.rows == lat.rows


def test_ordering_permutes_coordinates():
    # Checkerboard {x+y even} in the ordering (2,1) still contains the
    # original-coordinate members, and its last diagonal entry is 1.
    lat = Lattice.from_generators([(2, 0), (1, 1)], ordering=(1, 0))
    assert lat.contains((1, 1))
    assert not lat.contains((1, 0))
    assert lat.rows[-1][-1] == 1
    plain = Lattice.from_generators([(2, 0), (1, 1)])
    assert same_subgroup(lat, plain)


def test_sublattice_of():
    big = Lattice.from_generators([(1, 0), (0, 1)])
    small = Lattice.from_generators([(2, 0), (0, 2)])
    assert sublattice_of(small, big)
    assert not sublattice_of(big, small)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_contains_iff_adding_the_vector_keeps_the_hermite_rows(data):
    n = data.draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    # Up to n + 1 generators, so rank-deficient lattices are common.
    gens = data.draw(st.lists(vec, min_size=1, max_size=n + 1))
    ordering = tuple(data.draw(st.permutations(range(n))))
    lat = Lattice.from_generators(gens, n=n, ordering=ordering)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    member = tuple(sum(c * g[t] for c, g in zip(coeffs, gens)) for t in range(n))
    for v in (member, data.draw(vec), tuple(a + b for a, b in zip(member, data.draw(vec)))):
        extended = Lattice.from_generators(list(gens) + [v], n=n, ordering=ordering)
        assert lat.contains(v) == (extended.rows == lat.rows)
    assert lat.contains(member)


def _draw_lattice_data(data, max_n=4):
    n = data.draw(st.integers(1, max_n))
    vec = st.tuples(*[st.integers(-9, 9)] * n)
    gens = data.draw(st.lists(vec, min_size=1, max_size=n + 2))
    return n, vec, gens


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hermite_rows_depend_only_on_the_subgroup(data):
    n, _, gens = _draw_lattice_data(data)
    shuffled = data.draw(st.permutations(gens))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    extra = [
        tuple(sum(c * g[t] for c, g in zip(cs, gens)) for t in range(n))
        for cs in data.draw(st.lists(coeffs, max_size=3))
    ]
    for ordering in itertools.permutations(range(n)):
        lat = Lattice.from_generators(gens, n=n, ordering=ordering)
        again = Lattice.from_generators(list(shuffled) + extra, n=n, ordering=ordering)
        assert again.rows == lat.rows
        # Hermite shape: pivots (last nonzero columns) increase strictly, are
        # positive, and reduce their column in every later row.
        pivots = [max(t for t in range(n) if row[t]) for row in lat.rows]
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(lat.rows, pivots)):
            assert row[p] > 0
            assert all(0 <= later[p] < row[p] for later in lat.rows[i + 1:])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_residue_names_the_coset(data):
    n, vec, gens = _draw_lattice_data(data)
    ordering = tuple(data.draw(st.permutations(range(n))))
    lat = Lattice.from_generators(gens, n=n, ordering=ordering)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    member = tuple(sum(c * g[t] for c, g in zip(coeffs, gens)) for t in range(n))
    v = data.draw(vec)
    for w in (data.draw(vec), tuple(a + b for a, b in zip(v, member))):
        diff = tuple(a - b for a, b in zip(v, w))
        assert (lat.residue(v) == lat.residue(w)) == lat.contains(diff)
    assert lat.residue(member) == (0,) * n
    if lat.full_rank:
        r = lat.residue(v)
        assert all(0 <= r[i] < lat.rows[i][i] for i in range(n))
