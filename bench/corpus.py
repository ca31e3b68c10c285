"""Generate the frozen spec corpus of every benchmark workload.

    python3 bench/corpus.py [--seed N]     # write bench/corpus/<workload>.json
    python3 bench/corpus.py --check        # regenerate in memory, compare bytes

Each workload file is a bundle ``{"workload", "seed", "variants", "specs",
"items", "probes"}``.  ``specs`` maps a name to a spec document in the CLI's
input format.  ``items`` is the fixed-order list of operations; each item holds
``variants`` cost-equivalent versions of one operation; a run's warm-up reads
version 0 and ``--seed`` orders the others over the timed passes (see
``bench/ops.py``).  A version relabels the
table indices of every axis and flips the sign of whole axes, which keeps the
support lattice, the weight classes and every iso decision, and keeps the work
the engine does, while the input bytes change.

An operation may carry ``expect``: decision fields known independently of the
engine (block periods and target lattices, a witness for transformed pairs,
the named criterion of a perturbed pair, exit 3 for exactly tuned tables).
Every other decision field is frozen from the engine by ``bench/freeze.py``.
``probes`` are operations checked once per run outside the timed loop because
the engine is known to answer them wrongly (see ``bench/README.md``).

Random draws come from the generators in ``tests/helpers.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import helpers as H  # noqa: E402
from loopmod.cyclotomic import CycScalar  # noqa: E402
from loopmod.lattice import Lattice  # noqa: E402
from loopmod.liealg import weyl_dim  # noqa: E402
from loopmod.psi import PsiSpec  # noqa: E402
from loopmod.twisted import TwistedSpec  # noqa: E402

DEFAULT_SEED = 2007
VARIANTS = 8
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
WORKLOADS = ("classify-corpus", "decide", "realize", "wide-field")


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------

def _scalar(a: CycScalar, order: int) -> dict:
    if a.e and order % a.order:
        raise ValueError(f"{a!r} is not in the field of order {order}")
    e = a.e * order // a.order
    return {"num": a.q.numerator, "den": a.q.denominator, "zeta_pow": e, "zeta_order": order}


def _frac(x: Fraction):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def spec_doc(spec, order: int | None = None) -> dict:
    """Spec document with every scalar written at cyclotomic order ``order``."""
    twisted = isinstance(spec, TwistedSpec)
    base = spec.base if twisted else spec
    order = order or base.field_order
    doc = {
        "schema": 1,
        "algebra": {"series": base.algebra.series, "rank": base.algebra.rank},
        "n": base.n,
        "dims": list(base.dims),
        "weights": [
            {"index": list(I), "coords": list(base.weights[I])} for I in sorted(base.weights)
        ],
        "evals": [[_scalar(a, order) for a in axis] for axis in base.evals],
        "rho": [_frac(x) for x in base.rho],
    }
    if twisted:
        doc["aut"] = {"perm": [s + 1 for s in spec.aut.sigma], "order": spec.aut.order}
    return doc


def relabel(spec, rng: random.Random):
    """Permute the table indices of each axis and negate whole axes."""
    twisted = isinstance(spec, TwistedSpec)
    base = spec.base if twisted else spec
    perms, signs = [], []
    for d in base.dims:
        perm = list(range(d))
        rng.shuffle(perm)
        perms.append(perm)
        signs.append(rng.choice((1, -1)))
    evals = tuple(
        tuple(axis[p] if s == 1 else -axis[p] for p in perm)
        for axis, perm, s in zip(base.evals, perms, signs)
    )
    weights = {
        I: base.weights[tuple(perms[i][I[i] - 1] + 1 for i in range(base.n))]
        for I in base.weights
    }
    out = PsiSpec(
        algebra=base.algebra, n=base.n, dims=base.dims, weights=weights,
        evals=evals, rho=base.rho,
    )
    return TwistedSpec(base=out, aut=spec.aut) if twisted else out


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

class Bundle:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.specs: dict[str, dict] = {}
        self.items: list[list[dict]] = []
        self.probes: list[dict] = []

    def _name(self, order: int | None, spec) -> str:
        name = f"s{len(self.specs):04d}"
        self.specs[name] = spec_doc(spec, order)
        return name

    def item(self, command, specs, *, flags=(), expect=None, order=None, tag=""):
        """Add one operation in ``VARIANTS`` relabelled versions.

        ``specs`` are the spec objects the command reads; version 0 is the
        draw itself.
        """
        versions = []
        for v in range(VARIANTS):
            names = []
            for s in specs:
                s_v = s if v == 0 else relabel(s, self.rng)
                names.append(self._name(order, s_v))
            op = {
                "id": f"{len(self.items):03d}.{v}",
                "tag": tag,
                "call": command,
                "args": names,
                "flags": list(flags),
            }
            if expect is not None:
                op["expect"] = expect
            versions.append(op)
        self.items.append(versions)

    def probe(self, command, spec, *, expect, tag):
        self.probes.append({
            "id": f"probe{len(self.probes)}",
            "tag": tag,
            "call": command,
            "args": [self._name(None, spec)],
            "flags": [],
            "expect": expect,
        })

    def to_bytes(self) -> bytes:
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "variants": VARIANTS,
            "specs": self.specs,
            "items": self.items,
            "probes": self.probes,
        }
        return render(doc)


def render(doc: dict) -> bytes:
    """JSON with one line per spec, item or probe, so that diffs stay readable."""
    def compact(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict) and value:
            body = ",\n".join(f"  {compact(k)}: {compact(v)}" for k, v in sorted(value.items()))
            value = "{\n" + body + "\n }"
        elif isinstance(value, list) and value:
            value = "[\n" + ",\n".join("  " + compact(v) for v in value) + "\n ]"
        else:
            value = compact(value)
        fields.append(f" {compact(key)}: {value}")
    return ("{\n" + ",\n".join(fields) + "\n}\n").encode()


def _lattice_expect(lat: Lattice) -> dict:
    return {"support.lattice.basis": [list(r) for r in lat.rows], "support.index": lat.index}


def _s(algebra, dims, weights, evals, rho=None):
    return H.spec(algebra, dims, weights, evals, rho)


EXIT3_NOT_SUBGROUP = {"exit": 3, "diagnostics": ["SupportNotSubgroupError"]}


def _near_zero():
    # v(1) = 2·1 + (−1)·2 = 0: an isolated zero at degree 1 (README, edge regimes).
    return _s(H.A1, (2,), {(1,): (1,), (2,): (2,)}, [(2, -1)])


def _far_zero():
    # v(13) = 2^13 − 8192 = 0 lies outside the closure-audit cube.
    return _s(H.A1, (2,), {(1,): (1,), (2,): (8192,)}, [(2, -1)])


def _readme_example():
    base = _s(H.A2, (2,), {(1,): (1, 0), (2,): (0, 1)}, [(1, (1, 1, 3))])
    return TwistedSpec(base=base, aut=H.A2_FLIP)


def _stress(rng, algebra, dims, order):
    """n = 3 table at cyclotomic order ``order`` with repeated weights."""
    pool = H.scalar_pool(12)
    evals = [tuple(a.with_order(order) for a in rng.sample(pool, d)) for d in dims]
    values = [tuple(rng.randint(0, 2) for _ in range(algebra.rank)) for _ in range(3)]
    values[0] = (1,) + (0,) * (algebra.rank - 1)
    weights = {I: rng.choice(values) for I in H.table_indices(dims)}
    return PsiSpec(algebra=algebra, n=3, dims=dims, weights=weights, evals=tuple(evals),
                   rho=(Fraction(0),) * 3)


def _tensor_dim(spec: PsiSpec) -> int:
    out = 1
    for w in spec.weights.values():
        out *= weyl_dim(spec.algebra, w)
    return out


def _draw(rng, draw, accept):
    """Redraw until ``accept`` holds for the (base) spec.  The filters bound an
    operation's cost by the shape of its spec, never by the engine's answer."""
    while True:
        out = draw(rng)
        spec = out[0] if isinstance(out, tuple) else out
        if accept(spec.base if isinstance(spec, TwistedSpec) else spec):
            return out


def _table_at_most(n: int):
    return lambda s: s.table_size <= n


def _rational(s: PsiSpec) -> bool:
    return all(a.e == 0 for axis in s.evals for a in axis)


def classify_corpus(seed: int) -> Bundle:
    b = Bundle("classify-corpus", seed)
    rng = b.rng
    commands = ("support", "classify", "blocks")
    for k in range(58):
        # An n = 3 draw scans a 13³ audit cube (~0.3 s); a few stand for them.
        s = _draw(rng, H.random_spec, lambda s: s.n <= 2 and s.table_size <= 6)
        b.item(commands[k % 3], [s], tag="random")
    for command in ("support", "blocks"):
        s = _draw(rng, H.random_spec, lambda s: s.n == 3)
        b.item(command, [s], tag="random-n3")
    for k in range(22):
        s, periods, p = H.orthogonal_block_spec(rng)
        b.item("classify", [s], tag="orthogonal-block",
               expect={"exit": 0, "support.periods": list(periods), "index": p})
    for k in range(12):
        s, target = H.skew_block_spec(rng)
        b.item(commands[k % 3], [s], tag="skew-block", expect={"exit": 0, **_lattice_expect(target)})
    readme = _readme_example().base
    for command in commands:
        b.item(command, [readme], tag="readme")
    b.item("support", [_near_zero()], tag="near-zero", expect=EXIT3_NOT_SUBGROUP)
    b.item("classify", [_near_zero()], tag="near-zero", expect=EXIT3_NOT_SUBGROUP)
    trivial = _s(H.A1, (2,), {(1,): (0,), (2,): (0,)}, [(1, 2)])
    b.item("classify", [trivial], tag="trivial",
           expect={"exit": 3, "diagnostics": ["TrivialModuleError"]})
    b.item("classify", [_stress(rng, H.A1, (2, 2, 1), 12)], tag="stress-n3")
    b.item("support", [_stress(rng, H.A1, (2, 1, 2), 60)], tag="stress-n3")
    b.probe("support", _far_zero(), expect=EXIT3_NOT_SUBGROUP, tag="far-zero")
    return b


def _orthogonal_lattice(periods) -> Lattice:
    n = len(periods)
    return Lattice.from_generators(
        [tuple(r if j == i else 0 for j in range(n)) for i, r in enumerate(periods)], n=n
    )


class _Support:
    """Stand-in for a SupportLattice whose lattice is known by construction."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice


def _perturb(rng, base: PsiSpec, criterion: str) -> PsiSpec:
    """A partner of ``base`` whose first failed iso criterion is ``criterion``."""
    other, _, _ = H.transformed_spec(rng, base)
    if criterion == "dimension-mismatch":
        dims = base.dims[:-1] + (base.dims[-1] + 1,)
        weights = {I: (1,) * base.algebra.rank for I in H.table_indices(dims)}
        evals = base.evals[:-1] + (
            tuple(CycScalar(c, 0, base.field_order) for c in range(1, dims[-1] + 1)),
        )
        return PsiSpec(algebra=base.algebra, n=base.n, dims=dims, weights=weights,
                       evals=evals, rho=base.rho)
    if criterion == "algebra-mismatch":
        algebra = H.A2 if base.algebra.rank == 1 else H.A1
        weights = {I: (1,) * algebra.rank for I in base.weights}
        return PsiSpec(algebra=algebra, n=base.n, dims=base.dims, weights=weights,
                       evals=base.evals, rho=base.rho)
    if criterion == "no-scaling-permutation":
        d = other.dims[-1]
        if d == 1:
            # A single scalar is always a scaling of another; force a size change.
            return _perturb(rng, base, "dimension-mismatch")
        # No ratio of distinct primes equals a ratio of the block bases
        # (1, 2, 3 or 2, 3, 5 times roots of unity), so no scaling matches.
        primes = (5, 7, 11, 13, 17, 19)
        evals = other.evals[:-1] + (
            tuple(CycScalar(primes[j], 0, other.field_order) for j in range(d)),
        )
        return PsiSpec(algebra=other.algebra, n=other.n, dims=other.dims,
                       weights=other.weights, evals=evals, rho=other.rho)
    if criterion == "weight-mismatch":
        weights = dict(other.weights)
        first = min(weights)
        weights[first] = tuple(c + 7 for c in weights[first])
        return PsiSpec(algebra=other.algebra, n=other.n, dims=other.dims,
                       weights=weights, evals=other.evals, rho=other.rho)
    if criterion == "grading-shift":
        rho = (other.rho[0] + Fraction(1, 2),) + other.rho[1:]
        return PsiSpec(algebra=other.algebra, n=other.n, dims=other.dims,
                       weights=other.weights, evals=other.evals, rho=rho)
    raise ValueError(criterion)


def decide(seed: int) -> Bundle:
    b = Bundle("decide", seed)
    rng = b.rng
    witness = {"exit": 0, "isomorphic": True}
    for k in range(20):
        if k % 2:
            s, target = _draw(rng, H.skew_block_spec, _table_at_most(8))
        else:
            s, periods, _ = _draw(rng, H.orthogonal_block_spec, _table_at_most(8))
            target = _orthogonal_lattice(periods)
        other, _, _ = H.transformed_spec(rng, s, shift_support=_Support(target))
        b.item("iso", [s, other], tag="transformed-block", expect=witness)
    for k in range(8):
        s = _draw(rng, H.random_spec, _table_at_most(8))
        other, _, _ = H.transformed_spec(rng, s)
        b.item("iso", [s, other], tag="transformed-random")
    criteria = ("weight-mismatch", "grading-shift", "no-scaling-permutation",
                "dimension-mismatch", "algebra-mismatch")
    for k in range(44):
        criterion = criteria[k % len(criteria)]
        s, _, _ = _draw(rng, H.orthogonal_block_spec, _table_at_most(8))
        other = _perturb(rng, s, criterion)
        if criterion == "no-scaling-permutation" and other.dims != s.dims:
            criterion = "dimension-mismatch"
        b.item("iso", [s, other], tag="perturbed",
               expect={"exit": 1, "isomorphic": False, "reason": criterion})
    for algebra, aut, count, max_table in ((H.A2, H.A2_FLIP, 8, 4), (H.D4, H.D4_TRIALITY, 4, 2)):
        drawn = [_draw(rng, lambda r: H.random_twisted_spec(r, algebra, aut),
                       _table_at_most(max_table)) for _ in range(count)]
        for k, t in enumerate(drawn):
            b.item(("twisted-classify", "reducibility")[k % 2], [t], tag="twisted")
            b.item("twisted-iso", [t, relabel(t, rng)], tag="twisted-iso")
        for k in range(0, count, 2):
            b.item("twisted-iso", [drawn[k], drawn[k + 1]], tag="twisted-iso")
    readme = _readme_example()
    for command in ("twisted-classify", "reducibility"):
        b.item(command, [readme], tag="readme")
    return b


def _acceptance3_specs():
    """The small tables of acceptance 3 (tensor dimension ≤ 27, p from 1 to 4)."""
    A1, s = H.A1, _s
    return [
        s(A1, (1,), {(1,): (2,)}, [(2,)]),
        s(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, -1)]),
        s(A1, (2,), {(1,): (1,), (2,): (1,)}, [(1, 2)]),
        s(A1, (2,), {(1,): (1,), (2,): (2,)}, [(1, -1)]),
        s(A1, (2,), {(1,): (2,), (2,): (2,)}, [(1, -1)]),
        s(A1, (2,), {(1,): (1,), (2,): (1,)}, [((1, 1, 4), (1, 3, 4))]),
        s(A1, (3,), {(1,): (1,), (2,): (1,), (3,): (1,)}, [((1, 0, 3), (1, 1, 3), (1, 2, 3))]),
        s(A1, (4,), {(1,): (1,), (2,): (1,), (3,): (0,), (4,): (0,)}, [(1, -1, 2, -2)]),
        s(A1, (1, 1), {(1, 1): (2,)}, [(1,), (3,)]),
        s(A1, (2, 1), {(1, 1): (1,), (2, 1): (1,)}, [(1, -1), (2,)]),
        s(A1, (2, 2), {(1, 1): (1,), (1, 2): (0,), (2, 1): (0,), (2, 2): (1,)},
          [(1, -1), (1, -1)]),
        s(A1, (3, 1), {(1, 1): (1,), (2, 1): (1,), (3, 1): (1,)},
          [((1, 0, 3), (1, 1, 3), (1, 2, 3)), (2,)]),
        s(A1, (4,), {(1,): (1,), (2,): (1,), (3,): (1,), (4,): (1,)},
          [((1, 0, 4), (1, 1, 4), (1, 2, 4), (1, 3, 4))]),
    ]


def realize(seed: int) -> Bundle:
    b = Bundle("realize", seed)
    rng = b.rng
    small = _acceptance3_specs()
    for box, picked in ((1, tuple(range(12))), (2, (0, 1, 2, 3, 4, 5, 7, 12)),
                        (3, (0,))):
        for k in picked:
            b.item("verify", [small[k]], flags=["--box", str(box)], tag="acceptance-3")
    for k in range(40):
        s = _draw(rng, H.random_spec, lambda s: s.n == 1 and _tensor_dim(s) <= 4)
        b.item("verify", [s], flags=["--box", "1"], tag="random")
    for k in range(6):
        s, _, _ = _draw(rng, H.orthogonal_block_spec,
                        lambda s: s.n == 1 and s.field_order <= 2 and _tensor_dim(s) <= 9)
        b.item("verify", [s], flags=["--box", "1"], tag="block")
    # Over-cap tables: the expected answer is the typed cap exit.
    for weights in (((2, 1), (1, 2)), ((3, 0), (0, 3))):
        big = _s(H.A2, (2,), {(1,): weights[0], (2,): weights[1]}, [(1, 2)])
        b.item("verify", [big], flags=["--box", "1", "--cap", "64"], tag="cap",
               expect={"exit": 2, "diagnostics": ["CapExceededError"]})
    for s in small[:3]:
        other = _perturb(rng, s, "grading-shift")
        b.item("iso", [s, other], flags=["--refute-box", "1"], tag="refute")
    for left, right in ((small[1], small[2]), (small[9], small[8])):
        b.item("iso", [left, right], flags=["--refute-box", "1"], tag="refute")
    a2 = [
        _s(H.A2, (2,), {(1,): (1, 0), (2,): (0, 1)}, [(1, 2)]),
        _s(H.A2, (2,), {(1,): (1, 1), (2,): (0, 0)}, [(1, -1)]),
        _s(H.A2, (1, 2), {(1, 1): (1, 0), (1, 2): (0, 1)}, [(2,), (1, -1)]),
        _s(H.A2, (2,), {(1,): (1, 0), (2,): (1, 0)}, [(1, (1, 1, 3))]),
    ]
    for base in a2[:2]:
        b.item("verify", [base], flags=["--box", "1"], tag="a2")
    twisted = [TwistedSpec(base=base, aut=H.A2_FLIP) for base in a2]
    twisted += [_draw(rng, lambda r: H.random_twisted_spec(r, H.A2, H.A2_FLIP),
                      lambda s: s.n == 1 and _tensor_dim(s) <= 3) for _ in range(26)]
    for k, t in enumerate(twisted):
        b.item("twisted_generate_component", [t], flags=["--box", "2" if k in (1, 3) else "1"],
               tag="twisted-realizer")
    return b


def _two_entry(order: int, e: int, weights):
    """Two-entry table at prime order: evaluations (1, ζ^e)."""
    evals = ((CycScalar(1, 0, order), CycScalar(1, e, order)),)
    table = {(1,): weights[0], (2,): weights[1]}
    return PsiSpec(algebra=H.A1, n=1, dims=(2,), weights=table, evals=evals,
                   rho=(Fraction(0),))


def wide_field(seed: int) -> Bundle:
    b = Bundle("wide-field", seed)
    rng = b.rng
    for order in (60, 210, 420):
        for k in range(4):
            s, periods, p = _draw(rng, H.orthogonal_block_spec, _table_at_most(6))
            b.item(("classify", "blocks")[k % 2], [s.with_field_order(order)],
                   tag=f"block-L{order}",
                   expect={"exit": 0, "support.periods": list(periods),
                           "support.index": p})
    for order in (105, 1001, 2003):
        for k in range(8 if order == 105 else 6):
            # n = 2 closure audits at L ≥ 1001 take seconds per operation.
            max_n = 2 if order < 1000 else 1
            s = _draw(rng, H.random_spec,
                      lambda s: s.n <= max_n and s.table_size <= 6 and _rational(s))
            b.item(("support", "classify")[k % 2], [s], order=order, tag=f"rational-L{order}")
    for order in (60, 210):
        for k in range(3):
            s, periods, _ = _draw(rng, H.orthogonal_block_spec, _table_at_most(6))
            s = s.with_field_order(order)
            other, _, _ = H.transformed_spec(rng, s, shift_support=_Support(_orthogonal_lattice(periods)))
            b.item("iso", [s, other], tag=f"iso-L{order}", expect={"exit": 0, "isomorphic": True})
    small = _acceptance3_specs()
    for order, k in ((60, 1), (105, 0)):
        b.item("verify", [small[k]], flags=["--box", "1"], order=order, tag=f"verify-L{order}")
    primes = ((101, 1), (211, 5), (307, 2), (401, 3), (503, 9), (607, 4), (809, 10),
              (1009, 17), (1601, 7), (2003, 2))
    for order, e in primes:
        tag = f"two-entry-L{order}"
        for command, weights in (("support", ((1,), (1,))), ("classify", ((1,), (2,))),
                                 ("blocks", ((2,), (3,))), ("support", ((3,), (1,))),
                                 ("classify", ((1,), (3,))), ("blocks", ((1,), (4,)))):
            b.item(command, [_two_entry(order, e, weights)], order=order, tag=tag)
    return b


GENERATORS = {
    "classify-corpus": classify_corpus,
    "decide": decide,
    "realize": realize,
    "wide-field": wide_field,
}


def generate(seed: int) -> dict[Path, bytes]:
    return {CORPUS_DIR / f"{w}.json": GENERATORS[w](seed).to_bytes() for w in WORKLOADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh generation with the files on disk")
    args = parser.parse_args(argv)
    files = generate(args.seed)
    if args.check:
        stale = [p.name for p, data in files.items() if not p.is_file() or p.read_bytes() != data]
        for name in stale:
            print(f"corpus file differs from a fresh generation: {name}")
        print("corpus check:", "FAIL" if stale else "ok", f"({len(files)} files, seed {args.seed})")
        return 1 if stale else 0
    CORPUS_DIR.mkdir(exist_ok=True)
    for path, data in files.items():
        path.write_bytes(data)
        print(f"wrote {path.relative_to(ROOT)} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
