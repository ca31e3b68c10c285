"""The support of a spec's degree functional.

For a :class:`~loopmod.spec.PsiSpec`, with weight table ``λ_I`` and evaluation
scalars ``a_{i,j}``, the degree-``m`` functional is

    v(m) = Σ_I a_I^m · λ_I,      a_I^m = ∏ᵢ a_{i,Iᵢ}^{mᵢ},

a vector of cyclotomic-field coefficients in the fundamental-weight basis.
The support ``Γ = {m : v(m) ≠ 0}`` of a nontrivial table with dominant weights
is, when it is a subgroup, a full-rank subgroup of Z^n.  It is generated by
the members of the box ``∏[0, rᵢ)`` and the ``rᵢeᵢ``, where
``rᵢ = min{t ≥ 1 : v(t·eᵢ) ≠ 0}`` are the axis periods.  Membership comes
from a certificate ladder on the term table alone, cheapest rung first
(``nonvanishing_support``): a slot only one index reaches
(``single-entry``), the Lam–Leung theorem on vanishing sums of roots of unity
(``lam-leung``), per-coset class sums of the functional on the cosets of
``D = ⊕ MᵢZ`` (``domain``), an n = 1 dominance window that lists every zero
(``descartes``), and, for the cosets left open, a check on the audit cube,
one coset at a time (``audit``).  The rung is reported as the support's
``certificate``.  Class sums are exact and sparse: each is its nonzero
power-basis numerators by position, built from each index's flat (slot,
ζ-exponent, integer) terms and the reduced powers of ζ of
``cyclotomic.zeta_terms``, so their cost follows the terms and not φ(L).  A
coset is settled at its first power-basis coordinate of one sign.  A degree
in an open coset is decided from its class sums: ``v(m) ≠ 0`` iff
``Σ_K ρ_K^m·u_K(r)`` has a nonzero coordinate, an integer test, and the audit
walks an open coset's cube degrees a prefix at a time, each prefix's
partial products formed once.  A coset the ladder did not scan, because the
scan was over budget, is decided from its class sums when a lookup first
reaches it, so the support never evaluates the functional.  The twisted
support runs the same ladder on the restricted functional's term table.

``verify_support`` is the independent oracle: it rechecks membership against
direct evaluation (``Evaluator.functional``, from ``PsiSpec.coefficients``)
on a cube of degrees, scanning in order of increasing max-norm (ties broken
componentwise descending) and reporting the first mismatch.  The realizer,
the other oracle, reads the spec and not this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .cyclotomic import (
    CycVector, _phi_taps, _prime_factors, phase, phase_order, zeta_terms,
)
from .errors import NoPeriodWithinBoundError, SupportNotSubgroupError, TrivialModuleError
from .lattice import Lattice
from .spec import PsiSpec, table_indices

class Evaluator:
    """The term table of a spec's functional, and its direct evaluation.

    ``terms[j]`` is the term table the support certificates read: for the
    degrees with ``m₁ ≡ j (mod k)``, every index whose contribution does not
    vanish, with its contribution to each output slot as ``(ζ-exponent,
    integer)`` pairs.  Untwisted, ``k = 1`` and slot ``c`` of index ``I``
    holds ``λ_I[c]``, so each slot is a nonnegative integer combination of the
    ``a_I^m`` and the Lam–Leung test applies (``lam_leung``).  The support
    reads only the term table; ``functional`` and ``is_nonzero`` are the
    direct evaluation behind ``verify_support``, from the spec's
    ``coefficients``.
    """

    k = 1
    lam_leung = True

    def __init__(self, spec: PsiSpec):
        self.spec = spec
        self.order = spec.field_order
        self.evals = spec.evals
        self._indices = table_indices(spec.dims)
        self.terms = [[
            (I, [[(0, x)] if x else [] for x in spec.weights[I]])
            for I in self._indices
            if any(spec.weights[I])
        ]]

    def functional(self, m) -> list[CycVector]:
        """v(m) as one cyclotomic vector per fundamental-weight coordinate."""
        terms = [[] for _ in range(self.spec.algebra.rank)]
        for I, a in zip(self._indices, self.spec.coefficients(m)):
            for c, x in enumerate(self.spec.weights[I]):
                if x:
                    terms[c].append((a.e, a.q * x))
        return [CycVector.from_terms(self.order, t) for t in terms]

    def is_nonzero(self, m) -> bool:
        return any(not v.is_zero() for v in self.functional(m))


@dataclass(frozen=True)
class SupportLattice:
    lattice: Lattice
    periods: tuple[int, ...]
    index: int
    certificate: str = "audit"


class _CosetSums:
    """An evaluator's functional on the cosets of ``D = ⊕ MᵢZ``.

    Write ``a_{i,j} = |q_{i,j}|·φ_{i,j}`` with ``φ = ζ_{2L}^g`` a root of
    unity (``cyclotomic.phase``), so an active index has
    ``a_I^m = ρ_I^m·φ_I^m`` with ``ρ_I`` its vector of ``|q|`` values.
    ``Mᵢ`` is the order of the phase ratios ``φ_{i,j}/φ_{i,j₀}`` over the
    active ``j`` of axis ``i`` (times ``k`` on axis 1, so that the term table
    is constant on a coset).  Then ``φ_I^{r+d} = χ(d)·φ_I^r`` for ``d ∈ D``,
    with a root of unity ``χ(d)`` shared by every ``I``, and grouping the
    indices into torsion classes ``K`` by ``ρ_I`` gives

        v(r + d) = χ(d)·Σ_K ρ_K^{r+d}·u_K(r),   u_K(r) = Σ_{I∈K} φ_I^r·c_I(r),

    where ``c_I(r)`` is the index's entry in the term table of ``r``.

    Everything here is in integers.  A class ``classes[K]`` is ``ρ_K`` with
    each axis scaled by the lcm of that axis's active denominators.  The
    term-table weights are integers on both paths (the weights themselves,
    or the twisted orbit sums and restricted numerators), so ``sums`` gives
    each ``u_K(r)`` as its nonzero power-basis numerators, a sparse map from
    position to integer.  ``table[j]`` lists, by class, ``(K, rows)``: one
    row ``(phase exponents g, terms)`` per index of the class, the terms
    flat ``(slot offset, ζ-exponent, integer)`` triples, the offset of slot
    t being ``t·φ(L)``.  ``scan`` and ``nonzero`` scale the ``ρ_K^m`` by one
    positive factor, read from one per-axis power table.  A common positive
    factor changes neither the sign of a coordinate, nor linear
    independence over Q, nor whether ``Σ_K ρ_K^m·u_K(r)`` vanishes.
    """

    def __init__(self, ev):
        self.order, self.k = ev.order, ev.k
        active = sorted({I for rows in ev.terms for I, _ in rows})
        # Per axis and active j: |q| times the lcm of the axis's active
        # denominators (one positive factor per axis, so the classes compare
        # and group as the ρ_I do) and the phase; and the order of the phase
        # ratios.
        scaled, phases, moduli = [], [], []
        for i, axis in enumerate(ev.evals):
            js = sorted({I[i] for I in active})
            D = lcm(*(axis[j - 1].den for j in js))
            scaled.append({j: abs(axis[j - 1].num) * (D // axis[j - 1].den) for j in js})
            g = {j: phase(axis[j - 1]) for j in js}
            phases.append(g)
            moduli.append(lcm(1, *(phase_order(g[j] - g[js[0]], ev.order) for j in js[1:])))
        moduli[0] = lcm(moduli[0], ev.k)
        self.moduli = tuple(moduli)
        rho = {I: tuple(up[j] for up, j in zip(scaled, I)) for I in active}
        self.classes = sorted(set(rho.values()))
        ids = {r: K for K, r in enumerate(self.classes)}
        self.width = _phi_taps(ev.order)[0]
        self.table = []
        for rows in ev.terms:
            by_class: dict = {}
            for I, comps in rows:
                by_class.setdefault(ids[rho[I]], []).append((
                    tuple(g[j] for g, j in zip(phases, I)),
                    tuple((t * self.width, f, c) for t, slot in enumerate(comps) for f, c in slot),
                ))
            self.table.append(sorted(by_class.items()))
        # Integer bases per axis: ρ = up/D for m ≥ 0 and ρ⁻¹ = (N/up)/(N/D)
        # for m < 0, with up the class's entry and N the lcm of the up; D and
        # N/D are shared by every class.
        self._bases = []
        for i in range(len(moduli)):
            up = [r[i] for r in self.classes]
            N = lcm(*up)
            self._bases.append((up, [N // u for u in up]))
        self._pows: dict = {}
        self._zeta: dict = {}  # ζ-exponent → its numerators from zeta_terms

    def sums(self, r) -> list[tuple[int, dict]]:
        """``(K, u_K(r))`` for every class with ``u_K(r) ≠ 0``, by class:
        ``u_K(r)`` as its nonzero integer numerators, by position ``t·φ(L) +
        k`` for coordinate k of slot t.  An index's phase at ``r`` is
        ``ζ_{2L}^g``, which is ``ζ^{g/2}`` for even g and ``−ζ^{(g+L)/2}`` for
        odd g (odd L only).  Each term adds its integer times the numerators
        of one ``ζ^x``, read from this form's ``_zeta``."""
        L, zeta = self.order, self._zeta
        out = []
        for K, rows in self.table[r[0] % self.k]:
            poly: dict = {}
            for g, terms in rows:
                g = sum(map(mul, g, r)) % (2 * L)
                q, e = (-1, (g + L) // 2) if g % 2 else (1, g // 2)
                for base, f, c in terms:
                    x = (e + f) % L
                    nums = zeta.get(x)
                    if nums is None:
                        nums = zeta[x] = zeta_terms(L, x)
                    c *= q
                    for k, z in nums:
                        k += base
                        poly[k] = poly.get(k, 0) + c * z
            u = {k: x for k, x in poly.items() if x}
            if u:
                out.append((K, u))
        return out

    def _powers(self, i: int, x: int, ks) -> list[int]:
        # The scaled ρ_K^x on axis i for the classes ks, from the power table
        # of every class.
        p = self._pows.get((i, x))
        if p is None:
            p = self._pows[i, x] = [b ** abs(x) for b in self._bases[i][x < 0]]
        return [p[K] for K in ks]

    def scan(self, coset, ranges, bound=None):
        """Walks ``∏ ranges``, which lies in one open coset ``(classes,
        columns)``, in product order, a prefix at a time: yields ``(head,
        flags)`` for every prefix ``head = (m₁, …, mₙ₋₁)``, up to
        ``bound[:-1]`` when a bound is given, with ``flags[t]`` whether
        ``v(head + (ranges[-1][t],)) ≠ 0``.

        ``χ(d)`` is a root of unity, so ``v(m) ≠ 0`` is whether
        ``Σ_K ρ_K^m·u_K(r)`` has a nonzero power-basis coordinate.  Each
        axis's powers are listed once, restricted to the coset's classes;
        each prefix scales every column by its partial product once, and the
        last axis's powers are dotted into the scaled columns."""
        ks, cols = coset
        *heads, last = [[(x, self._powers(i, x, ks)) for x in r] for i, r in enumerate(ranges)]
        last = [p for _, p in last]
        stop = None if bound is None else bound[:-1]
        for prefix in itertools.product(*heads):
            head = tuple(x for x, _ in prefix)
            if stop is not None and head > stop:
                return
            scaled = cols
            if prefix:
                w = prefix[0][1]
                for _, p in prefix[1:]:
                    w = list(map(mul, w, p))
                scaled = [list(map(mul, w, c)) for c in cols]
            dots = [sum(map(mul, p, scaled[0])) for p in last]
            for c in scaled[1:]:
                dots = [d or sum(map(mul, p, c)) for d, p in zip(dots, last)]
            yield head, list(map(bool, dots))

    def nonzero(self, coset, m) -> bool:
        """``v(m) ≠ 0`` for ``m`` in an open coset: ``scan`` at one degree."""
        return next(self.scan(coset, [(x,) for x in m]))[1][0]


def _single_entry(ev) -> bool:
    # Every term table has a slot that exactly one index reaches: that slot
    # is a single nonzero term a_I^m·c at every degree the table serves.
    for rows in ev.terms:
        slots = len(rows[0][1]) if rows else 0
        if not any(sum(1 for _, comps in rows if comps[t]) == 1 for t in range(slots)):
            return False
    return True


def _lam_leung(ev, form: _CosetSums) -> bool:
    """Some slot never vanishes by Lam–Leung (J. Algebra 224, 2000).

    With one torsion class, slot c of v(m) is ρ^m·φ_{I₀}^m times a sum of
    ``W = Σ_I λ_I[c]`` roots of unity of order dividing ``M = lcm(Mᵢ)``; such a
    sum vanishes only if ``W ∈ ℕp₁ + … + ℕp_r`` for the primes ``pᵢ | M``."""
    primes = _prime_factors(lcm(*form.moduli))
    rows = ev.terms[0]
    for t in range(len(rows[0][1])):
        w = sum(q for _, comps in rows for _, q in comps[t])
        if w and not _in_semigroup(w, primes):
            return True
    return False


def _in_semigroup(w: int, primes: list[int]) -> bool:
    """``w ∈ ℕp₁ + … + ℕp_r`` for increasing primes."""
    if len(primes) >= 2 and w >= (primes[0] - 1) * (primes[1] - 1):
        return True  # Sylvester: ℕp₁ + ℕp₂ holds every w from there on
    if len(primes) <= 1:
        return w % primes[0] == 0 if primes else w == 0
    p = primes[-1]
    return any(_in_semigroup(w - j * p, primes[:-1]) for j in range(w // p + 1))


def _coset_status(form: _CosetSums, r):
    """The coset ``r + D`` from its class sums: True (inside), False
    (outside), or, left open, its nonzero class sums as ``(classes,
    columns)`` for ``_CosetSums.scan``.

    Inside is ``Σ_K c_K·u_K ≠ 0`` for every choice of ``c_K > 0``.  The rows of
    ``form.sums`` are the ``u_K`` as sparse integer numerators, and the
    columns are the positions where some row is nonzero, in increasing order,
    each as the tuple of the rows' entries there.  The first column whose
    entries share one sign settles the coset.  Otherwise the rows'
    independence over Q (the rank of their Hermite form on the columns) is
    tested, and only when there are as many columns as rows, since the rank
    is at most the smaller count."""
    sums = form.sums(r)
    rows = [u for _, u in sums]
    if len(rows) < 2:
        return bool(rows)
    cols = []
    for k in sorted(set().union(*rows)):
        vals = tuple(u.get(k, 0) for u in rows)
        if min(vals) >= 0 < max(vals) or max(vals) <= 0 > min(vals):
            return True  # one sign on a power-basis coordinate
        cols.append(vals)
    if len(cols) >= len(rows) and Lattice.from_generators(zip(*cols)).rank == len(rows):
        return True
    return [K for K, _ in sums], cols


def _dominance_steps(lead: int, rest: int, ratio: Fraction, limit: int) -> int | None:
    # Least s ≥ 0 with lead·ratio^s > rest, or None past ``limit``.
    s = 0
    while lead <= rest:
        s += 1
        if s > limit:
            return None
        lead *= ratio
    return s


def _window_zeros(form: _CosetSums, r0: int, coset, limit: int):
    """n = 1: the zeros of v on the open coset ``r₀ + MZ``, or None past
    ``limit``.

    On a power-basis coordinate, ``v(r₀ + Mt)/χ = Σ_K w_K·β_K^t`` with
    ``β_K = ρ_K^M`` distinct and ``w_K`` rational: a real exponential sum.  Its
    term of largest base dominates once ``|w_top|·(β_top/β_next)^t`` exceeds
    the other ``|w_K|`` together (t ≥ 0), and likewise the smallest base for
    t ≤ 0; every zero therefore lies in the window between, which is tested
    with ``form.nonzero``.  The scaled classes of ``form`` change every
    ``w_K`` by one positive factor and no ratio ``β_K/β_J``, so the window is
    the same.  Returns ``(window size, zeros)`` for the narrowest window."""
    M = form.moduli[0]
    rho = [form.classes[K][0] for K in coset[0]]
    best = None
    for col in coset[1]:
        ws = sorted((p ** M, p ** r0 * x) for p, x in zip(rho, col) if x)
        if len(ws) < 2:
            continue
        hi = _dominance_steps(
            abs(ws[-1][1]), sum(abs(w) for _, w in ws[:-1]), Fraction(ws[-1][0], ws[-2][0]), limit
        )
        lo = _dominance_steps(
            abs(ws[0][1]), sum(abs(w) for _, w in ws[1:]), Fraction(ws[1][0], ws[0][0]), limit
        )
        if hi is not None and lo is not None:
            window = range(1 - lo, hi)
            if best is None or len(window) < len(best):
                best = window
    if best is None or len(best) > limit:
        return None
    zeros = [(r0 + M * t,) for t in best if not form.nonzero(coset, (r0 + M * t,))]
    return len(best), zeros


@dataclass
class _Certificate:
    """Membership in the nonvanishing set by coset lookup.

    ``status`` maps each coset representative of ``D = ⊕ moduliᵢZ`` to its
    ``_coset_status``.  A coset the ladder did not scan (the scan was over
    budget) gets its status from ``form`` on the first lookup.  ``zeros`` are
    the exact zeros found inside certified cosets.  When every coset is
    certified, the set is a lattice iff it agrees with it on ``checks``: the
    generators of D and the representatives."""

    label: str
    moduli: tuple[int, ...]
    status: dict
    zeros: list = field(default_factory=list)
    form: _CosetSums | None = None

    def coset(self, r):
        """The status of the coset ``r + D``, for a representative ``r``."""
        st = self.status.get(r)
        if st is None:
            st = self.status[r] = _coset_status(self.form, r)
        return st

    def member(self, m) -> bool:
        st = self.coset(tuple(x % M for x, M in zip(m, self.moduli)))
        if isinstance(st, bool):
            return st and tuple(m) not in self.zeros
        return self.form.nonzero(st, m)

    @property
    def gens(self) -> list:
        """The generators ``Mᵢ·eᵢ`` of D."""
        n = len(self.moduli)
        return [tuple(M if i == j else 0 for j in range(n)) for i, M in enumerate(self.moduli)]

    @property
    def checks(self) -> list:
        return self.gens + list(self.status)


def _certify(ev, bounds) -> _Certificate:
    """The certificate ladder, cheapest first (see ``nonvanishing_support``)."""
    n = len(ev.evals)
    everything = {(0,) * n: True}
    if _single_entry(ev):
        return _Certificate("single-entry", (1,) * n, everything)
    form = _CosetSums(ev)
    if ev.lam_leung and len(form.classes) == 1 and _lam_leung(ev, form):
        return _Certificate("lam-leung", (1,) * n, everything)
    budget = 1
    for b in bounds:
        budget *= 2 * max(6, 2 * b) + 1  # the audit cube
    spent = 1
    for M in form.moduli:
        spent *= M
    if spent > budget:
        return _Certificate("audit", form.moduli, {}, form=form)
    status: dict = {}
    zeros: list = []
    label = "domain"
    for r in itertools.product(*(range(M) for M in form.moduli)):
        verdict = _coset_status(form, r)
        if not isinstance(verdict, bool):
            found = _window_zeros(form, r[0], verdict, budget - spent) if n == 1 else None
            if found is not None:
                spent += found[0]
                zeros += found[1]
                verdict = True
                label = "descartes"
        status[r] = verdict
    if not all(isinstance(st, bool) for st in status.values()):
        label = "audit"
    # n = 1: the order verify_support scans in (box_scan_order), not the cube's.
    zeros.sort(key=lambda m: (abs(m[0]), -m[0]))
    return _Certificate(label, form.moduli, status, zeros, form)


def _first_mismatch(lat: Lattice, cert: _Certificate, radii) -> tuple | None:
    """The first degree of the cube ``∏[−aᵢ, aᵢ]``, in ``itertools.product``
    order, where ``lat`` and ``cert.member`` disagree, or None.

    Membership in Γ is constant on a settled coset ``r + D`` that holds no
    exact zero, and so is membership in ``lat`` once ``D ⊂ lat``: one test at
    the coset's first cube degree decides all of it.  An open coset needs one
    ``lat`` test, and its cube degrees are walked in product order by
    ``form.scan``, a prefix at a time; a coset with an exact zero, or every
    coset when ``D ⊄ lat``, is tested per degree on both sides.  Product
    order is lexicographic, so the answer is the least of the cosets' first
    mismatches.  Cosets are visited in the order of their first cube degree,
    and the search keeps the least mismatch so far: a coset's walk ends
    before the first prefix past it (and a per-degree scan at the first
    degree past it), and the visit at a coset that starts past it."""
    periodic = all(map(lat.contains, cert.gens))
    holes = {tuple(x % M for x, M in zip(m, cert.moduli)) for m in cert.zeros}
    # Per axis, the cube degrees of each residue class as a range, by least
    # degree; the product of these lists is in the order of the first degrees.
    axes = [
        [range(x, a + 1, M) for x in range(-a, min(a + 1, M - a))]
        for a, M in zip(radii, cert.moduli)
    ]
    best = None
    for ranges in itertools.product(*axes):
        first = tuple(p.start for p in ranges)
        if best is not None and first > best:
            break
        r = tuple(x % M for x, M in zip(first, cert.moduli))
        if periodic and r not in holes:
            st, inside = cert.coset(r), lat.contains(first)
            if isinstance(st, bool):
                if st != inside:
                    best = first
                continue
            for head, flags in cert.form.scan(st, ranges, best):
                if (not inside) in flags:
                    m = head + (ranges[-1][flags.index(not inside)],)
                    if best is None or m < best:
                        best = m
                    break
            continue
        for m in itertools.product(*ranges):
            if best is not None and m > best:
                break
            if lat.contains(m) != cert.member(m):
                best = m
                break
    return best


def nonvanishing_support(ev, bounds, ordering=None) -> SupportLattice:
    """The set ``Γ = {m : ev.is_nonzero(m)}`` as a full-rank lattice.

    ``ev`` is an evaluator with a term table (``Evaluator``,
    ``twisted.TwistedEvaluator``), one variable per axis of ``ev.evals``.
    Γ is decided from the term table and the integer class sums ``u_K(r)``
    of ``_CosetSums`` alone; ``ev`` is never evaluated.  The rungs, in
    order, and the ``certificate`` they leave on the result:

    * ``single-entry``: a slot that exactly one index reaches never vanishes,
      so Γ = Zⁿ.
    * ``lam-leung``: one torsion class, and a slot whose weight lies outside
      ``ℕp₁ + … + ℕp_r`` for the primes of ``lcm(Mᵢ)``; Γ = Zⁿ (untwisted
      only).
    * ``domain``: every coset ``r + D`` is decided by its class sums — none
      active: outside Γ; one active: inside; two or more: inside when they
      are linearly independent over Q or share one sign on a power-basis
      coordinate (the ``ρ_K^{r+d}`` are positive).
    * ``descartes``: as ``domain``, with the remaining cosets of an n = 1
      functional settled by a dominance window that lists every zero.
    * ``audit``: some coset is left open (n ≥ 2, or an n = 1 window would
      cost more than the cube), and closure is checked on the cube of radii
      ``max(6, 2·max(rᵢ, boundsᵢ))`` per D-coset (``_first_mismatch``): one
      lattice test for a settled coset, and per degree only in open ones,
      walked a prefix at a time (``_CosetSums.scan``).  A degree ``m`` of an
      open coset is decided from its class sums: ``Σ_K ρ_K^m·u_K(r) ≠ 0``,
      in integers.  When the coset scan itself
      would cost more than the cube, no coset is scanned ahead, and each
      coset the cube reaches is decided from its class sums on first use.

    Every rung yields exact membership by lookup.  From it the axis periods
    ``rᵢ`` (searched up to ``boundsᵢ``) and the members of the box
    ``∏[0, rᵢ)`` generate the lattice, together with the ``rᵢeᵢ`` (in
    ``ordering``, see ``Lattice.from_generators``).  Below ``audit``, closure
    is decided exactly: with no exact zero, Γ is a union of D-cosets, so it
    is this lattice iff both contain D and agree on the representatives.  A
    failure reports the first mismatch on the audit cube in lexicographic
    order, and otherwise an exact zero (which lies in the group Γ generates)
    or the mismatching check.
    """
    cert = _certify(ev, bounds)
    n = len(ev.evals)
    member = cert.member
    periods = []
    for i in range(n):
        m = [0] * n
        for t in range(1, bounds[i] + 1):
            m[i] = t
            if member(m):
                periods.append(t)
                break
        else:
            raise NoPeriodWithinBoundError(
                "axis functional vanishes on the whole search range",
                axis=i + 1,
                bound=bounds[i],
            )
    gens = [m for m in itertools.product(*(range(r) for r in periods)) if member(m)]
    for i, r in enumerate(periods):
        e = [0] * n
        e[i] = r
        gens.append(tuple(e))
    lat = Lattice.from_generators(gens, n=n, ordering=ordering)
    radii = [max(6, 2 * max(r, b)) for r, b in zip(periods, bounds)]

    def mismatch(m) -> bool:
        return lat.contains(m) != member(m)

    failed = bool(cert.zeros) or (cert.label != "audit" and any(map(mismatch, cert.checks)))
    witness = None
    if failed or cert.label == "audit":
        witness = _first_mismatch(lat, cert, radii)
    if witness is None and failed:
        witness = cert.zeros[0] if cert.zeros else next(filter(mismatch, cert.checks))
    if witness is not None:
        raise SupportNotSubgroupError(
            "nonvanishing degrees are not closed under the group operations",
            witness=witness,
        )
    index = lat.index
    assert index is not None  # rᵢ·eᵢ generators force full rank
    return SupportLattice(
        lattice=lat, periods=tuple(periods), index=index, certificate=cert.label
    )


def support_lattice(spec: PsiSpec) -> SupportLattice:
    """Support Γ = {m : v(m) ≠ 0} with axis periods and index.

    Valid only when the nonvanishing set is a subgroup; exactly tuned weight
    tables can produce isolated cancellations inside the generated subgroup
    (the algebra image is then strictly larger), and these raise
    SupportNotSubgroupError instead of returning a lattice.
    """
    if spec.is_trivial():
        raise TrivialModuleError("all weights are zero")
    return nonvanishing_support(Evaluator(spec), spec.dims)


def box_scan_order(n: int, radius: int) -> list[tuple[int, ...]]:
    """Degrees with |mᵢ| ≤ radius: increasing max-norm, ties reverse-lex."""
    pts = itertools.product(*(range(-radius, radius + 1) for _ in range(n)))
    return sorted(pts, key=lambda m: (max(abs(x) for x in m), tuple(-x for x in m)))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_support(spec: PsiSpec, support: SupportLattice, radius: int) -> VerifyResult:
    """Audit: membership in Γ must match direct nonvanishing on the cube."""
    ev = Evaluator(spec)
    for m in box_scan_order(spec.n, radius):
        if support.lattice.contains(m) != ev.is_nonzero(m):
            return VerifyResult(ok=False, counterexample=m)
    return VerifyResult(ok=True)
