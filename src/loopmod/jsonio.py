"""JSON schemas for specs and reports.

Input files carry 1-based table indices and 1-based automorphism node lists.
Scalars serialize as ``{"num", "den", "zeta_pow", "zeta_order"}``; integers
and ``"p/q"`` strings are accepted as rational shorthand.  On load, one
cyclotomic order is fixed for the whole instance — the lcm of every
``zeta_order`` in the file — and all scalars are re-expressed in it; a
twisted spec lifts it to a multiple of the twist order (``TwistedSpec``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .classify import IsoResult, ModuleDescriptor, TwistedWitness
from .cyclotomic import CycScalar
from .errors import InputError
from .lattice import Lattice
from .liealg import build_algebra, build_aut
from .psi import SupportLattice
from .spec import PsiSpec, TwistedSpec
from .twisted import TwistedDescriptor


def _fraction_from(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError("booleans are not numbers", value=value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad rational literal", value=value) from exc
    raise InputError("expected an integer or a 'p/q' string", value=value)


def _int(value, field: str) -> int:
    # Exactly int: int() would truncate a float, read a boolean as 0 or 1 and
    # parse a string such as "0_1".
    if type(value) is not int:
        raise InputError(f"'{field}' must be an integer", value=value)
    return value


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"'{field}' must be a list", value=value)
    return value


def _scalar_orders(raw) -> int:
    if isinstance(raw, dict):
        order = _int(raw.get("zeta_order", 1), "zeta_order")
        if order < 1:
            raise InputError("zeta_order must be positive", value=raw)
        return order
    return 1


def _scalar_from(raw, order: int) -> CycScalar:
    if isinstance(raw, (int, str)):
        return CycScalar(raw if type(raw) is int else _fraction_from(raw), 0, order)
    if isinstance(raw, dict):
        num = raw.get("num")
        if num is None:
            raise InputError("scalar object needs 'num'", value=raw)
        den = _int(raw.get("den", 1), "den")
        if den == 0:
            raise InputError("scalar denominator must be nonzero", value=raw)
        num = _int(num, "num")
        own = _scalar_orders(raw)
        e = _int(raw.get("zeta_pow", 0), "zeta_pow")
        return CycScalar.ratio(num, den, e * (order // own), order)
    raise InputError("bad scalar literal", value=raw)


def scalar_to_json(a: CycScalar) -> dict:
    return {
        "num": a.num,
        "den": a.den,
        "zeta_pow": a.e,
        "zeta_order": a.order,
    }


def parse_spec(doc: dict) -> PsiSpec | TwistedSpec:
    """Parse a spec document; returns a twisted spec when 'aut' is present."""
    if not isinstance(doc, dict):
        raise InputError("spec document must be an object")
    try:
        alg_doc = doc["algebra"]
        series, rank = str(alg_doc["series"]), _int(alg_doc["rank"], "rank")
        n = _int(doc["n"], "n")
        dims = tuple(_int(x, "dims") for x in _list(doc["dims"], "dims"))
        raw_weights = _list(doc["weights"], "weights")
        raw_evals = [_list(axis, "evals") for axis in _list(doc["evals"], "evals")]
    except KeyError as exc:
        raise InputError(f"spec is missing required field {exc}") from exc
    except TypeError as exc:
        raise InputError(f"spec field has the wrong type: {exc}") from exc

    aut_doc = doc.get("aut")
    if aut_doc is not None and not isinstance(aut_doc, dict):
        raise InputError("'aut' must be an object", value=aut_doc)
    order = 1
    for axis in raw_evals:
        for raw in axis:
            order = lcm(order, _scalar_orders(raw))

    weights = {}
    for entry in raw_weights:
        try:
            idx = tuple(_int(x, "index") for x in _list(entry["index"], "index"))
            coords = tuple(_int(x, "coords") for x in _list(entry["coords"], "coords"))
        except (KeyError, TypeError) as exc:
            raise InputError("weight entries need 'index' and 'coords'") from exc
        if idx in weights:
            raise InputError("duplicate weight table entry", index=idx)
        weights[idx] = coords
    # Every weight is checked against the rank before the rank × rank Cartan
    # matrix is built, so a huge rank with short weights costs nothing.
    for idx, coords in weights.items():
        if len(coords) != rank:
            raise InputError("weight has wrong length", index=idx, expected=rank)
    algebra = build_algebra(series, rank)
    evals = tuple(
        tuple(_scalar_from(raw, order) for raw in axis) for axis in raw_evals
    )
    rho = tuple(_fraction_from(x) for x in _list(doc.get("rho", []), "rho"))
    spec = PsiSpec(
        algebra=algebra, n=n, dims=dims, weights=weights, evals=evals, rho=rho
    )
    if aut_doc is None:
        return spec
    try:
        perm = tuple(_int(x, "perm") - 1 for x in _list(aut_doc["perm"], "perm"))
    except KeyError as exc:
        raise InputError("aut needs a 'perm' node list") from exc
    aut = build_aut(algebra, perm)
    declared = aut_doc.get("order")
    if declared is not None and _int(declared, "order") != aut.order:
        raise InputError(
            "declared automorphism order is wrong", declared=declared, actual=aut.order
        )
    return TwistedSpec(base=spec, aut=aut)


def read_spec(path: str) -> bytes:
    """The bytes of the spec file at ``path``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read spec file: {exc}") from exc


def load_spec(path: str, raw: bytes | None = None) -> PsiSpec | TwistedSpec:
    """The spec in the file at ``path``, parsed from ``raw`` when the caller
    has already read the file's bytes."""
    if raw is None:
        raw = read_spec(path)
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal too long to convert, bytes
        # that are not UTF-8, or nesting too deep for the parser.
        raise InputError(f"spec file is not valid JSON: {exc}") from exc
    return parse_spec(doc)


def lattice_to_json(lat: Lattice) -> dict:
    return {
        "n": lat.n,
        "basis": [list(r) for r in lat.rows],
        "ordering": [i + 1 for i in lat.ordering],
        "index": lat.index if lat.index is not None else "infinite",
        "rank": lat.rank,
    }


def support_to_json(s: SupportLattice) -> dict:
    return {
        "lattice": lattice_to_json(s.lattice),
        "periods": list(s.periods),
        "index": s.index,
        "certificate": s.certificate,
    }


def blocks_to_json(blocks) -> list:
    out = []
    for ab in blocks.axes:
        out.append(
            {
                "axis": ab.axis + 1,
                "period": ab.period,
                "block_count": ab.block_count,
                "bases": [scalar_to_json(c) for c in ab.bases],
                "epsilon": scalar_to_json(ab.epsilon),
                "assignment": [
                    {"index": j + 1, "block": blk + 1, "phase": ph}
                    for j, (blk, ph) in enumerate(ab.assignment)
                ],
            }
        )
    return out


def _realization_to_json(d: ModuleDescriptor | TwistedDescriptor) -> dict:
    return {
        "classes": [{"weight": list(w), "size": s} for w, s in d.classes],
        "realization": [{"weight": list(w), "count": c} for w, c in d.realization],
        "statement": d.realization_statement,
    }


def descriptor_to_json(d: ModuleDescriptor) -> dict:
    return {
        "dims": list(d.spec.dims),
        "support": support_to_json(d.support),
        "index": d.p,
        "blocks": blocks_to_json(d.blocks),
        **_realization_to_json(d),
    }


def twisted_descriptor_to_json(d: TwistedDescriptor) -> dict:
    return {
        "dims": list(d.spec.base.dims),
        "type": d.module_type,
        "gamma_mu": support_to_json(d.gamma_mu),
        "m_hat": d.m_hat_n,
        "marginal_index": d.marginal_index,
        "exponent": d.exponent,
        **_realization_to_json(d),
    }


def iso_result_to_json(res: IsoResult) -> dict:
    out: dict = {"isomorphic": res.isomorphic}
    if res.witness is not None:
        w = res.witness
        witness = {
            "tau": [[j + 1 for j in tau] for tau in w.taus],
            "scalings": [scalar_to_json(s) for s in w.scalings],
            "shift": list(w.shift),
        }
        if isinstance(w, TwistedWitness):
            witness["epsilons"] = [scalar_to_json(e) for e in w.epsilons]
        out["witness"] = witness
    else:
        out["witness"] = None
        out["reason"] = res.reason
    return out
