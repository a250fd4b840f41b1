"""The workbench file format.

UTF-8 JSON with a top-level "kind" discriminator and index-based tables.
Canonical serialization sorts keys and arrays-of-sets, so parse o serialize
is the identity on canonical bytes.  Parse errors carry a line/column
(syntax) or a field path (semantics).

Tables are read whole: a fast test (the shape, every cell a plain int, or
0/1 for a boolean table) and one numpy conversion with a vectorised range
test.  A table that fails the test is scanned cell by cell, and the scan
raises at the first bad row or cell with its path, so errors do not depend
on the fast test.  Documents are written by `_canonical`, which joins each
container once; its text is that of json.dumps(raw, sort_keys=True,
indent=1, separators=(",", ": ")), whose pure-Python indented encoder is
kept in the tests as its oracle.  Payloads keep their tables as int64
arrays, and no Python int is made per cell: `_table` gathers a vocabulary
of one string per value (its text and the separator after it) with the
table as index and joins the result once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .bits import iter_bits, mask_of
from .crm import CompleteRestrictionMonoid, make_crm
from .order import FiniteFrame, FiniteLattice, FinitePoset
from .quantale import EhresmannQuantale, FiniteQuantale, make_eq
from .reports import MAX_TABLE_SIDE, BoundExceeded, WorkbenchError
from .topcat import FiniteCategory, FiniteTopCategory, Topology, make_category

KINDS = ("poset", "frame", "quantale", "rqf", "category", "topcategory",
         "crm", "morphism", "functor")


class ParseError(WorkbenchError):
    def __init__(self, message: str, path: str = "", line: Optional[int] = None,
                 column: Optional[int] = None):
        self.path = path
        self.line = line
        self.column = column
        where = path or (f"line {line}, column {column}" if line else "")
        super().__init__(f"{message}" + (f" at {where}" if where else ""))


@dataclass
class WorkbenchDocument:
    kind: str
    name: str
    obj: object
    expected: Optional[dict] = None


# ---------------------------------------------------------------------------
# field readers

def _need(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ParseError(f"missing field '{key}'", path)
    return d[key]


def _int_in_range(v, lo: int, hi: int, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not (lo <= v < hi):
        raise ParseError(f"expected integer in [{lo},{hi})", path)
    return v


def _table_side(p: dict, key: str, lo: int, path: str) -> int:
    """The field `key`, read as the side of the n x n tables of the document.
    The tables are n x n however short the document is, so a side above
    MAX_TABLE_SIDE is refused before any of them is allocated."""
    n = _int_in_range(_need(p, key, path), lo, 1 << 20, f"{path}.{key}")
    if n > MAX_TABLE_SIDE:
        raise BoundExceeded(f"table side {n} > {MAX_TABLE_SIDE} at {path}.{key}")
    return n


def _rows(v, n: int, m: int) -> bool:
    return (isinstance(v, list) and len(v) == n
            and all(isinstance(row, list) and len(row) == m for row in v))


def _ints_in_range(v, shape: tuple, lo: int, hi: int) -> Optional[np.ndarray]:
    """`v` (its shape already checked) as an int64 array if every cell is a
    plain int in [lo, hi); None if some cell is not, so the caller scans."""
    try:
        out = np.array(v, dtype=np.int64).reshape(shape)
    except OverflowError:
        return None
    return out if out.size == 0 or (lo <= out.min() and out.max() < hi) else None


def _int_matrix(v, n: int, m: int, hi: int, path: str) -> np.ndarray:
    if _rows(v, n, m) and all(set(map(type, row)) <= {int} for row in v):
        out = _ints_in_range(v, (n, m), 0, hi)
        if out is not None:
            return out
    # the scan names the first bad row or cell
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"expected {n} rows", path)
    out = np.zeros((n, m), dtype=np.int64)
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"expected {m} entries", f"{path}[{i}]")
        for j, x in enumerate(row):
            out[i, j] = _int_in_range(x, 0, hi, f"{path}[{i}][{j}]")
    return out


def _bool_matrix(v, n: int, path: str) -> np.ndarray:
    try:
        if _rows(v, n, n) and all(set(row) <= {0, 1} for row in v):
            return np.array(v, dtype=bool).reshape(n, n)
    except TypeError:  # an unhashable cell
        pass
    # the scan names the first bad row or cell
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"expected {n} rows", path)
    out = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"expected {n} entries", f"{path}[{i}]")
        for j, x in enumerate(row):
            if x not in (0, 1, True, False):
                raise ParseError("expected 0/1", f"{path}[{i}][{j}]")
            out[i, j] = bool(x)
    return out


def _int_vector(v, n: int, hi: int, path: str) -> np.ndarray:
    if isinstance(v, list) and len(v) == n and set(map(type, v)) <= {int}:
        out = _ints_in_range(v, (n,), 0, hi)
        if out is not None:
            return out
    # the scan names the first bad entry
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"expected {n} entries", path)
    return np.array([_int_in_range(x, 0, hi, f"{path}[{i}]") for i, x in enumerate(v)],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# per-kind parsing

def _parse_poset(p: dict, path: str) -> FinitePoset:
    n = _table_side(p, "n", 0, path)
    leq = _bool_matrix(_need(p, "leq", path), n, f"{path}.leq")
    return FinitePoset.from_leq(leq)


def _parse_frame(p: dict, path: str) -> FiniteFrame:
    poset = _parse_poset(p, path)
    n = poset.n
    meet = _int_matrix(_need(p, "meet", path), n, n, n, f"{path}.meet")
    join = _int_matrix(_need(p, "join", path), n, n, n, f"{path}.join")
    bottom = _int_in_range(_need(p, "bottom", path), 0, n, f"{path}.bottom")
    top = _int_in_range(_need(p, "top", path), 0, n, f"{path}.top")
    for a in (meet, join):
        a.flags.writeable = False
    return FiniteLattice(poset.n, poset.leq, meet, join, bottom, top)


def _parse_quantale(p: dict, path: str) -> FiniteQuantale:
    f = _parse_frame(p, path)
    n = f.n
    mul = _int_matrix(_need(p, "mul", path), n, n, n, f"{path}.mul")
    unit = _int_in_range(_need(p, "unit", path), 0, n, f"{path}.unit")
    mul.flags.writeable = False
    return FiniteQuantale(n, f.leq, f.meet, f.join, f.bottom, f.top, mul, unit)


def _parse_rqf(p: dict, path: str) -> EhresmannQuantale:
    quantale = _parse_quantale(p, path)
    n = quantale.n
    star = _int_vector(_need(p, "star", path), n, n, f"{path}.star")
    plus = _int_vector(_need(p, "plus", path), n, n, f"{path}.plus")
    return make_eq(quantale, quantale.mul, quantale.unit, star, plus)


def _parse_category(p: dict, path: str) -> FiniteCategory:
    n = _table_side(p, "arrows", 0, path)
    ids_raw = _need(p, "identities", path)
    if not isinstance(ids_raw, list):
        raise ParseError("expected a list", f"{path}.identities")
    ids = [_int_in_range(x, 0, max(n, 1), f"{path}.identities[{i}]")
           for i, x in enumerate(ids_raw)]
    d = _int_vector(_need(p, "d", path), n, max(n, 1), f"{path}.d")
    r = _int_vector(_need(p, "r", path), n, max(n, 1), f"{path}.r")
    comp_raw = _need(p, "comp", path)
    if not isinstance(comp_raw, list):
        raise ParseError("expected a list of [a, b, ab] triples", f"{path}.comp")
    entries = []
    for i, t in enumerate(comp_raw):
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError("expected [a, b, ab]", f"{path}.comp[{i}]")
        entries.append(tuple(_int_in_range(x, 0, n, f"{path}.comp[{i}][{j}]")
                             for j, x in enumerate(t)))
    return make_category(n, ids, d, r, comp_entries=entries)


def _parse_topology(v, n: int, path: str) -> Topology:
    if v == "discrete":
        return Topology(n, None)
    if not isinstance(v, list):
        raise ParseError("expected \"discrete\" or a list of opens", path)
    opens = set()
    for i, o in enumerate(v):
        if not isinstance(o, list):
            raise ParseError("expected a list of arrow indices", f"{path}[{i}]")
        opens.add(mask_of(_int_in_range(x, 0, n, f"{path}[{i}][{j}]")
                          for j, x in enumerate(o)))
    return Topology(n, frozenset(opens))


def _parse_topcategory(p: dict, path: str) -> FiniteTopCategory:
    cat = _parse_category(p, path)
    top = _parse_topology(_need(p, "topology", path), cat.n, f"{path}.topology")
    return FiniteTopCategory(cat, top)


def _parse_crm(p: dict, path: str) -> CompleteRestrictionMonoid:
    n = _table_side(p, "n", 1, path)
    leq = _bool_matrix(_need(p, "leq", path), n, f"{path}.leq")
    mul = _int_matrix(_need(p, "mul", path), n, n, n, f"{path}.mul")
    unit = _int_in_range(_need(p, "unit", path), 0, n, f"{path}.unit")
    zero = _int_in_range(_need(p, "zero", path), 0, n, f"{path}.zero")
    star = _int_vector(_need(p, "star", path), n, n, f"{path}.star")
    plus = _int_vector(_need(p, "plus", path), n, n, f"{path}.plus")
    meet = _int_matrix(_need(p, "meet", path), n, n, n, f"{path}.meet")
    return make_crm(n, leq, mul, unit, zero, star, plus, meet)


@dataclass
class StructMorphism:
    """A map between two embedded structures; flavor follows the source kind."""
    flavor: str  # "rqf" | "crm" | "functor"
    source: object
    target: object
    map: np.ndarray


def _parse_morphism(p: dict, path: str) -> StructMorphism:
    src_doc = _need(p, "source", path)
    dst_doc = _need(p, "target", path)
    if not isinstance(src_doc, dict) or not isinstance(dst_doc, dict):
        raise ParseError("expected embedded documents", f"{path}.source")
    skind = _need(src_doc, "kind", f"{path}.source")
    dkind = _need(dst_doc, "kind", f"{path}.target")
    if skind != dkind or skind not in ("rqf", "crm"):
        raise ParseError("morphism endpoints must both be rqf or both crm", f"{path}.source.kind")
    parse = _parse_rqf if skind == "rqf" else _parse_crm
    src = parse(_need(src_doc, "payload", f"{path}.source"), f"{path}.source.payload")
    dst = parse(_need(dst_doc, "payload", f"{path}.target"), f"{path}.target.payload")
    m = _int_vector(_need(p, "map", path), src.n, dst.n, f"{path}.map")
    return StructMorphism(flavor=skind, source=src, target=dst, map=m)


def _parse_functor(p: dict, path: str) -> StructMorphism:
    src_doc = _need(p, "source", path)
    dst_doc = _need(p, "target", path)
    for which, doc in (("source", src_doc), ("target", dst_doc)):
        if not isinstance(doc, dict) or doc.get("kind") != "topcategory":
            raise ParseError("functor endpoints must be topcategory documents",
                             f"{path}.{which}.kind")
    src = _parse_topcategory(_need(src_doc, "payload", f"{path}.source"),
                             f"{path}.source.payload")
    dst = _parse_topcategory(_need(dst_doc, "payload", f"{path}.target"),
                             f"{path}.target.payload")
    m = _int_vector(_need(p, "map", path), src.n, max(dst.n, 1), f"{path}.map")
    return StructMorphism(flavor="functor", source=src, target=dst, map=m)


_PARSERS = {
    "poset": _parse_poset,
    "frame": _parse_frame,
    "quantale": _parse_quantale,
    "rqf": _parse_rqf,
    "category": _parse_category,
    "topcategory": _parse_topcategory,
    "crm": _parse_crm,
    "morphism": _parse_morphism,
    "functor": _parse_functor,
}


def parse_document(text: str) -> WorkbenchDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object", "$")
    kind = _need(raw, "kind", "$")
    if kind not in KINDS:
        raise ParseError(f"unknown kind '{kind}'", "$.kind")
    name = raw.get("name", "")
    if not isinstance(name, str):
        raise ParseError("expected a string", "$.name")
    payload = _need(raw, "payload", "$")
    if not isinstance(payload, dict):
        raise ParseError("expected an object", "$.payload")
    obj = _PARSERS[kind](payload, "$.payload")
    expected = raw.get("expected")
    if expected is not None and not isinstance(expected, dict):
        raise ParseError("expected an object", "$.expected")
    return WorkbenchDocument(kind=kind, name=name, obj=obj, expected=expected)


# ---------------------------------------------------------------------------
# serialization

def _ints(a) -> np.ndarray:
    """An integer (or 0/1) array as int64, for `_canonical` to write."""
    return np.asarray(a, dtype=np.int64)


def _poset_payload(p: FinitePoset) -> dict:
    return {"n": p.n, "leq": _ints(p.leq)}


def _frame_payload(f: FiniteFrame) -> dict:
    return {**_poset_payload(f), "meet": _ints(f.meet), "join": _ints(f.join),
            "bottom": f.bottom, "top": f.top}


def _quantale_payload(q: FiniteQuantale) -> dict:
    return {**_frame_payload(q), "mul": _ints(q.mul), "unit": q.unit}


def _rqf_payload(q: EhresmannQuantale) -> dict:
    return {**_quantale_payload(q), "star": _ints(q.star), "plus": _ints(q.plus)}


def _category_payload(c: FiniteCategory) -> dict:
    a, b = np.nonzero(c.comp >= 0)
    return {
        "arrows": c.n,
        "identities": sorted(c.identities()),
        "d": _ints(c.d),
        "r": _ints(c.r),
        "comp": _ints(np.stack([a, b, c.comp[a, b]], axis=1)),
    }


def _topology_payload(t: Topology):
    if t.opens is None:
        return "discrete"
    return [sorted(iter_bits(o)) for o in sorted(t.opens)]


def _topcategory_payload(tc: FiniteTopCategory) -> dict:
    return {**_category_payload(tc.cat), "topology": _topology_payload(tc.topology)}


def _crm_payload(s: CompleteRestrictionMonoid) -> dict:
    return {"n": s.n, "leq": _ints(s.leq), "mul": _ints(s.mul), "unit": s.unit,
            "zero": s.zero, "star": _ints(s.star), "plus": _ints(s.plus),
            "meet": _ints(s.meet)}


def _endpoints_payload(sub: str, m: StructMorphism) -> dict:
    return {"source": {"kind": sub, "payload": _PAYLOADS[sub](m.source)},
            "target": {"kind": sub, "payload": _PAYLOADS[sub](m.target)},
            "map": _ints(m.map)}


def _morphism_payload(m: StructMorphism) -> dict:
    return _endpoints_payload("rqf" if m.flavor == "rqf" else "crm", m)


def _functor_payload(m: StructMorphism) -> dict:
    return _endpoints_payload("topcategory", m)


_PAYLOADS = {
    "poset": _poset_payload,
    "frame": _frame_payload,
    "quantale": _quantale_payload,
    "rqf": _rqf_payload,
    "category": _category_payload,
    "topcategory": _topcategory_payload,
    "crm": _crm_payload,
    "morphism": _morphism_payload,
    "functor": _functor_payload,
}


def payload_of(kind: str, obj) -> dict:
    """The JSON payload of `obj`: plain values, with every table and vector
    an int64 array (json.dumps needs default=np.ndarray.tolist)."""
    if kind not in _PAYLOADS:
        raise WorkbenchError(f"cannot serialize kind '{kind}'")
    return _PAYLOADS[kind](obj)


def _table(a: np.ndarray, indent: str) -> str:
    """A non-empty 2-D table of non-negative ints as `_canonical` writes it at
    `indent`.  The vocabulary has one entry per value from 0 to a.max(): its
    text and the separator that follows it, the cell separator inside a row
    and the row break after the last column.  The table gathers it as an
    index, the final cell loses its separator, and one join writes it all."""
    inner, cell = indent + " ", indent + "  "
    words = [str(x) for x in range(int(a.max()) + 1)]
    in_row = np.array([w + f",\n{cell}" for w in words], dtype=object)
    row_end = np.array([w + f"\n{inner}],\n{inner}[\n{cell}" for w in words], dtype=object)
    out = np.empty(a.shape, dtype=object)
    out[:, :-1] = in_row[a[:, :-1]]
    out[:, -1] = row_end[a[:, -1]]
    out[-1, -1] = words[a[-1, -1]]
    return f"[\n{inner}[\n{cell}" + "".join(out.ravel().tolist()) + f"\n{inner}]\n{indent}]"


def _canonical(v, indent: str) -> str:
    """`v` as json.dumps(v, sort_keys=True, indent=1, separators=(",", ": "))
    writes it when nested at `indent`: one join per container, a list of
    plain ints written with str, and a table (an int array) by `_table`."""
    if isinstance(v, np.ndarray):
        if v.ndim == 2 and v.size and v.min() >= 0:
            return _table(v, indent)
        v = v.tolist()
    inner = indent + " "
    if isinstance(v, dict):
        # json writes a non-string key as the string of its JSON value
        items = (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + _canonical(v[k], inner) for k in sorted(v))
        brackets = "{}"
    elif isinstance(v, (list, tuple)):
        items = (map(str, v) if set(map(type, v)) == {int}
                 else (_canonical(x, inner) for x in v))
        brackets = "[]"
    else:
        return json.dumps(v)
    if not v:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def serialize_document(doc: WorkbenchDocument) -> str:
    raw: dict[str, Any] = {
        "kind": doc.kind,
        "name": doc.name,
        "payload": payload_of(doc.kind, doc.obj),
    }
    if doc.expected is not None:
        raw["expected"] = doc.expected
    return _canonical(raw, "") + "\n"
