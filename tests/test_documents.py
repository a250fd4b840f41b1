import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from framecat import corpus, functors
from framecat.corpus import (boolean_frame, chain_frame, generate_corpus, omega_images,
                             pair_groupoid, parity_pair_groupoid)
from framecat.crm import pi_restriction_monoid
from framecat.documents import (ParseError, StructMorphism, WorkbenchDocument,
                                _bool_matrix, _canonical, _int_in_range, _int_matrix,
                                _int_vector, _ints, _table, parse_document, payload_of,
                                serialize_document)
from framecat.functors import omega_object
from framecat.order import validate_frame
from framecat.quantale import validate_rqf
from framecat.topcat import validate_topcategory


def roundtrip(doc: WorkbenchDocument) -> WorkbenchDocument:
    return parse_document(serialize_document(doc))


def test_pair_groupoid_document():
    doc = WorkbenchDocument("topcategory", "pair2", pair_groupoid(2))
    back = roundtrip(doc)
    assert back.kind == "topcategory" and back.name == "pair2"
    assert back.obj.n == 4
    assert sorted(back.obj.cat.identities()) == [0, 3]
    assert back.obj.topology.is_discrete


def test_serialization_is_byte_stable():
    docs = [
        WorkbenchDocument("frame", "bool3", boolean_frame(3)),
        WorkbenchDocument("topcategory", "parity", parity_pair_groupoid()),
        WorkbenchDocument("rqf", "omega2", omega_object(pair_groupoid(2)).rqf),
    ]
    for doc in docs:
        text = serialize_document(doc)
        assert serialize_document(roundtrip(doc)) == text
        # canonical form sorts keys
        raw = json.loads(text)
        assert list(raw) == sorted(raw)


def test_parsed_objects_validate():
    doc = roundtrip(WorkbenchDocument("rqf", "omega2", omega_object(pair_groupoid(2)).rqf))
    assert validate_rqf(doc.obj).ok
    doc = roundtrip(WorkbenchDocument("frame", "chain5", chain_frame(5)))
    assert validate_frame(doc.obj).ok
    doc = roundtrip(WorkbenchDocument("topcategory", "parity", parity_pair_groupoid()))
    assert validate_topcategory(doc.obj).ok


def test_crm_document_roundtrip():
    s, _ = pi_restriction_monoid(omega_object(pair_groupoid(2)).rqf)
    back = roundtrip(WorkbenchDocument("crm", "i2", s))
    assert back.obj.n == 7
    assert (back.obj.mul == s.mul).all()


def test_morphism_document():
    q = omega_object(pair_groupoid(2)).rqf
    m = StructMorphism("rqf", q, q, np.arange(16, dtype=np.int64))
    back = roundtrip(WorkbenchDocument("morphism", "ident", m))
    assert back.obj.flavor == "rqf"
    assert list(back.obj.map) == list(range(16))


def test_functor_document():
    tc = pair_groupoid(2)
    m = StructMorphism("functor", tc, tc, np.array([3, 2, 1, 0], dtype=np.int64))
    back = roundtrip(WorkbenchDocument("functor", "swap", m))
    assert list(back.obj.map) == [3, 2, 1, 0]


def test_empty_category_document():
    from framecat.corpus import empty_category
    back = roundtrip(WorkbenchDocument("topcategory", "empty", empty_category()))
    assert back.obj.n == 0


def test_comp_entry_out_of_range_names_the_field():
    text = json.dumps({
        "kind": "category", "name": "bad",
        "payload": {"arrows": 4, "identities": [0, 3], "d": [0, 0, 3, 3],
                    "r": [0, 3, 0, 3], "comp": [[0, 0, 9]]}})
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "$.payload.comp[0][2]" in str(exc.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_document('{"kind": "poset"')
    assert "line 1" in str(exc.value)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError) as exc:
        parse_document('{"kind": "widget", "name": "x", "payload": {}}')
    assert "$.kind" in str(exc.value)


def test_wrong_arity_names_the_field():
    text = json.dumps({
        "kind": "poset", "name": "bad",
        "payload": {"n": 3, "leq": [[1, 1, 1], [0, 1], [0, 0, 1]]}})
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "$.payload.leq[1]" in str(exc.value)


def test_morphism_endpoint_kinds_must_agree():
    q = omega_object(pair_groupoid(2)).rqf
    from framecat.documents import payload_of
    text = json.dumps({
        "kind": "morphism", "name": "bad",
        "payload": {
            "source": {"kind": "rqf", "payload": payload_of("rqf", q)},
            "target": {"kind": "crm", "payload": {}},
            "map": list(range(16)),
        }}, default=np.ndarray.tolist)
    with pytest.raises(ParseError):
        parse_document(text)


# ---------------------------------------------------------------------------
# the canonical writer against json.dumps, its oracle

def oracle_text(doc: WorkbenchDocument) -> str:
    raw = {"kind": doc.kind, "name": doc.name, "payload": payload_of(doc.kind, doc.obj)}
    if doc.expected is not None:
        raw["expected"] = doc.expected
    return json.dumps(raw, sort_keys=True, indent=1, separators=(",", ": "),
                      default=np.ndarray.tolist) + "\n"


def test_writer_matches_oracle_on_corpus_documents():
    docs = generate_corpus()
    assert len(docs) == 58
    for doc in docs:
        assert serialize_document(doc) == oracle_text(doc), doc.name


def category_key(tc) -> tuple:
    """tc by its tables, so that equal categories built apart are one key."""
    cat = tc.cat
    return cat.n, cat.d.tobytes(), cat.r.tobytes(), cat.comp.tobytes(), tc.topology.opens


def test_generate_corpus_builds_no_omega_image_twice(monkeypatch):
    """Each corpus category with an Omega image has it built once, the crm
    documents reading PI off the rqf documents; counted at the two builders
    of functors.omega_object, with the negative fixtures built beforehand
    and left out of the count."""
    negatives, negative_crm = corpus.negative_fixtures(), corpus.negative_crm_fixture()
    monkeypatch.setattr(corpus, "negative_fixtures", lambda: list(negatives))
    monkeypatch.setattr(corpus, "negative_crm_fixture", lambda: negative_crm)
    built = []
    for name in ("_omega_discrete", "_omega_generic"):
        real = getattr(functors, name)
        monkeypatch.setattr(functors, name,
                            lambda tc, real=real: built.append(category_key(tc)) or real(tc))
    assert len(generate_corpus()) == 58
    assert Counter(built) == Counter(category_key(inst.obj) for _, inst in omega_images())
    assert len(built) == len(omega_images()) == 11


def test_writer_matches_oracle_on_morphism_and_functor():
    q = omega_object(pair_groupoid(2)).rqf
    tc = pair_groupoid(2)
    for doc in (
        WorkbenchDocument("morphism", "ident", StructMorphism("rqf", q, q, np.arange(16))),
        WorkbenchDocument("functor", "swap",
                          StructMorphism("functor", tc, tc, np.array([3, 2, 1, 0]))),
    ):
        assert serialize_document(doc) == oracle_text(doc)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**30, 10**30)
                | st.floats() | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))
@example({"violated_law": "quantale.unit_left", "é": ["ü", -0.0, float("nan"), 10**40]})
@example({"rows": [[], {}, (), [1, True, 2], (1, 2)], "n": [-3, 10**20]})
@example({"keys": {1: 0, 2.5: 1, -7: 2}, "none": {None: 0}, "bool": {False: 1}})
def test_writer_matches_oracle_on_expected_values(expected):
    doc = WorkbenchDocument("poset", "p", chain_frame(2), expected=expected)
    assert serialize_document(doc) == oracle_text(doc)


def canonical_oracle(v) -> str:
    return json.dumps(v, sort_keys=True, indent=1, separators=(",", ": "),
                      default=np.ndarray.tolist)


# the shapes of payload tables: empty, one cell, `comp` triples, n x n
TABLE_SHAPES = (st.sampled_from([(0, 0), (1, 1)])
                | st.integers(0, 6).map(lambda k: (k, 3))
                | st.integers(1, 8).map(lambda n: (n, n)))
TABLES = (TABLE_SHAPES.flatmap(lambda shape: arrays(np.int64, shape,
                                                    elements=st.integers(0, 4096)))
          | TABLE_SHAPES.flatmap(lambda shape: arrays(bool, shape)).map(_ints))


def nested(a: np.ndarray, depth: int):
    """`a` as the table of a payload, `depth` objects down, beside a vector."""
    v = {"t": a, "star": np.arange(3), "n": len(a)}
    for d in range(depth):
        v = {"payload": v, "kind": f"k{d}"} if d % 2 else {"source": v, "map": [d]}
    return v


@settings(max_examples=200, deadline=None)
@given(TABLES, st.integers(0, 4))
@example(np.zeros((0, 3), dtype=np.int64), 1)
@example(np.array([[4096]]), 0)
def test_table_writer_matches_oracle(a, depth):
    if a.size:
        assert _table(a, "") == canonical_oracle(a)
    assert _canonical(nested(a, depth), "") == canonical_oracle(nested(a, depth))
    assert json.loads(_canonical(a, "")) == a.tolist()  # a bool table reads 0/1


def test_payload_through_json_dumps_parses_back():
    for doc in generate_corpus():
        raw = {"kind": doc.kind, "name": doc.name, "payload": payload_of(doc.kind, doc.obj),
               "expected": doc.expected}
        back = parse_document(json.dumps(raw, default=np.ndarray.tolist))
        assert serialize_document(back) == serialize_document(doc), doc.name


# ---------------------------------------------------------------------------
# the whole-table readers against the per-cell scan, their oracle

def scan_int_matrix(v, n, m, hi, path):
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"expected {n} rows", path)
    out = np.zeros((n, m), dtype=np.int64)
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"expected {m} entries", f"{path}[{i}]")
        for j, x in enumerate(row):
            out[i, j] = _int_in_range(x, 0, hi, f"{path}[{i}][{j}]")
    return out


def scan_bool_matrix(v, n, path):
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


def scan_int_vector(v, n, hi, path):
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"expected {n} entries", path)
    return np.array([_int_in_range(x, 0, hi, f"{path}[{i}]") for i, x in enumerate(v)],
                    dtype=np.int64)


HOSTILE_CELLS = [-1, -2, 3, 5, 10**20, -10**20, True, False, 0.0, 1.0, 1.5,
                 None, "x", [], [0], [[0]], {}]
HOSTILE = st.sampled_from(HOSTILE_CELLS)


@st.composite
def corrupted(draw, table):
    """A well-formed table with up to three cells, rows or row counts broken."""
    v = draw(table)
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["cell", "row", "drop", "add", "whole"]))
        if where == "whole":
            return draw(HOSTILE)
        if where == "add":
            v.append(list(v[-1]) if v and isinstance(v[-1], list) else 0)
        elif v and where == "drop":
            v.pop(draw(st.integers(0, len(v) - 1)))
        elif v:
            i = draw(st.integers(0, len(v) - 1))
            if where == "row":
                v[i] = draw(HOSTILE | st.lists(st.integers(0, 2), max_size=5))
            elif isinstance(v[i], list) and v[i]:
                v[i][draw(st.integers(0, len(v[i]) - 1))] = draw(HOSTILE | st.integers(-3, 6))
    return v


def assert_same(fast, scan, *args):
    try:
        want = scan(*args)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            fast(*args)
        assert (str(got.value), got.value.path) == (str(e), e.path)
        return
    got = fast(*args)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert (got == want).all()


@pytest.mark.parametrize("bad", HOSTILE_CELLS, ids=repr)
def test_readers_agree_with_scan_on_one_hostile_cell(bad):
    for i, j in ((0, 0), (2, 1)):
        ints = [[0, 1, 2], [2, 1, 0], [1, 1, 0]]
        ints[i][j] = bad
        assert_same(_int_matrix, scan_int_matrix, ints, 3, 3, 3, "$.t")
        leq = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        leq[i][j] = bad
        assert_same(_bool_matrix, scan_bool_matrix, leq, 3, "$.leq")
        vec = [0, 1, 2]
        vec[i] = bad
        assert_same(_int_vector, scan_int_vector, vec, 3, 3, "$.star")


def rows_of(n, m, cell):
    return st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 4), st.integers(0, 4), st.integers(1, 5))
def test_int_matrix_agrees_with_scan(data, n, m, hi):
    v = data.draw(corrupted(rows_of(n, m, st.integers(0, hi - 1))))
    assert_same(_int_matrix, scan_int_matrix, v, n, m, hi, "$.t")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 4))
def test_bool_matrix_agrees_with_scan(data, n):
    cell = st.sampled_from([0, 1, 0, 1, True, False, 0.0, 1.0])
    v = data.draw(corrupted(rows_of(n, n, cell)))
    assert_same(_bool_matrix, scan_bool_matrix, v, n, "$.leq")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 6), st.integers(1, 5))
def test_int_vector_agrees_with_scan(data, n, hi):
    v = data.draw(st.lists(st.integers(0, hi - 1), min_size=n, max_size=n))
    if data.draw(st.booleans()) and v:
        v[data.draw(st.integers(0, n - 1))] = data.draw(HOSTILE | st.integers(-3, 6))
    v = data.draw(st.sampled_from([v, v, v[:-1], v + [0]]) | HOSTILE)
    assert_same(_int_vector, scan_int_vector, v, n, hi, "$.star")
