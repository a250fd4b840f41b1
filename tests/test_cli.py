import json
import time
from pathlib import Path

import pytest

from framecat.cli import main
from framecat.corpus import m3_lattice, pair_groupoid
from framecat.documents import WorkbenchDocument, serialize_document
from framecat.order import FiniteFrame

EXPECTED_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "corpus.json"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    assert main(["corpus", "emit", str(d)]) == 0
    return d


def test_corpus_emit_writes_documents(fixture_dir):
    files = sorted(p.name for p in fixture_dir.glob("*.json"))
    assert "pair2.topcategory.json" in files
    assert "omega-pair2.rqf.json" in files
    assert "pi-omega-pair2.crm.json" in files


def test_validate_passes_on_corpus_document(fixture_dir, capsys):
    code = main(["validate", str(fixture_dir / "pair3.topcategory.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "0 failed" in out


def test_validate_fails_on_m3(tmp_path, capsys):
    doc = WorkbenchDocument("frame", "m3", FiniteFrame(m3_lattice()))
    path = tmp_path / "m3.frame.json"
    path.write_text(serialize_document(doc))
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "frame.distributivity" in out


def test_missing_file_is_an_input_error(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2


def test_unparseable_file_is_an_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_unknown_command_is_an_input_error():
    assert main(["frobnicate"]) == 2


def test_bound_exceeded_exit_code(fixture_dir):
    code = main(["--max-elements", "4", "omega",
                 str(fixture_dir / "pair2.topcategory.json")])
    assert code == 3


def test_omega_command_emits_rqf(fixture_dir, tmp_path, capsys):
    out_path = tmp_path / "omega.json"
    code = main(["omega", str(fixture_dir / "semilattice-monoid.topcategory.json"),
                 "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "rqf"
    assert doc["payload"]["n"] == 4


def test_cpoints_command_emits_topcategory(fixture_dir, capsys):
    code = main(["cpoints", str(fixture_dir / "omega-pair2.rqf.json")])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "topcategory"
    assert doc["payload"]["arrows"] == 4


def test_roundtrip_command_on_category(fixture_dir, capsys):
    code = main(["roundtrip", str(fixture_dir / "pair2.topcategory.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "omega-isomorphism" in out and "chi-on-omega-image" in out


def test_roundtrip_command_on_rqf(fixture_dir, capsys):
    code = main(["roundtrip", str(fixture_dir / "omega-semilattice-monoid.rqf.json")])
    assert code == 0


def test_crm_command_roundtrips(fixture_dir, capsys):
    assert main(["crm", str(fixture_dir / "omega-pair2.rqf.json")]) == 0
    assert main(["crm", str(fixture_dir / "pi-omega-pair2.crm.json")]) == 0


@pytest.mark.parametrize("name", ["qframe-chain64", "qframe-bool6"])
def test_crm_command_on_64_element_monoids_is_fast(fixture_dir, capsys, name):
    # PI of these frames has 64 elements; a completeness check that walks
    # every compatible subset takes over 80 s on each
    start = time.perf_counter()
    code = main(["crm", str(fixture_dir / f"{name}.rqf.json")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out
    assert elapsed < 5


def test_adjoint_command_theorem_one(fixture_dir, capsys):
    code = main(["adjoint", str(fixture_dir / "pair2.topcategory.json"),
                 str(fixture_dir / "omega-pair2.rqf.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "homset sizes (2, 2)" in out


def test_adjoint_command_theorem_two(fixture_dir, capsys):
    code = main(["adjoint", str(fixture_dir / "pair2.topcategory.json"),
                 str(fixture_dir / "pi-omega-pair2.crm.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "adjunction-II" in out


def test_json_format_summary(fixture_dir, capsys):
    code = main(["--format", "json", "validate",
                 str(fixture_dir / "chain3.frame.json")])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["checks"]


def test_corpus_run_matches_expected_summary(capsys):
    expected = json.loads(EXPECTED_CORPUS.read_text(encoding="utf-8"))
    assert main(["--format", "json", "corpus", "run"]) == 0
    payload = json.loads(capsys.readouterr().out)

    def without_seconds(checks):
        return [{k: v for k, v in c.items() if k != "seconds"} for c in checks]
    assert without_seconds(payload["checks"]) == without_seconds(expected["checks"])
    assert (payload["total"], payload["failed"]) == (expected["total"], expected["failed"])


def test_category_document_above_arrow_limit_exits_3(tmp_path):
    doc = {"kind": "category", "name": "huge",
           "payload": {"arrows": 1048575, "identities": [], "d": [], "r": [], "comp": []}}
    path = tmp_path / "huge.category.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 3


@pytest.mark.parametrize("kind,payload", [
    ("poset", {"n": 4097, "leq": [[]] * 4097}),
    ("crm", {"n": 4097, "leq": [[]] * 4097, "mul": [], "unit": 0, "zero": 0,
             "star": [], "plus": [], "meet": []}),
])
def test_table_side_above_limit_exits_3_before_allocating(tmp_path, capsys, kind, payload):
    path = tmp_path / f"huge.{kind}.json"
    path.write_text(json.dumps({"kind": kind, "name": "huge", "payload": payload}))
    assert main(["validate", str(path)]) == 3
    assert "$.payload.n" in capsys.readouterr().err


def test_failed_invariant_in_c_object_exits_4(fixture_dir, monkeypatch, capsys):
    from framecat import functors
    from framecat.topcat import Topology

    def topology_missing_one_x_set(n, base):
        # the opens of the base alone, not their unions: some X_a is not open
        return Topology(n, frozenset(set(base) | {0}))
    monkeypatch.setattr(functors, "topology_from_base", topology_missing_one_x_set)
    code = main(["cpoints", str(fixture_dir / "omega-pair2.rqf.json")])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal error: X_")


def test_x_set_without_isometry_decomposition_exits_4(fixture_dir, monkeypatch, capsys):
    from framecat import functors
    # with the bottom as the only isometry, no nonzero X_a is a union of X_p
    monkeypatch.setattr(functors, "partial_isometries", lambda q: [q.bottom])
    code = main(["cpoints", str(fixture_dir / "omega-pair2.rqf.json")])
    assert code == 4
    assert "disagrees with its isometry decomposition" in capsys.readouterr().err


def test_validate_functor_document(tmp_path, capsys):
    import numpy as np
    from framecat.documents import StructMorphism
    tc = pair_groupoid(2)
    m = StructMorphism("functor", tc, tc, np.array([3, 2, 1, 0], dtype=np.int64))
    path = tmp_path / "swap.functor.json"
    path.write_text(serialize_document(WorkbenchDocument("functor", "swap", m)))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "continuity" in out
