import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from framecat.cli import main
from framecat.corpus import m3_lattice, pair_groupoid
from framecat.documents import WorkbenchDocument, parse_document, serialize_document

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


@pytest.mark.parametrize("bound,written", [(511, False), (512, True)])
def test_corpus_emit_writes_omega_pair3_and_its_pi_under_one_bound(tmp_path, capsys,
                                                                   bound, written):
    """Omega(pair3) has 512 opens: under --max-elements 511 neither it nor
    PI(Omega(pair3)) is written, 56 documents of 58, and under 512 both are."""
    assert main(["--max-elements", str(bound), "corpus", "emit", str(tmp_path)]) == 0
    files = {p.name for p in tmp_path.glob("*.json")}
    assert len(files) == (58 if written else 56)
    assert ("omega-pair3.rqf.json" in files) == written
    assert ("pi-omega-pair3.crm.json" in files) == written


def test_validate_passes_on_corpus_document(fixture_dir, capsys):
    code = main(["validate", str(fixture_dir / "pair3.topcategory.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "0 failed" in out


def test_validate_fails_on_m3(tmp_path, capsys):
    doc = WorkbenchDocument("frame", "m3", m3_lattice())
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


def test_directory_given_as_document_is_an_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_corpus_emit_onto_a_regular_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["corpus", "emit", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_command_is_an_input_error():
    assert main(["frobnicate"]) == 2


def test_open_naming_an_arrow_of_the_empty_category_is_an_input_error(tmp_path, capsys):
    doc = {"kind": "topcategory", "name": "empty",
           "payload": {"arrows": 0, "identities": [], "d": [], "r": [], "comp": [],
                       "topology": [[], [0]]}}
    path = tmp_path / "empty.topcategory.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.payload.topology[1][0]" in captured.err


def test_bound_exceeded_exit_code(fixture_dir):
    code = main(["--max-elements", "4", "omega",
                 str(fixture_dir / "pair2.topcategory.json")])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["omega", "pair2.topcategory.json"],
    ["roundtrip", "pair2.topcategory.json"],
    ["roundtrip", "omega-pair2.rqf.json"],
    ["crm", "omega-pair2.rqf.json"],
    ["adjoint", "pair2.topcategory.json", "omega-pair2.rqf.json"],
    ["corpus", "run"],
])
def test_max_elements_above_table_side_exits_3_before_allocating(fixture_dir, monkeypatch,
                                                                 capsys, argv):
    """--max-elements 4097 would let Omega of a 12-arrow document build
    4096-by-4096 tables, and one of 16 arrows tables of 32 GiB each; it is
    refused before any command runs.  The table builders fail loudly here,
    so the test allocates nothing whatever the CLI does."""
    from framecat import functors, suite

    def refused(*args, **kwargs):
        raise AssertionError("a table was built")
    for module, name in ((functors, "_omega_discrete"), (functors, "_omega_generic"),
                         (suite, "l_vee")):
        monkeypatch.setattr(module, name, refused)
    files = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    assert main(["--max-elements", "4097", *files]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bound exceeded: max_elements 4097 exceeds hard limit 4096\n"


def test_max_elements_at_table_side_is_accepted(fixture_dir, capsys):
    assert main(["--max-elements", "4096", "omega",
                 str(fixture_dir / "pair2.topcategory.json")]) == 0


def test_max_arrows_above_its_limit_exits_3_before_any_file_is_read(tmp_path, capsys):
    """--max-arrows 17 would let adjunction II list 2^17 S-filter opens; it
    is refused before any command runs, so the missing files, which the
    command would refuse with exit 2, are never read."""
    missing = [str(tmp_path / "missing.topcategory.json"), str(tmp_path / "missing.crm.json")]
    assert main(["--max-arrows", "17", "adjoint", *missing]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bound exceeded: max_arrows 17 exceeds hard limit 16\n"


def test_max_arrows_at_its_limit_is_accepted(fixture_dir, capsys):
    assert main(["--max-arrows", "16", "adjoint", str(fixture_dir / "pair2.topcategory.json"),
                 str(fixture_dir / "pi-omega-pair2.crm.json")]) == 0
    assert "homset sizes (2, 2)" in capsys.readouterr().out


def test_roundtrip_on_rqf_builds_omega_of_c_once(fixture_dir, monkeypatch, capsys):
    """chi and the sobriety of C(Q) share one Omega(C(Q)), built once and
    cached on C(Q)."""
    from framecat import functors
    built = []
    for name in ("_omega_discrete", "_omega_generic"):
        def counted(tc, real=getattr(functors, name)):
            built.append(tc)
            return real(tc)
        monkeypatch.setattr(functors, name, counted)
    assert main(["roundtrip", str(fixture_dir / "omega-pair3.rqf.json")]) == 0
    assert len(built) == 1
    assert "-- 3 checks, 0 failed" in capsys.readouterr().out


@pytest.mark.parametrize("name,text", [
    ("omega-pair2.rqf.json", "an X-set of C(Q)"),
    ("pair2.topcategory.json", "a filter O_x of Omega(C)"),
])
def test_chi_or_omega_outside_the_other_side_exits_4(fixture_dir, monkeypatch, capsys,
                                                     name, text):
    """chi and omega are transposes of identities, which valid input always
    has; a transpose that finds no set is an internal error."""
    from framecat import duality
    monkeypatch.setattr(duality, "transposes", lambda filters, sets: (
        lambda alpha: np.array([-1]), lambda beta: np.array([-1])))
    assert main(["roundtrip", str(fixture_dir / name)]) == 4
    assert capsys.readouterr().err.startswith("internal error: " + text)


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


# sha256 of the document `cpoints` writes for each corpus rqf: the filter
# category C(Q), pinned so that a change to how C(Q) is built cannot change
# its bytes unnoticed
CPOINTS_SHA256 = {
    "omega-empty": "fbac538626fce9937b8fca3f9e33f7ae0e1055a2a053ed8269fbcdec8a3e517d",
    "omega-trivial-monoid": "2d532b36cf6f7a25fcaefb3938858a9a7806ce7d1efddd71e7f22f3d3d30807f",
    "omega-pair1": "2a10e00e944226fbbfdfbc57f72684bb1a6a39aab404ce4f671fc862ee2fcda7",
    "omega-pair2": "9be687db50c15de8241a9079accd4fe3b9a3ea2459fd461a27c15c91e4142016",
    "omega-pair3": "609013b55f589312a81923a8fee03f4df372193a592a668dd90ddc9cf6db2c23",
    "omega-semilattice-monoid": "3c5dbfe17f7db659607171eb4dee137de0f131fcfdca479c6af25907e366915f",
    "omega-cyclic2-monoid": "91cb7f462a03a9df9531ff58d7da4bcb9919857ccda33e58dd4d276ca1c84abd",
    "omega-truncated-free-monoid": "0d811f70cb7c404ecc564d3b8dc88866e84407d889dbc79ca3ead4803895fede",
    "omega-path-category": "d7fc6251d73545aece6e31e3cbf74ee933d32c6dbd2cac0ff15f949ec037c891",
    "omega-parallel-pair": "83039f5c8905d0ea0f0163f02274db741434763f2fbd7f32721614fdb3278600",
    "omega-parity-pair2": "443b006043b235ef9d40a366139c48ea3b45fa515097783599db387dc68e916e",
    "qframe-chain3": "3c298de2302357084b1cabfc19f60f36de53a76a2ff38907f7a6758e96208c74",
    "qframe-chain64": "d4232bb7d950c623e129c75fad5a0fad9b5d6a72ce061a3b8c3f3a50b20d1e3a",
    "qframe-bool2": "ad268a6fd004853452ec758a3e388540f3ce6f6b39852321033c4076133dfadb",
    "qframe-bool6": "a3cc56cb2de54f87d8d06b7ce76a066452559e426ef25ada382ef29c325ed07c",
    "qframe-prod-3x3": "e89eeb9981f9e80dce283c143d40dfe9b8456079b56adad1e12ed796d9ab05f3",
}


def test_cpoints_bytes_are_pinned_on_corpus_rqfs(fixture_dir, tmp_path, capsys):
    """Every rqf document of the corpus that cpoints accepts is a corpus
    rqf, and the topcategory it writes has the pinned bytes; the others are
    the negative fixtures, refused with exit 2."""
    got = {}
    for path in sorted(fixture_dir.glob("*.rqf.json")):
        out = tmp_path / path.name
        code = main(["cpoints", str(path), "--out", str(out)])
        assert code in (0, 2), path.name
        if code == 0:
            got[path.name[:-len(".rqf.json")]] = hashlib.sha256(out.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == CPOINTS_SHA256


@pytest.mark.parametrize("bound,code", [(511, 3), (512, 0)])
def test_cpoints_builds_c_q_under_max_elements(fixture_dir, tmp_path, capsys, bound, code):
    """C(Omega(pair3)) has 512 opens."""
    argv = ["--max-elements", str(bound), "cpoints", str(fixture_dir / "omega-pair3.rqf.json"),
            "--out", str(tmp_path / "c.json")]
    assert main(argv) == code
    refused = "bound exceeded: C(Q) has 512 opens > max_elements=511\n"
    assert capsys.readouterr().err == (refused if code else "")


def test_roundtrip_command_on_category(fixture_dir, capsys):
    code = main(["roundtrip", str(fixture_dir / "pair2.topcategory.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "omega-isomorphism" in out and "chi-on-omega-image" in out


@pytest.mark.parametrize("name", ["category-bad-composability", "indiscrete-pair2"])
def test_roundtrip_reports_the_violations_of_an_invalid_category(fixture_dir, capsys, name):
    path = fixture_dir / f"{name}.topcategory.json"
    code = main(["--format", "json", "roundtrip", str(path)])
    checks = json.loads(capsys.readouterr().out)["checks"]
    law = parse_document(path.read_text()).expected["violated_law"]
    assert code == 1
    assert law in [c["check"] for c in checks if c["status"] == "fail"]
    assert not any(c["check"] in ("omega-isomorphism", "chi-on-omega-image") for c in checks)


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


@pytest.mark.parametrize("category,algebra", [
    ("pair2", "crm-missing-join.crm"),
    ("pair2", "quantale-nonassoc.rqf"),
    ("category-bad-composability", "omega-pair2.rqf"),
    ("pair2", "ehresmann-swapped-star.rqf"),
    ("pair2", "isometries-not-closed.rqf"),
    ("pair2", "non-etale-chain.rqf"),
    ("indiscrete-pair2", "omega-pair2.rqf"),
])
def test_adjoint_reports_the_violations_of_an_invalid_document(fixture_dir, capsys,
                                                               category, algebra):
    paths = [fixture_dir / f"{category}.topcategory.json", fixture_dir / f"{algebra}.json"]
    code = main(["--format", "json", "adjoint", *map(str, paths)])
    checks = json.loads(capsys.readouterr().out)["checks"]
    docs = [parse_document(p.read_text()) for p in paths]
    law = next(doc.expected["violated_law"] for doc in docs if doc.expected)
    assert code == 1
    assert law in [c["check"] for c in checks if c["status"] == "fail"]
    assert not any(c["check"].startswith("adjunction") for c in checks)


@pytest.mark.parametrize("name", ["category-bad-composability", "indiscrete-pair2"])
def test_omega_refuses_an_invalid_or_non_etale_category(fixture_dir, capsys, name):
    assert main(["omega", str(fixture_dir / f"{name}.topcategory.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not an etale topological category")


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


@pytest.mark.parametrize("flag,bound,refused", [
    ("--max-elements", 511, "Omega(C) has 512 opens > max_elements=511"),
    ("--max-arrows", 3, "C has 4 arrows > max_arrows=3"),
])
def test_corpus_run_checks_under_both_bounds(capsys, flag, bound, refused):
    """Omega(pair3) has 512 opens, and pair2, the first category of an
    adjunction check, 4 arrows."""
    assert main([flag, str(bound), "corpus", "run"]) == 3
    assert capsys.readouterr().err == f"bound exceeded: {refused}\n"


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


def write_rqf_morphism(tmp_path, source, target, theta):
    from framecat.documents import StructMorphism
    m = StructMorphism("rqf", source, target, np.asarray(theta, dtype=np.int64))
    path = tmp_path / "theta.morphism.json"
    path.write_text(serialize_document(WorkbenchDocument("morphism", "theta", m)))
    return path


@pytest.mark.parametrize("target,theta,laws", [
    # the identity of the boolean frame on two atoms, into the fixture whose
    # mul has a.a = 0 although a.top = a
    ("quantale-nondistributive", [0, 1, 2, 3],
     {"morphism.semigroup", "morphism.preserves_isometries"}),
    # the atoms of the boolean frame on three atoms onto those of M3: every
    # law holds on the join-irreducibles, but not the meet of {0} and {1, 2}
    ("m3", [0, 1, 2, 4, 3, 4, 4, 4],
     {"morphism.preserves_finite_meets", "morphism.semigroup"}),
])
def test_validate_morphism_into_an_invalid_rqf(tmp_path, capsys, target, theta, laws):
    """A morphism document is checked on all pairs whatever its endpoints:
    the report names each violated law with validate_rqf_morphism's
    witness."""
    from framecat.corpus import boolean_frame, negative_fixtures
    from framecat.duality import validate_rqf_morphism
    from framecat.quantale import frame_as_quantale
    r = (next(f.obj for f in negative_fixtures() if f.name == target) if target != "m3"
         else frame_as_quantale(m3_lattice()))
    q = frame_as_quantale(boolean_frame(len(theta).bit_length() - 1))
    path = write_rqf_morphism(tmp_path, q, r, theta)
    assert main(["--format", "json", "validate", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    rep = validate_rqf_morphism(theta, q, r)
    assert set(rep.laws()) == laws
    assert sorted((c["check"], c["status"], c["witness"]) for c in checks) == sorted(
        (v.law, "fail", list(v.witness)) for v in rep.violations)


@pytest.fixture(scope="module")
def quantale_text(fixture_dir):
    """omega-pair2 of the corpus written as a `quantale` document."""
    rqf = parse_document((fixture_dir / "omega-pair2.rqf.json").read_text()).obj
    return serialize_document(WorkbenchDocument("quantale", "omega-pair2", rqf))


def test_quantale_document_is_byte_stable(quantale_text):
    doc = parse_document(quantale_text)
    assert doc.kind == "quantale" and doc.obj.n == 16
    assert serialize_document(doc) == quantale_text
    assert sorted(json.loads(quantale_text)["payload"]) == [
        "bottom", "join", "leq", "meet", "mul", "n", "top", "unit"]


def test_validate_passes_on_quantale_document(tmp_path, capsys, quantale_text):
    path = tmp_path / "omega-pair2.quantale.json"
    path.write_text(quantale_text)
    assert main(["validate", str(path)]) == 0
    assert "omega-pair2 :: quantale-axioms" in capsys.readouterr().out


# omega-pair2 has unit 9 and bottom 0; each case changes one cell of mul
@pytest.mark.parametrize("a,b,value,law,witness", [
    (9, 1, 2, "quantale.unit_left", [1]),
    (1, 9, 2, "quantale.unit_right", [1]),
    (0, 1, 1, "quantale.zero_left", [1]),
    (1, 0, 1, "quantale.zero_right", [1]),
    (1, 2, 15, "quantale.associativity", [1, 1, 2]),
    (1, 2, 15, "quantale.join_distributivity_left", [1, 1, 2]),
])
def test_validate_reports_mutated_quantale_law(tmp_path, capsys, quantale_text,
                                               a, b, value, law, witness):
    raw = json.loads(quantale_text)
    raw["payload"]["mul"][a][b] = value
    path = tmp_path / "bad.quantale.json"
    path.write_text(json.dumps(raw))
    assert main(["--format", "json", "validate", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"check": law, "status": "fail", "witness": witness} in [
        {k: c.get(k) for k in ("check", "status", "witness")} for c in checks]


def test_every_document_kind_has_one_validator():
    from framecat.documents import KINDS
    from framecat.suite import DOCUMENT_VALIDATORS
    assert sorted(DOCUMENT_VALIDATORS) == sorted(KINDS)


def test_corpus_run_checks_fixture_documents_of_every_kind(tmp_path, monkeypatch, capsys,
                                                          quantale_text):
    """A fixture directory holding documents with a violated law, of kinds
    that the suite's own fixtures do not have: each gives one `parses` row,
    and the run goes on to the documents after it."""
    from framecat import cli
    from framecat.corpus import negative_fixtures

    bad_category = next(i for i in negative_fixtures()
                        if i.name == "category-bad-composability").obj.cat
    docs = {"a.category.json": WorkbenchDocument(
        "category", "a", bad_category, expected={"violated_law": "category.composability"})}
    raw = json.loads(quantale_text)
    raw["payload"]["mul"][9][1] = 2  # unit 9 times 1 is 2, not 1
    for name, law in (("b", "quantale.unit_left"), ("c", "quantale.no_such_law")):
        raw.update(name=name, expected={"violated_law": law})
        docs[f"{name}.quantale.json"] = parse_document(json.dumps(raw))
    docs["d.frame.json"] = WorkbenchDocument("frame", "d", m3_lattice())
    for name, doc in docs.items():
        (tmp_path / name).write_text(serialize_document(doc))
    monkeypatch.setenv("WORKBENCH_CORPUS_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "full_suite_pending", lambda *bounds: [])
    assert main(["--format", "json", "corpus", "run"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["instance"], c["check"], c["status"], c.get("detail")) for c in checks] == [
        ("a.category.json", "parses", "pass", None),
        ("b.quantale.json", "parses", "pass", None),
        ("c.quantale.json", "parses", "fail", "expected quantale.no_such_law"),
        ("d.frame.json", "parses", "pass", None),
    ]


FUZZ_VALUES = [-1, 0, 1, 2, 7, 10**20, True, False, None, "x", 1.0, 1.5, [], [0], {}]


def _leaf_paths(v, path=()):
    if isinstance(v, dict):
        for k in sorted(v):
            yield from _leaf_paths(v[k], path + (k,))
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from _leaf_paths(x, path + (i,))
    else:
        yield path


def test_validate_survives_one_leaf_mutations(fixture_dir, tmp_path, capsys):
    """Each corpus document of at most 200 KB, one payload leaf at a time set
    to a hostile value: validate ends with exit 0-3, never an exception."""
    import random
    rng = random.Random(20231018)
    bad = []
    for src in sorted(fixture_dir.glob("*.json")):
        if src.stat().st_size > 200_000:
            continue
        text = src.read_text()
        leaves = list(_leaf_paths(json.loads(text)["payload"]))
        for _ in range(10):
            raw = json.loads(text)
            *where, last = rng.choice(leaves)
            value = rng.choice(FUZZ_VALUES)
            node = raw["payload"]
            for k in where:
                node = node[k]
            node[last] = value
            path = tmp_path / src.name
            path.write_text(json.dumps(raw))
            try:
                code = main(["validate", str(path)])
            except Exception as e:  # any exception is a finding; keep the mutation
                code = repr(e)
            capsys.readouterr()
            if code not in (0, 1, 2, 3):
                bad.append((src.name, (*where, last), value, code))
    assert not bad
