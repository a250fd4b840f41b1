import json
import sys
from pathlib import Path

import pytest

import framecat
import framecat.cli  # noqa: F401  every module that imports traced names
from framecat import corpus as cor
from spans import TRACED, Tracer, traced_names
from workloads import per_layer_units


def _holders(fn):
    return [(name, attr) for name, mod in sys.modules.items()
            if name == "framecat" or name.startswith("framecat.")
            for attr, value in vars(mod).items() if value is fn]


@pytest.fixture
def tracer():
    t = Tracer()
    holders = {}
    for mod_name, fns in TRACED.items():
        for fn in fns:
            original = getattr(sys.modules[f"framecat.{mod_name}"], fn)
            holders[f"{mod_name}.{fn}"] = (original, _holders(original))
    t.install()
    yield t, holders
    t.uninstall()
    for original, places in holders.values():
        for mod, attr in places:
            assert getattr(sys.modules[mod], attr) is original


def test_every_holder_is_rebound(tracer):
    t, holders = tracer
    for name, (original, places) in holders.items():
        assert (f"framecat.{name.split('.')[0]}", name.split(".")[1]) in places
        for mod, attr in places:
            assert getattr(sys.modules[mod], attr) is t.wrappers[name], (mod, attr)
        assert _holders(original) == []
    # modules that bind traced functions with from-imports are covered
    assert framecat.suite.validate_rqf is t.wrappers["quantale.validate_rqf"]
    assert framecat.cli.verify_adjunction_I is t.wrappers["duality.verify_adjunction_I"]
    # hot helpers stay unwrapped
    assert not hasattr(framecat.quantale.compatible, "__wrapped__")
    assert not hasattr(framecat.crm.crm_compatible, "__wrapped__")
    assert not hasattr(framecat.bits.iter_bits, "__wrapped__")


def test_counts_and_self_time(tracer):
    t, _ = tracer
    tc = cor.pair_groupoid(2)
    q = framecat.functors.omega_object(tc).rqf
    q_again = framecat.functors.omega_object(cor.pair_groupoid(2)).rqf
    t.reset()
    adj = framecat.duality.verify_adjunction_I(tc, q)
    framecat.duality.verify_adjunction_I(tc, q_again)
    m = t.metrics()
    assert m["duality.verify_adjunction_I.calls"] == 2
    assert m["functors.c_object.calls"] == 2
    assert m["functors.c_object.distinct_ratio"] == 0.5  # equal tables, two objects
    assert m["duality.enumerate_rqf_morphisms.solutions"] == 2 * adj.sizes[1]
    assert m["duality.enumerate_covering_functors.solutions"] == 2 * adj.sizes[0]
    for name in traced_names():
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.s"] + 1e-9
    top = m["duality.verify_adjunction_I.s"]
    assert t.top_level_s == pytest.approx(top)
    children = sum(m[f"{n}.s"] for n in ("functors.c_object", "functors.omega_object",
                                         "duality.enumerate_covering_functors",
                                         "duality.enumerate_rqf_morphisms"))
    assert m["duality.verify_adjunction_I.self_s"] == pytest.approx(top - children, abs=1e-6)


def test_document_bytes(tracer):
    t, _ = tracer
    doc = framecat.documents.WorkbenchDocument("topcategory", "pair2", cor.pair_groupoid(2))
    text = framecat.documents.serialize_document(doc)
    framecat.documents.parse_document(text)
    assert t.bytes_written == t.bytes_parsed == len(text.encode()) > 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == per_layer_units()
    assert len(listed) <= 128
