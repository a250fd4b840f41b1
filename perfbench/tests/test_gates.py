"""The correctness gate of each workload passes on the program's real
output and trips when one expected entry is perturbed."""

import copy

import pytest

import workloads as W


def _summary_from(expected):
    checks = [dict(c, seconds=0.5) for c in expected["checks"]]
    return {"checks": checks, "total": expected["total"], "failed": expected["failed"]}


def test_corpus_expected_file_is_the_seed_verdict():
    expected = W.load_expected("corpus")
    assert expected["total"] == len(expected["checks"]) == 227
    assert expected["failed"] == 0
    assert all(c["status"] == "pass" for c in expected["checks"])


def test_corpus_gate_trips_on_a_perturbed_entry():
    expected = W.load_expected("corpus")
    summary = _summary_from(expected)
    assert W.corpus_mismatches(summary, expected) == []

    perturbed = copy.deepcopy(expected)
    perturbed["checks"][7]["status"] = "fail"
    assert len(W.corpus_mismatches(summary, perturbed)) == 1

    missing = copy.deepcopy(summary)
    del missing["checks"][3]
    assert len(W.corpus_mismatches(missing, expected)) == 1

    extra = copy.deepcopy(summary)
    extra["checks"].append({"instance": "x", "check": "y", "status": "pass", "seconds": 0.0})
    assert len(W.corpus_mismatches(extra, expected)) == 1


@pytest.fixture(scope="module")
def homsets():
    return W.Homsets(W.BENCH_DIR.parent, seed=3)


@pytest.fixture(scope="module")
def small_pairs_output(homsets):
    """Part (a) of a homsets pass on seed-relabelled categories; part (b)
    takes half a minute and is left to the benchmark runs."""
    return homsets.small_pairs()


def test_homsets_gate_on_real_output(small_pairs_output):
    expected = W.load_expected("homsets")
    assert len(small_pairs_output) == 200
    assert all(expected[k] == v for k, v in small_pairs_output.items())
    for label in ("identity", "seeded"):
        assert expected[f"I pair3 {label}"] == expected[f"II pair3 {label}"] == [True, 6, 6]


def test_homsets_gate_trips_on_a_perturbed_entry(homsets, small_pairs_output):
    full = dict(small_pairs_output)
    full.update({f"{adj} pair3 {label}": [True, 6, 6]
                 for adj in ("I", "II") for label in ("identity", "seeded")})
    assert homsets.check(full) == []
    assert len(homsets.check(dict(full, **{"II pair3 seeded": [True, 6, 5]}))) == 1
    assert len(homsets.check(dict(full, **{"I pair9 pair9": [True, 0, 0]}))) == 1
    del full["I pair2 cyclic2-monoid"]
    assert len(homsets.check(full)) == 1


def test_documents_gate_on_real_output(tmp_path):
    w = W.Documents(tmp_path, seed=0)
    try:
        output = w.run()
    finally:
        w.cleanup()
    assert len(output) == 58
    assert w.check(output) == []
    name = sorted(output)[5]
    assert len(w.check(dict(output, **{name: "round trip changed the bytes"}))) == 1
    del output[name]
    assert len(w.check(output)) == 1
    w.expected[name] = "0" * 64
    output[name] = W.load_expected("documents")[name]
    assert len(w.check(output)) == 1
    assert not (tmp_path / ".bench_tmp").exists()
