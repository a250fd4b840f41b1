"""The three benchmark workloads and their correctness gates.

A workload object is built during set-up (imports are done and inputs are
generated by then).  ``run()`` is the timed pass: it only calls into the
program and collects raw outputs.  ``check(output)`` runs after the clock
has stopped and returns one line per operation whose output does not match
the committed expected file; each such operation counts as failed.
``cleanup()`` removes whatever the pass left behind.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# program functions are called through their modules, never bound here, so
# that the tracer's rebinding of module attributes intercepts every call
from framecat import cli, crm, documents, duality, functors, topcat
from framecat import corpus as cor
from framecat.topcat import UNDEF, FiniteTopCategory, Topology, make_category
from spans import layer_metric_units

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

# the CLI's default size bounds
MAX_ARROWS = 12
MAX_ELEMENTS = 1024


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8"))


def suite_checks() -> list[str]:
    return sorted({c["check"] for c in load_expected("corpus")["checks"]})


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit, in report order."""
    units = layer_metric_units()
    units.update({f"suite.{check}.s": "s" for check in suite_checks()})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio"})
    return units


def table_mismatches(expected: dict, got: dict) -> list[str]:
    """One line per expected entry that differs or is missing, and per
    entry that is not expected."""
    out = [f"{k}: expected {v}, got {got.get(k)}" for k, v in expected.items()
           if got.get(k) != v]
    out += [f"{k}: not expected" for k in got if k not in expected]
    return out


def _capture(argv: list[str]) -> str:
    """Standard output of the command line; the outputs are checked, not
    the exit code."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


# ---------------------------------------------------------------------------
# corpus: `framecat --format json corpus run`, in process

def corpus_mismatches(summary: dict, expected: dict) -> list[str]:
    """Compares the check records of a summary, without their seconds."""
    def by_check(checks):
        return {(c["instance"], c["check"]): {k: v for k, v in c.items() if k != "seconds"}
                for c in checks}
    return table_mismatches(by_check(expected["checks"]), by_check(summary["checks"]))


class Corpus:
    name = "corpus"

    def __init__(self, root: Path, seed: int):
        # the corpus is the paper's fixed instance set: the seed does not apply
        self.expected = load_expected("corpus")
        self.ops_per_pass = len(self.expected["checks"])
        self.info = {"checks": self.ops_per_pass}

    def run(self) -> str:
        return _capture(["--format", "json", "corpus", "run"])

    def check(self, output: str) -> list[str]:
        return corpus_mismatches(json.loads(output), self.expected)

    def suite_seconds(self, output: str) -> dict[str, float]:
        """Seconds per check family, from the summary the program prints."""
        out = dict.fromkeys(suite_checks(), 0.0)
        for c in json.loads(output)["checks"]:
            if c["check"] in out:
                out[c["check"]] += c["seconds"]
        return {f"suite.{check}.s": s for check, s in out.items()}

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# homsets: both adjunction checks through their public entry points

def relabel(tc: FiniteTopCategory, perm) -> FiniteTopCategory:
    """The same topological category with arrow a renamed perm[a]."""
    n = tc.n
    new = np.asarray(perm, dtype=np.int64)
    old = np.argsort(new)  # old[b] is the arrow renamed b
    c = tc.cat
    comp = c.comp[np.ix_(old, old)]
    comp = np.where(comp == UNDEF, UNDEF, new[np.maximum(comp, 0)])
    opens = tc.topology.opens
    if opens is not None:
        opens = frozenset(sum(1 << int(new[a]) for a in range(n) if m >> a & 1)
                          for m in opens)
    cat = make_category(n, [int(new[a]) for a in c.identities()],
                        new[c.d[old]], new[c.r[old]], comp_table=comp)
    return FiniteTopCategory(cat, Topology(n, opens))


def seeded_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def adjunction_outcomes(tc, q, s) -> tuple[list, list]:
    """(ok, |functors|, |morphisms|) of adjunction I against q and of
    adjunction II against s."""
    one = duality.verify_adjunction_I(tc, q, max_arrows=MAX_ARROWS, max_elements=MAX_ELEMENTS)
    two = crm.verify_adjunction_II(tc, s, max_arrows=MAX_ARROWS, max_elements=MAX_ELEMENTS)
    return [one.ok, *one.sizes], [two.ok, *two.sizes]


class Homsets:
    """(a) every ordered pair of the corpus categories with at most six
    arrows, each relabelled by the seed, against Omega and PI(Omega) of the
    second; (b) the pair groupoid P on three points, under the identity
    labelling and under one seeded relabelling, against Omega(P) and
    PI(Omega(P)).

    In (b) the algebras are built from the identity labelling.  Relabelling
    the algebra reorders the domain of the backtracking searches, which
    changes their work up to 25x (see NOTES.md); relabelling the category
    only reorders candidates, so the seed varies the inputs without making
    the pass length depend on it."""

    name = "homsets"

    def __init__(self, root: Path, seed: int):
        rng = random.Random(seed)
        self.small = [(i.name, relabel(i.obj, seeded_permutation(rng, i.obj.n)))
                      for i in cor.etale_categories() if i.obj.n <= 6]
        self.pair3 = cor.pair_groupoid(3)
        self.p_perm = seeded_permutation(rng, self.pair3.n)
        self.p_seeded = relabel(self.pair3, self.p_perm)
        self.expected = load_expected("homsets")
        self.ops_per_pass = len(self.expected)
        self.info = {"seed": seed, "pair3_permutation": self.p_perm,
                     "verifications": self.ops_per_pass}

    def small_pairs(self) -> dict[str, list]:
        """Part (a)."""
        out: dict[str, list] = {}
        for name2, tc2 in self.small:
            q = functors.omega_object(tc2).rqf
            s, _ = crm.pi_restriction_monoid(q)
            for name1, tc1 in self.small:
                out[f"I {name1} {name2}"], out[f"II {name1} {name2}"] = \
                    adjunction_outcomes(tc1, q, s)
        return out

    def run(self) -> dict[str, list]:
        out = self.small_pairs()
        q = functors.omega_object(self.pair3).rqf
        s, _ = crm.pi_restriction_monoid(q)
        for label, tc in (("identity", self.pair3), ("seeded", self.p_seeded)):
            one, two = adjunction_outcomes(tc, q, s)
            if not (topcat.validate_topcategory(tc).ok and topcat.is_etale(tc)[0]
                    and duality.find_category_isomorphism(self.pair3.cat, tc.cat)
                    is not None):
                one[0] = two[0] = False  # not a relabelling of P
            out[f"I pair3 {label}"], out[f"II pair3 {label}"] = one, two
        return out

    def check(self, output: dict[str, list]) -> list[str]:
        return table_mismatches(self.expected, output)

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# documents: `framecat corpus emit <dir>`, then parse and serialize each file

class Documents:
    name = "documents"

    def __init__(self, root: Path, seed: int):
        # the documents are generated from the fixed corpus: the seed does not apply
        self.tmp_root = root / ".bench_tmp"
        self.expected = load_expected("documents")
        self.ops_per_pass = len(self.expected)
        self.info = {"documents": self.ops_per_pass}
        self._dir = self.tmp_root / f"documents-{os.getpid()}"

    def run(self) -> dict[str, str]:
        """File name -> sha256 of the file, or a note that the parse ->
        serialize round trip changed its bytes."""
        _capture(["corpus", "emit", str(self._dir)])
        out: dict[str, str] = {}
        for path in sorted(self._dir.iterdir()):
            data = path.read_bytes()
            again = documents.serialize_document(
                documents.parse_document(data.decode("utf-8")))
            out[path.name] = (hashlib.sha256(data).hexdigest()
                              if again.encode("utf-8") == data
                              else "round trip changed the bytes")
        return out

    def check(self, output: dict[str, str]) -> list[str]:
        return table_mismatches(self.expected, output)

    def cleanup(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)
        try:
            self.tmp_root.rmdir()
        except OSError:  # missing, or another run's files are still there
            pass


WORKLOADS = {w.name: w for w in (Corpus, Homsets, Documents)}
