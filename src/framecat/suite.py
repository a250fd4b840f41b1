"""The standard check suite over the generated corpus, and the check bodies
the CLI shares with it.

An Instance holds one etale category, restriction quantal frame or complete
restriction monoid, and reads each object derived from it from the cache
of its owner (order.cached): Omega(C) from C, PI(Q) and C(Q) from Q, and
L^vee(S) and the S-filter category from S.  The round-trip checks are
module-level functions of an Instance: the suite runs them over the
corpus, the CLI on a one-instance object built from a document.  The
corpus is built once per run; the omega-X quantales and the pi-omega-X
monoids are checked on the Instance of the category X.

Check builders return pending (instance, check, thunk) triples; run_pending
executes them in order, streaming each CheckReport as it completes, and
returns the canonically sorted list.  All checks are exact; the only
tolerances anywhere are wall-clock budgets, asserted by the acceptance
suite.

DOCUMENT_VALIDATORS maps each document kind to its validator and to the
further checks `validate` reports on rows of their own (the etale check of
a topological category, callitic morphisms, continuous functors); the CLI
and the suite's negative fixtures read their verdicts from it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from . import corpus as cor
from .crm import (CompleteRestrictionMonoid, IdealCompletion,
                  l_vee, pi_restriction_monoid, preserves_finite_meets,
                  is_callitic, s_filter_bijection, s_filters, validate_crm,
                  validate_crm_morphism, verify_adjunction_II)
from .duality import (AdjunctionReport, build_chi, build_omega_map,
                      check_naturality_in_category, check_naturality_in_quantale,
                      chi_is_isomorphism, is_sober,
                      omega_is_isomorphism, positions, quantale_isomorphism_ok,
                      validate_rqf_morphism, verify_adjunction_I)
from .functors import OmegaResult, c_object, omega_morphism, omega_object
from .order import (BRUTEFORCE_MAX_ELEMENTS, cp_filters_bruteforce,
                    enumerate_cp_filters, frame_spatial_check, validate_frame,
                    validate_poset)
from .quantale import (EhresmannQuantale, compatibility_lemma_check,
                       every_element_is_join_of_pi, partial_isometries,
                       pi_is_order_ideal, validate_quantale, validate_rqf)
from .reports import MAX_ARROWS, MAX_TABLE_SIDE, CheckReport, Report, run_check, sort_reports
from .topcat import (FiniteTopCategory, bisection_rows, continuity_check, is_etale,
                     validate_category,
                     validate_covering_functor, validate_topcategory)

CheckResult = tuple[bool, Optional[tuple], str]
Pending = tuple[str, str, Callable[[], CheckResult]]

ADJUNCTION_I_PAIRS = ("pair2", "cyclic2-monoid", "parallel-pair",
                      "semilattice-monoid", "empty")


class Instance:
    """An etale category `tc`, a restriction quantal frame `q` or a complete
    restriction monoid `s`, with the objects derived from it.  The levels
    below the given one are derived too: the rqf of a category is Omega(C)
    and the monoid of an rqf is PI(Q).  Every builder that the instance and
    its check bodies start is given `max_elements`, and the adjunction
    checks both bounds."""

    def __init__(self, tc: Optional[FiniteTopCategory] = None,
                 q: Optional[EhresmannQuantale] = None,
                 s: Optional[CompleteRestrictionMonoid] = None,
                 max_arrows: int = MAX_ARROWS, max_elements: int = MAX_TABLE_SIDE):
        self.tc = tc
        self._q = q
        self._s = s
        self.max_arrows = max_arrows
        self.max_elements = max_elements

    @property
    def omega(self) -> OmegaResult:
        return omega_object(self.tc, max_elements=self.max_elements)

    @property
    def rqf(self) -> EhresmannQuantale:
        return self.omega.rqf if self._q is None else self._q

    @property
    def pi(self) -> tuple[CompleteRestrictionMonoid, list[int]]:
        return pi_restriction_monoid(self.rqf)

    @property
    def crm(self) -> CompleteRestrictionMonoid:
        return self.pi[0] if self._s is None else self._s

    @property
    def lv(self) -> IdealCompletion:
        return l_vee(self.crm, max_elements=self.max_elements)


# ---------------------------------------------------------------------------
# check bodies shared with the CLI

def omega_roundtrip(inst: Instance) -> CheckResult:
    """omega: C -> C(Omega(C)) is an isomorphism of topological categories."""
    tc = inst.tc
    ok, why = omega_is_isomorphism(tc, build_omega_map(tc, inst.omega))
    return ok, None if ok else (tc.n,), why


def chi_roundtrip(inst: Instance) -> CheckResult:
    """chi: Q -> Omega(C(Q)) is an isomorphism.  Q is then spatial
    (is_spatial), since chi(a) = chi(b) exactly when X_a = X_b."""
    ok, why = chi_is_isomorphism(build_chi(inst.rqf, inst.max_elements))
    return ok, None if ok else (inst.rqf.n,), why


def ideals_of_isometries_roundtrip(inst: Instance) -> CheckResult:
    """L^vee(PI(Q)) is isomorphic to Q by the join of each ideal."""
    q, lv = inst.rqf, inst.lv
    carrier = np.asarray(inst.pi[1], dtype=np.int64)
    iso = np.array([q.join_fold(carrier[row]) for row in lv.members], dtype=np.int64)
    if not quantale_isomorphism_ok(iso, lv.rqf, q):
        return False, (lv.rqf.n, q.n), "explicit isomorphism fails"
    return True, None, ""


def isometries_of_ideals_roundtrip(inst: Instance) -> CheckResult:
    """PI(L^vee(S)) is isomorphic to S by the principal ideals."""
    s, lv = inst.crm, inst.lv
    s2, carrier2 = pi_restriction_monoid(lv.rqf)
    iso = positions(lv.rqf.n, carrier2)[lv.principal]
    if sorted(iso.tolist()) != list(range(s2.n)):
        return False, (s.n, s2.n), "not bijective"
    if not validate_crm_morphism(iso, s, s2).ok:
        return False, (s.n,), "not a morphism"
    ok, wit = preserves_finite_meets(iso, s, s2)
    if not ok:
        return False, wit, "meets not preserved"
    return True, None, ""


def filter_category_correspondence(inst: Instance) -> CheckResult:
    """The S-filter category is isomorphic to C(L^vee(S)), X-sets to X-sets."""
    s, lv = inst.crm, inst.lv
    sf, fc = s_filters(s, inst.max_elements), c_object(lv.rqf, inst.max_elements)
    bij = s_filter_bijection(sf, lv)
    if sorted(bij.tolist()) != list(range(fc.n)):
        return False, (sf.n, fc.n), "filter map not bijective"
    rep = validate_covering_functor(bij, sf.topcat.cat, fc.topcat.cat)
    if not rep.ok:
        return False, rep.violations[0].witness, "not a functor isomorphism"
    image = np.zeros((s.n, fc.n), dtype=bool)  # [a, bij(k)]: S-filter k is in X_a
    image[:, bij] = sf.members.T
    bad = np.flatnonzero((image != fc.members[:, lv.principal].T).any(axis=1))
    if bad.size:
        return False, (int(bad[0]),), "X-set correspondence fails"
    return True, None, ""


def adjunction_outcome(adj: AdjunctionReport) -> CheckResult:
    if not adj.ok:
        return False, tuple(adj.failures[0]), "transposes not mutually inverse"
    return True, None, f"homset sizes {adj.sizes}"


# ---------------------------------------------------------------------------
# the other check bodies of the suite

def _simple(ok_wit, detail: str = "") -> CheckResult:
    ok, wit = ok_wit
    return ok, (None if ok else (wit if isinstance(wit, tuple) else (wit,))), detail


def _from_report(rep: Report) -> CheckResult:
    if rep.ok:
        return True, None, ""
    v = rep.violations[0]
    return False, v.witness, v.law


def _etale_check(tc: FiniteTopCategory) -> CheckResult:
    ok, law, wit = is_etale(tc)
    return ok, (None if ok else (wit,)), law or ""


def omega_nonsober(inst: Instance) -> CheckResult:
    """omega is still a continuous covering functor, and sobriety is
    reported false."""
    tc = inst.tc
    res = build_omega_map(tc, inst.omega)
    if not res.report.ok:
        return False, res.report.violations[0].witness, res.report.violations[0].law
    sober, _ = is_sober(tc, res)
    if sober:
        return False, (tc.n,), "expected a non-sober instance"
    return True, None, ""


def isometries_are_open_bisections(inst: Instance) -> CheckResult:
    """PI(Omega(C)), the n-by-n test on the opens, is exactly the set of
    open local bisections of C, read off C alone (`topcat.bisection_rows`)."""
    om = inst.omega
    pis = {om.opens[p] for p in partial_isometries(om.rqf)}
    olbs = set(bisection_rows(inst.tc, inst.max_elements)[0])
    if pis != olbs:
        return False, (len(pis), len(olbs)), "sets differ"
    return True, None, ""


def filter_oracle(f) -> CheckResult:
    """enumerate_cp_filters equals the subset-by-subset oracle, element for
    element."""
    fast = enumerate_cp_filters(f)
    brute = cp_filters_bruteforce(f)
    if [(x.cogenerator, x.members) for x in fast] != \
       [(x.cogenerator, x.members) for x in brute]:
        return False, (len(fast), len(brute)), "filter sets differ"
    return True, None, ""


def rejected_with_witness(inst: cor.CorpusInstance) -> CheckResult:
    rep = _validate_any(inst)
    if rep.ok:
        return False, ("accepted",), "fixture was accepted"
    if inst.expect_fail not in rep.laws():
        return False, tuple(rep.laws()[:3]), f"expected {inst.expect_fail}"
    v = next(v for v in rep.violations if v.law == inst.expect_fail)
    if len(v.witness) == 0:
        return False, (), "violation carries no witness"
    return True, None, ""


def _validate_any(inst: cor.CorpusInstance) -> Report:
    """The validator's report of a document kind's object, each failed
    further check added as a violation of the law its detail names."""
    rep, further = DOCUMENT_VALIDATORS[inst.kind](inst.obj)
    for check, fn in further:
        ok, wit, law = fn()
        if not ok:
            rep.add(law or check, wit)
    return rep


# ---------------------------------------------------------------------------
# the validators of the document kinds

# the validator's report, and the further checks as (name, thunk) pairs
Validated = tuple[Report, tuple[tuple[str, Callable[[], CheckResult]], ...]]


def _alone(validator: Callable[[object], Report]) -> Callable[[object], Validated]:
    return lambda obj: (validator(obj), ())


def _validate_morphism(m) -> Validated:
    if m.flavor == "rqf":
        return validate_rqf_morphism(m.map, m.source, m.target), ()
    return (validate_crm_morphism(m.map, m.source, m.target),
            (("callitic", lambda: _simple(is_callitic(m.map, m.source, m.target))),))


DOCUMENT_VALIDATORS: dict[str, Callable[[object], Validated]] = {
    "poset": _alone(validate_poset),
    "frame": _alone(validate_frame),
    "quantale": _alone(validate_quantale),
    "rqf": _alone(validate_rqf),
    "category": _alone(validate_category),
    "topcategory": lambda tc: (validate_topcategory(tc),
                               (("etale", partial(_etale_check, tc)),)),
    "crm": _alone(validate_crm),
    "morphism": _validate_morphism,
    "functor": lambda m: (
        validate_covering_functor(m.map, m.source.cat, m.target.cat),
        (("continuity", lambda: _simple(continuity_check(m.map, m.source, m.target))),)),
}


def adjunction_naturality(inst: Instance) -> CheckResult:
    """Both naturality squares, for the swap automorphism of a category,
    under the bounds of the instance."""
    tc, om = inst.tc, inst.omega
    q = om.rqf
    bounds = inst.max_arrows, inst.max_elements
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    ok1, w1 = check_naturality_in_category(swap, tc, tc, q, *bounds)
    if not ok1:
        return False, w1, "naturality square in the category argument"
    psi = omega_morphism(swap, om, om)
    ok2, w2 = check_naturality_in_quantale(psi, q, q, tc, *bounds)
    if not ok2:
        return False, w2, "naturality square in the quantale argument"
    return True, None, ""


def adjunction_II_translated(inst: Instance) -> CheckResult:
    """Adjunction II for (C, PI(Omega(C))), with the hom-set sizes of
    adjunction I for the translated pair (C, L^vee(PI(Omega(C))))."""
    tc = inst.tc
    adj2 = verify_adjunction_II(tc, inst.crm, inst.max_arrows, inst.max_elements)
    if adj2.ok:
        adj1 = verify_adjunction_I(tc, inst.lv.rqf, inst.max_arrows, inst.max_elements)
        if adj1.sizes != adj2.sizes:
            return False, adj1.sizes + adj2.sizes, "sizes differ from translated pair"
    return adjunction_outcome(adj2)


# ---------------------------------------------------------------------------
# the suite

CATEGORY_CHECKS = (
    ("topcategory-axioms", lambda inst: _from_report(validate_topcategory(inst.tc))),
    ("etale", lambda inst: _etale_check(inst.tc)),
    ("isometries-are-open-bisections", isometries_are_open_bisections),
)
RQF_CHECKS = (
    ("rqf-axioms", lambda inst: _from_report(validate_rqf(inst.rqf))),
    ("compatible-join-lemma", lambda inst: _simple(compatibility_lemma_check(inst.rqf))),
    ("isometries-order-ideal", lambda inst: _simple(pi_is_order_ideal(inst.rqf))),
    ("elements-are-joins-of-isometries",
     lambda inst: _simple(every_element_is_join_of_pi(inst.rqf))),
    ("chi-isomorphism", chi_roundtrip),
    ("ideals-of-isometries-roundtrip", ideals_of_isometries_roundtrip),
)
CRM_CHECKS = (
    ("crm-axioms", lambda inst: _from_report(validate_crm(inst.crm))),
    ("isometries-of-ideals-roundtrip", isometries_of_ideals_roundtrip),
    ("filter-category-correspondence", filter_category_correspondence),
)


def run_pending(pending: list[Pending],
                stream: Optional[Callable[[CheckReport], None]] = None) -> list[CheckReport]:
    out: list[CheckReport] = []
    for inst, name, fn in pending:
        r = run_check(inst, name, fn)
        if stream:
            stream(r)
        out.append(r)
    return sort_reports(out)


def _per_instance(named: list[tuple[str, Instance]], checks) -> list[Pending]:
    return [(name, check, partial(body, inst))
            for name, inst in named for check, body in checks]


def full_suite_pending(max_arrows: int, max_elements: int) -> list[Pending]:
    """Every check of the suite over one build of the corpus, each instance
    under the bounds given."""
    bounds = {"max_arrows": max_arrows, "max_elements": max_elements}
    cats = [(c, Instance(tc=c.obj, **bounds)) for c in cor.etale_categories()]
    by_name = {c.name: inst for c, inst in cats}
    rqfs = [(name, by_name[c.name]) for name, c in cor.omega_images()]
    rqfs += [(c.name, Instance(q=c.obj, **bounds)) for c in cor.quantale_frames()]
    crms = [(c.name, Instance(s=c.obj, **bounds)) for c in cor.hand_built_crms()]
    crms += [(f"pi-{name}", inst) for name, inst in rqfs if name in cor.PI_OF_RQFS]

    pair2 = by_name["pair2"].tc  # the negative fixtures read Omega(pair2) off it
    out = _per_instance([(c.name, inst) for c, inst in cats], CATEGORY_CHECKS)
    for c, inst in cats:
        if c.sober:
            out.append((c.name, "omega-isomorphism", partial(omega_roundtrip, inst)))
        else:
            out.append((c.name, "omega-covering-functor-nonsober",
                        partial(omega_nonsober, inst)))
    out += _per_instance(rqfs, RQF_CHECKS)
    out += _per_instance(crms, CRM_CHECKS)
    frames = [(f.name, f.obj) for f in cor.corpus_frames()]
    for name, f in frames:
        out.append((name, "frame-axioms", lambda f=f: _from_report(validate_frame(f))))
        out.append((name, "spatial", lambda f=f: _simple(frame_spatial_check(f))))
    frames += [(f"frame-of-{name}", inst.rqf) for name, inst in rqfs]
    out += [(name, "filter-oracle", partial(filter_oracle, f))
            for name, f in frames if f.n <= BRUTEFORCE_MAX_ELEMENTS]
    out += [(c.name, "rejected-with-witness", partial(rejected_with_witness, c))
            for c in cor.negative_fixtures(pair2) + [cor.negative_crm_fixture(pair2)]]
    out += [(name, "adjunction-homsets", lambda inst=by_name[name]: adjunction_outcome(
        verify_adjunction_I(inst.tc, inst.rqf, max_arrows, max_elements)))
        for name in ADJUNCTION_I_PAIRS]
    out.append(("pair2", "adjunction-naturality", partial(adjunction_naturality, by_name["pair2"])))
    out.append(("pair2/partial-bijections", "adjunction-II-homsets",
                partial(adjunction_II_translated, by_name["pair2"])))
    return out
