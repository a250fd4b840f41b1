"""Acceptance suite: one criterion per test, one printed pass/fail line each.

All arithmetic is discrete, so every check is exact; the stated tolerances
are wall-clock budgets only.  The checklist is echoed into the terminal
summary so it is visible in captured runs too.
"""

import time
from math import comb, factorial

import numpy as np

from acceptance_log import acceptance_lines

from framecat import corpus as cor
from framecat.bits import iter_bits, mask_of
from framecat.crm import (l_vee, pi_restriction_monoid, preserves_finite_meets,
                          s_filter_bijection, s_filters, validate_crm_morphism, verify_adjunction_II)
from framecat.duality import (build_chi, build_omega_map,
                              check_naturality_in_category,
                              check_naturality_in_quantale, chi_is_isomorphism,
                              is_sober, is_spatial, omega_is_isomorphism,
                              quantale_isomorphism_ok, verify_adjunction_I)
from framecat.functors import c_object, omega_morphism, omega_object
from framecat.order import cp_filters_bruteforce, enumerate_cp_filters
from framecat.quantale import (compatibility_lemma_check, compatible,
                               partial_isometries, validate_rqf)
from framecat.suite import _validate_any
from framecat.topcat import local_bisections, validate_covering_functor


def announce(line: str) -> None:
    acceptance_lines.append(line)
    print(line, flush=True)


def criterion(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    announce(f"ACCEPTANCE {number:2d} [{status}] {label} "
             f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    ok = True
    for inst in cor.etale_categories():
        om = omega_object(inst.obj)
        rep = validate_rqf(om.rqf)
        if not rep.ok:
            announce(f"  omega({inst.name}) violates {rep.laws()}")
            ok = False
    criterion(1, "open-set quantale of every corpus etale category passes "
                 "the full axiom stack", ok, time.perf_counter() - t0, 60)


def test_criterion_02_filter_oracle():
    t0 = time.perf_counter()
    ok = True
    frames = [(i.name, i.obj) for i in cor.corpus_frames()]
    frames += [(f"frame-of-{i.name}", i.obj.frame) for i in cor.corpus_rqfs()]
    checked = 0
    for name, f in frames:
        if f.n > 64:
            continue
        checked += 1
        fast = [(c.cogenerator, c.members) for c in enumerate_cp_filters(f)]
        brute = [(c.cogenerator, c.members) for c in cp_filters_bruteforce(f)]
        if fast != brute:
            announce(f"  {name}: enumeration differs from the subset oracle")
            ok = False
    assert checked >= 12
    criterion(2, f"meet-prime filter enumeration matches the subset-by-subset "
                 f"oracle on {checked} frames", ok, time.perf_counter() - t0, 10)


def partial_injection_count(n: int) -> int:
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def test_criterion_03_isometries_are_open_bisections():
    t0 = time.perf_counter()
    ok = True
    for inst in cor.etale_categories():
        tc = inst.obj
        if tc.n > 12:
            continue
        om = omega_object(tc)
        pis = {om.opens[p] for p in partial_isometries(om.rqf)}
        olbs = {m for m in local_bisections(tc.cat) if tc.topology.is_open(m)}
        if pis != olbs:
            announce(f"  {inst.name}: isometries differ from open bisections")
            ok = False
    for n, expected in ((2, 7), (3, 34)):
        assert partial_injection_count(n) == expected
        count = len(partial_isometries(omega_object(cor.pair_groupoid(n)).rqf))
        if count != expected:
            announce(f"  pair{n}: {count} isometries, expected {expected}")
            ok = False
    criterion(3, "partial isometries of omega-images are exactly the open "
                 "local bisections (counts 7 and 34)", ok, time.perf_counter() - t0, 60)


def test_criterion_04_compatibility_lemma():
    t0 = time.perf_counter()
    ok = True
    for inst in cor.corpus_rqfs():
        q = inst.obj
        good, wit = compatibility_lemma_check(q)
        if not good:
            announce(f"  {inst.name}: lemma fails at {wit}")
            ok = False
        # the right side is literally the two product equations
        pis = partial_isometries(q)
        pi_set = set(pis)
        for a in pis[:8]:
            for b in pis[:8]:
                lhs = int(q.join[a, b]) in pi_set
                rhs = (int(q.mul[a, q.star[b]]) == int(q.mul[b, q.star[a]]) and
                       int(q.mul[q.plus[b], a]) == int(q.mul[q.plus[a], b]))
                assert lhs == rhs == compatible(q, a, b)
    criterion(4, "join of isometries is an isometry exactly for compatible "
                 "pairs, exhaustively", ok, time.perf_counter() - t0, 60)


def test_criterion_05_chi_roundtrip():
    t0 = time.perf_counter()
    ok = True
    big_elapsed = 0.0
    for inst in cor.corpus_rqfs():
        q = inst.obj
        if q.n > 1024:
            continue
        t1 = time.perf_counter()
        chi = build_chi(q)
        good, why = chi_is_isomorphism(chi)
        spatial, wit = is_spatial(q, chi.fc)
        if q.n == 512:
            big_elapsed = time.perf_counter() - t1
        if not (good and spatial):
            announce(f"  {inst.name}: {why or wit}")
            ok = False
    announce(f"  (512-element instance: {big_elapsed:.1f}s of its 90s budget)")
    ok = ok and big_elapsed <= 90
    criterion(5, "chi is a verified isomorphism onto the opens of the filter "
                 "category for every corpus quantal frame",
              ok, time.perf_counter() - t0, 300)


def test_criterion_06_omega_roundtrip():
    t0 = time.perf_counter()
    ok = True
    for inst in cor.etale_categories():
        tc = inst.obj
        res = build_omega_map(tc)
        if inst.sober:
            good, why = omega_is_isomorphism(tc, res)
            sober, _ = is_sober(tc, res)
            if not (good and sober):
                announce(f"  {inst.name}: {why}")
                ok = False
        else:
            # the parity instance is deliberately non-sober; omega must still
            # be a continuous covering functor and sobriety must be refuted
            if not res.report.ok or is_sober(tc, res)[0]:
                announce(f"  {inst.name}: non-sober instance mishandled")
                ok = False
    criterion(6, "omega is a verified category isomorphism and homeomorphism "
                 "on every sober corpus category", ok, time.perf_counter() - t0, 60)


def test_criterion_07_adjunction_one():
    t0 = time.perf_counter()
    ok = True
    expected_sizes = {
        "pair2": (2, 2),
        "cyclic2-monoid": (1, 1),
        "parallel-pair": (2, 2),
        "semilattice-monoid": (1, 1),
        "empty": (1, 1),
    }
    cats = {i.name: i.obj for i in cor.etale_categories()}
    for name, expected in expected_sizes.items():
        t1 = time.perf_counter()
        tc = cats[name]
        q = omega_object(tc).rqf
        adj = verify_adjunction_I(tc, q)
        pair_elapsed = time.perf_counter() - t1
        if not adj.ok or adj.sizes != expected:
            announce(f"  ({name}, omega): ok={adj.ok} sizes={adj.sizes}")
            ok = False
        if pair_elapsed > 60:
            announce(f"  ({name}, omega): {pair_elapsed:.1f}s > 60s")
            ok = False
    # naturality squares against the corpus morphisms
    tc = cats["pair2"]
    om = omega_object(tc)
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    ok = ok and check_naturality_in_category(swap, tc, tc, om.rqf)[0]
    psi = omega_morphism(swap, om, om)
    ok = ok and check_naturality_in_quantale(psi, om.rqf, om.rqf, tc)[0]
    criterion(7, "hom-set transposes are mutually inverse bijections on five "
                 "corpus pairs, with naturality squares",
              ok, time.perf_counter() - t0, 300)


def test_criterion_08_crm_translation():
    t0 = time.perf_counter()
    ok = True
    for inst in cor.corpus_rqfs():
        q = inst.obj
        s, carrier = pi_restriction_monoid(q)
        lv = l_vee(s)
        iso = np.array([q.frame.join_fold([carrier[x] for x in iter_bits(m)])
                        for m in lv.ideals], dtype=np.int64)
        if not quantale_isomorphism_ok(iso, lv.rqf, q):
            announce(f"  {inst.name}: ideal completion does not recover the frame")
            ok = False
    for inst in cor.corpus_crms():
        s = inst.obj
        lv = l_vee(s)
        s2, carrier2 = pi_restriction_monoid(lv.rqf)
        pos = {e: i for i, e in enumerate(carrier2)}
        iso = np.array([pos[lv.principal(x)] for x in range(s.n)], dtype=np.int64)
        if sorted(iso.tolist()) != list(range(s2.n)) \
                or not validate_crm_morphism(iso, s, s2).ok \
                or not preserves_finite_meets(iso, s, s2)[0]:
            announce(f"  {inst.name}: monoid is not recovered from its ideals")
            ok = False
        sf = s_filters(s)
        fc = c_object(lv.rqf)
        bij = s_filter_bijection(sf, lv)
        if sorted(bij.tolist()) != list(range(fc.n)) \
                or not validate_covering_functor(bij, sf.topcat.cat, fc.topcat.cat).ok:
            announce(f"  {inst.name}: filter categories not isomorphic")
            ok = False
        for a in range(s.n):
            image = mask_of(int(bij[k]) for k in iter_bits(sf.x_mask(a)))
            if image != fc.calc.x_mask(lv.principal(a)):
                announce(f"  {inst.name}: X-set correspondence fails at {a}")
                ok = False
                break
    criterion(8, "monoid/quantal-frame round trips and the filter-category "
                 "correspondence hold on all corpus instances",
              ok, time.perf_counter() - t0, 120)


def test_criterion_09_adjunction_two():
    t0 = time.perf_counter()
    tc = cor.pair_groupoid(2)
    q = omega_object(tc).rqf
    s, _ = pi_restriction_monoid(q)
    adj2 = verify_adjunction_II(tc, s)
    lv = l_vee(s)
    adj1 = verify_adjunction_I(tc, lv.rqf)
    ok = adj2.ok and adj2.sizes == adj1.sizes == (2, 2)
    if not ok:
        announce(f"  sizes: theorem-II {adj2.sizes}, translated theorem-I {adj1.sizes}")
    criterion(9, "second adjunction hom-sets biject and match the translated "
                 "first-adjunction run", ok, time.perf_counter() - t0, 60)


def test_criterion_10_negative_fixtures():
    t0 = time.perf_counter()
    ok = True
    for inst in cor.negative_fixtures() + [cor.negative_crm_fixture()]:
        rep = _validate_any(inst)
        if rep.ok:
            announce(f"  {inst.name}: accepted but should be rejected")
            ok = False
            continue
        if inst.expect_fail not in rep.laws():
            announce(f"  {inst.name}: expected {inst.expect_fail}, got {rep.laws()}")
            ok = False
            continue
        v = next(v for v in rep.violations if v.law == inst.expect_fail)
        if len(v.witness) == 0:
            announce(f"  {inst.name}: no witness")
            ok = False
    criterion(10, "every perturbed fixture is rejected with a witness naming "
                  "the violated law", ok, time.perf_counter() - t0, 60)
