import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import (bit_matrix, has_bit, iter_bits, mask_of, pack_words, row_masks,
                           word_lookup)
from framecat.corpus import (boolean_frame, chain_frame, corpus_rqfs, etale_categories,
                             cyclic2_category, empty_category,
                             free_category_on_acyclic_graph, m3_lattice,
                             monoid_category, pair_groupoid,
                             parallel_pair_category, parity_pair_groupoid)
from framecat.duality import (AdjunctionReport, build_chi, build_omega_map,
                              check_transposes,
                              check_naturality_in_category,
                              check_naturality_in_quantale, chi_is_isomorphism,
                              enumerate_covering_functors,
                              enumerate_rqf_morphisms,
                              find_category_isomorphism, is_sober, is_spatial,
                              omega_is_isomorphism, quantale_isomorphism_ok,
                              transposes, validate_rqf_morphism,
                              verify_adjunction_I)
from framecat.crm import l_vee, pi_restriction_monoid, s_filters, verify_adjunction_II
from framecat.functors import c_object, omega_morphism, omega_object
from framecat.order import join_irreducibles
from framecat.quantale import frame_as_quantale, partial_isometries
from framecat.reports import BoundExceeded, Report
from framecat.topcat import (UNDEF, FiniteTopCategory, Topology, continuity_check,
                             make_category, surjectivity_failures, validate_covering_functor,
                             validate_topcategory)
import map_oracles
from map_oracles import (FilterMasks, assert_residual_decisions_match_validators,
                         covering_functors_by_unpruned_search, ideal_masks,
                         assert_transposes_match_oracles, build_omega_map_oracle,
                         map_outcome, one_map, one_value_perturbations, open_index,
                         projection_mask, relabel, relabel_rqf, reversed_labels, searched,
                         searched_arrow_maps, small_corpus_categories)
from random_categories import small_categories


# ---------------------------------------------------------------------------
# morphism validation

def test_identity_is_an_rqf_morphism(omega_pair2):
    q = omega_pair2.rqf
    assert validate_rqf_morphism(np.arange(16), q, q).ok


def test_swap_induced_automorphism_is_a_morphism(pair2, omega_pair2):
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    psi = omega_morphism(swap, omega_pair2, omega_pair2)
    assert validate_rqf_morphism(psi, omega_pair2.rqf, omega_pair2.rqf).ok


def test_map_crushing_isometries_fails_condition_five(omega_pair2):
    q = omega_pair2.rqf
    theta = np.full(16, q.top, dtype=np.int64)
    theta[0] = q.bottom
    rep = validate_rqf_morphism(theta, q, q)
    assert "morphism.preserves_isometries" in rep.laws()
    wit = next(v.witness for v in rep.violations
               if v.law == "morphism.preserves_isometries")
    assert len(wit) == 2


# ---------------------------------------------------------------------------
# chi

def test_chi_is_an_isomorphism_for_relation_quantale(omega_pair2):
    chi = build_chi(omega_pair2.rqf)
    assert chi.report.ok
    assert chi_is_isomorphism(chi) == (True, "")
    assert chi.om.n == 16


def test_chi_at_bottom_top_unit(omega_pair2):
    q = omega_pair2.rqf
    chi = build_chi(q)
    assert chi.om.opens[chi.chi[q.bottom]] == 0
    assert chi.om.opens[chi.chi[q.top]] == (1 << chi.fc.n) - 1
    id_mask = mask_of(k for k, members in enumerate(FilterMasks(chi.fc).members)
                      if members & projection_mask(q))
    assert chi.om.opens[chi.chi[q.unit]] == id_mask


def test_chi_on_frame_quantales():
    for q in (frame_as_quantale(chain_frame(3)), frame_as_quantale(chain_frame(5))):
        chi = build_chi(q)
        assert chi.report.ok
        assert chi_is_isomorphism(chi)[0]


def test_spatiality_of_corpus_quantales(omega_pair2):
    assert is_spatial(omega_pair2.rqf) == (True, None)
    assert is_spatial(frame_as_quantale(chain_frame(4)))[0]
    assert is_spatial(omega_object(parity_pair_groupoid()).rqf)[0]


def test_spatial_iff_projection_frame_spatial(omega_pair2):
    # both sides are always true at finite scale; check they agree anyway
    from framecat.order import frame_from_leq, frame_spatial_check
    q = omega_pair2.rqf
    ok_q, _ = is_spatial(q)
    projs = q.projections()
    ok_p, _ = frame_spatial_check(frame_from_leq(q.leq[np.ix_(projs, projs)]))
    assert ok_q == ok_p is True


# ---------------------------------------------------------------------------
# omega map and sobriety

def test_omega_map_is_bijective_covering_functor(pair2):
    res = build_omega_map(pair2, omega_object(pair2))
    assert res.report.ok
    assert is_sober(pair2, res) == (True, None)
    assert omega_is_isomorphism(pair2, res) == (True, "")


def test_omega_map_identities_to_identity_filters(pair2):
    res = build_omega_map(pair2, omega_object(pair2))
    for e in pair2.cat.identities():
        k = int(res.omega[e])
        assert FilterMasks(res.fc).members[k] & projection_mask(res.om.rqf)


def test_omega_filter_contains_exactly_the_opens_containing_the_arrow(pair2):
    res = build_omega_map(pair2, omega_object(pair2))
    for x in range(pair2.n):
        members = FilterMasks(res.fc).members[int(res.omega[x])]
        for i, u in enumerate(res.om.opens):
            assert bool(members >> i & 1) == bool(u >> x & 1)


def test_parity_groupoid_is_not_sober():
    tc = parity_pair_groupoid()
    res = build_omega_map(tc, omega_object(tc))
    assert res.report.ok  # still a continuous covering functor
    ok, wit = is_sober(tc, res)
    assert not ok


def chain_space_category():
    """Three identity arrows (d = r = id) with the opens {}, {1}, {1, 2} and
    {0, 1, 2}: a sober space that is not discrete, on which omega is the
    3-cycle [2, 0, 1]."""
    cat = make_category(3, [0, 1, 2], [0, 1, 2], [0, 1, 2],
                        comp_entries=[(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    return FiniteTopCategory(cat, Topology(3, frozenset({0b000, 0b010, 0b110, 0b111})))


def test_omega_isomorphism_inverts_a_three_cycle():
    """omega is no involution here, so a check that took omega for its own
    inverse would find the inverse discontinuous (at open 2)."""
    tc = chain_space_category()
    assert validate_topcategory(tc).ok
    res = build_omega_map(tc, omega_object(tc))
    assert res.omega.tolist() == [2, 0, 1]
    assert omega_is_isomorphism(tc, res) == (True, "")
    assert continuity_check(res.omega, res.fc.topcat, tc) == (False, 2)


def test_sober_iff_identity_space_sober():
    # the parity groupoid's identity space is indiscrete: both fail together
    tc = parity_pair_groupoid()
    res = build_omega_map(tc, omega_object(tc))
    assert not is_sober(tc, res)[0]
    disc = pair_groupoid(2)
    assert is_sober(disc, build_omega_map(disc, omega_object(disc)))[0]


# ---------------------------------------------------------------------------
# hom-set enumeration and transposes

def test_covering_functor_enumeration_finds_both_automorphisms(pair2, fc_pair2):
    funcs = enumerate_covering_functors(pair2, fc_pair2.topcat)
    assert len(funcs) == 2


def test_rqf_morphism_enumeration(omega_pair2):
    morphs = enumerate_rqf_morphisms(omega_pair2.rqf, omega_pair2.rqf)
    assert len(morphs) == 2
    keys = {m.tobytes() for m in morphs}
    assert np.arange(16, dtype=np.int64).tobytes() in keys


def test_transpose_of_omega_map_is_the_identity(pair2, omega_pair2):
    # alpha = omega : C -> C(Omega(C)) transposes to the identification of Q
    # with Omega(C): q |-> {c : q in O_c} = opens[q]
    q = omega_pair2.rqf
    fc = c_object(q)
    om = omega_pair2
    res = build_omega_map(pair2, om)
    beta = transposes(fc, om)[0](res.omega)
    assert np.array_equal(beta, np.arange(16))
    assert validate_rqf_morphism(beta, q, om.rqf).ok


def test_transpose_of_identity_morphism_is_omega(pair2, omega_pair2):
    # beta = id : Q -> Omega(C) with Q = Omega(C) transposes to omega
    q = omega_pair2.rqf
    fc = c_object(q)
    alpha = transposes(fc, omega_pair2)[1](np.arange(16))
    res = build_omega_map(pair2, omega_pair2)
    assert np.array_equal(alpha, res.omega)


def test_transposes_are_mutually_inverse_on_all_pairs(pair2, omega_pair2):
    q = omega_pair2.rqf
    fc = c_object(q)
    om = omega_pair2
    forward, backward = transposes(fc, om)
    for alpha in enumerate_covering_functors(pair2, fc.topcat):
        beta = forward(alpha)
        assert validate_rqf_morphism(beta, q, om.rqf).ok
        assert np.array_equal(backward(beta), alpha)
    for beta in enumerate_rqf_morphisms(q, om.rqf):
        alpha = backward(beta)
        assert np.array_equal(forward(alpha), beta)


def _stub_transpose(table):
    """The transpose that looks each map of a stack of one-value maps up by
    its value in table; a value missing from table, or sent to None, gives
    -1, a set that is not there."""
    def transpose(maps):
        maps = np.asarray(maps, dtype=np.int64)
        images = [table.get(int(v)) for v in maps[..., 0].ravel()]
        return np.array([-1 if v is None else v for v in images],
                        dtype=np.int64).reshape(maps.shape)
    return transpose


def _stub_homsets(functors, morphisms):
    rep = AdjunctionReport()
    rep.functor_homset = [np.array([f], dtype=np.int64) for f in functors]
    rep.morphism_homset = [np.array([m], dtype=np.int64) for m in morphisms]
    return rep


def test_check_transposes_accepts_inverse_bijections():
    rep = _stub_homsets([0, 1], [10, 11])
    check_transposes(rep, _stub_transpose({0: 11, 1: 10}), _stub_transpose({10: 1, 11: 0}))
    assert (rep.ok, rep.failures) == (True, [])


def test_check_transposes_names_each_failure_in_order():
    rep = _stub_homsets([0, 1, 2, 3, 4], [10, 11, 12, 13])
    forward = _stub_transpose({0: 10, 2: 99, 3: 11, 4: 12})  # 1 -> None
    backward = _stub_transpose({10: 0, 11: 0, 13: 98})        # 12 -> None
    check_transposes(rep, forward, backward)
    assert not rep.ok
    assert rep.failures == [
        ("forward_transpose_not_in_homset", 1),    # None
        ("forward_transpose_not_in_homset", 2),    # 99 is not a morphism
        ("backward_of_forward_not_identity", 3),   # 3 -> 11 -> 0
        ("backward_of_forward_not_identity", 4),   # 4 -> 12 -> None
        ("forward_of_backward_not_identity", 1),   # 11 -> 0 -> 10
        ("backward_transpose_not_in_homset", 2),   # None
        ("backward_transpose_not_in_homset", 3),   # 98 is not a functor
        ("homset_sizes_differ", (5, 4)),
    ]


def check_transposes_both_directions(rep, forward, backward):
    """check_transposes as it was before it skipped the second direction and
    before it transposed each hom-set as one stack: one map at a time."""
    forward, backward = one_map(forward), one_map(backward)
    directions = (
        (rep.functor_homset, rep.morphism_homset, forward, backward,
         "forward_transpose_not_in_homset", "backward_of_forward_not_identity"),
        (rep.morphism_homset, rep.functor_homset, backward, forward,
         "backward_transpose_not_in_homset", "forward_of_backward_not_identity"),
    )
    for homset, other, there, back, not_in_homset, not_identity in directions:
        keys = {m.tobytes() for m in other}
        for i, m in enumerate(homset):
            image = there(m)
            if image is None or image.tobytes() not in keys:
                rep.failures.append((not_in_homset, i))
                continue
            again = back(image)
            if again is None or not np.array_equal(again, m):
                rep.failures.append((not_identity, i))
    if len(rep.functor_homset) != len(rep.morphism_homset):
        rep.failures.append(("homset_sizes_differ", rep.sizes))
    rep.ok = not rep.failures


def assert_same_transpose_check(functors, morphisms, forward, backward):
    """check_transposes and the two-direction check give the same verdict
    and failures on these hom-sets."""
    outcomes = []
    for check in (check_transposes, check_transposes_both_directions):
        rep = AdjunctionReport()
        rep.functor_homset, rep.morphism_homset = list(functors), list(morphisms)
        check(rep, forward, backward)
        outcomes.append((rep.ok, rep.failures))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_transposes_matches_the_two_direction_check(data):
    """On stub hom-sets, inverse bijections with at most one value moved,
    and arbitrary tables, repeated maps and unequal sizes included."""
    n = data.draw(st.integers(0, 5))
    functors = list(range(n)) + data.draw(st.lists(st.integers(0, 5), max_size=1))
    morphisms = [10 + k for k in range(data.draw(st.integers(max(0, n - 1), n + 1)))]
    if data.draw(st.booleans()):
        images = data.draw(st.permutations(morphisms))
        forward = dict(zip(range(n), images))
        backward = {m: f for f, m in forward.items()}
    else:
        f_values, m_values = st.sampled_from([*morphisms, 99, None]), \
            st.sampled_from([*range(n), 98, None])
        forward = {f: data.draw(f_values) for f in range(6)}
        backward = {m: data.draw(m_values) for m in morphisms}
    table = data.draw(st.sampled_from([forward, backward]))
    if table and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(table)))
        table[key] = data.draw(st.sampled_from([None, 0, 10, 99]))
    stub = _stub_homsets(functors, morphisms)
    assert_same_transpose_check(stub.functor_homset, stub.morphism_homset,
                                _stub_transpose(forward), _stub_transpose(backward))


def test_check_transposes_matches_the_two_direction_check_on_perturbed_homsets(
        pair2, omega_pair2):
    """The transposes of adjunction I for pair2 against Omega(pair2), on its
    hom-sets with a member moved at one value, dropped or repeated."""
    q, om = omega_pair2.rqf, omega_pair2
    fc = c_object(q)
    forward, backward = transposes(fc, om)

    functors = enumerate_covering_functors(pair2, fc.topcat)
    morphisms = enumerate_rqf_morphisms(q, om.rqf)
    variants = [(functors, morphisms), (functors[:1], morphisms), (functors, morphisms[1:]),
                (functors + functors[:1], morphisms), (functors, morphisms + morphisms[:1])]
    for i in range(len(functors)):
        for bad in one_value_perturbations(functors[i], fc.n):
            variants.append((functors[:i] + [bad] + functors[i + 1:], morphisms))
    for i in range(len(morphisms)):
        for bad in one_value_perturbations(morphisms[i], om.n):
            variants.append((functors, morphisms[:i] + [bad] + morphisms[i + 1:]))
    for homsets in variants:
        assert_same_transpose_check(*homsets, forward, backward)


def test_isometries_check_tests_the_omega_both_adjunctions_share(monkeypatch):
    """Both adjunctions reuse the Omega(C) cached on C, and the PI of that
    Omega comes from the n-by-n test, not from the open local bisections,
    so isometries-are-open-bisections still compares two independent sets
    after both ran.  The algebras are built on a copy of C with its own
    cache, so only the adjunctions touch the cache of C."""
    from framecat import quantale
    from framecat.suite import Instance, isometries_are_open_bisections
    tested = []
    real_test = quantale._partial_isometries

    def recorded_test(q):
        tested.append(q)
        return real_test(q)
    monkeypatch.setattr(quantale, "_partial_isometries", recorded_test)
    for inst in etale_categories():
        tc = inst.obj
        q = omega_object(dataclasses.replace(tc)).rqf
        s, _ = pi_restriction_monoid(q)
        verify_adjunction_I(tc, q, max_elements=1024)
        verify_adjunction_II(tc, s, max_elements=1024)
        om = omega_object(tc)
        assert any(r is om.rqf for r in tested), inst.name
        assert isometries_are_open_bisections(Instance(tc=tc)) == (True, None, ""), inst.name


@pytest.mark.parametrize("make,expected", [
    (lambda: pair_groupoid(2), (2, 2)),
    (lambda: pair_groupoid(1), (1, 1)),
    (lambda: cyclic2_category(), (1, 1)),
    (lambda: parallel_pair_category(), (2, 2)),
    (lambda: empty_category(), (1, 1)),
])
def test_adjunction_on_corpus_pairs(make, expected):
    tc = make()
    q = omega_object(tc).rqf
    adj = verify_adjunction_I(tc, q)
    assert adj.ok, adj.failures
    assert adj.sizes == expected


def test_adjunction_with_degenerate_quantale():
    # C(1-element RQF) is empty, so both hom-sets are empty for a non-empty C
    triv_q = omega_object(empty_category()).rqf
    adj = verify_adjunction_I(monoid_category([[0]]), triv_q)
    assert adj.ok
    assert adj.sizes == (0, 0)
    adj = verify_adjunction_I(empty_category(), triv_q)
    assert adj.sizes == (1, 1)


def test_adjunction_cross_pair():
    adj = verify_adjunction_I(pair_groupoid(1), omega_object(pair_groupoid(2)).rqf)
    assert adj.ok
    assert adj.sizes == (0, 0)


def test_adjunction_I_builds_omega_under_the_callers_bound():
    """Omega(C) of two objects joined by nine arrows has 2048 opens: it is
    built under the max_elements the caller passes, and one fewer allowed
    is refused, naming that bound."""
    tc = free_category_on_acyclic_graph(2, [(0, 1)] * 9)
    q = omega_object(pair_groupoid(1)).rqf
    with pytest.raises(BoundExceeded, match="^Omega\\(C\\) has 2048 opens > max_elements=2047$"):
        verify_adjunction_I(tc, q, max_elements=2047)
    adj = verify_adjunction_I(tc, q, max_elements=2048)
    assert adj.ok
    assert adj.sizes == (0, 0)


def test_adjunction_I_refuses_omega_past_the_bound_before_any_search(
        pair3, omega_pair3, monkeypatch):
    from framecat import duality

    def no_search(*args):
        raise AssertionError("hom-set searched past the bound")

    monkeypatch.setattr(duality, "enumerate_covering_functors", no_search)
    monkeypatch.setattr(duality, "enumerate_rqf_morphisms", no_search)
    with pytest.raises(BoundExceeded, match="^Omega\\(C\\) has 512 opens > max_elements=511$"):
        verify_adjunction_I(pair3, omega_pair3.rqf, max_elements=511)


def test_adjunction_I_refuses_q_past_the_bound_before_building_c_q(omega_pair2, monkeypatch):
    """Q = Omega(pair2) has 16 elements: max_elements=15 refuses it before
    C(Q) is built, against a C whose Omega is within the bound."""
    from framecat import duality

    def no_build(*args):
        raise AssertionError("C(Q) built past the bound")

    monkeypatch.setattr(duality, "c_object", no_build)
    with pytest.raises(BoundExceeded, match="^Q has 16 elements > max_elements=15$"):
        verify_adjunction_I(pair_groupoid(1), omega_pair2.rqf, max_elements=15)


def test_naturality_squares(pair2, omega_pair2):
    q = omega_pair2.rqf
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    assert check_naturality_in_category(swap, pair2, pair2, q) == (True, None)
    psi = omega_morphism(swap, omega_pair2, omega_pair2)
    assert check_naturality_in_quantale(psi, q, q, pair2) == (True, None)


# ---------------------------------------------------------------------------
# isomorphism search

def test_category_isomorphism_search(pair2, fc_pair2):
    assert find_category_isomorphism(pair2.cat, fc_pair2.topcat.cat) is not None
    assert find_category_isomorphism(pair2.cat, pair_groupoid(3).cat) is None
    mono = monoid_category([[0, 1], [1, 1]]).cat
    cyc = cyclic2_category().cat
    assert find_category_isomorphism(mono, cyc) is None


def test_isomorphism_search_tells_a_non_idempotent_from_idempotents():
    """In the first monoid a.a = b, in the second every element is
    idempotent, so they are not isomorphic.  Swapping a and b keeps every
    composite but a.a = b, whose product is placed after its factors."""
    squares = monoid_category([[0, 1, 2], [1, 2, 1], [2, 1, 2]]).cat
    idempotents = monoid_category([[0, 1, 2], [1, 1, 2], [2, 2, 2]]).cat
    assert find_category_isomorphism(squares, idempotents) is None
    assert find_category_isomorphism(idempotents, squares) is None
    for c in (squares, idempotents):
        assert find_category_isomorphism(c, c).tolist() == [0, 1, 2]


def test_isomorphism_search_keeps_identities_apart():
    """Sending both identities of the discrete category on two objects to
    one keeps d, r and every defined composite, but not e.e' undefined."""
    c = free_category_on_acyclic_graph(2, []).cat
    assert find_category_isomorphism(c, c).tolist() == [0, 1]


def first_isomorphism_oracle(c1, c2):
    """The first permutation p of the arrows, in lexicographic order, with
    p[d] = d'[p], p[r] = r'[p] and comp'[p, p] = p[comp], UNDEF where comp
    is UNDEF; None when there is none."""
    if c1.n != c2.n:
        return None
    undefined = c1.comp == UNDEF
    for perm in itertools.permutations(range(c1.n)):
        p = np.array(perm, dtype=np.int64)
        if (np.array_equal(p[c1.d], c2.d[p]) and np.array_equal(p[c1.r], c2.r[p])
                and np.array_equal(c2.comp[np.ix_(p, p)],
                                   np.where(undefined, UNDEF, p[c1.comp]))):
            return p
    return None


def assert_isomorphism_matches_oracle(c1, c2):
    """The search finds the oracle's isomorphism, or None with it, and the
    map and its inverse are both functors that cover."""
    got = find_category_isomorphism(c1, c2)
    want = first_isomorphism_oracle(c1, c2)
    assert (None if got is None else got.tolist()) == (None if want is None else want.tolist())
    if got is not None:
        assert validate_covering_functor(got, c1, c2).ok
        assert validate_covering_functor(np.argsort(got), c2, c1).ok
    return got


def test_isomorphism_search_matches_oracle_on_small_corpus_categories():
    """Each corpus category with at most 7 arrows (none has 7), a relabelled
    copy of it and C(Omega(C)), against one another whenever they have as
    many arrows."""
    rng = np.random.default_rng(3)
    cats = []
    for name, tc in small_corpus_categories():
        cats += [tc.cat, relabel(tc, rng.permutation(tc.n)).cat,
                 c_object(omega_object(tc).rqf).topcat.cat]
    found = sum(assert_isomorphism_matches_oracle(c1, c2) is not None
                for c1 in cats for c2 in cats if c1.n == c2.n)
    assert found > 3 * len(cats)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_categories(), min_size=2, max_size=6), st.randoms())
def test_isomorphism_search_matches_oracle_on_random_categories(tcs, rnd):
    """Every pair of the drawn categories, and their relabelled copies,
    with as many arrows, at most 7."""
    tcs = [tc for tc in tcs if tc.n <= 7]
    cats = [tc.cat for tc in tcs] + [relabel(tc, rnd.sample(range(tc.n), tc.n)).cat
                                     for tc in tcs]
    for c1 in cats:
        for c2 in cats:
            if c1.n == c2.n:
                assert_isomorphism_matches_oracle(c1, c2)


def test_quantale_isomorphism_check(omega_pair2):
    q = omega_pair2.rqf
    assert quantale_isomorphism_ok(np.arange(16), q, q)
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    psi = omega_morphism(swap, omega_pair2, omega_pair2)
    assert quantale_isomorphism_ok(psi, q, q)
    not_bij = np.zeros(16, dtype=np.int64)
    assert not quantale_isomorphism_ok(not_bij, q, q)


def quantale_isomorphism_ok_by_two_scans(f, q1, q2) -> bool:
    """quantale_isomorphism_ok as it was: the scan of f, then the scan of
    its inverse."""
    f = np.asarray(f, dtype=np.int64)
    if sorted(int(v) for v in f) != list(range(q2.n)) or q1.n != q2.n:
        return False
    if not validate_rqf_morphism(f, q1, q2).ok:
        return False
    inv = np.zeros(q2.n, dtype=np.int64)
    for x in range(q1.n):
        inv[int(f[x])] = x
    return validate_rqf_morphism(inv, q2, q1).ok


def validate_rqf_morphism_unblocked(theta, q, r):
    """validate_rqf_morphism as it was before its three table laws were
    compared a block of rows at a time."""
    theta = np.asarray(theta, dtype=np.int64)
    rep = Report(subject="rqf-morphism")
    rep.layers_run.append("rqf-morphism")
    if theta.shape != (q.n,) or ((theta < 0) | (theta >= r.n)).any():
        rep.add("morphism.map_range", (0,))
        return rep
    for law, qt, rt in (("morphism.preserves_joins", q.join, r.join),
                        ("morphism.preserves_finite_meets", q.meet, r.meet),
                        ("morphism.semigroup", q.mul, r.mul)):
        diff = theta[qt] != rt[np.ix_(theta, theta)]
        if diff.any():
            a, b = np.argwhere(diff)[0]
            rep.add(law, (int(a), int(b)))
        if law == "morphism.preserves_joins" and theta[q.bottom] != r.bottom:
            rep.add("morphism.preserves_bottom", (q.bottom,))
    bad = np.flatnonzero(theta[q.star] != r.star[theta])
    if bad.size:
        rep.add("morphism.preserves_star", (int(bad[0]),))
    bad = np.flatnonzero(theta[q.plus] != r.plus[theta])
    if bad.size:
        rep.add("morphism.preserves_plus", (int(bad[0]),))
    if theta[q.top] != r.top:
        rep.add("morphism.preserves_top", (q.top,))
    if theta[q.unit] != r.unit:
        rep.add("morphism.preserves_unit", (q.unit,))
    r_pi_set = set(partial_isometries(r))
    for a in partial_isometries(q):
        if int(theta[a]) not in r_pi_set:
            rep.add("morphism.preserves_isometries", (a, int(theta[a])))
            break
    return rep


def _roundtrip_isomorphisms():
    """For each corpus rqf Q, the map L^vee(PI(Q)) -> Q sending each ideal
    to its join, which the ideals-of-isometries-roundtrip check tests."""
    out = []
    for inst in corpus_rqfs():
        q = inst.obj
        s, carrier = pi_restriction_monoid(q)
        lv = l_vee(s)
        iso = np.array([q.join_fold([carrier[x] for x in iter_bits(m)])
                        for m in ideal_masks(lv)[0]], dtype=np.int64)
        out.append(pytest.param(iso, lv.rqf, q, id=inst.name))
    return out


@pytest.mark.parametrize("iso,q1,q2", _roundtrip_isomorphisms())
def test_quantale_isomorphism_check_matches_two_scans(iso, q1, q2):
    """The same verdict on the corpus round-trip maps (all isomorphisms),
    the round-trip map followed by each automorphism of Q (up to 16
    elements), each one-value perturbation of it, and random permutations
    of it."""
    assert quantale_isomorphism_ok(iso, q1, q2)
    autos = [] if q2.n > 16 else [t for t in enumerate_rqf_morphisms(q2, q2)
                                  if len(set(t.tolist())) == q2.n]
    rng = np.random.default_rng(q1.n)
    perms = [rng.permutation(q1.n) for _ in range(10)]
    for f in (*(t[iso] for t in autos),
              *one_value_perturbations(iso, q2.n, range(min(q1.n, 64))),
              *(iso[p] for p in perms)):
        assert quantale_isomorphism_ok(f, q1, q2) == \
            quantale_isomorphism_ok_by_two_scans(f, q1, q2), f.tolist()


# ---------------------------------------------------------------------------
# the transposes against the bodies they had before they were one array map
# over member rows for both adjunctions: the element-by-element ones, the
# ones that read the columns of a bit matrix back as Python int masks, and
# transposes_I, which read the opens of Omega(C) off their masks; same image
# or None, on every hom-set member of the small corpus pairs and of pair3,
# and on one-value perturbations of each.  The three raised ValueError where
# the transposes return None, at the same set: no open, or no filter.

def transpose_forward_oracle(alpha, tc, q, fc, om):
    alpha = np.asarray(alpha, dtype=np.int64)
    filters = FilterMasks(fc).members
    index = open_index(om)
    out = np.zeros(q.n, dtype=np.int64)
    for a in range(q.n):
        members = mask_of(c for c in range(tc.n)
                          if has_bit(filters[int(alpha[c])], a))
        i = index.get(members)
        if i is None:
            return None
        out[a] = i
    return out


def transpose_backward_oracle(beta, tc, q, fc, om):
    beta = np.asarray(beta, dtype=np.int64)
    index = FilterMasks(fc).index
    out = np.zeros(tc.n, dtype=np.int64)
    for c in range(tc.n):
        members = mask_of(a for a in range(q.n) if has_bit(om.opens[int(beta[a])], c))
        k = index.get(members)
        if k is None:
            return None
        out[c] = k
    return out


def transpose_forward_bit_matrix(alpha, tc, q, fc, om):
    alpha = np.asarray(alpha, dtype=np.int64)
    members = bit_matrix(FilterMasks(fc).members, q.n)
    index = open_index(om)
    out = np.zeros(q.n, dtype=np.int64)
    for a, open_mask in enumerate(row_masks(members[alpha].T)):
        i = index.get(open_mask)
        if i is None:
            return None
        out[a] = i
    return out


def transpose_backward_bit_matrix(beta, tc, q, fc, om):
    opens = [om.opens[b] for b in np.asarray(beta, dtype=np.int64).tolist()]
    index = FilterMasks(fc).index
    out = np.zeros(tc.n, dtype=np.int64)
    for c, members in enumerate(row_masks(bit_matrix(opens, tc.n).T)):
        k = index.get(members)
        if k is None:
            return None
        out[c] = k
    return out


def transposes_I_oracle(tc, q, fc, om):
    """duality.transposes_I as it was: the filter rows of C(Q) and the
    opens of Omega(C) read off their masks (bits.bit_matrix), and None
    where it raised ValueError."""
    filters = q.leq[fc.generators]              # [k, x]: x in filter k
    opens = bit_matrix(om.opens, tc.n)         # [i, c]: c in open i
    find_filter, find_open = word_lookup(pack_words(filters)), word_lookup(pack_words(opens))

    def transposed(images, rows, find):
        out = find(pack_words(rows[np.asarray(images, dtype=np.int64)].T))
        return None if (out < 0).any() else out

    return (lambda alpha: transposed(alpha, filters, find_open),
            lambda beta: transposed(beta, opens, find_filter))


def adjunction_I_transposes(tc, q, fc, om):
    """forward, its oracles, backward, its oracles, each taking the map
    alone."""
    forward, backward = map(one_map, transposes(fc, om))
    forward_I, backward_I = transposes_I_oracle(tc, q, fc, om)
    return (forward,
            [forward_I] + [lambda m, body=body: body(m, tc, q, fc, om)
                           for body in (transpose_forward_oracle, transpose_forward_bit_matrix)],
            backward,
            [backward_I] + [lambda m, body=body: body(m, tc, q, fc, om)
                            for body in (transpose_backward_oracle,
                                         transpose_backward_bit_matrix)])


@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_transposes_match_oracles_on_small_corpus_pairs(name2, tc2):
    q = omega_object(tc2).rqf
    fc = c_object(q)
    for name1, tc1 in small_corpus_categories():
        om = omega_object(tc1)
        functors = enumerate_covering_functors(tc1, fc.topcat)
        morphisms = enumerate_rqf_morphisms(q, om.rqf, max_elements=1024)
        assert_transposes_match_oracles(*adjunction_I_transposes(tc1, q, fc, om),
                                        functors, morphisms, fc.n, om.n)


def test_transposes_match_oracles_on_pair3(pair3, omega_pair3):
    q = omega_pair3.rqf
    fc = c_object(q)
    functors = enumerate_covering_functors(pair3, fc.topcat)
    morphisms = enumerate_rqf_morphisms(q, omega_pair3.rqf, max_elements=1024)
    assert len(functors) == len(morphisms) == 6
    assert_transposes_match_oracles(*adjunction_I_transposes(pair3, q, fc, omega_pair3),
                                    functors, morphisms, fc.n, omega_pair3.n)


def test_transposes_match_oracles_on_degenerate_shapes():
    # no arrows on either side; one arrow and no filter to send it to
    triv_q = omega_object(empty_category()).rqf
    triv_fc = c_object(triv_q)
    assert triv_fc.n == 0
    for tc in (empty_category(), monoid_category([[0]])):
        om = omega_object(tc)
        forward, forward_oracles, backward, backward_oracles = \
            adjunction_I_transposes(tc, triv_q, triv_fc, om)
        alpha = np.zeros(tc.n, dtype=np.int64)
        for oracle in forward_oracles:
            assert map_outcome(forward, alpha) == map_outcome(oracle, alpha)
        for beta in range(om.n):
            m = np.array([beta], dtype=np.int64)
            for oracle in backward_oracles:
                assert map_outcome(backward, m) == map_outcome(oracle, m)
    # the last case: the one arrow lies in no open beta(q) of the bottom
    assert map_outcome(backward, np.array([0])) is None


# ---------------------------------------------------------------------------
# chi and omega, the transposes of identities, against the bodies they had
# before: chi by the index of each X-set, omega by build_omega_map_oracle,
# sobriety by the image of each open as a mask, and the adjunction I
# transposes between C and Omega(C) against transposes_I; on every corpus
# category and rqf, their reversed relabellings and random categories

def chi_by_index(q):
    """build_chi's map as it was: the index of X_a among the opens of
    Omega(C(Q)), for each element a."""
    fc = c_object(q)
    om = omega_object(fc.topcat)
    x_masks = FilterMasks(fc).x_masks
    return np.array([om.opens.index(x_masks[a]) for a in range(q.n)], dtype=np.int64)


def is_sober_by_opens(tc, res):
    """is_sober as it was: bijectivity by a set of Python ints, then the
    image of each open under omega as a mask, against its X-set."""
    omega, fc = res.omega, res.fc
    if len(set(int(v) for v in omega)) != tc.n or fc.n != tc.n:
        return False, ("not_bijective", tc.n, fc.n)
    x_masks = FilterMasks(fc).x_masks
    for i in range(res.om.n):
        image = mask_of(int(omega[x]) for x in iter_bits(res.om.opens[i]))
        if image != x_masks[i]:
            return False, ("image_of_open", i)
    return True, None


def is_spatial_by_dict(q, fc):
    """is_spatial as it was: the X-set mask of each element in a dict, the
    witness being the first repeat and the element that had its mask."""
    seen = {}
    for a, m in enumerate(FilterMasks(fc).x_masks):
        if m in seen:
            return False, (seen[m], a)
        seen[m] = a
    return True, None


def assert_chi_matches_oracle(q):
    assert build_chi(q).chi.tolist() == chi_by_index(q).tolist()
    assert is_spatial(q) == is_spatial_by_dict(q, c_object(q))


@pytest.mark.parametrize("columns", [[0, 1, 0, 1, 2], [0, 1, 2, 3], [3, 3, 3], [0, 1, 2, 1, 0],
                                     [5, 4, 3, 4, 5, 0]])
def test_is_spatial_witness_on_repeated_x_sets(columns, monkeypatch):
    """A stubbed C(Q) whose member rows repeat columns: is_spatial names the
    least a whose X-set an earlier element has, with the first such, as the
    dict loop did."""
    from types import SimpleNamespace
    from framecat import duality
    rows = bit_matrix(range(8), 3)  # the eight subsets of three filters
    stub = SimpleNamespace(members=rows[columns].T)  # X_a = the columns[a]-th subset
    monkeypatch.setattr(duality, "c_object", lambda q: stub)
    q = SimpleNamespace(n=len(columns))
    got = is_spatial(q)
    assert got == is_spatial_by_dict(q, stub)
    first = {c: columns.index(c) for c in columns}
    repeats = [a for a, c in enumerate(columns) if first[c] != a]
    assert got == ((False, (first[columns[repeats[0]]], repeats[0])) if repeats else (True, None))


def assert_unit_and_counit_match_oracles(tc):
    """omega, its report and sobriety for C, chi for Omega(C), and the
    transposes between C and Omega(C) on the hom-set members and their
    one-value perturbations.  A sober C is isomorphic to C(Omega(C)) by
    omega, which omega_is_isomorphism checks through its inverse."""
    om = omega_object(tc)
    res = build_omega_map(tc, om)
    omega, laws = build_omega_map_oracle(tc, om, res.fc)
    assert res.omega.tolist() == omega.tolist()
    assert [(v.law, v.witness) for v in res.report.violations] == laws
    sober = is_sober(tc, res)
    assert sober == is_sober_by_opens(tc, res)
    assert omega_is_isomorphism(tc, res)[0] == sober[0]
    q = om.rqf
    assert_chi_matches_oracle(q)
    fc = c_object(q)
    forward, backward = map(one_map, transposes(fc, om))
    forward_I, backward_I = transposes_I_oracle(tc, q, fc, om)
    assert_transposes_match_oracles(forward, [forward_I], backward, [backward_I],
                                    enumerate_covering_functors(tc, fc.topcat),
                                    enumerate_rqf_morphisms(q, om.rqf, max_elements=1024),
                                    fc.n, om.n)


@pytest.mark.parametrize("name", [i.name for i in etale_categories()])
def test_unit_and_counit_match_oracles_on_corpus_categories(name):
    tc = next(i.obj for i in etale_categories() if i.name == name)
    assert_unit_and_counit_match_oracles(tc)
    assert_unit_and_counit_match_oracles(relabel(tc, reversed_labels(tc.n)))


@pytest.mark.parametrize("name", [i.name for i in corpus_rqfs()])
def test_chi_matches_oracle_on_corpus_rqfs(name):
    q = next(i.obj for i in corpus_rqfs() if i.name == name)
    assert_chi_matches_oracle(q)
    assert_chi_matches_oracle(relabel_rqf(q, reversed_labels(q.n)))


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_unit_and_counit_match_oracles_on_random_categories(tc):
    assert_unit_and_counit_match_oracles(tc)


def test_adjunction_I_records_a_transpose_outside_the_homset(monkeypatch):
    """A functor whose forward transpose is not in the morphism hom-set is a
    failure of the check, not an error, even where that transpose is no
    map into the opens at all: omega of pair2 read as a map from the parity
    groupoid, whose topology lacks the singletons it would pull back."""
    from framecat import duality
    pair2, parity = pair_groupoid(2), parity_pair_groupoid()
    om = omega_object(pair2)
    alpha = build_omega_map(pair2, om).omega
    fc = c_object(om.rqf)
    assert (transposes(fc, omega_object(parity))[0](alpha) < 0).any()
    monkeypatch.setattr(duality, "enumerate_covering_functors", lambda *args: [alpha])
    rep = verify_adjunction_I(parity, om.rqf)
    assert not rep.ok
    assert rep.failures[0] == ("forward_transpose_not_in_homset", 0)


# ---------------------------------------------------------------------------
# each hom-set search keeps one decision per map, for the laws it does not
# compile (enumerate_rqf_morphisms, enumerate_covering_functors and
# crm.enumerate_callitic_morphisms); on every map each search gives, that
# decision must equal the verdict of the full validators

@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_residual_decisions_match_validators_on_small_corpus_pairs(name2, tc2):
    """Both adjunction checks of every small C1 against Omega(C2) and
    PI(Omega(C2)): the hom-sets of the homsets benchmark."""
    q = omega_object(tc2).rqf
    s, _ = pi_restriction_monoid(q)
    for name1, tc1 in small_corpus_categories():
        assert_residual_decisions_match_validators(tc1, q, s)


def test_residual_decisions_match_validators_on_pair3(pair3, omega_pair3):
    """pair3 and a relabelled pair3 against Omega(pair3), n = 512, and
    PI(Omega(pair3)): six maps in every hom-set."""
    q = omega_pair3.rqf
    s, _ = pi_restriction_monoid(q)
    relabelled = relabel(pair3, np.random.default_rng(2).permutation(pair3.n))
    for tc in (pair3, relabelled):
        found = assert_residual_decisions_match_validators(tc, q, s)
        assert {key: len(homset) for key, (homset, _) in found.items()} == \
            {"rqf": 6, "callitic": 6, "functors-I": 6, "functors-II": 6}


def test_residual_decisions_reject_maps_on_two_empty_homsets(pair2, pair3, omega_pair3):
    """Two pairs with empty hom-sets.  pair2 -> C(PI(Omega(pair3))): the
    two identities of pair2 have fibres of two arrows and those of C(S)
    fibres of three, so the functor search gives no map, where the search
    without fibre domains gives six arrow maps, none of them surjective.
    PI(qframe-chain3) -> PI(Omega(pair3)): the search gives eight maps that
    are not callitic."""
    pi3, _ = pi_restriction_monoid(omega_pair3.rqf)
    found = assert_residual_decisions_match_validators(pair2, omega_pair3.rqf, pi3)
    homset, maps = found["functors-II"]
    assert (len(homset), len(maps)) == (0, 0)
    dst = s_filters(pi3).topcat
    homset, unpruned = searched(map_oracles, "arrow_maps_oracle",
                                lambda: covering_functors_by_unpruned_search(pair2, dst))
    assert (len(homset), len(unpruned)) == (0, 6)
    surjective = {"covering.d_surjective", "covering.r_surjective"}
    for f in unpruned:
        assert surjectivity_failures(f.tolist(), pair2.cat, dst.cat), f.tolist()
        assert set(validate_covering_functor(f, pair2.cat, dst.cat).laws()) <= surjective
    chain3 = next(i.obj for i in corpus_rqfs() if i.name == "qframe-chain3")
    found = assert_residual_decisions_match_validators(
        pair3, chain3, pi_restriction_monoid(chain3)[0])
    homset, maps = found["callitic"]
    assert (len(homset), len(maps)) == (0, 8)


@settings(max_examples=20, deadline=None)
@given(small_categories(), small_categories())
def test_residual_decisions_match_validators_on_random_categories(tc1, tc2):
    """C1 against Omega(C2) and PI(Omega(C2)), and against its own; and
    Omega(F): Omega(C2) -> Omega(C1) is an rqf morphism for every covering
    functor F: C1 -> C2, and for every F: C1 -> C1."""
    om1 = omega_object(tc1)
    for target in (tc2, tc1):
        om2 = omega_object(target)
        q = om2.rqf
        assert_residual_decisions_match_validators(tc1, q, pi_restriction_monoid(q)[0])
        for f in enumerate_covering_functors(tc1, target):
            assert validate_rqf_morphism(omega_morphism(f, om1, om2), q, om1.rqf).ok, f


def test_validate_rqf_morphism_needs_no_valid_endpoints():
    """The atoms of the boolean frame on three atoms onto those of the
    non-distributive M3: the rqf search keeps the map, which keeps every
    law it compiles on J and sends partial isometries to partial
    isometries, but the meet of {0} and {1, 2} (and so the product, which
    is the meet in a frame) is not preserved, and validate_rqf_morphism,
    which scans all pairs, says so."""
    q, r = frame_as_quantale(boolean_frame(3)), frame_as_quantale(m3_lattice())
    theta = np.array([0, 1, 2, 4, 3, 4, 4, 4])
    assert theta.tolist() in [m.tolist() for m in enumerate_rqf_morphisms(q, r)]
    rep = validate_rqf_morphism(theta, q, r)
    assert rep.laws() == ["morphism.preserves_finite_meets", "morphism.semigroup"]
    assert [v.witness for v in rep.violations] == [(1, 6), (1, 6)]


def join_extension(q, r, images):
    """The map sending each j in J(q) to images[i] and every element to the
    join of the images of the j below it."""
    theta = np.full(q.n, r.bottom, dtype=np.int64)
    for j, t in zip(join_irreducibles(q), images):
        theta = np.where(q.leq[j], r.join[theta, t], theta)
    return theta


@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_join_extensions_that_are_morphisms_are_in_the_homset(name2, tc2):
    """Omega(C2) -> Omega(C1) for every small C1: maps extended by joins
    from seeded random values on J, and the hom-set members with one value
    on J moved.  Each that validate_rqf_morphism passes is in the hom-set
    the search finds."""
    q = omega_object(tc2).rqf
    js = join_irreducibles(q)
    rng = np.random.default_rng(0)
    for name1, tc1 in small_corpus_categories():
        r = omega_object(tc1).rqf
        found = enumerate_rqf_morphisms(q, r)
        homset = {m.tobytes() for m in found}
        maps = [join_extension(q, r, rng.integers(0, r.n, len(js))) for _ in range(100)]
        for m in found:
            maps += [join_extension(q, r, images)
                     for images in one_value_perturbations(m[js], r.n)]
        for theta in maps:
            assert validate_rqf_morphism(theta, q, r).ok == (theta.tobytes() in homset), \
                theta.tolist()


# ---------------------------------------------------------------------------
# the covering functor search against its body before it pruned by the
# injective half of the covering condition: the same functors in the same
# order

def covering_functors_oracle(src, dst, max_arrows=12):
    cs, cd = src.cat, dst.cat
    if cs.n > max_arrows or cd.n > max_arrows:
        raise BoundExceeded(f"hom-set enumeration bounded to {max_arrows} arrows")
    order = sorted(range(cs.n), key=lambda a: (not cs.is_identity(a), a))
    dst_ids = [e for e in range(cd.n) if cd.is_identity(e)]
    fmap = np.full(cs.n, -1, dtype=np.int64)
    found = []

    def candidates(a):
        if cs.is_identity(a):
            return dst_ids
        de, re_ = fmap[cs.d[a]], fmap[cs.r[a]]
        return [y for y in range(cd.n)
                if (de < 0 or cd.d[y] == de) and (re_ < 0 or cd.r[y] == re_)]

    def consistent(a):
        fa = fmap[a]
        if cs.d[a] >= 0 and fmap[cs.d[a]] >= 0 and cd.d[fa] != fmap[cs.d[a]]:
            return False
        if fmap[cs.r[a]] >= 0 and cd.r[fa] != fmap[cs.r[a]]:
            return False
        for b in range(cs.n):
            if fmap[b] < 0:
                continue
            for x, y in ((a, b), (b, a)):
                c = cs.comp[x, y]
                if c != UNDEF and fmap[c] >= 0:
                    z = cd.comp[fmap[x], fmap[y]]
                    if z == UNDEF or z != fmap[c]:
                        return False
        return True

    def backtrack(i):
        if i == len(order):
            found.append(fmap.copy())
            return
        a = order[i]
        for y in candidates(a):
            fmap[a] = y
            if consistent(a):
                backtrack(i + 1)
            fmap[a] = -1

    backtrack(0)
    return [f for f in found if validate_covering_functor(f, cs, cd).ok
            and continuity_check(f, src, dst)[0]]


def assert_search_sound(src, dst):
    """Every map arrow_maps yields for enumerate_covering_functors(src, dst)
    is a covering functor, injective and surjective: validate_covering_functor
    passes it, and only continuity is left to decide."""
    homset, yielded = searched_arrow_maps(src, dst)
    for f in yielded:
        assert validate_covering_functor(f, src.cat, dst.cat).ok, f
    assert len(yielded) >= len(homset)


@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_functor_search_yields_only_injective_functors_on_small_corpus_pairs(name2, tc2):
    filters = c_object(omega_object(tc2).rqf).topcat
    for name1, tc1 in small_corpus_categories():
        assert_search_sound(tc1, tc2)
        assert_search_sound(tc1, filters)


@settings(max_examples=60, deadline=None)
@given(small_categories(), small_categories())
def test_functor_search_yields_only_injective_functors_on_random_categories(tc1, tc2):
    for src, dst in ((tc1, tc2), (tc2, tc1), (tc1, tc1)):
        assert_search_sound(src, dst)


def assert_same_functors(src, dst):
    got = enumerate_covering_functors(src, dst)
    assert [f.tolist() for f in got] == [f.tolist() for f in covering_functors_oracle(src, dst)]
    return got


@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_covering_functor_search_matches_oracle_on_small_corpus_pairs(name2, tc2):
    """C1 -> C2 and C1 -> C(Omega(C2)), the functor hom-set of the homsets
    benchmark, for every small C1."""
    filters = c_object(omega_object(tc2).rqf).topcat
    for name1, tc1 in small_corpus_categories():
        assert_same_functors(tc1, tc2)
        assert_same_functors(tc1, filters)


def test_covering_functor_search_matches_oracle_on_pair3(pair3, omega_pair3):
    assert len(assert_same_functors(pair3, c_object(omega_pair3.rqf).topcat)) == 6


@settings(max_examples=60, deadline=None)
@given(small_categories(), small_categories())
def test_covering_functor_search_matches_oracle_on_random_categories(tc1, tc2):
    for src, dst in ((tc1, tc2), (tc2, tc1), (tc1, tc1)):
        assert_same_functors(src, dst)


def test_quantale_isomorphism_check_needs_the_order(omega_pair2):
    """A bijection that keeps every table but the order is no isomorphism:
    the identity from Omega(pair2) to a copy whose order misses one pair."""
    q = omega_pair2.rqf
    leq = np.array(q.leq)
    leq[0, 5] = False
    assert not quantale_isomorphism_ok(np.arange(q.n), q, dataclasses.replace(q, leq=leq))


def test_rqf_morphism_report_names_cells_past_the_first_block(omega_pair3):
    """One cell of join, meet or mul moved in a row of a later block of
    rows: the identity names that cell, as the unblocked scan does."""
    q = omega_pair3.rqf
    ident = np.arange(q.n)
    for table, a, b in (("join", 300, 7), ("meet", 511, 0), ("mul", 200, 499)):
        moved = np.array(getattr(q, table))
        moved[a, b] = (moved[a, b] + 1) % q.n
        r = dataclasses.replace(q, **{table: moved})
        rep = validate_rqf_morphism(ident, q, r)
        assert rep == validate_rqf_morphism_unblocked(ident, q, r)
        assert (a, b) in [v.witness for v in rep.violations]


@pytest.mark.parametrize("iso,q1,q2", _roundtrip_isomorphisms())
def test_rqf_morphism_report_matches_unblocked_scan(iso, q1, q2):
    """The same report, laws and witnesses, on the corpus round-trip maps,
    each one-value perturbation of them (up to 64) and random maps."""
    rng = np.random.default_rng(q1.n + 1)
    for f in (iso, *one_value_perturbations(iso, q2.n, range(min(q1.n, 64))),
              *(rng.integers(q2.n, size=q1.n) for _ in range(5))):
        assert validate_rqf_morphism(f, q1, q2) == validate_rqf_morphism_unblocked(f, q1, q2)
