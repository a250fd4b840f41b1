import numpy as np
import pytest

from framecat.bits import has_bit, mask_of
from framecat.corpus import (chain_frame, cyclic2_category, empty_category,
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
                              transpose_backward, transpose_forward,
                              validate_rqf_morphism, verify_adjunction_I)
from framecat.functors import c_object, omega_morphism, omega_object
from framecat.quantale import frame_as_quantale
from map_oracles import assert_transposes_match_oracles, map_outcome, small_corpus_categories


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
    id_mask = mask_of(k for k, f in enumerate(chi.fc.filters)
                      if f.members & q.projection_mask())
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
    from framecat.order import frame_spatial_check, subframe
    q = omega_pair2.rqf
    ok_q, _ = is_spatial(q)
    pframe, _ = subframe(q, q.projections())
    ok_p, _ = frame_spatial_check(pframe)
    assert ok_q == ok_p is True


# ---------------------------------------------------------------------------
# omega map and sobriety

def test_omega_map_is_bijective_covering_functor(pair2):
    res = build_omega_map(pair2)
    assert res.report.ok
    assert is_sober(pair2, res) == (True, None)
    assert omega_is_isomorphism(pair2, res) == (True, "")


def test_omega_map_identities_to_identity_filters(pair2):
    res = build_omega_map(pair2)
    for e in pair2.cat.identities():
        k = int(res.omega[e])
        assert res.fc.filters[k].members & res.om.rqf.projection_mask()


def test_omega_filter_contains_exactly_the_opens_containing_the_arrow(pair2):
    res = build_omega_map(pair2)
    for x in range(pair2.n):
        members = res.fc.filters[int(res.omega[x])].members
        for i, u in enumerate(res.om.opens):
            assert bool(members >> i & 1) == bool(u >> x & 1)


def test_parity_groupoid_is_not_sober():
    tc = parity_pair_groupoid()
    res = build_omega_map(tc)
    assert res.report.ok  # still a continuous covering functor
    ok, wit = is_sober(tc, res)
    assert not ok


def test_sober_iff_identity_space_sober():
    # the parity groupoid's identity space is indiscrete: both fail together
    tc = parity_pair_groupoid()
    res = build_omega_map(tc)
    assert not is_sober(tc, res)[0]
    disc = pair_groupoid(2)
    assert is_sober(disc, build_omega_map(disc))[0]


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
    beta = transpose_forward(res.omega, pair2, q, fc, om)
    assert np.array_equal(beta, np.arange(16))
    assert validate_rqf_morphism(beta, q, om.rqf).ok


def test_transpose_of_identity_morphism_is_omega(pair2, omega_pair2):
    # beta = id : Q -> Omega(C) with Q = Omega(C) transposes to omega
    q = omega_pair2.rqf
    fc = c_object(q)
    alpha = transpose_backward(np.arange(16), pair2, q, fc, omega_pair2)
    res = build_omega_map(pair2, omega_pair2)
    assert np.array_equal(alpha, res.omega)


def test_transposes_are_mutually_inverse_on_all_pairs(pair2, omega_pair2):
    q = omega_pair2.rqf
    fc = c_object(q)
    om = omega_pair2
    for alpha in enumerate_covering_functors(pair2, fc.topcat):
        beta = transpose_forward(alpha, pair2, q, fc, om)
        assert validate_rqf_morphism(beta, q, om.rqf).ok
        assert np.array_equal(transpose_backward(beta, pair2, q, fc, om), alpha)
    for beta in enumerate_rqf_morphisms(q, om.rqf):
        alpha = transpose_backward(beta, pair2, q, fc, om)
        assert np.array_equal(transpose_forward(alpha, pair2, q, fc, om), beta)


def _stub_transpose(table):
    """The transpose that looks each map up by its single value in table;
    a value missing from table gives None."""
    def transpose(m):
        image = table.get(int(m[0]))
        return None if image is None else np.array([image], dtype=np.int64)
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


def test_quantale_isomorphism_check(omega_pair2):
    q = omega_pair2.rqf
    assert quantale_isomorphism_ok(np.arange(16), q, q)
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    psi = omega_morphism(swap, omega_pair2, omega_pair2)
    assert quantale_isomorphism_ok(psi, q, q)
    not_bij = np.zeros(16, dtype=np.int64)
    assert not quantale_isomorphism_ok(not_bij, q, q)


# ---------------------------------------------------------------------------
# the transposes against the element-by-element bodies they had before they
# worked on whole bit matrices: same image or same ValueError text, on every
# hom-set member of the small corpus pairs and of pair3, and on one-value
# perturbations of each

def transpose_forward_oracle(alpha, tc, q, fc, om):
    alpha = np.asarray(alpha, dtype=np.int64)
    out = np.zeros(q.n, dtype=np.int64)
    for a in range(q.n):
        members = mask_of(c for c in range(tc.n)
                          if has_bit(fc.filters[int(alpha[c])].members, a))
        i = om.index.get(members)
        if i is None:
            raise ValueError(f"transpose of alpha is not open at element {a}")
        out[a] = i
    return out


def transpose_backward_oracle(beta, tc, q, fc, om):
    beta = np.asarray(beta, dtype=np.int64)
    out = np.zeros(tc.n, dtype=np.int64)
    for c in range(tc.n):
        members = mask_of(a for a in range(q.n) if has_bit(om.opens[int(beta[a])], c))
        out[c] = fc.filter_of(members, f"beta^-1(O_{c})")
    return out


def adjunction_I_transposes(tc, q, fc, om):
    """forward, its oracle, backward, its oracle, each taking the map alone."""
    return (lambda m: transpose_forward(m, tc, q, fc, om),
            lambda m: transpose_forward_oracle(m, tc, q, fc, om),
            lambda m: transpose_backward(m, tc, q, fc, om),
            lambda m: transpose_backward_oracle(m, tc, q, fc, om))


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
        forward, forward_oracle, backward, backward_oracle = \
            adjunction_I_transposes(tc, triv_q, triv_fc, om)
        alpha = np.zeros(tc.n, dtype=np.int64)
        assert map_outcome(forward, alpha) == map_outcome(forward_oracle, alpha)
        for beta in range(om.n):
            m = np.array([beta], dtype=np.int64)
            assert map_outcome(backward, m) == map_outcome(backward_oracle, m)
    # the last case: the one arrow lies in no open beta(q) of the bottom
    assert map_outcome(backward, np.array([0])) == (
        "ValueError", "beta^-1(O_0) is not a completely prime filter")
