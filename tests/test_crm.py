import numpy as np
import pytest

from framecat.bits import iter_bits, mask_of
from framecat.corpus import (chain_frame, corpus_crms, corpus_rqfs, negative_crm_fixture,
                             pair_groupoid, semilattice_monoid_category)
from framecat.crm import (_ideal_closure, _partial_join_table, crm_compatible,
                          crm_lub, enumerate_callitic_morphisms,
                          is_callitic, is_proper, l_vee, make_crm,
                          pi_restriction_monoid, preserves_finite_meets,
                          s_filter_bijection, s_filters, s_filters_list,
                          theta_extension,
                          validate_crm, validate_crm_morphism,
                          verify_adjunction_II)
from framecat.duality import (find_category_isomorphism,
                              quantale_isomorphism_ok, verify_adjunction_I)
from framecat.functors import c_object, omega_object
from framecat.quantale import frame_as_quantale, partial_isometries, validate_rqf
from framecat.topcat import validate_covering_functor


@pytest.fixture(scope="module")
def i2(omega_pair2_module):
    s, carrier = pi_restriction_monoid(omega_pair2_module.rqf)
    return s, carrier, omega_pair2_module.rqf


@pytest.fixture(scope="module")
def omega_pair2_module():
    return omega_object(pair_groupoid(2))


def test_partial_bijection_monoid(i2):
    s, carrier, q = i2
    assert s.n == 7
    assert validate_crm(s).ok
    assert carrier[s.zero] == q.bottom
    assert carrier[s.unit] == q.unit


def test_crm_of_frame_quantale_is_the_frame():
    q = frame_as_quantale(chain_frame(4))
    s, carrier = pi_restriction_monoid(q)
    assert s.n == 4
    assert validate_crm(s).ok
    assert (s.mul == s.meet).all()


def test_trivial_monoid_is_a_crm():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    assert validate_crm(s).ok


def test_missing_compatible_join_detected():
    inst = negative_crm_fixture()
    rep = validate_crm(inst.obj)
    assert "crm.compatible_join_missing" in rep.laws()
    wit = rep.violations[0].witness
    assert len(wit) == 2
    assert crm_compatible(inst.obj, *wit)
    assert crm_lub(inst.obj, wit) is None


def test_compatibility_in_partial_bijections(i2):
    s, carrier, q = i2
    # singleton transpositions are compatible (their union is the swap)
    t01 = carrier.index(2)   # {(0,1)}
    t10 = carrier.index(4)   # {(1,0)}
    d0 = carrier.index(1)    # {(0,0)}
    assert crm_compatible(s, t01, t10)
    assert not crm_compatible(s, t01, d0)
    assert crm_lub(s, (t01, t10)) is not None


# ---------------------------------------------------------------------------
# the ideal completion

def test_ideal_completion_of_partial_bijections(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    assert lv.rqf.n == 16
    assert validate_rqf(lv.rqf).ok
    iso = np.array([q.frame.join_fold([carrier[x] for x in iter_bits(m)])
                    for m in lv.ideals], dtype=np.int64)
    assert quantale_isomorphism_ok(iso, lv.rqf, q)


def closed_ideals_bruteforce(s):
    """Every subset of S that is down-closed, contains the zero (the empty
    join) and contains the join of each pair of its elements that has one."""
    leq = np.asarray(s.leq)
    down = [mask_of(np.flatnonzero(leq[:, x])) for x in range(s.n)]
    joins = []
    for a in range(s.n):
        for b in range(a + 1, s.n):
            uppers = np.flatnonzero(leq[a, :] & leq[b, :])
            least = [u for u in uppers if leq[u, uppers].all()]
            if least:
                joins.append((a, b, int(least[0])))
    found = []
    for mask in range(1 << s.n):
        if not (mask >> s.zero) & 1:
            continue
        if any((mask >> x) & 1 and down[x] & ~mask for x in range(s.n)):
            continue
        if all((mask >> j) & 1 for a, b, j in joins if (mask >> a) & 1 and (mask >> b) & 1):
            found.append(mask)
    return found


def _small_completion_inputs():
    out = [(i.name, i.obj) for i in corpus_crms()]
    out += [(f"pi-{i.name}", pi_restriction_monoid(i.obj)[0]) for i in corpus_rqfs()]
    return [pytest.param(s, id=name) for name, s in out if s.n <= 16]


@pytest.mark.parametrize("s", _small_completion_inputs())
def test_closed_ideals_match_bruteforce(s):
    found = closed_ideals_bruteforce(s)
    assert sorted(found, key=lambda m: (m.bit_count(), m)) == list(l_vee(s).ideals)


def closed_ideals_by_full_search(s):
    """Breadth-first search of the closed ideals that extends each ideal by
    every element outside it, not only by the minimal ones."""
    down = [s.downset_mask(i) for i in range(s.n)]
    join_table = _partial_join_table(s)
    bottom_ideal = _ideal_closure(s, 0, down, join_table)
    ideals = {bottom_ideal}
    frontier = [bottom_ideal]
    while frontier:
        nxt = []
        for i_mask in frontier:
            for g in range(s.n):
                if (i_mask >> g) & 1:
                    continue
                bigger = _ideal_closure(s, i_mask | (1 << g), down, join_table)
                if bigger not in ideals:
                    ideals.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(ideals, key=lambda m: (m.bit_count(), m))


def test_closed_ideals_match_full_search_on_pi_omega_pair3(omega_pair3):
    s, _ = pi_restriction_monoid(omega_pair3.rqf)
    assert list(l_vee(s).ideals) == closed_ideals_by_full_search(s)


def test_principal_ideals_are_the_partial_isometries(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    assert set(partial_isometries(lv.rqf)) == {lv.principal(x) for x in range(s.n)}


def test_ideal_completion_of_trivial_monoid():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    lv = l_vee(s)
    assert lv.rqf.n == 1
    assert validate_rqf(lv.rqf).ok


def test_ideal_completion_of_frame_crm_is_the_frame():
    q = frame_as_quantale(chain_frame(5))
    s, carrier = pi_restriction_monoid(q)
    lv = l_vee(s)
    assert lv.rqf.n == 5
    iso = np.array([q.frame.join_fold([carrier[x] for x in iter_bits(m)])
                    for m in lv.ideals], dtype=np.int64)
    assert quantale_isomorphism_ok(iso, lv.rqf, q)


def test_isometries_of_ideals_roundtrip(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    s2, carrier2 = pi_restriction_monoid(lv.rqf)
    pos = {e: i for i, e in enumerate(carrier2)}
    iso = np.array([pos[lv.principal(x)] for x in range(s.n)], dtype=np.int64)
    assert sorted(iso.tolist()) == list(range(s2.n))
    assert validate_crm_morphism(iso, s, s2).ok
    assert preserves_finite_meets(iso, s, s2) == (True, None)


# ---------------------------------------------------------------------------
# proper and callitic morphisms

def test_identity_is_proper_and_callitic(i2):
    s, _, _ = i2
    ident = np.arange(s.n, dtype=np.int64)
    assert validate_crm_morphism(ident, s, s).ok
    assert is_proper(ident, s, s) == (True, None)
    assert is_callitic(ident, s, s) == (True, None)


def test_inclusion_of_projection_part_is_not_proper(i2):
    s, _, _ = i2
    t = make_crm(2, [[True, True], [False, True]], [[0, 0], [0, 1]],
                 1, 0, [0, 1], [0, 1], [[0, 0], [0, 1]])
    incl = np.array([s.zero, s.unit], dtype=np.int64)
    assert validate_crm_morphism(incl, t, s).ok
    ok, wit = is_proper(incl, t, s)
    assert not ok
    # the witness element is not a join of elements below projections
    assert wit is not None


def test_proper_morphisms_hit_every_filter(i2):
    # with a proper map, every completely prime filter of the target meets
    # the image
    s, _, _ = i2
    for theta in enumerate_callitic_morphisms(s, s):
        image = set(int(x) for x in theta)
        for mask in s_filters_list(s):
            assert any(x in image for x in iter_bits(mask))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def theta_extension_well_defined(theta, lv_src, lv_dst):
    """Every generating subset of an ideal gives the same extension value:
    exhaustive over all subsets of every ideal of the source."""
    theta = np.asarray(theta, dtype=np.int64)
    s, t = lv_src.source, lv_dst.source
    ext = theta_extension(theta, lv_src, lv_dst)
    down_s = [s.downset_mask(i) for i in range(s.n)]
    jt_s = _partial_join_table(s)
    down_t = [t.downset_mask(i) for i in range(t.n)]
    jt_t = _partial_join_table(t)
    for i, mask in enumerate(lv_src.ideals):
        for dm in _submasks(mask):
            if _ideal_closure(s, dm, down_s, jt_s) != mask:
                continue
            image = mask_of(int(theta[x]) for x in iter_bits(dm))
            if lv_dst.index[_ideal_closure(t, image, down_t, jt_t)] != int(ext[i]):
                return False, (i, dm)
    return True, None


def test_theta_extension_of_identity_is_identity(i2):
    s, _, _ = i2
    lv = l_vee(s)
    ident = np.arange(s.n, dtype=np.int64)
    ext = theta_extension(ident, lv, lv)
    assert np.array_equal(ext, np.arange(lv.rqf.n))
    assert theta_extension_well_defined(ident, lv, lv) == (True, None)


def test_theta_extension_of_swap(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    # the swap-induced automorphism of the partial bijection monoid
    om = omega_object(pair_groupoid(2))
    swap_cat = np.array([3, 2, 1, 0], dtype=np.int64)
    from framecat.functors import omega_morphism
    psi = omega_morphism(swap_cat, om, om)
    theta = np.array([carrier.index(int(psi[carrier[i]])) for i in range(s.n)],
                     dtype=np.int64)
    assert validate_crm_morphism(theta, s, s).ok
    assert is_callitic(theta, s, s) == (True, None)
    ext = theta_extension(theta, lv, lv)
    assert validate_rqf_morphism_ok(ext, lv)
    assert not np.array_equal(ext, np.arange(lv.rqf.n))
    assert np.array_equal(ext[ext], np.arange(lv.rqf.n))
    assert theta_extension_well_defined(theta, lv, lv) == (True, None)


def validate_rqf_morphism_ok(ext, lv):
    from framecat.duality import validate_rqf_morphism
    return validate_rqf_morphism(ext, lv.rqf, lv.rqf).ok


def test_extension_restricted_to_principal_ideals_is_theta(i2):
    s, _, _ = i2
    lv = l_vee(s)
    for theta in enumerate_callitic_morphisms(s, s):
        ext = theta_extension(theta, lv, lv)
        for x in range(s.n):
            assert int(ext[lv.principal(x)]) == lv.principal(int(theta[x]))


# ---------------------------------------------------------------------------
# S-filters

def test_s_filters_of_partial_bijections(i2, pair2):
    s, _, _ = i2
    sf = s_filters(s)
    assert sf.n == 4
    assert find_category_isomorphism(sf.topcat.cat, pair2.cat) is not None


def test_no_s_filters_on_the_trivial_monoid():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    assert s_filters_list(s) == []


def test_s_filter_bijection_with_ideal_filter_category(i2):
    s, _, _ = i2
    lv = l_vee(s)
    sf = s_filters(s)
    fc = c_object(lv.rqf)
    bij = s_filter_bijection(sf, lv)
    assert sorted(bij.tolist()) == list(range(fc.n))
    assert validate_covering_functor(bij, sf.topcat.cat, fc.topcat.cat).ok
    # opens correspond: X'_a maps onto the X-set of the principal ideal
    for a in range(s.n):
        image = mask_of(int(bij[k]) for k in iter_bits(sf.x_mask(a)))
        assert image == fc.x_mask(lv.principal(a))


def test_s_filter_d_r_transfer(i2):
    s, _, _ = i2
    lv = l_vee(s)
    sf = s_filters(s)
    fc = c_object(lv.rqf)
    bij = s_filter_bijection(sf, lv)
    for k in range(sf.n):
        # d of the lifted filter is the lift of d
        lifted_d = int(bij[sf.d_idx[k]])
        assert lifted_d == int(fc.d_idx[int(bij[k])])
        lifted_r = int(bij[sf.r_idx[k]])
        assert lifted_r == int(fc.r_idx[int(bij[k])])


# ---------------------------------------------------------------------------
# the second adjunction

def test_adjunction_II_on_pair2(i2, pair2):
    s, _, _ = i2
    adj2 = verify_adjunction_II(pair2, s)
    assert adj2.ok, adj2.failures
    assert adj2.sizes == (2, 2)


def test_adjunction_II_sizes_match_translated_pair(i2, pair2):
    s, _, _ = i2
    lv = l_vee(s)
    adj1 = verify_adjunction_I(pair2, lv.rqf)
    adj2 = verify_adjunction_II(pair2, s)
    assert adj1.sizes == adj2.sizes


def test_adjunction_II_degenerate():
    from framecat.corpus import empty_category
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    adj = verify_adjunction_II(empty_category(), s)
    assert adj.ok
    assert adj.sizes == (1, 1)


def test_callitic_enumeration_on_semilattice_monoid():
    om = omega_object(semilattice_monoid_category())
    s, _ = pi_restriction_monoid(om.rqf)
    morphs = enumerate_callitic_morphisms(s, s)
    assert len(morphs) >= 1
    for theta in morphs:
        assert validate_crm_morphism(theta, s, s).ok
        assert is_callitic(theta, s, s)[0]
