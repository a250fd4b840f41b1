from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import full_mask, has_bit, iter_bits, mask_of, pack_words, word_lookup
from framecat.corpus import (chain_frame, corpus_crms, corpus_rqfs, empty_category,
                             etale_categories, indiscrete_pair_groupoid, monoid_category,
                             parity_pair_groupoid)
from framecat.crm import join_primes, l_vee, s_filters
from framecat.duality import (build_omega_map, enumerate_covering_functors,
                              enumerate_rqf_morphisms, validate_rqf_morphism)
from framecat.functors import (_omega_generic, c_morphism, c_object, filter_category,
                               omega_morphism, omega_object)
from framecat.order import (CPFilter, cp_filter_generators, enumerate_cp_filters,
                            frame_from_leq, meet_prime_elements)
from framecat.quantale import (frame_as_quantale, partial_isometries,
                               validate_rqf)
from framecat.reports import BoundExceeded
from framecat.topcat import (UNDEF, FiniteTopCategory, Topology, is_etale, make_category,
                             open_rows, validate_category, validate_covering_functor,
                             validate_topcategory)
from map_oracles import (FilterMasks, build_omega_map_oracle, is_local_bisection, is_open,
                         map_outcome, meet_fold, one_value_perturbations, open_index,
                         projection_mask, relabel_rqf, reversed_labels, small_corpus_categories,
                         topology_from_base)
from random_categories import small_categories


# ---------------------------------------------------------------------------
# the filter calculus: the oracle for c_object, which reads C(Q) off the
# join-irreducibles instead.  It works on whole member sets, multiplying
# every member of one filter by every member of the other.

class FilterCalculus:
    """Completely prime filters of a restriction quantal frame with the
    star/plus image sets, d/r filters and the partial product (AB)^up."""

    def __init__(self, q):
        self.q = q
        self.upset = [mask_of(np.flatnonzero(q.leq[i, :])) for i in range(q.n)]
        self.filters = enumerate_cp_filters(q)
        self.index = {f.members: k for k, f in enumerate(self.filters)}
        self.proj_mask = projection_mask(q)
        self.pis = partial_isometries(q)

    def up_close(self, mask: int) -> int:
        out = 0
        for x in iter_bits(mask):
            out |= self.upset[x]
        return out

    def star_set(self, members: int) -> int:
        return mask_of(int(self.q.star[x]) for x in iter_bits(members))

    def plus_set(self, members: int) -> int:
        return mask_of(int(self.q.plus[x]) for x in iter_bits(members))

    def d_members(self, members: int) -> int:
        return self.up_close(self.star_set(members))

    def r_members(self, members: int) -> int:
        return self.up_close(self.plus_set(members))

    def filter_of(self, members: int, what: str = "set") -> int:
        k = self.index.get(members)
        if k is None:
            raise ValueError(f"{what} is not a completely prime filter")
        return k

    def product_members(self, a_members: int, b_members: int) -> Optional[int]:
        """(AB)^up when A* = B+ (equivalently d(A) = r(B)); None otherwise."""
        if self.star_set(a_members) != self.plus_set(b_members):
            return None
        mul = self.q.mul
        ai = list(iter_bits(a_members))
        bi = list(iter_bits(b_members))
        prods = set(int(p) for p in mul[np.ix_(ai, bi)].ravel())
        return self.up_close(mask_of(prods))

    def is_identity_filter(self, members: int) -> bool:
        return members & self.proj_mask != 0

    def x_mask(self, a: int) -> int:
        """X_a over filter indices."""
        return mask_of(k for k, f in enumerate(self.filters) if has_bit(f.members, a))

    def x_mask_via_pi_union(self, a: int) -> int:
        out = 0
        for p in self.pis:
            if self.q.leq[p, a]:
                out |= self.x_mask(p)
        return out


def filter_star(calc, f):
    members = calc.d_members(f.members)
    return calc.filters[calc.filter_of(members, "d(A)")]


def filter_plus(calc, f):
    members = calc.r_members(f.members)
    return calc.filters[calc.filter_of(members, "r(A)")]


def filter_product(calc, a, b):
    members = calc.product_members(a.members, b.members)
    if members is None:
        return None
    return calc.filters[calc.filter_of(members, "A.B")]


def oracle_c_object(q):
    """C(Q) by the filter calculus: (filters, d, r, composition table,
    opens, base), each d(A), r(A) and A.B computed on member sets."""
    calc = FilterCalculus(q)
    nf = len(calc.filters)
    d_idx = np.array([calc.filter_of(calc.d_members(f.members), "d(A)")
                      for f in calc.filters], dtype=np.int64)
    r_idx = np.array([calc.filter_of(calc.r_members(f.members), "r(A)")
                      for f in calc.filters], dtype=np.int64)
    identity_filters = [k for k, f in enumerate(calc.filters)
                        if calc.is_identity_filter(f.members)]
    comp = np.full((nf, nf), UNDEF, dtype=np.int64)
    for i in range(nf):
        for j in range(nf):
            if d_idx[i] != r_idx[j]:
                continue
            members = calc.product_members(calc.filters[i].members, calc.filters[j].members)
            assert members is not None, "d(A)=r(B) must force A* = B+"
            comp[i, j] = calc.filter_of(members, "A.B")
    cat = make_category(nf, identity_filters, d_idx, r_idx, comp_table=comp)
    base = {a: calc.x_mask(a) for a in calc.pis}
    topology = topology_from_base(nf, base.values())
    for a in range(q.n):
        xa = calc.x_mask_via_pi_union(a)
        assert xa == calc.x_mask(a), f"X_{a} disagrees with its isometry decomposition"
        assert is_open(topology, xa), f"X_{a} is not open"
    return calc.filters, cat, topology, base


def assert_c_object_matches_oracle(q, name):
    fc = c_object(q)
    masks = FilterMasks(fc)
    filters, cat, topology, base = oracle_c_object(q)
    got = fc.topcat.cat
    assert masks.members == [f.members for f in filters], name
    assert fc.generators.tolist() == [meet_fold(q, iter_bits(f.members)) for f in filters], name
    assert np.array_equal(got.d, cat.d) and np.array_equal(got.r, cat.r), name
    assert np.array_equal(got.comp, cat.comp), name
    assert got.identity_mask == cat.identity_mask, name
    assert fc.topcat.topology.opens == topology.opens, name
    assert {a: masks.x_masks[a] for a in partial_isometries(q)} == base, name
    calc = FilterCalculus(q)
    assert masks.x_masks == [calc.x_mask(a) for a in range(q.n)], name


def test_c_object_matches_filter_calculus_on_corpus_rqfs():
    for inst in corpus_rqfs():
        assert_c_object_matches_oracle(inst.obj, inst.name)


def test_c_object_matches_filter_calculus_on_ideal_completions():
    # every C(L^vee(S)) the suite builds: S runs over the corpus monoids
    for inst in corpus_crms():
        assert_c_object_matches_oracle(l_vee(inst.obj).rqf, f"lvee-{inst.name}")


# ---------------------------------------------------------------------------
# c_object and filter_category against the bodies they had before their
# members, least members, X-sets and via-PI check were whole-array: filters
# from one cogenerator at a time, least members by meet_fold, X-masks and
# the isometry decomposition of each X_a by per-member loops

def category_on_generators_by_members(alg, gens, what):
    nf = len(gens)
    gens = np.asarray(gens, dtype=np.int64)
    filter_at = np.full(alg.n, UNDEF, dtype=np.int64)
    filter_at[gens] = np.arange(nf)

    def locate(elements, name):
        k = filter_at[elements]
        if (k == UNDEF).any():
            raise ValueError(f"{name} is not a {what}")
        return k

    d_idx = locate(alg.star[gens], "d(A)")
    r_idx = locate(alg.plus[gens], "r(A)")
    composable = d_idx[:, None] == r_idx[None, :]
    comp = np.full((nf, nf), UNDEF, dtype=np.int64)
    comp[composable] = locate(alg.mul[np.ix_(gens, gens)][composable], "A.B")
    x_masks = [0] * alg.n
    for k, g in enumerate(gens.tolist()):
        for a in np.flatnonzero(alg.leq[g]).tolist():
            x_masks[a] |= 1 << k
    cat = make_category(nf, iter_bits(x_masks[alg.unit]), d_idx, r_idx, comp_table=comp)
    return cat, x_masks


def filter_category_by_members(q):
    """(filters, least members, category, x_masks, base, topology) of C(Q)."""
    filters = [CPFilter(m, mask_of(np.flatnonzero(~q.leq[:, m])))
               for m in meet_prime_elements(q)]
    gens = [meet_fold(q, iter_bits(f.members)) for f in filters]
    cat, x_masks = category_on_generators_by_members(q, gens, "completely prime filter")
    pis = partial_isometries(q)
    base = {a: x_masks[a] for a in pis}
    topology = topology_from_base(cat.n, base.values())
    via_pis = [0] * q.n
    for p in pis:
        for a in np.flatnonzero(q.leq[p]).tolist():
            via_pis[a] |= x_masks[p]
    for a in range(q.n):
        assert via_pis[a] == x_masks[a], f"X_{a} disagrees with its isometry decomposition"
        assert is_open(topology, x_masks[a]), f"X_{a} is not open"
    return filters, gens, cat, x_masks, base, topology


def assert_c_object_matches_member_loops(q):
    fc = c_object(q)
    masks = FilterMasks(fc)
    filters, gens, cat, x_masks, base, topology = filter_category_by_members(q)
    assert enumerate_cp_filters(q) == filters
    assert masks.members == [f.members for f in filters]
    assert fc.generators.tolist() == gens and masks.x_masks == x_masks
    got = fc.topcat.cat
    for table in ("d", "r", "comp"):
        assert np.array_equal(getattr(got, table), getattr(cat, table)), table
    assert got.identity_mask == cat.identity_mask
    assert {a: masks.x_masks[a] for a in base} == base and fc.topcat.topology == topology


def test_c_object_matches_member_loops_on_corpus_rqfs_and_ideal_completions():
    for q in [i.obj for i in corpus_rqfs()] + [l_vee(i.obj).rqf for i in corpus_crms()]:
        assert_c_object_matches_member_loops(q)


@settings(max_examples=40, deadline=None)
@given(small_categories())
def test_c_object_matches_member_loops_on_random_categories(tc):
    assert_c_object_matches_member_loops(omega_object(tc).rqf)


def test_s_filter_categories_match_member_loops_on_corpus_crms():
    for inst in corpus_crms():
        s = inst.obj
        upset_mask = [mask_of(np.flatnonzero(s.leq[g])) for g in range(s.n)]
        gens = sorted(join_primes(s), key=upset_mask.__getitem__)
        sf = s_filters(s)
        assert sf.generators.tolist() == gens
        cat = sf.topcat.cat
        old_cat, old_x_masks = category_on_generators_by_members(
            s, gens, "completely prime S-filter")
        masks = FilterMasks(sf)
        assert masks.x_masks == old_x_masks
        assert masks.members == [upset_mask[g] for g in gens]
        for table in ("d", "r", "comp"):
            assert np.array_equal(getattr(cat, table), getattr(old_cat, table)), table
        assert cat.identity_mask == old_cat.identity_mask


@pytest.fixture(scope="module")
def calc_pair2(omega_pair2):
    return FilterCalculus(omega_pair2.rqf)


def principal_filter_at(calc, element):
    for k, f in enumerate(calc.filters):
        if f.members == calc.upset[element]:
            return k
    raise AssertionError("no principal filter at that element")


# ---------------------------------------------------------------------------
# omega on objects

def test_omega_of_pair2_is_the_16_element_relation_quantale(omega_pair2):
    assert omega_pair2.n == 16
    assert validate_rqf(omega_pair2.rqf).ok
    assert len(partial_isometries(omega_pair2.rqf)) == 7


def test_omega_of_pair3_counts(omega_pair3):
    assert omega_pair3.n == 512
    assert len(partial_isometries(omega_pair3.rqf)) == 34


def test_omega_of_two_element_monoid():
    om = omega_object(monoid_category([[0, 1], [1, 1]]))
    assert om.n == 4
    assert validate_rqf(om.rqf).ok


def test_omega_of_empty_category_is_degenerate():
    om = omega_object(empty_category())
    assert om.n == 1
    assert om.rqf.bottom == om.rqf.top == om.rqf.unit
    assert validate_rqf(om.rqf).ok


def test_omega_mul_matches_pointwise_products(omega_pair2, pair2):
    om = omega_pair2
    cat = pair2.cat
    for i, u in enumerate(om.opens[:16]):
        for j, v in enumerate(om.opens[:16]):
            expected = 0
            for a in iter_bits(u):
                for b in iter_bits(v):
                    if cat.comp[a, b] >= 0:
                        expected |= 1 << int(cat.comp[a, b])
            assert om.opens[int(om.rqf.mul[i, j])] == expected


def test_omega_of_nondiscrete_parity_topology():
    om = omega_object(parity_pair_groupoid())
    assert om.n == 4
    assert validate_rqf(om.rqf).ok
    swap = om.opens.index(0b0110)
    assert int(om.rqf.mul[swap, swap]) == om.opens.index(0b1001)


def test_omega_rejects_non_etale_input():
    from framecat.corpus import indiscrete_pair_groupoid
    with pytest.raises(ValueError):
        omega_object(indiscrete_pair_groupoid())


def test_omega_respects_element_bound(pair3):
    with pytest.raises(BoundExceeded):
        omega_object(pair3, max_elements=100)


# ---------------------------------------------------------------------------
# omega on morphisms

def test_omega_of_identity_is_identity(pair2, omega_pair2):
    m = omega_morphism(np.arange(pair2.n, dtype=np.int64), omega_pair2, omega_pair2)
    assert np.array_equal(m, np.arange(16))


def test_omega_of_swap_is_an_involution(pair2, omega_pair2):
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    m = omega_morphism(swap, omega_pair2, omega_pair2)
    assert validate_rqf_morphism(m, omega_pair2.rqf, omega_pair2.rqf).ok
    assert not np.array_equal(m, np.arange(16))
    assert np.array_equal(m[m], np.arange(16))


def test_omega_contravariant_composition(pair2, omega_pair2):
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    ident = np.arange(pair2.n, dtype=np.int64)
    for f in (swap, ident):
        for g in (swap, ident):
            comp = f[g]  # f after g
            lhs = omega_morphism(comp, omega_pair2, omega_pair2)
            rhs = omega_morphism(g, omega_pair2, omega_pair2)[
                omega_morphism(f, omega_pair2, omega_pair2)]
            assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# lemmas of the filter calculus, on the oracle

def test_identity_filter_is_fixed_by_star(calc_pair2):
    calc = calc_pair2
    for f in calc.filters:
        if calc.is_identity_filter(f.members):
            assert filter_star(calc, f) == f
            assert filter_plus(calc, f) == f


def test_filter_star_on_principal_filters(calc_pair2):
    calc = calc_pair2
    f01 = principal_filter_at(calc, 1 << 1)   # singleton open {(0,1)}
    f11 = principal_filter_at(calc, 1 << 3)   # singleton open {(1,1)}
    assert filter_star(calc, calc.filters[f01]) == calc.filters[f11]


def test_filter_product_of_singletons(calc_pair2):
    calc = calc_pair2
    f01 = calc.filters[principal_filter_at(calc, 1 << 1)]
    f10 = calc.filters[principal_filter_at(calc, 1 << 2)]
    f00 = calc.filters[principal_filter_at(calc, 1 << 0)]
    assert filter_product(calc, f01, f10) == f00
    assert filter_product(calc, f01, f01) is None


def test_filter_product_with_own_domain(calc_pair2):
    calc = calc_pair2
    for f in calc.filters:
        assert filter_product(calc, f, filter_star(calc, f)) == f
        assert filter_product(calc, filter_plus(calc, f), f) == f


def test_star_image_set_equality_is_the_product_condition(calc_pair2):
    calc = calc_pair2
    for a in calc.filters:
        for b in calc.filters:
            cond1 = calc.star_set(a.members) == calc.plus_set(b.members)
            cond2 = calc.d_members(a.members) == calc.r_members(b.members)
            assert cond1 == cond2


def test_filter_product_associative_where_defined(calc_pair2):
    calc = calc_pair2
    fs = calc.filters
    for a in fs:
        for b in fs:
            ab = filter_product(calc, a, b)
            for c in fs:
                bc = filter_product(calc, b, c)
                lhs = filter_product(calc, ab, c) if ab is not None else None
                rhs = filter_product(calc, a, bc) if bc is not None else None
                assert lhs == rhs


def test_filter_construction_lemma_items(calc_pair2):
    calc = calc_pair2
    q = calc.q
    pis = set(partial_isometries(q))
    for f in calc.filters:
        members = list(iter_bits(f.members))
        star_set = calc.star_set(f.members)
        # products a.x for x in the star image stay in the filter
        for a in members:
            for x in iter_bits(star_set):
                assert has_bit(f.members, int(q.mul[a, x]))
        # an isometry member regenerates the filter
        for a in members:
            if a in pis:
                gen = calc.up_close(mask_of(int(q.mul[a, x]) for x in iter_bits(star_set)))
                assert gen == f.members
    # two filters sharing an isometry with equal domain are equal
    for f in calc.filters:
        for g in calc.filters:
            if calc.d_members(f.members) != calc.d_members(g.members):
                continue
            common = f.members & g.members
            if any(x in pis for x in iter_bits(common)):
                assert f == g


def test_filters_built_from_identity_filter_and_isometry(calc_pair2):
    # for an identity filter A and an isometry a with a* in A, the up-closure
    # of aA is a completely prime filter with domain A
    calc = calc_pair2
    q = calc.q
    pis = partial_isometries(q)
    for f in calc.filters:
        if not calc.is_identity_filter(f.members):
            continue
        for a in pis:
            if not has_bit(f.members, int(q.star[a])):
                continue
            built = calc.up_close(mask_of(int(q.mul[a, x]) for x in iter_bits(f.members)))
            k = calc.index.get(built)
            assert k is not None
            assert calc.d_members(built) == f.members


# ---------------------------------------------------------------------------
# c on objects

def test_filter_category_of_relation_quantale(fc_pair2, pair2):
    from framecat.duality import find_category_isomorphism
    assert fc_pair2.n == 4
    assert validate_category(fc_pair2.topcat.cat).ok
    assert is_etale(fc_pair2.topcat)[0]
    assert find_category_isomorphism(fc_pair2.topcat.cat, pair2.cat) is not None


def test_filter_category_identities_are_projection_filters(fc_pair2, calc_pair2):
    calc = calc_pair2
    cat = fc_pair2.topcat.cat
    for k, f in enumerate(calc.filters):
        assert cat.is_identity(k) == calc.is_identity_filter(f.members)


def test_filter_category_of_degenerate_quantale():
    q = frame_as_quantale(frame_from_leq([[1]]))
    fc = c_object(q)
    assert fc.n == 0


def test_filter_category_of_chain_quantale():
    q = frame_as_quantale(chain_frame(3))
    fc = c_object(q)
    assert fc.n == 2
    assert sorted(fc.topcat.cat.identities()) == [0, 1]
    assert validate_topcategory(fc.topcat).ok
    assert is_etale(fc.topcat)[0]


def test_base_sets_are_open_local_bisections(fc_pair2, omega_pair2):
    for a in partial_isometries(omega_pair2.rqf):
        x = FilterMasks(fc_pair2).x_masks[a]
        assert is_open(fc_pair2.topcat.topology, x)
        assert is_local_bisection(fc_pair2.topcat.cat, x)


def test_d_image_of_base_is_base_of_star(fc_pair2, omega_pair2):
    # d(X_s) = X_{s*} for partial isometries s
    cat = fc_pair2.topcat.cat
    x_masks = FilterMasks(fc_pair2).x_masks
    for s in partial_isometries(omega_pair2.rqf):
        image = mask_of(int(cat.d[k]) for k in iter_bits(x_masks[s]))
        assert image == x_masks[int(omega_pair2.rqf.star[s])]


def test_x_set_laws(fc_pair2, calc_pair2):
    q = calc_pair2.q
    x_mask = FilterMasks(fc_pair2).x_masks
    full = (1 << fc_pair2.n) - 1
    assert x_mask[q.top] == full
    id_mask = mask_of(k for k, f in enumerate(calc_pair2.filters)
                      if calc_pair2.is_identity_filter(f.members))
    assert x_mask[q.unit] == id_mask
    for a in range(q.n):
        for b in range(q.n):
            assert x_mask[a] & x_mask[b] == x_mask[int(q.meet[a, b])]
            assert x_mask[a] | x_mask[b] == x_mask[int(q.join[a, b])]


# ---------------------------------------------------------------------------
# the identity arrows of C(Q) are the points of the projection frame e-down:
# A -> A /\ e-down is a homeomorphism from the identity filters, with the
# traces of the opens of C(Q), onto the completely prime filters of e-down,
# with the X-sets (Resende, Etale groupoids and their quantales, 2007)

def projection_frame(q):
    """e-down as a frame, element x being the projection q.projections()[x]."""
    projs = q.projections()
    return frame_from_leq(q.leq[np.ix_(projs, projs)])


def identity_space(q):
    """The identity arrows of C(Q) as a subspace: the member rows [i, x] of
    the identity filters read on e-down, and the distinct traces of the opens
    on the identities, as rows [w, i]."""
    fc = c_object(q)
    ids = fc.topcat.cat.identities()
    rows = open_rows(fc.topcat.topology)[1][:, ids]
    traces = {row.tobytes(): row for row in rows}
    return fc.members[np.ix_(ids, q.projections())], np.stack(list(traces.values()))


def identity_space_vs_pt(q, points, traces) -> str:
    """Why A -> A /\\ e-down is no homeomorphism from the identity space
    given by points and traces (as identity_space gives them) onto the
    points of e-down; '' when it is one."""
    pframe = projection_frame(q)
    pts = pframe.leq[cp_filter_generators(pframe)]  # [p, x]: x is in point p
    if len(points) != len(pts):
        return f"identity filters {len(points)} != points of e-down {len(pts)}"
    slot = word_lookup(pack_words(pts))(pack_words(points))
    if (slot < 0).any():
        return f"A /\\ e-down of identity filter {np.flatnonzero(slot < 0)[0]} is no point"
    if len(set(slot.tolist())) != len(slot):
        return "A -> A /\\ e-down is not injective on the identity filters"
    mapped = np.zeros_like(traces)
    mapped[:, slot] = traces
    if {row.tobytes() for row in mapped} != {row.tobytes() for row in pts.T}:
        return "open families do not correspond under the bijection"
    return ""


def test_identity_space_matches_points_of_projections(omega_pair2):
    q = omega_pair2.rqf
    assert identity_space_vs_pt(q, *identity_space(q)) == ""


def test_identity_space_vs_pt_on_corpus():
    """On every corpus rqf.  Dropping any one open of the identity space
    breaks it, and so does swapping two identity filters, exactly when the
    swap moves an open."""
    moved = []
    for inst in corpus_rqfs():
        q = inst.obj
        points, traces = identity_space(q)
        assert identity_space_vs_pt(q, points, traces) == "", inst.name
        for w in range(len(traces)):
            assert identity_space_vs_pt(q, points, np.delete(traces, w, axis=0)) == \
                "open families do not correspond under the bijection", inst.name
        if len(points) < 2:
            continue
        swapped = points[[1, 0, *range(2, len(points))]]
        opens = {row.tobytes() for row in traces}
        moves = opens != {row[[1, 0, *range(2, len(points))]].tobytes() for row in traces}
        assert (identity_space_vs_pt(q, swapped, traces) != "") == moves, inst.name
        if moves:
            moved.append(inst.name)
    assert {"qframe-chain3", "qframe-chain64"} <= set(moved)


def test_identity_filter_bijection_with_projection_filters(calc_pair2):
    # F -> F^up is a bijection from points of e-down onto identity filters
    calc = calc_pair2
    q = calc.q
    projs = q.projections()
    images = set()
    for f in enumerate_cp_filters(projection_frame(q)):
        lifted = calc.up_close(mask_of(projs[x] for x in iter_bits(f.members)))
        k = calc.index[lifted]
        assert calc.is_identity_filter(calc.filters[k].members)
        images.add(k)
    identity_filters = {k for k, f in enumerate(calc.filters)
                        if calc.is_identity_filter(f.members)}
    assert images == identity_filters


# ---------------------------------------------------------------------------
# c on morphisms

def test_c_of_identity_is_identity(fc_pair2, omega_pair2):
    ident = np.arange(16, dtype=np.int64)
    m = c_morphism(ident, fc_pair2, fc_pair2)
    assert np.array_equal(m, np.arange(4))


def test_c_of_swap_is_the_swap_functor(fc_pair2, pair2, omega_pair2):
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    psi = omega_morphism(swap, omega_pair2, omega_pair2)
    m = c_morphism(psi, fc_pair2, fc_pair2)
    rep = validate_covering_functor(m, fc_pair2.topcat.cat, fc_pair2.topcat.cat)
    assert rep.ok
    assert not np.array_equal(m, np.arange(4))
    assert np.array_equal(m[m], np.arange(4))
    # identity filters map to identity filters, d commutes with preimage
    cat = fc_pair2.topcat.cat
    for k in range(4):
        if cat.is_identity(k):
            assert cat.is_identity(int(m[k]))
        assert int(cat.d[m[k]]) == int(m[cat.d[k]])


def test_c_contravariant_composition(fc_pair2, omega_pair2):
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    psi = omega_morphism(swap, omega_pair2, omega_pair2)
    ident = np.arange(16, dtype=np.int64)
    for p1 in (psi, ident):
        for p2 in (psi, ident):
            comp = p2[p1]  # p2 after p1 as element maps
            lhs = c_morphism(comp, fc_pair2, fc_pair2)
            rhs = c_morphism(p1, fc_pair2, fc_pair2)[c_morphism(p2, fc_pair2, fc_pair2)]
            assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Omega's tables and the maps omega_morphism, c_morphism and build_omega_map
# against the element-by-element bodies they had before they worked on whole
# bit matrices and built the products by doubling

def omega_discrete_tables_oracle(tc):
    """mul, star and plus of Omega(C) for a discrete C, indexed by mask."""
    cat = tc.cat
    k = cat.n
    nq = 1 << k
    masks = np.arange(nq, dtype=np.int64)
    dbit = np.array([1 << int(cat.d[a]) for a in range(k)], dtype=np.int64)
    rbit = np.array([1 << int(cat.r[a]) for a in range(k)], dtype=np.int64)
    star = np.zeros(nq, dtype=np.int64)
    plus = np.zeros(nq, dtype=np.int64)
    for v in range(k):
        sel = (masks >> v) & 1 == 1
        star[sel] |= dbit[v]
        plus[sel] |= rbit[v]
    mul = np.zeros((nq, nq), dtype=np.int64)
    for v in range(k):
        single = np.zeros(nq, dtype=np.int64)  # U . {v}
        for u in range(k):
            w = int(cat.comp[u, v])
            if w != UNDEF:
                single[(masks >> u) & 1 == 1] |= 1 << w
        mul[:, (masks >> v) & 1 == 1] |= single[:, None]
    return mul, star, plus


def assert_omega_tables_match_oracle(tc):
    q = omega_object(tc).rqf
    mul, star, plus = omega_discrete_tables_oracle(tc)
    assert np.array_equal(q.mul, mul)
    assert np.array_equal(q.star, star)
    assert np.array_equal(q.plus, plus)


@pytest.mark.parametrize("name,tc", [(i.name, i.obj) for i in etale_categories()
                                     if i.obj.topology.is_discrete])
def test_omega_tables_match_oracle_on_discrete_corpus_categories(name, tc):
    assert_omega_tables_match_oracle(tc)


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_omega_tables_match_oracle_on_random_categories(tc):
    assert_omega_tables_match_oracle(tc)


def omega_morphism_oracle(fmap, om_src, om_dst):
    fmap = np.asarray(fmap, dtype=np.int64)
    n_arrows = om_src.members.shape[1]
    index = open_index(om_src)
    out = np.zeros(om_dst.n, dtype=np.int64)
    for i, u_mask in enumerate(om_dst.opens):
        pre = mask_of(a for a in range(n_arrows) if has_bit(u_mask, int(fmap[a])))
        j = index.get(pre)
        if j is None:
            raise ValueError(f"preimage of open {u_mask} is not open; functor not continuous")
        out[i] = j
    return out


def c_morphism_oracle(phi, fc_src, fc_dst):
    """c_morphism as it was: the preimage of each member mask of the target,
    looked up among the member masks of the source one filter at a time."""
    phi = np.asarray(phi, dtype=np.int64)
    src = FilterMasks(fc_src)
    n_r = len(src.x_masks)
    out = np.zeros(fc_dst.n, dtype=np.int64)
    for j, members in enumerate(FilterMasks(fc_dst).members):
        pre = mask_of(x for x in range(n_r) if has_bit(members, int(phi[x])))
        out[j] = src.filter_of(pre, "preimage filter")
    return out


@pytest.mark.parametrize("name,tc", [(i.name, i.obj) for i in etale_categories()])
def test_build_omega_map_matches_oracle_on_corpus_categories(name, tc):
    om = omega_object(tc)
    fc = c_object(om.rqf, om.n)
    res = build_omega_map(tc, om)
    omega, laws = build_omega_map_oracle(tc, om, fc)
    assert res.omega.tolist() == omega.tolist()
    assert [(v.law, v.witness) for v in res.report.violations] == laws


def omega_morphisms_checked(tc1, tc2, om1, om2) -> int:
    """Compare omega_morphism with its oracle on every covering functor
    tc1 -> tc2 and each one-value perturbation of it; the number compared."""
    checked = 0
    for f in enumerate_covering_functors(tc1, tc2):
        for m in (f, *one_value_perturbations(f, tc2.n)):
            assert (map_outcome(omega_morphism, m, om1, om2)
                    == map_outcome(omega_morphism_oracle, m, om1, om2))
            checked += 1
    return checked


def test_omega_morphism_matches_oracle_on_covering_functors(pair3, omega_pair3):
    """Between any two small corpus categories, and from pair3 to itself."""
    categories = small_corpus_categories()
    omegas = [omega_object(tc) for _, tc in categories]
    checked = sum(omega_morphisms_checked(tc1, tc2, om1, om2)
                  for (_, tc1), om1 in zip(categories, omegas)
                  for (_, tc2), om2 in zip(categories, omegas))
    assert checked > 50
    assert omega_morphisms_checked(pair3, pair3, omega_pair3, omega_pair3) == 6 * 10


def test_c_morphism_matches_oracle_on_rqf_morphisms(omega_pair3):
    """Every RQF morphism between two corpus rqfs with at most 16 elements
    and each one-value perturbation of it; the six automorphisms of
    Omega(pair3), unperturbed (the oracle takes ~3 ms per call there)."""
    rqfs = [(i.name, i.obj) for i in corpus_rqfs() if i.obj.n <= 16]
    fcs = {name: c_object(q) for name, q in rqfs}
    checked = 0
    for name_r, r in rqfs:
        for name_s, q_s in rqfs:
            args = (fcs[name_r], fcs[name_s])
            for phi in enumerate_rqf_morphisms(r, q_s):
                for m in (phi, *one_value_perturbations(phi, q_s.n)):
                    assert (map_outcome(c_morphism, m, *args)
                            == map_outcome(c_morphism_oracle, m, *args))
                    checked += 1
    assert checked > 100
    q3 = omega_pair3.rqf
    fc3 = c_object(q3)
    for phi in enumerate_rqf_morphisms(q3, q3, max_elements=1024):
        assert c_morphism(phi, fc3, fc3).tolist() == c_morphism_oracle(phi, fc3, fc3).tolist()


def assert_c_morphism_matches_oracle_on_relabelling(q):
    """c_morphism and its oracle on the identity of q, the relabelling
    q -> q' that renames element a reversed[a] and its inverse, and on the
    one-value perturbations of each at its first 16 elements."""
    perm = reversed_labels(q.n)
    fc, fc2 = c_object(q), c_object(relabel_rqf(q, perm))
    for phi, src, dst in ((np.arange(q.n), fc, fc), (perm, fc, fc2), (np.argsort(perm), fc2, fc)):
        for m in (phi, *one_value_perturbations(phi, q.n, range(min(q.n, 16)))):
            assert (map_outcome(c_morphism, m, src, dst)
                    == map_outcome(c_morphism_oracle, m, src, dst)), m.tolist()


@pytest.mark.parametrize("name", [i.name for i in corpus_rqfs()])
def test_c_morphism_matches_oracle_on_corpus_relabellings(name):
    assert_c_morphism_matches_oracle_on_relabelling(
        next(i.obj for i in corpus_rqfs() if i.name == name))


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_c_morphism_matches_oracle_on_random_categories(tc):
    assert_c_morphism_matches_oracle_on_relabelling(omega_object(tc).rqf)


# ---------------------------------------------------------------------------
# the invariant _filter_category checks on the X-sets, against the loop it
# had before it compared all X-sets at once: the first a whose X-set
# disagrees with its isometry decomposition; on valid input, and with half
# of the isometries (so that some X-set disagrees)

def filter_category_invariants_by_loop(q, fc, pis):
    """The text of the first InternalError of the per-a loop, or None."""
    x_masks = FilterMasks(fc).x_masks
    via_pis = [0] * q.n
    for p in pis:
        for a in np.flatnonzero(q.leq[p]).tolist():
            via_pis[a] |= x_masks[p]
    for a in range(q.n):
        if via_pis[a] != x_masks[a]:
            return f"X_{a} disagrees with its isometry decomposition"
    return None


def assert_filter_category_invariants_match_loop(q):
    from unittest import mock
    from framecat import functors
    from framecat.order import cp_filter_generators
    from framecat.reports import InternalError
    pis = partial_isometries(q)
    gens = cp_filter_generators(q)
    fc = filter_category(q, gens, "completely prime filter", Topology(len(gens), None))
    for isometries in (pis, pis[:len(pis) // 2]):
        with mock.patch.object(functors, "partial_isometries", lambda q: isometries):
            try:
                functors._filter_category(q)
                got = None
            except InternalError as e:
                got = str(e)
        assert got == filter_category_invariants_by_loop(q, fc, isometries)
        if isometries is pis:
            assert got is None


@pytest.mark.parametrize("name", [i.name for i in corpus_rqfs()])
def test_filter_category_invariants_match_loop_on_corpus_rqfs(name):
    q = next(i.obj for i in corpus_rqfs() if i.name == name)
    assert_filter_category_invariants_match_loop(q)
    assert_filter_category_invariants_match_loop(relabel_rqf(q, reversed_labels(q.n)))


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_filter_category_invariants_match_loop_on_random_categories(tc):
    assert_filter_category_invariants_match_loop(omega_object(tc).rqf)

# ---------------------------------------------------------------------------
# Omega of a non-discrete topology against the element-by-element body
# _omega_generic had before it worked on words: the same opens, index and
# tables, or the same error

def omega_generic_reference(tc):
    cat = tc.cat
    opens = sorted(tc.topology.opens)
    index = {m: i for i, m in enumerate(opens)}
    nq = len(opens)

    def idx(mask: int, what: str) -> int:
        i = index.get(mask)
        if i is None:
            raise ValueError(f"{what} is not open; category not etale as claimed")
        return i

    leq = np.zeros((nq, nq), dtype=bool)
    meet = np.zeros((nq, nq), dtype=np.int64)
    join = np.zeros((nq, nq), dtype=np.int64)
    for i, a in enumerate(opens):
        for j, b in enumerate(opens):
            leq[i, j] = a & ~b == 0
            meet[i, j] = idx(a & b, "intersection")
            join[i, j] = idx(a | b, "union")
    bottom, top = opens.index(0), opens.index(full_mask(cat.n))

    k = cat.n
    single = [[0] * nq for _ in range(k)]  # single[v][iU] = mask of U.{v}
    for v in range(k):
        contrib = [0] * k
        for u in range(k):
            w = int(cat.comp[u, v])
            if w != UNDEF:
                contrib[u] = 1 << w
        col = single[v]
        for i, a in enumerate(opens):
            m = 0
            for u in iter_bits(a):
                m |= contrib[u]
            col[i] = m

    open_bits = [list(iter_bits(m)) for m in opens]
    mul = np.zeros((nq, nq), dtype=np.int64)
    star = np.zeros(nq, dtype=np.int64)
    plus = np.zeros(nq, dtype=np.int64)
    for i, a in enumerate(opens):
        star[i] = idx(mask_of(int(cat.d[u]) for u in iter_bits(a)), "d-image")
        plus[i] = idx(mask_of(int(cat.r[u]) for u in iter_bits(a)), "r-image")
    for i in range(nq):
        row = mul[i, :]
        for j in range(nq):
            m = 0
            for v in open_bits[j]:
                m |= single[v][i]
            row[j] = idx(m, "product")
    return (tuple(opens), bottom, top, opens.index(cat.identity_mask),
            leq, meet, join, mul, star, plus)


def omega_generic_outcome(build, tc):
    """The opens, bottom, top, unit and tables as lists, or the type and
    text of the error raised."""
    try:
        out = build(tc)
    except ValueError as e:
        return (type(e).__name__, str(e))
    if build is _omega_generic:
        q = out.rqf
        out = (out.opens, q.bottom, q.top, q.unit,
               q.leq, q.meet, q.join, q.mul, q.star, q.plus)
    return out[:4] + tuple(t.tolist() for t in out[4:])


def _non_discrete_categories():
    out = [("parity-pair2", parity_pair_groupoid())]
    for inst in corpus_rqfs():
        tc = c_object(inst.obj).topcat
        if not tc.topology.is_discrete:
            out.append((f"C({inst.name})", tc))
    out.append(("C(qframe-chain100)", c_object(frame_as_quantale(chain_frame(100))).topcat))
    return out


@pytest.mark.parametrize("name,tc", _non_discrete_categories())
def test_omega_generic_matches_reference(name, tc):
    got = omega_generic_outcome(_omega_generic, tc)
    assert got[0] != "ValueError"
    assert got == omega_generic_outcome(omega_generic_reference, tc)


def test_omega_generic_runs_on_more_than_one_word():
    sizes = {name: (tc.n, tc.topology.open_count()) for name, tc in _non_discrete_categories()}
    assert sizes["C(qframe-chain64)"] == (63, 64)
    assert sizes["C(qframe-chain100)"] == (99, 100)


def test_omega_generic_refuses_a_non_etale_category_as_before():
    tc = indiscrete_pair_groupoid()
    with pytest.raises(ValueError, match="^d-image is not open; category not etale as claimed$"):
        _omega_generic(tc)
    assert omega_generic_outcome(_omega_generic, tc) == \
        omega_generic_outcome(omega_generic_reference, tc)


@settings(max_examples=150, deadline=None)
@given(small_categories(), st.data())
def test_omega_generic_matches_reference_on_random_families_of_opens(tc, data):
    """Any family of arrow sets with the empty and the full set, closed
    under unions and intersections or not: the same tables or the same
    error (an intersection, union, d- or r-image or product that is not in
    the family)."""
    full = full_mask(tc.n)
    family = data.draw(st.sets(st.integers(0, full), max_size=12)) | {0, full}
    tc = FiniteTopCategory(tc.cat, Topology(tc.n, frozenset(family)))
    if data.draw(st.booleans()):
        tc = FiniteTopCategory(tc.cat, topology_from_base(tc.n, family))
    assert omega_generic_outcome(_omega_generic, tc) == \
        omega_generic_outcome(omega_generic_reference, tc)
