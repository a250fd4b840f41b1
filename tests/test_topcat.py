import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import full_mask, has_bit, iter_bits, mask_of, row_masks
from framecat.corpus import (chain_frame, corpus_rqfs, empty_category, etale_categories,
                             indiscrete_pair_groupoid, monoid_category, negative_fixtures,
                             pair_groupoid, parallel_pair_category, parity_pair_groupoid,
                             path_category, truncated_free_monoid_category)
from framecat.functors import c_object
from framecat.quantale import frame_as_quantale
from framecat.topcat import (UNDEF, FiniteTopCategory, Topology, bisection_rows,
                             continuity_check, is_etale, make_category, open_rows,
                             validate_category,
                             validate_covering_functor, validate_topcategory,
                             validate_topology)
from framecat.reports import Report
from map_oracles import (composable_pairs, is_local_bisection, is_open, iter_opens,
                         local_bisections,
                         one_value_perturbations, relabel, searched_arrow_maps,
                         small_corpus_categories, topology_from_base,
                         validate_covering_functor_oracle)
from random_categories import small_categories


def open_local_bisections(tc):
    """The open local bisections as ascending masks, under a bound of 2^n,
    which none passes."""
    return bisection_rows(tc, 1 << tc.n)[0]


def test_pair_groupoid_valid():
    for n in (1, 2, 3):
        rep = validate_category(pair_groupoid(n).cat)
        assert rep.ok


def test_monoid_category_valid():
    tc = monoid_category([[0, 1], [1, 1]])
    assert validate_category(tc.cat).ok
    assert validate_topcategory(tc).ok


def test_free_categories_valid():
    assert path_category().n == 6
    assert validate_category(path_category().cat).ok
    assert parallel_pair_category().n == 4
    assert validate_category(parallel_pair_category().cat).ok
    assert truncated_free_monoid_category(2).n == 3
    assert validate_category(truncated_free_monoid_category(2).cat).ok


def test_empty_category_valid():
    assert validate_category(empty_category().cat).ok


def test_composite_where_endpoints_disagree_is_rejected():
    tc = pair_groupoid(2)
    comp = tc.cat.comp.copy()
    comp[1, 1] = 1
    bad = make_category(4, [0, 3], tc.cat.d, tc.cat.r, comp_table=comp)
    rep = validate_category(bad)
    assert rep.laws() == ["category.composability"]
    assert rep.violations[0].witness == (1, 1)


def test_local_bisections_of_pair_groupoids():
    assert len(local_bisections(pair_groupoid(2).cat)) == 7
    assert len(local_bisections(pair_groupoid(3).cat)) == 34


def test_empty_and_singletons_are_bisections():
    c = pair_groupoid(3).cat
    assert is_local_bisection(c, 0)
    for a in range(c.n):
        assert is_local_bisection(c, 1 << a)


def test_full_arrow_set_is_not_a_bisection():
    c = pair_groupoid(2).cat
    assert not is_local_bisection(c, 0b1111)


def test_product_of_bisections_is_a_bisection():
    c = pair_groupoid(2).cat
    lbs = local_bisections(c)
    for a_mask in lbs:
        for b_mask in lbs:
            prod = 0
            for a in range(c.n):
                for b in range(c.n):
                    if a_mask >> a & 1 and b_mask >> b & 1 and c.comp[a, b] >= 0:
                        prod |= 1 << int(c.comp[a, b])
            assert is_local_bisection(c, prod)


def test_discrete_categories_are_etale():
    for tc in (pair_groupoid(2), pair_groupoid(3), path_category(),
               monoid_category([[0, 1], [1, 1]])):
        assert is_etale(tc)[0]
        assert is_open(tc.topology, tc.cat.identity_mask)


def test_indiscrete_topology_is_not_etale():
    ok, law, wit = is_etale(indiscrete_pair_groupoid())
    assert not ok
    assert law == "etale.open_not_union_of_bisections"
    assert wit == 0b1111


def test_parity_topology_is_etale_and_valid():
    tc = parity_pair_groupoid()
    assert validate_topcategory(tc).ok
    assert is_etale(tc)[0]
    assert is_open(tc.topology, tc.cat.identity_mask)
    assert open_local_bisections(tc) == [0, 0b0110, 0b1001]


def test_etale_opens_are_unions_of_open_bisections():
    tc = parity_pair_groupoid()
    olbs = open_local_bisections(tc)
    for o in iter_opens(tc.topology):
        cover = 0
        for b in olbs:
            if b & ~o == 0:
                cover |= b
        assert cover == o


# ---------------------------------------------------------------------------
# open_local_bisections against the loop it was: every subset of a discrete
# topology, every open of a listed one, tested one mask at a time

def open_local_bisections_by_masks(tc):
    if tc.topology.opens is None:
        return local_bisections(tc.cat)
    return [o for o in sorted(tc.topology.opens) if is_local_bisection(tc.cat, o)]


def assert_open_local_bisections_match_loop(tc):
    masks, rows = bisection_rows(tc, 1 << tc.n)
    assert open_local_bisections(tc) == masks == open_local_bisections_by_masks(tc)
    assert rows.shape == (len(masks), tc.n)
    assert row_masks(rows) == masks


def test_open_local_bisections_match_loop_on_corpus_categories():
    for inst in etale_categories():
        tc = inst.obj
        assert_open_local_bisections_match_loop(tc)
        assert_open_local_bisections_match_loop(relabel(tc, np.arange(tc.n)[::-1]))
    assert_open_local_bisections_match_loop(indiscrete_pair_groupoid())


def test_open_local_bisections_match_loop_on_wide_listed_topologies():
    """C(Q) of qframe-chain64 (63 arrows) and of the frame of a 100-chain
    (99 arrows, masks of two words)."""
    q64 = next(i.obj for i in corpus_rqfs() if i.name == "qframe-chain64")
    for q in (q64, frame_as_quantale(chain_frame(100))):
        tc = c_object(q).topcat
        assert tc.topology.opens is not None and tc.n in (63, 99)
        assert_open_local_bisections_match_loop(tc)


@settings(max_examples=60, deadline=None)
@given(small_categories(), st.lists(st.integers(0, 255), max_size=5))
def test_open_local_bisections_match_loop_on_random_topologies(tc, base):
    """The discrete topology of a random category, and the topology
    generated by random arrow sets on it."""
    assert_open_local_bisections_match_loop(tc)
    listed = Topology(tc.n, topology_from_base(tc.n, [b & (1 << tc.n) - 1 for b in base]).opens)
    assert_open_local_bisections_match_loop(FiniteTopCategory(tc.cat, listed))


def test_topology_from_base_closes_unions():
    t = topology_from_base(3, [0b001, 0b010])
    assert t.opens == frozenset({0, 0b001, 0b010, 0b011})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, (1 << 6) - 1), max_size=6))
def test_topology_from_base_is_every_union_of_basic_sets(base):
    # oracle: the union of each subset of the base, the empty union included
    unions = set()
    for chosen in range(1 << len(base)):
        u = 0
        for i, b in enumerate(base):
            if chosen >> i & 1:
                u |= b
        unions.add(u)
    assert topology_from_base(6, base).opens == frozenset(unions)


def test_identity_functor_is_covering():
    c = pair_groupoid(2).cat
    assert validate_covering_functor(np.arange(c.n, dtype=np.int64), c, c).ok


def test_collapse_functor_fails_d_injectivity():
    c = pair_groupoid(2).cat
    triv = monoid_category([[0]]).cat
    rep = validate_covering_functor(np.zeros(4, dtype=np.int64), c, triv)
    assert "covering.d_injective" in rep.laws()
    a, b = rep.violations[0].witness
    assert int(c.d[a]) == int(c.d[b])


def test_covering_functors_reflect_identities():
    # whenever covering validation passes, preimages of identities are identities
    c = pair_groupoid(2).cat
    swap = np.array([3, 2, 1, 0], dtype=np.int64)
    assert validate_covering_functor(swap, c, c).ok
    for a in range(c.n):
        if c.is_identity(int(swap[a])):
            assert c.is_identity(a)


def test_non_covering_monoid_map():
    # e |-> e, z |-> e is a functor but not r-surjective
    src = monoid_category([[0, 1], [1, 1]]).cat
    dst = src
    theta = np.array([0, 0], dtype=np.int64)
    rep = validate_covering_functor(theta, src, dst)
    assert not rep.ok
    assert {"covering.d_injective", "covering.r_injective"} & set(rep.laws())


def test_map_of_the_wrong_length_is_out_of_range():
    one = monoid_category([[0]]).cat
    rep = validate_covering_functor([0, 0], one, one)
    assert [(v.law, v.witness) for v in rep.violations] == [("functor.map_range", (1,))]
    rep = validate_covering_functor([], one, one)
    assert [(v.law, v.witness) for v in rep.violations] == [("functor.map_range", (0,))]


def test_map_out_of_the_empty_category_must_be_empty():
    empty, pair = empty_category().cat, pair_groupoid(2).cat
    rep = validate_covering_functor([5], empty, pair)
    assert [(v.law, v.witness) for v in rep.violations] == [("functor.map_range", (0,))]
    rep = validate_covering_functor([0], empty, pair)
    assert [(v.law, v.witness) for v in rep.violations] == [("functor.map_range", (0,))]
    assert validate_covering_functor([], empty, pair).ok


def test_map_into_the_empty_category_is_out_of_range():
    empty, pair = empty_category().cat, pair_groupoid(2).cat
    rep = validate_covering_functor([0, 0, 0, 0], pair, empty)
    assert [(v.law, v.witness) for v in rep.violations] == [("functor.map_range", (0,))]
    assert validate_covering_functor([], empty, empty).ok


def test_continuity_between_topologies():
    disc = pair_groupoid(2)
    ind = indiscrete_pair_groupoid()
    ident = np.arange(disc.n, dtype=np.int64)
    assert continuity_check(ident, disc, ind) == (True, None)
    ok, wit = continuity_check(ident, ind, disc)
    assert not ok and wit == 1


def test_m_continuity_fails_when_products_escape():
    # on the 2-element group with opens {0, {g}, all}, d and r are continuous
    # but the composable pair (e, g) multiplies into {g} while every open box
    # around it also produces e
    c2 = monoid_category([[0, 1], [1, 0]])
    bad = FiniteTopCategory(c2.cat, Topology(2, frozenset({0, 0b10, 0b11})))
    rep = validate_topcategory(bad)
    assert rep.laws() == ["topcategory.m_continuous"]


def test_open_rows_reads_a_listed_topology():
    masks, rows, find = open_rows(parity_pair_groupoid().topology)
    assert masks == [0, 0b0110, 0b1001, 0b1111]
    assert row_masks(rows) == masks
    sets = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=bool)
    assert find(sets).tolist() == [1, -1, 0]


def pair2_with_opens(*masks):
    return FiniteTopCategory(pair_groupoid(2).cat, Topology(4, frozenset(masks)))


@pytest.mark.parametrize("masks,law,witness", [
    # pair2's arrows: identities 0 and 3, arrow 1 from 3 to 0 and 2 back
    ((0, 1, 15), "topcategory.d_continuous", (1,)),
    ((0, 5, 15), "topcategory.r_continuous", (5,)),
])
def test_continuity_of_d_and_r_is_witnessed_by_the_first_failing_open(masks, law, witness):
    tc = pair2_with_opens(*masks)
    rep = validate_topcategory(tc)
    assert [(v.law, v.witness) for v in rep.violations] == [(law, witness)]
    assert rep == validate_topcategory_by_opens(tc)


@pytest.mark.parametrize("tc,law,witness", [
    (pair2_with_opens(0, 2, 6, 9, 11, 15), "etale.d_not_open", 2),
    # drawn by listed_topcategories, the topology generated by {0} and {2}:
    # d({2}) = {0} is open, r({2}) = {3} is not
    (pair2_with_opens(0, 1, 4, 5), "etale.r_not_open", 4),
])
def test_etale_laws_are_witnessed_by_the_first_failing_open(tc, law, witness):
    assert is_etale(tc) == is_etale_by_opens(tc) == (False, law, witness)


# ---------------------------------------------------------------------------
# validate_topcategory, is_etale and continuity_check against the bodies
# they had before they read member rows: one Python test per open, m's
# continuity by a search over every pair of opens and of their arrows

def _preimage(fmap, mask):
    return mask_of(a for a in range(len(fmap)) if has_bit(mask, int(fmap[a])))


def _image(fmap, mask):
    return mask_of(int(fmap[a]) for a in iter_bits(mask))


def _box_exists(cat, boxes, a, b, w):
    for u in boxes:
        if not has_bit(u, a):
            continue
        for v in boxes:
            if not has_bit(v, b):
                continue
            ok = True
            for x in iter_bits(u):
                for y in iter_bits(v):
                    z = int(cat.comp[x, y])
                    if z != UNDEF and not has_bit(w, z):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def validate_topology_by_pairs(t: Topology) -> Report:
    rep = Report(subject="topology")
    rep.layers_run.append("topology")
    if t.opens is None:
        return rep
    full = full_mask(t.n)
    if 0 not in t.opens:
        rep.add("topology.contains_empty", ())
    if full not in t.opens:
        rep.add("topology.contains_all", ())
    opens = sorted(t.opens)
    for i, a in enumerate(opens):
        for b in opens[i:]:
            if a | b not in t.opens:
                rep.add("topology.union_closed", (a, b))
                return rep
            if a & b not in t.opens:
                rep.add("topology.intersection_closed", (a, b))
                return rep
    return rep


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 1, 3, 8, 64, 70]), st.data())
def test_validate_topology_matches_pair_loop(width, data):
    """Random families of arrow sets, most of them no topology, and the
    unions-and-intersections closure of one, at widths of one and two
    words; the same report, witness included."""
    sets = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=8))
    families = [frozenset(sets), topology_from_base(width, sets).opens | {full_mask(width)}]
    for opens in families:
        t = Topology(width, opens)
        assert validate_topology(t) == validate_topology_by_pairs(t), sorted(opens)


def test_validate_topology_names_the_first_pair():
    t = Topology(3, frozenset([0, 0b001, 0b010, 0b100, 0b011, 0b111]))
    assert validate_topology(t).violations[0].witness == (0b001, 0b100)
    assert validate_topology(t).laws() == ["topology.union_closed"]
    t = Topology(2, frozenset([0, 0b01, 0b10, 0b11]) - {0})
    assert validate_topology(t).laws() == ["topology.contains_empty",
                                           "topology.intersection_closed"]
    assert validate_topology(t).violations[1].witness == (0b01, 0b10)


def validate_topcategory_by_opens(tc) -> Report:
    rep = validate_category(tc.cat)
    if not rep.ok:
        return rep
    rep.extend(validate_topology_by_pairs(tc.topology))
    rep.subject = "topcategory"
    if not rep.ok or tc.topology.is_discrete:
        return rep
    cat, top = tc.cat, tc.topology
    for o in iter_opens(top):
        if not is_open(top, _preimage(cat.d, o)):
            rep.add("topcategory.d_continuous", (o,))
            return rep
        if not is_open(top, _preimage(cat.r, o)):
            rep.add("topcategory.r_continuous", (o,))
            return rep
    boxes = sorted(top.opens)
    for w in boxes:
        for a, b in composable_pairs(cat):
            if has_bit(w, int(cat.comp[a, b])) and not _box_exists(cat, boxes, a, b, w):
                rep.add("topcategory.m_continuous", (int(a), int(b), w))
                return rep
    return rep


def is_etale_by_opens(tc):
    if tc.topology.is_discrete:
        return True, None, None
    cat, top = tc.cat, tc.topology
    olbs = open_local_bisections(tc)
    for o in iter_opens(top):
        cover = 0
        for b in olbs:
            if b & ~o == 0:
                cover |= b
        if cover != o:
            return False, "etale.open_not_union_of_bisections", o
    for o in iter_opens(top):
        if not is_open(top, _image(cat.d, o)):
            return False, "etale.d_not_open", o
        if not is_open(top, _image(cat.r, o)):
            return False, "etale.r_not_open", o
    return True, None, None


def continuity_check_by_opens(fmap, tc_src, tc_dst):
    fmap = np.asarray(fmap, dtype=np.int64)
    if tc_src.topology.is_discrete:
        return True, None
    if tc_dst.topology.opens is None:
        opens = (1 << y for y in range(tc_dst.n))
    else:
        opens = iter(sorted(tc_dst.topology.opens))
    for o in opens:
        if not is_open(tc_src.topology, _preimage(fmap, o)):
            return False, o
    return True, None


def assert_topcategory_checks_match_oracles(tc):
    assert validate_topcategory(tc) == validate_topcategory_by_opens(tc)
    assert is_etale(tc) == is_etale_by_opens(tc)


def assert_continuity_matches_oracle(fmap, src, dst):
    assert continuity_check(fmap, src, dst) == continuity_check_by_opens(fmap, src, dst), fmap


def test_topcategory_checks_match_oracles_on_corpus_and_negative_fixtures():
    for inst in etale_categories() + [f for f in negative_fixtures()
                                      if isinstance(f.obj, FiniteTopCategory)]:
        tc = inst.obj
        assert_topcategory_checks_match_oracles(tc)
        assert_topcategory_checks_match_oracles(relabel(tc, np.arange(tc.n)[::-1]))
        ident = np.arange(tc.n, dtype=np.int64)
        for m in (ident, *one_value_perturbations(ident, tc.n + 1)):
            assert_continuity_matches_oracle(m, tc, tc)


@pytest.mark.parametrize("inst", corpus_rqfs(), ids=lambda i: i.name)
def test_topcategory_checks_match_oracles_on_c_of_corpus_rqfs(inst):
    """C(Q) of every corpus rqf, qframe-chain64 (63 arrows, 64 opens)
    included, with the identity map and its one-value perturbations, one
    past the last arrow included, into C(Q) and into its discrete copy."""
    tc = c_object(inst.obj).topcat
    assert_topcategory_checks_match_oracles(tc)
    discrete = FiniteTopCategory(tc.cat, Topology(tc.n, None))
    ident = np.arange(tc.n, dtype=np.int64)
    for m in (ident, *one_value_perturbations(ident, tc.n + 1)):
        assert_continuity_matches_oracle(m, tc, tc)
        assert_continuity_matches_oracle(m, tc, discrete)


CORPUS_CATEGORIES_TO_8 = [i.obj.cat for i in etale_categories() if i.obj.n <= 8]


@st.composite
def listed_topcategories(draw):
    """A corpus category of at most 8 arrows with the topology generated by
    at most 5 random arrow sets; in about a third of the draws one open is
    dropped, which may break its closure."""
    cat = draw(st.sampled_from(CORPUS_CATEGORIES_TO_8))
    base = draw(st.lists(st.integers(0, (1 << cat.n) - 1), max_size=5))
    opens = sorted(topology_from_base(cat.n, base).opens)
    if draw(st.integers(0, 2)) == 0:
        opens.pop(draw(st.integers(0, len(opens) - 1)))
    return FiniteTopCategory(cat, Topology(cat.n, frozenset(opens)))


@settings(max_examples=300, deadline=None)
@given(listed_topcategories(), listed_topcategories(), st.data())
def test_topcategory_checks_match_oracles_on_random_topologies(src, dst, data):
    """Both checks on the source, and continuity of a random map whose
    values are now and then one past the target's last arrow."""
    assert_topcategory_checks_match_oracles(src)
    fmap = data.draw(st.lists(st.integers(0, dst.n), min_size=src.n, max_size=src.n))
    assert_continuity_matches_oracle(fmap, src, dst)


# ---------------------------------------------------------------------------
# validate_covering_functor against the body it had before its surjectivity
# test read whole arrays: the same report (laws, witnesses, layers) on every
# map between small corpus categories with at most 4096 maps, and on the
# maps the arrow-map search yields between larger ones with their one-value
# perturbations

def validate_covering_functor_reference(fmap, src, dst) -> Report:
    fmap = np.asarray(fmap, dtype=np.int64)
    rep = Report(subject="covering-functor")
    rep.layers_run.append("functor")
    n = src.n
    bad = np.flatnonzero((fmap < 0) | (fmap >= dst.n))
    if fmap.shape != (n,) or bad.size:
        rep.add("functor.map_range", (int(bad[0]) if bad.size else min(fmap.size, n),))
        return rep
    for e in src.identities():
        if not dst.is_identity(int(fmap[e])):
            rep.add("functor.preserves_identities", (e,))
            break
    for a in range(n):
        if int(dst.d[fmap[a]]) != int(fmap[src.d[a]]):
            rep.add("functor.preserves_d", (a,))
            break
    for a in range(n):
        if int(dst.r[fmap[a]]) != int(fmap[src.r[a]]):
            rep.add("functor.preserves_r", (a,))
            break
    if rep.ok:
        for a, b in composable_pairs(src):
            if int(dst.comp[fmap[a], fmap[b]]) != int(fmap[src.comp[a, b]]):
                rep.add("functor.preserves_composition", (a, b))
                break
    if not rep.ok:
        return rep
    rep.layers_run.append("covering")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if fmap[a] == fmap[b]]
    wit = next(((a, b) for a, b in pairs if src.d[a] == src.d[b]), None)
    if wit:
        rep.add("covering.d_injective", wit)
    wit = next(((a, b) for a, b in pairs if src.r[a] == src.r[b]), None)
    if wit:
        rep.add("covering.r_injective", wit)

    def _surj(proj_src, proj_dst, law):
        for e in src.identities():
            fe = int(fmap[e])
            for y in range(dst.n):
                if int(proj_dst[y]) != fe:
                    continue
                if not any(int(proj_src[x]) == e and int(fmap[x]) == y for x in range(n)):
                    rep.add(law, (e, y))
                    return

    _surj(src.d, dst.d, "covering.d_surjective")
    _surj(src.r, dst.r, "covering.r_surjective")
    return rep


def _maps_to_check(src, dst):
    if dst.n ** src.n <= 4096:
        return [np.array(m, dtype=np.int64)
                for m in itertools.product(range(dst.n), repeat=src.n)]
    _, yielded = searched_arrow_maps(FiniteTopCategory(src, Topology(src.n, None)),
                                     FiniteTopCategory(dst, Topology(dst.n, None)))
    return [np.array(m, dtype=np.int64) for f in yielded
            for m in (f, *one_value_perturbations(f, dst.n))]


@pytest.mark.parametrize("name,tc", small_corpus_categories())
def test_covering_functor_report_matches_reference(name, tc):
    laws = set()
    for _, other in small_corpus_categories():
        for src, dst in ((tc.cat, other.cat), (other.cat, tc.cat)):
            for m in _maps_to_check(src, dst):
                rep = validate_covering_functor(m, src, dst)
                assert rep == validate_covering_functor_reference(m, src, dst), m.tolist()
                laws.update(rep.laws())
    if tc.n > 1:
        assert {"covering.d_surjective", "covering.r_surjective"} <= laws


# validate_covering_functor against its body on NumPy arrays
# (map_oracles.validate_covering_functor_oracle): the same report on random
# maps between small corpus categories

SMALL_CATEGORIES = [tc for _, tc in small_corpus_categories()]


@functools.cache
def yielded_maps(i: int, j: int) -> tuple:
    """The maps the arrow-map search yields from small category i to j:
    functors that keep d/r-injectivity, each a candidate covering functor."""
    return tuple(searched_arrow_maps(SMALL_CATEGORIES[i], SMALL_CATEGORIES[j])[1])


@st.composite
def maps_between_small_categories(draw):
    """(map, src, dst) for small corpus categories src and dst: a map the
    arrow-map search yields, with up to two values changed; a map that
    sends identities to identities and every other arrow to one with the
    images of its d and r, where there is one, so that composition and the
    covering laws decide; or a list of values in -1..dst.n of length n - 1,
    n or n + 1, so that some are out of range or of the wrong length."""
    i, j = (draw(st.integers(0, len(SMALL_CATEGORIES) - 1)) for _ in range(2))
    src, dst = SMALL_CATEGORIES[i].cat, SMALL_CATEGORIES[j].cat
    kind = draw(st.sampled_from(["yielded", "keeps d and r", "any"]))
    if kind == "yielded" and yielded_maps(i, j):
        fmap = list(draw(st.sampled_from(yielded_maps(i, j))))
        for _ in range(draw(st.integers(0, 2)) if src.n else 0):
            fmap[draw(st.integers(0, src.n - 1))] = draw(st.integers(0, dst.n - 1))
    elif kind == "keeps d and r" and dst.identities():
        fmap = [0] * src.n
        for e in src.identities():
            fmap[e] = draw(st.sampled_from(dst.identities()))
        for a in range(src.n):
            if not src.is_identity(a):
                fits = [y for y in range(dst.n) if dst.d[y] == fmap[src.d[a]]
                        and dst.r[y] == fmap[src.r[a]]]
                fmap[a] = draw(st.sampled_from(fits or list(range(dst.n))))
    else:
        length = draw(st.sampled_from(sorted({max(src.n - 1, 0), src.n, src.n + 1})))
        fmap = draw(st.lists(st.integers(-1, dst.n), min_size=length, max_size=length))
    return fmap, src, dst


@settings(max_examples=400, deadline=None)
@given(maps_between_small_categories())
def test_covering_functor_report_matches_array_oracle(drawn):
    """Reports are equal in subject, laws, witnesses and layers_run."""
    fmap, src, dst = drawn
    assert validate_covering_functor(fmap, src, dst) \
        == validate_covering_functor_oracle(fmap, src, dst), fmap
