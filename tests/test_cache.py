"""The data built once per algebra or category and cached on it
(order.cached): J, the partial isometries, the monoid PI(Q) and C(Q) of a
quantale; J(S), the partial and the compatible join tables, the one
listing of the down-sets of J(S), L^vee(S) and the S-filter category of a
complete restriction monoid, with its compatible pairs that
validate_crm_morphism reads and the float32 table of its order that
is_proper reads; the laws that duality.generator_search compiles on the
generators of either, and the operations it reads on the candidates of
either as a target; the etale
verdict, Omega(C), the monoid of the open local bisections, the arrow laws
of the covering functor search from a topological category and the
composition rows of a search into it; and the lookup of the member rows
that an OmegaResult, a FilterCategory and a BisectionMonoid each build
once.  Cached values equal fresh builds, on every corpus algebra and
category and on two relabellings of each, cannot be changed through what
a call returns, start empty on a dataclasses.replace copy, and hold no
reference back to their algebra or category.  The refusal of a category
that is not etale is checked on every call, as the size bounds are
(test_bounds)."""

import dataclasses
import gc
import weakref
from types import MappingProxyType

import numpy as np
import pytest

from framecat import crm, duality, functors, order, quantale, topcat
from framecat.corpus import (corpus_crms, corpus_rqfs, etale_categories,
                             indiscrete_pair_groupoid, pair_groupoid)
from framecat.crm import (_compatible_join_table, bisection_monoid, join_primes, l_vee,
                          pi_restriction_monoid, s_filters, verify_adjunction_II)
from framecat.duality import verify_adjunction_I
from framecat.functors import c_object, omega_object
from framecat.order import join_irreducibles
from framecat.quantale import partial_isometries
from framecat.reports import MAX_TABLE_SIDE
from framecat.suite import full_suite_pending, run_pending
from framecat.topcat import is_etale
from map_oracles import cat_of_ehresmann, relabel, relabel_crm, relabel_rqf

QUANTALE_KEYS = {"join_irreducibles", "partial_isometries", "pi_restriction_monoid", "c_object",
                 "law_skeleton", "search_target"}
MONOID_KEYS = {"join_primes", "partial_joins", "compatible_joins", "down_sets", "l_vee",
               "s_filters", "law_skeleton", "search_target", "compatible_pairs", "not_leq"}
CATEGORY_KEYS = {"is_etale", "omega_object", "bisection_monoid", "arrow_laws", "comp_rows"}
QUANTALE_TABLES = ("leq", "meet", "join", "mul", "star", "plus", "bottom", "top", "unit")
MONOID_TABLES = ("leq", "mul", "star", "plus", "meet", "unit", "zero")


def assert_same_skeleton(alg):
    """The laws of generator_search cached on alg equal a fresh compile."""
    skeleton = duality.law_skeleton(alg)
    assert alg._cache["law_skeleton"] is skeleton
    fresh = duality._law_skeleton(alg)
    assert np.array_equal(skeleton.below, fresh.below) and not skeleton.below.flags.writeable
    assert skeleton[1:] == fresh[1:]


def assert_same_target(tgt, cands, joins, zero, top=None):
    """The operations of tgt on its candidates cands that generator_search
    caches on tgt equal a fresh build, and the tables of tgt read at the
    candidates, with the join table joins, the zero and, of an rqf, the
    top."""
    target = duality.search_target(tgt)
    assert tgt._cache["search_target"] is target
    fresh = duality._target_tables(tgt)
    for table in (target.pad, target.candidate):
        assert not table.flags.writeable
    assert np.array_equal(target.pad, fresh.pad)
    assert np.array_equal(target.candidate, fresh.candidate)
    assert (target.join_rows, target.leq_rows, dict(target.ops), target.zero) == \
        (fresh.join_rows, fresh.leq_rows, dict(fresh.ops), fresh.zero)
    c = np.array(cands, dtype=np.int64)
    block = np.ix_(c, c)
    assert np.flatnonzero(target.candidate).tolist() == sorted(c.tolist())
    assert np.array_equal(target.pad, np.vstack([joins[:, c], np.full((1, len(c)), -1)]))
    assert target.join_rows == tuple(map(tuple, target.pad.tolist()))
    ops = target.ops
    for rows, table in ((target.leq_rows, tgt.leq[block]), (ops["meet"], tgt.meet[block]),
                        (ops["mul"], tgt.mul[block]), (ops["star"], tgt.star[c]),
                        (ops["plus"], tgt.plus[c])):
        assert np.array_equal(np.array(rows, dtype=table.dtype).reshape(table.shape), table)
    assert (ops["unit"], target.zero, ops.get("top")) == (tgt.unit, zero, top)


def assert_same_morphism_tables(s):
    """The compatible pairs of s with their joins, which
    validate_crm_morphism reads, and the float32 table of not x <= y, which
    is_proper reads, each filled by a check of the identity of s, equal
    fresh builds."""
    ident = np.arange(s.n)
    assert crm.validate_crm_morphism(ident, s, s).ok and crm.is_proper(ident, s, s)[0]
    joins = _compatible_join_table(dataclasses.replace(s))
    xs, ys = np.nonzero(np.triu(joins >= 0))
    cached_xs, cached_ys, cached_js = s._cache["compatible_pairs"]
    assert np.array_equal(cached_xs, xs) and np.array_equal(cached_ys, ys)
    assert np.array_equal(cached_js, joins[xs, ys])
    not_leq = s._cache["not_leq"]
    assert not_leq.dtype == np.float32 and np.array_equal(not_leq, ~s.leq)
    for table in (cached_xs, cached_ys, cached_js, not_leq):
        assert not table.flags.writeable


def assert_same_arrow_tables(tc):
    """The arrow laws of the covering functor search from tc and the
    composition rows of one into tc, each filled by a search against
    pair1, equal fresh builds."""
    one = pair_groupoid(1)
    duality.enumerate_covering_functors(tc, one)
    duality.enumerate_covering_functors(one, tc)
    assert tc._cache["arrow_laws"] == duality._covering_laws(tc.cat)
    assert tc._cache["comp_rows"] == tuple(map(tuple, tc.cat.comp.tolist()))


def assert_same_lookup(holder):
    """holder.find, built once, gives each member row its first index and
    every other row -1, as a dict of the rows' bytes does, on the member
    rows and on each of them with its first column flipped."""
    rows = holder.members
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    flipped = rows.copy()
    flipped[:, :1] ^= True
    for sets in (rows, flipped):
        expected = [first.get(row.tobytes(), -1) for row in sets]
        assert holder.find(sets).tolist() == expected
    assert holder.find is holder.find


def assert_same_category(a, b):
    for table in ("d", "r", "comp"):
        assert np.array_equal(getattr(a.topcat.cat, table), getattr(b.topcat.cat, table))
    assert a.topcat.cat.identity_mask == b.topcat.cat.identity_mask
    assert a.topcat.topology == b.topcat.topology
    assert np.array_equal(a.members, b.members)
    assert np.array_equal(a.generators, b.generators)


def assert_same_tables(a, b, tables):
    for table in tables:
        assert np.array_equal(getattr(a, table), getattr(b, table)), table


def assert_same_omega(a, b):
    assert_same_tables(a.rqf, b.rqf, QUANTALE_TABLES)
    assert a.opens == b.opens
    assert np.array_equal(a.members, b.members)


def assert_same_ideals(a, b):
    assert_same_tables(a.rqf, b.rqf, QUANTALE_TABLES)
    assert np.array_equal(a.members, b.members) and np.array_equal(a.principal, b.principal)


def assert_same_bisections(a, b):
    assert_same_tables(a.crm, b.crm, MONOID_TABLES)
    assert a.masks == b.masks and np.array_equal(a.members, b.members)
    assert np.array_equal(crm._partial_join_table(a.crm), crm._partial_join_table(b.crm))


def fresh_omega(tc):
    return functors._omega_discrete(tc) if tc.topology.is_discrete else functors._omega_generic(tc)


@pytest.fixture(scope="module")
def rqfs():
    return [(i.name, i.obj) for i in corpus_rqfs()]


@pytest.fixture(scope="module")
def monoids():
    return [(i.name, i.obj) for i in corpus_crms()]


def relabellings(alg, relabel_alg, seed: int):
    """alg and two relabellings of its elements, drawn from seed."""
    rng = np.random.default_rng(seed)
    return [alg, *(relabel_alg(alg, rng.permutation(alg.n)) for _ in range(2))]


def test_cached_values_equal_fresh_builds_on_corpus_rqfs(rqfs):
    for name, rqf in rqfs:
        for q in relabellings(rqf, relabel_rqf, 0):
            for _ in range(2):  # the build, then the cached value
                assert join_irreducibles(q) == order._irreducibles(q.leq), name
                assert partial_isometries(q) == quantale._partial_isometries(q), name
                s, carrier = pi_restriction_monoid(q)
                fresh_s, fresh_carrier = crm._pi_restriction_monoid(q)
                assert_same_tables(s, fresh_s, MONOID_TABLES)
                assert carrier == list(fresh_carrier) == partial_isometries(q), name
                fc = c_object(q)
                fresh = functors._filter_category(q)
                assert_same_category(fc, fresh)
                assert_same_lookup(fc)
                assert_same_skeleton(q)
                assert_same_target(q, partial_isometries(q), q.join, q.bottom, q.top)
            assert c_object(q) is fc and pi_restriction_monoid(q)[0] is s
            assert set(q._cache) == QUANTALE_KEYS, name


def test_cached_values_equal_fresh_builds_on_corpus_crms(monoids):
    for name, monoid in monoids:
        for s in relabellings(monoid, relabel_crm, 1):
            joins = crm._partial_join_table(dataclasses.replace(s))
            for _ in range(2):
                assert join_primes(s) == crm._join_primes(s), name
                assert np.array_equal(crm._partial_join_table(s), joins), name
                fresh = np.where(crm._compatibility_matrix(s), joins, -1)
                assert np.array_equal(_compatible_join_table(s), fresh), name
                sf = s_filters(s)
                assert_same_category(sf, s_filters(dataclasses.replace(s)))
                assert_same_lookup(sf)
                lv = l_vee(s)
                assert_same_ideals(lv, l_vee(dataclasses.replace(s)))
                fresh_primes, fresh_downs = crm._down_sets(s, MAX_TABLE_SIDE, "{}")
                assert np.array_equal(s._cache["down_sets"][0], fresh_primes), name
                assert s._cache["down_sets"][1] == fresh_downs, name
                assert_same_skeleton(s)
                assert_same_target(s, range(s.n), joins, s.zero)
                assert_same_morphism_tables(s)
            assert s_filters(s) is sf and l_vee(s) is lv
            assert set(s._cache) == MONOID_KEYS, name


def test_cached_values_equal_fresh_builds_on_corpus_categories():
    rng = np.random.default_rng(0)
    for inst in etale_categories():
        tc = inst.obj
        for c in (tc, *(relabel(tc, rng.permutation(tc.n)) for _ in range(2))):
            for _ in range(2):
                assert is_etale(c) == topcat._is_etale(c) == (True, None, None), inst.name
                om = omega_object(c)
                assert_same_omega(om, fresh_omega(c))
                assert_same_lookup(om)
                bis = bisection_monoid(c)
                assert_same_bisections(bis, crm._bisection_monoid(c, 1024))
                assert_same_lookup(bis)
                joins = crm._partial_join_table(dataclasses.replace(bis.crm))
                assert_same_target(bis.crm, range(bis.crm.n), joins, bis.crm.zero)
                assert_same_arrow_tables(c)
            assert omega_object(c) is om and bisection_monoid(c) is bis
            assert set(c._cache) == CATEGORY_KEYS, inst.name


def test_a_category_that_is_not_etale_is_refused_on_every_call():
    tc = indiscrete_pair_groupoid()
    s, _ = pi_restriction_monoid(omega_object(pair_groupoid(1)).rqf)
    for _ in range(2):
        assert is_etale(tc) == (False, "etale.open_not_union_of_bisections", 0b1111)
        for build in (omega_object, bisection_monoid, lambda tc: verify_adjunction_II(tc, s)):
            with pytest.raises(ValueError, match="not etale"):
                build(tc)
    assert set(tc._cache) == {"is_etale"}


def test_returned_values_cannot_change_a_later_call():
    tc = pair_groupoid(2)
    om, bis = omega_object(tc), bisection_monoid(tc)
    q = om.rqf
    s, _ = pi_restriction_monoid(q)
    lv = l_vee(s)
    carrier = lambda q: pi_restriction_monoid(q)[1]  # noqa: E731
    for build, alg in ((join_irreducibles, q), (partial_isometries, q), (carrier, q),
                       (join_primes, s)):
        first = build(alg)
        expected = list(first)
        first[0] = -1
        first.append(-1)
        assert build(alg) == expected, build.__name__
    with pytest.raises(ValueError):
        _compatible_join_table(s)[0, 0] = 1
    for derived in (c_object(q), s_filters(s)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            derived.members = ()
        for table in (derived.members, derived.generators, derived.topcat.cat.comp):
            with pytest.raises(ValueError):
                table[0] = 0
    for derived in (om, bis, lv):
        with pytest.raises(dataclasses.FrozenInstanceError):
            derived.members = ()
    tables = [om.members, bis.members, crm._partial_join_table(bis.crm),
              crm._partial_join_table(s), lv.members, lv.principal]
    tables += [getattr(alg, t) for alg in (q, lv.rqf) for t in QUANTALE_TABLES[:6]]
    tables += [getattr(bis.crm, t) for t in MONOID_TABLES[:5]]
    for cat in (tc.cat, cat_of_ehresmann(q).cat):
        tables += [cat.d, cat.r, cat.comp]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0
    # the maps a search returns, and the rows a lookup returns
    pis = partial_isometries(q)
    search = lambda: duality.generator_search(q, q)  # noqa: E731
    found = search()
    expected = [m.tolist() for m in found]
    for m in found:
        m[:] = 0
    assert [m.tolist() for m in search()] == expected
    for functor in duality.enumerate_covering_functors(tc, tc):
        with pytest.raises(ValueError):
            functor[0] = 0
    for holder in (om, bis, c_object(q), s_filters(s)):
        rows = holder.find(holder.members)
        rows[:] = -1
        assert holder.find(holder.members).tolist() == list(range(len(holder.members)))
    assert_same_morphism_tables(s)
    for cache, keys in ((q._cache, ("law_skeleton", "search_target")),
                        (s._cache, ("down_sets", "compatible_pairs", "not_leq")),
                        (bis.crm._cache, ("partial_joins",)),
                        (tc._cache, ("arrow_laws", "comp_rows"))):
        for key in keys:
            assert_immutable(cache[key])
    assert_same_category(c_object(q), functors._filter_category(q))
    assert_same_category(s_filters(s), s_filters(dataclasses.replace(s)))
    assert_same_ideals(l_vee(s), l_vee(dataclasses.replace(s)))
    assert_same_omega(omega_object(tc), fresh_omega(tc))
    assert_same_bisections(bisection_monoid(tc), crm._bisection_monoid(tc, 1024))
    assert_same_target(q, pis, q.join, q.bottom, q.top)
    assert_same_arrow_tables(tc)


def assert_immutable(value):
    """value is made of tuples, read-only mappings, read-only arrays and
    immutable scalars only."""
    if isinstance(value, (tuple, MappingProxyType)):
        for part in value.values() if isinstance(value, MappingProxyType) else value:
            assert_immutable(part)
    elif isinstance(value, np.ndarray):
        assert not value.flags.writeable
    else:
        assert value is None or isinstance(value, (int, str, bytes)), type(value)


def test_pi_and_l_vee_are_cached_on_their_algebras():
    """A second call returns the same PI(Q) and the same L^vee(S), and a
    fresh carrier list: changing the one returned does not change a later
    call."""
    q = omega_object(pair_groupoid(2)).rqf
    s, carrier = pi_restriction_monoid(q)
    expected = list(carrier)
    carrier[0] = -1
    carrier.append(-1)
    again, carrier_again = pi_restriction_monoid(q)
    assert again is s and carrier_again == expected
    assert l_vee(s) is l_vee(s)


def test_a_second_adjunction_II_check_builds_no_down_sets_and_no_search_target(monkeypatch):
    tc = pair_groupoid(2)
    q = omega_object(tc).rqf
    first = verify_adjunction_II(tc, pi_restriction_monoid(q)[0])

    def no_build(*args):
        raise AssertionError("built again")

    monkeypatch.setattr(crm, "_down_sets", no_build)
    monkeypatch.setattr(duality, "_target_tables", no_build)
    second = verify_adjunction_II(tc, pi_restriction_monoid(q)[0])
    assert first.ok and second.ok and second.sizes == first.sizes == (2, 2)


def test_a_corpus_run_lists_the_down_sets_once_per_monoid(monkeypatch):
    """L^vee(S) and the S-filters of every monoid of the suite read one
    listing of the down-sets of J(S)."""
    listed = []  # the monoids, held so that no two share an id
    real = crm._down_sets
    monkeypatch.setattr(crm, "_down_sets", lambda s, *args: listed.append(s) or real(s, *args))
    reports = run_pending(full_suite_pending(12, 1024))
    assert all(r.status == "pass" for r in reports)
    assert listed and len({id(s) for s in listed}) == len(listed)


def filled(tc):
    """q = Omega(tc) and s = PI(q), after L^vee(s) and both adjunction
    checks of tc against q and s.  These fill every key of q, which is also
    the target of the first check; every key of s but the target's, which
    the second fills on the bisection monoid, with the partial joins that
    monoid is built with, and the table of its order that is_proper reads
    for the decisions of the callitic search; and every key of tc but the
    composition rows, which the functor searches fill on C(Q) and C(S).
    The morphism tables of s are filled by a check of its identity."""
    q = omega_object(tc).rqf
    s, _ = pi_restriction_monoid(q)
    l_vee(s)
    verify_adjunction_I(tc, q)
    verify_adjunction_II(tc, s)
    ident = np.arange(s.n)
    assert crm.validate_crm_morphism(ident, s, s).ok and crm.is_proper(ident, s, s)[0]
    assert set(q._cache) == QUANTALE_KEYS
    assert set(s._cache) == MONOID_KEYS - {"search_target"}
    assert set(bisection_monoid(tc).crm._cache) == {"partial_joins", "search_target", "not_leq"}
    assert set(tc._cache) == CATEGORY_KEYS - {"comp_rows"}
    assert set(c_object(q).topcat._cache) == set(s_filters(s).topcat._cache) == {"comp_rows"}
    return q, s


def holders(tc, q, s) -> list:
    """The objects that build the lookup of their member rows once."""
    return [omega_object(tc), bisection_monoid(tc), c_object(q), s_filters(s)]


def test_replace_starts_with_an_empty_cache():
    tc = pair_groupoid(2)
    q, s = filled(tc)
    assert "compatible_pairs" in s._cache and "not_leq" in s._cache
    assert dataclasses.replace(q)._cache == {} and dataclasses.replace(s)._cache == {}
    assert dataclasses.replace(tc)._cache == {}
    for holder in holders(tc, q, s):
        assert "find" in vars(holder) and "find" not in vars(dataclasses.replace(holder))
    # the frame of q as its own quantale: every element is a partial isometry
    n = q.n
    frame = dataclasses.replace(q, mul=q.meet, unit=q.top, star=np.arange(n),
                                plus=np.arange(n))
    assert partial_isometries(frame) == list(range(n))
    assert len(partial_isometries(q)) == 7


def test_algebras_are_freed_by_reference_counting():
    """With the cycle collector off, a category and the algebras built on
    it, whose caches and lookups are all filled by PI, L^vee and both
    adjunction checks, die with their last references: no cached value
    refers back to its category, algebra or holder."""
    gc.disable()
    try:
        tc = pair_groupoid(2)
        q, s = filled(tc)
        lv = l_vee(s)
        refs = [weakref.ref(x) for x in (tc, q, s, lv, lv.rqf, *holders(tc, q, s))]
        assert all("find" in vars(ref()) for ref in refs[5:])
        del tc, q, s, lv
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
