"""The data built once per algebra or category and cached on it
(order.cached): J, PI and C(Q) of a quantale; J(S), the compatible-join
table and the S-filter category of a complete restriction monoid; the laws
that duality.generator_search compiles on the generators of either; and
the etale verdict, Omega(C) and the monoid of the open local bisections of
a topological category.  Cached values equal fresh builds, cannot be
changed through what a call returns, start empty on a dataclasses.replace
copy, and hold no reference back to their algebra or category.  The size
bounds, and the refusal of a category that is not etale, are checked on
every call."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from framecat import crm, duality, functors, order, quantale, topcat
from framecat.corpus import (corpus_crms, corpus_rqfs, etale_categories,
                             indiscrete_pair_groupoid, pair_groupoid)
from framecat.crm import (_compatible_join_table, bisection_monoid, join_primes,
                          pi_restriction_monoid, s_filters, verify_adjunction_II)
from framecat.duality import verify_adjunction_I
from framecat.functors import c_object, omega_object
from framecat.order import join_irreducibles
from framecat.quantale import partial_isometries
from framecat.reports import BoundExceeded
from framecat.topcat import is_etale
from map_oracles import cat_of_ehresmann, relabel

QUANTALE_KEYS = {"join_irreducibles", "partial_isometries", "c_object", "law_skeleton"}
MONOID_KEYS = {"join_primes", "compatible_joins", "s_filters", "law_skeleton"}
CATEGORY_KEYS = {"is_etale", "omega_object", "bisection_monoid"}
QUANTALE_TABLES = ("leq", "meet", "join", "mul", "star", "plus", "bottom", "top", "unit")
MONOID_TABLES = ("leq", "mul", "star", "plus", "meet", "unit", "zero")


def assert_same_skeleton(alg, gens):
    """The cached laws of generator_search on alg and gens, filled by a
    search with no candidates, equal a fresh compile."""
    duality.generator_search(alg, gens, alg, [], np.zeros((alg.n, 0), dtype=np.int64), 0)
    held, (below, laws, lower) = alg._cache["law_skeleton"]
    fresh_below, fresh_laws, fresh_lower = duality._law_skeleton(alg, tuple(gens))
    assert held == tuple(gens)
    assert np.array_equal(below, fresh_below) and not below.flags.writeable
    assert (laws, lower) == (fresh_laws, fresh_lower)


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
    assert a.opens == b.opens and dict(a.index) == dict(b.index)
    assert np.array_equal(a.members, b.members)


def assert_same_bisections(a, b):
    assert_same_tables(a.crm, b.crm, MONOID_TABLES)
    assert a.masks == b.masks
    assert np.array_equal(a.members, b.members) and np.array_equal(a.joins, b.joins)


def fresh_omega(tc):
    return functors._omega_discrete(tc) if tc.topology.is_discrete else functors._omega_generic(tc)


@pytest.fixture(scope="module")
def rqfs():
    return [(i.name, i.obj) for i in corpus_rqfs()]


@pytest.fixture(scope="module")
def monoids():
    return [(i.name, i.obj) for i in corpus_crms()]


def test_cached_values_equal_fresh_builds_on_corpus_rqfs(rqfs):
    for name, q in rqfs:
        for _ in range(2):  # the build, then the cached value
            assert join_irreducibles(q) == order._irreducibles(q.leq), name
            assert partial_isometries(q) == quantale._partial_isometries(q), name
            fc = c_object(q)
            fresh = functors._filter_category(q)
            assert_same_category(fc, fresh)
            assert_same_skeleton(q, join_irreducibles(q))
        assert c_object(q) is fc
        assert set(q._cache) == QUANTALE_KEYS, name


def test_cached_values_equal_fresh_builds_on_corpus_crms(monoids):
    for name, s in monoids:
        for _ in range(2):
            assert join_primes(s) == crm._join_primes(s), name
            fresh = np.where(crm._compatibility_matrix(s), crm._partial_join_table(s), -1)
            assert np.array_equal(_compatible_join_table(s), fresh), name
            sf = s_filters(s)
            assert_same_category(sf, s_filters(dataclasses.replace(s)))
            assert_same_skeleton(s, join_primes(s))
        assert s_filters(s) is sf
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
                bis = bisection_monoid(c)
                assert_same_bisections(bis, crm._bisection_monoid(c))
            assert omega_object(c) is om and bisection_monoid(c) is bis
            assert set(c._cache) == CATEGORY_KEYS, inst.name


def test_bounds_are_checked_on_every_call():
    q = omega_object(pair_groupoid(2)).rqf
    s, _ = pi_restriction_monoid(q)
    assert c_object(q).topcat.topology.open_count() == 16
    with pytest.raises(BoundExceeded):
        c_object(q, max_opens=15)
    with pytest.raises(BoundExceeded):
        s_filters(s, max_opens=15)
    assert c_object(q, max_opens=16) is c_object(q)
    assert s_filters(s, max_opens=16) is s_filters(s)
    for inst in etale_categories():
        tc, count = inst.obj, inst.obj.topology.open_count()
        built = omega_object(tc), bisection_monoid(tc)
        for build in (omega_object, bisection_monoid):
            with pytest.raises(BoundExceeded):
                build(tc, max_elements=count - 1)
        assert (omega_object(tc, max_elements=count), bisection_monoid(tc, max_elements=count)) \
            == built, inst.name


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
    for build, alg in ((join_irreducibles, q), (partial_isometries, q), (join_primes, s)):
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
    for derived in (om, bis):
        with pytest.raises(dataclasses.FrozenInstanceError):
            derived.members = ()
    with pytest.raises(TypeError):
        om.index[0] = 1
    tables = [om.members, bis.members, bis.joins]
    tables += [getattr(q, t) for t in QUANTALE_TABLES[:6]]
    tables += [getattr(bis.crm, t) for t in MONOID_TABLES[:5]]
    for cat in (tc.cat, cat_of_ehresmann(q).cat):
        tables += [cat.d, cat.r, cat.comp]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0
    assert_same_category(c_object(q), functors._filter_category(q))
    assert_same_category(s_filters(s), s_filters(dataclasses.replace(s)))
    assert_same_omega(omega_object(tc), fresh_omega(tc))
    assert_same_bisections(bisection_monoid(tc), crm._bisection_monoid(tc))


def test_replace_starts_with_an_empty_cache():
    tc = pair_groupoid(2)
    q = omega_object(pair_groupoid(2)).rqf
    s, _ = pi_restriction_monoid(q)
    verify_adjunction_I(tc, q)
    verify_adjunction_II(tc, s)
    assert set(q._cache) == QUANTALE_KEYS and set(s._cache) == MONOID_KEYS
    assert set(tc._cache) == CATEGORY_KEYS
    assert dataclasses.replace(q)._cache == {} and dataclasses.replace(s)._cache == {}
    assert dataclasses.replace(tc)._cache == {}
    # the frame of q as its own quantale: every element is a partial isometry
    n = q.n
    frame = dataclasses.replace(q, mul=q.meet, unit=q.top, star=np.arange(n),
                                plus=np.arange(n))
    assert partial_isometries(frame) == list(range(n))
    assert len(partial_isometries(q)) == 7


def test_algebras_are_freed_by_reference_counting():
    """With the cycle collector off, a category and the algebras built on
    it, whose caches are all filled, die with their last references: no
    cached value refers back to its category or algebra."""
    gc.disable()
    try:
        tc = pair_groupoid(2)
        q = omega_object(tc).rqf
        s, _ = pi_restriction_monoid(q)
        verify_adjunction_I(tc, q)
        verify_adjunction_II(tc, s)
        assert set(q._cache) == QUANTALE_KEYS and set(s._cache) == MONOID_KEYS
        assert set(tc._cache) == CATEGORY_KEYS
        refs = [weakref.ref(tc), weakref.ref(q), weakref.ref(s)]
        del tc, q, s
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
