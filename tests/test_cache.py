"""The data built once per algebra and cached on it (order.cached): J, PI
and C(Q) of a quantale; J(S), the compatible-join table and the S-filter
category of a complete restriction monoid; and the laws that
duality.generator_search compiles on the generators of either.  Cached values equal fresh
builds, cannot be changed through what a call returns, start empty on a
dataclasses.replace copy, and hold no reference back to their algebra."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from framecat import crm, duality, functors, order, quantale
from framecat.corpus import corpus_crms, corpus_rqfs, pair_groupoid
from framecat.crm import (_compatible_join_table, join_primes, pi_restriction_monoid,
                          s_filters, verify_adjunction_II)
from framecat.duality import verify_adjunction_I
from framecat.functors import c_object, omega_object
from framecat.order import join_irreducibles
from framecat.quantale import partial_isometries
from framecat.reports import BoundExceeded

QUANTALE_KEYS = {"join_irreducibles", "partial_isometries", "c_object", "law_skeleton"}
MONOID_KEYS = {"join_primes", "compatible_joins", "s_filters", "law_skeleton"}


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


def test_returned_values_cannot_change_a_later_call():
    q = omega_object(pair_groupoid(2)).rqf
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
    assert_same_category(c_object(q), functors._filter_category(q))
    assert_same_category(s_filters(s), s_filters(dataclasses.replace(s)))


def test_replace_starts_with_an_empty_cache():
    q = omega_object(pair_groupoid(2)).rqf
    s, _ = pi_restriction_monoid(q)
    verify_adjunction_I(pair_groupoid(2), q)
    verify_adjunction_II(pair_groupoid(2), s)
    assert set(q._cache) == QUANTALE_KEYS and set(s._cache) == MONOID_KEYS
    assert dataclasses.replace(q)._cache == {} and dataclasses.replace(s)._cache == {}
    # the frame of q as its own quantale: every element is a partial isometry
    n = q.n
    frame = dataclasses.replace(q, mul=q.meet, unit=q.top, star=np.arange(n),
                                plus=np.arange(n))
    assert partial_isometries(frame) == list(range(n))
    assert len(partial_isometries(q)) == 7


def test_algebras_are_freed_by_reference_counting():
    """With the cycle collector off, an algebra whose caches are all filled
    dies with its last reference: no cached value refers back to it."""
    tc = pair_groupoid(2)
    gc.disable()
    try:
        q = omega_object(tc).rqf
        s, _ = pi_restriction_monoid(q)
        verify_adjunction_I(tc, q)
        verify_adjunction_II(tc, s)
        assert set(q._cache) == QUANTALE_KEYS and set(s._cache) == MONOID_KEYS
        refs = [weakref.ref(q), weakref.ref(s)]
        del q, s
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
