"""The hom-set searches against their oracles, and the arrow labelling of
the pair groupoid that used to make them slow.

There are two oracles for each search.  The brute-force ones are the
searches as they were before forced joins: every candidate image is tried
at every element.  The element searches are morphism_search over tables
from search_tables, as the production searches were before they searched
on generators: forced joins, but an image for every partial isometry (rqf)
or every element (monoid), and each law tested only once the values it
reads are assigned.  The production searches must return the same
morphisms in the same order as both."""

import dataclasses
import time
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings

from framecat import corpus as cor
from framecat.crm import (CompleteRestrictionMonoid, _compatible_join_table,
                          _partial_join_table, enumerate_callitic_morphisms,
                          is_callitic, pi_restriction_monoid, validate_crm_morphism,
                          verify_adjunction_II)
from framecat.duality import (enumerate_rqf_morphisms, find_category_isomorphism, positions,
                              validate_rqf_morphism, verify_adjunction_I)
from framecat.functors import omega_object
from framecat.order import _freeze
from framecat.quantale import EhresmannQuantale, partial_isometries
from framecat.reports import BoundExceeded
from map_oracles import assert_searches_match_oracles, relabel, small_corpus_categories
from random_categories import small_categories

MAX_ELEMENTS = 1024


# ---------------------------------------------------------------------------
# oracles

def rqf_morphisms_oracle(q: EhresmannQuantale, r: EhresmannQuantale,
                         max_elements: int = 64) -> list[np.ndarray]:
    if q.n > max_elements or r.n > max_elements:
        raise BoundExceeded(f"morphism enumeration bounded to {max_elements} elements")
    q_pis = partial_isometries(q)
    r_pis = partial_isometries(r)
    q_rank = {p: i for i, p in enumerate(sorted(q_pis, key=lambda p: int(q.leq[:, p].sum())))}
    order = sorted(q_pis, key=lambda p: q_rank[p])
    assign: dict[int, int] = {}
    found: list[dict[int, int]] = []

    def consistent(p: int) -> bool:
        tp = assign[p]
        if p == q.bottom and tp != r.bottom:
            return False
        if p == q.unit and tp != r.unit:
            return False
        sp = int(q.star[p])
        if sp in assign and int(r.star[tp]) != assign[sp]:
            return False
        pp = int(q.plus[p])
        if pp in assign and int(r.plus[tp]) != assign[pp]:
            return False
        for o, to in assign.items():
            if q.leq[p, o] and not r.leq[tp, to]:
                return False
            if q.leq[o, p] and not r.leq[to, tp]:
                return False
            for x, y, tx, ty in ((p, o, tp, to), (o, p, to, tp)):
                m = int(q.mul[x, y])
                if m in assign and int(r.mul[tx, ty]) != assign[m]:
                    return False
                m = int(q.meet[x, y])
                if m in assign and int(r.meet[tx, ty]) != assign[m]:
                    return False
                j = int(q.join[x, y])
                if j in assign and j in q_rank and int(r.join[tx, ty]) != assign[j]:
                    return False
        return True

    def backtrack(i: int) -> None:
        if i == len(order):
            found.append(dict(assign))
            return
        p = order[i]
        for t in r_pis:
            assign[p] = t
            if consistent(p):
                backtrack(i + 1)
            del assign[p]

    backtrack(0)
    out = []
    seen = set()
    for a in found:
        theta = np.zeros(q.n, dtype=np.int64)
        for x in range(q.n):
            theta[x] = r.join_fold([a[p] for p in q_pis if q.leq[p, x]])
        key = theta.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if validate_rqf_morphism(theta, q, r).ok:
            out.append(_freeze(theta))
    return out


def callitic_morphisms_oracle(s: CompleteRestrictionMonoid,
                              t: CompleteRestrictionMonoid,
                              max_elements: int = 64) -> list[np.ndarray]:
    if s.n > max_elements or t.n > max_elements:
        raise BoundExceeded(f"callitic enumeration bounded to {max_elements} elements")
    order = sorted(range(s.n), key=lambda a: int(s.leq[:, a].sum()))
    assign: dict[int, int] = {}
    found: list[np.ndarray] = []

    def consistent(a: int) -> bool:
        ta = assign[a]
        if a == s.zero and ta != t.zero:
            return False
        if a == s.unit and ta != t.unit:
            return False
        if int(s.star[a]) in assign and int(t.star[ta]) != assign[int(s.star[a])]:
            return False
        if int(s.plus[a]) in assign and int(t.plus[ta]) != assign[int(s.plus[a])]:
            return False
        for o, to in assign.items():
            if s.leq[a, o] and not t.leq[ta, to]:
                return False
            if s.leq[o, a] and not t.leq[to, ta]:
                return False
            for x, y, tx, ty in ((a, o, ta, to), (o, a, to, ta)):
                m = int(s.mul[x, y])
                if m in assign and int(t.mul[tx, ty]) != assign[m]:
                    return False
                m = int(s.meet[x, y])
                if m in assign and int(t.meet[tx, ty]) != assign[m]:
                    return False
        return True

    def backtrack(i: int) -> None:
        if i == s.n:
            found.append(np.array([assign[a] for a in range(s.n)], dtype=np.int64))
            return
        a = order[i]
        for v in range(t.n):
            assign[a] = v
            if consistent(a):
                backtrack(i + 1)
            del assign[a]

    backtrack(0)
    out = []
    for theta in found:
        if not validate_crm_morphism(theta, s, t).ok:
            continue
        ok, _ = is_callitic(theta, s, t)
        if ok:
            out.append(_freeze(theta))
    return out


# ---------------------------------------------------------------------------
# the element searches: morphism_search over search_tables

class SearchTables(NamedTuple):
    """A restriction monoid on the positions of a domain, as Python lists
    for morphism_search; -1 stands for a value outside the domain."""
    leq: list
    mul: list
    meet: list
    join: list
    star: list
    plus: list
    zero: int
    unit: int
    order: list  # the positions by down-set size, ties in position order


def search_tables(alg, domain: list[int], zero: int, joins: np.ndarray) -> SearchTables:
    """The operations of alg (a quantale or a restriction monoid) on the
    elements in domain, renamed to their positions; `joins` is the join
    table to search with, -1 where a join is not to be used."""
    pos = positions(alg.n, domain)
    block = np.ix_(domain, domain)
    return SearchTables(
        leq=alg.leq[block].tolist(), mul=pos[alg.mul[block]].tolist(),
        meet=pos[alg.meet[block]].tolist(), join=pos[joins[block]].tolist(),
        star=pos[alg.star[domain]].tolist(), plus=pos[alg.plus[domain]].tolist(),
        zero=int(pos[zero]), unit=int(pos[alg.unit]),
        order=np.argsort(alg.leq[:, domain].sum(axis=0), kind="stable").tolist())


def morphism_search(s: SearchTables, t: SearchTables) -> list[list[int]]:
    """Every map from the positions of s to those of t that preserves zero,
    unit, star, plus, the order, mul, meet and join wherever they stay in
    the domains, as image lists in depth-first order.

    The positions of s are visited in s.order, so everything strictly below
    an element is assigned before it.  Each position of t is a candidate
    image, pruned against the elements assigned so far.

    Forced joins: where p = x v y for x, y visited before p, the image of p
    must be the join of their images in t, the only candidate tried, and
    none is tried when that join is -1.  The candidate lists are sub-lists
    of the full ones, so the maps come out in the order of a search that
    tries every candidate."""
    s_leq, s_mul, s_meet, s_join, s_star, s_plus, s_zero, s_unit, order = s
    t_leq, t_mul, t_meet, t_join, t_star, t_plus, t_zero, t_unit, t_order = t
    rank = {p: i for i, p in enumerate(order)}
    forced: list[Optional[tuple[int, int]]] = [None] * len(order)
    for x in range(len(order)):
        for y in range(x, len(order)):
            j = s_join[x][y]
            if j >= 0 and forced[j] is None and rank[x] < rank[j] and rank[y] < rank[j]:
                forced[j] = (x, y)
    every_image = range(len(t_order))
    assign = [-1] * len(order)
    found: list[list[int]] = []

    def consistent(i: int) -> bool:
        p = order[i]
        tp = assign[p]
        if p == s_zero and tp != t_zero:
            return False
        if p == s_unit and tp != t_unit:
            return False
        sp = s_star[p]
        if sp >= 0 and assign[sp] >= 0 and t_star[tp] != assign[sp]:
            return False
        pp = s_plus[p]
        if pp >= 0 and assign[pp] >= 0 and t_plus[tp] != assign[pp]:
            return False
        for o in order[:i + 1]:
            to = assign[o]
            if s_leq[p][o] and not t_leq[tp][to]:
                return False
            if s_leq[o][p] and not t_leq[to][tp]:
                return False
            for x, y, tx, ty in ((p, o, tp, to), (o, p, to, tp)):
                m = s_mul[x][y]
                if m >= 0 and assign[m] >= 0 and t_mul[tx][ty] != assign[m]:
                    return False
                m = s_meet[x][y]
                if m >= 0 and assign[m] >= 0 and t_meet[tx][ty] != assign[m]:
                    return False
                j = s_join[x][y]
                if j >= 0 and assign[j] >= 0 and t_join[tx][ty] != assign[j]:
                    return False
        return True

    def backtrack(i: int) -> None:
        if i == len(order):
            found.append(list(assign))
            return
        p = order[i]
        candidates = every_image
        if forced[p] is not None:
            x, y = forced[p]
            v = t_join[assign[x]][assign[y]]
            candidates = (v,) if v >= 0 else ()
        for v in candidates:
            assign[p] = v
            if consistent(i):
                backtrack(i + 1)
        assign[p] = -1

    backtrack(0)
    return found



def rqf_morphisms_by_element_search(q: EhresmannQuantale, r: EhresmannQuantale,
                                    max_elements: int = 64) -> list[np.ndarray]:
    """morphism_search over the PIs of q and r, with the frame joins, then
    extension by joins and validate_rqf_morphism."""
    if q.n > max_elements or r.n > max_elements:
        raise BoundExceeded(f"morphism enumeration bounded to {max_elements} elements")
    q_pis = partial_isometries(q)
    r_pis = partial_isometries(r)
    found = morphism_search(search_tables(q, q_pis, q.bottom, q.join),
                            search_tables(r, r_pis, r.bottom, r.join))
    above = q.leq[q_pis, :]  # above[i, e]: the i-th PI is below e
    out = []
    seen = set()
    for images in found:
        theta = np.full(q.n, r.bottom, dtype=np.int64)
        for i, t in enumerate(images):
            theta = np.where(above[i], r.join[theta, r_pis[t]], theta)
        key = theta.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if validate_rqf_morphism(theta, q, r).ok:
            out.append(_freeze(theta))
    return out


def callitic_morphisms_by_element_search(s: CompleteRestrictionMonoid,
                                         t: CompleteRestrictionMonoid,
                                         max_elements: int = 64) -> list[np.ndarray]:
    """morphism_search over all elements, with the compatible joins of s and
    the partial joins of t, then validate_crm_morphism and is_callitic."""
    if s.n > max_elements or t.n > max_elements:
        raise BoundExceeded(f"callitic enumeration bounded to {max_elements} elements")
    s_joins, t_joins = _compatible_join_table(s), _partial_join_table(t)
    found = morphism_search(search_tables(s, list(range(s.n)), s.zero, s_joins),
                            search_tables(t, list(range(t.n)), t.zero, t_joins))
    thetas = (np.array(images, dtype=np.int64) for images in found)
    return [_freeze(theta) for theta in thetas
            if validate_crm_morphism(theta, s, t).ok
            and is_callitic(theta, s, t)[0]]


# ---------------------------------------------------------------------------
# the searches against the oracles

SMALL = [c for c in cor.etale_categories() if c.obj.n <= 6]


@pytest.fixture(scope="module")
def algebras():
    """Omega(C) and PI(Omega(C)) of every small corpus category C."""
    out = {}
    for c in SMALL:
        q = omega_object(c.obj).rqf
        out[c.name] = q, pi_restriction_monoid(q)[0]
    return out


def assert_same_lists(got, expected):
    assert [m.tolist() for m in got] == [m.tolist() for m in expected]


@pytest.mark.parametrize("name", [c.name for c in SMALL])
def test_rqf_search_matches_oracle_on_small_pairs(algebras, name):
    """Q = Omega(C2) against Omega(C1), for C2 = name and every small C1:
    the morphism hom-set of adjunction I for the pair (C1, Q)."""
    q = algebras[name][0]
    for other in SMALL:
        r = algebras[other.name][0]
        assert_same_lists(enumerate_rqf_morphisms(q, r, MAX_ELEMENTS),
                          rqf_morphisms_oracle(q, r, MAX_ELEMENTS))


@pytest.mark.parametrize("name", [c.name for c in SMALL])
def test_callitic_search_matches_oracle_on_small_pairs(algebras, name):
    """S = PI(Omega(C2)) against PI(Omega(C1)), for C2 = name and every
    small C1: the morphism hom-set of adjunction II for the pair (C1, S)."""
    s = algebras[name][1]
    for other in SMALL:
        t = algebras[other.name][1]
        assert_same_lists(enumerate_callitic_morphisms(s, t, MAX_ELEMENTS),
                          callitic_morphisms_oracle(s, t, MAX_ELEMENTS))


def test_callitic_search_matches_oracle_on_pi_omega_pair3(omega_pair3):
    s, _ = pi_restriction_monoid(omega_pair3.rqf)
    got = enumerate_callitic_morphisms(s, s)
    assert len(got) == 6  # the automorphisms of the pair groupoid on 3 points
    assert_same_lists(got, callitic_morphisms_oracle(s, s))


def test_second_search_on_an_algebra_returns_the_same_homsets(algebras):
    """generator_search caches the laws it compiles on its source
    (law_skeleton) and the tables it reads on its target (search_target): a
    first and a second search against each target return what a search on
    a copy with an empty cache returns."""
    for q, s in algebras.values():
        for r, t in algebras.values():
            fresh = (enumerate_rqf_morphisms(dataclasses.replace(q), dataclasses.replace(r),
                                             MAX_ELEMENTS),
                     enumerate_callitic_morphisms(dataclasses.replace(s), dataclasses.replace(t),
                                                  MAX_ELEMENTS))
            for _ in range(2):
                assert_same_lists(enumerate_rqf_morphisms(q, r, MAX_ELEMENTS), fresh[0])
                assert_same_lists(enumerate_callitic_morphisms(s, t, MAX_ELEMENTS), fresh[1])


# ---------------------------------------------------------------------------
# the generator searches against the element searches

def assert_searches_match_element_search(q, r, s, t):
    """The rqf hom-set q -> r and the callitic hom-set s -> t."""
    assert_same_lists(enumerate_rqf_morphisms(q, r, MAX_ELEMENTS),
                      rqf_morphisms_by_element_search(q, r, MAX_ELEMENTS))
    assert_same_lists(enumerate_callitic_morphisms(s, t, MAX_ELEMENTS),
                      callitic_morphisms_by_element_search(s, t, MAX_ELEMENTS))


@pytest.mark.parametrize("name", [c.name for c in SMALL])
def test_searches_match_element_search_on_small_pairs(algebras, name):
    """Omega(C2) and PI(Omega(C2)) against those of every small C1, for
    C2 = name: the morphism hom-sets of the homsets benchmark."""
    q, s = algebras[name]
    for other in SMALL:
        assert_searches_match_element_search(q, algebras[other.name][0], s,
                                             algebras[other.name][1])


def test_searches_match_element_search_on_pair3(pair3, omega_pair3):
    """Omega(pair3) (n = 512) and PI(Omega(pair3)) (n = 34) against
    themselves and against those of a relabelled pair3."""
    q = omega_pair3.rqf
    s, _ = pi_restriction_monoid(q)
    r = omega_object(relabel(pair3, np.random.default_rng(2).permutation(pair3.n))).rqf
    t, _ = pi_restriction_monoid(r)
    assert len(enumerate_rqf_morphisms(q, r, MAX_ELEMENTS)) == 6
    assert len(enumerate_callitic_morphisms(s, t, MAX_ELEMENTS)) == 6
    assert_searches_match_element_search(q, q, s, s)
    assert_searches_match_element_search(q, r, s, t)


@settings(max_examples=60, deadline=None)
@given(small_categories(), small_categories())
def test_searches_match_element_search_on_random_categories(tc1, tc2):
    """Omega(C2) and PI(Omega(C2)) against those of C1 and of C2 itself."""
    q = omega_object(tc2).rqf
    s, _ = pi_restriction_monoid(q)
    r = omega_object(tc1).rqf
    assert_searches_match_element_search(q, r, s, pi_restriction_monoid(r)[0])
    assert_searches_match_element_search(q, q, s, s)


# ---------------------------------------------------------------------------
# the searches against the searches they were before they drew each image
# from its hom (map_oracles.assert_searches_match_oracles): the same maps in
# the same order, for both adjunction checks of a category against an rqf
# and a monoid

@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_searches_match_unpruned_searches_on_small_corpus_pairs(name2, tc2):
    """Every small C1 against Omega(C2) and PI(Omega(C2)): the 100 small
    pairs of the homsets benchmark."""
    q = omega_object(tc2).rqf
    s, _ = pi_restriction_monoid(q)
    for name1, tc1 in small_corpus_categories():
        assert_searches_match_oracles(tc1, q, s)


def test_searches_match_unpruned_searches_on_relabelled_pair3(pair3, omega_pair3):
    """pair3 under six seeded relabellings, and with its identities last,
    against Omega(pair3) and PI(Omega(pair3)): six maps in every hom-set."""
    q = omega_pair3.rqf
    s, _ = pi_restriction_monoid(q)
    relabelled = [relabel(pair3, np.random.default_rng(seed).permutation(pair3.n))
                  for seed in range(1, 7)]
    for tc in relabelled + [identities_last(pair3)]:
        got = assert_searches_match_oracles(tc, q, s)
        assert {key: len(homset) for key, homset in got.items()} == \
            {"functors-I": 6, "functors-II": 6, "rqf": 6, "callitic": 6}


@settings(max_examples=30, deadline=None)
@given(small_categories(), small_categories())
def test_searches_match_unpruned_searches_on_random_categories(tc1, tc2):
    """C1 against Omega(C2) and PI(Omega(C2)), and against its own."""
    for target in (tc2, tc1):
        q = omega_object(target).rqf
        assert_searches_match_oracles(tc1, q, pi_restriction_monoid(q)[0])


# ---------------------------------------------------------------------------
# a labelling that puts the identities of the pair groupoid last

def identities_last(pair3):
    ids = pair3.cat.identities()
    others = [a for a in range(pair3.n) if a not in ids]
    perm = np.empty(pair3.n, dtype=np.int64)
    perm[others + ids] = np.arange(pair3.n)
    return relabel(pair3, perm)


def test_searches_match_element_search_with_identities_last(pair3, omega_pair3):
    """Omega and PI(Omega) of the labelling below, against themselves and
    against those of pair3."""
    q = omega_object(identities_last(pair3)).rqf
    s, _ = pi_restriction_monoid(q)
    assert_searches_match_element_search(q, q, s, s)
    r = omega_pair3.rqf
    assert_searches_match_element_search(q, r, s, pi_restriction_monoid(r)[0])


def test_adjunctions_with_identities_on_the_last_arrows(pair3):
    """Both searches visit the partial isometries by down-set size, ties in
    index order, so this labelling of Omega(P) puts the identities late;
    trying every candidate at every element took about 40 s on it."""
    tc = identities_last(pair3)
    assert tc.cat.identities() == [6, 7, 8]
    assert find_category_isomorphism(pair3.cat, tc.cat) is not None

    t0 = time.perf_counter()
    q = omega_object(tc).rqf
    s, _ = pi_restriction_monoid(q)
    one = verify_adjunction_I(tc, q, max_elements=MAX_ELEMENTS)
    two = verify_adjunction_II(tc, s, max_elements=MAX_ELEMENTS)
    seconds = time.perf_counter() - t0
    assert (one.ok, *one.sizes) == (True, 6, 6)
    assert (two.ok, *two.sizes) == (True, 6, 6)
    assert seconds < 20, f"{seconds:.1f} s"
