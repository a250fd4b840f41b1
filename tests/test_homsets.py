"""The hom-set searches against their brute-force oracles, and the arrow
labelling of the pair groupoid that used to make them slow.

The oracles are the searches as they were before forced joins: every
candidate image is tried at every element.  The production searches must
return the same morphisms in the same order."""

import time

import numpy as np
import pytest

from framecat import corpus as cor
from framecat.crm import (CompleteRestrictionMonoid, enumerate_callitic_morphisms,
                          is_callitic, pi_restriction_monoid, validate_crm_morphism,
                          verify_adjunction_II)
from framecat.duality import (enumerate_rqf_morphisms, find_category_isomorphism,
                              validate_rqf_morphism, verify_adjunction_I)
from framecat.functors import omega_object
from framecat.order import _freeze
from framecat.quantale import EhresmannQuantale, partial_isometries
from framecat.reports import BoundExceeded
from map_oracles import relabel

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


# ---------------------------------------------------------------------------
# a labelling that puts the identities of the pair groupoid last

def test_adjunctions_with_identities_on_the_last_arrows(pair3):
    """Both searches visit the partial isometries by down-set size, ties in
    index order, so this labelling of Omega(P) puts the identities late;
    trying every candidate at every element took about 40 s on it."""
    ids = pair3.cat.identities()
    others = [a for a in range(pair3.n) if a not in ids]
    perm = np.empty(pair3.n, dtype=np.int64)
    perm[others + ids] = np.arange(pair3.n)
    tc = relabel(pair3, perm)
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
