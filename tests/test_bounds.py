"""The one bound contract of the builders of bounded objects: omega_object,
bisection_monoid, c_object, s_filters and l_vee each take max_elements,
default MAX_TABLE_SIDE, and count what they list against it on every call;
both adjunction checks pass max_elements to them, with the same default.
At bound = count the build passes; at count - 1 it is refused with a
message that names max_elements, on a fresh object before any table is
built (c_object alone counts once built), and on a cached one.  The
listings that count as they grow stop at the first count past the bound.
The arrow searches and both adjunction checks take max_arrows, default
MAX_ARROWS, and refuse through the same helper with a message that names
max_arrows; the adjunction checks refuse the arrows of C, and adjunction
II those of C(S), before they build anything.  Adjunction II builds the
S-filters under its arrow bound.  The naturality checks take both bounds,
with the same defaults, and the suite's naturality check passes those of
its instance."""

import dataclasses

import pytest

from framecat import crm, functors
from framecat.corpus import corpus_crms, corpus_rqfs, etale_categories, monoid_category
from framecat.crm import bisection_monoid, pi_restriction_monoid, verify_adjunction_II
from framecat.corpus import pair_groupoid
from framecat.duality import (check_naturality_in_category, check_naturality_in_quantale,
                              enumerate_covering_functors, find_category_isomorphism,
                              verify_adjunction_I)
from framecat.functors import omega_morphism, omega_object
from framecat.reports import MAX_ARROWS, MAX_TABLE_SIDE, BoundExceeded
from framecat.suite import Instance, adjunction_naturality


def open_count(fc) -> int:
    return fc.topcat.topology.open_count()


# each builder, the objects it builds from, what its bound counts on a
# result, and the module and names of the table builders that a refusal on
# a fresh object must not reach (none where the count is taken once built)
BUILDERS = (
    (functors.omega_object, "categories", lambda om: om.n,
     (functors, ("_omega_discrete", "_omega_generic"))),
    (crm.bisection_monoid, "categories", lambda bis: bis.crm.n, (crm, ("arrow_set_tables",))),
    (functors.c_object, "rqfs", open_count, (functors, ())),
    (crm.s_filters, "crms", open_count, (crm, ("filter_category",))),
    (crm.l_vee, "crms", lambda lv: lv.rqf.n, (crm, ("family_tables",))),
)


def corpus_objects() -> dict:
    crms = {f"pi-{i.name}": pi_restriction_monoid(i.obj)[0] for i in corpus_rqfs()}
    crms.update((i.name, i.obj) for i in corpus_crms())
    return {"categories": [(i.name, i.obj) for i in etale_categories()],
            "rqfs": [(i.name, i.obj) for i in corpus_rqfs()],
            "crms": list(crms.items())}


def contract_cases() -> list:
    objects = corpus_objects()
    return [pytest.param(build, size, tables, obj, id=f"{build.__name__}-{name}")
            for build, kind, size, tables in BUILDERS for name, obj in objects[kind]]


def zk(k: int):
    """The cyclic group Z_k as a one-object discrete category."""
    return monoid_category([[(a + b) % k for b in range(k)] for a in range(k)])


@pytest.mark.parametrize("build,size,tables,obj", contract_cases())
def test_every_builder_refuses_one_past_its_count_on_fresh_and_cached_objects(
        build, size, tables, obj, monkeypatch):
    count = size(build(dataclasses.replace(obj)))
    refused = f" > max_elements={count - 1}$"
    fresh = dataclasses.replace(obj)

    def no_tables(*args):
        raise AssertionError("tables built past the bound")

    module, names = tables
    with monkeypatch.context() as m:
        for name in names:
            m.setattr(module, name, no_tables)
        with pytest.raises(BoundExceeded, match=refused):
            build(fresh, count - 1)
    for _ in range(2):  # the first may build and cache, the second reads the cache
        assert size(build(fresh, count)) == count
        with pytest.raises(BoundExceeded, match=refused):
            build(fresh, count - 1)
    assert size(build(fresh)) == count  # the default, MAX_TABLE_SIDE, admits every corpus object
    assert build.__defaults__ == (MAX_TABLE_SIDE,)


@pytest.mark.parametrize("check", [verify_adjunction_I, verify_adjunction_II])
def test_adjunction_checks_default_to_the_builders_bound(check):
    """Both adjunction checks pass max_elements on to the builders, with
    their default: (max_arrows, max_elements) = (MAX_ARROWS, MAX_TABLE_SIDE)."""
    assert check.__defaults__ == (MAX_ARROWS, MAX_TABLE_SIDE)


@pytest.mark.parametrize("check", [check_naturality_in_category, check_naturality_in_quantale])
def test_naturality_checks_default_to_the_builders_bound(check):
    assert check.__defaults__ == (MAX_ARROWS, MAX_TABLE_SIDE)


def test_naturality_refuses_what_adjunction_I_refuses():
    """C(Omega(pair2)) has 4 arrows and Omega(pair2) 16 opens: the suite's
    naturality check refuses the first past the max_arrows of its instance
    as verify_adjunction_I does, and both naturality checks refuse the
    second past max_elements."""
    tc = pair_groupoid(2)
    om = omega_object(tc)
    q = om.rqf
    with pytest.raises(BoundExceeded, match="^C has 4 arrows > max_arrows=3$"):
        verify_adjunction_I(tc, q, max_arrows=3)
    with pytest.raises(BoundExceeded, match="^C has 4 arrows > max_arrows=3$"):
        adjunction_naturality(Instance(tc=tc, max_arrows=3))
    assert adjunction_naturality(Instance(tc=tc, max_arrows=4)) == (True, None, "")
    swap = [3, 2, 1, 0]
    psi = omega_morphism(swap, om, om)
    for check, args in ((check_naturality_in_category, (swap, tc, tc, q)),
                        (check_naturality_in_quantale, (psi, q, q, tc))):
        with pytest.raises(BoundExceeded, match="> max_elements=15$"):
            check(*args, max_elements=15)
        with pytest.raises(BoundExceeded, match="^C has 4 arrows > max_arrows=3$"):
            check(*args, max_arrows=3)
        assert check(*args, 4, 16) == (True, None)


@pytest.mark.parametrize("search", [enumerate_covering_functors, find_category_isomorphism])
def test_arrow_searches_default_to_the_arrow_limit(search):
    assert search.__defaults__ == (MAX_ARROWS,)


def test_arrows_of_c_are_refused_before_anything_is_built():
    """pair4 has 16 arrows: under max_arrows=12 both adjunction checks
    refuse it before they build Omega(pair4), its 2^16 opens past
    MAX_TABLE_SIDE, or its bisection monoid, and leave its cache empty;
    the functor and isomorphism searches refuse it with the same text."""
    refused = "^C has 16 arrows > max_arrows=12$"
    tc = pair_groupoid(4)
    rqf = omega_object(pair_groupoid(2)).rqf
    s = pi_restriction_monoid(rqf)[0]
    with pytest.raises(BoundExceeded, match=refused):
        verify_adjunction_I(tc, rqf, max_arrows=12, max_elements=MAX_TABLE_SIDE)
    with pytest.raises(BoundExceeded, match=refused):
        verify_adjunction_II(tc, s, max_arrows=12)
    assert tc._cache == {}
    with pytest.raises(BoundExceeded, match=refused):
        enumerate_covering_functors(tc, pair_groupoid(2), max_arrows=12)
    with pytest.raises(BoundExceeded, match=refused):
        find_category_isomorphism(tc.cat, pair_groupoid(4).cat, max_arrows=12)
    with pytest.raises(BoundExceeded, match="^D has 16 arrows > max_arrows=12$"):
        enumerate_covering_functors(pair_groupoid(2), tc, max_arrows=12)


def test_down_sets_stop_at_the_first_count_past_the_bound(monkeypatch):
    """The twelve join-primes of the bisection monoid of Z_12, an
    antichain, have 4096 down-sets: under a bound of 100 the S-filters and
    L^vee(S) each stop listing them at 128."""
    counts = []
    real = crm.require_at_most
    monkeypatch.setattr(crm, "require_at_most",
                        lambda count, bound, what: counts.append(count) or real(count, bound, what))
    s = bisection_monoid(zk(12), 13).crm
    for build, what in ((crm.s_filters, "C\\(S\\) has at least 128 opens"),
                        (crm.l_vee, "L\\^vee\\(S\\) has at least 128 ideals")):
        counts.clear()
        with pytest.raises(BoundExceeded, match=f"^{what} > max_elements=100$"):
            build(s, 100)
        assert counts == [2 ** k for k in range(8)]


def test_adjunction_II_builds_s_filters_under_the_arrow_bound():
    """C(S) of the bisection monoid of Z_13 has 13 arrows and 8192 opens,
    past MAX_TABLE_SIDE, and max_arrows=13 admits it."""
    tc = zk(13)
    s = bisection_monoid(tc, 64).crm
    adj = verify_adjunction_II(tc, s, max_arrows=13, max_elements=64)
    assert adj.ok and adj.sizes == (12, 12)
    assert open_count(crm.s_filters(s, 8192)) == 8192


def test_adjunction_II_refuses_the_arrows_of_c_s_before_it_builds_s_filters():
    """The bisection monoid of Z_20 has 21 elements, and C(S) 20 arrows and
    2^20 opens: max_arrows=12 refuses it, against the one arrow of Z_1,
    with none of them listed."""
    s = bisection_monoid(zk(20), 64).crm
    assert s.n == 21
    with pytest.raises(BoundExceeded, match="^C\\(S\\) has 20 arrows > max_arrows=12$"):
        verify_adjunction_II(zk(1), s, max_arrows=12)
    assert "s_filters" not in s._cache
