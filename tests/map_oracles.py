"""Shared by the oracle tests of the maps built on bit matrices (the
transposes of both adjunctions, omega_morphism and c_morphism): each is
compared with the element-by-element body it had before, on hom-set members
and their one-value perturbations.  Also the rqf hom-set search's decision
on join-irreducibles against validate_rqf_morphism, the arrow relabelling
of a category that the hom-set tests search under, and the maps the
arrow-map search yields to the covering functor search."""

from unittest import mock

import numpy as np

from framecat import duality
from framecat.bits import iter_bits, mask_of
from framecat.corpus import etale_categories
from framecat.order import join_irreducibles
from framecat.quantale import partial_isometries
from framecat.topcat import UNDEF, FiniteTopCategory, Topology, make_category


def map_outcome(construction, m, *args):
    """What construction(m, *args) gives: the image as a list, None, or the
    type of the exception raised, with the text of a ValueError."""
    try:
        image = construction(m, *args)
    except ValueError as e:
        return ("ValueError", str(e))
    except IndexError:
        return ("IndexError",)
    return None if image is None else image.tolist()


def one_value_perturbations(m, size: int, positions=None):
    """m with the value at one position moved to the next value mod size,
    for each position (of `positions`, when given)."""
    for i in range(len(m)) if positions is None else positions:
        bad = np.array(m, dtype=np.int64)
        bad[i] = (bad[i] + 1) % size
        yield bad


def assert_transposes_match_oracles(forward, forward_oracles, backward, backward_oracles,
                                    functors, morphisms, functor_size, morphism_size):
    """The transposes and each of their oracles take the map alone;
    functor_size and morphism_size are the sizes of the codomains the maps
    take values in."""
    for alpha in functors:
        for m in (alpha, *one_value_perturbations(alpha, functor_size)):
            for oracle in forward_oracles:
                assert map_outcome(forward, m) == map_outcome(oracle, m), m.tolist()
    for beta in morphisms:
        for m in (beta, *one_value_perturbations(beta, morphism_size)):
            for oracle in backward_oracles:
                assert map_outcome(backward, m) == map_outcome(oracle, m), m.tolist()


def relabel(tc: FiniteTopCategory, perm) -> FiniteTopCategory:
    """The same topological category with arrow a renamed perm[a]."""
    c = tc.cat
    new = np.asarray(perm, dtype=np.int64)
    old = np.argsort(new)  # old[b] is the arrow renamed b
    comp = c.comp[np.ix_(old, old)]
    comp = np.where(comp == UNDEF, UNDEF, new[np.maximum(comp, 0)])
    opens = tc.topology.opens
    if opens is not None:
        opens = frozenset(mask_of(int(new[a]) for a in iter_bits(m)) for m in opens)
    cat = make_category(c.n, [int(new[a]) for a in c.identities()],
                        new[c.d[old]], new[c.r[old]], comp_table=comp)
    return FiniteTopCategory(cat, Topology(c.n, opens))


def small_corpus_categories():
    return [(i.name, i.obj) for i in etale_categories() if i.obj.n <= 6]


def j_decision(q, r):
    """theta -> the rqf hom-set search's decision on J(q)
    (duality._is_rqf_morphism_on_j), with J(q), PI(q) and PI(r) computed
    once."""
    q_js, q_pis = join_irreducibles(q), partial_isometries(q)
    r_is_pi = np.zeros(r.n, dtype=bool)
    r_is_pi[partial_isometries(r)] = True
    return lambda theta: duality._is_rqf_morphism_on_j(
        np.asarray(theta, dtype=np.int64), q, r, q_js, q_pis, r_is_pi)


def assert_j_decisions_match_scan(maps, q, r):
    """The decision on J(q) of each map is validate_rqf_morphism's verdict,
    which checks every law on all elements and pairs."""
    decide = j_decision(q, r)
    for theta in maps:
        assert decide(theta) == duality.validate_rqf_morphism(theta, q, r).ok, \
            np.asarray(theta).tolist()


def searched_rqf_morphisms(q, r, max_elements: int = 1024):
    """The hom-set enumerate_rqf_morphisms(q, r) finds, and the argument
    tuples of every decision on J it made on the way."""
    with mock.patch.object(duality, "_is_rqf_morphism_on_j",
                           wraps=duality._is_rqf_morphism_on_j) as spy:
        homset = duality.enumerate_rqf_morphisms(q, r, max_elements)
    return homset, [c.args for c in spy.call_args_list]


def searched_arrow_maps(src, dst):
    """The hom-set enumerate_covering_functors(src, dst) finds, and every
    map arrow_maps yielded to it on the way."""
    search, yielded = duality.arrow_maps, []

    def spy(*args, **kwargs):
        for f in search(*args, **kwargs):
            yielded.append(list(f))
            yield f

    with mock.patch.object(duality, "arrow_maps", spy):
        homset = duality.enumerate_covering_functors(src, dst)
    return homset, yielded
