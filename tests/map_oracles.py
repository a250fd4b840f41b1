"""Shared by the oracle tests of the maps built on member rows (the
transposes of both adjunctions, chi and omega, omega_morphism and
c_morphism): each is compared with the element-by-element body it had
before, on hom-set members and their one-value perturbations.  Also the
decision each hom-set search keeps against the full validators, on every
map the search gives, the relabellings of a category's arrows and of an
algebra's elements that the tests search under, the maps the arrow-map
search yields to the covering functor search, the subset walk that lists the
local bisections one arrow subset at a time (the oracle of
topcat.bisection_rows), the category of an Ehresmann quantale, the
body of topcat.validate_covering_functor on NumPy arrays, the union
closure of a base (the oracle of the topology of C(Q)), the bodies of
crm.validate_crm and quantale.validate_rqf before they shared their law
scans, the least upper bound in a monoid's stored order (crm_lub), and the
small readings of a topology, a quantale and a lattice that only tests
use."""

from functools import reduce
from typing import Optional
from unittest import mock

import numpy as np

from framecat import crm, duality
from framecat.bits import has_bit, iter_bits, mask_of, row_masks
from framecat.corpus import etale_categories
from framecat.crm import make_crm
from framecat.order import FiniteLattice, FinitePoset, validate_poset
from framecat.quantale import make_eq, partial_isometries, validate_ehresmann
from framecat.reports import Report
from framecat.functors import c_object, omega_object
from framecat.topcat import (UNDEF, FiniteCategory, FiniteTopCategory, Topology,
                             continuity_check, make_category, validate_covering_functor)


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


def relabel_rqf(q, perm):
    """The same restriction quantal frame with element a renamed perm[a]."""
    new = np.asarray(perm, dtype=np.int64)
    old = np.argsort(new)  # old[b] is the element renamed b
    block = np.ix_(old, old)
    lattice = FiniteLattice(q.n, q.leq[block], new[q.meet[block]], new[q.join[block]],
                            int(new[q.bottom]), int(new[q.top]))
    return make_eq(lattice, new[q.mul[block]], int(new[q.unit]), new[q.star[old]],
                   new[q.plus[old]])


def relabel_crm(s, perm):
    """The same complete restriction monoid with element a renamed perm[a]."""
    new = np.asarray(perm, dtype=np.int64)
    old = np.argsort(new)
    block = np.ix_(old, old)
    return make_crm(s.n, s.leq[block], new[s.mul[block]], new[s.unit], new[s.zero],
                    new[s.star[old]], new[s.plus[old]], new[s.meet[block]])


def reversed_labels(n: int) -> np.ndarray:
    return np.arange(n)[::-1]


class FilterMasks:
    """The mask fields a FilterCategory held before it kept only bool member
    rows, converted from them by bits.row_masks: members[k] is filter k as
    an element bitmask, index maps such a mask to k, and x_masks[a] is X_a
    as a filter bitmask."""

    def __init__(self, fc):
        self.members = row_masks(fc.members)
        self.index = {m: k for k, m in enumerate(self.members)}
        self.x_masks = row_masks(fc.members.T)

    def filter_of(self, members: int, what: str = "set") -> int:
        k = self.index.get(members)
        if k is None:
            raise ValueError(f"{what} is not a completely prime filter")
        return k


def ideal_masks(lv):
    """The closed ideals of an IdealCompletion as element bitmasks, and the
    index of each mask (bits.row_masks of its bool member rows)."""
    ideals = row_masks(lv.members)
    return ideals, {m: i for i, m in enumerate(ideals)}


def build_omega_map_oracle(tc, om, fc):
    """The omega map and the laws its report names, with their witnesses,
    including omega^{-1}(X_U) = U, which build_omega_map holds by
    construction."""
    masks = FilterMasks(fc)
    omega = np.zeros(tc.n, dtype=np.int64)
    for x in range(tc.n):
        members = mask_of(i for i, u in enumerate(om.opens) if has_bit(u, x))
        omega[x] = masks.filter_of(members, f"O_{x}")
    rep = validate_covering_functor(omega, tc.cat, fc.topcat.cat)
    ok, wit = continuity_check(omega, tc, fc.topcat)
    if not ok:
        rep.add("omega.continuous", (wit,))
    for i in range(om.n):
        xu = masks.x_masks[i]
        pre = mask_of(x for x in range(tc.n) if has_bit(xu, int(omega[x])))
        if pre != om.opens[i]:
            rep.add("omega.preimage_of_xset", (i,))
            break
    return omega, [(v.law, v.witness) for v in rep.violations]


def small_corpus_categories():
    return [(i.name, i.obj) for i in etale_categories() if i.obj.n <= 6]


def is_local_bisection(c: FiniteCategory, mask: int) -> bool:
    """d and r are injective on the arrows of mask."""
    seen_d, seen_r = set(), set()
    for a in iter_bits(mask):
        da, ra = int(c.d[a]), int(c.r[a])
        if da in seen_d or ra in seen_r:
            return False
        seen_d.add(da)
        seen_r.add(ra)
    return True


def local_bisections(c: FiniteCategory) -> list[int]:
    """All arrow subsets on which both d and r are injective, as ascending
    masks, each of the 2^n subsets tested on its own: for small categories
    only."""
    return [m for m in range(1 << c.n) if is_local_bisection(c, m)]


def open_index(om) -> dict:
    """The index of each open of an OmegaResult om, by its arrow mask."""
    return {mask: i for i, mask in enumerate(om.opens)}


def topology_from_base(n: int, base) -> Topology:
    """Close a family of basic open masks under union; adds the empty set.
    The oracle of the topology of C(Q), which is its set of X-sets."""
    opens = {0}
    for b in set(base):  # opens = the unions of the basic sets seen so far
        opens |= {o | b for o in opens}
    return Topology(n, frozenset(opens))


def is_open(top: Topology, mask: int) -> bool:
    """Whether the arrow set mask is open in top."""
    return top.opens is None or mask in top.opens


def iter_opens(top: Topology):
    """The opens of top as ascending masks."""
    return range(1 << top.n) if top.opens is None else sorted(top.opens)


def projection_mask(q) -> int:
    """The projections of q (its elements below the unit) as a mask."""
    return mask_of(q.projections())


def meet_fold(lat, indices) -> int:
    """The meet of the elements indices of lat, the top for none."""
    return reduce(lambda a, b: int(lat.meet[a, b]), indices, lat.top)


def cat_of_ehresmann(q) -> FiniteTopCategory:
    """The category with arrows = elements, a.b defined iff a* = b+,
    d(a) = a*, r(a) = a+, identities = projections; discrete topology."""
    comp = np.full((q.n, q.n), UNDEF, dtype=np.int64)
    eq_dr = q.star[:, None] == q.plus[None, :]
    comp[eq_dr] = q.mul[eq_dr]
    cat = FiniteCategory(n=q.n, identity_mask=projection_mask(q), d=q.star.copy(),
                         r=q.plus.copy(), comp=comp)
    return FiniteTopCategory(cat=cat, topology=Topology(q.n, None))


def searched(module, search: str, call):
    """What call() returns with module.<search> spied on, and every map
    that search gave on the way, as an int64 array."""
    real, given = getattr(module, search), []

    def spy(*args, **kwargs):
        for f in real(*args, **kwargs):
            given.append(np.array(f, dtype=np.int64))
            yield f

    with mock.patch.object(module, search, spy):
        result = call()
    return result, given


def searched_arrow_maps(src, dst):
    """The hom-set enumerate_covering_functors(src, dst) finds, and every
    map arrow_maps yielded to it on the way."""
    homset, yielded = searched(duality, "arrow_maps",
                               lambda: duality.enumerate_covering_functors(src, dst))
    return homset, [f.tolist() for f in yielded]


def assert_kept(homset, maps, decide):
    """The hom-set is the maps the search gave that pass decide, in order."""
    assert [m.tolist() for m in homset] == [m.tolist() for m in maps if decide(m)]


def assert_residual_decisions_match_validators(tc, q, s) -> dict:
    """Each search of both adjunction checks of (tc, q) and (tc, s) against
    its full validators, on every map the search gives: the decision each
    search keeps equals the verdict of the validators, every law they
    report of a map is one the search leaves to its decision, and the
    hom-set is the maps that pass it, in order.  Returns, per search, the
    hom-set and the maps the search gave: "rqf" (q -> Omega(C)),
    "callitic" (s -> PI(Omega(C))), "functors-I" (C -> C(Q)) and
    "functors-II" (C -> C(S))."""
    r, t = omega_object(tc).rqf, crm.bisection_monoid(tc).crm
    out = {}
    homset, maps = out["rqf"] = searched(duality, "generator_search",
                                         lambda: duality.enumerate_rqf_morphisms(q, r, 1024))
    for m in maps:
        rep = duality.validate_rqf_morphism(m, q, r)
        assert duality._keeps_isometries(m, q, r) == rep.ok, m.tolist()
        assert set(rep.laws()) <= {"morphism.preserves_isometries"}, m.tolist()
    assert_kept(homset, maps, lambda m: duality._keeps_isometries(m, q, r))

    homset, maps = out["callitic"] = searched(
        crm, "generator_search", lambda: crm.enumerate_callitic_morphisms(s, t, 1024))
    for m in maps:
        assert crm.validate_crm_morphism(m, s, t).ok, m.tolist()
    assert_kept(homset, maps, lambda m: crm.is_callitic(m, s, t)[0])

    surjective = {"covering.d_surjective", "covering.r_surjective"}
    for key, dst in (("functors-I", c_object(q).topcat), ("functors-II", crm.s_filters(s).topcat)):
        homset, maps = out[key] = searched(
            duality, "arrow_maps", lambda: duality.enumerate_covering_functors(tc, dst))
        for f in maps:
            rep = validate_covering_functor(f, tc.cat, dst.cat)
            full = rep.ok and continuity_check(f, tc, dst)[0]
            assert duality._is_continuous_covering(f.tolist(), tc, dst) == full, f.tolist()
            assert set(rep.laws()) <= surjective, f.tolist()
        assert_kept(homset, maps, lambda f: duality._is_continuous_covering(f.tolist(), tc, dst))
    return out


def composable_pairs(c: FiniteCategory):
    """The composable pairs (a, b) of c, row-major, as Python ints."""
    for a, b in np.argwhere(c.comp != UNDEF):
        yield int(a), int(b)


def validate_covering_functor_oracle(fmap, src: FiniteCategory, dst: FiniteCategory) -> Report:
    """The body topcat.validate_covering_functor had before it read its
    tables as Python lists: functoriality on NumPy scalars, injectivity over
    the listed pairs with equal images, surjectivity as whole arrays."""
    fmap = np.asarray(fmap, dtype=np.int64)
    rep = Report(subject="covering-functor")
    rep.layers_run.append("functor")
    n = src.n
    # witness: the first value out of range, else the first position past
    # the shorter of the map and the arrows of src
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
            lhs = int(dst.comp[fmap[a], fmap[b]])
            rhs = int(fmap[src.comp[a, b]])
            if lhs != rhs:
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

    # surjectivity: each y of dst with proj_dst[y] = F(e), for e an identity
    # of src, must be F(x) for some x with proj_src[x] = e; the witness is
    # the first such (e, y), identities first, that is not
    ids = np.array(src.identities(), dtype=np.int64)
    for proj_src, proj_dst, law in ((src.d, dst.d, "covering.d_surjective"),
                                    (src.r, dst.r, "covering.r_surjective")):
        hit = np.zeros((n, dst.n), dtype=bool)
        hit[proj_src, fmap] = True
        missing = (proj_dst[None, :] == fmap[ids, None]) & ~hit[ids]
        if missing.any():
            i, y = np.argwhere(missing)[0]
            rep.add(law, (int(ids[i]), int(y)))
    return rep


def crm_lub(s, elements) -> Optional[int]:
    """Least upper bound in the stored order, or None if it does not exist:
    the oracle of crm._partial_join_table and crm.is_proper."""
    uppers = np.ones(s.n, dtype=bool)
    for x in elements:
        uppers &= s.leq[x, :]
    idx = np.flatnonzero(uppers)
    if idx.size == 0:
        return None
    for u in idx:
        if s.leq[u, idx].all():
            return int(u)
    return None


def validate_crm_oracle(s) -> Report:
    """The body crm.validate_crm had before it shared the associativity,
    a.a* / a+.a / congruence and meet scans of the quantale and order
    validators."""
    rep = Report(subject="crm")
    rep.layers_run.append("crm")
    n = s.n
    prep = validate_poset(FinitePoset.from_leq(s.leq))
    if not prep.ok:
        rep.extend(prep)
        return rep
    arange = np.arange(n)

    # monoid with zero
    for a in range(n):
        diff = s.mul[s.mul[a, :], :] != s.mul[a, s.mul]
        if diff.any():
            b, c = np.argwhere(diff)[0]
            rep.add("crm.associativity", (a, int(b), int(c)))
            break
    if (s.mul[s.unit, :] != arange).any() or (s.mul[:, s.unit] != arange).any():
        bad = np.flatnonzero(s.mul[s.unit, :] != arange)
        w = int(bad[0]) if bad.size else int(np.flatnonzero(s.mul[:, s.unit] != arange)[0])
        rep.add("crm.unit", (w,))
    if not s.leq[s.zero, :].all():
        rep.add("crm.zero_is_bottom", (s.zero,))
    if (s.mul[s.zero, :] != s.zero).any() or (s.mul[:, s.zero] != s.zero).any():
        rep.add("crm.zero_absorbs", (s.zero,))
    if not rep.ok:
        return rep

    # Ehresmann structure with projections = unit-downset
    projs = np.array(s.projections())
    pm = s.mul[np.ix_(projs, projs)]
    if (pm != pm.T).any():
        i, j = np.argwhere(pm != pm.T)[0]
        rep.add("crm.projections_commute", (int(projs[i]), int(projs[j])))
    if (s.mul[projs, projs] != projs).any():
        rep.add("crm.projections_idempotent",
                (int(projs[np.flatnonzero(s.mul[projs, projs] != projs)[0]]),))
    for name, m in (("star", s.star), ("plus", s.plus)):
        if (~s.leq[m, s.unit]).any():
            rep.add(f"crm.{name}_lands_in_projections",
                    (int(np.flatnonzero(~s.leq[m, s.unit])[0]),))
        if (m[projs] != projs).any():
            rep.add(f"crm.{name}_fixes_projections",
                    (int(projs[np.flatnonzero(m[projs] != projs)[0]]),))
    if not rep.ok:
        return rep
    if (s.mul[arange, s.star] != arange).any():
        rep.add("crm.a_mul_star", (int(np.flatnonzero(s.mul[arange, s.star] != arange)[0]),))
    if (s.mul[s.plus, arange] != arange).any():
        rep.add("crm.plus_mul_a", (int(np.flatnonzero(s.mul[s.plus, arange] != arange)[0]),))
    diff = s.star[s.mul] != s.star[s.mul[s.star, :]]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("crm.congruence_star", (int(a), int(b)))
    diff = s.plus[s.mul] != s.plus[s.mul[:, s.plus]]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("crm.congruence_plus", (int(a), int(b)))

    # restriction identities, all elements
    for f in s.projections():
        fa = s.mul[f, :]
        if (s.mul[arange, s.star[fa]] != fa).any():
            a = int(np.flatnonzero(s.mul[arange, s.star[fa]] != fa)[0])
            rep.add("crm.restriction_identity_star", (f, a))
            break
        af = s.mul[:, f]
        if (s.mul[s.plus[af], arange] != af).any():
            a = int(np.flatnonzero(s.mul[s.plus[af], arange] != af)[0])
            rep.add("crm.restriction_identity_plus", (a, f))
            break
    if not rep.ok:
        return rep

    # the stored order is the algebraic one: a <= b iff a = a+.b = b.a*
    alg = np.zeros((n, n), dtype=bool)
    for a in range(n):
        alg[a, :] = (s.mul[s.plus[a], :] == a) & (s.mul[:, s.star[a]] == a)
    diff = alg != s.leq
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("crm.order_is_algebraic", (int(a), int(b)))
        return rep

    # multiplication is monotone (used by the ideal completion)
    for c in range(n):
        rows = s.mul[c, :]
        bad = s.leq & ~s.leq[np.ix_(rows, rows)]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            rep.add("crm.mul_monotone", (c, int(a), int(b)))
            break
        cols = s.mul[:, c]
        bad = s.leq & ~s.leq[np.ix_(cols, cols)]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            rep.add("crm.mul_monotone", (int(a), int(b), c))
            break

    # binary meets
    for i in range(n):
        m = s.meet[i, :]
        bad = ~(s.leq[m, i] & s.leq[m, arange])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            rep.add("crm.meet_not_lower_bound", (i, j, int(m[j])))
            break
        common = s.leq[:, i][:, None] & s.leq
        viol = common & ~s.leq[:, m]
        if viol.any():
            x, j = np.argwhere(viol)[0]
            rep.add("crm.meet_not_greatest", (i, int(j), int(x)))
            break
    if not rep.ok:
        return rep

    # completeness, decided on compatible pairs (see the module docstring)
    joins = crm._compatible_join_table(s)
    xs, ys = np.nonzero(np.triu(crm._compatibility_matrix(s)))
    missing = np.flatnonzero(joins[xs, ys] < 0)
    if missing.size:
        p = missing[0]
        rep.add("crm.compatible_join_missing", (int(xs[p]), int(ys[p])))
        return rep
    js = joins[xs, ys]
    first = None  # (pair, c, 0 left / 1 right) of the first failure
    for c in range(n):
        left = joins[s.mul[c, xs], s.mul[c, ys]] != s.mul[c, js]
        right = joins[s.mul[xs, c], s.mul[ys, c]] != s.mul[js, c]
        for side, bad in enumerate((left, right)):
            hits = np.flatnonzero(bad)
            if hits.size and (first is None or (hits[0], c, side) < first):
                first = (int(hits[0]), c, side)
    if first is not None:
        p, c, side = first
        x, y = int(xs[p]), int(ys[p])
        rep.add("crm.mul_distributes_over_joins", (x, y, c) if side else (c, x, y))
    return rep


def validate_rqf_oracle(q) -> Report:
    """The body quantale.validate_rqf had while it still scanned the
    restriction identities on the partial isometries, which cannot fail
    once the Ehresmann layer (whose own scans the tests compare with their
    oracles) has passed."""
    rep = validate_ehresmann(q)
    if not rep.ok:
        return rep
    rep.subject = "rqf"
    rep.layers_run.append("rqf")
    mul, star, plus = q.mul, q.star, q.plus
    pis = partial_isometries(q)
    pi_set = set(pis)

    for f in q.projections():
        fa = mul[f, :]
        bad = np.flatnonzero(mul[np.arange(q.n), star[fa]] != fa)
        bad = [b for b in bad if b in pi_set]
        if bad:
            rep.add("rqf.restriction_identity_star", (f, int(bad[0])))
            break
        af = mul[:, f]
        bad = np.flatnonzero(mul[plus[af], np.arange(q.n)] != af)
        bad = [b for b in bad if b in pi_set]
        if bad:
            rep.add("rqf.restriction_identity_plus", (int(bad[0]), f))
            break

    top_join = q.join_fold(pis)
    if top_join != q.top:
        rep.add("rqf.etale_top_is_join_of_isometries", (q.top, top_join))
    for a in pis:
        prods = mul[a, pis]
        bad = [int(p) for p in prods if int(p) not in pi_set]
        if bad:
            b = pis[int(np.flatnonzero(prods == bad[0])[0])]
            rep.add("rqf.isometries_closed_under_mul", (a, b, bad[0]))
            break
    return rep
