import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import bit_matrix, has_bit, iter_bits, mask_of, row_masks
from framecat.corpus import (chain_frame, corpus_crms, corpus_rqfs, empty_category,
                             etale_categories, free_category_on_acyclic_graph,
                             hand_built_crms, monoid_category,
                             negative_crm_fixture, pair_groupoid,
                             semilattice_monoid_category)
from framecat import crm, topcat
from framecat.crm import (CompleteRestrictionMonoid, IdealCompletion,
                          _compatible_join_table, _partial_join_table, bisection_monoid,
                          crm_compatible, enumerate_callitic_morphisms,
                          is_callitic, is_proper, join_primes, l_vee, make_crm,
                          pi_restriction_monoid, preserves_finite_meets,
                          s_filter_bijection, s_filters,
                          theta_extension,
                          validate_crm, validate_crm_morphism,
                          verify_adjunction_II)
from framecat.duality import (enumerate_covering_functors, find_category_isomorphism,
                              positions, quantale_isomorphism_ok, transposes,
                              verify_adjunction_I)
from framecat.functors import FilterCategory, c_object, omega_object
from framecat.order import lattice_from_leq
from framecat.quantale import frame_as_quantale, make_eq, partial_isometries, validate_rqf
from framecat.reports import MAX_TABLE_SIDE, BoundExceeded
from framecat.suite import (Instance, filter_category_correspondence,
                            ideals_of_isometries_roundtrip, isometries_of_ideals_roundtrip)
from framecat.topcat import (UNDEF, FiniteTopCategory, Topology, make_category,
                             validate_covering_functor)
from map_oracles import (FilterMasks, assert_transposes_match_oracles, crm_lub, ideal_masks,
                         open_index, map_outcome, one_map, one_value_perturbations, relabel,
                         relabel_crm,
                         reversed_labels, small_corpus_categories, topology_from_base,
                         validate_crm_oracle)
from random_categories import small_categories


def is_submask(a: int, b: int) -> bool:
    return a & ~b == 0


def upset_mask(s, i: int) -> int:
    return mask_of(np.flatnonzero(s.leq[i, :]))


def downset_mask(s, i: int) -> int:
    return mask_of(np.flatnonzero(s.leq[:, i]))


def s_filters_list(s: CompleteRestrictionMonoid) -> list[int]:
    """All completely prime filters of S, as member bitmasks, sorted.

    A filter is closed upwards and under binary meets, hence principal, and
    the up-set of g is completely prime iff g is a join-prime: these are the
    up-sets of J(S) (join_primes).
    """
    return sorted(upset_mask(s, g) for g in join_primes(s))


@pytest.fixture(scope="module")
def i2(omega_pair2_module):
    s, carrier = pi_restriction_monoid(omega_pair2_module.rqf)
    return s, carrier, omega_pair2_module.rqf


@pytest.fixture(scope="module")
def omega_pair2_module():
    return omega_object(pair_groupoid(2))


def test_partial_bijection_monoid(i2):
    s, carrier, q = i2
    assert s.n == 7
    assert validate_crm(s).ok
    assert carrier[s.zero] == q.bottom
    assert carrier[s.unit] == q.unit


def test_pi_restriction_monoid_names_an_operation_leaving_the_isometries(i2):
    _, carrier, q = i2
    x, y = [p for p in carrier if not q.leq[p, q.unit]][:2]
    mul = q.mul.copy()
    mul[x, y] = q.top  # read by no partial-isometry test: x, y are not projections
    bad = dataclasses.replace(q, mul=mul)
    assert partial_isometries(bad) == carrier and q.top not in carrier
    with pytest.raises(ValueError, match="^mul leaves the partial isometries"):
        pi_restriction_monoid(bad)


def test_crm_of_frame_quantale_is_the_frame():
    q = frame_as_quantale(chain_frame(4))
    s, carrier = pi_restriction_monoid(q)
    assert s.n == 4
    assert validate_crm(s).ok
    assert (s.mul == s.meet).all()


def test_trivial_monoid_is_a_crm():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    assert validate_crm(s).ok


def test_missing_compatible_join_detected():
    inst = negative_crm_fixture()
    rep = validate_crm(inst.obj)
    assert "crm.compatible_join_missing" in rep.laws()
    wit = rep.violations[0].witness
    assert wit == (2, 3)
    assert crm_compatible(inst.obj, *wit)
    assert crm_lub(inst.obj, wit) is None


# ---------------------------------------------------------------------------
# every law of validate_crm against its body before it shared the scans of
# the quantale and order validators (map_oracles.validate_crm_oracle): the
# same report on every one-cell mutation of the small corpus monoids

def one_cell_crm_mutations(s):
    """s with one cell changed: an entry of leq flipped, or one value of
    mul, star, plus or meet moved to each other element."""
    tables = {"leq": s.leq, "mul": s.mul, "star": s.star, "plus": s.plus, "meet": s.meet}
    for name, table in tables.items():
        for cell in np.ndindex(table.shape):
            values = [not table[cell]] if name == "leq" else \
                [v for v in range(s.n) if v != table[cell]]
            for v in values:
                changed = dict(tables)
                changed[name] = np.array(table)
                changed[name][cell] = v
                yield make_crm(s.n, changed["leq"], changed["mul"], s.unit, s.zero,
                               changed["star"], changed["plus"], changed["meet"])


SCAN_LAWS = {f"crm.{law}" for law in (
    "associativity", "a_mul_star", "plus_mul_a", "congruence_star", "congruence_plus",
    "restriction_identity_star", "restriction_identity_plus", "meet_not_lower_bound",
    "meet_not_greatest")}


def test_crm_reports_match_oracle_on_one_cell_mutations():
    """The 1324 mutations of the corpus monoids of at most 16 elements and
    of crm-missing-join, which between them break every law of the
    law-by-law scans, the shared ones and crm.restriction_scan."""
    monoids = [i.obj for i in corpus_crms() if i.obj.n <= 16] + [negative_crm_fixture().obj]
    laws = set()
    for s in monoids:
        assert validate_crm(s) == validate_crm_oracle(s)
        for bad in one_cell_crm_mutations(s):
            rep = validate_crm(bad)
            assert rep == validate_crm_oracle(bad)
            laws.update(rep.laws())
    assert SCAN_LAWS <= laws, sorted(SCAN_LAWS - laws)


# ---------------------------------------------------------------------------
# completeness: the test on compatible pairs against the subset walk

COMPLETENESS_LAWS = ("crm.compatible_join_missing", "crm.mul_distributes_over_joins")


def compatible_subsets(s):
    """All pairwise-compatible subsets of s, as element bitmasks, by DFS over
    the compatibility graph."""
    comp_mask = [mask_of(b for b in range(s.n) if crm_compatible(s, a, b))
                 for a in range(s.n)]
    out = []

    def extend(mask, allowed, start):
        out.append(mask)
        for a in iter_bits(allowed >> start << start):
            extend(mask | (1 << a), allowed & comp_mask[a], a + 1)

    extend(0, (1 << s.n) - 1, 0)
    return out


def completeness_oracle(s):
    """Completeness by walking every compatible subset: None if each has a
    join over which multiplication distributes, else (law, witness).  A
    missing join is shrunk greedily to a minimal joinless subset."""
    for mask in compatible_subsets(s):
        elems = list(iter_bits(mask))
        j = crm_lub(s, elems)
        if j is None:
            core = list(elems)
            for x in list(core):
                trial = [y for y in core if y != x]
                if trial and crm_lub(s, trial) is None:
                    core = trial
            return "crm.compatible_join_missing", tuple(core)
        for a in range(s.n):
            left = crm_lub(s, [int(s.mul[a, x]) for x in elems] or [s.zero])
            if left != int(s.mul[a, j]):
                return "crm.mul_distributes_over_joins", (a,) + tuple(elems[:2])
            right = crm_lub(s, [int(s.mul[x, a]) for x in elems] or [s.zero])
            if right != int(s.mul[j, a]):
                return "crm.mul_distributes_over_joins", tuple(elems[:2]) + (a,)
    return None


def distributivity_fails(s, c, x, y, side):
    """x ~ y have a join j, and c.j is not c.x v c.y (left) or j.c is not
    x.c v y.c (right), by crm_lub: the subset walk's test on {x, y}."""
    if not crm_compatible(s, x, y) or crm_lub(s, (x, y)) is None:
        return False
    j = crm_lub(s, (x, y))
    if side == "left":
        return crm_lub(s, (int(s.mul[c, x]), int(s.mul[c, y]))) != s.mul[c, j]
    return crm_lub(s, (int(s.mul[x, c]), int(s.mul[y, c]))) != s.mul[j, c]


def first_pair_violation(s):
    """The first completeness violation in the order validate_crm documents
    (missing joins, then distributivity, each by pair in row-major order;
    then by c, left before right), from the scalar definitions: so each
    violation it names is genuine, a compatible pair without a crm_lub or
    a distributivity failure of the subset walk."""
    pairs = [(x, y) for x in range(s.n) for y in range(x, s.n) if crm_compatible(s, x, y)]
    for x, y in pairs:
        if crm_lub(s, (x, y)) is None:
            return "crm.compatible_join_missing", (x, y)
    for x, y in pairs:
        for c in range(s.n):
            if distributivity_fails(s, c, x, y, "left"):
                return "crm.mul_distributes_over_joins", (c, x, y)
            if distributivity_fails(s, c, x, y, "right"):
                return "crm.mul_distributes_over_joins", (x, y, c)
    return None


def sub_monoid(s, keep):
    """The restriction of s to the sorted element list keep, reindexed, or
    None unless keep is closed under mul, star, plus and meet."""
    keep = np.asarray(keep)
    inside = np.zeros(s.n, dtype=bool)
    inside[keep] = True
    grid = np.ix_(keep, keep)
    if not (inside[s.mul[grid]].all() and inside[s.meet[grid]].all()
            and inside[s.star[keep]].all() and inside[s.plus[keep]].all()):
        return None
    pos = np.full(s.n, -1, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    return make_crm(keep.size, s.leq[grid], pos[s.mul[grid]], pos[s.unit], pos[s.zero],
                    pos[s.star[keep]], pos[s.plus[keep]], pos[s.meet[grid]])


def opposite(s):
    """S with the multiplication reversed and star and plus swapped; left
    distributivity in it is right distributivity in s."""
    return make_crm(s.n, s.leq, s.mul.T, s.unit, s.zero, s.plus, s.star, s.meet)


def generated_sub_monoid(s, gens):
    """The least sub-monoid of s that contains gens, the unit and the zero
    and is closed under mul, star, plus and meet."""
    inside = np.zeros(s.n, dtype=bool)
    inside[[s.unit, s.zero, *gens]] = True
    while True:
        keep = np.flatnonzero(inside)
        grid = np.ix_(keep, keep)
        grown = inside.copy()
        for image in (s.mul[grid], s.meet[grid], s.star[keep], s.plus[keep]):
            grown[image.ravel()] = True
        if (grown == inside).all():
            return sub_monoid(s, keep)
        inside = grown


SUB_MONOID_SOURCES = ("omega-pair2", "omega-parallel-pair", "omega-path-category",
                      "qframe-prod-3x3")


@functools.lru_cache(maxsize=None)
def sub_monoids(source):
    """Every sub-monoid of PI(source) left by deleting a set of elements other
    than the unit and the zero, with the element list it keeps."""
    s, _ = pi_restriction_monoid({i.name: i.obj for i in corpus_rqfs()}[source])
    others = [x for x in range(s.n) if x not in (s.unit, s.zero)]
    out = []
    for deleted in range(1, 1 << len(others)):
        gone = {others[k] for k in iter_bits(deleted)}
        keep = [x for x in range(s.n) if x not in gone]
        sub = sub_monoid(s, keep)
        if sub is not None:
            out.append((keep, sub))
    return s, out


def _completeness_inputs():
    # every corpus CRM is hand-built or the PI of a corpus rqf
    out = [(i.name, i.obj) for i in hand_built_crms()]
    out += [(f"pi-{i.name}", pi_restriction_monoid(i.obj)[0]) for i in corpus_rqfs()]
    out = [(name, s) for name, s in out if s.n <= 40]
    out.append(("crm-missing-join", negative_crm_fixture().obj))
    return [pytest.param(s, id=name) for name, s in out]


def _assert_completeness_agrees(s, where):
    rep = validate_crm(s)
    assert set(rep.laws()) <= set(COMPLETENESS_LAWS), where
    fast = None if rep.ok else (rep.violations[0].law, rep.violations[0].witness)
    assert (fast is None) == (completeness_oracle(s) is None), where
    assert fast == first_pair_violation(s), where
    return fast


@pytest.mark.parametrize("s", _completeness_inputs())
def test_completeness_agrees_with_subset_walk(s):
    _assert_completeness_agrees(s, None)


@pytest.mark.parametrize("source", SUB_MONOID_SOURCES)
def test_completeness_agrees_with_subset_walk_on_sub_monoids(source):
    _, subs = sub_monoids(source)
    for keep, sub in subs:
        _assert_completeness_agrees(sub, keep)


def test_completeness_on_one_sided_distributivity_failures(omega_pair3):
    # the sub-monoid of PI(Omega pair3) generated by the identity at point 0
    # and the bijection exchanging points 0 and 2: its first failing pair
    # breaks distributivity on the left only, so its opposite breaks it on
    # the right only
    s, carrier = pi_restriction_monoid(omega_pair3.rqf)
    e0 = carrier.index(omega_pair3.opens.index(0b000000001))
    swap02 = carrier.index(omega_pair3.opens.index(0b001010100))
    sub = generated_sub_monoid(s, [e0, swap02])
    law, (c, x, y) = _assert_completeness_agrees(sub, "sub")
    assert law == "crm.mul_distributes_over_joins"
    assert not distributivity_fails(sub, c, x, y, "right")
    law, (x, y, c) = _assert_completeness_agrees(opposite(sub), "opposite")
    assert law == "crm.mul_distributes_over_joins"
    assert not distributivity_fails(opposite(sub), c, x, y, "left")


def test_sub_monoids_break_both_completeness_laws():
    laws = set()
    for source in SUB_MONOID_SOURCES:
        for _, sub in sub_monoids(source)[1]:
            rep = validate_crm(sub)
            laws.update(rep.laws()[:1])
    assert laws == set(COMPLETENESS_LAWS)


def test_join_tables_match_scalar_definitions():
    # zero-unit-crm with a star that makes 0 and 1 incompatible: their join
    # 1 exists but is not a compatible join
    bogus = make_crm(2, [[True, True], [False, True]], [[0, 0], [0, 1]],
                     1, 0, [1, 1], [0, 1], [[0, 0], [0, 1]])
    inputs = [i.obj for i in corpus_crms()] + [negative_crm_fixture().obj, bogus]
    # the partial join table reads only the order: also random relations,
    # most of them not partial orders
    rng = np.random.default_rng(0)
    for n in (1, 5, 12):
        for density in (0.2, 0.5, 0.8):
            zeros = np.zeros((n, n), dtype=np.int64)
            inputs.append(make_crm(n, rng.random((n, n)) < density, zeros, 0, 0,
                                   zeros[0], zeros[0], zeros))
    for s in inputs:
        lub = [[crm_lub(s, (a, b)) for b in range(s.n)] for a in range(s.n)]
        partial = np.array([[-1 if j is None else j for j in row] for row in lub])
        assert np.array_equal(_partial_join_table(s), partial)
        compatible = [[crm_compatible(s, a, b) for b in range(s.n)] for a in range(s.n)]
        assert np.array_equal(_compatible_join_table(s), np.where(compatible, partial, -1))
    assert _compatible_join_table(bogus)[0, 1] == -1


def test_compatibility_in_partial_bijections(i2):
    s, carrier, q = i2
    # singleton transpositions are compatible (their union is the swap)
    t01 = carrier.index(2)   # {(0,1)}
    t10 = carrier.index(4)   # {(1,0)}
    d0 = carrier.index(1)    # {(0,0)}
    assert crm_compatible(s, t01, t10)
    assert not crm_compatible(s, t01, d0)
    assert crm_lub(s, (t01, t10)) is not None


# ---------------------------------------------------------------------------
# the ideal completion

# The oracle: L^vee(S) by a breadth-first search over the closed ideals,
# each one closed under the existing binary joins, and lattice tables
# rebuilt from the containment order.  It reads no join-primes.

def _ideal_closure(s: CompleteRestrictionMonoid, mask: int,
                   down: list[int], join_table: np.ndarray) -> int:
    """The least order-ideal containing mask and the zero that is closed
    under the existing binary joins of join_table.

    Semi-naive evaluation: every round joins only the pairs that involve an
    element added in the previous round, since all other pairs of the ideal
    were joined before; the distinct joins (np.unique) that fall outside the
    ideal are down-closed and become the next round's new elements.  Each
    pair of the result is read at most twice over all rounds, so a closure
    costs O(|ideal|^2) table reads in NumPy plus, per round, one Python step
    per distinct join (at most n).
    """
    mask |= 1 << s.zero
    closed = 0
    for x in iter_bits(mask):
        closed |= down[x]
    new = closed
    while new:
        joins = join_table[list(iter_bits(new))][:, list(iter_bits(closed))]
        grown = closed
        for j in np.unique(joins).tolist():
            if j >= 0 and not (grown >> j) & 1:
                grown |= down[j]
        new = grown & ~closed
        closed = grown
    return closed


def l_vee_by_ideal_search(s: CompleteRestrictionMonoid,
                          max_elements: int = 1024) -> IdealCompletion:
    """The restriction quantal frame of order-ideals of S closed under all
    existing joins, ordered by inclusion.

    The closed ideals are found breadth-first from the least one, extending
    each ideal I by one minimal element g of its complement at a time.  That
    reaches every closed K above I: a minimal g in K - I has all of its
    strict down-set in I, so the closure of I + {g} lies inside K.

    The closed ideals form a closure system, so the lattice tables come from
    the containment order directly; the closure of a finite set is the
    lattice join of the principal ideals of its elements, which turns the
    ideal product (pointwise product, down-closure, join-closure) into a
    join-fold over products of maximal generators.
    """
    n = s.n
    down = [downset_mask(s, i) for i in range(n)]
    join_table = _partial_join_table(s)

    strict_down = [down[g] & ~(1 << g) for g in range(n)]
    bottom_ideal = _ideal_closure(s, 0, down, join_table)
    ideals = {bottom_ideal}
    frontier = [bottom_ideal]
    while frontier:
        nxt = []
        for i_mask in frontier:
            for g in range(n):
                if has_bit(i_mask, g) or not is_submask(strict_down[g], i_mask):
                    continue
                bigger = _ideal_closure(s, i_mask | (1 << g), down, join_table)
                if bigger not in ideals:
                    ideals.add(bigger)
                    nxt.append(bigger)
            if len(ideals) > max_elements:
                raise BoundExceeded(f"more than {max_elements} ideals")
        frontier = nxt

    ideal_list = sorted(ideals, key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(ideal_list)}
    nq = len(ideal_list)

    member = np.zeros((nq, n), dtype=bool)
    for i, m in enumerate(ideal_list):
        for x in iter_bits(m):
            member[i, x] = True
    leq = ~np.any(member[:, None, :] & ~member[None, :, :], axis=2)
    lat = lattice_from_leq(leq)
    jt = lat.join

    pid = np.array([index[down[x]] for x in range(n)], dtype=np.int64)
    pid2 = pid[s.mul]  # pid2[a, b] = principal ideal of a.b
    maxima = []
    for m in ideal_list:
        idx = list(iter_bits(m))
        maxima.append([x for x in idx if not any(s.leq[x, y] and x != y for y in idx)])

    bot = lat.bottom
    star = np.zeros(nq, dtype=np.int64)
    plus = np.zeros(nq, dtype=np.int64)
    for i, m in enumerate(ideal_list):
        acc_s = acc_p = bot
        for x in iter_bits(m):
            acc_s = int(jt[acc_s, pid[int(s.star[x])]])
            acc_p = int(jt[acc_p, pid[int(s.plus[x])]])
        star[i] = acc_s
        plus[i] = acc_p

    # row[x][j] = join of principal ideals of x.t over maximal t of ideal j
    rows = np.full((n, nq), bot, dtype=np.int64)
    for x in range(n):
        for j in range(nq):
            acc = bot
            for t in maxima[j]:
                acc = int(jt[acc, pid2[x, t]])
            rows[x, j] = acc
    mul = np.full((nq, nq), bot, dtype=np.int64)
    for i in range(nq):
        acc = np.full(nq, bot, dtype=np.int64)
        for x in maxima[i]:
            acc = jt[acc, rows[x, :]]
        mul[i, :] = acc

    q = make_eq(lat, mul, int(pid[s.unit]), star, plus)
    return IdealCompletion(rqf=q, members=bit_matrix(ideal_list, n), principal=pid)


def test_ideal_completion_of_partial_bijections(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    assert lv.rqf.n == 16
    assert validate_rqf(lv.rqf).ok
    iso = np.array([q.join_fold([carrier[x] for x in iter_bits(m)])
                    for m in ideal_masks(lv)[0]], dtype=np.int64)
    assert quantale_isomorphism_ok(iso, lv.rqf, q)


def closed_ideals_bruteforce(s):
    """Every subset of S that is down-closed, contains the zero (the empty
    join) and contains the join of each pair of its elements that has one."""
    leq = np.asarray(s.leq)
    down = [mask_of(np.flatnonzero(leq[:, x])) for x in range(s.n)]
    joins = []
    for a in range(s.n):
        for b in range(a + 1, s.n):
            uppers = np.flatnonzero(leq[a, :] & leq[b, :])
            least = [u for u in uppers if leq[u, uppers].all()]
            if least:
                joins.append((a, b, int(least[0])))
    found = []
    for mask in range(1 << s.n):
        if not (mask >> s.zero) & 1:
            continue
        if any((mask >> x) & 1 and down[x] & ~mask for x in range(s.n)):
            continue
        if all((mask >> j) & 1 for a, b, j in joins if (mask >> a) & 1 and (mask >> b) & 1):
            found.append(mask)
    return found


def _small_completion_inputs():
    out = [(i.name, i.obj) for i in corpus_crms()]
    out += [(f"pi-{i.name}", pi_restriction_monoid(i.obj)[0]) for i in corpus_rqfs()]
    return [pytest.param(s, id=name) for name, s in out if s.n <= 16]


@pytest.mark.parametrize("s", _small_completion_inputs())
def test_closed_ideals_match_bruteforce(s):
    found = closed_ideals_bruteforce(s)
    assert sorted(found, key=lambda m: (m.bit_count(), m)) == ideal_masks(l_vee(s))[0]


def closed_ideals_by_full_search(s):
    """Breadth-first search of the closed ideals that extends each ideal by
    every element outside it, not only by the minimal ones."""
    down = [downset_mask(s, i) for i in range(s.n)]
    join_table = _partial_join_table(s)
    bottom_ideal = _ideal_closure(s, 0, down, join_table)
    ideals = {bottom_ideal}
    frontier = [bottom_ideal]
    while frontier:
        nxt = []
        for i_mask in frontier:
            for g in range(s.n):
                if (i_mask >> g) & 1:
                    continue
                bigger = _ideal_closure(s, i_mask | (1 << g), down, join_table)
                if bigger not in ideals:
                    ideals.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(ideals, key=lambda m: (m.bit_count(), m))


def test_closed_ideals_match_full_search_on_pi_omega_pair3(omega_pair3):
    s, _ = pi_restriction_monoid(omega_pair3.rqf)
    assert ideal_masks(l_vee(s))[0] == closed_ideals_by_full_search(s)


def join_irreducibles_by_definition(s):
    """The s other than the zero that are not the crm_lub of two strictly
    smaller compatible elements."""
    out = []
    for g in range(s.n):
        smaller = [x for x in range(s.n) if s.leq[x, g] and x != g]
        if g != s.zero and not any(crm_compatible(s, x, y) and crm_lub(s, (x, y)) == g
                                   for x in smaller for y in smaller):
            out.append(g)
    return out


def assert_completion_matches_oracle(s, where=None):
    """l_vee and the ideal search give the same ideals and tables; returns
    the number of ideals."""
    fast, oracle = l_vee(s), l_vee_by_ideal_search(s)
    assert np.array_equal(fast.members, oracle.members), where
    assert np.array_equal(fast.principal, oracle.principal), where
    for table in ("leq", "meet", "join", "mul", "star", "plus"):
        assert np.array_equal(getattr(fast.rqf, table), getattr(oracle.rqf, table)), (where, table)
    for field in ("unit", "bottom", "top"):
        assert getattr(fast.rqf, field) == getattr(oracle.rqf, field), (where, field)
    return len(fast.members)


def _raises_bound(build, s, bound):
    try:
        build(s, max_elements=bound)
    except BoundExceeded:
        return True
    return False


def _corpus_crm_inputs():
    # the corpus crms and the PIs of the corpus rqfs: every S that the
    # suite builds L^vee on
    out = [(i.name, i.obj) for i in corpus_crms()]
    out += [(f"pi-{i.name}", pi_restriction_monoid(i.obj)[0]) for i in corpus_rqfs()]
    return [pytest.param(s, id=name) for name, s in out]


@pytest.mark.parametrize("s", _corpus_crm_inputs())
def test_l_vee_matches_ideal_search_on_corpus(s):
    assert validate_crm(s).ok  # the precondition of l_vee
    assert sorted(join_primes(s)) == join_irreducibles_by_definition(s)
    count = assert_completion_matches_oracle(s)
    for bound in (count - 1, count):
        assert _raises_bound(l_vee, s, bound) == _raises_bound(l_vee_by_ideal_search, s, bound)
        assert _raises_bound(l_vee, s, bound) == (count > bound)


@pytest.mark.parametrize("source", SUB_MONOID_SOURCES)
def test_l_vee_matches_ideal_search_on_valid_sub_monoids(source):
    valid = [(keep, sub) for keep, sub in sub_monoids(source)[1] if validate_crm(sub).ok]
    assert valid
    for keep, sub in valid:
        assert sorted(join_primes(sub)) == join_irreducibles_by_definition(sub), keep
        assert_completion_matches_oracle(sub, keep)


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_l_vee_matches_ideal_search_on_random_categories(tc):
    inst = Instance(tc=tc)
    assert validate_crm(inst.crm).ok
    assert_completion_matches_oracle(inst.crm)
    assert_s_filters_match_oracle(inst.crm)
    assert ideals_of_isometries_roundtrip(inst) == (True, None, "")
    assert isometries_of_ideals_roundtrip(inst) == (True, None, "")


@pytest.mark.parametrize("name", ["pair1", "pair2", "pair3", "cyclic2-monoid", "parity-pair2"])
def test_isometries_of_a_groupoid_form_an_inverse_monoid(name):
    tc = next(i.obj for i in etale_categories() if i.name == name)
    s, _ = pi_restriction_monoid(omega_object(tc).rqf)
    for a in range(s.n):
        inverses = [b for b in range(s.n)
                    if s.mul[s.mul[a, b], a] == a and s.mul[s.mul[b, a], b] == b]
        assert len(inverses) == 1, (a, inverses)
        b = inverses[0]
        assert s.star[a] == s.mul[b, a] and s.plus[a] == s.mul[a, b], a


def test_principal_ideals_are_the_partial_isometries(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    assert set(partial_isometries(lv.rqf)) == set(lv.principal.tolist())


def test_ideal_completion_of_trivial_monoid():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    lv = l_vee(s)
    assert lv.rqf.n == 1
    assert validate_rqf(lv.rqf).ok


def test_ideal_completion_of_frame_crm_is_the_frame():
    q = frame_as_quantale(chain_frame(5))
    s, carrier = pi_restriction_monoid(q)
    lv = l_vee(s)
    assert lv.rqf.n == 5
    iso = np.array([q.join_fold([carrier[x] for x in iter_bits(m)])
                    for m in ideal_masks(lv)[0]], dtype=np.int64)
    assert quantale_isomorphism_ok(iso, lv.rqf, q)


def test_isometries_of_ideals_roundtrip(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    s2, carrier2 = pi_restriction_monoid(lv.rqf)
    pos = {e: i for i, e in enumerate(carrier2)}
    iso = np.array([pos[int(lv.principal[x])] for x in range(s.n)], dtype=np.int64)
    assert sorted(iso.tolist()) == list(range(s2.n))
    assert validate_crm_morphism(iso, s, s2).ok
    assert preserves_finite_meets(iso, s, s2) == (True, None)


# ---------------------------------------------------------------------------
# proper and callitic morphisms

def test_identity_is_proper_and_callitic(i2):
    s, _, _ = i2
    ident = np.arange(s.n, dtype=np.int64)
    assert validate_crm_morphism(ident, s, s).ok
    assert is_proper(ident, s, s) == (True, None)
    assert is_callitic(ident, s, s) == (True, None)


def compatible_joins_oracle(theta, s, t):
    """The first compatible pair (a, b) of s, in row-major order, whose join
    theta does not send to the join of the images, by scalar crm_lub."""
    for a in range(s.n):
        for b in range(a, s.n):
            if not crm_compatible(s, a, b):
                continue
            j = crm_lub(s, (a, b))
            if j is None:
                continue
            tj = crm_lub(t, (int(theta[a]), int(theta[b])))
            if tj is None or tj != int(theta[j]):
                return (a, b)
    return None


def _compatible_joins_witness(theta, s, t):
    rep = validate_crm_morphism(theta, s, t)
    wits = [v.witness for v in rep.violations if v.law == "crm_morphism.compatible_joins"]
    return wits[0] if wits else None


@pytest.mark.parametrize("source", SUB_MONOID_SOURCES)
def test_compatible_joins_law_matches_oracle_on_sub_monoid_inclusions(source):
    s, subs = sub_monoids(source)
    failing = 0
    for keep, sub in subs:
        theta = np.array(keep, dtype=np.int64)
        wit = _compatible_joins_witness(theta, sub, s)
        assert wit == compatible_joins_oracle(theta, sub, s), keep
        failing += wit is not None
        ident = np.arange(sub.n, dtype=np.int64)
        assert _compatible_joins_witness(ident, sub, sub) is None
    if source in ("omega-path-category", "qframe-prod-3x3"):
        assert failing > 0


def test_inclusion_of_projection_part_is_not_proper(i2):
    s, _, _ = i2
    t = make_crm(2, [[True, True], [False, True]], [[0, 0], [0, 1]],
                 1, 0, [0, 1], [0, 1], [[0, 0], [0, 1]])
    incl = np.array([s.zero, s.unit], dtype=np.int64)
    assert validate_crm_morphism(incl, t, s).ok
    ok, wit = is_proper(incl, t, s)
    assert not ok
    # the witness element is not a join of elements below projections
    assert wit is not None


def test_proper_morphisms_hit_every_filter(i2):
    # with a proper map, every completely prime filter of the target meets
    # the image
    s, _, _ = i2
    for theta in enumerate_callitic_morphisms(s, s):
        image = set(int(x) for x in theta)
        for mask in s_filters_list(s):
            assert any(x in image for x in iter_bits(mask))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def theta_extension_well_defined(theta, s, t):
    """Every generating subset of an ideal gives the same extension value:
    exhaustive over all subsets of every ideal of the source."""
    theta = np.asarray(theta, dtype=np.int64)
    lv_src, lv_dst = l_vee(s), l_vee(t)
    ext = theta_extension(theta, lv_src, t)
    down_s = [downset_mask(s, i) for i in range(s.n)]
    jt_s = _partial_join_table(s)
    down_t = [downset_mask(t, i) for i in range(t.n)]
    jt_t = _partial_join_table(t)
    dst_index = ideal_masks(lv_dst)[1]
    for i, mask in enumerate(ideal_masks(lv_src)[0]):
        for dm in _submasks(mask):
            if _ideal_closure(s, dm, down_s, jt_s) != mask:
                continue
            image = mask_of(int(theta[x]) for x in iter_bits(dm))
            if dst_index[_ideal_closure(t, image, down_t, jt_t)] != int(ext[i]):
                return False, (i, dm)
    return True, None


def test_theta_extension_of_identity_is_identity(i2):
    s, _, _ = i2
    lv = l_vee(s)
    ident = np.arange(s.n, dtype=np.int64)
    ext = theta_extension(ident, lv, s)
    assert np.array_equal(ext, np.arange(lv.rqf.n))
    assert theta_extension_well_defined(ident, s, s) == (True, None)


def test_theta_extension_of_swap(i2):
    s, carrier, q = i2
    lv = l_vee(s)
    # the swap-induced automorphism of the partial bijection monoid
    om = omega_object(pair_groupoid(2))
    swap_cat = np.array([3, 2, 1, 0], dtype=np.int64)
    from framecat.functors import omega_morphism
    psi = omega_morphism(swap_cat, om, om)
    theta = np.array([carrier.index(int(psi[carrier[i]])) for i in range(s.n)],
                     dtype=np.int64)
    assert validate_crm_morphism(theta, s, s).ok
    assert is_callitic(theta, s, s) == (True, None)
    ext = theta_extension(theta, lv, s)
    assert validate_rqf_morphism_ok(ext, lv)
    assert not np.array_equal(ext, np.arange(lv.rqf.n))
    assert np.array_equal(ext[ext], np.arange(lv.rqf.n))
    assert theta_extension_well_defined(theta, s, s) == (True, None)


def validate_rqf_morphism_ok(ext, lv):
    from framecat.duality import validate_rqf_morphism
    return validate_rqf_morphism(ext, lv.rqf, lv.rqf).ok


def test_extension_restricted_to_principal_ideals_is_theta(i2):
    s, _, _ = i2
    lv = l_vee(s)
    for theta in enumerate_callitic_morphisms(s, s):
        ext = theta_extension(theta, lv, s)
        for x in range(s.n):
            assert ext[lv.principal[x]] == lv.principal[theta[x]]


# ---------------------------------------------------------------------------
# S-filters

def test_s_filters_of_partial_bijections(i2, pair2):
    s, _, _ = i2
    sf = s_filters(s)
    assert sf.n == 4
    assert find_category_isomorphism(sf.topcat.cat, pair2.cat) is not None


def s_filters_list_oracle(s):
    """The completely prime filters ↑g, g not the zero, by testing every
    compatible pair outside ↑g with scalar crm_compatible/crm_lub."""
    out = set()
    for g in range(s.n):
        if g == s.zero:
            continue
        mask = upset_mask(s, g)
        prime = all(not (crm_compatible(s, a, b) and crm_lub(s, (a, b)) is not None
                         and has_bit(mask, crm_lub(s, (a, b))))
                    for a in range(s.n) if not has_bit(mask, a)
                    for b in range(a, s.n) if not has_bit(mask, b))
        if prime:
            out.add(mask)
    return sorted(out)


def test_s_filters_match_oracle_on_corpus_crms():
    for inst in corpus_crms() + [negative_crm_fixture()]:
        assert s_filters_list(inst.obj) == s_filters_list_oracle(inst.obj), inst.name


@pytest.mark.parametrize("source", SUB_MONOID_SOURCES)
def test_s_filters_match_oracle_on_sub_monoids(source):
    for keep, sub in sub_monoids(source)[1]:
        assert s_filters_list(sub) == s_filters_list_oracle(sub), keep


def s_filters_oracle(s: CompleteRestrictionMonoid) -> FilterCategory:
    """The S-filter category by the definitions on whole member sets: d(A)
    and r(A) are the up-closures of {x* : x in A} and {x+ : x in A}, A.B
    that of {x.y : x in A, y in B}, the identities are the filters holding a
    projection, X_a is the set of filters holding a, and the generator of a
    filter is the member whose up-set it is."""
    filters = s_filters_list(s)
    index = {m: i for i, m in enumerate(filters)}
    nf = len(filters)
    up = [upset_mask(s, i) for i in range(s.n)]

    def up_close(mask: int) -> int:
        out = 0
        for x in iter_bits(mask):
            out |= up[x]
        return out

    def locate(mask: int, what: str) -> int:
        i = index.get(mask)
        if i is None:
            raise ValueError(f"{what} is not a completely prime S-filter")
        return i

    d_idx = np.array([locate(up_close(mask_of(int(s.star[x]) for x in iter_bits(m))), "d(A)")
                      for m in filters], dtype=np.int64)
    r_idx = np.array([locate(up_close(mask_of(int(s.plus[x]) for x in iter_bits(m))), "r(A)")
                      for m in filters], dtype=np.int64)
    proj_mask = mask_of(s.projections())
    identities = [k for k, m in enumerate(filters) if m & proj_mask]
    comp = np.full((nf, nf), UNDEF, dtype=np.int64)
    for i in range(nf):
        for j in range(nf):
            if d_idx[i] != r_idx[j]:
                continue
            prods = mask_of(int(s.mul[x, y])
                            for x in iter_bits(filters[i]) for y in iter_bits(filters[j]))
            comp[i, j] = locate(up_close(prods), "A.B")
    cat = make_category(nf, identities, d_idx, r_idx, comp_table=comp)
    base = [mask_of(k for k, f in enumerate(filters) if has_bit(f, a)) for a in range(s.n)]
    topology = topology_from_base(nf, base)
    generators = np.array([next(x for x in iter_bits(m) if up[x] == m) for m in filters],
                          dtype=np.int64)
    return FilterCategory(topcat=FiniteTopCategory(cat=cat, topology=topology),
                          generators=generators, members=bit_matrix(filters, s.n))


def assert_s_filters_match_oracle(s, where=None):
    fast, oracle = s_filters(s), s_filters_oracle(s)
    assert np.array_equal(fast.members, oracle.members), where
    assert np.array_equal(fast.generators, oracle.generators), where
    fast_cat, oracle_cat = fast.topcat.cat, oracle.topcat.cat
    for table in ("d", "r", "comp"):
        assert np.array_equal(getattr(fast_cat, table), getattr(oracle_cat, table)), (where, table)
    assert fast_cat.identity_mask == oracle_cat.identity_mask, where
    assert fast.topcat.topology.opens == oracle.topcat.topology.opens, where


@pytest.mark.parametrize("s", _corpus_crm_inputs())
def test_s_filter_category_matches_oracle_on_corpus(s):
    assert_s_filters_match_oracle(s)


@pytest.mark.parametrize("source", SUB_MONOID_SOURCES)
def test_s_filter_category_matches_oracle_on_valid_sub_monoids(source):
    valid = [(keep, sub) for keep, sub in sub_monoids(source)[1] if validate_crm(sub).ok]
    assert valid
    for keep, sub in valid:
        assert_s_filters_match_oracle(sub, keep)


def test_no_s_filters_on_the_trivial_monoid():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    assert s_filters_list(s) == []


def test_s_filter_bijection_with_ideal_filter_category(i2):
    s, _, _ = i2
    lv = l_vee(s)
    sf = s_filters(s)
    fc = c_object(lv.rqf)
    bij = s_filter_bijection(sf, lv)
    assert sorted(bij.tolist()) == list(range(fc.n))
    assert validate_covering_functor(bij, sf.topcat.cat, fc.topcat.cat).ok
    # opens correspond: X'_a maps onto the X-set of the principal ideal
    sf_x, fc_x = FilterMasks(sf).x_masks, FilterMasks(fc).x_masks
    for a in range(s.n):
        image = mask_of(int(bij[k]) for k in iter_bits(sf_x[a]))
        assert image == fc_x[lv.principal[a]]


def test_s_filter_d_r_transfer(i2):
    s, _, _ = i2
    lv = l_vee(s)
    sf = s_filters(s)
    fc = c_object(lv.rqf)
    bij = s_filter_bijection(sf, lv)
    for k in range(sf.n):
        # d of the lifted filter is the lift of d
        lifted_d = int(bij[sf.topcat.cat.d[k]])
        assert lifted_d == int(fc.topcat.cat.d[int(bij[k])])
        lifted_r = int(bij[sf.topcat.cat.r[k]])
        assert lifted_r == int(fc.topcat.cat.r[int(bij[k])])


def s_filter_bijection_by_ideals(sf, lv):
    """s_filter_bijection as it was: for each S-filter, the mask of the
    ideals meeting it, one ideal at a time."""
    fc = FilterMasks(c_object(lv.rqf))
    ideals = ideal_masks(lv)[0]
    out = np.zeros(sf.n, dtype=np.int64)
    for k, m in enumerate(FilterMasks(sf).members):
        members = mask_of(i for i, ideal in enumerate(ideals) if ideal & m)
        out[k] = fc.filter_of(members, "(A')^up")
    return out


def assert_s_filter_bijection_matches_oracle(s):
    lv = l_vee(s)
    assert (map_outcome(s_filter_bijection, s_filters(s), lv)
            == map_outcome(s_filter_bijection_by_ideals, s_filters(s), lv))


@pytest.mark.parametrize("name", [i.name for i in corpus_crms()])
def test_s_filter_bijection_matches_oracle_on_corpus_crms(name):
    s = next(i.obj for i in corpus_crms() if i.name == name)
    assert_s_filter_bijection_matches_oracle(s)
    assert_s_filter_bijection_matches_oracle(relabel_crm(s, reversed_labels(s.n)))


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_s_filter_bijection_matches_oracle_on_random_categories(tc):
    assert_s_filter_bijection_matches_oracle(pi_restriction_monoid(omega_object(tc).rqf)[0])


# ---------------------------------------------------------------------------
# l_vee, theta_extension and the X-set part of filter_category_correspondence
# against the bodies they had before the ideals were bool member rows: the
# closed ideals built as masks one generator step per element per down-set
# and sorted by (bit count, mask), the extension ORing the join-primes below
# each image as masks, and the X-set loop; on every S the suite builds
# L^vee on, its reversed relabelling and random categories

def closed_ideal_mask(below, d: int) -> int:
    """The member bitmask of the closed ideal whose join-primes are the set
    d: every x whose join-primes, below[x], lie in d."""
    return mask_of(x for x, bx in enumerate(below) if bx & ~d == 0)


def l_vee_listing_by_masks(s):
    """The ideals of l_vee as masks in its order, and the index of each
    principal ideal, as l_vee listed them before."""
    primes = join_primes(s)
    below = row_masks(s.leq[primes, :].T)  # below[x]: the join-primes <= x
    downs = [0]
    for k, g in enumerate(primes):
        strictly_below = below[g] & ~(1 << k)
        downs += [d | 1 << k for d in downs if strictly_below & ~d == 0]
    ideals = sorted((closed_ideal_mask(below, d) for d in downs),
                    key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(ideals)}
    return ideals, [index[downset_mask(s, x)] for x in range(s.n)]


def theta_extension_by_masks(theta, lv_src, t):
    theta = np.asarray(theta, dtype=np.int64)
    lv_dst = l_vee(t)
    below = row_masks(t.leq[join_primes(t), :].T)  # below[y]: the join-primes <= y
    index = ideal_masks(lv_dst)[1]
    out = np.zeros(lv_src.rqf.n, dtype=np.int64)
    for i, mask in enumerate(ideal_masks(lv_src)[0]):
        d = 0
        for x in iter_bits(mask):
            d |= below[int(theta[x])]
        out[i] = index[closed_ideal_mask(below, d)]
    return out


def filter_category_correspondence_by_loop(inst):
    s, lv = inst.crm, inst.lv
    sf, fc = s_filters(s), c_object(lv.rqf)
    bij = s_filter_bijection(sf, lv)
    if sorted(bij.tolist()) != list(range(fc.n)):
        return False, (sf.n, fc.n), "filter map not bijective"
    rep = validate_covering_functor(bij, sf.topcat.cat, fc.topcat.cat)
    if not rep.ok:
        return False, rep.violations[0].witness, "not a functor isomorphism"
    sf_x, fc_x = FilterMasks(sf).x_masks, FilterMasks(fc).x_masks
    for a in range(s.n):
        lhs = mask_of(int(bij[k]) for k in iter_bits(sf_x[a]))
        if lhs != fc_x[int(lv.principal[a])]:
            return False, (a,), "X-set correspondence fails"
    return True, None, ""


def assert_ideal_bodies_match_masks(s):
    """l_vee against its listing; theta_extension on the identity, the
    relabelling s -> s' that renames element a reversed[a] and its inverse,
    and on the one-value perturbations of each at its first 8 elements;
    the correspondence on s, on s', and with the principal ideals rotated
    by one or with the last two swapped, which breaks the X-set
    correspondence only (at the first element, or at the last but one)."""
    perm = reversed_labels(s.n)
    s2 = relabel_crm(s, perm)
    lv, lv2 = l_vee(s), l_vee(s2)
    for t, lv_t in ((s, lv), (s2, lv2)):
        assert (ideal_masks(lv_t)[0], lv_t.principal.tolist()) == l_vee_listing_by_masks(t)
    for theta, src, dst in ((np.arange(s.n), lv, s), (perm, lv, s2),
                            (np.argsort(perm), lv2, s)):
        for m in (theta, *one_value_perturbations(theta, s.n, range(min(s.n, 8)))):
            assert (theta_extension(m, src, dst).tolist()
                    == theta_extension_by_masks(m, src, dst).tolist()), m.tolist()
    for t, lv_t in ((s, lv), (s2, lv2)):
        swapped = np.concatenate([lv_t.principal[:-2], lv_t.principal[-2:][::-1]])
        for principal in (lv_t.principal, np.roll(lv_t.principal, 1), swapped):
            inst = SimpleNamespace(crm=t, lv=dataclasses.replace(lv_t, principal=principal),
                                   max_elements=MAX_TABLE_SIDE)
            assert (filter_category_correspondence(inst)
                    == filter_category_correspondence_by_loop(inst))
        assert filter_category_correspondence(
            SimpleNamespace(crm=t, lv=lv_t, max_elements=MAX_TABLE_SIDE)) == (True, None, "")


@pytest.mark.parametrize("s", _corpus_crm_inputs())
def test_ideal_bodies_match_masks_on_corpus(s):
    assert_ideal_bodies_match_masks(s)


@settings(max_examples=60, deadline=None)
@given(small_categories())
def test_ideal_bodies_match_masks_on_random_categories(tc):
    assert_ideal_bodies_match_masks(Instance(tc=tc).crm)


# ---------------------------------------------------------------------------
# the second adjunction

def test_adjunction_II_on_pair2(i2, pair2):
    s, _, _ = i2
    adj2 = verify_adjunction_II(pair2, s)
    assert adj2.ok, adj2.failures
    assert adj2.sizes == (2, 2)


def test_adjunction_II_sizes_match_translated_pair(i2, pair2):
    s, _, _ = i2
    lv = l_vee(s)
    adj1 = verify_adjunction_I(pair2, lv.rqf)
    adj2 = verify_adjunction_II(pair2, s)
    assert adj1.sizes == adj2.sizes


def test_adjunction_II_degenerate():
    from framecat.corpus import empty_category
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    adj = verify_adjunction_II(empty_category(), s)
    assert adj.ok
    assert adj.sizes == (1, 1)


def _adjunction_key(adj):
    return (adj.ok, adj.failures, [f.tobytes() for f in adj.functor_homset],
            [m.tobytes() for m in adj.morphism_homset])


def test_suite_adjunction_II_check_reuses_the_instance_builds(pair2, monkeypatch):
    """Once Omega(C) and the open local bisections are cached on C, PI on
    Omega(C), L^vee and the down-sets of J(S) on PI, and the two filter
    categories on their algebras, the check builds none of them again:
    neither Omega, the bisections, PI, L^vee nor the down-sets is built,
    and functors.filter_category, which makes both filter categories, is
    not called."""
    from framecat import crm, functors, suite
    inst = suite.Instance(tc=pair2)
    inst.omega, inst.pi, inst.lv  # built before the check runs
    s_filters(inst.crm), c_object(inst.lv.rqf)
    without_builds = verify_adjunction_II(pair2, inst.crm)

    calls = []
    for module, name in ((functors, "_omega_discrete"), (functors, "_omega_generic"),
                         (crm, "_bisection_monoid"),
                         (crm, "_pi_restriction_monoid"), (crm, "_l_vee"), (crm, "_down_sets"),
                         (functors, "filter_category"),
                         (crm, "filter_category")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    reports = []

    def recorded(*args, **kwargs):
        reports.append(verify_adjunction_II(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(suite, "verify_adjunction_II", recorded)

    assert suite.adjunction_II_translated(inst) == (True, None, "homset sizes (2, 2)")
    assert calls == []
    assert len(reports) == 1
    assert _adjunction_key(reports[0]) == _adjunction_key(without_builds)


def test_callitic_enumeration_on_semilattice_monoid():
    om = omega_object(semilattice_monoid_category())
    s, _ = pi_restriction_monoid(om.rqf)
    morphs = enumerate_callitic_morphisms(s, s)
    assert len(morphs) >= 1
    for theta in morphs:
        assert validate_crm_morphism(theta, s, s).ok
        assert is_callitic(theta, s, s)[0]


# ---------------------------------------------------------------------------
# the second adjunction's transposes against the bodies they had before they
# were array maps over the open local bisections: the element-by-element
# closures of verify_adjunction_II, and the ones that read the columns of a
# bit matrix back as Python int masks, both on PI(Omega(C)) with its carrier

def transpose_forward_II_oracle(alpha, tc, s, sf, om, carrier):
    pos = {e: i for i, e in enumerate(carrier)}
    filters = FilterMasks(sf).members
    index = open_index(om)
    theta = np.zeros(s.n, dtype=np.int64)
    for a in range(s.n):
        open_mask = mask_of(c for c in range(tc.n)
                            if has_bit(filters[int(alpha[c])], a))
        i = index.get(open_mask)
        if i is None or i not in pos:
            return None
        theta[a] = pos[i]
    return theta


def transpose_backward_II_oracle(theta, tc, s, sf, om, carrier):
    index = FilterMasks(sf).index
    alpha = np.zeros(tc.n, dtype=np.int64)
    for c in range(tc.n):
        members = mask_of(a for a in range(s.n)
                          if has_bit(om.opens[carrier[int(theta[a])]], c))
        k = index.get(members)
        if k is None:
            return None
        alpha[c] = k
    return alpha


def transpose_forward_II_bit_matrix(alpha, tc, s, sf, om, carrier):
    n = s.n
    members = bit_matrix(FilterMasks(sf).members, n)
    pos = np.full(om.n + 1, -1, dtype=np.int64)
    pos[carrier] = np.arange(len(carrier))
    index = open_index(om)
    theta = np.zeros(n, dtype=np.int64)
    for a, open_mask in enumerate(row_masks(members[np.asarray(alpha, dtype=np.int64)].T)):
        i = index.get(open_mask)
        if i is None or pos[i] < 0:
            return None
        theta[a] = pos[i]
    return theta


def transpose_backward_II_bit_matrix(theta, tc, s, sf, om, carrier):
    opens = [om.opens[carrier[e]] for e in np.asarray(theta, dtype=np.int64).tolist()]
    index = FilterMasks(sf).index
    alpha = np.zeros(tc.n, dtype=np.int64)
    for c, members in enumerate(row_masks(bit_matrix(opens, tc.n).T)):
        k = index.get(members)
        if k is None:
            return None
        alpha[c] = k
    return alpha


def assert_same_monoid(a, b):
    assert (a.n, a.unit, a.zero) == (b.n, b.unit, b.zero)
    for table in ("leq", "mul", "star", "plus", "meet"):
        assert np.array_equal(getattr(a, table), getattr(b, table)), table


def adjunction_II_transposes(tc, s):
    """forward, its oracles, backward, its oracles, each taking the map
    alone, and the S-filter category and the monoid of open local
    bisections, which is PI(Omega(C)) with its carrier's opens as masks."""
    sf = s_filters(s)
    om = omega_object(tc)
    t, carrier = pi_restriction_monoid(om.rqf)
    bis = bisection_monoid(tc)
    assert list(bis.masks) == [om.opens[c] for c in carrier]
    assert_same_monoid(bis.crm, t)
    forward, backward = map(one_map, transposes(sf, bis))
    return (forward,
            [lambda m, body=body: body(m, tc, s, sf, om, carrier)
             for body in (transpose_forward_II_oracle, transpose_forward_II_bit_matrix)],
            backward,
            [lambda m, body=body: body(m, tc, s, sf, om, carrier)
             for body in (transpose_backward_II_oracle, transpose_backward_II_bit_matrix)]), sf, t


def assert_transposes_II_match_oracles(tc, s):
    transposes, sf, t = adjunction_II_transposes(tc, s)
    functors = enumerate_covering_functors(tc, sf.topcat)
    morphisms = enumerate_callitic_morphisms(s, t, max_elements=1024)
    assert_transposes_match_oracles(*transposes, functors, morphisms, sf.n, t.n)
    return len(functors), len(morphisms)


# ---------------------------------------------------------------------------
# PI(Omega(C)) read off C: bisection_monoid against pi_restriction_monoid
# and pi_join_table of a built Omega(C), carrier masks included

def pi_join_table(q, carrier):
    """The partial join table (_partial_join_table) of PI(Q), whose element
    i is carrier[i], read off the join table of Q at the carrier positions:
    -1 where the join in Q is not a partial isometry.  Exact when the
    carrier is an order ideal, as PI(Q) is: a common upper bound of a and b
    in it lies above a v b, which is then in it and is their least upper
    bound there.  adjunction II read its target's joins this way before it
    read PI(Omega(C)) off C."""
    return positions(q.n, carrier)[q.join[np.ix_(carrier, carrier)]]


def assert_bisection_monoid_is_pi_of_omega(tc):
    om = omega_object(tc)
    t, carrier = pi_restriction_monoid(om.rqf)
    bis = bisection_monoid(tc)
    assert list(bis.masks) == [om.opens[c] for c in carrier]
    assert row_masks(bis.members) == list(bis.masks)
    assert_same_monoid(bis.crm, t)
    # the union table bisection_monoid puts into the cache of its monoid
    joins = _partial_join_table(bis.crm)
    assert np.array_equal(joins, pi_join_table(om.rqf, carrier))
    assert np.array_equal(joins, _partial_join_table(dataclasses.replace(bis.crm)))


def wide_categories():
    """C(Q) of qframe-chain64 (63 arrows, one word) and of the frame of a
    100-chain (99 arrows, two words), both with a listed topology."""
    q64 = next(i.obj for i in corpus_rqfs() if i.name == "qframe-chain64")
    return [c_object(q).topcat for q in (q64, frame_as_quantale(chain_frame(100)))]


@pytest.mark.parametrize("name", [i.name for i in etale_categories()])
def test_bisection_monoid_is_pi_of_omega_on_corpus(name):
    tc = next(i.obj for i in etale_categories() if i.name == name)
    assert_bisection_monoid_is_pi_of_omega(tc)
    rng = np.random.default_rng(tc.n)
    for _ in range(3):
        assert_bisection_monoid_is_pi_of_omega(relabel(tc, rng.permutation(tc.n)))


def test_bisection_monoid_is_pi_of_omega_on_wide_categories():
    for tc in wide_categories():
        assert_bisection_monoid_is_pi_of_omega(tc)


@settings(max_examples=60, deadline=None)
@given(small_categories(), st.randoms())
def test_bisection_monoid_is_pi_of_omega_on_random_categories(tc, rnd):
    assert_bisection_monoid_is_pi_of_omega(tc)
    perm = list(range(tc.n))
    rnd.shuffle(perm)
    assert_bisection_monoid_is_pi_of_omega(relabel(tc, perm))


def test_adjunction_II_raises_what_omega_raises():
    """A category that is not etale is refused by Omega(C), by its
    bisection monoid and by adjunction II alike.  The bound on the opens is
    Omega(C)'s only: the 2048 opens of two objects joined by nine arrows
    are refused under a bound of 1024, and hold 13 bisections, which both
    build under it."""
    from framecat.corpus import indiscrete_pair_groupoid
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    kinds = []
    # not etale; etale; etale with 2048 opens
    for tc in (indiscrete_pair_groupoid(), monoid_category([[0]]),
               free_category_on_acyclic_graph(2, [(0, 1)] * 9)):
        outcomes = []
        for build in (omega_object, bisection_monoid,
                      lambda tc, bound: verify_adjunction_II(tc, s, max_elements=bound)):
            try:
                build(tc, 1024)
                outcomes.append(None)
            except (ValueError, BoundExceeded) as e:
                outcomes.append((type(e), str(e)))
        kinds.append([outcome and outcome[0] for outcome in outcomes])
        if outcomes[0] is None or outcomes[0][0] is ValueError:
            assert outcomes[0] == outcomes[1] == outcomes[2], outcomes
    assert kinds == [[ValueError] * 3, [None] * 3, [BoundExceeded, None, None]]


def test_adjunction_II_builds_the_bisection_monoid_under_the_callers_bound():
    """The bisection monoid, the target of the callitic search, is bounded
    by the max_elements the caller passes: the 2048 opens of two objects
    joined by nine arrows hold 13 bisections, and the 21 discrete arrows of
    two objects joined by nineteen hold 23.  One fewer allowed is refused."""
    s, _ = pi_restriction_monoid(omega_object(pair_groupoid(1)).rqf)
    for arrows, bisections in ((9, 13), (19, 23)):
        tc = free_category_on_acyclic_graph(2, [(0, 1)] * arrows)
        adj = verify_adjunction_II(tc, s, max_arrows=tc.n, max_elements=bisections)
        assert bisection_monoid(tc).crm.n == bisections
        assert adj.ok and adj.sizes == (0, 0)
        with pytest.raises(BoundExceeded, match=f"^C has {bisections} open local bisections "
                                                f"> max_elements={bisections - 1}$"):
            verify_adjunction_II(tc, s, max_arrows=tc.n, max_elements=bisections - 1)


def test_adjunction_II_refuses_the_bisections_past_the_bound_before_any_search(
        pair3, omega_pair3, monkeypatch):
    """pair3 has 34 open local bisections: 33 allowed is refused before
    either hom-set is searched, on the first call and on a cached monoid."""
    def no_search(*args):
        raise AssertionError("hom-set searched past the bound")

    s, _ = pi_restriction_monoid(omega_pair3.rqf)
    monkeypatch.setattr(crm, "enumerate_covering_functors", no_search)
    monkeypatch.setattr(crm, "enumerate_callitic_morphisms", no_search)
    for _ in range(2):
        with pytest.raises(BoundExceeded, match=" 34 open local bisections > max_elements=33$"):
            verify_adjunction_II(pair3, s, max_elements=33)
    assert bisection_monoid(pair3, max_elements=34).crm.n == 34


def test_discrete_bisections_are_counted_against_the_bound_as_they_grow(monkeypatch):
    """A discrete category of twelve identities has 4096 local bisections:
    a bound of 100 is passed at the seventh identity, before the rest are
    listed."""
    c = make_category(12, range(12), range(12), range(12), [(a, a, a) for a in range(12)])
    tc = FiniteTopCategory(c, Topology(12, None))
    grown = []
    real = topcat.require_at_most
    monkeypatch.setattr(topcat, "require_at_most",
                        lambda count, bound, what: grown.append(count) or real(count, bound, what))
    with pytest.raises(BoundExceeded, match="^C has at least 128 open local bisections > "
                                            "max_elements=100$"):
        bisection_monoid(tc, max_elements=100)
    assert grown == [1, 2, 4, 8, 16, 32, 64, 128]


@pytest.mark.parametrize("name2,tc2", small_corpus_categories())
def test_transposes_II_match_oracles_on_small_corpus_pairs(name2, tc2):
    s, _ = pi_restriction_monoid(omega_object(tc2).rqf)
    for name1, tc1 in small_corpus_categories():
        assert_transposes_II_match_oracles(tc1, s)


def test_transposes_II_match_oracles_on_pair3(pair3):
    s, _ = pi_restriction_monoid(omega_object(pair3).rqf)
    assert assert_transposes_II_match_oracles(pair3, s) == (6, 6)


def test_transposes_II_match_oracles_on_an_empty_s_filter_category():
    s = make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])
    assert s_filters(s).n == 0
    assert assert_transposes_II_match_oracles(empty_category(), s) == (1, 1)
    # one arrow, no S-filter to send it to
    (forward, forward_oracles, backward, backward_oracles), _, t = \
        adjunction_II_transposes(monoid_category([[0]]), s)
    alpha = np.zeros(1, dtype=np.int64)
    for oracle in forward_oracles:
        assert map_outcome(forward, alpha) == map_outcome(oracle, alpha) == ("IndexError",)
    for e in range(t.n):
        theta = np.array([e], dtype=np.int64)
        for oracle in backward_oracles:
            assert map_outcome(backward, theta) == map_outcome(oracle, theta) is None


# ---------------------------------------------------------------------------
# _partial_join_table, the partial joins of PI read off Q (pi_join_table)
# and is_proper against the bodies they had before they worked on whole
# arrays

def partial_join_table_oracle(s):
    """As in crm_lub, the least upper bound is the first common upper bound
    u with u <= v for every common upper bound v.  Row a takes one matrix
    product: counts[b, u] is the number of common upper bounds v of a and b
    with not u <= v."""
    above = s.leq.astype(np.float32)               # above[x, u] = x <= u
    not_below = (~s.leq).T.astype(np.float32)      # not_below[v, u] = not u <= v
    join_table = np.full((s.n, s.n), -1, dtype=np.int64)
    for a in range(s.n):
        common = above * above[a]                  # common[b, u] = a, b <= u
        least = (common > 0) & (common @ not_below == 0)
        found = least.any(axis=1)
        join_table[a, found] = least[found].argmax(axis=1)
    return join_table


def is_proper_oracle(theta, s, t):
    """Every element of the target is a join of elements below image elements."""
    theta = np.asarray(theta, dtype=np.int64)
    below_image = np.zeros(t.n, dtype=bool)
    for a in range(s.n):
        below_image |= t.leq[:, int(theta[a])]
    for x in range(t.n):
        gens = [int(g) for g in np.flatnonzero(below_image & t.leq[:, x])]
        if crm_lub(t, gens or [t.zero]) != x:
            return False, (x,)
    return True, None


def pi_of_corpus_categories():
    """(name, Omega(C), PI(Omega(C)), its carrier) for every corpus category."""
    out = []
    for inst in etale_categories():
        om = omega_object(inst.obj, max_elements=1024)
        t, carrier = pi_restriction_monoid(om.rqf)
        out.append((inst.name, om, t, carrier))
    return out


def test_partial_join_table_matches_oracle_on_corpus():
    monoids = [(i.name, i.obj) for i in corpus_crms()]
    monoids += [(f"pi-omega-{name}", t) for name, _, t, _ in pi_of_corpus_categories()]
    for name, s in monoids:
        assert np.array_equal(_partial_join_table(s), partial_join_table_oracle(s)), name


@settings(max_examples=40, deadline=None)
@given(small_categories())
def test_partial_join_table_matches_oracle_on_random_categories(tc):
    s, _ = pi_restriction_monoid(omega_object(tc).rqf)
    assert np.array_equal(_partial_join_table(s), partial_join_table_oracle(s))


def test_partial_join_table_on_blocks_of_rows(monkeypatch):
    """Blocks of one and of three rows give the table of one block."""
    s, _ = pi_restriction_monoid(omega_object(pair_groupoid(3)).rqf)
    whole = _partial_join_table(s)
    for rows in (1, 3):
        monkeypatch.setattr(crm, "JOIN_BLOCK_CELLS", rows * s.n * s.n)
        assert np.array_equal(_partial_join_table(dataclasses.replace(s)), whole), rows


def test_pi_join_table_is_the_partial_join_table_on_corpus():
    for name, om, t, carrier in pi_of_corpus_categories():
        assert np.array_equal(pi_join_table(om.rqf, carrier), _partial_join_table(t)), name


def proper_homsets():
    """(s, t, the callitic hom-set s -> t): PI(Omega(C2)) -> PI(Omega(C1))
    for the small corpus categories, and PI(Omega(pair3)) to itself."""
    monoids = [pi_restriction_monoid(omega_object(tc).rqf)[0]
               for _, tc in small_corpus_categories()]
    out = [(s, t, enumerate_callitic_morphisms(s, t)) for s in monoids for t in monoids]
    s, _ = pi_restriction_monoid(omega_object(pair_groupoid(3)).rqf)
    return out + [(s, s, enumerate_callitic_morphisms(s, s))]


def test_is_proper_matches_oracle_on_homsets_and_perturbations():
    failing = 0
    for s, t, homset in proper_homsets():
        for theta in homset:
            assert is_proper(theta, s, t) == is_proper_oracle(theta, s, t) == (True, None)
            for bad in one_value_perturbations(theta, t.n):
                outcome = is_proper(bad, s, t)
                assert outcome == is_proper_oracle(bad, s, t), bad.tolist()
                failing += not outcome[0]
    assert failing > 0
