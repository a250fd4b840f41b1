"""Complete restriction monoids, the translation to restriction quantal
frames, proper and callitic morphisms, S-filters and the second adjunction.

The carrier of a complete restriction monoid stores the natural partial
order explicitly and the validator checks it against its algebraic form
a <= b iff a = a+.b = b.a*.  Binary meets are required: the filter and
callitic definitions use them, and the partial isometries of a quantal
frame always have them (they form an order ideal in a frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .bits import has_bit, iter_bits, mask_of
from .order import _freeze
from .quantale import EhresmannQuantale, partial_isometries
from .reports import BoundExceeded, Report
from .topcat import UNDEF, FiniteTopCategory, make_category, topology_from_base


@dataclass(frozen=True, eq=False)
class CompleteRestrictionMonoid:
    n: int
    leq: np.ndarray   # (n, n) bool
    mul: np.ndarray   # (n, n) int
    unit: int
    zero: int
    star: np.ndarray  # (n,) int
    plus: np.ndarray  # (n,) int
    meet: np.ndarray  # (n, n) int

    def projections(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.leq[:, self.unit])]

    def upset_mask(self, i: int) -> int:
        return mask_of(np.flatnonzero(self.leq[i, :]))

    def downset_mask(self, i: int) -> int:
        return mask_of(np.flatnonzero(self.leq[:, i]))


def make_crm(n, leq, mul, unit, zero, star, plus, meet) -> CompleteRestrictionMonoid:
    leq = np.array(leq, dtype=bool)
    mul = np.array(mul, dtype=np.int64)
    star = np.array(star, dtype=np.int64)
    plus = np.array(plus, dtype=np.int64)
    meet = np.array(meet, dtype=np.int64)
    for a in (leq, mul, star, plus, meet):
        a.flags.writeable = False
    return CompleteRestrictionMonoid(n, leq, mul, int(unit), int(zero), star, plus, meet)


def crm_compatible(s: CompleteRestrictionMonoid, a: int, b: int) -> bool:
    return bool(s.mul[a, s.star[b]] == s.mul[b, s.star[a]]
                and s.mul[s.plus[b], a] == s.mul[s.plus[a], b])


def crm_lub(s: CompleteRestrictionMonoid, elements: Iterable[int]) -> Optional[int]:
    """Least upper bound in the stored order, or None if it does not exist."""
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


def compatible_subsets(s: CompleteRestrictionMonoid, max_count: int = 200_000) -> list[int]:
    """All pairwise-compatible subsets, as element bitmasks, by DFS over the
    compatibility graph; raises BoundExceeded past max_count."""
    comp_mask = [mask_of(b for b in range(s.n) if crm_compatible(s, a, b))
                 for a in range(s.n)]
    out: list[int] = []

    def extend(mask: int, allowed: int, start: int) -> None:
        if len(out) > max_count:
            raise BoundExceeded(f"more than {max_count} compatible subsets")
        out.append(mask)
        m = allowed >> start
        for a in iter_bits(m << start):
            if a < start:
                continue
            extend(mask | (1 << a), allowed & comp_mask[a], a + 1)

    extend(0, (1 << s.n) - 1, 0)
    return out


def validate_crm(s: CompleteRestrictionMonoid, exact_limit: int = 40) -> Report:
    rep = Report(subject="crm")
    rep.layers_run.append("crm")
    n = s.n
    from .order import FinitePoset, validate_poset
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

    # completeness: every pairwise-compatible subset has a join and
    # multiplication distributes over such joins; exact below the limit,
    # pairs plus triples as a sampled guard above it
    if n <= exact_limit:
        try:
            subsets = compatible_subsets(s)
        except BoundExceeded:
            subsets = _pairs_and_triples(s)
    else:
        subsets = _pairs_and_triples(s)
    for mask in subsets:
        elems = list(iter_bits(mask))
        j = crm_lub(s, elems)
        if j is None:
            # shrink to a minimal joinless subset for the witness
            core = list(elems)
            for x in list(core):
                trial = [y for y in core if y != x]
                if trial and crm_lub(s, trial) is None:
                    core = trial
            rep.add("crm.compatible_join_missing", tuple(core))
            return rep
        for a in range(n):
            left = crm_lub(s, [int(s.mul[a, x]) for x in elems] or [s.zero])
            if left != int(s.mul[a, j]):
                rep.add("crm.mul_distributes_over_joins", (a,) + tuple(elems[:2]))
                return rep
            right = crm_lub(s, [int(s.mul[x, a]) for x in elems] or [s.zero])
            if right != int(s.mul[j, a]):
                rep.add("crm.mul_distributes_over_joins", tuple(elems[:2]) + (a,))
                return rep
    return rep


def _pairs_and_triples(s: CompleteRestrictionMonoid) -> list[int]:
    out = [0]
    for a in range(s.n):
        out.append(1 << a)
        for b in range(a + 1, s.n):
            if not crm_compatible(s, a, b):
                continue
            out.append((1 << a) | (1 << b))
            for c in range(b + 1, s.n):
                if crm_compatible(s, a, c) and crm_compatible(s, b, c):
                    out.append((1 << a) | (1 << b) | (1 << c))
    return out


# ---------------------------------------------------------------------------
# PI(Q) as a complete restriction monoid

def pi_restriction_monoid(q: EhresmannQuantale) -> tuple[CompleteRestrictionMonoid, list[int]]:
    """The partial isometries of a restriction quantal frame with the
    restricted operations; returns the monoid and the carrier list mapping
    monoid index -> quantale element."""
    carrier = sorted(partial_isometries(q))
    pos = {e: i for i, e in enumerate(carrier)}
    k = len(carrier)
    leq = np.zeros((k, k), dtype=bool)
    mul = np.zeros((k, k), dtype=np.int64)
    meet = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            leq[i, j] = q.leq[a, b]
            mul[i, j] = pos[int(q.mul[a, b])]
            meet[i, j] = pos[int(q.meet[a, b])]
    star = np.array([pos[int(q.star[a])] for a in carrier], dtype=np.int64)
    plus = np.array([pos[int(q.plus[a])] for a in carrier], dtype=np.int64)
    return make_crm(k, leq, mul, pos[q.unit], pos[q.bottom], star, plus, meet), carrier


# ---------------------------------------------------------------------------
# the ideal completion L-vee

@dataclass(frozen=True, eq=False)
class IdealCompletion:
    rqf: EhresmannQuantale
    ideals: tuple  # ideals[i] = bitmask over monoid elements
    index: dict   # bitmask -> element index
    source: CompleteRestrictionMonoid

    def principal(self, s: int) -> int:
        """Element index of the principal ideal s-down."""
        return self.index[self.source.downset_mask(s)]


def _partial_join_table(s: CompleteRestrictionMonoid) -> np.ndarray:
    """join_table[a, b] = the least upper bound of a and b in the stored
    order, or -1 where it does not exist; the table is symmetric."""
    join_table = np.full((s.n, s.n), -1, dtype=np.int64)
    for a in range(s.n):
        for b in range(a, s.n):
            j = crm_lub(s, (a, b))
            if j is not None:
                join_table[a, b] = join_table[b, a] = j
    return join_table


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


def l_vee(s: CompleteRestrictionMonoid, max_elements: int = 1024) -> IdealCompletion:
    """The restriction quantal frame of order-ideals of S closed under all
    existing joins, ordered by inclusion.

    The closed ideals form a closure system, so the lattice tables come from
    the containment order directly; the closure of a finite set is the
    lattice join of the principal ideals of its elements, which turns the
    ideal product (pointwise product, down-closure, join-closure) into a
    join-fold over products of maximal generators.
    """
    from .order import FiniteFrame, lattice_from_leq

    n = s.n
    down = [s.downset_mask(i) for i in range(n)]
    join_table = _partial_join_table(s)

    bottom_ideal = _ideal_closure(s, 0, down, join_table)
    ideals = {bottom_ideal}
    frontier = [bottom_ideal]
    while frontier:
        nxt = []
        for i_mask in frontier:
            for g in range(n):
                if has_bit(i_mask, g):
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
    frame = FiniteFrame(lat)
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

    from .quantale import make_eq

    q = make_eq(frame, mul, int(pid[s.unit]), star, plus)
    return IdealCompletion(rqf=q, ideals=tuple(ideal_list), index=index, source=s)


# ---------------------------------------------------------------------------
# morphisms of complete restriction monoids

def validate_crm_morphism(theta, s: CompleteRestrictionMonoid,
                          t: CompleteRestrictionMonoid) -> Report:
    """Monoid + Ehresmann morphism preserving compatible (binary) joins."""
    theta = np.asarray(theta, dtype=np.int64)
    rep = Report(subject="crm-morphism")
    rep.layers_run.append("crm-morphism")
    diff = theta[s.mul] != t.mul[np.ix_(theta, theta)]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("crm_morphism.semigroup", (int(a), int(b)))
    if theta[s.unit] != t.unit:
        rep.add("crm_morphism.unit", (s.unit,))
    if theta[s.zero] != t.zero:
        rep.add("crm_morphism.zero", (s.zero,))
    bad = np.flatnonzero(theta[s.star] != t.star[theta])
    if bad.size:
        rep.add("crm_morphism.star", (int(bad[0]),))
    bad = np.flatnonzero(theta[s.plus] != t.plus[theta])
    if bad.size:
        rep.add("crm_morphism.plus", (int(bad[0]),))
    for a in range(s.n):
        for b in range(a, s.n):
            if not crm_compatible(s, a, b):
                continue
            j = crm_lub(s, (a, b))
            if j is None:
                continue
            tj = crm_lub(t, (int(theta[a]), int(theta[b])))
            if tj is None or tj != int(theta[j]):
                rep.add("crm_morphism.compatible_joins", (a, b))
                return rep
    return rep


def is_proper(theta, s: CompleteRestrictionMonoid,
              t: CompleteRestrictionMonoid) -> tuple[bool, Optional[tuple[int]]]:
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


def preserves_finite_meets(theta, s: CompleteRestrictionMonoid,
                           t: CompleteRestrictionMonoid) -> tuple[bool, Optional[tuple]]:
    theta = np.asarray(theta, dtype=np.int64)
    diff = theta[s.meet] != t.meet[np.ix_(theta, theta)]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        return False, (int(a), int(b))
    return True, None


def is_callitic(theta, s: CompleteRestrictionMonoid,
                t: CompleteRestrictionMonoid) -> tuple[bool, Optional[tuple]]:
    ok, wit = is_proper(theta, s, t)
    if not ok:
        return False, wit
    return preserves_finite_meets(theta, s, t)


def theta_extension(theta, lv_src: IdealCompletion, lv_dst: IdealCompletion) -> np.ndarray:
    """Extend a callitic morphism to the ideal completions: an ideal maps to
    the closed ideal generated by the images of its elements."""
    theta = np.asarray(theta, dtype=np.int64)
    s, t = lv_src.source, lv_dst.source
    down = [t.downset_mask(i) for i in range(t.n)]
    join_table = _partial_join_table(t)
    out = np.zeros(lv_src.rqf.n, dtype=np.int64)
    for i, mask in enumerate(lv_src.ideals):
        image = mask_of(int(theta[x]) for x in iter_bits(mask))
        out[i] = lv_dst.index[_ideal_closure(t, image, down, join_table)]
    return _freeze(out)


def theta_extension_well_defined(theta, lv_src: IdealCompletion, lv_dst: IdealCompletion,
                                 exact_limit: int = 12) -> tuple[bool, Optional[tuple]]:
    """Different generating decompositions of the same ideal must give the
    same extension value; exhaustive over generating subsets when small."""
    theta = np.asarray(theta, dtype=np.int64)
    s, t = lv_src.source, lv_dst.source
    ext = theta_extension(theta, lv_src, lv_dst)
    down_s = [s.downset_mask(i) for i in range(s.n)]
    jt_s = _partial_join_table(s)
    down_t = [t.downset_mask(i) for i in range(t.n)]
    jt_t = _partial_join_table(t)
    for i, mask in enumerate(lv_src.ideals):
        elems = list(iter_bits(mask))
        if len(elems) > exact_limit:
            decomps = [mask, mask_of(x for x in elems
                                     if not any(s.leq[x, y] and x != y for y in elems))]
        else:
            decomps = [m for m in _submasks(mask)
                       if _ideal_closure(s, m, down_s, jt_s) == mask]
        for dm in decomps:
            image = mask_of(int(theta[x]) for x in iter_bits(dm))
            if lv_dst.index[_ideal_closure(t, image, down_t, jt_t)] != int(ext[i]):
                return False, (i, dm)
    return True, None


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# S-filters and their category

@dataclass(frozen=True, eq=False)
class SFilterCategory:
    topcat: FiniteTopCategory
    filters: tuple  # bitmasks over monoid elements
    index: dict
    d_idx: np.ndarray
    r_idx: np.ndarray
    source: CompleteRestrictionMonoid

    @property
    def n(self) -> int:
        return len(self.filters)

    def x_mask(self, a: int) -> int:
        return mask_of(k for k, f in enumerate(self.filters) if has_bit(f, a))


def s_filters_list(s: CompleteRestrictionMonoid) -> list[int]:
    """All completely prime filters of S, as member bitmasks.

    A filter is closed upwards and under binary meets, hence principal;
    complete primality over existing joins reduces to binary joins.
    """
    out = []
    for g in range(s.n):
        if g == s.zero:
            continue
        mask = s.upset_mask(g)
        prime = True
        for a in range(s.n):
            if has_bit(mask, a):
                continue
            for b in range(a, s.n):
                if has_bit(mask, b):
                    continue
                j = crm_lub(s, (a, b)) if crm_compatible(s, a, b) else None
                if j is not None and has_bit(mask, j):
                    prime = False
                    break
            if not prime:
                break
        if prime and mask not in out:
            out.append(mask)
    return sorted(set(out))


def s_filters(s: CompleteRestrictionMonoid, max_opens: int = 4096) -> SFilterCategory:
    """The category of completely prime S-filters with A.B = (AB)^up-in-S,
    topologized by the sets of filters containing a given element."""
    filters = s_filters_list(s)
    index = {m: i for i, m in enumerate(filters)}
    nf = len(filters)
    up = [s.upset_mask(i) for i in range(s.n)]

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
    cat = make_category(nf, identities, [int(x) for x in d_idx], [int(x) for x in r_idx],
                        comp_table=comp)
    base = [mask_of(k for k, f in enumerate(filters) if has_bit(f, a)) for a in range(s.n)]
    topology = topology_from_base(nf, base)
    if topology.open_count() > max_opens:
        raise BoundExceeded("S-filter topology too large")
    tc = FiniteTopCategory(cat=cat, topology=topology)
    return SFilterCategory(topcat=tc, filters=tuple(filters), index=index,
                           d_idx=_freeze(d_idx), r_idx=_freeze(r_idx), source=s)


def s_filter_bijection(sf: SFilterCategory, lv: IdealCompletion) -> np.ndarray:
    """A' -> (A')^up-in-R: the R-filter of all ideals meeting A'.
    Returns the arrow map S-filter index -> C(L(S)) filter index."""
    from .functors import c_object

    fc = c_object(lv.rqf)
    out = np.zeros(sf.n, dtype=np.int64)
    for k, m in enumerate(sf.filters):
        members = mask_of(i for i, ideal in enumerate(lv.ideals) if ideal & m)
        out[k] = fc.calc.filter_of(members, "(A')^up")
    return out


# ---------------------------------------------------------------------------
# Adjunction Theorem II, corpus-scale

def enumerate_callitic_morphisms(s: CompleteRestrictionMonoid,
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


def verify_adjunction_II(tc: FiniteTopCategory, s: CompleteRestrictionMonoid,
                         max_arrows: int = 12, max_elements: int = 64):
    """Hom-set bijection between continuous covering functors C -> C(S) and
    callitic morphisms S -> PI(Omega(C)), with the transposes inherited from
    the first adjunction through the monoid/quantal-frame translation:
    T(alpha)(s) = {c : s in alpha(c)} and B(theta)(c) = {s : c in theta(s)}.
    """
    from .duality import AdjunctionReport, enumerate_covering_functors
    from .functors import omega_object

    rep = AdjunctionReport()
    sf = s_filters(s)
    if sf.n > max_arrows:
        raise BoundExceeded(f"C(S) has {sf.n} arrows > {max_arrows}")
    om = omega_object(tc)
    t_crm, carrier = pi_restriction_monoid(om.rqf)
    pos = {e: i for i, e in enumerate(carrier)}

    rep.functor_homset = enumerate_covering_functors(tc, sf.topcat, max_arrows)
    rep.morphism_homset = enumerate_callitic_morphisms(s, t_crm, max_elements)

    def forward(alpha) -> Optional[np.ndarray]:
        theta = np.zeros(s.n, dtype=np.int64)
        for a in range(s.n):
            open_mask = mask_of(c for c in range(tc.n)
                                if has_bit(sf.filters[int(alpha[c])], a))
            i = om.index.get(open_mask)
            if i is None or i not in pos:
                return None
            theta[a] = pos[i]
        return theta

    def backward(theta) -> Optional[np.ndarray]:
        alpha = np.zeros(tc.n, dtype=np.int64)
        for c in range(tc.n):
            members = mask_of(a for a in range(s.n)
                              if has_bit(om.opens[carrier[int(theta[a])]], c))
            k = sf.index.get(members)
            if k is None:
                return None
            alpha[c] = k
        return alpha

    morph_keys = {m.tobytes(): i for i, m in enumerate(rep.morphism_homset)}
    func_keys = {f.tobytes(): i for i, f in enumerate(rep.functor_homset)}
    for i, alpha in enumerate(rep.functor_homset):
        theta = forward(alpha)
        if theta is None or theta.tobytes() not in morph_keys:
            rep.ok = False
            rep.failures.append(("forward_transpose_not_in_homset", i))
            continue
        back = backward(theta)
        if back is None or not np.array_equal(back, alpha):
            rep.ok = False
            rep.failures.append(("backward_of_forward_not_identity", i))
    for i, theta in enumerate(rep.morphism_homset):
        alpha = backward(theta)
        if alpha is None or alpha.tobytes() not in func_keys:
            rep.ok = False
            rep.failures.append(("backward_transpose_not_in_homset", i))
            continue
        forth = forward(alpha)
        if forth is None or not np.array_equal(forth, theta):
            rep.ok = False
            rep.failures.append(("forward_of_backward_not_identity", i))
    if len(rep.functor_homset) != len(rep.morphism_homset):
        rep.ok = False
        rep.failures.append(("homset_sizes_differ", rep.sizes))
    return rep
