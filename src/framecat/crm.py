"""Complete restriction monoids, the translation to restriction quantal
frames, proper and callitic morphisms, S-filters and the second adjunction.

The second adjunction is built from the first: its callitic hom-set is
found by duality.generator_search over the join-primes J(S), its
transposes are duality.transposes over the member rows of the S-filters
and of the open local bisections of C, checked by duality.check_transposes,
and its S-filter category is read off J(S) by functors.filter_category, as
C(Q) is off J(Q), into the same functors.FilterCategory type.  What is
derived from a monoid (J(S), its partial and compatible joins, the
S-filter category, its search tables) and the bisection monoid of a
category are cached on their object (order.cached).
L^vee(S) holds its closed ideals as bool member rows, as the filter
categories hold their filters, so the extension of a callitic morphism
and the bijection of the S-filters with the filters of C(L^vee(S)) are
each one boolean product and one word lookup.

The target PI(Omega(C)) is read off C, without building Omega(C), and
cached on C (bisection_monoid): it is the monoid of the open local
bisections of C, with the set product, the d- and r-images as sets of
identities, intersection and inclusion, and the partial join that is the
union where the union is a bisection.  This is exact for an etale C.  An open U on
which d and r are injective is a partial isometry of Omega(C): every open
V <= U has V+.U = {u in U : r(u) in r(V)} = V and U.V* = V.  An open U
with d(u) = d(u') for arrows u != u' in U is not: C is etale, so u lies in
an open local bisection B inside U, and U.B* = {x in U : d(x) in d(B)}
holds u', which B does not; r likewise.  The partial isometries of the rqf
Omega(C) are closed under its operations, so their tables are those of
Omega(C) restricted: the product, star and plus, meet (intersection) and
order (inclusion), the identities as the unit and the empty set as the
zero.  The join of Omega(C), the union, is their join where it is a
partial isometry, and they have none elsewhere: they form an order ideal,
so a common upper bound among them lies above the union, which is then
one of them.  This is the finite case of Lawson & Lenz,
*Pseudogroups and their etale groupoids*, Adv. Math. 244 (2013), and of
Resende, *Etale groupoids and their quantales*, Adv. Math. 208 (2007).

The carrier stores the natural partial order explicitly.  Binary meets are
required: the filter and callitic definitions use them, and the partial
isometries of a quantal frame always have them (an order ideal in a frame).

validate_crm runs its layers in order, each only if those before it pass,
and names the first violation with a witness: the stored order is a partial
order; a monoid whose zero is the bottom and absorbs; the projections (the
elements below the unit) commute and are idempotent, star and plus land in
them and fix them, a.a* = a = a+.a, and star and plus are congruences; the
restriction identities f.a = a.(f.a)* and a.f = (a.f)+.a for projections f;
the order is the algebraic one, a <= b iff a = a+.b = b.a*; multiplication
is monotone and the meet table gives binary meets.  Each costs O(n^3).
The associativity, a.a* / a+.a / congruence and meet scans are those of
the quantale and order validators (quantale.associativity_scan and
star_plus_scan, and order.meet_scan), under the prefix crm.  The
restriction identities, which validate_rqf need not test (see quantale),
are scanned here alone (restriction_scan).

Completeness (every compatible set has a join, and multiplication
distributes over it; a ~ b iff a.b* = b.a* and b+.a = a+.b) is decided on
compatible pairs, over _compatible_join_table (n matrix products of side n)
and then O(P.n) vectorised work, O(P) memory, for P compatible pairs:
(i) every compatible pair x, y has a join j, else crm.compatible_join_missing
with the first such (x, y) in row-major order; (iii) for every c,
c.x v c.y = c.j and x.c v y.c = j.c, both joins existing, else
crm.mul_distributes_over_joins with (c, x, y) or (x, y, c): the first
failing pair, its first c, left before right.  Missing joins are looked
for first, so a monoid that breaks both laws is reported as a missing join.

The test is exact, given the earlier layers.  Elements below a common
upper bound u are compatible: a = u.a*, b = u.b*, a.b* = u.a*.b* = b.a*,
and dually.  So c.x, c.y <= c.j are compatible and their join is in the
table.  (i) and (iii) give (a v b)* = a* v b*: s = a v b has
s.(a* v b*) = s.a* v s.b* = s, so s* <= a* v b* <= s*; dually for plus.
So c ~ a and c ~ b give (a v b).c* = a.c* v b.c* = c.a* v c.b* = c.(a v b)*,
and dually, hence (a v b) ~ c: the lemma (ii) needs no test of its own.
By induction every finite compatible set has a join, and (iii) extends to
it; the empty join is the zero, checked with the monoid.  (Lawson, *Inverse
Semigroups*, 1998, ch. 1; Kudryavtseva & Lawson, *A perspective on
non-commutative frame theory*, Adv. Math. 311, 2017.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bits import MemberRows, bit_matrix, bool_product, row_lookup
from .duality import (AdjunctionReport, check_transposes, enumerate_covering_functors,
                      generator_search, positions, transposes)
from .functors import (FilterCategory, _require_open, arrow_set_tables, c_object,
                       family_tables, filter_category, require_etale)
from .order import FiniteLattice, FinitePoset, _freeze, cached, meet_scan, validate_poset
from .quantale import (EhresmannQuantale, associativity_scan, make_eq, partial_isometries,
                       star_plus_scan)
from .reports import MAX_ARROWS, MAX_TABLE_SIDE, InternalError, Report, require_at_most
from .topcat import FiniteTopCategory, Topology, bisection_rows


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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def projections(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.leq[:, self.unit])]


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


def validate_crm(s: CompleteRestrictionMonoid) -> Report:
    rep = Report(subject="crm")
    rep.layers_run.append("crm")
    n = s.n
    prep = validate_poset(FinitePoset.from_leq(s.leq))
    if not prep.ok:
        rep.extend(prep)
        return rep
    arange = np.arange(n)

    # monoid with zero
    associativity_scan(rep, "crm", s.mul)
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
    star_plus_scan(rep, "crm", s.mul, s.star, s.plus)
    restriction_scan(rep, s)
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

    meet_scan(rep, "crm", s.leq, s.meet)
    if not rep.ok:
        return rep

    # completeness, decided on compatible pairs (see the module docstring)
    joins = _compatible_join_table(s)
    xs, ys = np.nonzero(np.triu(_compatibility_matrix(s)))
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


def restriction_scan(rep: Report, s: CompleteRestrictionMonoid) -> None:
    """The law-by-law scan of the restriction identities f.a = a.(f.a)* and
    a.f = (a.f)+.a for the projections f and every element a.  At the
    first f that breaks one, star first: crm.restriction_identity_star with
    (f, a) or crm.restriction_identity_plus with (a, f), for the first such
    a.  O(|projections| n)."""
    mul, star, plus = s.mul, s.star, s.plus
    ident = np.arange(s.n)
    for f in s.projections():
        fa = mul[f, :]
        bad = np.flatnonzero(mul[ident, star[fa]] != fa)
        if bad.size:
            rep.add("crm.restriction_identity_star", (f, int(bad[0])))
            return
        af = mul[:, f]
        bad = np.flatnonzero(mul[plus[af], ident] != af)
        if bad.size:
            rep.add("crm.restriction_identity_plus", (int(bad[0]), f))
            return


# ---------------------------------------------------------------------------
# PI(Q) as a complete restriction monoid

def pi_restriction_monoid(q: EhresmannQuantale) -> tuple[CompleteRestrictionMonoid, list[int]]:
    """PI(Q): the partial isometries of a restriction quantal frame with the
    restricted operations, cached on q (`order.cached`), and a fresh carrier
    list mapping monoid index -> quantale element.  Raises ValueError naming
    the operation whose value leaves PI(Q), which a valid Q never does."""
    s, carrier = cached(q, "pi_restriction_monoid", lambda: _pi_restriction_monoid(q))
    return s, list(carrier)


def _pi_restriction_monoid(q: EhresmannQuantale) -> tuple[CompleteRestrictionMonoid, tuple]:
    carrier = partial_isometries(q)
    pos = positions(q.n, carrier)
    block = np.ix_(carrier, carrier)
    mul, meet = pos[q.mul[block]], pos[q.meet[block]]
    star, plus = pos[q.star[carrier]], pos[q.plus[carrier]]
    unit, zero = pos[q.unit], pos[q.bottom]
    for name, values in (("mul", mul), ("meet", meet), ("star", star), ("plus", plus),
                         ("unit", unit), ("bottom", zero)):
        if (values < 0).any():
            raise ValueError(f"{name} leaves the partial isometries")
    return make_crm(len(carrier), q.leq[block], mul, unit, zero, star, plus, meet), tuple(carrier)


# ---------------------------------------------------------------------------
# the ideal completion L-vee

@dataclass(frozen=True, eq=False)
class IdealCompletion:
    rqf: EhresmannQuantale
    members: np.ndarray    # members[i, x]: monoid element x is in ideal i, read-only
    principal: np.ndarray  # principal[x] = the element index of the ideal x-down, read-only


JOIN_BLOCK_CELLS = 1 << 22  # cells of the largest temporary of _partial_join_table


def _partial_join_table(s: CompleteRestrictionMonoid) -> np.ndarray:
    """join_table[a, b] = the least upper bound of a and b in the stored
    order, or -1 where it does not exist; the table is symmetric.  As in
    crm_lub, the tests' oracle (tests/map_oracles.py), that is the first
    common upper bound u with u <= v for every common upper bound v, for
    any relation leq.  Built once per monoid (`order.cached`), read-only;
    bisection_monoid puts in the union table it builds.

    u = a v b exactly when u is a common upper bound of a and b and as many
    common upper bounds lie above u as there are in all.  When leq is
    transitive, as on every monoid that passes validate_poset, everything
    above a common upper bound is one, so the first count is that of all
    elements above u, read once; otherwise it takes a matrix product.
    Whole-array work, one block of rows a at a time, so that no temporary
    has more than JOIN_BLOCK_CELLS cells."""
    def build() -> np.ndarray:
        n = s.n
        leq = s.leq.astype(np.float32)
        transitive = not ((leq @ leq > 0) & ~s.leq).any()
        up_count = s.leq.sum(axis=1)  # up_count[u] = the elements above u
        join_table = np.full((n, n), -1, dtype=np.int64)
        rows = max(1, JOIN_BLOCK_CELLS // max(1, n * n))
        for a0 in range(0, n, rows):
            common = s.leq[a0:a0 + rows, None, :] & s.leq[None, :, :]  # [a, b, u]: a, b <= u
            above = up_count if transitive else \
                (common.reshape(-1, n).astype(np.float32) @ leq.T).reshape(common.shape)
            least = common & (above == common.sum(axis=2)[..., None])
            found = least.any(axis=2)
            join_table[a0:a0 + rows][found] = least[found].argmax(axis=1)
        return _freeze(join_table)

    return cached(s, "partial_joins", build)


def _compatibility_matrix(s: CompleteRestrictionMonoid) -> np.ndarray:
    """comp[a, b] iff a ~ b, that is a.b* = b.a* and b+.a = a+.b."""
    ab = s.mul[:, s.star]    # ab[a, b] = a.b*
    pb = s.mul[s.plus, :].T  # pb[a, b] = b+.a
    return (ab == ab.T) & (pb == pb.T)


def _compatible_join_table(s: CompleteRestrictionMonoid) -> np.ndarray:
    """joins[a, b] = the join of the compatible pair a ~ b, or -1 where a and
    b are not compatible or have no least upper bound; symmetric.  Built
    once per monoid (`order.cached`), read-only."""
    return cached(s, "compatible_joins", lambda: _freeze(
        np.where(_compatibility_matrix(s), _partial_join_table(s), -1)))


def join_primes(s: CompleteRestrictionMonoid) -> list[int]:
    """J(S): the g other than the zero such that no compatible pair outside
    the up-set of g has its join inside it, ordered by down-set size, ties by
    index (a linear extension of the order).

    Complete primality over existing joins reduces to binary joins.  On an S
    that passes validate_crm the join-primes are the join-irreducibles: if j
    is join-irreducible and j <= x v y for a compatible pair, then
    j = (x v y).j* = x.j* v y.j*, so j = x.j* <= x or j = y.j* <= y.
    Built once per monoid (`order.cached`).
    """
    return list(cached(s, "join_primes", lambda: tuple(_join_primes(s))))


def _join_primes(s: CompleteRestrictionMonoid) -> list[int]:
    joins = _compatible_join_table(s)
    has_join = joins >= 0
    primes = []
    for g in range(s.n):
        up = s.leq[g, :]
        outside = ~up
        if g != s.zero and not (has_join & up[joins] & outside[:, None] & outside).any():
            primes.append(g)
    return sorted(primes, key=lambda g: int(s.leq[:, g].sum()))


def _down_sets(s: CompleteRestrictionMonoid, max_elements: int,
               what: str) -> tuple[np.ndarray, tuple]:
    """J(S) ordered by up-sets as member bitmasks (a lexsort on the columns
    from high to low), and the down-sets of J(S) as masks over that order,
    grown along join_primes(s), a linear extension: those whose last
    join-prime is g are those before that hold every join-prime below g,
    with g added.  Refused as they grow past max_elements
    (`reports.require_at_most`), so at most twice that many are listed."""
    primes = np.array(join_primes(s), dtype=np.int64)
    order = np.lexsort(s.leq[primes].T)
    bits = [1 << int(k) for k in np.argsort(order)]  # bits[l]: that of join-prime l
    downs = [0]  # the empty down-set
    require_at_most(1, max_elements, what)
    for last, bit in enumerate(bits):
        below = sum(bits[i] for i in np.flatnonzero(s.leq[primes[:last], primes[last]]))
        downs += [d | bit for d in downs if not below & ~d]
        require_at_most(len(downs), max_elements, what)
    return _freeze(primes[order]), tuple(downs)


def l_vee(s: CompleteRestrictionMonoid, max_elements: int = MAX_TABLE_SIDE) -> IdealCompletion:
    """The restriction quantal frame L^vee(S) of order-ideals of S closed
    under all existing joins, ordered by inclusion.  Precondition: S passes
    validate_crm; the CLI validates documents before building L^vee, and the
    suite builds it only on corpus monoids, which all pass.  Cached on S
    (`order.cached`), the bound checked on every call.

    Birkhoff (Davey & Priestley, Introduction to Lattices and Order, ch. 5):
    on a valid S every element is the join of the join-primes J(S) below it
    (see join_primes), so I -> I & J(S) maps the closed ideals onto the
    down-sets D of J(S), with inverse D -> {x : J(S) & down(x) <= D}.  The
    down-sets are listed once per monoid by _down_sets, refused as they grow
    past max_elements, before any table is allocated.  Their ideals are the
    rows of one boolean product, x being in I_D iff no join-prime below x
    lies outside D, sorted by size and then as member bitmasks (a lexsort
    on the columns from high to low).
    On down-sets, order, meet and join are inclusion, intersection and
    union; by distributivity I_D.I_E has the union of J(S) & down(j.k) over
    j in D and k in E, and I_D* (I_D+) that of J(S) & down(j*) (down(j+))
    over j in D.  So the tables are those of the down-sets as a family of
    sets of join-primes (functors.family_tables), with the product and the
    images given on J(S): g_l <= g_j.g_k, g_l <= g_j* and g_l <= g_j+.
    """
    primes, masks = cached(s, "down_sets", lambda: _down_sets(
        s, max_elements, "L^vee(S) has at least {} ideals"))
    require_at_most(len(masks), max_elements, "L^vee(S) has {} ideals")
    return cached(s, "l_vee", lambda: _l_vee(s, primes, masks))


def _l_vee(s: CompleteRestrictionMonoid, primes: np.ndarray, masks: tuple) -> IdealCompletion:
    downs = bit_matrix(masks, len(primes))
    below = s.leq[primes].T  # below[x, l]: the join-prime g_l is <= x
    members = ~bool_product(~downs, below.T)
    order = np.lexsort(np.vstack([members.T, members.sum(axis=1)]))
    members, downs = members[order], downs[order]
    j, k = np.nonzero(s.mul[np.ix_(primes, primes)] != s.zero)  # the pairs g_j.g_k > 0
    leq, meet, join, mul, star, plus = family_tables(
        downs, j, k, below[s.mul[primes[j], primes[k]]],
        below[s.star[primes]], below[s.plus[primes]])
    principal = row_lookup(downs)(below)
    lat = FiniteLattice(len(downs), _freeze(leq), _freeze(meet), _freeze(join), 0, len(downs) - 1)
    q = make_eq(lat, mul, int(principal[s.unit]), star, plus)
    return IdealCompletion(rqf=q, members=_freeze(members), principal=_freeze(principal))


# ---------------------------------------------------------------------------
# morphisms of complete restriction monoids

def validate_crm_morphism(theta, s: CompleteRestrictionMonoid,
                          t: CompleteRestrictionMonoid) -> Report:
    """Monoid + Ehresmann morphism preserving compatible (binary) joins.
    The compatible pairs of s with their joins (`_compatible_pairs`) and
    the partial join table of t are cached on them."""
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
    xs, ys, js = _compatible_pairs(s)
    bad = np.flatnonzero(_partial_join_table(t)[theta[xs], theta[ys]] != theta[js])
    if bad.size:
        rep.add("crm_morphism.compatible_joins", (int(xs[bad[0]]), int(ys[bad[0]])))
    return rep


def _compatible_pairs(s: CompleteRestrictionMonoid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compatible pairs (x, y) of s with x <= y as indices that have a
    join, row-major, as the arrays xs, ys and their joins js; built once
    per monoid (`order.cached`), read-only."""
    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        joins = _compatible_join_table(s)
        xs, ys = np.nonzero(np.triu(joins >= 0))
        return _freeze(xs), _freeze(ys), _freeze(joins[xs, ys])

    return cached(s, "compatible_pairs", build)


def is_proper(theta, s: CompleteRestrictionMonoid,
              t: CompleteRestrictionMonoid) -> tuple[bool, Optional[tuple[int]]]:
    """Every element of the target is a join of elements below image
    elements: for each x, the least upper bound of the elements below x
    and below some image (of the zero when there are none) is x; the
    witness is the first x that fails.  crm_lub, the tests' oracle
    (tests/map_oracles.py), reads it element by element.

    For all x at once, with G[x, g] for the generators g of x: the upper
    bounds of G[x] are the u with no g in G[x] outside down(u), and the
    least of them is the first upper bound u with no upper bound v outside
    up(u), each test one matrix product.  The float32 table of not g <= u
    is built once per target (`order.cached`), read-only."""
    theta = np.asarray(theta, dtype=np.int64)
    below_image = t.leq[:, theta].any(axis=1)
    gens = t.leq.T & below_image                        # [x, g]: g <= x, g below an image
    gens[~gens.any(axis=1), t.zero] = True
    not_leq = cached(t, "not_leq", lambda: _freeze((~t.leq).astype(np.float32)))  # [g, u]
    uppers = (gens.astype(np.float32) @ not_leq) == 0   # [x, u]: u bounds gens[x]
    least = uppers & ((uppers.astype(np.float32) @ not_leq.T) == 0)  # [x, u]
    lub = np.where(least.any(axis=1), least.argmax(axis=1), -1)
    bad = np.flatnonzero(lub != np.arange(t.n))
    if bad.size:
        return False, (int(bad[0]),)
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


def theta_extension(theta, lv_src: IdealCompletion, t: CompleteRestrictionMonoid) -> np.ndarray:
    """Extend a callitic morphism s -> t to the ideal completions, lv_src
    of s to l_vee(t): an ideal maps to the closed ideal generated by the
    images of its elements, whose join-primes are those below some image,
    one boolean product looked up among the join-prime columns of the
    ideals of l_vee(t); a miss, which l_vee never leaves, is InternalError."""
    theta = np.asarray(theta, dtype=np.int64)
    primes = join_primes(t)
    below = t.leq[primes][:, theta]  # [k, x]: join-prime k <= theta(x)
    out = row_lookup(l_vee(t).members[:, primes])(bool_product(lv_src.members, below.T))
    if (out < 0).any():
        raise InternalError("an image ideal is not an element of L^vee")
    return _freeze(out)


# ---------------------------------------------------------------------------
# S-filters and their category

def s_filters(s: CompleteRestrictionMonoid, max_elements: int = MAX_TABLE_SIDE) -> FilterCategory:
    """The category of completely prime S-filters with A.B = (AB)^up-in-S,
    topologized by the sets X_a of filters containing a given element a.

    A filter is closed upwards and under binary meets, hence principal, and
    the up-set of g is completely prime iff g is a join-prime: the filters
    are the up-sets of J(S) (join_primes).

    Precondition: S passes validate_crm; the CLI validates documents first,
    and the suite builds S-filters only on corpus monoids, which all pass.
    Then star, plus and mul are monotone, so d(up-g) = up-(g*), r(up-g) = up-(g+) and
    (up-g . up-h)^up = up-(g.h), and the category is read off the
    join-primes by functors.filter_category, ordered by their up-sets as
    member bitmasks, as _down_sets orders them.  The opens are the
    down-sets of J(S) (X_a that of the join-primes below a), the listing
    that l_vee reads too, made under max_elements.  Built once per monoid
    (`order.cached`); the bound is checked on every call."""
    gens, downs = cached(s, "down_sets", lambda: _down_sets(
        s, max_elements, "C(S) has at least {} opens"))
    require_at_most(len(downs), max_elements, "C(S) has {} opens")
    return cached(s, "s_filters", lambda: filter_category(
        s, gens, "completely prime S-filter", Topology(len(gens), frozenset(downs))))


def s_filter_bijection(sf: FilterCategory, lv: IdealCompletion) -> np.ndarray:
    """A' -> (A')^up-in-R: the R-filter of all ideals meeting A', for the
    S-filter category sf of the monoid of lv.  Returns the arrow map S-filter
    index -> C(L(S)) filter index: the rows of ideals meeting each A', one
    boolean product, looked up among the member rows of the filters of
    C(L(S)).  Raises ValueError if one of them is no such filter."""
    out = c_object(lv.rqf).find(bool_product(sf.members, lv.members.T))
    if (out < 0).any():
        raise ValueError("(A')^up is not a completely prime filter")
    return out


# ---------------------------------------------------------------------------
# PI(Omega(C)) read off C, and Adjunction Theorem II

@dataclass(frozen=True, eq=False)
class BisectionMonoid(MemberRows):
    """The complete restriction monoid of the open local bisections of an
    etale category, equal to PI(Omega(C)) (see the module docstring)."""
    crm: CompleteRestrictionMonoid
    masks: tuple           # masks[i] = the arrow bitmask of element i, ascending
    members: np.ndarray    # members[i, a]: arrow a is in element i


def bisection_monoid(tc: FiniteTopCategory, max_elements: int = MAX_TABLE_SIDE) -> BisectionMonoid:
    """The monoid of the open local bisections of tc (`topcat.bisection_rows`),
    in ascending mask order: the set product, the d- and r-images (as sets
    of identities), intersection and inclusion, the identities as the unit
    and the empty set as the zero.  Its tables are those of
    pi_restriction_monoid(omega_object(tc).rqf), element for element, and
    so is its partial join table, the union where it is a bisection, which
    goes into the monoid's cache (`_partial_join_table`), without building
    Omega(C).  Built once per category (`order.cached`).  On every call it
    raises ValueError for a category that is not etale
    (`functors.require_etale`) and BoundExceeded for more than
    max_elements bisections, counted before any table is built
    (`topcat.bisection_rows`)."""
    require_etale(tc)
    bis = cached(tc, "bisection_monoid", lambda: _bisection_monoid(tc, max_elements))
    require_at_most(bis.crm.n, max_elements, "C has {} open local bisections")
    return bis


def _bisection_monoid(tc: FiniteTopCategory, max_elements: int) -> BisectionMonoid:
    masks, members = bisection_rows(tc, max_elements)
    leq, meet, joins, mul, star, plus = arrow_set_tables(tc.cat, members)
    _require_open(("intersection",), meet)
    _require_open(("d-image", "r-image"), star, plus)
    _require_open(("product",), mul)
    s = make_crm(len(masks), leq, mul, masks.index(tc.cat.identity_mask), 0, star, plus, meet)
    cached(s, "partial_joins", lambda: _freeze(joins))
    return BisectionMonoid(crm=s, masks=tuple(masks), members=_freeze(members))


def enumerate_callitic_morphisms(s: CompleteRestrictionMonoid,
                                 t: CompleteRestrictionMonoid,
                                 max_elements: int = MAX_TABLE_SIDE) -> list[np.ndarray]:
    """All callitic morphisms s -> t, for s and t that pass validate_crm:
    the maps of duality.generator_search over the join-primes J(s), with
    every element of t as a candidate, that pass is_callitic (proper, and
    finite meets kept), the laws the search does not compile.

    No morphism is lost: every element of s is the compatible join of the
    join-primes below it (see l_vee), and a callitic morphism preserves
    compatible joins, so it is fixed by its values on J(s); it keeps the
    order, meets, mul, star, plus and the unit, every law the search
    compiles.

    None is added: every map found passes validate_crm_morphism.  A map
    found is theta(x) = the join in t of the theta(g) over the g <= x in
    J(s), every such join existing, and theta(g) is the image of g.  For a
    compatible set A of s with a join, the join-primes below the join are
    those below some a in A (join_primes), so theta(join A) = the join of
    the theta(a): a join of the joins of parts is the join of the whole,
    and in t the elements below a common upper bound are compatible, so
    every join met on the way exists.  With that:
    - compatible joins are kept, and the zero, the empty join;
    - mul: x.y is the join of the g.h over g <= x, h <= y in J(s), since
      mul distributes over compatible joins in s (validate_crm), so
      theta(x.y) is the join of the theta(g.h) = theta(g).theta(h), the
      law compiled on J(s) x J(s), which is theta(x).theta(y) by the same
      distributivity in t;
    - star and plus: (a v b)* = a* v b* in a valid monoid (see the module
      docstring), so theta(x*) is the join of the theta(g*) = theta(g)*,
      compiled on J(s), which is theta(x)*; plus likewise;
    - the unit is compiled."""
    require_at_most(s.n, max_elements, "S has {} elements")
    require_at_most(t.n, max_elements, "T has {} elements")
    return [_freeze(theta) for theta in generator_search(s, t) if is_callitic(theta, s, t)[0]]


def verify_adjunction_II(tc: FiniteTopCategory, s: CompleteRestrictionMonoid,
                         max_arrows: int = MAX_ARROWS, max_elements: int = MAX_TABLE_SIDE):
    """Hom-set bijection between continuous covering functors C -> C(S) and
    callitic morphisms S -> PI(Omega(C)), with the transposes inherited from
    the first adjunction through the monoid/quantal-frame translation:
    T(alpha)(s) = {c : s in alpha(c)} and B(theta)(c) = {s : c in theta(s)}
    (duality.transposes), checked by duality.check_transposes.  PI(Omega(C)) is
    read off C as its open local bisections (bisection_monoid, cached on C),
    so Omega(C) is never built.  More than max_arrows arrows of C, then
    more than max_arrows join-primes, the arrows of C(S), are refused
    before anything is built; then C(S) has at most 1 << max_arrows opens,
    its bound.  max_elements bounds the bisections, the search's target,
    before their tables are built (34 at pair3, against 512 opens), and
    then the elements of S.
    """
    rep = AdjunctionReport()
    require_at_most(tc.n, max_arrows, "C has {} arrows", name="max_arrows")
    require_at_most(len(join_primes(s)), max_arrows, "C(S) has {} arrows", name="max_arrows")
    sf = s_filters(s, 1 << max_arrows)
    bis = bisection_monoid(tc, max_elements)
    rep.functor_homset = enumerate_covering_functors(tc, sf.topcat, max_arrows)
    rep.morphism_homset = enumerate_callitic_morphisms(s, bis.crm, max_elements)
    check_transposes(rep, *transposes(sf, bis))
    return rep
