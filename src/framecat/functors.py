"""The two contravariant constructions.

omega_object sends an etale topological category to the restriction quantal
frame of its open sets: multiplication is the pointwise product of opens,
star/plus collect d/r images, the unit is the identity set and the order is
inclusion.

c_object sends a restriction quantal frame Q to its category of completely
prime filters with the product A.B = (AB)^up, topologized by the sets X_a,
which the X_a of the partial isometries a generate.  It reads all of this
off the join-irreducible elements J of Q.  In a finite frame the completely prime filters are
exactly the principal up-sets up-j for j in J, so filter k is named by its
least member j_k.  Star, plus and multiplication are monotone, so the least
element of {x* : x in up-j} is j*, d(up-j) = up-(j*), r(up-j) = up-(j+),
and (up-j . up-k)^up = up-(j.k).  X_a is {k : j_k <= a}, a column of the
order.  C(Q) is thus a category on J, and the member sets of the filters
are never multiplied.  filter_category does this reading for any set of
generators and gives the one FilterCategory type, which holds the
filters as the bool rows leq[generators], column a being X_a: c_object
runs it on the least members of the completely prime filters of Q,
crm.s_filters on the join-primes of a complete restriction monoid, and
each is cached on its algebra.  This is the finite case of Resende's view
of an etale groupoid quantale as generated by its partial isometries
(Etale groupoids and their quantales, Adv. Math. 208, 2007).  The tests
keep a filter calculus that multiplies whole member sets as the oracle
for this reading.

Quantale elements of an omega result are indexed by their open set's arrow
bitmask in ascending order, so for discrete topologies index == mask and
the whole table construction vectorizes: _omega_discrete builds star, plus
and the products {u}.V by doubling, the masks in [2^j, 2^(j+1)) being those
below 2^j with arrow j added, and then mul one block of rows per arrow the
same way.  For any other topology _omega_generic runs family_tables, the
one table builder for a family of sets whose product, star and plus are
given on points (arrow_set_tables: the composites and the graphs of d and
r), as crm.bisection_monoid does on the open local bisections and
crm.l_vee on the down-sets of J(S); a result that is no open is an error.
An OmegaResult keeps the bool member rows of its opens, and a
FilterCategory those of its filters, each with the lookup of those rows
(`find`, built on first use and held by the object), so omega_morphism is
one gather of their columns and one lookup, and so is c_morphism on the
member rows of the filters; the transposes of both adjunctions
(duality.transposes) read both as they are.  Omega(C) is cached on its
category as C(Q) is on its quantale (`order.cached`), so it holds no
reference to C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import (MemberRows, bit_matrix, bool_product, full_mask, pack_words, row_blocks,
                   row_masks, word_lookup)
from .order import FiniteLattice, _freeze, cached, cp_filter_generators
from .quantale import EhresmannQuantale, make_eq, partial_isometries
from .reports import MAX_TABLE_SIDE, InternalError, require_at_most
from .topcat import (UNDEF, FiniteCategory, FiniteTopCategory, Topology,
                     is_etale, make_category)


# ---------------------------------------------------------------------------
# omega: etale category -> restriction quantal frame

@dataclass(frozen=True, eq=False)
class OmegaResult(MemberRows):
    rqf: EhresmannQuantale
    opens: tuple  # opens[i] = arrow bitmask of quantale element i, ascending
    members: np.ndarray  # members[i, a]: arrow a is in open i, read-only

    @property
    def n(self) -> int:
        return self.rqf.n


def omega_object(tc: FiniteTopCategory, max_elements: int = MAX_TABLE_SIDE) -> OmegaResult:
    """Omega(C), built once per category (`order.cached`).  On every call
    it raises what require_etale raises, then BoundExceeded for more than
    max_elements opens (`reports.require_at_most`), counted unlisted."""
    require_etale(tc)
    require_at_most(tc.topology.open_count(), max_elements, "Omega(C) has {} opens")
    build = _omega_discrete if tc.topology.is_discrete else _omega_generic
    return cached(tc, "omega_object", lambda: build(tc))


def require_etale(tc: FiniteTopCategory) -> None:
    """Raise ValueError naming the failed law unless tc is etale."""
    ok, law, wit = is_etale(tc)
    if not ok:
        raise ValueError(f"not etale: {law} witness open={wit}")


def _omega_discrete(tc: FiniteTopCategory) -> OmegaResult:
    cat = tc.cat
    k = cat.n
    nq = 1 << k
    masks = np.arange(nq, dtype=np.int64)
    meet = np.bitwise_and.outer(masks, masks)
    leq = meet == masks[:, None]
    join = np.bitwise_or.outer(masks, masks)
    frame = FiniteLattice(nq, _freeze(leq), _freeze(meet), _freeze(join),
                          bottom=0, top=nq - 1)

    # the masks in [2^j, 2^(j+1)) are those in [0, 2^j) with arrow j added:
    # single[u, V] = {u}.V, then mul[U, V] is the union of {u}.V over u in U,
    # built one block of whole rows per arrow
    comp = np.where(cat.comp == UNDEF, 0, np.left_shift(1, np.maximum(cat.comp, 0)))
    star = np.zeros(nq, dtype=np.int64)
    plus = np.zeros(nq, dtype=np.int64)
    single = np.zeros((k, nq), dtype=np.int64)
    mul = np.zeros((nq, nq), dtype=np.int64)
    for j in range(k):
        lo = 1 << j
        star[lo:2 * lo] = star[:lo] | 1 << int(cat.d[j])
        plus[lo:2 * lo] = plus[:lo] | 1 << int(cat.r[j])
        np.bitwise_or(single[:, :lo], comp[:, j:j + 1], out=single[:, lo:2 * lo])
    for j in range(k):
        lo = 1 << j
        np.bitwise_or(mul[:lo], single[j], out=mul[lo:2 * lo])

    q = make_eq(frame, mul, int(cat.identity_mask), star, plus)
    members = (masks[:, None] >> np.arange(k) & 1).astype(bool)
    return OmegaResult(rqf=q, opens=tuple(range(nq)), members=_freeze(members))


def _omega_generic(tc: FiniteTopCategory) -> OmegaResult:
    """Omega(C) for any topology: the tables of `arrow_set_tables` on the
    opens.  The first cell, in rows-first order, that is not an open raises
    ValueError, naming the intersection before the union, then the d-image
    before the r-image, then the product."""
    cat = tc.cat
    opens = sorted(tc.topology.opens)
    members = bit_matrix(opens, cat.n)
    leq, meet, join, mul, star, plus = arrow_set_tables(cat, members)
    _require_open(("intersection", "union"), meet, join)
    frame = FiniteLattice(len(opens), _freeze(leq), _freeze(meet), _freeze(join),
                          bottom=opens.index(0), top=opens.index(full_mask(cat.n)))
    _require_open(("d-image", "r-image"), star, plus)
    _require_open(("product",), mul)
    q = make_eq(frame, mul, opens.index(cat.identity_mask), star, plus)
    return OmegaResult(rqf=q, opens=tuple(opens), members=_freeze(members))


def arrow_set_tables(cat: FiniteCategory, member: np.ndarray) -> tuple[np.ndarray, ...]:
    """`family_tables` of the family of arrow sets with the bool rows
    member[i, a] (arrow a is in U_i), over the composable pairs u.v landing
    on their composites and the graphs of d and r."""
    arrows = np.arange(cat.n)
    u, v = np.nonzero(cat.comp != UNDEF)
    return family_tables(member, u, v, cat.comp[u, v, None] == arrows,
                         cat.d[:, None] == arrows, cat.r[:, None] == arrows)


def family_tables(member: np.ndarray, u: np.ndarray, v: np.ndarray, lands: np.ndarray,
                  star_of: np.ndarray, plus_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """leq, meet, join, mul, star and plus of the family of sets U_i of
    points 0..k-1 with the bool rows member[i, p] (p is in U_i): U_i <= U_j,
    and the index in the family of U_i & U_j, U_i | U_j, U_i.U_j, U_i* and
    U_i+, -1 where that set is not in it.  The product and the images are
    given on points and extended by unions: U.V holds w iff lands[t, w] for
    a pair t with u[t] in U and v[t] in V (the pairs in ascending order of
    u, as np.nonzero lists them), and U* (U+) holds w iff star_of[p, w]
    (plus_of[p, w]) for some p in U.

    On the words of `bits.pack_words`, & and | give intersection and union,
    and U_i <= U_j iff U_i & U_j = U_i.  {p}.V is a boolean product of
    member columns with the landing rows of the pairs from p, and U.V the OR
    of the words of {p}.V over p in U, one row block at a time.  Every
    result is mapped back to its set by `bits.word_lookup`."""
    nq, k = member.shape
    words = pack_words(member)
    find = word_lookup(words)
    starts = np.searchsorted(u, np.arange(k + 1))  # the pairs from p: starts[p]:starts[p + 1]
    single = np.empty((k, *words.shape), dtype=words.dtype)  # single[p, j] = {p}.U_j
    for p in range(k):
        pairs = slice(starts[p], starts[p + 1])
        single[p] = pack_words(bool_product(member[:, v[pairs]], lands[pairs]))
    meet, join, mul = (np.empty((nq, nq), dtype=np.int64) for _ in range(3))
    for rows in row_blocks(nq, 6 * nq * words.shape[1]):  # six temporaries of nq words a row
        a = words[rows, None]
        products = np.zeros((len(a), nq, words.shape[1]), dtype=words.dtype)
        for p in range(k):  # products[i, j] = the union of single[p, j] over p in U_i
            np.bitwise_or(products, single[p], out=products, where=member[rows, p, None, None])
        meet[rows] = find(a & words)
        join[rows] = find(a | words)
        mul[rows] = find(products)
    images = bool_product(member, np.concatenate([star_of, plus_of], axis=1))
    star, plus = find(pack_words(images.reshape(nq, 2, k))).T
    return meet == np.arange(nq)[:, None], meet, join, mul, star, plus


def _require_open(what: tuple, *tables: np.ndarray) -> None:
    """Raise for the first cell, in row-major order, at which one of the
    tables, all of one shape, holds no open (-1), naming the first such
    table there (what[t] for tables[t])."""
    if min(t.min(initial=0) for t in tables) < 0:
        missing = np.stack(tables, axis=-1) < 0
        cell = np.unravel_index(np.argmax(missing), missing.shape)
        raise ValueError(f"{what[cell[-1]]} is not open; category not etale as claimed")


def omega_morphism(fmap, om_src: OmegaResult, om_dst: OmegaResult) -> np.ndarray:
    """The element map Omega(D) -> Omega(C) induced by a continuous covering
    functor F: C -> D, sending an open U of D to its preimage in C: the
    member row of U read at F(a) for every arrow a of C, looked up among the
    member rows of the opens of C (`OmegaResult.find`)."""
    out = om_src.find(om_dst.members[:, np.asarray(fmap, dtype=np.int64)])
    bad = np.flatnonzero(out < 0)
    if bad.size:
        raise ValueError(f"preimage of open {om_dst.opens[bad[0]]} is not open; "
                         "functor not continuous")
    return _freeze(out)


# ---------------------------------------------------------------------------
# c: restriction quantal frame -> etale topological category

@dataclass(frozen=True, eq=False)
class FilterCategory(MemberRows):
    """The category of the principal filters up-g on generators g of an
    algebra (`filter_category`): C(Q) (`c_object`) or the S-filter category
    (`crm.s_filters`).  It is cached on its algebra, so it holds no
    reference to it and every field is immutable."""
    topcat: FiniteTopCategory
    generators: np.ndarray  # generators[k] = the least member of filter k, read-only
    members: np.ndarray  # members[k, a]: a is in filter k; column a is X_a; read-only

    @property
    def n(self) -> int:
        return len(self.generators)


def filter_category(alg, gens, what: str, topology: Topology) -> FilterCategory:
    """The category of the principal filters up-g, g in gens (of a quantale
    or a restriction monoid whose star, plus and mul are monotone), with
    the given topology on the filters: filter k is up-gens[k], d(up-g) =
    up-(g*), r(up-g) = up-(g+), (up-g . up-h)^up = up-(g.h), the identities
    are the filters containing the unit, and X_a = {k : gens[k] <= a}.  A d,
    r or product outside the filters raises ValueError, naming `what`."""
    nf = len(gens)
    gens = _freeze(np.array(gens, dtype=np.int64))
    filter_at = np.full(alg.n, UNDEF, dtype=np.int64)  # filter_at[gens[k]] = k
    filter_at[gens] = np.arange(nf)

    def locate(elements: np.ndarray, name: str) -> np.ndarray:
        k = filter_at[elements]
        if (k == UNDEF).any():
            raise ValueError(f"{name} is not a {what}")
        return k

    d_idx = locate(alg.star[gens], "d(A)")
    r_idx = locate(alg.plus[gens], "r(A)")
    composable = d_idx[:, None] == r_idx[None, :]
    products = alg.mul[np.ix_(gens, gens)][composable]
    comp = np.full((nf, nf), UNDEF, dtype=np.int64)
    comp[composable] = locate(products, "A.B")

    members = _freeze(alg.leq[gens])  # [k, a]: gens[k] <= a, that is, a is in filter k
    cat = make_category(nf, np.flatnonzero(members[:, alg.unit]), d_idx, r_idx,
                        comp_table=comp)
    return FilterCategory(topcat=FiniteTopCategory(cat=cat, topology=topology),
                          generators=gens, members=members)


def c_object(q: EhresmannQuantale, max_elements: int = MAX_TABLE_SIDE) -> FilterCategory:
    """C(Q), read off the join-irreducibles as the module docstring says.
    Built once per quantale (`order.cached`); on every call, BoundExceeded
    for more than max_elements opens (`reports.require_at_most`), counted
    once built: they are X-sets, as X_a | X_b = X_(a \\/ b), at most q.n."""
    fc = cached(q, "c_object", lambda: _filter_category(q))
    require_at_most(fc.topcat.topology.open_count(), max_elements, "C(Q) has {} opens")
    return fc


def _filter_category(q: EhresmannQuantale) -> FilterCategory:
    """The filter category on the least members of the completely prime
    filters, topologized by the X-sets X_a of all elements a: for
    completely prime filters X_a | X_b = X_(a \\/ b) and
    X_a & X_b = X_(a /\\ b), so the X-sets are already a topology.  It is
    the one the X_p of the partial isometries p generate, as every X_a is
    the union of the X_p over isometries p <= a; an X_a that is not raises
    InternalError."""
    gens = cp_filter_generators(q)
    x_sets = q.leq[gens].T  # [a, k]: filter k is in X_a
    topology = Topology(len(gens), frozenset(row_masks(x_sets)))
    fc = filter_category(q, gens, "completely prime filter", topology)
    pis = partial_isometries(q)
    bad = np.flatnonzero((bool_product(q.leq[pis].T, x_sets[pis]) != x_sets).any(axis=1))
    if bad.size:
        raise InternalError(f"X_{bad[0]} disagrees with its isometry decomposition")
    return fc


def c_morphism(phi, fc_src: FilterCategory, fc_dst: FilterCategory) -> np.ndarray:
    """The functor C(S) -> C(R) induced by an RQF morphism phi: R -> S,
    sending a filter B of S to its preimage in R: the member row of B read
    at phi(a) for every element a of R, looked up among the member rows of
    the filters of R (`FilterCategory.find`)."""
    out = fc_src.find(fc_dst.members[:, np.asarray(phi, dtype=np.int64)])
    if (out < 0).any():
        raise ValueError("preimage filter is not a completely prime filter")
    return _freeze(out)
