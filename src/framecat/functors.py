"""The two contravariant constructions and the filter calculus.

omega_object sends an etale topological category to the restriction quantal
frame of its open sets: multiplication is the pointwise product of opens,
star/plus collect d/r images, the unit is the identity set and the order is
inclusion.  c_object sends a restriction quantal frame to its category of
completely prime filters with the product A.B = (AB)^up, topologized by the
sets X_a over partial isometries a.

Quantale elements of an omega result are indexed by their open set's arrow
bitmask in ascending order, so for discrete topologies index == mask and
the whole table construction vectorizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import full_mask, has_bit, iter_bits, is_submask, mask_of
from .order import (FiniteFrame, FiniteLattice, FinitePoset, FiniteTopSpace, _freeze,
                    enumerate_cp_filters, pt_topology, subframe)
from .quantale import EhresmannQuantale, make_eq, partial_isometries
from .reports import BoundExceeded
from .topcat import (UNDEF, FiniteTopCategory,
                     is_etale, make_category, topology_from_base)


# ---------------------------------------------------------------------------
# omega: etale category -> restriction quantal frame

@dataclass(frozen=True, eq=False)
class OmegaResult:
    rqf: EhresmannQuantale
    opens: tuple  # opens[i] = arrow bitmask of quantale element i
    index: dict  # arrow bitmask -> element index
    source: FiniteTopCategory

    @property
    def n(self) -> int:
        return self.rqf.n


def omega_object(tc: FiniteTopCategory, max_elements: int = 1024) -> OmegaResult:
    ok, law, wit = is_etale(tc)
    if not ok:
        raise ValueError(f"not etale: {law} witness open={wit}")
    count = tc.topology.open_count()
    if count > max_elements:
        raise BoundExceeded(f"{count} opens > max_elements={max_elements}")
    if tc.topology.is_discrete:
        return _omega_discrete(tc)
    return _omega_generic(tc)


def _omega_discrete(tc: FiniteTopCategory) -> OmegaResult:
    cat = tc.cat
    k = cat.n
    nq = 1 << k
    masks = np.arange(nq, dtype=np.int64)
    leq = np.bitwise_and.outer(masks, masks) == masks[:, None]
    meet = np.bitwise_and.outer(masks, masks)
    join = np.bitwise_or.outer(masks, masks)
    lat = FiniteLattice(FinitePoset(nq, _freeze(leq)), _freeze(meet), _freeze(join),
                        bottom=0, top=nq - 1)
    frame = FiniteFrame(lat)

    dbit = np.array([1 << int(cat.d[a]) for a in range(k)], dtype=np.int64)
    rbit = np.array([1 << int(cat.r[a]) for a in range(k)], dtype=np.int64)
    star = np.zeros(nq, dtype=np.int64)
    plus = np.zeros(nq, dtype=np.int64)
    for v in range(k):
        sel = (masks >> v) & 1 == 1
        star[sel] |= dbit[v]
        plus[sel] |= rbit[v]

    mul = np.zeros((nq, nq), dtype=np.int64)
    for v in range(k):
        single = np.zeros(nq, dtype=np.int64)  # U . {v}
        for u in range(k):
            w = int(cat.comp[u, v])
            if w != UNDEF:
                single[(masks >> u) & 1 == 1] |= 1 << w
        mul[:, (masks >> v) & 1 == 1] |= single[:, None]

    q = make_eq(frame, mul, int(cat.identity_mask), star, plus)
    opens = tuple(int(m) for m in masks)
    return OmegaResult(rqf=q, opens=opens, index={m: m for m in opens}, source=tc)


def _omega_generic(tc: FiniteTopCategory) -> OmegaResult:
    cat = tc.cat
    opens = sorted(tc.topology.opens)
    index = {m: i for i, m in enumerate(opens)}
    nq = len(opens)

    def idx(mask: int, what: str) -> int:
        i = index.get(mask)
        if i is None:
            raise ValueError(f"{what} is not open; category not etale as claimed")
        return i

    leq = np.zeros((nq, nq), dtype=bool)
    meet = np.zeros((nq, nq), dtype=np.int64)
    join = np.zeros((nq, nq), dtype=np.int64)
    for i, a in enumerate(opens):
        for j, b in enumerate(opens):
            leq[i, j] = is_submask(a, b)
            meet[i, j] = idx(a & b, "intersection")
            join[i, j] = idx(a | b, "union")
    lat = FiniteLattice(FinitePoset(nq, _freeze(leq)), _freeze(meet), _freeze(join),
                        bottom=index[0], top=index[full_mask(cat.n)])
    frame = FiniteFrame(lat)

    k = cat.n
    single = [[0] * nq for _ in range(k)]  # single[v][iU] = mask of U.{v}
    for v in range(k):
        contrib = [0] * k
        for u in range(k):
            w = int(cat.comp[u, v])
            if w != UNDEF:
                contrib[u] = 1 << w
        col = single[v]
        for i, a in enumerate(opens):
            m = 0
            for u in iter_bits(a):
                m |= contrib[u]
            col[i] = m

    open_bits = [list(iter_bits(m)) for m in opens]
    mul = np.zeros((nq, nq), dtype=np.int64)
    star = np.zeros(nq, dtype=np.int64)
    plus = np.zeros(nq, dtype=np.int64)
    for i, a in enumerate(opens):
        star[i] = idx(mask_of(int(cat.d[u]) for u in iter_bits(a)), "d-image")
        plus[i] = idx(mask_of(int(cat.r[u]) for u in iter_bits(a)), "r-image")
    for i in range(nq):
        row = mul[i, :]
        for j in range(nq):
            m = 0
            for v in open_bits[j]:
                m |= single[v][i]
            row[j] = idx(m, "product")

    q = make_eq(frame, mul, index[cat.identity_mask], star, plus)
    return OmegaResult(rqf=q, opens=tuple(opens), index=index, source=tc)


def omega_morphism(fmap, om_src: OmegaResult, om_dst: OmegaResult) -> np.ndarray:
    """The element map Omega(D) -> Omega(C) induced by a continuous covering
    functor F: C -> D, sending an open U of D to its preimage in C."""
    fmap = np.asarray(fmap, dtype=np.int64)
    n_arrows = om_src.source.n
    out = np.zeros(om_dst.n, dtype=np.int64)
    for i, u_mask in enumerate(om_dst.opens):
        pre = mask_of(a for a in range(n_arrows) if has_bit(u_mask, int(fmap[a])))
        j = om_src.index.get(pre)
        if j is None:
            raise ValueError(f"preimage of open {u_mask} is not open; functor not continuous")
        out[i] = j
    return _freeze(out)


# ---------------------------------------------------------------------------
# filter calculus over a restriction quantal frame

@dataclass(frozen=True)
class QFilter:
    """Completely prime filter of the quantale, materialized as a member bitmask."""

    members: int
    cogenerator: int


class FilterCalculus:
    """Completely prime filters of a restriction quantal frame with the
    star/plus image sets, d/r filters and the partial product (AB)^up."""

    def __init__(self, q: EhresmannQuantale):
        self.q = q
        self.upset = [mask_of(np.flatnonzero(q.leq[i, :])) for i in range(q.n)]
        self.filters = [QFilter(c.members, c.cogenerator)
                        for c in enumerate_cp_filters(q.frame)]
        self.index = {f.members: k for k, f in enumerate(self.filters)}
        self.proj_mask = q.projection_mask()
        self.pis = partial_isometries(q)

    def up_close(self, mask: int) -> int:
        out = 0
        for x in iter_bits(mask):
            out |= self.upset[x]
        return out

    def star_set(self, members: int) -> int:
        return mask_of(int(self.q.star[x]) for x in iter_bits(members))

    def plus_set(self, members: int) -> int:
        return mask_of(int(self.q.plus[x]) for x in iter_bits(members))

    def d_members(self, members: int) -> int:
        return self.up_close(self.star_set(members))

    def r_members(self, members: int) -> int:
        return self.up_close(self.plus_set(members))

    def filter_of(self, members: int, what: str = "set") -> int:
        k = self.index.get(members)
        if k is None:
            raise ValueError(f"{what} is not a completely prime filter")
        return k

    def product_members(self, a_members: int, b_members: int) -> Optional[int]:
        """(AB)^up when A* = B+ (equivalently d(A) = r(B)); None otherwise."""
        if self.star_set(a_members) != self.plus_set(b_members):
            return None
        mul = self.q.mul
        ai = list(iter_bits(a_members))
        bi = list(iter_bits(b_members))
        prods = set(int(p) for p in mul[np.ix_(ai, bi)].ravel())
        return self.up_close(mask_of(prods))

    def is_identity_filter(self, members: int) -> bool:
        return members & self.proj_mask != 0

    def x_mask(self, a: int) -> int:
        """X_a over filter indices."""
        return mask_of(k for k, f in enumerate(self.filters) if has_bit(f.members, a))

    def x_mask_via_pi_union(self, a: int) -> int:
        out = 0
        for p in self.pis:
            if self.q.leq[p, a]:
                out |= self.x_mask(p)
        return out


def filter_star(calc: FilterCalculus, f: QFilter) -> QFilter:
    members = calc.d_members(f.members)
    return calc.filters[calc.filter_of(members, "d(A)")]


def filter_plus(calc: FilterCalculus, f: QFilter) -> QFilter:
    members = calc.r_members(f.members)
    return calc.filters[calc.filter_of(members, "r(A)")]


def filter_product(calc: FilterCalculus, a: QFilter, b: QFilter) -> Optional[QFilter]:
    members = calc.product_members(a.members, b.members)
    if members is None:
        return None
    return calc.filters[calc.filter_of(members, "A.B")]


# ---------------------------------------------------------------------------
# c: restriction quantal frame -> etale topological category

@dataclass(frozen=True, eq=False)
class FilterCategoryResult:
    topcat: FiniteTopCategory
    calc: FilterCalculus
    d_idx: np.ndarray
    r_idx: np.ndarray
    base: dict  # partial isometry a -> X_a point mask

    @property
    def filters(self):
        return self.calc.filters

    @property
    def n(self) -> int:
        return len(self.calc.filters)


def c_object(q: EhresmannQuantale, max_opens: int = 4096) -> FilterCategoryResult:
    calc = FilterCalculus(q)
    nf = len(calc.filters)
    d_idx = np.array([calc.filter_of(calc.d_members(f.members), "d(A)")
                      for f in calc.filters], dtype=np.int64)
    r_idx = np.array([calc.filter_of(calc.r_members(f.members), "r(A)")
                      for f in calc.filters], dtype=np.int64)
    identity_filters = [k for k, f in enumerate(calc.filters)
                        if calc.is_identity_filter(f.members)]
    comp = np.full((nf, nf), UNDEF, dtype=np.int64)
    for i in range(nf):
        for j in range(nf):
            if d_idx[i] != r_idx[j]:
                continue
            members = calc.product_members(calc.filters[i].members, calc.filters[j].members)
            if members is None:
                raise AssertionError("d(A)=r(B) must force A* = B+")
            comp[i, j] = calc.filter_of(members, "A.B")

    cat = make_category(nf, identity_filters,
                        d=[int(d_idx[k]) for k in range(nf)],
                        r=[int(r_idx[k]) for k in range(nf)],
                        comp_table=comp)

    base = {a: calc.x_mask(a) for a in calc.pis}
    topology = topology_from_base(nf, base.values())
    if topology.open_count() > max_opens:
        raise BoundExceeded(f"filter topology has {topology.open_count()} opens > {max_opens}")

    # every X_a is open, via the union-of-isometries formula, cross-checked
    for a in range(q.n):
        xa = calc.x_mask_via_pi_union(a)
        if xa != calc.x_mask(a):
            raise AssertionError(f"X_{a} disagrees with its isometry decomposition")
        if not topology.is_open(xa):
            raise AssertionError(f"X_{a} is not open")

    tc = FiniteTopCategory(cat=cat, topology=topology)
    return FilterCategoryResult(topcat=tc, calc=calc, d_idx=_freeze(d_idx),
                                r_idx=_freeze(r_idx), base=base)


def c_morphism(phi, fc_src: FilterCategoryResult, fc_dst: FilterCategoryResult) -> np.ndarray:
    """The functor C(S) -> C(R) induced by an RQF morphism phi: R -> S,
    sending a filter B of S to its preimage in R."""
    phi = np.asarray(phi, dtype=np.int64)
    n_r = fc_src.calc.q.n
    out = np.zeros(fc_dst.n, dtype=np.int64)
    for j, b in enumerate(fc_dst.filters):
        pre = mask_of(x for x in range(n_r) if has_bit(b.members, int(phi[x])))
        out[j] = fc_src.calc.filter_of(pre, "preimage filter")
    return _freeze(out)


# ---------------------------------------------------------------------------
# the identity space of C(Q) versus the points of the projection frame

def subspace(space_n: int, opens, point_mask: int) -> FiniteTopSpace:
    points = list(iter_bits(point_mask))
    pos = {p: i for i, p in enumerate(points)}
    sub_opens = set()
    for o in opens:
        sub_opens.add(mask_of(pos[p] for p in iter_bits(o & point_mask)))
    return FiniteTopSpace(n_points=len(points), opens=frozenset(sub_opens))


def identity_space_vs_pt(q: EhresmannQuantale,
                         fc: Optional[FilterCategoryResult] = None) -> tuple[bool, str]:
    """The identity arrows of C(Q) with the subspace topology are homeomorphic
    to the points of the projection frame e-down, by A -> A /\\ e-down."""
    if fc is None:
        fc = c_object(q)
    calc = fc.calc
    id_indices = [k for k, f in enumerate(calc.filters)
                  if calc.is_identity_filter(f.members)]
    id_space = subspace(fc.n, fc.topcat.topology.iter_opens(), mask_of(id_indices))

    projs = q.projections()
    pframe, pos = subframe(q.frame, projs)
    pt_space = pt_topology(pframe)
    pt_filters = enumerate_cp_filters(pframe)
    pt_index = {f.members: i for i, f in enumerate(pt_filters)}

    if len(id_indices) != len(pt_filters):
        return False, (f"identity filters {len(id_indices)} != points of e-down {len(pt_filters)}")

    bij = {}
    for slot, k in enumerate(id_indices):
        members = calc.filters[k].members
        sub_members = mask_of(pos[x] for x in iter_bits(members & calc.proj_mask))
        i = pt_index.get(sub_members)
        if i is None:
            return False, f"A /\\ e-down of filter {k} is not a point of e-down"
        bij[slot] = i
    if len(set(bij.values())) != len(bij):
        return False, "A -> A /\\ e-down is not injective on identity filters"

    mapped = set()
    for o in id_space.opens:
        mapped.add(mask_of(bij[p] for p in iter_bits(o)))
    if mapped != set(pt_space.opens):
        return False, "open families do not correspond under the bijection"
    return True, ""
