"""Finite small categories, finite topologies on the arrow set, etale checks,
local bisections and covering functors.

Arrows are integer indices.  Composition is a partial table with -1 for
"undefined"; comp[a, b] is defined exactly when d(a) = r(b); d, r and comp
are read-only.  A topology lists its opens as arrow masks, or None for the
discrete topology (kept symbolic so large discrete instances stay cheap).
Every test on a listed topology reads its opens as member rows
(`open_rows`), with no Python test per open.

A topological category caches what is derived from it alone, as the
algebras do (`order.cached`): the etale verdict here, Omega(C)
(`functors.omega_object`), the monoid of its open local bisections
(`crm.bisection_monoid`), and the arrow laws of a covering functor search
from it and the composition rows of one into it
(`duality.enumerate_covering_functors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Optional

import numpy as np

from .bits import (bit_matrix, bool_product, full_mask, has_bit, iter_bits, mask_of,
                   pack_words, row_blocks, row_lookup, word_lookup)
from .order import cached
from .reports import Report, require_at_most

UNDEF = -1


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    n: int
    identity_mask: int
    d: np.ndarray  # (n,) int: right identity of each arrow
    r: np.ndarray  # (n,) int: left identity of each arrow
    comp: np.ndarray  # (n, n) int, UNDEF where d(a) != r(b)

    def __post_init__(self):
        for table in (self.d, self.r, self.comp):
            table.flags.writeable = False

    def identities(self) -> list[int]:
        return list(iter_bits(self.identity_mask))

    def is_identity(self, a: int) -> bool:
        return has_bit(self.identity_mask, a)


@dataclass(frozen=True)
class Topology:
    n: int
    opens: Optional[frozenset]  # frozenset[int] of bitmasks; None = discrete

    @property
    def is_discrete(self) -> bool:
        return self.opens is None or len(self.opens) == 1 << self.n

    def open_count(self) -> int:
        return (1 << self.n) if self.opens is None else len(self.opens)


def open_rows(top: Topology) -> tuple[list[int], np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """A listed topology read as rows: its opens as ascending masks, their
    bool member rows [i, a], arrow a in the i-th open (`bits.bit_matrix`),
    and the lookup that maps bool rows (..., n) of arrow sets to the index
    of the equal open, -1 for a set that is no open (`bits.row_lookup`)."""
    masks = sorted(top.opens)
    rows = bit_matrix(masks, top.n)
    return masks, rows, row_lookup(rows)


@dataclass(frozen=True, eq=False)
class FiniteTopCategory:
    cat: FiniteCategory
    topology: Topology
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.cat.n


def make_category(n: int, identities, d, r, comp_entries=None, comp_table=None) -> FiniteCategory:
    d = np.array(d, dtype=np.int64)
    r = np.array(r, dtype=np.int64)
    if comp_table is not None:
        comp = np.array(comp_table, dtype=np.int64)
    else:
        comp = np.full((n, n), UNDEF, dtype=np.int64)
        for a, b, c in comp_entries or []:
            comp[a, b] = c
    return FiniteCategory(n=n, identity_mask=mask_of(identities), d=d, r=r, comp=comp)


# ---------------------------------------------------------------------------
# validation

def validate_category(c: FiniteCategory) -> Report:
    rep = Report(subject="category")
    rep.layers_run.append("category")
    n, d, r, comp = c.n, c.d, c.r, c.comp
    ids = c.identities()
    if n == 0:
        return rep
    for arr, name in ((d, "d"), (r, "r")):
        if arr.shape != (n,) or (arr < 0).any() or (arr >= n).any():
            rep.add(f"category.{name}_range", (0,))
            return rep
    for e in ids:
        if d[e] != e or r[e] != e:
            rep.add("category.identity_fixed_by_d_r", (e,))
            return rep
    bad = [a for a in range(n) if not c.is_identity(int(d[a]))]
    if bad:
        rep.add("category.d_lands_in_identities", (bad[0],))
        return rep
    bad = [a for a in range(n) if not c.is_identity(int(r[a]))]
    if bad:
        rep.add("category.r_lands_in_identities", (bad[0],))
        return rep
    # an arrow fixed by d must be an identity
    bad = [a for a in range(n) if int(d[a]) == a and not c.is_identity(a)]
    if bad:
        rep.add("category.d_fixed_points_are_identities", (bad[0],))

    defined = comp != UNDEF
    should = d[:, None] == r[None, :]
    diff = defined != should
    if diff.any():
        a, b = np.argwhere(diff)[0]
        law = "category.composability" if defined[a, b] else "category.missing_composite"
        rep.add(law, (int(a), int(b)))
        return rep
    if defined.any():
        vals = comp[defined]
        if (vals < 0).any() or (vals >= n).any():
            rep.add("category.comp_range", (0,))
            return rep
    ab = np.argwhere(defined)
    if ab.size:
        prod = comp[defined]
        bad = np.flatnonzero(d[prod] != d[ab[:, 1]])
        if bad.size:
            a, b = ab[bad[0]]
            rep.add("category.d_of_composite", (int(a), int(b)))
        bad = np.flatnonzero(r[prod] != r[ab[:, 0]])
        if bad.size:
            a, b = ab[bad[0]]
            rep.add("category.r_of_composite", (int(a), int(b)))
    arange = np.arange(n)
    bad = np.flatnonzero(comp[arange, d] != arange)
    if bad.size:
        rep.add("category.right_identity_law", (int(bad[0]),))
    bad = np.flatnonzero(comp[r, arange] != arange)
    if bad.size:
        rep.add("category.left_identity_law", (int(bad[0]),))
    if not rep.ok:
        return rep
    # associativity over composable triples, one row of a at a time
    comp0 = np.maximum(comp, 0)
    for a in range(n):
        row = comp[a, :]
        lhs = comp[np.maximum(row, 0), :]       # (ab) c
        rhs = comp[a, comp0]                    # a (bc)
        valid = (row[:, None] != UNDEF) & (comp != UNDEF)
        diff = valid & (lhs != rhs)
        if diff.any():
            b, cc = np.argwhere(diff)[0]
            rep.add("category.associativity", (a, int(b), int(cc)))
            break
    return rep


def validate_topology(t: Topology) -> Report:
    """The empty and the full set are open, and so are the union and the
    intersection of every pair of opens, decided on the words of the opens
    (`bits.word_lookup`) one block of rows at a time.  The witness is the
    first pair (a, b) in ascending mask order, row-major, whose union or
    else intersection is no open; both are symmetric, so a <= b."""
    rep = Report(subject="topology")
    rep.layers_run.append("topology")
    if t.opens is None:
        return rep
    if 0 not in t.opens:
        rep.add("topology.contains_empty", ())
    if full_mask(t.n) not in t.opens:
        rep.add("topology.contains_all", ())
    masks = sorted(t.opens)
    words = pack_words(bit_matrix(masks, t.n))
    find = word_lookup(words)
    for rows in row_blocks(len(masks), 2 * len(masks) * words.shape[1]):
        a = words[rows, None]
        no_union, no_meet = find(a | words) < 0, find(a & words) < 0
        bad = no_union | no_meet
        if bad.any():
            i, j = np.argwhere(bad)[0]
            law = "topology.union_closed" if no_union[i, j] else "topology.intersection_closed"
            rep.add(law, (masks[rows.start + i], masks[j]))
            return rep
    return rep


def validate_topcategory(tc: FiniteTopCategory) -> Report:
    """Category laws, topology laws, and continuity of d, r and m, each
    witnessed by the first failing open in ascending mask order (d before r
    at one open; then the first failing pair, row-major).  d and r are
    continuous iff the preimage rows `rows[:, d]`, `rows[:, r]` are opens.

    m's continuity is taken in the subspace of the product topology on the
    composable pairs: each pair (a, b) with ab in an open W must sit in an
    open box whose composable part maps into W.  The finitely many opens
    are closed under intersection, so each arrow a has a least open
    neighbourhood U_a (Alexandroff, Diskrete Raeume, 1937).  Every box
    around (a, b) contains the box U_a x U_b, so (a, b) fails at W iff ab
    is in W and some composable pair of U_a x U_b has its composite outside
    W: one boolean product of the boxes, as rows over the composable pairs,
    with the pairs whose composite is outside each open.
    """
    rep = validate_category(tc.cat)
    if not rep.ok:
        return rep
    trep = validate_topology(tc.topology)
    rep.extend(trep)
    rep.subject = "topcategory"
    if not rep.ok:
        return rep
    if tc.topology.is_discrete:
        return rep
    cat = tc.cat
    masks, rows, find = open_rows(tc.topology)
    pre_d, pre_r = find(rows[:, cat.d]), find(rows[:, cat.r])
    bad = np.flatnonzero((pre_d < 0) | (pre_r < 0))
    if bad.size:
        i = bad[0]
        law = "topcategory.d_continuous" if pre_d[i] < 0 else "topcategory.r_continuous"
        rep.add(law, (masks[i],))
        return rep
    pa, pb = np.nonzero(cat.comp != UNDEF)   # the composable pairs, row-major
    inside = rows[:, cat.comp[pa, pb]]       # [w, i]: the composite of pair i is in open w
    near = ~bool_product(rows.T, ~rows)      # [a, x]: x is in U_a
    fails = np.empty_like(inside)
    for blk in row_blocks(len(pa), len(pa)):
        box = near[pa[blk]][:, pa] & near[pb[blk]][:, pb]  # [i, j]: pair j is in the box of pair i
        fails[:, blk] = inside[:, blk] & bool_product(box, ~inside.T).T
    if fails.any():
        w, i = np.argwhere(fails)[0]
        rep.add("topcategory.m_continuous", (int(pa[i]), int(pb[i]), masks[w]))
    return rep


# ---------------------------------------------------------------------------
# local bisections and etale structure

def bisection_rows(tc: FiniteTopCategory, max_elements: int) -> tuple[list[int], np.ndarray]:
    """The open local bisections as ascending masks and as the bool rows
    [i, a]: arrow a is in the i-th one; BoundExceeded for more than
    max_elements of them, counted before they are listed.  Of a listed
    topology, an open is a bisection iff no identity is the d, or the r, of
    two of its arrows: one count product of the member rows of all opens
    (`open_rows`, exact at any width) with the graphs of d and r.  Of a
    discrete topology, see `_discrete_bisections`."""
    c, n = tc.cat, tc.n
    if tc.topology.opens is None:
        masks = _discrete_bisections(c, max_elements)
        return masks, (np.array(masks)[:, None] >> np.arange(n) & 1).astype(bool)
    masks, rows, _ = open_rows(tc.topology)
    arrows = np.arange(n)
    graphs = np.concatenate([c.d[:, None] == arrows, c.r[:, None] == arrows], axis=1)
    keep = (rows.astype(np.float32) @ graphs.astype(np.float32) <= 1).all(axis=1)
    require_at_most(int(keep.sum()), max_elements, "C has {} open local bisections")
    return list(compress(masks, keep)), rows[keep]


def _discrete_bisections(c: FiniteCategory, max_elements: int) -> list[int]:
    """All local bisections, every subset being open, as ascending masks,
    grown one arrow j at a time without listing the subsets: those with j
    as their largest arrow are those before with j added, kept when they
    hold no arrow with the d or the r of j.  Refused as soon as they are
    more than max_elements, since when every arrow is an identity each of
    the 2^n subsets is a bisection."""
    what = "C has at least {} open local bisections"
    d, r = c.d.tolist(), c.r.tolist()
    found = [0]  # the empty bisection
    require_at_most(1, max_elements, what)
    for j in range(c.n):
        clash = sum(1 << i for i in range(j) if d[i] == d[j] or r[i] == r[j])
        found += [b | 1 << j for b in found if not b & clash]
        require_at_most(len(found), max_elements, what)
    return found


def is_etale(tc: FiniteTopCategory) -> tuple[bool, Optional[str], Optional[int]]:
    """(i) every open is a union of open local bisections, (ii) d and r are open.

    Returns (ok, failed-law, witness-open): the first failing open in
    ascending mask order, (i) tried on every open before (ii), d before r.
    The images are the boolean products of the member rows with the graphs
    of d and r.  Discrete topologies are always etale: singletons are open
    local bisections and images are open.  Decided once per category
    (`order.cached`).
    """
    return cached(tc, "is_etale", lambda: _is_etale(tc))


def _is_etale(tc: FiniteTopCategory) -> tuple[bool, Optional[str], Optional[int]]:
    if tc.topology.is_discrete:
        return True, None, None
    masks, rows, find = open_rows(tc.topology)
    olbs = bisection_rows(tc, len(masks))[1]  # some of the opens, never refused
    within = ~bool_product(~rows, olbs.T)   # [i, j]: bisection j lies in open i
    bad = np.flatnonzero((bool_product(within, olbs) != rows).any(axis=1))
    if bad.size:
        return False, "etale.open_not_union_of_bisections", masks[bad[0]]
    arrows = np.arange(tc.n)
    img_d = find(bool_product(rows, tc.cat.d[:, None] == arrows))
    img_r = find(bool_product(rows, tc.cat.r[:, None] == arrows))
    bad = np.flatnonzero((img_d < 0) | (img_r < 0))
    if bad.size:
        i = bad[0]
        return False, "etale.d_not_open" if img_d[i] < 0 else "etale.r_not_open", masks[i]
    return True, None, None


# ---------------------------------------------------------------------------
# functors

def validate_covering_functor(fmap, src: FiniteCategory, dst: FiniteCategory) -> Report:
    """Functoriality, then d/r-injectivity and d/r-surjectivity, with witnesses.

    After the range check the map and the tables are read as Python lists
    once.  Each functoriality law names its first failing identity, arrow or
    composable pair (row-major); injectivity the first pair a < b, in
    lexicographic order, with F(a) = F(b) and d(a) = d(b) (r(a) = r(b)), the
    least clash of the keys (F(a), d(a)) (`_first_clash`); surjectivity the
    first (e, y), identities e ascending and then y, with d(y) = F(e) and no
    x with d(x) = e and F(x) = y (r likewise)."""
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
    f = fmap.tolist()
    s_d, s_r, t_d, t_r = src.d.tolist(), src.r.tolist(), dst.d.tolist(), dst.r.tolist()
    ids = src.identities()
    wit = next((e for e in ids if not dst.is_identity(f[e])), None)
    if wit is not None:
        rep.add("functor.preserves_identities", (wit,))
    for t_proj, s_proj, law in ((t_d, s_d, "functor.preserves_d"),
                                (t_r, s_r, "functor.preserves_r")):
        wit = next((a for a in range(n) if t_proj[f[a]] != f[s_proj[a]]), None)
        if wit is not None:
            rep.add(law, (wit,))
    if rep.ok:
        t_comp = dst.comp.tolist()
        for a, row in enumerate(src.comp.tolist()):
            t_row = t_comp[f[a]]
            wit = next((b for b, c in enumerate(row) if c != UNDEF and t_row[f[b]] != f[c]), None)
            if wit is not None:
                rep.add("functor.preserves_composition", (a, wit))
                break
    if not rep.ok:
        return rep
    rep.layers_run.append("covering")
    for s_proj, law in ((s_d, "covering.d_injective"), (s_r, "covering.r_injective")):
        wit = _first_clash(list(zip(f, s_proj)))
        if wit:
            rep.add(law, wit)
    for law, wit in surjectivity_failures(f, src, dst):
        rep.add(law, wit)
    return rep


def surjectivity_failures(f: list[int], src: FiniteCategory,
                          dst: FiniteCategory) -> list[tuple[str, tuple[int, int]]]:
    """covering.d_surjective and covering.r_surjective, each with its first
    witness, for a functor f: src -> dst given as a list: the first (e, y),
    identities e ascending and then y, with d(y) = F(e) and no x with
    d(x) = e and F(x) = y (r likewise).  validate_covering_functor reports
    them; the covering functor search decides both by the fibre sizes of
    the identities (duality.enumerate_covering_functors)."""
    out = []
    ids = src.identities()
    for s_proj, t_proj, law in ((src.d, dst.d, "covering.d_surjective"),
                                (src.r, dst.r, "covering.r_surjective")):
        hit = set(zip(s_proj.tolist(), f))  # (e, y): some x with proj(x) = e has F(x) = y
        over: dict[int, list[int]] = {}  # over[z]: the y of dst with proj(y) = z, ascending
        for y, z in enumerate(t_proj.tolist()):
            over.setdefault(z, []).append(y)
        wit = next(((e, y) for e in ids for y in over.get(f[e], ()) if (e, y) not in hit), None)
        if wit:
            out.append((law, wit))
    return out


def _first_clash(keys: list) -> Optional[tuple[int, int]]:
    """The least pair (a, b), a < b in lexicographic order, with keys[a] ==
    keys[b], or None: each b is paired with the first position of its key."""
    first: dict = {}
    pairs = ((first.setdefault(key, b), b) for b, key in enumerate(keys))
    return min((p for p in pairs if p[0] != p[1]), default=None)


def continuity_check(fmap, tc_src: FiniteTopCategory, tc_dst: FiniteTopCategory
                     ) -> tuple[bool, Optional[int]]:
    """Preimage of every open of the target is open in the source; the
    witness is the first open, ascending, that fails.  A map value past the
    target's arrows lies in no open.  Preimages commute with unions, so for
    a discrete target the singletons suffice.
    """
    fmap = np.asarray(fmap, dtype=np.int64)
    if tc_src.topology.is_discrete:
        return True, None
    m = tc_dst.n
    if tc_dst.topology.opens is None:
        opens, rows = [1 << y for y in range(m)], np.eye(m, dtype=bool)
    else:
        opens, rows, _ = open_rows(tc_dst.topology)
    rows = np.concatenate([rows, np.zeros((len(opens), 1), dtype=bool)], axis=1)
    bad = np.flatnonzero(open_rows(tc_src.topology)[2](rows[:, np.minimum(fmap, m)]) < 0)
    if bad.size:
        return False, opens[bad[0]]
    return True, None
