"""Comparison maps, spatiality/sobriety, morphism validation, hom-set
enumeration and the machine check of the first adjunction theorem.

validate_rqf_morphism checks every law on all elements and pairs, for any
endpoints.  The hom-set searches decide each law once.  generator_search
compiles the laws on the generators J of its source (joins, meets and mul
on J x J, star, plus, unit and top) and joins the earlier images each law
reads once per node, not once per candidate.  Each map it finds then
needs only what it did not compile: between valid rqfs, that partial
isometries go to partial isometries, one gather; the rest follows by
distributivity and join-primeness (Birkhoff; Davey & Priestley,
Introduction to Lattices and Order, ch. 5; see enumerate_rqf_morphisms).
The functor search decides d- and r-surjectivity and continuity alone, and
the callitic search in crm is_callitic alone.

chi sends a quantale element a to the set X_a of completely prime filters
containing it; omega sends an arrow x to the filter O_x of opens containing
it.  They are the unit and the counit of the adjunction, so each is the
transpose of an identity (Mac Lane, Categories for the Working
Mathematician, IV.1): chi = forward(id of C(Q)) and omega = backward(id of
Omega(C)), built by the one `transposes` that both adjunctions use.  The
adjunction is verified literally: both hom-sets are enumerated
exhaustively and the two transposes are checked to be mutually inverse
bijections between them (check_transposes).  The morphism hom-set is found
by generator_search, a backtracking over the images of the generators J of
the source only, each law compiled into the level of its last generator;
the functor hom-set, and an isomorphism of categories, by arrow_maps, one
backtracking over arrow maps that compiles composition and injectivity
into the level of the last arrow alike.  The second adjunction in crm
reuses the functor search, generator_search, transposes and
check_transposes.

What a hom-set search derives from one object is cached on that object
(order.cached), holds no reference back to it, and dies with it: on a
quantale, J, the partial isometries, the monoid PI(Q) and C(Q); on a
monoid, J(S), the down-sets of J(S), L^vee(S) and the S-filters; on
either, the laws of generator_search as a source and its tables as a
target; on a topological category, Omega(C), the open local bisections
and the tables of a functor search from it or into it; on an
OmegaResult, a FilterCategory and a crm.BisectionMonoid, the lookup of
its member rows (find).  So an adjunction check against objects it has
seen before only searches.

transposes reads the bool member rows of both sides, the filters (row k
of the order at the least member of filter k) and the opens of Omega(C)
(OmegaResult.members) or the open local bisections of C
(crm.BisectionMonoid.members), with no Python int per element, and looks
each transposed set up by the other side's find.
check_transposes runs the second direction only when the first leaves it
open: once every functor has gone to a morphism and back to itself, and
there are as many distinct functors as morphisms, forward is a bijection
with inverse backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .bits import pack_words, row_blocks
from .functors import (FilterCategory, OmegaResult, c_morphism, c_object, omega_morphism,
                       omega_object)
from .order import _freeze, cached, join_irreducibles
from .quantale import EhresmannQuantale, partial_isometries
from .reports import MAX_ARROWS, MAX_TABLE_SIDE, InternalError, Report, require_at_most
from .topcat import (UNDEF, FiniteCategory, FiniteTopCategory, continuity_check,
                     surjectivity_failures, validate_covering_functor)


# ---------------------------------------------------------------------------
# morphisms of restriction quantal frames

def validate_rqf_morphism(theta, q: EhresmannQuantale, r: EhresmannQuantale) -> Report:
    """The five defining conditions, each checked exhaustively:
    all joins, finite meets, Ehresmann + semigroup morphism, top and unit,
    partial isometries to partial isometries.  The partial isometries of q
    and r are cached on them (`quantale.partial_isometries`)."""
    theta = np.asarray(theta, dtype=np.int64)
    rep = Report(subject="rqf-morphism")
    rep.layers_run.append("rqf-morphism")
    n = q.n
    if theta.shape != (n,) or ((theta < 0) | (theta >= r.n)).any():
        rep.add("morphism.map_range", (0,))
        return rep

    wit = _first_unkept(theta, q.join, r.join)
    if wit:
        rep.add("morphism.preserves_joins", wit)
    if theta[q.bottom] != r.bottom:
        rep.add("morphism.preserves_bottom", (q.bottom,))

    wit = _first_unkept(theta, q.meet, r.meet)
    if wit:
        rep.add("morphism.preserves_finite_meets", wit)

    wit = _first_unkept(theta, q.mul, r.mul)
    if wit:
        rep.add("morphism.semigroup", wit)
    bad = np.flatnonzero(theta[q.star] != r.star[theta])
    if bad.size:
        rep.add("morphism.preserves_star", (int(bad[0]),))
    bad = np.flatnonzero(theta[q.plus] != r.plus[theta])
    if bad.size:
        rep.add("morphism.preserves_plus", (int(bad[0]),))

    if theta[q.top] != r.top:
        rep.add("morphism.preserves_top", (q.top,))
    if theta[q.unit] != r.unit:
        rep.add("morphism.preserves_unit", (q.unit,))

    r_pi_set = set(partial_isometries(r))
    for a in partial_isometries(q):
        if int(theta[a]) not in r_pi_set:
            rep.add("morphism.preserves_isometries", (a, int(theta[a])))
            break
    return rep


def _first_unkept(theta: np.ndarray, q_table: np.ndarray,
                  r_table: np.ndarray) -> Optional[tuple[int, int]]:
    """The first (a, b), rows first, with
    theta[q_table[a, b]] != r_table[theta[a], theta[b]], or None; one
    block of rows at a time (`bits.row_blocks`)."""
    for rows in row_blocks(len(theta), len(theta)):
        diff = theta[q_table[rows]] != r_table[np.ix_(theta[rows], theta)]
        if diff.any():
            a, b = np.argwhere(diff)[0]
            return rows.start + int(a), int(b)
    return None


# ---------------------------------------------------------------------------
# the transposes, and chi and omega as the transposes of identities

def transposes(filters: FilterCategory, sets) -> tuple[Callable, Callable]:
    """The two transposes of an adjunction between a category C and an
    algebra A, over bool member rows: filters.members[k, x], element x of A
    is in filter k (the arrows of the filter category of A), and
    sets.members[i, c], arrow c of C is in set i (an OmegaResult, the opens
    of Omega(C), or a crm.BisectionMonoid, its open local bisections).

    forward: arrow map alpha: C -> filters  |->  map A -> sets,
    x |-> {c : x in alpha(c)}; backward: map beta: A -> sets  |->  arrow
    map C -> filters, c |-> {x : c in beta(x)}.  Each reads one membership
    relation the other way round, as one array map: column x (or c) of the
    member rows at alpha (or beta) is looked up among the member rows of the
    other side (its `find`, built once per holder and on first use, so an
    empty hom-set builds none).  Each returns None when one of these sets is
    not among those rows (no open or bisection, no filter)."""
    def transposed(images, rows: np.ndarray, find: Callable) -> Optional[np.ndarray]:
        out = find(rows[np.asarray(images, dtype=np.int64)].T)
        return None if (out < 0).any() else _freeze(out)

    return (lambda alpha: transposed(alpha, filters.members, sets.find),
            lambda beta: transposed(beta, sets.members, filters.find))


@dataclass(frozen=True, eq=False)
class ChiResult:
    chi: np.ndarray          # Q -> Omega(C(Q)) element map
    fc: FilterCategory       # C(Q)
    om: OmegaResult          # Omega(C(Q))
    report: Report


def build_chi(q: EhresmannQuantale, max_elements: int = MAX_TABLE_SIDE) -> ChiResult:
    """chi: Q -> Omega(C(Q)), a |-> X_a, the unit of adjunction I: the
    forward transpose of the identity of C(Q).  Every X_a is open in C(Q),
    so an X-set missing from Omega(C(Q)) is an InternalError.  Both C(Q)
    and Omega(C(Q)) are built under max_elements: the opens of C(Q), the
    elements of Omega(C(Q)), are the X-sets, as X_a | X_b = X_(a \\/ b)."""
    fc = c_object(q, max_elements)
    om = omega_object(fc.topcat, max_elements)
    chi = transposes(fc, om)[0](np.arange(fc.n))
    if chi is None:
        raise InternalError("an X-set of C(Q) is not an open of Omega(C(Q))")
    rep = validate_rqf_morphism(chi, q, om.rqf)
    rep.subject = "chi"
    return ChiResult(chi=chi, fc=fc, om=om, report=rep)


def is_spatial(q: EhresmannQuantale) -> tuple[bool, Optional[tuple[int, int]]]:
    """X_a = X_b must imply a = b; surjectivity onto the opens of C(Q) is
    automatic because every open is a union of X-sets.  The witness is the
    least a whose X-set an element before it has, with the first such
    element: one np.unique over the columns of the filter member rows."""
    _, first, cls = np.unique(pack_words(c_object(q).members.T), axis=0,
                              return_index=True, return_inverse=True)
    first = first[cls.reshape(-1)]  # first[a]: the least element with the X-set of a
    bad = np.flatnonzero(first != np.arange(q.n))
    if bad.size:
        return False, (int(first[bad[0]]), int(bad[0]))
    return True, None


def chi_is_isomorphism(chi: ChiResult) -> tuple[bool, str]:
    if not chi.report.ok:
        return False, "chi is not a morphism: " + chi.report.violations[0].law
    vals = set(int(v) for v in chi.chi)
    if len(vals) != len(chi.chi):
        return False, "chi is not injective"
    if vals != set(range(chi.om.n)):
        return False, "chi is not surjective onto the opens of C(Q)"
    return True, ""


@dataclass(frozen=True, eq=False)
class OmegaMapResult:
    omega: np.ndarray        # C -> C(Omega(C)) arrow map
    om: OmegaResult          # Omega(C)
    fc: FilterCategory       # C(Omega(C))
    report: Report


def build_omega_map(tc: FiniteTopCategory, om: OmegaResult) -> OmegaMapResult:
    """omega: C -> C(Omega(C)), x |-> O_x, the opens containing x, the
    counit of adjunction I: the backward transpose of the identity of
    Omega(C), om.  C(Omega(C)) is built under om.n, which its opens, the
    X-sets, never pass.  Every O_x is a completely prime filter, so one
    missing from C(Omega(C)) is an InternalError.

    omega^{-1}(X_U) = U holds by construction and is not tested: omega(x)
    is found by an exact lookup of the row {U : x in U} among the member
    rows of the filters, so filter omega(x) holds U iff x is in U.  The
    oracle in the tests checks the law open by open."""
    fc = c_object(om.rqf, om.n)
    omega = transposes(fc, om)[1](np.arange(om.n))
    if omega is None:
        raise InternalError("a filter O_x of Omega(C) is not a completely prime filter")
    rep = validate_covering_functor(omega, tc.cat, fc.topcat.cat)
    rep.subject = "omega-map"
    ok, wit = continuity_check(omega, tc, fc.topcat)
    if not ok:
        rep.add("omega.continuous", (wit,))
    return OmegaMapResult(omega=omega, om=om, fc=fc, report=rep)


def is_sober(tc: FiniteTopCategory, res: OmegaMapResult) -> tuple[bool, Optional[tuple]]:
    """omega bijective; omega is then open, via omega(U) = X_U.  That law
    holds by construction and is not tested: filter omega(x) holds U iff x
    is in U (see build_omega_map), so omega(U) is the set of filters
    omega(x) that hold U, and once omega is onto that is X_U.  The oracle in
    the tests checks it open by open."""
    if len(np.unique(res.omega)) != tc.n or res.fc.n != tc.n:
        return False, ("not_bijective", tc.n, res.fc.n)
    return True, None


def omega_is_isomorphism(tc: FiniteTopCategory, res: OmegaMapResult) -> tuple[bool, str]:
    if not res.report.ok:
        return False, "omega is not a continuous covering functor: " + res.report.violations[0].law
    ok, wit = is_sober(tc, res)
    if not ok:
        return False, f"omega is not a sober bijection: {wit}"
    # a bijective functor between finite categories whose inverse preserves
    # d, r and composition is an isomorphism; verify the inverse directly
    inv = np.empty(tc.n, dtype=np.int64)
    inv[res.omega] = np.arange(tc.n)
    rep = validate_covering_functor(inv, res.fc.topcat.cat, tc.cat)
    if not rep.ok:
        return False, "inverse of omega is not a functor"
    ok, wit = continuity_check(inv, res.fc.topcat, tc)
    if not ok:
        return False, f"inverse of omega is not continuous at open {wit}"
    return True, ""


# ---------------------------------------------------------------------------
# hom-set enumeration

def arrow_laws(cs: FiniteCategory, order: Sequence[int], iso: bool = False) -> tuple[tuple, tuple]:
    """The laws of arrow_maps on the arrows of cs placed in `order`, each
    compiled into the level of the last arrow it names: per level, comps,
    the (x, y, c) with F(x).F(y) = F(c) for every composable pair x.y = c,
    and with iso also (x, y, UNDEF) for every pair whose composite is
    undefined, UNDEF being read from the last slot of the image; and apart,
    the (a, b), b < a, with F(a) != F(b) for arrows with the same d or the
    same r, with iso for all.  Immutable and free of references to cs, so
    that `order.cached` can hold it."""
    n = cs.n
    s_d, s_r, s_comp = cs.d.tolist(), cs.r.tolist(), cs.comp.tolist()
    level = {a: k for k, a in enumerate(order)}
    comps: list[list[tuple]] = [[] for _ in range(n)]
    apart: list[list[tuple]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c = s_comp[a][b]
            if c != UNDEF:
                comps[max(level[a], level[b], level[c])].append((a, b, c))
            elif iso:
                comps[max(level[a], level[b])].append((a, b, UNDEF))
            if b < a and (iso or s_d[a] == s_d[b] or s_r[a] == s_r[b]):
                apart[max(level[a], level[b])].append((a, b))
    return tuple(map(tuple, comps)), tuple(map(tuple, apart))


def arrow_maps(laws: tuple[tuple, tuple], t_comp: tuple, order: Sequence[int],
               candidates: list[list[int]]) -> Iterator[list[int]]:
    """The arrow maps F with each F(a) in candidates[a] that keep `laws`,
    the arrow_laws of the source for the same order, read on t_comp, the
    composition rows of the target (`_rows`).  The candidates of an
    identity must be identities; then F(d a) = d F(a) and F(r a) = r F(a)
    are the laws of the pairs (a, d a) and (r a, a).  Yielded as lists in
    depth-first order: the arrows placed in `order`, the candidates of each
    in the order given; each law is checked when the last arrow it names is
    placed."""
    comps, apart = laws
    n = len(order)
    image = [0] * n + [UNDEF]

    def keeps(k: int) -> bool:
        """Whether the images placed so far keep the laws of level k."""
        for x, y, c in comps[k]:
            if t_comp[image[x]][image[y]] != image[c]:
                return False
        for a, b in apart[k]:
            if image[a] == image[b]:
                return False
        return True

    def search(k: int) -> Iterator[list[int]]:
        if k == n:
            yield image[:n]
            return
        a = order[k]
        for y in candidates[a]:
            image[a] = y
            if keeps(k):
                yield from search(k + 1)

    yield from search(0)


def _rows(table: np.ndarray) -> tuple:
    """A table as a tuple of its rows, each a tuple of Python ints: what the
    backtracking searches index in their inner loops."""
    return tuple(map(tuple, table.tolist()))


def enumerate_covering_functors(src: FiniteTopCategory, dst: FiniteTopCategory,
                                max_arrows: int = MAX_ARROWS) -> list[np.ndarray]:
    """All continuous covering functors src = C -> dst = D: the maps of
    arrow_maps, identities placed first and sent to identities, that are
    d- and r-surjective and continuous (`_is_continuous_covering`).  The
    arrow laws compile the rest of validate_covering_functor: identities go
    to identities, d and r are kept (the laws of the pairs (a, d a) and
    (r a, a)), and so is composition, and arrows with the same d or the
    same r go to distinct arrows (d- and r-injectivity).  More than
    max_arrows arrows in C, then in D, are refused
    (`reports.require_at_most`).  The order and the arrow laws of src for it
    are cached on src, and the composition rows of dst on dst
    (`order.cached`)."""
    cs, cd = src.cat, dst.cat
    require_at_most(cs.n, max_arrows, "C has {} arrows", name="max_arrows")
    require_at_most(cd.n, max_arrows, "D has {} arrows", name="max_arrows")
    order, laws = cached(src, "arrow_laws", lambda: _covering_laws(cs))
    t_comp = cached(dst, "comp_rows", lambda: _rows(cd.comp))
    dst_ids, every = cd.identities(), list(range(cd.n))
    candidates = [dst_ids if cs.is_identity(a) else every for a in range(cs.n)]
    return [_freeze(np.array(f, dtype=np.int64))
            for f in arrow_maps(laws, t_comp, order, candidates)
            if _is_continuous_covering(f, src, dst)]


def _is_continuous_covering(f: list[int], src: FiniteTopCategory, dst: FiniteTopCategory) -> bool:
    """What enumerate_covering_functors decides of a map of arrow_maps:
    d- and r-surjectivity (`topcat.surjectivity_failures`, which
    validate_covering_functor reports too) and continuity_check."""
    return not surjectivity_failures(f, src.cat, dst.cat) and continuity_check(f, src, dst)[0]


def _covering_laws(cs: FiniteCategory) -> tuple[tuple, tuple]:
    """The order in which enumerate_covering_functors places the arrows of
    cs, identities first, each part ascending, and the arrow_laws of cs for
    it."""
    order = tuple(sorted(range(cs.n), key=lambda a: (not cs.is_identity(a), a)))
    return order, arrow_laws(cs, order)


def positions(n: int, domain: list[int]) -> np.ndarray:
    """pos[e] = the position of e in domain, for the elements 0..n-1 of an
    algebra; -1 for an element outside domain, and pos[-1] = -1, so that
    pos[table] also sends the -1 entries of a partial table to -1."""
    pos = np.full(n + 1, -1, dtype=np.int64)
    pos[domain] = np.arange(len(domain))
    return pos


def generator_search(alg, tgt) -> list[np.ndarray]:
    """The maps theta: alg -> tgt, two rqfs or two complete restriction
    monoids, given by images of the generators of alg (J(q) of an rqf, J(S)
    of a monoid), each image a candidate of tgt (PI(r) of an rqf, every
    element of a monoid), and theta(a) = the join of the theta(g) over the
    generators g <= a; in depth-first order, the maps whose extension meets
    a missing join of tgt (none in an rqf, the partial joins of a monoid)
    left out.

    The generators are assigned in a linear extension of the order (by
    down-set size, ties in index order), each candidate in ascending order.
    Each law is compiled once, into the level of its last generator:
    theta(g) <= theta(h) for generators g <= h; theta(x) = theta(g) /\\
    theta(h) for x = g /\\ h and theta(x) = theta(g).theta(h) for x = g.h,
    over all pairs of generators; theta(x) = theta(g)* for x = g* and
    likewise for plus; theta(unit) = the unit; and, between rqfs,
    theta(top) = top.  Here theta(x) of a derived element x is the join of
    the images of the generators below x, so those generators count toward
    the level of the law.

    The laws (`law_skeleton`) and the target's operations on its
    candidates (`search_target`) are each cached on their object, and a
    call reads both as they are.  At each node the join of the images of
    the earlier generators below each law's derived element is computed
    once, and each candidate is then tested against it.  A law that names
    no generator (the unit or the top, when it is the zero) is checked once
    before the search.  The maps found keep every law above; what they need
    not keep is decided by the caller (enumerate_rqf_morphisms,
    crm.enumerate_callitic_morphisms).  Every morphism that preserves these
    operations and joins, and sends the generators to candidates, is among
    the maps found, provided every element of alg is the join of the
    generators below it."""
    below, lower, laws, constant = law_skeleton(alg)
    m = len(below)
    target = search_target(tgt)
    t_join, t_leq, zero, ops = target.join_rows, target.leq_rows, target.zero, target.ops
    if any(ops[name] != zero for name in constant):
        return []

    images = [0] * m  # candidate positions
    found: list[list[int]] = []

    def backtrack(k: int) -> None:
        if k == m:
            found.append(list(images))
            return
        checks = []
        for rest, name, a, b, joined in laws[k]:
            v = zero
            for p in rest:
                v = t_join[v][images[p]]
            checks.append((t_join[v] if joined else None, v, ops[name], a, b))
        for c in range(len(t_leq)):
            images[k] = c
            for i in lower[k]:
                if not t_leq[images[i]][c]:
                    break
            else:
                for row, v, op, a, b in checks:
                    if (v if row is None else row[c]) != (
                            op if a is None else op[images[a]] if b is None
                            else op[images[a]][images[b]]):
                        break
                else:
                    backtrack(k + 1)

    backtrack(0)
    out = []
    for assigned in found:
        theta = np.full(alg.n, zero, dtype=np.int64)
        for i, p in enumerate(assigned):
            theta = np.where(below[i], target.pad[theta, p], theta)
        if (theta >= 0).all():
            out.append(theta)
    return out


class SearchTarget(NamedTuple):
    """The operations of a search target on the positions p of its
    candidates, with element values: pad[v, p] = v joined with candidate p,
    its last row, read at v = -1, keeping a missing join missing; pad and
    leq on pairs of candidates as rows; the read-only mapping from each
    operation name of `_law_skeleton` to its table, meet and mul on pairs
    of candidates as rows, star and plus on candidates, the unit and, of an
    rqf, the top; the zero; and candidate[e], element e is a candidate.
    Rows are tuples of Python ints (`_rows`).  Immutable and free of
    references to the target, so that `order.cached` can hold it."""
    pad: np.ndarray
    join_rows: tuple
    leq_rows: tuple
    ops: MappingProxyType
    zero: int
    candidate: np.ndarray


def search_target(tgt) -> SearchTarget:
    """The SearchTarget of tgt (`_target_tables`), cached on tgt
    (`order.cached`)."""
    return cached(tgt, "search_target", lambda: _target_tables(tgt))


def _target_tables(tgt) -> SearchTarget:
    """The SearchTarget of an rqf r, for its candidates PI(r) and its join,
    or of a complete restriction monoid, for all its elements and its
    partial joins (crm._partial_join_table)."""
    if isinstance(tgt, EhresmannQuantale):
        cands, joins, zero, ops = partial_isometries(tgt), tgt.join, tgt.bottom, {"top": tgt.top}
    else:
        from .crm import _partial_join_table  # crm imports this module
        cands, joins, zero, ops = range(tgt.n), _partial_join_table(tgt), tgt.zero, {}
    cands = np.asarray(cands, dtype=np.int64)
    block = (cands[:, None], cands)
    pad = np.full((tgt.n + 1, len(cands)), -1, dtype=np.int64)
    pad[:-1] = joins[:, cands]
    candidate = np.zeros(tgt.n, dtype=bool)
    candidate[cands] = True
    ops.update(meet=_rows(tgt.meet[block]), mul=_rows(tgt.mul[block]),
               star=tuple(tgt.star[cands].tolist()), plus=tuple(tgt.plus[cands].tolist()),
               unit=tgt.unit)
    return SearchTarget(_freeze(pad), _rows(pad), _rows(tgt.leq[block]),
                        MappingProxyType(ops), int(zero), _freeze(candidate))


class LawSkeleton(NamedTuple):
    """The laws of generator_search on a source (`_law_skeleton`)."""
    below: np.ndarray
    lower: tuple
    laws: tuple
    constant: tuple


def law_skeleton(alg) -> LawSkeleton:
    """The laws of generator_search on alg (`_law_skeleton`), cached on alg
    (`order.cached`)."""
    return cached(alg, "law_skeleton", lambda: _law_skeleton(alg))


def _law_skeleton(alg) -> LawSkeleton:
    """The laws of generator_search on alg, on its generators (J(q) of an
    rqf, J(S) of a complete restriction monoid), without a target:
    below[i, x] (the i-th generator in the linear extension is <= x);
    lower[k], the positions of the generators below the k-th, whose images
    must lie below its image; laws[k], the laws whose last generator is the
    k-th, as (rest, operation name, a, b, joined), with the join of the
    images at the positions of rest, joined with the k-th image when
    joined (the k-th generator lies below the derived element), to equal
    op[image a][image b], op[image a] when b is None, and op itself when a
    is None; and constant, the names of the operations (the unit, the top)
    whose law names no generator, the derived element being the zero.
    Immutable and free of references to alg, so that `order.cached` can
    hold it."""
    if isinstance(alg, EhresmannQuantale):
        gens, top = join_irreducibles(alg), alg.top
    else:
        from .crm import join_primes  # crm imports this module
        gens, top = join_primes(alg), None
    order = sorted(gens, key=lambda g: int(alg.leq[:, g].sum()))
    m = len(order)
    below = _freeze(alg.leq[order, :])
    laws: list[list[tuple]] = [[] for _ in range(m)]
    constant: list[str] = []
    supports: dict[int, tuple] = {}

    def law(derived: int, name: str, a=None, b=None) -> None:
        if derived not in supports:
            supports[derived] = tuple(np.flatnonzero(below[:, derived]).tolist())
        support = supports[derived]
        operands = [p for p in (a, b) if p is not None]
        if not operands and not support:
            constant.append(name)
            return
        k = max(operands + list(support))
        laws[k].append((tuple(p for p in support if p != k), name, a, b, k in support))

    for k, h in enumerate(order):
        for i, g in enumerate(order[:k + 1]):
            if i < k:
                law(int(alg.meet[g, h]), "meet", i, k)
                law(int(alg.mul[h, g]), "mul", k, i)
            law(int(alg.mul[g, h]), "mul", i, k)
        law(int(alg.star[h]), "star", k)
        law(int(alg.plus[h]), "plus", k)
    law(alg.unit, "unit")
    if top is not None:
        law(top, "top")
    lower = tuple(tuple(i for i in range(k) if below[i, order[k]]) for k in range(m))
    return LawSkeleton(below, lower, tuple(map(tuple, laws)), tuple(constant))


def enumerate_rqf_morphisms(q: EhresmannQuantale, r: EhresmannQuantale,
                            max_elements: int = MAX_TABLE_SIDE) -> list[np.ndarray]:
    """All RQF morphisms q -> r, for valid rqfs q and r: the maps of
    generator_search over the join-irreducibles J(q), with the partial
    isometries (PIs) of r as candidates, that send every PI of q to a PI of
    r (`_keeps_isometries`), the one law the search does not compile.

    No morphism is lost: a morphism preserves joins, and every element of q
    is the join of the j <= it in J, so it is fixed by its values on J; J is
    inside PI(q), since every element is a join of PIs and a
    join-irreducible equals one of its joinands, and PIs go to PIs; and it
    keeps every law the search compiles.

    None is added: every map found passes validate_rqf_morphism.  Every j
    in J is join-prime in q (q is distributive) and every element is the
    join of the j below it.  A map found is theta(a) = the join of the
    theta(j) over the j <= a in J, in range, and theta(j) is the image of
    j, since the images of the j' <= j lie below it:
    - joins: the j below a \\/ b are those below a with those below b, so
      theta preserves all joins, the empty one (theta(0) = 0) included;
    - finite meets and mul: a /\\ b is the join of the j /\\ k over j <= a,
      k <= b in J (distributivity in q), theta(a) /\\ theta(b) the join of
      the theta(j) /\\ theta(k) (distributivity in r), and the search
      compiles theta(j /\\ k) = theta(j) /\\ theta(k) on J x J; mul
      likewise, distributing over joins on both sides;
    - star and plus preserve joins in q and in r, and are compiled on J;
    - top and unit are compiled; PIs to PIs is decided here.
    (Birkhoff; Davey & Priestley, Introduction to Lattices and Order,
    ch. 5.)  Without valid endpoints this can keep a map that is no
    morphism: three atoms of a boolean frame sent onto those of the
    non-distributive M3 keep every law on J but not the meet of one atom
    with the join of the other two."""
    require_at_most(q.n, max_elements, "Q has {} elements")
    require_at_most(r.n, max_elements, "R has {} elements")
    return [_freeze(theta) for theta in generator_search(q, r) if _keeps_isometries(theta, q, r)]


def _keeps_isometries(theta: np.ndarray, q: EhresmannQuantale, r: EhresmannQuantale) -> bool:
    """Whether theta sends every partial isometry of q to one of r: one
    gather, with PI(q) cached on q and the PIs of r read from the search
    target of r (`search_target`)."""
    return bool(search_target(r).candidate[theta[partial_isometries(q)]].all())


# ---------------------------------------------------------------------------
# Adjunction Theorem I, corpus-scale

@dataclass
class AdjunctionReport:
    functor_homset: list = field(default_factory=list)
    morphism_homset: list = field(default_factory=list)
    ok: bool = True
    failures: list = field(default_factory=list)

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.functor_homset), len(self.morphism_homset)


def verify_adjunction_I(tc: FiniteTopCategory, q: EhresmannQuantale,
                        max_arrows: int = MAX_ARROWS,
                        max_elements: int = MAX_TABLE_SIDE) -> AdjunctionReport:
    """Enumerate all continuous covering functors C -> C(Q) and all RQF
    morphisms Q -> Omega(C), and verify the two transposes are mutually
    inverse bijections between the hom-sets.  More than max_arrows arrows
    of C are refused before anything is built.  max_elements then bounds
    Omega(C), the target of the morphism search, before it is built; then
    the elements of Q, before C(Q), which has no more opens, is built under
    it; then max_arrows bounds the arrows of C(Q).  Omega(C) is cached on C
    (functors.omega_object) and C(Q) on Q (functors.c_object), so a check
    against a category or an algebra seen before builds neither again."""
    rep = AdjunctionReport()
    require_at_most(tc.n, max_arrows, "C has {} arrows", name="max_arrows")
    om = omega_object(tc, max_elements)
    require_at_most(q.n, max_elements, "Q has {} elements")
    fc = c_object(q, max_elements)
    require_at_most(fc.n, max_arrows, "C(Q) has {} arrows", name="max_arrows")
    rep.functor_homset = enumerate_covering_functors(tc, fc.topcat, max_arrows)
    rep.morphism_homset = enumerate_rqf_morphisms(q, om.rqf, max_elements)
    check_transposes(rep, *transposes(fc, om))
    return rep


def check_transposes(rep: AdjunctionReport, forward, backward) -> None:
    """Check that forward (functor -> morphism) and backward (morphism ->
    functor) are mutually inverse bijections between the hom-sets of rep,
    appending each failure to rep.failures with the index of the map it
    starts from: first the functors, then the morphisms, then the sizes.  A
    transpose that returns None is not in the hom-set.

    The second direction is skipped when the first had no failure and
    there are as many distinct functors as morphisms, since it cannot fail
    then.  The first direction has shown that forward sends every functor
    into the morphisms and backward brings it back, so forward is injective
    on the distinct functors; with as many of them as morphisms, it is
    onto, and the morphisms are distinct too.  So every morphism m is
    forward(f) for a functor f, backward(m) = f is in the hom-set and
    forward(backward(m)) = m."""
    directions = (
        (rep.functor_homset, rep.morphism_homset, forward, backward,
         "forward_transpose_not_in_homset", "backward_of_forward_not_identity"),
        (rep.morphism_homset, rep.functor_homset, backward, forward,
         "backward_transpose_not_in_homset", "forward_of_backward_not_identity"),
    )
    for k, (homset, other, there, back, not_in_homset, not_identity) in enumerate(directions):
        if k and not rep.failures and len({f.tobytes() for f in other}) == len(homset):
            break
        keys = {m.tobytes() for m in other}
        for i, m in enumerate(homset):
            image = there(m)
            if image is None or image.tobytes() not in keys:
                rep.failures.append((not_in_homset, i))
                continue
            again = back(image)
            if again is None or not np.array_equal(again, m):
                rep.failures.append((not_identity, i))
    if len(rep.functor_homset) != len(rep.morphism_homset):
        rep.failures.append(("homset_sizes_differ", rep.sizes))
    rep.ok = not rep.failures


def check_naturality_in_category(g, tc_src: FiniteTopCategory, tc_dst: FiniteTopCategory,
                                 q: EhresmannQuantale, max_arrows: int = MAX_ARROWS,
                                 max_elements: int = MAX_TABLE_SIDE
                                 ) -> tuple[bool, Optional[tuple]]:
    """For a continuous covering functor G: C' -> C, precomposition commutes
    with the forward transpose: T(alpha o G) = Omega(G) o T(alpha).  C(Q),
    Omega(C') and Omega(C) are built under max_elements, and the functor
    search C -> C(Q) refuses more than max_arrows arrows, as in
    verify_adjunction_I."""
    g = np.asarray(g, dtype=np.int64)
    fc = c_object(q, max_elements)
    om_src, om_dst = omega_object(tc_src, max_elements), omega_object(tc_dst, max_elements)
    omega_g = omega_morphism(g, om_src, om_dst)
    forward_src = transposes(fc, om_src)[0]
    forward_dst = transposes(fc, om_dst)[0]
    for alpha in enumerate_covering_functors(tc_dst, fc.topcat, max_arrows):
        lhs = forward_src(alpha[g])
        rhs = omega_g[forward_dst(alpha)]
        if not np.array_equal(lhs, rhs):
            return False, ("naturality_category", alpha.tolist())
    return True, None


def check_naturality_in_quantale(psi, q_src: EhresmannQuantale, q_dst: EhresmannQuantale,
                                 tc: FiniteTopCategory, max_arrows: int = MAX_ARROWS,
                                 max_elements: int = MAX_TABLE_SIDE
                                 ) -> tuple[bool, Optional[tuple]]:
    """For an RQF morphism psi: Q -> Q', postcomposition by C(psi) commutes
    with the forward transpose: T(C(psi) o alpha) = T(alpha) o psi.  C(Q),
    C(Q') and Omega(C) are built under max_elements, and the functor
    search C -> C(Q') refuses more than max_arrows arrows, as in
    verify_adjunction_I."""
    psi = np.asarray(psi, dtype=np.int64)
    fc_src, fc_dst = c_object(q_src, max_elements), c_object(q_dst, max_elements)
    om = omega_object(tc, max_elements)
    c_psi = c_morphism(psi, fc_src, fc_dst)
    forward_src = transposes(fc_src, om)[0]
    forward_dst = transposes(fc_dst, om)[0]
    for alpha in enumerate_covering_functors(tc, fc_dst.topcat, max_arrows):
        lhs = forward_src(c_psi[alpha])
        rhs = forward_dst(alpha)[psi]
        if not np.array_equal(lhs, rhs):
            return False, ("naturality_quantale", alpha.tolist())
    return True, None


# ---------------------------------------------------------------------------
# isomorphism search: arrow_maps with iso, over arrows of equal fingerprint

def find_category_isomorphism(c1: FiniteCategory, c2: FiniteCategory,
                              max_arrows: int = MAX_ARROWS) -> Optional[np.ndarray]:
    """The first isomorphism c1 -> c2 in lexicographic order, or None: the
    arrows placed in index order, each over the arrows of c2 with its
    fingerprint, which an isomorphism keeps.  More than max_arrows arrows
    are refused (`reports.require_at_most`)."""
    if c1.n != c2.n:
        return None
    require_at_most(c1.n, max_arrows, "C has {} arrows", name="max_arrows")

    def fingerprint(c: FiniteCategory, a: int) -> tuple:
        return (c.is_identity(a), int((c.d == c.d[a]).sum()), int((c.r == c.r[a]).sum()),
                int((c.comp[a, :] != UNDEF).sum()), int((c.comp[:, a] != UNDEF).sum()))

    f1 = [fingerprint(c1, a) for a in range(c1.n)]
    f2 = [fingerprint(c2, a) for a in range(c2.n)]
    if sorted(f1) != sorted(f2):
        return None
    cand = [[b for b in range(c2.n) if f2[b] == f1[a]] for a in range(c1.n)]
    order = list(range(c1.n))
    f = next(arrow_maps(arrow_laws(c1, order, iso=True), _rows(c2.comp), order, cand), None)
    return None if f is None else _freeze(np.array(f, dtype=np.int64))


def quantale_isomorphism_ok(f, q1: EhresmannQuantale, q2: EhresmannQuantale) -> bool:
    """Check an explicit bijection is an isomorphism of Ehresmann quantales.

    One scan, validate_rqf_morphism(f, q1, q2), and the order both ways,
    q2.leq[f][:, f] == q1.leq, which is O(n^2).  The inverse then passes
    the scan too.  Every other law the scan checks is an equation between
    tables (join, meet, mul, star, plus) or constants (bottom, top, unit)
    that f carries both ways: f(x.y) = f(x).f(y) for all x, y reads, with
    x = f^-1(a) and y = f^-1(b), as f^-1(a.b) = f^-1(a).f^-1(b).  And the
    partial isometries are defined from leq, mul, star and plus, all of
    which f carries both ways, so f maps PI(q1) onto PI(q2)."""
    f = np.asarray(f, dtype=np.int64)
    if sorted(int(v) for v in f) != list(range(q2.n)) or q1.n != q2.n:
        return False
    return (validate_rqf_morphism(f, q1, q2).ok
            and np.array_equal(q2.leq[np.ix_(f, f)], q1.leq))
