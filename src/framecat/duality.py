"""Comparison maps, spatiality/sobriety, morphism validation, hom-set
enumeration and the machine check of the first adjunction theorem.

validate_rqf_morphism checks every law on all elements and pairs, for any
endpoints.  The rqf hom-set search, whose endpoints are valid rqfs, decides
each candidate on the join-irreducibles J of its source instead
(_is_rqf_morphism_on_j): joins as "theta(a) is the join of the theta(j)
below a", meets and mul on J x J, star and plus on J, by distributivity and
join-primeness (Birkhoff; Davey & Priestley, Introduction to Lattices and
Order, ch. 5).  That is O(n |J| + |J|^2) instead of three n-by-n gathers.

chi sends a quantale element a to the set X_a of completely prime filters
containing it; omega sends an arrow x to the filter O_x of opens containing
it.  The adjunction is verified literally: both hom-sets are enumerated
exhaustively and the two transposes are checked to be mutually inverse
bijections between them (check_transposes).  The morphism hom-set is found
by morphism_search, a backtracking over tables from search_tables; the
functor hom-set by a backtracking over arrow maps that prunes by d, r,
composition and the injective half of the covering condition.  The
second adjunction in crm reuses the functor search, morphism_search and
check_transposes.

Each transpose reads a membership relation the other way round: the filters
alpha(c) (or the opens beta(q)) become the rows of one bool matrix
(bits.bit_matrix), and its columns, packed back by bits.row_masks, are the
sets {c : q in alpha(c)} (or {q : c in beta(q)}).  build_omega_map reads
the filters O_x off the columns of the opens the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .bits import bit_matrix, iter_bits, mask_of, row_masks
from .functors import (FilterCategoryResult, OmegaResult, c_morphism, c_object,
                       omega_morphism, omega_object)
from .order import _freeze, join_irreducibles
from .quantale import EhresmannQuantale, partial_isometries
from .reports import BoundExceeded, Report
from .topcat import (UNDEF, FiniteCategory, FiniteTopCategory,
                     continuity_check, validate_covering_functor)


# ---------------------------------------------------------------------------
# morphisms of restriction quantal frames

def validate_rqf_morphism(theta, q: EhresmannQuantale, r: EhresmannQuantale,
                          q_pis: Optional[list[int]] = None,
                          r_pis: Optional[list[int]] = None) -> Report:
    """The five defining conditions, each checked exhaustively:
    all joins, finite meets, Ehresmann + semigroup morphism, top and unit,
    partial isometries to partial isometries.  The partial isometries of q
    and r are computed unless given as q_pis and r_pis."""
    theta = np.asarray(theta, dtype=np.int64)
    rep = Report(subject="rqf-morphism")
    rep.layers_run.append("rqf-morphism")
    n = q.n
    if theta.shape != (n,) or ((theta < 0) | (theta >= r.n)).any():
        rep.add("morphism.map_range", (0,))
        return rep

    diff = theta[q.join] != r.join[np.ix_(theta, theta)]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("morphism.preserves_joins", (int(a), int(b)))
    if theta[q.bottom] != r.bottom:
        rep.add("morphism.preserves_bottom", (q.bottom,))

    diff = theta[q.meet] != r.meet[np.ix_(theta, theta)]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("morphism.preserves_finite_meets", (int(a), int(b)))

    diff = theta[q.mul] != r.mul[np.ix_(theta, theta)]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("morphism.semigroup", (int(a), int(b)))
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

    r_pi_set = set(partial_isometries(r) if r_pis is None else r_pis)
    for a in (partial_isometries(q) if q_pis is None else q_pis):
        if int(theta[a]) not in r_pi_set:
            rep.add("morphism.preserves_isometries", (a, int(theta[a])))
            break
    return rep


def _is_rqf_morphism_on_j(theta: np.ndarray, q: EhresmannQuantale,
                          r: EhresmannQuantale, q_js: list[int], q_pis: list[int],
                          r_is_pi: np.ndarray) -> bool:
    """validate_rqf_morphism(theta, q, r).ok, decided on the join-irreducibles
    q_js of q, for valid rqfs q and r only; r_is_pi[e] tells whether e is a
    partial isometry of r.

    Every j in J is join-prime in q and every element is the join of the j
    below it.  With theta in range:
    - joins: theta(a) is the join of the theta(j) over the j <= a in J, for
      every a (at a = 0 the empty join, so theta(0) = 0).  The j below
      a \\/ b are those below a with those below b, so theta preserves all
      joins.  |J| whole-array steps;
    - finite meets and mul: on J x J only.  a /\\ b is the join of the
      j /\\ k over j <= a, k <= b in J (distributivity in q), theta(a) /\\
      theta(b) the join of the theta(j) /\\ theta(k) (distributivity in r),
      and theta preserves joins; mul likewise, distributing over joins on
      both sides, the empty join included;
    - star and plus: on J only, since they preserve joins in q and r;
    - top, unit and partial isometries: directly.
    Without the precondition this can pass a map that is no morphism: three
    atoms of a boolean frame sent onto those of the non-distributive M3
    keep every law on J but not the meet of one atom with the join of the
    other two."""
    if theta.shape != (q.n,) or ((theta < 0) | (theta >= r.n)).any():
        return False
    joins = np.full(q.n, r.bottom, dtype=np.int64)  # joins[a]: of theta(j), j <= a
    for j in q_js:
        joins = np.where(q.leq[j], r.join[joins, theta[j]], joins)
    if not np.array_equal(joins, theta):
        return False
    js = np.asarray(q_js, dtype=np.int64)
    tj = theta[js]
    pairs, images = np.ix_(js, js), np.ix_(tj, tj)
    return bool(np.array_equal(theta[q.meet[pairs]], r.meet[images])
                and np.array_equal(theta[q.mul[pairs]], r.mul[images])
                and np.array_equal(theta[q.star[js]], r.star[tj])
                and np.array_equal(theta[q.plus[js]], r.plus[tj])
                and theta[q.top] == r.top and theta[q.unit] == r.unit
                and r_is_pi[theta[q_pis]].all())


# ---------------------------------------------------------------------------
# chi and spatiality

@dataclass(frozen=True, eq=False)
class ChiResult:
    chi: np.ndarray          # Q -> Omega(C(Q)) element map
    fc: FilterCategoryResult
    om: OmegaResult          # Omega(C(Q))
    report: Report


def build_chi(q: EhresmannQuantale, fc: Optional[FilterCategoryResult] = None) -> ChiResult:
    if fc is None:
        fc = c_object(q)
    om = omega_object(fc.topcat, max_elements=1 << 20)
    chi = np.array([om.index[fc.x_mask(a)] for a in range(q.n)], dtype=np.int64)
    rep = validate_rqf_morphism(chi, q, om.rqf)
    rep.subject = "chi"
    return ChiResult(chi=_freeze(chi), fc=fc, om=om, report=rep)


def is_spatial(q: EhresmannQuantale,
               fc: Optional[FilterCategoryResult] = None) -> tuple[bool, Optional[tuple[int, int]]]:
    """X_a = X_b must imply a = b; surjectivity onto the opens of C(Q) is
    automatic because every open is a union of X-sets."""
    if fc is None:
        fc = c_object(q)
    seen: dict[int, int] = {}
    for a in range(q.n):
        m = fc.x_mask(a)
        if m in seen:
            return False, (seen[m], a)
        seen[m] = a
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


# ---------------------------------------------------------------------------
# omega map and sobriety

@dataclass(frozen=True, eq=False)
class OmegaMapResult:
    omega: np.ndarray        # C -> C(Omega(C)) arrow map
    om: OmegaResult          # Omega(C)
    fc: FilterCategoryResult  # C(Omega(C))
    report: Report


def build_omega_map(tc: FiniteTopCategory, om: Optional[OmegaResult] = None,
                    fc: Optional[FilterCategoryResult] = None) -> OmegaMapResult:
    """omega: C -> C(Omega(C)); `om` and `fc` are Omega(C) and C(Omega(C))
    when already built."""
    if om is None:
        om = omega_object(tc)
    if fc is None:
        fc = c_object(om.rqf, max_opens=1 << 20)
    omega = np.zeros(tc.n, dtype=np.int64)
    for x, members in enumerate(row_masks(bit_matrix(om.opens, tc.n).T)):
        omega[x] = fc.filter_of(members, f"O_{x}")
    rep = validate_covering_functor(omega, tc.cat, fc.topcat.cat)
    rep.subject = "omega-map"
    ok, wit = continuity_check(omega, tc, fc.topcat)
    if not ok:
        rep.add("omega.continuous", (wit,))
    # omega^{-1}(X_U) = U, per element of Omega(C)
    x_sets = bit_matrix([fc.x_mask(i) for i in range(om.n)], fc.n)
    for i, pre in enumerate(row_masks(x_sets[:, omega])):
        if pre != om.opens[i]:
            rep.add("omega.preimage_of_xset", (i,))
            break
    return OmegaMapResult(omega=_freeze(omega), om=om, fc=fc, report=rep)


def is_sober(tc: FiniteTopCategory,
             res: Optional[OmegaMapResult] = None) -> tuple[bool, Optional[tuple]]:
    """omega bijective; on success omega is open, via omega(U) = X_U."""
    if res is None:
        res = build_omega_map(tc)
    omega, fc = res.omega, res.fc
    if len(set(int(v) for v in omega)) != tc.n or fc.n != tc.n:
        return False, ("not_bijective", tc.n, fc.n)
    for i in range(res.om.n):
        u = res.om.opens[i]
        image = mask_of(int(omega[x]) for x in iter_bits(u))
        if image != fc.x_mask(i):
            return False, ("image_of_open", i)
    return True, None


def omega_is_isomorphism(tc: FiniteTopCategory, res: OmegaMapResult) -> tuple[bool, str]:
    if not res.report.ok:
        return False, "omega is not a continuous covering functor: " + res.report.violations[0].law
    ok, wit = is_sober(tc, res)
    if not ok:
        return False, f"omega is not a sober bijection: {wit}"
    # a bijective functor between finite categories whose inverse preserves
    # d, r and composition is an isomorphism; verify the inverse directly
    inv = np.zeros(tc.n, dtype=np.int64)
    for x in range(tc.n):
        inv[int(res.omega[x])] = x
    rep = validate_covering_functor(inv, res.fc.topcat.cat, tc.cat)
    if not rep.ok:
        return False, "inverse of omega is not a functor"
    ok, wit = continuity_check(inv, res.fc.topcat, tc)
    if not ok:
        return False, f"inverse of omega is not continuous at open {wit}"
    return True, ""


# ---------------------------------------------------------------------------
# the adjunction transposes

def transpose_forward(alpha, tc: FiniteTopCategory, q: EhresmannQuantale,
                      fc: FilterCategoryResult, om: OmegaResult) -> np.ndarray:
    """covering functor alpha: C -> C(Q)  |->  morphism Q -> Omega(C),
    q |-> alpha^{-1}(X_q) = {c : q in alpha(c)}: the columns of the member
    matrix of the filters alpha(c)."""
    alpha = np.asarray(alpha, dtype=np.int64)
    members = bit_matrix([f.members for f in fc.filters], q.n)
    out = np.zeros(q.n, dtype=np.int64)
    for a, open_mask in enumerate(row_masks(members[alpha].T)):
        i = om.index.get(open_mask)
        if i is None:
            raise ValueError(f"transpose of alpha is not open at element {a}")
        out[a] = i
    return _freeze(out)


def transpose_backward(beta, tc: FiniteTopCategory, q: EhresmannQuantale,
                       fc: FilterCategoryResult, om: OmegaResult) -> np.ndarray:
    """morphism beta: Q -> Omega(C)  |->  functor C -> C(Q),
    c |-> beta^{-1}(O_c) = {q : c in beta(q)}: the columns of the arrow
    matrix of the opens beta(q)."""
    opens = [om.opens[b] for b in np.asarray(beta, dtype=np.int64).tolist()]
    out = np.zeros(tc.n, dtype=np.int64)
    for c, members in enumerate(row_masks(bit_matrix(opens, tc.n).T)):
        out[c] = fc.filter_of(members, f"beta^-1(O_{c})")
    return _freeze(out)


# ---------------------------------------------------------------------------
# hom-set enumeration

def enumerate_covering_functors(src: FiniteTopCategory, dst: FiniteTopCategory,
                                max_arrows: int = 12) -> list[np.ndarray]:
    """All continuous covering functors src -> dst, by backtracking over the
    arrow map, then validate_covering_functor and continuity_check.

    The search prunes by d, r and composition, and by the injective half
    of the covering condition: no two arrows with the same d, or with the
    same r, get the same image (covering.d_injective, r_injective).  Every
    map it cuts off fails validation, so the output is the list, in the
    order, of a search without these prunes."""
    cs, cd = src.cat, dst.cat
    if cs.n > max_arrows or cd.n > max_arrows:
        raise BoundExceeded(f"hom-set enumeration bounded to {max_arrows} arrows")
    order = sorted(range(cs.n), key=lambda a: (not cs.is_identity(a), a))
    dst_ids = [e for e in range(cd.n) if cd.is_identity(e)]
    fmap = np.full(cs.n, -1, dtype=np.int64)
    found: list[np.ndarray] = []

    def candidates(a: int) -> Iterable[int]:
        if cs.is_identity(a):
            return dst_ids
        de, re_ = fmap[cs.d[a]], fmap[cs.r[a]]
        return [y for y in range(cd.n)
                if (de < 0 or cd.d[y] == de) and (re_ < 0 or cd.r[y] == re_)]

    def consistent(a: int) -> bool:
        fa = fmap[a]
        if cs.d[a] >= 0 and fmap[cs.d[a]] >= 0 and cd.d[fa] != fmap[cs.d[a]]:
            return False
        if fmap[cs.r[a]] >= 0 and cd.r[fa] != fmap[cs.r[a]]:
            return False
        for b in range(cs.n):
            if fmap[b] < 0:
                continue
            if fmap[b] == fa and b != a and (cs.d[b] == cs.d[a] or cs.r[b] == cs.r[a]):
                return False
            for x, y in ((a, b), (b, a)):
                c = cs.comp[x, y]
                if c != UNDEF and fmap[c] >= 0:
                    z = cd.comp[fmap[x], fmap[y]]
                    if z == UNDEF or z != fmap[c]:
                        return False
        return True

    def backtrack(i: int) -> None:
        if i == len(order):
            found.append(fmap.copy())
            return
        a = order[i]
        for y in candidates(a):
            fmap[a] = y
            if consistent(a):
                backtrack(i + 1)
            fmap[a] = -1

    backtrack(0)
    out = []
    for f in found:
        if not validate_covering_functor(f, cs, cd).ok:
            continue
        ok, _ = continuity_check(f, src, dst)
        if ok:
            out.append(_freeze(f))
    return out


def positions(n: int, domain: list[int]) -> np.ndarray:
    """pos[e] = the position of e in domain, for the elements 0..n-1 of an
    algebra; -1 for an element outside domain, and pos[-1] = -1, so that
    pos[table] also sends the -1 entries of a partial table to -1."""
    pos = np.full(n + 1, -1, dtype=np.int64)
    pos[domain] = np.arange(len(domain))
    return pos


class SearchTables(NamedTuple):
    """A restriction monoid on the positions of a domain, as Python lists
    for morphism_search; -1 stands for a value outside the domain."""
    leq: list
    mul: list
    meet: list
    join: list
    star: list
    plus: list
    zero: int
    unit: int
    order: list  # the positions by down-set size, ties in position order


def search_tables(alg, domain: list[int], zero: int, joins: np.ndarray) -> SearchTables:
    """The operations of alg (a quantale or a restriction monoid) on the
    elements in domain, renamed to their positions; `joins` is the join
    table to search with, -1 where a join is not to be used."""
    pos = positions(alg.n, domain)
    block = np.ix_(domain, domain)
    return SearchTables(
        leq=alg.leq[block].tolist(), mul=pos[alg.mul[block]].tolist(),
        meet=pos[alg.meet[block]].tolist(), join=pos[joins[block]].tolist(),
        star=pos[alg.star[domain]].tolist(), plus=pos[alg.plus[domain]].tolist(),
        zero=int(pos[zero]), unit=int(pos[alg.unit]),
        order=np.argsort(alg.leq[:, domain].sum(axis=0), kind="stable").tolist())


def morphism_search(s: SearchTables, t: SearchTables) -> list[list[int]]:
    """Every map from the positions of s to those of t that preserves zero,
    unit, star, plus, the order, mul, meet and join wherever they stay in
    the domains, as image lists in depth-first order.

    The positions of s are visited in s.order, so everything strictly below
    an element is assigned before it.  Each position of t is a candidate
    image, pruned against the elements assigned so far.

    Forced joins: where p = x v y for x, y visited before p, the image of p
    must be the join of their images in t, the only candidate tried, and
    none is tried when that join is -1.  The candidate lists are sub-lists
    of the full ones, so the maps come out in the order of a search that
    tries every candidate."""
    s_leq, s_mul, s_meet, s_join, s_star, s_plus, s_zero, s_unit, order = s
    t_leq, t_mul, t_meet, t_join, t_star, t_plus, t_zero, t_unit, t_order = t
    rank = {p: i for i, p in enumerate(order)}
    forced: list[Optional[tuple[int, int]]] = [None] * len(order)
    for x in range(len(order)):
        for y in range(x, len(order)):
            j = s_join[x][y]
            if j >= 0 and forced[j] is None and rank[x] < rank[j] and rank[y] < rank[j]:
                forced[j] = (x, y)
    every_image = range(len(t_order))
    assign = [-1] * len(order)
    found: list[list[int]] = []

    def consistent(i: int) -> bool:
        p = order[i]
        tp = assign[p]
        if p == s_zero and tp != t_zero:
            return False
        if p == s_unit and tp != t_unit:
            return False
        sp = s_star[p]
        if sp >= 0 and assign[sp] >= 0 and t_star[tp] != assign[sp]:
            return False
        pp = s_plus[p]
        if pp >= 0 and assign[pp] >= 0 and t_plus[tp] != assign[pp]:
            return False
        for o in order[:i + 1]:
            to = assign[o]
            if s_leq[p][o] and not t_leq[tp][to]:
                return False
            if s_leq[o][p] and not t_leq[to][tp]:
                return False
            for x, y, tx, ty in ((p, o, tp, to), (o, p, to, tp)):
                m = s_mul[x][y]
                if m >= 0 and assign[m] >= 0 and t_mul[tx][ty] != assign[m]:
                    return False
                m = s_meet[x][y]
                if m >= 0 and assign[m] >= 0 and t_meet[tx][ty] != assign[m]:
                    return False
                j = s_join[x][y]
                if j >= 0 and assign[j] >= 0 and t_join[tx][ty] != assign[j]:
                    return False
        return True

    def backtrack(i: int) -> None:
        if i == len(order):
            found.append(list(assign))
            return
        p = order[i]
        candidates = every_image
        if forced[p] is not None:
            x, y = forced[p]
            v = t_join[assign[x]][assign[y]]
            candidates = (v,) if v >= 0 else ()
        for v in candidates:
            assign[p] = v
            if consistent(i):
                backtrack(i + 1)
        assign[p] = -1

    backtrack(0)
    return found


def enumerate_rqf_morphisms(q: EhresmannQuantale, r: EhresmannQuantale,
                            max_elements: int = 64) -> list[np.ndarray]:
    """All RQF morphisms q -> r, for valid rqfs q and r.  A morphism
    preserves joins and every element is a join of partial isometries
    (PIs), so it is determined by its restriction to the PIs:
    morphism_search over the PIs of q and r, with the frame joins, then
    extension by joins and the morphism laws decided on J(q), computed
    once (_is_rqf_morphism_on_j).

    No morphism is lost, since a morphism preserves joins and maps PIs to
    PIs; none is added, since every search result is extended by joins and
    kept only if it passes what validate_rqf_morphism checks."""
    if q.n > max_elements or r.n > max_elements:
        raise BoundExceeded(f"morphism enumeration bounded to {max_elements} elements")
    q_pis = partial_isometries(q)
    r_pis = partial_isometries(r)
    q_js = join_irreducibles(q)
    r_is_pi = np.zeros(r.n, dtype=bool)
    r_is_pi[r_pis] = True
    found = morphism_search(search_tables(q, q_pis, q.bottom, q.join),
                            search_tables(r, r_pis, r.bottom, r.join))
    above = q.leq[q_pis, :]  # above[i, e]: the i-th PI is below e
    out = []
    seen = set()
    for images in found:
        theta = np.full(q.n, r.bottom, dtype=np.int64)
        for i, t in enumerate(images):
            theta = np.where(above[i], r.join[theta, r_pis[t]], theta)
        key = theta.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if _is_rqf_morphism_on_j(theta, q, r, q_js, q_pis, r_is_pi):
            out.append(_freeze(theta))
    return out


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
                        max_arrows: int = 12, max_elements: int = 64,
                        fc: Optional[FilterCategoryResult] = None,
                        om: Optional[OmegaResult] = None) -> AdjunctionReport:
    """Enumerate all continuous covering functors C -> C(Q) and all RQF
    morphisms Q -> Omega(C), and verify the two transposes are mutually
    inverse bijections between the hom-sets.  `fc` and `om` are C(Q) and
    Omega(C) when already built."""
    rep = AdjunctionReport()
    if fc is None:
        fc = c_object(q)
    if om is None:
        om = omega_object(tc)
    if fc.n > max_arrows:
        raise BoundExceeded(f"C(Q) has {fc.n} arrows > {max_arrows}")
    rep.functor_homset = enumerate_covering_functors(tc, fc.topcat, max_arrows)
    rep.morphism_homset = enumerate_rqf_morphisms(q, om.rqf, max_elements)

    check_transposes(rep, lambda alpha: transpose_forward(alpha, tc, q, fc, om),
                     lambda beta: transpose_backward(beta, tc, q, fc, om))
    return rep


def check_transposes(rep: AdjunctionReport, forward, backward) -> None:
    """Check that forward (functor -> morphism) and backward (morphism ->
    functor) are mutually inverse bijections between the hom-sets of rep,
    appending each failure to rep.failures with the index of the map it
    starts from: first the functors, then the morphisms, then the sizes.  A
    transpose that returns None is not in the hom-set."""
    directions = (
        (rep.functor_homset, rep.morphism_homset, forward, backward,
         "forward_transpose_not_in_homset", "backward_of_forward_not_identity"),
        (rep.morphism_homset, rep.functor_homset, backward, forward,
         "backward_transpose_not_in_homset", "forward_of_backward_not_identity"),
    )
    for homset, other, there, back, not_in_homset, not_identity in directions:
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
                                 q: EhresmannQuantale,
                                 fc: Optional[FilterCategoryResult] = None,
                                 om_src: Optional[OmegaResult] = None,
                                 om_dst: Optional[OmegaResult] = None
                                 ) -> tuple[bool, Optional[tuple]]:
    """For a continuous covering functor G: C' -> C, precomposition commutes
    with the forward transpose: T(alpha o G) = Omega(G) o T(alpha).  `fc`,
    `om_src` and `om_dst` are C(Q), Omega(C') and Omega(C) when already
    built."""
    g = np.asarray(g, dtype=np.int64)
    if fc is None:
        fc = c_object(q)
    if om_src is None:
        om_src = omega_object(tc_src)
    if om_dst is None:
        om_dst = omega_object(tc_dst)
    omega_g = omega_morphism(g, om_src, om_dst)
    for alpha in enumerate_covering_functors(tc_dst, fc.topcat):
        lhs = transpose_forward(alpha[g], tc_src, q, fc, om_src)
        rhs = omega_g[transpose_forward(alpha, tc_dst, q, fc, om_dst)]
        if not np.array_equal(lhs, rhs):
            return False, ("naturality_category", alpha.tolist())
    return True, None


def check_naturality_in_quantale(psi, q_src: EhresmannQuantale, q_dst: EhresmannQuantale,
                                 tc: FiniteTopCategory,
                                 fc_src: Optional[FilterCategoryResult] = None,
                                 fc_dst: Optional[FilterCategoryResult] = None,
                                 om: Optional[OmegaResult] = None
                                 ) -> tuple[bool, Optional[tuple]]:
    """For an RQF morphism psi: Q -> Q', postcomposition by C(psi) commutes
    with the forward transpose: T(C(psi) o alpha) = T(alpha) o psi.
    `fc_src`, `fc_dst` and `om` are C(Q), C(Q') and Omega(C) when already
    built."""
    psi = np.asarray(psi, dtype=np.int64)
    if fc_src is None:
        fc_src = c_object(q_src)
    if fc_dst is None:
        fc_dst = c_object(q_dst)
    if om is None:
        om = omega_object(tc)
    c_psi = c_morphism(psi, fc_src, fc_dst)
    for alpha in enumerate_covering_functors(tc, fc_dst.topcat):
        lhs = transpose_forward(c_psi[alpha], tc, q_src, fc_src, om)
        rhs = transpose_forward(alpha, tc, q_dst, fc_dst, om)[psi]
        if not np.array_equal(lhs, rhs):
            return False, ("naturality_quantale", alpha.tolist())
    return True, None


# ---------------------------------------------------------------------------
# isomorphism search (canonical-form backtracking on small instances)

def find_category_isomorphism(c1: FiniteCategory, c2: FiniteCategory,
                              max_arrows: int = 16) -> Optional[np.ndarray]:
    if c1.n != c2.n:
        return None
    if c1.n > max_arrows:
        raise BoundExceeded(f"isomorphism search bounded to {max_arrows} arrows")

    def fingerprint(c: FiniteCategory, a: int) -> tuple:
        return (c.is_identity(a), int((c.d == c.d[a]).sum()), int((c.r == c.r[a]).sum()),
                int((c.comp[a, :] != UNDEF).sum()), int((c.comp[:, a] != UNDEF).sum()))

    f1 = [fingerprint(c1, a) for a in range(c1.n)]
    f2 = [fingerprint(c2, a) for a in range(c2.n)]
    if sorted(f1) != sorted(f2):
        return None
    cand = [[b for b in range(c2.n) if f2[b] == f1[a]] for a in range(c1.n)]
    fmap = np.full(c1.n, -1, dtype=np.int64)
    used = set()

    def ok(a: int) -> bool:
        fa = fmap[a]
        if fmap[c1.d[a]] >= 0 and c2.d[fa] != fmap[c1.d[a]]:
            return False
        if fmap[c1.r[a]] >= 0 and c2.r[fa] != fmap[c1.r[a]]:
            return False
        for b in range(c1.n):
            if fmap[b] < 0:
                continue
            for x, y in ((a, b), (b, a)):
                c = c1.comp[x, y]
                z = c2.comp[fmap[x], fmap[y]]
                if (c == UNDEF) != (z == UNDEF):
                    return False
                if c != UNDEF and fmap[c] >= 0 and z != fmap[c]:
                    return False
        return True

    def backtrack(a: int) -> bool:
        if a == c1.n:
            return True
        for b in cand[a]:
            if b in used:
                continue
            fmap[a] = b
            used.add(b)
            if ok(a) and backtrack(a + 1):
                return True
            used.discard(b)
            fmap[a] = -1
        return False

    return _freeze(fmap) if backtrack(0) else None


def quantale_isomorphism_ok(f, q1: EhresmannQuantale, q2: EhresmannQuantale) -> bool:
    """Check an explicit bijection is an isomorphism of Ehresmann quantales."""
    f = np.asarray(f, dtype=np.int64)
    if sorted(int(v) for v in f) != list(range(q2.n)) or q1.n != q2.n:
        return False
    if not validate_rqf_morphism(f, q1, q2).ok:
        return False
    inv = np.zeros(q2.n, dtype=np.int64)
    for x in range(q1.n):
        inv[int(f[x])] = x
    return validate_rqf_morphism(inv, q2, q1).ok
