"""Comparison maps, spatiality/sobriety, morphism validation, hom-set
enumeration and the machine check of the first adjunction theorem.

chi sends a quantale element a to the set X_a of completely prime filters
containing it; omega sends an arrow x to the filter O_x of opens containing
it.  The adjunction is verified literally: both hom-sets are enumerated
exhaustively and the two transposes are checked to be mutually inverse
bijections between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .bits import has_bit, iter_bits, mask_of
from .functors import (FilterCategoryResult, OmegaResult, c_object,
                       omega_object)
from .order import _freeze
from .quantale import EhresmannQuantale, partial_isometries
from .reports import BoundExceeded, Report
from .topcat import (UNDEF, FiniteCategory, FiniteTopCategory,
                     continuity_check, validate_covering_functor)


# ---------------------------------------------------------------------------
# morphisms of restriction quantal frames

def validate_rqf_morphism(theta, q: EhresmannQuantale, r: EhresmannQuantale) -> Report:
    """The five defining conditions, each checked exhaustively:
    all joins, finite meets, Ehresmann + semigroup morphism, top and unit,
    partial isometries to partial isometries."""
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

    r_pis = set(partial_isometries(r))
    for a in partial_isometries(q):
        if int(theta[a]) not in r_pis:
            rep.add("morphism.preserves_isometries", (a, int(theta[a])))
            break
    return rep


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
    chi = np.array([om.index[fc.calc.x_mask(a)] for a in range(q.n)], dtype=np.int64)
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
        m = fc.calc.x_mask(a)
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


def build_omega_map(tc: FiniteTopCategory, om: Optional[OmegaResult] = None) -> OmegaMapResult:
    if om is None:
        om = omega_object(tc)
    fc = c_object(om.rqf, max_opens=1 << 20)
    omega = np.zeros(tc.n, dtype=np.int64)
    for x in range(tc.n):
        members = mask_of(i for i, u in enumerate(om.opens) if has_bit(u, x))
        omega[x] = fc.calc.filter_of(members, f"O_{x}")
    rep = validate_covering_functor(omega, tc.cat, fc.topcat.cat)
    rep.subject = "omega-map"
    ok, wit = continuity_check(omega, tc, fc.topcat)
    if not ok:
        rep.add("omega.continuous", (wit,))
    # omega^{-1}(X_U) = U, per element of Omega(C)
    for i in range(om.n):
        xu = fc.calc.x_mask(i)
        pre = mask_of(x for x in range(tc.n) if has_bit(xu, int(omega[x])))
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
        if image != fc.calc.x_mask(i):
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
    q |-> alpha^{-1}(X_q) = {c : q in alpha(c)}."""
    alpha = np.asarray(alpha, dtype=np.int64)
    out = np.zeros(q.n, dtype=np.int64)
    for a in range(q.n):
        members = mask_of(c for c in range(tc.n)
                          if has_bit(fc.filters[int(alpha[c])].members, a))
        i = om.index.get(members)
        if i is None:
            raise ValueError(f"transpose of alpha is not open at element {a}")
        out[a] = i
    return _freeze(out)


def transpose_backward(beta, tc: FiniteTopCategory, q: EhresmannQuantale,
                       fc: FilterCategoryResult, om: OmegaResult) -> np.ndarray:
    """morphism beta: Q -> Omega(C)  |->  functor C -> C(Q),
    c |-> beta^{-1}(O_c) = {q : c in beta(q)}."""
    beta = np.asarray(beta, dtype=np.int64)
    out = np.zeros(tc.n, dtype=np.int64)
    for c in range(tc.n):
        members = mask_of(a for a in range(q.n) if has_bit(om.opens[int(beta[a])], c))
        out[c] = fc.calc.filter_of(members, f"beta^-1(O_{c})")
    return _freeze(out)


# ---------------------------------------------------------------------------
# hom-set enumeration

def enumerate_covering_functors(src: FiniteTopCategory, dst: FiniteTopCategory,
                                max_arrows: int = 12) -> list[np.ndarray]:
    """All continuous covering functors src -> dst, by backtracking over the
    arrow map with d/r pruning, then full validation."""
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


def enumerate_rqf_morphisms(q: EhresmannQuantale, r: EhresmannQuantale,
                            max_elements: int = 64) -> list[np.ndarray]:
    """All RQF morphisms q -> r.  A morphism preserves joins and every element
    is a join of partial isometries, so it is determined by its restriction to
    the partial isometries; backtrack over those, extend by joins, validate."""
    if q.n > max_elements or r.n > max_elements:
        raise BoundExceeded(f"morphism enumeration bounded to {max_elements} elements")
    q_pis = partial_isometries(q)
    r_pis = partial_isometries(r)
    q_rank = {p: i for i, p in enumerate(sorted(q_pis, key=lambda p: int(q.leq[:, p].sum())))}
    order = sorted(q_pis, key=lambda p: q_rank[p])
    assign: dict[int, int] = {}
    found: list[dict[int, int]] = []

    def consistent(p: int) -> bool:
        tp = assign[p]
        if p == q.bottom and tp != r.bottom:
            return False
        if p == q.unit and tp != r.unit:
            return False
        sp = int(q.star[p])
        if sp in assign and int(r.star[tp]) != assign[sp]:
            return False
        pp = int(q.plus[p])
        if pp in assign and int(r.plus[tp]) != assign[pp]:
            return False
        for o, to in assign.items():
            if q.leq[p, o] and not r.leq[tp, to]:
                return False
            if q.leq[o, p] and not r.leq[to, tp]:
                return False
            for x, y, tx, ty in ((p, o, tp, to), (o, p, to, tp)):
                m = int(q.mul[x, y])
                if m in assign and int(r.mul[tx, ty]) != assign[m]:
                    return False
                m = int(q.meet[x, y])
                if m in assign and int(r.meet[tx, ty]) != assign[m]:
                    return False
                j = int(q.join[x, y])
                if j in assign and j in q_rank and int(r.join[tx, ty]) != assign[j]:
                    return False
        return True

    def backtrack(i: int) -> None:
        if i == len(order):
            found.append(dict(assign))
            return
        p = order[i]
        for t in r_pis:
            assign[p] = t
            if consistent(p):
                backtrack(i + 1)
            del assign[p]

    backtrack(0)
    out = []
    seen = set()
    for a in found:
        theta = np.zeros(q.n, dtype=np.int64)
        for x in range(q.n):
            theta[x] = _join_fold(r, [a[p] for p in q_pis if q.leq[p, x]])
        key = theta.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if validate_rqf_morphism(theta, q, r).ok:
            out.append(_freeze(theta))
    return out


def _join_fold(r: EhresmannQuantale, xs: list[int]) -> int:
    acc = r.bottom
    for x in xs:
        acc = int(r.join[acc, x])
    return acc


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
                        max_arrows: int = 12, max_elements: int = 64) -> AdjunctionReport:
    """Enumerate all continuous covering functors C -> C(Q) and all RQF
    morphisms Q -> Omega(C), and verify the two transposes are mutually
    inverse bijections between the hom-sets."""
    rep = AdjunctionReport()
    fc = c_object(q)
    om = omega_object(tc)
    if fc.n > max_arrows:
        raise BoundExceeded(f"C(Q) has {fc.n} arrows > {max_arrows}")
    rep.functor_homset = enumerate_covering_functors(tc, fc.topcat, max_arrows)
    rep.morphism_homset = enumerate_rqf_morphisms(q, om.rqf, max_elements)

    morph_keys = {m.tobytes(): i for i, m in enumerate(rep.morphism_homset)}
    func_keys = {f.tobytes(): i for i, f in enumerate(rep.functor_homset)}

    for i, alpha in enumerate(rep.functor_homset):
        beta = transpose_forward(alpha, tc, q, fc, om)
        if beta.tobytes() not in morph_keys:
            rep.ok = False
            rep.failures.append(("forward_transpose_not_in_homset", i))
            continue
        back = transpose_backward(beta, tc, q, fc, om)
        if not np.array_equal(back, alpha):
            rep.ok = False
            rep.failures.append(("backward_of_forward_not_identity", i))
    for i, beta in enumerate(rep.morphism_homset):
        alpha = transpose_backward(beta, tc, q, fc, om)
        if alpha.tobytes() not in func_keys:
            rep.ok = False
            rep.failures.append(("backward_transpose_not_in_homset", i))
            continue
        forth = transpose_forward(alpha, tc, q, fc, om)
        if not np.array_equal(forth, beta):
            rep.ok = False
            rep.failures.append(("forward_of_backward_not_identity", i))
    if len(rep.functor_homset) != len(rep.morphism_homset):
        rep.ok = False
        rep.failures.append(("homset_sizes_differ", rep.sizes))
    return rep


def check_naturality_in_category(g, tc_src: FiniteTopCategory, tc_dst: FiniteTopCategory,
                                 q: EhresmannQuantale) -> tuple[bool, Optional[tuple]]:
    """For a continuous covering functor G: C' -> C, precomposition commutes
    with the forward transpose: T(alpha o G) = Omega(G) o T(alpha)."""
    from .functors import omega_morphism

    g = np.asarray(g, dtype=np.int64)
    fc = c_object(q)
    om_src = omega_object(tc_src)
    om_dst = omega_object(tc_dst)
    omega_g = omega_morphism(g, om_src, om_dst)
    for alpha in enumerate_covering_functors(tc_dst, fc.topcat):
        lhs = transpose_forward(alpha[g], tc_src, q, fc, om_src)
        rhs = omega_g[transpose_forward(alpha, tc_dst, q, fc, om_dst)]
        if not np.array_equal(lhs, rhs):
            return False, ("naturality_category", alpha.tolist())
    return True, None


def check_naturality_in_quantale(psi, q_src: EhresmannQuantale, q_dst: EhresmannQuantale,
                                 tc: FiniteTopCategory) -> tuple[bool, Optional[tuple]]:
    """For an RQF morphism psi: Q -> Q', postcomposition by C(psi) commutes
    with the forward transpose: T(C(psi) o alpha) = T(alpha) o psi."""
    from .functors import c_morphism

    psi = np.asarray(psi, dtype=np.int64)
    fc_src = c_object(q_src)
    fc_dst = c_object(q_dst)
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
