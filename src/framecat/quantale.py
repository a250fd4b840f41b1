"""Unital quantales over finite frames, Ehresmann structure, partial isometries.

The types continue the chain of `order`: FiniteQuantale is a FiniteLattice
with mul and unit, EhresmannQuantale a FiniteQuantale with star and plus.
RestrictionQuantalFrame is an alias of EhresmannQuantale: an rqf adds no
fields, it is an Ehresmann quantale that passes `validate_rqf`.  Each
validator first runs the one below it on the same object: validate_rqf,
validate_ehresmann, validate_quantale, then `order.validate_frame`,
validate_lattice and validate_poset.

A restriction quantal frame is an Ehresmann quantal frame that is etale
(the top element is a join of partial isometries) and whose partial
isometries are closed under multiplication.  The restriction identities
f.a = a.(f.a)* and a.f = (a.f)+.a hold for every partial isometry a and
projection f once the Ehresmann layer has passed, so `validate_rqf` has no
test of them: f <= e gives f.a <= a and a.f <= a, and every b <= a
satisfies b = a.b* = b+.a.  So the partial isometries form a restriction
monoid.

How the quantale and Ehresmann layers are decided (after the frame layer,
see `order`).  Each runs one exact test of its whole layer first, and only
when it fails does the law-by-law scan run, to report each violated law
with its first witness.  With J the join-irreducibles of the frame and
G(x) = {j in J : j <= x}, every x is the join of G(x), G is injective and,
in a frame, turns joins into unions (G(a \\/ b) = G(a) | G(b), G(0) empty).
An identity between joins over G-sets is decided along `order.join_splits`,
which writes each x other than the bottom as rest \\/ j with j maximal in
G(x) and G(rest) = G(x) - {j}: by induction on |G(x)|, a map that keeps
the bottom and splits at every split joins over G(x).
- Quantale (`_quantale_laws_hold`): the unit laws, O(n); then
  G(a.x) = U G(i.j) over i in G(a), j in G(x), for all a and x, which
  covers both distributivities and both zero laws, decided as
  a.0 = 0 = 0.a, a.x = a.rest \\/ a.j and x.a = rest.a \\/ j.a at every
  split, O(n^2) gathers; then associativity on J^3, since (ab)c and a(bc)
  are the joins of (ij)k and i(jk) over i in G(a), j in G(b), k in G(c).
  The scan is O(n^3).
- Ehresmann (`_ehresmann_laws_hold`), which needs the quantale layer to
  have passed: the projection, range, a.a* = a and a+.a = a laws directly;
  G(a*) = U G(j*) over j in G(a), decided as 0* = 0 and
  x* = rest* \\/ j* at every split, and the same for plus, which say that
  star and plus preserve joins; then, by distributivity, the congruences
  (ab)* = (a*b)* and (ab)+ = (ab+)+ on J x J.  The scan is O(n^2).
The rqf layer is O(n^2).  The law-by-law scans of associativity and of
a.a* = a, a+.a = a and the congruences are public (associativity_scan,
star_plus_scan): each takes the prefix of the laws it names, and
crm.validate_crm runs them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import row_blocks
from .order import (FiniteFrame, FiniteLattice, cached, join_irreducibles, join_splits,
                    validate_frame)
from .reports import Report


@dataclass(frozen=True, eq=False)
class FiniteQuantale(FiniteLattice):
    mul: np.ndarray  # (n, n) int
    unit: int


@dataclass(frozen=True, eq=False)
class EhresmannQuantale(FiniteQuantale):
    """Ehresmann quantal frame; star and plus land in the projections e-down."""

    star: np.ndarray  # (n,) int
    plus: np.ndarray  # (n,) int

    def projections(self) -> list[int]:
        """P = e-down, never stored."""
        return [int(i) for i in np.flatnonzero(self.leq[:, self.unit])]


# The restriction quantal frames are the EhresmannQuantale instances for
# which validate_rqf passes; no extra fields are involved.
RestrictionQuantalFrame = EhresmannQuantale


def make_eq(frame: FiniteFrame, mul, unit: int, star, plus) -> EhresmannQuantale:
    """The Ehresmann quantale on frame with these tables.  An int64 array
    is taken as it is and made read-only, not copied (a 512-element mul is
    2 MB), so pass arrays that nothing changes afterwards."""
    mul = np.asarray(mul, dtype=np.int64)
    star = np.asarray(star, dtype=np.int64)
    plus = np.asarray(plus, dtype=np.int64)
    for a in (mul, star, plus):
        a.flags.writeable = False
    return EhresmannQuantale(frame.n, frame.leq, frame.meet, frame.join, frame.bottom,
                             frame.top, mul, int(unit), star, plus)


def frame_as_quantale(frame: FiniteFrame) -> EhresmannQuantale:
    """Every frame is an Ehresmann quantale over itself: mul = meet, e = top."""
    n = frame.n
    ident = np.arange(n, dtype=np.int64)
    return make_eq(frame, frame.meet.copy(), frame.top, ident.copy(), ident.copy())


# ---------------------------------------------------------------------------
# validators

def validate_quantale(q: FiniteQuantale) -> Report:
    rep = validate_frame(q)
    if not rep.ok:
        return rep
    rep.subject = "quantale"
    rep.layers_run.append("quantale")
    n, mul, join, bot = q.n, q.mul, q.join, q.bottom
    if mul.shape != (n, n) or (mul < 0).any() or (mul >= n).any():
        rep.add("quantale.mul_table_range", (0,))
        return rep
    if _quantale_laws_hold(q):
        return rep
    associativity_scan(rep, "quantale", mul)
    e = q.unit
    bad = np.flatnonzero(mul[e, :] != np.arange(n))
    if bad.size:
        rep.add("quantale.unit_left", (int(bad[0]),))
    bad = np.flatnonzero(mul[:, e] != np.arange(n))
    if bad.size:
        rep.add("quantale.unit_right", (int(bad[0]),))
    for a in range(n):
        lhs = mul[a, join]                       # a (b \/ c)
        rhs = join[np.ix_(mul[a, :], mul[a, :])]  # a b \/ a c
        diff = lhs != rhs
        if diff.any():
            b, c = np.argwhere(diff)[0]
            rep.add("quantale.join_distributivity_left", (a, int(b), int(c)))
            break
        lhs = mul[join, a]
        rhs = join[np.ix_(mul[:, a], mul[:, a])]
        diff = lhs != rhs
        if diff.any():
            b, c = np.argwhere(diff)[0]
            rep.add("quantale.join_distributivity_right", (int(b), int(c), a))
            break
    bad = np.flatnonzero(mul[:, bot] != bot)
    if bad.size:
        rep.add("quantale.zero_right", (int(bad[0]),))
    bad = np.flatnonzero(mul[bot, :] != bot)
    if bad.size:
        rep.add("quantale.zero_left", (int(bad[0]),))
    return rep


def associativity_scan(rep: Report, prefix: str, mul: np.ndarray) -> None:
    """The law-by-law scan of (ab)c = a(bc), for validate_quantale and
    crm.validate_crm: prefix.associativity with the first failing (a, b, c)
    in row-major order.  O(n^3)."""
    for a in range(len(mul)):
        diff = mul[mul[a, :], :] != mul[a, mul]  # (a b) c against a (b c)
        if diff.any():
            b, c = np.argwhere(diff)[0]
            rep.add(f"{prefix}.associativity", (a, int(b), int(c)))
            return


def _quantale_laws_hold(q: FiniteQuantale) -> bool:
    """All quantale laws at once, on a valid frame with an in-range mul.

    With J the join-irreducibles and G(x) = {j in J : j <= x}: the unit
    laws directly; then G(a.x) = U G(i.j) over i in G(a), j in G(x), for
    all a and x, which holds iff both distributivities and both zero laws
    do (every element is the join of its G-set, G turns joins into unions
    and is injective; at G(a) or G(x) empty it reads a.0 = 0 = 0.a); then
    associativity on J^3.  The identity is decided along `order.join_splits`
    x = rest \\/ j: it holds iff a.0 = 0 = 0.a and a.x = a.rest \\/ a.j and
    x.a = rest.a \\/ j.a for all a and every split.  These give, by
    induction on |G(x)|, a.x = \\/ a.j over j in G(x) and x.a = \\/ i.a
    over i in G(x), so a.x is the join of the i.j and G(a.x) their union;
    and the identity gives them, being distributivity.  O(n^2) gathers in
    row blocks (`bits.row_blocks`), and O(|J|^3) for associativity."""
    n, mul, join, bot = q.n, q.mul, q.join, q.bottom
    ident = np.arange(n)
    if not ((mul[q.unit, :] == ident).all() and (mul[:, q.unit] == ident).all()
            and (mul[:, bot] == bot).all() and (mul[bot, :] == bot).all()):
        return False
    xs, rest, last = join_splits(q)
    joins = join.ravel()                     # joins[a * n + b] = a \/ b
    by_column = np.ascontiguousarray(mul.T)  # by_column[x, a] = a.x
    for b in row_blocks(len(xs), 4 * n):
        x, r, j = xs[b], rest[b], last[b]
        if not (np.array_equal(mul[x], joins.take(mul[r] * n + mul[j]))
                and np.array_equal(by_column[x], joins.take(by_column[r] * n + by_column[j]))):
            return False
    js = np.array(join_irreducibles(q), dtype=np.int64)
    left, right = mul[js], mul[:, js]        # J-rows and J-columns of mul
    jj = left[:, js]
    return all(np.array_equal(right[jj[rows]], left[rows][:, jj])
               for rows in row_blocks(len(js), len(js) ** 2))


def _ehresmann_laws_hold(q: EhresmannQuantale) -> bool:
    """All Ehresmann laws at once, on a valid quantale.

    Directly: the projections commute and are idempotent, star and plus are
    in range, land in the projections and fix them, a.a* = a and a+.a = a.
    Star preserves joins and the bottom iff G(a*) = U G(j*) over j in G(a)
    (G as in `_quantale_laws_hold`), which is decided, as there, along
    `order.join_splits`: 0* = 0 and x* = rest* \\/ j* at every split.  Plus
    likewise.  Given that, and the distributivity of the quantale layer,
    (ab)* and (a*b)* are the joins of (ij)* and (i*j)* over i in G(a),
    j in G(b), so the congruence (ab)* = (a*b)* holds iff it holds on
    J x J, and (ab)+ = (ab+)+ likewise.  O(n + |P|^2 + |J|^2) for P the
    projections."""
    n, mul, join, star, plus = q.n, q.mul, q.join, q.star, q.plus
    projs = np.array(q.projections(), dtype=np.int64)
    pm = mul[np.ix_(projs, projs)]
    if not (np.array_equal(pm, pm.T) and np.array_equal(np.diagonal(pm), projs)):
        return False
    for m in (star, plus):
        if m.shape != (n,) or (m < 0).any() or (m >= n).any():
            return False
        if not (q.leq[m, q.unit].all() and np.array_equal(m[projs], projs)):
            return False
    ident = np.arange(n)
    if not (np.array_equal(mul[ident, star], ident) and np.array_equal(mul[plus, ident], ident)):
        return False
    xs, rest, last = join_splits(q)
    if not all(m[q.bottom] == q.bottom and np.array_equal(m[xs], join[m[rest], m[last]])
               for m in (star, plus)):
        return False
    js = np.array(join_irreducibles(q), dtype=np.int64)
    jj = mul[np.ix_(js, js)]
    return (np.array_equal(star[jj], star[mul[np.ix_(star[js], js)]])
            and np.array_equal(plus[jj], plus[mul[np.ix_(js, plus[js])]]))


def validate_ehresmann(q: EhresmannQuantale) -> Report:
    rep = validate_quantale(q)
    if not rep.ok:
        return rep
    rep.subject = "ehresmann"
    rep.layers_run.append("ehresmann")
    if _ehresmann_laws_hold(q):
        return rep
    n, mul, star, plus, join = q.n, q.mul, q.star, q.plus, q.join
    leq = q.leq
    projs = np.array(q.projections())

    # projections form a commutative subsemigroup of idempotents
    pm = mul[np.ix_(projs, projs)]
    if (pm != pm.T).any():
        i, j = np.argwhere(pm != pm.T)[0]
        rep.add("ehresmann.projections_commute", (int(projs[i]), int(projs[j])))
        return rep
    diag = mul[projs, projs]
    bad = np.flatnonzero(diag != projs)
    if bad.size:
        rep.add("ehresmann.projections_idempotent", (int(projs[bad[0]]),))
        return rep

    # star/plus land in projections and fix them
    for name, m in (("star", star), ("plus", plus)):
        if m.shape != (n,) or (m < 0).any() or (m >= n).any():
            rep.add(f"ehresmann.{name}_range", (0,))
            return rep
        bad = np.flatnonzero(~leq[m, q.unit])
        if bad.size:
            rep.add(f"ehresmann.{name}_lands_in_projections", (int(bad[0]),))
        bad = np.flatnonzero(m[projs] != projs)
        if bad.size:
            rep.add(f"ehresmann.{name}_fixes_projections", (int(projs[bad[0]]),))
    if not rep.ok:
        return rep

    star_plus_scan(rep, "ehresmann", mul, star, plus)

    # star and plus preserve joins (binary plus the empty join)
    for name, m in (("star", star), ("plus", plus)):
        if m[q.bottom] != q.bottom:
            rep.add(f"ehresmann.{name}_join_map", (q.bottom,))
            continue
        lhs = m[join]
        rhs = join[np.ix_(m, m)]
        diff = lhs != rhs
        if diff.any():
            a, b = np.argwhere(diff)[0]
            rep.add(f"ehresmann.{name}_join_map", (int(a), int(b)))
    return rep


def star_plus_scan(rep: Report, prefix: str, mul: np.ndarray, star: np.ndarray,
                   plus: np.ndarray) -> None:
    """The law-by-law scans of a.a* = a and a+.a = a (prefix.a_mul_star and
    prefix.plus_mul_a, with the first failing a) and of the congruences
    (ab)* = (a*b)* and (ab)+ = (ab+)+ (prefix.congruence_star and
    prefix.congruence_plus, with the first failing (a, b) in row-major
    order), for validate_ehresmann and crm.validate_crm.  O(n^2)."""
    ident = np.arange(len(mul))
    bad = np.flatnonzero(mul[ident, star] != ident)
    if bad.size:
        rep.add(f"{prefix}.a_mul_star", (int(bad[0]),))
    bad = np.flatnonzero(mul[plus, ident] != ident)
    if bad.size:
        rep.add(f"{prefix}.plus_mul_a", (int(bad[0]),))
    diff = star[mul] != star[mul[star, :]]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add(f"{prefix}.congruence_star", (int(a), int(b)))
    diff = plus[mul] != plus[mul[:, plus]]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add(f"{prefix}.congruence_plus", (int(a), int(b)))


PI_BLOCK = 32  # columns per block of the partial-isometry test


def partial_isometries(q: EhresmannQuantale) -> list[int]:
    """All a such that every b <= a satisfies b = b+.a = a.b*, in index
    order; built once per quantale (`order.cached`)."""
    return list(cached(q, "partial_isometries", lambda: tuple(_partial_isometries(q))))


def _partial_isometries(q: EhresmannQuantale) -> list[int]:
    """An n-by-n test, column a holding the b <= a, run PI_BLOCK columns at
    a time so that its gathers are n-by-PI_BLOCK."""
    idx = np.arange(q.n)[:, None]
    ok = []
    for c in range(0, q.n, PI_BLOCK):
        cols = slice(c, c + PI_BLOCK)
        fixed = (q.mul[q.plus, cols] == idx) & (q.mul[cols, :][:, q.star].T == idx)  # [b, a]
        ok.append((~q.leq[:, cols] | fixed).all(axis=0))
    return np.flatnonzero(np.concatenate(ok)).tolist()


def pi_is_order_ideal(q: EhresmannQuantale) -> tuple[bool, Optional[tuple[int, int]]]:
    pis = set(partial_isometries(q))
    for a in pis:
        for b in np.flatnonzero(q.leq[:, a]):
            if int(b) not in pis:
                return False, (int(b), a)
    return True, None


def compatible(q: EhresmannQuantale, a: int, b: int) -> bool:
    """a ~ b: a.b* = b.a* and b+.a = a+.b."""
    mul, star, plus = q.mul, q.star, q.plus
    return bool(mul[a, star[b]] == mul[b, star[a]] and mul[plus[b], a] == mul[plus[a], b])


def compatibility_lemma_check(q: EhresmannQuantale) -> tuple[bool, Optional[tuple[int, int]]]:
    """For partial isometries a, b: a \\/ b is a partial isometry iff a ~ b;
    the witness is the first failing (a, b), rows first, over PI x PI.  One
    comparison of PI x PI tables: a ~ b iff ab[a, b] = ab[b, a] and
    pb[a, b] = pb[b, a] for ab[a, b] = a.b* and pb[a, b] = b+.a."""
    pis = np.array(partial_isometries(q), dtype=np.int64)
    is_pi = np.zeros(q.n, dtype=bool)
    is_pi[pis] = True
    ab = q.mul[pis[:, None], q.star[pis]]
    pb = q.mul[q.plus[pis], pis[:, None]]
    bad = is_pi[q.join[np.ix_(pis, pis)]] != ((ab == ab.T) & (pb == pb.T))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return False, (int(pis[i]), int(pis[j]))
    return True, None


def every_element_is_join_of_pi(q: EhresmannQuantale) -> tuple[bool, Optional[tuple[int]]]:
    pis = partial_isometries(q)
    for x in range(q.n):
        below = [p for p in pis if q.leq[p, x]]
        if q.join_fold(below) != x:
            return False, (x,)
    return True, None


def validate_rqf(q: EhresmannQuantale) -> Report:
    """Layered composite: poset, lattice, frame, quantale, Ehresmann, then
    etale and PI closed under mul (the restriction identities on the
    partial isometries follow from the Ehresmann layer; see the module
    docstring)."""
    rep = validate_ehresmann(q)
    if not rep.ok:
        return rep
    rep.subject = "rqf"
    rep.layers_run.append("rqf")
    pis = partial_isometries(q)
    is_pi = np.zeros(q.n, dtype=bool)
    is_pi[pis] = True
    top_join = q.join_fold(pis)
    if top_join != q.top:
        rep.add("rqf.etale_top_is_join_of_isometries", (q.top, top_join))
    for a in pis:
        prods = q.mul[a, pis]
        bad = np.flatnonzero(~is_pi[prods])
        if bad.size:
            i = int(bad[0])
            rep.add("rqf.isometries_closed_under_mul", (a, pis[i], int(prods[i])))
            break
    return rep
