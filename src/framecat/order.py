"""Finite posets, lattices, frames, completely prime filters and points.

Elements are dense integer indices.  The order is an n-by-n boolean table,
meet/join are n-by-n element tables.  A finite frame is a finite bounded
distributive lattice: binary distributivity plus the lattice axioms imply
that finite meets distribute over arbitrary (= finite) joins.

Completely prime filters are stored by their meet-prime co-generator m:
the member set is exactly {x : x not<= m}.  The brute-force enumerator
`cp_filters_bruteforce` is the independent oracle for `enumerate_cp_filters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .bits import full_mask, has_bit, iter_bits, is_submask, mask_of
from .reports import Report


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FinitePoset:
    n: int
    leq: np.ndarray  # (n, n) bool; leq[i, j] iff i <= j

    @staticmethod
    def from_leq(leq) -> "FinitePoset":
        a = _freeze(np.array(leq, dtype=bool))
        return FinitePoset(a.shape[0], a)

    def upset_mask(self, i: int) -> int:
        return mask_of(np.flatnonzero(self.leq[i, :]))

    def downset_mask(self, i: int) -> int:
        return mask_of(np.flatnonzero(self.leq[:, i]))


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    poset: FinitePoset
    meet: np.ndarray  # (n, n) int
    join: np.ndarray  # (n, n) int
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq


@dataclass(frozen=True, eq=False)
class FiniteFrame:
    lattice: FiniteLattice

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def leq(self) -> np.ndarray:
        return self.lattice.leq

    @property
    def meet(self) -> np.ndarray:
        return self.lattice.meet

    @property
    def join(self) -> np.ndarray:
        return self.lattice.join

    @property
    def bottom(self) -> int:
        return self.lattice.bottom

    @property
    def top(self) -> int:
        return self.lattice.top

    def join_fold(self, indices) -> int:
        return reduce(lambda a, b: int(self.join[a, b]), indices, self.bottom)

    def meet_fold(self, indices) -> int:
        return reduce(lambda a, b: int(self.meet[a, b]), indices, self.top)


@dataclass(frozen=True)
class CPFilter:
    """Completely prime filter, canonically the set {x : x not<= cogenerator}."""

    cogenerator: int
    members: int  # bitmask over frame elements

    def contains(self, x: int) -> bool:
        return has_bit(self.members, x)


@dataclass(frozen=True)
class FiniteTopSpace:
    n_points: int
    opens: frozenset  # frozenset[int]; bitmasks over points

    @property
    def is_discrete(self) -> bool:
        return len(self.opens) == 1 << self.n_points


# ---------------------------------------------------------------------------
# construction helpers

def _rank_bitsets(rows: np.ndarray) -> list[int]:
    """Row r of a boolean matrix as an int with bit k set iff rows[r, k]."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def lattice_from_leq(leq) -> FiniteLattice:
    """Compute meet/join/bottom/top from an order table; raises if not a lattice.

    Elements are ranked by down-set size, a linear extension of the order,
    and every down-set and up-set is held as an int bitset over ranks.  For
    a pair (a, b) the candidate meet is the highest-ranked element of
    down(a) & down(b): it is the meet exactly when its own down-set is that
    whole intersection.  The join is dually the lowest-ranked element of
    up(a) & up(b).  Both tables are symmetric, so only index pairs (i, j)
    with i <= j are computed, in row-major order; the first pair in
    row-major order without a meet or join has i <= j too, so the error names
    the same pair as a scan of all n^2 pairs would.  Cost: O(n^2) bitset
    operations on n-bit ints, i.e. O(n^3 / w) machine-word operations, after
    the O(n^3) poset validation.
    """
    p = FinitePoset.from_leq(leq)
    rep = validate_poset(p)
    if not rep.ok:
        raise ValueError(f"not a poset: {rep.violations[0]}")
    n = p.n
    if n == 0:
        raise ValueError("lattices must be non-empty")
    by_rank = np.argsort(p.leq.sum(axis=0), kind="stable")
    ranked = p.leq[np.ix_(by_rank, by_rank)]    # ranked[r, s]: rank r <= rank s
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    down_r = _rank_bitsets(ranked.T)            # indexed by rank
    up_r = _rank_bitsets(ranked)
    down = [down_r[r] for r in rank.tolist()]  # indexed by element
    up = [up_r[r] for r in rank.tolist()]
    elem = by_rank.tolist()
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        di, ui = down[i], up[i]
        meet_row, join_row = [], []
        for j in range(i, n):
            lo = di & down[j]
            hi = ui & up[j]
            m = lo.bit_length() - 1
            k = (hi & -hi).bit_length() - 1
            if m < 0 or k < 0 or down_r[m] != lo or up_r[k] != hi:
                raise ValueError(f"not a lattice: no meet/join for ({i},{j})")
            meet_row.append(elem[m])
            join_row.append(elem[k])
        meet[i, i:] = meet[i:, i] = meet_row
        join[i, i:] = join[i:, i] = join_row
    bottom = int(np.flatnonzero(p.leq.all(axis=1))[0])
    top = int(np.flatnonzero(p.leq.all(axis=0))[0])
    return FiniteLattice(p, _freeze(meet), _freeze(join), bottom, top)


def frame_from_leq(leq) -> FiniteFrame:
    f = FiniteFrame(lattice_from_leq(leq))
    ok, wit = is_frame(f.lattice)
    if not ok:
        raise ValueError(f"not distributive: witness {wit}")
    return f


# ---------------------------------------------------------------------------
# validators

def validate_poset(p: FinitePoset) -> Report:
    rep = Report(subject="poset")
    rep.layers_run.append("poset")
    leq = p.leq
    n = p.n
    if leq.shape != (n, n):
        rep.add("poset.shape", (n,), f"table shape {leq.shape}")
        return rep
    refl = np.flatnonzero(~np.diag(leq))
    if refl.size:
        rep.add("poset.reflexivity", (int(refl[0]),))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    if anti.any():
        i, j = np.argwhere(anti)[0]
        rep.add("poset.antisymmetry", (int(i), int(j)))
    closed = leq @ leq  # boolean matmul: reachability in two steps
    bad = closed & ~leq
    if bad.any():
        i, k = np.argwhere(bad)[0]
        j = int(np.flatnonzero(leq[i, :] & leq[:, k])[0])
        rep.add("poset.transitivity", (int(i), j, int(k)))
    return rep


def validate_lattice(l: FiniteLattice) -> Report:
    rep = validate_poset(l.poset)
    if not rep.ok:
        return rep
    rep.subject = "lattice"
    rep.layers_run.append("lattice")
    n, leq = l.n, l.leq
    idx = np.arange(n)
    for name, table in (("meet", l.meet), ("join", l.join)):
        t = np.asarray(table)
        if t.shape != (n, n) or (t < 0).any() or (t >= n).any():
            rep.add(f"lattice.{name}_table_range", (int(t.flat[0]) if t.size else 0,))
            return rep
    for i in range(n):
        m = l.meet[i, :]
        # meet[i,j] is a lower bound of i and j
        bad = ~(leq[m, i] & leq[m, idx])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            rep.add("lattice.meet_not_lower_bound", (i, j, int(m[j])))
            break
        # every common lower bound is below meet[i,j]
        common = leq[:, i][:, None] & leq  # common[x, j]: x <= i and x <= j
        viol = common & ~leq[:, m]
        if viol.any():
            x, j = np.argwhere(viol)[0]
            rep.add("lattice.meet_not_greatest", (i, int(j), int(x)))
            break
    for i in range(n):
        jn = l.join[i, :]
        bad = ~(leq[i, jn] & leq[idx, jn])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            rep.add("lattice.join_not_upper_bound", (i, j, int(jn[j])))
            break
        common = leq[i, :][None, :].T & leq.T  # common[x, j]: i <= x and j <= x
        viol = common & ~leq[jn, :].T
        if viol.any():
            x, j = np.argwhere(viol)[0]
            rep.add("lattice.join_not_least", (i, int(j), int(x)))
            break
    if not leq[l.bottom, :].all():
        rep.add("lattice.bottom", (l.bottom,))
    if not leq[:, l.top].all():
        rep.add("lattice.top", (l.top,))
    return rep


def is_frame(l: FiniteLattice) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Binary distributivity; in a finite lattice this is the whole frame law."""
    n = l.n
    meet, join = l.meet, l.join
    for x in range(n):
        lhs = meet[x, join]            # x /\ (y \/ z)
        rhs = join[np.ix_(meet[x, :], meet[x, :])]  # (x /\ y) \/ (x /\ z)
        diff = lhs != rhs
        if diff.any():
            y, z = np.argwhere(diff)[0]
            return False, (x, int(y), int(z))
    return True, None


def validate_frame(f: FiniteFrame) -> Report:
    rep = validate_lattice(f.lattice)
    if not rep.ok:
        return rep
    rep.subject = "frame"
    rep.layers_run.append("frame")
    ok, wit = is_frame(f.lattice)
    if not ok:
        rep.add("frame.distributivity", wit)
    return rep


# ---------------------------------------------------------------------------
# meet-primes and completely prime filters

def meet_prime_elements(f: FiniteFrame) -> list[int]:
    """All m != top with x /\\ y <= m implying x <= m or y <= m."""
    n, leq, meet = f.n, f.leq, f.meet
    out = []
    for m in range(n):
        if m == f.top:
            continue
        below = leq[:, m]
        bad = leq[meet, m] & ~below[:, None] & ~below[None, :]
        if not bad.any():
            out.append(m)
    return out


def filter_from_cogenerator(f: FiniteFrame, m: int) -> CPFilter:
    members = mask_of(np.flatnonzero(~f.leq[:, m]))
    return CPFilter(cogenerator=m, members=members)


def enumerate_cp_filters(f: FiniteFrame) -> list[CPFilter]:
    """One completely prime filter per meet-prime element."""
    return [filter_from_cogenerator(f, m) for m in meet_prime_elements(f)]


def cogenerator_of_member_mask(f: FiniteFrame, members: int) -> int:
    """The join of the complement of a completely prime filter."""
    comp = [x for x in range(f.n) if not has_bit(members, x)]
    return f.join_fold(comp)


def _is_filter_mask(f: FiniteFrame, mask: int, ups: list,
                    join_of: Optional[list] = None) -> bool:
    """Literal check of the four completely-prime-filter conditions on a subset."""
    if mask == 0:
        return False  # filters are non-empty
    n = f.n
    members = list(iter_bits(mask))
    # upward closed
    for x in members:
        if not is_submask(ups[x], mask):
            return False
    # closed under binary meets
    for x in members:
        for y in members:
            if not has_bit(mask, int(f.meet[x, y])):
                return False
    # proper
    if has_bit(mask, f.bottom):
        return False
    # completely prime; binary primality is equivalent by finite induction,
    # and for small frames we also run the literal all-subsets check
    for x in range(n):
        if has_bit(mask, x):
            continue
        for y in range(x, n):
            if has_bit(mask, y):
                continue
            if has_bit(mask, int(f.join[x, y])):
                return False
    if join_of is not None:
        for s in range(1 << n):
            if has_bit(mask, join_of[s]) and (s & mask) == 0:
                return False
    return True


def _join_of_all_subsets(f: FiniteFrame) -> list[int]:
    out = [f.bottom] * (1 << f.n)
    for s in range(1, 1 << f.n):
        low = s & -s
        out[s] = int(f.join[out[s ^ low], low.bit_length() - 1])
    return out


def cp_filters_bruteforce(f: FiniteFrame, exact_limit: int = 16) -> list[CPFilter]:
    """Independent oracle: enumerate completely prime filters subset by subset.

    For n <= exact_limit every subset of the frame is tested against the four
    filter conditions literally.  Above that, candidates are the principal
    up-sets: a non-empty subset closed upwards and under binary meets contains
    the meet of all its elements, hence is a principal up-set, so nothing is
    missed.  Complete primality over arbitrary subsets reduces to the binary
    case by finite induction; for n <= 12 the all-subsets form is also checked.
    """
    n = f.n
    ups = [f.lattice.poset.upset_mask(i) for i in range(n)]
    found = []
    if n <= exact_limit:
        join_of = _join_of_all_subsets(f) if n <= 12 else None
        for mask in range(1, 1 << n):
            if _is_filter_mask(f, mask, ups, join_of):
                found.append(mask)
    else:
        for g in range(n):
            if _is_filter_mask(f, ups[g], ups):
                found.append(ups[g])
    out = [CPFilter(cogenerator_of_member_mask(f, mask), mask) for mask in sorted(set(found))]
    return sorted(out, key=lambda c: c.cogenerator)


# ---------------------------------------------------------------------------
# points and spatiality

def x_set_mask(f: FiniteFrame, filters: list[CPFilter], a: int) -> int:
    """X_a: the completely prime filters containing a, as a point bitmask."""
    return mask_of(k for k, c in enumerate(filters) if c.contains(a))


def pt_topology(f: FiniteFrame) -> FiniteTopSpace:
    """The space of points with opens {X_a}; the X-laws are re-verified."""
    filters = enumerate_cp_filters(f)
    xs = [x_set_mask(f, filters, a) for a in range(f.n)]
    npts = len(filters)
    if xs[f.bottom] != 0:
        raise AssertionError("X_bottom must be empty")
    if xs[f.top] != full_mask(npts):
        raise AssertionError("X_top must be the full point set")
    for a in range(f.n):
        for b in range(f.n):
            if xs[a] & xs[b] != xs[int(f.meet[a, b])]:
                raise AssertionError(f"X-law for meet fails at ({a},{b})")
            if xs[a] | xs[b] != xs[int(f.join[a, b])]:
                raise AssertionError(f"X-law for join fails at ({a},{b})")
    return FiniteTopSpace(n_points=npts, opens=frozenset(xs))


def frame_spatial_check(f: FiniteFrame) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whenever a not<= b some completely prime filter contains a and omits b."""
    primes = meet_prime_elements(f)
    n, leq = f.n, f.leq
    if not primes:
        bad = ~leq
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return False, (int(i), int(j))
        return True, None
    contains_a = ~leq[:, primes]          # (n, k): a in filter_m
    omits_b = leq[:, primes]              # (n, k): b not in filter_m
    sep = (contains_a.astype(np.int64) @ omits_b.T.astype(np.int64)) > 0
    bad = ~leq & ~sep
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return False, (int(i), int(j))
    return True, None


# ---------------------------------------------------------------------------
# subframes (used for the projection frame e-down of a quantale)

def subframe(f: FiniteFrame, elements: list[int]) -> tuple[FiniteFrame, dict]:
    """Restrict the frame to a sublattice given by a sorted element list.

    Returns the restricted frame and the map old-index -> new-index.
    Raises if the subset is not closed under meets and joins.
    """
    pos = {e: i for i, e in enumerate(elements)}
    k = len(elements)
    leq = np.zeros((k, k), dtype=bool)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            leq[i, j] = f.leq[a, b]
    for a in elements:
        for b in elements:
            if int(f.meet[a, b]) not in pos or int(f.join[a, b]) not in pos:
                raise ValueError(f"subset not closed under meet/join at ({a},{b})")
    sf = FiniteFrame(lattice_from_leq(leq))
    return sf, pos
