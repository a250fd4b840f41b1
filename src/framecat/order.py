"""Finite posets, lattices, frames, completely prime filters and spatiality.

The algebras form one dataclass chain, each layer adding only its own
fields: FinitePoset (n, leq), FiniteLattice (+ meet, join, bottom, top),
then `quantale.FiniteQuantale` (+ mul, unit) and
`quantale.EhresmannQuantale` (+ star, plus).  So a quantale is a lattice
and a poset, and every function of a frame or poset takes it as it is.
A frame adds no fields: FiniteFrame is an alias of FiniteLattice, and a
frame is a lattice that passes `validate_frame`.

What is derived from an algebra or a topological category and read many
times is built once, on first use, and cached on its object (`cached`).
Each cached value is immutable (tuples, frozen arrays, frozen
dataclasses, read-only mappings) and holds no reference to its owner, so
the owner is still freed by reference counting; `dataclasses.replace`
starts with an empty cache.  A size bound, or the refusal of a category
that is not etale, is checked on every call, not only on the build.

Elements are dense integer indices.  The order is an n-by-n boolean table,
meet/join are n-by-n element tables.  A finite frame is a finite bounded
distributive lattice: binary distributivity plus the lattice axioms imply
that finite meets distribute over arbitrary (= finite) joins.

How each layer is decided.  Every validator runs one exact test of its
whole layer first; only when that test fails does the literal law-by-law
scan run, to name the first violated law and its witness, so the reports
are those of the scan.  The tests read each element x as a set of
irreducibles held as uint64 words (`bits.pack_words`, W = |J| / 64 rounded
up): G(x), the join-irreducibles J below x (`join_words`), and for the
lattice layer also M(x), the meet-irreducibles above x.  J and M are read
off the order alone, as the elements with one lower and one upper cover
(`_irreducibles`), so the lattice test can use them before it trusts the
tables.  In a finite lattice x is the join of G(x) and the meet of M(x), so
both are order embeddings, meets are intersections of G-sets and joins
intersections of M-sets (Birkhoff; Davey & Priestley, Introduction to
Lattices and Order, ch. 5).  Temporaries are cut into row blocks
(`bits.row_blocks`).
- Poset: two-step reachability as one BLAS product, O(n^3) flops.
- Lattice: x <= y iff G(x) <= G(y) iff M(x) >= M(y),
  G(a /\\ b) = G(a) & G(b), M(a \\/ b) = M(a) & M(b), bottom least and top
  greatest (`_has_lattice_tables`, which states why these hold exactly for
  the tables of the order): O(n^2 W) words.  The scan is O(n^3).
- Frame: a finite lattice is distributive iff each j in J is join-prime,
  iff G(a \\/ b) = G(a) | G(b) for all a, b (`_is_distributive`): O(n^2 W)
  words.  The scan of all (x, y, z) is O(n^3).

Completely prime filters are stored by their meet-prime co-generator m:
the member set is exactly {x : x not<= m}, the up-set of its least member.
One word lookup of these sets among the up-sets finds both m and that
member (`_filter_generators`).  The brute-force enumerator
`cp_filters_bruteforce` is the independent oracle for `enumerate_cp_filters`:
it never looks for meet-primes or join-irreducibles, but tests candidate
subsets against the filter conditions literally, reading only the order,
meet, join and bottom.  It tests all candidates at once as NumPy arrays:
every subset of a frame of up to 16 elements, the principal up-sets of one
of up to 64, held as one uint64 mask array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional, TypeVar

import numpy as np

from .bits import (has_bit, mask_of, pack_words, row_blocks, row_masks, take_words,
                   word_lookup)
from .reports import InternalError, Report


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


T = TypeVar("T")


def cached(alg, key: str, build: Callable[[], T]) -> T:
    """alg._cache[key], built by build() on the first call, for an algebra
    or a topological category alg.  The value must be immutable and must not
    refer to alg (see the module docstring)."""
    cache = alg._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


@dataclass(frozen=True, eq=False)
class FinitePoset:
    n: int
    leq: np.ndarray  # (n, n) bool; leq[i, j] iff i <= j
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def from_leq(leq) -> "FinitePoset":
        a = _freeze(np.array(leq, dtype=bool))
        return FinitePoset(a.shape[0], a)

    def upset_mask(self, i: int) -> int:
        return mask_of(np.flatnonzero(self.leq[i, :]))


@dataclass(frozen=True, eq=False)
class FiniteLattice(FinitePoset):
    meet: np.ndarray  # (n, n) int
    join: np.ndarray  # (n, n) int
    bottom: int
    top: int

    def join_fold(self, indices) -> int:
        return reduce(lambda a, b: int(self.join[a, b]), indices, self.bottom)


# The finite frames are the FiniteLattice instances for which validate_frame
# passes; no extra fields are involved.
FiniteFrame = FiniteLattice


@dataclass(frozen=True)
class CPFilter:
    """Completely prime filter, canonically the set {x : x not<= cogenerator}."""

    cogenerator: int
    members: int  # bitmask over frame elements


# ---------------------------------------------------------------------------
# construction helpers

def lattice_from_leq(leq) -> FiniteLattice:
    """Compute meet/join/bottom/top from an order table; raises if not a
    lattice.  Cost: O(n^2 W) words (`_lattice_tables`) after the O(n^3)
    poset validation."""
    p = FinitePoset.from_leq(leq)
    rep = validate_poset(p)
    if not rep.ok:
        raise ValueError(f"not a poset: {rep.violations[0]}")
    return FiniteLattice(p.n, p.leq, *_lattice_tables(p))


def _lattice_tables(p: FinitePoset) -> tuple[np.ndarray, np.ndarray, int, int]:
    """meet, join, bottom and top of a valid poset; raises if not a lattice.

    With J and M the elements with one lower, and one upper, cover
    (`_irreducibles`), and G(x) and M(x) the J below and the M above x as
    words, a lattice has G(a /\\ b) = G(a) & G(b) and M(a \\/ b) =
    M(a) & M(b) (see `_has_lattice_tables`), so the candidate tables are
    those words looked up (`bits.word_lookup`) among the G- and M-words of
    the elements, and bottom and top the first least and greatest element.
    `_has_lattice_tables` accepts them exactly when they are the tables of
    the order.  Otherwise the order is no lattice, and `_first_unbounded_pair`
    names the pair.  O(n^2 W) words, W = |J| / 64 rounded up (likewise for
    M), in row blocks."""
    n, leq = p.n, p.leq
    if n == 0:
        raise ValueError("lattices must be non-empty")
    g = pack_words(leq[_irreducibles(leq)].T)
    m = pack_words(leq[:, _irreducibles(leq.T)])
    find_g, find_m = word_lookup(g), word_lookup(m)
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    for rows in row_blocks(n, n * max(g.shape[1], m.shape[1])):
        meet[rows] = find_g(g[rows, None] & g)
        join[rows] = find_m(m[rows, None] & m)
    bottoms, tops = np.flatnonzero(leq.all(axis=1)), np.flatnonzero(leq.all(axis=0))
    if bottoms.size and tops.size and min(meet.min(), join.min()) >= 0:
        tables = (_freeze(meet), _freeze(join), int(bottoms[0]), int(tops[0]))
        if _has_lattice_tables(FiniteLattice(n, leq, *tables)):
            return tables
    i, j = _first_unbounded_pair(leq)
    raise ValueError(f"not a lattice: no meet/join for ({i},{j})")


def _first_unbounded_pair(leq: np.ndarray) -> tuple[int, int]:
    """The first pair (i, j) in row-major order without a meet or a join in
    the valid order leq; i <= j, since (j, i) lacks them too.  i and j have
    a meet iff some m has down(m) = down(i) & down(j): then m is the
    greatest common lower bound, and a greatest one has that down-set, as
    the intersection is a down-set.  Distinct elements have distinct
    down-sets, so looking the intersection up among the down-sets, as words
    over all elements, is exact; joins dually.  O(n^3 / 64) words, in row
    blocks."""
    n = len(leq)
    down, up = pack_words(leq.T), pack_words(leq)
    find_down, find_up = word_lookup(down), word_lookup(up)
    for rows in row_blocks(n, n * down.shape[1]):
        missing = (find_down(down[rows, None] & down) < 0) | (find_up(up[rows, None] & up) < 0)
        if missing.any():
            i, j = np.argwhere(missing)[0]
            return rows.start + int(i), int(j)
    raise InternalError("every pair has a meet and a join, yet the tables are no lattice's")


def frame_from_leq(leq) -> FiniteFrame:
    f = lattice_from_leq(leq)
    ok, wit = is_frame(f)
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
    # reachability in two steps; float32 products of 0/1 entries are exact
    # for n < 2**24, and unlike a boolean matmul they go through BLAS
    f = leq.astype(np.float32)
    closed = (f @ f) > 0
    bad = closed & ~leq
    if bad.any():
        i, k = np.argwhere(bad)[0]
        j = int(np.flatnonzero(leq[i, :] & leq[:, k])[0])
        rep.add("poset.transitivity", (int(i), j, int(k)))
    return rep


def validate_lattice(l: FiniteLattice) -> Report:
    rep = validate_poset(l)
    if not rep.ok:
        return rep
    rep.subject = "lattice"
    rep.layers_run.append("lattice")
    if _has_lattice_tables(l):
        return rep
    n, leq = l.n, l.leq
    idx = np.arange(n)
    for name, table in (("meet", l.meet), ("join", l.join)):
        t = np.asarray(table)
        if t.shape != (n, n) or (t < 0).any() or (t >= n).any():
            rep.add(f"lattice.{name}_table_range", (int(t.flat[0]) if t.size else 0,))
            return rep
    meet_scan(rep, "lattice", leq, l.meet)
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


def meet_scan(rep: Report, prefix: str, leq: np.ndarray, meet: np.ndarray) -> None:
    """The law-by-law scan of binary meets in the order leq, for
    validate_lattice and crm.validate_crm.  At the first row i that breaks
    a law: prefix.meet_not_lower_bound with (i, j, meet[i, j]) for the
    first j at which meet[i, j] is no lower bound of i and j, else
    prefix.meet_not_greatest with (i, j, x) for a common lower bound x of
    i and j not below meet[i, j].  O(n^3)."""
    n = len(leq)
    idx = np.arange(n)
    for i in range(n):
        m = meet[i, :]
        bad = ~(leq[m, i] & leq[m, idx])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            rep.add(f"{prefix}.meet_not_lower_bound", (i, j, int(m[j])))
            return
        common = leq[:, i][:, None] & leq  # common[x, j]: x <= i and x <= j
        viol = common & ~leq[:, m]
        if viol.any():
            x, j = np.argwhere(viol)[0]
            rep.add(f"{prefix}.meet_not_greatest", (i, int(j), int(x)))
            return


def _has_lattice_tables(l: FiniteLattice) -> bool:
    """Whether meet, join, bottom and top are those of the (valid) order.

    Let J and M be the elements with one lower, and one upper, cover
    (`_irreducibles` of the order and of its dual), G(x) = {j in J : j <= x}
    and M(x) = {m in M : x <= m}, held as words (`join_words`).  The test:
    both are embeddings, x <= y iff G(x) & G(y) = G(x) iff
    M(x) & M(y) = M(y); G(a /\\ b) = G(a) & G(b) and
    M(a \\/ b) = M(a) & M(b) for all a, b; bottom is least and top greatest.
    It passes on the tables of a lattice: there J and M are the join- and
    meet-irreducibles, every element is the join of the j below it and the
    meet of the m above it, and j <= a /\\ b iff j <= a and j <= b.  It
    passes only on them, whatever J and M are: with G an embedding,
    G(m) = G(a) & G(b) puts m = meet[a, b] below a and b, and every common
    lower bound c has G(c) <= G(a) & G(b) = G(m), so c <= m; joins dually.
    Cost: O(n^2 W) words (W = |J| / 64 rounded up, likewise for M), in
    row blocks."""
    n, leq = l.n, l.leq
    if n == 0 or not (0 <= l.bottom < n and 0 <= l.top < n):
        return False
    if not (leq[l.bottom, :].all() and leq[:, l.top].all()):
        return False
    for table in (l.meet, l.join):
        t = np.asarray(table)
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            return False
    g = join_words(l)
    m = pack_words(leq[:, _irreducibles(leq.T)])
    for rows in row_blocks(n, n * max(g.shape[1], m.shape[1])):
        gr, mr = g[rows, None], m[rows, None]
        meets, joins = gr & g, mr & m
        if not (np.array_equal((meets == gr).all(axis=2), leq[rows])
                and np.array_equal((joins == m).all(axis=2), leq[rows])
                and np.array_equal(take_words(g, l.meet[rows]), meets)
                and np.array_equal(take_words(m, l.join[rows]), joins)):
            return False
    return True


def _irreducibles(leq: np.ndarray) -> list[int]:
    """The x with exactly one lower cover in the order leq: those other
    than the least element whose strict down-set has a greatest element,
    which is then the element of largest down-set below x.  O(n^2)."""
    size = leq.sum(axis=0, dtype=np.min_scalar_type(len(leq)))  # size[x] = |down(x)|
    below = leq * size[:, None]              # below[y, x] = size[y] for y <= x, else 0
    np.fill_diagonal(below, 0)
    return np.flatnonzero((below.max(axis=0, initial=0) == size - 1) & (size > 1)).tolist()


def join_irreducibles(l: FiniteLattice) -> list[int]:
    """J: the x with one lower cover (`_irreducibles`).  In a lattice these
    are the x != bottom whose strict down-set does not join to x; they are
    read off the order alone, so the lattice layer's fast test can use them
    before it trusts the tables.  Built once per lattice (`cached`)."""
    return list(cached(l, "join_irreducibles", lambda: tuple(_irreducibles(l.leq))))


def join_words(l: FiniteLattice) -> np.ndarray:
    """G(x) = {j in J : j <= x} for every element x, as the (n, W) words of
    `bits.pack_words`, bit k standing for the k-th element of J."""
    return pack_words(l.leq[join_irreducibles(l)].T)


def join_splits(f: FiniteFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every element x of a frame but the bottom as rest \\/ j: the arrays
    xs, rest and last, where for x = xs[k], j = last[k] is a maximal
    element of G(x) (the one of largest down-set) and rest[k] is the element
    with G(rest) = G(x) - {j}, found by `bits.word_lookup` on `join_words`.
    So if a map m on f keeps the bottom and m(x) = m(rest) \\/ m(j) at every
    split, then by induction on |G(x)| it takes each x to the join of the
    m(j) over j in G(x).  O(n W) words and a sort."""
    js = np.array(join_irreducibles(f), dtype=np.int64)
    if not len(js):  # the one-element frame: nothing but the bottom
        return js, js, js
    words = join_words(f)
    below = f.leq[js].T                      # below[x, k]: J[k] <= x
    xs = np.flatnonzero(below.any(axis=1))
    k = np.argmax(np.where(below[xs], f.leq[:, js].sum(axis=0), -1), axis=1)
    rest = word_lookup(words)(words[xs] & ~pack_words(np.eye(len(js), dtype=bool))[k])
    if (rest < 0).any():
        raise InternalError("not a frame: an element less a maximal join-irreducible "
                            "below it is no element")
    return xs, rest, js[k]


def _is_distributive(l: FiniteLattice) -> bool:
    """Whether G(a \\/ b) = G(a) | G(b) for all a, b (`join_words`), that
    is, whether every j in J is join-prime, j <= a \\/ b implying j <= a or
    j <= b: then x -> G(x) embeds the lattice into a powerset.  O(n^2 W)
    words, in row blocks."""
    g = join_words(l)
    n = l.n
    return all(np.array_equal(take_words(g, l.join[rows]), g[rows, None] | g)
               for rows in row_blocks(n, n * g.shape[1]))


def is_frame(l: FiniteLattice) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Binary distributivity; in a finite lattice this is the whole frame law.

    `l` must be a lattice (validate_lattice passes).  Distributivity is
    decided on J (`_is_distributive`); only a failure runs the scan of all
    (x, y, z) that finds the first witness."""
    if _is_distributive(l):
        return True, None
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
    rep = validate_lattice(f)
    if not rep.ok:
        return rep
    rep.subject = "frame"
    rep.layers_run.append("frame")
    ok, wit = is_frame(f)
    if not ok:
        rep.add("frame.distributivity", wit)
    return rep


# ---------------------------------------------------------------------------
# meet-primes and completely prime filters

def _filter_generators(leq: np.ndarray) -> np.ndarray:
    """g[m] = the element whose up-set is {x : x not<= m}, -1 where that
    set is no up-set of an element: one `bits.word_lookup` of the rows of
    the complemented dual order among the rows of the order.  O(n^2 W)
    words, W = n / 64 rounded up."""
    return word_lookup(pack_words(leq))(pack_words(~leq.T))


def meet_prime_elements(f: FiniteFrame) -> list[int]:
    """All m != top with x /\\ y <= m implying x <= m or y <= m, ascending:
    the m whose complement {x : x not<= m} is the up-set of an element
    (`_filter_generators`).  For m != top that complement is a non-empty
    up-set, closed under binary meets iff m is prime, and in a finite
    lattice a non-empty up-set closed under binary meets is the up-set of
    the meet of its elements; for m = top it is empty, no up-set of an
    element.  So this is exact in every finite lattice."""
    return np.flatnonzero(_filter_generators(f.leq) >= 0).tolist()


def cp_filter_generators(f: FiniteFrame) -> list[int]:
    """The least member of each completely prime filter, in
    enumerate_cp_filters order: the g with up(g) = {x : x not<= m} for the
    meet-primes m, ascending."""
    g = _filter_generators(f.leq)
    return g[g >= 0].tolist()


def enumerate_cp_filters(f: FiniteFrame) -> list[CPFilter]:
    """One completely prime filter per meet-prime element m, with the
    members x not<= m: row k of the bool matrix of members (`bits.row_masks`)
    for the k-th m."""
    primes = meet_prime_elements(f)
    return [CPFilter(m, members)
            for m, members in zip(primes, row_masks(~f.leq[:, primes].T))]


def cogenerator_of_member_mask(f: FiniteFrame, members: int) -> int:
    """The join of the complement of a completely prime filter."""
    comp = [x for x in range(f.n) if not has_bit(members, x)]
    return f.join_fold(comp)


# frames up to this size have every subset tested, larger ones only their
# principal up-sets (the only candidates that can pass); up to the second
# size complete primality is also tested over every subset of elements; the
# third is the largest frame the oracle runs on, its masks being uint64
BRUTEFORCE_SUBSETS_LIMIT = 16
BRUTEFORCE_ALL_JOINS_LIMIT = 12
BRUTEFORCE_MAX_ELEMENTS = 64


def _join_of_all_subsets(f: FiniteFrame) -> np.ndarray:
    """Entry s: the join of the subset s, folded from its highest element
    down, out[s] = join[out[s minus its lowest element], lowest element]."""
    out = np.empty(1 << f.n, dtype=np.int64)
    out[0] = f.bottom
    done = np.zeros(1, dtype=np.int64)  # the subsets of {x+1, ..., n-1}
    for x in range(f.n - 1, -1, -1):
        grown = done | (1 << x)
        out[grown] = f.join[out[done], x]
        done = np.concatenate([done, grown])
    return out


def cp_filters_bruteforce(f: FiniteFrame) -> list[CPFilter]:
    """Independent oracle: enumerate completely prime filters subset by subset.

    It reads only the order, meet and join tables and the bottom, and tests
    every candidate subset against the filter conditions literally, all
    candidates at once.  The candidates are one uint64 mask array: every
    non-empty subset up to BRUTEFORCE_SUBSETS_LIMIT elements, above that the
    principal up-sets, since a non-empty subset closed upwards and under
    binary meets contains the meet of all its elements, hence is a principal
    up-set, so nothing is missed.  The masks closed upwards become boolean
    rows, which must be closed under binary meets, x and y members implying
    meet[x, y] a member; proper; and binary prime, for index pairs x <= y
    outside the subset join[x, y] outside too.  Complete primality reduces to
    the binary case by finite induction; up to BRUTEFORCE_ALL_JOINS_LIMIT
    elements it is also tested over every subset of elements: no subset
    outside a filter joins into it.
    """
    n, meet, join = f.n, f.meet, f.join
    if n > BRUTEFORCE_MAX_ELEMENTS:
        raise ValueError(f"the filter oracle runs on at most "
                         f"{BRUTEFORCE_MAX_ELEMENTS} elements, not {n}")
    ups = [f.upset_mask(x) for x in range(n)]
    if n <= BRUTEFORCE_SUBSETS_LIMIT:
        masks = np.arange(1, 1 << n, dtype=np.uint64)
    else:
        masks = np.unique(np.array(ups, dtype=np.uint64))
    for x, up in enumerate(ups):
        masks = masks[((masks >> x) & 1 == 0) | (masks & up == up)]
    rows = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
    ok = ~(rows[:, :, None] & rows[:, None, :] & ~rows[:, meet]).any(axis=(1, 2))
    ok &= ~rows[:, f.bottom]
    xs, ys = np.triu_indices(n)
    ok &= ~(~rows[:, xs] & ~rows[:, ys] & rows[:, join[xs, ys]]).any(axis=1)
    if n <= BRUTEFORCE_ALL_JOINS_LIMIT:
        join_of = _join_of_all_subsets(f)
        subsets = np.arange(1 << n, dtype=np.uint64)
        for k in np.flatnonzero(ok):
            ok[k] = not (rows[k, join_of] & (subsets & masks[k] == 0)).any()
    out = [CPFilter(cogenerator_of_member_mask(f, m), m) for m in masks[ok].tolist()]
    return sorted(out, key=lambda c: c.cogenerator)


# ---------------------------------------------------------------------------
# spatiality

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
