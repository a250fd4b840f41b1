"""Instance builders and the standard corpus.

Positive instances: pair groupoids, small monoids as one-object categories,
free categories on acyclic graphs plus a truncated free monoid, frames
(chains, boolean lattices, products) and their quantale forms, and two
hand-built Ehresmann quantal frames that fail etaleness / isometry closure.

Negative fixtures perturb one table cell per axiom class (or delete one
join element); each carries the law its validator must report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crm import make_crm, pi_restriction_monoid
from .documents import WorkbenchDocument
from .functors import omega_object
from .order import (FiniteFrame, FiniteLattice, FinitePoset, frame_from_leq,
                    lattice_from_leq)
from .quantale import EhresmannQuantale, frame_as_quantale, make_eq
from .reports import MAX_TABLE_SIDE, BoundExceeded
from .topcat import (FiniteTopCategory, Topology,
                     make_category)


# ---------------------------------------------------------------------------
# categories

def pair_groupoid(n: int) -> FiniteTopCategory:
    """Arrows are ordered pairs (x, y) with d = (y, y), r = (x, x) and
    (x, y)(y, z) = (x, z); discrete topology."""
    size = n * n

    def idx(x: int, y: int) -> int:
        return x * n + y

    ids = [idx(x, x) for x in range(n)]
    d = [idx(a % n, a % n) for a in range(size)]
    r = [idx(a // n, a // n) for a in range(size)]
    comp = np.full((size, size), -1, dtype=np.int64)
    for x in range(n):
        for y in range(n):
            for u in range(n):
                for v in range(n):
                    if y == u:
                        comp[idx(x, y), idx(u, v)] = idx(x, v)
    cat = make_category(size, ids, d, r, comp_table=comp)
    return FiniteTopCategory(cat, Topology(size, None))


def empty_category() -> FiniteTopCategory:
    return FiniteTopCategory(make_category(0, [], [], []), Topology(0, None))


def monoid_category(mul_table, unit: int = 0) -> FiniteTopCategory:
    """A finite monoid as a one-object category (all arrows share d = r = e)."""
    mul = np.array(mul_table, dtype=np.int64)
    n = mul.shape[0]
    d = [unit] * n
    r = [unit] * n
    cat = make_category(n, [unit], d, r, comp_table=mul)
    return FiniteTopCategory(cat, Topology(n, None))


def semilattice_monoid_category() -> FiniteTopCategory:
    # {e, z} with zz = z
    return monoid_category([[0, 1], [1, 1]])


def cyclic2_category() -> FiniteTopCategory:
    # {e, g} with gg = e
    return monoid_category([[0, 1], [1, 0]])


def truncated_free_monoid_category(k: int = 2) -> FiniteTopCategory:
    """The monoid <x | x^(k+1) = x^k> as a one-object category."""
    n = k + 1
    mul = [[min(i + j, k) for j in range(n)] for i in range(n)]
    return monoid_category(mul)


def free_category_on_acyclic_graph(n_objects: int, edges: list[tuple[int, int]]
                                   ) -> FiniteTopCategory:
    """All paths of a finite acyclic graph.  A path ("p", e1, ..., ek) is the
    arrow e1 o ... o ek, so d is the source of ek and r the target of e1."""
    all_paths: list[tuple] = [("id", v) for v in range(n_objects)]
    work = [("p", i) for i in range(len(edges))]
    while work:
        p = work.pop()
        all_paths.append(p)
        if len(all_paths) > 64:
            raise BoundExceeded("free category too large; graph must be small and acyclic")
        last = p[-1]
        for i, (s, t) in enumerate(edges):
            if t == edges[last][0]:
                work.append(p + (i,))

    def p_src(p) -> int:
        return p[1] if p[0] == "id" else edges[p[-1]][0]

    def p_tgt(p) -> int:
        return p[1] if p[0] == "id" else edges[p[1]][1]

    index = {p: i for i, p in enumerate(all_paths)}
    n = len(all_paths)
    ids = [index[("id", v)] for v in range(n_objects)]
    d = [index[("id", p_src(p))] for p in all_paths]
    r = [index[("id", p_tgt(p))] for p in all_paths]
    comp = np.full((n, n), -1, dtype=np.int64)
    for a, pa in enumerate(all_paths):
        for b, pb in enumerate(all_paths):
            if p_src(pa) != p_tgt(pb):
                continue
            if pa[0] == "id":
                comp[a, b] = b
            elif pb[0] == "id":
                comp[a, b] = a
            else:
                comp[a, b] = index[("p",) + pa[1:] + pb[1:]]
    cat = make_category(n, ids, d, r, comp_table=comp)
    return FiniteTopCategory(cat, Topology(n, None))


def path_category() -> FiniteTopCategory:
    """Free category on 0 -> 1 -> 2: six arrows."""
    return free_category_on_acyclic_graph(3, [(0, 1), (1, 2)])


def parallel_pair_category() -> FiniteTopCategory:
    """Free category on two parallel edges 0 -> 1: four arrows."""
    return free_category_on_acyclic_graph(2, [(0, 1), (0, 1)])


def parity_pair_groupoid() -> FiniteTopCategory:
    """The pair groupoid on two points with the non-discrete etale topology
    whose opens are the empty set, the diagonal, the swap and everything."""
    disc = pair_groupoid(2)
    opens = frozenset({0, 0b1001, 0b0110, 0b1111})
    return FiniteTopCategory(disc.cat, Topology(4, opens))


def indiscrete_pair_groupoid() -> FiniteTopCategory:
    disc = pair_groupoid(2)
    return FiniteTopCategory(disc.cat, Topology(4, frozenset({0, 0b1111})))


# ---------------------------------------------------------------------------
# frames

def chain_frame(n: int) -> FiniteFrame:
    leq = np.triu(np.ones((n, n), dtype=bool))
    return frame_from_leq(leq)


def boolean_frame(atoms: int) -> FiniteFrame:
    n = 1 << atoms
    masks = np.arange(n)
    leq = np.bitwise_and.outer(masks, masks) == masks[:, None]
    return frame_from_leq(leq)


def product_frame(f1: FiniteFrame, f2: FiniteFrame) -> FiniteFrame:
    n1, n2 = f1.n, f2.n
    leq = np.zeros((n1 * n2, n1 * n2), dtype=bool)
    for a1 in range(n1):
        for a2 in range(n2):
            leq[a1 * n2 + a2, :] = (f1.leq[a1, :][:, None] & f2.leq[a2, :][None, :]).ravel()
    return frame_from_leq(leq)


def m3_lattice():
    """The diamond: 0 below three incomparable atoms below 1; not distributive."""
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    for i in (1, 2, 3):
        leq[i, 4] = True
    return lattice_from_leq(leq)


# ---------------------------------------------------------------------------
# hand-built Ehresmann quantal frames (negative for the rqf layers)

def non_etale_chain_quantale() -> EhresmannQuantale:
    """Three-chain 0 < c < 1 with unit c; the top is not a join of partial
    isometries, so the frame is Ehresmann but not etale."""
    f = chain_frame(3)
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    star = [0, 1, 1]
    plus = [0, 1, 1]
    return make_eq(f, mul, 1, star, plus)


def non_closed_isometries_quantale() -> EhresmannQuantale:
    """Boolean frame on atoms x, y, z with unit x; y.z = top escapes the
    partial isometries (the atoms), so closure under multiplication fails."""
    f = boolean_frame(3)  # element = subset mask of {x=1, y=2, z=4}
    n = 8
    atom_mul = {(1, 1): 1, (2, 2): 2, (4, 4): 4,
                (2, 4): 7, (4, 2): 7}

    def mul_elems(a: int, b: int) -> int:
        out = 0
        for x in (1, 2, 4):
            if not a & x:
                continue
            for y in (1, 2, 4):
                if not b & y:
                    continue
                if x == 1:
                    out |= y
                elif y == 1:
                    out |= x
                else:
                    out |= atom_mul[(x, y)]
        return out

    mul = [[mul_elems(a, b) for b in range(n)] for a in range(n)]
    star = [0] + [1] * 7  # every non-zero element has star = plus = x
    plus = [0] + [1] * 7
    return make_eq(f, mul, 1, star, plus)


# ---------------------------------------------------------------------------
# the corpus

@dataclass
class CorpusInstance:
    name: str
    kind: str  # the document kind: "poset" | "frame" | "rqf" | "topcategory" | "crm"
    obj: object
    expect_fail: Optional[str] = None  # law the validator must report
    sober: bool = True  # finite discrete categories are sober; the parity
    #                     topology identifies the two identity points


def etale_categories() -> list[CorpusInstance]:
    out = [
        CorpusInstance("empty", "topcategory", empty_category()),
        CorpusInstance("trivial-monoid", "topcategory", monoid_category([[0]])),
        CorpusInstance("pair1", "topcategory", pair_groupoid(1)),
        CorpusInstance("pair2", "topcategory", pair_groupoid(2)),
        CorpusInstance("pair3", "topcategory", pair_groupoid(3)),
        CorpusInstance("semilattice-monoid", "topcategory", semilattice_monoid_category()),
        CorpusInstance("cyclic2-monoid", "topcategory", cyclic2_category()),
        CorpusInstance("truncated-free-monoid", "topcategory", truncated_free_monoid_category(2)),
        CorpusInstance("path-category", "topcategory", path_category()),
        CorpusInstance("parallel-pair", "topcategory", parallel_pair_category()),
        CorpusInstance("parity-pair2", "topcategory", parity_pair_groupoid(), sober=False),
    ]
    return out


def corpus_frames() -> list[CorpusInstance]:
    return [
        CorpusInstance("chain2", "frame", chain_frame(2)),
        CorpusInstance("chain3", "frame", chain_frame(3)),
        CorpusInstance("chain5", "frame", chain_frame(5)),
        CorpusInstance("chain64", "frame", chain_frame(64)),
        CorpusInstance("bool2", "frame", boolean_frame(2)),
        CorpusInstance("bool3", "frame", boolean_frame(3)),
        CorpusInstance("bool4", "frame", boolean_frame(4)),
        CorpusInstance("bool6", "frame", boolean_frame(6)),
        CorpusInstance("prod-3x3", "frame", product_frame(chain_frame(3), chain_frame(3))),
        CorpusInstance("prod-3x4", "frame", product_frame(chain_frame(3), chain_frame(4))),
    ]


# the corpus rqfs whose monoid of partial isometries is a corpus crm, pi-<name>
PI_OF_RQFS = ("omega-pair1", "omega-pair2", "omega-pair3", "omega-semilattice-monoid",
              "qframe-chain3")


def omega_images(max_elements: int = MAX_TABLE_SIDE) -> list[tuple[str, CorpusInstance]]:
    """The corpus rqf names omega-<name> of the etale categories with at most
    `max_elements` opens, each with its category."""
    return [(f"omega-{inst.name}", inst) for inst in etale_categories()
            if inst.obj.topology.open_count() <= max_elements]


def quantale_frames() -> list[CorpusInstance]:
    """Corpus frames as quantales, multiplication being the meet."""
    frames = {i.name: i.obj for i in corpus_frames()}
    return [CorpusInstance(f"qframe-{name}", "rqf", frame_as_quantale(frames[name]))
            for name in ("chain3", "chain64", "bool2", "bool6", "prod-3x3")]


def corpus_rqfs(max_elements: int = MAX_TABLE_SIDE,
                images: Optional[list[tuple[str, CorpusInstance]]] = None) -> list[CorpusInstance]:
    """Omega images of the etale categories plus frames as quantales; the
    categories are those of images, a listing of omega_images
    (omega_images(max_elements) when None), on which Omega is cached."""
    out = [CorpusInstance(name, "rqf", omega_object(inst.obj, max_elements=max_elements).rqf)
           for name, inst in (omega_images(max_elements) if images is None else images)]
    return out + quantale_frames()


def hand_built_crms() -> list[CorpusInstance]:
    return [
        CorpusInstance("trivial-crm", "crm",
                       make_crm(1, [[True]], [[0]], 0, 0, [0], [0], [[0]])),
        CorpusInstance("zero-unit-crm", "crm",
                       make_crm(2, [[True, True], [False, True]], [[0, 0], [0, 1]],
                                1, 0, [0, 1], [0, 1], [[0, 0], [0, 1]])),
    ]


def corpus_crms(rqfs: Optional[list[CorpusInstance]] = None) -> list[CorpusInstance]:
    """The hand-built monoids and PI(Q) of the corpus rqfs named in
    PI_OF_RQFS, read off rqfs, a listing of corpus_rqfs (corpus_rqfs() when
    None), so that a caller that holds one builds no Omega image again."""
    out = hand_built_crms()
    for inst in corpus_rqfs() if rqfs is None else rqfs:
        if inst.name in PI_OF_RQFS:
            s, _ = pi_restriction_monoid(inst.obj)
            out.append(CorpusInstance(f"pi-{inst.name}", "crm", s))
    return out


# ---------------------------------------------------------------------------
# negative fixtures: one mutated table cell (or one deleted join) per axiom class

def _mutate_poset(leq, i, j, value):
    a = np.array(leq, dtype=bool)
    a[i, j] = value
    return a


def negative_fixtures(pair2: Optional[FiniteTopCategory] = None) -> list[CorpusInstance]:
    """The negative fixtures but the crm one.  The Ehresmann fixture
    perturbs Omega(pair2), read off pair2, a pair groupoid on two points
    (a new one when None), on which it is cached, so that a caller that
    holds one builds no Omega image again."""
    out: list[CorpusInstance] = []

    chain = chain_frame(3)
    leq = chain.leq

    bad = _mutate_poset(leq, 1, 1, False)
    out.append(CorpusInstance("poset-nonreflexive", "poset",
                              FinitePoset.from_leq(bad), "poset.reflexivity"))
    bad = _mutate_poset(leq, 2, 1, True)
    out.append(CorpusInstance("poset-nonantisymmetric", "poset",
                              FinitePoset.from_leq(bad), "poset.antisymmetry"))
    leq4 = np.eye(4, dtype=bool)
    leq4[0, 1] = leq4[1, 2] = True  # missing 0 <= 2
    leq4[0, 3] = leq4[1, 3] = leq4[2, 3] = True
    out.append(CorpusInstance("poset-nontransitive", "poset",
                              FinitePoset.from_leq(leq4), "poset.transitivity"))

    lat = chain_frame(3)
    meet = lat.meet.copy()
    meet[1, 2] = 2  # meet(1, 2) should be 1 on the chain
    out.append(CorpusInstance("lattice-bad-meet", "frame",
                              FiniteLattice(lat.n, lat.leq, meet, lat.join, lat.bottom, lat.top),
                              "lattice.meet_not_lower_bound"))
    out.append(CorpusInstance("m3-lattice", "frame", m3_lattice(),
                              "frame.distributivity"))

    def chain3_quantale_tables():
        f = chain_frame(3)
        q = frame_as_quantale(f)
        return f, q.mul.copy(), q.star.copy(), q.plus.copy()

    fb2 = boolean_frame(2)
    qb2 = frame_as_quantale(fb2)
    mul = qb2.mul.copy()
    mul[1, 2] = 3  # (a.b).b = b but a.(b.b) = top
    out.append(CorpusInstance("quantale-nonassoc", "rqf",
                              make_eq(fb2, mul, 3, qb2.star.copy(), qb2.plus.copy()),
                              "quantale.associativity"))
    f, mul, star, plus = chain3_quantale_tables()
    out.append(CorpusInstance("quantale-bad-unit", "rqf",
                              make_eq(f, mul, 1, star, plus), "quantale.unit_left"))

    # join distributivity: perturb a single product of the boolean-2 meet quantale
    fb = boolean_frame(2)
    qb = frame_as_quantale(fb)
    mulb = qb.mul.copy()
    mulb[1, 1] = 0  # a.(a \/ b) = a but a.a \/ a.b = 0; associativity survives
    out.append(CorpusInstance("quantale-nondistributive", "rqf",
                              make_eq(fb, mulb, 3, qb.star.copy(), qb.plus.copy()),
                              "quantale.join_distributivity_left"))

    # Ehresmann: swap star and plus on one non-symmetric element of omega(pair2)
    om = omega_object(pair_groupoid(2) if pair2 is None else pair2)
    q = om.rqf
    star = q.star.copy()
    plus = q.plus.copy()
    a = om.opens.index(0b0010)  # the open {(0,1)}: star is (1,1), plus is (0,0)
    star[a], plus[a] = plus[a], star[a]
    out.append(CorpusInstance("ehresmann-swapped-star", "rqf",
                              make_eq(q, q.mul.copy(), q.unit, star, plus),
                              "ehresmann.a_mul_star"))

    out.append(CorpusInstance("non-etale-chain", "rqf", non_etale_chain_quantale(),
                              "rqf.etale_top_is_join_of_isometries"))
    out.append(CorpusInstance("isometries-not-closed", "rqf",
                              non_closed_isometries_quantale(),
                              "rqf.isometries_closed_under_mul"))

    # category: composite present where d(a) != r(b)
    tc = pair_groupoid(2)
    comp = tc.cat.comp.copy()
    comp[1, 1] = 1  # d(0,1) = (1,1) but r(0,1) = (0,0)
    out.append(CorpusInstance("category-bad-composability", "topcategory",
                              FiniteTopCategory(
                                  make_category(4, [0, 3], tc.cat.d, tc.cat.r, comp_table=comp),
                                  Topology(4, None)),
                              "category.composability"))

    out.append(CorpusInstance("indiscrete-pair2", "topcategory",
                              indiscrete_pair_groupoid(),
                              "etale.open_not_union_of_bisections"))
    return out


def generate_corpus(max_elements: int = MAX_TABLE_SIDE):
    """The whole corpus as workbench documents: categories with their
    quantale images, frames, monoids, and the perturbed negative fixtures
    (those carry the violated law in their expected block).  An Omega image
    with more than max_elements opens is left out, and so is its PI.  Each
    Omega image is built once: the negative fixtures read Omega(pair2) off
    the corpus pair2, on which it is cached."""
    if max_elements > MAX_TABLE_SIDE:
        raise BoundExceeded(f"max_elements {max_elements} exceeds hard limit {MAX_TABLE_SIDE}")
    docs = []
    for inst in etale_categories():
        docs.append(WorkbenchDocument("topcategory", inst.name, inst.obj))
    for inst in corpus_frames():
        docs.append(WorkbenchDocument("frame", inst.name, inst.obj))
    images = omega_images(max_elements)
    rqfs = corpus_rqfs(max_elements, images)
    for inst in rqfs:
        docs.append(WorkbenchDocument("rqf", inst.name, inst.obj))
    for inst in corpus_crms(rqfs):
        docs.append(WorkbenchDocument("crm", inst.name, inst.obj))
    pair2 = next((inst.obj for name, inst in images if name == "omega-pair2"), pair_groupoid(2))
    for inst in negative_fixtures(pair2) + [negative_crm_fixture(pair2)]:
        docs.append(WorkbenchDocument(inst.kind, inst.name, inst.obj,
                                      expected={"violated_law": inst.expect_fail}))
    return docs


def negative_crm_fixture(pair2: Optional[FiniteTopCategory] = None) -> CorpusInstance:
    """The partial-bijection monoid on a 2-set minus the swap: the two
    transposition singletons stay compatible but their join is gone.  Read
    off Omega(pair2), as negative_fixtures reads it."""
    om = omega_object(pair_groupoid(2) if pair2 is None else pair2)
    s, carrier = pi_restriction_monoid(om.rqf)
    swap_q = om.opens.index(0b0110)
    keep = [i for i, e in enumerate(carrier) if e != swap_q]
    pos = {old: new for new, old in enumerate(keep)}
    k = len(keep)
    leq = np.zeros((k, k), dtype=bool)
    mul = np.zeros((k, k), dtype=np.int64)
    meet = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(keep):
        for j, b in enumerate(keep):
            leq[i, j] = s.leq[a, b]
            mul[i, j] = pos[int(s.mul[a, b])]
            meet[i, j] = pos[int(s.meet[a, b])]
    star = np.array([pos[int(s.star[a])] for a in keep])
    plus = np.array([pos[int(s.plus[a])] for a in keep])
    bad = make_crm(k, leq, mul, pos[s.unit], pos[s.zero], star, plus, meet)
    return CorpusInstance("crm-missing-join", "crm", bad, "crm.compatible_join_missing")
