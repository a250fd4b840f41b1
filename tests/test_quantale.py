import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import iter_bits, mask_of
from framecat.corpus import (boolean_frame, chain_frame, corpus_rqfs,
                             negative_fixtures, non_closed_isometries_quantale,
                             non_etale_chain_quantale, pair_groupoid,
                             parity_pair_groupoid)
from framecat.functors import omega_object
from framecat.order import join_irreducibles, validate_frame
from framecat.quantale import (EhresmannQuantale, FiniteQuantale, _ehresmann_laws_hold,
                               _quantale_laws_hold, compatibility_lemma_check,
                               compatible, every_element_is_join_of_pi,
                               frame_as_quantale, make_eq, partial_isometries,
                               pi_is_order_ideal, validate_ehresmann,
                               validate_quantale, validate_rqf)
from framecat.reports import Report
from map_oracles import cat_of_ehresmann, validate_rqf_oracle
from random_categories import small_categories
from framecat.topcat import validate_category, validate_topcategory


@pytest.fixture(scope="module")
def q2(request):
    return omega_object(pair_groupoid(2)).rqf


def arrow_set(om, *arrows):
    return om.opens.index(mask_of(arrows))


def test_relation_quantale_is_ehresmann(q2):
    assert validate_ehresmann(q2).ok


def test_relation_quantale_is_rqf(q2):
    rep = validate_rqf(q2)
    assert rep.ok
    assert rep.layers_run[-1] == "rqf"


def test_frame_as_quantale_is_ehresmann():
    q = frame_as_quantale(chain_frame(4))
    assert validate_ehresmann(q).ok
    assert validate_rqf(q).ok


def test_swapped_star_fails_with_witness(q2):
    om = omega_object(pair_groupoid(2))
    star = q2.star.copy()
    plus = q2.plus.copy()
    a = om.opens.index(0b0010)  # {(0,1)} is not symmetric
    star[a], plus[a] = plus[a], star[a]
    rep = validate_ehresmann(make_eq(q2, q2.mul.copy(), q2.unit, star, plus))
    assert not rep.ok
    assert "ehresmann.a_mul_star" in rep.laws()


def test_partial_isometries_of_relation_quantale(q2):
    om = omega_object(pair_groupoid(2))
    pis = partial_isometries(q2)
    assert len(pis) == 7
    # bottom and all projections are isometries
    assert q2.bottom in pis
    for f in q2.projections():
        assert f in pis
    # the non-bisection full relation is not
    assert om.opens.index(0b1111) not in pis


def test_isometries_of_frame_quantale_are_everything():
    q = frame_as_quantale(boolean_frame(2))
    assert partial_isometries(q) == list(range(q.n))
    assert pi_is_order_ideal(q) == (True, None)


def test_isometry_order_ideal(q2):
    assert pi_is_order_ideal(q2) == (True, None)


def test_compatibility_examples(q2):
    om = omega_object(pair_groupoid(2))
    a = arrow_set(om, 1)      # {(0,1)}
    b = arrow_set(om, 0)      # {(0,0)}
    assert not compatible(q2, a, b)
    assert compatible(q2, a, a)
    # projections are always compatible
    for f in q2.projections():
        for g in q2.projections():
            assert compatible(q2, f, g)


def test_compatibility_lemma_exhaustive(q2):
    assert compatibility_lemma_check(q2) == (True, None)


def test_compatibility_lemma_on_parity_quantale():
    q = omega_object(parity_pair_groupoid()).rqf
    assert validate_rqf(q).ok
    assert compatibility_lemma_check(q) == (True, None)


def compatibility_lemma_check_by_pairs(q):
    """compatibility_lemma_check as it was: `compatible` on each pair."""
    pis = partial_isometries(q)
    pi_set = set(pis)
    for a in pis:
        for b in pis:
            if (int(q.join[a, b]) in pi_set) != compatible(q, a, b):
                return False, (a, b)
    return True, None


def one_cell_perturbations(q, count, seed):
    """Copies of q, each with one cell of join, mul, star or plus set to a
    random element (`dataclasses.replace`, so with an empty cache)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        name = ("join", "mul", "star", "plus")[rng.integers(4)]
        table = np.array(getattr(q, name))
        table[tuple(rng.integers(q.n, size=table.ndim))] = rng.integers(q.n)
        yield dataclasses.replace(q, **{name: table})


@pytest.mark.parametrize("inst", corpus_rqfs(), ids=lambda i: i.name)
def test_compatibility_lemma_matches_pairwise_check(inst):
    """On the corpus rqf and on 40 one-cell perturbations of it."""
    q = inst.obj
    assert compatibility_lemma_check(q) == compatibility_lemma_check_by_pairs(q)
    for bad in one_cell_perturbations(q, 40, q.n):
        assert compatibility_lemma_check(bad) == compatibility_lemma_check_by_pairs(bad)


def test_every_element_is_join_of_isometries(q2):
    assert every_element_is_join_of_pi(q2) == (True, None)
    om = omega_object(pair_groupoid(2))
    swap = om.opens.index(0b0110)
    a, b = arrow_set(om, 1), arrow_set(om, 2)
    assert int(q2.join[a, b]) == swap


def test_non_etale_quantale_rejected():
    q = non_etale_chain_quantale()
    assert validate_ehresmann(q).ok
    rep = validate_rqf(q)
    assert rep.laws() == ["rqf.etale_top_is_join_of_isometries"]


def test_non_closed_isometries_rejected():
    q = non_closed_isometries_quantale()
    assert validate_ehresmann(q).ok
    rep = validate_rqf(q)
    assert "rqf.isometries_closed_under_mul" in rep.laws()


def test_one_element_quantale_is_rqf():
    from framecat.order import frame_from_leq
    q = frame_as_quantale(frame_from_leq([[1]]))
    assert validate_rqf(q).ok


def test_category_of_frame_quantale_has_only_identities():
    q = frame_as_quantale(chain_frame(3))
    tc = cat_of_ehresmann(q)
    assert validate_category(tc.cat).ok
    assert sorted(tc.cat.identities()) == [0, 1, 2]


def test_category_of_relation_quantale(q2):
    tc = cat_of_ehresmann(q2)
    rep = validate_category(tc.cat)
    assert rep.ok
    # objects are the subsets of the identity set
    assert len(tc.cat.identities()) == 4
    assert validate_topcategory(tc).ok


def test_star_plus_join_preservation_exhaustive(q2):
    star, plus, join = q2.star, q2.plus, q2.join
    assert (star[join] == join[np.ix_(star, star)]).all()
    assert (plus[join] == join[np.ix_(plus, plus)]).all()


def test_star_plus_fix_projections_exactly(q2):
    for f in q2.projections():
        assert int(q2.star[f]) == f
        assert int(q2.plus[f]) == f


# ---------------------------------------------------------------------------
# the quantale fast path against an oracle: the body below is the law-by-law
# scan over all pairs and triples; the frame layer is compared with its own
# scan in test_order.py

def validate_quantale_oracle(q: FiniteQuantale) -> Report:
    rep = validate_frame(q)
    if not rep.ok:
        return rep
    rep.subject = "quantale"
    rep.layers_run.append("quantale")
    n, mul, join, bot = q.n, q.mul, q.join, q.bottom
    if mul.shape != (n, n) or (mul < 0).any() or (mul >= n).any():
        rep.add("quantale.mul_table_range", (0,))
        return rep
    for a in range(n):
        lhs = mul[mul[a, :], :]
        rhs = mul[a, mul]
        diff = lhs != rhs
        if diff.any():
            b, c = np.argwhere(diff)[0]
            rep.add("quantale.associativity", (a, int(b), int(c)))
            break
    e = q.unit
    bad = np.flatnonzero(mul[e, :] != np.arange(n))
    if bad.size:
        rep.add("quantale.unit_left", (int(bad[0]),))
    bad = np.flatnonzero(mul[:, e] != np.arange(n))
    if bad.size:
        rep.add("quantale.unit_right", (int(bad[0]),))
    for a in range(n):
        lhs = mul[a, join]
        rhs = join[np.ix_(mul[a, :], mul[a, :])]
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


def quantale_laws_hold_by_j_passes(q: FiniteQuantale) -> bool:
    """The quantale layer's fast test before it read G-sets: the unit laws,
    then left[a, x], the join of the a.j over j <= x in J, built in |J|
    passes over n-by-n tables, must be mul (and right[x, a] likewise), then
    associativity on J^3."""
    n, mul, join, leq, bot = q.n, q.mul, q.join, q.leq, q.bottom
    ident = np.arange(n)
    if not ((mul[q.unit, :] == ident).all() and (mul[:, q.unit] == ident).all()):
        return False
    js = np.array(join_irreducibles(q), dtype=np.int64)
    left = np.full((n, n), bot, dtype=np.int64)
    right = np.full((n, n), bot, dtype=np.int64)
    for j in js:
        above = leq[j, :]
        left = np.where(above[None, :], join[left, mul[:, j, None]], left)
        right = np.where(above[:, None], join[right, mul[None, j, :]], right)
    if not (np.array_equal(left, mul) and np.array_equal(right, mul)):
        return False
    jj = mul[np.ix_(js, js)]
    return bool((mul[jj[:, :, None], js] == mul[js[:, None, None], jj[None, :, :]]).all())


def _wide_quantale():
    """The frame of chain(100) as a quantale: |J| = 99, two words."""
    return frame_as_quantale(chain_frame(100))


def _corpus_quantales():
    out = [(i.name, i.obj) for i in corpus_rqfs()]
    out += [(i.name, i.obj) for i in negative_fixtures() if i.kind == "rqf"]
    out.append(("qframe-chain100", _wide_quantale()))
    return [pytest.param(q, id=name) for name, q in out]


def assert_quantale_layer_matches_oracle(q: FiniteQuantale):
    """Same report as the scan; and the fast test passes exactly when the
    scan does, so that no passing input pays for a scan, and exactly when
    its body before the word kernel does."""
    rep = validate_quantale(q)
    assert rep == validate_quantale_oracle(q)
    if "quantale" in rep.layers_run and "quantale.mul_table_range" not in rep.laws():
        assert _quantale_laws_hold(q) == rep.ok == quantale_laws_hold_by_j_passes(q)


@pytest.mark.parametrize("q", _corpus_quantales())
def test_quantale_layer_matches_oracle_on_corpus(q):
    assert_quantale_layer_matches_oracle(q)


def _single_cell_mutations(q: FiniteQuantale, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        name = ("mul", "mul", "meet", "join")[int(rng.integers(4))]
        i, j = (int(v) for v in rng.integers(q.n, size=2))
        tables = {"mul": np.array(q.mul), "meet": np.array(q.meet),
                  "join": np.array(q.join)}
        old = int(tables[name][i, j])
        tables[name][i, j] = (old + 1 + int(rng.integers(q.n - 1))) % q.n
        yield FiniteQuantale(q.n, q.leq, tables["meet"], tables["join"], q.bottom, q.top,
                             tables["mul"], q.unit)


@pytest.mark.parametrize("q", [p for p in _corpus_quantales()
                               if 1 < p.values[0].n <= 64
                               and validate_quantale(p.values[0]).ok])
def test_quantale_layer_matches_oracle_on_mutated_tables(q):
    for bad in _single_cell_mutations(q, 25, seed=q.n):
        assert_quantale_layer_matches_oracle(bad)


def test_quantale_layer_matches_oracle_on_a_wide_quantale():
    q = _wide_quantale()
    assert len(join_irreducibles(q)) == 99
    for bad in _single_cell_mutations(q, 8, seed=q.n):
        assert_quantale_layer_matches_oracle(bad)


@st.composite
def magma_powerset_quantales(draw):
    """Subsets of a unital magma on k <= 3 points with the elementwise
    product: join-preserving on both sides with unit {0}, and associative
    exactly when the magma is, which the fast test decides on J^3 (the
    singletons)."""
    k = draw(st.integers(min_value=1, max_value=3))
    table = np.zeros((k, k), dtype=np.int64)
    table[0, :] = table[:, 0] = np.arange(k)
    for a in range(1, k):
        for b in range(1, k):
            table[a, b] = draw(st.integers(min_value=0, max_value=k - 1))
    n = 1 << k
    mul = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            for a in iter_bits(x):
                for b in iter_bits(y):
                    mul[x, y] |= 1 << int(table[a, b])
    f = boolean_frame(k)
    return FiniteQuantale(n, f.leq, f.meet, f.join, f.bottom, f.top, mul, 1)


@settings(max_examples=60, deadline=None)
@given(magma_powerset_quantales())
def test_quantale_layer_matches_oracle_on_magma_powersets(q):
    assert_quantale_layer_matches_oracle(q)


def partial_isometries_reference(q) -> list[int]:
    """partial_isometries element by element, as it was before its one
    n-by-n test: every b <= a must satisfy b = b+.a = a.b*."""
    n, mul, star, plus, leq = q.n, q.mul, q.star, q.plus, q.leq
    out = []
    for a in range(n):
        below = np.flatnonzero(leq[:, a])
        if (mul[plus[below], a] == below).all() and (mul[a, star[below]] == below).all():
            out.append(a)
    return out


def _ehresmann_mutations(q, count: int, seed: int):
    """One cell of mul, star or plus moved to another element."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tables = {"mul": np.array(q.mul), "star": np.array(q.star), "plus": np.array(q.plus)}
        name = ("mul", "star", "plus")[int(rng.integers(3))]
        cell = tuple(int(v) for v in rng.integers(q.n, size=tables[name].ndim))
        tables[name][cell] = (tables[name][cell] + 1 + int(rng.integers(q.n - 1))) % q.n
        yield make_eq(q, tables["mul"], q.unit, tables["star"], tables["plus"])


@pytest.mark.parametrize("q", _corpus_quantales())
def test_partial_isometries_match_reference(q):
    assert partial_isometries(q) == partial_isometries_reference(q)
    if q.n > 1:
        for bad in _ehresmann_mutations(q, 25, seed=q.n):
            assert partial_isometries(bad) == partial_isometries_reference(bad)


# ---------------------------------------------------------------------------
# the Ehresmann fast path against the law-by-law scan below (the body
# validate_ehresmann had before its fast test): same report, and the fast
# test passes exactly when the scan does

def validate_ehresmann_oracle(q: EhresmannQuantale) -> Report:
    rep = validate_quantale(q)
    if not rep.ok:
        return rep
    rep.subject = "ehresmann"
    rep.layers_run.append("ehresmann")
    n, mul, star, plus, join = q.n, q.mul, q.star, q.plus, q.join
    leq = q.leq
    projs = np.array(q.projections())
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
    bad = np.flatnonzero(mul[np.arange(n), star] != np.arange(n))
    if bad.size:
        rep.add("ehresmann.a_mul_star", (int(bad[0]),))
    bad = np.flatnonzero(mul[plus, np.arange(n)] != np.arange(n))
    if bad.size:
        rep.add("ehresmann.plus_mul_a", (int(bad[0]),))
    diff = star[mul] != star[mul[star, :]]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("ehresmann.congruence_star", (int(a), int(b)))
    diff = plus[mul] != plus[mul[:, plus]]
    if diff.any():
        a, b = np.argwhere(diff)[0]
        rep.add("ehresmann.congruence_plus", (int(a), int(b)))
    for name, m in (("star", star), ("plus", plus)):
        if m[q.bottom] != q.bottom:
            rep.add(f"ehresmann.{name}_join_map", (q.bottom,))
            continue
        diff = m[join] != join[np.ix_(m, m)]
        if diff.any():
            a, b = np.argwhere(diff)[0]
            rep.add(f"ehresmann.{name}_join_map", (int(a), int(b)))
    return rep


def assert_ehresmann_layer_matches_oracle(q: EhresmannQuantale):
    rep = validate_ehresmann(q)
    assert rep == validate_ehresmann_oracle(q)
    if "ehresmann" in rep.layers_run:
        assert _ehresmann_laws_hold(q) == rep.ok


def _star_plus_mutations(q, count: int, seed: int):
    """One value of star or plus moved to another element; unlike a moved
    product, this keeps the quantale layer passing, so the Ehresmann layer
    runs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        star, plus = np.array(q.star), np.array(q.plus)
        m = (star, plus)[int(rng.integers(2))]
        a = int(rng.integers(q.n))
        m[a] = (m[a] + 1 + int(rng.integers(q.n - 1))) % q.n
        yield make_eq(q, q.mul, q.unit, star, plus)


@pytest.mark.parametrize("q", _corpus_quantales())
def test_ehresmann_layer_matches_oracle(q):
    assert_ehresmann_layer_matches_oracle(q)
    if q.n > 1:
        for bad in _star_plus_mutations(q, 25, seed=q.n):
            assert_ehresmann_layer_matches_oracle(bad)


@settings(max_examples=60, deadline=None)
@given(small_categories(), st.data())
def test_ehresmann_layer_matches_oracle_on_random_star_and_plus(tc, data):
    """Omega(C) of a random category, with star and plus redrawn for every
    element a that is not a projection: a* among the projections p with
    a.p = a, a+ among those with p.a = a.  The range, projection and
    a.a* = a / a+.a = a laws then hold, so the draws test the reductions of
    the join maps and the congruences to J."""
    q = omega_object(tc).rqf
    projs = q.projections()
    star, plus = np.array(q.star), np.array(q.plus)
    for a in range(q.n):
        if a not in projs:
            star[a] = data.draw(st.sampled_from([p for p in projs if q.mul[a, p] == a]))
            plus[a] = data.draw(st.sampled_from([p for p in projs if q.mul[p, a] == a]))
    assert_ehresmann_layer_matches_oracle(make_eq(q, q.mul, q.unit, star, plus))


# ---------------------------------------------------------------------------
# the quantale and Ehresmann layers against their bodies before they
# shared their associativity and a.a* / a+.a / congruence scans with
# crm.validate_crm, and the rqf layer against its body with the
# restriction-identity loop, which cannot fire once the Ehresmann layer
# passed: the same reports on every one-cell mutation of the small corpus
# quantales

def one_cell_eq_mutations(q):
    """q with one value of mul, star or plus moved to the next element."""
    tables = {"mul": q.mul, "star": q.star, "plus": q.plus}
    for name, table in tables.items():
        for cell in np.ndindex(table.shape):
            changed = dict(tables)
            changed[name] = np.array(table)
            changed[name][cell] = (table[cell] + 1) % q.n
            yield make_eq(q, changed["mul"], q.unit, changed["star"], changed["plus"])


@pytest.mark.parametrize("q", [p for p in _corpus_quantales() if p.values[0].n <= 16])
def test_layers_match_oracles_on_one_cell_mutations(q):
    for bad in (q, *one_cell_eq_mutations(q)):
        assert validate_quantale(bad) == validate_quantale_oracle(bad)
        assert validate_ehresmann(bad) == validate_ehresmann_oracle(bad)
        assert validate_rqf(bad) == validate_rqf_oracle(bad)

