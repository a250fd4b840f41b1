import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import has_bit, iter_bits, mask_of, row_masks
from framecat.corpus import (boolean_frame, chain_frame, corpus_frames, corpus_rqfs,
                             m3_lattice, negative_fixtures, product_frame)
from framecat.order import (BRUTEFORCE_MAX_ELEMENTS, CPFilter, FiniteFrame,
                            FiniteLattice, FinitePoset, _has_lattice_tables,
                            _irreducibles, _is_distributive, _lattice_tables,
                            cogenerator_of_member_mask, cp_filter_generators,
                            cp_filters_bruteforce, enumerate_cp_filters,
                            frame_from_leq, frame_spatial_check, is_frame,
                            join_irreducibles, join_splits, join_words, lattice_from_leq,
                            meet_prime_elements, validate_frame, validate_lattice,
                            validate_poset)
from framecat.duality import build_chi
from framecat.functors import c_object
from framecat.quantale import frame_as_quantale
from framecat.reports import InternalError, Report
from map_oracles import meet_fold


def pt_space(f: FiniteFrame):
    """pt(F), the completely prime filters of F with the opens X_a, read
    as C(F) of F as a quantale (mul = meet, unit = top): its arrows are the
    points, all of them identities, and X_a is column a of its member rows."""
    return c_object(frame_as_quantale(f)).topcat


def test_two_chain_is_a_poset():
    p = FinitePoset.from_leq([[1, 1], [0, 1]])
    assert validate_poset(p).ok


def test_antisymmetry_witness():
    p = FinitePoset.from_leq([[1, 1], [1, 1]])
    rep = validate_poset(p)
    assert rep.laws() == ["poset.antisymmetry"]
    assert rep.violations[0].witness == (0, 1)


def test_transitivity_witness():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True  # 0 <= 2 missing
    rep = validate_poset(FinitePoset.from_leq(leq))
    assert rep.laws() == ["poset.transitivity"]
    i, j, k = rep.violations[0].witness
    assert (i, k) == (0, 2)


def test_boolean_lattice_is_frame():
    f = boolean_frame(2)
    assert validate_frame(f).ok
    assert is_frame(f) == (True, None)


def test_m3_fails_distributivity_with_atom_witness():
    lat = m3_lattice()
    assert validate_lattice(lat).ok
    ok, wit = is_frame(lat)
    assert not ok
    assert set(wit) <= {1, 2, 3}


def test_chains_are_frames():
    for n in (1, 2, 5, 9):
        assert validate_frame(chain_frame(n)).ok


def test_meet_primes_of_chain():
    f = chain_frame(3)
    assert meet_prime_elements(f) == [0, 1]


def test_meet_primes_of_boolean_lattice_are_coatoms():
    f = boolean_frame(2)
    # elements are subset masks 0..3; the coatoms are the atoms 1 and 2
    assert meet_prime_elements(f) == [1, 2]
    f4 = boolean_frame(4)
    primes = meet_prime_elements(f4)
    assert len(primes) == 4
    assert all(bin(15 ^ p).count("1") == 1 for p in primes)


def test_degenerate_frame_has_no_primes_and_no_points():
    f = frame_from_leq([[1]])
    assert meet_prime_elements(f) == []
    assert enumerate_cp_filters(f) == []
    assert pt_space(f).n == 0


def test_chain_filters_match_spec_listing():
    f = chain_frame(3)
    filters = enumerate_cp_filters(f)
    members = [sorted(iter_bits(c.members)) for c in filters]
    assert members == [[1, 2], [2]]


def test_power_set_filters_are_principal_at_points():
    f = boolean_frame(4)
    filters = enumerate_cp_filters(f)
    assert len(filters) == 4
    for c in filters:
        atoms = [a for a in (1, 2, 4, 8) if has_bit(c.members, a)]
        assert len(atoms) == 1
        atom = atoms[0]
        for x in range(16):
            assert has_bit(c.members, x) == bool(x & atom)


@pytest.mark.parametrize("make", [
    lambda: chain_frame(2),
    lambda: chain_frame(5),
    lambda: boolean_frame(2),
    lambda: boolean_frame(3),
    lambda: boolean_frame(4),
    lambda: product_frame(chain_frame(3), chain_frame(3)),
    lambda: product_frame(chain_frame(3), chain_frame(4)),
])
def test_filter_enumeration_matches_bruteforce(make):
    f = make()
    fast = enumerate_cp_filters(f)
    brute = cp_filters_bruteforce(f)
    assert [(c.cogenerator, c.members) for c in fast] == \
        [(c.cogenerator, c.members) for c in brute]


def test_bruteforce_oracle_on_large_frames():
    for f in (chain_frame(64), boolean_frame(6)):
        fast = enumerate_cp_filters(f)
        brute = cp_filters_bruteforce(f)
        assert [(c.cogenerator, c.members) for c in fast] == \
            [(c.cogenerator, c.members) for c in brute]


def test_filters_are_cogenerated_by_meet_primes():
    f = product_frame(chain_frame(3), chain_frame(3))
    for c in enumerate_cp_filters(f):
        m = c.cogenerator
        assert m in meet_prime_elements(f)
        for x in range(f.n):
            assert has_bit(c.members, x) == (not f.leq[x, m])


def test_pt_of_chain_is_sierpinski():
    sp = pt_space(chain_frame(3))
    assert sp.n == 2
    assert sp.topology.opens == frozenset({0, 1, 3})


def test_pt_of_boolean2_is_discrete():
    sp = pt_space(boolean_frame(2))
    assert sp.n == 2
    assert sp.topology.open_count() == 4 and sp.topology.is_discrete


def test_pt_opens_closed_under_union_and_intersection():
    sp = pt_space(product_frame(chain_frame(3), chain_frame(4)))
    opens = sp.topology.opens
    for a in opens:
        for b in opens:
            assert a | b in opens
            assert a & b in opens


def test_spatial_check_on_corpus_frames():
    for f in (chain_frame(3), boolean_frame(2), boolean_frame(4),
              product_frame(chain_frame(3), chain_frame(3))):
        assert frame_spatial_check(f) == (True, None)


def test_subframe_of_downset():
    f = boolean_frame(3)
    elements = [x for x in range(8) if f.leq[x, 3]]  # down-set of {a, b}
    sub = frame_from_leq(f.leq[np.ix_(elements, elements)])
    assert sub.n == 4
    assert validate_frame(sub).ok


# ---------------------------------------------------------------------------
# property tests over random finite distributive lattices (down-set lattices
# of random posets)

@st.composite
def small_frames(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            rel[i, j] = bits[i * n + j]
    # transitive closure of the triangular relation
    for k in range(n):
        for i in range(n):
            if rel[i, k]:
                rel[i, :] |= rel[k, :]
    downsets = []
    for mask in range(1 << n):
        if all(not has_bit(mask, i) or all(not rel[j, i] or has_bit(mask, j)
                                           for j in range(n)) for i in range(n)):
            downsets.append(mask)
    m = len(downsets)
    leq = np.zeros((m, m), dtype=bool)
    for a, x in enumerate(downsets):
        for b, y in enumerate(downsets):
            leq[a, b] = (x & ~y) == 0
    return frame_from_leq(leq)


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_downset_lattices_are_spatial_frames(f):
    assert validate_frame(f).ok
    assert frame_spatial_check(f) == (True, None)


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_filter_oracle_agrees_on_downset_lattices(f):
    fast = enumerate_cp_filters(f)
    brute = cp_filters_bruteforce(f)
    assert [(c.cogenerator, c.members) for c in fast] == \
        [(c.cogenerator, c.members) for c in brute]


@settings(max_examples=25, deadline=None)
@given(small_frames())
def test_x_set_laws_on_downset_lattices(f):
    # the X-laws: chi, a -> X_a, preserves joins and the product of F as a
    # quantale, its meet
    assert build_chi(frame_as_quantale(f)).report.ok


# ---------------------------------------------------------------------------
# lattice_from_leq against the pairwise construction: meet(i, j) is the
# element whose down-set equals down(i) & down(j), join(i, j) the element
# whose up-set equals up(i) & up(j)

def lattice_tables_oracle(leq):
    p = FinitePoset.from_leq(leq)
    rep = validate_poset(p)
    if not rep.ok:
        raise ValueError(f"not a poset: {rep.violations[0]}")
    n = p.n
    if n == 0:
        raise ValueError("lattices must be non-empty")
    down = {p.leq[:, i].tobytes(): i for i in range(n)}
    up = {p.leq[i, :].tobytes(): i for i in range(n)}
    meet = np.zeros((n, n), dtype=np.int64)
    join = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            lo = (p.leq[:, i] & p.leq[:, j]).tobytes()
            hi = (p.leq[i, :] & p.leq[j, :]).tobytes()
            if lo not in down or hi not in up:
                raise ValueError(f"not a lattice: no meet/join for ({i},{j})")
            meet[i, j] = down[lo]
            join[i, j] = up[hi]
    bottom = int(np.flatnonzero(p.leq.all(axis=1))[0])
    top = int(np.flatnonzero(p.leq.all(axis=0))[0])
    return meet, join, bottom, top


def lattice_tables_by_rank_bitsets(leq):
    """lattice_from_leq's tables as they were built before the word kernel:
    elements ranked by down-set size, every down-set and up-set an int
    bitset over ranks, and for each pair (i, j), i <= j, the meet the
    highest-ranked element of down(i) & down(j) when its own down-set is
    that whole intersection, the join dually."""
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
    down_r = row_masks(ranked.T)                # indexed by rank
    up_r = row_masks(ranked)
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
    return meet, join, bottom, top


def assert_lattice_matches_oracle(leq):
    for oracle in (lattice_tables_oracle, lattice_tables_by_rank_bitsets):
        assert_lattice_matches(oracle, leq)


def assert_lattice_matches(oracle, leq):
    try:
        expected = oracle(leq)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            lattice_from_leq(leq)
        assert str(got.value) == str(e)
        return
    lat = lattice_from_leq(leq)
    meet, join, bottom, top = expected
    assert np.array_equal(lat.meet, meet)
    assert np.array_equal(lat.join, join)
    assert (lat.bottom, lat.top) == (bottom, top)


@pytest.mark.parametrize("inst", corpus_frames(), ids=lambda i: i.name)
def test_lattice_tables_match_oracle_on_corpus_frames(inst):
    assert_lattice_matches_oracle(np.array(inst.obj.leq))


@pytest.mark.parametrize("inst", corpus_rqfs(), ids=lambda i: i.name)
def test_lattice_tables_match_oracle_on_corpus_rqf_frames(inst):
    assert_lattice_matches_oracle(np.array(inst.obj.leq))


def test_lattice_oracle_agrees_on_non_lattices():
    m3 = np.array(m3_lattice().leq)
    no_top = m3[:4, :4]                  # bottom plus three atoms
    no_bottom = m3[1:, 1:]               # three atoms plus top
    antichain = np.eye(3, dtype=bool)
    n5 = _n5()
    bowtie = np.eye(6, dtype=bool)  # 0 < 1, 2 < 3, 4 < 5, with no join of 1 and 2
    bowtie[0, :] = bowtie[:, 5] = True
    bowtie[np.ix_([1, 2], [3, 4])] = True
    for leq in (no_top, no_bottom, antichain, m3, n5, n5[1:, 1:], n5[:-1, :-1], bowtie,
                bowtie[1:, 1:]):
        assert_lattice_matches_oracle(leq)
    with pytest.raises(ValueError, match=r"not a lattice: no meet/join for \(1,2\)"):
        lattice_from_leq(no_top)


@pytest.mark.parametrize("inst", [i for i in corpus_frames() if i.obj.n <= 32],
                         ids=lambda i: i.name)
def test_lattice_tables_match_oracle_with_one_element_removed(inst):
    """Every corpus frame of up to 32 elements with one element left out:
    the order on the rest, a lattice or not."""
    leq = np.array(inst.obj.leq)
    for x in range(len(leq)):
        rest = np.delete(np.arange(len(leq)), x)
        assert_lattice_matches_oracle(leq[np.ix_(rest, rest)])


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_lattice_tables_match_oracle_on_downset_lattices(f):
    assert_lattice_matches_oracle(np.array(f.leq))


@st.composite
def random_dag_orders(draw):
    """Transitive closures of random DAGs on n <= 10 vertices, with the
    vertices relabelled so that the order is not triangular."""
    n = draw(st.integers(min_value=1, max_value=10))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    perm = draw(st.permutations(range(n)))
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            rel[i, j] = bits[i * n + j]
    for k in range(n):
        for i in range(n):
            if rel[i, k]:
                rel[i, :] |= rel[k, :]
    return rel[np.ix_(perm, perm)]


@settings(max_examples=200, deadline=None)
@given(random_dag_orders())
def test_lattice_oracle_agrees_on_random_orders(leq):
    assert_lattice_matches_oracle(leq)


def transitivity_oracle(leq) -> list[tuple[int, int, int]]:
    """The transitivity witness by the boolean matrix product: the first
    (i, k) in row-major order with i <= j <= k but not i <= k, and the
    first such j."""
    bad = (leq @ leq) & ~leq
    if not bad.any():
        return []
    i, k = np.argwhere(bad)[0]
    j = int(np.flatnonzero(leq[i, :] & leq[:, k])[0])
    return [(int(i), j, int(k))]


def assert_transitivity_matches_oracle(leq):
    rep = validate_poset(FinitePoset.from_leq(leq))
    got = [v.witness for v in rep.violations if v.law == "poset.transitivity"]
    assert got == transitivity_oracle(np.asarray(leq, dtype=bool))


@st.composite
def random_relations(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=bool).reshape(n, n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_relations(), random_dag_orders()))
def test_transitivity_matches_boolean_oracle(leq):
    assert_transitivity_matches_oracle(leq)


@pytest.mark.parametrize("density", [0.002, 0.01, 0.05])
def test_transitivity_matches_boolean_oracle_on_large_relations(density):
    rng = np.random.default_rng(7)
    leq = rng.random((300, 300)) < density
    assert_transitivity_matches_oracle(leq)


# ---------------------------------------------------------------------------
# the lattice, frame and meet-prime fast paths against oracles: the bodies
# below are the law-by-law scans over all pairs and triples, and the whole
# Report (laws, witnesses, layers_run) must agree

def validate_lattice_oracle(l: FiniteLattice) -> Report:
    rep = validate_poset(l)
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
        bad = ~(leq[m, i] & leq[m, idx])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            rep.add("lattice.meet_not_lower_bound", (i, j, int(m[j])))
            break
        common = leq[:, i][:, None] & leq
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
        common = leq[i, :][None, :].T & leq.T
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


def is_frame_oracle(l: FiniteLattice):
    n = l.n
    meet, join = l.meet, l.join
    for x in range(n):
        lhs = meet[x, join]
        rhs = join[np.ix_(meet[x, :], meet[x, :])]
        diff = lhs != rhs
        if diff.any():
            y, z = np.argwhere(diff)[0]
            return False, (x, int(y), int(z))
    return True, None


def validate_frame_oracle(f: FiniteFrame) -> Report:
    rep = validate_lattice_oracle(f)
    if not rep.ok:
        return rep
    rep.subject = "frame"
    rep.layers_run.append("frame")
    ok, wit = is_frame_oracle(f)
    if not ok:
        rep.add("frame.distributivity", wit)
    return rep


def meet_prime_elements_oracle(f: FiniteFrame) -> list[int]:
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


def meet_prime_elements_by_candidates(f: FiniteFrame) -> list[int]:
    """meet_prime_elements as it was before one word lookup: one n-by-n
    gather of the meet table per meet-irreducible candidate."""
    leq, meet = f.leq, f.meet
    out = []
    for m in _irreducibles(leq.T):
        below = leq[:, m]
        bad = below[meet] & ~below[:, None] & ~below[None, :]
        if not bad.any():
            out.append(m)
    return out


def join_irreducibles_by_definition(l: FiniteLattice) -> list[int]:
    out = []
    for x in range(l.n):
        strictly_below = [y for y in range(l.n) if l.leq[y, x] and y != x]
        if x != l.bottom and l.join_fold(strictly_below) != x:
            out.append(x)
    return out


def has_lattice_tables_packed_rows(l: FiniteLattice) -> bool:
    """The lattice layer's fast test before it read irreducibles: each
    row's meets against the packed down-sets, O(n^3 / 64)."""
    n, leq = l.n, l.leq
    if n == 0 or not (0 <= l.bottom < n and 0 <= l.top < n):
        return False
    if not (leq[l.bottom, :].all() and leq[:, l.top].all()):
        return False
    for table, sets in ((l.meet, leq.T), (l.join, leq)):
        t = np.asarray(table)
        if t.shape != (n, n) or (t < 0).any() or (t >= n).any():
            return False
        words = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
        words[:, :-(-n // 8)] = np.packbits(sets, axis=1)
        words = words.view(np.uint64)
        for i in range(n):
            if (words[t[i]] != words[i] & words).any():
                return False
    return True


def is_distributive_by_join_primes(l: FiniteLattice) -> bool:
    """The frame layer's fast test before it read G-words: one n-by-n
    comparison per j in J."""
    leq, join = l.leq, l.join
    return all(np.array_equal(leq[j, join], leq[j, :, None] | leq[j, None, :])
               for j in join_irreducibles(l))


def assert_order_layers_match_oracles(lat: FiniteLattice):
    """The frame report holds the lattice report, and is_frame's witness
    when the lattice layer passes.  The fast tests must also pass exactly
    when the scans do, so that no passing input pays for a scan, and
    exactly when their bodies before the word kernel do."""
    rep = validate_frame(lat)
    assert rep == validate_frame_oracle(lat)
    if "lattice" in rep.layers_run:
        assert _has_lattice_tables(lat) == ("frame" in rep.layers_run)
        assert _has_lattice_tables(lat) == has_lattice_tables_packed_rows(lat)
    if "frame" in rep.layers_run:
        assert _is_distributive(lat) == rep.ok == is_distributive_by_join_primes(lat)
        primes = meet_prime_elements(lat)
        assert primes == meet_prime_elements_oracle(lat) == meet_prime_elements_by_candidates(lat)
        assert cp_filter_generators(lat) == \
            [meet_fold(lat, np.flatnonzero(~lat.leq[:, m]).tolist()) for m in primes]
        assert join_irreducibles(lat) == join_irreducibles_by_definition(lat)


def _corpus_lattices():
    out = [(i.name, i.obj) for i in corpus_frames()]
    out += [(f"frame-of-{i.name}", i.obj) for i in corpus_rqfs()]
    out += [(i.name, i.obj) for i in negative_fixtures() if i.kind == "frame"]
    return [pytest.param(lat, id=name) for name, lat in out]


@pytest.mark.parametrize("lat", _corpus_lattices())
def test_order_layers_match_oracles_on_corpus(lat):
    assert_order_layers_match_oracles(lat)


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_order_layers_match_oracles_on_downset_lattices(f):
    assert_order_layers_match_oracles(f)


def _ordinal_sum(a, b):
    """a below b, the top of a identified with the bottom of b."""
    na, nb = a.shape[0], b.shape[0]
    b_bottom = int(np.flatnonzero(b.all(axis=1))[0])
    rest = [k for k in range(nb) if k != b_bottom]
    leq = np.zeros((na + nb - 1, na + nb - 1), dtype=bool)
    leq[:na, :na] = a
    leq[:na, na:] = True
    leq[na:, na:] = b[np.ix_(rest, rest)]
    return leq


def _product(a, b):
    na, nb = a.shape[0], b.shape[0]
    return (a[:, None, :, None] & b[None, :, None, :]).reshape(na * nb, na * nb)


def _n5():
    """0 < x < y < 1 and 0 < z < 1, z incomparable with x and y."""
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    leq[1, 2] = True
    return leq


@st.composite
def glued_lattices(draw):
    """A down-set lattice with M3 or N5 glued below, above or as a factor,
    randomly relabelled: a lattice that is not distributive."""
    d = np.array(draw(small_frames()).leq)
    bad = draw(st.sampled_from([np.array(m3_lattice().leq), _n5()]))
    how = draw(st.sampled_from(["below", "above", "product"]))
    if how == "below":
        leq = _ordinal_sum(bad, d)
    elif how == "above":
        leq = _ordinal_sum(d, bad)
    else:
        leq = _product(d, bad)
    perm = draw(st.permutations(range(leq.shape[0])))
    return lattice_from_leq(leq[np.ix_(perm, perm)])


@settings(max_examples=60, deadline=None)
@given(glued_lattices())
def test_order_layers_match_oracles_on_glued_lattices(lat):
    assert not is_frame(lat)[0]
    assert_order_layers_match_oracles(lat)


def _single_cell_mutations(lat: FiniteLattice, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        name = ("meet", "join")[int(rng.integers(2))]
        i, j = (int(v) for v in rng.integers(lat.n, size=2))
        tables = {"meet": np.array(lat.meet), "join": np.array(lat.join)}
        old = int(tables[name][i, j])
        tables[name][i, j] = (old + 1 + int(rng.integers(lat.n - 1))) % lat.n
        yield FiniteLattice(lat.n, lat.leq, tables["meet"], tables["join"], lat.bottom, lat.top)


@pytest.mark.parametrize("lat", [p for p in _corpus_lattices()
                                 if 1 < p.values[0].n <= 64 and validate_lattice(p.values[0]).ok])
def test_order_layers_match_oracles_on_mutated_tables(lat):
    for bad in _single_cell_mutations(lat, 25, seed=lat.n):
        assert not validate_lattice(bad).ok
        assert_order_layers_match_oracles(bad)


def one_cell_lattice_mutations(lat: FiniteLattice):
    """lat with one entry of leq flipped, or one value of meet or join
    moved to the next element."""
    for cell in np.ndindex(lat.leq.shape):
        leq = np.array(lat.leq)
        leq[cell] = not leq[cell]
        yield FiniteLattice(lat.n, leq, lat.meet, lat.join, lat.bottom, lat.top)
    for name in ("meet", "join"):
        for cell in np.ndindex(lat.meet.shape):
            tables = {"meet": lat.meet, "join": lat.join}
            tables[name] = np.array(tables[name])
            tables[name][cell] = (tables[name][cell] + 1) % lat.n
            yield FiniteLattice(lat.n, lat.leq, tables["meet"], tables["join"], lat.bottom,
                                lat.top)


@pytest.mark.parametrize("lat", [p for p in _corpus_lattices() if p.values[0].n <= 16])
def test_lattice_layer_matches_oracle_on_one_cell_mutations(lat):
    """Every one-cell mutation of the small corpus lattices, including the
    meet table that validate_lattice scans with order.meet_scan, shared
    with crm.validate_crm."""
    for bad in (lat, *one_cell_lattice_mutations(lat)):
        assert validate_lattice(bad) == validate_lattice_oracle(bad)


# ---------------------------------------------------------------------------
# the filter oracle and the lattice fast test against the element-by-element
# bodies they had before they tested whole arrays: same CPFilter list, same
# verdict, on lattices and on tables that are not

def _is_filter_mask_reference(f, mask: int, ups: list, join_of=None) -> bool:
    if mask == 0:
        return False
    members = list(iter_bits(mask))
    for x in members:
        if ups[x] & ~mask:
            return False
    for x in members:
        for y in members:
            if not has_bit(mask, int(f.meet[x, y])):
                return False
    if has_bit(mask, f.bottom):
        return False
    for x in range(f.n):
        if has_bit(mask, x):
            continue
        for y in range(x, f.n):
            if not has_bit(mask, y) and has_bit(mask, int(f.join[x, y])):
                return False
    if join_of is not None:
        for s in range(1 << f.n):
            if has_bit(mask, join_of[s]) and (s & mask) == 0:
                return False
    return True


def _join_of_all_subsets_reference(f) -> list[int]:
    out = [f.bottom] * (1 << f.n)
    for s in range(1, 1 << f.n):
        low = s & -s
        out[s] = int(f.join[out[s ^ low], low.bit_length() - 1])
    return out


def cp_filters_bruteforce_reference(f) -> list[CPFilter]:
    n = f.n
    ups = [f.upset_mask(i) for i in range(n)]
    if n <= 16:
        join_of = _join_of_all_subsets_reference(f) if n <= 12 else None
        found = [m for m in range(1, 1 << n) if _is_filter_mask_reference(f, m, ups, join_of)]
    else:
        found = [m for m in ups if _is_filter_mask_reference(f, m, ups)]
    out = [CPFilter(cogenerator_of_member_mask(f, m), m) for m in sorted(set(found))]
    return sorted(out, key=lambda c: c.cogenerator)


def has_lattice_tables_reference(l: FiniteLattice) -> bool:
    try:
        meet, join, bottom, top = _lattice_tables(l)
    except ValueError:
        return False
    return (np.array_equal(l.meet, meet) and np.array_equal(l.join, join)
            and l.bottom == bottom and l.top == top)


def cp_filters_by_cogenerator(f: FiniteFrame) -> list[CPFilter]:
    """enumerate_cp_filters as it was: the members of one filter at a time."""
    return [CPFilter(m, mask_of(np.flatnonzero(~f.leq[:, m]))) for m in meet_prime_elements(f)]


def assert_fast_paths_match_references(lat: FiniteLattice, oracle: bool = True):
    assert enumerate_cp_filters(lat) == cp_filters_by_cogenerator(lat)
    if oracle and lat.n <= BRUTEFORCE_MAX_ELEMENTS:
        assert cp_filters_bruteforce(lat) == cp_filters_bruteforce_reference(lat)
    assert _has_lattice_tables(lat) == has_lattice_tables_reference(lat)
    assert _has_lattice_tables(lat) == has_lattice_tables_packed_rows(lat)


@pytest.mark.parametrize("lat", _corpus_lattices())
def test_fast_paths_match_references_on_corpus(lat):
    assert_fast_paths_match_references(lat)


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_fast_paths_match_references_on_downset_lattices(f):
    assert_fast_paths_match_references(f)


@settings(max_examples=40, deadline=None)
@given(glued_lattices())
def test_fast_paths_match_references_on_glued_lattices(lat):
    assert_fast_paths_match_references(lat)


@pytest.mark.parametrize("lat", [p for p in _corpus_lattices()
                                 if 1 < p.values[0].n <= 64 and validate_lattice(p.values[0]).ok])
def test_fast_paths_match_references_on_mutated_tables(lat):
    # the reference oracle takes ~0.1 s on 16 and 64 elements: three
    # mutations each get it there, all 25 on the smaller lattices
    for k, bad in enumerate(_single_cell_mutations(lat, 25, seed=lat.n)):
        assert_fast_paths_match_references(bad, oracle=k < 3 or lat.n <= 12)


@pytest.mark.parametrize("lat", [p for p in _corpus_lattices()
                                 if 1 < p.values[0].n <= 64 and validate_lattice(p.values[0]).ok])
def test_fast_paths_match_references_on_moved_bottom_and_top(lat):
    n = lat.n
    for bottom, top in ((lat.top, lat.top), (lat.bottom, lat.bottom),
                        ((lat.bottom + 1) % n, (lat.top + 1) % n)):
        bad = FiniteLattice(n, lat.leq, lat.meet, lat.join, bottom, top)
        assert_fast_paths_match_references(bad, oracle=n <= 16)
        assert_order_layers_match_oracles(bad)


# ---------------------------------------------------------------------------
# lattices whose J or M needs more than one 64-bit word: the fast tests
# against the scans and the bodies before the word kernel, on the lattices
# and on single-cell mutations of their tables

def _wide_lattices():
    """chain(65) (|J| = 64, one full word), chain(130) (|J| = 129, three
    words), chain(66) x chain(2) (|J| = 66), and a lattice that is not
    distributive: M3 below chain(66)."""
    return [pytest.param(lat, id=name) for name, lat in (
        ("chain65", chain_frame(65)), ("chain130", chain_frame(130)),
        ("chain66xchain2", product_frame(chain_frame(66), chain_frame(2))),
        ("m3-below-chain66", lattice_from_leq(_ordinal_sum(np.array(m3_lattice().leq),
                                                           np.array(chain_frame(66).leq)))))]


@pytest.mark.parametrize("lat", _wide_lattices())
def test_order_layers_match_oracles_on_wide_lattices(lat):
    words = -(-len(join_irreducibles(lat)) // 64)
    assert join_words(lat).shape == (lat.n, words) and words >= 1
    assert_order_layers_match_oracles(lat)
    assert_fast_paths_match_references(lat, oracle=False)
    for bad in _single_cell_mutations(lat, 6, seed=lat.n):
        assert_order_layers_match_oracles(bad)
        assert_fast_paths_match_references(bad, oracle=False)


def test_lattice_test_rejects_tables_on_an_order_that_is_no_lattice():
    """0 < a, b < c, d < 1, the bowtie, is no lattice, yet tables can give
    every meet the G-set G(x) & G(y) (J = {a, b}) and every join the M-set
    M(x) & M(y) (M = {c, d}): meet[c, d] = c and join[a, b] = 0.  Only the
    embeddings tell that c is not below d, nor a below 0."""
    leq = np.eye(6, dtype=bool)
    leq[0, :] = leq[:, 5] = True
    leq[1:3, 3:5] = True                  # a, b below c, d
    order_ = FinitePoset.from_leq(leq)
    g = [frozenset(j for j in (1, 2) if leq[j, x]) for x in range(6)]
    m = [frozenset(k for k in (3, 4) if leq[x, k]) for x in range(6)]
    meet = [[next((z for z in range(6) if g[z] == g[x] & g[y]), x) for y in range(6)]
            for x in range(6)]
    join = [[next((z for z in range(6) if m[z] == m[x] & m[y]), x) for y in range(6)]
            for x in range(6)]
    assert (meet[3][4], join[1][2]) == (3, 0)
    lat = FiniteLattice(6, order_.leq, np.array(meet), np.array(join), 0, 5)
    assert not _has_lattice_tables(lat)
    assert not validate_lattice(lat).ok
    assert_order_layers_match_oracles(lat)


def assert_join_splits_are_splits(f: FiniteFrame):
    """Each x but the bottom is rest \\/ j, j a maximal join-irreducible
    below x and G(rest) = G(x) - {j}."""
    xs, rest, last = join_splits(f)
    js = join_irreducibles(f)
    assert sorted(xs.tolist()) == [x for x in range(f.n) if x != f.bottom]
    for x, r, j in zip(xs.tolist(), rest.tolist(), last.tolist()):
        below = {k for k in js if f.leq[k, x]}
        assert j in below and not any(f.leq[j, k] and k != j for k in below)
        assert {k for k in js if f.leq[k, r]} == below - {j}
        assert int(f.join[r, j]) == x


@pytest.mark.parametrize("lat", [p for p in _corpus_lattices() if validate_frame(p.values[0]).ok]
                         + _wide_lattices()[:3])
def test_join_splits_on_frames(lat):
    assert_join_splits_are_splits(lat)


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_join_splits_on_downset_lattices(f):
    assert_join_splits_are_splits(f)


def test_join_splits_refuse_a_lattice_that_is_no_frame():
    with pytest.raises(InternalError, match="not a frame"):
        join_splits(m3_lattice())


def test_bruteforce_oracle_refuses_frames_above_its_limit():
    with pytest.raises(ValueError, match="at most 64 elements"):
        cp_filters_bruteforce(chain_frame(65))


# ---------------------------------------------------------------------------
# a filter oracle on the principal up-sets held as boolean rows: it needs no
# uint64 masks, so it reaches the 512-element frame of Omega(pair3), which
# cp_filters_bruteforce refuses

def principal_upset_filters(f, literal_primality: bool = False) -> list[CPFilter]:
    """The completely prime filters of f, each principal up-set tested
    against the conditions literally.  A filter is closed upwards and under
    binary meets, so it holds the meet of its finitely many members and is
    principal: no candidate is missed.

    Each up-set U is a boolean row; it must be closed upwards, closed under
    binary meets (row by row) and prime.  Primality is tested in one of two
    equivalent forms.  By default: the join of everything outside U lies
    outside U, since for U closed upwards some set outside U joins into U
    iff the join of all of them does.  With literal_primality: the bottom,
    the empty join, lies outside U, and so does the join of any two elements
    outside U (complete primality reduces to binary by finite induction)."""
    n = f.n
    rows = np.asarray(f.leq, dtype=bool)  # row x: the up-set of x
    outside_join = np.full(n, f.bottom, dtype=np.int64)  # the join of each complement
    for x in range(n):
        outside_join = np.where(rows[:, x], outside_join, f.join[outside_join, x])
    out = []
    for x, up in enumerate(rows):
        inside, outside = np.flatnonzero(up), np.flatnonzero(~up)
        if (rows[inside] & ~up).any() or not up[f.meet[np.ix_(inside, inside)]].all():
            continue
        if literal_primality:
            prime = not up[f.bottom] and not up[f.join[np.ix_(outside, outside)]].any()
        else:
            prime = not up[outside_join[x]]
        if prime:
            out.append(CPFilter(int(outside_join[x]), int(sum(1 << int(y) for y in inside))))
    return sorted(out, key=lambda c: c.cogenerator)


def _filter_pairs(filters):
    return [(c.cogenerator, c.members) for c in filters]


def assert_principal_upset_forms_agree(f):
    by_join = _filter_pairs(principal_upset_filters(f))
    assert by_join == _filter_pairs(principal_upset_filters(f, literal_primality=True))
    assert by_join == _filter_pairs(cp_filters_bruteforce(f))


@pytest.mark.parametrize("lat", [p for p in _corpus_lattices()
                                 if p.values[0].n <= 64 and validate_frame(p.values[0]).ok])
def test_principal_upset_oracle_forms_agree_on_frames_up_to_64(lat):
    assert_principal_upset_forms_agree(lat)


@settings(max_examples=40, deadline=None)
@given(small_frames())
def test_principal_upset_oracle_forms_agree_on_downset_lattices(f):
    assert_principal_upset_forms_agree(f)


def test_principal_upset_oracle_on_the_frame_of_omega_pair3(omega_pair3):
    q = omega_pair3.rqf
    assert q.n == 512 > BRUTEFORCE_MAX_ELEMENTS
    filters = _filter_pairs(principal_upset_filters(q))
    assert len(filters) == 9  # one per arrow of the pair groupoid
    assert filters == _filter_pairs(enumerate_cp_filters(q))
