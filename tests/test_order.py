import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framecat.bits import has_bit, iter_bits
from framecat.corpus import (boolean_frame, chain_frame, corpus_frames, corpus_rqfs,
                             m3_lattice, product_frame)
from framecat.order import (FinitePoset, cp_filters_bruteforce,
                            enumerate_cp_filters, frame_from_leq,
                            frame_spatial_check, is_frame, lattice_from_leq,
                            meet_prime_elements, pt_topology, subframe,
                            validate_frame, validate_lattice, validate_poset)


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
    assert is_frame(f.lattice) == (True, None)


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
    assert pt_topology(f).n_points == 0


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
        atoms = [a for a in (1, 2, 4, 8) if c.contains(a)]
        assert len(atoms) == 1
        atom = atoms[0]
        for x in range(16):
            assert c.contains(x) == bool(x & atom)


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
            assert c.contains(x) == (not f.leq[x, m])


def test_pt_of_chain_is_sierpinski():
    sp = pt_topology(chain_frame(3))
    assert sp.n_points == 2
    assert sp.opens == frozenset({0, 1, 3})


def test_pt_of_boolean2_is_discrete():
    sp = pt_topology(boolean_frame(2))
    assert sp.n_points == 2
    assert len(sp.opens) == 4


def test_pt_opens_closed_under_union_and_intersection():
    sp = pt_topology(product_frame(chain_frame(3), chain_frame(4)))
    for a in sp.opens:
        for b in sp.opens:
            assert a | b in sp.opens
            assert a & b in sp.opens


def test_spatial_check_on_corpus_frames():
    for f in (chain_frame(3), boolean_frame(2), boolean_frame(4),
              product_frame(chain_frame(3), chain_frame(3))):
        assert frame_spatial_check(f) == (True, None)


def test_subframe_of_downset():
    f = boolean_frame(3)
    elements = [x for x in range(8) if f.leq[x, 3]]  # down-set of {a, b}
    sub, pos = subframe(f, elements)
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
    pt_topology(f)  # raises if any X-law fails


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


def assert_lattice_matches_oracle(leq):
    try:
        expected = lattice_tables_oracle(leq)
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
    for leq in (no_top, no_bottom, antichain, m3):
        assert_lattice_matches_oracle(leq)
    with pytest.raises(ValueError, match=r"not a lattice: no meet/join for \(1,2\)"):
        lattice_from_leq(no_top)


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
