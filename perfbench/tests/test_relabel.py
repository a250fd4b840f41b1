import random

import pytest

from framecat import corpus as cor
from framecat.duality import find_category_isomorphism
from framecat.topcat import is_etale, validate_topcategory
from workloads import relabel, seeded_permutation


@pytest.mark.parametrize("seed", range(6))
def test_seeded_relabellings_are_isomorphic_etale_copies(seed):
    rng = random.Random(seed)
    for inst in cor.etale_categories():
        tc = inst.obj
        perm = seeded_permutation(rng, tc.n)
        copy = relabel(tc, perm)
        assert validate_topcategory(copy).ok, inst.name
        assert is_etale(copy)[0], inst.name
        assert find_category_isomorphism(tc.cat, copy.cat) is not None, inst.name


def test_relabel_moves_arrows_as_told():
    p = cor.pair_groupoid(2)  # arrows (x, y) = 2x + y; identities 0 and 3
    copy = relabel(p, [3, 2, 1, 0])
    assert sorted(copy.cat.identities()) == [0, 3]
    # (0,1)(1,0) = (0,0): arrows 1, 2 -> 0 become 2, 1 -> 3
    assert copy.cat.comp[2, 1] == 3


def test_relabel_moves_open_sets():
    tc = cor.parity_pair_groupoid()
    copy = relabel(tc, [1, 0, 3, 2])
    assert copy.topology.opens == frozenset({0, 0b0110, 0b1001, 0b1111})
    copy = relabel(tc, [0, 2, 1, 3])
    assert copy.topology.opens == tc.topology.opens
