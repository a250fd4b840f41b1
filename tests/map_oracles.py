"""Shared by the oracle tests of the maps built on bit matrices (the
transposes of both adjunctions, omega_morphism and c_morphism): each is
compared with the element-by-element body it had before, on hom-set members
and their one-value perturbations."""

import numpy as np

from framecat.corpus import etale_categories


def map_outcome(construction, m, *args):
    """What construction(m, *args) gives: the image as a list, None, or the
    type of the exception raised, with the text of a ValueError."""
    try:
        image = construction(m, *args)
    except ValueError as e:
        return ("ValueError", str(e))
    except IndexError:
        return ("IndexError",)
    return None if image is None else image.tolist()


def one_value_perturbations(m, size: int):
    """m with the value at one position moved to the next value mod size,
    for each position."""
    for i in range(len(m)):
        bad = np.array(m, dtype=np.int64)
        bad[i] = (bad[i] + 1) % size
        yield bad


def assert_transposes_match_oracles(forward, forward_oracle, backward, backward_oracle,
                                    functors, morphisms, functor_size, morphism_size):
    """The four transposes take the map alone; functor_size and
    morphism_size are the sizes of the codomains the maps take values in."""
    for alpha in functors:
        for m in (alpha, *one_value_perturbations(alpha, functor_size)):
            assert map_outcome(forward, m) == map_outcome(forward_oracle, m), m.tolist()
    for beta in morphisms:
        for m in (beta, *one_value_perturbations(beta, morphism_size)):
            assert map_outcome(backward, m) == map_outcome(backward_oracle, m), m.tolist()


def small_corpus_categories():
    return [(i.name, i.obj) for i in etale_categories() if i.obj.n <= 6]
