"""Hypothesis strategy for small discrete etale categories, drawn by the
tests of the constructions that run on any category."""

from hypothesis import assume, strategies as st

from framecat.corpus import free_category_on_acyclic_graph, monoid_category


@st.composite
def small_categories(draw):
    """Discrete categories with at most 8 arrows (256 opens): the monoid
    generated by one or two random self-maps of a 3-set, or the free
    category on a random acyclic graph with at most 3 objects."""
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=2))
        elements = [(0, 1, 2)]
        for f in elements:  # grows while it is walked: the closure under gens
            for g in gens:
                fg = tuple(f[x] for x in g)
                if fg not in elements:
                    elements.append(fg)
            assume(len(elements) <= 8)
        return monoid_category([[elements.index(tuple(f[x] for x in g)) for g in elements]
                                for f in elements])
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    tc = free_category_on_acyclic_graph(n, edges)
    assume(tc.n <= 8)
    return tc
