import numpy as np
from hypothesis import given, settings, strategies as st

from framecat.bits import (BLOCK_CELLS, DIRECT_KEYS, bit_matrix, bool_product, has_bit,
                           pack_words, row_blocks, row_masks, take_words, word_lookup)


@st.composite
def mask_lists(draw):
    width = draw(st.sampled_from([0, 1, 12, 13, 63, 64, 65, 512]))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
    return width, masks


@settings(max_examples=200, deadline=None)
@given(mask_lists())
def test_bit_matrix_and_row_masks_round_trip(case):
    width, masks = case
    matrix = bit_matrix(masks, width)
    assert matrix.dtype == bool and matrix.shape == (len(masks), width)
    assert matrix.tolist() == [[has_bit(m, j) for j in range(width)] for m in masks]
    assert row_masks(matrix) == masks
    # the transpose holds, for each bit, the masks that have it
    assert row_masks(matrix.T) == [sum(1 << k for k, m in enumerate(masks) if has_bit(m, j))
                                   for j in range(width)]


def test_row_masks_of_a_selection_of_rows():
    matrix = bit_matrix([0b101, 0b011, (1 << 511) | 1], 512)
    assert row_masks(matrix[[2, 0, 2]]) == [(1 << 511) | 1, 0b101, (1 << 511) | 1]
    assert row_masks(matrix[:, [0, 511]]) == [0b01, 0b01, 0b11]
    assert row_masks(np.zeros((2, 0), dtype=bool)) == [0, 0]


# ---------------------------------------------------------------------------
# the word kernel: packed rows, their lookup, boolean products, row blocks

def words_of(masks, width):
    return pack_words(bit_matrix(masks, width))


@settings(max_examples=200, deadline=None)
@given(mask_lists())
def test_words_hold_the_bits_of_the_masks(case):
    width, masks = case
    words = pack_words(bit_matrix(masks, width))
    assert words.shape == (len(masks), max(1, -(-width // 64)))
    assert words.dtype == np.dtype("<u8")
    assert [sum(int(w) << (64 * k) for k, w in enumerate(row)) for row in words] == masks


@settings(max_examples=200, deadline=None)
@given(mask_lists(), st.lists(st.integers(0, (1 << 130) - 1), max_size=6))
def test_word_lookup_finds_exactly_the_rows_of_its_table(case, others):
    width, masks = case
    # empty when masks is: every query is then missing; a repeated row is
    # found at its first place
    table = masks + sorted(masks)
    queries = masks + [m & ((1 << width) - 1) for m in others]
    found = word_lookup(words_of(table, width))(words_of(queries, width))
    assert found.tolist() == [table.index(m) if m in table else -1 for m in queries]


def test_word_lookup_misses_keys_past_a_direct_table():
    """A one-word table whose keys are all below DIRECT_KEYS, queried at
    and past that bound, at the top bit of the word, and at its own keys."""
    table = np.array([[5], [DIRECT_KEYS - 1], [0], [5]], dtype="<u8")
    queries = np.array([[DIRECT_KEYS], [DIRECT_KEYS + 5], [1 << 63], [(1 << 64) - 1],
                        [5], [0], [DIRECT_KEYS - 1], [6]], dtype="<u8")
    assert word_lookup(table)(queries).tolist() == [-1, -1, -1, -1, 0, 2, 1, -1]


def test_word_lookup_in_an_empty_table_misses_every_row():
    for words in (1, 2):
        find = word_lookup(np.zeros((0, words), dtype="<u8"))
        queries = np.array([[0] * words, [1] * words, [DIRECT_KEYS] * words], dtype="<u8")
        assert find(queries).tolist() == [-1, -1, -1]
        assert find(queries[:0]).shape == (0,)


def test_word_lookup_keeps_the_shape_of_its_queries():
    table = words_of([0, 1 << 100, 3], 101)
    find = word_lookup(table)
    queries = np.stack([table[[2, 0]], table[[1, 1]] | table[[0, 2]]])  # (2, 2, W)
    assert find(queries).tolist() == [[2, 0], [1, -1]]
    assert find(table[:0]).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_bool_product_is_the_relational_composite(n, m, k, data):
    a = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                    min_size=n, max_size=n)), dtype=bool).reshape(n, m)
    b = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                    min_size=m, max_size=m)), dtype=bool).reshape(m, k)
    expected = [[any(a[i, j] and b[j, l] for j in range(m)) for l in range(k)]
                for i in range(n)]
    assert bool_product(a, b).tolist() == expected


def test_row_blocks_cover_the_rows_in_order():
    for rows, per_row in ((0, 5), (7, 1), (100, 1 << 10), (5000, 5000), (300, 1 << 20)):
        blocks = list(row_blocks(rows, per_row))
        assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
        size = max(1, BLOCK_CELLS // per_row)
        assert all(len(range(rows)[b]) <= size for b in blocks)
        assert len(blocks) == -(-rows // size)


@settings(max_examples=100, deadline=None)
@given(mask_lists(), st.data())
def test_take_words_is_a_gather_of_rows(case, data):
    width, masks = case
    words = words_of(masks or [0], width)
    index = np.array(data.draw(st.lists(st.integers(0, len(words) - 1), max_size=12)),
                     dtype=np.int64)
    for shape in ((len(index),), (1, len(index), 1)):
        assert np.array_equal(take_words(words, index.reshape(shape)), words[index.reshape(shape)])
    assert np.array_equal(take_words(words, index.reshape(-1, 1).T), words[index.reshape(-1, 1).T])
