import numpy as np
from hypothesis import given, settings, strategies as st

from framecat.bits import bit_matrix, has_bit, row_masks


@st.composite
def mask_lists(draw):
    width = draw(st.sampled_from([0, 1, 63, 64, 65, 512]))
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
