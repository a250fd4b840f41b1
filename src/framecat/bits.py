"""Bitmask helpers for subsets of index ranges.

Subsets of elements/arrows/filters are stored as Python ints; bit i set
means index i belongs to the subset.

bit_matrix and row_masks turn a list of masks into a boolean matrix and
back, so that a family of subsets can be selected, transposed or gathered
as one array: the transpose of the membership matrix of sets U_0, ..., U_m
over 0..n-1 gives, for each i < n, the set {k : i in U_k}.  Masks pass
through bytes, not int64, so both are exact at any width.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)  # int() guards against numpy scalars, which overflow
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_count(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def has_bit(mask: int, i: int) -> bool:
    return bool((mask >> i) & 1)


def is_submask(a: int, b: int) -> bool:
    return a & ~b == 0


def bit_matrix(masks: Sequence[int], width: int) -> np.ndarray:
    """The bool (len(masks), width) matrix whose row k holds the bits
    0..width-1 of masks[k]; every mask must be a non-negative int below
    2**width."""
    nbytes = (width + 7) // 8
    data = b"".join(int(m).to_bytes(nbytes, "little") for m in masks)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little").view(bool)


def row_masks(matrix: np.ndarray) -> list[int]:
    """The mask of each row of a bool matrix, bit j of the k-th mask being
    matrix[k, j]: the inverse of bit_matrix."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
