"""Bitmask helpers for subsets of index ranges.

A subset held as a Python int has bit i set when index i belongs to it.
The constructions compute on bool member rows instead, row k being set k:
filters and their X-sets, closed ideals and the down-sets of J(S), the
opens of an Omega result and the open local bisections.  Masks are kept
where sets are listed one at a time, as the opens of a Topology, and as the
names of opens and bisections.

bit_matrix and row_masks turn a list of masks into a boolean matrix and
back at those boundaries: the transpose of the membership matrix of
sets U_0, ..., U_m over 0..n-1 gives, for each i < n, the set
{k : i in U_k}.  Masks pass through bytes, not int64, so both are exact at
any width.

The word kernel holds a family of subsets of 0..width-1 as an (n, W)
uint64 array, W = max(1, ceil(width / 64)), so that every width takes the
same path.  pack_words packs bool rows and take_words gathers them;
intersection, union and inclusion of whole families are &, | and
`a & ~b == 0` on words.  word_lookup maps word rows back to the index of
the first equal row of a table, exactly: by binary search on W*8-byte keys,
or, where every key is one word below DIRECT_KEYS, by one gather;
row_lookup does the same for bool rows, and a MemberRows object holds the
row_lookup of its member rows.
bool_product is the boolean matrix product (the image of a family of sets
under a relation), and row_blocks cuts a row range into blocks, so that a
temporary of many cells per row stays within BLOCK_CELLS cells.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

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


def full_mask(n: int) -> int:
    return (1 << n) - 1


def has_bit(mask: int, i: int) -> bool:
    return bool((mask >> i) & 1)


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


def pack_words(bits: np.ndarray) -> np.ndarray:
    """The bool (..., width) array as (..., W) little-endian uint64 words:
    bit b of word w holds bits[..., 64 w + b]; the bits past width are 0."""
    *lead, width = bits.shape
    out = np.zeros((*lead, max(1, -(-width // 64)) * 8), dtype=np.uint8)
    out[..., :-(-width // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def take_words(words: np.ndarray, index: np.ndarray) -> np.ndarray:
    """words[index] for (n, W) words and an integer index array: the
    (*index.shape, W) words, gathered as one W*8-byte item per row, which
    NumPy does several times faster than a gather of rows."""
    rows = np.ascontiguousarray(words).view(np.dtype((np.void, words.shape[1] * 8)))[:, 0]
    taken = np.ascontiguousarray(rows[index])  # a transposed index gives a transposed result
    return taken.view(words.dtype).reshape(*np.shape(index), words.shape[1])


DIRECT_KEYS = 1 << 12  # one-word tables with all keys below this are looked up by index


def word_lookup(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The exact lookup of word rows in the (n, W) table: the function it
    returns maps an (..., W) array of word rows to the (...) array of the
    index in table of the first equal row, -1 for a row that is not one of
    table's.  Rows are compared whole, as one word when W = 1 and as W*8-byte
    keys otherwise, by binary search among the sorted keys, or by one gather
    from an array indexed by the key when W = 1 and every key is below
    DIRECT_KEYS."""
    key = table.dtype if table.shape[1] == 1 else np.dtype((np.void, table.shape[1] * 8))
    keys = np.ascontiguousarray(table).view(key).ravel()
    if key.kind == "u" and keys.max(initial=0) < DIRECT_KEYS:
        index = np.arange(len(keys))
        direct = np.full(DIRECT_KEYS + 1, -1, dtype=np.int64)  # the last cell: every larger key
        direct[keys] = index
        if (direct[keys] != index).any():  # a repeated key: keep its first row
            distinct, first = np.unique(keys, return_index=True)
            direct[distinct] = first
        return lambda rows: direct[np.minimum(  # at most DIRECT_KEYS, so a valid int64
            np.asarray(rows, dtype=table.dtype)[..., 0], DIRECT_KEYS).view(np.int64)]
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]

    def find(rows: np.ndarray) -> np.ndarray:
        wanted = np.ascontiguousarray(rows, dtype=table.dtype).view(key)[..., 0]
        if not len(ranked):
            return np.full(wanted.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(ranked, wanted), len(ranked) - 1)
        return np.where(ranked[at] == wanted, order[at], -1)

    return find


def row_lookup(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The `word_lookup` of the bool (n, width) rows, taking bool rows: the
    function it returns maps an (..., width) bool array to the (...) array
    of the index in rows of the first equal row, -1 for none.  It holds the
    packed words of rows, not rows."""
    find = word_lookup(pack_words(rows))
    return lambda sets: find(pack_words(sets))


class MemberRows:
    """The base of a family of sets held as the bool rows of its field
    `members`: OmegaResult, FilterCategory and crm.BisectionMonoid."""

    @cached_property
    def find(self) -> Callable[[np.ndarray], np.ndarray]:
        """The index of each bool row among the member rows, -1 for a row
        that is none (`row_lookup`), built on first use and held by the
        object."""
        return row_lookup(self.members)


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product, (a @ b)[i, k] = any(a[i, j] & b[j, k]),
    broadcast as np.matmul; float32 sums of 0/1 entries are exact for inner
    sizes below 2**24, and unlike a boolean matmul they go through BLAS."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


BLOCK_CELLS = 1 << 16  # cells of the largest temporary a row_blocks loop builds


def row_blocks(rows: int, cells_per_row: int) -> Iterator[slice]:
    """Consecutive slices covering range(rows), each of at most
    BLOCK_CELLS // cells_per_row rows, and at least one.  A temporary of
    cells_per_row cells a row then holds at most BLOCK_CELLS cells, 512 KB
    of words (no more than an (n, n) int64 table once n >= 256, and small
    enough to stay in cache), or one row where a row is larger."""
    step = max(1, BLOCK_CELLS // max(1, cells_per_row))
    for start in range(0, rows, step):
        yield slice(start, start + step)
