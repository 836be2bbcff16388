"""Graded index arithmetic on the length-lexicographic word basis.

The words of length k fill the contiguous index block ``start[k]:start[k+1]``
(``FockSpace._block_starts``) of size n^k, and a word's rank in its block is
its base-n numeral (digit ``letter - 1``, first letter most significant).
Hence index(w u) = start[|w| + |u|] + rank(w) n^|u| + rank(u): for |w| = k and
|u| = m the pairs (w, u) are block k + m reshaped to (n^k, n^m), row rank(w)
and column rank(u), so every "pair against w u" loop is a reshape plus a slice
with no ``Word`` objects.  :func:`concat` is that rule: every shift, the
realize pattern, the membership defect, each corepresentation assembly and
coassociativity iterate takes its indices from it, and :func:`within` reads
the safe zones of tensor powers off the same block starts.
"""

from __future__ import annotations

import numpy as np

from .spaces import FockSpace


def splits(depth: int) -> list[tuple[int, int]]:
    """Every length pair (k, m) with k + m <= depth, in lexicographic order."""
    return [(k, m) for k in range(depth + 1) for m in range(depth + 1 - k)]


def block(space: FockSpace, arr, k: int):
    """The entries of a basis-indexed sequence on the words of length k (a view)."""
    starts = space._block_starts
    return arr[starts[k] : starts[k + 1]]


def split_block(space: FockSpace, arr: np.ndarray, k: int, m: int) -> np.ndarray:
    """Block k + m of ``arr`` as an (n^k, n^m) view: [rank(w), rank(u)] is arr[index(w u)]."""
    return block(space, arr, k + m).reshape(space.n**k, space.n**m)


def length_rank(space: FockSpace, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Word length and block rank of each basis index, as int64 arrays."""
    k = space.lengths[idx].astype(np.int64)
    return k, idx - np.asarray(space._block_starts)[k]


def concat(space: FockSpace, k, ru, m, rv):
    """Basis index of w u for |w| = k, |u| = m at block ranks ru, rv.

    Lengths and ranks numpy-broadcast together (array lengths as from
    :func:`length_rank`); k + m must not exceed the depth.
    """
    return np.asarray(space._block_starts)[k + m] + ru * space.n**m + rv


def within(space: FockSpace, bound: int, fold: int = 1) -> np.ndarray:
    """Ascending basis indices of the fold-tuples of words of total length <= bound.

    On one factor these are the leading start[bound + 1] indices; on a tensor
    power (row-major, first factor slowest) block k of the first factor pairs
    with ``within(space, bound - k, fold - 1)`` of the remaining factors, so no
    dim^fold array of lengths is formed.
    """
    starts = space._block_starts
    if fold == 1:
        return np.arange(starts[min(max(bound + 1, 0), space.depth + 1)], dtype=np.int64)
    stride = space.dim ** (fold - 1)
    parts = [
        (np.arange(starts[k], starts[k + 1], dtype=np.int64)[:, None] * stride
         + within(space, bound - k, fold - 1)).ravel()
        for k in range(min(bound, space.depth) + 1)
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
