"""Wandering subspace of the tensor-power shifts.

For the k-fold tensor power of the left shifts, the wandering span is the set
of basis tuples with no common prefix; every tuple then factors uniquely as a
common-prefix shift applied to a wandering tuple.  The dimension obeys the
closed form T^k - n S^k, where T counts words of length <= N and S counts
words of length <= N-1 (drop the forced first letter of a common prefix).
Tuples are tuples of basis indices: the prefix of length p of the word of
length k at block rank r has rank r // n^(k - p), so no ``Word`` is formed.
One Gram checks the shifted copies: with S the wandering columns of
(L_w)^(x k) side by side over words w, S^H S = diag(fit) holds orthogonality
(cross blocks), isometry (fitting columns) and truncation (the rest) at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import graded
from .regular import map_entries, word_shift
from .spaces import AuxSpace, FockSpace, Operator, _worst_defect, max_entry_diff, tensor_space
from .words import Alphabet, count_words

# wandering_check forms the shifted-column Gram over every word up to this many basis tuples.
GRAM_LIMIT = 4096
# _cover_counts scatters at most this many tuples at a time (or one last-axis line, if longer).
COVER_SLICE = 2**16


def strip_common_prefix(space: FockSpace, tup) -> tuple:
    """Factor a tuple of basis indices as (w, wandering tuple), w the maximal common prefix.

    Returns the basis index of w and the indices of the tuple's words with w cut off;
    for a (tuples, k) stack, one index w a tuple and a (tuples, k) stack.  The length of
    w counts the q = 1, 2, .. at which every word has q letters and all share their
    first q: a prefix shared at q is shared below it.
    """
    k, r = graded.length_rank(space, np.asarray(tup, dtype=np.int64))
    p = np.zeros(k.shape[:-1], dtype=np.int64)
    for q in range(1, space.depth + 1):
        head = r // space.n ** np.maximum(k - q, 0)
        shared = (k.min(axis=-1) >= q) & (head == head[..., :1]).all(axis=-1)
        if not shared.any():
            break
        p += shared
    cut = space.n ** (k - p[..., None])
    starts = np.asarray(space._block_starts)
    prefix = starts[p] + r[..., 0] // cut[..., 0]
    return int(prefix) if prefix.ndim == 0 else prefix, starts[k - p[..., None]] + r % cut


def first_letters(space: FockSpace, idx: np.ndarray) -> np.ndarray:
    """The first letter of each basis word, 1..n, and 0 for the empty word."""
    k, r = graded.length_rank(space, idx)
    return np.where(k > 0, r // space.n ** np.maximum(k - 1, 0) + 1, 0)


def share_a_first_letter(firsts) -> np.ndarray:
    """Whether tuples, given by their components' first letters, have a common prefix.

    The components broadcast together; a tuple is wandering exactly where this is False.
    """
    blocked = firsts[0] > 0
    for f in firsts[1:]:
        blocked = blocked & (f == firsts[0])
    return blocked


def wandering_dim(alphabet: Alphabet, k: int, depth: int) -> int:
    """Wandering dimension by enumeration over every basis tuple (vectorized)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return int(np.count_nonzero(_wandering_mask(alphabet, k, depth)))


def wandering_dim_closed_form(alphabet: Alphabet, k: int, depth: int) -> int:
    t = count_words(alphabet, depth)
    s = count_words(alphabet, depth - 1)
    return t**k - alphabet.n * s**k


@dataclass
class WanderingReport:
    """Exact evidence for purity of the tensor-power shifts at one grid point."""

    n: int
    k: int
    depth: int
    dim: int
    dim_closed_form: int
    dims_by_depth: list[int]
    orthogonality_defect: float  # cover not injective, or S^H S - diag(fit) if gram_checked
    cover_injective: bool
    cover_complete: bool
    counting_identity: bool
    growth_strict: bool
    gram_checked: bool = field(default=False)

    @property
    def passed(self) -> bool:
        return (
            self.dim == self.dim_closed_form
            and self.orthogonality_defect == 0.0
            and self.cover_injective
            and self.cover_complete
            and self.counting_identity
            and (self.growth_strict or self.k == 1)
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _wandering_mask(alphabet: Alphabet, k: int, depth: int) -> np.ndarray:
    """Wandering flags of the k-tuples of words of length <= depth, one axis per factor."""
    space = FockSpace(alphabet, depth)  # raises when depth < 0
    first = first_letters(space, np.arange(space.dim))
    return ~share_a_first_letter(np.ix_(*([first] * k)))


def shifted_gram_defect(space: FockSpace, k: int, mask: np.ndarray, words) -> float:
    """Largest entry of S^H S - diag(fit); contract: 0.

    S stacks the columns of (L_w)^(x k) at the wandering tuples of ``mask``,
    one block per basis index w in ``words``; fit = 1 exactly when
    |w| + max_i |kappa_i| <= depth, read from word lengths, not the operators.
    """
    cols = np.flatnonzero(mask.ravel())
    rows, stacked_cols, vals = [], [], []
    for block, w in enumerate(words):
        col, row, val = map_entries((tuple([word_shift(space, space.word_at(int(w)), "left")] * k),), cols)
        rows.append(row)
        stacked_cols.append(block * cols.size + col)
        vals.append(val)
    blocks = AuxSpace(len(words) * cols.size, "shifted wandering columns")
    power = tensor_space(*([space] * k))
    stacked = Operator.from_entries(blocks, power, *map(np.concatenate, (rows, stacked_cols, vals)))
    longest = space.lengths[np.stack(np.unravel_index(cols, mask.shape))].max(axis=0, initial=0)
    fit = (space.lengths[np.asarray(words)][:, None] + longest <= space.depth).ravel()
    diagonal = np.arange(blocks.dim)
    return max_entry_diff(stacked.adjoint() @ stacked, Operator.from_entries(blocks, blocks, diagonal, diagonal, fit))


def _cover_counts(space: FockSpace, k: int, mask: np.ndarray) -> np.ndarray:
    """How often the shift map (w, wandering tuple) -> w-shifted tuple hits each basis tuple.

    Row rank(w) of the length-m :func:`graded.concat` table maps u -> w u over
    the words u that fit.  The shifted tuples of one row are the grid of
    k-fold products of that row, which is scattered in bounded slices: the
    linear indices of the first k - 1 components form one array ``lead``,
    and each slice pairs a run of ``lead`` with the whole row in the last
    component, at most ``COVER_SLICE`` tuples (or one line, if longer).  The
    scatter accumulates, so a tuple hit twice within a row counts twice.
    Each row hits a tuple at most once (u -> w u is injective), and only the
    rows of the tuple's common prefixes can, so no count passes depth + 1: the
    counts are exact in ``np.min_scalar_type(depth + 1)``, one byte below 255.
    """
    counts = np.zeros(space.dim**k, dtype=np.min_scalar_type(space.depth + 1))
    for m in range(space.depth + 1):
        src = graded.within(space, space.depth - m)
        sub = mask[tuple([slice(0, src.size)] * k)].reshape(-1, src.size)
        step = max(1, COVER_SLICE // src.size)
        ranks = np.arange(space.n**m)[:, None]
        for table in graded.concat(space, m, ranks, *graded.length_rank(space, src)):
            lead = np.zeros(1, dtype=np.int64)
            for _ in range(k - 1):
                lead = (lead[:, None] * space.dim + table).ravel()
            for lo in range(0, lead.size, step):
                linear = lead[lo : lo + step, None] * space.dim + table
                np.add.at(counts, linear[sub[lo : lo + step]], counts.dtype.type(1))
    return counts


def wandering_check(alphabet: Alphabet, k: int, depth: int) -> WanderingReport:
    """Verify orthogonality, unique-cover completeness, and dimension growth.

    The shifted copies of the wandering span are certified pairwise orthogonal
    and jointly exhaustive by showing the shift map (w, wandering tuple) ->
    basis tuple hits every index exactly once; distinct basis indices are
    orthogonal by construction.  On instances small enough, the Gram of the
    actual shift operators over every word is checked too (shifted_gram_defect).
    """
    if k < 1 or depth < 0:
        raise ValueError("need k >= 1 and depth >= 0")
    space = FockSpace(alphabet, depth)
    total = space.dim**k
    mask = _wandering_mask(alphabet, k, depth)
    dim = int(np.count_nonzero(mask))
    closed = wandering_dim_closed_form(alphabet, k, depth)

    # Unique-cover bitmap: every tuple is reached by exactly one (w, kappa).
    counts = _cover_counts(space, k, mask)
    cover_injective = bool(counts.max(initial=0) <= 1)
    cover_complete = bool(counts.min(initial=1) >= 1)

    # Counting identity: sum over prefix lengths of shifted wandering counts.
    per_length = [
        (alphabet.n**j if j else 1) * wandering_dim_closed_form(alphabet, k, depth - j)
        for j in range(depth + 1)
    ]
    counting_identity = sum(per_length) == total

    # The depth-d mask is the leading start[d + 1] block of each axis of this one.
    leading = (slice(0, space._block_starts[d + 1]) for d in range(1, depth + 1))
    dims_by_depth = [int(np.count_nonzero(mask[(lead,) * k])) for lead in leading]
    growth_strict = all(a < b for a, b in zip(dims_by_depth, dims_by_depth[1:]))

    orthogonality_defect = 0.0 if cover_injective else 1.0
    gram_checked = False
    if total <= GRAM_LIMIT:
        gram = shifted_gram_defect(space, k, mask, np.arange(space.dim))
        orthogonality_defect = _worst_defect((orthogonality_defect, gram))
        gram_checked = True

    return WanderingReport(
        n=alphabet.n,
        k=k,
        depth=depth,
        dim=dim,
        dim_closed_form=closed,
        dims_by_depth=dims_by_depth,
        orthogonality_defect=float(orthogonality_defect),
        cover_injective=cover_injective,
        cover_complete=cover_complete,
        counting_identity=counting_identity,
        growth_strict=growth_strict,
        gram_checked=gram_checked,
    )
