"""Wandering subspace of the tensor-power shifts.

For the k-fold tensor power of the left shifts, the wandering span is the set
of basis tuples with no common prefix; every tuple then factors uniquely as a
common-prefix shift applied to a wandering tuple.  The dimension obeys the
closed form T^k - n S^k, where T counts words of length <= N and S counts
words of length <= N-1 (drop the forced first letter of a common prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from .regular import shift_index_table, word_shift
from .spaces import FockSpace, tensor_op
from .words import Alphabet, Word, count_words, max_common_prefix


def strip_common_prefix(tup: Sequence[Word]) -> tuple[Word, tuple[Word, ...]]:
    """Factor a tuple as (w, wandering tuple) with w the maximal common prefix."""
    prefix = max_common_prefix(tup)
    return prefix, tuple(u.strip_prefix(prefix) for u in tup)


def is_wandering_tuple(tup: Sequence[Word]) -> bool:
    """No common prefix: some component empty, or two first letters differ."""
    if any(len(u) == 0 for u in tup):
        return True
    first = {u.letters[0] for u in tup}
    return len(first) > 1


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
    orthogonality_defect: float
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
        return {
            "n": self.n,
            "k": self.k,
            "depth": self.depth,
            "dim": self.dim,
            "dim_closed_form": self.dim_closed_form,
            "dims_by_depth": list(self.dims_by_depth),
            "orthogonality_defect": self.orthogonality_defect,
            "cover_injective": self.cover_injective,
            "cover_complete": self.cover_complete,
            "counting_identity": self.counting_identity,
            "growth_strict": self.growth_strict,
            "gram_checked": self.gram_checked,
            "passed": self.passed,
        }


def _wandering_mask(alphabet: Alphabet, k: int, depth: int) -> np.ndarray:
    """Wandering flags of the k-tuples of words of length <= depth, one axis per factor.

    Block m >= 1 lists the first letters 1..n, n^(m-1) times each; the empty word has 0.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    letters = np.arange(1, alphabet.n + 1, dtype=np.int16)
    blocks = (np.repeat(letters, alphabet.n ** (m - 1)) for m in range(1, depth + 1))
    first = np.concatenate([np.zeros(1, dtype=np.int16), *blocks])
    grids = np.ix_(*([first] * k))
    blocked = grids[0] > 0
    for g in grids[1:]:
        blocked = blocked & (g == grids[0])
    return ~blocked


def wandering_check(
    alphabet: Alphabet, k: int, depth: int, gram_limit: int = 4096
) -> WanderingReport:
    """Verify orthogonality, unique-cover completeness, and dimension growth.

    The shifted copies of the wandering span are certified pairwise orthogonal
    and jointly exhaustive by showing the shift map (w, wandering tuple) ->
    basis tuple hits every index exactly once; distinct basis indices are
    orthogonal by construction.  On instances small enough, the Gram blocks
    of the actual sparse shift operators are computed as well.
    """
    if k < 1 or depth < 0:
        raise ValueError("need k >= 1 and depth >= 0")
    t = count_words(alphabet, depth)
    total = t**k
    mask = _wandering_mask(alphabet, k, depth)
    dim = int(np.count_nonzero(mask))
    closed = wandering_dim_closed_form(alphabet, k, depth)

    # Unique-cover bitmap: every tuple is reached by exactly one (w, kappa).
    space = FockSpace(alphabet, depth)
    counts = np.zeros(total, dtype=np.int32)
    for w in space.words:
        table = shift_index_table(space, w)  # u -> w u over the words that fit
        sub = mask[tuple([slice(0, table.size)] * k)]
        linear = np.ravel_multi_index(np.ix_(*([table] * k)), (t,) * k)
        np.add.at(counts, linear[sub].ravel(), 1)
    cover_injective = bool(counts.max(initial=0) <= 1)
    cover_complete = bool(counts.min(initial=1) >= 1)

    # Counting identity: sum over prefix lengths of shifted wandering counts.
    per_length = [
        (alphabet.n**j if j else 1) * wandering_dim_closed_form(alphabet, k, depth - j)
        for j in range(depth + 1)
    ]
    counting_identity = sum(per_length) == total

    dims_by_depth = [wandering_dim(alphabet, k, d) for d in range(1, depth + 1)]
    growth_strict = all(a < b for a, b in zip(dims_by_depth, dims_by_depth[1:]))

    orthogonality_defect = 0.0 if cover_injective else 1.0
    gram_checked = False
    if total <= gram_limit:
        orthogonality_defect = max(orthogonality_defect, _gram_defect(alphabet, k, depth, mask))
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


def _gram_defect(alphabet: Alphabet, k: int, depth: int, mask: np.ndarray) -> float:
    """Largest Gram entry between differently shifted wandering columns; contract: 0.

    The columns (L_w)^(x k) restricted to the wandering span, for each word w,
    stand side by side in S; block (u, v) of S^H S is the Gram cross-block of
    the copies shifted by u and v, so one product covers every pair.
    """
    space = FockSpace(alphabet, depth)
    cols = np.flatnonzero(mask.ravel())
    powers = (tensor_op(*([word_shift(space, w, "left")] * k)).matrix.tocsc() for w in space.words)
    stacked = sparse.hstack([power[:, cols] for power in powers], format="csc")
    gram = (stacked.conjugate().transpose() @ stacked).tocoo()
    across = gram.row // cols.size != gram.col // cols.size
    return float(np.abs(gram.data[across]).max(initial=0.0))


def isometry_on_wandering_defect(alphabet: Alphabet, k: int, depth: int, w: Word) -> float:
    """Shifted wandering columns stay orthonormal when images fit the depth."""
    space = FockSpace(alphabet, depth)
    mask = _wandering_mask(alphabet, k, depth - len(w))  # raises when |w| > depth
    cols = np.flatnonzero(np.pad(mask, [(0, space.dim - mask.shape[0])] * k))
    shift = word_shift(space, w, "left")
    power = tensor_op(*([shift] * k)).matrix.tocsc()[:, cols]
    gram = (power.conjugate().transpose() @ power).toarray()
    return float(np.abs(gram - np.eye(cols.size)).max(initial=0.0))
