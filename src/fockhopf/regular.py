"""Truncated left/right regular representations and Fourier analysis.

Truncation semantics: generators are compressions of the shifts to the
depth-N span, so ``left_shift`` maps a length-N word basis vector to zero.
Shift identities of total degree d therefore hold exactly on the depth-(N-d)
safe zone, and compositions satisfy ``L_u L_v = L_{uv}`` entrywise.

Convention worth flagging once: composing right generators appends letters
one at a time, so the word operator ``R_w`` appends the REVERSAL of w:
``R_w xi_u = xi_{u w~}``.

Shift and membership indices come from the graded concatenation rule
:func:`graded.concat`, index(w u) = start[|w| + |u|] + rank(w) n^|u| + rank(u).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy import sparse

from . import graded
from .spaces import FockSpace, Operator, max_entry_diff, operator_sum, tensor_op, tensor_space
from .words import Alphabet, Word


def left_shift(space: FockSpace, letter: int) -> Operator:
    """L_i: xi_w -> xi_{iw}, compressed to the truncation."""
    return word_shift(space, Word((letter,)), "left")


def right_shift(space: FockSpace, letter: int) -> Operator:
    """R_i: xi_w -> xi_{wi}, compressed to the truncation."""
    return word_shift(space, Word((letter,)), "right")


@lru_cache(maxsize=1024)
def word_shift(space: FockSpace, w: Word, side: str = "left") -> Operator:
    """The compressed word operator: composition of generators in word order.

    ``side="left"`` gives L_w with L_w xi_u = xi_{wu}; ``side="right"`` gives
    R_w with R_w xi_u = xi_{u w~} (generators append letters, hence the
    reversal).  Both agree entrywise with composing single-letter shifts.
    """
    table = shift_index_table(space, w, side)
    cols = np.arange(table.size, dtype=np.int64)
    return Operator.from_entries(space, space, table, cols, np.ones(table.size))


@lru_cache(maxsize=1024)
def shift_index_table(space: FockSpace, w: Word, side: str = "left") -> np.ndarray:
    """Index map u -> wu (``side="left"``) or u -> u w~ (``"right"``), |u| <= depth - |w|.

    By the length-lexicographic order those words occupy the leading basis
    indices, so the table's length doubles as the admissibility bound.  The
    words u of length m are one :func:`graded.concat` broadcast over their
    block ranks.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    k = len(w)
    rank = space.index_of(w if side == "left" else w.reverse()) - space._block_starts[k]
    ranks = (np.arange(space.n**m, dtype=np.int64) for m in range(space.depth - k + 1))
    if side == "left":
        return np.concatenate([graded.concat(space, k, rank, m, ru) for m, ru in enumerate(ranks)])
    return np.concatenate([graded.concat(space, m, ru, k, rank) for m, ru in enumerate(ranks)])


def length_projection(space: FockSpace, max_len: int) -> Operator:
    """Orthogonal projection onto the words of length <= max_len."""
    idx = graded.within(space, max_len)
    vals = np.ones(idx.size, dtype=np.complex128)
    return Operator.from_entries(space, space, idx, idx, vals)


@dataclass
class FourierSeries:
    """Finitely supported word-indexed coefficients, a_w for w -> a_w L_w.

    Zero coefficients are never stored, which makes equality structural.
    """

    alphabet: Alphabet
    coeffs: dict[Word, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[Word, complex] = {}
        for w, c in self.coeffs.items():
            if len(w) and max(w.letters) > self.alphabet.n:
                raise ValueError(f"word {w} uses letters beyond alphabet size {self.alphabet.n}")
            c = complex(c)
            if c != 0:
                clean[w] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "FourierSeries":
        return cls(alphabet, {})

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "FourierSeries":
        return cls(alphabet, {Word(): 1.0})

    @classmethod
    def indicator(cls, alphabet: Alphabet, w: Word) -> "FourierSeries":
        return cls(alphabet, {w: 1.0})

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.coeffs), default=0)

    @property
    def support(self) -> tuple[Word, ...]:
        return tuple(sorted(self.coeffs, key=lambda w: (len(w), w.letters)))

    def coefficient(self, w: Word) -> complex:
        return self.coeffs.get(w, 0j)

    def items(self) -> Iterator[tuple[Word, complex]]:
        return iter(self.coeffs.items())

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0j) + c
        return FourierSeries(self.alphabet, out)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + (-1.0) * other

    def __mul__(self, other: "FourierSeries | complex") -> "FourierSeries":
        if isinstance(other, FourierSeries):
            self._check(other)
            out: dict[Word, complex] = {}
            for u, a in self.coeffs.items():
                for v, b in other.coeffs.items():
                    w = u.concat(v)
                    out[w] = out.get(w, 0j) + a * b
            return FourierSeries(self.alphabet, out)
        return FourierSeries(self.alphabet, {w: c * other for w, c in self.coeffs.items()})

    def __rmul__(self, scalar: complex) -> "FourierSeries":
        return self * scalar

    def _check(self, other: "FourierSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("series alphabets differ")


@lru_cache(maxsize=64)
def _realize_pattern(space: FockSpace, degree: int, fold: int) -> tuple[np.ndarray, ...]:
    """Read-only canonical CSR (indptr, indices) of sum_{|w| <= degree} L_w^(x fold).

    The third array is the basis index of the word w behind each stored entry;
    words never share a position, as L_w^(x fold) sends (u, ...) to (w u, ...).
    """
    rows, cols, ids = [], [], []
    for i, w in enumerate(space.words[: space._block_starts[degree + 1]]):
        table = shift_index_table(space, w)
        src = np.arange(table.size, dtype=np.int64)
        row, col = table, src
        for _ in range(fold - 1):  # a tensor power of a partial permutation
            row = (row[:, None] * space.dim + table[None, :]).ravel()
            col = (col[:, None] * space.dim + src[None, :]).ravel()
        rows.append(row)
        cols.append(col)
        ids.append(np.full(row.size, i, dtype=np.int32))
    owner = np.concatenate(ids)
    # The stored values are entry positions, so the CSR sort reads back as a permutation.
    entries = (np.arange(owner.size), (np.concatenate(rows), np.concatenate(cols)))
    mat = sparse.csr_matrix(entries, shape=(space.dim**fold,) * 2)
    arrays = (mat.indptr, mat.indices, owner[mat.data])
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def coefficient_array(series: FourierSeries, space: FockSpace) -> np.ndarray:
    """The coefficients a_w in basis order of the space, zero off the support."""
    if series.alphabet != space.alphabet:
        raise ValueError("series alphabet does not match the space")
    if series.degree > space.depth:
        raise ValueError(f"series degree {series.degree} exceeds depth {space.depth}")
    coef = np.zeros(space.dim, dtype=np.complex128)
    coef[[space.positions[w] for w in series.coeffs]] = list(series.coeffs.values())
    return coef


def realize(series: FourierSeries, space: FockSpace, fold: int = 1) -> Operator:
    """The operator sum a_w (L_w)^(x fold), on the fold-wise tensor power of the space.

    The coefficients fill the cached pattern of the words up to the series
    degree, and the entries of words outside the support are dropped.
    """
    coef = coefficient_array(series, space)
    target = space if fold == 1 else tensor_space(*([space] * fold))
    indptr, indices, word = _realize_pattern(space, series.degree, fold)
    data = coef[word]
    keep = data != 0
    if not keep.all():
        data, indices = data[keep], indices[keep]
        indptr = np.concatenate(([False], keep)).cumsum(dtype=indptr.dtype)[indptr]
    mat = sparse.csr_matrix((data, indices, indptr), shape=(target.dim, target.dim))
    return Operator(target, target, mat)


def fourier_coefficients(t: Operator) -> FourierSeries:
    """Read the coefficients a_w = (T xi_e, xi_w) off the vacuum column."""
    space = t.domain
    if t.codomain != space or not isinstance(space, FockSpace):
        raise ValueError("fourier_coefficients expects a square operator on a Fock space")
    mat = t.matrix
    rows = np.repeat(np.arange(space.dim), np.diff(mat.indptr))
    vacuum = mat.indices == 0
    words = space.words
    return FourierSeries(
        space.alphabet, {words[i]: v for i, v in zip(rows[vacuum].tolist(), mat.data[vacuum])}
    )


def cesaro_sum(series: FourierSeries, k: int) -> FourierSeries:
    """Degree-weighted partial sum: coefficient (1 - |w|/k) a_w for |w| < k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return FourierSeries(
        series.alphabet,
        {w: (1.0 - len(w) / k) * c for w, c in series.items() if len(w) < k},
    )


def cesaro_error_bound(series: FourierSeries, k: int) -> float:
    """Triangle-inequality bound sum_w (|w|/k) |a_w| on the safe-zone error."""
    return sum(min(len(w) / k, 1.0) * abs(c) for w, c in series.items())


def membership_defect(t: Operator) -> float:
    """Distance of T from the left-pattern algebra {sum a_w L_w}.

    The defect is the largest mismatch on structured entries (T xi_w, xi_{uw})
    against the vacuum-column coefficient a_u, plus the largest stray entry at
    unstructured positions.  It vanishes exactly on realized series.  For
    |u| = k and |w| = m the structured rows are the :func:`graded.concat`
    block (k, m).
    """
    space = t.domain
    if t.codomain != space or not isinstance(space, FockSpace):
        raise ValueError("membership_defect expects a square operator on a Fock space")
    dense = t.matrix.toarray()
    coeff = dense[:, 0].copy()
    starts = space._block_starts
    on_pattern = 0.0
    for k, m in graded.splits(space.depth):
        ru, rw = np.ix_(np.arange(space.n**k), np.arange(space.n**m))
        rows, cols = graded.concat(space, k, ru, m, rw), starts[m] + rw
        mismatch = np.abs(dense[rows, cols] - coeff[starts[k] + ru])
        on_pattern = max(on_pattern, float(mismatch.max()))
        dense[rows, cols] = 0.0  # what is left once every block is cleared is off-pattern
    off_pattern = float(np.abs(dense).max(initial=0.0))
    return on_pattern + off_pattern


def isometry_defect(space: FockSpace) -> float:
    """Max entrywise defect of L_i* L_j = delta_ij P_{N-1}; contract: 0."""
    proj = length_projection(space, space.depth - 1) if space.depth >= 1 else Operator.zero(space)
    worst = 0.0
    for i in space.alphabet.letters:
        for j in space.alphabet.letters:
            product = left_shift(space, i).adjoint() @ left_shift(space, j)
            target = proj if i == j else Operator.zero(space)
            worst = max(worst, max_entry_diff(product, target))
    return worst


def row_contraction_defect(space: FockSpace) -> float:
    """Max entrywise defect of sum_i L_i L_i* = I - (vacuum projection)."""
    gens = (left_shift(space, i) for i in space.alphabet.letters)
    total = operator_sum(space, (gen @ gen.adjoint() for gen in gens))
    target = Operator.identity(space) - Operator.from_entries(space, space, [0], [0], [1.0])
    return max_entry_diff(total, target)


def left_right_commutation_defect(space: FockSpace) -> float:
    """Max defect of L_i R_j = R_j L_i on the slack-2 safe zone; contract: 0."""
    cols = graded.within(space, space.depth - 2)
    worst = 0.0
    for i in space.alphabet.letters:
        for j in space.alphabet.letters:
            li, rj = left_shift(space, i), right_shift(space, j)
            worst = max(worst, max_entry_diff(li @ rj, rj @ li, cols))
    return worst


def tensor_commutation_defect(
    space: FockSpace,
    left_words: tuple[Word, Word],
    right_words: tuple[Word, Word],
) -> float:
    """Defect of (L_u (x) L_v)(R_a (x) R_b) = (R_a (x) R_b)(L_u (x) L_v).

    Checked on the two-factor safe zone whose slack covers the per-factor
    shift totals.
    """
    u, v = left_words
    a, b = right_words
    lw = tensor_op(word_shift(space, u, "left"), word_shift(space, v, "left"))
    rw = tensor_op(word_shift(space, a, "right"), word_shift(space, b, "right"))
    slack = max(len(u) + len(a), len(v) + len(b))
    cols = graded.within(space, space.depth - slack, fold=2)
    return max_entry_diff(lw @ rw, rw @ lw, cols)


def shift_composition_defect(space: FockSpace, u: Word, v: Word, side: str = "left") -> float:
    """Defect of S_u S_v = S_{uv} on the slack-(|u|+|v|) safe zone."""
    cols = graded.within(space, space.depth - len(u) - len(v))
    composed = word_shift(space, u, side) @ word_shift(space, v, side)
    direct = word_shift(space, u.concat(v), side)
    return max_entry_diff(composed, direct, cols)
