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
:func:`word_shift` applies it to one word and the realize pattern to every
word of a length at once; they share no table, so the word shifts can serve
as an independent check of what reads the pattern.
A :class:`FourierSeries` holds its coefficients in that basis order, so its
product s t is the graded Cauchy product: block k + m of s t accumulates, k
ascending, the outer product of s on block k with t on block m.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import graded
from .spaces import FockSpace, Operator, _worst_defect, max_entry_diff, tensor_op, tensor_space
from .words import Alphabet, Word, count_words


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
    The admissible u, |u| <= depth - |w|, are the leading basis indices, and
    their images are one :func:`graded.concat` broadcast over their lengths
    and block ranks.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    k = len(w)
    rank = space.index_of(w if side == "left" else w.reverse()) - space._block_starts[k]
    src = graded.within(space, space.depth - k)
    m, ru = graded.length_rank(space, src)
    if side == "left":
        table = graded.concat(space, k, rank, m, ru)
    else:
        table = graded.concat(space, m, ru, k, rank)
    return Operator.from_entries(space, space, table, src, np.ones(table.size))


def length_projection(space: FockSpace, max_len: int) -> Operator:
    """Orthogonal projection onto the words of length <= max_len."""
    idx = graded.within(space, max_len)
    vals = np.ones(idx.size, dtype=np.complex128)
    return Operator.from_entries(space, space, idx, idx, vals)


@lru_cache(maxsize=64)
def _layout(alphabet: Alphabet, degree: int) -> FockSpace:
    """The space whose basis indexes a series of the given degree (one word table per key)."""
    return FockSpace(alphabet, degree)


@dataclass(frozen=True, eq=False)
class FourierSeries:
    """The coefficients a_w of w -> a_w L_w, as one read-only array in basis order.

    The array ends with the block of the longest word whose coefficient is
    nonzero, so equality is structural.  A word-keyed mapping is read into
    the array once; :meth:`coefficient`, :meth:`items` and :attr:`support`
    give the words back.
    """

    alphabet: Alphabet
    coeffs: np.ndarray | Mapping[Word, complex] = ()
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        if isinstance(coeffs, Mapping):
            space = _layout(self.alphabet, max(map(len, coeffs), default=0))
            coeffs = np.zeros(space.dim, dtype=np.complex128)
            for w, c in self.coeffs.items():
                coeffs[space.index_of(w)] = c
        arr = np.asarray(coeffs, dtype=np.complex128).ravel()
        nonzero = np.flatnonzero(arr)
        size = int(nonzero[-1]) + 1 if nonzero.size else 0
        degree = 0
        while count_words(self.alphabet, degree) < size:
            degree += 1
        trimmed = np.zeros(count_words(self.alphabet, degree), dtype=np.complex128)
        trimmed[:size] = arr[:size]
        trimmed.setflags(write=False)
        object.__setattr__(self, "coeffs", trimmed)
        object.__setattr__(self, "degree", degree)

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "FourierSeries":
        return cls(alphabet, [1.0])

    @classmethod
    def indicator(cls, alphabet: Alphabet, w: Word) -> "FourierSeries":
        space = _layout(alphabet, len(w))
        coeffs = np.zeros(space.dim, dtype=np.complex128)
        coeffs[space.index_of(w)] = 1.0
        return cls(alphabet, coeffs)

    @property
    def support(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.items())

    def coefficient(self, w: Word) -> complex:
        if len(w) > self.degree:
            return 0j
        return complex(self.coeffs[_layout(self.alphabet, self.degree).index_of(w)])

    def items(self) -> Iterator[tuple[Word, complex]]:
        words = _layout(self.alphabet, self.degree).words
        return ((words[i], complex(self.coeffs[i])) for i in np.flatnonzero(self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.coeffs, other.coeffs)

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check(other)
        out = np.zeros(max(self.coeffs.size, other.coeffs.size), dtype=np.complex128)
        out[: self.coeffs.size] = self.coeffs
        out[: other.coeffs.size] += other.coeffs
        return FourierSeries(self.alphabet, out)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + (-1.0) * other

    def __mul__(self, other: "FourierSeries | complex") -> "FourierSeries":
        """The graded Cauchy product (prefixes of each word in order), or scaling by a number."""
        if not isinstance(other, FourierSeries):
            return FourierSeries(self.alphabet, self.coeffs * other)
        self._check(other)
        space = _layout(self.alphabet, self.degree + other.degree)
        out = np.zeros(space.dim, dtype=np.complex128)
        for k in range(self.degree + 1):
            for m in range(other.degree + 1):
                a, b = graded.block(space, self.coeffs, k), graded.block(space, other.coeffs, m)
                graded.split_block(space, out, k, m)[:] += np.multiply.outer(a, b)
        return FourierSeries(self.alphabet, out)

    def __rmul__(self, scalar: complex) -> "FourierSeries":
        return self * scalar

    def _check(self, other: "FourierSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("series alphabets differ")


def _coefficients_on(series: FourierSeries, space: FockSpace) -> np.ndarray:
    """The series' coefficient array, checked to index a prefix of the space's basis."""
    if series.alphabet != space.alphabet:
        raise ValueError("series alphabet does not match the space")
    if series.degree > space.depth:
        raise ValueError(f"series degree {series.degree} exceeds depth {space.depth}")
    return series.coeffs


@lru_cache(maxsize=64)
def _realize_pattern(space: FockSpace, degree: int, fold: int) -> tuple[np.ndarray, ...]:
    """Read-only canonical CSR (indptr, indices) of sum_{|w| <= degree} L_w^(x fold).

    The third array is the basis index of the word w behind each stored entry;
    words never share a position, as L_w^(x fold) sends (u, ...) to (w u, ...).
    Per length k, one :func:`graded.concat` broadcast holds the shift tables:
    row rank(w) is index(w u) over the u with |u| <= depth - k.
    """
    starts = space._block_starts
    rows, cols, owners = [], [], []
    for k in range(degree + 1):
        src = graded.within(space, space.depth - k)
        ranks = np.arange(space.n**k)[:, None]
        table = graded.concat(space, k, ranks, *graded.length_rank(space, src))
        row, col = table, src
        for _ in range(fold - 1):  # a tensor power of a partial permutation
            row = (row[:, :, None] * space.dim + table[:, None, :]).reshape(table.shape[0], -1)
            col = (col[:, None] * space.dim + src[None, :]).ravel()
        rows.append(row.ravel())
        cols.append(np.tile(col, table.shape[0]))
        owners.append(np.repeat(np.arange(starts[k], starts[k + 1], dtype=np.int32), row.shape[1]))
    owner = np.concatenate(owners)
    # The stored values are entry positions, so the CSR sort reads back as a permutation.
    entries = (np.arange(owner.size), (np.concatenate(rows), np.concatenate(cols)))
    mat = sparse.csr_matrix(entries, shape=(space.dim**fold,) * 2)
    arrays = (mat.indptr, mat.indices, owner[mat.data])
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def realize(series: FourierSeries, space: FockSpace, fold: int = 1) -> Operator:
    """The operator sum a_w (L_w)^(x fold), on the fold-wise tensor power of the space.

    The coefficients fill the cached pattern of the words up to the series
    degree, and the entries of words outside the support are dropped.
    """
    coef = _coefficients_on(series, space)
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
    """Read the coefficients a_w = (T xi_e, xi_w) off the vacuum column T xi_e, exactly."""
    space = t.domain
    if t.codomain != space or not isinstance(space, FockSpace):
        raise ValueError("fourier_coefficients expects a square operator on a Fock space")
    return FourierSeries(space.alphabet, t.matrix @ np.eye(space.dim, 1))  # xi_e is index 0


def _cesaro_ratios(series: FourierSeries, orders) -> np.ndarray:
    """|w| / k for every word w of the series (columns) and every k in orders (rows)."""
    return _layout(series.alphabet, series.degree).lengths / np.asarray(orders)[:, None]


def cesaro_coefficients(series: FourierSeries, orders) -> np.ndarray:
    """The coefficients of ``cesaro_sum(series, k)``, one row per k in orders.

    Row k holds (1 - |w|/k)_+ a_w over every word of the series, so it is
    zero past length k - 1.
    """
    return np.maximum(1.0 - _cesaro_ratios(series, orders), 0.0) * series.coeffs


def cesaro_sum(series: FourierSeries, k: int) -> FourierSeries:
    """Degree-weighted partial sum: coefficient (1 - |w|/k) a_w for |w| < k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    space = _layout(series.alphabet, min(series.degree, k - 1))
    return FourierSeries(series.alphabet, cesaro_coefficients(series, (k,))[0, : space.dim])


def cesaro_error_bounds(series: FourierSeries, orders) -> np.ndarray:
    """Triangle-inequality bounds sum_w min(|w|/k, 1) |a_w| on the safe-zone error, one per k.

    The terms are summed one after another in basis order, and the moduli
    are ``hypot``'s, as Python's ``abs`` of a complex number gives them
    (numpy's complex ``abs`` can differ in the last bit).
    """
    weights = np.minimum(_cesaro_ratios(series, orders), 1.0)
    coeffs = series.coeffs
    return np.cumsum(weights * np.hypot(coeffs.real, coeffs.imag), axis=1)[:, -1]


def cesaro_error_bound(series: FourierSeries, k: int) -> float:
    """The bound of :func:`cesaro_error_bounds` for the one order k."""
    return float(cesaro_error_bounds(series, (k,))[0])


def membership_defect(t: Operator) -> float:
    """Distance of T from the left-pattern algebra {sum a_w L_w}.

    The defect is the largest mismatch on structured entries (T xi_w, xi_{uw})
    against the vacuum-column coefficient a_u, plus the largest stray entry at
    unstructured positions.  It vanishes exactly on realized series.  By
    :func:`graded.concat`, a stored (r, c) is structured iff |r| >= |c| and
    rank(r) = rank(c) mod n^|c|, with u at start[|r| - |c|] + rank(r) // n^|c|;
    a u with fewer than T_{d-|u|} stored ones has a zero one, missing by |a_u|.
    """
    space = t.domain
    if t.codomain != space or not isinstance(space, FockSpace):
        raise ValueError("membership_defect expects a square operator on a Fock space")
    coo = t.matrix.tocoo()
    coo.sum_duplicates()
    rows, cols, vals = coo.row, coo.col, coo.data
    coeff = np.zeros(space.dim, dtype=np.complex128)
    coeff[rows[cols == 0]] = vals[cols == 0]
    (kr, rr), (kc, rc) = graded.length_rank(space, rows), graded.length_rank(space, cols)
    scale = space.n**kc
    on = (kr >= kc) & (rr % scale == rc)
    starts = np.asarray(space._block_starts)
    prefix = starts[kr[on] - kc[on]] + rr[on] // scale[on]
    missing = np.bincount(prefix, minlength=space.dim) < starts[space.depth + 1 - space.lengths]
    on_pattern = float(np.abs(np.concatenate([vals[on] - coeff[prefix], coeff[missing]])).max(initial=0.0))
    off_pattern = float(np.abs(vals[~on]).max(initial=0.0))
    return on_pattern + off_pattern


def isometry_defect(space: FockSpace) -> float:
    """Max entrywise defect of L_i* L_j = delta_ij P_{N-1}; contract: 0."""
    proj = length_projection(space, space.depth - 1) if space.depth >= 1 else Operator.zero(space)
    pairs = [(i, j) for i in space.alphabet.letters for j in space.alphabet.letters]
    products = ((i == j, left_shift(space, i).adjoint() @ left_shift(space, j)) for i, j in pairs)
    return _worst_defect(max_entry_diff(p, proj if same else Operator.zero(space)) for same, p in products)


def row_contraction_defect(space: FockSpace) -> float:
    """Max entrywise defect of sum_i L_i L_i* = I - (vacuum projection)."""
    gens = (left_shift(space, i) for i in space.alphabet.letters)
    total = sum((gen @ gen.adjoint() for gen in gens), Operator.zero(space))
    target = Operator.identity(space) - Operator.from_entries(space, space, [0], [0], [1.0])
    return max_entry_diff(total, target)


def left_right_commutation_defect(space: FockSpace) -> float:
    """Max defect of L_i R_j = R_j L_i on the slack-2 safe zone; contract: 0."""
    cols = graded.within(space, space.depth - 2)
    letters = space.alphabet.letters
    pairs = ((left_shift(space, i), right_shift(space, j)) for i in letters for j in letters)
    return _worst_defect(max_entry_diff(li @ rj, rj @ li, cols) for li, rj in pairs)


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
