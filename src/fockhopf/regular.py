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
The shift relations and the package's tensor-leg identities compose partial
maps in the one composer :func:`_product_map`, a tensor factor a tuple of legs.
A :class:`FourierSeries` holds its coefficients in that basis order, so its
product s t is the graded Cauchy product of :func:`graded.cauchy_product`,
rounded as ``realize(s)`` applied to t's coefficients.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import graded
from .spaces import FockSpace, Operator, _worst_defect, column_entries, tensor_space
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
    and block ranks.  A word longer than the depth admits no u, so its
    shift is the zero operator (its letters are still checked).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    k = len(w)
    if k > space.depth:
        if max(w.letters) > space.n:
            raise ValueError(f"word {w} uses letters beyond alphabet size {space.n}")
        return Operator.zero(space)
    rank = space.index_of(w if side == "left" else w.reverse()) - space._block_starts[k]
    src = graded.within(space, space.depth - k)
    m, ru = graded.length_rank(space, src)
    table = graded.concat(space, k, rank, m, ru) if side == "left" else graded.concat(space, m, ru, k, rank)
    # The images ascend with src, one a row, so they are the CSR arrays already.
    idx = np.int32 if space.dim <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(table, np.arange(space.dim + 1)).astype(idx)
    return Operator(space, space, (np.ones(src.size, dtype=np.complex128), src.astype(idx), indptr))


def length_projection(space: FockSpace, max_len: int) -> Operator:
    """Orthogonal projection onto the words of length <= max_len."""
    idx = graded.within(space, max_len).astype(np.int32)  # the leading indices: CSR arrays already
    indptr = np.minimum(np.arange(space.dim + 1, dtype=np.int32), idx.size)
    return Operator(space, space, (np.ones(idx.size, dtype=np.complex128), idx, indptr))


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
        return FourierSeries(self.alphabet, graded.cauchy_product(space, self.coeffs, other.coeffs))

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


def _power_tables(space: FockSpace, degree: int, fold: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(k, rows, cols) per length k <= degree: L_w^(x fold) maps cols to rows[rank(w)] for |w| = k.

    One :func:`graded.concat` broadcast holds the shift tables of a length:
    row rank(w) is index(w u) over the u with |u| <= depth - k.
    """
    for k in range(degree + 1):
        src = graded.within(space, space.depth - k)
        ranks = np.arange(space.n**k)[:, None]
        table = graded.concat(space, k, ranks, *graded.length_rank(space, src))
        row, col = table, src
        for _ in range(fold - 1):  # a tensor power of a partial permutation
            row = (row[:, :, None] * space.dim + table[:, None, :]).reshape(table.shape[0], -1)
            col = (col[:, None] * space.dim + src[None, :]).ravel()
        yield k, row, col


@lru_cache(maxsize=64)
def _realize_pattern(space: FockSpace, degree: int, fold: int) -> tuple[np.ndarray, ...]:
    """Read-only canonical CSR (indptr, indices) of sum_{|w| <= degree} L_w^(x fold).

    The third array is the basis index of the word w behind each stored entry;
    words never share a position, as L_w^(x fold) sends (u, ...) to (w u, ...).
    A row holds at most one entry per word length, and a longer w leaves a
    shorter first factor, so a smaller column: the arrays are filled in place
    at their final size, with no sort.  Row counts give each row's end, and the
    words go in by ascending length, ``indptr[r]`` stepping back to the row's
    start.  The index dtype is int32 unless nnz or dim^fold passes it.  Tables
    that fill other than the closed-form nnz slots raise ValueError.
    """
    starts = space._block_starts
    nnz = sum(space.n**k * starts[space.depth + 1 - k] ** fold for k in range(degree + 1))
    idx = np.int32 if max(nnz, space.dim**fold) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(space.dim**fold + 1, dtype=idx)
    for _, rows, _ in _power_tables(space, degree, fold):
        indptr[rows] += 1
    np.cumsum(indptr, dtype=idx, out=indptr)  # indptr[r] is the end of row r
    if indptr[-1] != nnz:
        raise ValueError(f"the shift tables fill {indptr[-1]} of the {nnz} pattern slots")
    indices, word = np.empty(nnz, dtype=idx), np.empty(nnz, dtype=np.int32)
    for k, rows, cols in _power_tables(space, degree, fold):
        indptr[rows] -= 1
        slot = indptr[rows]
        indices[slot] = cols
        word[slot] = np.arange(starts[k], starts[k + 1], dtype=np.int32)[:, None]
    arrays = (indptr, indices, word)
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
    return Operator(target, target, (data, indices, indptr))


def fourier_coefficients(t: Operator) -> FourierSeries:
    """Read the coefficients a_w = (T xi_e, xi_w) off the vacuum column T xi_e, exactly.

    Column 0 (xi_e) is read off the stored entries, each added to +0.0 as a matvec's row sum adds it.
    """
    space = t.domain
    if t.codomain != space or not isinstance(space, FockSpace):
        raise ValueError("fourier_coefficients expects a square operator on a Fock space")
    _, rows, data = column_entries(t, np.zeros(1, dtype=np.int64))
    coeffs = np.zeros(space.dim, dtype=np.complex128)
    coeffs[rows] += data
    return FourierSeries(space.alphabet, coeffs)


def cesaro_arrays(coeffs: np.ndarray, lengths: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
    """Cesaro coefficients (..., k, words) and error bounds (..., k) of series with coefficient rows
    ``coeffs`` (..., words) on words of the given lengths, one k per order.

    Row k holds (1 - |w|/k)_+ a_w, zero past length k - 1; bound k, on the safe-zone error,
    is sum_w min(|w|/k, 1) |a_w| summed in basis order, with ``hypot``'s moduli, as Python's
    complex ``abs`` gives them (numpy's can differ in the last bit).
    """
    ratios, coeffs = lengths / np.asarray(orders)[:, None], coeffs[..., None, :]
    weights = np.minimum(ratios, 1.0) * np.hypot(coeffs.real, coeffs.imag)
    return np.maximum(1.0 - ratios, 0.0) * coeffs, np.cumsum(weights, axis=-1)[..., -1]


def cesaro_coefficients(series: FourierSeries, orders) -> np.ndarray:
    """The coefficients of ``cesaro_sum(series, k)``, one row per k in orders (:func:`cesaro_arrays`)."""
    return cesaro_arrays(series.coeffs, _layout(series.alphabet, series.degree).lengths, orders)[0]


def cesaro_sum(series: FourierSeries, k: int) -> FourierSeries:
    """Degree-weighted partial sum: coefficient (1 - |w|/k) a_w for |w| < k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    space = _layout(series.alphabet, min(series.degree, k - 1))
    return FourierSeries(series.alphabet, cesaro_coefficients(series, (k,))[0, : space.dim])


def cesaro_error_bound(series: FourierSeries, k: int) -> float:
    """The triangle-inequality bound on the safe-zone error of order k (:func:`cesaro_arrays`)."""
    return float(cesaro_arrays(series.coeffs, _layout(series.alphabet, series.degree).lengths, (k,))[1][0])


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
    vals, cols, indptr = t.csr
    rows = np.repeat(np.arange(space.dim), np.diff(indptr))
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


def _product_map(ops: tuple, cols: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(image, value) of each of the given columns under the product of ``ops``, image -1 where
    the column goes to zero.

    A factor is an operator, or a tuple of operators: their tensor product (:func:`_column_map`).
    Each operator must store at most one entry a column, as a word shift, W and the adjoint
    of an injective shift do, so the product composes index maps; ValueError otherwise.
    """
    (image, value), rest = _column_map(ops[-1]), ops[-2::-1]
    image, value = image[:-1][cols], value[:-1][cols]
    for step, weight in map(_column_map, rest):
        image, value = step[image], weight[image] * value
    return image, value


def _column_map(factor) -> tuple[np.ndarray, np.ndarray]:
    """Row and value of each column's one stored entry, -1 and 0 where it has none, and a last
    slot (-1, 0) that image -1 reads.

    A tuple of operators maps the columns of their tensor product, the first leg the slowest
    index, its values the legs' multiplied left to right by numpy's complex ``*``, as a
    Kronecker product forms them.
    """
    step = weight = None
    for op in factor if isinstance(factor, tuple) else (factor,):
        data, cols, indptr = op.csr
        if np.any(np.bincount(cols, minlength=op.domain.dim) > 1):
            raise ValueError("a column stores two entries: the operator is no partial map")
        s, w = np.full(op.domain.dim + 1, -1), np.zeros(op.domain.dim + 1, dtype=np.complex128)
        s[cols], w[cols] = np.repeat(np.arange(op.codomain.dim), np.diff(indptr)), data
        if step is not None:  # a further leg: column (x, y) goes to (image of x, image of y)
            gone = (step[:-1] < 0)[:, None] | (s[:-1] < 0)
            s = np.append(np.where(gone, -1, step[:-1, None] * op.codomain.dim + s[:-1]), -1)
            w = np.append(weight[:-1, None] * w[:-1], 0)
        step, weight = s, w
    return step, weight


def _map_defect(lhs: tuple, rhs: tuple, cols: np.ndarray | slice = slice(None)) -> float:
    """Largest entry modulus of A - B over the given columns, A and B the products of ``lhs`` and ``rhs``."""
    (ia, va), (ib, vb) = (_product_map(ops, cols) for ops in (lhs, rhs))
    return float(np.where(ia == ib, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb))).max(initial=0.0))


def map_entries(ops: tuple, cols: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored entries of the product of ``ops`` (:func:`_product_map`) in the given columns,
    as (k, row, value) arrays, k ascending: one entry of the k-th column, where it has one."""
    image, value = _product_map(ops, cols)
    k = np.flatnonzero(image >= 0)
    return k, image[k], value[k]


def isometry_defect(space: FockSpace) -> float:
    """Max entrywise defect of L_i* L_j = delta_ij P_{N-1}; contract: 0."""
    proj = length_projection(space, space.depth - 1)
    pairs = [(i, j) for i in space.alphabet.letters for j in space.alphabet.letters]
    products = ((i == j, (left_shift(space, i).adjoint(), left_shift(space, j))) for i, j in pairs)
    return _worst_defect(_map_defect(p, (proj if same else Operator.zero(space),)) for same, p in products)


def row_contraction_defect(space: FockSpace) -> float:
    """Max entrywise defect of sum_i L_i L_i* = I - (vacuum projection): diagonal, |value|^2 at each image."""
    rest = (np.arange(space.dim) > 0).astype(float)  # I - (vacuum projection), less the diagonal so far
    for image, value in (_product_map((left_shift(space, i),)) for i in space.alphabet.letters):
        np.subtract.at(rest, image[image >= 0], np.abs(value[image >= 0]) ** 2)
    return float(np.abs(rest).max(initial=0.0))


def _commutation_defect(space: FockSpace, u: Word, a: Word) -> float:
    """Defect of L_u R_a = R_a L_u on the slack-(|u|+|a|) safe zone."""
    lu, ra = word_shift(space, u, "left"), word_shift(space, a, "right")
    return _map_defect((lu, ra), (ra, lu), graded.within(space, space.depth - len(u) - len(a)))


def left_right_commutation_defect(space: FockSpace) -> float:
    """Max defect of L_i R_j = R_j L_i on the slack-2 safe zone; contract: 0."""
    letters = [Word((i,)) for i in space.alphabet.letters]
    return _worst_defect(_commutation_defect(space, i, j) for i in letters for j in letters)


def tensor_commutation_defect(
    space: FockSpace,
    left_words: tuple[Word, Word],
    right_words: tuple[Word, Word],
) -> float:
    """Defect of (L_u (x) L_v)(R_a (x) R_b) = (R_a (x) R_b)(L_u (x) L_v), one leg at a time.

    As (A (x) B)(C (x) D) = AC (x) BD, it holds where the legs (u, a) and (v, b)
    each commute, so no Kronecker product is formed.  Each leg's safe zone holds
    its part of the two-factor zone ``within(depth - max(|u|+|a|, |v|+|b|), fold=2)``:
    a leg-wise 0 implies a two-factor 0, and on the true shifts both are 0.0.
    """
    (u, v), (a, b) = left_words, right_words
    return _worst_defect((_commutation_defect(space, u, a), _commutation_defect(space, v, b)))


def shift_composition_defect(space: FockSpace, u: Word, v: Word, side: str = "left") -> float:
    """Defect of S_u S_v = S_{uv} on the slack-(|u|+|v|) safe zone."""
    cols = graded.within(space, space.depth - len(u) - len(v))
    composed = (word_shift(space, u, side), word_shift(space, v, side))
    return _map_defect(composed, (word_shift(space, u.concat(v), side),), cols)
