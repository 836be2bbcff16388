"""Depth-truncated Fock spaces, tensor products, and sparse operators.

Index conventions, fixed here and inherited by every other module:

* A Fock basis vector corresponds to a word; basis order is
  length-lexicographic (see :mod:`fockhopf.words`).
* A tensor basis index runs row-major over the factor list: the FIRST factor
  is the slowest index, so ``index((l1, l2)) = index(l1) * dim2 + index(l2)``.
  This matches the Kronecker product convention of ``np.kron``, and it makes
  leg embeddings pure index permutations.
* The inner product is linear in the first slot and conjugate-linear in the
  second: (x, y) is ``np.vdot(y.data, x.data)``.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .words import Alphabet, Word, count_words, enumerate_words

Label = Union[Word, int]


@dataclass(frozen=True)
class FockSpace:
    """Span of the word basis vectors of length <= depth."""

    alphabet: Alphabet
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    @property
    def n(self) -> int:
        return self.alphabet.n

    @property
    def dim(self) -> int:
        return count_words(self.alphabet, self.depth)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(enumerate_words(self.alphabet, self.depth))

    @cached_property
    def _block_starts(self) -> tuple[int, ...]:
        # _block_starts[k] = index of the first word of length k.
        starts = [0]
        for k in range(self.depth + 1):
            starts.append(count_words(self.alphabet, k))
        return tuple(starts)

    def index_of(self, w: Word) -> int:
        k = len(w)
        if k > self.depth:
            raise ValueError(f"word of length {k} exceeds depth {self.depth}")
        n = self.n
        if k and max(w.letters) > n:
            raise ValueError(f"word {w} uses letters beyond alphabet size {n}")
        rank = 0
        for a in w.letters:
            rank = rank * n + (a - 1)
        return self._block_starts[k] + rank

    def word_at(self, i: int) -> Word:
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for dim {self.dim}")
        starts = self._block_starts
        k = 0
        while starts[k + 1] <= i:
            k += 1
        rank = i - starts[k]
        letters = []
        for _ in range(k):
            letters.append(rank % self.n + 1)
            rank //= self.n
        return Word(tuple(reversed(letters)))

    @cached_property
    def lengths(self) -> np.ndarray:
        out = np.empty(self.dim, dtype=np.int32)
        starts = self._block_starts
        for k in range(self.depth + 1):
            out[starts[k] : starts[k + 1]] = k
        return out


@dataclass(frozen=True)
class AuxSpace:
    """A plain finite-dimensional coefficient space with integer-labelled basis."""

    dim: int
    name: str = "aux"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


SCALAR_SPACE = AuxSpace(1, "scalar")


@dataclass(frozen=True)
class TensorSpace:
    """Tensor product of factor spaces, basis indexed row-major."""

    factors: tuple["Space", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("tensor space needs at least one factor")

    @property
    def dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = []
        acc = 1
        for f in reversed(self.factors):
            strides.append(acc)
            acc *= f.dim
        return tuple(reversed(strides))


Space = Union[FockSpace, AuxSpace, TensorSpace]


def tensor_space(*spaces: Space) -> TensorSpace:
    """Tensor product with nested tensor factors flattened."""
    flat: list[Space] = []
    for s in spaces:
        if isinstance(s, TensorSpace):
            flat.extend(s.factors)
        else:
            flat.append(s)
    return TensorSpace(tuple(flat))


@dataclass(frozen=True, eq=False)
class Vector:
    space: Space
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.complex128, copy=True)
        arr = arr if arr.ndim == 2 else arr.ravel()  # a (trials, dim) array: a stack, a trial a row
        if arr.shape[-1] != self.space.dim:
            raise ValueError(f"vector length {arr.shape[-1]} does not match dim {self.space.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


def basis_vector(space: Space, label: Label) -> Vector:
    """The basis vector of a word of a Fock space, or at a basis index of any other space."""
    if isinstance(space, FockSpace):
        if not isinstance(label, Word):
            raise ValueError(f"Fock space expects a Word label, got {label!r}")
        idx = space.index_of(label)
    else:
        idx = int(label)
        if not 0 <= idx < space.dim:
            raise ValueError(f"basis index {idx} out of range for dim {space.dim}")
    data = np.zeros(space.dim, dtype=np.complex128)
    data[idx] = 1.0
    return Vector(space, data)


def _check_same_space(a: Space, b: Space) -> None:
    if a != b:
        raise ValueError(f"space mismatch: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class Operator:
    """Sparse linear map between spaces, held as canonical CSR arrays in basis order.

    ``csr`` is (data, indices, indptr): each row's columns strictly increase, and the
    index dtype is int32 unless a dimension or nnz passes it.
    Every method works on these arrays, and each arithmetic result is the one a CSR
    library's canonical product, sum or scalar multiple gives, to the bit."""

    domain: Space
    codomain: Space
    csr: tuple

    def __post_init__(self) -> None:
        arrays = self.csr
        if not isinstance(arrays, tuple) or len(arrays) != 3 or arrays[2].size != self.codomain.dim + 1:
            raise ValueError(f"CSR arrays do not match spaces of shape {self.shape}")
        for arr in arrays:
            arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.codomain.dim, self.domain.dim

    @classmethod
    def identity(cls, space: Space) -> "Operator":
        diagonal = np.arange(space.dim)
        return cls.from_entries(space, space, diagonal, diagonal, np.ones(space.dim))

    @classmethod
    def zero(cls, domain: Space, codomain: Space | None = None) -> "Operator":
        return cls.from_entries(domain, domain if codomain is None else codomain, [], [], [])

    @classmethod
    def from_entries(
        cls,
        domain: Space,
        codomain: Space,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[complex],
    ) -> "Operator":
        """The operator of coordinate entries; entries at one position add up (:func:`coo_to_csr`)."""
        return cls(domain, codomain, coo_to_csr((codomain.dim, domain.dim), rows, cols, vals))

    @classmethod
    def from_dense(cls, domain: Space, codomain: Space, arr: np.ndarray) -> "Operator":
        """The nonzero entries of a dense (codomain.dim, domain.dim) array."""
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.shape != (shape := (codomain.dim, domain.dim)):
            raise ValueError(f"array shape {arr.shape} does not match spaces {shape}")
        rows, cols = np.nonzero(arr)
        return cls(domain, codomain, coo_to_csr(shape, rows, cols, arr[rows, cols]))

    @property
    def nnz(self) -> int:
        return int(self.csr[2][-1])

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries as (row, col, value) arrays in row-major order, rows in int64."""
        data, indices, indptr = self.csr
        starts = np.bincount(indptr[1:-1], minlength=data.size + 1)[:-1]  # rows starting at each entry
        return np.cumsum(starts), indices, data

    def apply(self, v: Vector) -> Vector:
        _check_same_space(self.domain, v.space)
        return Vector(self.codomain, csr_matvec(*self.csr, v.data))

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self.domain, other.codomain)
        return Operator(other.domain, self.codomain, _csr_product(self, other))

    def __add__(self, other: "Operator") -> "Operator":
        return self._combine(other, np.add)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._combine(other, np.subtract)

    def _combine(self, other: "Operator", op) -> "Operator":
        """Entrywise ``op``, zero results dropped."""
        _check_same_space(self.domain, other.domain)
        _check_same_space(self.codomain, other.codomain)
        keys, out = _merge(self.coo(), other.coo(), self.shape, op)
        keep = out != 0
        return Operator(self.domain, self.codomain, _csr_from_keys(self.shape, keys[keep], out[keep]))

    def __mul__(self, scalar: complex) -> "Operator":
        data, indices, indptr = self.csr
        return Operator(self.domain, self.codomain, (data * scalar, indices, indptr))

    __rmul__ = __mul__

    def adjoint(self) -> "Operator":
        """The conjugate transpose: the entries stably sorted by column, their values conjugated."""
        data, indices, indptr = self.csr
        order = np.argsort(indices, kind="stable")
        rows = np.repeat(np.arange(self.codomain.dim, dtype=indices.dtype), np.diff(indptr))
        starts = np.append(0, np.cumsum(np.bincount(indices, minlength=self.domain.dim))).astype(indptr.dtype)
        return Operator(self.codomain, self.domain, (np.conj(data[order]), rows[order], starts))


def sort_positions(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> tuple:
    """The entries' stable order by position (row, col), a flag on each sorted entry that starts
    a new position, and the distinct positions' keys row * shape[1] + col, ascending.

    The int64 keys stay below shape[0] * shape[1]; a shape past that raises ValueError."""
    if shape[0] * shape[1] > np.iinfo(np.int64).max:
        raise ValueError(f"positions of a {shape} matrix do not fit an int64 key")
    key = rows.astype(np.int64, copy=False) * shape[1] + cols
    order = np.argsort(key, kind="stable")  # rows often arrive ascending: runs for the merge sort
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return order, first, key[first]


def _csr_from_keys(shape: tuple[int, int], keys: np.ndarray, vals: np.ndarray) -> tuple:
    """CSR arrays of the values at ascending distinct position keys; the index dtype is
    int32 unless a dimension or the number of entries passes it."""
    idx = np.int32 if max(*shape, vals.size) <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.divmod(keys, shape[1])
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=shape[0]))
    return vals, cols.astype(idx), indptr


def _merge(a: tuple, b: tuple, shape: tuple[int, int], op) -> tuple[np.ndarray, np.ndarray]:
    """``op`` over the union of the positions of two sets of distinct (row, col, value) entries,
    a missing entry read as 0 + 0j: the positions' keys (as :func:`sort_positions` gives them)
    and the results."""
    (ra, ca, va), (rb, cb, vb) = a, b
    order, first, keys = sort_positions(np.concatenate((ra, rb)), np.concatenate((ca, cb)), shape)
    slot = np.empty(first.size, dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    left, right = np.zeros((2, keys.size), dtype=np.complex128)
    left[slot[: va.size]] = va
    right[slot[va.size :]] = vb
    return keys, op(left, right)


def coo_to_csr(shape: tuple[int, int], rows, cols, vals, drop_zeros: bool = False) -> tuple:
    """Canonical CSR arrays of coordinate entries.

    A stable sort on (row, col); the values at one position add up in array
    order, from the first of them, and zero sums are dropped only with
    ``drop_zeros``.  An index outside ``shape`` raises ValueError.
    """
    rows, cols = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols))
    vals = np.asarray(vals, dtype=np.complex128).ravel()
    if not rows.size == cols.size == vals.size:
        raise ValueError("entry arrays differ in length")
    if vals.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= shape[0] or cols.max() >= shape[1]):
        raise ValueError(f"an entry lies outside the {shape} matrix")
    order, first, keys = sort_positions(rows, cols, shape)
    vals = vals[order]
    sums = vals[first]
    np.add.at(sums, np.cumsum(first)[~first] - 1, vals[~first])  # in array order
    if drop_zeros:
        keep = sums != 0
        keys, sums = keys[keep], sums[keep]
    return _csr_from_keys(shape, keys, sums)


def _csr_product(a: Operator, b: Operator) -> tuple:
    """CSR arrays of A B, formed as the row-by-row (SMMP) sparse product forms them.

    Each stored A[i, j] meets every stored B[j, k] in turn; the products are
    :func:`schoolbook_product`'s, and each position (i, k) sums its products
    from +0.0 in that order, real and imaginary parts apart.  Zero sums are
    dropped.
    """
    (ad, ai, ap), (bd, bi, bp) = a.csr, b.csr
    shape = (a.codomain.dim, b.domain.dim)
    counts = np.diff(bp)[ai]  # the products each entry of A forms
    entry = np.repeat(np.arange(ai.size), counts)
    pos = np.arange(entry.size) + np.repeat(bp[ai] - (np.cumsum(counts) - counts), counts)  # B's entry
    order, first, keys = sort_positions(a.coo()[0][entry], bi[pos], shape)
    terms = schoolbook_product(ad[entry], bd[pos])[order]
    del entry, pos
    slot = np.cumsum(first) - 1
    sums = np.empty(keys.size, dtype=np.complex128)
    sums.real, sums.imag = (np.bincount(slot, part, keys.size) for part in (terms.real, terms.imag))
    keep = sums != 0
    return _csr_from_keys(shape, keys[keep], sums[keep])


def csr_matvec(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for canonical CSR arrays and a vector ``x``: each row sums its :func:`schoolbook_product`
    terms in column order from +0.0, real and imaginary parts apart, as the compiled CSR matvec
    sums them, so the result is the same to the bit."""
    terms, rows = schoolbook_product(data, x[indices]), indptr.size - 1
    bins = np.repeat(np.arange(rows), np.diff(indptr))
    out = np.empty(rows, dtype=np.complex128)
    out.real, out.imag = (np.bincount(bins, t, rows) for t in (terms.real, terms.imag))
    return out


def coo_sum(space: Space, rows: list, cols: list, vals: list) -> Operator:
    """Square operator on ``space`` summing coordinate arrays part by part.

    Duplicate entries add up and entries that cancel are dropped.
    """
    if not vals:
        return Operator.zero(space)
    entries = (np.concatenate(part) for part in (rows, cols, vals))
    return Operator(space, space, coo_to_csr((space.dim, space.dim), *entries, drop_zeros=True))


@dataclass(frozen=True, eq=False)
class StackedFamily(Mapping):
    """A word-keyed family {w: B_w} of operators on ``aux``, held as its entries.

    Each stored entry B_w[y, x] = b is one position of the arrays ``word``
    (index(w)), ``row`` (y), ``col`` (x) and ``val`` (b), sorted by
    (word, row, col) with duplicates summed; the arrays are read-only.
    Memory is linear in the stored entries, whatever the dimension of
    ``aux``.  As a mapping it shows, in basis order, the words that store an
    entry; each member is built from its entries when read.
    """

    fock: FockSpace
    aux: Space
    word: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __post_init__(self) -> None:
        keys = [np.asarray(a, dtype=np.int64).ravel() for a in (self.word, self.row, self.col)]
        val = np.asarray(self.val, dtype=np.complex128).ravel()
        bounds = (self.fock.dim, self.aux.dim, self.aux.dim)
        if any(k.size != val.size or np.any((k < 0) | (k >= b)) for k, b in zip(keys, bounds)):
            raise ValueError("family entries do not match the spaces")
        keys, val = sum_by_key(keys, val)
        for name, arr in zip(("word", "row", "col", "val"), (*keys, val)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_members(
        cls, fock: FockSpace, aux: Space, family: Mapping[Word, Operator]
    ) -> "StackedFamily":
        """Stack a word-keyed family; members that store no entry are left out."""
        for w, op in family.items():
            if len(w) > fock.depth:
                raise ValueError(f"family word {w} exceeds depth {fock.depth}")
            if op.domain != aux or op.codomain != aux:
                raise ValueError("family operators must be square on the auxiliary space")
        members = [(fock.index_of(w), op.nnz, op.coo()) for w, op in family.items() if op.nnz]
        parts = [(np.full(nnz, k), *entries) for k, nnz, entries in members]
        empty = (np.empty(0, np.int64),) * 3 + (np.empty(0, np.complex128),)
        return cls(fock, aux, *(np.concatenate(arrs) for arrs in zip(empty, *parts)))

    @cached_property
    def support(self) -> np.ndarray:
        """Ascending basis indices of the words whose members store an entry."""
        return sorted_unique(self.word)

    def __getitem__(self, w: Word) -> Operator:
        try:
            k = self.fock.index_of(w)
        except ValueError:
            raise KeyError(w) from None
        lo, hi = np.searchsorted(self.word, [k, k + 1])
        if lo == hi:
            raise KeyError(w)
        entries = (self.row[lo:hi], self.col[lo:hi], self.val[lo:hi])
        return Operator.from_entries(self.aux, self.aux, *entries)

    def __iter__(self) -> Iterator[Word]:
        return (self.fock.words[k] for k in self.support)

    def __len__(self) -> int:
        return int(self.support.size)


def vacuum_leg_decomposition(t: Operator, leg: int = 1) -> StackedFamily:
    """Coefficient family of a two-leg operator, read off its vacuum columns.

    For ``leg=1`` the family {w: C_w} of T = sum_w L_w (x) C_w has
    C_w[y, x] = T[(w, y), (e, x)], the slice of T against the vacuum/word
    rank-one pair on the first leg; ``leg=2`` reads the second leg
    symmetrically, C_w[y, x] = T[(y, w), (x, e)].  Each stored entry of those
    columns is one family entry (index(w), y, x), so only words that store an
    entry appear.
    """
    if leg not in (1, 2):
        raise ValueError(f"leg must be 1 or 2, got {leg}")
    space = t.domain
    if t.codomain != space or not isinstance(space, TensorSpace) or len(space.factors) != 2:
        raise ValueError("vacuum_leg_decomposition expects a square operator on a two-factor space")
    first, second = space.factors
    fock, other = (first, second) if leg == 1 else (second, first)
    if not isinstance(fock, FockSpace):
        raise ValueError(f"tensor factor {leg} is not a Fock space")
    (rows, cols, data), d2 = t.coo(), second.dim
    # The vacuum word is basis index 0: its columns are (e, x) = x, or (x, e) = x d2.
    if leg == 1:
        keep = np.flatnonzero(cols < d2)
        (w, y), x = np.divmod(rows[keep], d2), cols[keep]
    else:
        keep = np.flatnonzero(cols % d2 == 0)
        (y, w), x = np.divmod(rows[keep], d2), cols[keep] // d2
    return StackedFamily(fock, other, w, y, x, data[keep])


def gather_groups(key: np.ndarray, groups: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair every item with every position of ``key`` that holds its group.

    Item i belongs to group ``groups[i]``, and keys and groups lie below
    ``size``.  Returns (item, pos), item by item, each item's positions
    ascending.
    """
    counts = np.bincount(key, minlength=size)
    reps = counts[groups]
    item = np.repeat(np.arange(groups.size), reps)
    first = (np.cumsum(counts) - counts)[groups] - (np.cumsum(reps) - reps)
    return item, np.argsort(key, kind="stable")[np.arange(item.size) + np.repeat(first, reps)]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in ascending order, as ``np.unique`` gives them but without its hash pass."""
    keys = np.sort(keys)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


def sum_by_key(keys: Sequence[np.ndarray], vals: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct keys in lexicographic order, with the sum of each key's values.

    ``keys`` are parallel index arrays, the first most significant.  The
    values of one key are added in array order, starting from zero, as a
    sparse product accumulates them.
    """
    order = np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    sums = np.zeros(np.count_nonzero(new), dtype=np.complex128)
    np.add.at(sums, np.cumsum(new) - 1, vals[order])
    return [k[new] for k in keys], sums


def schoolbook_product(x, y) -> np.ndarray:
    """x * y, broadcast, from real products: rounded as Python's complex and
    compiled sparse products round it (numpy's complex multiply may not)."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.complex128)
    np.subtract(x.real * y.real, x.imag * y.imag, out=out.real)  # in place, with no strided copy
    np.add(x.real * y.imag, x.imag * y.real, out=out.imag)
    return out


def _column_mask(op: Operator, columns: np.ndarray) -> np.ndarray:
    """Whether each stored entry lies in one of ``columns``."""
    wanted = np.zeros(op.domain.dim, dtype=bool)
    wanted[columns] = True
    return wanted[op.csr[1]]


def column_entries(op: Operator, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored entries of the requested columns as (k, row, value) arrays: the entries of
    column ``columns[k]`` for each k in turn, rows ascending."""
    data, indices, indptr = op.csr
    pos = np.flatnonzero(_column_mask(op, columns))
    item, sub = gather_groups(indices[pos], columns, op.domain.dim)
    pos = pos[sub]
    return item, np.searchsorted(indptr, pos, side="right") - 1, data[pos]


def _worst_defect(defects: Iterable[float]) -> float:
    """The largest of 0.0 and the defects; a NaN defect is kept, so its check fails."""
    worst = 0.0
    for d in defects:
        if d > worst or math.isnan(d):
            worst = d
    return worst


def max_entry_diff(a: Operator, b: Operator, columns: np.ndarray | None = None) -> float:
    _check_same_space(a.domain, b.domain)
    _check_same_space(a.codomain, b.codomain)
    entries = []
    for op in (a, b):  # the difference in ``columns`` reads only their entries
        keep = slice(None) if columns is None else _column_mask(op, columns)
        entries.append(tuple(arr[keep] for arr in op.coo()))
    return float(np.abs(_merge(*entries, a.shape, np.subtract)[1]).max(initial=0.0))
