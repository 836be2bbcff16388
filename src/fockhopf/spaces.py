"""Depth-truncated Fock spaces, tensor products, and sparse operators.

Index conventions, fixed here and inherited by every other module:

* A Fock basis vector corresponds to a word; basis order is
  length-lexicographic (see :mod:`fockhopf.words`).
* A tensor basis index runs row-major over the factor list: the FIRST factor
  is the slowest index, so ``index((l1, l2)) = index(l1) * dim2 + index(l2)``.
  This matches the Kronecker product convention of numpy/scipy, and it makes
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
from scipy import sparse

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
        out = np.empty(self.dim, dtype=np.int16)
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
        arr = np.array(self.data, dtype=np.complex128, copy=True).ravel()
        if arr.size != self.space.dim:
            raise ValueError(f"vector length {arr.size} does not match dim {self.space.dim}")
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
    """Sparse linear map between spaces, stored CSR in canonical basis order."""

    domain: Space
    codomain: Space
    matrix: sparse.csr_matrix

    def __post_init__(self) -> None:
        mat = self.matrix
        if type(mat) is not sparse.csr_matrix or mat.dtype != np.complex128:
            mat = sparse.csr_matrix(mat, dtype=np.complex128)
        if mat.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match spaces "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        mat.sum_duplicates()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, space: Space) -> "Operator":
        return cls(space, space, sparse.identity(space.dim, dtype=np.complex128, format="csr"))

    @classmethod
    def zero(cls, domain: Space, codomain: Space | None = None) -> "Operator":
        codomain = domain if codomain is None else codomain
        return cls(domain, codomain, sparse.csr_matrix((codomain.dim, domain.dim), dtype=np.complex128))

    @classmethod
    def from_entries(
        cls,
        domain: Space,
        codomain: Space,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[complex],
    ) -> "Operator":
        mat = sparse.coo_matrix(
            (np.asarray(vals, dtype=np.complex128), (rows, cols)),
            shape=(codomain.dim, domain.dim),
        )
        return cls(domain, codomain, mat.tocsr())

    @classmethod
    def from_dense(cls, domain: Space, codomain: Space, arr: np.ndarray) -> "Operator":
        return cls(domain, codomain, sparse.csr_matrix(np.asarray(arr, dtype=np.complex128)))

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def apply(self, v: Vector) -> Vector:
        _check_same_space(self.domain, v.space)
        return Vector(self.codomain, self.matrix @ v.data)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self.domain, other.codomain)
        return Operator(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_space(self.domain, other.domain)
        _check_same_space(self.codomain, other.codomain)
        return Operator(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_space(self.domain, other.domain)
        _check_same_space(self.codomain, other.codomain)
        return Operator(self.domain, self.codomain, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.domain, self.codomain, self.matrix * scalar)

    __rmul__ = __mul__

    def adjoint(self) -> "Operator":
        return Operator(self.codomain, self.domain, self.matrix.conjugate().transpose().tocsr())


def coo_sum(space: Space, rows: list, cols: list, vals: list) -> Operator:
    """Square operator on ``space`` summing coordinate arrays part by part.

    Duplicate entries add up and entries that cancel are dropped.
    """
    if not vals:
        return Operator.zero(space)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    mat = sparse.coo_matrix(entries, shape=(space.dim, space.dim)).tocsr()
    mat.eliminate_zeros()
    return Operator(space, space, mat)


def tensor_op(*ops: Operator) -> Operator:
    """Kronecker product, row-major: first factor is the slowest index."""
    if not ops:
        raise ValueError("tensor_op needs at least one operator")
    mat = ops[0].matrix
    for op in ops[1:]:
        mat = sparse.kron(mat, op.matrix, format="csr")
    domain = tensor_space(*(op.domain for op in ops))
    codomain = tensor_space(*(op.codomain for op in ops))
    return Operator(domain, codomain, mat)


def permutation_operator(domain: Space, codomain: Space, perm: np.ndarray) -> Operator:
    """Operator sending basis j of the domain to basis perm[j] of the codomain."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.size != domain.dim:
        raise ValueError("permutation length does not match domain dimension")
    cols = np.arange(domain.dim, dtype=np.int64)
    data = np.ones(domain.dim, dtype=np.complex128)
    mat = sparse.coo_matrix((data, (perm, cols)), shape=(codomain.dim, domain.dim))
    return Operator(domain, codomain, mat.tocsr())


def flip_operator(space: TensorSpace) -> Operator:
    """The flip x (x) y -> y (x) x on a two-factor tensor space."""
    if len(space.factors) != 2:
        raise ValueError("flip is defined on two-factor tensor spaces")
    f1, f2 = space.factors
    target = tensor_space(f2, f1)
    d1, d2 = f1.dim, f2.dim
    i = np.arange(space.dim, dtype=np.int64)
    a, b = divmod(i, d2)
    return permutation_operator(space, target, b * d1 + a)


RankOnePairs = Sequence[tuple[Vector, Vector]]


def _sparse_column(v: Vector) -> sparse.csr_matrix:
    return sparse.csr_matrix(v.data.reshape(-1, 1))


def slice_left(pairs: RankOnePairs, t: Operator) -> Operator:
    """Pair the first tensor leg of ``t`` against a sum of rank-one functionals.

    With ``pairs = [(xi_j, eta_j)]`` the result S satisfies
    ``(S x, y) = sum_j (t(xi_j (x) x), eta_j (x) y)``.
    """
    return _slice(pairs, t, leg=0)


def slice_right(pairs: RankOnePairs, t: Operator) -> Operator:
    """Same as :func:`slice_left` with the roles of the tensor legs swapped."""
    return _slice(pairs, t, leg=1)


def _slice(pairs: RankOnePairs, t: Operator, leg: int) -> Operator:
    factors = _tensor_pair(t)
    paired, kept = factors[leg], factors[1 - leg]
    ident = sparse.identity(kept.dim, dtype=np.complex128, format="csr")

    def on_leg(column: sparse.csr_matrix) -> sparse.csr_matrix:
        return sparse.kron(*((column, ident) if leg == 0 else (ident, column)), format="csr")

    acc = sparse.csr_matrix((kept.dim, kept.dim), dtype=np.complex128)
    for xi, eta in pairs:
        _check_same_space(xi.space, paired)
        _check_same_space(eta.space, paired)
        embed = on_leg(_sparse_column(xi))
        pair_out = on_leg(_sparse_column(eta).conjugate().transpose())
        acc = acc + pair_out @ t.matrix @ embed
    return Operator(kept, kept, acc)


def _tensor_pair(t: Operator) -> tuple[Space, Space]:
    space = t.domain
    if t.codomain != space or not isinstance(space, TensorSpace) or len(space.factors) != 2:
        raise ValueError("slice maps expect a square operator on a two-factor space")
    return space.factors[0], space.factors[1]


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
        members = [(fock.index_of(w), op.matrix.tocoo()) for w, op in family.items() if op.nnz]
        parts = [(np.full(c.nnz, k), c.row, c.col, c.data) for k, c in members]
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
    first, second = _tensor_pair(t)
    fock, other = (first, second) if leg == 1 else (second, first)
    if not isinstance(fock, FockSpace):
        raise ValueError(f"tensor factor {leg} is not a Fock space")
    mat, d2 = t.matrix, second.dim
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    cols = mat.indices
    # The vacuum word is basis index 0: its columns are (e, x) = x, or (x, e) = x d2.
    if leg == 1:
        keep = np.flatnonzero(cols < d2)
        (w, y), x = np.divmod(rows[keep], d2), cols[keep]
    else:
        keep = np.flatnonzero(cols % d2 == 0)
        (y, w), x = np.divmod(rows[keep], d2), cols[keep] // d2
    return StackedFamily(fock, other, w, y, x, mat.data[keep])


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
    scipy's sparse products round it (numpy's complex multiply may not)."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def max_abs(mat: sparse.spmatrix, columns: np.ndarray | None = None) -> float:
    """Largest entry modulus of a sparse matrix, over ``columns`` when given; 0.0 when it has no entries."""
    if columns is not None:
        mat = mat.tocsc()[:, columns]
    return float(np.abs(mat.data).max(initial=0.0))


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
    return max_abs(a.matrix - b.matrix, columns)
