"""Depth-truncated Fock spaces, tensor products, and sparse operators.

Index conventions, fixed here and inherited by every other module:

* A Fock basis vector corresponds to a word; basis order is
  length-lexicographic (see :mod:`fockhopf.words`).
* A tensor basis index runs row-major over the factor list: the FIRST factor
  is the slowest index, so ``index((l1, l2)) = index(l1) * dim2 + index(l2)``.
  This matches the Kronecker product convention of numpy/scipy, and it makes
  leg embeddings pure index permutations.
* The inner product is linear in the first slot and conjugate-linear in the
  second, so ``inner(A @ x, y)`` is the usual (Ax, y) pairing.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from scipy import sparse

from .words import Alphabet, Word, count_words, enumerate_words

Label = Union[Word, int, tuple]


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

    def index_of(self, labels: Sequence[Label]) -> int:
        if len(labels) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} labels, got {len(labels)}")
        idx = 0
        for f, s, lab in zip(self.factors, self.strides, labels):
            idx += _factor_index(f, lab) * s
        return idx


Space = Union[FockSpace, AuxSpace, TensorSpace]


def _factor_index(f: Space, lab: Label) -> int:
    if isinstance(f, FockSpace):
        if not isinstance(lab, Word):
            raise ValueError(f"Fock factor expects a Word label, got {lab!r}")
        return f.index_of(lab)
    if isinstance(f, TensorSpace):
        return f.index_of(lab)  # type: ignore[arg-type]
    idx = int(lab)  # type: ignore[arg-type]
    if not 0 <= idx < f.dim:
        raise ValueError(f"aux index {idx} out of range for dim {f.dim}")
    return idx


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

    def __add__(self, other: "Vector") -> "Vector":
        _check_same_space(self.space, other.space)
        return Vector(self.space, self.data + other.data)

    def __sub__(self, other: "Vector") -> "Vector":
        _check_same_space(self.space, other.space)
        return Vector(self.space, self.data - other.data)

    def __mul__(self, scalar: complex) -> "Vector":
        return Vector(self.space, self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Vector":
        return Vector(self.space, -self.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def basis_vector(space: Space, label: Label) -> Vector:
    data = np.zeros(space.dim, dtype=np.complex128)
    data[_factor_index(space, label)] = 1.0
    return Vector(space, data)


def inner(x: Vector, y: Vector) -> complex:
    """Inner product (x, y), conjugate-linear in y."""
    _check_same_space(x.space, y.space)
    return complex(np.vdot(y.data, x.data))


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

    def __neg__(self) -> "Operator":
        return Operator(self.domain, self.codomain, -self.matrix)

    def adjoint(self) -> "Operator":
        return Operator(self.codomain, self.domain, self.matrix.conjugate().transpose().tocsr())


def operator_sum(space: Space, ops: Iterable[Operator]) -> Operator:
    """Sum of square operators on ``space``, assembled in one COO pass.

    Each term is reduced to its coordinate arrays as it arrives, so a
    generator of terms never holds more than one of them in CSR form.
    Entries that cancel are dropped, as ``Operator.__add__`` drops them.
    """
    rows, cols, vals = [], [], []
    for op in ops:
        _check_same_space(op.domain, space)
        _check_same_space(op.codomain, space)
        coo = op.matrix.tocoo()
        rows.append(coo.row)
        cols.append(coo.col)
        vals.append(coo.data)
    return coo_sum(space, rows, cols, vals)


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


@lru_cache(maxsize=32)
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


def leg_embed(v: Operator, legs: tuple[int, int], ambient: TensorSpace) -> Operator:
    """Embed a two-factor operator into a three-factor space on legs (i, j).

    Legs are 1-based with i < j; the remaining factor carries the identity.
    ``leg_embed(V, (1, 3), ambient)`` treats the first and third components of
    an ambient basis tuple as V's input pair.
    """
    i, j = legs
    if not (1 <= i < j <= 3):
        raise ValueError(f"legs must satisfy 1 <= i < j <= 3, got {legs}")
    if len(ambient.factors) != 3:
        raise ValueError("leg_embed expects a three-factor ambient space")
    vspace = v.domain
    if v.codomain != vspace or not isinstance(vspace, TensorSpace) or len(vspace.factors) != 2:
        raise ValueError("leg_embed expects a square operator on a two-factor space")
    if ambient.factors[i - 1] != vspace.factors[0] or ambient.factors[j - 1] != vspace.factors[1]:
        raise ValueError("ambient factors at the requested legs do not match the operator")
    other = ({1, 2, 3} - {i, j}).pop()
    d_other = ambient.factors[other - 1].dim
    s = ambient.strides
    si, sj, so = s[i - 1], s[j - 1], s[other - 1]

    coo = v.matrix.tocoo()
    d2 = vspace.factors[1].dim
    ra, rb = np.divmod(coo.row, d2)
    ca, cb = np.divmod(coo.col, d2)
    t = np.arange(d_other, dtype=np.int64)
    rows = (ra[:, None] * si + rb[:, None] * sj + t[None, :] * so).ravel()
    cols = (ca[:, None] * si + cb[:, None] * sj + t[None, :] * so).ravel()
    vals = np.repeat(coo.data, d_other)
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(ambient.dim, ambient.dim))
    return Operator(ambient, ambient, mat.tocsr())


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


def vacuum_block(t: Operator, leg: int = 1) -> sparse.csr_matrix:
    """Coefficient family of a two-leg operator as one stacked vacuum column block.

    For ``leg=1`` the family {w: C_w} of T = sum_w L_w (x) C_w has
    C_w[y, x] = T[(w, y), (e, x)], the slice of T against the vacuum/word
    rank-one pair on the first leg; ``leg=2`` reads the second leg
    symmetrically.  Either way C_w[y, x] sits at row index(w) d + y and
    column x, with d the dimension of the other leg.
    """
    if leg not in (1, 2):
        raise ValueError(f"leg must be 1 or 2, got {leg}")
    first, second = _tensor_pair(t)
    if not isinstance(first if leg == 1 else second, FockSpace):
        raise ValueError(f"tensor factor {leg} is not a Fock space")
    d1, d2 = first.dim, second.dim
    if leg == 1:
        return t.matrix[:, :d2]  # the vacuum word is basis index 0
    # Columns (x, e) are every d2-th; rows (y, w) are re-keyed to (w, y).
    rekey = np.arange(d1 * d2).reshape(d1, d2).T.ravel()
    return t.matrix[:, ::d2][rekey]


@dataclass(frozen=True, eq=False)
class StackedFamily(Mapping):
    """A word-keyed family {w: B_w} of operators on ``aux``, held as one stacked CSR.

    B_w[y, x] sits at row index(w) d + y and column x of ``block`` (d the
    dimension of ``aux``), the layout of :func:`vacuum_block`.  As a mapping it
    shows, in basis order, the words whose row range stores an entry; each
    member is sliced off the CSR arrays when first read.
    """

    fock: FockSpace
    aux: Space
    block: sparse.csr_matrix

    def __post_init__(self) -> None:
        mat = self.block
        if type(mat) is not sparse.csr_matrix or mat.dtype != np.complex128:
            mat = sparse.csr_matrix(mat, dtype=np.complex128)
        if mat.shape != (self.fock.dim * self.aux.dim, self.aux.dim):
            raise ValueError(f"stacked block shape {mat.shape} does not match the spaces")
        mat.sum_duplicates()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "block", mat)

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
        d = aux.dim
        members = sorted((fock.index_of(w), op.matrix) for w, op in family.items() if op.nnz)
        counts = np.zeros((fock.dim, d), dtype=np.int64)
        for k, mat in members:
            counts[k] = np.diff(mat.indptr)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        data = np.concatenate([np.empty(0, dtype=np.complex128)] + [m.data for _, m in members])
        indices = np.concatenate([np.empty(0, dtype=np.int64)] + [m.indices for _, m in members])
        return cls(fock, aux, sparse.csr_matrix((data, indices, indptr), shape=(fock.dim * d, d)))

    @cached_property
    def support(self) -> np.ndarray:
        """Ascending basis indices of the words whose members store an entry."""
        return np.flatnonzero(np.diff(self.block.indptr[:: self.aux.dim]))

    @cached_property
    def entry_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Word index and member row of each stored entry, in storage order."""
        rows = np.repeat(np.arange(self.block.shape[0]), np.diff(self.block.indptr))
        return np.divmod(rows, self.aux.dim)

    @cached_property
    def _members(self) -> dict[Word, Operator]:
        d, block = self.aux.dim, self.block
        data, indices, indptr = block.data, block.indices, block.indptr
        members = {}
        for k in self.support:
            rows = indptr[k * d : (k + 1) * d + 1]
            lo, hi = rows[0], rows[-1]
            mat = sparse.csr_matrix((data[lo:hi], indices[lo:hi], rows - lo), shape=(d, d))
            members[self.fock.words[k]] = Operator(self.aux, self.aux, mat)
        return members

    def __getitem__(self, w: Word) -> Operator:
        return self._members[w]

    def __iter__(self) -> Iterator[Word]:
        return (self.fock.words[k] for k in self.support)

    def __len__(self) -> int:
        return int(self.support.size)


def vacuum_leg_decomposition(t: Operator, leg: int = 1) -> StackedFamily:
    """The family of :func:`vacuum_block` as a word-keyed :class:`StackedFamily`.

    Only words whose row range of the block stores an entry appear.
    """
    block = vacuum_block(t, leg)
    fock, other = _tensor_pair(t)[:: 1 if leg == 1 else -1]
    return StackedFamily(fock, other, block)


def max_abs(mat: sparse.spmatrix, columns: np.ndarray | None = None) -> float:
    """Largest entry modulus of a sparse matrix, over ``columns`` when given; 0.0 when it has no entries."""
    if columns is not None:
        mat = mat.tocsc()[:, columns]
    return float(np.abs(mat.data).max(initial=0.0))


def max_entry_diff(a: Operator, b: Operator, columns: np.ndarray | None = None) -> float:
    _check_same_space(a.domain, b.domain)
    _check_same_space(a.codomain, b.codomain)
    return max_abs(a.matrix - b.matrix, columns)
