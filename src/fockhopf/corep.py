"""Corepresentations of the truncated shift algebra and predual representations.

A corepresentation is an operator V on H (x) K; slicing its first leg against
the vacuum/word rank-one functionals extracts a family B_w with
V = sum_w L_w (x) B_w.  At truncation the decomposition is total, and the
normative criterion is the idempotent-family condition
B_u B_v = delta_{uv} B_u, with the three-leg identity kept as an independent
cross-check.  Representations of the predual are stored by their values on
the indicator basis, where convolution is pointwise and the representation
law is exactly the same idempotent condition.

Both kinds of object hold their family as one :class:`spaces.StackedFamily`
(B_w[y, x] at row index(w) dim K + y, column x), built once, and every check
reads that stack.  All characters at once are one such family,
:func:`characters`, the diagonal of the matrix units E_ww.  Basis indices of
concatenations come from the graded rule :func:`graded.concat`: directly in
:func:`fundamental_corep` and :func:`tensor_product_rep`, and through the
cached realize pattern in :func:`corep_from_rep`.  The check
:func:`shift_tensor_sum` instead joins the family entries with the entries
of each shift, built on its own by :func:`word_shift`, so it shares no index
table with the assembly it checks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from scipy import sparse

from . import graded
from .predual import Functional
from .regular import FourierSeries, _realize_pattern, word_shift
from .spaces import (
    SCALAR_SPACE,
    AuxSpace,
    FockSpace,
    Operator,
    Space,
    StackedFamily,
    TensorSpace,
    Vector,
    coo_sum,
    leg_embed,
    max_abs,
    max_entry_diff,
    tensor_op,
    tensor_space,
    vacuum_leg_decomposition,
)
from .words import Word

REP_LAW_TOL = 1e-9
# Every character's one member; an Operator is immutable, so they share it.
_SCALAR_ONE = Operator.identity(SCALAR_SPACE)


@dataclass(eq=False)
class Corepresentation:
    """Operator on H (x) K together with its sliced decomposition family.

    ``family`` is the stacked vacuum column block of the operator.
    """

    space: TensorSpace
    operator: Operator
    family: StackedFamily

    @property
    def hilbert(self) -> FockSpace:
        fock = self.space.factors[0]
        assert isinstance(fock, FockSpace)
        return fock

    @property
    def aux(self) -> Space:
        return self.space.factors[1]

    def component(self, w: Word) -> Operator:
        return self.family[w] if w in self.family else Operator.zero(self.aux)

    @classmethod
    def from_operator(cls, op: Operator) -> "Corepresentation":
        space = op.domain
        if op.codomain != space or not isinstance(space, TensorSpace) or len(space.factors) != 2:
            raise ValueError("a corepresentation operator must be square on a two-factor space")
        fock = space.factors[0]
        if not isinstance(fock, FockSpace):
            raise ValueError("the first tensor factor must be a Fock space")
        return cls(space, op, vacuum_leg_decomposition(op, leg=1))


@dataclass(frozen=True)
class CorepReport:
    """The three defects of the corepresentation checks; all vanish when valid."""

    reconstruction_defect: float
    criterion_defect: float
    leg_defect: float | None = None

    @property
    def max_defect(self) -> float:
        legs = self.leg_defect if self.leg_defect is not None else 0.0
        return max(self.reconstruction_defect, self.criterion_defect, legs)


def shift_tensor_sum(family: StackedFamily, copies: int = 1) -> Operator:
    """The sum over w of L_w (x) .. (x) L_w (``copies`` legs) (x) family[w].

    A direct join of entries: with M_w = L_w (x) .. (x) L_w, each stored
    entry M_w[i, k] = m and each stored entry B_w[y, x] = b give m b at row
    i d + y and column k d + x (d = dim K), all summed in one COO pass.  The
    shifts are read through :func:`word_shift` alone, one word at a time;
    the family entries join their word's shift entries once, after the loop.
    """
    fock, aux = family.fock, family.aux
    space = TensorSpace((*[fock] * copies, aux))  # an aux that is itself a product stays one leg
    if not family:
        return Operator.zero(space)
    lrows, lcols, lvals = [], [], []
    for k in family.support:
        shift = word_shift(fock, fock.words[k], "left").matrix
        i, j, v = np.repeat(np.arange(fock.dim), np.diff(shift.indptr)), shift.indices, shift.data
        rows, cols, vals = i, j.astype(np.int64), v
        for _ in range(copies - 1):
            rows = (rows[:, None] * fock.dim + i).ravel()
            cols = (cols[:, None] * fock.dim + j).ravel()
            vals = (vals[:, None] * v).ravel()
        lrows.append(rows)
        lcols.append(cols)
        lvals.append(vals)
    # Shift entries are grouped by word in support order; family entry e
    # takes every entry of its word's group.
    counts = np.array([part.size for part in lvals])
    word, y = family.entry_rows
    block, d = family.block, aux.dim
    group = np.searchsorted(family.support, word)
    reps = counts[group]
    entry = np.repeat(np.arange(word.size), reps)
    first = (np.cumsum(counts) - counts)[group] - (np.cumsum(reps) - reps)
    pos = np.arange(entry.size) + np.repeat(first, reps)
    rows = np.concatenate(lrows)[pos] * d + y[entry]
    cols = np.concatenate(lcols)[pos] * d + block.indices[entry]
    return coo_sum(space, [rows], [cols], [np.concatenate(lvals)[pos] * block.data[entry]])


def idempotent_family_defect(family: StackedFamily) -> float:
    """Largest entrywise failure of F_u F_v = delta_{uv} F_u over word pairs.

    Zero components satisfy every pair they touch, so only the stored
    members matter.  Block (u, v) of vstack(F) @ hstack(F) is F_u F_v, so one
    sparse multiply against block_diag(F) covers every pair.  The stack is
    vstack(F) with a block per basis word, and the other two operands are
    read off its arrays: F_w[y, x] sits at column index(w) d + x of both,
    in row y of hstack(F) and in the stack's own row of block_diag(F).
    """
    block = family.block
    if not block.nnz:
        return 0.0
    size, d = block.shape
    word, y = family.entry_rows
    cols = word * d + block.indices
    order = np.argsort(y, kind="stable")
    hstack = sparse.csr_matrix(
        (block.data[order], cols[order], np.concatenate(([0], np.cumsum(np.bincount(y, minlength=d))))),
        shape=(d, size),
    )
    diag = sparse.csr_matrix((block.data, cols, block.indptr), shape=(size, size))
    return max_abs(block @ hstack - diag)


def criterion_defect(corep: Corepresentation) -> float:
    """Largest entrywise failure of B_u B_v = delta_{uv} B_u over word pairs."""
    return idempotent_family_defect(corep.family)


def leg_identity_defect(corep: Corepresentation) -> float:
    """Entrywise defect of V_{1,3} V_{2,3} = sum_w L_w (x) L_w (x) B_w."""
    fock = corep.hilbert
    ambient = TensorSpace((fock, fock, corep.aux))
    v13 = leg_embed(corep.operator, (1, 3), ambient)
    v23 = leg_embed(corep.operator, (2, 3), ambient)
    rhs = shift_tensor_sum(corep.family, copies=2)
    return max_entry_diff(v13 @ v23, rhs)


def _reconstruction_defect(corep: Corepresentation) -> float:
    """Entrywise defect of V = sum_w L_w (x) B_w."""
    return max_entry_diff(corep.operator, shift_tensor_sum(corep.family))


def corep_check(corep: Corepresentation | Operator, legs: bool = True) -> CorepReport:
    """Run the reconstruction, idempotent-criterion, and leg-identity checks."""
    if isinstance(corep, Operator):
        corep = Corepresentation.from_operator(corep)
    recon = _reconstruction_defect(corep)
    crit = criterion_defect(corep)
    leg = leg_identity_defect(corep) if legs else None
    return CorepReport(recon, crit, leg)


def fundamental_corep(space: FockSpace) -> Corepresentation:
    """The word-swap isometry (xi_u (x) xi_v) -> (xi_{vu} (x) xi_v) on H (x) H.

    Its decomposition family is the diagonal of rank-one word projections, so
    every corepresentation check is exact.  For |u| = a and |v| = b the
    entries are one :func:`graded.concat` broadcast over the block ranks.
    """
    pair = tensor_space(space, space)
    starts, dim = space._block_starts, space.dim
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    for a, b in graded.splits(space.depth):
        ru, rv = np.ix_(np.arange(space.n**a), np.arange(space.n**b))
        v = starts[b] + rv
        row_parts.append((graded.concat(space, b, rv, a, ru) * dim + v).ravel())
        col_parts.append(((starts[a] + ru) * dim + v).ravel())
    rows, cols = np.concatenate(row_parts), np.concatenate(col_parts)
    op = Operator.from_entries(pair, pair, rows, cols, np.ones(rows.size))
    return Corepresentation.from_operator(op)


def fundamental_intertwining_defect(space: FockSpace, w: Word) -> float:
    """Defect of (L_w (x) L_w) W = W (I (x) L_w) on the slack-|w| safe zone."""
    corep = fundamental_corep(space)
    shift = word_shift(space, w, "left")
    lhs = tensor_op(shift, shift) @ corep.operator
    rhs = corep.operator @ tensor_op(Operator.identity(space), shift)
    cols = graded.within(space, space.depth - len(w), fold=2)
    return max_entry_diff(lhs, rhs, cols)


def fundamental_right_commutation_defect(space: FockSpace, u: Word) -> float:
    """Defect of W (R_u (x) I) = (R_u (x) I) W on the slack-|u| safe zone."""
    corep = fundamental_corep(space)
    side = tensor_op(word_shift(space, u, "right"), Operator.identity(space))
    cols = graded.within(space, space.depth - len(u), fold=2)
    return max_entry_diff(corep.operator @ side, side @ corep.operator, cols)


@dataclass(eq=False)
class PredualRep:
    """Representation of the predual via its values on the indicator basis.

    ``family[w]`` is the image of the indicator functional of w; missing words
    act as zero.  Any word-keyed mapping is stacked on construction (a
    :class:`spaces.StackedFamily` on the same spaces is kept as it is), and
    the representation law is validated on the stack.
    """

    space: FockSpace
    aux: Space
    family: Mapping[Word, Operator]
    law_defect: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.family, StackedFamily):
            self.family = StackedFamily.from_members(self.space, self.aux, self.family)
        elif self.family.fock != self.space or self.family.aux != self.aux:
            raise ValueError("stacked family lives on different spaces")
        self.law_defect = idempotent_family_defect(self.family)
        if self.law_defect > REP_LAW_TOL:
            raise ValueError(
                f"family violates the representation law (defect {self.law_defect:.3e})"
            )

    def component(self, w: Word) -> Operator:
        return self.family[w] if w in self.family else Operator.zero(self.aux)

    def evaluate(self, f: Functional) -> Operator:
        """Image of a general functional: sum_w phi(L_w) pi_w, in one COO pass over the stack."""
        if f.space != self.space:
            raise ValueError("functional lives on a different space")
        block = self.family.block
        word, y = self.family.entry_rows
        return coo_sum(self.aux, [y], [block.indices], [block.data * f.values[word]])

    @classmethod
    def character(cls, space: FockSpace, w: Word) -> "PredualRep":
        """The one-dimensional representation picking out the word w."""
        return cls(space, SCALAR_SPACE, {w: _SCALAR_ONE})


def rep_from_corep(corep: Corepresentation) -> PredualRep:
    """The representation phi -> (phi (x) id)(V); valid coreps only.

    The constructor of :class:`PredualRep` checks the representation law on
    the corepresentation's own stacked family.
    """
    recon = _reconstruction_defect(corep)
    if recon > REP_LAW_TOL:
        raise ValueError(f"operator is not a corepresentation (reconstruction defect {recon:.3e})")
    return PredualRep(corep.hilbert, corep.aux, corep.family)


def corep_from_rep(rep: PredualRep, space: FockSpace) -> Corepresentation:
    """Build V from the bilinear pairing (V(xi_a (x) x), xi_b (x) y) = (pi([xi_a xi_b*]) x, y).

    The rank-one functional of a word basis pair (a, b) is the indicator of
    the prefix u with b = u a, so V assembles from the stacked family: each
    stored entry (y, x) of pi_u pairs with every entry (index(u a), index(a))
    that the realize pattern of the depth assigns to u, landing at row
    index(u a) dk + y and column index(a) dk + x.  The result is verified
    entrywise against the independent Kronecker-product sum
    sum_w L_w (x) pi_w, whose shifts come from :func:`word_shift`.
    """
    if rep.space != space:
        raise ValueError("representation indicator basis does not match the space")
    pair = TensorSpace((space, rep.aux))
    family, dk = rep.family, rep.aux.dim
    block, (word, y) = family.block, family.entry_rows
    indptr, source, owner = _realize_pattern(space, space.depth, 1)
    image = np.repeat(np.arange(space.dim), np.diff(indptr))
    # Pattern entries grouped by owner word; family entry e takes the group of its word.
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=space.dim)
    reps = counts[word]
    entry = np.repeat(np.arange(word.size), reps)
    first = (np.cumsum(counts) - counts)[word] - (np.cumsum(reps) - reps)
    pos = order[np.arange(entry.size) + np.repeat(first, reps)]
    rows = image[pos] * dk + y[entry]
    cols = source[pos] * dk + block.indices[entry]
    v = Operator.from_entries(pair, pair, rows, cols, block.data[entry])

    check = shift_tensor_sum(family)
    if max_entry_diff(v, check) != 0.0:
        raise AssertionError("bilinear assembly disagrees with the tensor-product sum")
    return Corepresentation.from_operator(v)


def characters(space: FockSpace) -> PredualRep:
    """Every character at once: the direct sum of the chi_w on C^dim.

    Member w is the matrix unit E_ww, so the stack holds a single 1 at row
    index(w) (dim + 1) and column index(w).  The family is block-diagonal in
    the aux index, so its one law check, and any defect taken on it, is the
    maximum over the characters one by one.
    """
    dim, aux, k = space.dim, AuxSpace(space.dim), np.arange(space.dim)
    stack = sparse.csr_matrix((np.ones(dim), (k * (dim + 1), k)), shape=(dim * dim, dim))
    return PredualRep(space, aux, StackedFamily(space, aux, stack))


def spectrum(space: FockSpace) -> list[Word]:
    """All characters of the truncated convolution algebra, as words.

    A character is a nonzero scalar family with b_u b_v = delta_{uv} b_u,
    which forces a single indicator; the words of length <= depth enumerate
    them.  They are read off the support of the law-checked diagonal family
    :func:`characters`.
    """
    return list(characters(space).family)


def coefficient_operator(rep: PredualRep, x: Vector, y: Vector) -> FourierSeries:
    """The series c with c_w = (pi_w x, y), realizable inside the shift algebra.

    One product of the stack with x gives every pi_w x, one block per word.
    """
    if x.space != rep.aux or y.space != rep.aux:
        raise ValueError("coefficient vectors must live on the auxiliary space")
    images = (rep.family.block @ x.data).reshape(rep.space.dim, rep.aux.dim)
    return FourierSeries(rep.space.alphabet, images @ np.conj(y.data))


def tensor_product_rep(r1: PredualRep, r2: PredualRep) -> PredualRep:
    """Multiplication of representations through the predual comultiplication.

    The component at w collects every factorization w = u v:
    (r1 x r2)_w = sum_{uv=w} pi1_u (x) pi2_v on K1 (x) K2.  Each pair of
    stored entries pi1_u[y1, x1] = a and pi2_v[y2, x2] = b with
    |u| + |v| <= depth adds a b at row index(u v) d1 d2 + y1 d2 + y2 and
    column x1 d2 + x2 of the product stack.
    """
    if r1.space != r2.space:
        raise ValueError("representations have different indicator bases")
    space = r1.space
    aux = tensor_space(r1.aux, r2.aux)
    b1, b2, d2 = r1.family.block, r2.family.block, r2.aux.dim
    (u, y1), (v, y2) = r1.family.entry_rows, r2.family.entry_rows
    (ku, ru), (kv, rv) = graded.length_rank(space, u), graded.length_rank(space, v)
    i, j = np.nonzero(ku[:, None] + kv[None, :] <= space.depth)
    rows = graded.concat(space, ku[i], ru[i], kv[j], rv[j]) * aux.dim + y1[i] * d2 + y2[j]
    cols = b1.indices[i] * d2 + b2.indices[j]
    entries = (b1.data[i] * b2.data[j], (rows, cols))
    stack = sparse.coo_matrix(entries, shape=(space.dim * aux.dim, aux.dim)).tocsr()
    stack.eliminate_zeros()
    return PredualRep(space, aux, StackedFamily(space, aux, stack))
