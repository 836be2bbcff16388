"""Corepresentations of the truncated shift algebra and predual representations.

A corepresentation is an operator V on H (x) K; slicing its first leg against
the vacuum/word rank-one functionals extracts a family B_w with
V = sum_w L_w (x) B_w.  At truncation the decomposition is total, and the
normative criterion is the idempotent-family condition
B_u B_v = delta_{uv} B_u, with the three-leg identity kept as an independent
cross-check.  Representations of the predual are stored by their values on
the indicator basis, where convolution is pointwise and the representation
law is exactly the same idempotent condition.

Basis indices of concatenations come from the graded rule
:func:`graded.concat` (directly in :func:`fundamental_corep`, through the
shift index tables in :func:`corep_from_rep`); the independent checks sum
Kronecker products instead (:func:`shift_tensor_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from scipy import sparse

from . import graded
from .predual import Functional
from .regular import FourierSeries, shift_index_table, word_shift
from .spaces import (
    SCALAR_SPACE,
    FockSpace,
    Operator,
    Space,
    TensorSpace,
    Vector,
    coo_sum,
    inner,
    leg_embed,
    max_abs,
    max_entry_diff,
    operator_sum,
    tensor_op,
    tensor_space,
    vacuum_leg_decomposition,
)
from .words import Word

REP_LAW_TOL = 1e-9


@dataclass(eq=False)
class Corepresentation:
    """Operator on H (x) K together with its sliced decomposition family."""

    space: TensorSpace
    operator: Operator
    family: dict[Word, Operator]

    @property
    def hilbert(self) -> FockSpace:
        fock = self.space.factors[0]
        assert isinstance(fock, FockSpace)
        return fock

    @property
    def aux(self) -> Space:
        return self.space.factors[1]

    def component(self, w: Word) -> Operator:
        return self.family.get(w, Operator.zero(self.aux))

    @classmethod
    def from_operator(cls, op: Operator) -> "Corepresentation":
        space = op.domain
        if op.codomain != space or not isinstance(space, TensorSpace) or len(space.factors) != 2:
            raise ValueError("a corepresentation operator must be square on a two-factor space")
        fock = space.factors[0]
        if not isinstance(fock, FockSpace):
            raise ValueError("the first tensor factor must be a Fock space")
        family = vacuum_leg_decomposition(op, leg=1)
        return cls(space, op, family)


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


def shift_tensor_sum(
    fock: FockSpace, aux: Space, family: dict[Word, Operator], copies: int = 1
) -> Operator:
    """The Kronecker-product sum over w of L_w (x) .. (x) L_w (``copies`` legs) (x) family[w]."""
    space = tensor_space(*([fock] * copies), aux)
    terms = []
    for w, b in family.items():
        shift = word_shift(fock, w, "left").matrix
        terms.append(sparse.kron(reduce(sparse.kron, [shift] * copies), b.matrix, format="coo"))
    return coo_sum(space, [t.row for t in terms], [t.col for t in terms], [t.data for t in terms])


def idempotent_family_defect(family: dict[Word, Operator], aux: Space) -> float:
    """Largest entrywise failure of F_u F_v = delta_{uv} F_u over word pairs.

    Zero components satisfy every pair they touch, so only the stored
    (nonzero) operators matter.  Block (u, v) of vstack(F) @ hstack(F) is
    F_u F_v, so one sparse multiply against block_diag(F) covers every pair.
    """
    mats = [op.matrix for op in family.values() if op.nnz]
    if not mats:
        return 0.0
    products = sparse.vstack(mats, format="csr") @ sparse.hstack(mats, format="csr")
    return max_abs(products - sparse.block_diag(mats, format="csr"))


def criterion_defect(corep: Corepresentation) -> float:
    """Largest entrywise failure of B_u B_v = delta_{uv} B_u over word pairs."""
    return idempotent_family_defect(corep.family, corep.aux)


def leg_identity_defect(corep: Corepresentation) -> float:
    """Entrywise defect of V_{1,3} V_{2,3} = sum_w L_w (x) L_w (x) B_w."""
    fock = corep.hilbert
    ambient = tensor_space(fock, fock, corep.aux)
    v13 = leg_embed(corep.operator, (1, 3), ambient)
    v23 = leg_embed(corep.operator, (2, 3), ambient)
    rhs = shift_tensor_sum(fock, corep.aux, corep.family, copies=2)
    return max_entry_diff(v13 @ v23, rhs)


def corep_check(corep: Corepresentation | Operator, legs: bool = True) -> CorepReport:
    """Run the reconstruction, idempotent-criterion, and leg-identity checks."""
    if isinstance(corep, Operator):
        corep = Corepresentation.from_operator(corep)
    recon = max_entry_diff(corep.operator, shift_tensor_sum(corep.hilbert, corep.aux, corep.family))
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
    act as zero.  The representation law is validated on construction.
    """

    space: FockSpace
    aux: Space
    family: dict[Word, Operator]
    law_defect: float = field(init=False)

    def __post_init__(self) -> None:
        clean: dict[Word, Operator] = {}
        for w, op in self.family.items():
            if len(w) > self.space.depth:
                raise ValueError(f"family word {w} exceeds depth {self.space.depth}")
            if op.domain != self.aux or op.codomain != self.aux:
                raise ValueError("family operators must be square on the auxiliary space")
            if op.nnz:
                clean[w] = op
        self.family = clean
        self.law_defect = idempotent_family_defect(self.family, self.aux)
        if self.law_defect > REP_LAW_TOL:
            raise ValueError(
                f"family violates the representation law (defect {self.law_defect:.3e})"
            )

    def component(self, w: Word) -> Operator:
        return self.family.get(w, Operator.zero(self.aux))

    def evaluate(self, f: Functional) -> Operator:
        """Image of a general functional: sum_w phi(L_w) pi_w, in one COO pass."""
        if f.space != self.space:
            raise ValueError("functional lives on a different space")
        mats = [op.matrix for op in self.family.values()]
        weights = f.values[[self.space.index_of(w) for w in self.family]]
        rows = [np.repeat(np.arange(self.aux.dim), np.diff(m.indptr)) for m in mats]
        vals = [m.data * x for m, x in zip(mats, weights)]
        return coo_sum(self.aux, rows, [m.indices for m in mats], vals)

    @classmethod
    def character(cls, space: FockSpace, w: Word) -> "PredualRep":
        """The one-dimensional representation picking out the word w."""
        one = Operator.from_entries(SCALAR_SPACE, SCALAR_SPACE, [0], [0], [1.0])
        return cls(space, SCALAR_SPACE, {w: one})

    @classmethod
    def trivial(cls, space: FockSpace, aux: Space) -> "PredualRep":
        """Unit for the tensor product: the identity sitting at the empty word."""
        return cls(space, aux, {Word(): Operator.identity(aux)})


def rep_from_corep(corep: Corepresentation) -> PredualRep:
    """The representation phi -> (phi (x) id)(V); valid coreps only.

    The constructor of :class:`PredualRep` checks the representation law.
    """
    recon = max_entry_diff(corep.operator, shift_tensor_sum(corep.hilbert, corep.aux, corep.family))
    if recon > REP_LAW_TOL:
        raise ValueError(f"operator is not a corepresentation (reconstruction defect {recon:.3e})")
    return PredualRep(corep.hilbert, corep.aux, dict(corep.family))


def corep_from_rep(rep: PredualRep, space: FockSpace) -> Corepresentation:
    """Build V from the bilinear pairing (V(xi_a (x) x), xi_b (x) y) = (pi([xi_a xi_b*]) x, y).

    The rank-one functional of a word basis pair (a, b) is the indicator of
    the prefix u with b = u a, so V assembles block-wise from the family: pi_u
    lands at row index(u a) dk and column index(a) dk, read off the shift
    index table of u.  The result is verified entrywise against the
    independent Kronecker-product sum sum_w L_w (x) pi_w.
    """
    if rep.space != space:
        raise ValueError("representation indicator basis does not match the space")
    pair = tensor_space(space, rep.aux)
    dk = rep.aux.dim
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for u, pu in rep.family.items():
        coo = pu.matrix.tocoo()
        table = shift_index_table(space, u)
        rows.append((table[:, None] * dk + coo.row).ravel())
        cols.append((np.arange(table.size)[:, None] * dk + coo.col).ravel())
        vals.append(np.tile(coo.data, table.size))
    v = Operator.from_entries(pair, pair, *(np.concatenate(parts) for parts in (rows, cols, vals)))

    check = shift_tensor_sum(space, rep.aux, rep.family)
    if max_entry_diff(v, check) != 0.0:
        raise AssertionError("bilinear assembly disagrees with the tensor-product sum")
    return Corepresentation.from_operator(v)


def spectrum(space: FockSpace) -> list[Word]:
    """All characters of the truncated convolution algebra, as words.

    A character is a nonzero scalar family with b_u b_v = delta_{uv} b_u,
    which forces a single indicator; the words of length <= depth enumerate
    them, one evaluation character per word.
    """
    chars: list[Word] = []
    for w in space.words:
        rep = PredualRep.character(space, w)
        if rep.law_defect == 0.0 and rep.family:
            chars.append(w)
    return chars


def coefficient_operator(rep: PredualRep, x: Vector, y: Vector) -> FourierSeries:
    """The series c with c_w = (pi_w x, y), realizable inside the shift algebra."""
    if x.space != rep.aux or y.space != rep.aux:
        raise ValueError("coefficient vectors must live on the auxiliary space")
    return FourierSeries(
        rep.space.alphabet,
        {w: inner(op.apply(x), y) for w, op in rep.family.items()},
    )


def tensor_product_rep(r1: PredualRep, r2: PredualRep) -> PredualRep:
    """Multiplication of representations through the predual comultiplication.

    The component at w collects every factorization w = u v:
    (r1 x r2)_w = sum_{uv=w} pi1_u (x) pi2_v on K1 (x) K2.
    """
    if r1.space != r2.space:
        raise ValueError("representations have different indicator bases")
    space = r1.space
    aux = tensor_space(r1.aux, r2.aux)
    terms: dict[Word, list[Operator]] = {}
    for u, pu in r1.family.items():
        for v, pv in r2.family.items():
            w = u.concat(v)
            if len(w) <= space.depth:
                terms.setdefault(w, []).append(tensor_op(pu, pv))
    return PredualRep(space, aux, {w: operator_sum(aux, ops) for w, ops in terms.items()})
