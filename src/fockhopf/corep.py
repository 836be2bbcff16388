"""Corepresentations of the truncated shift algebra and predual representations.

A corepresentation is an operator V on H (x) K; slicing its first leg against
the vacuum/word rank-one functionals extracts a family B_w with
V = sum_w L_w (x) B_w.  At truncation the decomposition is total, and the
normative criterion is the idempotent-family condition
B_u B_v = delta_{uv} B_u, with the three-leg identity kept as an independent
cross-check.  Representations of the predual are stored by their values on
the indicator basis, where convolution is pointwise and the representation
law is exactly the same idempotent condition.

Both kinds of object hold their family as one :class:`spaces.StackedFamily`:
its entries (index(w), y, x, B_w[y, x]) in sorted arrays, built once, and
every check reads those arrays.  The law check joins the entries with
themselves on the aux index, so it needs memory linear in the joined pairs.
All characters at once are one such family, :func:`characters`, the dim
entries of the matrix units E_ww.  Basis indices of
concatenations come from the graded rule :func:`graded.concat`: directly in
:func:`fundamental_corep` and :func:`tensor_product_rep`, and through the
cached realize pattern in :func:`corep_from_rep`.  The check
:func:`shift_tensor_sum` instead joins the family entries with the entries
of each shift, built on its own by :func:`word_shift`, so it shares no index
table with the assembly it checks.  The three-leg identity
V_{1,3} V_{2,3} = sum_w L_w (x) L_w (x) B_w is an entry join too: V's
entries join themselves on the aux index and meet the entries of
:func:`shift_tensor_entries` in one keyed sum, so no operator on the
H (x) H (x) K ambient is built.  The fundamental identities compose the
index maps of W, the shifts and I, tensor legs included (``regular._map_defect``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import graded
from .predual import Functional
from .regular import FourierSeries, _map_defect, _realize_pattern, word_shift
from .spaces import (
    SCALAR_SPACE,
    AuxSpace,
    FockSpace,
    Operator,
    Space,
    StackedFamily,
    TensorSpace,
    Vector,
    _worst_defect,
    coo_sum,
    gather_groups,
    max_entry_diff,
    schoolbook_product,
    sum_by_key,
    tensor_space,
    vacuum_leg_decomposition,
)
from .words import Word

REP_LAW_TOL = 1e-9


@dataclass(eq=False)
class Corepresentation:
    """Operator on H (x) K together with its sliced decomposition family.

    ``family`` holds the entries of the operator's vacuum columns.
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

    @classmethod
    def from_operator(cls, op: Operator) -> "Corepresentation":
        """Slice the family off a square operator on H (x) K; ValueError on any other."""
        return cls(op.domain, op, vacuum_leg_decomposition(op, leg=1))


@dataclass(frozen=True)
class CorepReport:
    """The three defects of the corepresentation checks; all vanish when valid."""

    reconstruction_defect: float
    criterion_defect: float
    leg_defect: float

    @property
    def max_defect(self) -> float:
        return _worst_defect((self.reconstruction_defect, self.criterion_defect, self.leg_defect))


def shift_tensor_entries(family: StackedFamily, copies: int = 1) -> tuple[np.ndarray, ...]:
    """The entries (rows, cols, vals) of sum_w L_w (x) .. (x) L_w (``copies`` legs) (x) family[w].

    A direct join of entries: with M_w = L_w (x) .. (x) L_w, each stored
    entry M_w[i, k] = m and each stored entry B_w[y, x] = b give m b at row
    i d + y and column k d + x (d = dim K); no two share a position.  The
    shifts are read through :func:`word_shift` alone, one word at a time;
    the family entries join their word's shift entries once, after the loop.
    """
    fock, aux = family.fock, family.aux
    if not family:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.complex128)
    lrows, lcols, lvals = [], [], []
    for k in family.support:
        v, j, indptr = word_shift(fock, fock.words[k], "left").csr
        i = np.repeat(np.arange(fock.dim), np.diff(indptr))
        rows, cols, vals = i, j.astype(np.int64), v
        for _ in range(copies - 1):
            rows = (rows[:, None] * fock.dim + i).ravel()
            cols = (cols[:, None] * fock.dim + j).ravel()
            vals = (vals[:, None] * v).ravel()
        lrows.append(rows)
        lcols.append(cols)
        lvals.append(vals)
    # Family entry e takes every shift entry of its word.
    owner = np.repeat(family.support, [part.size for part in lvals])
    entry, pos = gather_groups(owner, family.word, fock.dim)
    rows = np.concatenate(lrows)[pos] * aux.dim + family.row[entry]
    cols = np.concatenate(lcols)[pos] * aux.dim + family.col[entry]
    return rows, cols, np.concatenate(lvals)[pos] * family.val[entry]


def shift_tensor_sum(family: StackedFamily, copies: int = 1) -> Operator:
    """The operator sum_w L_w (x) .. (x) L_w (x) family[w], summed in one COO pass."""
    # An aux that is itself a product stays one leg.
    space = TensorSpace((*[family.fock] * copies, family.aux))
    rows, cols, vals = shift_tensor_entries(family, copies)
    return coo_sum(space, [rows], [cols], [vals])


def idempotent_family_defect(family: StackedFamily) -> float:
    """Largest entrywise failure of F_u F_v = delta_{uv} F_u over word pairs.

    Zero components satisfy every pair they touch, so only the stored
    entries matter.  An entry join: each stored (u, y, x, a) pairs with every
    stored (v, x, z, b), the products a b (rounded as :func:`spaces.schoolbook_product`
    rounds them) sum per key (u, y, v, z) over x ascending, and each stored
    F_u[y, z] is then subtracted at (u, y, u, z), the order of a sparse
    product followed by its difference.  Memory is linear in the joined pairs.
    """
    u, y, x, a = family.word, family.row, family.col, family.val
    left, right = gather_groups(y, x, family.aux.dim)  # right in (v, z) order
    pairs = ((u[left], u), (y[left], y), (u[right], u), (x[right], x))
    keys = [np.concatenate(pair) for pair in pairs]
    products = sum_by_key(keys, np.concatenate((schoolbook_product(a[left], a[right]), -a)))[1]
    return float(np.abs(products).max(initial=0.0))


def criterion_defect(corep: Corepresentation) -> float:
    """Largest entrywise failure of B_u B_v = delta_{uv} B_u over word pairs."""
    return idempotent_family_defect(corep.family)


def leg_identity_defect(corep: Corepresentation) -> float:
    """Entrywise defect of V_{1,3} V_{2,3} = sum_w L_w (x) L_w (x) B_w.

    An entry join: (V_{1,3} V_{2,3})[(a, b, y), (c, e, z)] is the sum over m
    of V[(a, y), (c, m)] V[(b, m), (e, z)], so each stored entry of V pairs
    with every stored entry whose row has aux index m.  The products sum per
    key over m ascending, and the entries of :func:`shift_tensor_entries`
    at two copies are then subtracted, the order of a sparse product
    followed by its difference.  Memory is linear in the joined pairs; the
    right-hand side reads the shifts through :func:`word_shift` alone.
    """
    dim, dk = corep.hilbert.dim, corep.aux.dim
    rows, cols, data = corep.operator.coo()
    a, y = np.divmod(rows, dk)
    c, m = np.divmod(cols.astype(np.int64), dk)
    left, right = gather_groups(y, m, dk)
    rhs_rows, rhs_cols, rhs_vals = shift_tensor_entries(corep.family, copies=2)
    rows = np.concatenate(((a[left] * dim + a[right]) * dk + y[left], rhs_rows))
    cols = np.concatenate(((c[left] * dim + c[right]) * dk + m[right], rhs_cols))
    vals = np.concatenate((schoolbook_product(data[left], data[right]), -rhs_vals))
    return float(np.abs(sum_by_key([rows, cols], vals)[1]).max(initial=0.0))


def _reconstruction_defect(corep: Corepresentation) -> float:
    """Entrywise defect of V = sum_w L_w (x) B_w."""
    return max_entry_diff(corep.operator, shift_tensor_sum(corep.family))


def corep_check(corep: Corepresentation | Operator) -> CorepReport:
    """Run the reconstruction, idempotent-criterion, and leg-identity checks."""
    if isinstance(corep, Operator):
        corep = Corepresentation.from_operator(corep)
    recon = _reconstruction_defect(corep)
    crit = criterion_defect(corep)
    return CorepReport(recon, crit, leg_identity_defect(corep))


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
    """Defect of (L_w (x) L_w) W = W (I (x) L_w) on the slack-|w| safe zone, composed as index maps."""
    w_op, shift = fundamental_corep(space).operator, word_shift(space, w, "left")
    cols = graded.within(space, space.depth - len(w), fold=2)
    return _map_defect(((shift, shift), w_op), (w_op, (Operator.identity(space), shift)), cols)


def fundamental_right_commutation_defect(space: FockSpace, u: Word) -> float:
    """Defect of W (R_u (x) I) = (R_u (x) I) W on the slack-|u| safe zone, composed as index maps."""
    w_op, side = fundamental_corep(space).operator, (word_shift(space, u, "right"), Operator.identity(space))
    cols = graded.within(space, space.depth - len(u), fold=2)
    return _map_defect((w_op, side), (side, w_op), cols)


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
        if not self.law_defect <= REP_LAW_TOL:
            raise ValueError(
                f"family violates the representation law (defect {self.law_defect:.3e})"
            )

    def evaluate(self, f: Functional) -> Operator:
        """Image of a general functional: sum_w phi(L_w) pi_w, in one COO pass over the stack."""
        if f.space != self.space:
            raise ValueError("functional lives on a different space")
        fam = self.family
        return coo_sum(self.aux, [fam.row], [fam.col], [fam.val * f.values[fam.word]])

    @classmethod
    def character(cls, space: FockSpace, w: Word) -> "PredualRep":
        """The one-dimensional representation picking out the word w."""
        return cls(space, SCALAR_SPACE, {w: Operator.identity(SCALAR_SPACE)})


def rep_from_corep(corep: Corepresentation) -> PredualRep:
    """The representation phi -> (phi (x) id)(V); valid coreps only.

    The constructor of :class:`PredualRep` checks the representation law on
    the corepresentation's own stacked family.
    """
    recon = _reconstruction_defect(corep)
    if not recon <= REP_LAW_TOL:
        raise ValueError(f"operator is not a corepresentation (reconstruction defect {recon:.3e})")
    return PredualRep(corep.hilbert, corep.aux, corep.family)


def corep_from_rep(rep: PredualRep, space: FockSpace) -> Corepresentation:
    """Build V from the bilinear pairing (V(xi_a (x) x), xi_b (x) y) = (pi([xi_a xi_b*]) x, y).

    The rank-one functional of a word basis pair (a, b) is the indicator of
    the prefix u with b = u a, so V assembles from the stacked family: each
    stored entry (y, x) of pi_u pairs with every entry (index(u a), index(a))
    that the realize pattern of the depth assigns to u, landing at row
    index(u a) dk + y and column index(a) dk + x.  The result is verified
    entrywise against :func:`shift_tensor_sum`, the entry join of
    sum_w L_w (x) pi_w whose shifts come from :func:`word_shift` alone.
    """
    if rep.space != space:
        raise ValueError("representation indicator basis does not match the space")
    pair = TensorSpace((space, rep.aux))
    family, dk = rep.family, rep.aux.dim
    indptr, source, owner = _realize_pattern(space, space.depth, 1)
    image = np.repeat(np.arange(space.dim), np.diff(indptr))
    # Family entry e takes every pattern entry of its word.
    entry, pos = gather_groups(owner, family.word, space.dim)
    rows = image[pos] * dk + family.row[entry]
    cols = source[pos] * dk + family.col[entry]
    v = Operator.from_entries(pair, pair, rows, cols, family.val[entry])

    check = shift_tensor_sum(family)
    if max_entry_diff(v, check) != 0.0:
        raise AssertionError("bilinear assembly disagrees with the tensor-product sum")
    return Corepresentation.from_operator(v)


def characters(space: FockSpace) -> PredualRep:
    """Every character at once: the direct sum of the chi_w on C^dim.

    Member w is the matrix unit E_ww, so the family is the dim entries
    (index(w), index(w), index(w), 1).  It is block-diagonal in the aux
    index, so its one law check, and any defect taken on it, is the maximum
    over the characters one by one.
    """
    aux, k = AuxSpace(space.dim), np.arange(space.dim)
    return PredualRep(space, aux, StackedFamily(space, aux, k, k, k, np.ones(space.dim)))


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

    Each stored entry pi_w[r, s] = b adds b x_s to (pi_w x)_r, in column
    order, and each (pi_w x)_r then adds its product with conj(y_r) to c_w.
    """
    if x.space != rep.aux or y.space != rep.aux:
        raise ValueError("coefficient vectors must live on the auxiliary space")
    fam = rep.family
    (word, row), images = sum_by_key([fam.word, fam.row], fam.val * x.data[fam.col])
    coeffs = np.zeros(rep.space.dim, dtype=np.complex128)
    np.add.at(coeffs, word, images * np.conj(y.data[row]))
    return FourierSeries(rep.space.alphabet, coeffs)


def tensor_product_rep(r1: PredualRep, r2: PredualRep) -> PredualRep:
    """Multiplication of representations through the predual comultiplication.

    The component at w collects every factorization w = u v:
    (r1 x r2)_w = sum_{uv=w} pi1_u (x) pi2_v on K1 (x) K2.  Each pair of
    stored entries pi1_u[y1, x1] = a and pi2_v[y2, x2] = b with
    |u| + |v| <= depth adds a b to the entry (index(u v), y1 d2 + y2,
    x1 d2 + x2) of the product family; entries that sum to zero are dropped.
    """
    if r1.space != r2.space:
        raise ValueError("representations have different indicator bases")
    space = r1.space
    aux = tensor_space(r1.aux, r2.aux)
    f1, f2, d2 = r1.family, r2.family, r2.aux.dim
    (ku, ru), (kv, rv) = graded.length_rank(space, f1.word), graded.length_rank(space, f2.word)
    i, j = np.nonzero(ku[:, None] + kv[None, :] <= space.depth)
    word = graded.concat(space, ku[i], ru[i], kv[j], rv[j])
    keys = [word, f1.row[i] * d2 + f2.row[j], f1.col[i] * d2 + f2.col[j]]
    keys, vals = sum_by_key(keys, f1.val[i] * f2.val[j])
    keep = vals != 0
    return PredualRep(space, aux, StackedFamily(space, aux, *(k[keep] for k in keys), vals[keep]))
