"""Comultiplication on the truncated shift algebra and its exact axioms.

The comultiplication sends a generator shift to its tensor square, so a
series sum a_w L_w maps to the diagonal form sum a_w (L_w (x) .. (x) L_w).
Working directly on the Fourier data keeps every axiom check exact: the
coassociativity, cocommutativity, homomorphism, and integral-invariance
defects are all contractually zero on their safe zones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .regular import FourierSeries, realize, shift_index_table
from .spaces import (
    FockSpace,
    Operator,
    SafeZone,
    TensorSpace,
    basis_vector,
    flip_operator,
    max_abs,
    max_entry_diff,
    slice_left,
    slice_right,
    tensor_op,
    tensor_space,
    vacuum_leg_decomposition,
)
from .words import Word


@dataclass(eq=False)
class DeltaImage:
    """A comultiplied series together with its realized tensor operator."""

    series: FourierSeries
    space: FockSpace
    fold: int
    operator: Operator


def comult(series: FourierSeries, space: FockSpace, fold: int = 2) -> DeltaImage:
    """Realize sum a_w (L_w)^(x fold) on the fold-wise tensor power.

    Each word shift is a partial basis permutation, so the tensor power
    assembles directly from the shift index tables without forming Kronecker
    factors.
    """
    if fold < 2:
        raise ValueError(f"fold must be >= 2, got {fold}")
    if series.degree > space.depth:
        raise ValueError(f"series degree {series.degree} exceeds depth {space.depth}")
    target = tensor_space(*([space] * fold))
    dim = space.dim
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for w, c in series.items():
        table = shift_index_table(space, w)
        src = np.arange(table.size, dtype=np.int64)
        rows, cols = table, src
        for _ in range(fold - 1):
            rows = (rows[:, None] * dim + table[None, :]).ravel()
            cols = (cols[:, None] * dim + src[None, :]).ravel()
        rows_parts.append(rows)
        cols_parts.append(cols)
        vals_parts.append(np.full(rows.size, c, dtype=np.complex128))
    if rows_parts:
        mat = sparse.coo_matrix(
            (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
            shape=(target.dim, target.dim),
        ).tocsr()
    else:
        mat = sparse.csr_matrix((target.dim, target.dim), dtype=np.complex128)
    return DeltaImage(series, space, fold, Operator(target, target, mat))


def _comult_columns(
    series: FourierSeries, space: FockSpace, fold: int, columns: np.ndarray
) -> sparse.csc_matrix:
    """Columns of the fold-wise comultiplication without materializing it."""
    shape = (space.dim,) * fold
    parts = np.unravel_index(columns, shape)
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for w, c in series.items():
        table = shift_index_table(space, w)
        keep = np.flatnonzero(np.all([p < table.size for p in parts], axis=0))
        rows.append(np.ravel_multi_index(tuple(table[p[keep]] for p in parts), shape))
        cols.append(keep)
        vals.append(np.full(keep.size, c, dtype=np.complex128))
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim**fold, len(columns)),
    )
    return mat.tocsc()


def leg_families(delta_op: Operator) -> tuple[dict[Word, Operator], dict[Word, Operator]]:
    """Slice decompositions sum_w L_w (x) C_w and sum_w D_w (x) L_w.

    Reading the vacuum column blocks is entry-for-entry the slice of the
    operator against the vacuum/word rank-one pairs on the respective leg.
    """
    first = vacuum_leg_decomposition(delta_op, leg=1)
    second = vacuum_leg_decomposition(delta_op, leg=2)
    return first, second


def _legwise_columns(
    family: dict[Word, Operator],
    space: FockSpace,
    family_leg: int,
    columns: np.ndarray,
) -> sparse.csc_matrix:
    """Columns of sum_w (tensor with L_w on the shift legs, family[w] on one leg).

    ``family_leg`` is the 0-based leg carrying family[w]; the other two legs
    carry the word shift L_w.
    """
    shape = (space.dim,) * 3
    parts = np.unravel_index(columns, shape)
    shift_legs = [leg for leg in range(3) if leg != family_leg]
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for w, op in family.items():
        table = shift_index_table(space, w)
        keep = np.flatnonzero(np.all([parts[leg] < table.size for leg in shift_legs], axis=0))
        block = op.matrix.tocsc()[:, parts[family_leg][keep]]
        counts = np.diff(block.indptr)
        legs = {leg: np.repeat(table[parts[leg][keep]], counts) for leg in shift_legs}
        legs[family_leg] = block.indices
        rows.append(np.ravel_multi_index(tuple(legs[leg] for leg in range(3)), shape))
        cols.append(np.repeat(keep, counts))
        vals.append(block.data)
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim**3, len(columns)),
    )
    return mat.tocsc()


def coassociativity_defect(series: FourierSeries, space: FockSpace) -> float:
    """Compare both outer-leg iterates with the direct triple comultiplication.

    The two iterates act leg-wise on the slice-extracted decompositions of
    the pair comultiplication, so the three routes are independent; the
    defect is their largest disagreement on the slack-degree safe zone.
    """
    image = comult(series, space, fold=2)
    first, second = leg_families(image.operator)
    triple = tensor_space(space, space, space)
    cols = SafeZone(triple, series.degree).indices
    route_a = _legwise_columns(first, space, family_leg=2, columns=cols)
    route_b = _legwise_columns(second, space, family_leg=0, columns=cols)
    route_c = _comult_columns(series, space, 3, cols)
    return max(max_abs(route_a - route_c), max_abs(route_b - route_c), max_abs(route_a - route_b))


def cocommutativity_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of flip-invariance of the comultiplied operator; contract: 0."""
    image = comult(series, space, fold=2)
    flip = flip_operator(image.operator.domain)  # square: both factors equal
    conjugated = flip @ image.operator @ flip
    return max_entry_diff(conjugated, image.operator)


def homomorphism_defect(s: FourierSeries, t: FourierSeries, space: FockSpace) -> float:
    """Defect of multiplicativity on the slack-(deg s + deg t) safe zone."""
    if s.degree + t.degree > space.depth:
        raise ValueError("combined degree exceeds the depth")
    product_image = comult(s * t, space, fold=2).operator
    left = comult(s, space, fold=2).operator
    right = comult(t, space, fold=2).operator
    cols = SafeZone(product_image.domain, s.degree + t.degree).indices
    composed_cols = left.matrix @ right.matrix.tocsc()[:, cols]
    return max_abs(composed_cols - product_image.matrix.tocsc()[:, cols])


def integral_value(series: FourierSeries) -> complex:
    """The vacuum functional picks off the unit coefficient."""
    return series.coefficient(Word())


def integral_invariance_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of both one-sided invariance identities of the vacuum state.

    Slicing either leg of the comultiplied operator against the vacuum
    rank-one functional must reproduce a_e times the identity.
    """
    image = comult(series, space, fold=2)
    vacuum = basis_vector(space, Word())
    pairs = [(vacuum, vacuum)]
    target = integral_value(series) * Operator.identity(space)
    left = slice_right(pairs, image.operator)
    right = slice_left(pairs, image.operator)
    return max(max_entry_diff(left, target), max_entry_diff(right, target))


def vacuum_expansion_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of the vacuum-image expansion of the pair comultiplication.

    The image of the vacuum tensor must carry a_w at the (w, w) diagonal
    positions and exactly zero at every (u, v) with u != v.
    """
    image = comult(series, space, fold=2)
    target = image.operator.domain
    assert isinstance(target, TensorSpace)
    vac = basis_vector(target, (Word(), Word()))
    out = image.operator.apply(vac).data
    expected = np.zeros_like(out)
    for w in space.words:
        expected[target.index_of((w, w))] = series.coefficient(w)
    return float(np.abs(out - expected).max(initial=0.0))


def grouplike_defect(series: FourierSeries, space: FockSpace) -> float:
    """Entrywise defect of Delta(A) = A (x) A on the slack-degree safe zone."""
    image = comult(series, space, fold=2)
    a = realize(series, space)
    square = tensor_op(a, a)
    cols = SafeZone(image.operator.domain, series.degree).indices
    return max_entry_diff(image.operator, square, cols)


def _satisfies_grouplike_equations(series: FourierSeries, space: FockSpace) -> bool:
    # The coefficient system a_u a_v = delta_{uv} a_u over all words in depth.
    # A pair with a zero coefficient satisfies it, so only the support counts.
    support = [w for w in series.support if len(w) <= space.depth]
    for u in support:
        au = series.coefficient(u)
        for v in support:
            av = series.coefficient(v)
            expected = au if u == v else 0j
            if au * av != expected:
                return False
    return True


def grouplike_series(space: FockSpace) -> list[FourierSeries]:
    """All nonzero series with Delta(A) = A (x) A, solved from the coefficients.

    The quadratic system a_u a_v = delta_{uv} a_u forces every coefficient
    into {0, 1} with at most one nonzero, so the candidates are exactly the
    word indicators; each one is re-verified both against the coefficient
    equations and at the operator level before being returned.
    """
    solutions: list[FourierSeries] = []
    for w in space.words:
        candidate = FourierSeries.indicator(space.alphabet, w)
        if not _satisfies_grouplike_equations(candidate, space):
            continue
        if grouplike_defect(candidate, space) != 0.0:
            continue
        solutions.append(candidate)
    return solutions
