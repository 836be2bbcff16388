"""Comultiplication on the truncated shift algebra and its exact axioms.

The comultiplication sends a generator shift to its tensor square, so a
series sum a_w L_w maps to the diagonal form sum a_w (L_w (x) .. (x) L_w),
which is :func:`regular.realize` on the tensor power.
Working directly on the Fourier data keeps every axiom check exact: the
coassociativity, cocommutativity, homomorphism, and integral-invariance
defects are all contractually zero on their safe zones (:func:`graded.within`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from . import graded
from .regular import FourierSeries, realize, shift_index_table
from .spaces import (
    FockSpace,
    Operator,
    basis_vector,
    flip_operator,
    max_abs,
    max_entry_diff,
    slice_left,
    slice_right,
    tensor_op,
    vacuum_block,
)
from .words import Word


def comult(series: FourierSeries, space: FockSpace, fold: int = 2) -> Operator:
    """Realize sum a_w (L_w)^(x fold) on the fold-wise tensor power (fold >= 2)."""
    if fold < 2:
        raise ValueError(f"fold must be >= 2, got {fold}")
    return realize(series, space, fold)


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


def _legwise_columns(
    delta: Operator, space: FockSpace, family_leg: int, columns: np.ndarray
) -> sparse.csc_matrix:
    """Columns of sum_w (L_w on the two shift legs, C_w on ``family_leg``).

    ``family_leg`` is the 0-based triple leg carrying the family of the pair
    comultiplication ``delta``: leg 2 takes the first-leg family of
    delta = sum_w L_w (x) C_w, giving (Delta (x) id) Delta, and leg 0 the
    second-leg family of delta = sum_w C_w (x) L_w, giving (id (x) Delta) Delta.
    Each stored entry C_w[y, x] of the vacuum block, for each requested column
    whose family-leg index is x, lands at y on the family leg and at w u on
    each shift leg (u that column's index there); entries with some
    |w| + |u| > depth are dropped.
    """
    dim, depth = space.dim, space.depth
    shape = (dim,) * 3
    parts = np.unravel_index(columns, shape)
    block = vacuum_block(delta, leg=1 if family_leg == 2 else 2)
    # Gather the stored entries of block column x for every requested column.
    first = block.indptr[parts[family_leg]]
    counts = block.indptr[parts[family_leg] + 1] - first
    col = np.repeat(np.arange(columns.size), counts)
    pos = np.arange(col.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    w, y = np.divmod(block.indices[pos], dim)
    shift_legs = [leg for leg in range(3) if leg != family_leg]
    lengths = space.lengths
    fits = np.logical_and.reduce(
        [lengths[w] + lengths[parts[leg][col]] <= depth for leg in shift_legs]
    )
    w, y, col, vals = w[fits], y[fits], col[fits], block.data[pos[fits]]
    lw, rw = graded.length_rank(space, w)
    legs = {family_leg: y}
    for leg in shift_legs:
        legs[leg] = graded.concat(space, lw, rw, *graded.length_rank(space, parts[leg][col]))
    rows = np.ravel_multi_index(tuple(legs[leg] for leg in range(3)), shape)
    return sparse.coo_matrix((vals, (rows, col)), shape=(dim**3, columns.size)).tocsc()


def coassociativity_defect(series: FourierSeries, space: FockSpace) -> float:
    """Compare both outer-leg iterates with the direct triple comultiplication.

    The two iterates act leg-wise on the slice-extracted decompositions of
    the pair comultiplication, so the three routes are independent; the
    defect is their largest disagreement on the slack-degree safe zone.
    """
    delta = comult(series, space, fold=2)
    cols = graded.within(space, space.depth - series.degree, fold=3)
    route_a = _legwise_columns(delta, space, family_leg=2, columns=cols)
    route_b = _legwise_columns(delta, space, family_leg=0, columns=cols)
    route_c = _comult_columns(series, space, 3, cols)
    return max(max_abs(route_a - route_c), max_abs(route_b - route_c), max_abs(route_a - route_b))


def cocommutativity_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of flip-invariance of the comultiplied operator; contract: 0."""
    delta = comult(series, space, fold=2)
    flip = flip_operator(delta.domain)  # square: both factors equal
    return max_entry_diff(flip @ delta @ flip, delta)


def homomorphism_defect(s: FourierSeries, t: FourierSeries, space: FockSpace) -> float:
    """Defect of multiplicativity on the slack-(deg s + deg t) safe zone."""
    if s.degree + t.degree > space.depth:
        raise ValueError("combined degree exceeds the depth")
    product_image = comult(s * t, space, fold=2)
    left = comult(s, space, fold=2)
    right = comult(t, space, fold=2)
    cols = graded.within(space, space.depth - s.degree - t.degree, fold=2)
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
    delta = comult(series, space, fold=2)
    vacuum = basis_vector(space, Word())
    pairs = [(vacuum, vacuum)]
    target = integral_value(series) * Operator.identity(space)
    left = slice_right(pairs, delta)
    right = slice_left(pairs, delta)
    return max(max_entry_diff(left, target), max_entry_diff(right, target))


def vacuum_expansion_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of the vacuum-image expansion of the pair comultiplication.

    The image of the vacuum tensor must carry a_w at the (w, w) diagonal
    positions and exactly zero at every (u, v) with u != v.
    """
    delta = comult(series, space, fold=2)
    vac = basis_vector(delta.domain, (Word(), Word()))
    out = delta.apply(vac).data
    expected = np.zeros_like(out)
    for w, c in series.items():
        i = space.index_of(w)
        expected[i * space.dim + i] = c
    return float(np.abs(out - expected).max(initial=0.0))


def grouplike_defect(series: FourierSeries, space: FockSpace) -> float:
    """Entrywise defect of Delta(A) = A (x) A on the slack-degree safe zone."""
    delta = comult(series, space, fold=2)
    a = realize(series, space)
    cols = graded.within(space, space.depth - series.degree, fold=2)
    return max_entry_diff(delta, tensor_op(a, a), cols)


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
