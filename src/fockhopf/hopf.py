"""Comultiplication on the truncated shift algebra and its exact axioms.

The comultiplication sends a generator shift to its tensor square, so a
series sum a_w L_w maps to the diagonal form sum a_w (L_w (x) .. (x) L_w),
which is :func:`regular.realize` on the tensor power.
Working directly on the Fourier data keeps every axiom check exact: the
coassociativity, cocommutativity, homomorphism, and integral-invariance
defects are all contractually zero on their safe zones (:func:`graded.within`).

Those four checks run on cached plans, and the grouplike solve on one
comparison per space.  Each reads a series that tags every word with a
distinct value, through the one decoder :func:`_decode_tags`.  Every series
of one degree shares the sparsity pattern of its comultiplication, so each
plan is built once per (space, degree), or per (space, deg s, deg t, deg st)
for the homomorphism, and a series only gathers its coefficient array
through it:

* coassociativity, cocommutativity and integral invariance run their
  operator routes once, on the tagged series; every compared entry must be
  exactly one word's tag, so the plan records which coefficient each side
  reads there and a series' defect is the largest difference of two
  gathered coefficients, the same float subtraction the operator routes make;
* the homomorphism composes the tagged comultiplications of deg s and deg t
  over the safe-zone columns, recording which coefficient pairs a_u b_v each
  entry of Delta(s) Delta(t) sums, against that of the product s t, the
  graded Cauchy product of :meth:`FourierSeries.__mul__`.  On dyadic
  coefficients those products and their sums are exact doubles, so the
  order of summation cannot matter.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import sparse

from . import graded
from .corep import shift_tensor_sum
from .regular import FourierSeries, _coefficients_on, realize
from .spaces import (
    SCALAR_SPACE,
    FockSpace,
    Operator,
    StackedFamily,
    _worst_defect,
    basis_vector,
    flip_operator,
    gather_groups,
    max_entry_diff,
    slice_left,
    slice_right,
    sorted_unique,
    tensor_op,
    vacuum_leg_decomposition,
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
    words = np.flatnonzero(series.coeffs)
    for k, rank, c in zip(*graded.length_rank(space, words), series.coeffs[words]):
        src = graded.within(space, space.depth - k)
        table = graded.concat(space, k, rank, *graded.length_rank(space, src))
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
    Each stored entry C_w[y, x] of that family, for each requested column
    whose family-leg index is x, lands at y on the family leg and at w u on
    each shift leg (u that column's index there); entries with some
    |w| + |u| > depth are dropped.
    """
    dim, depth = space.dim, space.depth
    shape = (dim,) * 3
    parts = np.unravel_index(columns, shape)
    family = vacuum_leg_decomposition(delta, leg=1 if family_leg == 2 else 2)
    # Gather the stored entries of family column x for every requested column.
    col, pos = gather_groups(family.col, parts[family_leg], dim)
    w, y = family.word[pos], family.row[pos]
    shift_legs = [leg for leg in range(3) if leg != family_leg]
    lengths = space.lengths
    fits = np.logical_and.reduce(
        [lengths[w] + lengths[parts[leg][col]] <= depth for leg in shift_legs]
    )
    w, y, col, vals = w[fits], y[fits], col[fits], family.val[pos[fits]]
    lw, rw = graded.length_rank(space, w)
    legs = {family_leg: y}
    for leg in shift_legs:
        legs[leg] = graded.concat(space, lw, rw, *graded.length_rank(space, parts[leg][col]))
    rows = np.ravel_multi_index(tuple(legs[leg] for leg in range(3)), shape)
    return sparse.coo_matrix((vals, (rows, col)), shape=(dim**3, columns.size)).tocsc()


def _tagged_series(space: FockSpace, degree: int) -> FourierSeries:
    """The words up to ``degree``, the word at basis index i tagged (i + 1) + (i + 1)^2 j."""
    return FourierSeries(space.alphabet, _tags(np.arange(space._block_starts[degree + 1])))


def _tags(index: np.ndarray) -> np.ndarray:
    t = index.astype(np.int64) + 1
    return t + 1j * t**2


def _decode_tags(values: np.ndarray, dim: int) -> np.ndarray:
    """The basis index of the word whose tag each value is; ValueError on any other value.

    A sum of tags has an imaginary part below the square of its real part, so it is no tag.
    """
    word = values.real.astype(np.int64) - 1
    if np.any((word < 0) | (word >= dim)) or np.any(values != _tags(word)):
        raise ValueError("a tagged entry is not exactly one word's tag")
    return word


def _read_tags(mats: list, dim: int) -> np.ndarray:
    """The words that tagged matrices store over the union of their positions.

    Row k holds, at each stored position of any of the matrices, the basis
    index of the word whose tag ``mats[k]`` stores there, or -1 where it
    stores nothing; an entry that is not exactly one tag raises ValueError.
    """
    coos = [sparse.coo_matrix(m) for m in mats]
    keys = [coo.row.astype(np.int64) * coo.shape[1] + coo.col for coo in coos]
    union = sorted_unique(np.concatenate(keys))
    plan = np.full((len(coos), union.size), -1, dtype=np.int32)
    for row, coo, key in zip(plan, coos, keys):
        row[np.searchsorted(union, key)] = _decode_tags(coo.data, dim)
    plan.setflags(write=False)
    return plan


def _gathered_defect(coef: np.ndarray, plan: np.ndarray, pairs) -> float:
    """Largest difference between the plan rows in ``pairs``, read off the coefficients."""
    vals = np.append(coef, 0)[plan]  # -1 reads the appended zero
    return _worst_defect(float(np.abs(vals[i] - vals[j]).max(initial=0.0)) for i, j in pairs)


@lru_cache(maxsize=32)
def _coassociativity_plan(space: FockSpace, degree: int) -> np.ndarray:
    """Routes a, b and c of :func:`coassociativity_defect` on the tagged series."""
    tagged = _tagged_series(space, degree)
    delta = comult(tagged, space, fold=2)
    cols = graded.within(space, space.depth - degree, fold=3)
    route_a = _legwise_columns(delta, space, family_leg=2, columns=cols)
    route_b = _legwise_columns(delta, space, family_leg=0, columns=cols)
    route_c = _comult_columns(tagged, space, 3, cols)
    return _read_tags([route_a, route_b, route_c], space.dim)


def coassociativity_defect(series: FourierSeries, space: FockSpace) -> float:
    """Compare both outer-leg iterates with the direct triple comultiplication.

    The two iterates act leg-wise on the slice-extracted decompositions of
    the pair comultiplication, so the three routes are independent; the
    defect is their largest disagreement on the slack-degree safe zone.
    """
    coef = _coefficients_on(series, space)
    plan = _coassociativity_plan(space, series.degree)
    return _gathered_defect(coef, plan, ((0, 2), (1, 2), (0, 1)))


@lru_cache(maxsize=32)
def _cocommutativity_plan(space: FockSpace, degree: int) -> np.ndarray:
    """The flipped and the plain pair comultiplication of the tagged series."""
    delta = comult(_tagged_series(space, degree), space, fold=2)
    flip = flip_operator(delta.domain)  # square: both factors equal
    return _read_tags([(flip @ delta @ flip).matrix, delta.matrix], space.dim)


def cocommutativity_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of flip-invariance of the comultiplied operator; contract: 0."""
    coef = _coefficients_on(series, space)
    return _gathered_defect(coef, _cocommutativity_plan(space, series.degree), ((0, 1),))


@lru_cache(maxsize=32)
def _homomorphism_plan(space: FockSpace, ds: int, dt: int, dp: int) -> tuple[np.ndarray, ...]:
    """Delta(s) Delta(t) and Delta(s t) on the slack-(ds + dt) zone, as index arrays.

    Returns (slot, u, v, w): the compared positions are numbered by slot, the
    product pair a_u b_v lands in slot[k], and w is the word of Delta(s t) at
    each slot (-1 where it stores nothing).
    """
    cols = graded.within(space, space.depth - ds - dt, fold=2)
    tagged = [comult(_tagged_series(space, d), space).matrix.tocsc() for d in (ds, dt, dp)]
    left, right, product = tagged[0], tagged[1][:, cols].tocoo(), tagged[2][:, cols].tocoo()
    step = left[:, right.row].tocoo()  # column k is the left column at right entry k's row
    keys = step.row.astype(np.int64) * cols.size + right.col[step.col]
    product_keys = product.row.astype(np.int64) * cols.size + product.col
    union = sorted_unique(np.concatenate([keys, product_keys]))
    word = np.full(union.size, -1, dtype=np.int64)
    word[np.searchsorted(union, product_keys)] = _decode_tags(product.data, space.dim)
    u, v = (_decode_tags(tags, space.dim) for tags in (step.data, right.data[step.col]))
    plan = (np.searchsorted(union, keys), u, v, word)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def homomorphism_defect(s: FourierSeries, t: FourierSeries, space: FockSpace) -> float:
    """Defect of multiplicativity on the slack-(deg s + deg t) safe zone."""
    if s.degree + t.degree > space.depth:
        raise ValueError("combined degree exceeds the depth")
    product = s * t
    p = np.append(product.coeffs, 0)
    a, b = _coefficients_on(s, space), _coefficients_on(t, space)
    slot, u, v, w = _homomorphism_plan(space, s.degree, t.degree, product.degree)
    composed = np.zeros(w.size, dtype=np.complex128)
    np.add.at(composed, slot, a[u] * b[v])
    return float(np.abs(composed - p[w]).max(initial=0.0))


def integral_value(series: FourierSeries) -> complex:
    """The vacuum functional picks off the unit coefficient (basis index 0)."""
    return complex(series.coeffs[0])


@lru_cache(maxsize=32)
def _integral_plan(space: FockSpace, degree: int) -> np.ndarray:
    """Both vacuum slices of the tagged comultiplication and their target."""
    tagged = _tagged_series(space, degree)
    delta = comult(tagged, space, fold=2)
    vacuum = basis_vector(space, Word())
    pairs = [(vacuum, vacuum)]
    target = integral_value(tagged) * Operator.identity(space)
    left = slice_right(pairs, delta)
    right = slice_left(pairs, delta)
    return _read_tags([left.matrix, right.matrix, target.matrix], space.dim)


def integral_invariance_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of both one-sided invariance identities of the vacuum state.

    Slicing either leg of the comultiplied operator against the vacuum
    rank-one functional must reproduce a_e times the identity.
    """
    coef = _coefficients_on(series, space)
    return _gathered_defect(coef, _integral_plan(space, series.degree), ((0, 2), (1, 2)))


def vacuum_expansion_defect(series: FourierSeries, space: FockSpace) -> float:
    """Defect of the vacuum-image expansion of the pair comultiplication.

    The image of the vacuum tensor must carry a_w at the (w, w) diagonal
    positions and exactly zero at every (u, v) with u != v.
    """
    delta = comult(series, space, fold=2)
    out = delta.matrix[:, 0].toarray().ravel()  # the vacuum (e, e) is basis index 0
    expected = np.zeros_like(out)
    expected[np.arange(series.coeffs.size) * (space.dim + 1)] = series.coeffs
    return float(np.abs(out - expected).max(initial=0.0))


def grouplike_defect(series: FourierSeries, space: FockSpace) -> float:
    """Entrywise defect of Delta(A) = A (x) A on the slack-degree safe zone."""
    delta = comult(series, space, fold=2)
    a = realize(series, space)
    cols = graded.within(space, space.depth - series.degree, fold=2)
    return max_entry_diff(delta, tensor_op(a, a), cols)


def grouplike_series(space: FockSpace) -> list[FourierSeries]:
    """All nonzero series with Delta(A) = A (x) A, solved from the coefficients.

    The quadratic system a_u a_v = delta_{uv} a_u forces every coefficient
    into {0, 1} with at most one nonzero, so the candidates are exactly the
    word indicators, all verified at once: the tagged comultiplication, read
    off the realize pattern, against the tagged sum_w L_w (x) L_w of
    :func:`corep.shift_tensor_sum`, which shares no index table with it.
    """
    return [FourierSeries.indicator(space.alphabet, w) for w in _grouplike_words(space)]


@lru_cache(maxsize=32)
def _grouplike_words(space: FockSpace) -> tuple[Word, ...]:
    # The solved words, not the series: each call hands out fresh indicators.
    # No two words share a position of either route, so a word fails exactly
    # where one route reads it and the other reads another word or nothing.
    k = np.arange(space.dim)
    tagged = StackedFamily(space, SCALAR_SPACE, k, np.zeros_like(k), np.zeros_like(k), _tags(k))
    routes = [comult(_tagged_series(space, space.depth), space), shift_tensor_sum(tagged, copies=2)]
    plan = _read_tags([route.matrix for route in routes], space.dim)
    failed = np.zeros(space.dim + 1, dtype=bool)  # -1, nothing stored, marks the extra slot
    failed[plan[:, plan[0] != plan[1]]] = True
    return tuple(space.words[i] for i in np.flatnonzero(~failed[:-1]))
