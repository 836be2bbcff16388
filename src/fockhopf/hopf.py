"""Comultiplication on the truncated shift algebra and its exact axioms.

The comultiplication sends a generator shift to its tensor square, so a
series sum a_w L_w maps to the diagonal form sum a_w (L_w (x) .. (x) L_w),
which is :func:`regular.realize` on the tensor power.
Working directly on the Fourier data keeps every axiom check exact: the
coassociativity, cocommutativity, homomorphism, and integral-invariance
defects are all contractually zero on their safe zones (:func:`graded.within`).

Those four checks run on plans cached per (space, degree), or per (space,
deg s, deg t, deg st) for the homomorphism, and the grouplike solve on one
comparison per space, each reading a series that tags every word with a
distinct value through the one decoder :func:`_decode_tags`; no other module
knows the tags.  The slice oracle's leg maps (:func:`comult_legs`) read the
realize pattern.  A series, or each row of (trials, words) coefficients in
one array pass, only gathers its coefficients through a plan:

* coassociativity, cocommutativity and integral invariance run their
  operator routes once, on the tagged series; every compared entry must be
  exactly one word's tag, and the plan keeps the distinct columns of words
  the routes read at a position, so a defect is the largest difference of
  two gathered coefficients, the same float subtraction the routes make;
* the homomorphism composes the tagged comultiplications of deg s and deg t
  over the safe-zone columns, recording which coefficient pairs a_u b_v each
  entry of Delta(s) Delta(t) sums, against that of the product s t, the
  graded Cauchy product of :func:`graded.cauchy_product`, formed for every
  row in one call.  On dyadic coefficients those products and their sums
  are exact doubles, so the order of summation cannot matter.

The flip and the vacuum slices relabel and select Delta's stored entries,
and :func:`grouplike_defect` forms A (x) A only in the compared columns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import graded
from .corep import shift_tensor_sum
from .regular import FourierSeries, _coefficients_on, _realize_pattern, realize
from .spaces import (
    SCALAR_SPACE,
    FockSpace,
    Operator,
    StackedFamily,
    _merge,
    column_entries,
    gather_groups,
    sort_positions,
    sorted_unique,
    vacuum_leg_decomposition,
)
from .words import Word


def comult(series: FourierSeries, space: FockSpace, fold: int = 2) -> Operator:
    """Realize sum a_w (L_w)^(x fold) on the fold-wise tensor power (fold >= 2)."""
    if fold < 2:
        raise ValueError(f"fold must be >= 2, got {fold}")
    return realize(series, space, fold)


Entries = tuple[np.ndarray, np.ndarray, np.ndarray]  # (row, col, value) arrays


def _comult_columns(series: FourierSeries, space: FockSpace, fold: int, columns: np.ndarray) -> Entries:
    """The entries of the fold-wise comultiplication in the requested columns, without
    materializing it; col k stands for ``columns[k]``."""
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
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _legwise_columns(delta: Operator, space: FockSpace, family_leg: int, columns: np.ndarray) -> Entries:
    """The entries, in the requested columns, of sum_w (L_w on the two shift legs, C_w on ``family_leg``).

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
    return np.ravel_multi_index(tuple(legs[leg] for leg in range(3)), shape), col, vals


def _tagged_series(space: FockSpace, degree: int) -> FourierSeries:
    """The words up to ``degree``, the word at basis index i tagged (i + 1) + (i + 1)^2 j."""
    return FourierSeries(space.alphabet, _tags(np.arange(space._block_starts[degree + 1])))


def _tags(index: np.ndarray) -> np.ndarray:
    t = index.astype(np.int64) + 1
    return t + 1j * t**2


def _decode_tags(values: np.ndarray, dim: int) -> np.ndarray:
    """The basis index of the word whose tag each value is; ValueError on any other value.

    A sum of tags has an imaginary part below the square of its real part, so it is no tag.
    The real and imaginary parts are compared as floats, so no complex tag is formed.
    """
    word = values.real.astype(np.int64)  # i + 1 for the tag of index i
    square = np.square(word, dtype=np.float64)
    if np.any((word < 1) | (word > dim) | (values.real != word) | (values.imag != square)):
        raise ValueError("a tagged entry is not exactly one word's tag")
    word -= 1
    return word


def _read_tags(parts: list[Entries], shape: tuple[int, int], dim: int) -> np.ndarray:
    """The distinct columns of words that tagged matrices of one shape store over their positions.

    Row k holds, at each stored position of any of the matrices, the basis
    index of the word whose tag the entries ``parts[k]`` sum to there, or -1
    where they store nothing; a sum that is not exactly one tag raises ValueError.
    One column of each key (its words as one int64, -1 a word of its own) is kept:
    a maximum over the columns is the maximum over every position, exactly.
    """
    rows, cols, vals = (np.concatenate(arrs) for arrs in zip(*parts))
    part = np.repeat(np.arange(len(parts)), [p[0].size for p in parts])
    order, first, _ = sort_positions(rows, cols, shape)  # stable: a position's entries part by part
    part = part[order]
    group = first.copy()  # a new (position, part) pair starts
    group[1:] |= part[1:] != part[:-1]
    slot = np.cumsum(group) - 1  # a part storing a position twice sums its tags, exact in any order
    sums = np.empty(np.count_nonzero(group), dtype=np.complex128)
    sums.real, sums.imag = (np.bincount(slot, v[order], sums.size) for v in (vals.real, vals.imag))
    plan = np.full((len(parts), np.count_nonzero(first)), -1, dtype=np.int32)
    plan[part[group], (np.cumsum(first) - 1)[group]] = _decode_tags(sums, dim)
    keys = np.ravel_multi_index(tuple(plan + 1), (dim + 1,) * len(plan))
    plan = plan[:, np.unique(keys, return_index=True)[1]]
    plan.setflags(write=False)
    return plan


def _row_degrees(rows: np.ndarray, space: FockSpace) -> np.ndarray:
    """The degree of each coefficient row: that of its last nonzero coefficient, as a series trims it."""
    return space.lengths[np.where(rows != 0, np.arange(rows.shape[1]), 0).max(axis=1)]


def _plan_defects(plan_of, pairs, series, space: FockSpace):
    """The largest difference between the rows in ``pairs`` of ``plan_of(space, degree)``, read
    off a series' coefficients (a float) or off each coefficient row (trials, words) (an array)."""
    if isinstance(series, FourierSeries):  # the one-row case
        return float(_plan_defects(plan_of, pairs, _coefficients_on(series, space)[None], space)[0])
    degrees, out = _row_degrees(series, space), np.empty(len(series))
    for degree in sorted_unique(degrees).tolist():
        coefs = series[degrees == degree, : space._block_starts[degree + 1]]
        vals = np.append(coefs, np.zeros((len(coefs), 1)), axis=1)[:, plan_of(space, degree)]  # -1 reads 0
        misses = [np.abs(vals[:, i] - vals[:, j]).max(axis=-1, initial=0.0) for i, j in pairs]
        out[degrees == degree] = np.max(misses, axis=0)
    return out


@lru_cache(maxsize=32)
def _coassociativity_plan(space: FockSpace, degree: int) -> np.ndarray:
    """Routes a, b and c of :func:`coassociativity_defect` on the tagged series."""
    tagged = _tagged_series(space, degree)
    delta = comult(tagged, space, fold=2)
    cols = graded.within(space, space.depth - degree, fold=3)
    route_a = _legwise_columns(delta, space, family_leg=2, columns=cols)
    route_b = _legwise_columns(delta, space, family_leg=0, columns=cols)
    route_c = _comult_columns(tagged, space, 3, cols)
    return _read_tags([route_a, route_b, route_c], (space.dim**3, cols.size), space.dim)


def coassociativity_defect(series, space: FockSpace):
    """Compare both outer-leg iterates with the direct triple comultiplication.

    The two iterates act leg-wise on the slice-extracted decompositions of
    the pair comultiplication, so the three routes are independent; the
    defect is their largest disagreement on the slack-degree safe zone.
    """
    return _plan_defects(_coassociativity_plan, ((0, 2), (1, 2), (0, 1)), series, space)


@lru_cache(maxsize=32)
def _cocommutativity_plan(space: FockSpace, degree: int) -> np.ndarray:
    """The flipped and the plain pair comultiplication of the tagged series.

    The flip (r1, r2) -> (r2, r1) relabels the rows and the columns of the stored entries."""
    rows, cols, vals = comult(_tagged_series(space, degree), space, fold=2).coo()
    dim = space.dim
    flipped = [(index % dim) * dim + index // dim for index in (rows, cols)]
    return _read_tags([(*flipped, vals), (rows, cols, vals)], (dim**2, dim**2), dim)


def cocommutativity_defect(series, space: FockSpace):
    """Defect of flip-invariance of the comultiplied operator; contract: 0."""
    return _plan_defects(_cocommutativity_plan, ((0, 1),), series, space)


@lru_cache(maxsize=32)
def _homomorphism_plan(space: FockSpace, ds: int, dt: int, dp: int) -> tuple[np.ndarray, ...]:
    """Delta(s) Delta(t) and Delta(s t) on the slack-(ds + dt) zone, as index arrays.

    Returns (slot, u, v, w): the compared positions are numbered by slot, the
    product pair a_u b_v lands in slot[k], and w is the word of Delta(s t) at
    each slot (-1 where it stores nothing).
    """
    cols = graded.within(space, space.depth - ds - dt, fold=2)
    left, right, product = (comult(_tagged_series(space, d), space) for d in (ds, dt, dp))
    r_col, r_row, r_tags = column_entries(right, cols)
    p_col, p_row, p_tags = column_entries(product, cols)
    step, s_row, s_tags = column_entries(left, r_row)  # the left column at each right entry's row
    keys = s_row * cols.size + r_col[step]
    product_keys = p_row * cols.size + p_col
    union = sorted_unique(np.concatenate([keys, product_keys]))
    word = np.full(union.size, -1, dtype=np.int64)
    word[np.searchsorted(union, product_keys)] = _decode_tags(p_tags, space.dim)
    u, v = (_decode_tags(tags, space.dim) for tags in (s_tags, r_tags[step]))
    plan = (np.searchsorted(union, keys), u, v, word)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def homomorphism_defect(s, t, space: FockSpace):
    """Defect of multiplicativity on the slack-(deg s + deg t) safe zone: of two series (a float),
    or of each pair of rows (s[i], t[i]) of two (trials, words) coefficient arrays (an array), all
    products s t in one :func:`graded.cauchy_product` call, a plan per (deg s, deg t, deg s t)."""
    if isinstance(s, FourierSeries):  # the one-pair case
        s._check(t)
        return float(homomorphism_defect(*(_coefficients_on(x, space)[None] for x in (s, t)), space)[0])
    p = np.append(graded.cauchy_product(space, s, t), np.zeros((len(s), 1)), axis=1)  # w = -1 reads 0
    degrees, out = np.stack([_row_degrees(x, space) for x in (s, t, p)], axis=1), np.empty(len(p))
    if np.any(degrees[:, 0] + degrees[:, 1] > space.depth):
        raise ValueError("combined degree exceeds the depth")
    for key in sorted(set(map(tuple, degrees.tolist()))):  # np.unique(axis=0) would import numpy.ma
        rows = np.all(degrees == key, axis=1)
        slot, u, v, w = _homomorphism_plan(space, *key)
        composed = np.zeros((np.count_nonzero(rows), w.size), dtype=np.complex128)
        np.add.at(composed, (slice(None), slot), s[rows][:, u] * t[rows][:, v])
        out[rows] = np.abs(composed - p[rows][:, w]).max(axis=-1, initial=0.0)
    return out


def integral_value(series: FourierSeries) -> complex:
    """The vacuum functional picks off the unit coefficient (basis index 0)."""
    return complex(series.coeffs[0])


@lru_cache(maxsize=32)
def _integral_plan(space: FockSpace, degree: int) -> np.ndarray:
    """Both vacuum slices of the tagged comultiplication and their target.

    Slicing a leg against the vacuum keeps the entries whose row and column lie
    in that leg's vacuum block, indexed by the other leg."""
    tagged = _tagged_series(space, degree)
    rows, cols, vals = comult(tagged, space, fold=2).coo()
    dim = space.dim
    left, right = (rows % dim == 0) & (cols % dim == 0), (rows < dim) & (cols < dim)
    target = (integral_value(tagged) * Operator.identity(space)).coo()
    parts = [(rows[left] // dim, cols[left] // dim, vals[left]), (rows[right], cols[right], vals[right]), target]
    return _read_tags(parts, (dim, dim), dim)


def integral_invariance_defect(series, space: FockSpace):
    """Defect of both one-sided invariance identities of the vacuum state.

    Slicing either leg of the comultiplied operator against the vacuum
    rank-one functional must reproduce a_e times the identity.
    """
    return _plan_defects(_integral_plan, ((0, 2), (1, 2)), series, space)


def vacuum_expansion_defect(series, space: FockSpace):
    """Defect of the vacuum-image expansion of the pair comultiplication.

    The image of the vacuum tensor must carry a_w at the (w, w) diagonal
    positions and exactly zero at every (u, v) with u != v (one operator a row of coefficient rows).
    """
    if not isinstance(series, FourierSeries):
        return np.array([vacuum_expansion_defect(FourierSeries(space.alphabet, c), space) for c in series])
    delta = comult(series, space, fold=2)
    _, rows, vals = column_entries(delta, np.zeros(1, dtype=np.int64))  # the vacuum (e, e) is index 0
    out = np.zeros(delta.codomain.dim, dtype=np.complex128)
    out[rows] += vals
    expected = np.zeros_like(out)
    expected[np.arange(series.coeffs.size) * (space.dim + 1)] = series.coeffs
    return float(np.abs(out - expected).max(initial=0.0))


def comult_legs(space: FockSpace) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every Delta(L_w) as two leg maps, one (A, B) pair of (n^k, T) arrays per length k.

    Delta(L_w) sends column (u, v), u, v < T = T_{d-|w|}, to row (wu, wv), so it is
    A_w (x) B_w with A[rank(w), u] = wu, B[rank(w), v] = wv.  Both are read, in the
    index dtype, off the fold-2 realize pattern of every word, whose arrays name the
    word of each entry, after four checks, in order, each raising ValueError: (1) each
    row's columns strictly increase; (2) each word w has T^2 entries; (3) each column
    (u, v) of w is in the leading T x T block; (4) each row is A[w, u] dim + B[w, v],
    A and B scattered from the entries.  This is a full proof: by (4) an entry's row is
    fixed by its word and column, and by (1) a row stores each position once, so no
    two entries of w share a column; by (2) and (3) they are then the T x T block, each
    once, which fills every slot of A and B.
    """
    indptr, cols, word = _realize_pattern(space, space.depth, 2)
    dim, rows = space.dim, np.repeat(np.arange(indptr.size - 1, dtype=cols.dtype), np.diff(indptr))
    if np.any((cols[1:] <= cols[:-1]) & (rows[1:] == rows[:-1])):
        raise ValueError("a row of the comultiplication stores one position twice")
    starts = np.asarray(space._block_starts, dtype=cols.dtype)  # this dtype holds dim^2 and nnz
    side = starts[space.depth + 1 - space.lengths]
    if np.any(np.bincount(word, minlength=dim) != side**2):
        raise ValueError("a word's comultiplication entries are not T_{d-|w|}^2 in number")
    offset = (np.cumsum(side) - side).astype(cols.dtype)  # each word's first slot in A and B
    t, start = side[word], offset[word]
    u, v = np.divmod(cols, dim)
    if np.any((u >= t) | (v >= t)):
        raise ValueError("a word's comultiplication columns are not in its leading T_{d-|w|} block")
    u += start  # the slot of (w, u) in A and of (w, v) in B
    v += start
    del t, start
    legs = np.empty((2, side.sum()), dtype=cols.dtype)
    legs[0, u] = legs[1, v] = rows  # the last entry of each slot wins; check 4 compares them all
    legs[0] //= dim
    legs[1] %= dim
    np.multiply(legs[0].take(u), dim, out=u)  # u now holds the rows A[w, u] dim + B[w, v]
    u += legs[1].take(v)
    if np.any(u != rows):
        raise ValueError("a word's comultiplication rows are not a product of two leg maps")
    parts = np.split(legs, offset[starts[1:-1]], axis=1)  # one part per word length
    return tuple(tuple(part.reshape(2, -1, t)) for part, t in zip(parts, side[starts[:-1]]))


def grouplike_defect(series: FourierSeries, space: FockSpace) -> float:
    """Entrywise defect of Delta(A) = A (x) A on the slack-degree safe zone.

    A (x) A is formed only in the compared columns (x, y): each stored A[r, x]
    meets each stored A[s, y] at row r dim + s, their product numpy's complex ``*``.
    """
    cols = graded.within(space, space.depth - series.degree, fold=2)
    a = realize(series, space)
    (kx, rx, vx), (ky, ry, vy) = (column_entries(a, part) for part in np.divmod(cols, space.dim))
    first, second = gather_groups(ky, kx, cols.size)
    square = (rx[first] * space.dim + ry[second], kx[first], vx[first] * vy[second])
    k, rows, vals = column_entries(comult(series, space, fold=2), cols)
    diff = _merge((rows, k, vals), square, (space.dim**2, cols.size), np.subtract)[1]
    return float(np.abs(diff).max(initial=0.0))


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
    plan = _read_tags([route.coo() for route in routes], routes[0].shape, space.dim)
    failed = np.zeros(space.dim + 1, dtype=bool)  # -1, nothing stored, marks the extra slot
    failed[plan[:, plan[0] != plan[1]]] = True
    return tuple(space.words[i] for i in np.flatnonzero(~failed[:-1]))
