"""The truncated predual as a convolution algebra.

A functional is coordinatized by its value array (phi(L_w))_{|w| <= N}; that
array is a faithful coordinate system because the truncated algebra is
spanned by the realized word indicators.  Convolution then becomes exact
pointwise multiplication of value arrays, which the slice-map oracle in the
test-suite confirms against the tensor-comultiplication definition.
Value arrays are laid out in word-length blocks (see :mod:`fockhopf.graded`),
so every pairing against a concatenation w u is a block reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import graded
from .spaces import FockSpace, Vector, basis_vector, schoolbook_product
from .words import Word

RankOnePair = tuple[Vector, Vector]


def _rank_one_values(space: FockSpace, pairs: Sequence[RankOnePair]) -> np.ndarray:
    """(L_w xi, eta) = sum_u xi_u conj(eta_wu), in depth + 1 products a pair (a row a trial of stacks).

    For |u| = m, conj(eta) from start[m] on, reshaped to (T_{d-m}, n^m), has
    eta_wu at [index(w), rank(u)] (start[k + m] - start[m] = n^m start[k]), so one
    product with xi's block m adds term m to the leading T_{d-m} values.  The
    vacuum's term is a one-row product, as numpy takes a vector dot, so each value
    rounds as one product per (|w|, m) block rounds it (``np.matvec``, trial by trial).
    """
    lead = np.broadcast_shapes(*(v.data.shape[:-1] for pair in pairs for v in pair))  # the trial axes
    values = np.zeros((*lead, space.dim), dtype=np.complex128)
    starts, depth = space._block_starts, space.depth
    for xi, eta in pairs:
        if xi.space != space or eta.space != space:
            raise ValueError("rank-one pair vectors must live on the functional's space")
        conj_eta = np.conj(eta.data)
        for m in range(depth + 1):
            rows = starts[depth + 1 - m]
            tail = conj_eta[..., starts[m] :].reshape(conj_eta.shape[:-1] + (rows, space.n**m))
            xi_m = xi.data[..., starts[m] : starts[m + 1]]
            values[..., :1] += np.matvec(tail[..., :1, :], xi_m)
            values[..., 1:rows] += np.matvec(tail[..., 1:, :], xi_m)
    return values


@dataclass(frozen=True, eq=False)
class Functional:
    """Element of the truncated predual: the value array (phi(L_w))_w.

    ``provenance`` optionally records the rank-one pairs the functional was
    built from; the value array remains the canonical representation, and a
    stored provenance must reproduce it (checked on construction).
    """

    space: FockSpace
    values: np.ndarray
    provenance: tuple[RankOnePair, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.complex128, copy=True)
        arr = arr if arr.ndim == 2 else arr.ravel()  # a (trials, dim) array: a stack, a trial a row
        if arr.shape[-1] != self.space.dim:
            raise ValueError(f"value array length {arr.shape[-1]} does not match dim {self.space.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.provenance is not None:
            if not np.array_equal(arr, _rank_one_values(self.space, self.provenance)):
                raise ValueError("provenance pairs do not reproduce the value array")

    def value(self, w: Word) -> complex:
        return complex(self.values[self.space.index_of(w)])


def from_rank_one(space: FockSpace, pairs: Sequence[RankOnePair]) -> Functional:
    """The functional sum_j [xi_j eta_j*] with values (L_w xi_j, eta_j)."""
    pairs = tuple((xi, eta) for xi, eta in pairs)
    f = Functional(space, _rank_one_values(space, pairs))
    # The values were just computed from these pairs, so skip the re-check
    # that a provenance passed to the constructor gets.
    object.__setattr__(f, "provenance", pairs)
    return f


def indicator_functional(space: FockSpace, w: Word) -> Functional:
    """[xi_e xi_w*]: the functional whose value array is the indicator of w."""
    return from_rank_one(space, [(basis_vector(space, Word()), basis_vector(space, w))])


def convolve(f: Functional, g: Functional) -> Functional:
    """Convolution of value arrays: pointwise multiplication, entry by entry."""
    if f.space != g.space:
        raise ValueError("functionals live on different spaces")
    return Functional(f.space, f.values * g.values)


def dagger(f: Functional) -> Functional:
    """Entrywise conjugation of the value array; an involution."""
    return Functional(f.space, np.conj(f.values))


def counit_defect(f: Functional) -> float:
    """Distance of a functional from the counit equations.

    A convolution unit must take the value 1 on the identity and on every
    generator; the defect is the largest miss among those constraints (one a
    trial of a stack).  In basis order those are the leading n + 1 values: e, then the letters.
    """
    miss = f.values[..., : f.space.n + 1] - 1.0
    return np.hypot(miss.real, miss.imag).max(axis=-1)


@dataclass(frozen=True, eq=False)
class TensorFunctional:
    """Functional on the two-leg tensor algebra, supported on admissible pairs.

    ``blocks[(k, m)]`` holds the values on the pairs (u, v) with |u| = k and
    |v| = m, for every k + m <= depth, as an (n^k, n^m) array indexed by the
    block ranks of u and v.
    """

    space: FockSpace
    blocks: dict[tuple[int, int], np.ndarray]

    def value(self, u: Word, v: Word) -> complex:
        """The value on (u, v): block (|u|, |v|) at the block ranks; 0 past the depth."""
        block = self.blocks.get((len(u), len(v)))
        if block is None:
            return 0j
        starts = self.space._block_starts
        ru, rv = self.space.index_of(u) - starts[len(u)], self.space.index_of(v) - starts[len(v)]
        return complex(block[ru, rv])


def predual_comult(f: Functional) -> TensorFunctional:
    """Pull the value array back through multiplication: (u, v) -> phi(L_{uv}).

    Each block is a zero-copy reshape of the value array.
    """
    blocks = {
        (k, m): graded.split_block(f.space, f.values, k, m) for k, m in graded.splits(f.space.depth)
    }
    return TensorFunctional(f.space, blocks)


def tensor_convolve(a: TensorFunctional, b: TensorFunctional) -> TensorFunctional:
    if a.space != b.space:
        raise ValueError("tensor functionals live on different spaces")
    return TensorFunctional(a.space, {key: a.blocks[key] * b.blocks[key] for key in a.blocks})


@lru_cache(maxsize=64)
def _coassociativity_plan(space: FockSpace) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Every block (k, m) of the comultiplication, and the direct index of its entries,
    start[k + m] + rank(u) n^m + rank(v) for |u| = k and |v| = m, concatenated."""
    n, starts = space.n, space._block_starts
    keys = tuple(graded.splits(space.depth))
    direct = np.concatenate(
        [(starts[k + m] + np.arange(n**k)[:, None] * n**m + np.arange(n**m)).ravel() for k, m in keys]
    )
    direct.setflags(write=False)
    return keys, direct


def _raveled_blocks(t: TensorFunctional, keys) -> np.ndarray:
    """The blocks of ``t`` at ``keys``, each raveled in C order, concatenated along the last axis."""
    lead = t.blocks[keys[0]].shape[:-2]  # the trial axes of a stack
    return np.concatenate([t.blocks[key].reshape(lead + (-1,)) for key in keys], axis=-1)


def _per_trial(f: Functional, defects: np.ndarray):
    """A float for one functional, the array of defects, one a trial, for a stack."""
    return float(defects) if f.values.ndim == 1 else defects


def predual_coassociativity_defect(f: Functional):
    """Both iterates of the predual comultiplication agree on triples exactly.

    On triple (a, b, c) one iterate is block (a + b, c) of :func:`predual_comult`
    and the other block (a, b + c), each reshaped in C order to (n^a, n^b, n^c),
    against phi(L_{uvw}) at start[|uvw|] + rank(uvw).  A C-order reshape keeps
    the raveled order, so every triple compares its block, raveled, with the
    values at the direct indices of its pairs (u v, w) or (u, v w); both
    iterates read every block, so each block is compared once, in one pass.
    A (trials, dim) stack gives one defect a trial.
    """
    keys, direct = _coassociativity_plan(f.space)
    miss = _raveled_blocks(predual_comult(f), keys)
    miss -= f.values[..., direct]
    return _per_trial(f, np.abs(miss).max(axis=-1))


def predual_homomorphism_defect(f: Functional, g: Functional):
    """Defect of comult(f * g) = comult(f) * comult(g), componentwise: the largest miss
    over every block, read in one pass; one a trial for (trials, dim) stacks."""
    keys = _coassociativity_plan(f.space)[0]
    lhs = _raveled_blocks(predual_comult(convolve(f, g)), keys)
    lhs -= _raveled_blocks(tensor_convolve(predual_comult(f), predual_comult(g)), keys)
    return _per_trial(f, np.abs(lhs).max(axis=-1))


@dataclass(frozen=True, eq=False)
class PointFunctional:
    """Evaluation at a point of the open unit ball.

    ``functional`` carries the exact monomial values w -> w(point); ``vector``
    is the normalized truncation of sum_w conj(w(point)) xi_w, whose rank-one
    functional reproduces the monomial values up to a geometric tail:

        |[nu nu*](L_w) - w(point)| <= t^(N - |w| + 1) / (1 - t),  t = ||point||^2.

    The exact values are canonical; the vector exists to witness the rank-one
    form and its convergence rate.
    """

    space: FockSpace
    point: tuple[complex, ...]
    functional: Functional
    vector: Vector

    @property
    def ball_norm_sq(self) -> float:
        return float(sum(abs(z) ** 2 for z in self.point))

    def rank_one_functional(self) -> Functional:
        return from_rank_one(self.space, [(self.vector, self.vector)])

    def reconstruction_tail_bound(self) -> np.ndarray:
        """The tail bound of every basis word, from one value per length."""
        return _tail_bound(self.space, self.ball_norm_sq)


def _tail_bound(space: FockSpace, t: float) -> np.ndarray:
    """t^(N - |w| + 1) / (1 - t) at every basis word w, from one value per length."""
    # Python's float power: np.power can round the last bit differently.
    per_length = [t ** (space.depth - k + 1) / (1.0 - t) for k in range(space.depth + 1)]
    return np.array(per_length)[space.lengths]


def _ball_points(space: FockSpace, points) -> np.ndarray:
    """The points as a complex (..., n) array; ValueError unless each lies in the open ball."""
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 0 or points.shape[-1] != space.n:
        raise ValueError(f"point must have {space.n} coordinates, got {points.shape[-1:] or 'a scalar'}")
    if np.any(np.sum(np.hypot(points.real, points.imag) ** 2, axis=-1) >= 1.0):  # as Python's abs
        raise ValueError("point must lie in the open unit ball")
    return points


def _monomial_values(space: FockSpace, points) -> np.ndarray:
    """The values w -> w(p) of each point p, one row per point (a sequence or a (count, n) array):
    block k + 1 is the outer :func:`spaces.schoolbook_product` of block k with p, so each value
    w a -> w(p) p_a rounds as the letter-by-letter product of Python's complex numbers does,
    signed zeros included."""
    starts, count = space._block_starts, len(points)
    p = np.array(points, dtype=np.complex128).reshape(count, 1, space.n)
    values = np.zeros((count, space.dim), dtype=np.complex128)
    values[:, 0] = 1.0
    for k in range(space.depth):
        image = schoolbook_product(values[:, starts[k] : starts[k + 1], None], p)
        values[:, starts[k + 1] : starts[k + 2]] = image.reshape(count, -1)
    return values


def _point_vectors(values: np.ndarray) -> np.ndarray:
    """The vector of each row of point values: its conjugate over its norm."""
    weights = np.conj(values)
    return weights / np.sqrt(np.sum(np.abs(weights) ** 2, axis=-1, keepdims=True))


def point_functional(space: FockSpace, point: Sequence[complex]) -> PointFunctional:
    """Evaluation at a ball point: the values of :func:`_monomial_values` and their vector."""
    point = _ball_points(space, point)
    if point.ndim != 1:
        raise ValueError("point_functional takes one point")
    values = _monomial_values(space, [point])[0]
    point = tuple(complex(z) for z in point)
    return PointFunctional(space, point, Functional(space, values), Vector(space, _point_vectors(values)))


def reconstruction_defect(space: FockSpace, points) -> np.ndarray:
    """max_w |[nu nu*](L_w) - w(p)| less the tail bound of w, one a row of the (count, n) ``points``:
    at most 0 when the rank-one functional of p's vector nu reconstructs p's monomial values
    within their geometric tail (:class:`PointFunctional`).  One :func:`_rank_one_values` call
    forms every point's rank-one values."""
    points = _ball_points(space, points)
    values = _monomial_values(space, points)
    nu = Vector(space, _point_vectors(values))
    diff = _rank_one_values(space, [(nu, nu)]) - values
    bounds = [_tail_bound(space, float(sum(abs(z) ** 2 for z in p))) for p in points.tolist()]
    return (np.hypot(diff.real, diff.imag) - np.array(bounds)).max(axis=-1)


def pointwise_product(lam, mu):
    """Componentwise product of ball points, rounded as Python's complex product; stays in the
    open ball.  A tuple for two points, a (..., n) array for arrays of points."""
    if np.shape(lam)[-1:] != np.shape(mu)[-1:]:
        raise ValueError("points must have the same length")
    out = schoolbook_product(np.asarray(lam, dtype=np.complex128), np.asarray(mu, dtype=np.complex128))
    return tuple(complex(z) for z in out) if out.ndim == 1 else out


def point_convolution_defect(space: FockSpace, lam, mu):
    """Largest value-array miss of convolve(phi_lam, phi_mu) = phi_{lam*mu}.

    Also folds in the involution identities: dagger(phi_lam) must equal the
    evaluation at the conjugate point, and dagger twice must be the identity.
    The evaluations are the rows of one :func:`_monomial_values`, four a trial.
    Two points give a float; two (trials, n) arrays of points, one defect a trial.
    """
    lam, mu = _ball_points(space, lam), _ball_points(space, mu)
    points = (lam, mu, _ball_points(space, pointwise_product(lam, mu)), _ball_points(space, np.conj(lam)))
    stacked = np.stack(points, axis=-2)  # (..., 4, n)
    values = _monomial_values(space, stacked.reshape(-1, space.n)).reshape(stacked.shape[:-1] + (space.dim,))
    pl, pm, target, conj = (Functional(space, values[..., k, :]) for k in range(4))
    dag = dagger(pl)
    pairs = ((convolve(pl, pm), target), (dag, conj), (dagger(dag), pl))
    misses = [np.abs(a.values - b.values).max(axis=-1, initial=0.0) for a, b in pairs]
    return _per_trial(pl, np.max(misses, axis=0))
