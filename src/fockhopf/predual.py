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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import graded
from .spaces import FockSpace, Vector, _worst_defect, basis_vector, schoolbook_product
from .words import Word

RankOnePair = tuple[Vector, Vector]


def _rank_one_values(space: FockSpace, pairs: Sequence[RankOnePair]) -> np.ndarray:
    # (L_w xi, eta) = sum_u xi_u conj(eta_wu): for |w| = k, |u| = m that is the
    # (n^k, n^m) reshape of conj(eta) on block k + m applied to xi on block m.
    values = np.zeros(space.dim, dtype=np.complex128)
    for xi, eta in pairs:
        if xi.space != space or eta.space != space:
            raise ValueError("rank-one pair vectors must live on the functional's space")
        conj_eta = np.conj(eta.data)
        for k, m in graded.splits(space.depth):
            pairing = graded.split_block(space, conj_eta, k, m) @ graded.block(space, xi.data, m)
            graded.block(space, values, k)[:] += pairing
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
        arr = np.array(self.values, dtype=np.complex128, copy=True).ravel()
        if arr.size != self.space.dim:
            raise ValueError(f"value array length {arr.size} does not match dim {self.space.dim}")
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
    generator; the defect is the largest miss among those constraints.  In
    basis order those are the leading n + 1 values: e, then the letters.
    """
    miss = f.values[: f.space.n + 1] - 1.0
    return float(np.hypot(miss.real, miss.imag).max())


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


def predual_coassociativity_defect(f: Functional) -> float:
    """Both iterates of the predual comultiplication agree on triples exactly.

    The iterates reshape the (|u v|, |w|) and (|u|, |v w|) blocks to triples;
    the direct value phi(L_{uvw}) is read at the index given by explicit rank
    arithmetic, start[|uvw|] + (rank(u) n^|v| + rank(v)) n^|w| + rank(w).
    """
    space = f.space
    split = predual_comult(f)
    n, starts = space.n, space._block_starts
    misses = []
    for a, b in graded.splits(space.depth):
        for c in range(space.depth - a - b + 1):
            shape = (n**a, n**b, n**c)
            ru, rv, rw = np.ix_(*(np.arange(size) for size in shape))
            direct = f.values[starts[a + b + c] + (ru * n**b + rv) * n**c + rw]
            iterates = (split.blocks[(a + b, c)], split.blocks[(a, b + c)])
            misses += [float(np.abs(it.reshape(shape) - direct).max()) for it in iterates]
    return _worst_defect(misses)


def predual_homomorphism_defect(f: Functional, g: Functional) -> float:
    """Defect of comult(f * g) = comult(f) * comult(g), componentwise."""
    lhs = predual_comult(convolve(f, g))
    rhs = tensor_convolve(predual_comult(f), predual_comult(g))
    return _worst_defect(float(np.abs(lhs.blocks[key] - rhs.blocks[key]).max()) for key in lhs.blocks)


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
        t, depth = self.ball_norm_sq, self.space.depth
        # Python's float power: np.power can round the last bit differently.
        per_length = [t ** (depth - k + 1) / (1.0 - t) for k in range(depth + 1)]
        return np.array(per_length)[self.space.lengths]


def point_functional(space: FockSpace, point: Sequence[complex]) -> PointFunctional:
    point = tuple(complex(z) for z in point)
    if len(point) != space.n:
        raise ValueError(f"point must have {space.n} coordinates, got {len(point)}")
    if sum(abs(z) ** 2 for z in point) >= 1.0:
        raise ValueError("point must lie in the open unit ball")
    # Block k + 1 is the outer product of block k with the point, w a -> w(point) p_a.
    values = np.zeros(space.dim, dtype=np.complex128)
    values[0] = 1.0
    coords = np.array(point)
    for k in range(space.depth):
        prefix = graded.block(space, values, k)[:, None]
        graded.split_block(space, values, k, 1)[:] = schoolbook_product(prefix, coords)
    weights = np.conj(values)
    norm = math.sqrt(float(np.sum(np.abs(weights) ** 2)))
    vec = Vector(space, weights / norm)
    return PointFunctional(space, point, Functional(space, values), vec)


def pointwise_product(lam: Sequence[complex], mu: Sequence[complex]) -> tuple[complex, ...]:
    """Componentwise product of ball points; stays in the open ball."""
    if len(lam) != len(mu):
        raise ValueError("points must have the same length")
    return tuple(complex(a) * complex(b) for a, b in zip(lam, mu))


def point_convolution_defect(
    space: FockSpace, lam: Sequence[complex], mu: Sequence[complex]
) -> float:
    """Largest value-array miss of convolve(phi_lam, phi_mu) = phi_{lam*mu}.

    Also folds in the involution identities: dagger(phi_lam) must equal the
    evaluation at the conjugate point, and dagger twice must be the identity.
    """
    pl = point_functional(space, lam)
    pm = point_functional(space, mu)
    conv = convolve(pl.functional, pm.functional)
    target = point_functional(space, pointwise_product(lam, mu)).functional
    conj = point_functional(space, tuple(z.conjugate() for z in pl.point)).functional
    dag = dagger(pl.functional)
    pairs = ((conv, target), (dag, conj), (dagger(dag), pl.functional))
    return _worst_defect(float(np.abs(a.values - b.values).max(initial=0.0)) for a, b in pairs)
