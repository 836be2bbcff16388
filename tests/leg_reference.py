"""Tensor-leg operators built by scipy: the literal references of the tensor-leg identities.

The package checks its tensor-leg identities on index maps and stored
entries, and builds no Kronecker product, flip or slice.  The tests build
them here as scipy matrices, on :mod:`scipy_oracle` alone, and compare:

* ``corep.leg_identity_defect`` (V's entries joined on the aux index) with
  ``leg_embed(V, (1, 3)) @ leg_embed(V, (2, 3))`` on H (x) H (x) K;
* the fundamental intertwining and right-commutation defects, the grouplike
  defect, the shifted wandering Gram and the corrupted corepresentation with
  products of :func:`kron` factors;
* the cocommutativity and integral plans with :func:`flip_permutation` conjugation and
  the vacuum slices of :func:`slice_left` and :func:`slice_right`.
"""

import numpy as np
from scipy import sparse

from fockhopf.spaces import Operator, TensorSpace, tensor_space

from scipy_oracle import from_scipy, scipy_csr


def kron(*ops: Operator) -> Operator:
    """The Kronecker product of the operators, the first factor the slowest index (scipy's kron)."""
    out = ops[0]
    for op in ops[1:]:
        mat = sparse.kron(scipy_csr(out), scipy_csr(op), format="csr")
        out = from_scipy(tensor_space(out.domain, op.domain), tensor_space(out.codomain, op.codomain), mat)
    return out


def permutation(domain, codomain, perm) -> Operator:
    """The operator sending basis j of the domain to basis perm[j] of the codomain."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.size != domain.dim:
        raise ValueError("permutation length does not match domain dimension")
    entries = (np.ones(domain.dim), (perm, np.arange(domain.dim)))
    return from_scipy(domain, codomain, sparse.coo_matrix(entries, shape=(codomain.dim, domain.dim)))


def flip_permutation(space: TensorSpace) -> Operator:
    """The flip x (x) y -> y (x) x on a two-factor tensor space."""
    if len(space.factors) != 2:
        raise ValueError("flip is defined on two-factor tensor spaces")
    f1, f2 = space.factors
    a, b = np.divmod(np.arange(space.dim, dtype=np.int64), f2.dim)
    return permutation(space, tensor_space(f2, f1), b * f1.dim + a)


def slice_left(pairs, t: Operator) -> Operator:
    """Pair the first leg of ``t`` against sum_j of the rank-one functionals (xi_j, eta_j):
    (S x, y) = sum_j (t(xi_j (x) x), eta_j (x) y)."""
    return _slice(pairs, t, 0)


def slice_right(pairs, t: Operator) -> Operator:
    """:func:`slice_left` with the roles of the two legs swapped."""
    return _slice(pairs, t, 1)


def _slice(pairs, t: Operator, leg: int) -> Operator:
    # The slice as scipy sums it: sum_j (eta_j* on the leg) t (xi_j on the leg),
    # the partial product made canonical as an Operator holds it.  (scipy leaves
    # a product's rows unsorted, and a product taken of that sums in its stored
    # order, which can round otherwise on non-dyadic data.)
    space = t.domain
    if t.codomain != space or not isinstance(space, TensorSpace) or len(space.factors) != 2:
        raise ValueError("slice maps expect a square operator on a two-factor space")
    paired, kept = space.factors[leg], space.factors[1 - leg]
    ident = sparse.identity(kept.dim, dtype=np.complex128, format="csr")

    def on_leg(column):
        return sparse.kron(*((column, ident) if leg == 0 else (ident, column)), format="csr")

    acc = sparse.csr_matrix((kept.dim, kept.dim), dtype=np.complex128)
    for xi, eta in pairs:
        if xi.space != paired or eta.space != paired:
            raise ValueError("a rank-one pair lives on another space than the sliced leg")
        embed = on_leg(sparse.csr_matrix(xi.data.reshape(-1, 1)))
        pair_out = on_leg(sparse.csr_matrix(eta.data.reshape(-1, 1)).conjugate().transpose())
        acc = acc + scipy_csr(from_scipy(space, kept, pair_out @ scipy_csr(t))) @ embed
    return from_scipy(kept, kept, acc)


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

    coo = scipy_csr(v).tocoo()
    d2 = vspace.factors[1].dim
    ra, rb = np.divmod(coo.row, d2)
    ca, cb = np.divmod(coo.col, d2)
    t = np.arange(d_other, dtype=np.int64)
    rows = (ra[:, None] * si + rb[:, None] * sj + t[None, :] * so).ravel()
    cols = (ca[:, None] * si + cb[:, None] * sj + t[None, :] * so).ravel()
    vals = np.repeat(coo.data, d_other)
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(ambient.dim, ambient.dim))
    return from_scipy(ambient, ambient, mat.tocsr())
