"""Leg embeddings as scipy operators: the literal reference of the three-leg identity.

``corep.leg_identity_defect`` joins V's entries on the aux index; the tests
compare it with ``leg_embed(V, (1, 3)) @ leg_embed(V, (2, 3))`` on the
H (x) H (x) K ambient, built here as sparse matrices.
"""

import numpy as np
from scipy import sparse

from fockhopf.spaces import Operator, TensorSpace

from scipy_oracle import from_scipy, scipy_csr


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
