"""scipy views of the package's operators: the independent oracle of the tests.

The package does its sparse arithmetic on its own CSR arrays.  The tests read
an operator as a scipy matrix through :func:`scipy_csr` alone, so every kernel
is compared with scipy's, and no route is checked against itself.
"""

import numpy as np
from scipy import sparse

from fockhopf.spaces import Operator


def scipy_csr(op: Operator) -> sparse.csr_matrix:
    """The operator as a scipy csr_matrix over its own (read-only) arrays."""
    return sparse.csr_matrix(op.csr, shape=op.shape)


def from_scipy(domain, codomain, mat) -> Operator:
    """The operator of a scipy matrix, made canonical by scipy."""
    mat = sparse.csr_matrix(mat, dtype=np.complex128)
    if mat.shape != (codomain.dim, domain.dim):
        raise ValueError(f"matrix shape {mat.shape} does not match spaces {(codomain.dim, domain.dim)}")
    mat.sum_duplicates()
    return Operator(domain, codomain, (mat.data, mat.indices, mat.indptr))


def max_abs(mat, columns=None) -> float:
    """Largest entry modulus of a scipy matrix, over ``columns`` when given; 0.0 with no entries."""
    if columns is not None:
        mat = mat.tocsc()[:, columns]
    return float(np.abs(mat.data).max(initial=0.0))


def assert_same_arrays(op: Operator, mat) -> None:
    """The operator holds scipy's canonical arrays of ``mat``, dtypes and bytes alike."""
    for arr, name in zip(op.csr, ("data", "indices", "indptr")):
        want = getattr(mat, name)
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name


def entries_csc(entries, shape) -> sparse.csc_matrix:
    """The scipy matrix of (row, col, value) entry arrays, entries at one position summed."""
    rows, cols, vals = entries
    return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsc()
