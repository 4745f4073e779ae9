"""Hand-written rows for tests: build a CSR dataset from ``(indices,
values)`` pairs, read a row back as its CSR slices, and wrap scipy
matrices around a dataset's CSR arrays as a reference."""

import numpy as np
import scipy.sparse as sp

from dfsdca.dataset import Dataset


def from_rows(rows, labels, d: int) -> Dataset:
    """The dataset whose row i has nonzeros ``values`` at ``indices``."""
    indptr = np.cumsum([0] + [len(idx) for idx, _ in rows])
    indices = np.concatenate([np.asarray(idx, dtype=np.int64) for idx, _ in rows])
    data = np.concatenate([np.asarray(val, dtype=np.float64) for _, val in rows])
    return Dataset(indptr, indices, data, labels, d)


def row(ds: Dataset, i: int):
    """Row i as ``(indices, values)`` views into the CSR arrays."""
    lo, hi = ds.indptr[i], ds.indptr[i + 1]
    return ds.indices[lo:hi], ds.data[lo:hi]


def scipy_matrices(ds: Dataset) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The n x d and d x n scipy matrices around the arrays of
    ``ds.csr()`` and ``ds.csr_t()``, with no copy."""
    def wrap(csr, shape):
        indptr, indices, data = csr.arrays
        return sp.csr_matrix((data, indices, indptr), shape=shape)
    return wrap(ds.csr(), (ds.n, ds.d)), wrap(ds.csr_t(), (ds.d, ds.n))
