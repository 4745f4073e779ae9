"""Dense curvature matrices for tests on small problems: the d x d loss
Hessians that the matrix-free reference oracle never builds."""

import numpy as np
import scipy.sparse as sp

from dfsdca.dataset import Dataset


def average_curvature_matrix(dataset: Dataset, c: np.ndarray) -> np.ndarray:
    """Dense Hessian of w -> (1/n) sum_i c_i/2 (A_i^T w)^2, i.e.
    (1/n) sum_i c_i A_i A_i^T, as one sparse product A^T (c o A) / n.

    With c = phi''(A w) it is the loss part of the objective's Hessian at w.
    """
    A = dataset.csr()
    scaled = sp.csr_matrix(
        (A.data * np.repeat(c, dataset.nnz), A.indices, A.indptr), shape=A.shape
    )
    return (dataset.csr_t() @ scaled).toarray() / dataset.n


def min_curvature_eig(dataset: Dataset, c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(average_curvature_matrix(dataset, c))[0])
