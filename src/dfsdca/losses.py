"""Scalar loss functions, their smoothness constants, and test instances.

Three families are supported: logistic ``log(1 + exp(-y x))``, squared
``(x - y)^2 / 2``, and a quadratic family ``c x^2/2 + b x`` whose curvature
may be negative per example (used to exercise the non-convex regime while
the averaged, data-composed loss stays convex).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .dataset import Dataset

LOGISTIC = "logistic"
SQUARED = "squared"
QUADFAM = "quadfam"

KINDS = (LOGISTIC, SQUARED, QUADFAM)


@dataclass(eq=False)
class LossSpec:
    """Per-example losses of one kind plus their smoothness constants l_i."""

    kind: str
    y: np.ndarray | None = None
    c: np.ndarray | None = None
    b: np.ndarray | None = None
    l: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == QUADFAM:
            self.c = np.asarray(self.c, dtype=np.float64)
            self.b = np.asarray(self.b, dtype=np.float64)
            if self.c.shape != self.b.shape or self.c.ndim != 1:
                raise ValueError("quadfam needs 1-d c and b of equal length")
            if np.any(self.c == 0.0):
                raise ValueError("quadfam curvature c_i must be nonzero")
            self.l = np.abs(self.c)
        else:
            self.y = np.asarray(self.y, dtype=np.float64)
            if self.y.ndim != 1:
                raise ValueError("labels must be 1-d")
            base = 0.25 if self.kind == LOGISTIC else 1.0
            self.l = np.full(self.y.shape, base)

    @property
    def n(self) -> int:
        return int(self.l.size)

    @property
    def convex(self) -> bool:
        """Whether every individual loss is convex."""
        return self.kind != QUADFAM or bool(np.all(self.c > 0.0))

    def values(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == LOGISTIC:
            y = self.y[idx]
            return np.logaddexp(0.0, -y * x)
        if self.kind == SQUARED:
            r = x - self.y[idx]
            return 0.5 * r * r
        return 0.5 * self.c[idx] * x * x + self.b[idx] * x

    def gradients(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == LOGISTIC:
            y = self.y[idx]
            # -y * sigmoid(-y x); expit saturates instead of overflowing
            return -y * expit(-y * x)
        if self.kind == SQUARED:
            return x - self.y[idx]
        return self.c[idx] * x + self.b[idx]

    def curvatures(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Second derivatives phi_i''(x_i)."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == LOGISTIC:
            s = expit(-self.y[idx] * x)
            return s * (1.0 - s)
        if self.kind == SQUARED:
            return np.ones_like(x)
        return self.c[idx]

    def value(self, i: int, x: float) -> float:
        return float(self.values(np.array([i]), np.array([x]))[0])

    def gradient(self, i: int, x: float) -> float:
        return float(self.gradients(np.array([i]), np.array([x]))[0])


def logistic_loss(labels) -> LossSpec:
    labels = np.asarray(labels, dtype=np.float64)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("logistic loss requires labels in {-1, +1}")
    return LossSpec(LOGISTIC, y=labels)


def squared_loss(targets) -> LossSpec:
    return LossSpec(SQUARED, y=targets)


def quadratic_family(c, b) -> LossSpec:
    return LossSpec(QUADFAM, c=c, b=b)


def loss_from_kind(kind: str, dataset: Dataset) -> LossSpec:
    """Build the loss of the given kind from a dataset's labels."""
    if kind == LOGISTIC:
        return logistic_loss(dataset.labels)
    if kind == SQUARED:
        return squared_loss(dataset.labels)
    raise ValueError(f"loss kind {kind!r} needs explicit parameters")


@dataclass(frozen=True)
class SmoothnessConstants:
    """l_i (argument smoothness), L_i <= l_i ||A_i|| (iterate smoothness),
    and L = max_i L_i."""

    l: np.ndarray
    L_per: np.ndarray
    L: float


def smoothness_constants(loss: LossSpec, dataset: Dataset) -> SmoothnessConstants:
    if loss.n != dataset.n:
        raise ValueError("loss and dataset sizes disagree")
    L_per = loss.l * dataset.norms
    return SmoothnessConstants(l=loss.l.copy(), L_per=L_per, L=float(np.max(L_per)))


def average_curvature_matrix(dataset: Dataset, c: np.ndarray) -> np.ndarray:
    """Dense Hessian of w -> (1/n) sum_i c_i/2 (A_i^T w)^2, i.e.
    (1/n) sum_i c_i A_i A_i^T, as one sparse product A^T (c o A) / n.

    With c = phi''(A w) it is the loss part of the objective's Hessian at w,
    which the reference oracle builds on every Newton iteration.
    """
    A = dataset.csr()
    scaled = sp.csr_matrix(
        (A.data * np.repeat(c, dataset.nnz), A.indices, A.indptr), shape=A.shape
    )
    return (dataset.csr_t() @ scaled).toarray() / dataset.n


def min_curvature_eig(dataset: Dataset, c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(average_curvature_matrix(dataset, c))[0])


def build_nonconvex_instance(n: int, d: int, seed: int) -> tuple[Dataset, LossSpec]:
    """Quadratic-family instance with some c_i < 0 whose averaged,
    data-composed loss is still convex.

    Examples are placed on coordinate axes in pairs sharing an axis: the
    first member of each pair gets negative curvature, the second enough
    positive curvature to keep that axis's aggregate strictly positive.
    The resulting Hessian (1/n) sum c_i A_i A_i^T is diagonal with
    nonnegative entries, hence PSD by construction.
    """
    if n < 2:
        raise ValueError("need n >= 2 to place a non-convex example safely")
    rng = np.random.default_rng(seed)
    c = np.empty(n)
    axes = np.empty(n, dtype=np.int64)
    scales = rng.uniform(0.5, 1.5, size=n)
    for j in range(n // 2):
        i1, i2 = 2 * j, 2 * j + 1
        axis = j % d
        axes[i1] = axes[i2] = axis
        c[i1] = rng.uniform(-1.0, -0.2)
        margin = rng.uniform(0.5, 1.5)
        c[i2] = (-c[i1] * scales[i1] ** 2 + margin) / scales[i2] ** 2
    if n % 2:
        axes[-1] = (n // 2) % d
        c[-1] = rng.uniform(0.5, 1.5)
    b = rng.standard_normal(n)
    dataset = Dataset(np.arange(n + 1), axes, scales, np.zeros(n), d)
    return dataset, quadratic_family(c, b)
