"""Scalar loss functions, their smoothness constants, and test instances.

Three families are supported: logistic ``log(1 + exp(-y x))``, squared
``(x - y)^2 / 2``, and a quadratic family ``c x^2/2 + b x`` whose curvature
may be negative per example (used to exercise the non-convex regime while
the averaged, data-composed loss stays convex).

The compiled loss pass (``_kernel.Loss``) evaluates them in the order, and
on the libm calls, of the numpy and scipy forms it replaced, so with their
bits: for t = -y x, ``np.logaddexp(0.0, t)`` and scipy's sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .dataset import Dataset, check_csr_size

LOGISTIC = "logistic"
SQUARED = "squared"
QUADFAM = "quadfam"

KINDS = (LOGISTIC, SQUARED, QUADFAM)


@dataclass(eq=False)
class LossSpec:
    """Per-example losses of one kind plus their smoothness constants l_i,
    and the parameters' one binding for C (``kernel``), which the loss
    pass and the solver's step kernel read."""

    kind: str
    y: np.ndarray | None = None
    c: np.ndarray | None = None
    b: np.ndarray | None = None
    l: np.ndarray = field(init=False)
    kernel: _kernel.Loss = field(init=False, repr=False)

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
        # the kernel's loss-kind codes are the positions in KINDS
        params = (None if a is None else np.ascontiguousarray(a)
                  for a in (self.y, self.c, self.b))
        self.kernel = _kernel.Loss(KINDS.index(self.kind), self.l.size, *params)

    @property
    def n(self) -> int:
        return int(self.l.size)

    @property
    def convex(self) -> bool:
        """Whether every individual loss is convex."""
        return self.kind != QUADFAM or bool(np.all(self.c > 0.0))

    def values(self, idx, x: np.ndarray) -> np.ndarray:
        """phi_i(x_i) for the examples ``idx``, any index of ``range(n)``."""
        return self.kernel(x, idx, values=True)[0]

    def gradients(self, idx, x: np.ndarray) -> np.ndarray:
        """First derivatives phi_i'(x_i), saturated for the logistic loss."""
        return -self.kernel(x, idx, alpha=True)[0]

    def curvatures(self, idx, x: np.ndarray) -> np.ndarray:
        """Second derivatives phi_i''(x_i)."""
        return self.kernel(x, idx, curvatures=True)[0]

    def value(self, i: int, x: float) -> float:
        return self.kernel.at(i, x, _kernel.VALUE)

    def gradient(self, i: int, x: float) -> float:
        return -self.kernel.at(i, x, _kernel.ALPHA)


def logistic_loss(labels) -> LossSpec:
    labels = np.asarray(labels, dtype=np.float64)
    if not ((labels == 1.0) | (labels == -1.0)).all():
        raise ValueError("logistic loss requires labels in {-1, +1}")
    return LossSpec(LOGISTIC, y=labels)


def squared_loss(targets) -> LossSpec:
    return LossSpec(SQUARED, y=targets)


def quadratic_family(c, b) -> LossSpec:
    return LossSpec(QUADFAM, c=c, b=b)


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
    check_csr_size(n, d, n)  # one entry per row
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
