"""Sparse datasets: LIBSVM ingestion, normalization, synthetic generators.

A :class:`Dataset` stores its rows once, as frozen CSR arrays
(``indptr``/``indices``/``data``), with the labels, the dimension d, and
the per-row norms and nonzero counts derived from them. Every numerical
kernel reads those arrays: full margins and combinations for objective
values and gradients, :meth:`Dataset.gather` for vectorized work on a
subset of rows, and the solver's compiled step kernel, which is handed
pointers to them.

``Dataset(indptr, indices, data, labels, d)`` is the one constructor; the
LIBSVM parser, the synthetic generators and the normalizers all build
their CSR arrays and pass them in.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed LIBSVM input; message names the offending line."""


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[k], starts[k] + counts[k]) laid end to end."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Dataset:
    """n sparse rows of dimension d, stored as frozen CSR arrays, plus
    per-row labels; norms and nnz counts are computed once.

    The arrays must be canonical: strictly increasing column indices in
    [0, d) within each row and no explicit zeros."""

    def __init__(self, indptr, indices, data, labels, d: int):
        n = len(indptr) - 1
        self.labels = _freeze(np.asarray(labels, dtype=np.float64))
        if self.labels.shape != (n,):
            raise ValueError("labels length must equal number of examples")
        self.d = int(d)
        self._csr = A = sp.csr_matrix((data, indices, indptr), shape=(n, self.d))
        if not A.has_canonical_format:
            raise ValueError("indices must be strictly increasing within each row")
        if A.nnz and (A.indices.min() < 0 or A.indices.max() >= self.d):
            raise ValueError("index out of range for dim=%d" % self.d)
        if np.any(A.data == 0.0):
            raise ValueError("explicit zero values are not canonical")
        self.indptr = _freeze(A.indptr)
        self.indices = _freeze(A.indices)
        self.data = _freeze(A.data)
        self.nnz = _freeze(np.diff(self.indptr).astype(np.int64))
        # bincount adds each row's squares left to right, starting from 0.0
        rows = np.repeat(np.arange(n), self.nnz)
        self.norms = _freeze(
            np.sqrt(np.bincount(rows, self.data * self.data, minlength=n))
        )
        self._csr_t = None
        self._overlap = None

    @property
    def n(self) -> int:
        return self.labels.size

    def margins(self, w: np.ndarray) -> np.ndarray:
        """All inner products A_i^T w at once (CSR matvec)."""
        return self._csr @ w

    def gather(self, subset: np.ndarray):
        """Nonzeros of the rows in ``subset``, row after row, as
        ``(seg, cols, vals)``: entry k lies in row ``subset[seg[k]]`` at
        column ``cols[k]``. Each row keeps its CSR order, so
        ``np.bincount(seg, vals * w[cols], minlength=len(subset))`` sums
        every row left to right, like the CSR matvec of :meth:`margins`, and
        equals ``margins(w)[subset]`` bitwise.

        The ESO validator builds its aggregated rows from it. The solver
        does not use it: its compiled kernel reads the CSR arrays directly,
        in the same order, and the numpy kernel over ``gather`` in
        ``tests/test_kernel.py`` is its bitwise reference."""
        starts = self.indptr[subset]
        counts = self.indptr[1:][subset] - starts
        pos = concat_ranges(starts, counts)
        seg = np.repeat(np.arange(subset.size), counts)
        return seg, self.indices[pos], self.data[pos]

    def csr(self) -> sp.csr_matrix:
        return self._csr

    def csr_t(self) -> sp.csr_matrix:
        if self._csr_t is None:
            self._csr_t = self.csr().T.tocsr()
        return self._csr_t

    def overlap(self) -> np.ndarray:
        """Per-row sums sum_j (omega_j - 1) A_ij^2, where omega_j counts
        the rows with a nonzero in column j: the data term of the tau-nice
        ESO bound. Built on first use, like :meth:`csr_t`, and frozen."""
        if self._overlap is None:
            omega = np.bincount(self.indices, minlength=self.d)
            rows = np.repeat(np.arange(self.n), self.nnz)
            weights = (omega[self.indices] - 1) * (self.data * self.data)
            self._overlap = _freeze(np.bincount(rows, weights, minlength=self.n))
        return self._overlap

    def combine(self, alpha: np.ndarray) -> np.ndarray:
        """Dense vector sum_i alpha_i A_i."""
        return self.csr_t() @ alpha


def parse_libsvm(source, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM/SVMlight text: ``label idx:val idx:val ...`` per line.

    File indices are 1-based and must be strictly increasing within a line;
    they are remapped to 0-based. ``#`` starts a comment. Explicit zero
    values are dropped (canonical form). The dimension is the largest index
    seen unless ``n_features`` overrides it.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = list(source)

    labels: list[float] = []
    indptr: list[int] = [0]
    idx: list[int] = []
    val: list[float] = []
    max_index = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric label {parts[0]!r}")
        prev = 0
        for tok in parts[1:]:
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected idx:val, got {tok!r}")
            try:
                j = int(head)
                x = float(tail)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric token {tok!r}")
            if j < 1:
                raise ParseError(f"line {lineno}: index {j} is not 1-based")
            if j <= prev:
                raise ParseError(f"line {lineno}: non-increasing indices")
            prev = j
            if x != 0.0:
                idx.append(j - 1)
                val.append(x)
        if prev > max_index:
            max_index = prev
        labels.append(label)
        indptr.append(len(idx))

    if not labels:
        raise ParseError("empty input: no data lines")
    d = max_index if n_features is None else int(n_features)
    if d < max_index:
        raise ParseError(
            f"n_features={n_features} smaller than max index {max_index}"
        )
    d = max(d, 1)
    return Dataset(
        np.array(indptr, dtype=np.int64), np.array(idx, dtype=np.int64),
        np.array(val, dtype=np.float64), labels, d,
    )


def serialize_libsvm(dataset: Dataset) -> str:
    """Canonical text form (1-based indices, shortest round-trip floats)."""
    ptr, cols, vals = dataset.indptr, dataset.indices, dataset.data
    out = []
    for y, lo, hi in zip(dataset.labels, ptr[:-1], ptr[1:]):
        toks = [repr(float(y))]
        toks += [
            "%d:%s" % (j + 1, repr(float(v)))
            for j, v in zip(cols[lo:hi], vals[lo:hi])
        ]
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def normalize_max_norm(dataset: Dataset) -> tuple[Dataset, float]:
    """Scale every example by 1/max_i ||A_i|| (one global scale).

    Returns the rescaled dataset and the original max norm. Preserves the
    relative geometry of the examples.
    """
    scale = float(np.max(dataset.norms))
    if scale == 0.0:
        raise ValueError("cannot normalize: all examples have zero norm")
    rescaled = Dataset(dataset.indptr, dataset.indices, dataset.data / scale,
                       dataset.labels, dataset.d)
    return rescaled, scale


LABEL_MODELS = ("linear-sign", "linear-noise", "skewed-nnz")


def gen_synthetic(
    n: int,
    d: int,
    density: float,
    label_model: str,
    seed: int,
    tail_exponent: float = 2.0,
) -> Dataset:
    """Random sparse dataset, deterministic for a fixed seed.

    ``linear-sign`` plants a weight vector and labels by its sign
    (classification, y in {-1,+1}); ``linear-noise`` adds Gaussian noise to
    the planted margins (regression); ``skewed-nnz`` draws per-example nnz
    from a Pareto tail (median ~ density*d, exponent ``tail_exponent``) for
    load-balancing experiments, labeled by sign.
    """
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must be in (0, 1], got {density}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(seed)

    if label_model == "skewed-nnz":
        # Classical Pareto with unit median: x_m * 2^(1/a) = 1.
        x_m = 2.0 ** (-1.0 / tail_exponent)
        draws = x_m * (1.0 + rng.pareto(tail_exponent, size=n))
        counts = np.clip(np.rint(density * d * draws).astype(int), 1, d)
    elif label_model in ("linear-sign", "linear-noise"):
        counts = np.clip(rng.binomial(d, density, size=n), 1, d)
    else:
        raise ValueError(f"unknown label_model {label_model!r}")

    rows = []
    for k in counts:
        idx = np.sort(rng.choice(d, size=int(k), replace=False))
        val = rng.standard_normal(int(k))
        val[val == 0.0] = 1.0
        rows.append((idx, val))

    w_true = rng.standard_normal(d)
    # per-row dot products: the label margins are part of the data, and a
    # CSR matvec would round them differently
    margins = np.array([np.dot(val, w_true[idx]) for idx, val in rows])
    if label_model == "linear-noise":
        labels = margins + 0.1 * rng.standard_normal(n)
    else:
        labels = np.where(margins >= 0.0, 1.0, -1.0)
    return Dataset(
        np.concatenate(([0], np.cumsum(counts))),
        np.concatenate([idx for idx, _ in rows]),
        np.concatenate([val for _, val in rows]),
        labels, d,
    )
