"""Sparse datasets: LIBSVM ingestion, normalization, synthetic generators.

A :class:`Dataset` stores its rows once, as frozen CSR arrays
(``indptr``/``indices``/``data``), with the labels, the dimension d, and
the per-row norms and nonzero counts derived from them. Every compiled
kernel reads one binding of those arrays (``_kernel.Csr``): the row pass
for margins, losses and combinations, the solver's step kernel and the
reference oracle's Hessian products.

``Dataset(indptr, indices, data, labels, d)`` is the one constructor; the
LIBSVM parser, the synthetic generators and the normalizers all build
their CSR arrays and pass them in.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import _kernel


class ParseError(ValueError):
    """Malformed LIBSVM input; message names the offending line."""


class NonFiniteError(ValueError):
    """A label, or a row norm, that is not finite; message names the row."""


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[k], starts[k] + counts[k]) laid end to end."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _csr_matrix(indptr, indices, data, shape: tuple) -> sp.csr_matrix:
    """A scipy matrix around canonical CSR arrays, with no copy."""
    A = sp.csr_matrix((data, indices, indptr), shape=shape)
    A.has_canonical_format = True
    return A


def check_csr_size(n: int, d: int, nnz: int | None = None) -> None:
    """Raise ValueError naming the sizes unless n, d and nnz (where known)
    are at most ``_kernel.INT32_MAX``, as int32 CSR index arrays need."""
    if max(n, d, nnz or 0) > _kernel.INT32_MAX:
        sizes = f"n={n} and d={d}" if nnz is None else f"n={n}, d={d} and nnz={nnz}"
        raise ValueError(f"dataset too large for int32 CSR indices: {sizes} must be "
                         f"at most 2**31 - 1 = {_kernel.INT32_MAX}")


class Dataset:
    """n sparse rows of dimension d, stored as frozen CSR arrays, plus
    per-row labels; norms and nnz counts are computed once.

    The arrays must be canonical: strictly increasing column indices in
    [0, d) within each row and no explicit zeros. Every label and every row
    norm must be finite, so no value is NaN or infinite and none is so
    large that its square overflows (above about 1.3e154): else
    :class:`NonFiniteError` names the first row at fault.

    A Dataset is int32 CSR: n, d and nnz are at most 2**31 - 1, checked
    first (:func:`check_csr_size`), and ``indptr[-1]`` is the number of
    entries. One compiled pass (``_kernel.csr_pass``) checks the arrays,
    counts and measures the rows and writes the index arrays as int32, so
    building a Dataset by hand also loads the compiled library (gcc on
    first use). A row's norm is the square root of its squares summed left
    to right from 0.0.

    :meth:`margins`, :meth:`losses` and :meth:`combine` are the compiled
    row pass on the Dataset's one binding of its rows (the pass's
    ``_kernel.Csr``) and of their transpose (:meth:`_transpose`), which the
    step kernel and the oracle's Hessian read too: so their bits are those
    of ``csr() @ w`` and ``csr_t() @ alpha``. :meth:`csr` and :meth:`csr_t`
    wrap scipy matrices around those same arrays, with no copy, when first
    called."""

    def __init__(self, indptr, indices, data, labels, d: int):
        n = len(indptr) - 1
        check_csr_size(n, d, len(indices))
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (n,):
            raise ValueError("labels length must equal number of examples")
        self.labels = _freeze(np.ascontiguousarray(labels))
        self.d = int(d)
        indptr, indices = np.asarray(indptr, np.int64), np.asarray(indices, np.int64)
        data = np.asarray(data, np.float64)
        # the array shapes, in the words of scipy's csr_matrix checks
        if not indptr.ndim == indices.ndim == data.ndim == 1:
            raise ValueError("data, indices, and indptr should be 1-D")
        if indptr[0] != 0:
            raise ValueError("index pointer should start with 0")
        if indices.size != data.size:
            raise ValueError("indices and data should have the same size")
        if indptr[-1] != indices.size:
            raise ValueError("Last value of index pointer should equal "
                             "the size of index and data arrays")
        rows, nnz, norms, bad = _kernel.csr_pass(
            *map(np.ascontiguousarray, (indptr, indices, data)), self.labels, self.d)
        if bad[0] >= 0:
            raise ValueError("indices must be strictly increasing within each row")
        if bad[1] >= 0:
            raise ValueError("index out of range for dim=%d" % self.d)
        if bad[2] >= 0:
            raise ValueError("explicit zero values are not canonical")
        if bad[3] >= 0:
            i = int(bad[3])
            if not np.isfinite(self.labels[i]):
                raise NonFiniteError(f"row {i} (0-based): label {self.labels[i]} "
                                     "is not finite")
            raise NonFiniteError(
                f"row {i} (0-based): norm {norms[i]} is not finite: a value "
                "is NaN or infinite, or so large that its square overflows"
            )
        self.indptr, self.indices, self.data = map(_freeze, rows.arrays)
        self.nnz = _freeze(nnz)
        self.norms = _freeze(norms)
        self._rows = rows
        self._csr = self._csr_t = self._columns = self._overlap = None

    @property
    def n(self) -> int:
        return self.labels.size

    def margins(self, w: np.ndarray) -> np.ndarray:
        """All inner products A_i^T w at once (the row pass); w is 1-d of
        length d, else ValueError."""
        return self._rows.product(w, "w")[0]

    def losses(self, w: np.ndarray, loss: _kernel.Loss) -> np.ndarray:
        """``margins(w)`` and the losses of a ``LossSpec.kernel`` at them, as
        the rows of one array, from one row pass."""
        return self._rows.product(w, "w", loss)

    def csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = _csr_matrix(self.indptr, self.indices, self.data, (self.n, self.d))
        return self._csr

    def _transpose(self) -> _kernel.Csr:
        """The d x n transpose's binding, over frozen arrays, built on first use."""
        if self._columns is None:
            self._columns = self._rows.transpose()
        return self._columns

    def csr_t(self) -> sp.csr_matrix:
        if self._csr_t is None:
            self._csr_t = _csr_matrix(*self._transpose().arrays, (self.d, self.n))
        return self._csr_t

    def overlap(self) -> np.ndarray:
        """Per-row sums sum_j (omega_j - 1) A_ij^2, where omega_j counts
        the rows with a nonzero in column j: the data term of the tau-nice
        ESO bound. Built on first use, like the transpose, and frozen."""
        if self._overlap is None:
            omega = np.bincount(self.indices, minlength=self.d)
            rows = np.repeat(np.arange(self.n), self.nnz)
            weights = (omega[self.indices] - 1) * (self.data * self.data)
            self._overlap = _freeze(np.bincount(rows, weights, minlength=self.n))
        return self._overlap

    def combine(self, alpha: np.ndarray) -> np.ndarray:
        """Dense vector sum_i alpha_i A_i (the row pass over the transpose);
        alpha is 1-d of length n, else ValueError."""
        return self._transpose().product(alpha, "alpha")[0]


def libsvm_arrays(text) -> tuple:
    """The arrays of LIBSVM bytes (any buffer), before a :class:`Dataset`
    checks them: ``(labels, indptr, indices, data, max_index)``, with
    0-based int64 indices, explicit zeros dropped and the largest 1-based
    index seen (0 if none). ``nan`` and ``inf`` are kept. Raises
    :class:`ParseError` naming the line of the first malformed token, in
    the words of the grammar in :func:`parse_libsvm`.
    """
    arrays, fault = _kernel.parse_libsvm(text)
    if fault is None:
        return arrays
    code, line, token = fault
    if code == _kernel.NON_ASCII:
        raise ParseError(f"line {line}: non-ASCII byte 0x{token[0]:02x}")
    token = token.decode("ascii")
    if code == _kernel.BAD_LABEL:
        message = f"non-numeric label {token!r}"
    elif code == _kernel.NO_COLON:
        message = f"expected idx:val, got {token!r}"
    elif code == _kernel.BAD_TOKEN:
        message = f"non-numeric token {token!r}"
    elif code == _kernel.NOT_ONE_BASED:
        message = f"index {int(token.partition(':')[0])} is not 1-based"
    elif code == _kernel.INDEX_TOO_LARGE:
        message = f"index {int(token.partition(':')[0])} exceeds 2**63 - 1"
    else:
        message = "non-increasing indices"
    raise ParseError(f"line {line}: {message}")


def parse_libsvm(source, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM/SVMlight text: ``label idx:val idx:val ...`` per line.

    ``source`` is the text as ``str`` or as any bytes-like buffer
    (``bytes``, ``bytearray``, ``memoryview``, ``mmap``, a uint8 array),
    which is read in place (one that is not C-contiguous, as its contiguous
    copy), or a file object to read it from, in text or
    binary mode. It must be ASCII: any other byte (or character) is an
    error that names its line. The compiled parser in ``_kernel.c`` reads
    it, so the first call builds that library (gcc).

    Lines break where ``str.splitlines()`` breaks them (``\\n``, ``\\r\\n``,
    ``\\r``, ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``), tokens are separated by
    spaces, tabs and ``\\x1f``, and ``#`` starts a comment that runs to the
    line break. A line with no token is skipped. Otherwise its first token
    is the label, a number, and each further token is ``idx:val``:

    - an index is ``[+-]?[0-9]+``, 1-based, below 2**63 and strictly
      increasing within the line; it is remapped to 0-based;
    - a number (label or value) is ``[+-]?`` followed by ``inf``,
      ``infinity`` or ``nan`` in any case, or by decimal digits with at most
      one ``.`` and an optional exponent ``[eE][+-]?[0-9]+``, with at least
      one digit before the exponent. It takes the correctly rounded double,
      as Python's ``float()`` gives. Underscores between digits, non-ASCII
      digits, hexadecimal floats and ``nan(...)`` are not numbers.

    Explicit zero values are dropped (canonical form). The dimension is the
    largest index seen unless ``n_features`` overrides it. Every error in
    the text is a :class:`ParseError`; a malformed line's message names the
    line. ``nan`` and ``inf`` parse, but the :class:`Dataset` built from
    them rejects them: a label that is not finite, or a row whose norm is
    not finite, raises :class:`NonFiniteError` naming the row.
    """
    if isinstance(source, str):
        text = source
    else:
        try:
            text = memoryview(source)
        except TypeError:  # no buffer: a file object
            text = source.read()
    if isinstance(text, str):
        # any non-ASCII character becomes bytes >= 0x80, which the parser rejects
        text = text.encode("utf-8", "surrogatepass")
    labels, indptr, indices, data, max_index = libsvm_arrays(text)
    if not labels.size:
        raise ParseError("empty input: no data lines")
    d = max_index if n_features is None else int(n_features)
    if d < max_index:
        raise ParseError(
            f"n_features={n_features} smaller than max index {max_index}"
        )
    return Dataset(indptr, indices, data, labels, max(d, 1))


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
    relative geometry of the examples, except that a value which underflows
    to 0.0 is dropped, as the parser drops an explicit zero.
    """
    scale = float(np.max(dataset.norms))
    if scale == 0.0:
        raise ValueError("cannot normalize: all examples have zero norm")
    indptr, indices, data = dataset.indptr, dataset.indices, dataset.data / scale
    if np.count_nonzero(data) < data.size:
        kept = data != 0.0
        indptr = np.concatenate(([0], np.cumsum(kept)))[indptr]
        indices, data = indices[kept], data[kept]
    return Dataset(indptr, indices, data, dataset.labels, dataset.d), scale


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

    The stream is fixed: from ``np.random.default_rng(seed)``, the row
    counts (``pareto`` or ``binomial``), then for each row of k entries the
    draws of ``np.sort(rng.choice(d, k, replace=False))`` for its columns
    and ``rng.standard_normal(k)`` for its values (0.0 becomes 1.0), then
    ``standard_normal(d)`` for the planted weights and, for
    ``linear-noise``, ``standard_normal(n)`` for the noise. A label margin
    is the ``np.dot`` of a row's values with the weights at its columns.
    The compiled row pass ``_kernel.choice_rows`` makes those choice draws
    through numpy's own C code in both of numpy's regimes (Floyd's
    algorithm where d <= 10000 or k <= d // 50, and otherwise a shuffle of
    the tail of ``range(d)``) and sorts each row's columns. So a dataset
    equals that per-row loop's bit for bit (``tests/test_gen_fuzz.py``
    keeps the loop as its reference).
    The first call builds the compiled library (gcc). Sizes above 2**31 - 1
    raise ValueError: n and d before any draw, nnz before any row's draws.
    So does a ``density`` outside (0, 1] or a ``tail_exponent`` that is not
    a finite number above 0, before any draw, for every label model.
    """
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must be in (0, 1], got {density}")
    if not (0.0 < tail_exponent < np.inf):
        raise ValueError(
            f"tail_exponent must be a finite number above 0, got {tail_exponent}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    check_csr_size(n, d)
    if label_model not in LABEL_MODELS:
        raise ValueError(f"unknown label_model {label_model!r}")
    rng = np.random.default_rng(seed)

    if label_model == "skewed-nnz":
        # Classical Pareto with unit median: x_m * 2^(1/a) = 1.
        x_m = 2.0 ** (-1.0 / tail_exponent)
        draws = x_m * (1.0 + rng.pareto(tail_exponent, size=n))
        counts = np.clip(np.rint(density * d * draws).astype(int), 1, d)
    else:
        counts = np.clip(rng.binomial(d, density, size=n), 1, d)
    check_csr_size(n, d, int(counts.sum()))

    cols, vals = _kernel.choice_rows(rng, d, counts)
    w_true = rng.standard_normal(d)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    # Rows of one length at a time, as a (rows, k) block: the label margins,
    # which are part of the data, by one np.vecdot, the cblas ddot per row
    # that np.dot makes. A CSR matvec, or a dot in C, would round them
    # differently.
    margins = np.empty(n)
    order = np.argsort(counts, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        pos = indptr[rows, None] + np.arange(counts[rows[0]])
        margins[rows] = np.vecdot(vals[pos], w_true[cols[pos]])
    if label_model == "linear-noise":
        labels = margins + 0.1 * rng.standard_normal(n)
    else:
        labels = np.where(margins >= 0.0, 1.0, -1.0)
    return Dataset(indptr, cols, vals, labels, d)
