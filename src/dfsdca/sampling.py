"""Mini-batching schemes over example indices.

A scheme is a random-subset-valued distribution described by its marginal
probabilities p_i, a hard cardinality cap, and one draw rule. Its expected
separable overapproximation (ESO) parameters v_i, which bound
E[||sum_{i in S} A_i h_i||^2] <= sum_i p_i v_i h_i^2, depend on the data as
well, so they come from ``scheme.eso(dataset)``:

- serial schemes: v_i = ||A_i||^2, which is exact;
- tau-nice: v_i = sum_j (1 + (omega_j - 1)(tau - 1)/max(n - 1, 1)) A_ij^2,
  where omega_j counts the rows with a nonzero in feature j (Qu and
  Richtarik, ESO for arbitrary samplings); it is tau ||A_i||^2 at most and
  ||A_i||^2 when no feature is shared;
- chunked: the cardinality bound v_i = max_card * ||A_i||^2.

A scheme holds no state that a draw changes: every draw is a function of
the caller-owned numpy Generator alone, so one instance serves any number
of runs. Its one draw rule, ``draw_block(rng, k)``, makes k draws and
takes from the generator exactly what k blocks of one take. ``draw`` is
the block of one, so both share one stream, and a solver can draw every
iteration between two checkpoints in one call. Each concrete scheme's
``atoms`` gives its exact support in the same block layout, with one
probability per subset, or None when that is too large to enumerate.
``validate_eso`` checks v against that support exactly: its worst ratio
over every h is the top eigenvalue of D^{-1/2} (P o A A^T) D^{-1/2}, with
P_ik = Pr(i, k in S) and D = diag(p o v).

Chunked sampling draws a uniform tau-subset of a partition's chunks, in
one compiled pass of Floyd's algorithm per block (``_tau_subsets``), and
takes their union. Only it has per-core workloads: ``core_loads`` gives
each core one drawn chunk of a block, loaded with the chunk's sum of u,
from the stream ``draw_block`` takes. tau-nice sampling is chunked
sampling over n chunks of one example, whose chunk sums are u itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .dataset import Dataset, concat_ranges

#: enumeration cutoff for exact expectations over a scheme's support
ATOM_LIMIT = 10_000
#: largest n whose n x n matrices the exact ESO check builds
ESO_LIMIT = 2_000


@dataclass(eq=False)
class SamplingScheme:
    name: str
    n: int
    p: np.ndarray
    max_card: int
    #: E|S|, the scheme's own value: the float sum of p can round off it
    expected_size: float

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if not np.all((self.p > 0.0) & (self.p <= 1.0)):
            raise ValueError("marginals must satisfy 0 < p_i <= 1")

    def _norms_sq(self, dataset: Dataset) -> np.ndarray:
        if dataset.n != self.n:
            raise ValueError(
                f"{self.name} samples {self.n} examples, the dataset has {dataset.n}"
            )
        return dataset.norms**2

    def eso(self, dataset: Dataset) -> np.ndarray:
        """ESO parameters v_i of this scheme on ``dataset``. By default the
        cardinality bound max_card * ||A_i||^2, which is exact for serial
        schemes; a product past the largest double is inf, without a
        warning (the stepsize check names it). Raises ValueError if the
        dataset's size is not n."""
        with np.errstate(over="ignore"):
            return self.max_card * self._norms_sq(dataset)

    def draw_block(self, rng: np.random.Generator, k: int):
        """The draw rule: k draws laid end to end, as int64 arrays
        ``(idx, offsets)``, draw j being the sorted ``idx[offsets[j]:
        offsets[j + 1]]``. Takes from the generator what k blocks of one
        take, so a block equals k calls of :meth:`draw`."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One subset of [n] as a sorted index array: a block of one."""
        return self.draw_block(rng, 1)[0]


class SerialSampling(SamplingScheme):
    """Singleton subsets: {i} with probability p_i."""

    def __init__(self, name, norms, p):
        norms = np.asarray(norms, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        if p.shape != norms.shape:
            raise ValueError("p and norms must have the same length")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("serial probabilities must sum to 1")
        super().__init__(name, norms.size, p, 1, 1.0)
        self._uniform = bool(np.all(p == p[0]))
        self._cdf = np.cumsum(p)
        self._cdf[-1] = 1.0

    def draw_block(self, rng, k):
        # one vectorized call yields the same values as k size-1 calls
        if self._uniform:
            idx = rng.integers(0, self.n, size=k)
        else:
            idx = np.searchsorted(self._cdf, rng.random(size=k), side="right")
        return idx.astype(np.int64, copy=False), np.arange(k + 1, dtype=np.int64)

    def atoms(self):
        # n singletons: linear in n, so enumerated at any size
        return (np.arange(self.n, dtype=np.int64),
                np.arange(self.n + 1, dtype=np.int64), self.p.copy())


def _tau_subsets(rng, units: int, tau: int, k: int) -> np.ndarray:
    """k uniform tau-subsets of range(units), as the sorted rows of a
    (k, tau) int64 array.

    The compiled pass ``_kernel.tau_subsets`` draws all k * tau slots of
    Floyd's algorithm in row order through numpy's own bounded-integer
    code, slot c from [0, units - tau + c], and keeps each slot's draw, or
    the slot's own top value if that draw is taken. That is how numpy's
    ``rng.choice(units, tau, replace=False, shuffle=False)`` runs for
    units <= 10000 or tau <= units // 50, so there the rows and the
    generator's next state equal k sorted ``rng.choice`` calls. Above that
    numpy shuffles a tail instead: the subsets here are as uniform, from a
    different stream.
    """
    out = np.empty((k, tau), dtype=np.int64)
    _kernel.tau_subsets(rng, units, out)
    out.sort(axis=1)
    return out


@dataclass(eq=False)
class ChunkPartition:
    """Consecutive chunks of [n] with per-chunk sizes g and nnz sums s, both
    1-d; a size that is not an integer of at least 1 is a ValueError."""

    g: np.ndarray
    s: np.ndarray
    m_cap: float
    boundaries: np.ndarray = field(init=False)

    def __post_init__(self):
        g, self.s = np.asarray(self.g), np.asarray(self.s)
        if g.ndim != 1 or self.s.ndim != 1:
            raise ValueError(f"g and s must be 1-d, got shapes {g.shape} and {self.s.shape}")
        if g.size == 0 or g.shape != self.s.shape:
            raise ValueError("g and s must be nonempty and equally long")
        # a fractional size would be truncated; a bool is an int, but names no
        # size, and numpy reads a list of ints and bools as ints
        if g.dtype.kind not in "iu":
            raise ValueError(f"chunk 0 has size {g.flat[0]}, not an integer")
        if not isinstance(self.g, np.ndarray):
            for c, size in enumerate(self.g):
                if isinstance(size, (bool, np.bool_)):
                    raise ValueError(f"chunk {c} has size {size}, not an integer")
        self.g = g.astype(np.int64)
        if self.g.min() < 1:
            c = int(np.flatnonzero(self.g < 1)[0])
            raise ValueError(f"chunk {c} has size {self.g[c]}, below 1")
        self.boundaries = np.concatenate(([0], np.cumsum(self.g)))

    @property
    def k(self) -> int:
        return int(self.g.size)

    @property
    def n(self) -> int:
        return int(self.boundaries[-1])

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "m_cap": float(self.m_cap),
            "g": self.g.tolist(),
            "s": np.asarray(self.s, dtype=np.float64).tolist(),
            "boundaries": self.boundaries.tolist(),
        }


def naive_chunks(u) -> ChunkPartition:
    """Greedy one-pass partition of [n] into consecutive chunks.

    The capacity is m_cap = max(u). A chunk keeps absorbing the next
    coordinate while its running nnz sum stays within capacity, which makes
    the chunk sums nearly equal.
    """
    n = len(u)
    if n == 0:
        raise ValueError("empty nnz vector")
    m_cap = max(u)
    if min(u) < 0:
        raise ValueError("nnz entries must be nonnegative")
    g = [1]
    s = [u[0]]
    for t in range(1, n):
        x = u[t]
        if s[-1] + x <= m_cap:
            g[-1] += 1
            s[-1] += x
        else:
            g.append(1)
            s.append(x)
    return ChunkPartition(np.array(g), np.array(s), m_cap)


class ChunkedSampling(SamplingScheme):
    """Uniform tau-subsets of the k chunks of a partition, drawn by
    :func:`_tau_subsets`; the sampled set is their union.

    Every coordinate has marginal tau/k. The cardinality cap is
    tau * max_c g_c, and :meth:`eso` returns the conservative cardinality
    bound v_i = cap * ||A_i||^2.
    """

    def __init__(self, norms, partition: ChunkPartition, tau):
        norms = np.asarray(norms, dtype=np.float64)
        k = partition.k
        if partition.n != norms.size:
            raise ValueError("partition does not cover this dataset")
        # a fractional tau would set marginals tau/k that its draws lack; a
        # bool is an int, but names no size
        if isinstance(tau, bool) or not isinstance(tau, (int, np.integer)):
            raise ValueError(f"tau must be an integer, got {tau}")
        if not (1 <= tau <= k):
            raise ValueError(f"tau must be in [1, k={k}], got {tau}")
        n, tau = norms.size, int(tau)
        cap = tau * int(np.max(partition.g))
        super().__init__(f"chunked:{tau}", n, np.full(n, tau / k), cap, n * tau / k)
        self.tau = tau
        self.partition = partition

    def _examples(self, ids: np.ndarray):
        """The examples of each row of chunk ids, as ``(idx, offsets)``."""
        part = self.partition
        sizes = part.g[ids]
        idx = concat_ranges(part.boundaries[ids].ravel(), sizes.ravel())
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes.sum(axis=1), out=offsets[1:])
        return idx, offsets

    def draw_block(self, rng, k):
        return self._examples(_tau_subsets(rng, self.partition.k, self.tau, k))

    def core_loads(self, rng: np.random.Generator, u, k: int) -> np.ndarray:
        """Per-core workloads of a block of k draws, as a (k, tau) array:
        one drawn chunk per core, loaded with its float64 sum of ``u``."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ValueError(f"{self.name} samples {self.n} examples, u has shape {u.shape}")
        # k == n only for chunks of one example (tau-nice): their sums are u
        part = self.partition
        sums = u if part.k == self.n else np.add.reduceat(u, part.boundaries[:-1])
        return sums[_tau_subsets(rng, part.k, self.tau, k)]

    def sample_core_loads(self, rng: np.random.Generator, u) -> np.ndarray:
        """Per-core workloads of one draw: a block of one."""
        return self.core_loads(rng, u, 1)[0]

    def atoms(self):
        units = self.partition.k
        total = math.comb(units, self.tau)
        if total > ATOM_LIMIT:
            return None
        ids = np.array(list(itertools.combinations(range(units), self.tau)), dtype=np.int64)
        return (*self._examples(ids), np.full(total, 1.0 / total))


class TauNiceSampling(ChunkedSampling):
    """Uniformly random subsets of a fixed size tau: chunked sampling over
    n chunks of one example (the partition :func:`naive_chunks` makes of
    unit loads), whose chunk ids are its example ids."""

    def __init__(self, norms, tau):
        n = np.size(norms)
        ones = np.ones(n, dtype=np.int64)
        super().__init__(norms, ChunkPartition(ones, ones, 1), tau)
        self.name = f"nice:{self.tau}"

    def eso(self, dataset):
        """v_i = ||A_i||^2 + (tau - 1)/max(n - 1, 1) * overlap_i, with the
        per-row overlap of :meth:`Dataset.overlap`: a pair of distinct rows
        shares a draw with probability (tau - 1)/(n - 1), so only features
        that rows share add to ||A_i||^2. O(n) once the overlap is built.

        The sum meets the cardinality bound tau ||A_i||^2 when every
        feature of row i lies in every row, and rounding can then put it an
        ulp above, so the result is capped at that bound. At tau = 1 it is
        ||A_i||^2 bitwise. A term past the largest double is inf, without a
        warning: the cap or the stepsize check takes it."""
        norms_sq = self._norms_sq(dataset)
        c = (self.tau - 1) / max(self.n - 1, 1)
        with np.errstate(over="ignore"):
            return np.minimum(norms_sq + c * dataset.overlap(), self.tau * norms_sq)

    def _examples(self, ids: np.ndarray):
        # the identity map: the general expansion would slow every draw
        return ids.ravel(), np.arange(0, ids.size + 1, self.tau, dtype=np.int64)


def serial_uniform(norms) -> SerialSampling:
    norms = np.asarray(norms, dtype=np.float64)
    return SerialSampling("serial-uniform", norms, np.full(norms.size, 1.0 / norms.size))


def serial_weighted(norms, p) -> SerialSampling:
    return SerialSampling("serial-weighted", norms, p)


def importance_probabilities(l, norms, lam: float) -> np.ndarray:
    """Serial probabilities p_i proportional to n*lam + l_i ||A_i||^2.

    Equalizes the per-example term 1/p_i + l_i v_i / (lam p_i n) of the
    convex rate, improving on uniform sampling whenever the products
    l_i ||A_i||^2 are heterogeneous.
    """
    l = np.asarray(l, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    if lam <= 0 or np.any(l <= 0):
        raise ValueError("l and lam must be positive")
    w = l.size * lam + l * norms**2
    return w / w.sum()


def serial_importance(norms, l, lam: float) -> SerialSampling:
    p = importance_probabilities(l, norms, lam)
    return SerialSampling("serial-importance", np.asarray(norms, dtype=np.float64), p)


def random_c_sampling(norms, c: float, seed: int) -> SerialSampling:
    """Serial sampling with random marginals, max_i p_i / min_i p_i < c.

    Weights are log-uniform on [1, 1 + (c-1)*(1-delta)] with delta = 0.01:
    the spread stays strictly below c for every c > 1 and collapses to
    uniform as c -> 1. Deterministic per seed.
    """
    if not 1.0 < c < math.inf:
        raise ValueError(f"c must be finite and exceed 1, got {c}")
    norms = np.asarray(norms, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hi = math.log(1.0 + (c - 1.0) * (1.0 - 0.01))
    w = np.exp(rng.uniform(0.0, hi, size=norms.size))
    return SerialSampling(f"serial-random:{c:g}", norms, w / w.sum())


def tau_nice(norms, tau) -> TauNiceSampling:
    return TauNiceSampling(norms, tau)


def chunked_sampling(norms, partition: ChunkPartition, tau) -> ChunkedSampling:
    return ChunkedSampling(norms, partition, tau)


def waiting_time(core_loads) -> np.ndarray | float:
    """Max-minus-mean of per-core workloads over the last axis: the
    idle-time proxy for a synchronous mini-batch. A float for one draw's
    loads, one value per row for a block's (k, cores) loads."""
    core_loads = np.atleast_1d(np.asarray(core_loads, dtype=np.float64))
    if core_loads.shape[-1] == 0:
        raise ValueError("empty draw")
    out = core_loads.max(axis=-1) - core_loads.mean(axis=-1)
    return float(out) if out.ndim == 0 else out


def exact_atoms(scheme: SamplingScheme):
    """The scheme's :meth:`atoms`; a ValueError if it has none to give."""
    atoms = scheme.atoms()
    if atoms is None:
        raise ValueError("scheme support too large for exact enumeration")
    return atoms


def validate_eso(scheme: SamplingScheme, dataset: Dataset) -> float:
    """The worst ratio max_h E[||sum_{i in S} A_i h_i||^2] / sum_i p_i v_i h_i^2
    over every h, which is at most 1 iff the ESO holds.

    It is the largest eigenvalue of D^{-1/2} M D^{-1/2}, where
    M = P o A A^T, P_ik = Pr(i, k in S) and D = diag(p o v) (Qu and
    Richtarik, arXiv:1412.8063). P is one bincount of the atoms' (i, k)
    pairs, and A A^T a product of the dense block of the columns that hold
    a nonzero. A row whose p_i v_i is not positive counts as weight 0,
    unless M_ii > 0, where no v bounds the ratio: it is inf. A NaN in v
    gives NaN.

    Raises ValueError if the scheme has no atoms, or if n exceeds ESO_LIMIT,
    before building the n x n matrices.
    """
    n = scheme.n
    if n > ESO_LIMIT:
        raise ValueError(f"the exact ESO check builds n x n matrices: n = {n} "
                         f"exceeds the limit {ESO_LIMIT}")
    idx, offsets, prob = exact_atoms(scheme)
    weights = scheme.p * scheme.eso(dataset)
    if np.isnan(weights).any():
        return math.nan
    sizes = np.diff(offsets)
    reps = np.repeat(sizes, sizes)  # each member pairs with its atom's members
    first = np.repeat(idx, reps)
    second = idx[concat_ranges(np.repeat(offsets[:-1], sizes), reps)]
    pair_prob = np.bincount(first * n + second, np.repeat(prob, sizes**2),
                            minlength=n * n).reshape(n, n)
    cols, col_of = np.unique(dataset.indices, return_inverse=True)
    block = np.zeros((n, cols.size))
    block[np.repeat(np.arange(n), dataset.nnz), col_of] = dataset.data
    m = pair_prob * (block @ block.T)
    positive = weights > 0
    if np.any(np.diag(m)[~positive] > 0):
        return math.inf
    scale = np.zeros(n)
    scale[positive] = weights[positive] ** -0.5
    return float(np.linalg.eigvalsh(scale[:, None] * m * scale)[-1])
