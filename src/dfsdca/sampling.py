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
the block of one, and ``core_loads`` gives a block's per-core workloads, so
all share one stream, and a solver can draw every iteration between two
checkpoints in one call. ``atoms`` gives a small scheme's exact support in
the same block layout, with one probability per subset.

Chunked sampling draws a uniform tau-subset of a partition's chunks, in
one compiled pass of Floyd's algorithm per block (``_tau_subsets``), and
takes their union; each core gets one drawn chunk, loaded with the chunk's
sum of u. tau-nice sampling is chunked sampling over n chunks of one
example.
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
        if np.any(self.p <= 0.0) or np.any(self.p > 1.0):
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

    def core_loads(self, rng: np.random.Generator, u, k: int) -> np.ndarray:
        """Per-core workloads of a block of k draws, as a (k, cores) array:
        one drawn example per core, loaded with its entry of ``u``. Holds
        for schemes whose every draw has max_card examples."""
        idx, _ = self.draw_block(rng, k)
        return np.asarray(u)[idx].reshape(k, self.max_card)

    def sample_core_loads(self, rng: np.random.Generator, u) -> np.ndarray:
        """Per-core workloads of one draw: a block of one."""
        return self.core_loads(rng, u, 1)[0]

    def atoms(self):
        """The exact support, as a block ``(idx, offsets)`` in the layout
        of :meth:`draw_block` holding every outcome once, plus the array
        ``prob`` of their probabilities; None past ATOM_LIMIT outcomes."""
        return None


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
    """Consecutive chunks of [n] with per-chunk sizes g and nnz sums s."""

    g: np.ndarray
    s: np.ndarray
    m_cap: float
    boundaries: np.ndarray = field(init=False)

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.int64)
        self.s = np.asarray(self.s)
        if self.g.size == 0 or self.g.shape != self.s.shape:
            raise ValueError("g and s must be nonempty and equally long")
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

    def core_loads(self, rng, u, k):
        # one drawn chunk per core, loaded with its sum of u
        sums = np.add.reduceat(np.asarray(u, dtype=np.float64), self.partition.boundaries[:-1])
        return sums[_tau_subsets(rng, self.partition.k, self.tau, k)]

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


@dataclass(frozen=True)
class EsoReport:
    """Worst observed LHS/RHS ratios of the overapproximation inequality."""

    ratios: np.ndarray
    stderrs: np.ndarray
    exact: bool

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))


def validate_eso(
    scheme: SamplingScheme,
    dataset: Dataset,
    trials: int,
    seed: int,
    mc_draws: int = 10_000,
) -> EsoReport:
    """Estimate max_h E[||sum_{i in S} A_i h_i||^2] / sum_i p_i v_i h_i^2.

    The expectation is exact over the scheme's :meth:`~SamplingScheme.atoms`
    whenever it has them (at most ATOM_LIMIT outcomes), otherwise Monte
    Carlo over a block of ``mc_draws`` draws per trial, with the standard
    error reported per trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    weights = scheme.p * scheme.eso(dataset)
    atoms = scheme.atoms()
    ratios = np.empty(trials)
    stderrs = np.zeros(trials)

    d = dataset.d
    block = max(1, 2**18 // d)  # subsets per block: dense rows of <= 2 MiB

    def agg_norms_sq(idx, offsets, h):
        """||sum_{i in S} A_i h_i||^2 for each subset S of the block
        ``(idx, offsets)``. One bincount per part of ``block`` subsets
        builds the rows z_S, each adding its terms in subset order and in
        CSR order within an example."""
        out = np.empty(offsets.size - 1)
        for k in range(0, out.size, block):
            bounds = offsets[k:k + block + 1]
            flat = idx[bounds[0]:bounds[-1]]
            seg, cols, vals = dataset.gather(flat)
            rows = bounds.size - 1
            row = np.repeat(np.arange(rows), np.diff(bounds))[seg]
            z = np.bincount(row * d + cols, vals * h[flat][seg], minlength=rows * d)
            zr = z.reshape(rows, d)
            out[k:k + rows] = np.vecdot(zr, zr)
        return out

    for trial in range(trials):
        h = rng.standard_normal(scheme.n)
        rhs = float(np.sum(weights * h**2))
        if atoms is not None:
            idx, offsets, prob = atoms
            # Python's sum adds in subset order, one atom after another;
            # np.dot would add in another order and round differently
            lhs = float(sum(prob * agg_norms_sq(idx, offsets, h)))
        else:
            vals = agg_norms_sq(*scheme.draw_block(rng, mc_draws), h)
            lhs = float(vals.mean())
            stderrs[trial] = float(vals.std(ddof=1) / np.sqrt(mc_draws)) / rhs
        ratios[trial] = lhs / rhs
    return EsoReport(ratios, stderrs, atoms is not None)
