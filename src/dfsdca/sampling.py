"""Mini-batching schemes over example indices.

A scheme is a random-subset-valued distribution described by its marginal
probabilities p_i, separable-overapproximation parameters v_i bounding
E[||sum_{i in S} A_i h_i||^2] <= sum_i p_i v_i h_i^2, and a hard cardinality
cap. All built-in schemes use the cardinality bound v_i = max_card * ||A_i||^2,
which is tight for singleton (serial) schemes.

A scheme holds no state that a draw changes: every draw is a function of
the caller-owned numpy Generator alone, so one instance serves any number
of runs. The tau-subset schemes draw a uniform tau-subset of their units
(examples or chunks) with one ``rng.choice`` call without replacement and
return it sorted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, concat_ranges

#: enumeration cutoff for exact expectations over a scheme's support
ATOM_LIMIT = 10_000


@dataclass(eq=False)
class SamplingScheme:
    name: str
    n: int
    p: np.ndarray
    v: np.ndarray
    max_card: int

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if np.any(self.p <= 0.0) or np.any(self.p > 1.0):
            raise ValueError("marginals must satisfy 0 < p_i <= 1")
        if np.any(self.v < 0.0):
            raise ValueError("v_i must be nonnegative")

    @property
    def expected_size(self) -> float:
        return float(np.sum(self.p))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One subset of [n] as a sorted index array."""
        raise NotImplementedError

    def atoms(self, limit: int = ATOM_LIMIT):
        """All (subset, probability) outcomes, or None if too many."""
        return None

    def sample_core_loads(self, rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
        """Per-core workloads for one draw: one drawn unit per core."""
        return np.asarray(u)[self.draw(rng)]


class SerialSampling(SamplingScheme):
    """Singleton subsets: {i} with probability p_i."""

    def __init__(self, name, norms, p):
        norms = np.asarray(norms, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        if p.shape != norms.shape:
            raise ValueError("p and norms must have the same length")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("serial probabilities must sum to 1")
        super().__init__(name, norms.size, p, norms**2, 1)
        self._uniform = bool(np.all(p == p[0]))
        self._cdf = np.cumsum(p)
        self._cdf[-1] = 1.0

    def draw(self, rng):
        if self._uniform:
            i = int(rng.integers(0, self.n))
        else:
            i = int(np.searchsorted(self._cdf, rng.random(), side="right"))
        return np.array([i], dtype=np.int64)

    def atoms(self, limit: int = ATOM_LIMIT):
        return [((i,), float(self.p[i])) for i in range(self.n)]


class TauNiceSampling(SamplingScheme):
    """Uniformly random subsets of a fixed size tau."""

    def __init__(self, norms, tau):
        norms = np.asarray(norms, dtype=np.float64)
        n = norms.size
        if not (1 <= tau <= n):
            raise ValueError(f"tau must be in [1, {n}], got {tau}")
        super().__init__(f"nice:{tau}", n, np.full(n, tau / n), tau * norms**2, tau)
        self.tau = int(tau)

    def draw(self, rng):
        return np.sort(rng.choice(self.n, self.tau, replace=False, shuffle=False))

    def atoms(self, limit: int = ATOM_LIMIT):
        total = math.comb(self.n, self.tau)
        if total > limit:
            return None
        prob = 1.0 / total
        return [(s, prob) for s in itertools.combinations(range(self.n), self.tau)]


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
        self.boundaries = np.concatenate(([0], np.cumsum(self.g)))

    @property
    def k(self) -> int:
        return int(self.g.size)

    @property
    def n(self) -> int:
        return int(self.boundaries[-1])

    def coords(self, j: int) -> np.ndarray:
        return np.arange(self.boundaries[j], self.boundaries[j + 1], dtype=np.int64)

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
    """Uniform tau-subsets of chunks; the sampled set is their union.

    Every coordinate has marginal tau/k. The cardinality cap is
    tau * max_j g_j, giving the conservative v_i = cap * ||A_i||^2.
    """

    def __init__(self, norms, partition: ChunkPartition, tau):
        norms = np.asarray(norms, dtype=np.float64)
        k = partition.k
        if partition.n != norms.size:
            raise ValueError("partition does not cover this dataset")
        if not (1 <= tau <= k):
            raise ValueError(f"tau must be in [1, k={k}], got {tau}")
        cap = int(tau) * int(np.max(partition.g))
        super().__init__(
            f"chunked:{tau}", norms.size, np.full(norms.size, tau / k),
            cap * norms**2, cap,
        )
        self.tau = int(tau)
        self.partition = partition

    def draw_chunks(self, rng) -> np.ndarray:
        k = self.partition.k
        return np.sort(rng.choice(k, self.tau, replace=False, shuffle=False))

    def draw(self, rng):
        ids = self.draw_chunks(rng)
        part = self.partition
        return concat_ranges(part.boundaries[ids], part.g[ids])

    def atoms(self, limit: int = ATOM_LIMIT):
        k = self.partition.k
        total = math.comb(k, self.tau)
        if total > limit:
            return None
        prob = 1.0 / total
        out = []
        for ids in itertools.combinations(range(k), self.tau):
            coords = np.concatenate([self.partition.coords(j) for j in ids])
            out.append((tuple(int(i) for i in coords), prob))
        return out

    def sample_core_loads(self, rng, u):
        # One chunk per core: the workload is the chunk's nnz sum.
        del u
        return np.asarray(self.partition.s, dtype=np.float64)[self.draw_chunks(rng)]


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
    if c <= 1.0:
        raise ValueError("c must exceed 1")
    norms = np.asarray(norms, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hi = math.log(1.0 + (c - 1.0) * (1.0 - 0.01))
    w = np.exp(rng.uniform(0.0, hi, size=norms.size))
    return SerialSampling(f"serial-random:{c:g}", norms, w / w.sum())


def tau_nice(norms, tau) -> TauNiceSampling:
    return TauNiceSampling(norms, tau)


def chunked_sampling(norms, partition: ChunkPartition, tau) -> ChunkedSampling:
    return ChunkedSampling(norms, partition, tau)


def waiting_time(core_loads) -> float:
    """Max-minus-mean of the per-core workloads of one draw: the idle-time
    proxy for a synchronous mini-batch."""
    core_loads = np.asarray(core_loads, dtype=np.float64)
    if core_loads.size == 0:
        raise ValueError("empty draw")
    return float(core_loads.max() - core_loads.mean())


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
    atom_limit: int = ATOM_LIMIT,
) -> EsoReport:
    """Estimate max_h E[||sum_{i in S} A_i h_i||^2] / sum_i p_i v_i h_i^2.

    The expectation is exact (support enumeration) whenever the scheme has
    at most ``atom_limit`` outcomes, otherwise Monte Carlo over ``mc_draws``
    subsets with the standard error reported per trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    atoms = scheme.atoms(atom_limit)
    ratios = np.empty(trials)
    stderrs = np.zeros(trials)

    d = dataset.d
    block = max(1, 2**18 // d)  # subsets per block: dense rows of <= 2 MiB

    def agg_norms_sq(subsets, h):
        """||sum_{i in S} A_i h_i||^2 for each S. One bincount per block
        builds the rows z_S, each adding its terms in subset order and in
        CSR order within an example."""
        out = []
        for k in range(0, len(subsets), block):
            part = subsets[k:k + block]
            flat = np.concatenate(part)
            seg, cols, vals = dataset.gather(flat)
            row = np.repeat(np.arange(len(part)), [len(S) for S in part])[seg]
            z = np.bincount(row * d + cols, vals * h[flat][seg],
                            minlength=len(part) * d)
            out += [np.dot(zs, zs) for zs in z.reshape(len(part), d)]
        return out

    for trial in range(trials):
        h = rng.standard_normal(scheme.n)
        rhs = float(np.sum(scheme.p * scheme.v * h**2))
        if atoms is not None:
            aggs = agg_norms_sq([subset for subset, _ in atoms], h)
            lhs = sum(prob * a for (_, prob), a in zip(atoms, aggs))
        else:
            vals = np.array(
                agg_norms_sq([scheme.draw(rng) for _ in range(mc_draws)], h)
            )
            lhs = float(vals.mean())
            stderrs[trial] = float(vals.std(ddof=1) / np.sqrt(mc_draws)) / rhs
        ratios[trial] = lhs / rhs
    return EsoReport(ratios, stderrs, atoms is not None)
