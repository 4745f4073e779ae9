"""Dual-free stochastic dual coordinate ascent with arbitrary mini-batching.

The solver keeps a pseudo-dual scalar alpha_i per example and a dense primal
vector w tied together by w = (1/(lam*n)) sum_i alpha_i A_i. Each iteration
draws a subset S of examples, moves every alpha_i (i in S) toward
-phi_i'(A_i^T w) by the convex-combination weight theta/p_i, and applies the
matching sparse correction to w so the tie-in survives the update.

The iterations run in one compiled kernel (``_kernel.c``, built with gcc on
first use): :func:`run` makes one call per stretch of iterations between
two checkpoints or resyncs, through :func:`steps`, which runs a block of
subsets, and :func:`step` is its block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernel import Kernel
from .dataset import Dataset
from .losses import LossSpec, SmoothnessConstants, smoothness_constants
from .sampling import SamplingScheme

#: slack on the convex-combination guard theta/p_i <= 1
_GUARD_TOL = 1e-12
#: drawn indices per kernel call in ``run``, at most (unless one draw is larger)
_BLOCK_EXAMPLES = 1 << 20


class DivergenceError(RuntimeError):
    """Objective blew past the runaway threshold; the stepsize violates the
    theory or the instance breaks the average-convexity precondition."""


@dataclass(eq=False)
class ProblemSpec:
    dataset: Dataset
    loss: LossSpec
    lam: float
    smoothness: SmoothnessConstants = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf):
            raise ValueError(
                f"regularization lam must be positive and finite, got {self.lam}"
            )
        # raises ValueError if the loss and dataset sizes disagree
        self.smoothness = smoothness_constants(self.loss, self.dataset)
        ds = self.dataset
        if ds.indices.dtype != np.int32:  # before anything d-sized exists
            raise ValueError(
                f"dataset too large for int32 CSR indices: n={ds.n}, d={ds.d} and "
                f"nnz={ds.indices.size} must be at most 2**31 - 1 = {2**31 - 1}"
            )

    @cached_property
    def kernel(self) -> Kernel:
        """The compiled step kernel bound to this problem's arrays; the
        first use in a process builds or loads the shared library."""
        return Kernel(self.dataset, self.loss)


def make_problem(dataset: Dataset, loss: LossSpec, lam: float) -> ProblemSpec:
    return ProblemSpec(dataset, loss, lam)


class PrimalPoint:
    """P(w), grad P(w) and the matched duals alpha*(w) = -phi'(A w) at one
    w, from one margins pass A w; each is computed on first use."""

    def __init__(self, problem: ProblemSpec, w: np.ndarray):
        self.problem, self.w, self.margins = problem, w, problem.dataset.margins(w)
        self.idx = np.arange(problem.dataset.n)

    @cached_property
    def value(self) -> float:
        losses = self.problem.loss.values(self.idx, self.margins)
        return float(losses.mean() + 0.5 * self.problem.lam * np.dot(self.w, self.w))

    @cached_property
    def alpha(self) -> np.ndarray:
        return -self.problem.loss.gradients(self.idx, self.margins)

    @cached_property
    def gradient(self) -> np.ndarray:
        ds = self.problem.dataset
        return ds.combine(-self.alpha) / ds.n + self.problem.lam * self.w


def primal_value(problem: ProblemSpec, w: np.ndarray) -> float:
    return PrimalPoint(problem, w).value


def primal_gradient(problem: ProblemSpec, w: np.ndarray) -> np.ndarray:
    return PrimalPoint(problem, w).gradient


def theta_convex(p, v, l, lam: float, n: int) -> float:
    """Largest stepsize admitted for convex losses:
    min_i p_i * n * lam / (l_i v_i + n lam)."""
    p, v, l = (np.asarray(x, dtype=np.float64) for x in (p, v, l))
    if lam <= 0 or n <= 0 or np.any(p <= 0) or np.any(v < 0) or np.any(l <= 0):
        raise ValueError("p, l, lam and n must be positive and v nonnegative")
    return float(np.min(p * n * lam / (l * v + n * lam)))


def theta_nonconvex(p, v, L_per, lam: float, n: int) -> float:
    """Largest stepsize admitted when only the average loss is convex:
    min_i p_i * n * lam^2 / (L_i^2 v_i + n lam^2)."""
    p, v, L_per = (np.asarray(x, dtype=np.float64) for x in (p, v, L_per))
    if lam <= 0 or n <= 0 or np.any(p <= 0) or np.any(v < 0) or np.any(L_per < 0):
        raise ValueError("p, lam and n must be positive and v, L_i nonnegative")
    lam2 = lam * lam
    return float(np.min(p * n * lam2 / (L_per**2 * v + n * lam2)))


@dataclass(eq=False)
class SolverState:
    w: np.ndarray
    alpha: np.ndarray
    t: int = 0
    grad_evals: int = 0

    def copy(self) -> "SolverState":
        return SolverState(self.w.copy(), self.alpha.copy(), self.t, self.grad_evals)


def init_state(problem: ProblemSpec, alpha0=None) -> SolverState:
    n = problem.dataset.n
    if alpha0 is None:
        alpha = np.zeros(n)
    else:
        alpha = np.array(alpha0, dtype=np.float64)
        if alpha.shape != (n,):
            raise ValueError("alpha0 must have length n")
    return SolverState(w_of(problem, alpha), alpha)


def w_of(problem: ProblemSpec, alpha: np.ndarray) -> np.ndarray:
    """The primal vector that the duals give, (1/(lam n)) sum_i alpha_i A_i."""
    return problem.dataset.combine(alpha) / (problem.lam * problem.dataset.n)


def resync(problem: ProblemSpec, state: SolverState) -> float:
    """Recompute w from alpha exactly and return the drift this clears,
    ||w - w(alpha)|| / (1 + ||w||) of the w it replaces. :func:`run`
    resyncs every n iterations and records this value as the ``residual``
    of a checkpoint that falls there."""
    w = state.w
    state.w = w_of(problem, state.alpha)
    return float(np.linalg.norm(w - state.w) / (1.0 + np.linalg.norm(w)))


def relation_residual(problem: ProblemSpec, state: SolverState) -> float:
    """The drift that :func:`resync` would clear now; ``state`` keeps its w."""
    return resync(problem, SolverState(state.w, state.alpha))


def steps(
    problem: ProblemSpec,
    state: SolverState,
    idx: np.ndarray,
    offsets: np.ndarray,
    p: np.ndarray,
    theta: float,
) -> SolverState:
    """One iteration per subset ``idx[offsets[s]:offsets[s + 1]]`` of a
    block in the layout of :meth:`SamplingScheme.draw_block`, in order and
    in place, through one call of the compiled kernel. Equals a loop of
    :func:`step` over the subsets bitwise. Raises ValueError, and changes
    nothing, if the offsets do not partition ``idx`` or a subset fails the
    checks of :func:`step`."""
    problem.kernel.steps(
        state.w, state.alpha, p, theta, 1.0 + _GUARD_TOL,
        problem.dataset.n * problem.lam, idx, offsets,
    )
    state.t += offsets.size - 1
    state.grad_evals += int(idx.size)
    return state


def step(
    problem: ProblemSpec,
    state: SolverState,
    subset: np.ndarray,
    p: np.ndarray,
    theta: float,
) -> SolverState:
    """One iteration on the given subset, in place.

    Runs the compiled kernel of :func:`run` on one subset: all margins
    against the pre-update w, each summed over its row's CSR nonzeros left
    to right like :meth:`Dataset.margins`, then the alpha moves and the w
    correction, which touches only the drawn rows' supports. Raises
    ValueError, and changes nothing, if the subset holds an index outside
    [0, n) or an index twice, or if theta/p_i > 1 for a drawn i.
    """
    subset = np.ascontiguousarray(subset, dtype=np.int64)
    if subset.ndim != 1:
        raise ValueError("subset must be a 1-d array of example indices")
    offsets = np.array([0, subset.size], dtype=np.int64)
    return steps(problem, state, subset, offsets, p, theta)


@dataclass
class SolverConfig:
    theta: float | str = "auto-convex"
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def resolve_theta(problem: ProblemSpec, scheme: SamplingScheme, theta) -> float:
    """The stepsize ``theta`` names: "auto-convex" or "auto-nonconvex" give
    the largest one the theory admits with the ESO parameters
    ``scheme.eso(problem.dataset)``, and a number must lie in (0, min p_i]."""
    sm = problem.smoothness
    ds = problem.dataset
    if theta == "auto-convex":
        return theta_convex(scheme.p, scheme.eso(ds), sm.l, problem.lam, ds.n)
    if theta == "auto-nonconvex":
        return theta_nonconvex(scheme.p, scheme.eso(ds), sm.L_per, problem.lam, ds.n)
    theta = float(theta)
    p_min = float(np.min(scheme.p))
    if not (0.0 < theta <= p_min * (1.0 + _GUARD_TOL)):
        raise ValueError(f"theta must lie in (0, min p_i = {p_min}]")
    return theta


@dataclass
class TraceRecord:
    """One checkpoint of :func:`run`: at the start, then where each epoch
    ends, at t = ceil(k n / E|S|). ``residual`` is the drift
    ||w - w(alpha)|| / (1 + ||w||); at t a multiple of n, the drift that
    that iteration's resync cleared."""

    t: int
    epoch: float
    primal: float
    residual: float
    subopt: float | None = None
    B: float | None = None
    D: float | None = None
    E: float | None = None


@dataclass
class Trace:
    theta: float
    expected_size: float
    records: list[TraceRecord]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=np.float64)


def run(
    problem: ProblemSpec,
    scheme: SamplingScheme,
    config: SolverConfig,
    reference=None,
) -> tuple[SolverState, Trace]:
    """Run for ceil(epochs * n / E|S|) iterations, tracing at epoch ends.

    Records fall at the start and where a run of k epochs ends, at
    iteration ceil(k * n / E|S|), so a shorter run's trace is a prefix of a
    longer one's. w is resynced from alpha every n iterations; a record
    there keeps that resync's drift as its ``residual``, and any other
    takes :func:`relation_residual`, so no record makes two ``combine``
    calls. The iterations between two resyncs or records are drawn as one
    block (:meth:`SamplingScheme.draw_block`, the same generator stream as
    one ``draw`` per iteration) and run by one kernel call, so the iterates
    equal a loop of :func:`step` over ``draw`` bitwise. With a reference
    solution each record carries the suboptimality and the distance
    potentials. Deterministic for a fixed seed. Raises DivergenceError if
    the objective runs away.
    """
    from .diagnostics import potentials  # runtime import, avoids a cycle

    theta = resolve_theta(problem, scheme, config.theta)
    n = problem.dataset.n
    e_size = scheme.expected_size

    def checkpoint(k):
        """Iteration of the k-th checkpoint after the start."""
        return math.ceil(k * n / e_size)

    total = checkpoint(config.epochs)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem)
    trace = Trace(theta=theta, expected_size=e_size, records=[])

    def record(residual):
        primal = primal_value(problem, state.w)
        rec = TraceRecord(state.t, state.t * e_size / n, primal, residual)
        if reference is not None:
            pot = potentials(state, reference, problem.smoothness, problem.lam)
            rec.subopt = primal - reference.P_star
            rec.B, rec.D, rec.E = pot.B, pot.D, pot.E
        trace.records.append(rec)
        return primal

    runaway = 1e6 * abs(record(relation_residual(problem, state))) + 1e6
    # draws per kernel call, capped so that one block of indices stays small
    block = max(1, _BLOCK_EXAMPLES // scheme.max_card)
    t, k = 0, 1
    while t < total:
        # the next resync or checkpoint ends the block
        stop = min(t + block, (t // n + 1) * n, checkpoint(k))
        idx, offsets = scheme.draw_block(rng, stop - t)
        steps(problem, state, idx, offsets, scheme.p, theta)
        t = stop
        drift = resync(problem, state) if t % n == 0 else None
        if t == checkpoint(k):
            k += 1
            if drift is None:  # not on a resync
                drift = relation_residual(problem, state)
            primal = record(drift)
            if not math.isfinite(primal) or abs(primal) > runaway:
                raise DivergenceError(
                    f"P(w)={primal:.3e} left the runaway bound {runaway:.3e} "
                    f"at iteration {t}: stepsize inconsistent with the theory "
                    "or average loss not convex"
                )
    return state, trace
