"""Dual-free stochastic dual coordinate ascent with arbitrary mini-batching.

The solver keeps a pseudo-dual scalar alpha_i per example and a dense primal
vector w tied together by w = (1/(lam*n)) sum_i alpha_i A_i. Each iteration
draws a subset S of examples, moves every alpha_i (i in S) toward
-phi_i'(A_i^T w) by the convex-combination weight theta/p_i, and applies the
matching sparse correction to w so the tie-in survives the update.

The iterations run in the compiled step kernel, ``_kernel.steps``, on the
Dataset's and the LossSpec's own bindings: :func:`run` makes one call per
stretch of iterations between two checkpoints or resyncs, through
:func:`steps`, which runs a block of subsets, and :func:`step` is its
block of one. Each checkpoint record is computed right after the block
that reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernel
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


def make_problem(dataset: Dataset, loss: LossSpec, lam: float) -> ProblemSpec:
    return ProblemSpec(dataset, loss, lam)


class PrimalPoint:
    """P(w), grad P(w), the matched duals alpha*(w) = -phi'(A w) and the
    curvatures phi''(A w) at one w: the row pass gives A w and the losses,
    one loss pass on them alpha* and the curvatures, on first use."""

    def __init__(self, problem: ProblemSpec, w: np.ndarray):
        self.problem, self.w = problem, w
        rows = problem.dataset.losses(w, problem.loss.kernel)
        self.margins, self.losses = rows[0], rows[1]

    @cached_property
    def value(self) -> float:
        return float(self.losses.mean() + 0.5 * self.problem.lam * np.dot(self.w, self.w))

    @cached_property
    def _derivatives(self) -> np.ndarray:
        return self.problem.loss.kernel(self.margins, alpha=True, curvatures=True)

    @property
    def alpha(self) -> np.ndarray:
        return self._derivatives[0]

    @property
    def curvatures(self) -> np.ndarray:
        return self._derivatives[1]

    @cached_property
    def gradient(self) -> np.ndarray:
        ds = self.problem.dataset
        return ds.combine(-self.alpha) / ds.n + self.problem.lam * self.w


def primal_value(problem: ProblemSpec, w: np.ndarray) -> float:
    return PrimalPoint(problem, w).value


def primal_gradient(problem: ProblemSpec, w: np.ndarray) -> np.ndarray:
    return PrimalPoint(problem, w).gradient


def _stepsize_bounds(p, v, c, lam_k: float, n: int) -> np.ndarray:
    """Per-example stepsize bounds p_i * n * lam_k / (c_i v_i + n lam_k).
    Overflow is left silent: :func:`resolve_theta` names a bound it spoils."""
    with np.errstate(over="ignore", invalid="ignore"):
        return p * n * lam_k / (c * v + n * lam_k)


def theta_convex(p, v, l, lam: float, n: int) -> float:
    """Largest stepsize admitted for convex losses:
    min_i p_i * n * lam / (l_i v_i + n lam)."""
    p, v, l = (np.asarray(x, dtype=np.float64) for x in (p, v, l))
    if lam <= 0 or n <= 0 or np.any(p <= 0) or np.any(v < 0) or np.any(l <= 0):
        raise ValueError("p, l, lam and n must be positive and v nonnegative")
    return float(np.min(_stepsize_bounds(p, v, l, lam, n)))


def theta_nonconvex(p, v, L_per, lam: float, n: int) -> float:
    """Largest stepsize admitted when only the average loss is convex:
    min_i p_i * n * lam^2 / (L_i^2 v_i + n lam^2)."""
    p, v, L_per = (np.asarray(x, dtype=np.float64) for x in (p, v, L_per))
    if lam <= 0 or n <= 0 or np.any(p <= 0) or np.any(v < 0) or np.any(L_per < 0):
        raise ValueError("p, lam and n must be positive and v, L_i nonnegative")
    return float(np.min(_stepsize_bounds(p, v, L_per**2, lam * lam, n)))


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
    dw = w - state.w
    # math.sqrt(x.dot(x)) is np.linalg.norm(x) of a 1-d float vector, bitwise
    return math.sqrt(dw.dot(dw)) / (1.0 + math.sqrt(w.dot(w)))


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
    ds = problem.dataset
    _kernel.steps(ds.csr(), problem.loss.kernel, state.w, state.alpha, p, theta,
                  1.0 + _GUARD_TOL, ds.n * problem.lam, idx, offsets)
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
        # a fraction of an epoch would run past ceil(epochs n / E|S|), and
        # numpy seeds only with integers; a bool names no count and no seed
        for name, least in (("epochs", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def resolve_theta(problem: ProblemSpec, scheme: SamplingScheme, theta) -> float:
    """The stepsize ``theta`` names: "auto-convex" or "auto-nonconvex" give
    the largest one the theory admits with the ESO parameters
    ``scheme.eso(problem.dataset)``, and a number must lie in (0, min p_i].

    An automatic stepsize that is not finite and positive (v_i or lambda so
    large that a bound overflows or underflows) raises ValueError naming
    p_i, v_i and l_i (L_i for "auto-nonconvex") at the example that sets it.
    """
    sm = problem.smoothness
    ds = problem.dataset
    if theta in ("auto-convex", "auto-nonconvex"):
        convex = theta == "auto-convex"
        p, v, l = scheme.p, scheme.eso(ds), sm.l if convex else sm.L_per
        value = (theta_convex if convex else theta_nonconvex)(p, v, l, problem.lam, ds.n)
        if not 0.0 < value < math.inf:
            c, lam_k = (l, problem.lam) if convex else (l**2, problem.lam**2)
            i = int(np.argmin(_stepsize_bounds(p, v, c, lam_k, ds.n)))
            raise ValueError(
                f"{theta} stepsize {value} is not finite and positive: it is set "
                f"by example {i}, with p_{i}={p[i]}, v_{i}={v[i]}, "
                f"{'l' if convex else 'L'}_{i}={l[i]} "
                f"(lambda={problem.lam}, n={ds.n})"
            )
        return value
    theta = float(theta)
    p_min = float(np.min(scheme.p))
    if not (0.0 < theta <= p_min * (1.0 + _GUARD_TOL)):
        raise ValueError(f"theta must lie in (0, min p_i = {p_min}]")
    return theta


@dataclass(frozen=True)
class Potentials:
    """Primal distance B, per-example dual distances C_i, and the two
    Lyapunov combinations driving the convergence statements."""

    B: float
    C: np.ndarray
    D: float
    E: float


def potentials(state: SolverState, reference, smoothness: SmoothnessConstants,
               lam: float) -> Potentials:
    """Potentials of ``state`` against a ``diagnostics.ReferenceSolution``."""
    dw = state.w - reference.w
    B = float(np.dot(dw, dw))
    C = (state.alpha - reference.alpha) ** 2
    n = C.size
    L2 = smoothness.L_per**2
    # weight 0 where L_i = 0 (A_i = 0): such an alpha_i never moves w
    ratio = np.divide(C, L2, out=np.zeros_like(C), where=L2 != 0.0)
    D = 0.5 * lam * B + 0.5 * lam / n * float(np.sum(ratio))
    E = 0.5 * lam * B + 0.5 / n * float(np.sum(C / smoothness.l))
    return Potentials(B, C, D, E)


@dataclass
class TraceRecord:
    """One checkpoint of :func:`run`: at the start, then where each epoch
    ends, at t = ceil(k n / E|S|). ``residual`` is the drift
    ||w - w(alpha)|| / (1 + ||w||): 0 at the start, where w = w(alpha), and
    at t a multiple of n the drift that that iteration's resync cleared."""

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
    there keeps that resync's drift as its ``residual``, the record at the
    start takes 0 and any other takes :func:`relation_residual`, so no
    record makes two ``combine`` calls. The iterations between two resyncs
    or records are drawn as one block (:meth:`SamplingScheme.draw_block`,
    the same generator stream as one ``draw`` per iteration) and run by one
    kernel call, so the iterates equal a loop of :func:`step` over ``draw``
    bitwise. With a reference solution each record carries the
    suboptimality and the distance potentials. Deterministic for a fixed
    seed. Raises DivergenceError if the objective runs away.

    Each record is computed, and checked for divergence, right after the
    block that reaches its checkpoint and that block's resync, if any,
    before the next block is drawn.
    """
    theta = resolve_theta(problem, scheme, config.theta)
    n = problem.dataset.n
    e_size = scheme.expected_size

    def checkpoint(k):
        """Iteration of the k-th checkpoint after the start."""
        return math.ceil(k * n / e_size)

    total = checkpoint(config.epochs)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem)

    def record(residual) -> TraceRecord:
        """The record of ``state``; a residual of None is measured here."""
        if residual is None:
            residual = relation_residual(problem, state)
        primal = primal_value(problem, state.w)
        rec = TraceRecord(state.t, state.t * e_size / n, primal, residual)
        if reference is not None:
            pot = potentials(state, reference, problem.smoothness, problem.lam)
            rec.subopt = primal - reference.P_star
            rec.B, rec.D, rec.E = pot.B, pot.D, pot.E
        return rec

    # init_state just computed w from alpha, so there is no drift to measure
    records = [record(0.0)]
    runaway = 1e6 * abs(records[0].primal) + 1e6
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
            rec = record(drift)
            records.append(rec)
            if not math.isfinite(rec.primal) or abs(rec.primal) > runaway:
                raise DivergenceError(
                    f"P(w)={rec.primal:.3e} left the runaway bound {runaway:.3e} "
                    f"at iteration {rec.t}: stepsize inconsistent with the theory "
                    "or average loss not convex"
                )
    return state, Trace(theta, e_size, records)
