"""Reference solutions, distance potentials, and executable validators.

The validators turn the method's supporting identities and one-step bounds
into numerical checks: exact subset enumeration replaces expectations for
schemes with small support, so equalities can be asserted to ~1e-10 instead
of statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, gen_synthetic
from .losses import (
    LOGISTIC,
    QUADFAM,
    SQUARED,
    LossSpec,
    average_curvature_matrix,
    build_nonconvex_instance,
    logistic_loss,
    squared_loss,
)
from .sampling import (
    SamplingScheme,
    naive_chunks,
    chunked_sampling,
    serial_uniform,
    serial_weighted,
    tau_nice,
    validate_eso,
)
from .solver import (
    _GUARD_TOL,
    PrimalPoint,
    ProblemSpec,
    SolverState,
    init_state,
    make_problem,
    primal_gradient,
    primal_value,
    resolve_theta,
    step,
    steps,
    w_of,
)


class ReferenceError(RuntimeError):
    """Oracle stopped short of its target; carries the gradient norm reached."""

    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm


@dataclass(eq=False)
class ReferenceSolution:
    """High-precision minimizer w*, matched duals alpha_i* = -phi_i'(A_i^T w*),
    optimal value, and the gradient norm actually achieved."""

    w: np.ndarray
    alpha: np.ndarray
    P_star: float
    grad_norm: float

    def to_json(self) -> dict:
        return {
            "w": self.w.tolist(),
            "alpha": self.alpha.tolist(),
            "P_star": self.P_star,
            "grad_norm": self.grad_norm,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ReferenceSolution":
        return cls(
            np.array(payload["w"], dtype=np.float64),
            np.array(payload["alpha"], dtype=np.float64),
            float(payload["P_star"]),
            float(payload["grad_norm"]),
        )


def reference_solution(
    problem: ProblemSpec, tol: float | None = None
) -> ReferenceSolution:
    """Deterministic oracle for the regularized optimum.

    Damped Newton from w = 0 on the dense Hessian
    ``average_curvature_matrix(ds, phi''(A w)) + lam I`` runs until
    ||grad P|| <= min(tol, lam * 1e-11); on quadratic losses the first step
    is the exact linear solve and the loop stops there. The default
    tolerance is 1e-12 * (1 + |P(0)|). The lam * 1e-11 cap, which keeps the
    recovered relation w* = (1/(lam n)) sum_i alpha_i* A_i to 1e-11, is best
    effort: for small lam it can lie below the float resolution of grad P,
    so when the norm stops improving short of the cap, the iterate with the
    smallest norm is returned if that norm meets tol. Otherwise raises
    ReferenceError, carrying the gradient norm reached.
    """
    if tol is None:
        p0 = primal_value(problem, np.zeros(problem.dataset.d))
        tol = 1e-12 * (1.0 + abs(p0))
    elif not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    return _newton(problem, tol)


#: Newton iterations before giving up; quadratics need one, logistic ~10
_MAX_NEWTON = 100
#: consecutive iterations without a smaller gradient norm that count as a stall
_STALL = 3
#: step halvings before the line search gives up
_MAX_HALVINGS = 60
#: Armijo sufficient-decrease fraction
_ARMIJO = 1e-4
#: ulps of |P| the Armijo test forgives, so that full steps near the optimum,
#: whose decrease P cannot resolve, are still taken
_SLACK_ULPS = 4


def _newton(problem: ProblemSpec, tol: float) -> ReferenceSolution:
    ds = problem.dataset
    target = min(tol, problem.lam * 1e-11)
    # one margins pass per iterate serves P, grad P and alpha*
    at = PrimalPoint(problem, np.zeros(ds.d))
    best, stalled = None, 0
    for _ in range(_MAX_NEWTON):
        grad = at.gradient
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= target:
            return ReferenceSolution(at.w, at.alpha, at.value, gnorm)
        if best is None or gnorm < best.grad_norm:
            best, stalled = ReferenceSolution(at.w, at.alpha, at.value, gnorm), 0
        else:
            stalled += 1
            if stalled == _STALL:
                break
        H = average_curvature_matrix(ds, problem.loss.curvatures(at.idx, at.margins))
        H.flat[:: ds.d + 1] += problem.lam  # + lam I without a second d x d array
        delta = np.linalg.solve(H, -grad)
        slope = float(np.dot(grad, delta))
        slack = _SLACK_ULPS * np.spacing(abs(at.value))
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            nxt = PrimalPoint(problem, at.w + s * delta)
            if nxt.value <= at.value + _ARMIJO * s * slope + slack:
                break
            s *= 0.5
        else:
            break
        at = nxt
    if best.grad_norm <= tol:
        return best
    raise ReferenceError(
        f"oracle stopped at ||grad|| = {best.grad_norm:.3e} > tol = {tol:.3e}",
        best.grad_norm,
    )


@dataclass(frozen=True)
class Potentials:
    """Primal distance B, per-example dual distances C_i, and the two
    Lyapunov combinations driving the convergence statements."""

    B: float
    C: np.ndarray
    D: float
    E: float


def potentials(
    state: SolverState,
    reference: ReferenceSolution,
    smoothness,
    lam: float,
) -> Potentials:
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


def decay_envelope(X0: float, theta: float, t) -> np.ndarray | float:
    """Theoretical ceiling X0 * exp(-theta * t) on the expected potential.

    theta may exceed 1 by the solver's guard slack, so every stepsize that
    :func:`~dfsdca.solver.run` accepts has an envelope."""
    if not (0.0 < theta <= 1.0 + _GUARD_TOL):
        raise ValueError("theta must lie in (0, 1]")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    out = X0 * np.exp(-theta * t)
    return float(out) if out.ndim == 0 else out


def iterations_to_target(
    rate_bound: float, L: float, lam: float, X0: float, eps: float
) -> float:
    """Iterations after which the expected suboptimality is below eps,
    per the complexity statements: rate * log((L + lam) X0 / (lam eps))."""
    return rate_bound * math.log((L + lam) * X0 / (lam * eps))


def _enumerated_states(problem, state, theta, scheme):
    atoms = scheme.atoms()
    if atoms is None:
        raise ValueError("scheme support too large for exact enumeration")
    idx, offsets, prob = atoms
    for j, pr in enumerate(prob.tolist()):
        subset = idx[offsets[j]:offsets[j + 1]]
        yield pr, step(problem, state.copy(), subset, scheme.p, theta)


def verify_lemma1_C(
    problem: ProblemSpec,
    state: SolverState,
    theta: float,
    scheme: SamplingScheme,
    reference: ReferenceSolution,
) -> float:
    """Exact-expectation check of the dual-distance evolution identity.

    Enumerates the scheme's support, applies one step per outcome, and
    compares E[C_i_old - C_i_new] against
    theta * [ |a_i - a_i*|^2 - |u_i - a_i*|^2 + (1 - theta/p_i) z_i^2 ]
    with u_i = -phi_i'(A_i^T w_old), z_i = a_i - u_i. Returns the worst
    absolute discrepancy over i; this is an equality, so ~1e-10 is expected.
    """
    alpha = state.alpha
    # a solver step's margins equal those of A w bitwise, so u is the exact
    # fixed point of a step, not just to rounding
    u = PrimalPoint(problem, state.w).alpha
    z = alpha - u
    a_star = reference.alpha
    rhs = theta * (
        (alpha - a_star) ** 2
        - (u - a_star) ** 2
        + (1.0 - theta / scheme.p) * z**2
    )
    C_old = (alpha - a_star) ** 2
    lhs = np.zeros(problem.dataset.n)
    for prob, nxt in _enumerated_states(problem, state, theta, scheme):
        lhs += prob * (C_old - (nxt.alpha - a_star) ** 2)
    return float(np.max(np.abs(lhs - rhs)))


def verify_lemma1_B(
    problem: ProblemSpec,
    state: SolverState,
    theta: float,
    scheme: SamplingScheme,
    reference: ReferenceSolution,
) -> float:
    """Exact-expectation slack of the primal-distance evolution bound.

    Valid at states satisfying the w/alpha tie-in. Returns
    E[B_old - B_new] - [(2 theta/lam) (w-w*)^T grad P(w)
    - theta^2/(n lam)^2 * sum_i (v_i/p_i) z_i^2], which must be >= ~-1e-10.
    """
    ds = problem.dataset
    at = PrimalPoint(problem, state.w)
    z = state.alpha - at.alpha
    dw = state.w - reference.w
    B_old = float(np.dot(dw, dw))
    lhs = 0.0
    for prob, nxt in _enumerated_states(problem, state, theta, scheme):
        dn = nxt.w - reference.w
        lhs += prob * (B_old - float(np.dot(dn, dn)))
    n, lam, v = ds.n, problem.lam, scheme.eso(ds)
    rhs = (
        2.0 * theta / lam * float(np.dot(dw, at.gradient))
        - theta**2 / (n * lam) ** 2 * float(np.sum(v / scheme.p * z**2))
    )
    return lhs - rhs


def verify_lemma2(
    problem: ProblemSpec,
    w: np.ndarray,
    reference: ReferenceSolution,
) -> float:
    """Slack of the smoothness-convexity bound
    (1/n) sum (1/l_i) |phi_i'(A_i^T w) - phi_i'(A_i^T w*)|^2
    <= 2 (P(w) - P(w*) - lam/2 ||w - w*||^2); must be >= ~-1e-10, and is
    zero for purely quadratic losses.
    """
    if not problem.loss.convex:
        raise ValueError("bound requires every individual loss to be convex")
    # phi'(A w) = -alpha*(w), so the two differences have the same squares
    at = PrimalPoint(problem, w)
    a_star = PrimalPoint(problem, reference.w).alpha
    lhs = float(np.mean((at.alpha - a_star) ** 2 / problem.loss.l))
    dw = w - reference.w
    rhs = 2.0 * (
        at.value
        - reference.P_star
        - 0.5 * problem.lam * float(np.dot(dw, dw))
    )
    return rhs - lhs


def verify_contraction(
    problem: ProblemSpec,
    state: SolverState,
    scheme: SamplingScheme,
    reference: ReferenceSolution,
    potential: str = "E",
) -> float:
    """Slack of the one-step expected contraction at the theoretical
    stepsize: (1 - theta) X_old - E[X_new] for X in {E, D}; must be
    >= ~-1e-10 at states satisfying the w/alpha tie-in."""
    sm, lam = problem.smoothness, problem.lam
    if potential == "E":
        if not problem.loss.convex:
            raise ValueError("E-contraction requires convex individual losses")
        theta = resolve_theta(problem, scheme, "auto-convex")
    elif potential == "D":
        theta = resolve_theta(problem, scheme, "auto-nonconvex")
    else:
        raise ValueError("potential must be 'E' or 'D'")
    x_old = getattr(potentials(state, reference, sm, lam), potential)
    x_new = 0.0
    for prob, nxt in _enumerated_states(problem, state, theta, scheme):
        x_new += prob * getattr(potentials(nxt, reference, sm, lam), potential)
    return (1.0 - theta) * x_old - x_new


def random_relation_state(problem: ProblemSpec, rng: np.random.Generator) -> SolverState:
    """Random duals with w recomputed from them, so the tie-in relation
    holds exactly at the returned state."""
    return init_state(problem, rng.standard_normal(problem.dataset.n))


@dataclass
class CheckpointRow:
    t: int
    mean: float
    stderr: float
    envelope: float
    passed: bool


@dataclass
class ConvergenceReport:
    potential: str
    theta: float
    rows: list[CheckpointRow]
    theory_T: float
    first_passage_t: float  # nan when the target was never reached
    all_passed: bool = field(init=False)

    def __post_init__(self):
        self.all_passed = all(r.passed for r in self.rows)


def convergence_report(
    traces,
    theta: float,
    potential: str = "E",
    L: float | None = None,
    lam: float | None = None,
    eps: float | None = None,
) -> ConvergenceReport:
    """Compare mean potential trajectories against the exponential envelope.

    A checkpoint passes when mean <= envelope * (1 + 2 * stderr / mean).
    With L, lam and eps given, also reports the theoretical iteration count
    (1/theta) * log((L + lam) X0 / (lam eps)) next to the first checkpoint
    whose mean suboptimality is below eps.
    """
    if len(traces) < 2:
        raise ValueError("need at least 2 seeds to form a mean and stderr")
    ts = traces[0].column("t")
    for tr in traces[1:]:
        if not np.array_equal(tr.column("t"), ts):
            raise ValueError("traces must share their checkpoint grid")
    vals = np.vstack([tr.column(potential) for tr in traces])
    means = vals.mean(axis=0)
    stderrs = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])
    x0 = float(means[0])
    rows = []
    for j, t in enumerate(ts):
        env = decay_envelope(x0, theta, float(t))
        m, se = float(means[j]), float(stderrs[j])
        # the 1e-12 term lets trajectories exactly on the envelope pass
        ok = m <= env * (1.0 + 2.0 * se / m + 1e-12) if m > 0 else True
        rows.append(CheckpointRow(int(t), m, se, env, ok))

    theory_T = math.nan
    first_t = math.nan
    if L is not None and lam is not None and eps is not None:
        theory_T = iterations_to_target(1.0 / theta, L, lam, x0, eps)
        sub = np.vstack([tr.column("subopt") for tr in traces]).mean(axis=0)
        hit = np.nonzero(sub <= eps)[0]
        if hit.size:
            first_t = float(ts[hit[0]])
    return ConvergenceReport(potential, theta, rows, theory_T, first_t)


# ---------------------------------------------------------------------------
# validation suites (driven by the command-line `validate` subcommand)

def _small_problem(rng: np.random.Generator, kind: str):
    n = int(rng.integers(3, 7))
    d = int(rng.integers(2, 6))
    seed = int(rng.integers(0, 2**31))
    if kind == QUADFAM:
        ds, loss = build_nonconvex_instance(n, d, seed)
    else:
        model = "linear-sign" if kind == LOGISTIC else "linear-noise"
        ds = gen_synthetic(n, d, 0.8, model, seed)
        loss = logistic_loss(ds.labels) if kind == LOGISTIC else squared_loss(ds.labels)
    lam = float(rng.uniform(0.5, 2.0))
    return make_problem(ds, loss, lam)


def _small_scheme(rng: np.random.Generator, problem: ProblemSpec) -> SamplingScheme:
    norms = problem.dataset.norms
    n = norms.size
    kind = rng.integers(0, 4)
    if kind == 0:
        return serial_uniform(norms)
    if kind == 1:
        p = rng.dirichlet(np.full(n, 5.0))
        return serial_weighted(norms, p / p.sum())
    if kind == 2:
        return tau_nice(norms, int(rng.integers(2, n + 1)))
    part = naive_chunks(problem.dataset.nnz.tolist())
    return chunked_sampling(norms, part, int(rng.integers(1, part.k + 1)))


def suite_eso(seed: int, datasets: int = 10, trials: int = 5) -> dict:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    count = 0
    for _ in range(datasets):
        ds = gen_synthetic(
            int(rng.integers(5, 30)), int(rng.integers(4, 12)), 0.5,
            "linear-sign", int(rng.integers(0, 2**31)),
        )
        part = naive_chunks(ds.nnz.tolist())
        schemes = [
            serial_uniform(ds.norms),
            tau_nice(ds.norms, min(3, ds.n)),
            chunked_sampling(ds.norms, part, min(2, part.k)),
        ]
        for sc in schemes:
            rep = validate_eso(sc, ds, trials, int(rng.integers(0, 2**31)))
            excess = float(np.max(rep.ratios - 1.0 - 3.0 * rep.stderrs))
            worst = max(worst, excess)
            count += trials
    # An undersized v must be flagged. With identical examples the batch
    # aggregates add coherently, so v_i = |A_i|^2 / tau forces ratio >= 1.8.
    ds = Dataset(np.arange(0, 25, 4), np.tile(np.arange(4), 6),
                 np.ones(24), np.ones(6), 4)
    sc = tau_nice(ds.norms, 3)
    sc.eso = lambda dataset: dataset.norms**2 / 3.0
    bad = validate_eso(sc, ds, trials, seed)
    detected = bad.max_ratio > 1.0
    return {
        "name": "eso",
        "trials": count,
        "worst": worst,
        "pass": bool(worst <= 1e-12 and detected),
        "extra": {"counterexample_ratio": bad.max_ratio},
    }


def suite_lemma1(seed: int, trials: int = 40, theta_override=None) -> dict:
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    worst_slack = math.inf
    for _ in range(trials):
        kind = (LOGISTIC, SQUARED)[int(rng.integers(0, 2))]
        problem = _small_problem(rng, kind)
        scheme = _small_scheme(rng, problem)
        ref = reference_solution(problem)
        state = random_relation_state(problem, rng)
        theta = (
            float(theta_override) if theta_override is not None
            else float(rng.uniform(0.1, 1.0) * np.min(scheme.p))
        )
        worst_eq = max(
            worst_eq, verify_lemma1_C(problem, state, theta, scheme, ref)
        )
        worst_slack = min(
            worst_slack, verify_lemma1_B(problem, state, theta, scheme, ref)
        )
    return {
        "name": "lemma1",
        "trials": trials,
        "worst": max(worst_eq, max(0.0, -worst_slack)),
        "pass": bool(worst_eq <= 1e-10 and worst_slack >= -1e-10),
        "extra": {"eq_discrepancy": worst_eq, "min_slack": worst_slack},
    }


def suite_lemma2(seed: int, trials: int = 60) -> dict:
    rng = np.random.default_rng(seed)
    worst = math.inf
    worst_quad = 0.0
    for k in range(trials):
        kind = LOGISTIC if k % 2 else SQUARED
        problem = _small_problem(rng, kind)
        ref = reference_solution(problem)
        w = rng.standard_normal(problem.dataset.d)
        slack = verify_lemma2(problem, w, ref)
        worst = min(worst, slack)
        if kind == SQUARED:
            worst_quad = max(worst_quad, abs(slack))
    return {
        "name": "lemma2",
        "trials": trials,
        "worst": min(worst, -worst_quad),
        "pass": bool(worst >= -1e-10 and worst_quad <= 1e-10),
        "extra": {"min_slack": worst, "quadratic_abs_slack": worst_quad},
    }


def suite_contraction(seed: int, trials: int = 40) -> dict:
    rng = np.random.default_rng(seed)
    worst = math.inf
    for k in range(trials):
        if k % 2:
            problem = _small_problem(rng, QUADFAM)
            potential = "D"
        else:
            problem = _small_problem(rng, LOGISTIC if k % 4 == 0 else SQUARED)
            potential = "E"
        scheme = _small_scheme(rng, problem)
        ref = reference_solution(problem)
        state = random_relation_state(problem, rng)
        worst = min(
            worst, verify_contraction(problem, state, scheme, ref, potential)
        )
    return {
        "name": "contraction",
        "trials": trials,
        "worst": worst,
        "pass": bool(worst >= -1e-10),
    }


def suite_gradcheck(seed: int, trials: int = 100) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        y = float(rng.choice((-1.0, 1.0)))
        losses = [
            logistic_loss([y]),
            squared_loss([float(rng.normal())]),
            LossSpec(QUADFAM, c=[float(rng.uniform(0.2, 3.0))],
                     b=[float(rng.normal())]),
        ]
        x = float(rng.normal(scale=3.0))
        for spec in losses:
            g = spec.gradient(0, x)
            fd = (spec.value(0, x + 1e-6) - spec.value(0, x - 1e-6)) / 2e-6
            worst = max(worst, abs(g - fd) / (1.0 + abs(g)))
    # full-objective gradient against central differences
    problem = _small_problem(rng, LOGISTIC)
    for _ in range(5):
        w = rng.standard_normal(problem.dataset.d)
        g = primal_gradient(problem, w)
        for j in range(problem.dataset.d):
            e = np.zeros_like(w)
            e[j] = 1e-6
            fd = (primal_value(problem, w + e) - primal_value(problem, w - e)) / 2e-6
            worst = max(worst, abs(g[j] - fd) / (1.0 + abs(g[j])))
    return {
        "name": "gradcheck",
        "trials": trials,
        "worst": worst,
        "pass": bool(worst <= 1e-5),
    }


def suite_fixedpoint(seed: int, trials: int = 10) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact = True
    for k in range(trials):
        problem = _small_problem(rng, (LOGISTIC, SQUARED)[k % 2])
        ref = reference_solution(problem)
        scheme = _small_scheme(rng, problem)
        theta = float(0.5 * np.min(scheme.p))
        state = SolverState(ref.w.copy(), ref.alpha.copy())
        steps(problem, state, *scheme.draw_block(rng, 3), scheme.p, theta)
        exact = exact and np.array_equal(state.w, ref.w) \
            and np.array_equal(state.alpha, ref.alpha)
        worst = max(worst, float(np.linalg.norm(ref.w - w_of(problem, ref.alpha))))
    return {
        "name": "fixedpoint",
        "trials": trials,
        "worst": worst,
        "pass": bool(exact and worst <= 1e-10),
        "extra": {"exactly_invariant": exact},
    }


ALL_SUITES = {
    "eso": suite_eso,
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "contraction": suite_contraction,
    "gradcheck": suite_gradcheck,
    "fixedpoint": suite_fixedpoint,
}
