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

from . import _kernel
from .dataset import Dataset, gen_synthetic
from .losses import (
    LOGISTIC,
    QUADFAM,
    SQUARED,
    LossSpec,
    build_nonconvex_instance,
    logistic_loss,
    squared_loss,
)
from .sampling import (
    SamplingScheme,
    naive_chunks,
    chunked_sampling,
    exact_atoms,
    serial_uniform,
    serial_weighted,
    tau_nice,
    validate_eso,
)
from .solver import (
    _GUARD_TOL,
    Potentials,
    PrimalPoint,
    ProblemSpec,
    SolverState,
    init_state,
    make_problem,
    potentials,
    primal_gradient,
    primal_value,
    resolve_theta,
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

    Damped inexact Newton from w = 0 runs until ||grad P|| <=
    min(tol, lam * 1e-11). Each step solves H delta = -grad P by
    Jacobi-preconditioned conjugate gradients on the Hessian-vector product
    H v = A^T (phi''(A w) o A v) / n + lam v, so no d x d array is ever
    built. Each product, and each diagonal, is one compiled pass of
    ``_kernel.Hessian`` over the Dataset's own row and transpose bindings,
    with the bits of numpy's ``ds.combine(c * ds.margins(v)) / ds.n + lam * v``.
    With more than one CPU and at least ``_kernel.MIN_HESSIAN_NNZ`` entries
    a helper thread shares each pass; it starts once per call and is joined
    before the call returns or raises, and the results keep their bits. The
    default tolerance is 1e-12 * (1 + |P(0)|).
    The lam * 1e-11 cap, which keeps the recovered relation
    w* = (1/(lam n)) sum_i alpha_i* A_i to 1e-11, is best effort: for small
    lam it can lie below the float resolution of grad P, so when the norm
    stops improving short of the cap, the iterate with the smallest norm is
    returned if that norm meets tol. Otherwise raises ReferenceError,
    carrying the gradient norm reached. ReferenceError is raised too when
    CG meets a direction p with p^T H p <= 0 (the average loss is not
    convex at w) or runs out of iterations; the message names the Newton
    iteration and that quantity.
    """
    if tol is None:
        p0 = primal_value(problem, np.zeros(problem.dataset.d))
        tol = 1e-12 * (1.0 + abs(p0))
    elif not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    with _kernel.Hessian(problem.dataset, problem.lam) as hessian:
        return _newton(problem, tol, hessian)


#: Newton iterations before giving up; quadratics need a few, logistic ~10
_MAX_NEWTON = 100
#: CG iterations per Newton step, at most _CG_PER_DIM * d + _CG_EXTRA: exact
#: arithmetic needs d, rounding and the smallest problems get the rest
_CG_PER_DIM, _CG_EXTRA = 2, 20
#: CG stops at ||H delta + grad P|| <= _FORCING ||grad P||; the rule does
#: not read tol, so neither do the iterates, and a looser tol returns an
#: earlier iterate of the same sequence
_FORCING = 1e-6
#: consecutive iterations without a smaller gradient norm that count as a stall
_STALL = 3
#: step halvings before the line search gives up
_MAX_HALVINGS = 60
#: Armijo sufficient-decrease fraction
_ARMIJO = 1e-4
#: ulps of |P| the Armijo test forgives, so that full steps near the optimum,
#: whose decrease P cannot resolve, are still taken
_SLACK_ULPS = 4


def _newton(problem: ProblemSpec, tol: float, hessian: _kernel.Hessian
            ) -> ReferenceSolution:
    ds = problem.dataset
    target = min(tol, problem.lam * 1e-11)
    # one margins pass per iterate serves P, grad P and alpha*
    at = PrimalPoint(problem, np.zeros(ds.d))
    best, stalled = None, 0
    reason = f"reached the cap of {_MAX_NEWTON} iterations"
    for it in range(1, _MAX_NEWTON + 1):
        grad = at.gradient
        gnorm = math.sqrt(grad.dot(grad))
        if gnorm <= target:
            return ReferenceSolution(at.w, at.alpha, at.value, gnorm)
        if best is None or gnorm < best.grad_norm:
            best, stalled = ReferenceSolution(at.w, at.alpha, at.value, gnorm), 0
        else:
            stalled += 1
            if stalled == _STALL:
                reason = f"no smaller gradient norm in {_STALL} iterations"
                break
        delta = _newton_cg(problem, hessian, at, grad, _FORCING * gnorm, it,
                           best.grad_norm)
        slope = float(np.dot(grad, delta))
        slack = _SLACK_ULPS * np.spacing(abs(at.value))
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            nxt = PrimalPoint(problem, at.w + s * delta)
            if nxt.value <= at.value + _ARMIJO * s * slope + slack:
                break
            s *= 0.5
        else:
            reason = f"the line search found no decrease in {_MAX_HALVINGS} halvings"
            break
        at = nxt
    if best.grad_norm <= tol:
        return best
    raise ReferenceError(
        f"Newton iteration {it}: {reason}, so the oracle stopped at "
        f"||grad|| = {best.grad_norm:.3e} > tol = {tol:.3e}",
        best.grad_norm,
    )


def _newton_cg(
    problem: ProblemSpec,
    hessian: _kernel.Hessian,
    at: PrimalPoint,
    grad: np.ndarray,
    rtol: float,
    it: int,
    reached: float,
) -> np.ndarray:
    """The Newton step delta with ||H delta + grad|| <= rtol, for the Hessian
    H of P at ``at``, by Jacobi-preconditioned conjugate gradients from 0.
    Raises ReferenceError, carrying and naming the gradient norm ``reached``,
    at p^T H p <= 0 or when the iteration cap is hit."""
    ds = problem.dataset
    stopped = f"; the oracle stopped at ||grad|| = {reached:.3e}"

    def not_convex(pHp, where):
        return ReferenceError(
            f"Newton iteration {it}: p^T H p = {pHp:.3e} <= 0 {where}, so the "
            f"average loss is not convex here{stopped}", reached)

    # the diagonal of H, sum_i c_i A_ij^2 / n + lam for the curvatures c,
    # is e_j^T H e_j
    diag = hessian.at(at.curvatures)
    j = int(np.argmin(diag))
    if not diag[j] > 0.0:
        raise not_convex(diag[j], f"along coordinate {j}")
    # from x = 0 the residual is -grad, whose norm rtol lies below
    x = np.zeros(ds.d)
    r = -grad
    z = r / diag
    p, rz = z, float(np.dot(r, z))
    cap = _CG_PER_DIM * ds.d + _CG_EXTRA
    for k in range(1, cap + 1):
        Hp = hessian.product(p)
        pHp = float(np.dot(p, Hp))
        if not pHp > 0.0:
            raise not_convex(pHp, f"at CG iteration {k}")
        a = rz / pHp
        x += a * p
        r -= a * Hp
        rnorm = math.sqrt(r.dot(r))
        if rnorm <= rtol:
            return x
        z = r / diag
        rz, rz_old = float(np.dot(r, z)), rz
        p = z + (rz / rz_old) * p
    raise ReferenceError(
        f"Newton iteration {it}: CG hit its cap of {cap} iterations at residual "
        f"||H delta + grad|| = {rnorm:.3e} > {rtol:.3e}{stopped}", reached)


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
    """Each outcome of the scheme's exact support, as its probability and
    the state that one step from a copy of ``state`` reaches on it."""
    idx, offsets, prob = exact_atoms(scheme)
    for j, pr in enumerate(prob.tolist()):
        lo, hi = offsets[j], offsets[j + 1]
        yield pr, steps(problem, state.copy(), idx[lo:hi], offsets[j:j + 2] - lo,
                        scheme.p, theta)


def verify_lemma1(
    problem: ProblemSpec,
    state: SolverState,
    theta: float,
    scheme: SamplingScheme,
    reference: ReferenceSolution,
) -> tuple[float, float]:
    """Exact-expectation check of both statements of Lemma 1, from one
    enumeration of the scheme's support with one step per outcome.

    Returns ``(eq_discrepancy, slack)``. ``eq_discrepancy`` is the worst
    absolute discrepancy over i of the dual-distance evolution identity
    E[C_i_old - C_i_new] =
    theta * [ |a_i - a_i*|^2 - |u_i - a_i*|^2 + (1 - theta/p_i) z_i^2 ]
    with u_i = -phi_i'(A_i^T w_old), z_i = a_i - u_i; this is an equality,
    so ~1e-10 is expected. ``slack`` is that of the primal-distance
    evolution bound, E[B_old - B_new] - [(2 theta/lam) (w-w*)^T grad P(w)
    - theta^2/(n lam)^2 * sum_i (v_i/p_i) z_i^2], which must be >= ~-1e-10
    at states satisfying the w/alpha tie-in.
    """
    ds, lam = problem.dataset, problem.lam
    # a solver step's margins equal those of A w bitwise, so u is the exact
    # fixed point of a step, not just to rounding
    at = PrimalPoint(problem, state.w)
    z = state.alpha - at.alpha
    a_star = reference.alpha
    C_old = (state.alpha - a_star) ** 2
    dw = state.w - reference.w
    B_old = float(np.dot(dw, dw))
    dC, dB = np.zeros(ds.n), 0.0
    for prob, nxt in _enumerated_states(problem, state, theta, scheme):
        dC += prob * (C_old - (nxt.alpha - a_star) ** 2)
        dn = nxt.w - reference.w
        dB += prob * (B_old - float(np.dot(dn, dn)))
    dC_rhs = theta * (
        C_old - (at.alpha - a_star) ** 2 + (1.0 - theta / scheme.p) * z**2
    )
    v = scheme.eso(ds)
    dB_bound = (
        2.0 * theta / lam * float(np.dot(dw, at.gradient))
        - theta**2 / (ds.n * lam) ** 2 * float(np.sum(v / scheme.p * z**2))
    )
    return float(np.max(np.abs(dC - dC_rhs))), dB - dB_bound


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


def seed_stats(traces, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over seeds of the trace column ``name`` at
    each checkpoint (NaN where it has no values). Seeds run along the last
    axis, so each checkpoint is summed pairwise as a 1-D array would be."""
    vals = np.stack([tr.column(name) for tr in traces], axis=1)
    return vals.mean(axis=1), vals.std(axis=1, ddof=1) / math.sqrt(len(traces))


def convergence_report(
    traces,
    theta: float,
    potential: str = "E",
    L: float | None = None,
    lam: float | None = None,
    eps: float | None = None,
) -> ConvergenceReport:
    """Compare mean potential trajectories against the exponential envelope.

    A checkpoint passes when mean <= envelope * (1 + 2 * stderr / mean), or
    its mean is 0; a NaN mean fails.
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
    means, stderrs = seed_stats(traces, potential)
    x0 = float(means[0])
    rows = []
    for j, t in enumerate(ts):
        env = decay_envelope(x0, theta, float(t))
        m, se = float(means[j]), float(stderrs[j])
        # the 1e-12 term lets trajectories exactly on the envelope pass
        ok = m <= env * (1.0 + 2.0 * se / m + 1e-12) if m > 0 else m <= 0
        rows.append(CheckpointRow(int(t), m, se, env, ok))

    theory_T = math.nan
    first_t = math.nan
    if L is not None and lam is not None and eps is not None:
        theory_T = iterations_to_target(1.0 / theta, L, lam, x0, eps)
        sub = seed_stats(traces, "subopt")[0]
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


#: trials per suite; eso's are its (dataset, scheme) checks
_TRIALS = dict(lemma1=40, lemma2=60, contraction=40, gradcheck=100, fixedpoint=10)
_ESO_DATASETS = 10
# Each suite reduces its trial values with numpy's max/min, which return NaN
# if any value is NaN, so a NaN fails the suite; Python's would drop it.


def _relation_trial(rng: np.random.Generator, kind: str):
    """A small problem of loss ``kind``, a scheme on it, its reference and
    a random state on the w/alpha tie-in, drawn from ``rng`` in that order."""
    problem = _small_problem(rng, kind)
    scheme = _small_scheme(rng, problem)
    ref = reference_solution(problem)
    return problem, scheme, ref, random_relation_state(problem, rng)


def _report(name: str, worst: float, passed, trials=None, **extra) -> dict:
    """A suite's result; ``trials`` defaults to the suite's count in
    _TRIALS, and ``extra`` holds its named side values, if any."""
    report = {"name": name, "trials": _TRIALS[name] if trials is None else trials,
              "worst": worst, "pass": bool(passed)}
    if extra:
        report["extra"] = extra
    return report


def suite_eso(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(_ESO_DATASETS):
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
        ratios.extend(validate_eso(sc, ds) for sc in schemes)
    worst = float(np.max(ratios)) - 1.0
    # An undersized v must be flagged. With identical examples the batch
    # aggregates add coherently, so v_i = |A_i|^2 / tau gives ratio 9 here.
    ds = Dataset(np.arange(0, 25, 4), np.tile(np.arange(4), 6),
                 np.ones(24), np.ones(6), 4)
    sc = tau_nice(ds.norms, 3)
    sc.eso = lambda dataset: dataset.norms**2 / 3.0
    bad = validate_eso(sc, ds)
    return _report("eso", worst, worst <= 1e-12 and bad > 1.0, len(ratios),
                   counterexample_ratio=bad)


def suite_lemma1(seed: int, theta_override=None) -> dict:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(_TRIALS["lemma1"]):
        kind = (LOGISTIC, SQUARED)[int(rng.integers(0, 2))]
        problem, scheme, ref, state = _relation_trial(rng, kind)
        theta = (
            float(theta_override) if theta_override is not None
            else float(rng.uniform(0.1, 1.0) * np.min(scheme.p))
        )
        pairs.append(verify_lemma1(problem, state, theta, scheme, ref))
    eq, slack = np.array(pairs).T
    worst_eq, worst_slack = float(np.max(eq)), float(np.min(slack))
    return _report("lemma1", float(np.max([worst_eq, 0.0, -worst_slack])),
                   worst_eq <= 1e-10 and worst_slack >= -1e-10,
                   eq_discrepancy=worst_eq, min_slack=worst_slack)


def suite_lemma2(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    slacks, quad = [], []
    for k in range(_TRIALS["lemma2"]):
        kind = LOGISTIC if k % 2 else SQUARED
        problem = _small_problem(rng, kind)
        ref = reference_solution(problem)
        w = rng.standard_normal(problem.dataset.d)
        slacks.append(verify_lemma2(problem, w, ref))
        if kind == SQUARED:
            quad.append(abs(slacks[-1]))
    worst, worst_quad = float(np.min(slacks)), float(np.max(quad))
    return _report("lemma2", float(np.min([worst, -worst_quad])),
                   worst >= -1e-10 and worst_quad <= 1e-10,
                   min_slack=worst, quadratic_abs_slack=worst_quad)


def suite_contraction(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    slacks = []
    for k in range(_TRIALS["contraction"]):
        kind = QUADFAM if k % 2 else LOGISTIC if k % 4 == 0 else SQUARED
        problem, scheme, ref, state = _relation_trial(rng, kind)
        potential = "D" if kind == QUADFAM else "E"
        slacks.append(verify_contraction(problem, state, scheme, ref, potential))
    worst = float(np.min(slacks))
    return _report("contraction", worst, worst >= -1e-10)


def suite_gradcheck(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(_TRIALS["gradcheck"]):
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
            errors.append(abs(g - fd) / (1.0 + abs(g)))
    # full-objective gradient against central differences
    problem = _small_problem(rng, LOGISTIC)
    for _ in range(5):
        w = rng.standard_normal(problem.dataset.d)
        g = primal_gradient(problem, w)
        for j in range(problem.dataset.d):
            e = np.zeros_like(w)
            e[j] = 1e-6
            fd = (primal_value(problem, w + e) - primal_value(problem, w - e)) / 2e-6
            errors.append(abs(g[j] - fd) / (1.0 + abs(g[j])))
    worst = float(np.max(errors))
    return _report("gradcheck", worst, worst <= 1e-5)


def suite_fixedpoint(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    drift = []
    exact = True
    for k in range(_TRIALS["fixedpoint"]):
        problem = _small_problem(rng, (LOGISTIC, SQUARED)[k % 2])
        ref = reference_solution(problem)
        scheme = _small_scheme(rng, problem)
        theta = float(0.5 * np.min(scheme.p))
        state = SolverState(ref.w.copy(), ref.alpha.copy())
        steps(problem, state, *scheme.draw_block(rng, 3), scheme.p, theta)
        exact = exact and np.array_equal(state.w, ref.w) \
            and np.array_equal(state.alpha, ref.alpha)
        drift.append(np.linalg.norm(ref.w - w_of(problem, ref.alpha)))
    worst = float(np.max(drift))
    return _report("fixedpoint", worst, exact and worst <= 1e-10,
                   exactly_invariant=exact)


ALL_SUITES = {
    "eso": suite_eso,
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "contraction": suite_contraction,
    "gradcheck": suite_gradcheck,
    "fixedpoint": suite_fixedpoint,
}


def run_suites(names, seed: int, theta_override=None) -> list[dict]:
    """The reports of the suites ``names`` (keys of ALL_SUITES) at ``seed``,
    run one after another in this process; ``theta_override`` goes to the
    lemma1 suite. The first suite that raises raises here."""
    options = {"lemma1": {"theta_override": theta_override}}
    return [ALL_SUITES[name](seed, **options.get(name, {})) for name in names]
