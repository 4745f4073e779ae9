"""The vectorized CSR step kernel against the per-example reference."""

import numpy as np
import pytest

from dfsdca.dataset import Dataset, SparseExample, gen_synthetic
from dfsdca.diagnostics import reference_solution
from dfsdca.losses import logistic_loss, squared_loss
from dfsdca.sampling import chunked_sampling, naive_chunks, serial_uniform, tau_nice
from dfsdca.solver import (
    SolverConfig,
    SolverState,
    init_state,
    make_problem,
    resolve_theta,
    resync,
    run,
    step,
)

# Only the margins' summation order differs from the reference loop, so
# the iterates agree to a few float64 roundings.
RTOL = 1e-13
ATOL = 1e-15


def reference_step(problem, state, subset, p, theta):
    """The per-example loop: one dot product and one sparse update per
    drawn example, in subset order."""
    ds, loss = problem.dataset, problem.loss
    w, alpha = state.w, state.alpha
    margins = np.array([ds.examples[i].dot(w) for i in subset])
    delta = loss.gradients(subset, margins) + alpha[subset]
    alpha[subset] -= theta / p[subset] * delta
    coef = delta * theta / (ds.n * problem.lam * p[subset])
    for j, i in enumerate(subset):
        ex = ds.examples[i]
        w[ex.indices] -= coef[j] * ex.values
    state.t += 1
    state.grad_evals += len(subset)
    return state


def awkward_dataset():
    """Skewed rows plus an empty (label-only) row and two duplicated rows."""
    base = gen_synthetic(30, 12, 0.3, "skewed-nnz", 4)
    dup = base.examples[3]
    examples = base.examples[:10] + [SparseExample([], [], 12), dup, dup] \
        + base.examples[10:]
    labels = np.concatenate([base.labels[:10], [1.0, -1.0, 1.0], base.labels[10:]])
    return Dataset(examples, labels)


def schemes(ds):
    # the empty row has v_i = 0
    part = naive_chunks(ds.nnz.tolist())
    return [
        serial_uniform(ds.norms),
        tau_nice(ds.norms, 1),
        tau_nice(ds.norms, 7),
        tau_nice(ds.norms, ds.n),
        chunked_sampling(ds.norms, part, 1),
        chunked_sampling(ds.norms, part, 3),
    ]


@pytest.mark.parametrize("k", range(6))
def test_subset_margins_bitwise(k):
    ds = awkward_dataset()
    sc = schemes(ds)[k]
    rng = np.random.default_rng(k)
    for _ in range(50):
        w = rng.standard_normal(ds.d)
        subset = sc.draw(rng)
        seg, cols, vals = ds.gather(subset)
        margins = np.bincount(seg, vals * w[cols], minlength=subset.size)
        assert np.array_equal(margins, ds.margins(w)[subset])


def test_gather_empty_row_alone():
    ds = awkward_dataset()
    seg, cols, vals = ds.gather(np.array([10]))
    assert seg.size == cols.size == vals.size == 0


@pytest.mark.parametrize("loss", [logistic_loss, squared_loss])
@pytest.mark.parametrize("k", range(6))
def test_step_matches_per_example_loop(loss, k):
    ds = awkward_dataset()
    problem = make_problem(ds, loss(ds.labels), 0.3)
    sc = schemes(ds)[k]
    theta = 0.7 * float(np.min(sc.p))
    rng = np.random.default_rng(10 + k)
    for _ in range(20):
        start = init_state(problem, rng.standard_normal(ds.n))
        subset = sc.draw(rng)
        got = step(problem, start.copy(), subset, sc.p, theta)
        want = reference_step(problem, start.copy(), subset, sc.p, theta)
        np.testing.assert_allclose(got.alpha, want.alpha, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(got.w, want.w, rtol=RTOL, atol=ATOL)
        assert (got.t, got.grad_evals) == (want.t, want.grad_evals)


@pytest.mark.parametrize("descriptor", ["nice:1", "nice:5", "nice:20", "chunked:1", "chunked:3"])
def test_fixed_point_exact(descriptor):
    ds = gen_synthetic(20, 6, 0.8, "linear-sign", 3)
    problem = make_problem(ds, logistic_loss(ds.labels), 0.5)
    ref = reference_solution(problem)
    kind, tau = descriptor.split(":")
    if kind == "nice":
        sc = tau_nice(ds.norms, int(tau))
    else:
        sc = chunked_sampling(ds.norms, naive_chunks(ds.nnz.tolist()), int(tau))
    state = SolverState(ref.w.copy(), ref.alpha.copy())
    rng = np.random.default_rng(4)
    for _ in range(10):
        step(problem, state, sc.draw(rng), sc.p, 0.5 * float(np.min(sc.p)))
    assert np.array_equal(state.w, ref.w)
    assert np.array_equal(state.alpha, ref.alpha)


@pytest.mark.parametrize("tau", [1, 4])
def test_run_equals_public_step_loop(tau):
    # run checks the guard once and loops the guard-free kernel; a loop over
    # the public step must reproduce it bitwise
    ds = gen_synthetic(24, 8, 0.5, "skewed-nnz", 7)
    problem = make_problem(ds, logistic_loss(ds.labels), 1.0 / ds.n)
    config = SolverConfig(epochs=5, seed=9)
    got, _ = run(problem, tau_nice(ds.norms, tau), config)

    sc = tau_nice(ds.norms, tau)
    theta = resolve_theta(problem, sc, config.theta)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem)
    for t in range(1, got.t + 1):
        step(problem, state, sc.draw(rng), sc.p, theta)
        if t % ds.n == 0:
            resync(problem, state)
    assert np.array_equal(state.w, got.w)
    assert np.array_equal(state.alpha, got.alpha)
    assert state.grad_evals == got.grad_evals
