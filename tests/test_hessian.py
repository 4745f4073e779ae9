"""The reference oracle's compiled Hessian products (``_kernel.Hessian``).

The products and Jacobi diagonals must have the bits of the numpy
expressions they replace, on one thread and on two, whatever the cuts
between the threads' halves (hypothesis, derandomized). A threaded oracle
call must leave no thread behind, whether it returns or raises, and give
the bits and the messages of the same Newton loop in numpy
(``tests/newton.py``).
"""

import itertools
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfsdca._kernel as _kernel
import dfsdca.diagnostics as diagnostics
from dfsdca.dataset import Dataset, gen_synthetic
from dfsdca.diagnostics import ReferenceError, reference_solution
from dfsdca.losses import logistic_loss, quadratic_family
from dfsdca.solver import make_problem

from newton import (
    agrees_with_numpy,
    numpy_diagonal,
    numpy_newton,
    numpy_product,
    record_newton,
)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def tasks():
    return len(os.listdir("/proc/self/task"))


VALUES = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([1e20, -1e20, 1e-20, -1e-20]),
)


@st.composite
def problems(draw):
    """A dataset of 1-6 rows and 1-6 columns, with empty rows and columns
    as they come, curvatures c (negative ones too), lam and a vector p."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mask = draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    indices = [j for r in mask for j in range(d) if r[j]]
    data = [draw(VALUES.filter(lambda x: x != 0.0)) for _ in indices]
    indptr = np.cumsum([0] + [sum(r) for r in mask])
    ds = Dataset(indptr, indices, data, np.zeros(n), d)
    c = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(VALUES, min_size=d, max_size=d)))
    lam = draw(st.sampled_from([1e-3, 0.5, 1e20, 1e-20]))
    return ds, c, lam, p


def case(rows, d, c, lam, p):
    """A fixed problem: ``rows`` as lists of ``(column, value)``."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [j for r in rows for j, _ in r]
    data = [v for r in rows for _, v in r]
    ds = Dataset(indptr, indices, data, np.zeros(len(rows)), d)
    return ds, np.array(c, float), lam, np.array(p, float)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(problem=problems())
@example(problem=case([[(0, 2.0)]], 1, [3.0], 0.5, [1e20]))  # n = d = 1
@example(problem=case([[(0, 1e20)], [], [(2, -1e-20)]], 4, [1e20, 2.0, -1.0], 1e-3,
                      [1.0, 5.0, 1e-20, -2.0]))  # an empty row and column
@example(problem=case([[], [], [(1, 1.5), (2, -1e20)], []], 3, [1.0] * 4, 0.5,
                      [1e-20, 1.0, -3.0]))  # cuts at empty rows and column 0
def test_products_keep_the_numpy_bits_at_every_cut(problem):
    ds, c, lam, p = problem
    want_diagonal, want_product = numpy_diagonal(ds, c, lam), numpy_product(ds, c, lam, p)
    for threads in (1, 2):
        with _kernel.Hessian(ds, lam, threads=threads) as hessian:
            for cuts in itertools.product(range(ds.n + 1), range(ds.d + 1)):
                hessian.cuts = cuts
                assert same_bits(hessian.at(c), want_diagonal), (threads, cuts)
                assert same_bits(hessian.product(p), want_product), (threads, cuts)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(problem=problems(), threads=st.sampled_from([1, 2]),
       target=st.sampled_from([0.0, 1e-12]))
def test_newton_keeps_the_numpy_bits(problem, threads, target):
    # quadratic-family losses of either curvature sign on the products'
    # cases, extreme values included: the loop converges, stalls or meets a
    # concave coordinate or CG direction (test_diagnostics.py's
    # test_every_outcome_keeps_the_numpy_bits drives the caps)
    ds, c, lam, _ = problem
    c = np.where(c == 0.0, 1.0, c)
    prob = make_problem(ds, quadratic_family(c, np.roll(c, 1)), lam)
    options = dict(target=target, forcing=diagnostics._FORCING,
                   armijo=diagnostics._ARMIJO, slack_ulps=diagnostics._SLACK_ULPS,
                   max_newton=diagnostics._MAX_NEWTON, stall=diagnostics._STALL,
                   max_halvings=diagnostics._MAX_HALVINGS,
                   cg_per_dim=diagnostics._CG_PER_DIM, cg_extra=diagnostics._CG_EXTRA)
    w, mirror_w = np.zeros(ds.d), np.zeros(ds.d)
    with _kernel.Hessian(ds, lam, threads=threads) as hessian:
        run = hessian.newton(prob.loss.kernel, w, **options)
    with np.errstate(all="ignore"):
        mirror = numpy_newton(prob, mirror_w, **options)
    assert repr(run) == repr(mirror)
    assert w.tobytes() == mirror_w.tobytes()


def test_helper_runs_halves_of_large_products():
    ds = gen_synthetic(2000, 100, 0.1, "linear-sign", 0)
    rng = np.random.default_rng(0)
    c, p = rng.uniform(0.1, 1.0, ds.n), rng.standard_normal(ds.d)
    want = numpy_product(ds, c, 0.01, p)
    for threads in (1, 2):
        # the scheduler may keep a helper off the CPUs for a while, so the
        # products go in rounds of 50, each with a new Hessian, until its
        # helper has run a half or a deadline passes
        deadline = time.monotonic() + 5
        while True:
            with _kernel.Hessian(ds, 0.01, threads=threads) as hessian:
                hessian.at(c)
                for _ in range(50):
                    assert same_bits(hessian.product(p), want)
            if threads == 1 or hessian.helped or time.monotonic() > deadline:
                break
        # the helper claims the second halves it reaches first; the caller
        # runs the rest, and all of them without a helper
        assert (hessian.helped > 0) == (threads == 2)


def test_helpers_on_oversubscribed_cores_keep_the_bits():
    # four callers with a helper each, so more threads than cores: helpers
    # start late, share a CPU with their caller or with another's
    ds = gen_synthetic(300, 40, 0.2, "linear-sign", 1)
    rng = np.random.default_rng(1)
    c, p = rng.uniform(0.1, 1.0, ds.n), rng.standard_normal(ds.d)
    want = numpy_product(ds, c, 0.01, p)
    wrong = []

    def call(k):
        with _kernel.Hessian(ds, 0.01, threads=2) as hessian:
            hessian.at(c)
            for _ in range(300):
                if not same_bits(hessian.product(p), want):
                    wrong.append(k)

    before = tasks()
    callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
    assert not any(caller.is_alive() for caller in callers)
    assert wrong == []
    # a joined Python thread may take a moment more to leave the task list
    for _ in range(500):
        if tasks() == before:
            break
        time.sleep(0.01)
    assert tasks() == before


def test_bad_arguments_raise_before_the_kernel_runs():
    ds = gen_synthetic(6, 4, 0.5, "linear-sign", 0)
    with pytest.raises(ValueError, match="threads=3 is not 1 or 2"):
        _kernel.Hessian(ds, 0.1, threads=3)
    hessian = _kernel.Hessian(ds, 0.1)
    with pytest.raises(RuntimeError, match="outside its with block"):
        hessian.at(np.ones(6))
    with hessian:
        with pytest.raises(ValueError, match=r"c must have shape \(6,\), got \(5,\)"):
            hessian.at(np.ones(5))
        with pytest.raises(ValueError, match=r"p must have shape \(4,\), got \(\)"):
            hessian.product(1.0)
        hessian.cuts = (7, 0)
        with pytest.raises(ValueError, match=r"cuts \(7, 0\) outside \[0, 6\] x \[0, 4\]"):
            hessian.product(np.ones(4))


# -- the oracle's helper thread ---------------------------------------------

@pytest.fixture
def threads_started(monkeypatch):
    """Two CPUs, as the oracle sees them; the thread counts of its Hessians."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started, init = [], _kernel.Hessian.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self.threads)

    monkeypatch.setattr(_kernel.Hessian, "__init__", record)
    return started


def outcome(problem):
    """What the oracle gives: the solution's bytes or the error's message."""
    try:
        ref = reference_solution(problem)
    except ReferenceError as exc:
        return type(exc), str(exc), exc.grad_norm
    return ref.w.tobytes(), ref.alpha.tobytes(), ref.P_star, ref.grad_norm


def same_as_numpy(problem, monkeypatch):
    """Runs the oracle threaded, checks that it leaves the thread count as
    it was and that its compiled Newton call has the bits of the numpy
    loop's, and returns the outcome."""
    before = tasks()
    with monkeypatch.context() as m:
        calls = record_newton(m)
        got = outcome(problem)
    assert tasks() == before
    assert len(calls) == 1 and agrees_with_numpy(problem, calls[0])
    return got


def logistic_above_threshold():
    ds = gen_synthetic(1500, 100, 0.1, "linear-sign", 0)
    assert ds.indices.size >= _kernel.MIN_HESSIAN_NNZ
    return make_problem(ds, logistic_loss(ds.labels), 1.0 / ds.n)


def test_threaded_oracle_returns_the_numpy_bits(threads_started, monkeypatch):
    got = same_as_numpy(logistic_above_threshold(), monkeypatch)
    assert isinstance(got[0], bytes) and threads_started == [2]


def test_threaded_oracle_raises_the_numpy_message_on_a_concave_direction(
        threads_started, monkeypatch):
    # a fifth of the rows with curvature -2: every column's diagonal stays
    # positive, and CG meets p^T H p <= 0 at its second iteration
    ds = gen_synthetic(1500, 100, 0.1, "linear-sign", 0)
    rng = np.random.default_rng(1)
    c = np.where(rng.random(ds.n) < 0.2, -2.0, 1.0)
    problem = make_problem(ds, quadratic_family(c, rng.standard_normal(ds.n)), 1e-3)
    kind, message, _ = same_as_numpy(problem, monkeypatch)
    assert kind is ReferenceError and threads_started == [2]
    assert message.startswith("Newton iteration 1: p^T H p = ")
    assert "<= 0 at CG iteration 2, so the average loss is not convex here" in message


def test_threaded_oracle_raises_the_numpy_message_at_the_cg_cap(
        threads_started, monkeypatch):
    monkeypatch.setattr(diagnostics, "_CG_PER_DIM", 0)
    monkeypatch.setattr(diagnostics, "_CG_EXTRA", 3)
    kind, message, _ = same_as_numpy(logistic_above_threshold(), monkeypatch)
    assert kind is ReferenceError and threads_started == [2]
    assert message.startswith("Newton iteration 1: CG hit its cap of 3 iterations")


def test_small_problems_and_one_cpu_start_no_thread(threads_started, monkeypatch):
    ds = gen_synthetic(30, 6, 0.5, "linear-sign", 0)
    reference_solution(make_problem(ds, logistic_loss(ds.labels), 0.1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    reference_solution(logistic_above_threshold())
    assert threads_started == [1, 1]
