"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dfsdca.dataset import gen_synthetic
from dfsdca.diagnostics import (
    convergence_report,
    random_relation_state,
    reference_solution,
    suite_eso,
    verify_contraction,
    verify_lemma1,
    verify_lemma2,
)
from dfsdca.losses import (
    build_nonconvex_instance,
    logistic_loss,
    quadratic_family,
    squared_loss,
)
from dfsdca.sampling import (
    TauNiceSampling,
    chunked_sampling,
    naive_chunks,
    random_c_sampling,
    serial_importance,
    serial_uniform,
    serial_weighted,
    tau_nice,
    validate_eso,
    waiting_time,
)
from dfsdca.solver import (
    SolverConfig,
    make_problem,
    primal_gradient,
    primal_value,
    resolve_theta,
    run,
    theta_convex,
    theta_nonconvex,
)

from curvature import min_curvature_eig
from csr_rows import from_rows


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    print(f"criterion {num:2d}: PASS - {desc}")


def ridge_problem():
    ds = from_rows([([0], [1.0])] * 2, [1.0, 3.0], 1)
    return make_problem(ds, squared_loss(ds.labels), 1.0)


def small_problem(rng, kind):
    n = int(rng.integers(3, 7))
    d = int(rng.integers(2, 6))
    ds = gen_synthetic(
        n, d, 0.9, "linear-sign" if kind == "logistic" else "linear-noise",
        int(rng.integers(0, 2**31)),
    )
    loss = logistic_loss(ds.labels) if kind == "logistic" else squared_loss(ds.labels)
    return make_problem(ds, loss, float(rng.uniform(0.5, 2.0)))


def small_scheme(rng, problem):
    norms = problem.dataset.norms
    n = norms.size
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return serial_uniform(norms)
    if pick == 1:
        p = rng.dirichlet(np.full(n, 4.0))
        return serial_weighted(norms, p / p.sum())
    if pick == 2:
        return tau_nice(norms, int(rng.integers(2, n + 1)))
    part = naive_chunks(problem.dataset.nnz.tolist())
    return chunked_sampling(norms, part, int(rng.integers(1, part.k + 1)))


# -- criterion 2/8 shared runs ------------------------------------------------

ENVELOPE_SCHEMES = ("serial-uniform", "serial-importance", "nice:8", "chunked:4")


@pytest.fixture(scope="module")
def envelope_runs():
    n, d, seeds, epochs = 200, 50, 20, 50
    ds = gen_synthetic(n, d, 0.1, "linear-sign", 1234)
    problem = make_problem(ds, logistic_loss(ds.labels), 1.0 / n)
    ref = reference_solution(problem)
    partition = naive_chunks(ds.nnz.tolist())

    def build(name):
        if name == "serial-uniform":
            return serial_uniform(ds.norms)
        if name == "serial-importance":
            return serial_importance(ds.norms, problem.loss.l, problem.lam)
        if name == "nice:8":
            return tau_nice(ds.norms, 8)
        return chunked_sampling(ds.norms, partition, 4)

    t0 = time.perf_counter()
    results = {}
    for name in ENVELOPE_SCHEMES:
        theta = resolve_theta(problem, build(name), "auto-convex")
        traces = []
        for seed in range(seeds):
            cfg = SolverConfig(theta=theta, epochs=epochs, seed=seed)
            traces.append(run(problem, build(name), cfg, reference=ref)[1])
        results[name] = (theta, traces)
    elapsed = time.perf_counter() - t0
    return problem, ref, results, elapsed


def test_criterion_01_closed_form_ridge():
    with criterion(1, "1-d ridge reaches the normal-equations solution"):
        t0 = time.perf_counter()
        prob = ridge_problem()
        # normal equations: w* = (sum a_i b_i / n) / (sum a_i^2 / n + lam)
        w_star = ((1 * 1 + 1 * 3) / 2) / ((1 + 1) / 2 + 1.0)
        assert w_star == 1.0
        sc = serial_uniform(prob.dataset.norms)
        theta = theta_convex(sc.p, sc.eso(prob.dataset), prob.smoothness.l, 1.0, 2)
        assert theta == pytest.approx(1.0 / 3.0, rel=1e-15)
        state, _ = run(prob, sc, SolverConfig(theta=theta, epochs=200, seed=0))
        assert abs(state.w[0] - w_star) <= 1e-6
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_convex_envelope(envelope_runs):
    with criterion(2, "mean E(t) under exp(-theta t) envelope, 4 schemes x 20 seeds"):
        _, _, results, elapsed = envelope_runs
        for name in ENVELOPE_SCHEMES:
            theta, traces = results[name]
            report = convergence_report(traces, theta, potential="E")
            assert report.all_passed, f"{name}: envelope violated"
        assert elapsed < 30.0


def test_criterion_03_nonconvex_envelope():
    with criterion(3, "mean D(t) under envelope on a certified non-convex instance"):
        n, d, lam = 100, 20, 1.0
        ds, loss = build_nonconvex_instance(n, d, seed=7)
        assert np.min(loss.c) < 0.0
        assert min_curvature_eig(ds, loss.c) >= -1e-10
        problem = make_problem(ds, loss, lam)
        ref = reference_solution(problem)
        sc = serial_uniform(ds.norms)
        theta = theta_nonconvex(sc.p, sc.eso(ds), problem.smoothness.L_per, lam, n)
        traces = []
        for seed in range(20):
            cfg = SolverConfig(theta=theta, epochs=40, seed=seed)
            traces.append(run(problem, serial_uniform(ds.norms), cfg,
                              reference=ref)[1])
        report = convergence_report(traces, theta, potential="D")
        assert report.all_passed


def test_criterion_04_dual_evolution_identity():
    with criterion(4, "lemma-1 dual identity exact over 100 enumerated triples"):
        rng = np.random.default_rng(100)
        worst = 0.0
        for k in range(100):
            prob = small_problem(rng, "logistic" if k % 2 else "squared")
            scheme = small_scheme(rng, prob)
            ref = reference_solution(prob)
            state = random_relation_state(prob, rng)
            theta = float(rng.uniform(0.05, 1.0) * np.min(scheme.p))
            worst = max(worst, verify_lemma1(prob, state, theta, scheme, ref)[0])
        assert worst <= 1e-10


def test_criterion_05_inequalities():
    with criterion(5, "lemma-1 primal bound and lemma-2 slack nonnegative; "
                      "lemma-2 exact on quadratics"):
        rng = np.random.default_rng(200)
        # primal-distance evolution bound, 100 trials
        for k in range(100):
            prob = small_problem(rng, "logistic" if k % 2 else "squared")
            scheme = small_scheme(rng, prob)
            ref = reference_solution(prob)
            state = random_relation_state(prob, rng)
            theta = float(rng.uniform(0.05, 1.0) * np.min(scheme.p))
            assert verify_lemma1(prob, state, theta, scheme, ref)[1] >= -1e-10
        # smoothness-convexity bound, 100 trials; equality on quadratics
        for k in range(100):
            kind = "logistic" if k % 2 else "squared"
            prob = small_problem(rng, kind)
            ref = reference_solution(prob)
            w = rng.standard_normal(prob.dataset.d) * 2.0
            slack = verify_lemma2(prob, w, ref)
            assert slack >= -1e-10
            if kind == "squared":
                assert slack <= 1e-10


def test_criterion_06_one_step_contraction():
    with criterion(6, "exact E[X(t)] <= (1-theta) X(t-1) at the stepsize bound"):
        rng = np.random.default_rng(300)
        for k in range(100):
            prob = small_problem(rng, "logistic" if k % 2 else "squared")
            scheme = small_scheme(rng, prob)
            ref = reference_solution(prob)
            state = random_relation_state(prob, rng)
            assert verify_contraction(prob, state, scheme, ref, "E") >= -1e-10
        for k in range(100):
            n = int(rng.integers(3, 7))
            ds, loss = build_nonconvex_instance(n, int(rng.integers(2, 5)),
                                                int(rng.integers(0, 2**31)))
            prob = make_problem(ds, loss, float(rng.uniform(0.5, 2.0)))
            scheme = small_scheme(rng, prob)
            ref = reference_solution(prob)
            state = random_relation_state(prob, rng)
            assert verify_contraction(prob, state, scheme, ref, "D") >= -1e-10


def eso_certificate_holds() -> bool:
    """Criterion 7's check: the exact worst ratio is at most 1 for the
    built-in schemes on 10 random datasets, and above 1 for an undersized v."""
    rng = np.random.default_rng(400)
    ratios = []
    for _ in range(10):
        ds = gen_synthetic(
            int(rng.integers(6, 25)), int(rng.integers(4, 10)), 0.6,
            "linear-sign", int(rng.integers(0, 2**31)),
        )
        part = naive_chunks(ds.nnz.tolist())
        p = rng.dirichlet(np.full(ds.n, 4.0))
        schemes = [
            serial_uniform(ds.norms),
            serial_weighted(ds.norms, p / p.sum()),
            random_c_sampling(ds.norms, 4.0, int(rng.integers(0, 2**31))),
            tau_nice(ds.norms, min(3, ds.n)),
            chunked_sampling(ds.norms, part, min(2, part.k)),
        ]
        ratios.extend(validate_eso(sc, ds) for sc in schemes)
    corr = from_rows([(np.arange(4), np.ones(4))] * 6, np.ones(6), 4)
    sc = tau_nice(corr.norms, 3)
    sc.eso = lambda dataset: dataset.norms**2 / 3.0
    return bool(np.max(ratios) <= 1.0 + 1e-12) and validate_eso(sc, corr) > 1.0


def test_criterion_07_eso_certificate():
    with criterion(7, "overapproximation ratio <= 1 for built-ins; "
                      "undersized v detected"):
        assert eso_certificate_holds()


def test_criterion_07_rejects_undersized_tau_nice_v(monkeypatch):
    # 0.7 v breaks the ESO on these datasets: its worst ratio is 1.17 here
    # and 1.20-1.24 in the eso suite at seeds 0-2
    eso = TauNiceSampling.eso
    monkeypatch.setattr(TauNiceSampling, "eso", lambda self, ds: 0.7 * eso(self, ds))
    assert not eso_certificate_holds()
    assert not suite_eso(0)["pass"]


def test_criterion_08_primal_dual_relation(envelope_runs):
    with criterion(8, "w/alpha tie-in residual <= 1e-8 at every checkpoint"):
        _, _, results, _ = envelope_runs
        for name in ENVELOPE_SCHEMES:
            _, traces = results[name]
            for tr in traces:
                # residual is pre-normalized by (1 + ||w||)
                assert all(r.residual <= 1e-8 for r in tr.records), name


def test_criterion_09_chunking():
    with criterion(9, "chunk-grouped sampling strictly reduces mean waiting "
                      "time; partition capacity and one-pass hold"):
        ds = gen_synthetic(2000, 120, 0.07, "skewed-nnz", 42)
        u = ds.nnz

        class CountingList(list):
            def __init__(self, items):
                super().__init__(items)
                self.gets = 0

            def __getitem__(self, i):
                self.gets += 1
                return super().__getitem__(i)

        counted = CountingList(u.tolist())
        partition = naive_chunks(counted)
        assert counted.gets == len(counted)  # single greedy pass

        multi = partition.g >= 2
        assert np.all(partition.s[multi] <= partition.m_cap)
        assert partition.m_cap == u.max()

        rng = np.random.default_rng(0)
        for tau in (5, 10, 20, 50):
            standard = tau_nice(ds.norms, tau)
            chunked = chunked_sampling(ds.norms, partition, tau)
            # one block per scheme, as ``chunk-stats`` draws: the same loads
            # and generator stream as 10 000 sample_core_loads calls each
            m_std = np.mean(waiting_time(standard.core_loads(rng, u, 10_000)))
            m_chk = np.mean(waiting_time(chunked.core_loads(rng, u, 10_000)))
            assert m_chk < m_std, f"tau={tau}: {m_chk} !< {m_std}"


def test_criterion_10_rate_formula_regression():
    with criterion(10, "stepsize formulas match scalar recomputation to 1e-14"):
        rng = np.random.default_rng(500)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            p = rng.dirichlet(np.full(n, 3.0))
            p = np.clip(p, 1e-6, None)
            p /= p.sum()
            v = rng.uniform(0.1, 5.0, n)
            l = rng.uniform(0.05, 2.0, n)
            L = rng.uniform(0.05, 4.0, n)
            lam = float(rng.uniform(0.01, 3.0))
            got = theta_convex(p, v, l, lam, n)
            expect = min(
                p[i] * n * lam / (l[i] * v[i] + n * lam) for i in range(n)
            )
            assert abs(got - expect) <= 1e-14 * expect
            got = theta_nonconvex(p, v, L, lam, n)
            lam2 = lam * lam
            expect = min(
                p[i] * n * lam2 / (L[i] ** 2 * v[i] + n * lam2) for i in range(n)
            )
            assert abs(got - expect) <= 1e-14 * expect
        # uniform serial specialization: 1/theta = n + max_i l_i|A_i|^2 / lam
        for _ in range(20):
            n = int(rng.integers(2, 40))
            norms = rng.uniform(0.1, 2.0, n)
            l = rng.uniform(0.05, 1.0, n)
            lam = float(rng.uniform(0.05, 2.0))
            th = theta_convex(np.full(n, 1.0 / n), norms**2, l, lam, n)
            kappa = max(l[i] * norms[i] ** 2 for i in range(n)) / lam
            assert abs(1.0 / th - (n + kappa)) <= 1e-14 * (n + kappa)


def test_criterion_11_oracle_hygiene(envelope_runs):
    with criterion(11, "finite-difference checks pass; reference gradient "
                       "norms within 1e-12 * (1 + |P(0)|)"):
        rng = np.random.default_rng(600)
        # loss gradients against central differences
        for _ in range(100):
            specs = [
                logistic_loss([float(rng.choice((-1.0, 1.0)))]),
                squared_loss([float(rng.normal())]),
                quadratic_family([float(rng.uniform(0.2, 2.0))],
                                 [float(rng.normal())]),
            ]
            x = float(rng.normal(scale=3.0))
            for spec in specs:
                g = spec.gradient(0, x)
                fdg = (spec.value(0, x + 1e-6) - spec.value(0, x - 1e-6)) / 2e-6
                assert abs(g - fdg) <= 1e-5 * (1.0 + abs(g))
        # objective gradient against central differences
        problem, ref, _, _ = envelope_runs
        for _ in range(3):
            w = rng.standard_normal(problem.dataset.d)
            g = primal_gradient(problem, w)
            for j in range(0, problem.dataset.d, 7):
                e = np.zeros_like(w)
                e[j] = 1e-6
                fdg = (primal_value(problem, w + e)
                       - primal_value(problem, w - e)) / 2e-6
                assert abs(g[j] - fdg) <= 1e-5 * (1.0 + abs(g[j]))
        # reference oracle hygiene on the acceptance instances
        nonconvex = make_problem(*build_nonconvex_instance(100, 20, 7), 1.0)
        for prob, rf in (
            (ridge_problem(), None),
            (problem, ref),
            (nonconvex, None),
        ):
            rf = rf or reference_solution(prob)
            p0 = primal_value(prob, np.zeros(prob.dataset.d))
            assert rf.grad_norm <= 1e-12 * (1.0 + abs(p0))
