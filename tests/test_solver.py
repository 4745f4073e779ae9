import numpy as np
import pytest

from dfsdca.dataset import Dataset, gen_synthetic
from dfsdca.losses import (
    logistic_loss,
    quadratic_family,
    smoothness_constants,
    squared_loss,
)
from dfsdca.sampling import (
    chunked_sampling,
    naive_chunks,
    serial_uniform,
    tau_nice,
)
from dfsdca.solver import (
    DivergenceError,
    ProblemSpec,
    SolverConfig,
    SolverState,
    init_state,
    make_problem,
    primal_gradient,
    primal_value,
    relation_residual,
    resolve_theta,
    resync,
    run,
    step,
    theta_convex,
    theta_nonconvex,
    w_of,
)

from csr_rows import from_rows, row


def ridge_problem():
    """Two collinear 1-d examples with targets 1 and 3; lam = 1.

    Normal equations give w* = (sum a_i b_i / n) / (sum a_i^2 / n + lam) = 1.
    """
    ds = from_rows([([0], [1.0])] * 2, [1.0, 3.0], 1)
    return make_problem(ds, squared_loss(ds.labels), 1.0)


def logistic_problem(n=20, d=6, lam=0.5, seed=3):
    ds = gen_synthetic(n, d, 0.8, "linear-sign", seed)
    return make_problem(ds, logistic_loss(ds.labels), lam)


class TestThetaFormulas:
    def test_convex_hand_value(self):
        assert theta_convex([0.5, 0.5], [1.0, 1.0], [1.0, 1.0], 1.0, 2) == pytest.approx(
            1.0 / 3.0, rel=1e-15
        )

    def test_nonconvex_hand_values(self):
        assert theta_nonconvex([0.5, 0.5], [1, 1], [1, 1], 1.0, 2) == pytest.approx(
            1.0 / 3.0, rel=1e-15
        )
        assert theta_nonconvex([1.0], [1.0], [1.0], 1.0, 1) == pytest.approx(0.5)
        assert theta_nonconvex([1.0], [1.0], [10.0], 1.0, 1) == pytest.approx(1 / 101)

    def test_serial_uniform_condition_number_form(self):
        # 1/theta = n + max_i l_i |A_i|^2 / lam for uniform serial sampling
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            norms = rng.uniform(0.1, 3.0, n)
            l = rng.uniform(0.05, 2.0, n)
            lam = float(rng.uniform(0.01, 5.0))
            th = theta_convex(np.full(n, 1 / n), norms**2, l, lam, n)
            expected = n + np.max(l * norms**2) / lam
            assert 1.0 / th == pytest.approx(expected, rel=1e-14)

    def test_large_lambda_limit(self):
        p = np.array([0.2, 0.8])
        th = theta_convex(p, [3.0, 1.0], [2.0, 2.0], 1e12, 2)
        assert th == pytest.approx(0.2, rel=1e-9)
        th = theta_nonconvex(p, [3.0, 1.0], [2.0, 2.0], 1e6, 2)
        assert th == pytest.approx(0.2, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theta_convex([0.5, 0.5], [1, 1], [1, -1], 1.0, 2)


class TestInitState:
    def test_zero_start(self):
        st = init_state(ridge_problem())
        assert np.array_equal(st.w, [0.0]) and np.array_equal(st.alpha, [0.0, 0.0])
        assert st.t == 0

    def test_single_example_identity(self):
        lam = 0.7
        ds = from_rows([([0], [1.0])], [0.0], 3)
        prob = make_problem(ds, squared_loss(ds.labels), lam)
        st = init_state(prob, [lam])
        assert np.allclose(st.w, [1.0, 0.0, 0.0], atol=1e-15)

    def test_relation_exact_at_start(self):
        prob = logistic_problem()
        rng = np.random.default_rng(0)
        st = init_state(prob, rng.standard_normal(prob.dataset.n))
        assert relation_residual(prob, st) == 0.0

    def test_bad_length(self):
        with pytest.raises(ValueError):
            init_state(ridge_problem(), [1.0, 2.0, 3.0])


class TestResync:
    def test_returns_the_drift_it_clears(self):
        prob = logistic_problem()
        rng = np.random.default_rng(1)
        st = init_state(prob, rng.standard_normal(prob.dataset.n))
        st.w = st.w + 1e-3 * rng.standard_normal(prob.dataset.d)
        drifted = st.w.copy()
        drift = relation_residual(prob, st)
        assert np.array_equal(st.w, drifted)  # measuring leaves w alone
        assert drift > 0.0 and resync(prob, st) == drift
        assert np.array_equal(st.w, w_of(prob, st.alpha))
        assert relation_residual(prob, st) == 0.0

    def test_problem_derives_its_smoothness(self):
        prob = logistic_problem()
        want = smoothness_constants(prob.loss, prob.dataset)
        got = ProblemSpec(prob.dataset, prob.loss, prob.lam).smoothness
        assert np.array_equal(got.l, want.l) and np.array_equal(got.L_per, want.L_per)
        assert got.L == want.L


class TestStep:
    def test_fixed_point_exact(self):
        from dfsdca.diagnostics import reference_solution

        prob = logistic_problem()
        ref = reference_solution(prob)
        sc = serial_uniform(prob.dataset.norms)
        st = SolverState(ref.w.copy(), ref.alpha.copy())
        rng = np.random.default_rng(4)
        for _ in range(10):
            step(prob, st, sc.draw(rng), sc.p, 0.02)
        assert np.array_equal(st.w, ref.w)
        assert np.array_equal(st.alpha, ref.alpha)

    def test_single_step_from_zero(self):
        prob = logistic_problem(n=5, d=4, seed=9)
        sc = serial_uniform(prob.dataset.norms)
        theta = 0.1
        i = 2
        st = init_state(prob)
        step(prob, st, np.array([i]), sc.p, theta)
        g0 = prob.loss.gradient(i, 0.0)
        expect_alpha = -theta / sc.p[i] * g0
        assert st.alpha[i] == pytest.approx(expect_alpha, rel=1e-15)
        idx, val = row(prob.dataset, i)
        expect_w = np.zeros(prob.dataset.d)
        expect_w[idx] = -theta / (5 * prob.lam * sc.p[i]) * g0 * val
        assert np.allclose(st.w, expect_w, rtol=1e-15, atol=0)
        assert st.t == 1 and st.grad_evals == 1

    def test_overshoot_guard(self):
        prob = logistic_problem(n=4)
        sc = serial_uniform(prob.dataset.norms)  # p_i = 1/4
        st = init_state(prob)
        with pytest.raises(ValueError, match="exceeds p"):
            step(prob, st, np.array([0]), sc.p, 0.3)


class TestRun:
    def test_ridge_converges_to_closed_form(self):
        prob = ridge_problem()
        sc = serial_uniform(prob.dataset.norms)
        theta = resolve_theta(prob, sc, "auto-convex")
        assert theta == pytest.approx(1.0 / 3.0, rel=1e-15)
        st, _ = run(prob, sc, SolverConfig(theta=theta, epochs=100, seed=0))
        assert abs(st.w[0] - 1.0) <= 1e-6

    @pytest.mark.parametrize("scheme", ["serial-uniform", "nice", "chunked"])
    def test_bitwise_deterministic(self, scheme):
        prob = logistic_problem()
        norms = prob.dataset.norms
        sc = {
            "serial-uniform": lambda: serial_uniform(norms),
            "nice": lambda: tau_nice(norms, 4),
            "chunked": lambda: chunked_sampling(
                norms, naive_chunks(prob.dataset.nnz.tolist()), 3),
        }[scheme]()
        # one instance serves both runs
        sa, a = run(prob, sc, SolverConfig(epochs=5, seed=11))
        sb, b = run(prob, sc, SolverConfig(epochs=5, seed=11))
        assert np.array_equal(sa.w, sb.w) and np.array_equal(sa.alpha, sb.alpha)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.t, ra.epoch, ra.primal, ra.residual) == (
                rb.t, rb.epoch, rb.primal, rb.residual
            )

    def test_relation_residual_bounded(self):
        prob = logistic_problem(n=40, lam=0.05)
        for sc in (serial_uniform(prob.dataset.norms), tau_nice(prob.dataset.norms, 5)):
            _, tr = run(prob, sc, SolverConfig(epochs=10, seed=2))
            assert all(r.residual <= 1e-8 for r in tr.records)

    def test_resync_records_carry_the_drift_cleared(self):
        # a serial run's epochs end on its resyncs, every n iterations; the
        # residual there is the drift of the w that the resync replaced
        prob = logistic_problem(n=40, lam=0.05)
        _, tr = run(prob, serial_uniform(prob.dataset.norms),
                    SolverConfig(epochs=10, seed=2))
        at_resync = [r.residual for r in tr.records if r.t > 0]
        assert [r.t for r in tr.records] == list(range(0, 401, 40))
        assert all(0.0 < r <= 1e-8 for r in at_resync)

    def test_one_combine_per_checkpoint(self, monkeypatch):
        # init_state, the residual at t = 0, then one resync per epoch; a
        # checkpoint on a resync reuses that resync's combine
        prob = logistic_problem(n=40, lam=0.05)
        calls = []
        combine = Dataset.combine
        monkeypatch.setattr(Dataset, "combine",
                            lambda ds, a: calls.append(1) or combine(ds, a))
        run(prob, serial_uniform(prob.dataset.norms), SolverConfig(epochs=10, seed=2))
        assert len(calls) == 12

    @pytest.mark.parametrize("scheme", ["nice", "chunked"])
    def test_shorter_run_trace_is_prefix(self, scheme):
        # checkpoints fall where runs of 1, 2, ... epochs end, also when
        # n / E|S| is fractional, so a 3-epoch run's trace, its last record
        # included, is the first 4 records of a 7-epoch run's
        prob = logistic_problem(n=30)
        norms = prob.dataset.norms
        sc = tau_nice(norms, 4) if scheme == "nice" else chunked_sampling(
            norms, naive_chunks(prob.dataset.nnz.tolist()), 4)
        assert prob.dataset.n / sc.expected_size == 7.5
        _, short = run(prob, sc, SolverConfig(epochs=3, seed=5))
        _, long = run(prob, sc, SolverConfig(epochs=7, seed=5))
        assert len(short.records) == 4 and len(long.records) == 8
        assert short.records == long.records[:4]

    def test_epoch_accounting(self):
        prob = logistic_problem(n=30)
        st, tr = run(prob, serial_uniform(prob.dataset.norms),
                     SolverConfig(epochs=3, seed=0))
        assert st.grad_evals == 3 * 30
        assert tr.records[-1].epoch == pytest.approx(3.0)
        st, tr = run(prob, tau_nice(prob.dataset.norms, 5),
                     SolverConfig(epochs=3, seed=0))
        assert st.grad_evals == 3 * 30
        assert tr.records[-1].epoch == pytest.approx(3.0)

    def test_epochs_use_exact_expected_size(self):
        # the float sum of 200 uniform marginals is 0.9999999999999998, which
        # made a 2-epoch run take 401 iterations and record off the resyncs
        prob = logistic_problem(n=200, d=10)
        sc = serial_uniform(prob.dataset.norms)
        assert float(np.sum(sc.p)) < sc.expected_size == 1.0
        st, tr = run(prob, sc, SolverConfig(epochs=2, seed=0))
        assert st.t == 400 and [r.t for r in tr.records] == [0, 200, 400]

    def test_divergence_guard(self):
        # concave composed loss: the average-convexity precondition fails
        ds = from_rows([([0], [1.0])] * 2, np.zeros(2), 1)
        loss = quadratic_family([-5.0, -5.0], [1.0, -2.0])
        prob = make_problem(ds, loss, 0.1)
        sc = serial_uniform(ds.norms)
        with pytest.raises(DivergenceError, match="at iteration"):
            run(prob, sc, SolverConfig(theta="auto-convex", epochs=400, seed=0))

    @staticmethod
    def _mean_potential_nonincreasing(prob, theta, column, seeds=20, epochs=5):
        from dfsdca.diagnostics import reference_solution

        ref = reference_solution(prob)
        vals = []
        for seed in range(seeds):
            _, tr = run(prob, serial_uniform(prob.dataset.norms),
                        SolverConfig(theta=theta, epochs=epochs, seed=seed),
                        reference=ref)
            vals.append(tr.column(column))
        diffs = np.diff(np.vstack(vals), axis=1)  # paired, per checkpoint
        mean = diffs.mean(axis=0)
        stderr = diffs.std(axis=0, ddof=1) / np.sqrt(seeds)
        assert np.all(mean <= 2.0 * stderr)

    def test_monotone_expected_potential_convex(self):
        prob = logistic_problem(n=30, d=8, lam=0.2, seed=5)
        self._mean_potential_nonincreasing(prob, "auto-convex", "E")

    def test_monotone_expected_potential_nonconvex(self):
        from dfsdca.losses import build_nonconvex_instance

        ds, loss = build_nonconvex_instance(30, 6, 8)
        prob = make_problem(ds, loss, 1.0)
        self._mean_potential_nonincreasing(prob, "auto-nonconvex", "D")


class TestGradientIdentity:
    def test_aggregate_equals_full_gradient(self):
        # at any state tied by the w/alpha relation,
        # (1/n) sum A_i (alpha_i + phi_i'(A_i^T w)) recovers grad P(w)
        prob = logistic_problem(n=25, d=7, seed=6)
        rng = np.random.default_rng(14)
        ds = prob.dataset
        for _ in range(50):
            st = init_state(prob, rng.standard_normal(ds.n))
            margins = ds.margins(st.w)
            g = prob.loss.gradients(np.arange(ds.n), margins)
            agg = ds.combine(st.alpha + g) / ds.n
            assert np.linalg.norm(agg - primal_gradient(prob, st.w)) <= 1e-10


class TestPrimal:
    def test_logistic_at_zero(self):
        prob = logistic_problem()
        assert primal_value(prob, np.zeros(prob.dataset.d)) == pytest.approx(
            np.log(2.0), rel=1e-15
        )

    def test_gradient_matches_finite_differences(self):
        prob = logistic_problem(n=12, d=5, seed=7)
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = rng.standard_normal(5)
            g = primal_gradient(prob, w)
            for j in range(5):
                e = np.zeros(5)
                e[j] = 1e-6
                fdg = (primal_value(prob, w + e) - primal_value(prob, w - e)) / 2e-6
                assert abs(g[j] - fdg) <= 1e-5 * (1.0 + abs(g[j]))


class TestConfigAndState:
    def test_explicit_theta_validated(self):
        prob = logistic_problem(n=10)
        sc = serial_uniform(prob.dataset.norms)
        with pytest.raises(ValueError, match="min p"):
            resolve_theta(prob, sc, 0.5)
        with pytest.raises(ValueError):
            resolve_theta(prob, sc, 0.0)
        assert resolve_theta(prob, sc, 0.05) == 0.05

    def test_auto_nonconvex_resolves(self):
        from dfsdca.losses import build_nonconvex_instance

        ds, loss = build_nonconvex_instance(10, 3, 1)
        prob = make_problem(ds, loss, 1.0)
        sc = serial_uniform(ds.norms)
        th = resolve_theta(prob, sc, "auto-nonconvex")
        assert 0 < th < np.min(sc.p)

    def test_epochs_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(epochs=0)
