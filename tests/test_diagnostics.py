import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

import dfsdca._kernel as _kernel
import dfsdca.diagnostics as diagnostics
from dfsdca.dataset import gen_synthetic
from dfsdca.diagnostics import (
    ALL_SUITES,
    ReferenceError,
    convergence_report,
    decay_envelope,
    iterations_to_target,
    potentials,
    random_relation_state,
    reference_solution,
    run_suites,
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
    chunked_sampling,
    naive_chunks,
    serial_uniform,
    serial_weighted,
    tau_nice,
)
from dfsdca.solver import (
    PrimalPoint,
    SolverConfig,
    SolverState,
    Trace,
    TraceRecord,
    make_problem,
    primal_gradient,
    primal_value,
    run,
    theta_convex,
)

from curvature import average_curvature_matrix
from csr_rows import from_rows, row
from newton import agrees_with_numpy, record_newton


def ridge_problem():
    ds = from_rows([([0], [1.0])] * 2, [1.0, 3.0], 1)
    return make_problem(ds, squared_loss(ds.labels), 1.0)


def logistic_problem(n=6, d=4, lam=0.8, seed=11):
    ds = gen_synthetic(n, d, 0.9, "linear-sign", seed)
    return make_problem(ds, logistic_loss(ds.labels), lam)


def dense_newton(prob):
    """Undamped Newton on the dense Hessian average_curvature_matrix + lam I:
    the d x d solve that the matrix-free oracle replaced, kept as a
    reference for small problems. On quadratics the first step is the
    exact solve and the rest refine it."""
    ds, w = prob.dataset, np.zeros(prob.dataset.d)
    for _ in range(30):
        at = PrimalPoint(prob, w)
        H = average_curvature_matrix(ds, prob.loss.curvatures(None, at.margins))
        w = w - np.linalg.solve(H + prob.lam * np.eye(ds.d), at.gradient)
    return w, primal_value(prob, w)


def dense_case(kind):
    if kind == "squared":
        ds = gen_synthetic(30, 6, 0.5, "linear-noise", 1)
        return make_problem(ds, squared_loss(ds.labels), 0.1)
    if kind == "logistic":
        return logistic_problem(n=40, d=8, lam=0.05, seed=3)
    ds, loss = build_nonconvex_instance(9, 4, 3)
    assert np.any(loss.c < 0)
    return make_problem(ds, loss, 0.1)


class TestReferenceSolution:
    def test_ridge_closed_form(self):
        ref = reference_solution(ridge_problem())
        assert abs(ref.w[0] - 1.0) <= 1e-10

    def test_optimality_identity(self):
        for prob in (ridge_problem(), logistic_problem()):
            ref = reference_solution(prob)
            recovered = prob.dataset.combine(ref.alpha) / (prob.lam * prob.dataset.n)
            assert np.linalg.norm(ref.w - recovered) <= 1e-10
            tol = 1e-12 * (1.0 + abs(primal_value(prob, np.zeros(prob.dataset.d))))
            assert ref.grad_norm <= tol

    def test_agrees_with_lbfgs(self):
        # an independent optimizer: quasi-Newton with the analytic gradient
        prob = logistic_problem(n=40, d=8, lam=0.05, seed=3)
        ref = reference_solution(prob)
        res = minimize(
            lambda w: primal_value(prob, w), np.zeros(prob.dataset.d),
            jac=lambda w: primal_gradient(prob, w), method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 0.0},
        )
        assert np.linalg.norm(res.x - ref.w) <= 1e-6

    def test_line_search_halves_and_agrees_with_bfgs(self, monkeypatch):
        # the full Newton step from w = 0 overshoots here, so the Armijo
        # test rejects it once: the compiled call evaluates P at the start,
        # at each accepted point and at each rejected trial point
        ds = from_rows([([0, 1], [3.44, 2.425]), ([0, 1], [4.036, 3.362])],
                       [1.0, -1.0], 2)
        prob = make_problem(ds, logistic_loss(ds.labels), 1e-3)
        calls = record_newton(monkeypatch)
        ref = reference_solution(prob)
        (_, _, run, _), = calls
        # the start, one accepted point per CG solve, and the halvings
        assert run.status == _kernel.OK
        assert run.points > run.solves + 1
        res = minimize(
            lambda w: primal_value(prob, w), np.zeros(ds.d),
            jac=lambda w: primal_gradient(prob, w), method="BFGS",
            options={"gtol": 1e-12},
        )
        assert np.max(np.abs(res.x - ref.w)) <= 1e-7
        assert abs(ref.P_star - res.fun) <= 4 * np.spacing(ref.P_star)

    def test_unreachable_tolerance_reports_progress(self):
        with pytest.raises(ReferenceError) as info:
            reference_solution(logistic_problem(), tol=1e-30)
        assert info.value.grad_norm > 0
        assert re.fullmatch(
            r"Newton iteration \d+: no smaller gradient norm in 3 iterations, so "
            rf"the oracle stopped at \|\|grad\|\| = {info.value.grad_norm:.3e} "
            r"> tol = 1\.000e-30", str(info.value))

    @pytest.mark.parametrize("cap, value, reason", [
        ("_MAX_HALVINGS", 0, "the line search found no decrease in 0 halvings"),
        ("_MAX_NEWTON", 1, "reached the cap of 1 iterations"),
    ])
    def test_give_up_names_iteration_and_reason(self, monkeypatch, cap, value,
                                                reason):
        monkeypatch.setattr(diagnostics, cap, value)
        with pytest.raises(ReferenceError) as info:
            reference_solution(logistic_problem())
        assert str(info.value).startswith(
            f"Newton iteration 1: {reason}, so the oracle stopped at ||grad|| = ")

    @pytest.mark.parametrize("lam", [1e-8, 1e-9])
    def test_small_lam_keeps_best_iterate(self, lam):
        # the lam * 1e-11 cap lies below the float resolution of grad P
        # here, so the norm stalls above it while meeting the default tol
        ds = gen_synthetic(1000, 100, 0.1, "linear-sign", 0)
        prob = make_problem(ds, logistic_loss(ds.labels), lam)
        ref = reference_solution(prob)
        tol = 1e-12 * (1.0 + abs(primal_value(prob, np.zeros(ds.d))))
        assert lam * 1e-11 < ref.grad_norm <= tol
        assert ref.grad_norm == np.linalg.norm(primal_gradient(prob, ref.w))
        assert ref.P_star == primal_value(prob, ref.w)
        explicit = reference_solution(prob, tol=ref.grad_norm)
        assert np.array_equal(explicit.w, ref.w)
        with pytest.raises(ReferenceError) as info:
            reference_solution(prob, tol=0.5 * ref.grad_norm)
        assert info.value.grad_norm == ref.grad_norm

    def test_unbounded_objective_raises(self):
        # curvature -1 outweighs lam = 0.5, so P has no minimum and no step
        # along the Newton direction decreases it
        ds = from_rows([([0], [1.0])], [0.0], 1)
        prob = make_problem(ds, quadratic_family([-1.0], [1.0]), 0.5)
        with pytest.raises(ReferenceError) as info:
            reference_solution(prob)
        assert "Newton iteration 1: p^T H p = -5.000e-01" in str(info.value)
        # H = [[0.5, 1], [1, 0.5]] has a positive diagonal, so CG starts,
        # and its second direction (-8, 4) has p^T H p = -24
        ds = from_rows([([0, 1], [1.0, 1.0]), ([0, 1], [1.0, -1.0])], [0.0, 0.0], 2)
        prob = make_problem(ds, quadratic_family([1.0, -1.0], [1.0, 1.0]), 0.5)
        with pytest.raises(ReferenceError) as info:
            reference_solution(prob)
        assert "Newton iteration 1: p^T H p = -2.400e+01 <= 0 at CG iteration 2" \
            in str(info.value)

    def test_cg_cap_raises(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_CG_PER_DIM", 0)
        monkeypatch.setattr(diagnostics, "_CG_EXTRA", 1)
        with pytest.raises(ReferenceError) as info:
            reference_solution(logistic_problem())
        msg = str(info.value)
        assert "Newton iteration 1: CG hit its cap of 1 iterations" in msg
        assert "at residual ||H delta + grad|| = " in msg

    @pytest.mark.parametrize("kind", ["squared", "logistic", "quadfam"])
    def test_reports_its_point_bitwise(self, kind, monkeypatch):
        # the compiled loop keeps the bits of the numpy loop, and P_star,
        # alpha and grad_norm are PrimalPoint's at the w it returns
        prob = dense_case(kind)
        calls = record_newton(monkeypatch)
        ref = reference_solution(prob)
        assert len(calls) == 1 and agrees_with_numpy(prob, calls[0])
        assert ref.P_star == primal_value(prob, ref.w)
        assert ref.grad_norm == np.linalg.norm(primal_gradient(prob, ref.w))
        assert np.array_equal(ref.alpha, PrimalPoint(prob, ref.w).alpha)

    @pytest.mark.parametrize("case", ["tol", "halvings", "newton-cap", "concave", "cg-cap"])
    def test_every_outcome_keeps_the_numpy_bits(self, case, monkeypatch):
        # each way the loop can end, against the numpy loop: the report,
        # the best iterate it leaves and so the message's numbers
        prob, tol = logistic_problem(), None
        if case == "tol":
            tol = 1e-30
        elif case == "halvings":
            monkeypatch.setattr(diagnostics, "_MAX_HALVINGS", 0)
        elif case == "newton-cap":
            monkeypatch.setattr(diagnostics, "_MAX_NEWTON", 2)
        elif case == "concave":
            ds = from_rows([([0, 1], [1.0, 1.0]), ([0, 1], [1.0, -1.0])], [0.0, 0.0], 2)
            prob = make_problem(ds, quadratic_family([1.0, -1.0], [1.0, 1.0]), 0.5)
        else:
            monkeypatch.setattr(diagnostics, "_CG_PER_DIM", 0)
            monkeypatch.setattr(diagnostics, "_CG_EXTRA", 2)
        calls = record_newton(monkeypatch)
        with pytest.raises(ReferenceError) as info:
            reference_solution(prob, tol=tol)
        assert len(calls) == 1 and agrees_with_numpy(prob, calls[0])
        w = calls[0][3]
        assert info.value.grad_norm == np.linalg.norm(primal_gradient(prob, w))

    def test_validate_problems_keep_the_numpy_bits(self, monkeypatch):
        # the validate suites' trial problems, of 3-6 rows and 2-5 columns
        rng = np.random.default_rng(7)
        problems = [diagnostics._small_problem(rng, kind) for _ in range(10)
                    for kind in ("logistic", "squared", "quadfam")]
        calls = record_newton(monkeypatch)
        for prob in problems:
            reference_solution(prob)
        assert all(agrees_with_numpy(prob, call) for prob, call in zip(problems, calls))

    @pytest.mark.parametrize("kind", ["squared", "logistic", "quadfam"])
    def test_agrees_with_dense_newton(self, kind):
        prob = dense_case(kind)
        ref = reference_solution(prob)
        w, P = dense_newton(prob)
        assert abs(ref.P_star - P) <= 1e-14 * (1.0 + abs(P))
        assert np.max(np.abs(ref.w - w)) <= 1e-10

    def test_large_d_without_dense_hessian(self):
        # a d x d Hessian would take 20 GB here
        ds = gen_synthetic(2000, 50000, 0.001, "linear-noise", 0)
        prob = make_problem(ds, squared_loss(ds.labels), 1.0 / ds.n)
        tracemalloc.start()
        try:
            ref = reference_solution(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tol = 1e-12 * (1.0 + abs(primal_value(prob, np.zeros(ds.d))))
        assert ref.grad_norm <= min(tol, prob.lam * 1e-11)
        assert peak < 32 * 2**20

    def test_deterministic(self):
        a = reference_solution(logistic_problem())
        b = reference_solution(logistic_problem())
        assert np.array_equal(a.w, b.w) and a.P_star == b.P_star

    def test_json_round_trip(self):
        from dfsdca.diagnostics import ReferenceSolution

        ref = reference_solution(ridge_problem())
        back = ReferenceSolution.from_json(ref.to_json())
        assert np.array_equal(back.w, ref.w)
        assert np.array_equal(back.alpha, ref.alpha)
        assert back.P_star == ref.P_star


class TestPotentials:
    def test_zero_at_reference(self):
        prob = logistic_problem()
        ref = reference_solution(prob)
        st = SolverState(ref.w.copy(), ref.alpha.copy())
        pot = potentials(st, ref, prob.smoothness, prob.lam)
        assert pot.B == 0.0 and pot.D == 0.0 and pot.E == 0.0
        assert np.all(pot.C == 0.0)

    def test_unit_offsets_hand_value(self):
        # n=1, lam=1, l=1, L=1, w-w* = 1, alpha-alpha* = 1:
        # B=1, C=[1], D = 1/2 + 1/2 = 1, E = 1
        ds = from_rows([([0], [1.0])], [0.5], 1)
        prob = make_problem(ds, squared_loss(ds.labels), 1.0)
        ref = reference_solution(prob)
        st = SolverState(ref.w + 1.0, ref.alpha + 1.0)
        pot = potentials(st, ref, prob.smoothness, prob.lam)
        assert pot.B == pytest.approx(1.0, abs=1e-12)
        assert pot.C[0] == pytest.approx(1.0, abs=1e-12)
        assert pot.D == pytest.approx(1.0, abs=1e-12)
        assert pot.E == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity_in_dual_offsets(self):
        prob = logistic_problem()
        ref = reference_solution(prob)
        st1 = SolverState(ref.w.copy(), ref.alpha + 1.0)
        st2 = SolverState(ref.w.copy(), ref.alpha + 2.0)
        p1 = potentials(st1, ref, prob.smoothness, prob.lam)
        p2 = potentials(st2, ref, prob.smoothness, prob.lam)
        assert p2.B == p1.B == 0.0
        assert np.allclose(p2.C, 4.0 * p1.C, rtol=1e-12)
        assert p2.E == pytest.approx(4.0 * p1.E, rel=1e-12)


class TestEnvelope:
    def test_at_zero(self):
        assert decay_envelope(2.5, 0.3, 0) == 2.5

    def test_hand_value(self):
        assert decay_envelope(2.0, 1 / 3, 3) == pytest.approx(2.0 / math.e, rel=1e-15)

    def test_validation(self):
        assert decay_envelope(2.0, 1.0, 3) == pytest.approx(2.0 * math.exp(-3.0), rel=1e-15)
        with pytest.raises(ValueError):
            decay_envelope(1.0, 1.5, 2)
        with pytest.raises(ValueError):
            decay_envelope(1.0, 0.5, -1)

    def test_iteration_bound_bridges_to_suboptimality(self):
        # at T = rate * log((L+lam) X0 / (lam eps)) the envelope value maps
        # through P - P* <= (L+lam)/lam * potential to exactly eps
        theta, L, lam, X0, eps = 0.02, 1.3, 0.4, 5.0, 1e-8
        T = iterations_to_target(1.0 / theta, L, lam, X0, eps)
        env = decay_envelope(X0, theta, T)
        assert env * (L + lam) / lam == pytest.approx(eps, rel=1e-10)

    def test_suboptimality_bridge(self):
        prob = logistic_problem(n=10, d=5)
        ref = reference_solution(prob)
        rng = np.random.default_rng(3)
        L = prob.smoothness.L
        for _ in range(50):
            w = ref.w + rng.standard_normal(prob.dataset.d)
            B = float(np.sum((w - ref.w) ** 2))
            subopt = primal_value(prob, w) - ref.P_star
            assert subopt <= (L + prob.lam) / 2.0 * B + 1e-12


class TestLemma1:
    def test_both_sides_zero_at_optimum(self):
        prob = logistic_problem()
        ref = reference_solution(prob)
        st = SolverState(ref.w.copy(), ref.alpha.copy())
        sc = serial_uniform(prob.dataset.norms)
        eq, slack = verify_lemma1(prob, st, 0.1, sc, ref)
        assert eq <= 1e-15
        assert abs(slack) <= 1e-15

    def test_dual_identity_serial(self):
        prob = logistic_problem(n=3, d=3, seed=5)
        ref = reference_solution(prob)
        rng = np.random.default_rng(0)
        sc = serial_uniform(prob.dataset.norms)
        for _ in range(25):
            st = random_relation_state(prob, rng)
            assert verify_lemma1(prob, st, 0.1, sc, ref)[0] <= 1e-10

    def test_dual_identity_tau_nice(self):
        prob = logistic_problem(n=4, d=3, seed=6)
        ref = reference_solution(prob)
        rng = np.random.default_rng(1)
        sc = tau_nice(prob.dataset.norms, 2)  # 6 atoms
        for _ in range(25):
            st = random_relation_state(prob, rng)
            theta = float(rng.uniform(0.1, 1.0) * np.min(sc.p))
            assert verify_lemma1(prob, st, theta, sc, ref)[0] <= 1e-10

    def test_primal_bound_serial_is_tight(self):
        # singleton schemes make the overapproximation an equality, so the
        # slack collapses to rounding noise
        ds = from_rows([([0], [1.0])] * 3, [1.0, -1.0, 1.0], 1)
        prob = make_problem(ds, logistic_loss(ds.labels), 1.0)
        ref = reference_solution(prob)
        rng = np.random.default_rng(2)
        sc = serial_uniform(ds.norms)
        for _ in range(20):
            st = random_relation_state(prob, rng)
            slack = verify_lemma1(prob, st, 0.2, sc, ref)[1]
            assert -1e-10 <= slack <= 1e-10

    def test_primal_bound_random_trials(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            prob = logistic_problem(n=4, d=3, seed=seed)
            ref = reference_solution(prob)
            part = naive_chunks(prob.dataset.nnz.tolist())
            schemes = [
                serial_uniform(prob.dataset.norms),
                tau_nice(prob.dataset.norms, 2),
                chunked_sampling(prob.dataset.norms, part, min(2, part.k)),
            ]
            for sc in schemes:
                for _ in range(4):
                    st = random_relation_state(prob, rng)
                    theta = float(rng.uniform(0.1, 1.0) * np.min(sc.p))
                    assert verify_lemma1(prob, st, theta, sc, ref)[1] >= -1e-10

    #: (seed, eq_discrepancy, slack) recorded from the two separate checks
    #: that verify_lemma1 replaced, each of which enumerated the support
    @pytest.mark.parametrize("seed, eq, slack", [
        (0, "0x1.2000000000000p-55", "0x1.e000000000000p-56"),  # serial-weighted
        (1, "0x1.0000000000000p-49", "0x1.487429eff05aep+3"),  # chunked:4
        (3, "0x1.0000000000000p-54", "-0x1.0000000000000p-57"),  # serial-uniform
        (4, "0x1.0000000000000p-52", "0x1.4cf7959420238p-2"),  # nice:5
        (8, "0x1.0000000000000p-54", "0x1.3138280f046c8p+1"),  # chunked:3
    ])
    def test_one_pass_keeps_both_values_bitwise(self, seed, eq, slack):
        rng = np.random.default_rng(seed)
        kind = ("logistic", "squared")[seed % 2]
        prob, sc, ref, st = diagnostics._relation_trial(rng, kind)
        theta = float(rng.uniform(0.1, 1.0) * np.min(sc.p))
        got = verify_lemma1(prob, st, theta, sc, ref)
        assert got == (float.fromhex(eq), float.fromhex(slack))

    def test_suite_steps_each_atom_once(self, monkeypatch):
        real_steps, real_verify = _kernel.steps, diagnostics.verify_lemma1
        calls, atoms = [], []

        def counting_steps(*args):
            calls.append(None)
            return real_steps(*args)

        def counting_verify(problem, state, theta, scheme, ref):
            atoms.append(scheme.atoms()[2].size)
            return real_verify(problem, state, theta, scheme, ref)

        monkeypatch.setattr(_kernel, "steps", counting_steps)
        monkeypatch.setattr(diagnostics, "verify_lemma1", counting_verify)
        assert diagnostics.suite_lemma1(0)["pass"]
        assert len(atoms) == diagnostics._TRIALS["lemma1"]
        assert len(calls) == sum(atoms) == 179


class TestLemma2:
    def test_zero_at_optimum(self):
        prob = logistic_problem()
        ref = reference_solution(prob)
        assert abs(verify_lemma2(prob, ref.w, ref)) <= 1e-12

    def test_quadratic_equality(self):
        ds = gen_synthetic(8, 4, 0.9, "linear-noise", 9)
        prob = make_problem(ds, squared_loss(ds.labels), 1.0)
        ref = reference_solution(prob)
        rng = np.random.default_rng(4)
        for _ in range(30):
            w = rng.standard_normal(4)
            assert abs(verify_lemma2(prob, w, ref)) <= 1e-10

    def test_logistic_random_trials(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            prob = logistic_problem(n=8, d=4, seed=seed)
            ref = reference_solution(prob)
            for _ in range(20):
                w = rng.standard_normal(4) * 2.0
                assert verify_lemma2(prob, w, ref) >= -1e-10

    def test_requires_convex_losses(self):
        ds, loss = build_nonconvex_instance(4, 2, 0)
        prob = make_problem(ds, loss, 1.0)
        ref = reference_solution(prob)
        with pytest.raises(ValueError, match="convex"):
            verify_lemma2(prob, np.zeros(2), ref)


class TestContraction:
    def test_convex_potential(self):
        rng = np.random.default_rng(6)
        for seed in range(6):
            prob = logistic_problem(n=5, d=4, seed=seed)
            ref = reference_solution(prob)
            schemes = [
                serial_uniform(prob.dataset.norms),
                serial_weighted(
                    prob.dataset.norms,
                    np.array([0.4, 0.2, 0.2, 0.1, 0.1]),
                ),
                tau_nice(prob.dataset.norms, 2),
            ]
            for sc in schemes:
                for _ in range(3):
                    st = random_relation_state(prob, rng)
                    assert verify_contraction(prob, st, sc, ref, "E") >= -1e-10

    def test_nonconvex_potential(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            ds, loss = build_nonconvex_instance(5, 3, seed)
            prob = make_problem(ds, loss, 1.0)
            ref = reference_solution(prob)
            sc = tau_nice(ds.norms, 2)
            for _ in range(3):
                st = random_relation_state(prob, rng)
                assert verify_contraction(prob, st, sc, ref, "D") >= -1e-10

    def test_label_only_row_D_potential(self):
        # L_i = 0 for the empty row: D stays finite and still contracts
        rng = np.random.default_rng(12)
        for seed in range(4):
            base = gen_synthetic(5, 4, 0.5, "linear-sign", seed)
            rows = [row(base, i) for i in range(5)]
            rows.insert(seed, ([], []))
            ds = from_rows(rows, np.insert(base.labels, seed, 1.0), 4)
            for loss in (logistic_loss, squared_loss):
                prob = make_problem(ds, loss(ds.labels), 0.5)
                ref = reference_solution(prob)
                part = naive_chunks(ds.nnz.tolist())
                for sc in (serial_uniform(ds.norms), tau_nice(ds.norms, 2),
                           tau_nice(ds.norms, 6), chunked_sampling(ds.norms, part, 1)):
                    st = random_relation_state(prob, rng)
                    assert np.isfinite(potentials(st, ref, prob.smoothness, 0.5).D)
                    assert verify_contraction(prob, st, sc, ref, "D") >= -1e-10

    def test_convex_guard(self):
        ds, loss = build_nonconvex_instance(4, 2, 3)
        prob = make_problem(ds, loss, 1.0)
        ref = reference_solution(prob)
        st = random_relation_state(prob, np.random.default_rng(0))
        with pytest.raises(ValueError, match="convex"):
            verify_contraction(prob, st, serial_uniform(ds.norms), ref, "E")


def _fake_trace(theta, ts, values, subopts=None):
    records = []
    for j, t in enumerate(ts):
        records.append(TraceRecord(
            t=int(t), epoch=float(t), primal=0.0, residual=0.0,
            subopt=None if subopts is None else float(subopts[j]),
            B=0.0, D=float(values[j]), E=float(values[j]),
        ))
    return Trace(theta=theta, expected_size=1.0, records=records)


class TestConvergenceReport:
    def test_on_theory_trace_passes(self):
        theta = 0.1
        ts = np.arange(0, 50, 10)
        vals = 2.0 * np.exp(-theta * ts) * 0.95
        traces = [_fake_trace(theta, ts, vals) for _ in range(3)]
        rep = convergence_report(traces, theta, potential="E")
        assert rep.all_passed

    def test_violation_flagged_at_right_checkpoint(self):
        theta = 0.1
        ts = np.arange(0, 50, 10)
        vals = 2.0 * np.exp(-theta * ts) * 0.95
        bad = vals.copy()
        bad[3] *= 10.0
        traces = [_fake_trace(theta, ts, bad) for _ in range(3)]
        rep = convergence_report(traces, theta, potential="E")
        assert not rep.all_passed
        assert [r.passed for r in rep.rows] == [True, True, True, False, True]

    def test_nan_mean_fails_its_checkpoint(self):
        # a NaN mean compares False both ways; a mean of 0 passes
        theta = 0.1
        traces = [_fake_trace(theta, [0, 1, 2, 3], [1.0, math.nan, 0.1, 0.0])
                  for _ in range(2)]
        rep = convergence_report(traces, theta, potential="E")
        assert [r.passed for r in rep.rows] == [True, False, True, True]
        assert not rep.all_passed

    def test_ridge_first_passage_within_theory(self):
        prob = ridge_problem()
        theta = theta_convex([0.5, 0.5], prob.dataset.norms**2,
                             prob.smoothness.l, 1.0, 2)
        ref = reference_solution(prob)
        traces = []
        for seed in range(5):
            sc = serial_uniform(prob.dataset.norms)
            cfg = SolverConfig(theta=theta, epochs=50, seed=seed)
            traces.append(run(prob, sc, cfg, reference=ref)[1])
        eps = 1e-6
        rep = convergence_report(
            traces, theta, potential="E",
            L=prob.smoothness.L, lam=prob.lam, eps=eps,
        )
        assert rep.all_passed
        assert not math.isnan(rep.first_passage_t)
        assert rep.first_passage_t <= rep.theory_T

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            convergence_report([_fake_trace(0.1, [0, 1], [1.0, 0.5])], 0.1)


def _nan_like(value, part):
    if part:  # one of the values of verify_lemma1's pair
        return tuple(math.nan if k == int(part) else v for k, v in enumerate(value))
    if isinstance(value, np.ndarray):
        return np.full_like(value, math.nan)
    return math.nan


class TestSuites:
    @pytest.mark.parametrize("suite, target", [
        ("eso", "validate_eso"),
        ("lemma1", "verify_lemma1:0"),
        ("lemma1", "verify_lemma1:1"),
        ("lemma2", "verify_lemma2"),
        ("contraction", "verify_contraction"),
        ("gradcheck", "primal_gradient"),
        ("fixedpoint", "w_of"),
    ])
    def test_one_nan_trial_fails_its_suite(self, monkeypatch, suite, target):
        # the NaN comes second, where Python's max and min would drop it;
        # "name:k" puts it in element k of the pair that ``name`` returns
        name, _, part = target.partition(":")
        real, calls = getattr(diagnostics, name), []

        def nan_at_second_call(*args, **kwargs):
            calls.append(None)
            value = real(*args, **kwargs)
            return _nan_like(value, part) if len(calls) == 2 else value

        monkeypatch.setattr(diagnostics, name, nan_at_second_call)
        report = diagnostics.ALL_SUITES[suite](0)
        assert report["pass"] is False
        assert math.isnan(report["worst"])

    def test_nan_stepsize_fails_lemma1(self):
        report = diagnostics.suite_lemma1(0, theta_override=math.nan)
        assert report["pass"] is False
        assert math.isnan(report["extra"]["eq_discrepancy"])
        assert math.isnan(report["extra"]["min_slack"])


class TestRunSuites:
    NAMES = ["gradcheck", "fixedpoint", "lemma2"]

    def test_reports_do_not_depend_on_the_cpus(self):
        assert run_suites(self.NAMES, 3) == [ALL_SUITES[name](3) for name in self.NAMES]

    def test_first_error_in_request_order_is_raised(self, monkeypatch):
        def give_up(seed, theta_override=None):
            raise ReferenceError("the oracle stopped", 2.5)

        def bad_theta(seed, theta_override=None):
            raise ValueError("theta exceeds p")

        monkeypatch.setitem(ALL_SUITES, "eso", lambda seed: {"name": "eso"})
        monkeypatch.setitem(ALL_SUITES, "lemma1", give_up)
        monkeypatch.setitem(ALL_SUITES, "lemma2", bad_theta)
        with pytest.raises(ReferenceError) as info:
            run_suites(["eso", "lemma1", "lemma2"], 0)
        assert str(info.value) == "the oracle stopped"
        assert info.value.grad_norm == 2.5
        with pytest.raises(ValueError, match="theta exceeds p"):
            run_suites(["eso", "lemma2", "lemma1"], 0)

    def test_kernel_build_error_comes_from_the_first_suite(self, monkeypatch):
        def cannot_build():
            raise _kernel.KernelBuildError("no gcc")

        monkeypatch.setattr(_kernel, "_load", cannot_build)
        with pytest.raises(_kernel.KernelBuildError, match="no gcc"):
            run_suites(self.NAMES, 0)

    def test_error_in_a_worker_stops_this_process_early(self, monkeypatch):
        # the suites run in this process, in request order; lemma1's error
        # ends the call, so lemma2 and contraction never run
        ran = []

        def give_up(seed, theta_override=None):
            raise ReferenceError("the oracle stopped", 2.5)

        monkeypatch.setitem(ALL_SUITES, "eso", lambda seed: ran.append("eso"))
        monkeypatch.setitem(ALL_SUITES, "lemma1", give_up)
        monkeypatch.setitem(ALL_SUITES, "lemma2", lambda seed: ran.append("lemma2"))
        with pytest.raises(ReferenceError, match="the oracle stopped"):
            run_suites(["eso", "lemma1", "lemma2", "contraction"], 0)
        assert ran == ["eso"]

    def test_error_here_stops_the_workers(self, monkeypatch):
        # a slow suite after the failing one is never started
        def bad_theta(seed, theta_override=None):
            raise ValueError("theta exceeds p")

        monkeypatch.setitem(ALL_SUITES, "lemma1", bad_theta)
        monkeypatch.setitem(ALL_SUITES, "lemma2", lambda seed: time.sleep(60))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="theta exceeds p"):
            run_suites(["lemma1", "lemma2"], 0)
        assert time.perf_counter() - start < 10
