import math

import numpy as np
import pytest

from dfsdca.dataset import gen_synthetic
from dfsdca.losses import (
    average_curvature_matrix,
    build_nonconvex_instance,
    logistic_loss,
    min_curvature_eig,
    quadratic_family,
    smoothness_constants,
    squared_loss,
)

from csr_rows import from_rows, row


def fd(spec, i, x, h=1e-6):
    return (spec.value(i, x + h) - spec.value(i, x - h)) / (2 * h)


class TestValuesAndGradients:
    def test_logistic_at_zero(self):
        spec = logistic_loss([1.0])
        assert abs(spec.value(0, 0.0) - math.log(2.0)) < 1e-15
        assert spec.gradient(0, 0.0) == -0.5

    def test_squared_at_minimum(self):
        spec = squared_loss([3.0])
        assert spec.value(0, 3.0) == 0.0
        assert spec.gradient(0, 3.0) == 0.0

    def test_logistic_extreme_no_overflow(self):
        # asymptotically log(1 + e^1000) = 1000 + e^-1000
        spec = logistic_loss([1.0])
        assert abs(spec.value(0, -1000.0) - 1000.0) <= 1e-9
        assert abs(spec.gradient(0, -1000.0) - (-1.0)) <= 1e-12
        assert np.isfinite(spec.value(0, 1000.0))

    def test_quadfam(self):
        spec = quadratic_family([2.0], [-1.0])
        assert spec.value(0, 3.0) == 2.0 * 9 / 2 - 3.0
        assert spec.gradient(0, 3.0) == 5.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            specs = [
                logistic_loss([float(rng.choice((-1.0, 1.0)))]),
                squared_loss([float(rng.normal())]),
                quadratic_family(
                    [float(rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0)))],
                    [float(rng.normal())],
                ),
            ]
            x = float(rng.normal(scale=3.0))
            for spec in specs:
                g = spec.gradient(0, x)
                assert abs(g - fd(spec, 0, x)) <= 1e-5 * (1.0 + abs(g))
                # and the curvature against differences of the gradient
                k = float(spec.curvatures(np.array([0]), np.array([x]))[0])
                fd2 = (spec.gradient(0, x + 1e-6) - spec.gradient(0, x - 1e-6)) / 2e-6
                assert abs(k - fd2) <= 1e-5 * (1.0 + abs(k))

    def test_argument_smoothness_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            specs = [
                logistic_loss([float(rng.choice((-1.0, 1.0)))]),
                squared_loss([float(rng.normal())]),
                quadratic_family([float(rng.uniform(0.2, 3.0))], [0.0]),
            ]
            x, y = rng.normal(scale=4.0, size=2)
            for spec in specs:
                lhs = abs(spec.gradient(0, x) - spec.gradient(0, y))
                assert lhs <= spec.l[0] * abs(x - y) + 1e-12


class TestSmoothnessConstants:
    def test_logistic_norm_two(self):
        ds = from_rows([([0], [2.0])], [1.0], 1)
        sm = smoothness_constants(logistic_loss(ds.labels), ds)
        assert sm.l[0] == 0.25 and sm.L_per[0] == 0.5 and sm.L == 0.5

    def test_squared_unit_norms(self):
        ds = from_rows([([i], [1.0]) for i in range(3)], [0.0, 0.0, 0.0], 3)
        sm = smoothness_constants(squared_loss(ds.labels), ds)
        assert sm.L == 1.0

    def test_quadfam_absolute_curvature(self):
        ds = from_rows([([i], [1.0]) for i in range(2)], [0.0, 0.0], 2)
        sm = smoothness_constants(quadratic_family([-1.0, 3.0], [0.0, 0.0]), ds)
        assert sm.l.tolist() == [1.0, 3.0]
        assert sm.L == 3.0

    def test_conservative_bound_invariant(self):
        ds = gen_synthetic(20, 8, 0.7, "linear-sign", 4)
        sm = smoothness_constants(logistic_loss(ds.labels), ds)
        assert np.all(sm.L_per <= sm.l * ds.norms + 1e-12)
        assert sm.L == np.max(sm.L_per)

    def test_zero_curvature_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            quadratic_family([0.0, 1.0], [0.0, 0.0])

    def test_iterate_smoothness_bound(self):
        # gradient difference through the data is Lipschitz in w with L_i
        rng = np.random.default_rng(5)
        ds = gen_synthetic(10, 6, 0.8, "linear-sign", 6)
        loss = logistic_loss(ds.labels)
        sm = smoothness_constants(loss, ds)
        for _ in range(100):
            w, z = rng.standard_normal((2, ds.d))
            for i in range(ds.n):
                idx, val = row(ds, i)
                lhs = abs(
                    loss.gradient(i, np.dot(val, w[idx]))
                    - loss.gradient(i, np.dot(val, z[idx]))
                )
                assert lhs <= sm.L_per[i] * np.linalg.norm(w - z) + 1e-12


class TestNonconvexInstance:
    def test_one_dimensional_average(self):
        # two collinear examples, curvatures -1 and 3: average is 1 > 0
        ds = from_rows([([0], [1.0])] * 2, [0.0, 0.0], 1)
        H = average_curvature_matrix(ds, np.array([-1.0, 3.0]))
        assert H.shape == (1, 1) and abs(H[0, 0] - 1.0) < 1e-15

    def test_matches_outer_product_loop(self):
        ds = gen_synthetic(300, 25, 0.2, "skewed-nnz", 6)

        def loop(c):
            H = np.zeros((ds.d, ds.d))
            for i, ci in enumerate(c):
                idx, val = row(ds, i)
                H[np.ix_(idx, idx)] += ci * np.outer(val, val)
            return H / ds.n

        # unit curvatures: the same products summed in the same order
        ones = np.ones(ds.n)
        assert np.array_equal(average_curvature_matrix(ds, ones), loop(ones))
        # other curvatures: c_i (a b) becomes a (c_i b), one rounding apart
        # per term, so the sums differ by a few ulps of the largest entry
        c = np.random.default_rng(1).uniform(-1.0, 2.0, ds.n)
        atol = 4 * np.finfo(float).eps * loop(np.abs(c)).max()
        np.testing.assert_allclose(average_curvature_matrix(ds, c), loop(c),
                                   rtol=0, atol=atol)

    def test_orthogonal_layout_not_psd(self):
        # A_1 = e_1, A_2 = e_2 with c = (-1, 3): Hessian diag(-1/2, 3/2)
        ds = from_rows([([0], [1.0]), ([1], [1.0])], [0.0, 0.0], 2)
        assert min_curvature_eig(ds, np.array([-1.0, 3.0])) < -1e-6

    @pytest.mark.parametrize("n,d", [(2, 1), (5, 3), (100, 20), (7, 10)])
    def test_builder_output_certified(self, n, d):
        ds, loss = build_nonconvex_instance(n, d, seed=13)
        assert np.min(loss.c) < 0.0
        assert min_curvature_eig(ds, loss.c) >= -1e-10
        assert np.all(loss.l > 0.0)

    def test_builder_deterministic(self):
        a = build_nonconvex_instance(10, 4, 3)
        b = build_nonconvex_instance(10, 4, 3)
        assert np.array_equal(a[1].c, b[1].c)
        assert np.array_equal(a[1].b, b[1].b)

    def test_builder_needs_two(self):
        with pytest.raises(ValueError):
            build_nonconvex_instance(1, 1, 0)
