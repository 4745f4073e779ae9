import math
import pickle

import numpy as np
import pytest
from scipy import stats

from dfsdca.dataset import gen_synthetic
from dfsdca.sampling import (
    ChunkPartition,
    ChunkedSampling,
    SamplingScheme,
    TauNiceSampling,
    _tau_subsets,
    chunked_sampling,
    importance_probabilities,
    naive_chunks,
    random_c_sampling,
    serial_importance,
    serial_uniform,
    serial_weighted,
    tau_nice,
    validate_eso,
    waiting_time,
)

from csr_rows import from_rows, row

DRAWS = 100_000


class TestSerialUniform:
    def test_marginals(self):
        sc = serial_uniform(np.ones(4))
        assert np.array_equal(sc.p, [0.25, 0.25, 0.25, 0.25])
        assert sc.max_card == 1

    def test_single_example(self):
        sc = serial_uniform(np.ones(1))
        rng = np.random.default_rng(0)
        assert all(sc.draw(rng).tolist() == [0] for _ in range(10))

    def test_chi_square_uniformity(self):
        sc = serial_uniform(np.ones(4))
        # one block equals DRAWS draw calls (TestDrawBlock)
        idx, _ = sc.draw_block(np.random.default_rng(42), DRAWS)
        counts = np.bincount(idx, minlength=4)
        assert stats.chisquare(counts).pvalue >= 0.01

    def test_v_is_squared_norms(self):
        ds = from_rows([([0], [1.0]), ([0], [2.0]), ([0, 1], [3.0, 4.0])],
                       np.ones(3), 2)
        sc = serial_uniform(ds.norms)
        assert np.array_equal(sc.eso(ds), ds.norms**2)
        assert np.array_equal(sc.eso(ds), [1.0, 4.0, 25.0])


class TestSerialWeighted:
    def test_degenerate(self):
        sc = serial_weighted(np.ones(1), [1.0])
        rng = np.random.default_rng(1)
        assert sc.draw(rng).tolist() == [0]

    def test_matches_uniform_for_half_half(self):
        ds = gen_synthetic(2, 3, 0.7, "linear-sign", 1)
        a = serial_weighted(ds.norms, [0.5, 0.5])
        b = serial_uniform(ds.norms)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.eso(ds), b.eso(ds))

    def test_empirical_frequency(self):
        sc = serial_weighted(np.ones(2), [0.9, 0.1])
        idx, _ = sc.draw_block(np.random.default_rng(7), DRAWS)
        hits = int(np.sum(idx == 0))
        assert 0.885 <= hits / DRAWS <= 0.915

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            serial_weighted(np.ones(2), [0.4, 0.4])
        with pytest.raises(ValueError, match="p_i"):
            serial_weighted(np.ones(2), [1.2, -0.2])


class TestImportance:
    def test_uniform_when_homogeneous(self):
        p = importance_probabilities(np.ones(5) * 0.25, np.ones(5) * 2.0, 0.3)
        assert np.allclose(p, 0.2)

    def test_hand_example(self):
        # n=2, lam=1, l*|A|^2 = [2, 6]: weights n*lam + lw = [4, 8]
        p = importance_probabilities([2.0, 6.0], [1.0, 1.0], 1.0)
        assert np.allclose(p, [1 / 3, 2 / 3], atol=1e-15)

    def test_rate_never_worse_than_uniform(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            l = rng.uniform(0.1, 2.0, n)
            norms = rng.uniform(0.1, 4.0, n)
            lam = float(rng.uniform(0.01, 2.0))

            def rate(p):
                return np.max(1.0 / p + l * norms**2 / (lam * p * n))

            p_imp = importance_probabilities(l, norms, lam)
            flat = rate(p_imp)
            # the importance choice equalizes the per-example rate terms
            terms = 1.0 / p_imp + l * norms**2 / (lam * p_imp * n)
            assert np.ptp(terms) <= 1e-8 * flat
            expected = n + np.sum(l * norms**2) / (n * lam)
            assert abs(flat - expected) <= 1e-10 * expected
            assert flat <= rate(np.full(n, 1.0 / n)) * (1 + 1e-12)


class TestTauNice:
    def test_full_batch(self):
        sc = tau_nice(np.ones(4), 4)
        rng = np.random.default_rng(0)
        assert sc.draw(rng).tolist() == [0, 1, 2, 3]
        assert np.all(sc.p == 1.0)

    def test_tau_one_reduces_to_serial(self):
        ds = gen_synthetic(6, 4, 0.7, "linear-sign", 2)
        a = tau_nice(ds.norms, 1)
        b = serial_uniform(ds.norms)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.eso(ds), b.eso(ds))
        assert a.max_card == b.max_card == 1
        rng = np.random.default_rng(2)
        assert all(a.draw(rng).size == 1 for _ in range(20))

    def test_empirical_marginals(self):
        sc = tau_nice(np.ones(5), 2)
        # one block equals DRAWS draw calls (TestDrawBlock)
        idx, _ = sc.draw_block(np.random.default_rng(19), DRAWS)
        freq = np.bincount(idx, minlength=5) / DRAWS
        stderr = np.sqrt(0.4 * 0.6 / DRAWS)
        assert np.all(np.abs(freq - 0.4) <= 4 * stderr)

    def test_atoms_cover_support(self):
        sc = tau_nice(np.ones(5), 2)
        idx, offsets, prob = sc.atoms()
        assert offsets.tolist() == list(range(0, 21, 2)) and prob.size == 10
        assert abs(prob.sum() - 1.0) < 1e-12
        assert idx[:4].tolist() == [0, 1, 0, 2]  # lexicographic order

    def test_bounds(self):
        with pytest.raises(ValueError):
            tau_nice(np.ones(3), 0)
        with pytest.raises(ValueError):
            tau_nice(np.ones(3), 4)


@pytest.mark.parametrize("make", [
    lambda tau: tau_nice(np.ones(5), tau),
    lambda tau: chunked_sampling(np.ones(5), naive_chunks([1] * 5), tau),
], ids=["nice", "chunked"])
class TestTauIsAnInteger:
    """A fractional tau would set p_i = tau/units and E|S| from tau while
    the draws take floor(tau) units, so theta and the ESO would not hold."""

    @pytest.mark.parametrize("tau", [2.5, 1.5, np.float64(0.5)])
    def test_fraction_is_rejected(self, make, tau):
        with pytest.raises(ValueError, match=f"tau must be an integer, got {tau}"):
            make(tau)

    @pytest.mark.parametrize("tau", [True, np.True_])
    def test_bool_is_rejected(self, make, tau):
        with pytest.raises(ValueError, match="tau must be an integer, got True"):
            make(tau)

    def test_numpy_integer_is_taken(self, make):
        sc, want = make(np.int64(2)), make(2)
        assert type(sc.tau) is int and sc.tau == 2 and sc.name == want.name
        assert sc.expected_size == want.expected_size and np.array_equal(sc.p, want.p)


class CountingList(list):
    def __init__(self, *args):
        super().__init__(*args)
        self.gets = 0

    def __getitem__(self, i):
        self.gets += 1
        return super().__getitem__(i)


class TestNaiveChunks:
    def test_hand_trace(self):
        part = naive_chunks([3, 1, 2, 3])
        assert part.g.tolist() == [1, 2, 1]
        assert part.s.tolist() == [3, 3, 3]
        assert part.boundaries.tolist() == [0, 1, 3, 4]
        assert part.m_cap == 3

    def test_single_item(self):
        part = naive_chunks([5])
        assert part.k == 1 and part.s.tolist() == [5]

    def test_all_singletons_at_unit_capacity(self):
        part = naive_chunks([1, 1, 1, 1])
        assert part.k == 4 and part.g.tolist() == [1, 1, 1, 1]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            naive_chunks([])

    def test_capacity_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            u = rng.integers(1, 50, size=int(rng.integers(2, 200))).tolist()
            part = naive_chunks(u)
            assert part.boundaries[-1] == len(u)
            assert np.all(part.s <= part.m_cap)
            # chunks are consecutive and disjoint by construction
            assert np.all(np.diff(part.boundaries) == part.g)

    def test_one_pass_operation_count(self):
        u = CountingList(np.random.default_rng(0).integers(1, 9, 500).tolist())
        naive_chunks(u)
        assert u.gets == len(u)


class TestChunkedSampling:
    def test_full_chunk_batch(self):
        part = naive_chunks([3, 1, 2, 3])
        sc = chunked_sampling(np.ones(4), part, 3)
        rng = np.random.default_rng(0)
        assert sc.draw(rng).tolist() == [0, 1, 2, 3]
        assert np.all(sc.p == 1.0)

    def test_hand_cardinality(self):
        # k=4 chunks of sizes [1,2,1,1]; tau=1 gives max_card 2, p = 1/4
        part = naive_chunks([4, 2, 2, 4, 4])
        assert part.g.tolist() == [1, 2, 1, 1]
        sc = chunked_sampling(np.ones(5), part, 1)
        assert sc.max_card == 2
        assert np.all(sc.p == 0.25)
        ds = from_rows([([0], [1.0])] * 5, np.ones(5), 1)
        assert np.array_equal(sc.eso(ds), 2.0 * np.ones(5))

    def test_tau_exceeds_chunks(self):
        part = naive_chunks([1, 1])
        with pytest.raises(ValueError, match="k=2"):
            chunked_sampling(np.ones(2), part, 3)

    def test_empirical_marginals(self):
        part = naive_chunks([4, 2, 2, 4, 4])  # k = 4
        sc = chunked_sampling(np.ones(5), part, 2)
        idx, _ = sc.draw_block(np.random.default_rng(3), DRAWS)
        freq = np.bincount(idx, minlength=5) / DRAWS
        stderr = np.sqrt(0.5 * 0.5 / DRAWS)
        assert np.all(np.abs(freq - 0.5) <= 4 * stderr)

    def test_core_loads_are_chunk_sums(self):
        # one core per chunk: each row holds the nnz sums of the tau distinct
        # chunks whose union the same block of draw_block returns
        u = [3, 1, 2, 5, 4, 1, 1]
        part = naive_chunks(u)
        assert part.s.tolist() == [4, 2, 5, 5, 1]
        sc = chunked_sampling(np.ones(part.n), part, 2)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        loads = sc.core_loads(a, np.array(u), 200)
        idx, offsets = sc.draw_block(b, 200)
        chunk = np.repeat(np.arange(part.k), part.g)
        assert loads.shape == (200, 2) and loads.dtype == np.float64
        for row, ex in zip(loads, np.split(idx, offsets[1:-1])):
            ids = np.unique(chunk[ex])
            assert ids.size == 2
            assert np.array_equal(row, part.s[ids])
        assert a.random() == b.random()

    def test_core_loads_follow_u(self):
        # a core's load is its chunk's sum of the u passed in, not of the
        # loads the partition was built from
        part = naive_chunks([3, 1, 2, 5, 4, 1, 1])
        sc = chunked_sampling(np.ones(part.n), part, 2)
        u = np.array([0.5, 10.0, 0.25, 7.0, 1.0, 2.0, 4.0])
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        loads = sc.core_loads(a, u, 50)
        idx, offsets = sc.draw_block(b, 50)
        chunk = np.repeat(np.arange(part.k), part.g)
        sums = np.bincount(chunk, u)
        assert sums.tolist() == [10.5, 0.25, 7.0, 3.0, 4.0]
        for row, ex in zip(loads, np.split(idx, offsets[1:-1])):
            assert np.array_equal(row, sums[np.unique(chunk[ex])])

    @pytest.mark.parametrize("g, c", [([3, -1, 3], 1), ([2, 0], 1), ([0, 4], 0)])
    def test_chunk_below_one_example_is_rejected(self, g, c):
        with pytest.raises(ValueError, match=rf"^chunk {c} has size {g[c]}, below 1$"):
            ChunkPartition(np.array(g), np.ones(len(g)), 1.0)

    @pytest.mark.parametrize("g, shown", [
        ([3.9, 3.0], "3.9"), ([2.0, 1.0], "2.0"), ([True, True], "True"),
    ])
    def test_size_that_is_not_an_integer_is_rejected(self, g, shown):
        # truncated to int, [3.9, 3.0] became two chunks of 3 examples
        with pytest.raises(ValueError, match=rf"^chunk 0 has size {shown}, not an integer$"):
            ChunkPartition(np.array(g), np.ones(2), 1.0)


class TestNiceIsChunksOfOne:
    """tau-nice sampling is chunked sampling over n chunks of one example:
    the same draws, support, marginals, E|S|, core loads and stream."""

    @pytest.mark.parametrize("tau", [1, 3, 7])
    def test_same_scheme(self, tau):
        ds = gen_synthetic(7, 5, 0.5, "skewed-nnz", 4)
        nice = tau_nice(ds.norms, tau)
        chunked = chunked_sampling(ds.norms, naive_chunks([1] * ds.n), tau)
        assert chunked.partition.k == ds.n
        assert (nice.name, chunked.name) == (f"nice:{tau}", f"chunked:{tau}")
        assert np.array_equal(nice.p, chunked.p) and nice.max_card == chunked.max_card
        assert nice.expected_size == chunked.expected_size == tau
        for x, y in zip(nice.atoms(), chunked.atoms()):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        a, b = np.random.default_rng(tau), np.random.default_rng(tau)
        for k in (1, 40):
            for x, y in zip(nice.draw_block(a, k), chunked.draw_block(b, k)):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            assert np.array_equal(nice.core_loads(a, ds.nnz, k),
                                  chunked.core_loads(b, ds.nnz, k))
        assert a.random() == b.random()
        assert np.all(nice.eso(ds) <= chunked.eso(ds))


def reduceat_loads(scheme, rng, u, k):
    """The reference rule for core loads: u as float64 summed over every
    chunk by np.add.reduceat, indexed by the drawn chunk ids."""
    sums = np.add.reduceat(np.asarray(u, dtype=np.float64), scheme.partition.boundaries[:-1])
    return sums[_tau_subsets(rng, scheme.partition.k, scheme.tau, k)]


class TestCoreLoads:
    """Only the tau-subset schemes have core loads, one drawn chunk per core;
    tau-nice takes its chunk sums as u itself, with no reduction over n."""

    def test_only_chunked_sampling_defines_them(self):
        for name in ("core_loads", "sample_core_loads", "atoms"):
            assert not hasattr(SamplingScheme, name)
        assert {"core_loads", "sample_core_loads"} <= vars(ChunkedSampling).keys()
        assert not {"core_loads", "sample_core_loads"} & vars(TauNiceSampling).keys()
        ds = gen_synthetic(20, 8, 0.5, "skewed-nnz", 2)
        for sc in (serial_uniform(ds.norms), serial_weighted(ds.norms, np.full(20, 0.05)),
                   serial_importance(ds.norms, np.ones(20), 0.1),
                   random_c_sampling(ds.norms, 3.0, 1)):
            assert not hasattr(sc, "core_loads") and not hasattr(sc, "sample_core_loads")

    @pytest.mark.parametrize("k", [1, 7, 2000])
    def test_loads_equal_the_reduceat_rule_bitwise(self, k):
        ds = gen_synthetic(300, 40, 0.1, "skewed-nnz", 6)
        u_float = np.random.default_rng(k).standard_normal(ds.n) * 1e3
        u_float[::37] = -0.0
        part = naive_chunks(ds.nnz.tolist())
        schemes = [tau_nice(ds.norms, 1), tau_nice(ds.norms, 16), tau_nice(ds.norms, ds.n),
                   chunked_sampling(ds.norms, part, 1), chunked_sampling(ds.norms, part, 5),
                   chunked_sampling(ds.norms, naive_chunks([1] * ds.n), 16)]
        assert part.k < ds.n
        for sc in schemes:
            for u in (ds.nnz, u_float):
                a, b = np.random.default_rng(k + 1), np.random.default_rng(k + 1)
                loads = sc.core_loads(a, u, k)
                want = reduceat_loads(sc, b, u, k)
                assert loads.dtype == want.dtype == np.float64
                assert loads.shape == want.shape == (k, sc.tau)
                assert loads.tobytes() == want.tobytes()
                assert a.bit_generator.state == b.bit_generator.state


class TestRandomC:
    def test_near_uniform_limit(self):
        sc = random_c_sampling(np.ones(50), 1.001, 3)
        assert sc.p.max() / sc.p.min() < 1.001

    def test_spread_strictly_bounded(self):
        sc = random_c_sampling(np.ones(100), 8.0, 5)
        assert sc.p.max() / sc.p.min() < 8.0

    def test_deterministic(self):
        a = random_c_sampling(np.ones(30), 4.0, 9)
        b = random_c_sampling(np.ones(30), 4.0, 9)
        assert np.array_equal(a.p, b.p)

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError):
            random_c_sampling(np.ones(3), 1.0, 0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_c_must_be_finite(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            random_c_sampling(np.ones(3), c, 0)


class TestEso:
    def test_serial_is_tight(self):
        ds = gen_synthetic(10, 5, 0.7, "linear-sign", 1)
        # singleton expectations make the bound an equality
        assert validate_eso(serial_uniform(ds.norms), ds) == pytest.approx(1.0, abs=1e-12)

    def test_tau_nice_exact_enumeration(self):
        ds = gen_synthetic(8, 5, 0.8, "linear-sign", 3)
        assert validate_eso(tau_nice(ds.norms, 3), ds) <= 1.0 + 1e-12

    def test_chunked_exact_enumeration(self):
        ds = gen_synthetic(10, 6, 0.6, "linear-sign", 5)
        part = naive_chunks(ds.nnz.tolist())
        assert validate_eso(chunked_sampling(ds.norms, part, 2), ds) <= 1.0 + 1e-12

    @pytest.mark.parametrize("kind,tau", [("nice", 3), ("chunked", 2)],
                             ids=["nice-exact", "chunked-exact"])
    def test_matches_per_subset_loop(self, kind, tau):
        # 104 of the 132 ordered pairs of rows share a feature, and the
        # skewed row sizes make chunks of one to three examples
        ds = gen_synthetic(12, 20, 0.3, "skewed-nnz", 11)
        part = naive_chunks(ds.nnz.tolist())
        sc = tau_nice(ds.norms, tau) if kind == "nice" else chunked_sampling(ds.norms, part, tau)
        m, weights, lhs = reference_eso(sc, ds)
        scale = weights**-0.5
        eigvals, eigvecs = np.linalg.eigh(scale[:, None] * m * scale)
        worst = validate_eso(sc, ds)
        assert abs(worst - eigvals[-1]) <= 1e-12
        # no h exceeds the worst ratio, and the top eigenvector attains it
        h = np.random.default_rng(12).standard_normal((200, ds.n))
        assert np.all(lhs(h) / (h**2 @ weights) <= worst * (1.0 + 1e-12))
        top = scale * eigvecs[:, -1]
        assert lhs(top[None])[0] / (top**2 @ weights) == pytest.approx(worst, rel=1e-12)

    def test_zero_and_nan_weights(self):
        ds = from_rows([([0], [1.0]), ([], []), ([0], [2.0])], np.ones(3), 1)
        sc = serial_uniform(ds.norms)
        # the empty row has v = 0 and nothing to bound: it is left out
        assert sc.eso(ds)[1] == 0.0
        assert validate_eso(sc, ds) == pytest.approx(1.0, abs=1e-12)
        # no v_2 = 0 bounds row 2's own term
        sc.eso = lambda dataset: np.array([1.0, 0.0, 0.0])
        assert validate_eso(sc, ds) == math.inf
        sc.eso = lambda dataset: np.array([1.0, math.nan, 4.0])
        assert math.isnan(validate_eso(sc, ds))

    def test_tau_nice_bound_exact_on_tiny_data(self):
        # every tau of 200 tiny datasets, by exact enumeration; a feature in
        # every row with tau = n attains the bound up to rounding
        rng = np.random.default_rng(21)
        worst = 0.0
        for k in range(200):
            ds = tiny_dataset(rng, full_column=k % 2 == 1, empty_row=k % 4 >= 2)
            norms_sq = ds.norms**2
            for tau in range(1, ds.n + 1):
                sc = tau_nice(ds.norms, tau)
                v = sc.eso(ds)
                worst = max(worst, validate_eso(sc, ds))
                assert np.all(v <= tau * norms_sq), (k, tau)
            assert np.array_equal(tau_nice(ds.norms, 1).eso(ds), norms_sq)
        assert worst <= 1.0 + 1e-12

    def test_tau_nice_bound_uses_shared_features_only(self):
        # rows 0 and 1 share feature 0 (omega = 2), row 2 has its own feature
        ds = from_rows([([0], [1.0]), ([0, 1], [2.0, 1.0]), ([2], [3.0])],
                       np.ones(3), 3)
        assert ds.overlap().tolist() == [1.0, 4.0, 0.0]
        # tau = 2: a pair of rows shares a draw with probability 1/2
        v = tau_nice(ds.norms, 2).eso(ds)
        assert np.array_equal(v, ds.norms**2 + [0.5, 2.0, 0.0])

    def test_eso_rejects_wrong_dataset_size(self):
        ds = gen_synthetic(8, 5, 0.6, "linear-sign", 1)
        other = gen_synthetic(9, 5, 0.6, "linear-sign", 1)
        part = naive_chunks(ds.nnz.tolist())
        for sc in (serial_uniform(ds.norms), tau_nice(ds.norms, 3),
                   chunked_sampling(ds.norms, part, 1)):
            with pytest.raises(ValueError, match="8 examples, the dataset has 9"):
                sc.eso(other)

    def test_near_overflow_norms_give_inf_without_warning(self):
        # ||A_1||^2 = 1e308 is finite, twice it is not; warnings are errors
        # here, so a leaked RuntimeWarning fails the test
        ds = from_rows([([0], [1.0]), ([1], [1e154])], np.ones(2), 2)
        norms_sq = ds.norms**2
        assert np.array_equal(tau_nice(ds.norms, 2).eso(ds), norms_sq)
        part = naive_chunks(ds.nnz.tolist())
        # the chunked bound is the base scheme's cardinality bound
        assert np.array_equal(chunked_sampling(ds.norms, part, 2).eso(ds), [2.0, np.inf])

    def test_undersized_v_detected(self):
        ds = from_rows([(np.arange(4), np.ones(4))] * 6, np.ones(6), 4)
        sc = tau_nice(ds.norms, 3)
        sc.eso = lambda dataset: dataset.norms**2 / 3.0
        # M = 4 (0.3 I + 0.2 J) has top eigenvalue 6 on D = 2/3 I
        assert validate_eso(sc, ds) == pytest.approx(9.0, rel=1e-12)


def tiny_dataset(rng, full_column: bool, empty_row: bool):
    """A random dataset of 2 to 12 rows and 1 to 6 features, optionally
    with one feature present in every row, or with an empty row."""
    n, d = int(rng.integers(2, 13)), int(rng.integers(1, 7))
    mask = rng.random((n, d)) < rng.uniform(0.2, 0.9)
    if full_column:
        mask[:, int(rng.integers(d))] = True
    if empty_row:
        r = int(rng.integers(n))
        mask[r] = False
        mask[(r + 1) % n, 0] = True  # some row stays nonzero
    rows = [(np.flatnonzero(m), rng.standard_normal(int(m.sum()))) for m in mask]
    return from_rows(rows, np.ones(n), d)


def reference_eso(scheme, ds):
    """The ESO's M = sum_S Pr(S) A_S A_S^T, each term on the rows and
    columns of S, from a per-subset loop over the atoms; the weights p o v;
    and h -> E[||sum_{i in S} A_i h_i||^2] for each row of a (k, n) array."""
    a = np.zeros((ds.n, ds.d))
    for i in range(ds.n):
        cols, vals = row(ds, i)
        a[i, cols] = vals
    idx, offsets, probs = scheme.atoms()
    atoms = [(idx[offsets[j]:offsets[j + 1]], pr) for j, pr in enumerate(probs)]
    m = np.zeros((ds.n, ds.n))
    for subset, pr in atoms:
        m[np.ix_(subset, subset)] += pr * (a[subset] @ a[subset].T)

    def lhs(h):
        return sum(pr * np.sum((h[:, subset] @ a[subset]) ** 2, axis=1)
                   for subset, pr in atoms)

    return m, scheme.p * scheme.eso(ds), lhs


class TestWaitingTime:
    def test_balanced(self):
        assert waiting_time([4.0, 4.0, 4.0]) == 0.0

    def test_standard_draw(self):
        assert waiting_time([10.0, 2.0]) == 4.0

    def test_chunk_sums(self):
        assert waiting_time([3.0, 3.0]) == 0.0

    def test_empty(self):
        with pytest.raises(ValueError):
            waiting_time([])

    def test_chunking_reduces_mean_waiting(self):
        ds = gen_synthetic(400, 100, 0.05, "skewed-nnz", 21)
        u = ds.nnz
        part = naive_chunks(u.tolist())
        tau = 8
        std = tau_nice(ds.norms, tau)
        chk = chunked_sampling(ds.norms, part, tau)
        # one block of 2000 draws per scheme (TestDrawBlock)
        rng = np.random.default_rng(0)
        m_std = np.mean(waiting_time(std.core_loads(rng, u, 2000)))
        m_chk = np.mean(waiting_time(chk.core_loads(rng, u, 2000)))
        assert m_chk < m_std

        # same comparison with the standard batch grown to match the
        # chunked scheme's expected nnz per draw
        tau_eq = int(round(tau * float(np.mean(part.s)) / float(np.mean(u))))
        std_eq = tau_nice(ds.norms, min(tau_eq, ds.n))
        m_std_eq = np.mean(waiting_time(std_eq.core_loads(rng, u, 2000)))
        assert m_chk < m_std_eq


class TestDeterminism:
    def test_identical_sequences_per_seed(self):
        ds = gen_synthetic(20, 8, 0.5, "linear-sign", 2)
        part = naive_chunks(ds.nnz.tolist())
        builders = [
            lambda: serial_uniform(ds.norms),
            lambda: serial_weighted(ds.norms, np.full(20, 0.05)),
            lambda: tau_nice(ds.norms, 4),
            lambda: chunked_sampling(ds.norms, part, 2),
            lambda: random_c_sampling(ds.norms, 3.0, 17),
        ]
        for build in builders:
            sc = build()  # one instance serves both streams
            seqs = []
            for _ in range(2):
                rng = np.random.default_rng(31)
                seqs.append([sc.draw(rng).tolist() for _ in range(50)])
            assert seqs[0] == seqs[1]

    def test_draws_write_no_attribute(self):
        ds = gen_synthetic(20, 8, 0.5, "skewed-nnz", 2)
        part = naive_chunks(ds.nnz.tolist())
        schemes = [
            serial_uniform(ds.norms),
            serial_weighted(ds.norms, np.full(20, 0.05)),
            tau_nice(ds.norms, 4),
            chunked_sampling(ds.norms, part, 2),
        ]
        rng = np.random.default_rng(4)
        for sc in schemes:
            before = pickle.dumps(sc)
            sc.eso(ds)
            for _ in range(20):
                sc.draw(rng)
                if isinstance(sc, ChunkedSampling):
                    sc.sample_core_loads(rng, ds.nnz)
                    sc.core_loads(rng, ds.nnz, 3)
            assert pickle.dumps(sc) == before


class TestDrawBlock:
    """A block of k draws equals k ``draw`` calls, generator state included;
    ``solver.run`` draws its blocks this way and must match a loop of draws.
    The same holds for core loads, and ``chunk-stats`` relies on it."""

    @staticmethod
    def scheme(name, ds):
        part = naive_chunks(ds.nnz.tolist())
        return {
            "serial-uniform": lambda: serial_uniform(ds.norms),
            "serial-weighted": lambda: random_c_sampling(ds.norms, 5.0, 3),
            "serial-importance": lambda: serial_importance(ds.norms, np.ones(ds.n), 0.01),
            "nice:1": lambda: tau_nice(ds.norms, 1),
            "nice:7": lambda: tau_nice(ds.norms, 7),
            "nice:n": lambda: tau_nice(ds.norms, ds.n),
            "chunked:1": lambda: chunked_sampling(ds.norms, part, 1),
            "chunked:3": lambda: chunked_sampling(ds.norms, part, 3),
        }[name]()

    @pytest.mark.parametrize("name", [
        "serial-uniform", "serial-weighted", "serial-importance",
        "nice:1", "nice:7", "nice:n", "chunked:1", "chunked:3",
    ])
    def test_block_equals_draws(self, name):
        ds = gen_synthetic(41, 10, 0.3, "skewed-nnz", 2)
        sc = self.scheme(name, ds)
        for k in (1, 2, 97):
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            idx, offsets = sc.draw_block(a, k)
            draws = [sc.draw(b) for _ in range(k)]
            assert idx.dtype == offsets.dtype == np.int64
            assert offsets.tolist() == np.cumsum([0] + [x.size for x in draws]).tolist()
            for j, x in enumerate(draws):
                assert np.array_equal(idx[offsets[j]:offsets[j + 1]], x)
            assert a.random() == b.random()

    @pytest.mark.parametrize("name", ["nice:1", "nice:7", "nice:n", "chunked:1", "chunked:3"])
    def test_core_loads_equal_single_draws(self, name):
        ds = gen_synthetic(41, 10, 0.3, "skewed-nnz", 2)
        sc = self.scheme(name, ds)
        for k in (1, 2, 97):
            a, b = np.random.default_rng(13), np.random.default_rng(13)
            loads = sc.core_loads(a, ds.nnz, k)
            rows = [sc.sample_core_loads(b, ds.nnz) for _ in range(k)]
            assert loads.ndim == 2 and np.array_equal(loads, rows)
            assert a.random() == b.random()
            # waiting times of a block are its rows' waiting times, bitwise
            assert np.array_equal(waiting_time(loads),
                                  [waiting_time(row) for row in rows])

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 5000, 2**40])
    def test_serial_block_of_one_equals_scalar_draw(self, n):
        # a size-1 draw takes the value and the generator step of a scalar
        # draw, so the serial stream did not change when draw became a block
        # of one; n = 2**40 has no norms array, but the uniform rule reads n
        uniform = serial_uniform(np.ones(1))
        uniform.n = n
        m = min(max(n, 2), 300)
        weighted = serial_weighted(np.ones(m), np.arange(1.0, m + 1) * 2 / (m * (m + 1)))
        cdf = weighted._cdf
        for sc, scalar in ((uniform, lambda r: r.integers(0, n)),
                           (weighted, lambda r: np.searchsorted(cdf, r.random(), side="right"))):
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(5):
                assert sc.draw(a).tolist() == [int(scalar(b))]
            assert a.random() == b.random()


class TestTauSubsetStream:
    """``_tau_subsets`` replays numpy's own Floyd draws: one ``integers``
    call per block gives the subsets, and the generator state, of sorted
    ``rng.choice(units, tau, replace=False, shuffle=False)`` calls."""

    @pytest.mark.parametrize("units, tau", [
        (1, 1), (3, 2), (7, 7), (20, 19), (40, 30), (41, 41), (300, 8),
        (5000, 16), (5000, 5000), (10000, 10000), (20000, 16),
    ])
    def test_rows_equal_sorted_choice(self, units, tau):
        k = 3 if tau >= 5000 else 60
        a, b = np.random.default_rng(units + tau), np.random.default_rng(units + tau)
        got = _tau_subsets(a, units, tau, k)
        want = np.array([np.sort(b.choice(units, tau, replace=False, shuffle=False))
                         for _ in range(k)])
        assert got.dtype == np.int64 and got.shape == (k, tau)
        assert np.array_equal(got, want), (
            "block draws differ from rng.choice: numpy's Floyd or bounded-integer "
            "stream has changed, and with it every tau-subset golden digest"
        )
        assert a.random() == b.random(), "block draws leave a different generator state"

    def test_all_subsets_uniform(self):
        # one 200 000-draw block over all C(6, 3) = 20 subsets
        rows = _tau_subsets(np.random.default_rng(21), 6, 3, 200_000)
        codes = (np.int64(1) << rows).sum(axis=1)
        _, counts = np.unique(codes, return_counts=True)
        assert counts.size == 20
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_above_floyd_regime_rows_are_subsets(self):
        # numpy shuffles a tail here, so only the subset property holds
        units, tau = 30000, 3000
        rows = _tau_subsets(np.random.default_rng(4), units, tau, 4)
        assert rows.shape == (4, tau)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < units


def co_inclusion(sc, draws, seed):
    """Empirical P(i in S and j in S) for every pair (i, j)."""
    idx, offsets = sc.draw_block(np.random.default_rng(seed), draws)
    hits = np.zeros((draws, sc.n))
    hits[np.repeat(np.arange(draws), np.diff(offsets)), idx] = 1.0
    return hits.T @ hits / draws


def assert_within_4_stderr(freq, q, draws):
    assert np.all(np.abs(freq - q) <= 4 * np.sqrt(q * (1 - q) / draws))


class TestCoInclusion:
    """Pair frequencies pin the subset distribution that the ESO depends on,
    which the marginals alone do not (a random contiguous block of tau
    indices also has marginals tau/n)."""

    DRAWS = 20_000

    def test_tau_nice_pairs(self):
        n, tau = 7, 3
        freq = co_inclusion(tau_nice(np.ones(n), tau), self.DRAWS, 12)
        off = ~np.eye(n, dtype=bool)
        assert_within_4_stderr(freq[off], tau * (tau - 1) / (n * (n - 1)),
                               self.DRAWS)
        assert_within_4_stderr(np.diag(freq), tau / n, self.DRAWS)

    def test_chunked_pairs(self):
        part = naive_chunks([3, 1, 2, 3, 1, 1, 1, 3])
        assert part.g.tolist() == [1, 2, 1, 3, 1]
        k, tau = part.k, 3
        freq = co_inclusion(chunked_sampling(np.ones(part.n), part, tau),
                            self.DRAWS, 13)
        chunk = np.repeat(np.arange(k), part.g)
        same = chunk[:, None] == chunk[None, :]
        off = ~np.eye(part.n, dtype=bool)
        assert_within_4_stderr(freq[same & off], tau / k, self.DRAWS)
        assert_within_4_stderr(freq[~same], tau * (tau - 1) / (k * (k - 1)),
                               self.DRAWS)
        assert_within_4_stderr(np.diag(freq), tau / k, self.DRAWS)
