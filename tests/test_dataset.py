import math
import os

import numpy as np
import pytest

from dfsdca.dataset import (
    Dataset,
    ParseError,
    gen_synthetic,
    normalize_max_norm,
    parse_libsvm,
    serialize_libsvm,
)

from csr_rows import from_rows, row


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return a.d == b.d and all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("labels", "indptr", "indices", "data")
    )


class TestParse:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
        assert ds.n == 2 and ds.d == 3
        assert ds.nnz.tolist() == [2, 1]
        assert ds.labels.tolist() == [1.0, -1.0]
        assert row(ds, 0)[0].tolist() == [0, 2]
        assert row(ds, 1)[1].tolist() == [1.0]

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm("")

    def test_non_increasing_indices(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 3:1 2:1")

    def test_duplicate_index(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 2:1 2:3")

    def test_non_numeric_token(self):
        with pytest.raises(ParseError, match="line 1.*abc"):
            parse_libsvm("+1 1:abc")
        with pytest.raises(ParseError, match="label"):
            parse_libsvm("foo 1:1")

    def test_comments_and_whitespace(self):
        ds = parse_libsvm("  +1   1:0.5 \t 2:1  # trailing\n# full comment\n\n-1 1:2")
        assert ds.n == 2
        assert row(ds, 0)[1].tolist() == [0.5, 1.0]

    def test_explicit_zero_dropped(self):
        ds = parse_libsvm("+1 1:0 2:3")
        assert row(ds, 0)[0].tolist() == [1]
        assert ds.d == 2

    def test_dimension_override(self):
        ds = parse_libsvm("+1 1:1", n_features=10)
        assert ds.d == 10
        with pytest.raises(ParseError, match="smaller"):
            parse_libsvm("+1 5:1", n_features=3)

    def test_label_only_line(self):
        ds = parse_libsvm("+1 2:1\n-1")
        assert ds.nnz.tolist() == [1, 0]
        assert ds.norms[1] == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            ds = gen_synthetic(
                int(rng.integers(1, 20)), int(rng.integers(1, 15)),
                float(rng.uniform(0.2, 1.0)), "linear-noise", seed,
            )
            again = parse_libsvm(serialize_libsvm(ds), n_features=ds.d)
            assert datasets_equal(ds, again)


class TestNorms:
    def test_three_four_five(self):
        ds = from_rows([([0, 2], [3.0, 4.0])], [1.0], 3)
        assert ds.norms[0] == 5.0
        assert ds.nnz[0] == 2

    def test_empty_example(self):
        ds = from_rows([([], [])], [0.0], 2)
        assert ds.norms[0] == 0.0 and ds.nnz[0] == 0

    def test_left_to_right_sum(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(257)
        acc = 0.0
        for v in vals:
            acc += float(v) * float(v)
        assert from_rows([(np.arange(257), vals)], [0.0], 257).norms[0] == math.sqrt(acc)

    @pytest.mark.skipif(
        not os.path.exists(os.environ.get("DFSDCA_W8A", "/nonexistent")),
        reason="w8a file not supplied (set DFSDCA_W8A)",
    )
    def test_w8a_shape(self):
        with open(os.environ["DFSDCA_W8A"]) as fh:
            ds = parse_libsvm(fh)
        assert ds.n == 49749 and ds.d == 300


class TestNormalize:
    def _two(self, n1, n2):
        return from_rows([([0], [n1]), ([1], [n2])], [1.0, -1.0], 2)

    def test_scales_by_max(self):
        scaled, scale = normalize_max_norm(self._two(2.0, 1.0))
        assert scale == 2.0
        assert np.allclose(scaled.norms, [1.0, 0.5])

    def test_identity_case(self):
        scaled, scale = normalize_max_norm(self._two(1.0, 1.0))
        assert scale == 1.0
        assert np.array_equal(scaled.norms, [1.0, 1.0])

    def test_all_zero_errors(self):
        ds = from_rows([([], [])] * 2, [1.0, 1.0], 2)
        with pytest.raises(ValueError, match="zero norm"):
            normalize_max_norm(ds)

    def test_idempotent(self):
        ds = gen_synthetic(30, 8, 0.5, "linear-sign", 5)
        once, _ = normalize_max_norm(ds)
        assert abs(np.max(once.norms) - 1.0) <= 1e-12
        twice, scale2 = normalize_max_norm(once)
        assert abs(scale2 - 1.0) <= 1e-12
        assert np.allclose(once.norms, twice.norms, atol=1e-12)


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(4, 3, 1.0, "linear-sign", 7)
        b = gen_synthetic(4, 3, 1.0, "linear-sign", 7)
        assert datasets_equal(a, b)

    def test_full_density(self):
        ds = gen_synthetic(4, 3, 1.0, "linear-sign", 7)
        assert np.all(ds.nnz == 3)

    def test_skewed_tail_heavy(self):
        ds = gen_synthetic(1000, 200, 0.05, "skewed-nnz", 2, tail_exponent=2.0)
        assert ds.nnz.max() / np.median(ds.nnz) >= 5.0

    def test_invalid_density(self):
        with pytest.raises(ValueError, match="density"):
            gen_synthetic(4, 3, 0.0, "linear-sign", 0)
        with pytest.raises(ValueError, match="density"):
            gen_synthetic(4, 3, 1.5, "linear-sign", 0)

    def test_label_models(self):
        signs = gen_synthetic(50, 10, 0.5, "linear-sign", 0)
        assert set(np.unique(signs.labels)) <= {-1.0, 1.0}
        reg = gen_synthetic(50, 10, 0.5, "linear-noise", 0)
        assert not set(np.unique(reg.labels)) <= {-1.0, 1.0}
        with pytest.raises(ValueError, match="label_model"):
            gen_synthetic(4, 3, 0.5, "nope", 0)


class TestInvariants:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            Dataset([0, 2], [1, 1], [1.0, 2.0], [0.0], 3)
        with pytest.raises(ValueError, match="range"):
            Dataset([0, 1], [3], [1.0], [0.0], 3)

    def test_no_explicit_zeros(self):
        with pytest.raises(ValueError, match="zero"):
            Dataset([0, 1], [0], [0.0], [0.0], 3)

    def test_labels_length(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset([0, 1], [0], [1.0], [1.0, 2.0], 1)

    @pytest.mark.parametrize("indptr,indices,data,match", [
        ([0, 2], [1, 1], [1.0, 2.0], "increasing"),
        ([0, 2], [1, 0], [1.0, 2.0], "increasing"),
        ([0, 2, 1], [0, 1], [1.0, 1.0], "increasing"),
        ([0, 1], [3], [1.0], "range"),
        ([0, 1], [-1], [1.0], "range"),
        ([0, 1], [0], [0.0], "zero"),
    ])
    def test_from_csr_rejects_non_canonical(self, indptr, indices, data, match):
        labels = np.zeros(len(indptr) - 1)
        with pytest.raises(ValueError, match=match):
            Dataset(np.array(indptr), np.array(indices), np.array(data), labels, 3)
