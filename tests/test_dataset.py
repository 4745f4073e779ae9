import math
import mmap
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfsdca import _kernel
from dfsdca.dataset import (
    LABEL_MODELS,
    Dataset,
    NonFiniteError,
    ParseError,
    gen_synthetic,
    libsvm_arrays,
    normalize_max_norm,
    parse_libsvm,
    serialize_libsvm,
)
from dfsdca.losses import build_nonconvex_instance

from csr_rows import from_rows, row, scipy_matrices


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


class TestGrammar:
    @pytest.mark.parametrize("tok", ["1_0:0.5", "1:0_5", "1:0x1p3", "0x1:1",
                                     "1:nan(1)", "1:infinit", "1:1e", "1:.", "1:"])
    def test_not_numbers(self, tok):
        # Python's float() and int() took the first two as 10 and 5.0
        with pytest.raises(ParseError, match=re.escape(f"line 2: non-numeric token '{tok}'")):
            parse_libsvm(f"+1 1:1\n-1 {tok}\n")

    def test_underscore_label(self):
        with pytest.raises(ParseError, match="line 1: non-numeric label '1_0'"):
            parse_libsvm("1_0 1:1\n")

    def test_inf_and_nan_in_any_case(self):
        # the grammar reads them, sign included; the Dataset then rejects them
        text = b"-INF 1:+Infinity 2:-nAn 3:inf 4:NaN\n"
        labels, _, _, data, _ = libsvm_arrays(text)
        assert labels[0] == -np.inf
        assert data[[0, 2]].tolist() == [np.inf, np.inf]
        signs = np.signbit(data[[1, 3]])
        assert np.isnan(data[[1, 3]]).all() and signs.tolist() == [True, False]
        with pytest.raises(NonFiniteError, match="row 0 .*label -inf is not finite"):
            parse_libsvm(text)

    @pytest.mark.parametrize("text", ["+1 1:1\n-1 2:\xe9\n", "+1 1:1\n-1 \u0661:1\n",
                                      "+1 1:1\n-1 # caf\xe9\n", "+1\n-1\u2028+1\n"])
    def test_non_ascii_names_line(self, text):
        with pytest.raises(ParseError, match="line 2: non-ASCII byte 0x"):
            parse_libsvm(text)
        with pytest.raises(ParseError, match="line 2: non-ASCII byte 0x"):
            parse_libsvm(text.encode("utf-8"))
        with pytest.raises(ParseError, match="line 2: non-ASCII byte 0xff"):
            parse_libsvm(b"+1\n-1 1:\xff\n")

    def test_index_range(self):
        # the grammar takes indices below 2**63, and a Dataset d below 2**31
        assert libsvm_arrays(f"1 {2**63 - 1}:1".encode())[4] == 2**63 - 1
        with pytest.raises(ValueError, match=f"d={2**63 - 1} and nnz=1 must be at most"):
            parse_libsvm(f"1 {2**63 - 1}:1")
        with pytest.raises(ParseError, match=f"line 1: index {2**63} exceeds"):
            parse_libsvm(f"1 {2**63}:1")
        with pytest.raises(ParseError, match=f"index {-2**70} is not 1-based"):
            parse_libsvm(f"1 {-2**70}:1")

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\v", "\f",
                                     "\x1c", "\x1d", "\x1e"])
    def test_line_breaks(self, brk):
        ds = parse_libsvm(f"+1 1:1{brk}-1\x1f2:1{brk}{brk}+1 2:2 3:1")
        assert ds.labels.tolist() == [1.0, -1.0, 1.0] and ds.nnz.tolist() == [1, 1, 2]
        with pytest.raises(ParseError, match="line 4:"):
            parse_libsvm(f"+1{brk}{brk}-1{brk}x")

    def test_bytes_and_binary_files(self, tmp_path):
        text = "+1 1:0.5 3:2.0\r\n-1 2:1.0 # c\n"
        path = tmp_path / "d.libsvm"
        path.write_text(text, newline="")
        with open(path, "rb") as fh:
            from_file = parse_libsvm(fh)
        assert datasets_equal(parse_libsvm(text), parse_libsvm(text.encode()))
        assert datasets_equal(parse_libsvm(text), from_file)

    def test_any_bytes_like_buffer(self, tmp_path):
        text = b"+1 1:0.5 3:2.0\r\n-1 2:1.0 # c\n"
        want = parse_libsvm(text)
        path = tmp_path / "d.libsvm"
        path.write_bytes(text)
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            assert datasets_equal(parse_libsvm(mm), want)
        for buf in (bytearray(text), memoryview(text), np.frombuffer(text, np.uint8)):
            assert datasets_equal(parse_libsvm(buf), want)
        # a buffer that is not C-contiguous is read as its contiguous copy
        spread = bytes(b for ch in text for b in (ch, 0x80))
        for buf in (memoryview(spread)[::2], np.frombuffer(spread, np.uint8)[::2]):
            assert datasets_equal(parse_libsvm(buf), want)
        assert datasets_equal(parse_libsvm(memoryview(b"1 1:1\n")[::2]),
                              parse_libsvm(b"111"))
        with pytest.raises(ParseError, match=r"^line 2: non-ASCII byte 0xff$"):
            parse_libsvm(bytearray(b"1\n\xff"))


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

    def test_values_that_underflow_are_dropped(self):
        ds = from_rows([([0, 1, 2], [1e-320, 1e10, -1e-320]), ([0], [1.0]),
                        ([2], [1e-320])], [1.0, -1.0, 1.0], 3)
        scaled, scale = normalize_max_norm(ds)
        assert scale == 1e10
        assert scaled.indptr.tolist() == [0, 1, 2, 2]
        assert scaled.indices.tolist() == [1, 0]
        assert scaled.data.tolist() == [1.0, 1e-10]
        assert scaled.labels.tolist() == [1.0, -1.0, 1.0]

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

    @pytest.mark.parametrize("model", LABEL_MODELS)
    @pytest.mark.parametrize("tail", [0, -1, 0.0, float("nan"), float("inf")])
    def test_invalid_tail_exponent(self, model, tail):
        # unchecked: 0 divided by zero, -1 failed in numpy's pareto, and nan
        # gave one entry per row with a RuntimeWarning
        with pytest.raises(ValueError, match=rf"^tail_exponent must be a finite number "
                                             rf"above 0, got {tail}$"):
            gen_synthetic(4, 3, 0.5, model, 0, tail_exponent=tail)

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

    @pytest.mark.parametrize("indptr, data, labels, match", [
        ([0, 1, 2], [1.0, np.nan], [1.0, 1.0], r"row 1 \(0-based\): norm nan is not"),
        ([0, 1, 2], [1.0, -np.inf], [1.0, 1.0], r"row 1 \(0-based\): norm inf is not"),
        ([0, 1, 2], [1e200, 1.0], [1.0, 1.0], r"row 0 .*: norm inf .* square overflows"),
        ([0, 2, 2], [1e154, 1e154], [1.0, 1.0], r"row 0 \(0-based\): norm inf"),
        ([0, 1, 2], [1.0, 1.0], [1.0, np.nan], r"row 1 \(0-based\): label nan is not"),
        ([0, 1, 2], [np.nan, 1.0], [np.inf, 1.0], r"row 0 \(0-based\): label inf"),
    ])
    def test_rejects_non_finite_rows(self, indptr, data, labels, match):
        # warnings are errors here, so an overflow must stay silent too
        indices = [0, 1] if indptr[1] == 2 else [0, 0]
        with pytest.raises(NonFiniteError, match=match):
            Dataset(indptr, indices, data, labels, 2)

    def test_largest_finite_norm_is_kept(self):
        ds = Dataset([0, 2], [0, 1], [1e154, 1e153], [1.0], 2)
        assert np.isfinite(ds.norms[0]) and ds.norms[0] > 1e154

    @pytest.mark.parametrize("indptr,indices,data,match", [
        ([0, 2], [1, 1], [1.0, 2.0], "increasing"),
        ([0, 2], [1, 0], [1.0, 2.0], "increasing"),
        ([0, 2, 1, 2], [0, 1], [1.0, 1.0], "increasing"),
        ([0, 1], [3], [1.0], "range"),
        ([0, 1], [-1], [1.0], "range"),
        ([0, 1], [0], [0.0], "zero"),
        # entries past the last value of indptr, or too few for it
        ([0, 1, 3], [2, 0, 1, 2], [1.0, 2.0, 3.0, 4.0], "Last value .* should equal"),
        ([0, 1, 3], [2, 0], [1.0, 2.0], "Last value .* should equal"),
    ])
    def test_from_csr_rejects_non_canonical(self, indptr, indices, data, match):
        labels = np.zeros(len(indptr) - 1)
        with pytest.raises(ValueError, match=match):
            Dataset(np.array(indptr), np.array(indices), np.array(data), labels, 3)


class TestInt32Sizes:
    """n, d and nnz above ``_kernel.INT32_MAX`` are rejected where a dataset
    is made, before anything of that size is drawn or allocated. The limit
    is lowered to 3 to test it on tiny inputs."""

    @pytest.fixture
    def limit3(self, monkeypatch):
        monkeypatch.setattr(_kernel, "INT32_MAX", 3)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def choice_rows(*args):
            raise AssertionError("the rows were drawn before the size check")
        monkeypatch.setattr(_kernel, "choice_rows", choice_rows)

    @pytest.mark.parametrize("args, sizes", [
        (([0, 1, 2, 3, 3], [0, 1, 2], [1.0] * 3, [1.0] * 4, 3), "n=4, d=3 and nnz=3"),
        (([0, 1], [0], [1.0], [1.0], 4), "n=1, d=4 and nnz=1"),
        (([0, 2, 4], [0, 1, 0, 1], [1.0] * 4, [1.0] * 2, 3), "n=2, d=3 and nnz=4"),
    ], ids=["n", "d", "nnz"])
    def test_dataset(self, limit3, args, sizes):
        with pytest.raises(ValueError, match=f"too large for int32 CSR indices: {sizes} "
                                             r"must be at most 2\*\*31 - 1 = 3"):
            Dataset(*args)

    def test_dataset_at_the_limit(self, limit3):
        ds = Dataset([0, 1, 2, 3], [0, 1, 2], [1.0] * 3, [1.0] * 3, 3)
        assert ds.indices.dtype == ds.indptr.dtype == np.int32

    @pytest.mark.parametrize("n, d, sizes", [
        (4, 3, "n=4 and d=3"), (3, 4, "n=3 and d=4"), (3, 3, "n=3, d=3 and nnz=9"),
    ], ids=["n", "d", "nnz"])
    def test_generator(self, limit3, no_draws, n, d, sizes):
        with pytest.raises(ValueError, match=f"too large for int32 CSR indices: {sizes} "):
            gen_synthetic(n, d, 1.0, "linear-sign", 0)

    def test_generator_checks_d_before_drawing(self, no_draws):
        # unchecked, the planted weights alone would take 24 GB
        with pytest.raises(ValueError, match="n=1 and d=3000000000 must be at most"):
            gen_synthetic(1, 3_000_000_000, 1e-9, "linear-sign", 0)

    def test_nonconvex_builder(self, limit3, monkeypatch):
        def default_rng(seed):
            raise AssertionError("the instance was drawn before the size check")
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        with pytest.raises(ValueError, match="n=4, d=2 and nnz=4 must be at most"):
            build_nonconvex_instance(4, 2, 0)


def reference_dataset(indptr, indices, data, labels, d):
    """The checks and norms of ``Dataset(...)`` before its compiled pass,
    by scipy's ``csr_matrix`` and numpy, kept as the reference: the arrays
    it stored (indptr, indices, data, labels, nnz, norms), or its error.
    Unlike scipy, a Dataset takes only int32 sizes, and no entries past the
    last value of ``indptr``."""
    n = len(indptr) - 1
    if max(n, d, len(indices)) > 2**31 - 1:
        raise ValueError(f"dataset too large for int32 CSR indices: n={n}, d={d} and "
                         f"nnz={len(indices)} must be at most 2**31 - 1 = 2147483647")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (n,):
        raise ValueError("labels length must equal number of examples")
    try:
        A = sp.csr_matrix((data, indices, indptr), shape=(n, int(d)))
    except ValueError as exc:
        if not str(exc).startswith("Last value of index pointer"):
            raise
        A = None
    # scipy drops the entries past indptr[-1], where a Dataset rejects them
    if A is None or A.indptr[-1] != len(indices):
        raise ValueError("Last value of index pointer should equal "
                         "the size of index and data arrays")
    if not A.has_canonical_format:
        raise ValueError("indices must be strictly increasing within each row")
    if A.nnz and (A.indices.min() < 0 or A.indices.max() >= d):
        raise ValueError("index out of range for dim=%d" % d)
    if np.any(A.data == 0.0):
        raise ValueError("explicit zero values are not canonical")
    nnz = np.diff(A.indptr).astype(np.int64)
    # bincount adds each row's squares left to right, starting from 0.0
    rows = np.repeat(np.arange(n), nnz)
    with np.errstate(over="ignore"):
        squares = A.data * A.data
    norms = np.sqrt(np.bincount(rows, squares, minlength=n))
    bad = ~(np.isfinite(labels) & np.isfinite(norms))
    if bad.any():
        i = int(np.argmax(bad))
        if not np.isfinite(labels[i]):
            raise NonFiniteError(f"row {i} (0-based): label {labels[i]} is not finite")
        raise NonFiniteError(
            f"row {i} (0-based): norm {norms[i]} is not finite: a value "
            "is NaN or infinite, or so large that its square overflows"
        )
    return A.indptr, A.indices, A.data, labels, nnz, norms


def built(build, args):
    """What ``build(*args)`` stores, as each array's dtype and bytes (so
    floats by their bits), or its error's class and message."""
    try:
        arrays = build(*args)
    except ValueError as exc:  # NonFiniteError is one
        return type(exc).__name__, str(exc)
    return [(a.dtype.str, a.tobytes()) for a in arrays]


FAULTS = ("none", "none", "none", "unsorted", "decreasing", "range", "zero", "value",
          "label", "start", "last", "short", "size", "labels", "wide")


@st.composite
def csr_inputs(draw):
    """Random CSR arguments of ``Dataset``, canonical and finite, then with
    up to two faults: indices out of order, a decreasing ``indptr``, an
    index outside [0, d), an explicit zero, a value or label that is not
    finite (or a value whose square overflows), ``indptr`` that does not
    start at 0, ends past the entries or before the last one, data and
    indices of different sizes, labels of another length; or a d above
    2**31 - 1, too large for a Dataset. Index arrays come as int64 or int32
    arrays or as lists."""
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = [sorted(draw(st.sets(st.integers(0, d - 1), min_size=min(d, 2) * (r % 2))))
            for r in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j in r], dtype=np.int64)
    value = st.floats(-1e100, 1e100).filter(bool)
    data = np.array(draw(st.lists(value, min_size=indices.size, max_size=indices.size)))
    labels = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)):
        pick = st.integers(0, max(indices.size - 1, 0))
        if fault == "unsorted" and indices.size > 1:
            k = draw(st.integers(1, indices.size - 1))
            indices[k] = indices[k - 1] - draw(st.integers(0, 1))
        elif fault == "decreasing" and n > 1:
            r = draw(st.integers(1, n - 1))
            indptr[r] = draw(st.integers(indptr[r + 1], indptr[-1]))
        elif fault == "range" and indices.size:
            indices[draw(pick)] = draw(st.sampled_from([-1, d, d + 3, 2**40]))
        elif fault == "zero" and indices.size:
            data[draw(pick)] = draw(st.sampled_from([0.0, -0.0]))
        elif fault == "value" and indices.size:
            data[draw(pick)] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e200]))
        elif fault == "label" and n:
            labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, -np.inf]))
        elif fault == "start":
            indptr[0] = 1
        elif fault == "last":
            indptr[-1] += 1
        elif fault == "short" and n and indptr[-1] > indptr[-2]:
            indptr[-1] -= 1  # scipy drops the last entry; a Dataset rejects it
        elif fault == "size":
            data = np.append(data, 1.0)
        elif fault == "labels":
            labels.append(1.0)
        elif fault == "wide":
            d = 2**31 + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["int64", "int32", "list"]))
    if kind == "list":
        indptr, indices = indptr.tolist(), indices.tolist()
    elif kind == "int32" and max(d, abs(indices).max(initial=0)) < 2**31:
        indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
    return indptr, indices, data, labels, d


def pointers(*arrays) -> list:
    return [a.ctypes.data for a in arrays]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(args=csr_inputs())
def test_compiled_pass_equals_scipy_construction(args):
    # each side gets its own copies: a Dataset freezes the arrays it keeps
    def copies():
        *arrays, d = args
        return [a.copy() if isinstance(a, np.ndarray) else list(a) for a in arrays] + [d]

    def dataset(*call):
        ds = Dataset(*call)
        # wrapped around the checked arrays and the transpose, not copies
        A, T = scipy_matrices(ds)
        assert pointers(A.indptr, A.indices, A.data) == pointers(ds.indptr, ds.indices, ds.data)
        assert A.has_canonical_format and T.has_canonical_format
        # the row pass reads those same arrays
        calls, product = [], _kernel.Csr.product
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel.Csr, "product",
                       lambda self, *a: calls.append(self.arrays) or product(self, *a))
            ds.margins(np.zeros(ds.d))
            ds.combine(np.zeros(ds.n))
        assert [pointers(*arrays) for arrays in calls] == [
            pointers(M.indptr, M.indices, M.data) for M in (A, T)]
        return ds.indptr, ds.indices, ds.data, ds.labels, ds.nnz, ds.norms

    assert built(dataset, copies()) == built(reference_dataset, copies())


def bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.int64)


def no_call(*args):
    raise AssertionError("row pass called")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(args=csr_inputs(), seed=st.integers(0, 2**32 - 1))
# n = 1 and d = 1, full and empty; empty rows and empty columns
@example(args=([0, 1], [0], [2.5], [-1.0], 1), seed=0)
@example(args=([0, 0], [], [], [1.0], 1), seed=0)
@example(args=([0, 2, 2, 3], [0, 2, 2], [1.0, -3.0, 0.5], [1.0, -1.0, 1.0], 4), seed=0)
def test_products_equal_scipy_products(args, seed):
    try:
        ds = Dataset(*args)
    except ValueError:
        return
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(ds.d) * 10.0 ** rng.integers(-20, 21, ds.d)
    alpha = rng.standard_normal(ds.n) * 10.0 ** rng.integers(-20, 21, ds.n)
    A, T = scipy_matrices(ds)
    assert np.array_equal(bits(ds.margins(w)), bits(A @ w))
    assert np.array_equal(bits(ds.combine(alpha)), bits(T @ alpha))
    # a strided vector is read as its contiguous copy
    assert np.array_equal(bits(ds.margins(np.repeat(w, 2)[::2])), bits(ds.margins(w)))
    ref = A.T.tocsr()
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(T, name), getattr(ref, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    # the row pass does not check lengths: a vector of the wrong shape is
    # rejected before it is called
    with pytest.MonkeyPatch.context() as mp:
        for csr in (ds.csr(), ds.csr_t()):
            mp.setattr(csr, "_lib", SimpleNamespace(dfsdca_rows=no_call))
        for product, name, size in ((ds.margins, "w", ds.d), (ds.combine, "alpha", ds.n)):
            shapes = [(size + 1,), (size, 1), (1, size), ()] + [(size - 1,)] * (size > 0)
            for shape in shapes:
                with pytest.raises(ValueError, match=rf"^{name} must be a 1-d vector of "
                                                     rf"length {size}, got shape "):
                    product(np.ones(shape))
