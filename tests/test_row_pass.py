"""The compiled row pass, its transpose and its loss epilogue
(``_kernel.Csr`` and ``_kernel.Loss``) against the routines they replaced:
scipy's ``csr_matvec`` and ``csr_tocsc``, numpy's ``logaddexp`` and scipy's
``expit``, bit for bit (hypothesis, derandomized). Special values (+-0,
+-inf, NaN, magnitudes up to 1e300) reach every loss form; datasets have
empty rows and empty columns, n = d = 1 included.

A NaN must come out where the old routines give one, but its sign and
payload are not compared: IEEE 754 leaves them open for arithmetic, and the
compiler may rewrite -(a * b) as (-a) * b, which keeps every other bit."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec, csr_tocsc
from scipy.special import expit

from dfsdca import _kernel
from dfsdca.dataset import Dataset
from dfsdca.losses import LOGISTIC, QUADFAM, SQUARED, LossSpec

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -1e-300,
           36.0, -37.0, 709.8, -709.8, 745.2, -745.2, 1e-17]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(-50.0, 50.0),
                    st.floats(allow_nan=True, allow_infinity=True))


def bits(x) -> tuple:
    """The shape and bytes of ``x``, every NaN as numpy's ``nan``."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.shape, x.tobytes()


def numpy_losses(kind, y, c, b, x):
    """The loss forms the loss pass replaced: values, -phi' and phi''."""
    with np.errstate(all="ignore"):
        if kind == LOGISTIC:
            s = expit(-y * x)
            return np.logaddexp(0.0, -y * x), -(-y * s), s * (1.0 - s)
        if kind == SQUARED:
            r = x - y
            return 0.5 * r * r, -(x - y), np.ones_like(x)
        return 0.5 * c * x * x + b * x, -(c * x + b), c.copy()


@st.composite
def datasets(draw):
    """A Dataset with rows of 0 to d entries, so empty rows and columns too,
    with values whose squares do not overflow."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    rows = [sorted(draw(st.sets(st.integers(0, d - 1)))) for _ in range(n)]
    value = st.one_of(st.floats(-1e150, 1e150), st.sampled_from([1e-300, -5e-324, 3.0]))
    entries = sum(map(len, rows))
    data = draw(st.lists(value.filter(bool), min_size=entries, max_size=entries))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return Dataset(indptr, [j for r in rows for j in r], data, np.ones(n), d)


def scipy_transpose(ds):
    arrays = (np.empty(ds.d + 1, np.int32), np.empty(ds.data.size, np.int32),
              np.empty(ds.data.size))
    csr_tocsc(ds.n, ds.d, ds.indptr, ds.indices, ds.data, *arrays)
    return arrays


def scipy_product(rows, cols, arrays, x):
    out = np.zeros(rows)
    with np.errstate(all="ignore"):
        csr_matvec(rows, cols, *arrays, x, out)
    return out


def loss_spec(kind, n, draw):
    if kind == LOGISTIC:
        return LossSpec(kind, y=draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                              min_size=n, max_size=n)))
    if kind == SQUARED:
        return LossSpec(kind, y=draw(st.lists(numbers, min_size=n, max_size=n)))
    c = draw(st.lists(numbers.filter(lambda v: v != 0.0), min_size=n, max_size=n))
    return LossSpec(kind, c=c, b=draw(st.lists(numbers, min_size=n, max_size=n)))


def check_passes(ds, w, alpha, specs):
    transpose = scipy_transpose(ds)
    for mine, theirs in zip(ds._transpose().arrays, transpose):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    margins = scipy_product(ds.n, ds.d, (ds.indptr, ds.indices, ds.data), w)
    assert bits(ds.margins(w)) == bits(margins)
    assert bits(ds.combine(alpha)) == bits(scipy_product(ds.d, ds.n, transpose, alpha))
    for spec in specs:
        want = numpy_losses(spec.kind, spec.y, spec.c, spec.b, margins)
        got_margins, values = ds.losses(w, spec.kernel)
        assert bits(got_margins) == bits(margins)
        assert bits(values) == bits(want[0]), spec.kind


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ds=datasets(), data=st.data())
def test_passes_equal_scipy(ds, data):
    w = np.array(data.draw(st.lists(numbers, min_size=ds.d, max_size=ds.d)))
    alpha = np.array(data.draw(st.lists(numbers, min_size=ds.n, max_size=ds.n)))
    check_passes(ds, w, alpha, [loss_spec(kind, ds.n, data.draw)
                                for kind in (LOGISTIC, SQUARED, QUADFAM)])


@pytest.mark.parametrize("args", [
    # n = d = 1, full and empty; an empty row and an empty column
    ([0, 1], [0], [2.5], 1), ([0, 0], [], [], 1),
    ([0, 2, 2, 3], [0, 2, 2], [1.0, -3.0, 0.5], 4),
])
@pytest.mark.parametrize("value", SPECIAL)
def test_passes_equal_scipy_at_special_values(args, value):
    indptr, indices, data, d = args
    n = len(indptr) - 1
    ds = Dataset(indptr, indices, data, np.ones(n), d)
    w = np.linspace(-2.0, 3.0, d)
    w[0] = value
    specs = [LossSpec(LOGISTIC, y=np.resize([1.0, -1.0], n)),
             LossSpec(SQUARED, y=np.full(n, value)),
             LossSpec(QUADFAM, c=np.resize([2.0, -0.5], n), b=np.full(n, value))]
    check_passes(ds, w, np.full(n, value), specs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(kind=st.sampled_from([LOGISTIC, SQUARED, QUADFAM]), n=st.integers(1, 12),
       data=st.data())
def test_loss_pass_equals_numpy_and_scipy(kind, n, data):
    spec = loss_spec(kind, n, data.draw)
    x = np.array(data.draw(st.lists(numbers, min_size=n, max_size=n)))
    want = numpy_losses(kind, spec.y, spec.c, spec.b, x)
    assert [bits(a) for a in spec.kernel(x, values=True, alpha=True, curvatures=True)] \
        == [bits(a) for a in want]
    # any index of range(n), repeats and negative ones included
    idx = np.array(data.draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)), np.int64)
    sub = np.array(data.draw(st.lists(numbers, min_size=idx.size, max_size=idx.size)))
    y, c, b = (None if a is None else a[idx] for a in (spec.y, spec.c, spec.b))
    values, alpha, curvatures = numpy_losses(kind, y, c, b, sub)
    assert bits(spec.values(idx, sub)) == bits(values)
    assert bits(spec.gradients(idx, sub)) == bits(-alpha)
    assert bits(spec.curvatures(idx, sub)) == bits(curvatures)


def test_loss_pass_rejects_mismatched_margins():
    spec = LossSpec(SQUARED, y=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"margins of shape \(2,\) for examples of "
                                         r"shape \(3,\)"):
        spec.values(slice(None), np.zeros(2))
    with pytest.raises(ValueError, match=r"margins of shape \(\) for examples of "
                                         r"shape \(2,\)"):
        spec.values(np.array([0, 2]), 1.0)
    with pytest.raises(ValueError, match=r"margins of shape \(1, 1\) for examples of "
                                         r"shape \(1, 1\)"):
        spec.values(np.array([[0]]), np.zeros((1, 1)))
    with pytest.raises(IndexError):
        spec.values(np.array([3]), np.zeros(1))
    with pytest.raises(ValueError, match="row pass: 3 losses for 2 rows"):
        Dataset([0, 1, 2], [0, 1], [1.0, 1.0], [1.0, 1.0], 2).losses(np.zeros(2), spec.kernel)


def test_commands_import_no_scipy_special(tmp_path):
    # run, reference and validate on a tiny problem, then which modules
    # came in
    script = f"""
import sys
from dfsdca.cli import main
ref = {str(tmp_path / "ref.json")!r}
problem = ["--synthetic", "40,6,0.4,skewed-nnz", "--loss", "logistic", "--seed", "3"]
assert main(["reference", *problem, "--out", ref]) == 0
assert main(["run", *problem, "--sampling", "nice:4", "--epochs", "2", "--reference", ref,
             "--out", {str(tmp_path / "run.csv")!r}]) == 0
assert main(["validate", "--suite", "all", "--seed", "0",
             "--out", {str(tmp_path / "validate.json")!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
"""
    path = [str(_kernel.SOURCE.parents[1])]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
