"""The compiled synthetic generator against the Python row loop it replaced,
fuzzed with hypothesis.

``python_gen_synthetic`` is that loop, kept here as the reference, as
``tests/test_parse_fuzz.py`` keeps the Python parser: one ``rng.choice``,
one ``rng.standard_normal`` and one ``np.dot`` per row. Both must give the
same ``Dataset`` bit for bit, in both of numpy's ``choice`` regimes:
Floyd's draws (d <= 10000, or k <= d // 50) and the tail shuffle of
``range(d)`` (d > 10000 and k > d // 50). The examples are derandomized,
so a run is reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdca import _kernel
from dfsdca.dataset import LABEL_MODELS, Dataset, gen_synthetic


def python_gen_synthetic(n, d, density, label_model, seed, tail_exponent=2.0):
    """The row loop that ``dataset.gen_synthetic`` ran before the compiled
    row pass, after the same validation and row counts."""
    rng = np.random.default_rng(seed)
    if label_model == "skewed-nnz":
        x_m = 2.0 ** (-1.0 / tail_exponent)
        draws = x_m * (1.0 + rng.pareto(tail_exponent, size=n))
        counts = np.clip(np.rint(density * d * draws).astype(int), 1, d)
    else:
        counts = np.clip(rng.binomial(d, density, size=n), 1, d)
    rows = []
    for k in counts:
        idx = np.sort(rng.choice(d, size=int(k), replace=False))
        val = rng.standard_normal(int(k))
        val[val == 0.0] = 1.0
        rows.append((idx, val))
    w_true = rng.standard_normal(d)
    margins = np.array([np.dot(val, w_true[idx]) for idx, val in rows])
    if label_model == "linear-noise":
        labels = margins + 0.1 * rng.standard_normal(n)
    else:
        labels = np.where(margins >= 0.0, 1.0, -1.0)
    return Dataset(
        np.concatenate(([0], np.cumsum(counts))),
        np.concatenate([idx for idx, _ in rows]),
        np.concatenate([val for _, val in rows]),
        labels, d,
    )


def arrays(ds):
    """The dataset's arrays, floats as their bits."""
    return (ds.d, ds.labels.view(np.int64).tolist(), ds.indptr.tolist(),
            ds.indices.tolist(), ds.data.view(np.int64).tolist())


# small, Floyd-only and tail-regime dimensions
dims = st.one_of(st.integers(1, 40), st.integers(41, 10_000), st.integers(10_001, 12_000))
densities = st.one_of(st.just(1.0), st.floats(0.001, 1.0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(1, 60), d=dims, density=densities,
       model=st.sampled_from(LABEL_MODELS), tail=st.floats(0.5, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_compiled_generator_equals_python_loop(n, d, density, model, tail, seed):
    if d > 1000 and density * n > 12:  # at most 12 d entries: ~150 k
        density = min(density, 12 / n)
    args = (n, d, density, model, seed, tail)
    assert arrays(gen_synthetic(*args)) == arrays(python_gen_synthetic(*args))


@pytest.mark.parametrize("d, k", [
    (1, 1), (7, 7), (200, 3), (10_000, 10_000), (10_001, 200), (10_001, 201),
    (12_000, 12_000), (30_000, 601),
])
def test_row_pass_leaves_the_generator_where_choice_does(d, k):
    # 200 = 10001 // 50 is Floyd's last k at d = 10001; 201 is the tail's first
    counts = np.full(3, k, dtype=np.int64)
    a, b = np.random.default_rng(d + k), np.random.default_rng(d + k)
    cols, vals = _kernel.choice_rows(a, d, counts)
    for r in range(3):
        want = np.sort(b.choice(d, k, replace=False))
        assert np.array_equal(cols[r * k:(r + 1) * k], want)
        normal = b.standard_normal(k)
        normal[normal == 0.0] = 1.0
        assert np.array_equal(vals[r * k:(r + 1) * k].view(np.int64), normal.view(np.int64))
    assert a.integers(2**62) == b.integers(2**62)


def test_row_pass_rejects_a_count_outside_the_dimension():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"row 1 has 6 entries, outside \[0, d=5\]"):
        _kernel.choice_rows(rng, 5, np.array([2, 6, 1]))
    assert rng.bit_generator.state == state
