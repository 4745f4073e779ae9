"""The step kernel's subset checks, fuzzed with hypothesis.

Blocks of 1-5 subsets over a tiny problem hold indices in any order,
repeats within a subset, recurrences across subsets, indices outside
[0, n) and indices whose theta / p_i exceeds the guard. A pure-Python
model names the fault the kernel must report: a range or guard fault
anywhere in the block before any repeat, each the first in call order.
The examples are derandomized, so a run is reproducible.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdca import _kernel
from dfsdca.dataset import gen_synthetic
from dfsdca.losses import logistic_loss
from dfsdca.solver import init_state, make_problem

from test_kernel import numpy_update

THETA, GUARD = 0.1, 1.0
PROBLEMS = {}


def problem(n):
    if n not in PROBLEMS:
        ds = gen_synthetic(n, 4, 0.5, "linear-sign", n)
        PROBLEMS[n] = make_problem(ds, logistic_loss(ds.labels), 0.3)
    return PROBLEMS[n]


def expected_fault(n, subsets, guarded):
    """The message the kernel must raise for this block, or None."""
    for i in (i for sub in subsets for i in sub):
        if not 0 <= i < n:
            return f"subset index {i} is outside [0, {n})"
        if i in guarded:
            return f"exceeds p_{i}="
    for sub in subsets:
        for r, i in enumerate(sub):
            if i in sub[:r]:
                return f"subset holds index {i} more than once"
    return None


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 6))
    inside = st.integers(0, n - 1)
    entry = st.one_of(inside, st.sampled_from([-1, n])) if draw(st.booleans()) else inside
    unique = draw(st.booleans())
    subsets = draw(st.lists(st.lists(entry, max_size=8, unique=unique),
                            min_size=1, max_size=5))
    guarded = draw(st.sets(inside, max_size=2)) if draw(st.booleans()) else set()
    return n, subsets, guarded


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(block=blocks(), seed=st.integers(0, 2**32 - 1))
def test_kernel_names_first_fault_and_changes_nothing(block, seed):
    n, subsets, guarded = block
    prob = problem(n)
    p = np.full(n, 0.5)
    p[list(guarded)] = 0.05  # theta / p_i = 2 > guard
    start = init_state(prob, np.random.default_rng(seed).standard_normal(n))
    got = start.copy()
    idx = np.array([i for sub in subsets for i in sub], dtype=np.int64)
    offsets = np.cumsum([0] + [len(sub) for sub in subsets]).astype(np.int64)
    fault = expected_fault(n, subsets, guarded)
    if fault is None:
        _kernel.steps(prob.dataset.csr(), prob.loss.kernel, got.w, got.alpha, p, THETA,
                      GUARD, n * prob.lam, idx, offsets)
        want = start.copy()
        for sub in subsets:
            numpy_update(prob, want, np.array(sub, dtype=np.int64), p, THETA)
    else:
        with pytest.raises(ValueError, match=re.escape(fault)):
            _kernel.steps(prob.dataset.csr(), prob.loss.kernel, got.w, got.alpha, p,
                          THETA, GUARD, n * prob.lam, idx, offsets)
        want = start
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got.alpha, want.alpha)
