"""Property tests over tiny sampling schemes, fuzzed with hypothesis.

Every scheme with at most 12 examples is checked against its own exact
support, the atom block ``(idx, offsets, prob)``: the offsets partition
idx into strictly increasing rows of [0, n), the probabilities form a
distribution whose marginals are p and whose E|S| is the scheme's, and
each draw rule only returns atom rows, a block of k draws equalling k
single draws.
The examples are derandomized, so a run is reproducible.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdca.sampling import (
    chunked_sampling,
    naive_chunks,
    serial_uniform,
    serial_weighted,
    tau_nice,
)


@st.composite
def tiny_schemes(draw):
    n = draw(st.integers(1, 12))
    norms = np.ones(n)
    kind = draw(st.sampled_from(["serial-uniform", "serial-weighted", "nice", "chunked"]))
    if kind == "serial-uniform":
        return serial_uniform(norms)
    if kind == "serial-weighted":
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
        return serial_weighted(norms, w / w.sum())
    if kind == "nice":
        return tau_nice(norms, draw(st.sampled_from([1, n])))
    # chunks from random nnz counts, zeros included
    part = naive_chunks(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return chunked_sampling(norms, part, draw(st.sampled_from([1, part.k])))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sc=tiny_schemes(), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_draws_follow_exact_support(sc, k, seed):
    idx, offsets, prob = sc.atoms()
    assert idx.dtype == offsets.dtype == np.int64
    # offsets partition idx into one row per atom
    assert offsets[0] == 0 and offsets[-1] == idx.size
    assert offsets.size == prob.size + 1 and np.all(np.diff(offsets) >= 1)
    assert abs(prob.sum() - 1.0) <= 1e-12 and np.all(prob > 0)

    rows = [idx[offsets[j]:offsets[j + 1]] for j in range(prob.size)]
    marginals = np.zeros(sc.n)
    for r, pr in zip(rows, prob):
        assert np.all(np.diff(r) > 0)  # strictly increasing, so no repeats
        assert 0 <= r[0] and r[-1] < sc.n
        marginals[r] += pr
    assert np.max(np.abs(marginals - sc.p)) <= 1e-12

    # E|S| is exact: sum p_i rounds, the scheme's own value must not
    sizes = np.diff(offsets).tolist()
    exact = Fraction(1) if sc.max_card == 1 else Fraction(sum(sizes), len(sizes))
    assert sc.expected_size == float(exact)

    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_offsets = sc.draw_block(a, k)
    assert got_offsets[0] == 0 and got_offsets[-1] == got.size
    support = {tuple(r.tolist()) for r in rows}
    for j in range(k):
        x = got[got_offsets[j]:got_offsets[j + 1]]
        assert tuple(x.tolist()) in support
        assert np.array_equal(x, sc.draw(b))
    assert a.random() == b.random()
