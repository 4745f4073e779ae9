"""Property tests over tiny sampling schemes, fuzzed with hypothesis.

Every scheme with at most 12 examples is checked against its own exact
support: the atoms form a distribution whose marginals are p, and each
draw rule only returns atoms, a block of k draws equalling k single draws.
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
    atoms = sc.atoms()
    probs = np.array([prob for _, prob in atoms])
    assert abs(probs.sum() - 1.0) <= 1e-12

    marginals = np.zeros(sc.n)
    for subset, prob in atoms:
        assert all(isinstance(i, int) for i in subset)
        assert list(subset) == sorted(set(subset))
        assert 0 <= subset[0] and subset[-1] < sc.n
        marginals[list(subset)] += prob
    assert np.max(np.abs(marginals - sc.p)) <= 1e-12

    # E|S| is exact: sum p_i rounds, the scheme's own value must not
    sizes = [len(subset) for subset, _ in atoms]
    exact = Fraction(1) if sc.max_card == 1 else Fraction(sum(sizes), len(atoms))
    assert sc.expected_size == float(exact)

    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    idx, offsets = sc.draw_block(a, k)
    support = {subset for subset, _ in atoms}
    draws = [sc.draw(b) for _ in range(k)]
    for j, x in enumerate(draws):
        assert tuple(idx[offsets[j]:offsets[j + 1]].tolist()) in support
        assert np.array_equal(idx[offsets[j]:offsets[j + 1]], x)
    assert offsets[-1] == idx.size
    assert a.random() == b.random()
