"""The compiled kernels: the step kernel bitwise against the numpy kernel
it replaced and close to the per-example loop, the tau-subset draws against
Floyd's rule, their input checks at the C boundary, and the build cache."""

import ast
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfsdca import _kernel
from dfsdca.cli import main
from dfsdca.dataset import Dataset, concat_ranges, gen_synthetic
from dfsdca.diagnostics import reference_solution
from dfsdca.losses import logistic_loss, quadratic_family, squared_loss
from dfsdca.sampling import chunked_sampling, naive_chunks, serial_uniform, tau_nice
from dfsdca.solver import (
    SolverConfig,
    SolverState,
    init_state,
    make_problem,
    resolve_theta,
    resync,
    run,
    step,
    steps,
)

from csr_rows import from_rows, row

# Only the margins' summation order differs from the reference loop, so
# the iterates agree to a few float64 roundings.
RTOL = 1e-13
ATOL = 1e-15


def gather(ds, subset):
    """Nonzeros of the rows in ``subset``, row after row, as
    ``(seg, cols, vals)``: entry k lies in row ``subset[seg[k]]`` at column
    ``cols[k]``. Each row keeps its CSR order, so
    ``np.bincount(seg, vals * w[cols], minlength=len(subset))`` sums every
    row left to right, like the CSR matvec of ``Dataset.margins``, and
    equals ``margins(w)[subset]`` bitwise."""
    starts = ds.indptr[subset]
    counts = ds.indptr[1:][subset] - starts
    pos = concat_ranges(starts, counts)
    seg = np.repeat(np.arange(subset.size), counts)
    return seg, ds.indices[pos], ds.data[pos]


def numpy_update(problem, state, subset, p, theta):
    """The numpy step kernel, the bitwise oracle of the compiled one: every
    margin by one bincount over the gathered nonzeros (CSR order within a
    row, like ``Dataset.margins``), the alpha moves, then one unbuffered
    scatter, so each coordinate takes its rows' corrections in subset order."""
    ds = problem.dataset
    w, alpha = state.w, state.alpha
    seg, cols, vals = gather(ds, subset)
    margins = np.bincount(seg, vals * w[cols], minlength=subset.size)
    delta = problem.loss.gradients(subset, margins) + alpha[subset]
    p_s = p[subset]
    alpha[subset] -= theta / p_s * delta
    coef = delta * theta / (ds.n * problem.lam * p_s)
    np.subtract.at(w, cols, coef[seg] * vals)
    state.t += 1
    state.grad_evals += int(subset.size)
    return state


def reference_step(problem, state, subset, p, theta):
    """The per-example loop: one dot product and one sparse update per
    drawn example, in subset order."""
    ds, loss = problem.dataset, problem.loss
    w, alpha = state.w, state.alpha
    rows = [row(ds, i) for i in subset]
    margins = np.array([np.dot(val, w[idx]) for idx, val in rows])
    delta = loss.gradients(subset, margins) + alpha[subset]
    alpha[subset] -= theta / p[subset] * delta
    coef = delta * theta / (ds.n * problem.lam * p[subset])
    for j, (idx, val) in enumerate(rows):
        w[idx] -= coef[j] * val
    state.t += 1
    state.grad_evals += len(subset)
    return state


def awkward_dataset():
    """Skewed rows plus an empty (label-only) row and two duplicated rows."""
    base = gen_synthetic(30, 12, 0.3, "skewed-nnz", 4)
    rows = [row(base, i) for i in range(base.n)]
    rows[10:10] = [([], []), rows[3], rows[3]]
    labels = np.concatenate([base.labels[:10], [1.0, -1.0, 1.0], base.labels[10:]])
    return from_rows(rows, labels, 12)


def quadfam(ds):
    """Quadratic family with curvature of both signs."""
    rng = np.random.default_rng(3)
    c = rng.uniform(0.2, 1.5, ds.n) * np.where(np.arange(ds.n) % 3 == 0, -1.0, 1.0)
    return quadratic_family(c, rng.standard_normal(ds.n))


LOSSES = {
    "logistic": lambda ds: logistic_loss(ds.labels),
    "squared": lambda ds: squared_loss(ds.labels),
    "quadfam": quadfam,
}


def schemes(ds):
    # the empty row has v_i = 0
    part = naive_chunks(ds.nnz.tolist())
    return [
        serial_uniform(ds.norms),
        tau_nice(ds.norms, 1),
        tau_nice(ds.norms, 7),
        tau_nice(ds.norms, ds.n),
        chunked_sampling(ds.norms, part, 1),
        chunked_sampling(ds.norms, part, 3),
    ]


@pytest.mark.parametrize("k", range(6))
def test_subset_margins_bitwise(k):
    ds = awkward_dataset()
    sc = schemes(ds)[k]
    rng = np.random.default_rng(k)
    for _ in range(50):
        w = rng.standard_normal(ds.d)
        subset = sc.draw(rng)
        seg, cols, vals = gather(ds, subset)
        margins = np.bincount(seg, vals * w[cols], minlength=subset.size)
        assert np.array_equal(margins, ds.margins(w)[subset])


def test_gather_empty_row_alone():
    ds = awkward_dataset()
    seg, cols, vals = gather(ds, np.array([10]))
    assert seg.size == cols.size == vals.size == 0


@pytest.mark.parametrize("loss", [logistic_loss, squared_loss])
@pytest.mark.parametrize("k", range(6))
def test_step_matches_per_example_loop(loss, k):
    ds = awkward_dataset()
    problem = make_problem(ds, loss(ds.labels), 0.3)
    sc = schemes(ds)[k]
    theta = 0.7 * float(np.min(sc.p))
    rng = np.random.default_rng(10 + k)
    for _ in range(20):
        start = init_state(problem, rng.standard_normal(ds.n))
        subset = sc.draw(rng)
        got = step(problem, start.copy(), subset, sc.p, theta)
        want = reference_step(problem, start.copy(), subset, sc.p, theta)
        np.testing.assert_allclose(got.alpha, want.alpha, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(got.w, want.w, rtol=RTOL, atol=ATOL)
        assert (got.t, got.grad_evals) == (want.t, want.grad_evals)


@pytest.mark.parametrize("descriptor", ["nice:1", "nice:5", "nice:20", "chunked:1", "chunked:3"])
def test_fixed_point_exact(descriptor):
    ds = gen_synthetic(20, 6, 0.8, "linear-sign", 3)
    problem = make_problem(ds, logistic_loss(ds.labels), 0.5)
    ref = reference_solution(problem)
    kind, tau = descriptor.split(":")
    if kind == "nice":
        sc = tau_nice(ds.norms, int(tau))
    else:
        sc = chunked_sampling(ds.norms, naive_chunks(ds.nnz.tolist()), int(tau))
    state = SolverState(ref.w.copy(), ref.alpha.copy())
    rng = np.random.default_rng(4)
    for _ in range(10):
        step(problem, state, sc.draw(rng), sc.p, 0.5 * float(np.min(sc.p)))
    assert np.array_equal(state.w, ref.w)
    assert np.array_equal(state.alpha, ref.alpha)


@pytest.mark.parametrize("tau", [1, 4])
def test_run_equals_public_step_loop(tau):
    # run checks the guard once and loops the guard-free kernel; a loop over
    # the public step must reproduce it bitwise
    ds = gen_synthetic(24, 8, 0.5, "skewed-nnz", 7)
    problem = make_problem(ds, logistic_loss(ds.labels), 1.0 / ds.n)
    config = SolverConfig(epochs=5, seed=9)
    got, _ = run(problem, tau_nice(ds.norms, tau), config)

    sc = tau_nice(ds.norms, tau)
    theta = resolve_theta(problem, sc, config.theta)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem)
    for t in range(1, got.t + 1):
        step(problem, state, sc.draw(rng), sc.p, theta)
        if t % ds.n == 0:
            resync(problem, state)
    assert np.array_equal(state.w, got.w)
    assert np.array_equal(state.alpha, got.alpha)
    assert state.grad_evals == got.grad_evals


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("k", range(6))
def test_step_bitwise_equals_numpy_kernel(loss, k):
    ds = awkward_dataset()
    problem = make_problem(ds, LOSSES[loss](ds), 0.3)
    sc = schemes(ds)[k]
    theta = 0.7 * float(np.min(sc.p))
    rng = np.random.default_rng(20 + k)
    got = init_state(problem, rng.standard_normal(ds.n))
    want = got.copy()
    for j in range(30):
        subset = sc.draw(rng)
        if j % 2:
            subset = rng.permutation(subset)  # order sets the scatter order
        step(problem, got, subset, sc.p, theta)
        numpy_update(problem, want, subset, sc.p, theta)
        assert np.array_equal(got.w, want.w)
        assert np.array_equal(got.alpha, want.alpha)
    assert (got.t, got.grad_evals) == (want.t, want.grad_evals)


def test_logistic_saturation_bitwise():
    # margins of a few hundred to a few thousand: exp overflows to inf in
    # the sigmoid, which must then give exactly 0 or -y
    ds = awkward_dataset()
    problem = make_problem(ds, logistic_loss(ds.labels), 0.3)
    everyone = np.arange(ds.n)
    p = np.ones(ds.n)
    rng = np.random.default_rng(8)
    for scale in (1e2, 1e3, 1e4):
        w = scale * rng.standard_normal(ds.d)
        got = SolverState(w, rng.standard_normal(ds.n))
        want = got.copy()
        step(problem, got, everyone, p, 0.5)
        numpy_update(problem, want, everyone, p, 0.5)
        assert np.array_equal(got.w, want.w)
        assert np.array_equal(got.alpha, want.alpha)


@pytest.mark.parametrize("k", range(6))
def test_block_equals_single_subset_calls(k):
    ds = awkward_dataset()
    problem = make_problem(ds, squared_loss(ds.labels), 0.3)
    sc = schemes(ds)[k]
    theta = 0.7 * float(np.min(sc.p))
    start = init_state(problem, np.random.default_rng(k).standard_normal(ds.n))
    block = start.copy()
    idx, offsets = sc.draw_block(np.random.default_rng(5), 40)
    steps(problem, block, idx, offsets, sc.p, theta)
    loop = start.copy()
    rng = np.random.default_rng(5)
    for _ in range(40):
        step(problem, loop, sc.draw(rng), sc.p, theta)
    assert np.array_equal(block.w, loop.w)
    assert np.array_equal(block.alpha, loop.alpha)
    assert (block.t, block.grad_evals) == (loop.t, loop.grad_evals)


# -- the C boundary ----------------------------------------------------------

def small_problem():
    ds = gen_synthetic(20, 6, 0.5, "linear-sign", 1)
    problem = make_problem(ds, logistic_loss(ds.labels), 0.5)
    return problem, serial_uniform(ds.norms)


@pytest.mark.parametrize("subset, match", [
    ([3, 20], "index 20 is outside"),
    ([-1], "index -1 is outside"),
    ([4, 2, 4], "index 4 more than once"),
    ([1, 1], "index 1 more than once"),
    ([3, 1, 3, 1], "index 3 more than once"),  # the first repeat, not the smallest
])
def test_step_rejects_bad_subset_and_changes_nothing(subset, match):
    problem, sc = small_problem()
    state = init_state(problem, np.ones(problem.dataset.n))
    before = state.copy()
    with pytest.raises(ValueError, match=match):
        step(problem, state, subset, sc.p, 0.01)
    assert np.array_equal(state.w, before.w)
    assert np.array_equal(state.alpha, before.alpha)
    assert (state.t, state.grad_evals) == (0, 0)


def test_guard_rejection_changes_nothing():
    problem, sc = small_problem()  # p_i = 1/20
    state = init_state(problem, np.ones(problem.dataset.n))
    before = state.copy()
    with pytest.raises(ValueError, match="exceeds p_7"):
        step(problem, state, [2, 7], sc.p * np.where(np.arange(20) == 7, 0.1, 1.0), 0.04)
    assert np.array_equal(state.w, before.w)
    assert np.array_equal(state.alpha, before.alpha)


def _call(problem, sc, **override):
    state = init_state(problem)
    args = dict(
        w=state.w, alpha=state.alpha, p=sc.p, theta=0.01, guard=1.0,
        n_lam=problem.dataset.n * problem.lam,
        idx=np.array([1, 2], dtype=np.int64),
        offsets=np.array([0, 1, 2], dtype=np.int64),
    )
    args.update(override)
    _kernel.steps(problem.dataset._rows, problem.loss.kernel, **args)


@pytest.mark.parametrize("override, match", [
    ({"w": np.zeros(6, dtype=np.float32)}, "w must be"),
    ({"w": np.zeros(7)}, "w must be .* length 6"),
    ({"alpha": np.zeros(40)[::2]}, "alpha must be .*C-contiguous"),
    ({"alpha": np.zeros(20).reshape(4, 5)}, "alpha must be"),
    ({"p": np.full(19, 0.05)}, "p must be"),
    ({"p": [0.05] * 20}, "p must be"),
    ({"idx": np.array([1, 2], dtype=np.int32)}, "subset indices must be"),
    ({"offsets": np.array([0.0, 1.0, 2.0])}, "subset offsets must be"),
    ({"offsets": np.arange(6, dtype=np.int64)[::2]}, "subset offsets must be"),
    ({"offsets": np.array([0, 3], dtype=np.int64)}, "offsets do not partition"),
    ({"offsets": np.array([0, 2, 1, 2], dtype=np.int64)}, "offsets do not partition"),
    ({"offsets": np.array([], dtype=np.int64)}, "at least one entry"),
])
def test_kernel_rejects_bad_arrays(override, match):
    problem, sc = small_problem()
    with pytest.raises(ValueError, match=match):
        _call(problem, sc, **override)


def test_kernel_rejects_read_only_state():
    problem, sc = small_problem()
    w = np.zeros(6)
    w.flags.writeable = False
    with pytest.raises(ValueError, match="w must be a writeable"):
        _call(problem, sc, w=w)


def test_kernel_rejects_a_loss_of_another_length():
    # the rows of one Dataset and the losses of 21 examples: the one check
    # that sharing the two bindings needs
    problem, sc = small_problem()
    state = init_state(problem, np.ones(problem.dataset.n))
    before = state.copy()
    with pytest.raises(ValueError, match="^step kernel: 21 losses for 20 rows$"):
        _kernel.steps(problem.dataset._rows, logistic_loss(np.ones(21)).kernel,
                      state.w, state.alpha, sc.p, 0.01, 1.0,
                      problem.dataset.n * problem.lam,
                      np.array([1, 2], dtype=np.int64), np.array([0, 2], dtype=np.int64))
    assert np.array_equal(state.w, before.w)
    assert np.array_equal(state.alpha, before.alpha)


def test_csr_is_made_only_by_the_checking_pass_and_the_transpose():
    # the kernels read a Csr unchecked: only csr_pass, which checks the
    # arrays, and the transpose of a checked Csr may make one
    makers = set()
    for path in _kernel.SOURCE.parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                makers |= {f"{path.name}:{func.name}" for node in ast.walk(func)
                           if isinstance(node, ast.Call)
                           and "Csr" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))}
    assert makers == {"_kernel.py:csr_pass", "_kernel.py:transpose"}


def test_dataset_rejects_d_past_int32_before_allocating():
    # the step kernel reads int32 indices, and a d-sized w would take 17 GB,
    # so the Dataset itself refuses d >= 2**31
    with pytest.raises(ValueError, match=r"n=1, d=2147483658 and nnz=1 .*2147483647"):
        Dataset([0, 1], [2**31 + 5], [1.0], [1.0], 2**31 + 10)


def floyd_draws(units, tau, k, seed=0):
    bounds = np.arange(units - tau + 1, units + 1)
    return np.random.default_rng(seed).integers(0, bounds, size=(k, tau))


def test_tau_subsets_resolves_in_place():
    # the compiled draws are numpy's bounded integers, resolved by Floyd's rule
    rng = np.random.default_rng(0)
    rows = np.full((50, 4), -1, dtype=np.int64)
    _kernel.tau_subsets(rng, 9, rows)
    draws = floyd_draws(9, 4, 50)
    for t, got in zip(draws, rows):
        want = []  # Floyd's rule, slot by slot
        for c, v in enumerate(t):
            want.append(int(v) if v not in want else 9 - 4 + c)
        assert got.tolist() == want
    twin = np.random.default_rng(0)
    twin.integers(0, np.arange(6, 10), size=(50, 4))
    assert rng.integers(2**62) == twin.integers(2**62)


# the array that receives the draws
@pytest.mark.parametrize("units, draws, match", [
    (9, np.empty((3, 4), np.int32), "out must be .*int64"),
    (9, np.empty((3, 8), np.int64)[:, ::2], "out must be .*C-contiguous"),
    (9, np.empty((3, 4), np.int64, order="F"), "out must be .*C-contiguous"),
    (9, np.empty(12, np.int64), "out must be .*2-d"),
    (3, np.empty((3, 4), np.int64), r"tau=4 is not in \[1, units=3\]"),
], ids=["int32", "strided", "fortran", "1-d", "tau-above-units"])
def test_tau_subsets_rejects_bad_draws(units, draws, match):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        _kernel.tau_subsets(rng, units, draws)
    assert rng.bit_generator.state == state


def test_tau_subsets_rejects_read_only_draws():
    draws = np.empty((3, 4), np.int64)
    draws.flags.writeable = False
    with pytest.raises(ValueError, match="out must be a writeable"):
        _kernel.tau_subsets(np.random.default_rng(0), 9, draws)


def test_source_compiles_without_warnings():
    gcc = _kernel._compiler()
    if gcc is None:
        pytest.skip("gcc is not on PATH")
    # -O2 turns on the flow analysis behind -Wmaybe-uninitialized
    proc = subprocess.run(
        [gcc, "-O2", "-Wall", "-Wextra", "-Werror", "-I", np.get_include(), "-c",
         "-o", os.devnull, str(_kernel.SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # every exported function is bound, and every binding names one
    defined = re.findall(r"^\w[^(;]*[ *]dfsdca_(\w+)\(", _kernel.SOURCE.read_text(), re.M)
    assert len(defined) == len(set(defined))
    assert set(defined) == set(_kernel.SIGNATURES)


# A script for a python under AddressSanitizer: it builds the kernels with
# ASan and UBSan into the directory argv[1] and drives every C path, so an
# out-of-bounds access, a use after free or undefined behaviour aborts it.
# Each parser input is copied into a buffer of exactly its length, so a
# read past the end trips ASan, the 8-byte reads of digits too. Every parser
# return code is driven except NO_MEMORY, each input also in 2 to 4 pieces
# (so on threads), with a fault in each piece and OUT_OF_RANGE in each
# piece, the Dataset pass on valid, empty and faulty arrays, the oracle's
# Hessian products on one thread and on two, at every cut of a small
# problem, and the row pass with each loss epilogue and the transpose, with
# an empty row, an empty column, no rows and n = d = 1. Leaks are not
# checked: the interpreter itself never frees everything.
SANITIZED = """
import sys
from pathlib import Path

import numpy as np

from dfsdca import _kernel
from dfsdca.dataset import Dataset, ParseError, gen_synthetic, libsvm_arrays
from dfsdca.diagnostics import reference_solution
from dfsdca.sampling import _tau_subsets
from dfsdca.solver import SolverConfig, init_state, make_problem, run, step
from dfsdca.losses import LossSpec, logistic_loss, squared_loss
from test_kernel import awkward_dataset, schemes

cache = Path(sys.argv[1])
_kernel.FLAGS += ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
_kernel.CACHE = cache
_kernel._user_cache = lambda: cache
rng = np.random.default_rng(0)
for units, tau in [(1, 1), (7, 7), (300, 8), (5000, 5000), (30000, 3000)]:
    rows = _tau_subsets(rng, units, tau, 3)
    assert all(np.unique(r).size == tau and 0 <= r[0] and r[-1] < units for r in rows)
# the generator's row pass: Floyd's draws, k = d, and the tail shuffle
for d, counts in [(1, [1, 0, 1]), (10_000, [10_000, 17, 1]),
                  (10_001, [201, 10_001, 200, 9000])]:
    cols, vals = _kernel.choice_rows(rng, d, np.array(counts))
    for part in np.split(cols, np.cumsum(counts)[:-1]):
        assert np.all(np.diff(part) > 0) and np.all((0 <= part) & (part < d))
    assert np.all(np.isfinite(vals)) and np.all(vals != 0.0)
try:
    _kernel.choice_rows(rng, 5, np.array([2, 6]))
except ValueError:
    pass
else:
    raise AssertionError("a count above d was accepted")
ds = awkward_dataset()
problem = make_problem(ds, logistic_loss(ds.labels), 0.3)
for sc in schemes(ds)[1:]:
    run(problem, sc, SolverConfig(epochs=3, seed=1))
p = np.full(ds.n, 0.5)
for subset in ([4, 2, 4], [3, ds.n], [-1]):
    try:
        step(problem, init_state(problem), subset, p, 0.1)
    except ValueError:
        continue
    raise AssertionError(f"{subset} was accepted")


def outcome(text, pieces):
    arrays, fault = _kernel.parse_libsvm(np.frombuffer(text, np.uint8).copy(),
                                         pieces=pieces)
    return fault or [a.tobytes() if isinstance(a, np.ndarray) else a for a in arrays]


# 2 to 4 pieces parse text as one does; the one piece's outcome
def same_in_pieces(text):
    want = outcome(text, 1)
    for pieces in (2, 3, 4):
        assert outcome(text, pieces) == want, (text[:20], pieces)
    return want


long_line = b"1 " + b" ".join(b"%d:0.5" % j for j in range(1, 120_000))
for text, want in [
    (b"1 2:3.5", None), (b"+1\\r\\n-1\\x1f", None), (b"1 1:1." + b"0" * 2**20, None),
    (long_line, None), (b"", None), (b"-1 1:2 # c", None),
    (b"foo", "label"), (b":", "label"), (b"1 2", "expected"), (b"1 :", "token"),
    (b"1 1:", "token"), (b"1 :5", "token"), (b"1 1:2e", "token"), (b"1 0:1", "1-based"),
    (b"1 99999999999999999999:1", "exceeds"), (b"1 2:1 1:1", "non-increasing"),
    (b"1 1:1\\n2:\\xff", "non-ASCII"), (b"1 #\\x80", "non-ASCII"),
    (b"1 9223372036854775807:1", None), (b"1 9223372036854775808:1", "exceeds"),
    (b"1 -99999999999999999999:1", "1-based"), (b"1 +0:1", "1-based"),
    (b"nan 1:-NaN 2:inf", None), (b"1 1:1e99999999999999999999", None),
    (b"1 1:2E+5", None), (b"1 1:1.2.3", "token"), (b"1 1x:1", "token"),
    (b"1 1:1e5x", "token"),
    # numbers that end the buffer, around the 8-digit blocks read at once
    *((text + b"1234567890123456789"[:k], None)
      for k in (7, 8, 9, 15, 16, 17, 19) for text in (b"1 1:", b"1 1:0.0000000", b"")),
    (b"1 1:12345678901234567890", None), (b"12345678", None), (b"1 1:1234567e", "token"),
    (b"1 123456789012345678:1", None), (b"1 1234567890123456789:1", None),
    (b"1 1:12345678\\t", None), (b"1 1:12345678\\x1f", None), (b"1 1:12345678#", None),
    (b"1 1:12345678\\x80", "non-ASCII"), (b"1 12345678:x", "token"),
]:
    try:
        libsvm_arrays(np.frombuffer(text, np.uint8).copy())
    except ParseError as exc:
        assert want is not None and want in str(exc), (text[:20], exc)
    else:
        assert want is None, text[:20]
    same_in_pieces(text + b"\\n" + text + b"\\r\\n\\n" + text)
# the value reader: a zero, Eisel-Lemire (its second product and a tie
# rounded to even among the random reprs and the listed numbers) and each
# fallback: 20 digits, an exponent outside the table, a subnormal, an
# overflow, an infinity
words = [b"-0", b"0e99999999999999999999", b"0.1", b"-2.5e-3", b"1e-342", b"9e308",
         b"9007199254740993", b"9007199254740995", b"12345678901234567890",
         b"1e-343", b"1e309", b"4.9e-324", b"2.2250738585072011e-308",
         b"1.7976931348623157e308", b"1.7976931348623159e308", b"-Infinity"]
scale = 10.0 ** rng.integers(-300, 300, 2000)
words += [repr(float(x)).encode() for x in rng.standard_normal(2000) * scale]
text = b"\\n".join(w + b" 1:" + w for w in words)
labels, indptr, _, vals, _ = libsvm_arrays(np.frombuffer(text, np.uint8).copy())
want = np.array([float(w) for w in words])
assert np.array_equal(labels.view(np.int64), want.view(np.int64))
assert np.array_equal(vals.view(np.int64), want[want != 0].view(np.int64))
# a fault in each piece, alone and after a fault in an earlier piece
lines = [b"%d 1:%d 7:0.5" % (r % 3 - 1, r) for r in range(60)]
for line in range(0, 60, 7):
    bad = lines.copy()
    bad[line] = b"1 2:1 1:1"
    assert same_in_pieces(b"\\n".join(bad))[1] == line + 1, line
    bad[-1] = b"x"
    assert same_in_pieces(b"\\n".join(bad))[1] == line + 1, line
# the counting pass: 16-byte blocks, 255 of them between sums, and a tail,
# cut into 1 to 4 pieces right after a newline
lib = _kernel._load()
for size in (0, 15, 16, 17, 16 * 255, 16 * 255 * 2 + 17):
    buf = np.frombuffer(bytes(range(256)) * 130, np.uint8)[:size].copy()
    for pieces in (1, 2, 3, 4):
        bounds = np.zeros((pieces, 4), np.int64)
        lib.dfsdca_libsvm_bounds(buf.ctypes.data, buf.size, pieces, bounds.ctypes.data)
        starts, ends = bounds[:, 0], bounds[:, 1]
        assert starts[0] == 0 and ends[-1] == size and np.all(starts[1:] == ends[:-1])
        assert np.all(buf[starts[1:][(starts[1:] > 0) & (starts[1:] < size)] - 1] == 10)
        assert bounds[:, 2].sum() == pieces + np.isin(buf, [10, 11, 12, 13, 28, 29, 30]).sum()
        assert bounds[:, 3].sum() == (buf == ord(":")).sum()
# the Dataset pass: valid, empty, and each fault; d past int32 never reaches it
try:
    Dataset([0, 1], [2**31 + 5], [1.0], [1.0], 2**31 + 10)
except ValueError as exc:
    assert "too large for int32" in str(exc), exc
else:
    raise AssertionError("a d past int32 was accepted")
for args in [([0, 2, 2, 3], [0, 5, 1], [1.0, -2.0, 3.0], [1.0, 2.0, 3.0], 6),
             ([0], [], [], [], 1),
             ([0, 2], [1, 1], [1.0, 2.0], [0.0], 3), ([0, 2, 1, 2], [0, 1], [1.0, 1.0], [0.0] * 3, 3),
             ([0, 3, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0], [0.0] * 3, 3),
             ([0, 1], [3], [1.0], [0.0], 3), ([0, 1], [0], [0.0], [0.0], 3),
             ([0, 1], [0], [np.inf], [0.0], 3), ([0, 1], [0], [1.0], [np.nan], 3)]:
    try:
        Dataset(*args)
    except ValueError:
        pass
# a piece's arrays smaller than the counting pass bounds them, in each piece
info = np.zeros(6, np.int64)
text = b"1 1:1 2:1\\n" * 6
buf = np.frombuffer(text, np.uint8).copy()
for pieces in (1, 2, 3):
    for piece in range(pieces):
        for column in (2, 3):
            bounds = np.zeros((pieces, 4), np.int64)
            lib.dfsdca_libsvm_bounds(buf.ctypes.data, buf.size, pieces, bounds.ctypes.data)
            bounds[piece, column] -= 1 + (column == 2)  # the rows' bound has a spare
            assert bounds[piece, column] >= 0
            rows, nnz = bounds[:, 2].sum(), bounds[:, 3].sum()
            out = [np.empty(rows), np.empty(rows + pieces, np.int64),
                   np.empty(nnz, np.int64), np.empty(nnz)]
            code = lib.dfsdca_parse_libsvm(buf.ctypes.data, pieces, bounds.ctypes.data,
                                           *(a.ctypes.data for a in out), info.ctypes.data,
                                           _kernel.pow5_table().ctypes.data)
            assert code == _kernel.OUT_OF_RANGE, (pieces, piece, column, code)
# the oracle's Hessian products and diagonals, on one thread and on two,
# against numpy's expressions: at every pair of cuts on the awkward dataset
# (its empty row and an empty column included) and, many times over, on one
# large enough that the helper runs halves; then threaded oracle calls
def same_hessian_bits(ds, lam, all_cuts, repeats=1):
    rng = np.random.default_rng(ds.n)
    c, p = rng.uniform(-1.0, 1.0, ds.n), rng.standard_normal(ds.d)
    want = [np.bincount(ds.indices, ds.data * ds.data * np.repeat(c, ds.nnz),
                        minlength=ds.d) / ds.n + lam,
            ds.combine(c * ds.margins(p)) / ds.n + lam * p]
    for threads in (1, 2):
        with _kernel.Hessian(ds, lam, threads=threads) as hessian:
            for cuts in all_cuts or [hessian.cuts]:
                hessian.cuts = cuts
                for _ in range(repeats):
                    got = [hessian.at(c), hessian.product(p)]
                    assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
                               for a, b in zip(got, want)), (threads, cuts)


wide = Dataset(ds.indptr, ds.indices, ds.data, ds.labels, ds.d + 1)
same_hessian_bits(wide, 0.3, [(r, j) for r in range(wide.n + 1) for j in range(wide.d + 1)])
big = gen_synthetic(1500, 100, 0.1, "linear-sign", 0)
same_hessian_bits(big, 0.01, None, repeats=50)
_kernel.MIN_HESSIAN_NNZ = 0
for loss in (logistic_loss, squared_loss):
    reference_solution(make_problem(big, loss(big.labels), 0.01))
# the row pass, each loss epilogue, the loss pass alone (on all examples
# and on an index array) and the transpose
for data in (ds, wide, Dataset([0], [], [], [], 1), Dataset([0, 1], [0], [2.0], [1.0], 1)):
    w, alpha = rng.standard_normal(data.d), rng.standard_normal(data.n)
    data.combine(alpha)
    for spec in (LossSpec("logistic", y=np.ones(data.n)), LossSpec("squared", y=alpha),
                 LossSpec("quadfam", c=np.full(data.n, -2.0), b=alpha)):
        margins, values = data.losses(w, spec.kernel)
        assert np.array_equal(margins, data.margins(w))
        spec.kernel(margins, values=True, alpha=True, curvatures=True)
        spec.kernel(margins[::-1].copy(), np.arange(data.n)[::-1], alpha=True)
assert list(cache.glob("_kernel-*.so"))
print("clean")
"""


def test_kernels_clean_under_sanitizers(tmp_path):
    gcc = _kernel._compiler()
    if gcc is None:
        pytest.skip("gcc is not on PATH")
    asan = subprocess.run([gcc, "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan) or not os.path.exists(asan):
        pytest.skip("gcc has no libasan")
    path = [str(_kernel.SOURCE.parents[1]), str(Path(__file__).parent)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SANITIZED, str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout.strip() == "clean", proc.stderr


# -- build cache -------------------------------------------------------------

def test_source_edit_gets_new_cache_entry(tmp_path, monkeypatch):
    src = tmp_path / "_kernel.c"
    src.write_bytes(_kernel.SOURCE.read_bytes())
    cache = tmp_path / "cache"
    first = _kernel.build(src, cache)
    src.write_bytes(src.read_bytes() + b"\n/* edited */\n")
    second = _kernel.build(src, cache)
    assert second != first
    # both entries, no temporary file left behind
    assert sorted(p.name for p in cache.iterdir()) == sorted([first.name, second.name])
    # a cached entry is reused without the compiler
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    assert _kernel.build(src, cache) == second


def test_missing_compiler_names_gcc(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    with pytest.raises(_kernel.KernelBuildError, match="gcc"):
        _kernel.build(_kernel.SOURCE, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unwritable_cache_is_a_build_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(_kernel.KernelBuildError, match="cannot write"):
        _kernel.build(_kernel.SOURCE, blocker / "cache", blocker / "user")


def test_unwritable_package_cache_falls_back_to_user_cache(tmp_path, monkeypatch):
    # a path below a regular file cannot be created, whoever runs the test
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "CACHE", blocker / "cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert _kernel._load() is not None
    built = list((tmp_path / "home" / ".cache" / "dfsdca").iterdir())
    assert [p.suffix for p in built] == [".so"]
    # the user's entry is found again without the compiler
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    assert _kernel.build(_kernel.SOURCE, _kernel.CACHE, _kernel._user_cache()) == built[0]


def test_missing_npyrandom_names_its_path(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    monkeypatch.setattr(_kernel, "NPYRANDOM", missing)
    with pytest.raises(_kernel.KernelBuildError, match=re.escape(str(missing))):
        _kernel.build(_kernel.SOURCE, tmp_path / "cache")
    assert list(tmp_path.iterdir()) == []
    # the CLI reports it as a build failure
    monkeypatch.setattr(_kernel, "_lib", None)
    code = main(["reference", "--synthetic", "20,5,0.5,linear-sign",
                 "--out", str(tmp_path / "ref.json")])
    assert code == 4
    assert str(missing) in capsys.readouterr().err


def test_npyrandom_bytes_are_part_of_the_cache_key(tmp_path, monkeypatch):
    lib = tmp_path / "libnpyrandom.a"
    lib.write_bytes(_kernel.NPYRANDOM.read_bytes())
    monkeypatch.setattr(_kernel, "NPYRANDOM", lib)
    first = _kernel.build(_kernel.SOURCE, tmp_path / "cache")
    # another numpy's library: a new entry, even where the compiler is gone
    lib.write_bytes(lib.read_bytes() + b"\0")
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    with pytest.raises(_kernel.KernelBuildError, match="gcc"):
        _kernel.build(_kernel.SOURCE, tmp_path / "cache")
    assert list((tmp_path / "cache").iterdir()) == [first]


def test_library_exports_no_numpy_symbols():
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm is not on PATH")
    path = _kernel.build(_kernel.SOURCE, _kernel.CACHE, _kernel._user_cache())
    out = subprocess.run([nm, "-D", "--defined-only", str(path)],
                         capture_output=True, text=True, check=True).stdout
    names = {line.split()[-1] for line in out.splitlines() if line.strip()}
    assert "dfsdca_choice_rows" in names
    assert not any(name.startswith("random_") for name in names)


def test_failed_compile_leaves_no_file(tmp_path):
    src = tmp_path / "broken.c"
    src.write_text("this is not C\n")
    cache = tmp_path / "cache"
    with pytest.raises(_kernel.KernelBuildError, match="gcc failed"):
        _kernel.build(src, cache)
    assert list(cache.iterdir()) == []


def no_compiler(tmp_path, monkeypatch):
    """Unload the library, empty both caches and hide gcc."""
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "CACHE", tmp_path / "cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)


def test_cli_exits_4_without_compiler(tmp_path, monkeypatch, capsys):
    no_compiler(tmp_path, monkeypatch)
    code = main(["run", "--synthetic", "20,5,0.5,linear-sign", "--epochs", "1",
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 4
    assert "gcc" in capsys.readouterr().err


def test_validate_exits_4_without_compiler(tmp_path, monkeypatch, capsys):
    # the first suite that needs the kernels raises the build error
    no_compiler(tmp_path, monkeypatch)
    assert main(["validate", "--suite", "gradcheck,lemma1"]) == 4
    captured = capsys.readouterr()
    assert "gcc" in captured.err and captured.out == ""


def test_reference_data_exits_4_without_compiler(tmp_path, monkeypatch, capsys):
    # --data goes through the compiled parser, even where nothing is stepped
    data = tmp_path / "two.libsvm"
    data.write_text("+1 1:1\n-1 2:1\n")
    no_compiler(tmp_path, monkeypatch)
    code = main(["reference", "--data", str(data), "--out", str(tmp_path / "ref.json")])
    assert code == 4
    assert "gcc" in capsys.readouterr().err


def test_reference_synthetic_exits_4_without_compiler(tmp_path, monkeypatch, capsys):
    # the synthetic generator draws its rows through the compiled kernels
    no_compiler(tmp_path, monkeypatch)
    code = main(["reference", "--synthetic", "20,5,0.5,linear-sign",
                 "--out", str(tmp_path / "ref.json")])
    assert code == 4
    assert "gcc" in capsys.readouterr().err


def test_chunk_stats_exits_4_without_compiler(tmp_path, monkeypatch, capsys):
    # tau-nice and chunked draws go through the compiled kernels too
    no_compiler(tmp_path, monkeypatch)
    code = main(["chunk-stats", "--synthetic", "40,5,0.5,skewed-nnz", "--tau", "2",
                 "--draws", "3", "--out", str(tmp_path / "stats.csv")])
    assert code == 4
    assert "gcc" in capsys.readouterr().err


@pytest.mark.parametrize("block", [1 << 20, 9])
def test_run_blocks_equal_step_loop(monkeypatch, block):
    # run's blocks end at every resync and checkpoint and at the size cap;
    # wherever they end, the iterates equal one step per draw
    import dfsdca.solver as solver

    monkeypatch.setattr(solver, "_BLOCK_EXAMPLES", block)
    ds = gen_synthetic(23, 8, 0.5, "skewed-nnz", 5)
    problem = make_problem(ds, logistic_loss(ds.labels), 1.0 / ds.n)
    sc = chunked_sampling(ds.norms, naive_chunks(ds.nnz.tolist()), 2)
    config = SolverConfig(epochs=12, seed=3)
    got, trace = run(problem, sc, config)
    assert got.t > 2 * ds.n  # two resyncs

    theta = resolve_theta(problem, sc, config.theta)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem)
    for t in range(1, got.t + 1):
        step(problem, state, sc.draw(rng), sc.p, theta)
        if t % ds.n == 0:
            resync(problem, state)
    assert np.array_equal(state.w, got.w)
    assert np.array_equal(state.alpha, got.alpha)
    # the k-th record is where a run of k epochs ends
    want = [math.ceil(k * ds.n / sc.expected_size) for k in range(config.epochs + 1)]
    assert [r.t for r in trace.records] == want
