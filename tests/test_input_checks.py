"""Input checks across the library: each bad call raises ValueError with its
own message.

One row per check that no other test reaches: the call, and the exact
message it must raise."""

import numpy as np
import pytest

from dfsdca import _kernel
from dfsdca.dataset import Dataset, gen_synthetic
from dfsdca.diagnostics import (
    convergence_report,
    reference_solution,
    verify_contraction,
    verify_lemma1,
)
from dfsdca.losses import (
    LossSpec,
    logistic_loss,
    quadratic_family,
    smoothness_constants,
    squared_loss,
)
from dfsdca.sampling import (
    ESO_LIMIT,
    ChunkPartition,
    chunked_sampling,
    importance_probabilities,
    naive_chunks,
    serial_uniform,
    serial_weighted,
    tau_nice,
    validate_eso,
)
from dfsdca.solver import (
    ProblemSpec,
    SolverConfig,
    Trace,
    TraceRecord,
    init_state,
    make_problem,
    step,
    theta_nonconvex,
)

from csr_rows import from_rows


def tiny_dataset():
    return from_rows([([0], [1.0]), ([1], [2.0]), ([0, 1], [1.0, 1.0])],
                     [1.0, -1.0, 1.0], 2)


def tiny_problem():
    ds = tiny_dataset()
    return make_problem(ds, squared_loss(ds.labels), 0.5)


def verify_lemma1_past_the_atom_limit():
    # C(30, 15) subsets of 30 examples: far past ATOM_LIMIT
    ds = gen_synthetic(30, 4, 0.5, "linear-noise", 0)
    problem = make_problem(ds, squared_loss(ds.labels), 0.5)
    verify_lemma1(problem, init_state(problem), 1e-3, tau_nice(ds.norms, 15),
                  reference_solution(problem))


def one_hot_rows(n):
    """n rows with one entry each, in feature 0."""
    return from_rows([([0], [1.0])] * n, np.ones(n), 1)


def verify_contraction_with(potential):
    problem = tiny_problem()
    verify_contraction(problem, init_state(problem), serial_uniform(problem.dataset.norms),
                       reference_solution(problem), potential)


def traces_on_grids(*grids):
    return [Trace(0.1, 1.0, [TraceRecord(t, 0.0, 1.0, 0.0, E=1.0) for t in ts])
            for ts in grids]


CHECKS = {
    # losses
    "loss-kind": (lambda: LossSpec("hinge", y=[1.0]), "unknown loss kind 'hinge'"),
    "quadfam-lengths": (lambda: quadratic_family([1.0, 2.0], [1.0]),
                        "quadfam needs 1-d c and b of equal length"),
    "quadfam-2d": (lambda: quadratic_family([[1.0]], [[1.0]]),
                   "quadfam needs 1-d c and b of equal length"),
    "labels-2d": (lambda: squared_loss([[1.0, 2.0]]), "labels must be 1-d"),
    "logistic-labels": (lambda: logistic_loss([1.0, 0.0]),
                        "logistic loss requires labels in {-1, +1}"),
    "loss-size": (lambda: smoothness_constants(squared_loss([1.0]), tiny_dataset()),
                  "loss and dataset sizes disagree"),
    # sampling
    "p-norms-lengths": (lambda: serial_weighted(np.ones(2), [1.0]),
                        "p and norms must have the same length"),
    "nan-marginal": (lambda: serial_weighted(np.ones(3), [np.nan, 0.5, 0.5]),
                     "marginals must satisfy 0 < p_i <= 1"),
    "partition-empty": (lambda: ChunkPartition([], [], 1.0),
                        "g and s must be nonempty and equally long"),
    "partition-unequal": (lambda: ChunkPartition([1, 2], [1], 1.0),
                          "g and s must be nonempty and equally long"),
    "partition-2d": (lambda: ChunkPartition(np.ones((2, 2), int), np.ones((2, 2)), 1.0),
                     "g and s must be 1-d, got shapes (2, 2) and (2, 2)"),
    "partition-bool-size": (lambda: ChunkPartition([3, True], [3, 1], 1.0),
                            "chunk 1 has size True, not an integer"),
    "negative-nnz": (lambda: naive_chunks([1, -1]), "nnz entries must be nonnegative"),
    "partition-cover": (lambda: chunked_sampling(np.ones(3), naive_chunks([1, 1]), 1),
                        "partition does not cover this dataset"),
    "importance-lam": (lambda: importance_probabilities([1.0], [1.0], 0.0),
                       "l and lam must be positive"),
    "importance-l": (lambda: importance_probabilities([0.0], [1.0], 1.0),
                     "l and lam must be positive"),
    "eso-atom-limit": (lambda: validate_eso(tau_nice(np.ones(25), 5), one_hot_rows(25)),
                       "scheme support too large for exact enumeration"),
    "eso-n-limit": (lambda: validate_eso(serial_uniform(np.ones(ESO_LIMIT + 1)),
                                         one_hot_rows(ESO_LIMIT + 1)),
                    f"the exact ESO check builds n x n matrices: n = {ESO_LIMIT + 1} "
                    f"exceeds the limit {ESO_LIMIT}"),
    "core-loads-u": (lambda: tau_nice(np.ones(3), 2).core_loads(
                         np.random.default_rng(0), np.ones(2), 1),
                     "nice:2 samples 3 examples, u has shape (2,)"),
    # solver
    "lam-zero": (lambda: ProblemSpec(tiny_dataset(), squared_loss([1.0] * 3), 0.0),
                 "regularization lam must be positive and finite, got 0.0"),
    "lam-inf": (lambda: ProblemSpec(tiny_dataset(), squared_loss([1.0] * 3), np.inf),
                "regularization lam must be positive and finite, got inf"),
    "lam-nan": (lambda: ProblemSpec(tiny_dataset(), squared_loss([1.0] * 3), np.nan),
                "regularization lam must be positive and finite, got nan"),
    "epochs-fraction": (lambda: SolverConfig(epochs=1.5),
                        "epochs must be an integer, got 1.5"),
    "epochs-bool": (lambda: SolverConfig(epochs=True), "epochs must be an integer, got True"),
    "theta-nonconvex": (lambda: theta_nonconvex([0.5], [1.0], [-1.0], 1.0, 1),
                        "p, lam and n must be positive and v, L_i nonnegative"),
    "subset-2d": (lambda: step(tiny_problem(), init_state(tiny_problem()),
                               np.zeros((1, 1)), np.ones(3) / 3, 0.1),
                  "subset must be a 1-d array of example indices"),
    # dataset
    "csr-2d": (lambda: Dataset([0, 1], [[0]], [[1.0]], [1.0], 2),
               "data, indices, and indptr should be 1-D"),
    "gen-n": (lambda: gen_synthetic(0, 5, 0.5, "linear-sign", 0), "n and d must be >= 1"),
    "gen-d": (lambda: gen_synthetic(5, 0, 0.5, "linear-sign", 0), "n and d must be >= 1"),
    # diagnostics
    "oracle-tol": (lambda: reference_solution(tiny_problem(), tol=-1.0),
                   "tol must be a nonnegative number, got -1.0"),
    "oracle-tol-nan": (lambda: reference_solution(tiny_problem(), tol=np.nan),
                       "tol must be a nonnegative number, got nan"),
    "atom-limit": (verify_lemma1_past_the_atom_limit,
                   "scheme support too large for exact enumeration"),
    "potential-name": (lambda: verify_contraction_with("B"), "potential must be 'E' or 'D'"),
    "checkpoint-grids": (lambda: convergence_report(traces_on_grids([0, 3], [0, 4]), 0.1),
                         "traces must share their checkpoint grid"),
    # the loss binding
    "kernel-kind": (lambda: _kernel.Loss(7, 1, y=np.ones(1)),
                    "loss kernel: unknown loss kind code 7"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_bad_input_raises_its_message(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
