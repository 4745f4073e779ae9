"""dfSDCA: dual-free stochastic dual coordinate ascent with arbitrary
mini-batching schemes, chunk-based load balancing, and a diagnostics suite
that checks the method's convergence guarantees numerically."""

from .dataset import (
    Dataset,
    ParseError,
    gen_synthetic,
    normalize_max_norm,
    parse_libsvm,
    serialize_libsvm,
)
from .diagnostics import (
    Potentials,
    ReferenceError,
    ReferenceSolution,
    convergence_report,
    decay_envelope,
    potentials,
    reference_solution,
    verify_contraction,
    verify_lemma1_B,
    verify_lemma1_C,
    verify_lemma2,
)
from .losses import (
    LossSpec,
    SmoothnessConstants,
    build_nonconvex_instance,
    logistic_loss,
    quadratic_family,
    smoothness_constants,
    squared_loss,
)
from .sampling import (
    ChunkPartition,
    SamplingScheme,
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
from .solver import (
    DivergenceError,
    ProblemSpec,
    SolverConfig,
    SolverState,
    Trace,
    init_state,
    make_problem,
    primal_gradient,
    primal_value,
    run,
    step,
    theta_convex,
    theta_nonconvex,
)

__version__ = "0.1.0"
