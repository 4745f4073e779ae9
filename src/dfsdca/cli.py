"""Command-line front end: run experiments, inspect chunk partitions,
drive the validator suites, and compute reference solutions.

Exit codes: 0 success, 1 usage, 2 data error, 3 divergence or validation
failure, 4 the compiled kernels could not be built or loaded. All
subcommands are deterministic under a fixed seed; CSV and JSON outputs
carry no timestamps so reruns are byte-identical. ``validate`` runs its
suites one after another in this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._kernel import KernelBuildError
from .dataset import (
    LABEL_MODELS,
    NonFiniteError,
    ParseError,
    gen_synthetic,
    normalize_max_norm,
    parse_libsvm,
)
from .diagnostics import (
    ALL_SUITES,
    ReferenceError,
    ReferenceSolution,
    decay_envelope,
    reference_solution,
    run_suites,
    seed_stats,
)
from .losses import build_nonconvex_instance, logistic_loss, squared_loss
from .sampling import (
    chunked_sampling,
    naive_chunks,
    random_c_sampling,
    serial_importance,
    serial_uniform,
    tau_nice,
    waiting_time,
)
from .solver import (
    DivergenceError,
    ProblemSpec,
    SolverConfig,
    Trace,
    make_problem,
    primal_value,
    run,
)

#: the record fields a trace row reports, one column each, or a mean and a
#: stderr column each over several seeds
RECORD_FIELDS = ("primal", "subopt", "B", "D", "E")
_ENVELOPE_COLUMNS = ("envelope_D", "envelope_E", "theta")
TRACE_COLUMNS = ",".join(("t", "epoch", *RECORD_FIELDS, *_ENVELOPE_COLUMNS))
AGGREGATE_COLUMNS = ",".join((
    "t", "epoch", *(f"{f}_{s}" for f in RECORD_FIELDS for s in ("mean", "stderr")),
    *_ENVELOPE_COLUMNS,
))


class DataError(Exception):
    pass


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    return repr(float(x))


def _load_dataset(args):
    """The dataset named by --data or --synthetic, of which argparse lets
    through exactly one, and the loss that the synthetic model 'nonconvex'
    comes with (None for every other source)."""
    if args.data is not None:
        try:
            with open(args.data, "rb") as fh:  # the parser reads bytes
                return parse_libsvm(fh), None
        except OSError as exc:
            raise DataError(f"cannot read {args.data}: {exc}")
        except (ParseError, NonFiniteError) as exc:
            raise DataError(str(exc))
    n, d, density, model = args.synthetic
    if model == "nonconvex":
        return build_nonconvex_instance(n, d, args.seed)
    return gen_synthetic(n, d, density, model, args.seed), None


def _build_problem(args) -> ProblemSpec:
    """Resolve data source, loss, normalization and lambda into a problem."""
    dataset, loss = _load_dataset(args)
    if args.normalize:
        # Rescaling preserves quadfam average-curvature positivity, so a
        # pre-built loss stays valid.
        dataset, _ = normalize_max_norm(dataset)
    if loss is None:
        build = {"logistic": logistic_loss, "squared": squared_loss}[args.loss]
        loss = build(dataset.labels)
    lam = 1.0 / dataset.n if args.lam == "1/n" else args.lam
    return make_problem(dataset, loss, lam)


def _build_scheme(sampling: tuple, problem: ProblemSpec, seed: int):
    """The scheme of a --sampling (kind, value); it checks the value's range."""
    kind, value = sampling
    norms = problem.dataset.norms
    if kind == "serial-uniform":
        return serial_uniform(norms)
    if kind == "serial-importance":
        return serial_importance(norms, problem.loss.l, problem.lam)
    if kind == "serial-random":
        return random_c_sampling(norms, value, seed)
    if kind == "nice":
        return tau_nice(norms, value)
    return chunked_sampling(norms, naive_chunks(problem.dataset.nnz.tolist()), value)


def _load_reference(path: str, problem: ProblemSpec) -> ReferenceSolution:
    """The reference in ``path``, if it was computed for ``problem``: same
    n and d, and P(w*) on this problem equal to the file's P_star, which
    ``reference`` wrote from the same computation."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        ref = ReferenceSolution.from_json(payload)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:  # JSON or its fields
        raise DataError(f"bad reference file {path}: {exc}")
    if ref.w.size != problem.dataset.d or ref.alpha.size != problem.dataset.n:
        raise DataError("reference file does not match the problem dimensions")
    value = primal_value(problem, ref.w)
    if not abs(value - ref.P_star) <= 1e-12 * abs(ref.P_star):
        raise DataError(
            f"reference file {path} was computed for another problem: its "
            f"P_star = {ref.P_star!r} (lambda={payload.get('lambda')!r}, "
            f"loss={payload.get('loss')!r}), but its w gives P = {value!r} "
            f"here (lambda={problem.lam!r}, loss={problem.loss.kind!r})"
        )
    return ref


def _metadata_lines(args, problem, scheme, theta) -> list[str]:
    p, v = scheme.p, scheme.eso(problem.dataset)
    return [
        f"# loss={problem.loss.kind} n={problem.dataset.n} d={problem.dataset.d}",
        f"# lambda={problem.lam!r} theta={theta!r}",
        f"# sampling={scheme.name} expected_size={scheme.expected_size!r}",
        f"# p_min={float(p.min())!r} p_max={float(p.max())!r} "
        f"v_min={float(v.min())!r} v_max={float(v.max())!r}",
        f"# seed={args.seed} seeds={args.seeds} epochs={args.epochs}",
    ]


def _envelope(x0, theta, t):
    """:func:`decay_envelope`, or None for a run without a reference."""
    return None if x0 is None else decay_envelope(x0, theta, t)


def _trace_csv(traces: list[Trace]) -> list[str]:
    """The CSV body of one seed's trace, or of the mean and stderr over
    several seeds' traces; all share the first trace's checkpoints, theta
    and starting potentials, which set the envelope."""
    first = traces[0]
    if len(traces) == 1:
        lines = [TRACE_COLUMNS]
        columns = [first.column(name) for name in RECORD_FIELDS]
    else:
        lines = [AGGREGATE_COLUMNS]
        columns = [c for name in RECORD_FIELDS for c in seed_stats(traces, name)]
    rec0 = first.records[0]
    for j, r in enumerate(first.records):
        lines.append(",".join([
            str(r.t), _fmt(r.epoch), *(_fmt(c[j]) for c in columns),
            _fmt(_envelope(rec0.D, first.theta, r.t)),
            _fmt(_envelope(rec0.E, first.theta, r.t)), _fmt(first.theta),
        ]))
    return lines


def cmd_run(args) -> int:
    _check_writable(args.out)
    problem = _build_problem(args)
    reference = _load_reference(args.reference, problem) if args.reference else None
    # one scheme for every seed: serial-random:<c> takes its marginals from
    # --seed, and the seeds differ only in their draws
    scheme = _build_scheme(args.sampling, problem, args.seed)
    traces = []
    for s in range(args.seed, args.seed + args.seeds):
        config = SolverConfig(theta=args.theta, epochs=args.epochs, seed=s)
        traces.append(run(problem, scheme, config, reference=reference)[1])
    lines = _metadata_lines(args, problem, scheme, traces[0].theta) + _trace_csv(traces)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _check_writable(*paths: str | None) -> None:
    """Raise DataError, in the words of :func:`_write`, if a file cannot be
    written at one of ``paths`` (None is stdout), before any work is done.
    Each is opened to append, which changes no file that exists, and a
    file this check created is removed again."""
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}")
        if not existed:
            os.unlink(path)


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}")
    else:
        sys.stdout.write(text)


def cmd_chunk_stats(args) -> int:
    side_path = args.out and args.out + ".chunks.json"
    _check_writable(args.out, side_path)
    dataset, _ = _load_dataset(args)
    u = dataset.nnz
    partition = naive_chunks(u.tolist())
    # built first, so that a tau above the number of chunks k names k
    chunked = chunked_sampling(dataset.norms, partition, args.tau)
    standard = tau_nice(dataset.norms, args.tau)
    rng = np.random.default_rng(args.seed)
    # one block per scheme; a core's load is its example's nnz (tau-nice)
    # or its chunk's nnz sum (chunked)
    std_samples = waiting_time(standard.core_loads(rng, u, args.draws))
    chk_samples = waiting_time(chunked.core_loads(rng, u, args.draws))

    lines = ["row,standard,chunked"]
    for i in range(args.draws):
        lines.append(f"{i},{_fmt(std_samples[i])},{_fmt(chk_samples[i])}")
    lines.append(f"mean,{_fmt(std_samples.mean())},{_fmt(chk_samples.mean())}")
    _write("\n".join(lines) + "\n", args.out)
    side = json.dumps(partition.to_json(), sort_keys=True)
    if args.out:  # the side file ends without a newline
        _write(side, side_path)
    else:
        _write(side + "\n", None)
    return 0


def cmd_validate(args) -> int:
    _check_writable(args.out)
    results = run_suites(args.suite, args.seed, args.theta)
    report = {"seed": args.seed, "suites": results,
              "pass": all(r["pass"] for r in results)}
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report["pass"] else 3


def cmd_reference(args) -> int:
    _check_writable(args.out)
    problem = _build_problem(args)
    ref = reference_solution(problem, tol=args.tol)
    payload = ref.to_json()
    payload.update({
        "lambda": problem.lam,
        "loss": problem.loss.kind,
        "n": problem.dataset.n,
        "d": problem.dataset.d,
    })
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _add_source_args(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="LIBSVM-format data file")
    source.add_argument("--synthetic", type=_synthetic, help=_SYNTHETIC)


def _add_problem_args(p: argparse.ArgumentParser):
    _add_source_args(p)
    p.add_argument("--loss", default="logistic",
                   choices=("logistic", "squared", "quadfam"))
    p.add_argument("--lambda", dest="lam", type=_lambda, default="1/n",
                   help="regularization: 1/n or a finite number above 0")
    p.add_argument("--normalize", action="store_true",
                   help="rescale so the largest example norm is 1")
    p.add_argument("--seed", type=_int_at_least(0), default=0)


def _real(accepts, expected: str):
    """An argparse type for the floats that ``accepts``; anything else,
    NaN and non-numbers included, fails naming ``expected``."""
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value
    return parse


_positive_real = _real(lambda v: 0.0 < v < math.inf, "a finite number above 0")
#: what reference_solution accepts as tol
_tolerance = _real(lambda v: v >= 0.0, "a number at least 0, inf included")


def _token_or_positive_real(*tokens: str):
    """An argparse type for one of ``tokens`` or a finite number above 0;
    anything else fails naming both."""
    number = _real(lambda v: 0.0 < v < math.inf,
                   ", ".join(tokens) + " or a finite number above 0")
    return lambda raw: raw if raw in tokens else number(raw)


#: --lambda: 1/n resolves once the data is read
_lambda = _token_or_positive_real("1/n")
#: a run's --theta; resolve_theta checks a number against min p_i
_theta = _token_or_positive_real("auto-convex", "auto-nonconvex")


def _int_at_least(low: int):
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


#: the --synthetic models: gen_synthetic's and build_nonconvex_instance's
_MODELS = (*LABEL_MODELS, "nonconvex")
_SYNTHETIC = f"n,d,density,model with model in {{{','.join(_MODELS)}}}"
_SAMPLINGS = "serial-uniform | serial-importance | serial-random:<c> | " \
             "nice:<tau> | chunked:<tau>"
#: how the --sampling kinds that take a value, after a ':', parse it
_SAMPLING_VALUES = {"serial-random": float, "nice": int, "chunked": int}
_SUITES = "'all' or comma-separated subset of: " + ",".join(ALL_SUITES)


def _synthetic(raw: str) -> tuple:
    """--synthetic as (n, d, density, model); the generator checks the
    ranges of n, d and density."""
    try:
        n, d, density, model = raw.split(",")
        if model in _MODELS:
            return int(n), int(d), float(density), model
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {_SYNTHETIC}, got {raw!r}")


def _sampling(raw: str) -> tuple:
    """--sampling as (kind, value); the scheme checks the value's range."""
    if raw in ("serial-uniform", "serial-importance"):
        return raw, None
    kind, _, value = raw.partition(":")
    try:
        return kind, _SAMPLING_VALUES[kind](value)
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(f"expected {_SAMPLINGS}, got {raw!r}")


def _suites(raw: str) -> list[str]:
    """--suite as a list of suite names: all of them, or a comma-separated few."""
    names = list(ALL_SUITES) if raw == "all" else raw.split(",")
    if not set(names) <= ALL_SUITES.keys():
        raise argparse.ArgumentTypeError(f"expected {_SUITES}, got {raw!r}")
    return names


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1 per the documented code map
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dfsdca", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run the solver and emit a CSV trace",
        description=f"Trace columns: {TRACE_COLUMNS}. With --seeds k > 1 the "
                    f"columns become {AGGREGATE_COLUMNS}. '#'-prefixed header "
                    "lines carry the resolved configuration.",
    )
    _add_problem_args(p_run)
    p_run.add_argument("--sampling", type=_sampling, default="serial-uniform",
                       help=_SAMPLINGS)
    p_run.add_argument("--epochs", type=_int_at_least(1), default=10)
    p_run.add_argument("--seeds", type=_int_at_least(1), default=1,
                       help="run this many consecutive seeds one after "
                            "another on one sampling scheme and aggregate "
                            "mean/stderr columns; serial-random:<c> takes "
                            "its marginals from --seed")
    p_run.add_argument("--theta", type=_theta, default="auto-convex",
                       help="auto-convex | auto-nonconvex | a finite number "
                            "above 0")
    p_run.add_argument("--reference", help="reference-solution JSON file")
    p_run.add_argument("--out", help="output CSV path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_cs = sub.add_parser(
        "chunk-stats",
        help="compare waiting times of standard vs chunk-grouped sampling",
        description="CSV columns row,standard,chunked plus a final mean row; "
                    "the chunk partition is written next to --out as "
                    "<out>.chunks.json.",
    )
    _add_source_args(p_cs)
    p_cs.add_argument("--tau", type=_int_at_least(1), required=True)
    p_cs.add_argument("--draws", type=_int_at_least(1), default=10_000)
    p_cs.add_argument("--seed", type=_int_at_least(0), default=0)
    p_cs.add_argument("--out", help="output CSV path (default stdout)")
    p_cs.set_defaults(func=cmd_chunk_stats)

    p_val = sub.add_parser("validate", help="run the diagnostic suites")
    p_val.add_argument("--suite", type=_suites, default="all", help=_SUITES)
    p_val.add_argument("--seed", type=_int_at_least(0), default=0)
    p_val.add_argument("--theta", type=_positive_real, default=None,
                       help="inject an explicit stepsize, a finite number "
                            "above 0, into the lemma1 suite (guard "
                            "demonstration)")
    p_val.add_argument("--out", help="JSON report path (default stdout)")
    p_val.set_defaults(func=cmd_validate)

    p_ref = sub.add_parser("reference", help="compute a reference solution")
    _add_problem_args(p_ref)
    p_ref.add_argument("--tol", type=_tolerance, default=None,
                       help="gradient-norm target "
                            "(default 1e-12 * (1 + |P(0)|))")
    p_ref.add_argument("--out", help="output JSON path (default stdout)")
    p_ref.set_defaults(func=cmd_reference)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        model = args.synthetic[3] if getattr(args, "synthetic", None) else None
        if "loss" in args and (args.loss == "quadfam") != (model == "nonconvex"):
            parser.error("--loss quadfam and the model nonconvex need each other")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"dfsdca: data error: {exc}", file=sys.stderr)
        return 2
    except (ReferenceError, DivergenceError, ValueError) as exc:
        print(f"dfsdca: {exc}", file=sys.stderr)
        return 3
    except KernelBuildError as exc:
        print(f"dfsdca: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
