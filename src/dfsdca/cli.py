"""Command-line front end: run experiments, inspect chunk partitions,
drive the validator suites, and compute reference solutions.

Exit codes: 0 success, 1 usage, 2 data error, 3 divergence or validation
failure, 4 the compiled kernels could not be built or loaded. All
subcommands are deterministic under a fixed seed; CSV and JSON outputs
carry no timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._kernel import KernelBuildError
from .dataset import (
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
    run,
)

TRACE_COLUMNS = "t,epoch,primal,subopt,B,D,E,envelope_D,envelope_E,theta"
AGGREGATE_COLUMNS = (
    "t,epoch,primal_mean,primal_stderr,subopt_mean,subopt_stderr,"
    "B_mean,B_stderr,D_mean,D_stderr,E_mean,E_stderr,"
    "envelope_D,envelope_E,theta"
)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    return repr(float(x))


def _parse_synthetic(spec: str):
    parts = spec.split(",")
    if len(parts) != 4:
        raise UsageError("--synthetic expects n,d,density,model")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2]), parts[3]
    except ValueError as exc:
        raise UsageError(f"bad --synthetic value: {exc}")


def _load_dataset(args):
    """The dataset named by --data or --synthetic, and the loss that the
    synthetic model 'nonconvex' comes with (None for every other source)."""
    if args.data:
        try:
            with open(args.data) as fh:
                return parse_libsvm(fh), None
        except OSError as exc:
            raise DataError(f"cannot read {args.data}: {exc}")
        except ParseError as exc:
            raise DataError(str(exc))
    if args.synthetic:
        n, d, density, model = _parse_synthetic(args.synthetic)
        if model == "nonconvex":
            return build_nonconvex_instance(n, d, args.seed)
        return gen_synthetic(n, d, density, model, args.seed), None
    raise UsageError("provide --data FILE or --synthetic n,d,density,model")


def _build_problem(args) -> ProblemSpec:
    """Resolve data source, loss, normalization and lambda into a problem."""
    dataset, loss = _load_dataset(args)
    if loss is not None and args.loss != "quadfam":
        raise UsageError("model 'nonconvex' requires --loss quadfam")

    if args.normalize:
        # Rescaling preserves quadfam average-curvature positivity, so a
        # pre-built loss stays valid.
        dataset, _ = normalize_max_norm(dataset)

    if loss is None:
        if args.loss == "quadfam":
            raise UsageError(
                "--loss quadfam needs --synthetic n,d,density,nonconvex"
            )
        build = {"logistic": logistic_loss, "squared": squared_loss}[args.loss]
        loss = build(dataset.labels)

    lam = _resolve_lambda(args.lam, dataset.n)
    return make_problem(dataset, loss, lam)


def _resolve_lambda(token: str, n: int) -> float:
    if token.strip() == "1/n":
        return 1.0 / n
    try:
        lam = float(token)
    except ValueError:
        raise UsageError(f"--lambda must be a number or '1/n', got {token!r}")
    return lam


def _build_scheme(descriptor: str, problem: ProblemSpec, seed: int):
    norms = problem.dataset.norms
    if descriptor == "serial-uniform":
        return serial_uniform(norms)
    if descriptor == "serial-importance":
        return serial_importance(norms, problem.loss.l, problem.lam)
    kind, _, value = descriptor.partition(":")
    parse = {"serial-random": float, "nice": int, "chunked": int}.get(kind)
    if parse is None:
        raise UsageError(f"unknown sampling descriptor {descriptor!r}")
    try:
        value = parse(value)
    except ValueError:
        raise UsageError(f"--sampling {descriptor!r}: expected {kind}:<{parse.__name__}>")
    if kind == "serial-random":
        return random_c_sampling(norms, value, seed)
    if kind == "nice":
        return tau_nice(norms, value)
    return chunked_sampling(norms, naive_chunks(problem.dataset.nnz.tolist()), value)


def _load_reference(path: str, problem: ProblemSpec) -> ReferenceSolution:
    try:
        with open(path) as fh:
            ref = ReferenceSolution.from_json(json.load(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"bad reference file {path}: {exc}")
    if ref.w.size != problem.dataset.d or ref.alpha.size != problem.dataset.n:
        raise DataError("reference file does not match the problem dimensions")
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


def _trace_csv(trace: Trace) -> list[str]:
    lines = [TRACE_COLUMNS]
    rec0 = trace.records[0]
    for r in trace.records:
        env_D = _envelope(rec0.D, trace.theta, r.t)
        env_E = _envelope(rec0.E, trace.theta, r.t)
        lines.append(",".join([
            str(r.t), _fmt(r.epoch), _fmt(r.primal), _fmt(r.subopt),
            _fmt(r.B), _fmt(r.D), _fmt(r.E), _fmt(env_D), _fmt(env_E),
            _fmt(trace.theta),
        ]))
    return lines


def _aggregate_csv(traces: list[Trace]) -> list[str]:
    lines = [AGGREGATE_COLUMNS]
    theta = traces[0].theta
    n_rec = len(traces[0].records)
    have_ref = traces[0].records[0].B is not None
    t0_D = traces[0].records[0].D if have_ref else None
    t0_E = traces[0].records[0].E if have_ref else None

    def stats(name, j):
        vals = np.array([tr.records[j].__dict__[name] for tr in traces],
                        dtype=np.float64)
        return vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))

    for j in range(n_rec):
        rec = traces[0].records[j]
        row = [str(rec.t), _fmt(rec.epoch)]
        for name in ("primal", "subopt", "B", "D", "E"):
            if name == "primal" or have_ref:
                m, se = stats(name, j)
                row += [_fmt(m), _fmt(se)]
            else:
                row += ["", ""]
        row += [_fmt(_envelope(t0_D, theta, rec.t)),
                _fmt(_envelope(t0_E, theta, rec.t)), _fmt(theta)]
        lines.append(",".join(row))
    return lines


def cmd_run(args) -> int:
    problem = _build_problem(args)
    reference = _load_reference(args.reference, problem) if args.reference else None
    schemes, traces = [], []
    for s in range(args.seed, args.seed + args.seeds):
        # serial-random:<c> draws its marginals from the seed
        schemes.append(_build_scheme(args.sampling, problem, s))
        config = SolverConfig(theta=_theta_arg(args.theta), epochs=args.epochs,
                              seed=s)
        traces.append(run(problem, schemes[-1], config, reference=reference)[1])
    body = _aggregate_csv(traces) if len(traces) > 1 else _trace_csv(traces[0])

    lines = _metadata_lines(args, problem, schemes[0], traces[0].theta) + body
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _theta_arg(raw: str):
    if raw in ("auto-convex", "auto-nonconvex"):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise UsageError(
            f"--theta must be auto-convex, auto-nonconvex or a number, got {raw!r}"
        )


def cmd_chunk_stats(args) -> int:
    dataset, _ = _load_dataset(args)
    u = dataset.nnz
    partition = naive_chunks(u.tolist())
    if args.tau > partition.k:
        raise ValueError(
            f"tau={args.tau} exceeds the number of chunks k={partition.k}"
        )

    standard = tau_nice(dataset.norms, args.tau)
    chunked = chunked_sampling(dataset.norms, partition, args.tau)
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
        _write(side, args.out + ".chunks.json")
    else:
        _write(side + "\n", None)
    return 0


def cmd_validate(args) -> int:
    names = list(ALL_SUITES) if args.suite == "all" else args.suite.split(",")
    for name in names:
        if name not in ALL_SUITES:
            raise UsageError(f"unknown suite {name!r}; choices: {','.join(ALL_SUITES)}")
    results = []
    for name in names:
        fn = ALL_SUITES[name]
        if name == "lemma1" and args.theta is not None:
            results.append(fn(args.seed, theta_override=float(args.theta)))
        else:
            results.append(fn(args.seed))
    report = {
        "seed": args.seed,
        "suites": results,
        "pass": all(r["pass"] for r in results),
    }
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report["pass"] else 3


def cmd_reference(args) -> int:
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


def _add_problem_args(p: argparse.ArgumentParser):
    p.add_argument("--data", help="LIBSVM-format data file")
    p.add_argument(
        "--synthetic",
        help="n,d,density,model with model in "
             "{linear-sign,linear-noise,skewed-nnz,nonconvex}",
    )
    p.add_argument("--loss", default="logistic",
                   choices=("logistic", "squared", "quadfam"))
    p.add_argument("--lambda", dest="lam", default="1/n",
                   help="regularization: a number or the token 1/n")
    p.add_argument("--normalize", action="store_true",
                   help="rescale so the largest example norm is 1")
    p.add_argument("--seed", type=_int_at_least(0), default=0)


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
    p_run.add_argument("--sampling", default="serial-uniform",
                       help="serial-uniform | serial-importance | "
                            "serial-random:<c> | nice:<tau> | chunked:<tau>")
    p_run.add_argument("--epochs", type=_int_at_least(1), default=10)
    p_run.add_argument("--seeds", type=_int_at_least(1), default=1,
                       help="run this many consecutive seeds one after "
                            "another and aggregate mean/stderr columns")
    p_run.add_argument("--theta", default="auto-convex",
                       help="auto-convex | auto-nonconvex | explicit value")
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
    p_cs.add_argument("--data", help="LIBSVM-format data file")
    p_cs.add_argument("--synthetic", help="n,d,density,model")
    p_cs.add_argument("--tau", type=int, required=True)
    p_cs.add_argument("--draws", type=_int_at_least(1), default=10_000)
    p_cs.add_argument("--seed", type=_int_at_least(0), default=0)
    p_cs.add_argument("--out", help="output CSV path (default stdout)")
    p_cs.set_defaults(func=cmd_chunk_stats)

    p_val = sub.add_parser("validate", help="run the diagnostic suites")
    p_val.add_argument("--suite", default="all",
                       help="'all' or comma-separated subset of: "
                            + ",".join(ALL_SUITES))
    p_val.add_argument("--seed", type=_int_at_least(0), default=0)
    p_val.add_argument("--theta", default=None,
                       help="inject an explicit stepsize into the lemma1 "
                            "suite (guard demonstration)")
    p_val.add_argument("--out", help="JSON report path (default stdout)")
    p_val.set_defaults(func=cmd_validate)

    p_ref = sub.add_parser("reference", help="compute a reference solution")
    _add_problem_args(p_ref)
    p_ref.add_argument("--tol", type=float, default=None,
                       help="gradient-norm target "
                            "(default 1e-12 * (1 + |P(0)|))")
    p_ref.add_argument("--out", help="output JSON path (default stdout)")
    p_ref.set_defaults(func=cmd_reference)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"dfsdca: usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"dfsdca: data error: {exc}", file=sys.stderr)
        return 2
    except ReferenceError as exc:
        print(
            f"dfsdca: {exc} (achieved ||grad|| = {exc.grad_norm:.6e})",
            file=sys.stderr,
        )
        return 3
    except (DivergenceError, ValueError) as exc:
        print(f"dfsdca: {exc}", file=sys.stderr)
        return 3
    except KernelBuildError as exc:
        print(f"dfsdca: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
